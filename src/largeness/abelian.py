"""Exact integer matrix algebra for abelianization invariants.

Matrices are lists of lists of Python ints (arbitrary precision, row
major).  Everything here is exact; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import Presentation, Word, exponent_vector


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a):
    return [row[:] for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


@dataclass(frozen=True)
class SmithDecomposition:
    """U.M.V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: list
    D: list
    V: list

    @property
    def diagonal(self):
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]


def smith_normal_form(m_in) -> SmithDecomposition:
    """Smith normal form over Z.

    Pivots are chosen with smallest nonzero absolute value to limit entry
    growth.  The diagonal is non-negative and forms a divisibility chain.
    """
    m = mat_copy(m_in)
    rows = len(m)
    u = identity_matrix(rows)
    v = identity_matrix(len(m[0]) if rows else 0)
    _smith(m, u, v)
    return SmithDecomposition(u, m, v)


def smith_invariants(m_in) -> list:
    """The diagonal of ``smith_normal_form(m_in)``, from the same elimination
    with no transforms kept."""
    m = mat_copy(m_in)
    _smith(m, None, None)
    return [m[i][i] for i in range(min(len(m), len(m[0]) if m else 0))]


def _smith(m, u, v) -> None:
    """Bring ``m`` to Smith form in place.  Row operations are applied to
    ``u`` and column operations to ``v`` too, unless they are None."""
    rows = len(m)
    cols = len(m[0]) if rows else 0

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        if u is not None:
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in m:
            r[i] -= q * r[j]
        if v is not None:
            for r in v:
                r[i] -= q * r[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        if v is not None:
            for r in v:
                r[i], r[j] = r[j], r[i]

    k = 0
    while k < min(rows, cols):
        # the first entry, row by row, of least absolute value in the
        # remaining block becomes the pivot; nothing is less than 1
        least, pi, pj = 0, k, k
        for i in range(k, rows):
            row = m[i]
            for j in range(k, cols):
                x = row[j]
                if x and (not least or abs(x) < least):
                    least, pi, pj = abs(x), i, j
                    if least == 1:
                        break
            if least == 1:
                break
        if not least:
            break
        swap_rows(k, pi)
        swap_cols(k, pj)
        piv = m[k][k]
        dirty = False
        for i in range(k + 1, rows):
            if m[i][k]:
                row_op(i, k, m[i][k] // piv)
                if m[i][k]:
                    dirty = True
        for j in range(k + 1, cols):
            if m[k][j]:
                col_op(j, k, m[k][j] // piv)
                if m[k][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide everything that remains
        if least > 1:
            offender = next((i for i in range(k + 1, rows)
                             if any(x % piv for x in m[i][k + 1:])), None)
            if offender is not None:
                row_op(k, offender, -1)
                continue
        k += 1

    # m is diagonal by now, so negating a row of it negates one entry
    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            m[i][i] = -m[i][i]
            if u is not None:
                u[i] = [-x for x in u[i]]


@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus torsion coefficients in divisibility order."""

    betti: int
    torsion: tuple

    @staticmethod
    def of_relations(rows, ngens: int) -> "AbelianInvariants":
        """Z^ngens modulo the span of the relation vectors that are the
        ``rows``, or the columns, of a matrix: either way the Smith diagonal
        is the same.

        Rows are sparse, each a dict from column to nonzero entry, as
        ``sparse_rows`` makes them from a dense matrix; they are copied, not
        changed.  While some entry is +-1, its column is cleared from the
        other rows and its row and column dropped: each such pivot is one
        invariant 1.  What is left, with no entry +-1, goes to
        ``smith_invariants``.
        """
        rows = [dict(row) for row in rows if row]
        units = 0
        i = 0
        while i < len(rows):
            prow = rows[i]
            for c, u in prow.items():
                if u == 1 or u == -1:
                    break
            else:
                i += 1
                continue
            del rows[i]
            units += 1
            keep = []
            for row in rows:
                f = row.get(c)
                if f:
                    f *= u  # u is its own inverse
                    for j, y in prow.items():
                        x = row.get(j, 0) - f * y
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    if not row:
                        continue
                keep.append(row)
            rows = keep
            i = 0  # a row passed over may have gained a unit
        cols = sorted(set().union(*rows))
        diag = smith_invariants([[r.get(j, 0) for j in cols] for r in rows])
        return AbelianInvariants(ngens - units - sum(1 for d in diag if d),
                                 tuple(d for d in diag if d > 1))

    def is_z_squared(self):
        return self.betti == 2 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.betti + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "1"


def sparse_rows(matrix) -> list:
    """The rows of a dense matrix as ``of_relations`` takes them: dicts of
    their nonzero entries by column."""
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def exponent_matrix(p: Presentation):
    """n x m matrix of signed generator counts, one column per relator."""
    cols = [exponent_vector(r, p.ngens) for r in p.relators]
    return [[col[g] for col in cols] for g in range(p.ngens)]


def abelianization(p: Presentation) -> AbelianInvariants:
    return AbelianInvariants.of_relations(sparse_rows(exponent_matrix(p)), p.ngens)


def hermite_rows(basis):
    """Row-style Hermite normal form: positive pivots, entries above a
    pivot reduced into [0, pivot), rows ordered by pivot column."""
    rows = [list(r) for r in basis if any(r)]
    if not rows:
        return []
    cols = len(rows[0])
    out = []
    for col in range(cols):
        while True:
            nz = [r for r in rows if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            piv = nz[0]
            for r in nz[1:]:
                q = r[col] // piv[col]
                for t in range(cols):
                    r[t] -= q * piv[t]
            rows = [r for r in rows if any(r)]
        nz = [r for r in rows if r[col]]
        if nz:
            piv = nz[0]
            if piv[col] < 0:
                for t in range(cols):
                    piv[t] = -piv[t]
            out.append(piv)
            rows = [r for r in rows if r is not piv]
    # entries above each pivot reduced into [0, pivot); reducing by row i
    # changes no column left of its pivot, so earlier pivots stay reduced
    for i in range(len(out)):
        pc = next(j for j in range(cols) if out[i][j])
        for k in range(i):
            q = out[k][pc] // out[i][pc]
            if q:
                for t in range(cols):
                    out[k][t] -= q * out[i][t]
    return out


def integer_kernel(a, n: int) -> list:
    """Hermite-reduced basis of the integer vectors x with a.x = 0, where
    ``a`` has n columns (or no rows): the columns of V in the Smith
    decomposition that meet a zero of the diagonal."""
    if not a:
        return hermite_rows(identity_matrix(n))
    snf = smith_normal_form(a)
    diag = snf.diagonal
    return hermite_rows([[snf.V[i][j] for i in range(n)]
                         for j in range(n) if j >= len(diag) or diag[j] == 0])


@dataclass(frozen=True)
class Chi:
    """Integer vector defining a surjection G -> Z, one value per generator."""

    values: tuple

    def of_word(self, w: Word) -> int:
        """chi(w); KeyError on a letter beyond the generators."""
        of_letter = {}
        for g, v in enumerate(self.values, 1):
            of_letter[g], of_letter[-g] = v, -v
        return sum(map(of_letter.__getitem__, w))

    def __iter__(self):
        return iter(self.values)


def hom_to_Z_basis(p: Presentation):
    """Hermite-reduced basis of Hom(G, Z) as integer vectors on generators.

    Raises ValueError when the first Betti number is zero.
    """
    # chi must satisfy chi . column = 0 for each relator column
    basis = integer_kernel(transpose(exponent_matrix(p)), p.ngens)
    if not basis:
        raise ValueError("first Betti number is zero; no homomorphism onto Z")
    return [Chi(tuple(row)) for row in basis]


def image_span_rank(p: Presentation, words: Sequence[Word]):
    """Rank of the span of the words' images in ab(G), and whether that
    span has infinite index (rank < betti): the rank is b1(G) minus b1 of G
    with the words added as relators."""
    rels = [exponent_vector(r, p.ngens) for r in p.relators]
    betti = AbelianInvariants.of_relations(sparse_rows(rels), p.ngens).betti
    rels += [exponent_vector(w, p.ngens) for w in words]
    rank = betti - AbelianInvariants.of_relations(sparse_rows(rels), p.ngens).betti
    return rank, rank < betti
