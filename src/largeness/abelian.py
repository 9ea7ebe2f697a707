"""Exact integer matrix algebra for abelianization invariants.

Matrices are lists of lists of Python ints (arbitrary precision, row
major).  Everything here is exact; no floating point anywhere.  One
Hermite reduction gives lattice bases, integer kernels and ranks included,
and, on rows and columns in turn, the Smith invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

from .words import Presentation, Word, exponent_vector


def smith_normal_form(m_in) -> list:
    """The Smith diagonal over Z of a matrix: min(rows, cols) entries,
    non-negative and a divisibility chain.  No transforms are kept, and the
    input is copied, not changed.

    Hermite forms of the rows and of the columns, taken in turn, are
    unimodular operations, so none changes the Smith form; they end with
    one nonzero entry in each row (Kannan and Bachem 1979), a diagonal
    matrix up to order.  It presents the sum of the groups Z/d over its
    entries d, and Z/a + Z/b is isomorphic to Z/gcd(a, b) + Z/lcm(a, b)
    (Chinese remainder theorem), so gcd and lcm in place of each pair keep
    the group and make the entries a divisibility chain, which the group
    determines.
    """
    size = min(len(m_in), len(m_in[0]) if m_in else 0)
    m = hermite_rows(m_in)
    while any(len(row) - row.count(0) > 1 for row in m):
        m = hermite_rows(zip(*m))
    # each row's one nonzero entry is its pivot, which is positive
    diag = [max(row) for row in m] + [0] * (size - len(m))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


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
        ``smith_normal_form``.
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
        diag = smith_normal_form([[r.get(j, 0) for j in cols] for r in rows])
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


def integer_kernel(images) -> list:
    """Hermite-reduced basis of the integer vectors x with
    sum_j x_j * images[j] = 0, given one image row per unknown.

    The rows (images[j] | e_j) span the graph of x -> image of x; its
    vectors with zero image are the kernel.  In the Hermite form of those
    rows they are spanned by the rows with no pivot in the image part, so
    the right-hand parts of these rows are the Hermite form of the kernel,
    which is unique.
    """
    n = len(images)
    m = len(images[0]) if n else 0
    rows = hermite_rows([list(img) + [int(i == j) for i in range(n)]
                         for j, img in enumerate(images)])
    return [r[m:] for r in rows if not any(r[:m])]


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


def hom_to_Z_basis(p: Presentation):
    """Hermite-reduced basis of Hom(G, Z) as integer vectors on generators.

    Raises ValueError when the first Betti number is zero.
    """
    # chi(relator) = sum over g of chi(g) * (exponent sum of g in it), so
    # generator g's image is its row of exponent_matrix
    basis = integer_kernel(exponent_matrix(p))
    if not basis:
        raise ValueError("first Betti number is zero; no homomorphism onto Z")
    return [Chi(tuple(row)) for row in basis]


def image_span_rank(p: Presentation, words: Sequence[Word]):
    """Rank of the span of the words' images in ab(G), and whether that
    span has infinite index (rank < betti): the rank of the relators'
    exponent vectors with the words' added, less their rank alone, which
    is ngens - betti."""
    rels = [exponent_vector(r, p.ngens) for r in p.relators]
    base = len(hermite_rows(rels))
    rank = len(hermite_rows(rels + [exponent_vector(w, p.ngens) for w in words])) - base
    return rank, rank < p.ngens - base
