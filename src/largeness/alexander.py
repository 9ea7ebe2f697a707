"""Fox calculus and Alexander polynomials over Q and F_p.

The polynomial attached to a presentation and a surjection chi: G -> Z is
computed in coordinate form: a free-group automorphism first moves chi to
a basis where one pivot generator has value 1 and the rest 0, the pivot
row is dropped, and the remaining (n-1) x m matrix of specialized Fox
derivatives presents the relevant module.  The zero test is a rank
computation over the rational function field, not a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .abelian import Chi
from .words import (Presentation, Word, concat, gen_of, inverse, letter,
                    substitute)

# ---------------------------------------------------------------------------
# coefficient fields


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_factors(n: int) -> tuple:
    """The distinct primes dividing ``n``, ascending; () for 0 and +-1."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@dataclass(frozen=True)
class RationalField:
    name: str = "Q"

    def of(self, n):
        return Fraction(n)

    def inv(self, a):
        return 1 / Fraction(a)

    zero = Fraction(0)
    one = Fraction(1)


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self):
        return f"F{self.p}"

    def of(self, n):
        return n % self.p

    def inv(self, a):
        return pow(a % self.p, self.p - 2, self.p)

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1


QQ = RationalField()


def field_by_name(name: str):
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")


# ---------------------------------------------------------------------------
# group ring elements: dict word -> nonzero integer coefficient


def gr_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        c2 = out.get(w, 0) + c
        if c2:
            out[w] = c2
        else:
            out.pop(w, None)
    return out


def gr_neg(a: dict) -> dict:
    return {w: -c for w, c in a.items()}


def gr_mul(a: dict, b: dict) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = concat(w1, w2)
            c = out.get(w, 0) + c1 * c2
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return out


def gr_one() -> dict:
    return {(): 1}


def fox_derivative(r: Word, gen: int) -> dict:
    """Free derivative of ``r`` with respect to 0-based generator ``gen``.

    Satisfies d(uv) = du + u.dv, dx/dx = 1 and d(x^-1)/dx = -x^-1.
    """
    out = {}
    prefix: Word = ()
    for lt in r:
        if gen_of(lt) == gen:
            if lt > 0:
                term, coeff = prefix, 1
            else:
                term, coeff = concat(prefix, (lt,)), -1
            c = out.get(term, 0) + coeff
            if c:
                out[term] = c
            else:
                out.pop(term, None)
        prefix = concat(prefix, (lt,))
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials: dict exponent -> nonzero field scalar


@dataclass(frozen=True)
class LaurentPoly:
    field: object
    coeffs: tuple  # sorted tuple of (exponent, scalar)

    @staticmethod
    def make(field, coeffs: dict) -> "LaurentPoly":
        return LaurentPoly(field, tuple(sorted(
            (e, c) for e, c in coeffs.items() if c != field.zero)))

    def as_dict(self):
        return dict(self.coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    def degree_span(self):
        """Highest minus lowest exponent; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return self.coeffs[-1][0] - self.coeffs[0][0]

    def normalize(self) -> "LaurentPoly":
        """Canonical form up to units: lowest exponent 0; over Q primitive
        integer coefficients with positive lowest one, over F_p monic
        lowest coefficient."""
        if not self.coeffs:
            return self
        low = self.coeffs[0][0]
        shifted = {e - low: c for e, c in self.coeffs}
        if isinstance(self.field, RationalField):
            denom = lcm(*(Fraction(c).denominator for c in shifted.values()))
            ints = {e: int(c * denom) for e, c in shifted.items()}
            g = gcd(*ints.values())
            if ints[0] < 0:
                g = -g
            return LaurentPoly.make(self.field, {e: Fraction(c, g) for e, c in ints.items()})
        inv = self.field.inv(shifted[0])
        return LaurentPoly.make(self.field, {e: (c * inv) % self.field.p
                                             for e, c in shifted.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in reversed(self.coeffs):
            mono = "1" if e == 0 else "t" if e == 1 else f"t^{e}"
            if e != 0 and c == self.field.one:
                parts.append(mono)
            else:
                parts.append(f"{c}" if e == 0 else f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def lp_zero(field):
    return LaurentPoly(field, ())


def lp_const(field, n):
    return LaurentPoly.make(field, {0: field.of(n)})


def lp_add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out = a.as_dict()
    for e, c in b.coeffs:
        c2 = out.get(e, a.field.zero) + c
        if isinstance(a.field, PrimeField):
            c2 %= a.field.p
        if c2 != a.field.zero:
            out[e] = c2
        else:
            out.pop(e, None)
    return LaurentPoly.make(a.field, out)


def lp_neg(a: LaurentPoly) -> LaurentPoly:
    if isinstance(a.field, PrimeField):
        return LaurentPoly.make(a.field, {e: (-c) % a.field.p for e, c in a.coeffs})
    return LaurentPoly.make(a.field, {e: -c for e, c in a.coeffs})


def lp_sub(a, b):
    return lp_add(a, lp_neg(b))


def lp_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out = {}
    modp = a.field.p if isinstance(a.field, PrimeField) else None
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            e = e1 + e2
            c = out.get(e, a.field.zero) + c1 * c2
            if modp:
                c %= modp
            out[e] = c
    return LaurentPoly.make(a.field, {e: c for e, c in out.items() if c != a.field.zero})


def lp_shift(a: LaurentPoly, k: int) -> LaurentPoly:
    return LaurentPoly(a.field, tuple((e + k, c) for e, c in a.coeffs))


def lp_divmod(a: LaurentPoly, b: LaurentPoly):
    """Polynomial division in field[t]; inputs must have min exponent >= 0."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    field = a.field
    modp = field.p if isinstance(field, PrimeField) else None
    rem = a.as_dict()
    quot = {}
    db = b.coeffs[-1][0]
    lead_inv = field.inv(b.coeffs[-1][1])
    while rem:
        da = max(rem)
        if da < db:
            break
        factor = rem[da] * lead_inv
        if modp:
            factor %= modp
        quot[da - db] = factor
        for e, c in b.coeffs:
            e2 = e + da - db
            c2 = rem.get(e2, field.zero) - factor * c
            if modp:
                c2 %= modp
            if c2 != field.zero:
                rem[e2] = c2
            else:
                rem.pop(e2, None)
    return LaurentPoly.make(field, quot), LaurentPoly.make(field, rem)


def lp_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring (remainder must vanish)."""
    if a.is_zero:
        return a
    sa = -a.coeffs[0][0]
    sb = -b.coeffs[0][0]
    q, r = lp_divmod(lp_shift(a, sa), lp_shift(b, sb))
    if not r.is_zero:
        raise ArithmeticError("inexact polynomial division")
    return lp_shift(q, sb - sa)


def lp_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Normalized gcd in field[t] after shifting to ordinary polynomials."""
    a = lp_shift(a, -a.coeffs[0][0]) if not a.is_zero else a
    b = lp_shift(b, -b.coeffs[0][0]) if not b.is_zero else b
    while not b.is_zero:
        _, r = lp_divmod(a, b)
        a, b = b, r
        if not b.is_zero:
            b = lp_shift(b, -b.coeffs[0][0])
    return a.normalize() if not a.is_zero else a


def chi_specialize(e: dict, chi: Chi, field) -> LaurentPoly:
    """Ring map sending each word w to t^chi(w) with coefficients in field."""
    out = {}
    for w, c in e.items():
        k = chi.of_word(w)
        out[k] = out.get(k, field.zero) + field.of(c)
        if isinstance(field, PrimeField):
            out[k] %= field.p
    return LaurentPoly.make(field, {k: c for k, c in out.items() if c != field.zero})


# ---------------------------------------------------------------------------
# coordinate change


def chi_normalizing_automorphism(chi_values: Sequence[int], strategy: str = "min"):
    """Images of an automorphism beta of F_n with chi(beta(x_pivot)) = 1 and
    chi(beta(x_j)) = 0 elsewhere, together with the images of beta^-1.

    Realized as a product of elementary Nielsen moves running a Euclidean
    reduction on the value vector.  ``strategy`` breaks ties between
    equal-magnitude pivot candidates ("min": lowest index, "last": highest),
    giving two genuinely different decompositions on tied vectors.
    """
    c = list(chi_values)
    n = len(c)
    moves = []  # ("mul", i, j, k): x_i -> x_i x_j^k ; ("inv", i): x_i -> x_i^-1

    def nz():
        return [i for i in range(n) if c[i]]

    while True:
        live = nz()
        if not live:
            raise ValueError("chi is zero")
        if len(live) == 1:
            break
        # the minimum-magnitude pivot reduces every other entry strictly
        if strategy == "min":
            piv = min(live, key=lambda i: (abs(c[i]), i))
        else:
            piv = min(live, key=lambda i: (abs(c[i]), -i))
        for j in live:
            if j == piv:
                continue
            q = c[j] // c[piv]
            moves.append(("mul", j, piv, -q))
            c[j] -= q * c[piv]
    pivot = nz()[0]
    if c[pivot] == -1:
        moves.append(("inv", pivot))
        c[pivot] = 1
    if c[pivot] != 1:
        raise ValueError("chi is not surjective (gcd of values != 1)")

    def apply_moves(move_list):
        imgs = [(letter(i),) for i in range(n)]
        for mv in move_list:
            if mv[0] == "mul":
                _, i, j, k = mv
                piece = imgs[j] if k > 0 else inverse(imgs[j])
                acc = imgs[i]
                for _ in range(abs(k)):
                    acc = concat(acc, piece)
                imgs[i] = acc
            else:
                imgs[mv[1]] = inverse(imgs[mv[1]])
        return imgs

    beta = apply_moves(moves)
    inv_moves = []
    for mv in reversed(moves):
        if mv[0] == "mul":
            inv_moves.append(("mul", mv[1], mv[2], -mv[3]))
        else:
            inv_moves.append(mv)
    beta_inv = apply_moves(inv_moves)
    return beta, beta_inv, pivot


def coordinate_change(p: Presentation, chi: Chi, strategy: str = "min"):
    """Rewrite ``p`` through a free-group automorphism so the induced chi
    is 1 on one pivot generator and 0 on the others.

    Returns ``(p', pivot)``; the group presented is unchanged.
    """
    beta, beta_inv, pivot = chi_normalizing_automorphism(chi.values, strategy)
    new_rels = tuple(substitute(r, beta_inv) for r in p.relators)
    check = [chi.of_word(img) for img in beta]
    assert check == [1 if i == pivot else 0 for i in range(p.ngens)]
    return Presentation(p.generators, new_rels), pivot


# ---------------------------------------------------------------------------
# Alexander matrices


@dataclass(frozen=True)
class AlexMatrix:
    """(n-1) x m matrix of Laurent polynomials in coordinate form."""

    entries: tuple  # tuple of row tuples
    field: object
    row_gens: tuple  # generator indices of the rows in the rewritten presentation
    pivot: int

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0


def alexander_matrix(p: Presentation, chi: Chi, field, strategy: str = "min") -> AlexMatrix:
    if len(chi.values) != p.ngens:
        raise ValueError("chi needs one value per generator")
    bad = [i for i, r in enumerate(p.relators) if chi.of_word(r)]
    if bad:
        raise ValueError(f"chi does not vanish on relator {bad[0]}")
    p2, pivot = coordinate_change(p, chi, strategy)
    chi2 = Chi(tuple(1 if i == pivot else 0 for i in range(p.ngens)))
    row_gens = tuple(i for i in range(p.ngens) if i != pivot)
    rows = []
    for g in row_gens:
        row = tuple(chi_specialize(fox_derivative(r, g), chi2, field)
                    for r in p2.relators)
        rows.append(row)
    return AlexMatrix(tuple(rows), field, row_gens, pivot)


def _poly_rows(mat: AlexMatrix):
    """Rows shifted to ordinary polynomials (a unit per row; rank-safe)."""
    rows = []
    for row in mat.entries:
        lows = [p.coeffs[0][0] for p in row if not p.is_zero]
        shift = -min(lows) if lows else 0
        rows.append([lp_shift(p, shift) if not p.is_zero else p for p in row])
    return rows


def lp_matrix_rank(rows, field) -> tuple:
    """Rank over field(t) by fraction-free elimination; also returns the
    pivot column list as a replayable witness."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = lp_const(field, 1)
    pivot_cols = []
    for j in range(ncols):
        piv = next((i for i in range(rank, nrows) if not m[i][j].is_zero), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nrows):
            for jj in range(j + 1, ncols):
                num = lp_sub(lp_mul(m[i][jj], m[rank][j]), lp_mul(m[i][j], m[rank][jj]))
                m[i][jj] = lp_exact_div(num, prev)
            m[i][j] = lp_zero(field)
        prev = m[rank][j]
        pivot_cols.append(j)
        rank += 1
        if rank == nrows:
            break
    return rank, tuple(pivot_cols)


def alexander_is_zero(p: Presentation, chi: Chi, field, strategy: str = "min") -> bool:
    """True when the coordinate-form matrix has rank < n-1 over field(t)."""
    return rank_witness(p, chi, field, strategy) is not None


def rank_witness(p: Presentation, chi: Chi, field, strategy: str = "min"):
    """The replayable evidence that the Alexander invariant of ``chi``
    vanishes over ``field``: {"rank", "rows", "pivot_cols"} (plus "reason"
    when the matrix is too narrow), or None when it does not vanish."""
    mat = alexander_matrix(p, chi, field, strategy)
    if mat.nrows == 0:
        return None
    if mat.ncols < mat.nrows:
        return {"rank": 0, "rows": mat.nrows, "pivot_cols": [],
                "reason": "fewer relators than module generators"}
    rank, pivots = lp_matrix_rank(_poly_rows(mat), field)
    if rank < mat.nrows:
        return {"rank": rank, "rows": mat.nrows, "pivot_cols": list(pivots)}
    return None


def lp_det(rows, field) -> LaurentPoly:
    """Fraction-free determinant of a square matrix of polynomials."""
    n = len(rows)
    if n == 0:
        return lp_const(field, 1)
    m = [list(r) for r in rows]
    sign = 1
    prev = lp_const(field, 1)
    for k in range(n - 1):
        if m[k][k].is_zero:
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if piv is None:
                return lp_zero(field)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = lp_sub(lp_mul(m[i][j], m[k][k]), lp_mul(m[i][k], m[k][j]))
                m[i][j] = lp_exact_div(num, prev)
            m[i][k] = lp_zero(field)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return lp_neg(det) if sign < 0 else det


def alexander_polynomial(p: Presentation, chi: Chi, field, strategy: str = "min") -> LaurentPoly:
    """Normalized gcd of the maximal minors of the coordinate-form matrix.

    Zero when there are fewer relators than rows or all minors vanish.
    """
    mat = alexander_matrix(p, chi, field, strategy)
    if mat.nrows == 0:
        return lp_const(field, 1).normalize()
    if mat.ncols < mat.nrows:
        return lp_zero(field)
    rows = _poly_rows(mat)
    g = lp_zero(field)
    for cols in combinations(range(mat.ncols), mat.nrows):
        sub = [[row[j] for j in cols] for row in rows]
        d = lp_det(sub, field)
        if d.is_zero:
            continue
        g = d if g.is_zero else lp_gcd(g, d)
        if not g.is_zero and g.normalize().degree_span() == 0:
            break
    return g.normalize() if not g.is_zero else g
