"""Fox calculus and Alexander polynomials over Q and F_p.

The zero test for a surjection chi: G -> Z is a rank computation over the
rational function field F(t), not a gcd.  It reads the Fox Jacobian of the
input relators, specialised by chi in one pass over each relator, without
the row of a generator on which chi is nonzero.  The fundamental formula
makes that row a combination of the others over F(t), and a change
of free basis multiplies the Jacobian by an invertible matrix, so each
column prefix has the rank it has in the coordinate form, where chi is 1
on one pivot generator and 0 on the others.  The coordinate form is still
built for ``alexander_matrix`` and ``alexander_polynomial``.

The matrix is built once over Z[t, t^-1] for each character.  One exact
maximal minor over Z[t], packed into a single integer by Kronecker
substitution, is shared by all fields: nonzero, it proves full rank over
Q(t), and with a coefficient prime to p, over F_p(t).  A field left
unproven is eliminated by the same fraction-free routine on the packed
integers, where an entry is zero over F_p when p divides each coefficient;
the maximal minors of ``alexander_polynomial`` come from it too.  A
character whose packed minor would pass PACKED_BITS is refused, as one
above CHI_BOUND is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Sequence

from .abelian import Chi
from .words import (Presentation, Word, concat, gen_of, inverse, letter, power,
                    substitute)

# ---------------------------------------------------------------------------
# coefficient fields


PRIME_BOUND = 2 ** 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Exact for n < PRIME_BOUND, in time polynomial in its digits:
    Miller-Rabin on the prime bases up to 41, which no composite below
    3.3 * 10**24 passes (Sorenson and Webster 2017).  ValueError above."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is not below the primality bound 2**64")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:  # n passes base a: a^d = 1, or a^(d 2^i) = -1, i < s
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# the bound on trial division in prime_factors, and the numbers prime to 30
# from 7 to 31, by which it steps
TRIAL_BOUND = 2 ** 24
_WHEEL = (7, 11, 13, 17, 19, 23, 29, 31)


def prime_factors(n: int) -> tuple:
    """The distinct primes dividing ``n``, ascending; () for 0 and +-1.
    Trial division by 2, 3, 5 and the numbers prime to 30, up to the
    square root or TRIAL_BOUND, ends at a cofactor of 1 or one that passes
    ``is_prime``; ValueError when the cofactor left is neither."""
    m, out = abs(n), []
    done = m < 2 or m < PRIME_BOUND and is_prime(m)
    base, end = 0, min(isqrt(m), TRIAL_BOUND)
    while not done and base <= end:
        for r in _WHEEL if base else (2, 3, 5, *_WHEEL):
            d = base + r
            if m % d == 0:
                out.append(d)
                while m % d == 0:
                    m //= d
                done = m == 1 or m < PRIME_BOUND and is_prime(m)
        base += 30
    if m > 1:
        if m >= PRIME_BOUND or not is_prime(m):
            raise ValueError(f"{abs(n)} is not factored: {m} has no prime divisor up "
                             f"to {TRIAL_BOUND} and is not a prime below 2**64")
        out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class RationalField:
    name: str = "Q"

    def of(self, n):
        return Fraction(n)

    def inv(self, a):
        return 1 / Fraction(a)

    def reduce(self, c):
        """The canonical form of a field element: Q needs no reduction."""
        return c

    zero = Fraction(0)
    one = Fraction(1)


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):  # ValueError also at PRIME_BOUND and above
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self):
        return f"F{self.p}"

    def of(self, n):
        return n % self.p

    reduce = of

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
    """Q, or F_p for "Fp" with p a prime below PRIME_BOUND; ValueError else."""
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ValueError(f"unknown field {name!r}")


# ---------------------------------------------------------------------------
# Fox derivatives


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


def lp_shift(a: LaurentPoly, k: int) -> LaurentPoly:
    return LaurentPoly(a.field, tuple((e + k, c) for e, c in a.coeffs))


def lp_divmod(a: LaurentPoly, b: LaurentPoly):
    """Polynomial division in field[t]; inputs must have min exponent >= 0."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    field = a.field
    red = field.reduce
    rem = a.as_dict()
    quot = {}
    db = b.coeffs[-1][0]
    lead_inv = field.inv(b.coeffs[-1][1])
    while rem:
        da = max(rem)
        if da < db:
            break
        factor = red(rem[da] * lead_inv)
        quot[da - db] = factor
        for e, c in b.coeffs:
            e2 = e + da - db
            c2 = red(rem.get(e2, 0) - factor * c)
            if c2:
                rem[e2] = c2
            else:
                rem.pop(e2, None)
    return LaurentPoly.make(field, quot), LaurentPoly.make(field, rem)


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
        out[k] = out.get(k, 0) + c
    return LaurentPoly.make(field, {k: field.of(c) for k, c in out.items()})


# ---------------------------------------------------------------------------
# coordinate change


def chi_normalizing_automorphism(chi_values: Sequence[int]):
    """Images of an automorphism beta of F_n with chi(beta(x_pivot)) = 1 and
    chi(beta(x_j)) = 0 elsewhere, together with the images of beta^-1.

    Realized as a product of elementary Nielsen moves running a Euclidean
    reduction on the value vector; ties between equal-magnitude pivot
    candidates go to the lowest index.
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
        piv = min(live, key=lambda i: (abs(c[i]), i))
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
                imgs[i] = concat(imgs[i], power(imgs[j], k))
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


def coordinate_change(p: Presentation, chi: Chi):
    """Rewrite ``p`` through a free-group automorphism so the induced chi
    is 1 on one pivot generator and 0 on the others.

    Returns ``(p', pivot)``; the group presented is unchanged.
    """
    beta, beta_inv, pivot = chi_normalizing_automorphism(chi.values)
    new_rels = tuple(substitute(r, beta_inv) for r in p.relators)
    check = [chi.of_word(img) for img in beta]
    if check != [1 if i == pivot else 0 for i in range(p.ngens)]:
        raise RuntimeError(f"coordinate change gives chi values {check}")
    return Presentation(p.generators, new_rels), pivot


# ---------------------------------------------------------------------------
# Alexander matrices


def _fox_rows(relators, chi_values) -> list:
    """The Fox Jacobian of ``relators`` specialised by the character with
    ``chi_values``, without the row of the first generator of least nonzero
    |chi|: entry [i][j] is chi(d r_j / d x_g), g the i-th other generator,
    as an integer Laurent polynomial (dict exponent -> nonzero int).  With
    |chi| = 1 there, the maximal minors are those of the coordinate form up
    to a unit; a value c multiplies them by (t^c - 1) / (t - 1), which is
    monic, so a minor is nonzero over F(t) exactly when the coordinate
    form's is, for every field F.

    One pass per relator carries chi of the prefix read so far instead of
    building the prefix words.  Reduced to any field, entry [i][j] equals
    ``chi_specialize(fox_derivative(r_j, g), chi, field)``.
    """
    rows = [[{} for _ in relators] for _ in chi_values]
    for j, r in enumerate(relators):
        e = 0
        for lt in r:
            g = abs(lt) - 1
            if lt < 0:  # d(x^-1)/dx = -x^-1: the term's prefix ends in x^-1
                e -= chi_values[g]
            entry = rows[g][j]
            c = entry.get(e, 0) + (1 if lt > 0 else -1)
            if c:
                entry[e] = c
            else:
                del entry[e]
            if lt > 0:
                e += chi_values[g]
    del rows[min((abs(v), g) for g, v in enumerate(chi_values) if v)[1]]
    return rows


# Characters with a larger value are refused: the exponents of the Jacobian,
# and in coordinate form the lengths of the rewritten relators, grow with
# the values, so the bound keeps the work, and the replay of a hostile
# certificate, small.  Sweeps stay far below it.
CHI_BOUND = 2 ** 10


def _check_character(p: Presentation, chi: Chi) -> None:
    """ValueError unless ``chi`` is a surjection onto Z, within CHI_BOUND,
    that vanishes on every relator of ``p``."""
    if len(chi.values) != p.ngens:
        raise ValueError("chi needs one value per generator")
    if any(abs(v) > CHI_BOUND for v in chi.values):
        raise ValueError(f"chi has a value above the bound {CHI_BOUND}")
    bad = [i for i, r in enumerate(p.relators) if chi.of_word(r)]
    if bad:
        raise ValueError(f"chi does not vanish on relator {bad[0]}")
    if not any(chi.values):
        raise ValueError("chi is zero")
    if gcd(*chi.values) != 1:
        raise ValueError("chi is not surjective (gcd of values != 1)")


def _reduce(rows, field) -> tuple:
    """Integer rows as rows of Laurent polynomials over ``field``."""
    return tuple(tuple(LaurentPoly.make(field, {e: field.of(c) for e, c in entry.items()})
                       for entry in row) for row in rows)


def alexander_matrix(p: Presentation, chi: Chi, field) -> tuple:
    """The (n-1) x m matrix in coordinate form, as rows of Laurent
    polynomials: the Jacobian of ``p`` rewritten by ``coordinate_change``,
    where chi is 1 on the pivot and 0 elsewhere, without the pivot's row,
    which is zero."""
    _check_character(p, chi)
    p2, pivot = coordinate_change(p, chi)
    unit = tuple(int(g == pivot) for g in range(p.ngens))
    return _reduce(_fox_rows(p2.relators, unit), field)


def _integer_rows(rows, field) -> tuple:
    """Rows of Laurent polynomials over ``field`` as integer rows, with the
    prime to eliminate them over, 0 for Q: over Q each row times the lcm of
    its denominators, over F_p each coefficient as its balanced residue in
    (-p/2, p/2], which keeps the packing small for a large p."""
    if isinstance(field, RationalField):
        lcms = [lcm(*(c.denominator for entry in row for _, c in entry.coeffs)) for row in rows]
        return [[{e: c.numerator * (m // c.denominator) for e, c in entry.coeffs}
                 for entry in row] for row, m in zip(rows, lcms)], 0
    p, h = field.p, (field.p - 1) // 2
    return [[{e: (c + h) % p - h for e, c in entry.coeffs} for entry in row]
            for row in rows], p


def _packed_elimination(rows, p=0, limit=None):
    """Fraction-free elimination (Bareiss 1968) of integer Laurent rows
    over Q(t), or over F_p(t) for a prime p: the rank, the pivot columns,
    and an iterator over the last pivot's balanced base-2^b digits, lowest
    first, which at full rank are the coefficients of the maximal minor on
    the pivot columns of the rows, each shifted to a polynomial; None when
    b times the widest row span plus one times the rows passes ``limit``.

    Kronecker substitution at t = 2^b, 2^b above twice the product P of
    the rows' l1 norms (1 for a zero row): every intermediate is a minor
    over Z[t], with coefficients at most P in absolute value, so it is 0
    exactly when its value at 2^b is, and its digits are its coefficients.
    Over F_p an entry counts as zero when p divides every digit: reduction
    mod p is a ring map, so these are the pivots of the elimination over
    F_p[t], and each division by the last pivot stays exact over Z."""
    lows, span, bound = [], 0, 2
    for row in rows:
        exps = [e for entry in row for e in entry] or [0]  # a zero row packs to 0
        lows.append(min(exps))
        span = max(span, max(exps) - lows[-1])
        bound *= sum(abs(c) for entry in row for c in entry.values()) or 1
    b = bound.bit_length()
    if limit is not None and b * (span + 1) * len(rows) > limit:
        return None
    mat = [[sum(c << b * (e - low) for e, c in entry.items()) for entry in row]
           for row, low in zip(rows, lows)]
    half, mask = 1 << (b - 1), (1 << b) - 1

    def digits(d):
        while d:
            c = ((d + half) & mask) - half
            yield c
            d = (d - c) >> b

    def nonzero_mod_p(d):  # read from the lowest nonzero digit up
        low = ((d & -d).bit_length() - 1) // b * b
        return any(c % p for c in digits(d >> low))

    rank, prev, pivot_cols = 0, 1, []
    for j in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat))
                    if mat[i][j] and (not p or nonzero_mod_p(mat[i][j]))), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        d = top[j]
        for i in range(rank + 1, len(mat)):
            a = mat[i][j]
            mat[i] = [(x * d - a * y) // prev for x, y in zip(mat[i], top)]
        prev = d
        pivot_cols.append(j)
        rank += 1
        if rank == len(mat):
            break
    return rank, tuple(pivot_cols), digits(prev)


def lp_matrix_rank(rows, field) -> tuple:
    """Rank over field(t) by the packed elimination; also returns the
    pivot column list as a replayable witness."""
    rank, pivot_cols, _ = _packed_elimination(*_integer_rows(rows, field))
    return rank, pivot_cols


# ---------------------------------------------------------------------------
# full-rank proofs by an exact packed minor


# the most bits, b times the widest row span plus one times the rows, of a
# packed minor; a character near CHI_BOUND on long relators needs ~10**9
PACKED_BITS = 2 ** 16


def _packed_minor(rows):
    """The integer coefficients, lowest first, of the maximal minor on the
    pivot columns over Q(t) of the integer Laurent rows, each shifted to a
    polynomial; [] when the rank drops; None above PACKED_BITS."""
    done = _packed_elimination(rows, 0, PACKED_BITS)
    return done and (list(done[2]) if done[0] == len(rows) else [])


def rank_witness(p: Presentation, chi: Chi, fields):
    """The first field in ``fields`` over which the Alexander invariant of
    ``chi`` vanishes, with the replayable evidence: ``(field, witness)``,
    the witness {"rank", "rows", "pivot_cols"} (plus "reason" when the
    matrix is too narrow); None when it vanishes over none of them, when
    some value of ``chi`` exceeds CHI_BOUND in absolute value, or when its
    packed minor would pass PACKED_BITS.  ValueError when ``chi`` is not a
    surjection that kills every relator.

    The rows are the Fox Jacobian of ``p`` itself (see ``_fox_rows``), whose
    column prefixes have the ranks of the coordinate form, so the witness
    is the same.  They are built once over Z.  A field is passed over when
    the packed minor (``_packed_minor``, shared by all fields) proves full
    rank; for the others the rank and the pivot columns come from
    ``lp_matrix_rank``, the same packed elimination over field(t).
    """
    if any(abs(v) > CHI_BOUND for v in chi.values):
        return None
    _check_character(p, chi)
    rows = _fox_rows(p.relators, chi.values)
    if not rows or not fields:
        return None
    nrows = len(rows)
    if len(rows[0]) < nrows:
        return fields[0], {"rank": 0, "rows": nrows, "pivot_cols": [],
                           "reason": "fewer relators than module generators"}
    # a packed minor of [] drops the rank over every field; a coefficient
    # prime to p keeps the minor nonzero over F_p(t)
    coeffs = _packed_minor(rows)
    if coeffs is None:
        return None
    for field in fields:
        if coeffs and (isinstance(field, RationalField) or any(c % field.p for c in coeffs)):
            continue
        rank, pivots = lp_matrix_rank(_reduce(rows, field), field)
        if rank < nrows:
            return field, {"rank": rank, "rows": nrows, "pivot_cols": list(pivots)}
    return None


def alexander_polynomial(p: Presentation, chi: Chi, field) -> LaurentPoly:
    """Normalized gcd of the maximal minors of the coordinate-form matrix.

    Zero when there are fewer relators than rows or all minors vanish.
    """
    rows = alexander_matrix(p, chi, field)
    if not rows:
        return lp_const(field, 1).normalize()
    nrows, ncols = len(rows), len(rows[0])
    if ncols < nrows:
        return lp_zero(field)
    ints, prime = _integer_rows(rows, field)
    g = lp_zero(field)
    for cols in combinations(range(ncols), nrows):
        rank, _, coeffs = _packed_elimination([[row[j] for j in cols] for row in ints], prime)
        if rank < nrows:
            continue
        d = LaurentPoly.make(field, {e: field.of(c) for e, c in enumerate(coeffs)})
        g = d if g.is_zero else lp_gcd(g, d)
        if not g.is_zero and g.normalize().degree_span() == 0:
            break
    return g.normalize() if not g.is_zero else g
