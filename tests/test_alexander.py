import functools
from unittest import mock
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from largeness import alexander, words
from largeness.abelian import Chi, hom_to_Z_basis
from largeness.alexander import (CHI_BOUND, PRIME_BOUND, LaurentPoly,
                                 PrimeField, QQ, alexander_matrix,
                                 alexander_polynomial, chi_specialize,
                                 coordinate_change, field_by_name,
                                 fox_derivative, is_prime, lp_add, lp_divmod, lp_gcd,
                                 lp_matrix_rank, lp_mul, lp_neg, lp_sub,
                                 prime_factors, rank_witness)
from largeness.words import (Presentation, free_reduce, parse_presentation,
                             parse_word)
from largeness.subgroups import cover_presentation, low_index_subgroups
from oracles import gr_add, gr_mul, gr_neg, gr_one

F2, F3 = PrimeField(2), PrimeField(3)


class TestFox:
    def test_rules(self):
        assert fox_derivative((1, 2), 0) == {(): 1}
        assert fox_derivative((-1,), 0) == {(-1,): -1}
        assert fox_derivative((2,), 0) == {}

    def test_hand_expansion(self):
        # derivative of x y x^-1 y^-2 with respect to y
        d = fox_derivative(parse_word("x y x^-1 y^-2", ("x", "y")), 1)
        assert d == {(1,): 1, (1, 2, -1, -2): -1, (1, 2, -1, -2, -2): -1}

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_fundamental_identity(self, letters):
        r = free_reduce(letters)
        total = {}
        for g in range(3):
            term = gr_mul(fox_derivative(r, g), {(g + 1,): 1, (): -1})
            total = gr_add(total, term)
        assert total == gr_add({r: 1}, gr_neg(gr_one()))


class TestChiSpecialize:
    def test_example(self):
        e = {(1,): 1, (): -1, (1, 2, -1, -2, -2): -1}
        poly = chi_specialize(e, Chi((1, 0)), QQ)
        assert poly.as_dict() == {1: Fraction(1), 0: Fraction(-2)}

    def test_zero(self):
        assert chi_specialize({}, Chi((1, 0)), QQ).is_zero

    def test_mod2(self):
        e = {(1,): 1, (): -1, (1, 2, -1, -2, -2): -1}
        poly = chi_specialize(e, Chi((1, 0)), F2)
        assert poly.as_dict() == {1: 1}


class TestNormalize:
    @given(st.dictionaries(st.integers(-5, 5),
                           st.fractions(min_value=-9, max_value=9).filter(bool),
                           min_size=1, max_size=5),
           st.integers(-4, 4), st.sampled_from([1, -1]))
    @settings(max_examples=80, deadline=None)
    def test_unit_invariance(self, coeffs, shift, sign):
        poly = LaurentPoly.make(QQ, {e: Fraction(c) for e, c in coeffs.items()})
        unit = LaurentPoly.make(QQ, {shift: Fraction(sign)})
        assert lp_mul(poly, unit).normalize() == poly.normalize()

    def test_arithmetic_mod_p_stays_reduced(self):
        f5 = PrimeField(5)
        a = LaurentPoly.make(f5, {0: 3, 1: 4})
        b = LaurentPoly.make(f5, {0: 2, 1: 4})
        assert lp_add(a, b).coeffs == ((1, 3),)
        assert lp_neg(a).coeffs == ((0, 2), (1, 1))
        assert lp_sub(a, a).is_zero
        ab = lp_mul(a, b)  # 6 + 20t + 16t^2
        assert ab.coeffs == ((0, 1), (2, 1))
        assert lp_divmod(ab, b) == (a, LaurentPoly(f5, ()))

    def test_monic_mod_p(self):
        poly = LaurentPoly.make(F3, {2: 2, 5: 1})
        norm = poly.normalize()
        assert norm.coeffs[0] == (0, 1)

    def test_gcd(self):
        # (t - 1)(t + 1) and (t - 1)t^3 have gcd t - 1 up to units
        a = LaurentPoly.make(QQ, {0: Fraction(-1), 2: Fraction(1)})
        b = LaurentPoly.make(QQ, {3: Fraction(-1), 4: Fraction(1)})
        g = lp_gcd(a, b)
        assert g == LaurentPoly.make(QQ, {0: Fraction(-1), 1: Fraction(1)}).normalize()


TREFOIL = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
BS12 = parse_presentation("< x, y | x y x^-1 y^-2 >")
ZXZ = parse_presentation("< a, b | a b A B >")
ZERO_COL = parse_presentation("< x, y, t | t x T X, t y T x^-1 y^-1 >")


def vanishes(p, chi, field):
    return rank_witness(p, chi, [field]) is not None


def relabelled(p, chi, perm):
    """``p`` and ``chi`` with new generator i standing for old generator
    perm[i]."""
    new_of = {old: new for new, old in enumerate(perm)}
    rels = tuple(tuple((new_of[abs(lt) - 1] + 1) * (1 if lt > 0 else -1) for lt in r)
                 for r in p.relators)
    return (Presentation(tuple(p.generators[g] for g in perm), rels),
            Chi(tuple(chi.values[g] for g in perm)))


def norm_equal(poly, expected_coeffs, field=QQ):
    expected = LaurentPoly.make(field, {e: field.of(c) for e, c in expected_coeffs.items()})
    return poly.normalize() == expected.normalize()


class TestCoordinateChange:
    def test_identity_case(self):
        p2, pivot = coordinate_change(ZXZ, Chi((1, 0)))
        assert pivot == 0 and p2 == ZXZ

    def test_single_nonzero_elsewhere(self):
        p2, pivot = coordinate_change(ZXZ, Chi((0, 1)))
        assert pivot == 1 and p2 == ZXZ

    def test_euclid_case(self):
        _, pivot = coordinate_change(ZXZ, Chi((2, 3)))
        assert pivot == 1

    def test_not_surjective(self):
        with pytest.raises(ValueError):
            coordinate_change(ZXZ, Chi((2, 2)))

    def test_group_preserved(self):
        from largeness.abelian import abelianization
        p2, _ = coordinate_change(TREFOIL, Chi((1, 1)))
        assert abelianization(p2) == abelianization(TREFOIL)


class TestAlexanderMatrix:
    def test_zxz(self):
        rows = alexander_matrix(ZXZ, Chi((1, 0)), QQ)
        assert len(rows) == 1 and len(rows[0]) == 1
        assert norm_equal(rows[0][0], {1: 1, 0: -1})

    def test_bs12(self):
        rows = alexander_matrix(BS12, Chi((1, 0)), QQ)
        assert norm_equal(rows[0][0], {1: 1, 0: -2})

    def test_zero_column(self):
        rows = alexander_matrix(ZERO_COL, Chi((0, 1, 0)), QQ)
        assert len(rows) == 2 and len(rows[0]) == 2
        col = [rows[i][0] for i in range(2)]
        assert all(c.is_zero for c in col)


class TestAlexanderPolynomial:
    def test_trefoil(self):
        poly = alexander_polynomial(TREFOIL, Chi((1, 1)), QQ)
        assert norm_equal(poly, {2: 1, 1: -1, 0: 1})

    def test_bs12(self):
        poly = alexander_polynomial(BS12, Chi((1, 0)), QQ)
        assert norm_equal(poly, {1: 1, 0: -2})

    def test_zxz(self):
        poly = alexander_polynomial(ZXZ, Chi((1, 0)), QQ)
        assert norm_equal(poly, {1: 1, 0: -1})

    def test_zero_column_gives_zero(self):
        assert alexander_polynomial(ZERO_COL, Chi((0, 1, 0)), QQ).is_zero
        assert vanishes(ZERO_COL, Chi((0, 1, 0)), QQ)

    def test_trefoil_not_zero(self):
        assert not vanishes(TREFOIL, Chi((1, 1)), QQ)

    def test_degree(self):
        poly = alexander_polynomial(TREFOIL, Chi((1, 1)), QQ).normalize()
        assert poly.degree_span() == 2

    def test_relabelling_invariance(self):
        # permuting the generators changes which generator wins the ties in
        # the Nielsen reduction, so the coordinate change differs
        for p, chi in [(TREFOIL, (1, 1)), (ZXZ, (2, 3)), (ZXZ, (1, 1)),
                       (BS12, (1, 0)), (ZERO_COL, (0, 1, 0))]:
            a = alexander_polynomial(p, Chi(chi), QQ).normalize()
            for perm in permutations(range(p.ngens)):
                b = alexander_polynomial(*relabelled(p, Chi(chi), perm), QQ)
                assert b.normalize() == a

    def test_tietze_invariance(self):
        # add a generator z with defining relator z w^-1; chi extends by
        # chi(z) = chi(w)
        w = parse_word("x y", TREFOIL.generators)
        gens = TREFOIL.generators + ("z",)
        rels = TREFOIL.relators + ((3, -2, -1),)
        bigger = Presentation(gens, rels)
        chi0 = Chi((1, 1))
        chi1 = Chi((1, 1, chi0.of_word(w)))
        a = alexander_polynomial(TREFOIL, chi0, QQ).normalize()
        b = alexander_polynomial(bigger, chi1, QQ).normalize()
        assert a == b

    def test_zero_over_q_implies_zero_mod_p(self):
        cases = [(ZERO_COL, (0, 1, 0)), (TREFOIL, (1, 1)), (BS12, (1, 0)),
                 (ZXZ, (1, 0))]
        for p, chi in cases:
            if vanishes(p, Chi(chi), QQ):
                for q in (2, 3, 5, 7):
                    assert vanishes(p, Chi(chi), PrimeField(q))

    def test_bs24_mod_2(self):
        p = parse_presentation("< x, y | x y^2 x^-1 y^-4 >")
        assert not vanishes(p, Chi((1, 0)), QQ)
        assert vanishes(p, Chi((1, 0)), F2)
        assert not vanishes(p, Chi((1, 0)), F3)

    def test_free_group_is_zero(self):
        free2 = parse_presentation("< a, b | >")
        assert vanishes(free2, Chi((1, 0)), QQ)

    def test_single_generator(self):
        z = parse_presentation("< a | >")
        assert not vanishes(z, Chi((1,)), QQ)


class TestFieldNames:
    def test_roundtrip(self):
        assert field_by_name("Q") is QQ
        assert field_by_name("F5").p == 5
        with pytest.raises(ValueError):
            field_by_name("F4")
        with pytest.raises(ValueError):
            field_by_name("R")


class TestPrimes:
    def test_is_prime_against_trial_division(self):
        for n in range(-3, 200):
            expected = n >= 2 and not any(n % d == 0 for d in range(2, n))
            assert is_prime(n) == expected, n

    def test_is_prime_on_large_numbers(self):
        # R19 is prime; 3825123056546413051 is a strong pseudoprime to
        # every prime base up to 23
        assert is_prime(1111111111111111111) and is_prime(2 ** 61 - 1)
        assert not is_prime(3825123056546413051)
        assert not is_prime(3215031751) and not is_prime(561)
        assert is_prime(PRIME_BOUND - 59)  # the largest prime below 2**64
        with pytest.raises(ValueError):
            is_prime(PRIME_BOUND)

    def test_fields_above_the_bound_are_refused(self):
        assert field_by_name("F1111111111111111111").p == 1111111111111111111
        for p in (PRIME_BOUND + 13, 10 ** 40 + 1):
            with pytest.raises(ValueError):
                PrimeField(p)
            with pytest.raises(ValueError):
                field_by_name(f"F{p}")

    def test_prime_factors(self):
        assert prime_factors(0) == () and prime_factors(1) == ()
        assert prime_factors(-1) == ()
        assert prime_factors(-12) == (2, 3)
        assert prime_factors(97) == (97,)
        assert prime_factors(2 * 3 * 3 * 101) == (2, 3, 101)
        # a cofactor above TRIAL_BOUND is kept when it passes is_prime
        assert prime_factors(2 ** 61 - 1) == (2 ** 61 - 1,)
        assert prime_factors(2 * 13097927 * 17189128703) == (2, 13097927, 17189128703)
        # and refused when it is composite with no prime divisor up to the
        # bound, or a prime above PRIME_BOUND
        for n in ((2 ** 31 - 1) * (2 ** 61 - 1), 3 * (2 ** 89 - 1)):
            with pytest.raises(ValueError, match="is not factored"):
                prime_factors(n)

    @given(st.integers(-2 ** 48, 2 ** 48))
    @settings(max_examples=300, deadline=None)
    def test_prime_factors_match_sympy(self, n):
        # below TRIAL_BOUND squared, trial division always ends the search
        from sympy import primefactors
        assert prime_factors(n) == tuple(primefactors(n))


class TestTorusKnotFormula:
    # independent oracle: for the (p, q) torus knot the polynomial is
    # (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))
    def _expected(self, p, q):
        from largeness.alexander import lp_exact_div, lp_mul

        def mk(d):
            return LaurentPoly.make(QQ, {e: Fraction(c) for e, c in d.items()})

        num = lp_mul(mk({p * q: 1, 0: -1}), mk({1: 1, 0: -1}))
        den = lp_mul(mk({p: 1, 0: -1}), mk({q: 1, 0: -1}))
        return lp_exact_div(num, den).normalize()

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)])
    def test_matches_quotient_formula(self, p, q):
        pres = parse_presentation(f"< a, b | a^{p} b^-{q} >")
        got = alexander_polynomial(pres, Chi((q, p)), QQ).normalize()
        assert got == self._expected(p, q)

    def test_chi_must_be_valid(self):
        pres = parse_presentation("< a, b | a^2 b^-5 >")
        with pytest.raises(ValueError):
            alexander_polynomial(pres, Chi((1, 0)), QQ)
        with pytest.raises(ValueError):
            alexander_polynomial(pres, Chi((5,)), QQ)


FIELDS = [QQ, F2, F3, PrimeField(5)]


@st.composite
def presentation_and_character(draw):
    """A 2-4 generator presentation with a surjective character that
    vanishes on every relator: each random word is closed up with a power
    of a generator on which chi is +-1."""
    n = draw(st.integers(2, 4))
    unit = draw(st.integers(0, n - 1))
    values = [draw(st.integers(-2, 2)) for _ in range(n)]
    values[unit] = draw(st.sampled_from([1, -1]))
    chi = Chi(tuple(values))
    letters = [x for g in range(1, n + 1) for x in (g, -g)]
    rels = []
    for _ in range(draw(st.integers(0, n))):
        w = free_reduce(draw(st.lists(st.sampled_from(letters), max_size=10)))
        k = chi.of_word(w) * values[unit]
        rels.append(free_reduce(w + (-(unit + 1) if k > 0 else unit + 1,) * abs(k)))
    p = Presentation(tuple(f"x{i}" for i in range(n)), tuple(rels))
    return p, chi


@st.composite
def large_character(draw):
    """As ``presentation_and_character``, with values near CHI_BOUND off
    the unit generator and shorter random words, so that the coordinate
    change in the oracle stays affordable."""
    n = draw(st.integers(2, 3))
    unit = draw(st.integers(0, n - 1))
    values = [draw(st.integers(CHI_BOUND - 3, CHI_BOUND) | st.integers(-2, 2))
              * draw(st.sampled_from([1, -1])) for _ in range(n)]
    values[unit] = draw(st.sampled_from([1, -1]))
    chi = Chi(tuple(values))
    letters = [x for g in range(1, n + 1) for x in (g, -g)]
    rels = []
    for _ in range(draw(st.integers(1, n))):
        w = free_reduce(draw(st.lists(st.sampled_from(letters), max_size=3)))
        k = chi.of_word(w) * values[unit]
        rels.append(free_reduce(w + (-(unit + 1) if k > 0 else unit + 1,) * abs(k)))
    return Presentation(tuple(f"x{i}" for i in range(n)), tuple(rels)), chi


COVER_BASES = ("< x, y | x y x y^-1 x^-1 y^-1 >", "< x, y | x y x^-1 y^-2 >",
               "< a, b | a^2 b^-3 >", "< a, b | a b a b^-2 a^-2 b >",
               "< a, b | a b^2 a^-1 b^-1 a^2 b^-1, a^2 b a^-2 b^-1 >")


@functools.lru_cache(maxsize=None)
def covers_with_betti_two():
    """(cover presentation, basis of its characters) for the covers of
    index 2 and 3 of COVER_BASES whose first Betti number is at least 2."""
    out = []
    for text in COVER_BASES:
        p = parse_presentation(text)
        for table in low_index_subgroups(p, 3):
            if table.degree > 1:
                cover, _ = cover_presentation(p, table)
                basis = hom_to_Z_basis(cover)
                if len(basis) >= 2:
                    out.append((cover, tuple(basis)))
    return tuple(out)


@st.composite
def cover_character(draw):
    """A cover with b1 >= 2 and a surjective character on it: a primitive
    combination of its basis characters."""
    cover, basis = draw(st.sampled_from(covers_with_betti_two()))
    coords = draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                           max_size=len(basis)).filter(lambda c: gcd(*c) == 1))
    values = tuple(sum(c * b.values[i] for c, b in zip(coords, basis))
                   for i in range(cover.ngens))
    return cover, Chi(values)


def test_covers_with_betti_two_are_there():
    assert len(covers_with_betti_two()) >= 5


def full_elimination_witness(p, chi, fields):
    """rank_witness without the packed minor: lp_matrix_rank over each
    field in turn."""
    for fld in fields:
        rows = alexander_matrix(p, chi, fld)
        if not rows:
            return None
        if len(rows[0]) < len(rows):
            return fld, {"rank": 0, "rows": len(rows), "pivot_cols": [],
                         "reason": "fewer relators than module generators"}
        rank, pivots = lp_matrix_rank(rows, fld)
        if rank < len(rows):
            return fld, {"rank": rank, "rows": len(rows), "pivot_cols": list(pivots)}
    return None


def refused_at_packing_bound(p, chi):
    """Whether ``rank_witness`` refuses ``chi`` at PACKED_BITS: the rows are
    wide enough to need a minor, and b (the bits of twice the product of
    their l1 norms, 1 for a zero row) times the widest row span plus one
    times the rows passes the bound."""
    rows = alexander._fox_rows(p.relators, chi.values)
    if not rows or len(rows[0]) < len(rows):
        return False
    bound, span = 2, 0
    for row in rows:
        exps = [e for entry in row for e in entry] or [0]
        span = max(span, max(exps) - min(exps))
        bound *= sum(abs(c) for entry in row for c in entry.values()) or 1
    return bound.bit_length() * (span + 1) * len(rows) > alexander.PACKED_BITS


class TestIntegerPath:
    @given(presentation_and_character())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_fox_then_specialize(self, case):
        p, chi = case
        p2, pivot = coordinate_change(p, chi)
        chi2 = Chi(tuple(int(i == pivot) for i in range(p.ngens)))
        for fld in FIELDS:
            want = tuple(tuple(chi_specialize(fox_derivative(r, g), chi2, fld)
                               for r in p2.relators)
                         for g in range(p.ngens) if g != pivot)
            assert alexander_matrix(p, chi, fld) == want

    @given(presentation_and_character() | large_character() | cover_character())
    @example((Presentation(("x0", "x1", "x2"), ((), (1, 1, 1) + (-3,) * 3063)),
              Chi((1021, 1, 1))))  # above the bound, with rank 1 of 2 over Q
    @settings(max_examples=200, deadline=None)
    def test_rank_witness_matches_full_elimination(self, case):
        # the oracle eliminates the coordinate form, a different matrix
        # with the same column-prefix ranks; a character whose packed minor
        # would pass PACKED_BITS is refused, and matches once it is lifted
        p, chi = case
        refused = refused_at_packing_bound(p, chi)
        for fields in [FIELDS] + [[fld] for fld in FIELDS]:
            want = full_elimination_witness(p, chi, fields)
            assert rank_witness(p, chi, fields) == (None if refused else want)
            with mock.patch.object(alexander, "PACKED_BITS", 2 ** 32):
                assert rank_witness(p, chi, fields) == want

    @given(presentation_and_character(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_relabelling_invariance(self, case, data):
        p, chi = case
        perm = data.draw(st.permutations(range(p.ngens)))
        q, psi = relabelled(p, chi, perm)
        for fld in (QQ, F2):
            assert (alexander_polynomial(q, psi, fld).normalize()
                    == alexander_polynomial(p, chi, fld).normalize())

        def outcome(pres, c):
            hit = rank_witness(pres, c, FIELDS)
            return hit and (hit[0], hit[1]["rank"])
        assert outcome(q, psi) == outcome(p, chi)

    @given(presentation_and_character() | large_character() | cover_character())
    @settings(max_examples=100, deadline=None)
    def test_above_the_packing_bound_the_character_is_refused(self, case):
        # with no room for a packed minor, the character is refused, as one
        # above CHI_BOUND is; only a matrix too narrow for full rank, which
        # needs no elimination, still gets its witness
        p, chi = case
        rows = alexander._fox_rows(p.relators, chi.values)
        narrow = rows and len(rows[0]) < len(rows)
        with mock.patch.object(alexander, "PACKED_BITS", 0):
            assert alexander._packed_minor([[{0: 1}]]) is None
            assert alexander._packed_minor([[{}]]) is None  # a zero row too
            assert rank_witness(p, chi, FIELDS) == (
                full_elimination_witness(p, chi, FIELDS) if narrow else None)

    def test_character_bound(self):
        free2 = parse_presentation("< a, b | >")
        assert CHI_BOUND == 2 ** 10
        assert rank_witness(free2, Chi((1, CHI_BOUND)), [QQ]) is not None
        assert rank_witness(free2, Chi((-CHI_BOUND, 1)), [QQ]) is not None
        assert rank_witness(free2, Chi((1, CHI_BOUND + 1)), [QQ]) is None
        assert rank_witness(free2, Chi((-CHI_BOUND - 1, 1)), [QQ]) is None

    def test_vanishing_field_is_the_first_one(self):
        p = parse_presentation("< x, y | x y^2 x^-1 y^-4 >")
        fld, wit = rank_witness(p, Chi((1, 0)), FIELDS)
        assert fld == F2 and wit == {"rank": 0, "rows": 1, "pivot_cols": []}
        assert rank_witness(p, Chi((1, 0)), [QQ, F3]) is None
        assert rank_witness(p, Chi((1, 0)), []) is None

    def test_packed_minor_proves_f2_through_the_monic_factor(self, monkeypatch):
        # no value of chi is +-1, so the minors carry (t^2 - 1) / (t - 1)
        # = t + 1; it is monic, so it leaves an odd coefficient odd, and the
        # packed minor proves full rank over F2 with no work over F2(t)
        p = parse_presentation("< x0, x1, y1 | x1 y1 x0^3 x1 y1 x0^-2, "
                               "y1 x0 x1^3 y1 x0 x1^-2 >")
        chi = Chi((2, 2, -3))
        coeffs = alexander._packed_minor(alexander._fox_rows(p.relators, chi.values))
        assert sum(c * (-1) ** i for i, c in enumerate(coeffs)) == 0  # t = -1
        assert any(c % 2 for c in coeffs)
        calls = []
        monkeypatch.setattr(alexander, "lp_matrix_rank",
                            lambda *a: calls.append(a) or lp_matrix_rank(*a))
        assert rank_witness(p, chi, [F2]) is None and calls == []
        assert full_elimination_witness(p, chi, [F2]) is None

    def test_roots_of_the_polynomial_are_not_enough(self):
        # t - 2 vanishes at t = 2 and 2t - 1 at t = 1/2, but not over Q(t)
        for text in ("< x, y | x y x^-1 y^-2 >", "< x, y | x y^2 x^-1 y^-1 >"):
            assert rank_witness(parse_presentation(text), Chi((1, 0)), [QQ]) is None


class TestRankPath:
    CASES = [(TREFOIL, (1, 1)), (BS12, (1, 0)), (ZERO_COL, (0, 1, 0)),
             (parse_presentation("< x, y | x y^2 x^-1 y^-4 >"), (1, 0)),
             (parse_presentation("< a, b | >"), (3, 2)),
             (parse_presentation("< x, y, t | t x T X, t y T Y >"), (2, 1, 3))]

    def test_no_coordinate_change(self, monkeypatch):
        want = [rank_witness(p, Chi(chi), FIELDS) for p, chi in self.CASES]

        def refuse(*args):
            raise AssertionError("the rank path rewrote the relators")
        monkeypatch.setattr(alexander, "coordinate_change", refuse)
        monkeypatch.setattr(alexander, "substitute", refuse)
        monkeypatch.setattr(words, "substitute", refuse)
        assert [rank_witness(p, Chi(chi), FIELDS) for p, chi in self.CASES] == want
        assert any(want) and not all(want)

    REFUSALS = [
        (TREFOIL, (1, 1, 0), "chi needs one value per generator"),
        (TREFOIL, (1, 0), "chi does not vanish on relator 0"),
        (ZXZ, (0, 0), "chi is zero"),
        (ZXZ, (2, 4), "chi is not surjective (gcd of values != 1)"),
        (TREFOIL, (2, 0), "chi does not vanish on relator 0"),  # and gcd 2
    ]

    @pytest.mark.parametrize("p,chi,message", REFUSALS)
    def test_refusals_match_the_coordinate_form(self, p, chi, message):
        with pytest.raises(ValueError) as coordinate_form:
            alexander_matrix(p, Chi(chi), QQ)
        with pytest.raises(ValueError) as jacobian:
            rank_witness(p, Chi(chi), FIELDS)
        assert str(jacobian.value) == str(coordinate_form.value) == message

    @given(st.integers(1, 4).flatmap(lambda n: st.integers(n, 5).flatmap(
        lambda m: st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                           min_size=n, max_size=n))))
    @settings(max_examples=200, deadline=None)
    def test_last_pivot_is_the_pivot_minor(self, rows):
        # over Z: the last pivot is 0 exactly at a rank drop, else +- the
        # determinant of the pivot columns
        from sympy import QQ as SQQ
        from sympy.polys.matrices import DomainMatrix
        mat = DomainMatrix([[SQQ(x) for x in row] for row in rows],
                           (len(rows), len(rows[0])), SQQ)
        rref, pivots = mat.rref()
        d = alexander._bareiss([list(row) for row in rows])
        if len(pivots) < len(rows):
            assert d == 0
        else:
            det = int(mat.extract(range(len(rows)), list(pivots)).det())
            assert abs(d) == abs(det) != 0


laurent_entries = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool),
                                  max_size=3)


def scaled(entry, factor):
    """The product of two integer Laurent polynomials as dicts."""
    out = {}
    for e1, c1 in entry.items():
        for e2, c2 in factor.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@st.composite
def integer_rows(draw):
    """1-3 integer Laurent rows, none zero, of width 1-4; with some chance
    the last is a Laurent multiple of the first, so the rank drops."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    entry = st.dictionaries(st.integers(-3, 4), st.integers(-40, 40).filter(bool),
                            max_size=4)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m).filter(any),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        factor = draw(st.dictionaries(st.integers(-2, 2), st.integers(-5, 5).filter(bool),
                                      min_size=1, max_size=3))
        rows[-1] = [scaled(e, factor) for e in rows[0]]
    return rows


class TestPackedMinor:
    @given(integer_rows())
    @settings(max_examples=200, deadline=None)
    def test_decoded_minor_is_the_determinant_on_the_pivot_columns(self, rows):
        # sympy over Z[t]: the pivot columns of the rows, each shifted to a
        # polynomial, over Q(t), and the determinant on them
        from sympy import Poly, S, ZZ as SZZ, symbols
        from sympy.polys.matrices import DomainMatrix
        t = symbols("t")
        ring = SZZ[t]
        shifted = []
        for row in rows:
            low = min(e for entry in row for e in entry)
            shifted.append([ring.from_sympy(sum((c * t ** (e - low) for e, c in entry.items()),
                                                S.Zero)) for entry in row])
        mat = DomainMatrix(shifted, (len(rows), len(rows[0])), ring)
        _, pivots = mat.convert_to(ring.get_field()).rref()
        got = alexander._packed_minor(rows)
        if len(pivots) < len(rows):
            assert got == []
        else:
            det = ring.to_sympy(mat.extract(range(len(rows)), list(pivots)).det())
            want = [int(c) for c in reversed(Poly(det, t).all_coeffs())]
            assert got in (want, [-c for c in want])

    def test_rank_drop_and_bound(self, monkeypatch):
        assert alexander._packed_minor([[{0: 1, 1: -1}], [{1: 1, 2: -1}]]) == []
        rows = [[{0: 3, 5: -2}, {1: 1}]]
        assert alexander._packed_minor(rows) == [3, 0, 0, 0, 0, -2]
        # l1 norm 6, so b = 4 bits; span 5, one row: 24 bits in all
        monkeypatch.setattr(alexander, "PACKED_BITS", 24)
        assert alexander._packed_minor(rows) == [3, 0, 0, 0, 0, -2]
        monkeypatch.setattr(alexander, "PACKED_BITS", 23)
        assert alexander._packed_minor(rows) is None
        # the widest row sets the span: b = 4 bits, span 4, two rows
        rows = [[{0: 1, 4: 1}, {0: 1}], [{0: 1}, {1: 1}]]
        monkeypatch.setattr(alexander, "PACKED_BITS", 4 * 5 * 2 - 1)
        assert alexander._packed_minor(rows) is None

    def test_a_rank_drop_is_eliminated_over_the_first_field(self, monkeypatch):
        # a repeated relator: the packed minor is 0, so the rank drops over
        # every field, and one elimination, over the first, gives the witness
        p = parse_presentation("< a, b, c | a b A c, a b A c >")
        chi = Chi((1, 0, 0))
        want = full_elimination_witness(p, chi, [F2, QQ])
        calls = []
        monkeypatch.setattr(alexander, "lp_matrix_rank",
                            lambda *a: calls.append(a[1]) or lp_matrix_rank(*a))
        assert rank_witness(p, chi, [F2, QQ]) == want and want[1]["rank"] == 1
        assert calls == [F2]


class TestRankOracle:
    @given(st.integers(1, 3).flatmap(lambda n: st.integers(1, 3).flatmap(
        lambda m: st.lists(st.lists(laurent_entries, min_size=m, max_size=m),
                           min_size=n, max_size=n))))
    @settings(max_examples=100, deadline=None)
    def test_rank_over_q_of_t_matches_sympy(self, rows):
        from sympy import Rational, symbols
        from sympy.polys.matrices import DomainMatrix
        t = symbols("t")
        # each row shifted by t^2, a unit, so that sympy sees polynomials
        sym = [[sum(Rational(c) * t ** (e + 2) for e, c in entry.items())
                for entry in row] for row in rows]
        want = DomainMatrix.from_list_sympy(len(rows), len(rows[0]), sym).to_field().rank()
        polys = [[LaurentPoly.make(QQ, {e: Fraction(c) for e, c in entry.items()})
                  for entry in row] for row in rows]
        assert lp_matrix_rank(polys, QQ)[0] == want
