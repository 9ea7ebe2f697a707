from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from largeness.abelian import Chi
from largeness.alexander import (PRIME_BOUND, LaurentPoly, PrimeField, QQ,
                                 alexander_is_zero, alexander_matrix,
                                 alexander_polynomial, chi_specialize,
                                 coordinate_change, field_by_name,
                                 fox_derivative, gr_add, gr_mul, gr_neg,
                                 gr_one, is_prime, lp_gcd, lp_matrix_rank,
                                 lp_mul, prime_factors, rank_witness)
from largeness.words import (Presentation, free_reduce, parse_presentation,
                             parse_word)

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
        mat = alexander_matrix(ZXZ, Chi((1, 0)), QQ)
        assert mat.nrows == 1 and mat.ncols == 1
        assert norm_equal(mat.entries[0][0], {1: 1, 0: -1})

    def test_bs12(self):
        mat = alexander_matrix(BS12, Chi((1, 0)), QQ)
        assert norm_equal(mat.entries[0][0], {1: 1, 0: -2})

    def test_zero_column(self):
        mat = alexander_matrix(ZERO_COL, Chi((0, 1, 0)), QQ)
        assert mat.nrows == 2 and mat.ncols == 2
        col = [mat.entries[i][0] for i in range(2)]
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
        assert alexander_is_zero(ZERO_COL, Chi((0, 1, 0)), QQ)

    def test_trefoil_not_zero(self):
        assert not alexander_is_zero(TREFOIL, Chi((1, 1)), QQ)

    def test_degree(self):
        poly = alexander_polynomial(TREFOIL, Chi((1, 1)), QQ).normalize()
        assert poly.degree_span() == 2

    def test_strategies_agree(self):
        for p, chi in [(TREFOIL, (1, 1)), (ZXZ, (2, 3)), (ZXZ, (1, 1)),
                       (BS12, (1, 0)), (ZERO_COL, (0, 1, 0))]:
            a = alexander_polynomial(p, Chi(chi), QQ, "min").normalize()
            b = alexander_polynomial(p, Chi(chi), QQ, "last").normalize()
            assert a == b

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
            if alexander_is_zero(p, Chi(chi), QQ):
                for q in (2, 3, 5, 7):
                    assert alexander_is_zero(p, Chi(chi), PrimeField(q))

    def test_bs24_mod_2(self):
        p = parse_presentation("< x, y | x y^2 x^-1 y^-4 >")
        assert not alexander_is_zero(p, Chi((1, 0)), QQ)
        assert alexander_is_zero(p, Chi((1, 0)), F2)
        assert not alexander_is_zero(p, Chi((1, 0)), F3)

    def test_free_group_is_zero(self):
        free2 = parse_presentation("< a, b | >")
        assert alexander_is_zero(free2, Chi((1, 0)), QQ)

    def test_single_generator(self):
        z = parse_presentation("< a | >")
        assert not alexander_is_zero(z, Chi((1,)), QQ)


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


def full_elimination_witness(p, chi, fields):
    """rank_witness without the evaluation exit: lp_matrix_rank over each
    field in turn."""
    for fld in fields:
        mat = alexander_matrix(p, chi, fld)
        if mat.nrows == 0:
            return None
        if mat.ncols < mat.nrows:
            return fld, {"rank": 0, "rows": mat.nrows, "pivot_cols": [],
                         "reason": "fewer relators than module generators"}
        rank, pivots = lp_matrix_rank(mat.entries, fld)
        if rank < mat.nrows:
            return fld, {"rank": rank, "rows": mat.nrows, "pivot_cols": list(pivots)}
    return None


class TestIntegerPath:
    @given(presentation_and_character())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_fox_then_specialize(self, case):
        p, chi = case
        p2, pivot = coordinate_change(p, chi)
        chi2 = Chi(tuple(int(i == pivot) for i in range(p.ngens)))
        for fld in FIELDS:
            mat = alexander_matrix(p, chi, fld)
            want = tuple(tuple(chi_specialize(fox_derivative(r, g), chi2, fld)
                               for r in p2.relators)
                         for g in range(p.ngens) if g != pivot)
            assert mat.entries == want

    @given(presentation_and_character())
    @settings(max_examples=150, deadline=None)
    def test_rank_witness_matches_full_elimination(self, case):
        p, chi = case
        assert rank_witness(p, chi, FIELDS) == full_elimination_witness(p, chi, FIELDS)
        for fld in FIELDS:
            assert (rank_witness(p, chi, [fld])
                    == full_elimination_witness(p, chi, [fld]))

    def test_vanishing_field_is_the_first_one(self):
        p = parse_presentation("< x, y | x y^2 x^-1 y^-4 >")
        fld, wit = rank_witness(p, Chi((1, 0)), FIELDS)
        assert fld == F2 and wit == {"rank": 0, "rows": 1, "pivot_cols": []}
        assert rank_witness(p, Chi((1, 0)), [QQ, F3]) is None
        assert rank_witness(p, Chi((1, 0)), []) is None

    def test_roots_of_the_polynomial_are_not_enough(self):
        # t - 2 vanishes at t = 2 and 2t - 1 at t = 1/2, but not over Q(t)
        for text in ("< x, y | x y x^-1 y^-2 >", "< x, y | x y^2 x^-1 y^-1 >"):
            assert rank_witness(parse_presentation(text), Chi((1, 0)), [QQ]) is None


laurent_entries = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool),
                                  max_size=3)


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
