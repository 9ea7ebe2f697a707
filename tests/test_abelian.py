import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from largeness.abelian import (AbelianInvariants, abelianization,
                               exponent_matrix, hermite_rows, hom_to_Z_basis,
                               image_span_rank, integer_kernel,
                               smith_normal_form, sparse_rows)
from largeness.words import (Presentation, default_names, exponent_vector,
                             free_reduce, parse_presentation, parse_word)
from oracles import determinant, mat_mul

small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(st.integers(-9, 9), min_size=m, max_size=m),
                           min_size=n, max_size=n)))


# 1 to 8 rows and columns with entries up to 10^6 in absolute value
large_matrices = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-10**6, 10**6), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


def sparse_matrix(rows, cols):
    """A rows x cols integer matrix with some zero rows and columns: each
    entry is 0 when its row or its column is drawn zero."""
    return st.tuples(
        st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols),
        st.lists(st.booleans(), min_size=rows, max_size=rows),
        st.lists(st.booleans(), min_size=cols, max_size=cols)).map(
            lambda t: [[t[0][i * cols + j] if t[1][i] and t[2][j] else 0
                        for j in range(cols)] for i in range(rows)])


# 0 to 6 rows and columns, empty matrices included: a matrix with no rows
# is [], one with rows and no columns is a list of empty rows
sparse_matrices = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: sparse_matrix(*shape))


def relation_matrices(entries):
    """0 to 6 rows of 0 to 8 columns, each row zero or drawn from
    ``entries``."""
    return st.tuples(st.integers(0, 6), st.integers(0, 8)).flatmap(
        lambda shape: st.lists(
            st.one_of(st.just([0] * shape[1]),
                      st.lists(entries, min_size=shape[1], max_size=shape[1])),
            min_size=shape[0], max_size=shape[0]))


def invariant_factors_oracle(m):
    """Independent Smith-diagonal oracle: d1...dk = gcd of k x k minors.

    Exponential in size; for small matrices only.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, determinant(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


def snf_checks(m):
    """The Smith diagonal of ``m``: min(rows, cols) entries, non-negative,
    each dividing the next, with the input left alone."""
    before = [row[:] for row in m]
    diag = smith_normal_form(m)
    assert m == before
    assert len(diag) == min(len(m), len(m[0]) if m else 0)
    for i, d in enumerate(diag):
        assert d >= 0
        if i and diag[i - 1]:
            assert d % diag[i - 1] == 0
        if i and diag[i - 1] == 0:
            assert d == 0
    return diag


def sympy_diagonal(m):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rows, cols = len(m), len(m[0]) if m else 0
    d = sympy_snf(Matrix(rows, cols, [x for row in m for x in row]), domain=ZZ)
    return [abs(d[i, i]) for i in range(min(d.shape))]


class TestSmith:
    def test_diag_2_3(self):
        assert snf_checks([[2, 0], [0, 3]]) == [1, 6]

    def test_zero(self):
        assert snf_checks([[0, 0], [0, 0]]) == [0, 0]

    def test_identity(self):
        assert snf_checks([[1, 0], [0, 1]]) == [1, 1]

    @given(small_matrices)
    @settings(max_examples=120, deadline=None)
    def test_properties(self, m):
        snf_checks(m)

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_minor_gcd_oracle(self, m):
        # the nonzero diagonal must match the gcd-of-minors computation
        diag = [d for d in smith_normal_form(m) if d]
        assert diag == invariant_factors_oracle(m)

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_sympy_oracle(self, m):
        assert smith_normal_form(m) == sympy_diagonal(m)

    @given(sparse_matrices)
    @settings(max_examples=200, deadline=None)
    def test_invariants_without_transforms(self, m):
        # zero rows and columns and empty shapes included; no transform is
        # kept and the input is left alone
        snf_checks(m)

    @given(sparse_matrices)
    @settings(max_examples=100, deadline=None)
    def test_invariants_sympy_oracle(self, m):
        assert smith_normal_form(m) == sympy_diagonal(m)

    @given(large_matrices)
    @example([[-2, -4, 5], [-1, -2, -4], [8, -4, 7]])  # 5 Hermite passes
    @settings(max_examples=60, deadline=None)
    def test_large_matrices_sympy_oracle(self, m):
        assert snf_checks(m) == sympy_diagonal(m)

    def test_invariants_of_empty_matrices(self):
        for m in ([], [[]], [[], []], [[0, 0, 0]], [[0], [0]]):
            assert smith_normal_form(m) == sympy_diagonal(m)
        assert smith_normal_form([[], []]) == []
        assert smith_normal_form([[0], [0]]) == [0]

    @given(sparse_matrices, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_invariants_of_relations(self, m, extra):
        # rows or columns: Z^n modulo the relation vectors either way
        n = (len(m[0]) if m else 0) + extra
        rows = [row + [0] * extra for row in m]
        inv = AbelianInvariants.of_relations(sparse_rows(rows), n)
        assert inv == AbelianInvariants.of_relations(sparse_rows(transpose(rows)), n)
        diag = smith_normal_form(rows)
        assert inv.betti == n - sum(1 for x in diag if x)
        assert inv.torsion == tuple(x for x in diag if x > 1)

    def test_unimodular_invariance(self):
        rnd = random.Random(5)
        m = [[rnd.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        diag = smith_normal_form(m)
        for _ in range(10):
            left = _random_unimodular(rnd, 3)
            right = _random_unimodular(rnd, 3)
            m2 = mat_mul(mat_mul(left, m), right)
            assert smith_normal_form(m2) == diag


class TestUnitPivots:
    """``of_relations`` clears the +-1 pivots of sparse rows before the
    dense Smith form; its invariants are those of the dense diagonal and of
    sympy's."""

    @staticmethod
    def check(m):
        cols = len(m[0]) if m else 0
        sparse = sparse_rows(m)
        before = [dict(row) for row in sparse]
        inv = AbelianInvariants.of_relations(sparse, cols)
        assert sparse == before
        diag = smith_normal_form(m)
        assert diag == sympy_diagonal(m)
        assert inv == AbelianInvariants(cols - sum(1 for x in diag if x),
                                        tuple(x for x in diag if x > 1))

    @given(relation_matrices(st.integers(-6, 6)))
    @settings(max_examples=200, deadline=None)
    def test_random(self, m):
        self.check(m)

    @given(relation_matrices(st.integers(-3, 3).map(lambda x: 2 * x)))
    @settings(max_examples=60, deadline=None)
    def test_no_unit_pivot(self, m):
        self.check(m)

    def test_fill_in_makes_a_unit(self):
        # the first row has no unit until the second row is cleared from it
        m = [[2, 3, 0], [1, 1, 0], [0, 0, 4]]
        self.check(m)
        assert AbelianInvariants.of_relations(sparse_rows(m), 3) == AbelianInvariants(0, (4,))


def _random_unimodular(rnd, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rnd.sample(range(n), 2)
        q = rnd.randint(-3, 3)
        for t in range(n):
            m[i][t] += q * m[j][t]
    return m


class TestAbelianization:
    def test_bs12(self):
        p = parse_presentation("< x, y | x y x^-1 y^-2 >")
        assert exponent_matrix(p) == [[0], [-1]]
        assert abelianization(p) == AbelianInvariants(1, ())

    def test_bs24(self):
        p = parse_presentation("< x, y | x y^2 x^-1 y^-4 >")
        assert abelianization(p) == AbelianInvariants(1, (2,))

    def test_zxz(self):
        p = parse_presentation("< a, b | a b A B >")
        assert exponent_matrix(p) == [[0], [0]]
        assert abelianization(p) == AbelianInvariants(2, ())

    def test_trefoil_exponents(self):
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
        assert exponent_matrix(p) == [[1], [-1]]


class TestHomBasis:
    def test_zxz_dual_basis(self):
        p = parse_presentation("< a, b | a b A B >")
        assert [c.values for c in hom_to_Z_basis(p)] == [(1, 0), (0, 1)]

    def test_bs12(self):
        p = parse_presentation("< x, y | x y x^-1 y^-2 >")
        assert [c.values for c in hom_to_Z_basis(p)] == [(1, 0)]

    def test_trefoil(self):
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
        assert [c.values for c in hom_to_Z_basis(p)] == [(1, 1)]

    def test_betti_zero_raises(self):
        p = parse_presentation("< a | a^2 >")
        with pytest.raises(ValueError):
            hom_to_Z_basis(p)

    def test_annihilates_relators(self):
        rnd = random.Random(11)
        for _ in range(20):
            n = rnd.randint(2, 4)
            p = _random_pres(rnd, n)
            inv = abelianization(p)
            if inv.betti == 0:
                continue
            basis = hom_to_Z_basis(p)
            assert len(basis) == inv.betti
            for chi in basis:
                for r in p.relators:
                    assert chi.of_word(r) == 0
                g = 0
                for x in chi.values:
                    g = gcd(g, x)
                assert g == 1


def _random_pres(rnd, n):
    rels = []
    for _ in range(rnd.randint(1, n - 1)):
        word = [rnd.choice([x for x in range(-n, n + 1) if x])
                for _ in range(rnd.randint(1, 10))]
        rels.append(free_reduce(tuple(word)))
    return Presentation(default_names(n), tuple(rels))


def random_words(n):
    """Freely reduced words on n generators, with repeated letters so that
    exponent sums other than 0 and +-1 come up."""
    letters = [s * g for g in range(1, n + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=9).map(
        lambda w: free_reduce(tuple(w)))


class TestImageSpan:
    def test_semidirect_example(self):
        p = parse_presentation("< x, y, t | t x T X, t y T x^-1 y^-1 >")
        words = [parse_word("t", p.generators), parse_word("x", p.generators)]
        assert image_span_rank(p, words) == (1, True)

    def test_square_commutes(self):
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        assert image_span_rank(p, [(1, 1), (2,)]) == (2, False)

    def test_empty_words(self):
        p = parse_presentation("< a, b | a b A B >")
        assert image_span_rank(p, []) == (0, True)
        q = parse_presentation("< a | a >")
        assert image_span_rank(q, []) == (0, False)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
               st.just(n),
               st.lists(random_words(n), max_size=4),
               st.lists(random_words(n), max_size=3))))
    @settings(max_examples=300, deadline=None)
    def test_sympy_oracle(self, case):
        # the rank over Q of the relator rows stacked with the word rows,
        # minus the rank of the relator rows
        from sympy import Matrix
        n, rels, words = case

        def rank(ws):
            return Matrix(len(ws), n, [x for w in ws for x in exponent_vector(w, n)]).rank()

        betti = n - rank(rels)
        want = rank(rels + words) - rank(rels)
        p = Presentation(default_names(n), tuple(rels))
        assert image_span_rank(p, words) == (want, want < betti)


def maximal_minors(rows, r, cols):
    """The r x r minors of ``rows`` on the columns ``cols``, over every
    choice of r rows."""
    return [determinant([[rows[i][j] for j in cols] for i in chosen])
            for chosen in combinations(range(len(rows)), r)]


def hermite_pivots(rows):
    """The pivot columns of ``rows``, after checking that they are in
    Hermite form: each pivot positive and right of the one above, every
    entry above a pivot in [0, pivot)."""
    pivots = []
    for row in rows:
        pc = next(j for j, x in enumerate(row) if x)
        assert row[pc] > 0
        assert not pivots or pc > pivots[-1]
        pivots.append(pc)
    for i, pc in enumerate(pivots):
        for k in range(i):
            assert 0 <= rows[k][pc] < rows[i][pc]
    return pivots


class TestHermite:
    def test_deterministic_and_primitive(self):
        # lattice spanned by (2,4) and (3,5) has index 2 in Z^2
        rows = hermite_rows([[2, 4], [3, 5]])
        assert rows == [[1, 1], [0, 2]]

    def test_entries_above_later_pivots_stay_reduced(self):
        # reducing the top row by the second row pushes -5 back above 36
        # when the rows are reduced from the bottom up
        assert hermite_rows([[-2, -5, 1], [6, 1, 1], [4, 0, 6]]) == [
            [2, 1, 31], [0, 2, 20], [0, 0, 36]]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                           min_size=n, max_size=n))))
    def test_hermite_normal_form(self, basis):
        out = hermite_rows(basis)
        pivots = hermite_pivots(out)
        # every input row lies in the lattice of the output rows
        for row in basis:
            rest = list(row)
            for piv_row, pc in zip(out, pivots):
                q, rem = divmod(rest[pc], piv_row[pc])
                assert rem == 0
                rest = [a - q * b for a, b in zip(rest, piv_row)]
            assert not any(rest)
        # the output rows span the whole input lattice: the gcd of the
        # maximal minors is the same on both sides, and on the pivot
        # columns it is the product of the pivots
        r = len(out)
        every = list(combinations(range(len(basis[0]) if basis else 0), r))
        assert (gcd(*(m for cols in every for m in maximal_minors(basis, r, cols)))
                == gcd(*(m for cols in every for m in maximal_minors(out, r, cols))))
        product = 1
        for row, pc in zip(out, pivots):
            product *= row[pc]
        assert gcd(*maximal_minors(basis, r, pivots)) == product


# a: 0 to 6 equations in 1 to 7 unknowns, some rows zero and some repeated
equation_systems = st.tuples(st.integers(0, 6), st.integers(1, 7)).flatmap(
    lambda shape: st.tuples(
        st.lists(st.one_of(st.just([0] * shape[1]),
                           st.lists(st.integers(-6, 6), min_size=shape[1],
                                    max_size=shape[1])),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.integers(0, 5), max_size=6 - shape[0]),
        st.just(shape[1]))).map(
    lambda t: ([*t[0], *(t[0][i % len(t[0])] for i in t[1] if t[0])], t[2]))


class TestIntegerKernel:
    """Properties that fix the kernel basis whatever computes it: the rows
    solve a.x = 0, are in Hermite form, number n - rank(a), and span a
    saturated lattice (their maximal minors have gcd 1).  A saturated
    sublattice of the kernel with its rank is the whole kernel lattice,
    whose Hermite form is unique."""

    @given(equation_systems)
    @settings(max_examples=300, deadline=None)
    def test_kernel_properties(self, system):
        from sympy import Matrix
        a, n = system
        kernel = integer_kernel([[row[j] for row in a] for j in range(n)])
        for x in kernel:
            assert len(x) == n
            assert all(sum(c * v for c, v in zip(row, x)) == 0 for row in a)
        hermite_pivots(kernel)
        rank = Matrix(len(a), n, [x for row in a for x in row]).rank() if a else 0
        r = len(kernel)
        assert r == n - rank
        if r:
            assert gcd(*(m for cols in combinations(range(n), r)
                         for m in maximal_minors(kernel, r, cols))) == 1

    def test_no_equations(self):
        assert integer_kernel([[], [], []]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert integer_kernel([]) == []

    def test_examples(self):
        # 2x + 4y = 0 and 3x + 6y = 0
        assert integer_kernel([[2, 3], [4, 6]]) == [[2, -1]]
        assert integer_kernel([[1, 0], [0, 1]]) == []


class TestCoverBettiMonotone:
    def test_cover_betti_at_least_parent(self):
        # rewriting to a finite-index subgroup never loses rational rank
        from largeness.subgroups import (low_index_subgroups,
                                         reidemeister_schreier, tietze_simplify)
        for text in ["< x, y | x^2 y x^-2 y^-1 >",
                     "< x, y | x y x y^-1 x^-1 y^-1 >",
                     "< a, b | a b A B >"]:
            p = parse_presentation(text)
            b0 = abelianization(p).betti
            for table in low_index_subgroups(p, 4):
                sub, _ = reidemeister_schreier(p, table)
                simp, _ = tietze_simplify(sub)
                assert abelianization(simp).betti >= b0
