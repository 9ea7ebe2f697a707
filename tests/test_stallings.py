import random

import pytest
from hypothesis import example, given, settings, strategies as st

from largeness.stallings import (BoundExceeded, fold, fold_loops, graph_basis,
                                 hall_overgroup, is_covering, pin_loop_basis,
                                 rank, sg_express, sg_membership)
from largeness.words import free_reduce
from oracles import batch_fold


def random_word(rnd, n, max_len):
    word = []
    target = rnd.randint(1, max_len)
    while len(word) < target:
        lt = rnd.choice([x for x in range(-n, n + 1) if x])
        if word and word[-1] == -lt:
            continue
        word.append(lt)
    return tuple(word)


class TestFold:
    def test_powers_of_same_root(self):
        g = fold([(1, 1), (1, 1, 1)])
        assert g.nvertices == 1 and rank(g) == 1
        assert sg_membership(g, (1,))

    def test_bouquet(self):
        g = fold([(1,), (2,)])
        assert is_covering(g, 2) and g.nvertices == 1
        assert graph_basis(g) == [(1,), (2,)]

    def test_index_two(self):
        g = fold([(1, 1), (2,), (1, 2, -1)])
        assert is_covering(g, 2) and g.nvertices == 2
        assert len(graph_basis(g)) == 3

    def test_membership(self):
        g = fold([(1,)])
        assert sg_membership(g, (1,) * 5)
        assert not sg_membership(g, (2,))

    def test_parity_membership(self):
        g = fold([(1, 1), (2,), (1, 2, -1)])
        assert not sg_membership(g, (1, 2))       # odd x-count
        assert sg_membership(g, (1, 2, 1))        # even x-count
        assert sg_membership(g, (1, 2, -1))

    def test_infinite_index(self):
        g = fold([(1,)])
        assert not is_covering(g, 2)
        assert graph_basis(g) == [(1,)]

    def test_insertion_order_irrelevant(self):
        rnd = random.Random(2)
        for _ in range(25):
            n = rnd.choice([2, 3])
            gens = [random_word(rnd, n, 8) for _ in range(rnd.randint(1, 4))]
            base_key = fold(gens).canonical_key()
            for _ in range(3):
                shuffled = gens[:]
                rnd.shuffle(shuffled)
                assert fold(shuffled).canonical_key() == base_key

    def test_generators_are_members(self):
        rnd = random.Random(9)
        for _ in range(30):
            n = rnd.choice([2, 3])
            gens = [random_word(rnd, n, 10) for _ in range(rnd.randint(1, 4))]
            g = fold(gens)
            for w in gens:
                assert sg_membership(g, w)

    def test_trivial_subgroup(self):
        g = fold([])
        assert g.nvertices == 1 and rank(g) == 0

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)]),
                 max_size=9).map(tuple), max_size=4)))
    def test_folded_graph_is_a_core(self, gens):
        # words need not be reduced or cyclically reduced; still no vertex
        # but the base is left with a single incident edge
        g = fold(gens)
        for v in range(g.nvertices):
            assert v == g.base or len(g.adj[v]) >= 2
        for w in gens:
            assert sg_membership(g, free_reduce(w))


@st.composite
def word_lists(draw):
    """1-5 generators and 0-6 words of 0-25 letters, not necessarily
    reduced; now and then the last word is the inverse of the first."""
    n = draw(st.integers(1, 5))
    letters = [s * g for g in range(1, n + 1) for s in (1, -1)]
    words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=25).map(tuple),
                          max_size=6))
    if len(words) >= 2 and draw(st.booleans()):
        words[-1] = tuple(-x for x in reversed(words[0]))
    return words


class TestFoldLoops:
    @settings(max_examples=500)
    @given(word_lists())
    @example([(), (1, 2), (-2, -1)])
    @example([(1, -1), ()])
    def test_same_as_batch_fold(self, gens):
        # the incremental fold builds the graph of the earlier batch fold,
        # vertex numbers and base included
        g, ref = fold(gens), batch_fold(gens)
        assert (g.nvertices, g.adj, g.base) == (ref.nvertices, ref.adj, ref.base)

    def test_bound_exceeded(self):
        # <a> has infinite index in Z^2 = < a, b | a b a^-1 b^-1 >
        with pytest.raises(BoundExceeded) as info:
            fold_loops([(1,)], [(1, 2, -1, -2)], bound=50)
        assert str(info.value) == "coset bound 50 exceeded"


class TestBasis:
    def test_basis_elements_are_members_and_independent(self):
        rnd = random.Random(4)
        for _ in range(20):
            n = rnd.choice([2, 3])
            gens = [random_word(rnd, n, 8) for _ in range(rnd.randint(1, 3))]
            g = fold(gens)
            basis = graph_basis(g)
            assert len(basis) == rank(g)
            for b in basis:
                assert sg_membership(g, b)
                ex = sg_express(g, b)
                assert ex is not None and len(ex) == 1

    def test_express_roundtrip(self):
        g = fold([(1, 1), (2,), (1, 2, -1)])
        basis = graph_basis(g)
        from largeness.words import substitute
        w = (1, 1, 2, 2, -1, -1)
        coords = sg_express(g, w)
        assert coords is not None
        assert free_reduce(substitute(coords, basis)) == w

    def test_express_nonmember(self):
        g = fold([(1, 1)])
        assert sg_express(g, (1,)) is None


class TestHallOvergroup:
    def test_basis_generator(self):
        g = hall_overgroup((1,), 2)
        forced, flips = pin_loop_basis(g, (1,))
        assert is_covering(g, 2) and g.nvertices == 1
        assert (1,) in graph_basis(g, forced, flips)

    def test_square(self):
        g = hall_overgroup((1, 1), 2)
        forced, flips = pin_loop_basis(g, (1, 1))
        basis = graph_basis(g, forced, flips)
        assert is_covering(g, 2) and g.nvertices == 2
        assert sorted(basis) == sorted([(1, 1), (2,), (1, 2, -1)])

    def test_commutator(self):
        w = (1, 2, -1, -2)
        g = hall_overgroup(w, 2)
        forced, flips = pin_loop_basis(g, w)
        assert is_covering(g, 2)
        assert w in graph_basis(g, forced, flips)
        assert sg_membership(g, w)

    def test_hundred_random_words(self):
        rnd = random.Random(7)
        done = 0
        while done < 100:
            n = rnd.choice([2, 3])
            w = free_reduce(random_word(rnd, n, 12))
            if not w:
                continue
            g = hall_overgroup(w, n)
            forced, flips = pin_loop_basis(g, w)
            assert is_covering(g, n)
            basis = graph_basis(g, forced, flips)
            assert w in basis
            coords = sg_express(g, w, forced, flips)
            assert coords == (basis.index(w) + 1,)
            done += 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hall_overgroup((), 2)


class TestPinLoop:
    def test_whole_group_loop(self):
        g = fold([(1,), (2,)])
        forced, flips = pin_loop_basis(g, (1,))
        assert (1,) in graph_basis(g, forced, flips)

    def test_open_trace_returns_none(self):
        g = fold([(1, 1)])
        assert pin_loop_basis(g, (2,)) is None
