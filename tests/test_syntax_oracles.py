"""The per-cover syntax layer against reference forms of the same functions.

The reference forms below are the earlier, direct implementations of
``classify_conjugated_power``, ``reidemeister_schreier``/``rewrite_word``,
``tietze_simplify`` and ``exponent_matrix``: every rotation built, a
``power`` per candidate split, a ``(coset, gen)`` edge dict over the Schreier
tree of ``oracles.schreier_generators``, and a Tietze loop that renumbers and
reduces every word on every elimination.  The fast forms must give the same
output, in the same order, and the same errors.
"""

import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from largeness.abelian import exponent_matrix
from largeness.certify import classify_conjugated_power
from largeness.subgroups import (MAX_SUB_LEN, CosetTable, cover_presentation,
                                 low_index_subgroups, reidemeister_schreier,
                                 rewrite_word, tietze_simplify)
from largeness.words import (Presentation, concat, cyclic_reduce,
                             default_names, free_reduce, gen_of, inverse,
                             letter, parse_presentation, power, rotate)
from oracles import conjugated_power_by_splits, schreier_generators

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


# ---------------------------------------------------------------------------
# reference forms


def ref_classify_conjugated_power(w):
    core, _ = cyclic_reduce(w)
    n = len(core)
    for k in range(n):
        r = rotate(core, k)
        g = r[0]
        for j in range(1, n):
            if r[j] != -g:
                continue
            a_part = r[1:j]
            b_part = r[j + 1:]
            if not a_part:
                continue
            if len(b_part) % len(a_part):
                continue
            c = len(b_part) // len(a_part)
            if b_part == power(a_part, c):
                return {"exponent": -c, "amplitude": a_part}
            if b_part == power(inverse(a_part), c):
                return {"exponent": c, "amplitude": a_part}
    return None


def ref_exponent_matrix(p):
    def exponent_sum(w, gen):
        return sum(1 if lt == gen + 1 else -1 if lt == -(gen + 1) else 0 for lt in w)
    return [[exponent_sum(r, g) for r in p.relators] for g in range(p.ngens)]


def ref_rewrite_word(table, edge_index, w, start=0):
    out = []
    c = start
    for lt in w:
        g = gen_of(lt)
        if lt > 0:
            key = (c, g)
            c2 = table.apply(c, lt)
            if key in edge_index:
                out.append(edge_index[key] + 1)
        else:
            c2 = table.apply(c, lt)
            key = (c2, g)
            if key in edge_index:
                out.append(-(edge_index[key] + 1))
        c = c2
    if c != start:
        raise ValueError("word does not lie in the subgroup")
    return free_reduce(out)


def ref_reidemeister_schreier(p, table):
    """``(presentation, ambient words, (coset, gen) -> generator index)``."""
    gens = schreier_generators(table)
    if not table.is_closed_under(p.relators):
        raise ValueError("coset table is not closed under the relators")
    edge_index = {edge: k for k, (edge, _) in enumerate(gens)}
    names = []
    taken = set()
    for c, g in edge_index:
        name = p.generators[g] if table.degree == 1 else f"{p.generators[g]}_{c}"
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    relators = []
    for r in p.relators:
        for c in range(table.degree):
            relators.append(ref_rewrite_word(table, edge_index, r, c))
    ambient = tuple(w for _, w in gens)
    return Presentation(tuple(names), tuple(relators)), ambient, edge_index


def ref_tietze_simplify(p, carry=()):
    gens = list(p.generators)
    rels = [r for r in p.relators]
    carry = [tuple(w) for w in carry]

    def cyc(w):
        return cyclic_reduce(w)[0]

    changed = True
    while changed:
        changed = False
        rels = [cyc(r) for r in rels]
        rels_nonempty = [r for r in rels if r]
        if len(rels_nonempty) != len(rels):
            rels = rels_nonempty
            changed = True
        target = None
        for r_i in sorted(range(len(rels)), key=lambda i: (len(rels[i]), i)):
            rel = rels[r_i]
            if len(rel) - 1 > MAX_SUB_LEN:
                continue
            counts = {}
            for lt in rel:
                counts[gen_of(lt)] = counts.get(gen_of(lt), 0) + 1
            for pos, lt in enumerate(rel):
                if counts[gen_of(lt)] == 1:
                    target = (r_i, pos, gen_of(lt))
                    break
            if target:
                break
        if not target:
            break
        r_idx, pos, g = target
        rel = rels[r_idx]
        u, lt, v = rel[:pos], rel[pos], rel[pos + 1:]
        expr = concat(inverse(u), inverse(v))
        if lt < 0:
            expr = inverse(expr)
        old_to_new = {}
        k = 0
        for i in range(len(gens)):
            if i != g:
                old_to_new[i] = k
                k += 1

        def renumber(w):
            return tuple(letter(old_to_new[gen_of(x)], 1 if x > 0 else -1) for x in w)

        def eliminate(w):
            out = []
            for x in w:
                if gen_of(x) == g:
                    out.extend(expr if x > 0 else inverse(expr))
                else:
                    out.append(x)
            return renumber(free_reduce(tuple(out)))

        rels = [eliminate(r2) for r2i, r2 in enumerate(rels) if r2i != r_idx]
        carry = [eliminate(w) for w in carry]
        gens = [nm for i, nm in enumerate(gens) if i != g]
        changed = True
    rels = [cyc(r) for r in rels]
    rels = [r for r in rels if r]
    return Presentation(tuple(gens), tuple(rels)), carry


def ref_cover_presentation(p, table, carry=()):
    raw, _, edge_index = ref_reidemeister_schreier(p, table)
    return ref_tietze_simplify(raw, [ref_rewrite_word(table, edge_index, w) for w in carry])


# ---------------------------------------------------------------------------
# strategies


def reduced_words(ngens, max_size):
    letters = [s * g for g in range(1, ngens + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(free_reduce)


@st.composite
def presentations_with_words(draw):
    """A presentation on 1-5 generators with some relators long enough to
    meet the substitution bound, plus carry words."""
    n = draw(st.integers(1, 5))
    short = draw(st.lists(reduced_words(n, 12), max_size=5))
    long = draw(st.lists(reduced_words(n, 3 * MAX_SUB_LEN // 2), max_size=1))
    rels = draw(st.permutations(short + long))
    carry = draw(st.lists(reduced_words(n, 10), max_size=4))
    return Presentation(default_names(n), tuple(rels)), carry


def edge_dict(edge_index):
    """The per-generator edge letters as the reference (coset, gen) dict."""
    return {(c, g): x - 1 for g, ids in enumerate(edge_index)
            for c, x in enumerate(ids) if x}


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# ---------------------------------------------------------------------------
# tests


class TestConjugatedPower:
    @given(reduced_words(3, 16))
    @settings(max_examples=400, deadline=None)
    def test_random_words(self, w):
        want = conjugated_power_by_splits(w)
        assert classify_conjugated_power(w) == want == ref_classify_conjugated_power(w)

    @given(reduced_words(3, 6), st.sampled_from([1, -1, 2, -2, 3, -3]),
           st.integers(0, 4), st.booleans(), st.booleans(),
           reduced_words(3, 4), st.integers(0, 40))
    @settings(max_examples=400, deadline=None)
    def test_planted_shapes(self, a_part, g, c, inverted, wrap, conj, k):
        # g A g^-1 A^(+-c), with A[0] = A[-1]^-1 planted half the time,
        # then rotated and conjugated
        if wrap and a_part and -g not in (a_part[0], -a_part[0]):
            a_part = free_reduce((-g,) + a_part + (g,))
        assume(a_part)
        b_part = power(inverse(a_part) if inverted else a_part, c)
        core, _ = cyclic_reduce(free_reduce((g,) + a_part + (-g,) + b_part))
        w = free_reduce(conj + rotate(core, k) + inverse(conj))
        want = conjugated_power_by_splits(w)
        assert classify_conjugated_power(w) == want == ref_classify_conjugated_power(w)

    @given(reduced_words(5, 12), st.integers(1, 5), st.integers(1, 30),
           st.booleans(), reduced_words(5, 40), st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    def test_planted_shapes_against_splits(self, a_part, g, c, inverted, noise, k):
        # g A g^-1 A^(+-c) on up to 5 generators, some with a letter or a
        # stretch changed, against the earlier split-by-split form
        b_part = (inverse(a_part) if inverted else a_part) * c
        core, _ = cyclic_reduce(free_reduce((g,) + a_part + (-g,) + b_part))
        assume(core)
        k %= len(core)
        for w in (rotate(core, k), free_reduce(rotate(core, k)[:-len(noise) or None] + noise)):
            assert classify_conjugated_power(w) == conjugated_power_by_splits(w)

    def test_cancelling_amplitude(self):
        # A = b a b^-1 has A[0] = A[-1]^-1, so A^2 = b a^2 b^-1 is shorter
        # than A A, and g A g^-1 A^2 (g = c) has no split with |A| = 3
        a_part = (2, 1, -2)
        for c in (0, 1, 2, 3):
            w = free_reduce((3,) + a_part + (-3,) + power(a_part, c))
            assert classify_conjugated_power(w) == ref_classify_conjugated_power(w)
        assert classify_conjugated_power((3, 2, 1, -2, -3, 2, 1, 1, -2)) is None
        assert classify_conjugated_power((3, 2, 1, -2, -3, 2, 1, -2)) == {
            "exponent": -1, "amplitude": (2, 1, -2)}
        assert classify_conjugated_power((3, 2, 1, -2, -3, 2, -1, -2)) == {
            "exponent": 1, "amplitude": (2, 1, -2)}
        # c = 0 never matches: g A g^-1 is not cyclically reduced
        assert classify_conjugated_power((3, 1, 1, -3)) is None

    def test_long_relators_are_quick(self):
        # 8000 letters: a random relator, a commutator power, and a planted
        # shape found only at the last rotations
        rnd = random.Random(5)
        walk = [1]
        while len(walk) < 8000:
            x = rnd.choice((1, -1, 2, -2))
            if x != -walk[-1]:
                walk.append(x)
        words = [tuple(walk), (1, 2, -1, -2) * 2000,
                 rotate((2,) + (1, 3) + (-2,) + (1, 3) * 3998, 10)]
        for w in words:
            t0 = time.perf_counter()
            got = classify_conjugated_power(w)
            assert time.perf_counter() - t0 < 2.0  # the fuzz deadline
            assert got == conjugated_power_by_splits(w)
        assert got == {"exponent": -3998, "amplitude": (1, 3)}


class TestExponentMatrix:
    @given(presentations_with_words())
    @settings(max_examples=100, deadline=None)
    def test_random(self, case):
        p, _ = case
        assert exponent_matrix(p) == ref_exponent_matrix(p)

    def test_no_relators(self):
        p = Presentation(("a", "b"), ())
        assert exponent_matrix(p) == ref_exponent_matrix(p) == [[], []]


class TestTietze:
    @given(presentations_with_words())
    @settings(max_examples=300, deadline=None)
    def test_random_presentations(self, case):
        p, carry = case
        assert tietze_simplify(p, carry) == ref_tietze_simplify(p, carry)
        assert tietze_simplify(p) == ref_tietze_simplify(p)

    def test_substitution_bound(self):
        # the only singleton sits in a relator one letter over the bound, so
        # nothing is eliminated; one letter shorter, it is
        for length, ngens in ((MAX_SUB_LEN + 2, 3), (MAX_SUB_LEN + 1, 2)):
            p = Presentation(("a", "b", "c"),
                             ((1,) + tuple(2 + i % 2 for i in range(length - 1)),))
            simp, _ = tietze_simplify(p)
            assert simp == ref_tietze_simplify(p)[0]
            assert simp.ngens == ngens


class TestRewriting:
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.pres")), ids=lambda f: f.stem)
    def test_corpus_classes(self, path):
        # every class to index 4, at its canonical numbering and at one
        # other numbering that keeps the subgroup at coset 0
        rnd = random.Random(path.stem)
        p = parse_presentation(path.read_text())
        for table in low_index_subgroups(p, 4):
            rest = list(range(1, table.degree))
            rnd.shuffle(rest)
            perm = [0] + rest
            moved = CosetTable(table.degree, tuple(
                tuple(perm[a[perm.index(c)]] for c in range(table.degree))
                for a in table.action))
            for t in (table, moved):
                sub, edge_index = reidemeister_schreier(p, t)
                ref_sub, ref_amb, ref_edges = ref_reidemeister_schreier(p, t)
                assert sub == ref_sub
                assert edge_dict(edge_index) == ref_edges
                # carry words in the subgroup: products of ambient words
                carry = [free_reduce(sum((ref_amb[i] if rnd.random() < 0.5
                                          else inverse(ref_amb[i])
                                          for i in rnd.choices(range(len(ref_amb)), k=3)),
                                         ())) for _ in range(3)]
                for w in carry:
                    assert (rewrite_word(t, edge_index, w)
                            == ref_rewrite_word(t, ref_edges, w))
                assert cover_presentation(p, t, carry) == ref_cover_presentation(p, t, carry)

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
               st.just(d), st.lists(st.permutations(range(d)), min_size=2, max_size=2))),
           st.lists(reduced_words(2, 8), max_size=2),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(tuple),
           st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_random_tables(self, table_spec, rels, w, start):
        # transitive or not, closed or not: a table that is not transitive,
        # or not closed under the relators, is refused with the reference
        # error; the word rewritten need not be freely reduced
        degree, perms = table_spec
        t = CosetTable(degree, tuple(tuple(x) for x in perms))
        p = Presentation(("x", "y"), tuple(rels))
        got = outcome(reidemeister_schreier, p, t)
        ref = outcome(ref_reidemeister_schreier, p, t)
        if ref[0] == "ValueError":
            assert got == ref
            return
        sub, edge_index = got
        assert sub == ref[0] and edge_dict(edge_index) == ref[2]
        start %= degree
        assert (outcome(rewrite_word, t, edge_index, w, start)
                == outcome(ref_rewrite_word, t, ref[2], w, start))
