import contextlib
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from largeness import subgroups
from largeness.abelian import abelianization
from largeness.certify import CertifyConfig, certify
from largeness.cli import main
from largeness.subgroups import (BoundExceeded, CosetTable, canonical_rebase,
                                 coset_enumerate, cover_abelianization,
                                 cover_presentation,
                                 index_two_classes, low_index_subgroups, reidemeister_schreier,
                                 rewrite_word, subgroup_classes, tietze_simplify)
from largeness.words import (MAX_WORD_LEN, Presentation, default_names, free_reduce,
                             inverse, parse_presentation, parse_word)
from oracles import (pending_subgroup_classes, probe_coset_enumerate,
                     schreier_cover_abelianization, schreier_generators,
                     search_tables as recursive_search_tables, subgroup_count_by_index)

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
CORPUS_PRESENTATIONS = [parse_presentation(f.read_text())
                        for f in sorted(CORPUS.glob("*.pres"))]


def letter_lists(ngens, min_size, max_size):
    letters = [s * g for g in range(1, ngens + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(letters), min_size=min_size, max_size=max_size)


def presentations(ngens):
    return st.lists(letter_lists(ngens, 1, 6), min_size=0, max_size=2).map(
            lambda rels: Presentation(default_names(ngens),
                                      tuple(free_reduce(tuple(r)) for r in rels)))


two_generator_presentations = presentations(2)

# DFS nodes consumed and tables found by the search at index 5, per corpus file
SEARCH_NODES = {
    "bs_1_2": (60, 13), "bs_2_3": (144, 10), "bs_2_4": (486, 113),
    "conjugate_square_commutes": (388, 121), "cyclic_quotients_only": (265, 5),
    "deep_conjugator_family": (234, 15), "f2_times_z": (2400, 627),
    "free_rank2_and_z": (14663, 3833), "hexagonal_balanced_1": (198, 40),
    "hexagonal_balanced_2": (307, 65), "trefoil": (109, 21), "z": (10, 5),
    "zxz": (53, 21),
}

# DFS nodes and tables of the least-mode search at index 6, per corpus file
LEAST_NODES = {
    "bs_1_2": (51, 10), "bs_2_3": (195, 7), "bs_2_4": (638, 96),
    "conjugate_square_commutes": (491, 117), "cyclic_quotients_only": (443, 6),
    "deep_conjugator_family": (316, 10), "f2_times_z": (5296, 1000),
    "free_rank2_and_z": (41865, 8046), "hexagonal_balanced_1": (290, 41),
    "hexagonal_balanced_2": (437, 65), "trefoil": (156, 17), "z": (12, 6),
    "zxz": (77, 33),
}


def words_of(p, *texts):
    return [parse_word(t, p.generators) for t in texts]


def search_tables(p, max_index, node_budget=None):
    """The search's ``(degree, flat)`` pairs as ``CosetTable`` objects, and
    whether it was truncated."""
    found, truncated = subgroups._search_tables(p, max_index, node_budget)
    return [subgroups._from_flat(d, flat) for d, flat in found], truncated


def per_table_minimum_classes(p, max_index, node_budget=None):
    """Reference dedup: key every table the search finds by the least
    flattened rebasing, one class per key, in key order."""
    cell = None if node_budget is None else [node_budget]
    tables, truncated = search_tables(p, max_index, cell)
    keys = {(t.degree, min(canonical_rebase(t, b).flat() for b in range(t.degree)))
            for t in tables}
    classes = [CosetTable(d, tuple(flat[g * d:(g + 1) * d] for g in range(p.ngens)))
               for d, flat in sorted(keys)]
    return classes, truncated


def ref_canonical_rebase(table, base):
    """``canonical_rebase`` with no inverse table: each inverse step is
    found by searching the permutation."""
    order = [base]
    for c in order:
        for perm in table.action:
            for tgt in (perm[c], perm.index(c)):
                if tgt not in order:
                    order.append(tgt)
    new = {c: i for i, c in enumerate(order)}
    return CosetTable(table.degree, tuple(tuple(new[perm[c]] for c in order)
                                          for perm in table.action))


def ref_subgroup_classes(p, max_index, node_budget=None):
    """The dedup of ``subgroup_classes`` in its earlier form: the orbit of
    each table not yet placed is a set of rebased ``CosetTable`` objects,
    and the least of it by flat form represents the class."""
    cell = None if node_budget is None else [node_budget]
    tables, truncated = search_tables(p, max_index, cell)
    unplaced = set(tables)
    classes = []
    for table in tables:
        if table in unplaced:
            orbit = {ref_canonical_rebase(table, b) for b in range(table.degree)}
            unplaced -= orbit
            classes.append(min(orbit, key=CosetTable.flat))
    classes.sort(key=lambda t: (t.degree, t.flat()))
    return classes, truncated


def random_tables():
    """Two random permutations of 1 to 4 cosets: transitive or not, closed
    under a presentation's relators or not."""
    return st.integers(1, 4).flatmap(lambda d: st.lists(
        st.permutations(range(d)), min_size=2, max_size=2).map(
            lambda perms: CosetTable(d, tuple(map(tuple, perms)))))


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def closed_transitive_tables(p, degree):
    """The canonical tables of every subgroup of index ``degree``, found by
    trying every tuple of permutations, with no DFS."""
    found = set()
    for action in itertools.product(itertools.permutations(range(degree)),
                                    repeat=p.ngens):
        reached, todo = {0}, [0]
        while todo:
            c = todo.pop()
            for perm in action:
                for e in (perm[c], perm.index(c)):
                    if e not in reached:
                        reached.add(e)
                        todo.append(e)
        table = CosetTable(degree, action)
        if len(reached) == degree and table.is_closed_under(p.relators):
            found.add(canonical_rebase(table, 0))
    return found


def relabelled(table, sigma):
    """``table`` with coset c renamed sigma[c]."""
    action = []
    for perm in table.action:
        new = [0] * table.degree
        for c, t in enumerate(perm):
            new[sigma[c]] = sigma[t]
        action.append(tuple(new))
    return CosetTable(table.degree, tuple(action))


class TestCosetEnumerate:
    def test_cyclic_three(self):
        p = parse_presentation("< a | a^3 >")
        t = coset_enumerate(p, [])
        assert t.degree == 3
        assert t.is_closed_under(p.relators)

    def test_s3(self):
        p = parse_presentation("< a, b | a^2, b^3, a b a b >")
        t = coset_enumerate(p, [])
        assert t.degree == 6

    def test_infinite_index_raises(self):
        p = parse_presentation("< a, b | a b A B >")
        with pytest.raises(BoundExceeded):
            coset_enumerate(p, words_of(p, "a"))

    def test_free_group_subgroup(self):
        p = parse_presentation("< x, y | >")
        t = coset_enumerate(p, words_of(p, "x^2", "y", "x y x^-1"))
        assert t.degree == 2

    def test_z_subgroup(self):
        p = parse_presentation("< a | >")
        t = coset_enumerate(p, words_of(p, "a^3"))
        assert t.degree == 3

    def test_subgens_fix_base(self):
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        gens = words_of(p, "x^2", "y", "x y x^-1")
        t = coset_enumerate(p, gens)
        assert t.degree == 2
        for g in gens:
            assert t.trace(0, g) == 0

    def test_json_roundtrip(self):
        p = parse_presentation("< a | a^3 >")
        t = coset_enumerate(p, [])
        assert CosetTable.from_json(t.to_json()) == t

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        presentations(n),
        st.lists(st.lists(st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)]),
                          max_size=6).map(tuple), max_size=3))))
    def test_same_as_closure_probe(self, case):
        # stopping after a pass that changes nothing gives the table, or the
        # bound message, of the earlier rule that probed for closure
        p, subgens = case

        def outcome(enumerate_):
            try:
                return enumerate_(p, subgens)
            except BoundExceeded as exc:
                return str(exc)

        with mock.patch.object(subgroups, "MAX_COSETS", 200):
            assert outcome(coset_enumerate) == outcome(probe_coset_enumerate)


class TestCosetTable:
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3))))
    def test_inverse(self, case):
        degree, perms = case
        t = CosetTable(degree, tuple(tuple(perm) for perm in perms))
        for g, perm in enumerate(t.action):
            for c in range(degree):
                assert t.inverse[g][perm[c]] == c
                assert t.apply(c, -(g + 1)) == perm.index(c)
                assert t.apply(t.apply(c, g + 1), -(g + 1)) == c


class TestReidemeisterSchreier:
    def test_counts_square_commutes(self):
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        t = coset_enumerate(p, words_of(p, "x^2", "y", "x y x^-1"))
        sub, data = reidemeister_schreier(p, t)
        assert sub.ngens == 3 and sub.nrels == 2
        # relators upstairs are commutators of the new generators
        from largeness.words import is_commutator
        assert all(is_commutator(r) for r in sub.relators)
        assert abelianization(sub).betti == 3

    def test_counts_formula(self):
        # (n-1) i + 1 generators and m i relators, always
        for text in ["< x, y | x^2 y x^-2 y^-1 >",
                     "< x, y | x y x y^-1 x^-1 y^-1 >",
                     "< a, b | a^2, b^3, a b a b >"]:
            p = parse_presentation(text)
            for table in low_index_subgroups(p, 5):
                sub, _ = reidemeister_schreier(p, table)
                i = table.degree
                assert sub.ngens == (p.ngens - 1) * i + 1
                assert sub.nrels == p.nrels * i

    def test_free_rank_one_subgroup(self):
        p = parse_presentation("< a | >")
        t = coset_enumerate(p, words_of(p, "a^3"))
        sub, _ = reidemeister_schreier(p, t)
        assert sub.ngens == 1 and sub.nrels == 0

    def test_parity_kernel_of_f2(self):
        p = parse_presentation("< x, y | >")
        t = coset_enumerate(p, words_of(p, "x^2", "y", "x y x^-1"))
        sub, _ = reidemeister_schreier(p, t)
        assert sub.ngens == 3 and sub.nrels == 0

    def test_ambient_words(self):
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        t = coset_enumerate(p, words_of(p, "x^2", "y", "x y x^-1"))
        _, edge_index = reidemeister_schreier(p, t)
        # every ambient word fixes the base coset and rewrites to its own
        # Schreier generator
        for k, (_, w) in enumerate(schreier_generators(t), 1):
            assert t.trace(0, w) == 0
            assert rewrite_word(t, edge_index, w) == (k,)

    def test_rewrite_word(self):
        p = parse_presentation("< x, y | >")
        t = coset_enumerate(p, words_of(p, "x^2", "y", "x y x^-1"))
        sub, edge_index = reidemeister_schreier(p, t)
        expr = rewrite_word(t, edge_index, parse_word("x^2", p.generators))
        assert len(expr) == 1
        with pytest.raises(ValueError):
            rewrite_word(t, edge_index, parse_word("x", p.generators))


class TestLowIndex:
    def test_z_has_one_class_per_index(self):
        p = parse_presentation("< a | >")
        classes = low_index_subgroups(p, 4)
        assert sorted(t.degree for t in classes) == [1, 2, 3, 4]

    def test_z2_index_two(self):
        p = parse_presentation("< a, b | a b A B >")
        classes = [t for t in low_index_subgroups(p, 2) if t.degree == 2]
        assert len(classes) == 3

    def test_f2_class_counts(self):
        p = parse_presentation("< x, y | >")
        by_index = {}
        for t in low_index_subgroups(p, 3):
            by_index[t.degree] = by_index.get(t.degree, 0) + 1
        assert by_index == {1: 1, 2: 3, 3: 7}

    def test_f2_totals_match_hall(self):
        p = parse_presentation("< x, y | >")
        assert subgroup_count_by_index(p, 4) == {1: 1, 2: 3, 3: 13, 4: 71}

    def test_all_tables_closed(self):
        for text in ["< x, y | x^2 y x^-2 y^-1 >",
                     "< a, b | a^2, b^3, a b a b >",
                     "< x, y | x y x y^-1 x^-1 y^-1 >"]:
            p = parse_presentation(text)
            for t in low_index_subgroups(p, 5):
                assert t.is_closed_under(p.relators)

    def test_deterministic(self):
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
        a = [t.flat() for t in low_index_subgroups(p, 4)]
        b = [t.flat() for t in low_index_subgroups(p, 4)]
        assert a == b

    def test_canonical_representatives(self):
        p = parse_presentation("< x, y | >")
        for t in low_index_subgroups(p, 4):
            rep = min(canonical_rebase(t, b).flat() for b in range(t.degree))
            assert t.flat() == rep

    def test_s3_subgroup_census(self):
        # the symmetric group on 3 letters: one class per index 1, 2, 3, 6
        # and totals 1, 1, 3, 0, 0, 1
        p = parse_presentation("< a, b | a^2, b^3, a b a b >")
        by_index = {}
        for t in low_index_subgroups(p, 6):
            by_index[t.degree] = by_index.get(t.degree, 0) + 1
        assert by_index == {1: 1, 2: 1, 3: 1, 6: 1}
        assert subgroup_count_by_index(p, 6) == {1: 1, 2: 1, 3: 3,
                                                 4: 0, 5: 0, 6: 1}

    def test_s3_even_subgroup_is_cyclic_of_order_three(self):
        p = parse_presentation("< a, b | a^2, b^3, a b a b >")
        table = [t for t in low_index_subgroups(p, 2) if t.degree == 2][0]
        sub, _ = reidemeister_schreier(p, table)
        simp, _ = tietze_simplify(sub)
        inv = abelianization(simp)
        assert inv.betti == 0 and inv.torsion == (3,)


    def test_classes_with_node_budget(self):
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        classes, truncated = subgroup_classes(p, 4)
        assert classes == low_index_subgroups(p, 4) and not truncated
        assert subgroup_classes(p, 4, node_budget=[10 ** 6]) == (classes, False)
        cut, truncated = subgroup_classes(p, 4, node_budget=[3])
        assert truncated and len(cut) < len(classes)


class TestCanonicalSearch:
    def test_corpus_tables_are_canonical(self):
        for p in CORPUS_PRESENTATIONS:
            tables, truncated = search_tables(p, 5)
            assert not truncated
            for t in tables:
                assert canonical_rebase(t, 0) == t

    @given(two_generator_presentations)
    @settings(max_examples=60, deadline=None)
    def test_random_tables_are_canonical(self, p):
        tables, _ = search_tables(p, 4)
        for t in tables:
            assert canonical_rebase(t, 0) == t

    @pytest.mark.parametrize("node_budget", [None, 40, 400])
    def test_classes_match_per_table_minimum(self, node_budget):
        cut = False
        for p in CORPUS_PRESENTATIONS:
            want = per_table_minimum_classes(p, 5, node_budget)
            cell = None if node_budget is None else [node_budget]
            assert subgroup_classes(p, 5, cell) == want
            assert ref_subgroup_classes(p, 5, node_budget) == want
            cut = cut or want[1]
        assert cut == (node_budget is not None)

    def test_classes_memory(self):
        # 43,944 subgroups of index <= 6 in 8,046 classes: one key per
        # class, from one table per class (traced peak 5.1 MB)
        p = parse_presentation((CORPUS / "free_rank2_and_z.pres").read_text())
        tracemalloc.start()
        try:
            classes, truncated = subgroup_classes(p, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(classes) == 8046 and not truncated
        assert peak < 24 * 2 ** 20

    @given(random_tables(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_rebase_against_reference(self, t, base):
        # any numbering of a transitive table, rebased at any coset
        assume(outcome(schreier_generators, t)[0] != "ValueError")
        base %= t.degree
        assert canonical_rebase(t, base) == ref_canonical_rebase(t, base)


class TestSearchNodes:
    """The search visits the same nodes in the same order: its node count,
    where a budget cuts it and the tables found before the cut are pinned."""

    @pytest.mark.parametrize("name", sorted(SEARCH_NODES))
    def test_corpus_node_counts(self, name):
        p = parse_presentation((CORPUS / f"{name}.pres").read_text())
        cell = [10 ** 9]
        tables, truncated = search_tables(p, 5, cell)
        assert (10 ** 9 - cell[0], len(tables)) == SEARCH_NODES[name]
        assert not truncated

    @pytest.mark.parametrize("name", sorted(SEARCH_NODES))
    def test_exact_budget(self, name):
        nodes = SEARCH_NODES[name][0]
        p = parse_presentation((CORPUS / f"{name}.pres").read_text())
        full, _ = search_tables(p, 5)
        cell = [nodes]
        assert search_tables(p, 5, cell) == (full, False)
        assert cell == [0]
        cell = [nodes - 1]
        tables, truncated = search_tables(p, 5, cell)
        assert truncated and cell == [0]
        assert tables == full[:len(tables)]

    def test_cyclic_quotients_cover(self):
        # every finite quotient of Baumslag's group is cyclic; certify's
        # search in its index-2 cover stops at the 120k-node budget
        p = parse_presentation((CORPUS / "cyclic_quotients_only.pres").read_text())
        table, = [t for t in low_index_subgroups(p, 2) if t.degree == 2]
        cover, _ = cover_presentation(p, table)
        cell = [120000]
        tables, truncated = search_tables(cover, 8, cell)
        assert [t.degree for t in tables] == list(range(1, 9))
        assert truncated and cell == [0]


class TestSearchKernel:
    """The search against its earlier recursive form: the same tables, the
    same truncation and the same nodes, with no recursion and no table made
    up front."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.just(n), st.lists(letter_lists(n, 1, 14), min_size=1, max_size=3))),
           st.integers(1, 6),
           st.one_of(st.none(), st.just(0), st.integers(1, 40), st.integers(500, 3000)))
    @settings(max_examples=150, deadline=None)
    def test_matches_recursive_search(self, shape, max_index, nodes):
        n, rels = shape
        p = Presentation(default_names(n), tuple(free_reduce(tuple(r)) for r in rels))
        if nodes is None:
            # an unbounded search of a free group of rank 3 to index 6 is huge
            max_index = min(max_index, 3)
        cells = [None if nodes is None else [nodes] for _ in range(2)]
        handed = []  # each table as the search hands it on
        found, truncated = subgroups._search_tables(p, max_index, cells[0], handed)
        assert found is handed
        assert (handed, truncated) == recursive_search_tables(p, max_index, cells[1])
        assert cells[0] == cells[1]

    def test_corpus_certify_counts(self, monkeypatch):
        # the searches of a certify pass over the corpus at the default
        # config: the nodes they visit, the tables they find and how many
        # stop short
        counts = [0, 0, 0]
        search = subgroups._search_tables

        def spy(p, max_index, cell=None, results=None):
            before = cell[0]
            tables, truncated = search(p, max_index, cell, results)
            counts[0] += before - cell[0]
            counts[1] += len(tables)
            counts[2] += truncated
            return tables, truncated

        monkeypatch.setattr(subgroups, "_search_tables", spy)
        for p in CORPUS_PRESENTATIONS:
            certify(p, CertifyConfig())
        assert counts == [138219, 519, 7]

    @pytest.mark.parametrize("nodes", [None, 1, 2])
    def test_no_generators(self, nodes):
        # the trivial group: one table, of degree 1, at a leaf with no hole
        p = Presentation((), ())
        cells = [None if nodes is None else [nodes] for _ in range(2)]
        assert subgroups._search_tables(p, 3, cells[0]) == ([(1, ())], False)
        assert recursive_search_tables(p, 3, cells[1]) == ([(1, ())], False)
        assert cells[0] == cells[1]

    def test_first_table_is_handed_on_at_once(self):
        # the subgroups of F_2 of index <= 12 take millions of nodes; the
        # first table reaches its taker long before the search could end
        class Taken(Exception):
            pass

        class First:
            def append(self, table):
                raise Taken(table)

        p = parse_presentation("< a, b | >")
        cell = [3_000_000]
        start = time.perf_counter()
        with pytest.raises(Taken) as taken:
            subgroups._search_tables(p, 12, cell, First())
        assert time.perf_counter() - start < 0.5
        assert taken.value.args == ((1, (0, 0)),)

    def test_deep_path(self):
        # a path of thousands of nodes; the earlier recursive search raised
        # RecursionError here
        p = parse_presentation("< a, b | a b a B B >")
        cell = [5000]
        tables, truncated = subgroups._search_tables(p, 2000, cell)
        assert truncated and cell == [0] and len(tables) == 1874
        assert max(d for d, _ in tables) == 1875
        # the search order is the same: a smaller budget finds a prefix
        prefix, _ = recursive_search_tables(p, 2000, [500])
        assert tables[:len(prefix)] == prefix

    def test_huge_index_allocates_nothing_up_front(self):
        # the earlier search made a table of max_index rows first: 3.2 GB
        p = parse_presentation("< a, b | a b a B B >")
        cell = [1000]
        tracemalloc.start()
        try:
            tables, truncated = subgroups._search_tables(p, 10 ** 8, cell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert truncated and cell == [0] and len(tables) == 374
        assert peak < 4 * 2 ** 20

    def test_scan_bound(self):
        # 2 * 1001 * 1000 entries pass MAX_SCAN_ENTRIES; 1000 letters do not
        assert 2 * 1000 * 999 <= subgroups.MAX_SCAN_ENTRIES < 2 * 1001 * 1000
        over = parse_presentation("< a, b | a^501 b^500 >")
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceeded, match="2002000 entries"):
                subgroups._search_tables(over, 2, [10])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # an empty budget still returns before the count
        assert subgroups._search_tables(over, 2, [0]) == ([], True)
        under = parse_presentation("< a, b | a^500 b^500 >")
        assert subgroups._search_tables(under, 2, [10])[1]

    def test_scan_bound_truncates_the_route(self):
        p = parse_presentation("< a, b | a^600 b^600, a^2 b^3 >")
        v = certify(p, CertifyConfig(max_index=3, budget=1))
        assert v.status == "UNKNOWN"
        assert "search truncated at the scan bound" in v.diagnostics[-1]


def scan_cells(table):
    """``table`` as the search holds it: per coset, per direction g1,
    g1^-1, g2, ..., the row offset of the coset it leads to."""
    nd = 2 * len(table.action)
    return [t * nd for c in range(table.degree)
            for perm, ip in zip(table.action, table.inverse) for t in (perm[c], ip[c])]


def is_transitive(table):
    """Whether every coset of ``table`` is reached from coset 0."""
    reached, todo = {0}, [0]
    while todo:
        c = todo.pop()
        for perm, ip in zip(table.action, table.inverse):
            for e in (perm[c], ip[c]):
                if e not in reached:
                    reached.add(e)
                    todo.append(e)
    return len(reached) == table.degree


def complete_tables():
    """Canonical transitive tables of 1 to 6 cosets on 1 to 3 generators."""
    return st.tuples(st.integers(1, 3), st.integers(1, 6)).flatmap(
        lambda shape: st.lists(st.permutations(range(shape[1])), min_size=shape[0],
                               max_size=shape[0]).map(
            lambda perms: CosetTable(shape[1], tuple(map(tuple, perms)))))


class TestLeastSearch:
    """The unbounded search's least mode, which hands on one table per
    conjugacy class, against the budgeted path's dedup of every subgroup."""

    def test_corpus_matches_budgeted_path(self):
        # and the trivial group, whose table has no cells
        for p in (*CORPUS_PRESENTATIONS, Presentation((), ())):
            for max_index in range(1, 7):
                assert (subgroup_classes(p, max_index)
                        == subgroup_classes(p, max_index, [10 ** 9])), max_index

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.just(n), st.lists(letter_lists(n, 1, 8), max_size=2))),
           st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_random_presentations_match_budgeted_path(self, shape, max_index):
        n, rels = shape
        if n == 3:
            # F_3 has 68,641 subgroups of index 5, too many to list twice
            max_index = min(max_index, 4)
        p = Presentation(default_names(n), tuple(free_reduce(tuple(r)) for r in rels))
        assert subgroup_classes(p, max_index) == subgroup_classes(p, max_index, [10 ** 9])

    def test_one_table_per_class(self, monkeypatch):
        sinks = []

        class Recording(subgroups._ClassKeys):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sinks.append(self)

        monkeypatch.setattr(subgroups, "_ClassKeys", Recording)
        more = 0
        for p in CORPUS_PRESENTATIONS:
            classes, _ = subgroup_classes(p, 6)
            sink, = sinks
            sinks.clear()
            assert len(sink) == len(set(sink.keys)) == len(classes)
            subgroup_classes(p, 6, [10 ** 9])
            sink, = sinks
            sinks.clear()
            assert len(set(sink.keys)) == len(classes)
            more += len(sink) > len(classes)
        # the budgeted path takes every subgroup, conjugates and all
        assert more >= 10

    def test_handed_on_tables_are_least(self):
        # the least table of its class by cells in scan order, and canonical
        for p in CORPUS_PRESENTATIONS:
            found, _ = subgroups._search_tables(p, 5, None, least=True)
            for d, flat in found:
                t = subgroups._from_flat(d, flat)
                assert canonical_rebase(t, 0) == t
                assert all(scan_cells(t) <= scan_cells(canonical_rebase(t, b))
                           for b in range(d))

    @given(complete_tables())
    @settings(max_examples=300, deadline=None)
    def test_least_so_far_on_complete_tables(self, t):
        # every base is decided at a complete table
        assume(is_transitive(t))
        t = canonical_rebase(t, 0)
        cells = scan_cells(t)
        nd = 2 * len(t.action)
        smaller = any(scan_cells(canonical_rebase(t, b)) < cells for b in range(1, t.degree))
        bases = list(range(nd, len(cells), nd))
        assert subgroups._least_so_far(cells, nd, bases) == (None if smaller else [])

    @staticmethod
    def partial_of(t, data):
        """A partial table as the search holds it, from the canonical table
        ``t``: every cell before the hole set, and some after it.  Returns
        it, the complete one and nd."""
        cells = scan_cells(t)
        hole = data.draw(st.integers(1, len(cells) - 1))
        unset = data.draw(st.sets(st.integers(hole, len(cells) - 1)))
        partial = [None if i == hole or i in unset else x for i, x in enumerate(cells)]
        return partial, cells, 2 * len(t.action)

    @given(complete_tables(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_least_so_far_prunes_only_non_least_completions(self, t, data):
        # a rebasing found smaller at a partial table stays smaller in the
        # complete table
        assume(t.degree > 1)
        assume(is_transitive(t))
        partial, cells, nd = self.partial_of(canonical_rebase(t, 0), data)
        bases = list(range(nd, len(cells), nd))
        if subgroups._least_so_far(partial, nd, bases) is None:
            assert subgroups._least_so_far(cells, nd, bases) is None

    @given(complete_tables(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_dropped_bases_are_not_smaller_in_the_completion(self, t, data):
        # a base decided at a partial table and dropped is not smaller at
        # the complete table, so testing the bases kept decides as all do
        assume(t.degree > 1)
        assume(is_transitive(t))
        t = canonical_rebase(t, 0)
        partial, cells, nd = self.partial_of(t, data)
        bases = list(range(nd, len(cells), nd))
        kept = subgroups._least_so_far(partial, nd, bases)
        assume(kept is not None)
        assert kept == [b for b in bases if b in kept]
        for b in set(bases) - set(kept):
            assert scan_cells(canonical_rebase(t, b // nd)) >= cells
        assert subgroups._least_so_far(cells, nd, kept) == subgroups._least_so_far(
            cells, nd, bases)

    @pytest.mark.parametrize("name", sorted(LEAST_NODES))
    def test_corpus_node_counts(self, name):
        p = parse_presentation((CORPUS / f"{name}.pres").read_text())
        cell = [10 ** 9]
        tables, truncated = subgroups._search_tables(p, 6, cell, least=True)
        assert (10 ** 9 - cell[0], len(tables)) == LEAST_NODES[name]
        assert not truncated

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.just(n), st.lists(letter_lists(n, 1, 8), max_size=2))),
           st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_opening_only_search(self, shape, max_index):
        # the same tables in the same order as the search that tested only
        # as cosets opened and at complete tables, in no more nodes
        n, rels = shape
        if n == 3:
            max_index = min(max_index, 4)
        p = Presentation(default_names(n), tuple(free_reduce(tuple(r)) for r in rels))
        cell, ref_cell = [10 ** 9], [10 ** 9]
        found = subgroups._search_tables(p, max_index, cell, least=True)
        assert found == recursive_search_tables(p, max_index, ref_cell, least=True)
        assert cell[0] >= ref_cell[0]

    def test_huge_index_allocates_nothing_up_front(self):
        # the least-mode twin of TestSearchKernel's test
        p = parse_presentation("< a, b | a b a B B >")
        cell = [1000]
        tracemalloc.start()
        try:
            tables, truncated = subgroups._search_tables(p, 10 ** 8, cell, least=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert truncated and cell == [0] and tables
        assert peak < 4 * 2 ** 20


class TestClassKeys:
    """One key rule for both search modes: any table of a class gives the
    class key, so a budgeted search holds no pending conjugates."""

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.just(n), st.lists(letter_lists(n, 1, 8), max_size=2))),
           st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_cut_searches_match_pending_dedup(self, shape, max_index):
        n, rels = shape
        if n == 3:
            # F_3 has 68,641 subgroups of index 5, too many to list often
            max_index = min(max_index, 4)
        p = Presentation(default_names(n), tuple(free_reduce(tuple(r)) for r in rels))
        cell = [10 ** 9]
        subgroup_classes(p, max_index, cell)
        nodes = 10 ** 9 - cell[0]
        for budget in sorted({1, 5, 20, 60, 200, nodes, nodes - 1}):
            cells = [budget], [budget]
            got = subgroup_classes(p, max_index, cells[0])
            assert got == pending_subgroup_classes(p, max_index, cells[1]), budget
            assert cells[0] == cells[1]
            assert got[1] == (budget < nodes)

    def test_large_index_under_a_memory_limit(self):
        # the pending conjugates ran out of memory here even at 512 MB;
        # one key per class takes about 72 MB of peak RSS
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
                "from largeness.subgroups import subgroup_classes\n"
                "from largeness.words import parse_presentation\n"
                "p = parse_presentation('< a, b | a b a B B >')\n"
                "classes, truncated = subgroup_classes(p, 40, [120000])\n"
                "print(len(classes), truncated)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["35389", "True"]


class TestIndexTwoClasses:
    """The index-2 classes read off the maps onto Z/2, against the search."""

    @staticmethod
    def check(p):
        got = list(index_two_classes(p))
        assert got == [t for t in low_index_subgroups(p, 2) if t.degree == 2]
        # Hom(G, Z/2) = Hom(H_1, Z/2) has rank b_1 plus the even invariants
        inv = abelianization(p)
        k = inv.betti + sum(1 for d in inv.torsion if d % 2 == 0)
        assert len(got) == 2 ** k - 1

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)]),
                 min_size=1, max_size=8),
        max_size=4).map(lambda rels: Presentation(
            default_names(n), tuple(free_reduce(tuple(r)) for r in rels)))))
    @settings(max_examples=150, deadline=None)
    def test_random_presentations(self, p):
        self.check(p)

    @pytest.mark.parametrize("p", CORPUS_PRESENTATIONS)
    def test_corpus(self, p):
        self.check(p)

    def test_lazy(self, monkeypatch):
        # (Z/2)^12 has 4095 index-2 subgroups; the first comes alone
        n = 12
        rels = [(g, g) for g in range(1, n + 1)]
        rels += [(a, b, -a, -b) for a, b in itertools.combinations(range(1, n + 1), 2)]
        p = Presentation(default_names(n), tuple(rels))
        built = []

        def counting(degree, action):
            built.append(action)
            return CosetTable(degree, action)

        monkeypatch.setattr(subgroups, "CosetTable", counting)
        first = next(index_two_classes(p))
        assert first == CosetTable(2, ((0, 1),) * (n - 1) + ((1, 0),))
        assert len(built) == 1
        assert sum(1 for _ in index_two_classes(p)) == 2 ** n - 1


class TestSearchOracle:
    """The search against every closed transitive tuple of permutations."""

    @staticmethod
    def check(p, max_index):
        tables, truncated = search_tables(p, max_index)
        assert not truncated and len(set(tables)) == len(tables)
        want = set().union(*(closed_transitive_tables(p, d)
                             for d in range(1, max_index + 1)))
        assert set(tables) == want

    @given(two_generator_presentations)
    @settings(max_examples=40, deadline=None)
    def test_two_generators(self, p):
        self.check(p, 4)

    @given(presentations(3))
    @settings(max_examples=40, deadline=None)
    def test_three_generators(self, p):
        self.check(p, 3)

    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
               st.just(n),
               # relators u x^k u^-1: single letters, proper powers, and
               # words that are not cyclically reduced
               st.lists(st.tuples(letter_lists(n, 1, 4), st.integers(1, 3),
                                  letter_lists(n, 0, 2)), min_size=1, max_size=3))),
           st.one_of(st.none(), st.integers(0, 300)))
    @settings(max_examples=150, deadline=None)
    def test_every_table_is_closed(self, shape, nodes):
        # the search keeps a complete table with no closure check of its own
        n, parts = shape
        rels = tuple(free_reduce(tuple(u) + tuple(x) * k + inverse(tuple(u)))
                     for x, k, u in parts)
        p = Presentation(default_names(n), rels)
        tables, _ = search_tables(p, 4, None if nodes is None else [nodes])
        for t in tables:
            assert t.is_closed_under(p.relators), (p, t)

    def test_long_relator(self):
        # 300 distinct rotations of 300 letters: the relator scans hold about
        # 2 * 300^2 entries; a back scan stored per gap would hold 300^3 / 2
        p = parse_presentation("< a, b | a^150 b^150 >")
        tracemalloc.start()
        try:
            subgroups._search_tables(p, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        self.check(p, 3)

    def test_empty_budget_compiles_no_scans(self):
        # the scans of a relator of 1,000 distinct rotations hold about
        # 2 * 1000^2 entries; an empty budget needs none of them
        p = parse_presentation("< a, b | a^500 b^500 >")
        cell = [0]
        tracemalloc.start()
        try:
            result = subgroups._search_tables(p, 2, cell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == ([], True) and cell == [0]
        assert peak < 2 ** 20


class TestSchreierTree:
    def test_non_canonical_numbering(self):
        # a verifier reads tables from JSON, numbered any way that keeps
        # the subgroup at coset 0
        rnd = random.Random(11)
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        checked = 0
        for table in low_index_subgroups(p, 5):
            if table.degree < 3:
                continue
            rest = list(range(1, table.degree))
            rnd.shuffle(rest)
            t = relabelled(table, [0] + rest)
            if canonical_rebase(t, 0) == t:
                continue
            assert t.is_closed_under(p.relators)
            sub, edge_index = reidemeister_schreier(p, t)
            # degree - 1 tree edges, the others numbered 1, 2, ... in order
            # of coset, then generator, as the reference numbers them
            assert sum(row.count(0) for row in edge_index) == t.degree - 1
            assert sub.ngens == (p.ngens - 1) * t.degree + 1
            numbered = sorted((c, g, k) for g, row in enumerate(edge_index)
                              for c, k in enumerate(row) if k)
            assert [k for _, _, k in numbered] == list(range(1, sub.ngens + 1))
            assert [(c, g) for c, g, _ in numbered] == [e for e, _ in schreier_generators(t)]
            checked += 1
        assert checked > 0

    def test_non_transitive_table_is_refused(self):
        p = Presentation(("x",), ())
        with pytest.raises(ValueError, match="not transitive"):
            reidemeister_schreier(p, CosetTable(2, ((0, 1),)))


class TestCoverPresentation:
    def test_matches_rewrite_then_simplify(self):
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        subgens = words_of(p, "x^2", "y", "x y x^-1")
        table = coset_enumerate(p, subgens)
        raw, edge_index = reidemeister_schreier(p, table)
        exprs = [rewrite_word(table, edge_index, w) for w in subgens]
        expected, carried = tietze_simplify(raw, exprs)
        assert cover_presentation(p, table, subgens) == (expected, carried)
        assert cover_presentation(p, table) == (expected, [])


class TestRewritingRoundTrip:
    def test_expressions_expand_back(self):
        # rewrite subgroup elements into Schreier generators, then expand
        # the generators through the reference's ambient words: must
        # reproduce the original element of the ambient free group
        from largeness.words import free_reduce, inverse, substitute
        rnd = random.Random(17)
        p = parse_presentation("< x, y | >")
        for k in (2, 3, 4):
            subgens = [parse_word(f"x^{k}", p.generators)]
            subgens += [parse_word(f"x^{i} y x^-{i}", p.generators) for i in range(k)]
            table = coset_enumerate(p, subgens)
            assert table.degree == k
            _, edge_index = reidemeister_schreier(p, table)
            ambient = [w for _, w in schreier_generators(table)]
            for _ in range(25):
                parts = []
                for w in rnd.choices(subgens, k=rnd.randint(1, 4)):
                    parts.extend(w if rnd.random() < 0.5 else inverse(w))
                element = free_reduce(tuple(parts))
                expr = rewrite_word(table, edge_index, element)
                assert free_reduce(substitute(expr, ambient)) == element

    def test_expressions_survive_simplification(self):
        from largeness.words import free_reduce, inverse, substitute
        rnd = random.Random(23)
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        subgens = [parse_word(t, p.generators) for t in ("x^2", "y", "x y x^-1")]
        table = coset_enumerate(p, subgens)
        sub, edge_index = reidemeister_schreier(p, table)
        elements = []
        for _ in range(15):
            parts = []
            for w in rnd.choices(subgens, k=rnd.randint(1, 3)):
                parts.extend(w if rnd.random() < 0.5 else inverse(w))
            elements.append(free_reduce(tuple(parts)))
        exprs = [rewrite_word(table, edge_index, el) for el in elements]
        simp, carried = tietze_simplify(sub, exprs)
        # no generator is eliminated here, so the reference's ambient words
        # still stand for the simplified generators, and expansion, which
        # in general agrees only in the group, agrees in the free group
        assert simp.generators == sub.generators
        amb = [w for _, w in schreier_generators(table)]
        for element, expr in zip(elements, carried):
            assert free_reduce(substitute(expr, amb)) == element


class TestTietze:
    def test_drops_empty_and_cyclically_reduces(self):
        from largeness.words import Presentation
        # one empty relator plus a conjugate of a single letter
        q = Presentation(("a", "b"), ((), (2, 1, -2)))
        simp, _ = tietze_simplify(q)
        assert simp.ngens == 1 and simp.nrels == 0

    def test_eliminates_defined_generator(self):
        # c is defined by the second relator; the group is Z x Z
        p = parse_presentation("< a, b, c | a b A B, c b a >")
        simp, _ = tietze_simplify(p)
        assert simp.ngens == 2 and simp.nrels == 1

    def test_carry_words(self):
        p = parse_presentation("< a, b, c | c b a >")
        simp, carry = tietze_simplify(p, [(3,)])  # the letter c
        assert simp.ngens == 2 and simp.nrels == 0
        # c = (b a)^-1 = a^-1 b^-1
        assert carry[0] == (-1, -2)

    def test_group_invariants_preserved(self):
        rnd = random.Random(3)
        from largeness.words import Presentation, default_names, free_reduce
        for _ in range(15):
            n = rnd.randint(2, 4)
            rels = []
            for _ in range(rnd.randint(1, 3)):
                word = [rnd.choice([x for x in range(-n, n + 1) if x])
                        for _ in range(rnd.randint(1, 8))]
                rels.append(free_reduce(tuple(word)))
            p = Presentation(default_names(n), tuple(rels))
            simp, _ = tietze_simplify(p)
            assert abelianization(simp) == abelianization(p)


# each Tietze elimination in the second of these covers used to double the
# one relator left; certify stops at a cover of index 2 that is not large
# before it reaches them, so they are built here directly
DOUBLING = "< a, b | b^-3 a^-1 b^-1 a b a^-1 >"
DOUBLING_TABLES = (CosetTable(5, ((1, 4, 0, 2, 3), (3, 2, 4, 1, 0))),
                   CosetTable(5, ((1, 3, 0, 4, 2), (1, 3, 0, 4, 2))))


class TestTietzeLengthBound:
    def test_an_elimination_is_bounded_before_it_is_built(self):
        # a = (d b^59)^-1 puts 60 letters for each a: a^166 grows to 9,960
        # letters, a^167 would grow to 10,020, so the next position, d, is
        # taken instead
        p = parse_presentation("< a, b, d | a d b^59 >")
        simp, carry = tietze_simplify(p, [(1,) * 166])
        assert simp == Presentation(("b", "d"), ()) and len(carry[0]) == 9960
        simp, carry = tietze_simplify(p, [(1,) * 167])
        assert simp == Presentation(("a", "b"), ()) and carry == [(1,) * 167]
        # relators are bounded the same way
        p = parse_presentation("< a, b, c, d | a d b^59, a^167 c >")
        simp, _ = tietze_simplify(p)
        assert simp == parse_presentation("< a, b, c | a^167 c >")

    def test_covers_stay_within_the_word_bound(self, monkeypatch):
        longest = []
        tietze = subgroups.tietze_simplify

        def spy(p, carry=()):
            q, carried = tietze(p, carry)
            longest.append(max(map(len, (*q.relators, *carried)), default=0))
            return q, carried
        monkeypatch.setattr(subgroups, "tietze_simplify", spy)
        q = parse_presentation(DOUBLING)
        for table in DOUBLING_TABLES:
            q, _ = cover_presentation(q, table)
        assert len(longest) == 2 and max(longest) <= MAX_WORD_LEN

    def test_doubling_relator_ends_under_a_memory_limit(self):
        # without the bound the second cover ran out of memory: relators of
        # 2^k + 2 letters
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from largeness.subgroups import CosetTable, cover_presentation\n"
                "from largeness.words import parse_presentation\n"
                f"q = parse_presentation({DOUBLING!r})\n"
                f"for table in {DOUBLING_TABLES!r}:\n"
                "    q, _ = cover_presentation(q, table)\n"
                "print(max(map(len, q.relators)))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= MAX_WORD_LEN


# ---------------------------------------------------------------------------
# abelianizations read off coset tables


class TestCoverAbelianization:
    """H1 of a cover read off its coset table equals the abelianization of
    the rewritten and simplified cover presentation."""

    def test_corpus(self):
        count = 0
        for p in CORPUS_PRESENTATIONS:
            for t in low_index_subgroups(p, 5):
                assert (cover_abelianization(p, t)
                        == abelianization(cover_presentation(p, t)[0])), (p, t)
                count += 1
        assert count == 1281

    @given(st.integers(1, 3).flatmap(presentations), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_random_presentations(self, p, max_index):
        for t in low_index_subgroups(p, max_index):
            assert cover_abelianization(p, t) == abelianization(cover_presentation(p, t)[0])

    def test_subgroups_panel_matches_schreier_generators(self):
        # every class the subgroups benchmark lists, against the earlier
        # reading over the Schreier generators
        count = 0
        for p in CORPUS_PRESENTATIONS:
            if p.ngens >= 2:
                for t in low_index_subgroups(p, 6):
                    assert cover_abelianization(p, t) == schreier_cover_abelianization(p, t)
                    count += 1
        assert count == 9448

    @given(random_tables(), st.lists(st.lists(st.sampled_from([1, -1, 2, -2]),
                                              min_size=1, max_size=6), max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_random_tables(self, t, rels):
        # a table that is not transitive, or not closed under the relators,
        # is refused with the error rewriting gives
        p = Presentation(("x", "y"), tuple(free_reduce(tuple(r)) for r in rels))
        got = outcome(cover_abelianization, p, t)
        assert got == outcome(schreier_cover_abelianization, p, t)
        want = outcome(reidemeister_schreier, p, t)
        if want[0] == "ValueError":
            assert got == want
        else:
            assert got == abelianization(tietze_simplify(want[0])[0])

    def test_refused_tables(self):
        p = parse_presentation("< x, y | x^3 >")
        not_transitive = CosetTable(2, ((0, 1), (0, 1)))
        not_closed = CosetTable(2, ((1, 0), (0, 1)))
        for t, message in ((not_transitive, "not transitive"),
                           (not_closed, "not closed under the relators")):
            with pytest.raises(ValueError, match=message):
                cover_abelianization(p, t)
            assert outcome(cover_abelianization, p, t) == outcome(reidemeister_schreier, p, t)

    def test_nothing_is_cached_on_the_table(self):
        # a listing holds its classes to the end, so a cached inverse on each
        # would grow its memory with the classes written
        p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
        for t in low_index_subgroups(p, 4):
            cover_abelianization(p, t)
            assert "inverse" not in vars(t)



# sha256 of the stdout of `largeness subgroups FILE --max-index 5` per corpus
# file, recorded while each cover's abelianization was still taken from its
# rewritten and simplified presentation
SUBGROUPS_SHA256 = {
    "bs_1_2": "fda9c858e8175d34bc730bbe9333a77b7505bdfb50e871c03f109eaee5c15765",
    "bs_2_3": "409f98196f53efa331b12ad4d6c8c55c2cf79bdd7761bd17a622874b0246d829",
    "bs_2_4": "e075d311decfd970df9b656022c0658b0fc25bc706ce40ce3765fa73592d5e69",
    "conjugate_square_commutes": "eb4ed6bf96c5e2bc70223bcdfdea688897bcb995f029dc9d98c60d18da702868",
    "cyclic_quotients_only": "ce3a34ec64f86995e2c47b35de9addf06ac112e8099a54c2349f806bc09454c8",
    "deep_conjugator_family": "2903f887a5767eecb498bcf30a84d9f0f2b5b16899551f85d723469901eeee0b",
    "f2_times_z": "62a9b3435ebb49e29b67f584e9e554694f9114a4e87afa4e80cb66234027864f",
    "free_rank2_and_z": "95e369295a9f070f47ecc3bc3c7e8ffd07ca0b658f377007ace254d5319e6c48",
    "hexagonal_balanced_1": "c42a6d0a7b653d7011e1b6fa38ffd7eed432ff316fce4bd94bdf4ed04bcb268b",
    "hexagonal_balanced_2": "8d83932b2277ac56a450d7ddb5470bcbcbfbc3e6aa8a18a1c2c4f290cd6edb41",
    "trefoil": "cd0975ec0e88a3a94a29453bf04bfb21b135e1dfe124086c1f3f80676cf55c06",
    "z": "3061e227d039eb82363994fd3a2d7375ef9d8d81ad5520608022ee61d94194be",
    "zxz": "7b4f51e3361960d6c13f3e54b6a165ead04f1bdb0b1535d5eef7ba019d0eee6c",
}


@pytest.mark.parametrize("name", sorted(SUBGROUPS_SHA256))
def test_subgroups_listing_bytes(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["subgroups", str(CORPUS / f"{name}.pres"), "--max-index", "5"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SUBGROUPS_SHA256[name]


# sha256 of the stdout of `largeness rewrite FILE --max-index 4 --index-class
# k`, over k = 0, 1, ... for every class up to index 4 (383 in all), per
# corpus file: the raw and the simplified presentation of each class, with
# their generator names, recorded while Reidemeister-Schreier still built a
# transversal and Tietze still carried ambient words
REWRITE_SHA256 = {
    "bs_1_2": "17296d2e67e15145878776eccddfe29e1e138876435e89c8143ea908818571ef",
    "bs_2_3": "e35e4333bb3cfa6fbf7fb71b45b090c194985580b623868405d1963d63e0f591",
    "bs_2_4": "3f64eb23835e61db53945e29fc4853a8e7d5fbea2ee40d7ce25b459a57b0e4ea",
    "conjugate_square_commutes": "0bcf4d97d077fd36e41e2cd27c574774a6dd3ca15bb2bd53323adbfc3b666918",
    "cyclic_quotients_only": "6da4bfc4d5694b7fe2f59ada1ef6924462ca0219a9da2c6512bd0d8b8d6f93a6",
    "deep_conjugator_family": "7eb0b8774ec4dfdab7fef56d97c824763b2a9dae57f0cc9a5c81eab4a69e3a5a",
    "f2_times_z": "5f9837dfc53ec0f1b9ebc16c3be74b6e15bd2c8b878172aca2ebe60868d7f65b",
    "free_rank2_and_z": "2e2c9b9b6d1b0985566934130c9bf9c94e05c2bc4f8fbe3d953e0581554f05d2",
    "hexagonal_balanced_1": "0a6b14c95df42f0fa51e2af77f1c7f9ffdad13a0baaf5be7c0064ad24b231c67",
    "hexagonal_balanced_2": "ae754c982eb577eb506ec68b4407087d9d8754d91a67d139af7b6ff73b35b018",
    "trefoil": "46ce01e791de530a5c716d65efb18c3ca3dcf7bcd6b9254b0776c65516d03ed3",
    "z": "31790cd0df0dc1e8d81c25d64de7804dad8c69ab65d563e8c4e10975edc6959a",
    "zxz": "1ef93730bac40622a74274902246fe4a827b3f19502d2e0a4dc492cf87a2ae76",
}


@pytest.mark.parametrize("name", sorted(REWRITE_SHA256))
def test_rewrite_bytes(name):
    path = CORPUS / f"{name}.pres"
    nclasses = len(low_index_subgroups(parse_presentation(path.read_text()), 4))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for k in range(nclasses):
            assert main(["rewrite", str(path), "--max-index", "4",
                         "--index-class", str(k)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == REWRITE_SHA256[name]
