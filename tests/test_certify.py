import contextlib
import functools
import io
import json
import random
import sys
import tempfile
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from largeness import subgroups
from largeness.alexander import QQ, rank_witness
from largeness.abelian import abelianization
from largeness.certify import (Certificate, CertifyConfig, ChainLink,
                               certificate_from_json, certificate_to_json, certify,
                               classify_bs_shape, classify_conjugated_power,
                               automatic_primes, decide, dumps, replayed,
                               solve_chi_killing,
                               sweep_vectors, verdict_to_json,
                               verify_certificate, verify_citation)
from largeness.cli import main
from largeness.subgroups import (cover_presentation, index_two_classes,
                                 low_index_subgroups)
from largeness.torus import (Endomorphism, PeriodicWitness, endo_is_injective,
                             mapping_torus, torus_bs_pipeline, torus_zz_pipeline)
from largeness.words import (MAX_WORD_LEN, Presentation, free_reduce,
                             parse_presentation, parse_word, word_to_text)
from oracles import one_relator_verdicts

FAST = CertifyConfig(max_index=5, budget=1)


def check(text, status, config=CertifyConfig()):
    p = parse_presentation(text)
    v = certify(p, config)
    assert v.status == status, (text, v.status, v.diagnostics)
    if v.certificate is not None:
        assert verify_certificate(p, v.certificate)
    if v.citation is not None:
        assert verify_citation(p, v.citation)
    return p, v


class TestRoutes:
    def test_deficiency_two(self):
        _, v = check("< a, b, c | a b A B >", "LARGE")
        assert v.certificate.kind == "deficiency"

    def test_free_group(self):
        _, v = check("< a, b | >", "LARGE")
        assert v.certificate.kind == "deficiency"

    def test_zxz(self):
        _, v = check("< a, b | a b A B >", "NOT_LARGE_KNOWN")
        assert v.citation == {"reason": "ZxZ"}

    def test_zxz_rotated(self):
        check("< a, b | B a b A >", "NOT_LARGE_KNOWN")

    def test_bs_coprime(self):
        _, v = check("< x, y | x y x^-1 y^-2 >", "NOT_LARGE_KNOWN")
        assert v.citation["reason"] == "BS_coprime"

    def test_bs_not_coprime(self):
        _, v = check("< x, y | x y^2 x^-1 y^-4 >", "LARGE")
        assert v.certificate.kind == "cited_family"

    def test_family_big_conjugator(self):
        _, v = check("< x, y | x^2 y x^-2 y^-1 >", "LARGE")
        assert v.certificate.kind == "cited_family"

    def test_cyclic(self):
        for text in ["< a | a^3 >", "< a | >", "< a | a^2, a^3 >"]:
            _, v = check(text, "NOT_LARGE_KNOWN")
            assert v.citation["reason"] == "cyclic"

    def test_single_letter_relator(self):
        _, v = check("< a, b | b a B >", "NOT_LARGE_KNOWN")
        assert v.citation["reason"] == "cyclic"

    def test_proper_power(self):
        _, v = check("< a, b | a^3 >", "LARGE")
        assert v.certificate.kind == "proper_power"

    def test_proper_power_conjugated(self):
        _, v = check("< a, b | a b b A >", "LARGE")
        assert v.certificate.kind == "proper_power"

    def test_commutator_span(self):
        _, v = check("< x, y, t | t x T X, t y T x^-1 y^-1 >", "LARGE")
        assert v.certificate.kind == "commutator_betti"
        assert v.certificate.data["mode"] == "span"

    def test_f2_times_z(self):
        _, v = check("< x, y, t | t x T X, t y T Y >", "LARGE")
        assert v.certificate.kind == "commutator_betti"

    def test_commutator_torsion(self):
        # x^3 commutes with t; abelianization is Z^2 x Z/3
        p, v = check("< x, y, t | t x^3 T x^-3, x^3 y^-3 >", "LARGE")
        assert v.certificate.kind in ("commutator_betti", "alexander_zero")

    def test_chi_sweep_zero_column(self):
        # the F2-by-Z group certified via a vanishing Alexander invariant
        p = parse_presentation("< x, y, t | t x T X, t y T x^-1 y^-1 >")
        v = certify(p)
        assert v.status == "LARGE"

    def test_low_index_route_trefoil(self):
        _, v = check("< x, y | x y x y^-1 x^-1 y^-1 >", "LARGE")
        assert len(v.certificate.chain) >= 1

    def test_hexagonal_cover_route(self):
        _, v = check("< a, b | a b a b^-2 a^-2 b >", "LARGE")
        assert v.certificate.kind == "big_cover_abelianization"

    def test_nara_unknown(self):
        _, v = check("< a, b | a^-2 b^-1 a^-1 b a b^-1 a b >", "UNKNOWN", FAST)
        assert v.certificate is None

    def test_empty_relator_f2(self):
        p = Presentation(("a", "b"), ((),))
        v = certify(p)
        assert v.status == "LARGE"
        assert verify_certificate(p, v.certificate)


class TestBoundDiagnostics:
    NO_COVERS = CertifyConfig(budget=0)

    def test_character_sweep_row_bound(self):
        # < x0..x(n-1) | x1, ..., x(n-1) > has an Alexander matrix of n-1 rows
        def diags(n):
            gens = tuple(f"x{i}" for i in range(n))
            p = Presentation(gens, tuple((i + 1,) for i in range(1, n)))
            return certify(p, self.NO_COVERS).diagnostics

        skip = "character sweep: skipped, 42 generators exceeds the 40-row bound"
        assert skip in diags(42)
        assert not any(d.startswith("character sweep: skipped") for d in diags(41))

    def test_commutator_search_cap(self):
        # [x^k, y] has 2k + 2 letters; the search stops above 64
        def diags(k):
            p = parse_presentation(f"< x, y, z | z, x^{k} y x^-{k} y^-1 >")
            return certify(p, self.NO_COVERS).diagnostics

        cap = "commutator search cap reached on relator 1; undetermined"
        assert cap in diags(32)
        assert cap not in diags(31)

    def test_zero_low_index_budget(self):
        # no index-2 cover and no DFS node: both stages stop short at once
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")  # trefoil
        v = certify(p, replace(FAST, li_nodes=0))
        assert v.diagnostics[-1] == (
            "low-index route: 0 proper covers up to index 5 tried (budget 1); "
            "search truncated at the node budget; none certified")
        with pytest.raises(ValueError, match="li_nodes"):
            CertifyConfig(li_nodes=-1)

    def test_index_below_two(self):
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")  # trefoil
        v = decide(p, CertifyConfig(max_index=1))
        assert v.status == "UNKNOWN"
        assert v.diagnostics[-1] == "low-index route: max index < 2"

    @pytest.mark.parametrize("name", ["max_index", "chi_height", "budget"])
    def test_negative_setting_is_refused(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            CertifyConfig(**{name: -1})
        assert getattr(CertifyConfig(**{name: 0}), name) == 0


class TestSoundness:
    def test_large_always_verifiable(self):
        # replayed inside check() for each corpus case above; spot-check the
        # internal consistency guard too
        p = parse_presentation("< a, b, c | a b A B >")
        v = certify(p)
        assert v.is_large and verify_certificate(p, v.certificate)

    def test_determinism(self):
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
        a = dumps(verdict_to_json(certify(p, FAST)))
        b = dumps(verdict_to_json(certify(p, FAST)))
        assert a == b

    def test_monotone_in_bounds(self):
        # growing max_index or chi_height never flips LARGE off; the
        # trefoil chain needs an index-3 cover below the index-2 one
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
        assert certify(p, CertifyConfig(max_index=2, budget=2)).status == "UNKNOWN"
        assert certify(p, CertifyConfig(max_index=3, budget=2)).status == "LARGE"
        for cfg in (CertifyConfig(max_index=5, budget=2),
                    CertifyConfig(max_index=5, chi_height=5, budget=2)):
            assert certify(p, cfg).status == "LARGE"

    def test_span_route_implies_vanishing_character(self):
        # when the commutator route fires, a character killing both witness
        # words has a vanishing Alexander invariant over Q
        p = parse_presentation("< x, y, t | t x T X, t y T x^-1 y^-1 >")
        v = certify(p)
        assert v.certificate.kind == "commutator_betti"
        u = parse_word(v.certificate.data["u"], p.generators)
        w = parse_word(v.certificate.data["v"], p.generators)
        chi = solve_chi_killing(p, [u, w])
        assert chi is not None
        assert rank_witness(p, chi, [QQ]) is not None

    def test_no_character_kills_the_words(self):
        # first Betti number 0, then a kernel with nothing in it
        assert solve_chi_killing(parse_presentation("< a, b | a, b^2 >"), []) is None
        free = parse_presentation("< a, b | >")
        assert solve_chi_killing(free, [(1,), (2,)]) is None
        assert solve_chi_killing(free, [(1,)]).values == (0, 1)


class TestVerifier:
    def _large_cert(self):
        p = parse_presentation("< x, y, t | t x T X, t y T Y >")
        v = certify(p)
        return p, v.certificate

    def test_round_trip_json(self):
        p, cert = self._large_cert()
        again = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
        assert again == cert
        assert verify_certificate(p, again)

    def test_tampered_data_rejected(self):
        p, cert = self._large_cert()
        obj = certificate_to_json(cert)
        obj["data"]["rank"] = obj["data"]["rank"] - 1
        assert not verify_certificate(p, certificate_from_json(obj))

    def test_wrong_presentation_rejected(self):
        _, cert = self._large_cert()
        other = parse_presentation("< a, b | a b A B >")
        assert not verify_certificate(other, cert)

    def test_tampered_table_rejected(self):
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")
        cert = certify(p).certificate
        obj = certificate_to_json(cert)
        tbl = obj["chain"][0]["table"]
        tbl["action"][0] = list(reversed(tbl["action"][0]))
        assert not verify_certificate(p, certificate_from_json(obj))

    def test_unknown_kind_rejected(self):
        p, cert = self._large_cert()
        bad = Certificate("nonsense", cert.presentation, cert.chain, cert.data)
        assert not verify_certificate(p, bad)

    def test_proper_power_needs_deficiency_one(self):
        data = {"relator_index": 0, "root": "a", "exponent": 3}
        p = parse_presentation("< a, b | a^3 >")
        assert verify_certificate(p, Certificate("proper_power", p, (), data))
        q = parse_presentation("< a, b | a^3, b^2 >")
        assert not verify_certificate(q, Certificate("proper_power", q, (), data))

    def test_big_cover_needs_a_deficiency_one_parent(self):
        # the relator twice: the same group and cover, deficiency 0
        p = parse_presentation("< a, b | a b a b^-2 a^-2 b >")
        cert = certify(p).certificate
        assert cert.kind == "big_cover_abelianization"
        table = cert.chain[0].table
        q = Presentation(p.generators, p.relators * 2)
        sub, _ = cover_presentation(q, table)
        inv = abelianization(sub)
        assert (inv.betti, list(inv.torsion)) == (cert.data["betti"], cert.data["torsion"])
        moved = Certificate(cert.kind, q, (ChainLink(table, sub),), cert.data)
        assert not verify_certificate(q, moved)

    def test_big_cover_refuses_a_zxz_cover(self):
        # every finite-index subgroup of Z x Z is Z x Z
        p = parse_presentation("< a, b | a b A B >")
        table = next(index_two_classes(p))
        sub, _ = cover_presentation(p, table)
        cert = Certificate("big_cover_abelianization", p, (ChainLink(table, sub),),
                           {"parent_relator_index": 0, "u": "a", "v": "b",
                            "betti": 2, "torsion": []})
        assert not verify_certificate(p, cert)

    @staticmethod
    def _mutations(value):
        if isinstance(value, bool):
            return [not value]
        if isinstance(value, int):
            return [value + 1, -value - 1]
        if isinstance(value, str):
            return [value + "_x", ""]
        if isinstance(value, list) and value and isinstance(value[0], int):
            return [value + [1], value[:-1], [x + 1 for x in value]]
        return []

    @pytest.mark.parametrize("text", [
        "< a, b, c | a b A B >",                     # deficiency
        "< x, y | x y^2 x^-1 y^-4 >",                # cited_family
        "< a, b | a^3 >",                            # proper_power
        "< x, y, t | t x T X, t y T Y >",            # commutator_betti
        "< a, b | a b a b^-2 a^-2 b >",              # big_cover_abelianization
    ])
    def test_every_data_field_is_load_bearing(self, text):
        p = parse_presentation(text)
        cert = certify(p).certificate
        assert verify_certificate(p, cert)
        for key, value in cert.data.items():
            for mutated in self._mutations(value):
                data = dict(cert.data)
                data[key] = mutated
                bad = Certificate(cert.kind, cert.presentation, cert.chain, data)
                assert not verify_certificate(p, bad), (text, key, mutated)

    def test_alexander_zero_fields_load_bearing(self):
        from largeness.torus import Endomorphism, PeriodicWitness, mapping_torus, torus_bs_pipeline
        e = Endomorphism(((1, 1, 1), (2,)))
        cert = torus_bs_pipeline(e, PeriodicWitness((1,), 1, (), 3)).certificate
        p = mapping_torus(e)
        assert cert.kind == "alexander_zero" and verify_certificate(p, cert)
        for key, value in cert.data.items():
            for mutated in self._mutations(value):
                data = dict(cert.data)
                data[key] = mutated
                bad = Certificate(cert.kind, cert.presentation, cert.chain, data)
                assert not verify_certificate(p, bad), (key, mutated)


class TestClassifiers:
    def test_bs_shape(self):
        w = parse_word("x y^2 x^-1 y^-4", ("x", "y"))
        assert classify_bs_shape(w) == {"conj_gen": 0, "base_gen": 1,
                                        "n": 1, "l": 2, "m": 4}

    def test_bs_shape_rotated_and_inverted(self):
        w = parse_word("y^-4 x^-1 y^2 x", ("x", "y"))  # inverse, rotated
        got = classify_bs_shape(w)
        assert got is not None and got["n"] == 1

    def test_bs_shape_cyclic_merge(self):
        w = parse_word("y x y x^-1 y", ("x", "y"))
        got = classify_bs_shape(w)
        assert got is not None and abs(got["l"]) == 1

    def test_not_bs(self):
        assert classify_bs_shape(parse_word("x y x y", ("x", "y"))) is None

    def test_conjugated_power(self):
        w = parse_word("t x t^-1 x^-3", ("x", "t"))
        hit = classify_conjugated_power(w)
        assert hit["exponent"] == 3

    def test_conjugated_power_negative(self):
        w = parse_word("t x t^-1 x^2", ("x", "t"))
        hit = classify_conjugated_power(w)
        assert hit["exponent"] == -2

    def test_automatic_primes(self):
        p = parse_presentation("< x, t | t x T x^-3 >")
        assert automatic_primes(p) == (2,)
        q = parse_presentation("< x, y | x y^2 x^-1 y^-4 >")
        assert 2 in automatic_primes(q)
        r = parse_presentation("< x, t | t x T x^-8 >")
        assert automatic_primes(r) == (7,)

    def test_sweep_vectors(self):
        vs = sweep_vectors(2, 1)
        assert vs[0] in ((1, 0), (0, 1))
        assert all(v[next(i for i, x in enumerate(v) if x)] > 0 for v in vs)
        big = sweep_vectors(6, 2)
        assert all(sum(1 for x in v if x) <= 2 for v in big)


class TestCitations:
    def test_verify_citation_patterns(self):
        zxz = parse_presentation("< a, b | a b A B >")
        assert verify_citation(zxz, {"reason": "ZxZ"})
        bs = parse_presentation("< x, y | x y x^-1 y^-2 >")
        assert verify_citation(bs, {"reason": "BS_coprime", "l": 1, "m": 2})
        assert not verify_citation(bs, {"reason": "BS_coprime", "l": 1, "m": 5})
        assert not verify_citation(bs, {"reason": "ZxZ"})
        z = parse_presentation("< a | a^5 >")
        # never emitted: a cyclic citation always states its order
        assert not verify_citation(z, {"reason": "cyclic"})
        assert not verify_citation(bs, {"reason": "cyclic"})

    @pytest.mark.parametrize("text,order", [
        ("< a | a^3 >", "3"), ("< a | >", "infinite"),
        ("< a | a^2, a^3 >", "1"), ("< a, b | b >", "infinite")])
    def test_cyclic_order_is_replayed(self, text, order):
        p = parse_presentation(text)
        assert verify_citation(p, {"reason": "cyclic", "order": order})
        for wrong in ("7", "infinite", "1", 3):
            if wrong != order:
                assert not verify_citation(p, {"reason": "cyclic", "order": wrong})
        citation = certify(p).citation
        assert citation["reason"] == "cyclic" and verify_citation(p, citation)


class TestReplayOnce:
    """Every LARGE verdict is replayed exactly once, against the root
    presentation, however deep its cover chain."""

    @staticmethod
    def _replays(monkeypatch):
        # the package re-exports the function certify, which hides the
        # submodule: reach it through sys.modules and patch every binding
        orig = sys.modules["largeness.certify"].verify_certificate
        seen = []

        def counting(p, cert):
            seen.append(p)
            return orig(p, cert)

        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "largeness"
                                   or name.startswith("largeness.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counting)
        return seen

    def test_certify_through_a_cover(self, monkeypatch):
        seen = self._replays(monkeypatch)
        p = parse_presentation("< x, y | x y x y^-1 x^-1 y^-1 >")  # trefoil
        v = certify(p)
        assert v.status == "LARGE" and v.certificate.chain[0].table.degree == 2
        assert seen == [p]

    def test_torus_pipeline_through_certify(self, monkeypatch):
        seen = self._replays(monkeypatch)
        e = Endomorphism(((1,), (-2,)))  # x -> x, y -> y^-1
        v = torus_zz_pipeline(e, PeriodicWitness((1,), 1, (), 1))
        assert v.status == "LARGE" and v.certificate.chain
        assert seen == [mapping_torus(e)]


class TestWordBound:
    """No certificate holds a relator that verify would refuse to parse."""

    def test_long_relator_in_the_presentation(self):
        p = Presentation(("a", "b", "c"), ((1,) * MAX_WORD_LEN,))
        v = certify(p)
        assert v.is_large
        back = certificate_from_json(json.loads(dumps(certificate_to_json(v.certificate))))
        assert verify_certificate(p, back)
        with pytest.raises(ValueError, match="certificate relator longer than"):
            certify(Presentation(("a", "b", "c"), ((1,) * (MAX_WORD_LEN + 1),)))

    def test_long_relator_in_a_cover(self):
        p, v = check("< x, y | x y x y^-1 x^-1 y^-1 >", "LARGE")  # trefoil
        link = v.certificate.chain[0]
        sub = link.presentation
        long_sub = Presentation(sub.generators, sub.relators + (
            (1, 2) * (MAX_WORD_LEN // 2) + (1,),))
        cert = replace(v.certificate, chain=(replace(link, presentation=long_sub),))
        with pytest.raises(ValueError, match="certificate relator longer than"):
            replayed(p, replace(v, certificate=cert))


class TestDeadKinds:
    CITED_NONLARGE = {"kind": "cited_nonlarge",
                      "presentation": {"generators": ["a"], "relators": []},
                      "chain": [], "data": {"reason": "cyclic"}}

    def test_cited_nonlarge_is_not_a_certificate(self, capsys, tmp_path):
        # Z is not large: a non-largeness citation must never verify as a
        # largeness certificate
        cert = certificate_from_json(self.CITED_NONLARGE)
        assert not verify_certificate(cert.presentation, cert)
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(self.CITED_NONLARGE))
        assert main(["verify", "--cert", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": False}


# ---------------------------------------------------------------------------
# the low-index route against its reference form

# the package re-exports the function certify, which hides the submodule
C = sys.modules["largeness.certify"]
LI_FAST = CertifyConfig(max_index=4, budget=1)
# the first of its three index-2 covers certifies
INDEX_TWO_LARGE = "< x, y | x y^3 x y^-1 >"
CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def ref_route_low_index(p, config, diags, wits, own, pool, searched):
    """The low-index route in its earlier form: one search to ``max_index``,
    and every cover presentation built before the first one is tried.
    ``searched`` is taken and left empty, so a torus pipeline runs its own
    search as it did before reusing the route's."""
    if config.budget < 1:
        diags.append("low-index route: recursion budget exhausted")
        return None
    if config.max_index < 2:
        diags.append("low-index route: max index < 2")
        return None
    classes, truncated = C.subgroup_classes(p, config.max_index, own)
    covers = []
    for table in classes:
        if table.degree < 2:
            continue
        sub, _ = C.cover_presentation(p, table)
        covers.append((table, sub))
        if wits and p.deficiency == 1:
            inv = C.abelianization(sub)
            if not inv.is_z_squared():
                i, wit = sorted(wits.items())[0]
                cert = Certificate("big_cover_abelianization", p,
                                   (C.ChainLink(table, sub),), {
                    "parent_relator_index": i,
                    "u": C.word_to_text(wit.u, p.generators),
                    "v": C.word_to_text(wit.v, p.generators),
                    "betti": inv.betti, "torsion": list(inv.torsion)})
                diags.append(
                    f"cover of index {table.degree} has abelianization {inv} "
                    "!= Z x Z below a commutator relator")
                return C.Verdict(C.LARGE, cert, None, tuple(diags))
    child_cfg = replace(config, budget=config.budget - 1)
    for table, sub in covers:
        child = C.decide(sub, child_cfg, pool)
        if child.is_large:
            cert = child.certificate.lift(p, (C.ChainLink(table, sub),))
            diags.append(
                f"cover of index {table.degree} certified large "
                f"({child.certificate.kind})")
            return C.Verdict(C.LARGE, cert, None, tuple(diags))
    note = "; search truncated at the node budget" if truncated else ""
    diags.append(
        f"low-index route: {len(covers)} proper covers up to index "
        f"{config.max_index} tried (budget {config.budget}){note}; none certified")
    return None


def random_two_generator(rnd):
    rels = []
    for _ in range(rnd.randint(1, 2)):
        word = [rnd.choice((1, -1, 2, -2)) for _ in range(rnd.randint(1, 12))]
        rels.append(free_reduce(tuple(word)))
    return Presentation(("x", "y"), tuple(rels))


def torus_cases(count):
    """Injective endomorphisms of F_2 or F_3 with x1 -> x1^k, and the
    witness (x1, 1, empty word, k)."""
    rnd = random.Random(17)
    out = []
    while len(out) < count:
        n = rnd.choice((2, 3))
        k = rnd.choice((1, -1, 2, -2, 3))
        letters = [s * g for g in range(1, n + 1) for s in (1, -1)]
        images = [(1,) * k if k > 0 else (-1,) * -k]
        for _ in range(n - 1):
            images.append(free_reduce(tuple(rnd.choice(letters)
                                            for _ in range(rnd.randint(1, 4)))) or (2,))
        e = Endomorphism(tuple(images))
        if endo_is_injective(e):
            out.append((e, PeriodicWitness((1,), 1, (), k)))
    return out


def verdict_bytes(v):
    return dumps(verdict_to_json(v))


class TestLowIndexRoute:
    """The index-2 stage, the search only when it is needed and lazy cover
    presentations give the verdict bytes of the reference form whenever the
    search is not truncated."""

    @staticmethod
    def _same_bytes(monkeypatch, run, inputs):
        new = [verdict_bytes(run(x)) for x in inputs]
        monkeypatch.setattr(C, "_route_low_index", ref_route_low_index)
        old = [verdict_bytes(run(x)) for x in inputs]
        assert new == old
        return new

    def test_corpus(self, monkeypatch):
        inputs = [parse_presentation(f.read_text())
                  for f in sorted(CORPUS.glob("*.pres"))]
        self._same_bytes(monkeypatch, lambda p: certify(p, LI_FAST), inputs)

    def test_random_two_generator(self, monkeypatch):
        rnd = random.Random(2024)
        inputs = [random_two_generator(rnd) for _ in range(300)]
        out = self._same_bytes(monkeypatch, lambda p: certify(p, LI_FAST), inputs)
        # the panel reaches both stages of the route
        assert any('"cover of index 2 certified' in v for v in out)
        assert any('"cover of index 3 certified' in v for v in out)

    def test_torus(self, monkeypatch):
        def run(case):
            e, wit = case
            pipeline = torus_zz_pipeline if abs(wit.k) == 1 else torus_bs_pipeline
            return pipeline(e, wit, LI_FAST)

        self._same_bytes(monkeypatch, run, torus_cases(40))

    def test_torus_searches_each_cover_once(self, monkeypatch):
        # decide's own search of the d = 1 cover is the pinned-subgroup
        # stage's too; a second call repeats every search, so nothing is
        # kept between calls
        calls = []
        search = subgroups._search_tables
        monkeypatch.setattr(subgroups, "_search_tables",
                            lambda p, k, *a: calls.append((p, k)) or search(p, k, *a))
        cases = torus_cases(40)

        def searches():
            """Per case, the (presentation, max_index) of every search its
            pipeline runs."""
            out = []
            for e, wit in cases:
                pipeline = torus_zz_pipeline if abs(wit.k) == 1 else torus_bs_pipeline
                start = len(calls)
                pipeline(e, wit, LI_FAST)
                out.append(calls[start:])
            return out

        first = searches()
        assert all(len(set(mine)) == len(mine) for mine in first)
        assert sum(map(len, first)) >= 3
        assert searches() == first
        # the reference route hands out no classes: the pinned-subgroup
        # stage then searches the d = 1 cover again
        monkeypatch.setattr(C, "_route_low_index", ref_route_low_index)
        assert any(len(set(mine)) < len(mine) for mine in searches())

    def test_index_two_cover_needs_no_search(self, monkeypatch):
        searches, covers, at_replay = [], [], []
        search, cover = subgroups._search_tables, C.cover_presentation
        verify = C.verify_certificate
        monkeypatch.setattr(subgroups, "_search_tables",
                            lambda *a: searches.append(a) or search(*a))
        monkeypatch.setattr(C, "cover_presentation",
                            lambda *a: covers.append(a) or cover(*a))
        monkeypatch.setattr(C, "verify_certificate",
                            lambda *a: at_replay.append(len(covers)) or verify(*a))
        v = certify(parse_presentation(INDEX_TWO_LARGE), LI_FAST)
        assert v.is_large and [l.table.degree for l in v.certificate.chain] == [2]
        assert searches == [] and at_replay == [1]

    def test_commutator_covers_checked_first(self, monkeypatch):
        # deficiency 1, a commutator relator, and a group (Z x Z) whose
        # covers all have abelianization Z x Z: every cover's abelianization
        # comes before the first child is decided, read off its table with
        # no cover presentation built
        p = parse_presentation("< a, b, c | b^-1 a^-1 b a, b^-1 c^-1 a >")
        events = []
        cover_ab, cover, decide = C.cover_abelianization, C.cover_presentation, C.decide
        monkeypatch.setattr(C, "cover_abelianization",
                            lambda q, t: events.append(("ab", t)) or cover_ab(q, t))
        monkeypatch.setattr(C, "cover_presentation",
                            lambda q, t: events.append(("cover", t)) or cover(q, t))
        monkeypatch.setattr(C, "decide",
                            lambda q, cfg, pool=None: events.append(("decide", q))
                            or decide(q, cfg, pool))
        v = certify(p, LI_FAST)
        assert v.status == "UNKNOWN"
        first_child = [e for e, _ in events].index("decide", 1)
        checked = [t for e, t in events[:first_child] if e == "ab"]
        want = [t for t in low_index_subgroups(p, LI_FAST.max_index) if t.degree > 1]
        assert len(want) > 1 and checked == want
        # one cover presentation per child, each built just before it
        kinds = [e for e, _ in events[first_child - 1:]]
        assert kinds[:4] == ["cover", "decide", "cover", "decide"]
        assert [e for e, _ in events[:first_child]].count("cover") == 1

    def test_truncated_search_keeps_every_index_two_cover(self, monkeypatch):
        # (Z/2)^3 has 7 index-2 subgroups; 7 DFS nodes find only 2 of them
        p = parse_presentation("< a, b, c | a^2, b^2, c^2, a b A B, a c A C, b c B C >")
        cfg = replace(LI_FAST, li_nodes=7)
        twos = [cover_presentation(p, t)[0] for t in index_two_classes(p)]
        assert len(twos) == 7

        def children():
            seen = []
            decide = C.decide
            monkeypatch.setattr(C, "decide",
                                lambda q, c, pool=None: seen.append(q) or decide(q, c, pool))
            v = certify(p, cfg)
            monkeypatch.setattr(C, "decide", decide)
            assert "search truncated at the node budget" in v.diagnostics[-1]
            return [q for q in seen[1:] if q in twos]

        assert children() == twos
        monkeypatch.setattr(C, "_route_low_index", ref_route_low_index)
        assert len(children()) == 2


class TestNodeBudget:
    """One certify call visits at most 2 * li_nodes DFS nodes: li_nodes for
    the input's own search, and one pool of li_nodes for every search in
    its covers, at any depth."""

    P = parse_presentation((CORPUS / "cyclic_quotients_only.pres").read_text())
    ROOT = ("low-index route: 7 proper covers up to index 8 tried (budget 2); "
            "none certified")

    def searches(self, monkeypatch, config):
        """Per search of ``certify(P, config)``: whether it is the input's,
        and the nodes it had and left."""
        out = []
        search = subgroups._search_tables

        def spy(p, max_index, cell, results=None):
            before = cell[0]
            result = search(p, max_index, cell, results)
            out.append((p == self.P, before, cell[0]))
            return result

        monkeypatch.setattr(subgroups, "_search_tables", spy)
        v = certify(self.P, config)
        assert v.status == "UNKNOWN" and v.diagnostics[-1] == self.ROOT
        return out

    def test_defaults(self, monkeypatch):
        # no cover is certified (every finite quotient is cyclic, Baumslag
        # 1969), and the first child's search alone would outrun li_nodes
        config = CertifyConfig()
        out = self.searches(monkeypatch, config)
        assert sum(before - after for _, before, after in out) <= 2 * config.li_nodes
        assert len(out) == 8 and sum(mine for mine, _, _ in out) == 1

    def test_first_child_empties_the_pool(self, monkeypatch):
        # the index-2 child's search takes the whole pool before the input's
        # own search runs; that search still has its li_nodes, finds all 7
        # covers and stops short of none
        assert len([t for t in low_index_subgroups(self.P, 8) if t.degree > 1]) == 7
        out = self.searches(monkeypatch, CertifyConfig(li_nodes=7000))
        assert out[0] == (False, 7000, 0)
        assert out[1][:2] == (True, 7000) and out[1][2] > 0
        assert all(before == 0 for _, before, _ in out[2:])


# ---------------------------------------------------------------------------
# verifier fuzz on chained certificates

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 12) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.text(max_size=3), kids, max_size=3),
    max_leaves=6)


@functools.lru_cache(maxsize=None)
def chained_certificates():
    """Certificate JSON with a chain: one link through an index-2 cover of
    the low-index route, and two links (indices 2 and 3) for the corpus
    trefoil."""
    out = []
    for p, cfg in ((parse_presentation(INDEX_TWO_LARGE), LI_FAST),
                   (parse_presentation((CORPUS / "trefoil.pres").read_text()),
                    CertifyConfig())):
        cert = certify(p, cfg).certificate
        out.append(dumps(certificate_to_json(cert)))
    return tuple(out)


def test_chained_certificates_shape():
    chains = [[l["table"]["degree"] for l in json.loads(c)["chain"]]
              for c in chained_certificates()]
    assert chains == [[2], [2, 3]]


class TestChainFuzz:
    """``largeness verify`` on mutated chained certificates exits 0, 1 or 2,
    prints JSON on success, at most one error line, and no traceback."""

    @staticmethod
    def _mutate(obj, data):
        """One mutation in place; parts an earlier mutation turned into
        another shape are left as they are."""
        chain = obj["chain"]
        where = data.draw(st.sampled_from(
            ("entry", "degree", "relators", "generators", "data", "drop")))
        if where == "data":
            mutate_data(obj, data)
            return
        if not chain:
            return
        link = chain[data.draw(st.integers(0, len(chain) - 1))]
        if where == "drop":
            chain.remove(link)
            return
        if where in ("entry", "degree"):
            table = link["table"]
            if where == "degree":
                table["degree"] = data.draw(st.integers(-1, 6) | JSON_VALUES)
            elif isinstance(table["action"], list) and table["action"]:
                perm = data.draw(st.sampled_from(table["action"]))
                if isinstance(perm, list) and perm:
                    perm[data.draw(st.integers(0, len(perm) - 1))] = data.draw(
                        st.integers(-2, 6) | JSON_VALUES)
            return
        mutate_presentation(link["presentation"], where, data)

    @given(st.data())
    @settings(max_examples=150, deadline=2000)
    def test_mutated_chains(self, data):
        obj = json.loads(data.draw(st.sampled_from(chained_certificates())))
        for _ in range(data.draw(st.integers(1, 3))):
            self._mutate(obj, data)
        check_verify_cli(obj)


def mutate_data(obj, data):
    """Drop one key of the certificate's ``data``, or set it to any JSON."""
    if not isinstance(obj["data"], dict):
        return
    key = data.draw(st.sampled_from(sorted(obj["data"]) + ["extra"]))
    if data.draw(st.booleans()):
        obj["data"].pop(key, None)
    else:
        obj["data"][key] = data.draw(JSON_VALUES)


def mutate_presentation(pres, where, data):
    """Replace or insert one relator (``where == "relators"``), or drop,
    rename or repeat a generator, or put any JSON in place of the list."""
    gens, rels = pres["generators"], pres["relators"]
    if not (isinstance(gens, list) and isinstance(rels, list)):
        return
    if where == "relators":
        names = [g for g in gens if isinstance(g, str)]
        pieces = names + ["^", "-", "2", "^-1", " ", "0", "Z"]
        text = "".join(data.draw(st.lists(st.sampled_from(pieces), max_size=8)))
        i = data.draw(st.integers(0, len(rels)))
        rels[i:i + data.draw(st.integers(0, 1))] = [text]
        return
    choice = data.draw(st.sampled_from(("drop", "rename", "repeat", "json")))
    if choice == "json" or not gens:
        pres["generators"] = data.draw(JSON_VALUES)
    elif choice == "drop":
        gens.pop(data.draw(st.integers(0, len(gens) - 1)))
    elif choice == "rename":
        gens[data.draw(st.integers(0, len(gens) - 1))] = data.draw(
            st.text(max_size=4))
    else:
        gens.append(gens[0])


def check_verify_cli(obj):
    """``largeness verify --cert`` on ``obj`` exits 0, 1 or 2, prints JSON
    on success, at most one error line, and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--cert", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert set(json.loads(out.getvalue())) == {"valid"}
    assert err.getvalue().count("error:") <= 1
    assert "Traceback" not in err.getvalue()


def test_hostile_alexander_replay_is_quick():
    # chi = (1, 1024) kills both 8000-letter relators; a change of free
    # basis would rewrite each b as b a^1024, some four million letters
    # per relator, before any rank is taken
    gens = ("a", "b")
    rels = [free_reduce((2, 1) * 2000 + (-2, -1) * 2000),
            free_reduce((1, 2) * 2000 + (-1, -2) * 2000)]
    obj = {"kind": "alexander_zero", "chain": [],
           "presentation": {"generators": list(gens),
                            "relators": [word_to_text(r, gens) for r in rels]},
           "data": {"chi": [1, 1024], "field": "Q", "rank": 0, "rows": 1,
                    "pivot_cols": []}}
    t0 = time.perf_counter()
    check_verify_cli(obj)
    assert time.perf_counter() - t0 < 2.0  # the fuzz deadline


# ---------------------------------------------------------------------------
# verifier fuzz on the other certificate kinds and on citations

KIND_SOURCES = {
    "deficiency": "< a, b, c | a b A B >",
    "cited_family": "< x, y | x y^2 x^-1 y^-4 >",
    "proper_power": "< a, b | a^3 >",
    "commutator_betti": "< x, y, t | t x T X, t y T Y >",
    "big_cover_abelianization": "< a, b | a b a b^-2 a^-2 b >",
}
CERT_KINDS = sorted(KIND_SOURCES) + ["alexander_zero"]


@functools.lru_cache(maxsize=None)
def kind_certificates():
    """Certificate JSON of every kind ``certify`` emits with no chain, and
    of ``big_cover_abelianization``, whose chain has one link."""
    certs = [certify(parse_presentation(text)).certificate
             for text in KIND_SOURCES.values()]
    # a Baumslag-Solitar mapping torus: the vanishing character is found
    # by the torus pipeline
    e = Endomorphism(((1, 1, 1), (2,)))
    certs.append(torus_bs_pipeline(e, PeriodicWitness((1,), 1, (), 3)).certificate)
    return tuple(dumps(certificate_to_json(c)) for c in certs)


def test_kind_certificates_shape():
    objs = [json.loads(c) for c in kind_certificates()]
    assert sorted(o["kind"] for o in objs) == sorted(CERT_KINDS)
    for o in objs:
        cert = certificate_from_json(o)
        assert verify_certificate(cert.presentation, cert), o["kind"]


class TestKindFuzz:
    """``largeness verify`` on mutated certificates of each kind: mutated
    ``data``, presentation, kind or chain."""

    @staticmethod
    def _mutate(obj, data):
        where = data.draw(st.sampled_from(
            ("data", "relators", "generators", "kind", "chain")))
        if where == "kind":
            obj["kind"] = data.draw(st.sampled_from(CERT_KINDS) | JSON_VALUES)
        elif where == "chain":
            # the links of a real chain are mutated as in TestChainFuzz; an
            # empty or already replaced chain becomes any JSON
            chain = obj["chain"]
            if (isinstance(chain, list) and chain
                    and all(isinstance(l, dict) and "table" in l for l in chain)):
                TestChainFuzz._mutate(obj, data)
            else:
                obj["chain"] = data.draw(JSON_VALUES)
        elif where == "data":
            mutate_data(obj, data)
        else:
            mutate_presentation(obj["presentation"], where, data)

    @given(st.data())
    @settings(max_examples=200, deadline=2000)
    def test_mutated_kinds(self, data):
        obj = json.loads(data.draw(st.sampled_from(kind_certificates())))
        for _ in range(data.draw(st.integers(1, 3))):
            self._mutate(obj, data)
        check_verify_cli(obj)


CITATION_SOURCES = ("< a | a^3 >", "< a, b | a >", "< a, b | a b A B >",
                    "< x, y | x y^2 x^-1 y^-3 >")


@functools.lru_cache(maxsize=None)
def citations():
    """(presentation, citation JSON) for a finite and an infinite cyclic
    group, Z x Z and BS(2, 3)."""
    out = []
    for text in CITATION_SOURCES:
        p = parse_presentation(text)
        out.append((p, json.dumps(certify(p).citation)))
    return tuple(out)


def test_citations_shape():
    got = [json.loads(c) for _, c in citations()]
    assert [c["reason"] for c in got] == ["cyclic", "cyclic", "ZxZ", "BS_coprime"]
    assert all(verify_citation(p, json.loads(c)) for p, c in citations())


@given(st.data())
@settings(max_examples=200, deadline=2000)
def test_mutated_citations(data):
    # verify_citation returns a bool on any citation JSON and any
    # presentation, and never raises
    p, text = data.draw(st.sampled_from(citations()))
    citation = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        where = data.draw(st.sampled_from(("value", "drop", "reason", "whole", "presentation")))
        if not isinstance(citation, dict):
            citation = {"reason": citation}
        if where == "value":
            key = data.draw(st.sampled_from(sorted(citation) + ["order", "l", "m"]))
            citation[key] = data.draw(JSON_VALUES | st.sampled_from(["3", "infinite", "-1"]))
        elif where == "drop" and citation:
            citation.pop(data.draw(st.sampled_from(sorted(citation))))
        elif where == "reason":
            citation["reason"] = data.draw(
                st.sampled_from(["cyclic", "ZxZ", "BS_coprime", "finite"]) | JSON_VALUES)
        elif where == "whole":
            citation = data.draw(JSON_VALUES)
        else:
            n = data.draw(st.integers(1, 3))
            letters = [s * g for g in range(1, n + 1) for s in (1, -1)]
            rels = data.draw(st.lists(st.lists(st.sampled_from(letters), max_size=12),
                                      max_size=3))
            p = Presentation(tuple("abc"[:n]), tuple(free_reduce(tuple(r)) for r in rels))
    assert isinstance(verify_citation(p, citation), bool)


# x -> x, x^3, x^-1, x^-2: the rank-1 bases of the torus pipelines
RANK_ONE_IMAGES = ((1,), (1, 1, 1), (-1,), (-1, -1))


@functools.lru_cache(maxsize=None)
def emitted_citations():
    """(presentation, citation) for each citation ``certify`` emits on the
    corpus, then for each rank-1 torus base, witness x with k = +-|image|."""
    out = []
    for f in sorted(CORPUS.glob("*.pres")):
        p = parse_presentation(f.read_text())
        v = certify(p, LI_FAST)
        if v.citation is not None:
            out.append((p, v.citation))
    for img in RANK_ONE_IMAGES:
        e = Endomorphism((img,), ("x",))
        k = len(img) if img[0] > 0 else -len(img)
        pipeline = torus_zz_pipeline if abs(k) == 1 else torus_bs_pipeline
        out.append((mapping_torus(e), pipeline(e, PeriodicWitness((1,), 1, (), k)).citation))
    return tuple(out)


def changed_maps(obj: dict):
    """``obj`` with one key dropped, one value changed, or one key added.
    A number also becomes its string, and its float, which Python's ``==``
    would take for it."""
    for key in obj:
        yield {k: v for k, v in obj.items() if k != key}
    for key, value in obj.items():
        if isinstance(value, int):
            changed = [value + 1, -value - 1, str(value), float(value)]
        else:
            changed = [value + "x", "", "ZxZ" if value != "ZxZ" else "cyclic"]
        for new in changed:
            yield {**obj, key: new}
    for key in ("order", "l", "note"):
        if key not in obj:
            yield {**obj, key: 1}


class TestCitationContract:
    """What ``certify`` and the torus pipelines emit verifies, and nothing
    else near it does: the replay compares against the one-relator route's
    own output."""

    def test_emitted_citations_verify(self):
        got = emitted_citations()
        assert len(got) >= 8
        assert [c for _, c in got[-4:]] == [
            {"reason": "ZxZ"}, {"reason": "BS_coprime", "l": 1, "m": 3},
            {"reason": "BS_coprime", "l": 1, "m": -1},
            {"reason": "BS_coprime", "l": 1, "m": -2}]
        for p, citation in got:
            assert verify_citation(p, citation), citation

    def test_changed_citations_are_refused(self):
        for p, citation in emitted_citations():
            for bad in changed_maps(citation):
                assert not verify_citation(p, bad), (citation, bad)

    def test_bs_one_one_on_a_commutator_is_refused(self):
        # BS(1, 1) is Z x Z, and the route cites a commutator relator so
        zxz = parse_presentation("< a, b | a b A B >")
        assert not verify_citation(zxz, {"reason": "BS_coprime", "l": 1, "m": 1})

    def test_changed_cited_family_data_is_refused(self):
        for text in ("< x, y | x y^2 x^-1 y^-4 >", "< x, y | x^2 y x^-2 y^-1 >"):
            p = parse_presentation(text)
            cert = certify(p).certificate
            assert cert.kind == "cited_family"
            for bad in changed_maps(cert.data):
                assert not verify_certificate(p, replace(cert, data=bad)), bad


class TestOneRelatorOracle:
    """``certify`` on ``< a, b | r >`` against ``oracles.one_relator_verdicts``
    for every cyclically reduced r of at most 8 letters.  The syntactic
    route runs second whatever the config, so a config with no character
    and no cover keeps the other routes short."""

    CHEAP = CertifyConfig(max_index=0, chi_height=0, budget=0)

    @staticmethod
    def _relators(max_len):
        for size in range(1, max_len + 1):
            for w in product((1, -1, 2, -2), repeat=size):
                if free_reduce(w) == w and (size == 1 or w[0] != -w[-1]):
                    yield w

    def test_every_short_relator(self):
        expected = one_relator_verdicts(8)
        matched = 0
        for r in self._relators(8):
            v = certify(Presentation(("a", "b"), (r,)), self.CHEAP)
            cert = v.certificate
            cited = v.citation if v.citation is not None else (
                cert.data if cert is not None and cert.kind == "cited_family" else None)
            if r in expected:
                status, texts = expected[r]
                assert v.status == status, (r, v.status)
                assert json.dumps(cited, sort_keys=True) in texts, (r, cited)
                matched += 1
            else:
                assert cited is None, (r, cited)
        assert matched == len(expected)
# ---------------------------------------------------------------------------
# the JSON writer

JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.floats() | st.text(),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.lists(st.integers(-10 ** 30, 10 ** 30))
                  | st.dictionaries(st.text(), kids)
                  | st.dictionaries(st.integers(), kids)),
    max_leaves=40)


class TestDumps:
    @given(JSON_TREES)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("obj", [{}, [], (), "", [[]], [{}], {"": {}},
                                     [True, 1, False, 0], {"é\n\"": ["☃"]},
                                     [-(2 ** 70), 2 ** 70], [None, 1.5, float("nan")]])
    def test_edge_cases(self, obj):
        assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)

    def test_corpus_verdicts_and_listings(self):
        listed = 0
        for f in sorted(CORPUS.glob("*.pres")):
            p = parse_presentation(f.read_text())
            obj = verdict_to_json(certify(p, LI_FAST))
            assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)
            if p.ngens >= 2:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["subgroups", str(f), "--max-index", "4"]) == 0
                text = out.getvalue()
                assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
                listed += 1
        assert listed >= 10
