import json
import sys
from dataclasses import replace

import pytest

from largeness.alexander import QQ, rank_witness
from largeness.certify import (Certificate, CertifyConfig, certificate_from_json,
                               certificate_to_json, certify,
                               classify_bs_shape, classify_conjugated_power,
                               automatic_primes, dumps, replayed, solve_chi_killing,
                               sweep_vectors, verdict_to_json,
                               verify_certificate, verify_citation)
from largeness.cli import main
from largeness.torus import (Endomorphism, PeriodicWitness, mapping_torus,
                             torus_zz_pipeline)
from largeness.words import (MAX_WORD_LEN, Presentation, parse_presentation,
                             parse_word)

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
        assert verify_citation(z, {"reason": "cyclic"})
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
