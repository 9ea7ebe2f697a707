import json
import time

import pytest

from largeness.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


class TestAb:
    def test_bs24(self, capsys):
        code, doc, _ = run_json(capsys, "ab", "< x, y | x y^2 x^-1 y^-4 >")
        assert code == 0
        assert doc == {"betti": 1, "torsion": [2], "display": "Z x Z/2"}

    def test_from_file(self, capsys, tmp_path):
        f = tmp_path / "p.pres"
        f.write_text("< a, b | a b A B >\n")
        code, doc, _ = run_json(capsys, "ab", str(f))
        assert code == 0 and doc["betti"] == 2


class TestAlex:
    def test_trefoil(self, capsys):
        code, doc, _ = run_json(capsys, "alex",
                                "< x, y | x y x y^-1 x^-1 y^-1 >",
                                "--chi", "1,1", "--field", "Q")
        assert code == 0
        assert doc["polynomial"]["coeffs"] == [[0, 1, 1], [1, -1, 1], [2, 1, 1]]
        assert not doc["zero"]

    def test_zero_case(self, capsys):
        code, doc, _ = run_json(capsys, "alex",
                                "< x, y, t | t x T X, t y T x^-1 y^-1 >",
                                "--chi", "0,1,0", "--field", "Q")
        assert code == 0 and doc["zero"]

    def test_mod_p(self, capsys):
        code, doc, _ = run_json(capsys, "alex", "< x, y | x y^2 x^-1 y^-4 >",
                                "--chi", "1,0", "--field", "F2")
        assert code == 0 and doc["zero"]

    def test_bad_chi_length(self, capsys):
        code, _, err = run(capsys, "alex", "< a, b | >", "--chi", "1")
        assert code == 1 and "error" in err


class TestSubgroupsAndRewrite:
    def test_listing(self, capsys):
        code, doc, _ = run_json(capsys, "subgroups", "< x, y | x^2 y x^-2 y^-1 >",
                                "--max-index", "2")
        assert code == 0
        assert doc["count"] >= 2
        degrees = [c["index"] for c in doc["classes"]]
        assert degrees == sorted(degrees)

    def test_rewrite_counts(self, capsys):
        code, doc, _ = run_json(capsys, "rewrite", "< x, y | x^2 y x^-2 y^-1 >",
                                "--max-index", "2", "--index-class", "1")
        assert code == 0
        i = doc["index"]
        assert len(doc["raw"]["generators"]) == (2 - 1) * i + 1
        assert len(doc["raw"]["relators"]) == 1 * i

    def test_rewrite_out_of_range(self, capsys):
        code, _, err = run(capsys, "rewrite", "< a | >", "--max-index", "2",
                           "--index-class", "99")
        assert code == 1 and "error" in err


class TestCertify:
    def test_bs12_not_large(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "< x, y | x y x^-1 y^-2 >")
        assert code == 0
        assert doc["status"] == "NOT_LARGE_KNOWN"

    def test_deficiency(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "< a, b, c | a b A B >")
        assert code == 0 and doc["status"] == "LARGE"

    def test_unknown_exits_zero(self, capsys):
        code, doc, _ = run_json(capsys, "certify",
                                "< a, b | a^-2 b^-1 a^-1 b a b^-1 a b >",
                                "--max-index", "4", "--budget", "1")
        assert code == 0 and doc["status"] == "UNKNOWN"

    def test_threads_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "certify", "< x, y | x y x y^-1 x^-1 y^-1 >",
                         "--threads", "1")
        _, out4, _ = run(capsys, "certify", "< x, y | x y x y^-1 x^-1 y^-1 >",
                         "--threads", "4")
        assert out1 == out4

    def test_bad_threads(self, capsys):
        code, _, err = run(capsys, "certify", "< a | >", "--threads", "0")
        assert code == 1

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "certify", "< a | b >")
        assert code == 1 and "error" in err

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "certify", "< a, b | a b A B >",
                           "--format", "text")
        assert code == 0 and "NOT_LARGE_KNOWN" in out


class TestTorus:
    def test_witness_pipeline(self, capsys, tmp_path):
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x\ny -> y x\n")
        code, doc, _ = run_json(capsys, "torus", "--endo", str(endo),
                                "--witness", "x,1,,1", "--certify")
        assert code == 0
        assert doc["witness_valid"] is True
        assert doc["verdict"]["status"] == "LARGE"

    def test_without_certify(self, capsys, tmp_path):
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x^2\n")
        code, doc, _ = run_json(capsys, "torus", "--endo", str(endo),
                                "--witness", "x,1,,2")
        assert code == 0 and doc["witness_valid"] is True
        assert doc["presentation"]["generators"] == ["x", "t"]

    def test_plain_certify_of_torus(self, capsys, tmp_path):
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x^2\n")
        code, doc, _ = run_json(capsys, "torus", "--endo", str(endo), "--certify")
        assert code == 0
        assert doc["verdict"]["status"] == "NOT_LARGE_KNOWN"

    def test_invalid_witness_rejected(self, capsys, tmp_path):
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x^2\n")
        code, _, err = run(capsys, "torus", "--endo", str(endo),
                           "--witness", "x,1,,1", "--certify")
        assert code == 1 and "error" in err


class TestVerify:
    def _emit_cert(self, capsys, tmp_path, pres):
        code, doc, _ = run_json(capsys, "certify", pres)
        assert doc["certificate"] is not None
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc["certificate"]))
        return path, doc["certificate"]

    def test_valid_certificate(self, capsys, tmp_path):
        path, _ = self._emit_cert(capsys, tmp_path, "< x, y, t | t x T X, t y T Y >")
        code, doc, _ = run_json(capsys, "verify", "--cert", str(path))
        assert code == 0 and doc == {"valid": True}

    def test_tampered_certificate(self, capsys, tmp_path):
        path, cert = self._emit_cert(capsys, tmp_path, "< x, y, t | t x T X, t y T Y >")
        cert["data"]["rank"] = 0
        path.write_text(json.dumps(cert))
        code, doc, _ = run_json(capsys, "verify", "--cert", str(path))
        assert code == 0 and doc == {"valid": False}

    def test_against_other_presentation(self, capsys, tmp_path):
        path, _ = self._emit_cert(capsys, tmp_path, "< x, y, t | t x T X, t y T Y >")
        code, doc, _ = run_json(capsys, "verify", "--cert", str(path),
                                "< a, b | a b A B >")
        assert code == 0 and doc == {"valid": False}

    def test_roundtrip_all_corpus_certificates(self, capsys, tmp_path):
        from pathlib import Path
        corpus = Path(__file__).resolve().parents[1] / "corpus"
        checked = 0
        for pres_file in sorted(corpus.glob("*.pres")):
            expected = json.loads(
                pres_file.with_suffix("").with_suffix(".expected.json").read_text())
            if expected["status"] != "LARGE":
                continue
            if pres_file.stem == "cyclic_quotients_only":
                continue
            code, doc, _ = run_json(capsys, "certify", str(pres_file))
            assert code == 0 and doc["status"] == "LARGE"
            path = tmp_path / f"{pres_file.stem}.cert.json"
            path.write_text(json.dumps(doc["certificate"]))
            code, vdoc, _ = run_json(capsys, "verify", "--cert", str(path))
            assert code == 0 and vdoc == {"valid": True}
            checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("field", ["F1111111111111111111",
                                       "F18446744073709551629", "F" + "7" * 400])
    def test_huge_field_is_refuted_quickly(self, capsys, tmp_path, field):
        # the invariant of x y^2 x^-1 y^-4 vanishes over F2 only; R19 is
        # prime, the other two are above the bound on field sizes
        cert = {"kind": "alexander_zero", "chain": [],
                "presentation": {"generators": ["x", "y"],
                                 "relators": ["x y^2 x^-1 y^-4"]},
                "data": {"chi": [1, 0], "field": field, "rank": 0, "rows": 1,
                         "pivot_cols": []}}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "verify", "--cert", str(path))
        assert code == 0 and doc == {"valid": False}
        assert time.perf_counter() - start < 1.0
        cert["data"]["field"] = "F2"
        path.write_text(json.dumps(cert))
        code, doc, _ = run_json(capsys, "verify", "--cert", str(path))
        assert code == 0 and doc == {"valid": True}

    @pytest.mark.parametrize("text", [
        "[]",
        '{"kind": "deficiency", "chain": 5, "data": {},'
        ' "presentation": {"generators": ["a", "b"], "relators": []}}',
        '{"kind": "deficiency", "chain": [], "data": {},'
        ' "presentation": {"generators": [1, 2], "relators": []}}',
    ])
    def test_wrong_shape_is_input_error(self, capsys, tmp_path, text):
        path = tmp_path / "cert.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
