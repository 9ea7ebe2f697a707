import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from largeness import cli
from largeness.cli import _emit, main
from largeness.subgroups import cover_abelianization, low_index_subgroups, subgroup_classes
from largeness.words import MAX_WORD_LEN, parse_presentation

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
# the corpus files `largeness subgroups` is benchmarked on
LISTED = [f for f in sorted(CORPUS.glob("*.pres"))
          if parse_presentation(f.read_text()).ngens >= 2]


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


def ref_textualize(obj, indent=0) -> str:
    """The text format of a whole object at once: the renderer the CLI
    used before it wrote a listing one class at a time."""
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(ref_textualize(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(ref_textualize(v, indent) for v in obj) or f"{pad}(none)"
    return f"{pad}{obj}"


def child_env():
    """The environment for a child ``python`` that imports ``largeness``
    from this source checkout, uninstalled."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_python_m_largeness():
    # the package runs as a module from a source checkout, uninstalled
    env = child_env()
    proc = subprocess.run([sys.executable, "-m", "largeness", "ab", "< a | a^2 >"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"betti": 0, "torsion": [2], "display": "Z/2"}


@pytest.mark.parametrize("argv", [("subgroups", "{dir}", "--max-index", "2"),
                                  ("verify", "--cert", "{dir}")])
def test_unreadable_input_is_input_error(capsys, argv):
    # a directory given as the input file: one error line, exit 1
    code, out, err = run(capsys, *(a.format(dir=CORPUS) for a in argv))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: '{CORPUS}'\n"


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

    def test_mod_p_coefficients(self, capsys):
        # 2 - 3t over F7 is 2(1 + 2t): integer coefficients, denominator 1
        code, doc, _ = run_json(capsys, "alex", "< x, y | x y^3 x^-1 y^-2 >",
                                "--chi", "1,0", "--field", "F7")
        assert code == 0
        assert doc["polynomial"] == {"field": "F7", "coeffs": [[0, 1, 1], [1, 2, 1]]}
        assert doc["display"] == "2*t + 1"

    def test_character_above_the_bound(self, capsys):
        code, doc, _ = run_json(capsys, "alex", "< a, b | >", "--chi", "1,1024")
        assert code == 0 and doc["zero"]
        code, _, err = run(capsys, "alex", "< a, b | >", "--chi", "1,1025")
        assert code == 1 and err == "error: chi has a value above the bound 1024\n"

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

    def test_listing_abelianization_is_ab_of_rewrite(self, capsys):
        # each class's abelianization, read off its table, is `ab` of the
        # raw and of the simplified presentation `rewrite` prints for it
        text = "< x, y | x^2 y x^-2 y^-1 >"
        _, listing, _ = run_json(capsys, "subgroups", text, "--max-index", "4")
        assert listing["count"] > 10
        for k, cls in enumerate(listing["classes"]):
            _, doc, _ = run_json(capsys, "rewrite", text, "--max-index", "4",
                                 "--index-class", str(k))
            for pres in (doc["raw"], doc["simplified"]):
                inline = (f"< {', '.join(pres['generators'])} | "
                          f"{', '.join(pres['relators'])} >")
                code, ab, _ = run_json(capsys, "ab", inline)
                assert code == 0 and ab == cls["abelianization"], (k, inline)

    @pytest.mark.parametrize("name", ["bs_2_4", "f2_times_z", "hexagonal_balanced_2"])
    def test_rewrite_matches_the_budgeted_search(self, capsys, monkeypatch, name):
        # `rewrite` numbers the classes of the least-table search; the
        # budgeted search, with its own dedup, must give the same bytes for
        # every class index, and the same error one past the last
        path = str(CORPUS / f"{name}.pres")
        count = len(low_index_subgroups(parse_presentation(Path(path).read_text()), 4))
        assert count > 10

        def outputs():
            return [run(capsys, "rewrite", path, "--max-index", "4", "--index-class", str(k))
                    for k in range(count + 1)]

        got = outputs()
        monkeypatch.setattr(cli, "low_index_subgroups",
                            lambda p, k: subgroup_classes(p, k, [10 ** 9])[0])
        assert got == outputs()
        assert got[-1][0] == 1 and all(code == 0 for code, _, _ in got[:-1])

    def test_rewrite_out_of_range(self, capsys):
        code, _, err = run(capsys, "rewrite", "< a | >", "--max-index", "2",
                           "--index-class", "99")
        assert code == 1 and "error" in err


    def test_scan_bound_is_a_resource_bound(self, capsys):
        # 2 * 1200 * 1199 scan entries are above subgroups.MAX_SCAN_ENTRIES
        code, out, err = run(capsys, "subgroups", "< a, b | a^600 b^600 >",
                             "--max-index", "2")
        assert (code, out) == (2, "")
        assert err == ("resource bound exceeded: relator scans of 2877600 "
                       "entries exceed 2000000\n")

    def test_memory_error_is_a_resource_bound(self, capsys, monkeypatch):
        # one line on stderr, exit 2, no traceback
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_certify", exhausted)
        code, out, err = run(capsys, "certify", "< a, b | a b a B B >")
        assert (code, out, err) == (2, "", "resource bound exceeded: out of memory\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("path", LISTED, ids=lambda f: f.stem)
    def test_streamed_listing_is_the_whole_object(self, capsys, path, fmt):
        # the listing written one class at a time has the bytes of the
        # whole object rendered at once
        p = parse_presentation(path.read_text())
        out = []
        for table in low_index_subgroups(p, 4):
            inv = cover_abelianization(p, table)
            out.append({"index": table.degree, "table": table.to_json(),
                        "abelianization": {"betti": inv.betti,
                                           "torsion": list(inv.torsion),
                                           "display": str(inv)}})
        obj = {"classes": out, "count": len(out)}
        want = (ref_textualize(obj) if fmt == "text"
                else json.dumps(obj, sort_keys=True, indent=2)) + "\n"
        code, got, err = run(capsys, "subgroups", str(path), "--max-index", "4",
                             "--format", fmt)
        assert (code, err) == (0, "") and got == want

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_empty_streamed_list(self, capsys, fmt):
        # no command streams an empty list (every group has itself as a
        # subgroup of index 1), so _emit is called by hand
        obj = {"classes": [], "count": 0}
        want = (ref_textualize(obj) if fmt == "text"
                else json.dumps(obj, sort_keys=True, indent=2)) + "\n"
        _emit({"classes": iter(()), "count": 0}, argparse.Namespace(format=fmt))
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("obj", [
        {}, {"a": {}}, {"a": [], "b": {"c": {}, "d": "x"}},
        {"a": [[], [1, 2], {"b": [{"c": 3}]}], "e": 4}])
    def test_text_of_nested_and_empty_values(self, capsys, obj):
        # an empty dict is one empty line, an empty list "(none)", and an
        # iterator anywhere renders as the list of its entries
        want = ref_textualize(obj) + "\n"
        _emit(obj, argparse.Namespace(format="text"))
        assert capsys.readouterr().out == want
        streamed = {k: iter(v) if isinstance(v, list) else v for k, v in obj.items()}
        _emit(streamed, argparse.Namespace(format="text"))
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_closed_stdout(self, fmt):
        # the reader goes away after the first bytes of a 200-450 kB listing:
        # exit 1 with nothing on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "largeness", "subgroups",
             str(CORPUS / "free_rank2_and_z.pres"), "--max-index", "5",
             "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        try:
            assert proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (code, err) == (1, b"")

    def test_listing_memory_does_not_grow_with_the_listing(self):
        # 8,046 classes at index 6: peak RSS beyond an index-1 run is what
        # the dedup keeps, not every table found or every class printed
        # (31 MB when both were held, about 9 MB streamed with every
        # conjugate not met yet held, 5.4 MB from the least-table search,
        # with CPython 3.11 on x86-64 Linux).  Linux carries
        # a process's ru_maxrss across exec, so a child of the test runner
        # starts at the runner's peak; the listing runs in a fork of a
        # fresh interpreter, which starts at that interpreter's size
        script = ("import os, sys\n"
                  "from largeness.cli import main\n"
                  "pid = os.fork()\n"
                  "if not pid:\n"
                  "    code = main(sys.argv[1:])\n"
                  "    sys.stdout.flush()\n"
                  "    os._exit(code)\n"
                  "_, status, usage = os.wait4(pid, 0)\n"
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss,\n"
                  "      file=sys.stderr)\n")

        def peak_kb(max_index):
            proc = subprocess.run(
                [sys.executable, "-c", script, "subgroups",
                 str(CORPUS / "free_rank2_and_z.pres"), "--max-index", str(max_index)],
                stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, env=child_env(),
                timeout=120, text=True)
            code, kb = map(int, proc.stderr.split())
            assert code == 0
            return kb

        assert peak_kb(6) - peak_kb(1) < 7 * 1024


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

    @pytest.mark.parametrize("flag,value", [
        ("--max-index", "-3"), ("--chi-height", "-2"), ("--budget", "-1"),
        ("--primes", "4")])
    def test_bad_setting_is_input_error(self, capsys, flag, value):
        code, out, err = run(capsys, "certify", "< a, b | a^2 b^3 >", flag, value)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_threads_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "< a | >", "--threads", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err

    @pytest.mark.parametrize("relator,argv", [
        ("a", ("certify", "< a, b | a^10000000 >")),
        ("a^10000000", ("verify", "--cert", "{cert}")),
        ("a", ("verify", "--cert", "{cert}", "< a, b | b a^10000000 >")),
    ])
    def test_long_word_is_input_error(self, capsys, tmp_path, relator, argv):
        # the word-length bound refuses the text before any letters are built
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(
            {"kind": "deficiency", "chain": [], "data": {},
             "presentation": {"generators": ["a", "b"], "relators": [relator]}}))
        start = time.perf_counter()
        code, out, err = run(capsys, *(a.format(cert=cert) for a in argv))
        assert time.perf_counter() - start < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "longer than" in err

    @pytest.mark.parametrize("argv", [
        ("certify", "< a | a^" + "9" * 5000 + " >"),
        ("ab", "< a, b |\n a b^-" + "9" * 5000 + " >"),
    ])
    def test_huge_exponent_is_input_error(self, capsys, argv):
        # an exponent past int()'s 4300-digit limit is a located parse error
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"word longer than {MAX_WORD_LEN} letters" in err
        assert ("(line 1, column 7)" if argv[0] == "certify"
                else "(line 2, column 4)") in err

    @pytest.mark.parametrize("relator,ok", [
        ("a^5000 = b^5000", True), ("a^5001 = b^5000", False),
        ("a^10000", True), ("a^10001", False),
    ])
    def test_word_bound_round_trip(self, capsys, tmp_path, relator, ok):
        # certify refuses what verify would refuse to read back
        pres = f"< a, b, c | {relator} >"
        code, out, err = run(capsys, "certify", pres)
        if not ok:
            assert code == 1 and out == "" and "longer than" in err
            return
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(json.loads(out)["certificate"]))
        code, doc, _ = run_json(capsys, "verify", "--cert", str(cert), pres)
        assert code == 0 and doc == {"valid": True}

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
        # its first link is the d = 1 cover, a degree-1 table, which the
        # chain replay takes as it takes any other
        cert = doc["verdict"]["certificate"]
        assert cert["chain"][0]["table"]["degree"] == 1
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        assert run_json(capsys, "verify", "--cert", str(path))[:2] == (0, {"valid": True})

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

    @pytest.mark.parametrize("text, message", [
        (" -> \n", "bad generator name '' (line 1, column 2)"),
        ("x^2 -> x^2\n", "bad generator name 'x^2' (line 1, column 1)"),
        ("# rank 2\nx -> x\n  x -> x y\n",
         "duplicate generator name 'x' (line 3, column 3)"),
    ])
    def test_bad_generator_name(self, capsys, tmp_path, text, message):
        # an endomorphism file names its generators by the presentation
        # grammar's rule, so the mapping torus prints as readable text
        endo = tmp_path / "endo.txt"
        endo.write_text(text)
        code, out, err = run(capsys, "torus", "--endo", str(endo))
        assert (code, out, err) == (1, "", f"error: {message}\n")


    def test_image_error_is_placed_in_the_file(self, capsys, tmp_path):
        endo = tmp_path / "endo.txt"
        endo.write_text("# c\n  y -> y x\n")
        code, out, err = run(capsys, "torus", "--endo", str(endo))
        assert (code, out, err) == (
            1, "", "error: unknown generator 'x' (line 2, column 10)\n")

    @pytest.mark.parametrize("witness, message", [
        ("x,1,x x q,1", "unknown generator 'q' (line 1, column 9)"),
        ("q,1,,1", "unknown generator 'q' (line 1, column 1)"),
        ("x,a,,1", "bad integer 'a' (line 1, column 3)"),
    ])
    def test_witness_error_is_placed_in_the_argument(self, capsys, tmp_path,
                                                     witness, message):
        # columns count from the start of --witness, not of its part
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x^2\n")
        code, out, err = run(capsys, "torus", "--endo", str(endo), "--witness", witness)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("witness, message", [
        ("x,40,,2", "theta^14(w) needs more than 10000 letters"),
        ("x,1,,100000000000", "v w^k v^-1 is longer than 10000 letters"),
        ("x,65,,1", "witness power 65 is above the bound 64"),
    ])
    def test_oversized_witness_is_input_error(self, capsys, tmp_path, witness, message):
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x^2\n")
        t0 = time.perf_counter()
        code, out, err = run(capsys, "torus", "--endo", str(endo), "--witness", witness)
        assert time.perf_counter() - t0 < 2.0
        assert (code, out, err) == (1, "", f"error: {message}\n")


    @pytest.mark.parametrize("power, status", [(12, "LARGE"), (16, "UNKNOWN"), (64, "UNKNOWN")])
    def test_setup_bounds_the_powers_it_builds(self, capsys, tmp_path, power, status):
        # theta^i(y) = y passes the witness check, but theta^i(x) = x^(2^i)
        # is built next: past MAX_WORD_LEN letters the pipeline stops first
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x^2\ny -> y\n")
        t0 = time.perf_counter()
        code, doc, _ = run_json(capsys, "torus", "--endo", str(endo),
                                "--witness", f"y,{power},,1", "--certify")
        assert time.perf_counter() - t0 < 10.0
        assert code == 0 and doc["verdict"]["status"] == status
        if status == "UNKNOWN":
            assert doc["verdict"]["diagnostics"][-1] == (
                f"theta^14 needs more than {MAX_WORD_LEN} letters")


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

    @pytest.mark.parametrize("chi,valid", [([1, 10**6], False), ([1, 8000], False),
                                           ([1, 1025], False), ([1, 1024], True)])
    def test_huge_character_is_refuted_quickly(self, capsys, tmp_path, chi, valid):
        # the invariant of a free group vanishes for every character; values
        # above the bound of 2**10 are refused before the coordinate change
        cert = {"kind": "alexander_zero", "chain": [],
                "presentation": {"generators": ["a", "b"], "relators": []},
                "data": {"chi": chi, "field": "Q", "rank": 0, "rows": 1,
                         "pivot_cols": []}}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "verify", "--cert", str(path))
        assert code == 0 and doc == {"valid": valid}
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("root,exponent,valid", [
        ("a b", 10**7, False), ("a b", 4, False), ("b a", 3, True)])
    def test_huge_exponent_is_refuted_quickly(self, capsys, tmp_path, root,
                                              exponent, valid):
        # the relator's cyclic core must be exponent times as long as the
        # root's before the power is built
        cert = {"kind": "proper_power", "chain": [],
                "presentation": {"generators": ["a", "b"],
                                 "relators": ["a b a b a b"]},
                "data": {"relator_index": 0, "root": root,
                         "exponent": exponent}}
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "verify", "--cert", str(path))
        assert code == 0 and doc == {"valid": valid}
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("case", ["list", "cited_family"])
    def test_deep_nesting_is_a_resource_bound(self, capsys, tmp_path, case):
        # JSON nested deeper than the recursion limit: one line on stderr,
        # exit 2, no traceback
        if case == "list":
            text = "[" * 200_000 + "]" * 200_000
        else:
            _, cert = self._emit_cert(capsys, tmp_path, "< x, y | x^2 y x^-2 y^-2 >")
            assert cert["kind"] == "cited_family"
            text = json.dumps(cert).replace(
                json.dumps(cert["data"]), "[" * 5000 + "]" * 5000)
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("resource bound exceeded: ") and err.count("\n") == 1

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


class TestErrorsWithNoSourcePosition:
    """Input errors that no place in a source text stands behind: exit 1,
    one `error:` line, and no made-up line and column."""

    @pytest.mark.parametrize("argv, message", [
        (("alex", "< a, b | >", "--chi", "1"), "chi needs one value per generator"),
        (("rewrite", "< a | >", "--max-index", "2", "--index-class", "99"),
         "index-class 99 out of range (0..1)"),
        (("torus", "--endo", "{endo}", "--witness", "x,1"), "witness must be w,i,v,k"),
        (("torus", "--endo", "{endo}", "--witness", "x,1,,1", "--certify"),
         "witness fails verification"),
    ])
    def test_message_has_no_position(self, capsys, tmp_path, argv, message):
        endo = tmp_path / "endo.txt"
        endo.write_text("x -> x^2\n")
        code, out, err = run(capsys, *(a.format(endo=endo) for a in argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert "(line" not in err
