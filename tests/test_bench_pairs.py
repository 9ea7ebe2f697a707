"""The report logic of ``scripts/bench_pairs.py`` on made-up runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def runs(base, change):
    """One run per digest, pair by pair, base and change interleaved."""
    return [{"pair": i, "side": side, "digest": d}
            for i, pair in enumerate(zip(base, change))
            for side, d in zip(bench_pairs.SIDES, pair)]


def test_digests_match(capsys):
    digests, match = bench_pairs.check_digests(runs(["aa", "aa"], ["aa", "aa"]))
    assert match and digests == {"base": ["aa"], "change": ["aa"]}
    assert capsys.readouterr().out == ""


def test_digests_differ(capsys):
    digests, match = bench_pairs.check_digests(runs(["aa", "aa"], ["aa", "bb"]))
    assert not match and digests == {"base": ["aa"], "change": ["aa", "bb"]}
    assert capsys.readouterr().out == (
        "digests differ: base ['aa'] change ['aa', 'bb']\n")


def tallies(base, change):
    """One run per (attempted, failed) tally, pair by pair."""
    return [{"pair": i, "side": side, "attempted": a, "failed": f, "correct": f == 0}
            for i, pair in enumerate(zip(base, change))
            for side, (a, f) in zip(bench_pairs.SIDES, pair)]


def test_no_failures(capsys):
    out = bench_pairs.check_failures(tallies([(10, 0), (12, 0)], [(11, 0), (9, 0)]))
    assert out == {
        "base": {"attempted": 22, "failed": 0, "failed_share": 0.0, "incorrect_pairs": []},
        "change": {"attempted": 20, "failed": 0, "failed_share": 0.0, "incorrect_pairs": []}}
    assert capsys.readouterr().out == ""


def test_change_fails_more(capsys):
    out = bench_pairs.check_failures(tallies([(10, 1), (10, 0)], [(10, 0), (10, 4)]))
    assert out["base"] == {"attempted": 20, "failed": 1, "failed_share": 0.05,
                           "incorrect_pairs": [0]}
    assert out["change"] == {"attempted": 20, "failed": 4, "failed_share": 0.2,
                             "incorrect_pairs": [1]}
    assert capsys.readouterr().out == (
        "pair 0 base: run not correct\n"
        "pair 1 change: run not correct\n"
        "failed share: change 0.2 above base 0.05\n")


def test_change_fails_less(capsys):
    bench_pairs.check_failures(tallies([(10, 2)], [(10, 1)]))
    assert capsys.readouterr().out == (
        "pair 0 base: run not correct\n"
        "pair 0 change: run not correct\n")
