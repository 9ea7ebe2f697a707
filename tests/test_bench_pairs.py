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
