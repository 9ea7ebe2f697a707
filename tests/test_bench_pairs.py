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


def metric_runs(base, change, better="higher"):
    """Runs of one metric, ``m``, pair by pair, and its summary entry."""
    runs = [{"pair": i, "side": side, "metrics": {"m": {"value": v}}}
            for i, pair in enumerate(zip(base, change))
            for side, v in zip(bench_pairs.SIDES, pair)]
    metric = {"name": "m", "unit": "1/s", "better": better, "bound": 0.2}
    return bench_pairs.summarize(runs, [metric])["m"]


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def test_gain():
    s = metric_runs(BASE, [v + 1 for v in BASE])
    assert (s["wins"], s["losses"], s["verdict"]) == (10, 0, "gain")


def test_nine_wins_are_enough():
    change = [v + 1 for v in BASE]
    change[3] = BASE[3] - 0.5
    assert metric_runs(BASE, change)["verdict"] == "gain"


def test_eight_wins_are_flat():
    change = [v + 1 for v in BASE]
    change[3] = change[4] = 9.0
    s = metric_runs(BASE, change)
    assert (s["wins"], s["verdict"]) == (8, "flat")


def test_gap_within_the_spread_is_flat():
    # every pair won, but by less than the base's quartile spread
    s = metric_runs(BASE, [v + 0.05 for v in BASE])
    assert s["wins"] == 10 and s["verdict"] == "flat"


def test_worse_beyond_the_bound():
    assert metric_runs(BASE, [v * 0.75 for v in BASE])["verdict"] == "worse"
    assert metric_runs(BASE, [v * 0.85 for v in BASE])["verdict"] == "flat"


def test_lower_is_better():
    # a metric to be kept low gains when it falls and is worse when it rises
    assert metric_runs(BASE, [v - 1 for v in BASE], "lower")["verdict"] == "gain"
    assert metric_runs(BASE, [v * 1.25 for v in BASE], "lower")["verdict"] == "worse"
