"""Tests of the benchmark itself, on small panels.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
EXACT = ("subgroups.dfs.nodes", "subgroups.dfs.truncated",
         "subgroups.dfs.tables", "subgroups.classes",
         "alexander.alexander_matrix.calls", "certify.replays_per_large")


@pytest.fixture(scope="module")
def W():
    if "largeness" not in sys.modules:
        run.load_package()
        run.import_package()
    import workloads
    return workloads


@pytest.fixture
def small(W, monkeypatch):
    monkeypatch.setattr(W, "SWEEP_PANEL", 40)
    monkeypatch.setattr(W, "TORUS_PANEL", 12)
    return W


def _small_workload(W, name):
    """The workload on a panel that runs in seconds.  The corpus op gets a
    small DFS node budget so that its searches still truncate."""
    wl = W.workloads()[name]
    if name == "corpus":
        C = W.module("certify")
        wl = replace(wl, op=W._certify_op(
            C.CertifyConfig(max_index=8, budget=2, li_nodes=3000)))
    if name == "subgroups":
        full = wl.panel
        wl = replace(wl, panel=lambda: [it for it in full()
                                        if it.key != "free_rank2_and_z"])
    return wl


def _traced_counts(W, wl, seed):
    import tracing

    panel = wl.panel()
    tr = tracing.Tracer()
    tr.install()
    try:
        tally = run.measure(wl, panel, seed, 0, W, passes=1, tracer=tr)
    finally:
        tr.uninstall()
    metrics, absent = tracing.layer_metrics(tr, tally.larges)
    assert tally.failed == 0, tally.errors
    assert absent == []
    return {k: metrics[k]["value"] for k in EXACT}


@pytest.mark.parametrize("name", ["sweep", "corpus", "subgroups", "torus"])
def test_exact_counts_repeat_across_traced_runs(small, name):
    wl = _small_workload(small, name)
    first = _traced_counts(small, wl, seed=1)
    assert first == _traced_counts(small, wl, seed=2)
    if name == "corpus":
        assert first["subgroups.dfs.truncated"] > 0
    if name == "subgroups":
        assert first["subgroups.classes"] > 0


def test_result_line_matches_benchmark_json(small, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "sweep", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 40 * (1 + trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_raising_op_is_counted_and_the_run_goes_on(small):
    wl = small.workloads()["sweep"]
    panel = wl.panel()
    bad = panel[5].key

    def op(item):
        if item.key == bad:
            raise ValueError("boom")
        return wl.op(item)

    tally = run.measure(replace(wl, op=op), panel, 1, 0, small, passes=1)
    assert tally.ops == len(panel) and tally.failed == 1
    assert tally.errors == [f"{bad}: ValueError: boom"]


def test_status_off_its_sidecar_is_a_failure(W):
    item = W.Item("x", None, None, "LARGE")
    res = W.Result("{}", "UNKNOWN")
    assert W.check_result(item, res, "corpus") == [
        "status UNKNOWN, sidecar says LARGE"]


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
