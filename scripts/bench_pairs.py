#!/usr/bin/env python3
"""Interleaved benchmark pairs of a base revision and the working tree.

Usage, from anywhere in the repository:

    python3 scripts/bench_pairs.py --base REV --workload W --pairs N \\
        --seconds S --label L [--first-seed K]

Extracts REV into a temporary directory with ``git archive`` and runs
``perfbench/run.py --trace 0`` there and in the working tree, once each per
pair.  Pair i uses seed K + i for both sides; the side that runs first
alternates, the base first in even pairs.  Writes ``BENCH_<W>_<L>.json`` at
the repository root: every run's metrics and output digest, each side's
set of digests and whether the two sets match, each side's operations
attempted and failed and the runs not correct, each side's median and
quartiles per end-to-end metric of ``BENCHMARK.json``, and per metric the
pairs the working tree won and lost (ties count for neither) and a verdict:
"gain" (at least 9 pairs in 10 won, and a median gap above the base's
quartile spread), "worse" (a median worse by more than the metric's bound,
a fraction of the base's median) or "flat".
The temporary directory is removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last-line JSON object
    plus the output digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next((ln.split("sha256:", 1)[1] for ln in lines
                             if ln.startswith("digest sha256:")), None)
    return result


def spread(values: list) -> dict:
    """Median and quartiles; a single value is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(s: dict, bound: float) -> str:
    """One metric's verdict from its ``summarize`` entry: "gain" when the
    change won at least 9 pairs in 10 and its median is better than the
    base's by more than the base's quartile spread; "worse" when its median
    is worse than the base's by more than ``bound`` times the base's; else
    "flat"."""
    sign = 1 if s["better"] == "higher" else -1
    base = s["base"]
    gap = sign * (s["change"]["median"] - base["median"])
    if 10 * s["wins"] >= 9 * s["pairs"] and gap > base["q3"] - base["q1"]:
        return "gain"
    if gap < -bound * abs(base["median"]):
        return "worse"
    return "flat"


def summarize(runs: list, end_to_end: list) -> dict:
    """Per end-to-end metric: each side's spread, the pair wins and the
    verdict against the metric's bound."""
    pairs = sorted({r["pair"] for r in runs})
    out = {}
    for m in end_to_end:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        value = {(r["pair"], r["side"]): r["metrics"][name]["value"] for r in runs}
        wins = sum(sign * (value[i, "change"] - value[i, "base"]) > 0 for i in pairs)
        losses = sum(sign * (value[i, "change"] - value[i, "base"]) < 0 for i in pairs)
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     **{side: spread([value[i, side] for i in pairs]) for side in SIDES},
                     "wins": wins, "losses": losses, "pairs": len(pairs)}
        out[name]["verdict"] = verdict(out[name], m["bound"])
    return out


def check_digests(runs: list) -> tuple:
    """Each side's sorted set of output digests, and whether the two sets
    are equal; prints one line naming both when they are not."""
    digests = {side: sorted({r["digest"] for r in runs if r["side"] == side})
               for side in SIDES}
    match = digests["base"] == digests["change"]
    if not match:
        print(f"digests differ: base {digests['base']} change {digests['change']}",
              flush=True)
    return digests, match


def check_failures(runs: list) -> dict:
    """Per side, the operations attempted and failed summed over its runs,
    their ratio, and the pairs whose run reports ``correct`` false; prints
    one line per such run, and one line when the change fails a larger
    share of its operations than the base."""
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        out[side] = {"attempted": attempted, "failed": failed,
                     "failed_share": failed / attempted if attempted else 0.0,
                     "incorrect_pairs": [r["pair"] for r in mine if not r["correct"]]}
        for pair in out[side]["incorrect_pairs"]:
            print(f"pair {pair} {side}: run not correct", flush=True)
    base, change = out["base"]["failed_share"], out["change"]["failed_share"]
    if change > base:
        print(f"failed share: change {change:.4g} above base {base:.4g}", flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    head_rev = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", base_rev))) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"base": Path(tmp), "change": ROOT}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_bench(trees[side], args.workload, seed, args.seconds)
                runs.append({"pair": i, "side": side, "seed": seed, "position": position,
                             **result})
                rate = result["metrics"]["ops_per_s_ref"]["value"]
                print(f"pair {i} seed {seed} {side:6s} ops_per_s_ref {rate:.4g} "
                      f"digest {(result['digest'] or '')[:8]}", flush=True)

    digests, match = check_digests(runs)
    failures = check_failures(runs)
    report = {
        "workload": args.workload, "seconds": args.seconds,
        "base": base_rev, "change": head_rev + (" with uncommitted changes" if dirty else ""),
        "machine": f"python {platform.python_version()}, {platform.machine()}",
        "digests": digests, "digests_match": match, "failures": failures,
        "summary": summarize(runs, end_to_end), "runs": runs,
    }
    out = ROOT / f"BENCH_{args.workload}_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, s in report["summary"].items():
        print(f"{name}: base {s['base']['median']:.4g} [{s['base']['q1']:.4g}, "
              f"{s['base']['q3']:.4g}] change {s['change']['median']:.4g} "
              f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}] "
              f"wins {s['wins']}/{s['pairs']} losses {s['losses']} {s['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
