#!/usr/bin/env python3
"""Benchmark of the largeness tool, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each op starts when the previous one
returns.  A pass runs every panel input once in the seed's order, then
replays every LARGE certificate from its JSON text, then checks the outputs
(untimed).  Whole passes repeat while the next one is expected to end within
``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and one traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.perfbench_out/trace-<workload>.json``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 5
WARMUP_OPS = 3
PCT_MIN = 200  # a p95 needs at least 10 samples beyond it
PROBE_EVERY_S = 0.5  # wall time between probes
PROBE_NOMINAL_S = 0.025  # probe() on the defining machine at median speed

perf = time.perf_counter


_rnd = random.Random(0)
PROBE_WORDS = [tuple(_rnd.randrange(-4, 5) for _ in range(24)) for _ in range(300)]


def probe() -> float:
    """Time of a fixed pure-Python job that uses no package code: free
    reduction with a list stack, dict counting and a sort."""
    t0 = perf()
    for _ in range(18):
        counts = {}
        for w in PROBE_WORDS:
            r = []
            for x in w:
                if r and r[-1] == -x:
                    r.pop()
                else:
                    r.append(x)
            key = tuple(r)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
    return perf() - t0


class Prober:
    """Op time at the host's nominal speed.

    The host's speed drifts by up to 25% within seconds, and CPU time drifts
    with it, much the same for ``probe()`` as for the package.  An interval
    timer runs the probe every PROBE_EVERY_S of wall time, inside long ops
    too; the op time between two probes, divided by their mean time and
    multiplied by PROBE_NOMINAL_S, tracks the program and not the host.
    Probe time inside an op is taken out of that op's time.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer  # told which span each probe interrupted
        self.ref = 0.0       # op time at nominal speed
        self.seg = 0.0       # op time since the last probe
        self.in_op = False
        self.mark = 0.0      # start of the op time not yet counted in seg
        self.stolen = 0.0    # probe time inside the current op
        self.last = None

    def _sample(self):
        p = probe()
        if self.last is not None:
            self.ref += self.seg * PROBE_NOMINAL_S / ((self.last + p) / 2)
        self.seg, self.last = 0.0, p

    def _on_timer(self, signum, frame):
        now = perf()
        if self.in_op:
            self.seg += now - self.mark
        self._sample()
        after = perf()
        if self.in_op:
            self.mark = after
            self.stolen += after - now
            if self.tracer:
                self.tracer.interrupted(after - now)

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def op(self, fn, *args):
        """``fn(*args)`` and its time without the probes run inside it."""
        self.stolen = 0.0
        t0 = self.mark = perf()
        self.in_op = True
        try:
            return fn(*args), None
        except Exception as exc:  # an op that raises is a failed op
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            end = perf()
            self.in_op = False
            self.seg += end - self.mark
            self.took = end - t0 - self.stolen


def load_package() -> None:
    """Put the checkout's sources first on the import path."""
    src = ROOT / "src"
    if not (src / "largeness" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        raise RuntimeError(f"no largeness sources under {ROOT}")
    sys.path.insert(0, str(src))


def import_package() -> None:
    """A fresh import of `largeness`, dropping any earlier one."""
    for name in [n for n in sys.modules
                 if n == "largeness" or n.startswith("largeness.")]:
        del sys.modules[name]
    pkg = importlib.import_module("largeness")
    importlib.import_module("largeness.cli")  # not imported by the package
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "largeness":
        raise RuntimeError(f"imported largeness from {pkg.__file__}")


@dataclass
class Tally:
    ops: int = 0
    op_times: list = field(default_factory=list)
    op_wall: float = 0.0
    ref_wall: float = 0.0  # op time at the probe's nominal speed
    verify_times: list = field(default_factory=list)
    verify_wall: float = 0.0
    decided: int = 0
    larges: int = 0
    failed: int = 0
    passes: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # key -> sha256 of output


def run_pass(wl, panel, rnd, tally: Tally, W, tracer=None):
    order = list(range(len(panel)))
    rnd.shuffle(order)
    done = []
    with Prober(tracer) as pr:
        for idx in order:
            item = panel[idx]
            if tracer:
                out, err = pr.op(tracer.root, "op", "bench.op", wl.op, item)
            else:
                out, err = pr.op(wl.op, item)
            res, verdict = out if out else (None, None)
            tally.op_times.append(pr.took)
            tally.op_wall += pr.took
            done.append((item, res, verdict, err))
    tally.ref_wall += pr.ref

    for _, res, verdict, _ in done:
        if res is not None:
            W.attach_certificate(res, verdict)
    replayed = {}
    t_pass = perf()
    for item, res, _, _ in done:
        if res is None or res.cert_text is None:
            continue
        t0 = perf()
        try:
            if tracer:
                ok = tracer.root("verify", "bench.verify", W.replay, item, res)
            else:
                ok = W.replay(item, res)
        except Exception as exc:
            ok = f"{type(exc).__name__}: {exc}"
        tally.verify_times.append(perf() - t0)
        replayed[item.key] = ok
    tally.verify_wall += perf() - t_pass

    for item, res, _, err in done:
        tally.ops += 1
        errors = [err] if err else []
        if res is not None:
            seen = tally.outputs.get(item.key)
            sha = hashlib.sha256(res.text.encode()).hexdigest()
            if seen is None:
                errors += W.check_result(item, res, wl.name)
                tally.outputs[item.key] = sha
            elif seen != sha:
                errors.append("output bytes differ from the previous pass")
            ok = replayed.get(item.key, True)
            if ok is not True:
                errors.append(f"certificate replay failed: {ok}")
            tally.decided += res.status in W.DEFINITIVE
            tally.larges += res.status == W.LARGE
        if errors:
            tally.failed += 1
            tally.errors.append(f"{item.key}: {'; '.join(errors)}")
    tally.passes += 1


def measure(wl, panel, seed, seconds, W, passes=None, tracer=None) -> Tally:
    rnd = random.Random(seed)
    tally = Tally()
    start = perf()
    while True:
        t_pass = perf()
        run_pass(wl, panel, rnd, tally, W, tracer)
        if passes is not None:
            if tally.passes >= passes:
                break
        elif perf() - start + (perf() - t_pass) > seconds:
            break
    return tally


def setup(W, name):
    """Import the package, build the panel and warm up, SETUP_REPS times.

    Each repetition's time is scaled to the nominal host speed by a probe
    before and after it, as for ``ops_per_s_ref``.  The warm-up inputs are
    the same in every run, so that set-up does the same work whatever the
    seed.  Returns the last repetition's workload and panel, and the median
    scaled time.
    """
    times = []
    for rep in range(SETUP_REPS):
        before = probe()
        t0 = perf()
        import_package()
        wl = W.workloads()[name]
        panel = wl.panel()
        wl.warmup(random.Random(f"warmup-{rep}"), panel, WARMUP_OPS)
        took = perf() - t0
        times.append(took * PROBE_NOMINAL_S / ((before + probe()) / 2))
    return wl, panel, statistics.median(times)


def digest(tally: Tally) -> str:
    h = hashlib.sha256()
    for key in sorted(tally.outputs):
        h.update(f"{key}\0{tally.outputs[key]}\0".encode())
    return h.hexdigest()


def pct(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally: Tally, setup_s: float) -> tuple:
    """(metrics for the result line, metrics printed only)."""
    m = {
        "setup_s": (setup_s, "s"),
        "ops_per_s_ref": (tally.ops / tally.ref_wall, "1/s"),
        "decided_frac": (tally.decided / tally.ops, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    extra = {"ops_per_s": (tally.ops / tally.op_wall, "1/s"),
             "op_p50_ms": (1000 * statistics.median(tally.op_times), "ms"),
             "failed_frac": (tally.failed / tally.ops, "ratio")}
    if len(tally.op_times) >= PCT_MIN:
        extra["op_p95_ms"] = (1000 * pct(tally.op_times, 95), "ms")
    if tally.verify_times:
        extra["verify_per_s"] = (len(tally.verify_times) / tally.verify_wall, "1/s")
        extra["verify_p50_ms"] = (1000 * statistics.median(tally.verify_times), "ms")
    if len(tally.verify_times) >= PCT_MIN:
        extra["verify_p95_ms"] = (1000 * pct(tally.verify_times, 95), "ms")
    return m, extra


def show(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "corpus", "subgroups", "torus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    try:
        load_package()
        import tracing
        import workloads as W
        wl, panel, setup_s = setup(W, args.workload)
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"machine: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()}")
    print(f"workload {wl.name}, seed {args.seed}: panel of {len(panel)} inputs; "
          f"set-up (import, panel, {WARMUP_OPS} warm-up ops) median of "
          f"{SETUP_REPS}: {setup_s:.4f} s")

    if not args.trace:
        tally = measure(wl, panel, args.seed, args.seconds, W)
        metrics, extra = end_to_end(tally, setup_s)
        show(f"{tally.ops} ops in {tally.passes} pass(es), "
             f"{len(tally.verify_times)} certificate replays", {**metrics, **extra})
        attempted, failed, errors = tally.ops, tally.failed, tally.errors
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        plain = measure(wl, panel, args.seed, args.seconds, W, passes=1)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(wl, panel, args.seed, args.seconds, W, passes=1,
                             tracer=tr)
        finally:
            tr.uninstall()
        out, absent = tracing.layer_metrics(tr, traced.larges)
        plain_rate = plain.ops / plain.ref_wall
        traced_rate = traced.ops / traced.ref_wall
        out["trace.overhead"] = {"value": 1 - traced_rate / plain_rate,
                                 "unit": "ratio"}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"trace-{wl.name}.json")
        print(f"ops_per_s_ref untraced {plain_rate:.6g}, traced {traced_rate:.6g}; "
              f"{len(tr.start)} spans written to "
              f".perfbench_out/trace-{wl.name}.json")
        show("per-layer metrics of the traced pass",
             {k: (v["value"], v["unit"]) for k, v in out.items()})
        if absent:
            print(f"absent (name no longer in the package): {', '.join(absent)}")
        attempted = plain.ops + traced.ops
        failed = plain.failed + traced.failed
        errors = plain.errors + traced.errors
        tally = traced
    print(f"digest sha256:{digest(tally)}")
    for e in errors[:10]:
        print(f"FAILED {e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
