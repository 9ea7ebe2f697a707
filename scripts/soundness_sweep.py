#!/usr/bin/env python3
"""Soundness sweep over random small presentations.

Certifies seeded random presentations (n <= 3 generators, relators of
length <= 12), replays every LARGE certificate and verifies the citation of
every NOT_LARGE_KNOWN verdict, each read back from the verdict's JSON text
as `largeness verify` reads a certificate.  Also reruns each case to confirm
byte-identical output.

Usage: python scripts/soundness_sweep.py [--count 100] [--seed 7]
           [--max-index 4] [--budget 1] [--ngens N] [--limit-s S] [--digest]

``--ngens N`` fixes the generator count instead of drawing it; with
``--ngens 2 --count 1500 --seed 7`` the inputs are the benchmark's sweep
panel, in panel order.  ``--limit-s S`` stops an input once one run of it
has taken S seconds, skips it and reports how many were skipped.
``--digest`` prints the sha256 of the verdict bytes of all inputs, one line
each, with a fixed line in place of a skipped input's verdict.
"""

import argparse
import hashlib
import json
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from largeness.certify import (NOT_LARGE_KNOWN, CertifyConfig, certificate_from_json,
                               certify, dumps, verdict_to_json, verify_certificate,
                               verify_citation)
from largeness.words import Presentation, default_names, free_reduce


def random_presentation(rnd: random.Random, ngens=None) -> Presentation:
    n = rnd.randint(1, 3) if ngens is None else ngens
    nrels = rnd.randint(1, 2)
    rels = []
    for _ in range(nrels):
        length = rnd.randint(1, 12)
        word = []
        while len(word) < length:
            lt = rnd.choice([x for x in range(-n, n + 1) if x])
            if word and word[-1] == -lt:
                continue
            word.append(lt)
        rels.append(free_reduce(tuple(word)))
    return Presentation(default_names(n), tuple(rels))


class OverLimit(Exception):
    """One run of an input took longer than ``--limit-s``."""


def _over_limit(signum, frame):
    raise OverLimit


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-index", type=int, default=4)
    ap.add_argument("--budget", type=int, default=1)
    ap.add_argument("--ngens", type=int, default=None)
    ap.add_argument("--limit-s", type=float, default=None)
    ap.add_argument("--digest", action="store_true")
    args = ap.parse_args()
    rnd = random.Random(args.seed)
    config = CertifyConfig(max_index=args.max_index, budget=args.budget)
    if args.limit_s is not None:
        signal.signal(signal.SIGALRM, _over_limit)

    def run(p):
        if args.limit_s is not None:
            signal.setitimer(signal.ITIMER_REAL, args.limit_s)
        try:
            return certify(p, config)
        finally:
            if args.limit_s is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)

    tallies = {}
    failures = 0
    skipped = []
    digest = hashlib.sha256()
    t0 = time.time()
    for k in range(args.count):
        p = random_presentation(rnd, args.ngens)
        try:
            verdict = run(p)
            again = run(p)
        except OverLimit:
            skipped.append(k)
            digest.update(b"skipped\n")
            continue
        text = dumps(verdict_to_json(verdict))
        digest.update(text.encode() + b"\n")
        tallies[verdict.status] = tallies.get(verdict.status, 0) + 1
        doc = json.loads(text)
        if (doc["certificate"] is not None
                and not verify_certificate(p, certificate_from_json(doc["certificate"]))):
            print(f"replay failed: {p}", file=sys.stderr)
            failures += 1
        if verdict.status == NOT_LARGE_KNOWN and not verify_citation(p, doc["citation"]):
            print(f"citation refused: {p}", file=sys.stderr)
            failures += 1
        if text != dumps(verdict_to_json(again)):
            print(f"nondeterministic output: {p}", file=sys.stderr)
            failures += 1
    print(f"{args.count} presentations in {time.time() - t0:.1f}s: {tallies}")
    if args.limit_s is not None:
        print(f"{len(skipped)} skipped over {args.limit_s:g}s: {skipped}")
    if args.digest:
        print(f"digest {digest.hexdigest()}")
    if failures:
        print(f"{failures} failures", file=sys.stderr)
        return 1
    print("all LARGE certificates replayed; all NOT_LARGE_KNOWN citations "
          "verified; reruns byte-identical")
    return 0

if __name__ == "__main__":
    sys.exit(main())
