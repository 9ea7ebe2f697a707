#!/usr/bin/env python3
"""Soundness sweep over random small presentations.

Certifies seeded random presentations (n <= 3 generators, relators of
length <= 12) and replays every LARGE certificate.  Also reruns each case
to confirm byte-identical output.

Usage: python scripts/soundness_sweep.py [--count 100] [--seed 7]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from largeness.certify import (CertifyConfig, certify, dumps, verdict_to_json,
                               verify_certificate)
from largeness.words import Presentation, default_names, free_reduce


def random_presentation(rnd: random.Random) -> Presentation:
    n = rnd.randint(1, 3)
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


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-index", type=int, default=4)
    ap.add_argument("--budget", type=int, default=1)
    args = ap.parse_args()
    rnd = random.Random(args.seed)
    config = CertifyConfig(max_index=args.max_index, budget=args.budget)

    tallies = {}
    failures = 0
    t0 = time.time()
    for k in range(args.count):
        p = random_presentation(rnd)
        verdict = certify(p, config)
        tallies[verdict.status] = tallies.get(verdict.status, 0) + 1
        if verdict.certificate is not None and not verify_certificate(p, verdict.certificate):
            print(f"replay failed: {p}", file=sys.stderr)
            failures += 1
        again = certify(p, config)
        if dumps(verdict_to_json(verdict)) != dumps(verdict_to_json(again)):
            print(f"nondeterministic output: {p}", file=sys.stderr)
            failures += 1
    print(f"{args.count} presentations in {time.time() - t0:.1f}s: {tallies}")
    if failures:
        print(f"{failures} failures", file=sys.stderr)
        return 1
    print("all LARGE certificates replayed; reruns byte-identical")
    return 0

if __name__ == "__main__":
    sys.exit(main())
