#!/usr/bin/env python3
"""Certify every corpus presentation and compare against the sidecars.

Usage: python scripts/run_corpus.py [--max-index N] [--budget B]
Exits nonzero on any mismatch, failed certificate replay or refused
NOT_LARGE_KNOWN citation.  Certificates and citations are replayed as read
back from the verdict's JSON text, as `largeness verify` reads them.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from largeness.certify import (NOT_LARGE_KNOWN, CertifyConfig, certificate_from_json,
                               certify, dumps, verdict_to_json, verify_certificate,
                               verify_citation)
from largeness.words import parse_presentation


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-index", type=int, default=8)
    ap.add_argument("--budget", type=int, default=2)
    args = ap.parse_args()
    config = CertifyConfig(max_index=args.max_index, budget=args.budget)

    corpus = Path(__file__).resolve().parents[1] / "corpus"
    failures = 0
    for pres_file in sorted(corpus.glob("*.pres")):
        expected = json.loads(pres_file.with_suffix("").with_suffix(".expected.json").read_text())
        p = parse_presentation(pres_file.read_text())
        t0 = time.time()
        verdict = certify(p, config)
        dt = time.time() - t0
        ok = verdict.status == expected["status"]
        doc = json.loads(dumps(verdict_to_json(verdict)))
        replay = True
        if doc["certificate"] is not None:
            replay = verify_certificate(p, certificate_from_json(doc["certificate"]))
        elif verdict.status == NOT_LARGE_KNOWN:
            replay = verify_citation(p, doc["citation"])
        ok = ok and replay
        failures += not ok
        mark = "ok  " if ok else "FAIL"
        kind = (verdict.certificate.kind if verdict.certificate
                else verdict.citation["reason"] if verdict.citation else "-")
        print(f"{mark} {pres_file.stem:28s} {verdict.status:16s} "
              f"[{kind}] {dt:6.2f}s  expected {expected['status']}")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
