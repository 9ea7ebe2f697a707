"""The four benchmark workloads: inputs, the op a user runs, and its checks.

Each workload has a fixed panel of inputs, and the run's ``--seed`` orders
it.  Warm-up inputs are fixed too, and never occur in the panel.  The
panels are fixed because the cost of one input spans five orders of
magnitude (0.05 ms to over 50 s for the sweep distribution): with panels
redrawn per seed, the same number of inputs took 3.7-10.5 s (sweep, 12
seeds) and 7.3-9.4 s (torus, 5 seeds), far beyond any usable bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracing import module

LARGE, NOT_LARGE_KNOWN = "LARGE", "NOT_LARGE_KNOWN"
COMPLETE = "COMPLETE"  # a `largeness subgroups` listing (it has no budget)
DEFINITIVE = (LARGE, NOT_LARGE_KNOWN, COMPLETE)

SWEEP_PANEL = 1500
SWEEP_PANEL_SEED = 7
TORUS_PANEL = 300
TORUS_PANEL_SEED = 1

# `largeness subgroups --max-index 6` class counts, recorded when the
# benchmark was defined; a different count is a failed op.
SUBGROUP_CLASSES = {
    "bs_1_2": 10, "bs_2_3": 7, "bs_2_4": 96, "conjugate_square_commutes": 117,
    "cyclic_quotients_only": 6, "deep_conjugator_family": 10,
    "f2_times_z": 1000, "free_rank2_and_z": 8046, "hexagonal_balanced_1": 41,
    "hexagonal_balanced_2": 65, "trefoil": 17, "zxz": 33,
}


@dataclass
class Item:
    key: str        # stable name, orders the digest
    inp: object     # what the op consumes
    pres: object = None              # the presentation verdicts refer to
    expected: Optional[str] = None   # sidecar status


@dataclass
class Result:
    text: str                       # the bytes a user would see
    status: str
    cert_text: Optional[str] = None  # certificate JSON, as `verify --cert` reads
    citation: Optional[dict] = None
    errors: list = field(default_factory=list)


# -- input generators ----------------------------------------------------------


def _reduced_word(rnd: random.Random, n: int, length: int) -> tuple:
    word = []
    while len(word) < length:
        lt = rnd.choice([x for x in range(-n, n + 1) if x])
        if word and word[-1] == -lt:
            continue
        word.append(lt)
    return tuple(word)


def sweep_presentation(rnd: random.Random):
    """A draw of scripts/soundness_sweep.py's generator with the generator
    count fixed at 2: 1-2 relators of length 1-12.

    One generator, and three generators with one relator, are decided by
    syntax in microseconds.  Three generators with two relators have an
    unbounded tail (single inputs took 8-57 s), which no 20 s run holds.
    """
    words = module("words")
    n = 2
    nrels = rnd.randint(1, 2)
    rels = [words.free_reduce(_reduced_word(rnd, n, rnd.randint(1, 12)))
            for _ in range(nrels)]
    return words.Presentation(words.default_names(n), tuple(rels))


def torus_case(rnd: random.Random):
    """An injective endomorphism of F_2 or F_3 with x1 -> x1^k, the other
    images reduced words of length 1-4, and the witness (x1, 1, empty, k)."""
    torus = module("torus")
    while True:
        n = rnd.choice((2, 3))
        k = rnd.choice((1, -1, 2, -2, 3))
        first = (1,) * k if k > 0 else (-1,) * -k
        imgs = (first,) + tuple(_reduced_word(rnd, n, rnd.randint(1, 4))
                                for _ in range(n - 1))
        e = torus.Endomorphism(imgs)
        if torus.endo_is_injective(e):
            return e, torus.PeriodicWitness((1,), 1, (), k)


# -- ops -------------------------------------------------------------------------


def _verdict_result(verdict):
    C = module("certify")
    return Result(C.dumps(C.verdict_to_json(verdict)), verdict.status, None,
                  verdict.citation), verdict


def _certify_op(config):
    def op(item: Item):
        return _verdict_result(module("certify").certify(item.inp, config))
    return op


def torus_op(config):
    def op(item: Item):
        T = module("torus")
        e, wit = item.inp
        pipeline = T.torus_zz_pipeline if abs(wit.k) == 1 else T.torus_bs_pipeline
        return _verdict_result(pipeline(e, wit, config))
    return op


def subgroups_op(max_index: int):
    def op(item: Item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = module("cli").main(["subgroups", item.inp,
                                     "--max-index", str(max_index)])
        res = Result(out.getvalue(), COMPLETE)
        if rc != 0:
            res.errors.append(f"exit code {rc}")
        return res, None
    return op


def attach_certificate(res: Result, verdict) -> None:
    """Certificate JSON text for the replay phase, made outside the op's
    timing: the file a user would pass to `largeness verify --cert`."""
    if verdict is not None and verdict.certificate is not None:
        res.cert_text = json.dumps(
            module("certify").certificate_to_json(verdict.certificate))


def replay(item: Item, res: Result) -> bool:
    """`largeness verify --cert` against the op's own input."""
    C = module("certify")
    cert = C.certificate_from_json(json.loads(res.cert_text))
    return C.verify_certificate(item.pres, cert)


# -- checks (untimed) ------------------------------------------------------------


def check_result(item: Item, res: Result, workload: str) -> list:
    """Problems with one op's output; empty when it is correct."""
    errors = list(res.errors)
    if item.expected is not None and res.status != item.expected:
        errors.append(f"status {res.status}, sidecar says {item.expected}")
    if res.status == LARGE and res.cert_text is None:
        errors.append("LARGE without a certificate")
    if res.status == NOT_LARGE_KNOWN:
        C = module("certify")
        if not C.verify_citation(item.pres, res.citation or {}):
            errors.append(f"citation {res.citation} fails verify_citation")
    if workload == "subgroups" and not errors:
        errors.extend(_check_listing(item, res.text))
    return errors


def _check_listing(item: Item, text: str) -> list:
    S = module("subgroups")
    p = item.pres
    obj = json.loads(text)
    classes = obj["classes"]
    errors = []
    want = SUBGROUP_CLASSES.get(item.key)
    if obj["count"] != len(classes) or len(classes) != want:
        errors.append(f"{len(classes)} classes (count {obj['count']}), "
                      f"recorded {want}")
    for c in classes:
        t = S.CosetTable.from_json(c["table"])
        perms_ok = (t.degree == c["index"] and len(t.action) == p.ngens
                    and all(sorted(perm) == list(range(t.degree))
                            for perm in t.action))
        if not perms_ok or not t.is_closed_under(p.relators):
            errors.append(f"table of index {t.degree} is not a closed "
                          "coset table")
            break
    return errors


# -- workload definitions -----------------------------------------------------------


@dataclass
class Workload:
    name: str
    op: object      # Item -> (Result, verdict or None)
    panel: object   # () -> list[Item], the same on every call
    warmup: object  # (rnd, panel, count) -> None, ops on inputs off the panel


def _sweep_panel():
    rnd = random.Random(SWEEP_PANEL_SEED)
    out = []
    for i in range(SWEEP_PANEL):
        p = sweep_presentation(rnd)
        out.append(Item(f"sweep-{i:04d}", p, p))
    return out


def _torus_panel():
    T = module("torus")
    rnd = random.Random(TORUS_PANEL_SEED)
    out = []
    for i in range(TORUS_PANEL):
        e, wit = torus_case(rnd)
        out.append(Item(f"torus-{i:03d}", (e, wit), T.mapping_torus(e)))
    return out


def corpus_dir() -> Path:
    return Path(__file__).resolve().parents[1] / "corpus"


def _corpus_panel():
    words = module("words")
    out = []
    for f in sorted(corpus_dir().glob("*.pres")):
        side = json.loads(f.with_suffix("").with_suffix(".expected.json").read_text())
        p = words.parse_presentation(f.read_text())
        out.append(Item(f.stem, p, p, side["status"]))
    return out


def _subgroups_panel():
    words = module("words")
    out = []
    for f in sorted(corpus_dir().glob("*.pres")):
        p = words.parse_presentation(f.read_text())
        if p.ngens >= 2:
            out.append(Item(f.stem, str(f), p))
    return out


def _fresh(draw, rnd, taken, count):
    """``count`` draws not among ``taken``, so that warm-up never touches a
    timed input."""
    out = []
    while len(out) < count:
        x = draw(rnd)
        if x not in taken:
            out.append(x)
    return out


def _warm_certify(config):
    def warm(rnd, panel, count):
        C = module("certify")
        taken = {it.pres for it in panel}
        for p in _fresh(sweep_presentation, rnd, taken, count):
            C.dumps(C.verdict_to_json(C.certify(p, config)))
    return warm


def _warm_torus(config):
    op = torus_op(config)

    def warm(rnd, panel, count):
        taken = {it.inp for it in panel}
        for e, wit in _fresh(torus_case, rnd, taken, count):
            op(Item("warm", (e, wit), module("torus").mapping_torus(e)))
    return warm


def _warm_subgroups(rnd, panel, count):
    words = module("words")
    taken = {it.pres for it in panel}
    for p in _fresh(sweep_presentation, rnd, taken, count):
        text = "< a, b | " + ", ".join(words.word_to_text(r, ("a", "b"))
                                         for r in p.relators) + " >"
        with contextlib.redirect_stdout(io.StringIO()):
            module("cli").main(["subgroups", text, "--max-index", "3"])


def workloads() -> dict:
    """Name -> Workload; call once `largeness` is imported.

    Warm-up ops use ``max_index=2`` (``--max-index 3`` for subgroups): they
    load the same code paths at a bounded cost.
    """
    C = module("certify")
    warm_cfg = C.CertifyConfig(max_index=2, budget=1)
    small = C.CertifyConfig(max_index=4, budget=1)
    return {
        "sweep": Workload("sweep", _certify_op(small), _sweep_panel,
                          _warm_certify(warm_cfg)),
        "corpus": Workload("corpus",
                           _certify_op(C.CertifyConfig(max_index=8, budget=2)),
                           _corpus_panel, _warm_certify(warm_cfg)),
        "subgroups": Workload("subgroups", subgroups_op(6), _subgroups_panel,
                              _warm_subgroups),
        "torus": Workload("torus", torus_op(small), _torus_panel,
                          _warm_torus(warm_cfg)),
    }
