"""Span tracing of the largeness layers, applied from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``largeness`` module that binds it, under whatever name; the originals come
back on ``uninstall``.  Modules are reached through ``sys.modules`` because
``largeness/__init__.py`` re-exports the function ``certify``, which hides the
``largeness.certify`` submodule as a package attribute.  Functions imported
at call time (``_search_tables`` and ``canonical_rebase`` in ``certify`` and
``torus``) are read from the module attribute, so patching it is enough.

Each wrapped call records one span: name, start, end, parent span and the id
of the benchmark op it belongs to.  Spans stay in flat arrays in memory and
are written out once, at the end.  Word primitives (``free_reduce``,
``concat``) are not wrapped: the wrapper would cost more than the call.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

PKG = "largeness"

# (span name, defining module, function name).  A span's layer is the part
# of its name before the first dot.
TARGETS = (
    ("words.is_commutator", "words", "is_commutator"),
    ("words.substitute", "words", "substitute"),
    ("abelian.abelianization", "abelian", "abelianization"),
    ("abelian.smith_normal_form", "abelian", "smith_normal_form"),
    ("abelian.hom_to_Z_basis", "abelian", "hom_to_Z_basis"),
    ("abelian.image_span_rank", "abelian", "image_span_rank"),
    ("alexander.fox_derivative", "alexander", "fox_derivative"),
    ("alexander.chi_specialize", "alexander", "chi_specialize"),
    ("alexander.coordinate_change", "alexander", "coordinate_change"),
    ("alexander.alexander_matrix", "alexander", "alexander_matrix"),
    ("alexander.lp_matrix_rank", "alexander", "lp_matrix_rank"),
    ("subgroups.dfs", "subgroups", "_search_tables"),
    ("subgroups.canonical_rebase", "subgroups", "canonical_rebase"),
    ("subgroups.low_index_subgroups", "subgroups", "low_index_subgroups"),
    ("subgroups.coset_enumerate", "subgroups", "coset_enumerate"),
    ("subgroups.reidemeister_schreier", "subgroups", "reidemeister_schreier"),
    ("subgroups.tietze_simplify", "subgroups", "tietze_simplify"),
    ("stallings.fold", "stallings", "fold"),
    ("torus.stable_pullback", "torus", "stable_pullback"),
    ("torus.whitehead_primitive_basis", "torus", "whitehead_primitive_basis"),
    ("torus.pipeline", "torus", "torus_zz_pipeline"),
    ("torus.pipeline", "torus", "torus_bs_pipeline"),
    ("certify.certify", "certify", "certify"),
    ("certify.verify_certificate", "certify", "verify_certificate"),
    ("certify.serialize", "certify", "verdict_to_json"),
    ("certify.serialize", "certify", "dumps"),
    ("certify.deserialize", "certify", "certificate_from_json"),
    ("cli.main", "cli", "main"),
)

LAYERS = ("words", "abelian", "alexander", "subgroups", "stallings", "torus",
          "certify", "cli")


def module(name: str):
    """A largeness submodule by its short name, e.g. ``module("certify")``."""
    return sys.modules[f"{PKG}.{name}"]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_kind: list = []  # per op id: "op" or "verify"
        self.stack = [-1]
        self.current_op = -1
        self.absent: list = []
        self.dfs: list = []  # (span, tables, nodes or None, truncated)
        self.rank_calls = 0
        self.rank_deficient = 0
        self.bound_exceeded = 0
        self.classes = 0
        self.stolen: dict = {}  # span -> time spent in probes it contains
        self._patches: list = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, *args, post=None, **kwargs):
        """Call ``fn`` inside a span; the ``post`` hook, if any, sees the
        call before it starts and after it returns or raises."""
        i = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        before = post.before(args, kwargs) if post else None
        result = exc = None
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()
            if post:
                post.after(self, i, args, kwargs, before, result, exc)

    def root(self, kind: str, name: str, fn, *args, **kwargs):
        """One benchmark op or certificate replay: a root span with its own
        op id."""
        self.current_op = len(self.op_kind)
        self.op_kind.append(kind)
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            self.current_op = -1

    def interrupted(self, seconds: float):
        """A probe of ``seconds`` ran inside the innermost open span; it is
        not that span's self time."""
        i = self.stack[-1]
        if i >= 0:
            self.stolen[i] = self.stolen.get(i, 0.0) + seconds

    # -- patching -----------------------------------------------------------

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for span_name, modname, attr in TARGETS:
            orig = getattr(sys.modules.get(f"{PKG}.{modname}"), attr, None)
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(span_name, orig, HOOKS.get(attr))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, orig))

    def uninstall(self):
        for m, key, orig in reversed(self._patches):
            setattr(m, key, orig)
        self._patches.clear()

    def _wrap(self, name, fn, post):
        span = self.span

        def wrapper(*args, **kwargs):
            if self.current_op < 0:  # outside an op: the benchmark's checks
                return fn(*args, **kwargs)
            return span(name, fn, *args, post=post, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] - self.stolen.get(i, 0.0)
                for i in range(n)]

    def write(self, path):
        """Dump every span as columns, with the name table, the op kinds and
        the probe time inside each interrupted span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "op_kind": self.op_kind,
                       "name": self.name_id.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(), "op": self.op.tolist(),
                       "probe_s": sorted(self.stolen.items())},
                      fh, separators=(",", ":"))


# -- counters taken at the same boundaries as the spans ----------------------


class _Hook:
    """Counts taken at a span boundary: ``before`` sees the arguments,
    ``after`` the outcome."""

    @staticmethod
    def before(args, kwargs):
        return None


class _Dfs(_Hook):
    """DFS nodes are the drop of the ``node_budget`` cell across the call;
    calls without a budget leave nodes uncounted."""

    @staticmethod
    def before(args, kwargs):
        cell = args[2] if len(args) > 2 else kwargs.get("node_budget")
        return (cell, cell[0]) if cell else None

    @staticmethod
    def after(tr, span, args, kwargs, before, result, exc):
        if exc is None:
            nodes = before[1] - before[0][0] if before else None
            tables, truncated = result
            tr.dfs.append((span, len(tables), nodes, bool(truncated)))


class _Rank(_Hook):
    @staticmethod
    def after(tr, span, args, kwargs, before, result, exc):
        if exc is None:
            tr.rank_calls += 1
            rows = args[0] if args else kwargs["rows"]
            tr.rank_deficient += result[0] < len(rows)


class _Coset(_Hook):
    @staticmethod
    def after(tr, span, args, kwargs, before, result, exc):
        if exc is not None and type(exc).__name__ == "BoundExceeded":
            tr.bound_exceeded += 1


class _Classes(_Hook):
    @staticmethod
    def after(tr, span, args, kwargs, before, result, exc):
        if exc is None:
            tr.classes += len(result)


HOOKS = {"_search_tables": _Dfs, "lp_matrix_rank": _Rank,
         "coset_enumerate": _Coset, "low_index_subgroups": _Classes}


def layer_metrics(tr: Tracer, larges: int) -> tuple:
    """Per-layer metrics of one traced pass, and the names marked absent.

    ``larges`` is the number of LARGE verdicts among the traced ops, the base
    of ``certify.replays_per_large``.
    """
    selfs = tr.self_times()
    calls: dict = {}
    self_s: dict = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    roots = 0.0
    replays = 0
    lis_spans = set()
    names = tr.names
    for i, t in enumerate(selfs):
        name = names[tr.name_id[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t
        if tr.parent[i] < 0:
            roots += tr.end[i] - tr.start[i]
        if name == "certify.verify_certificate" and tr.op_kind[tr.op[i]] == "op":
            replays += 1
        if name == "subgroups.low_index_subgroups":
            lis_spans.add(i)

    roots -= sum(tr.stolen.values())
    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    absent_spans = {s for s, mod, attr in TARGETS
                    if f"{mod}.{attr}" in tr.absent}
    per_call = ("alexander.fox_derivative", "alexander.chi_specialize",
                "alexander.lp_matrix_rank", "subgroups.dfs",
                "subgroups.canonical_rebase", "subgroups.low_index_subgroups",
                "subgroups.reidemeister_schreier", "subgroups.tietze_simplify",
                "subgroups.coset_enumerate", "stallings.fold",
                "torus.stable_pullback", "torus.whitehead_primitive_basis",
                "abelian.abelianization", "abelian.smith_normal_form",
                "abelian.hom_to_Z_basis", "certify.certify",
                "certify.verify_certificate", "words.is_commutator",
                "words.substitute")
    for s in per_call:
        if s not in absent_spans:
            put(f"{s}.calls", calls.get(s, 0), "count")
            put(f"{s}.self_s", self_s.get(s, 0.0), "s")
    for s in ("alexander.coordinate_change", "certify.serialize",
              "certify.deserialize", "cli.main"):
        if s not in absent_spans:
            put(f"{s}.self_s", self_s.get(s, 0.0), "s")
    if "alexander.alexander_matrix" not in absent_spans:
        put("alexander.alexander_matrix.calls",
            calls.get("alexander.alexander_matrix", 0), "count")
    if "alexander.lp_matrix_rank" not in absent_spans:
        put("alexander.vanish_ratio",
            tr.rank_deficient / tr.rank_calls if tr.rank_calls else 0.0, "ratio")
    if "subgroups.dfs" not in absent_spans:
        budgeted = [(s, t, n) for s, t, n, _ in tr.dfs if n is not None]
        nodes = sum(n for _, _, n in budgeted)
        busy = sum(selfs[s] for s, _, _ in budgeted)
        put("subgroups.dfs.nodes", nodes, "count")
        put("subgroups.dfs.nodes_per_s", nodes / busy if busy else 0.0, "1/s")
        put("subgroups.dfs.truncated", sum(tr_ for *_, tr_ in tr.dfs), "count")
        put("subgroups.dfs.tables", sum(t for _, t, _, _ in tr.dfs), "count")
        put("subgroups.dfs.tables_per_knode",
            1000 * sum(t for _, t, _ in budgeted) / nodes if nodes else 0.0,
            "1/knode")
    if "subgroups.low_index_subgroups" not in absent_spans:
        put("subgroups.classes", tr.classes, "count")
        found = sum(t for s, t, _, _ in tr.dfs if tr.parent[s] in lis_spans)
        put("subgroups.dedup_ratio", tr.classes / found if found else 0.0,
            "ratio")
    if "subgroups.coset_enumerate" not in absent_spans:
        put("subgroups.coset_enumerate.bound_exceeded", tr.bound_exceeded,
            "count")
    if "certify.verify_certificate" not in absent_spans:
        put("certify.replays_per_large", replays / larges if larges else 0.0,
            "ratio")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer], "s")
        put(f"{layer}.share", layer_self[layer] / roots if roots else 0.0,
            "ratio")
    absent = sorted(absent_spans)
    return m, absent
