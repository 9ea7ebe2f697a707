"""Folded labeled graphs for finitely generated subgroups of free groups.

A graph stores, per vertex, a dict from signed letters to target vertices;
the edge v --g--> w appears as adj[v][g] = w and adj[w][-g] = v.  Folded
means no vertex has two edges with the same signed label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .words import Word, free_reduce, inverse, letter


@dataclass(frozen=True)
class StallingsGraph:
    """Folded core graph; the loop language at ``base`` is the subgroup."""

    nvertices: int
    adj: tuple  # tuple of dicts signed letter -> vertex
    base: int = 0

    def canonical_key(self):
        """BFS renumbering from the base in label order; equal keys mean
        equal subgroups."""
        labels = sorted({abs(lt) for d in self.adj for lt in d})
        order = {self.base: 0}
        queue = [self.base]
        edges = []
        while queue:
            v = queue.pop(0)
            for g in labels:
                for lt in (g, -g):
                    w = self.adj[v].get(lt)
                    if w is None:
                        continue
                    if w not in order:
                        order[w] = len(order)
                        queue.append(w)
                    edges.append((order[v], lt, order[w]))
        return (len(order), tuple(edges))


def uf_find(parent: list, v: int) -> int:
    """Union-find root of ``v``, halving the path on the way."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _fold(nvertices, edges, base):
    """Quotient until no vertex carries duplicate signed labels.

    ``edges`` is a list of (v, lt, w) with lt > 0.
    """
    parent = list(range(nvertices))
    find = partial(uf_find, parent)

    work = list(edges)
    while True:
        adj = {}
        merged = False
        pending = []
        for v, lt, w in work:
            v, w = find(v), find(w)
            for src, lab, dst in ((v, lt, w), (w, -lt, v)):
                cur = adj.setdefault(src, {})
                if lab in cur and find(cur[lab]) != dst:
                    pending.append((cur[lab], dst))
                    merged = True
                else:
                    cur[lab] = dst
        if not merged:
            break
        for a, b in pending:
            a, b = find(a), find(b)
            if a != b:
                parent[max(a, b)] = min(a, b)
        work = [(find(v), lt, find(w)) for v, lt, w in work]
        work = list(dict.fromkeys(work))
    # dedupe edges after the final relabeling
    final = sorted({(find(v), lt, find(w)) for v, lt, w in work})
    verts = sorted({x for v, _, w in final for x in (v, w)} | {find(base)})
    index = {v: i for i, v in enumerate(verts)}
    adj = [dict() for _ in verts]
    for v, lt, w in final:
        adj[index[v]][lt] = index[w]
        adj[index[w]][-lt] = index[v]
    return StallingsGraph(len(verts), tuple(adj), index[find(base)])


def fold(generators: Sequence[Word]) -> StallingsGraph:
    """Folded core graph of the subgroup generated by the given words.

    The folded graph needs no pruning to be a core: every vertex other than
    the base lies on the image of a freely reduced loop at the base, and a
    reduced path in a folded graph never leaves a vertex by the edge it came
    in on, so no vertex but the base has degree 1.
    """
    edges = []
    nv = 1
    for w in generators:
        w = free_reduce(w)
        if not w:
            continue
        prev = 0
        for i, lt in enumerate(w):
            tgt = 0 if i == len(w) - 1 else nv + i
            if lt > 0:
                edges.append((prev, lt, tgt))
            else:
                edges.append((tgt, -lt, prev))
            prev = tgt
        nv += len(w) - 1
    return _fold(nv, edges, 0)


def sg_membership(g: StallingsGraph, w: Word) -> bool:
    """True when ``w`` traces a closed path at the base vertex."""
    v = g.base
    for lt in w:
        v = g.adj[v].get(lt)
        if v is None:
            return False
    return v == g.base


def spanning_tree(g: StallingsGraph, forced_edges: Sequence[tuple] = ()):
    """BFS spanning tree containing ``forced_edges`` (each (v, lt, w) with
    lt > 0), which must form a forest.  Returns the tree path from the base
    to each vertex, and the edges (v, lt, w) with lt > 0 off the tree,
    ordered by (vertex, label): the basis order of ``graph_basis``."""
    forced = list(dict.fromkeys(forced_edges))
    in_tree = set(forced)
    paths: list = [None] * g.nvertices
    paths[g.base] = ()
    comp = {g.base}

    def absorb_forced():
        changed = True
        while changed:
            changed = False
            for v, lt, w in forced:
                if v in comp and w not in comp:
                    paths[w] = paths[v] + (lt,)
                    comp.add(w)
                    changed = True
                elif w in comp and v not in comp:
                    paths[v] = paths[w] + (-lt,)
                    comp.add(v)
                    changed = True

    absorb_forced()
    while len(comp) < g.nvertices:
        step = None
        for v in sorted(comp):
            for lt in sorted(g.adj[v], key=lambda x: (abs(x), x < 0)):
                w = g.adj[v][lt]
                if w not in comp:
                    step = (v, lt, w)
                    break
            if step:
                break
        if step is None:
            raise ValueError("graph is not connected")
        v, lt, w = step
        in_tree.add((v, lt, w) if lt > 0 else (w, -lt, v))
        paths[w] = paths[v] + (lt,)
        comp.add(w)
        absorb_forced()
    cotree = [(v, lt, g.adj[v][lt]) for v in range(g.nvertices)
              for lt in sorted(lt for lt in g.adj[v] if lt > 0)
              if (v, lt, g.adj[v][lt]) not in in_tree]
    return [tuple(x) for x in paths], cotree


def graph_basis(g: StallingsGraph, forced_edges: Sequence[tuple] = (),
                flips: frozenset = frozenset()):
    """Free basis of the subgroup: one word per non-tree edge, ordered by
    (vertex, label).  Edges in ``flips`` contribute the inverse word."""
    paths, cotree = spanning_tree(g, forced_edges)
    basis = []
    for v, lt, w in cotree:
        word = free_reduce(paths[v] + (lt,) + tuple(-x for x in reversed(paths[w])))
        basis.append(inverse(word) if (v, lt, w) in flips else word)
    return basis


def sg_express(g: StallingsGraph, w: Word, forced_edges: Sequence[tuple] = (),
               flips: frozenset = frozenset()) -> Optional[Word]:
    """Rewrite a subgroup element as a word in graph_basis coordinates
    (letters index the basis list); None if w is not in the subgroup."""
    _, cotree = spanning_tree(g, forced_edges)
    index = {edge: k for k, edge in enumerate(cotree)}
    out = []
    v = g.base
    for lt in w:
        tgt = g.adj[v].get(lt)
        if tgt is None:
            return None
        edge = (v, lt, tgt) if lt > 0 else (tgt, -lt, v)
        if edge in index:
            sign = 1 if lt > 0 else -1
            if edge in flips:
                sign = -sign
            out.append(letter(index[edge], sign))
        v = tgt
    if v != g.base:
        return None
    return free_reduce(out)


def is_covering(g: StallingsGraph, ambient_rank: int) -> bool:
    """True when the subgroup has finite index, which is then the number
    of vertices: the graph covers the rank-n bouquet, every vertex
    carrying all 2n labels."""
    return all(len(g.adj[v]) == 2 * ambient_rank for v in range(g.nvertices))


def rank(g: StallingsGraph) -> int:
    """Free rank: edges minus vertices plus one (connected graphs)."""
    nedges = sum(1 for d in g.adj for lt in d if lt > 0)
    return nedges - g.nvertices + 1


def pin_loop_basis(graph: StallingsGraph, w: Word):
    """Spanning-tree data putting the closed loop of ``w`` into the basis.

    Picks one edge of the traced loop that occurs exactly once and whose
    removal leaves a forest; positively traversed edges are preferred so no
    flip is needed.  Returns ``(forced_edges, flips)`` or None.
    """
    v = graph.base
    trace = []
    for lt in w:
        tgt = graph.adj[v].get(lt)
        if tgt is None:
            return None
        trace.append(((v, lt, tgt) if lt > 0 else (tgt, -lt, v), lt > 0))
        v = tgt
    if v != graph.base:
        return None
    edges = [e for e, _ in trace]
    for want_positive in (True, False):
        for k in range(len(trace) - 1, -1, -1):
            edge, positive = trace[k]
            if positive != want_positive:
                continue
            rest = edges[:k] + edges[k + 1:]
            if edges.count(edge) == 1 and _is_forest(rest, graph.nvertices):
                flips = frozenset() if positive else frozenset([edge])
                return tuple(dict.fromkeys(rest)), flips
    return None


def hall_overgroup(w: Word, ambient_rank: int) -> tuple:
    """Finite-index overgroup with ``w`` as a basis element.

    The loop of ``w`` is completed to a covering of the rank-n bouquet by
    matching label-deficient vertices greedily (lowest id first).  Returns
    ``(graph, forced_edges, flips)``; a spanning tree honoring the forced
    edges yields a basis containing w verbatim.
    """
    w = free_reduce(w)
    if not w:
        raise ValueError("empty word")
    g0 = fold([w])
    adj = [dict(d) for d in g0.adj]
    nv = g0.nvertices
    for g in range(1, ambient_rank + 1):
        missing_out = [u for u in range(nv) if g not in adj[u]]
        missing_in = [u for u in range(nv) if -g not in adj[u]]
        for src, dst in zip(missing_out, missing_in):
            adj[src][g] = dst
            adj[dst][-g] = src
    graph = StallingsGraph(nv, tuple(adj), g0.base)
    pinned = pin_loop_basis(graph, w)
    if pinned is None:
        raise ValueError("could not pin the loop edge out of the tree")
    forced, flips = pinned
    return graph, forced, flips


def _is_forest(edges, nvertices) -> bool:
    parent = list(range(nvertices))
    for v, _, w in dict.fromkeys(edges):
        a, b = uf_find(parent, v), uf_find(parent, w)
        if a == b:
            return False
        parent[max(a, b)] = min(a, b)
    return True
