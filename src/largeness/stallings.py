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


class BoundExceeded(RuntimeError):
    """A computation hit a fixed bound before it finished; for a fold under
    relators, the index may be infinite or just larger."""


def fold_loops(loops: Sequence[Word], relators: Sequence[Word] = (),
               bound: Optional[int] = None) -> StallingsGraph:
    """Folded graph of the loops at the base, closed under ``relators``.

    Each loop is scanned from the base, a vertex made for each missing
    edge, and the scan's end merged into the base.  Merging two vertices
    merges, in turn, the targets of their equal labels, which keeps the
    graph folded.  With relators, one HLT pass then scans every relator at
    each vertex still live when its turn comes, merging the ends of a scan
    that does not close: Todd-Coxeter enumeration, whose table is complete
    when the result covers the bouquet.  A loop once closed stays closed as
    vertices are added or merged, so the pass leaves every relator closed
    at every live vertex.  The surviving vertices are numbered in id order,
    so the base is 0.  ``bound`` caps the vertices live at once, and 16
    times it plus 64 the vertices ever made; BoundExceeded when passed.
    """
    adj = []  # per vertex ever made, signed letter -> vertex id
    parent = []  # union-find over vertex ids; the smaller id is the root
    find = partial(uf_find, parent)
    live = 0

    def new_vertex(edges):
        nonlocal live
        if bound is not None and (live >= bound or len(parent) >= 16 * bound + 64):
            raise BoundExceeded(f"coset bound {bound} exceeded")
        parent.append(len(parent))
        adj.append(edges)
        live += 1
        return len(parent) - 1

    def scan(v, w):
        for lt in w:
            v = find(v)
            t = adj[v].get(lt)
            if t is None:
                t = adj[v][lt] = new_vertex({-lt: v})
            v = t
        return find(v)

    def merge(a, b):
        nonlocal live
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            live -= 1
            for lt, t in adj[b].items():
                u = adj[a].setdefault(lt, t)
                if u != t:
                    stack.append((u, t))

    new_vertex({})
    for w in loops:
        merge(scan(0, w), 0)
    v = 0
    while relators and v < len(parent):
        if parent[v] == v:
            for r in relators:
                merge(scan(v, r), v)
        v += 1
    ids = [v for v in range(len(parent)) if parent[v] == v]
    index = {v: i for i, v in enumerate(ids)}
    return StallingsGraph(len(ids), tuple({lt: index[find(t)] for lt, t in adj[v].items()}
                                          for v in ids))


def fold(generators: Sequence[Word]) -> StallingsGraph:
    """Folded core graph of the subgroup generated by the given words.

    The folded graph needs no pruning to be a core: every vertex other than
    the base lies on the image of a freely reduced loop at the base, and a
    reduced path in a folded graph never leaves a vertex by the edge it came
    in on, so no vertex but the base has degree 1.
    """
    return fold_loops([free_reduce(w) for w in generators])


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


def hall_overgroup(w: Word, ambient_rank: int) -> StallingsGraph:
    """Finite-index overgroup with ``w`` as a basis element.

    The loop of ``w`` is completed to a covering of the rank-n bouquet by
    matching label-deficient vertices greedily (lowest id first).  Returns
    the graph; ``pin_loop_basis(graph, w)`` gives the spanning-tree data
    whose basis contains w verbatim.
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
    return StallingsGraph(nv, tuple(adj), g0.base)


def _is_forest(edges, nvertices) -> bool:
    parent = list(range(nvertices))
    for v, _, w in dict.fromkeys(edges):
        a, b = uf_find(parent, v), uf_find(parent, w)
        if a == b:
            return False
        parent[max(a, b)] = min(a, b)
    return True
