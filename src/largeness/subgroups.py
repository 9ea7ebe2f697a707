"""Finite-index subgroup machinery: coset enumeration, rewriting, low index.

Cosets are right cosets; generators act on the right.  A complete table
stores, per generator, the permutation it induces on cosets, with the
subgroup itself as coset 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .abelian import AbelianInvariants
from .stallings import BoundExceeded, fold_loops, is_covering
from .words import (MAX_WORD_LEN, Presentation, Word, cyclic_reduce, exponent_vector,
                    inverse)


def _inverse_perms(perms) -> tuple:
    """Per permutation of range(len(perm)) in ``perms``, its inverse."""
    inv = []
    for perm in perms:
        ip = [0] * len(perm)
        for i, j in enumerate(perm):
            ip[j] = i
        inv.append(tuple(ip))
    return tuple(inv)


@dataclass(frozen=True)
class CosetTable:
    """Complete permutation action on cosets of a finite-index subgroup."""

    degree: int
    action: tuple  # per generator, a tuple of length degree

    @cached_property
    def inverse(self) -> tuple:
        """Per generator, the inverse permutation."""
        return _inverse_perms(self.action)

    def apply(self, coset: int, lt: int) -> int:
        if lt > 0:
            return self.action[lt - 1][coset]
        return self.inverse[-lt - 1][coset]

    def trace(self, coset: int, w: Word) -> int:
        for lt in w:
            coset = self.apply(coset, lt)
        return coset

    def is_closed_under(self, relators: Iterable[Word]) -> bool:
        return all(self.trace(c, r) == c
                   for r in relators for c in range(self.degree))

    def flat(self) -> tuple:
        return sum(self.action, ())

    def to_json(self):
        return {"degree": self.degree, "action": [list(p) for p in self.action]}

    @staticmethod
    def from_json(obj) -> "CosetTable":
        return CosetTable(int(obj["degree"]),
                          tuple(tuple(int(x) for x in p) for p in obj["action"]))


def _first_visits(table: CosetTable, inverse: tuple, base: int):
    """The cosets in first-visit scan order from ``base``, and per coset the
    coset that first reached it and the letter of that step (-1 and 0 for
    ``base``); ``inverse`` is ``table.inverse``, or equal to it.

    The scan order is the one used everywhere in this module: cosets in
    that order, directions g1, g1^-1, g2, g2^-1, ...
    """
    order = [base]
    parent = [-1] * table.degree
    via = [0] * table.degree
    moves = list(enumerate(zip(table.action, inverse), 1))
    for c in order:
        for g, (perm, ip) in moves:
            t = perm[c]
            if not via[t] and t != base:
                parent[t], via[t] = c, g
                order.append(t)
            t = ip[c]
            if not via[t] and t != base:
                parent[t], via[t] = c, -g
                order.append(t)
    return order, parent, via


def _from_flat(degree: int, flat: tuple) -> CosetTable:
    return CosetTable(degree, tuple(flat[i:i + degree]
                                    for i in range(0, len(flat), degree)))


def _rebasings(degree: int, flat: tuple, bases: Iterable[int]):
    """Per base in ``bases``, the table with flat form ``flat`` renumbered
    by first visit from that base in the scan order of ``_first_visits``,
    as a flat form."""
    perms = [flat[i:i + degree] for i in range(0, len(flat), degree)]
    moves = []  # g1, g1^-1, g2, g2^-1, ...
    for move in zip(perms, _inverse_perms(perms)):
        moves += move
    for base in bases:
        new = [-1] * degree
        new[base] = 0
        order = [base]
        for c in order:
            for move in moves:
                t = move[c]
                if new[t] < 0:
                    new[t] = len(order)
                    order.append(t)
            if len(order) == degree:
                break
        yield tuple([new[perm[c]] for perm in perms for c in order])


def canonical_rebase(table: CosetTable, base: int) -> CosetTable:
    """Renumber cosets by first visit in scan order starting from ``base``."""
    return _from_flat(table.degree, next(_rebasings(table.degree, table.flat(), (base,))))


# the bound on the cosets live at once in an enumeration
MAX_COSETS = 20000


def coset_enumerate(p: Presentation, subgens: Sequence[Word]) -> CosetTable:
    """Todd-Coxeter enumeration of the subgroup generated by ``subgens``:
    ``fold_loops`` of them under the relators, with at most ``MAX_COSETS``
    cosets live at once.  BoundExceeded means the index may be infinite or
    just larger."""
    g = fold_loops(subgens, p.relators, MAX_COSETS)
    if not is_covering(g, p.ngens):
        raise BoundExceeded("table incomplete after enumeration")
    action = tuple(tuple(d[lt] for d in g.adj) for lt in range(1, p.ngens + 1))
    return canonical_rebase(CosetTable(g.nvertices, action), 0)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def _edge_index(table: CosetTable, inverse: tuple) -> tuple:
    """The Schreier generators: per generator g and coset c, the number
    (from 1) of the one for the edge (c, g), or 0 when the edge is on the
    Schreier tree of first visits in scan order from coset 0.  The edges off
    the tree are numbered in order of coset, then generator.  ``inverse``
    is as ``_first_visits`` takes it.  Raises ValueError when the table is
    not transitive."""
    order, parent, via = _first_visits(table, inverse, 0)
    if len(order) != table.degree:
        raise ValueError("coset table is not transitive")
    index = [[1] * table.degree for _ in table.action]
    for tgt in order[1:]:
        lt = via[tgt]
        if lt > 0:
            index[lt - 1][parent[tgt]] = 0
        else:
            index[-lt - 1][tgt] = 0
    k = 0
    for c in range(table.degree):
        for row in index:
            if row[c]:
                k += 1
                row[c] = k
    return tuple(map(tuple, index))


def rewrite_word(table: CosetTable, edge_index: tuple, w: Word, start: int = 0) -> Word:
    """Express a subgroup element as a word in the Schreier generators by
    tracing it from ``start``; the trace must close up."""
    action, inv = table.action, table.inverse
    out = []
    c = start
    for lt in w:
        if lt > 0:
            x = edge_index[lt - 1][c]
            c = action[lt - 1][c]
        else:
            c = inv[-lt - 1][c]
            x = -edge_index[-lt - 1][c]
        if x:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    if c != start:
        raise ValueError("word does not lie in the subgroup")
    return tuple(out)


def reidemeister_schreier(p: Presentation, table: CosetTable):
    """Subgroup presentation on (n-1)i+1 Schreier generators with mi
    relators (before any simplification).

    Returns ``(presentation, edge_index)``, the numbering of ``_edge_index``
    that ``rewrite_word`` takes.
    """
    edge_index = _edge_index(table, table.inverse)
    names = []
    for c in range(table.degree):
        for g in range(p.ngens):
            if edge_index[g][c]:
                name = p.generators[g] if table.degree == 1 else f"{p.generators[g]}_{c}"
                names.append(name)
    try:
        relators = [rewrite_word(table, edge_index, r, c)
                    for r in p.relators for c in range(table.degree)]
    except ValueError:
        raise ValueError("coset table is not closed under the relators") from None
    sub = Presentation(tuple(names), tuple(relators))
    return sub, edge_index


def cover_abelianization(p: Presentation, table: CosetTable) -> AbelianInvariants:
    """The abelianization of the subgroup with coset table ``table``, read
    off the chain complex of the covering 2-complex (K. S. Brown, *Cohomology
    of Groups*, 1982, ch. II): Z^(edges), one edge (c, g) per coset and
    generator, modulo the boundary of each relator lifted to each coset.  A
    letter g crosses edge (c, g) forward from c, and g^-1 crosses edge
    (c.g^-1, g) backward.  The coset graph is connected, so the edges'
    boundaries in the chains of the d cosets span a free group of rank
    d - 1, and that quotient is H1 + Z^(d-1): the torsion is H1's, and
    d - 1 comes off the Betti number.

    Tietze moves do not change it, so it equals the abelianization of
    ``cover_presentation(p, table)[0]``; no word is built, and nothing is
    cached on ``table``.  Refuses the tables ``reidemeister_schreier``
    refuses, with the same errors.
    """
    d, action = table.degree, table.action
    seen = [True] + [False] * (d - 1)
    order = [0]
    for c in order:
        for perm in action:
            t = perm[c]
            if not seen[t]:
                seen[t] = True
                order.append(t)
    if len(order) != d:
        raise ValueError("coset table is not transitive")
    inverse = _inverse_perms(action)
    rows = []  # sparse, as of_relations takes them; edge (c, g) is column g*d + c
    for r in p.relators:
        steps = [(action[lt - 1], (lt - 1) * d, 1) if lt > 0
                 else (inverse[-lt - 1], (-lt - 1) * d, -1) for lt in r]
        for start in range(d):
            row = {}
            c = start
            for perm, col, sign in steps:
                if sign > 0:
                    k = col + c
                    c = perm[c]
                else:
                    c = perm[c]
                    k = col + c
                x = row.get(k, 0) + sign
                if x:
                    row[k] = x
                else:
                    del row[k]
            if c != start:
                raise ValueError("coset table is not closed under the relators")
            rows.append(row)
    inv = AbelianInvariants.of_relations(rows, len(action) * d)
    return AbelianInvariants(inv.betti - (d - 1), inv.torsion)


# the longest substitution a Tietze elimination may make
MAX_SUB_LEN = 64


def tietze_simplify(p: Presentation, carry: Sequence[Word] = ()):
    """Bounded Tietze simplification: drop empty relators, cyclically reduce,
    and eliminate generators that occur exactly once in some relator.

    The output bytes depend on the choice rule.  Each step takes the first
    relator, in order of (length, place in the list), that has at most
    ``MAX_SUB_LEN`` + 1 letters and a generator occurring in it once, and
    the first position in it of such a generator, rel = u g^e v, that
    passes the length bound: before anything is built, each relator and
    ``carry`` word w is bounded by len(w) + (|rel| - 2) times the number of
    g^+-1 in w, and a (relator, position) whose bound passes
    ``words.MAX_WORD_LEN`` is passed over for the next in the same order.
    The step deletes the relator and puts g^e = (v u)^-1 into every other
    relator and ``carry`` word that has g; the lists keep their order,
    relators that reduce to the empty word are dropped, and the generators
    left are renumbered in their old order at the end.

    ``carry`` words (freely reduced) are rewritten through the same
    substitutions.  Returns ``(presentation, carry)``.
    """
    rels = [r for r in (cyclic_reduce(r)[0] for r in p.relators) if r]
    carry = [tuple(w) for w in carry]
    alive = [True] * p.ngens  # generators keep their numbers until the end
    while True:
        target = None
        # a stable sort by length keeps equal lengths in list order
        for i in sorted(range(len(rels)), key=list(map(len, rels)).__getitem__):
            rel = rels[i]
            if len(rel) - 1 > MAX_SUB_LEN:
                break
            gens = list(map(abs, rel))
            grow = len(rel) - 2  # the letters each g^+-1 gains
            pos = next((k for k, x in enumerate(gens) if gens.count(x) == 1
                        and all(len(w) + grow * (w.count(x) + w.count(-x)) <= MAX_WORD_LEN
                                for w in rels + carry)), None)
            if pos is not None:
                target = i, pos
                break
        if target is None:
            break
        i, pos = target
        rel = rels.pop(i)
        # rel = u g^e v = 1 with e = +-1, so g^e = (v u)^-1
        a = abs(rel[pos])
        vu = rel[pos + 1:] + rel[:pos]
        image = {a: inverse(vu), -a: vu} if rel[pos] > 0 else {a: vu, -a: inverse(vu)}
        alive[a - 1] = False

        def eliminate(w):
            out = []
            for x in w:
                for y in image.get(x, (x,)):
                    if out and out[-1] == -y:
                        out.pop()
                    else:
                        out.append(y)
            return tuple(out)

        rels = [cyclic_reduce(eliminate(r))[0] if a in r or -a in r else r
                for r in rels]
        rels = [r for r in rels if r]
        carry = [eliminate(w) if a in w or -a in w else w for w in carry]
    kept = [g for g in range(p.ngens) if alive[g]]
    if len(kept) < p.ngens:
        new = {}
        for k, g in enumerate(kept, 1):
            new[g + 1], new[-g - 1] = k, -k
        rels = [tuple(map(new.__getitem__, r)) for r in rels]
        carry = [tuple(map(new.__getitem__, w)) for w in carry]
    return Presentation(tuple(p.generators[g] for g in kept), tuple(rels)), carry


def cover_presentation(p: Presentation, table: CosetTable,
                       carry: Sequence[Word] = ()):
    """The simplified presentation of the subgroup with coset table
    ``table``: Reidemeister-Schreier, then Tietze.

    ``carry`` words must lie in the subgroup; they come back re-expressed in
    the simplified generators.  Returns ``(presentation, carried words)``.
    """
    raw, edge_index = reidemeister_schreier(p, table)
    return tietze_simplify(raw, [rewrite_word(table, edge_index, w) for w in carry])


# ---------------------------------------------------------------------------
# low-index subgroup enumeration


class _ClassKeys:
    """Takes the tables of a search by ``append`` as it finds them, and
    keeps ``keys``, one ``(degree, flat form)`` per conjugacy class, as
    ``subgroup_classes`` describes; ``len`` is the number of tables taken,
    each the only one of its class if ``least``."""

    def __init__(self, least=False):
        self.keys, self.taken, self.pending = [], 0, None if least else set()

    def __len__(self):
        return self.taken

    def append(self, table):
        # flats of different degrees differ in length, so a flat names its pair
        self.taken += 1
        d, flat = table
        # a table found is canonical: its own rebasing at coset 0
        if self.pending is None:
            # a rebasing's flat form starts with 0 just when g1 fixes its
            # base, so the least is at such a base when g1 fixes any coset
            fixed = [c for c, t in enumerate(flat[:d]) if c == t]
            bases = [c for c in fixed if c] if fixed else range(1, d)
            self.keys.append((d, min([flat, *_rebasings(d, flat, bases)])))
            return
        if flat in self.pending:
            self.pending.remove(flat)
            return
        orbit = set(_rebasings(d, flat, range(1, d)))
        orbit.add(flat)
        self.keys.append((d, min(orbit)))
        orbit.remove(flat)
        self.pending |= orbit


def subgroup_classes(p: Presentation, max_index: int,
                     node_budget: Optional[list] = None):
    """One canonical coset table per conjugacy class of subgroups of index
    at most ``max_index``, in deterministic order, and whether the search
    stopped short of them.

    ``node_budget`` is a one-element list of the DFS nodes the search may
    visit, decremented in place, so that searches handed the same list
    share one bound; None: unbounded.

    The orbit of a table, its rebasings at every coset, is the set of
    tables of its class, and its least flat form represents the class.  An
    unbounded search runs in least mode: one table per class, so memory is
    one key per class, sought only at the cosets g1 fixes, if any.  A
    budgeted one yields each subgroup once, so the class is kept at its
    first member and the others are set aside until they come up: memory is
    also one flat tuple per conjugate not met yet.
    """
    if max_index < 1:
        raise ValueError("max_index must be >= 1")
    if node_budget is None:
        found, truncated = _search_tables(p, max_index, None, _ClassKeys(least=True),
                                          least=True)
    else:
        found, truncated = _search_tables(p, max_index, node_budget, _ClassKeys())
    return [_from_flat(d, flat) for d, flat in sorted(found.keys)], truncated


def low_index_subgroups(p: Presentation, max_index: int) -> list:
    """The classes of ``subgroup_classes`` from an unbounded search."""
    return subgroup_classes(p, max_index)[0]


def index_two_classes(p: Presentation):
    """The canonical tables of the index-2 subgroups, lazily, in flat order:
    the kernels of the nonzero maps onto Z/2, with no coset search.

    A map is a bit vector, generator g at bit n-1-g, so integer order is
    flat order; its table acts by (1, 0) on the generators sent to 1 and by
    (0, 1) on the rest.  The maps that kill every relator mod 2 form a
    space kept as a reduced echelon basis: each vector's leading bit is set
    in no other.  So a sum of basis vectors has the chosen vectors' leading
    bits, and counting through the choices in binary, the vector with the
    highest lead as the top bit, yields the maps in increasing order.
    """
    n = p.ngens
    basis = [1 << g for g in range(n)]
    for r in p.relators:
        odd = sum(1 << n - 1 - g for g, x in enumerate(exponent_vector(r, n)) if x % 2)
        hits = [b for b in basis if (b & odd).bit_count() % 2]
        if hits:
            # add the hit with the lowest lead to the other hits, so they
            # kill r too: it has no bit above its lead and none of their
            # leads, so each keeps its lead and the basis stays reduced
            pivot = min(hits)
            basis = [b ^ pivot if b in hits else b for b in basis if b != pivot]
    basis.sort()
    for c in range(1, 1 << len(basis)):
        v = 0
        for i, b in enumerate(basis):
            if c >> i & 1:
                v ^= b
        yield CosetTable(2, tuple((1, 0) if v >> n - 1 - g & 1 else (0, 1)
                                  for g in range(n)))


# the most relator scan entries a search compiles: 2L(L - 1) per L-letter relator
MAX_SCAN_ENTRIES = 2_000_000


def _least_so_far(tab: list, nd: int, degree: int) -> bool:
    """Whether no rebasing at a coset b > 0 of the first ``degree`` rows of
    ``tab`` is smaller than they are so far: each is walked in scan order
    against ``tab``, cell by cell as row offsets, to the first cell that
    differs; an unset cell in either leaves it undecided."""
    for c in range(1, degree):
        b = c * nd  # a row offset: no step of nd, which is 0 with no generators
        if tab[b] is None or (tab[b] == b) != (tab[0] == 0):  # the first cells differ
            if tab[b] == b:  # 0 in the rebasing
                return False
            continue
        new, order = {b: 0}, [b]
        for k in range(degree * nd):
            t, u = tab[order[k // nd] + k % nd], tab[k]
            if t is None or u is None:
                break
            x = new.get(t)
            if x is None:
                x = new[t] = len(order) * nd
                order.append(t)
            if x != u:
                if x < u:
                    return False
                break
    return True


def _search_tables(p: Presentation, max_index: int, node_budget=None,
                   results=None, *, least=False):
    """All complete closed tables in scan-order numbering, one per subgroup
    of index <= max_index (with ``least``, one per conjugacy class), in
    search order, each as a pair ``(degree, flat)`` in the form of
    ``CosetTable.flat``, and whether the search was cut short.  Each pair
    goes to ``results.append`` as soon as it is found, ``results`` a new
    list when None, and ``(results, truncated)`` comes back.
    ``node_budget``, an optional one-element list of the DFS nodes left, is
    decremented by the nodes visited; an empty one returns ``(results,
    True)`` before any relator is compiled, and relator scans of more than
    ``MAX_SCAN_ENTRIES`` entries raise BoundExceeded before any is.

    The partial table is one flat list: with ``nd = 2 * ngens`` directions
    (g1, g1^-1, g2, ...), cell ``c*nd + d`` holds the row offset ``e*nd``
    of the coset that direction d leads to from coset c, or None; rows are
    added as cosets open.  Each node fills its hole, the first empty cell,
    and propagation fills only empty cells, all after it; so along the DFS
    path, a stack, every cell before the hole stays filled.

    Propagation computes the least closure of the table under one rule: a
    relator cycle with one missing edge forces that edge.  It stops at a
    contradiction: a complete cycle that does not close, or a forced edge
    whose reverse cell is taken.  Every edge it sets is forced, and when it
    stops without one no cycle has one missing edge; so the closure is
    unique, and the order of queue and scans changes no node and no table.

    A complete table is closed under the relators with no further check.
    Every edge is set with its reverse, and both half-edges are queued.  Of
    any relator cycle at any coset, some edge is set last; when one of its
    half-edges is popped, the scan of the rotation that starts there walks
    the whole cycle, every edge set by then, and fails unless it closes.

    With ``least``, ``_least_so_far`` (Sims's canonicity test, *Computation
    with Finitely Presented Groups*, 1994, ch. 5) runs at each candidate that
    opens a coset and at each complete table.  A rebasing it finds smaller
    stays smaller in every completion, which keeps each cell walked: an
    opening is undone like a contradiction, and a complete table is not
    handed on, though its node counts.  So the least table of each class,
    by cells in scan order, is handed on, once.
    """
    if results is None:
        results = []
    if node_budget is not None and node_budget[0] <= 0:
        return results, True
    nd = 2 * p.ngens
    rel_dirs = list(dict.fromkeys(tuple(2 * (abs(lt) - 1) + (lt < 0) for lt in r)
                                  for r in p.relators if r))
    entries = sum(2 * len(r) * (len(r) - 1) for r in rel_dirs)
    if entries > MAX_SCAN_ENTRIES:
        raise BoundExceeded(f"relator scans of {entries} entries exceed {MAX_SCAN_ENTRIES}")
    # per direction, one scan per distinct relator rotation starting with it,
    # shortest relators first: the rest of the rotation read on from the
    # edge's target and, reversed and inverted, back from its source, as
    # slices of pairs (direction, place in the relator written twice)
    scans = [{} for _ in range(nd)]
    for dirs in sorted(rel_dirs, key=len):
        n = len(dirs)
        twice = dirs + dirs
        fwd = tuple(zip(twice, range(2 * n)))
        back = tuple(zip([d ^ 1 for d in reversed(twice)], range(2 * n - 1, -1, -1)))
        for k in range(n):
            scans[dirs[k]].setdefault(twice[k + 1:k + n],
                                      (fwd[k + 1:k + n], back[n - k:2 * n - k - 1]))
    scans = [list(s.values()) for s in scans]
    tab = [None] * (nd + 1)
    left = node_budget[0] if node_budget is not None else -1
    stack = []  # per node on the path: [hole, coset, dir, degree, candidates, cells set]
    pos, degree, undo = 0, 1, ()
    while left:
        left -= 1
        size = degree * nd
        h = tab.index(None, pos)
        if h == size:
            if not least or _least_so_far(tab, nd, degree):
                results.append((degree, tuple([e // nd for d in range(0, nd, 2)
                                               for e in tab[d:size:nd]])))
        elif degree < max_index and len(tab) == size + 1:
            tab += [None] * nd
        # candidates: each coset with no d^-1 edge yet, then a new coset
        # (its row is empty) while there is room for one; none at a leaf
        cands = () if h == size else iter(range(0, size + nd * (degree < max_index), nd))
        c, d = (h, 0) if h == size else (h - h % nd, h % nd)
        stack.append([h, c, d, degree, cands, undo])
        while True:
            di = d ^ 1
            for e in cands:
                if tab[e + di] is not None:
                    continue
                tab[h], tab[e + di] = e, c
                undo = [h, e + di]
                # propagate from half-edges (source, dir, target), the hole's first
                a, d0, f0 = e, di, c
                queue = [(c, d, e)]
                while True:
                    for fwd, back in scans[d0]:
                        f = f0
                        for x, m in fwd:
                            t = tab[f + x]
                            if t is None:
                                break
                            f = t
                        else:
                            if f != a:
                                break
                            continue
                        b = a
                        for y, i in back:
                            t = tab[b + y]
                            if t is None:
                                break
                            b = t
                        else:
                            break
                        if i < m:
                            break  # past the gap: two cosets would coincide
                        if i > m:
                            continue  # a second gap
                        tab[f + x], tab[b + y] = b, f  # the one missing edge f --x--> b
                        undo += (f + x, b + y)
                        queue += ((f, x, b), (b, y, f))
                    else:
                        if queue:
                            a, d0, f0 = queue.pop()
                            continue
                        break
                    for x in undo:  # a contradiction
                        tab[x] = None
                    break
                if tab[h] is not None:  # closed, not undone
                    if not least or e < degree * nd or _least_so_far(tab, nd, degree + 1):
                        break
                    for x in undo:  # no completion is the least of its class
                        tab[x] = None
            else:
                for x in stack.pop()[5]:
                    tab[x] = None
                if not stack:
                    break
                h, c, d, degree, cands, undo = stack[-1]
                continue
            pos, degree = h + 1, degree + (e == degree * nd)
            break
        if not stack:
            break  # the search is over
    if node_budget is not None:
        node_budget[0] = left
    return results, bool(stack)
