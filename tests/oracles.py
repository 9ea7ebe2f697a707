"""Reference implementations that only the tests use: group ring
arithmetic, integer matrix products and determinants, subgroup counts, the
Schreier generators of a coset table as words in the ambient group, a
cover's abelianization over the Schreier generators, the conjugated-power
match split by split, coset enumeration with its earlier closure probe,
Stallings folding in its earlier batch form, the low-index search in its
earlier recursive form, and the one-relator verdicts on two generators
built from the shapes they name."""

import json
from math import gcd

from largeness import subgroups
from largeness.abelian import AbelianInvariants
from largeness.stallings import StallingsGraph, uf_find
from largeness.subgroups import (BoundExceeded, CosetTable, canonical_rebase,
                                 low_index_subgroups)
from largeness.words import (concat, cyclic_reduce, free_reduce, inverse,
                             rotate)

# group ring elements: dict word -> nonzero integer coefficient


def gr_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        c2 = out.get(w, 0) + c
        if c2:
            out[w] = c2
        else:
            out.pop(w, None)
    return out


def gr_neg(a: dict) -> dict:
    return {w: -c for w, c in a.items()}


def gr_mul(a: dict, b: dict) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = concat(w1, w2)
            c = out.get(w, 0) + c1 * c2
            if c:
                out[w] = c
            else:
                out.pop(w, None)
    return out


def gr_one() -> dict:
    return {(): 1}


def mat_mul(a, b):
    if not a:
        return []
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def determinant(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def subgroup_count_by_index(p, max_index: int) -> dict:
    """Total number of subgroups (not classes) per index: each class has
    as many members as its table has distinct rebasings."""
    counts = {i: 0 for i in range(1, max_index + 1)}
    for table in low_index_subgroups(p, max_index):
        counts[table.degree] += len({canonical_rebase(table, b).flat()
                                     for b in range(table.degree)})
    return counts


def schreier_generators(table) -> list:
    """Per Schreier generator, in order of coset then generator: its edge
    (c, g) off the tree of first visits from coset 0, and its ambient word
    t_c g t_(c.g)^-1, with t_c the tree path to c.

    First visits follow the scan order: cosets in order of visit, directions
    g1, g1^-1, g2, g2^-1, ...; each inverse step is found by searching the
    permutation.  Raises ValueError when not every coset is reached.
    """
    path = {0: ()}
    tree = set()
    order = [0]
    for c in order:
        for g, perm in enumerate(table.action):
            for tgt, lt in ((perm[c], g + 1), (perm.index(c), -g - 1)):
                if tgt not in path:
                    path[tgt] = path[c] + (lt,)
                    tree.add((c, g) if lt > 0 else (tgt, g))
                    order.append(tgt)
    if len(order) != table.degree:
        raise ValueError("coset table is not transitive")
    return [((c, g), concat(path[c], (g + 1,), inverse(path[table.action[g][c]])))
            for c in range(table.degree) for g in range(len(table.action))
            if (c, g) not in tree]


def schreier_cover_abelianization(p, table):
    """``subgroups.cover_abelianization`` in its earlier form: Z to the
    Schreier generators of ``subgroups._edge_index``, modulo the exponent
    vectors of the relators rewritten by Reidemeister-Schreier, one per
    (relator, coset).  Raises what it raises."""
    inverse = subgroups._inverse_perms(table.action)
    edge_index = subgroups._edge_index(table, inverse)
    nsub = (len(table.action) - 1) * table.degree + 1
    # per letter, per coset: (next coset, column of the edge crossed or -1)
    moves = {}
    for g, (perm, ip, ids) in enumerate(zip(table.action, inverse, edge_index), 1):
        moves[g] = [(t, k - 1) for t, k in zip(perm, ids)]
        moves[-g] = [(t, ids[t] - 1) for t in ip]
    rows = []
    for r in p.relators:
        for start in range(table.degree):
            row = {}
            c = start
            for lt in r:
                c, k = moves[lt][c]
                if k >= 0:
                    row[k] = row.get(k, 0) + (1 if lt > 0 else -1)
            if c != start:
                raise ValueError("coset table is not closed under the relators")
            rows.append({k: x for k, x in row.items() if x})
    return AbelianInvariants.of_relations(rows, nsub)


def conjugated_power_by_splits(w):
    """``classify_conjugated_power`` in its earlier form: per rotation k and
    per |A| dividing n - 2, when the letter after A is g^-1, build A and B
    and compare B with A*c and with inverse(A)*c."""
    core, _ = cyclic_reduce(w)
    n = len(core)
    sizes = [m for m in range(1, n - 1) if (n - 2) % m == 0]
    core2 = core + core
    for k in range(n):
        for m in sizes:
            if core2[k + m + 1] != -core2[k]:
                continue
            a_part = core2[k + 1:k + m + 1]
            b_part = core2[k + m + 2:k + n]
            c = (n - 2) // m - 1
            if b_part == a_part * c:
                return {"exponent": -c, "amplitude": a_part}
            if b_part == inverse(a_part) * c:
                return {"exponent": c, "amplitude": a_part}
    return None


def probe_coset_enumerate(p, subgens):
    """``coset_enumerate`` in its earlier form: after each scan pass, trace
    the subgroup generators at the base and every relator at every live
    coset without defining cosets, and stop when all of them close.  Reads
    ``subgroups.MAX_COSETS`` at call time."""
    bound = subgroups.MAX_COSETS
    ndirs = 2 * p.ngens
    neighbors = []
    reps = []
    live_count = [0]

    def find(c):
        return uf_find(reps, c)

    def dir_of(lt):
        return 2 * (abs(lt) - 1) + (0 if lt > 0 else 1)

    def new_coset():
        if live_count[0] >= bound or len(reps) >= 16 * bound + 64:
            raise BoundExceeded(f"coset bound {bound} exceeded")
        reps.append(len(reps))
        neighbors.append([None] * ndirs)
        live_count[0] += 1
        return len(reps) - 1

    def unify(a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            reps[b] = a
            live_count[0] -= 1
            for d in range(ndirs):
                t = neighbors[b][d]
                if t is None:
                    continue
                if neighbors[a][d] is None:
                    neighbors[a][d] = t
                else:
                    stack.append((neighbors[a][d], t))

    def scan(c, w):
        for lt in w:
            c, d = find(c), dir_of(lt)
            if neighbors[c][d] is None:
                t = new_coset()
                neighbors[c][d] = t
                neighbors[t][d ^ 1] = c
            c = find(neighbors[c][d])
        return c

    def probe(c, w):
        c = find(c)
        for lt in w:
            t = neighbors[c][dir_of(lt)]
            if t is None:
                return None
            c = find(t)
        return c

    base = new_coset()
    for sg in subgens:
        unify(scan(base, sg), base)
    while True:
        visit = 0
        while visit < len(reps):
            if find(visit) == visit:
                for r in p.relators:
                    unify(scan(visit, r), visit)
            visit += 1
        closed = all(probe(find(base), sg) == find(base) for sg in subgens)
        if closed:
            closed = all(probe(c, r) == find(c)
                         for c in range(len(reps)) if find(c) == c
                         for r in p.relators)
        if closed:
            break
    live = sorted(i for i in range(len(reps)) if find(i) == i)
    index = {c: i for i, c in enumerate(live)}
    action = []
    for g in range(p.ngens):
        perm = []
        for c in live:
            t = neighbors[c][2 * g]
            if t is None:
                raise BoundExceeded("table incomplete after enumeration")
            perm.append(index[find(t)])
        action.append(tuple(perm))
    return canonical_rebase(CosetTable(len(live), tuple(action)), index[find(0)])


def batch_fold(generators):
    """``stallings.fold`` in its earlier form: lay each freely reduced word
    out as a loop of new vertices at the base, then merge, round by round,
    the targets of equal labels at a vertex, rebuilding the adjacency each
    round, and number the surviving vertices by their least original id."""
    edges = []  # (v, lt, w) with lt > 0
    nv = 1
    for w in generators:
        w = free_reduce(w)
        if not w:
            continue
        prev = 0
        for i, lt in enumerate(w):
            tgt = 0 if i == len(w) - 1 else nv + i
            edges.append((prev, lt, tgt) if lt > 0 else (tgt, -lt, prev))
            prev = tgt
        nv += len(w) - 1
    parent = list(range(nv))

    def find(v):
        return uf_find(parent, v)

    work = edges
    while True:
        adj = {}
        pending = []
        for v, lt, w in work:
            v, w = find(v), find(w)
            for src, lab, dst in ((v, lt, w), (w, -lt, v)):
                cur = adj.setdefault(src, {})
                if lab in cur and find(cur[lab]) != dst:
                    pending.append((cur[lab], dst))
                else:
                    cur[lab] = dst
        if not pending:
            break
        for a, b in pending:
            a, b = find(a), find(b)
            if a != b:
                parent[max(a, b)] = min(a, b)
        work = list(dict.fromkeys((find(v), lt, find(w)) for v, lt, w in work))
    final = sorted({(find(v), lt, find(w)) for v, lt, w in work})
    verts = sorted({x for v, _, w in final for x in (v, w)} | {find(0)})
    index = {v: i for i, v in enumerate(verts)}
    adj = [dict() for _ in verts]
    for v, lt, w in final:
        adj[index[v]][lt] = index[w]
        adj[index[w]][-lt] = index[v]
    return StallingsGraph(len(verts), tuple(adj), index[find(0)])


def search_tables(p, max_index: int, node_budget=None):
    """``subgroups._search_tables`` in its earlier form: a recursive DFS
    on a table of ``max_index`` rows made up front, whose back read takes
    the slice of the letters after the forward read's gap and checks the
    reverse cell of a deduced edge on its own.  Same arguments, result and
    budget decrement."""
    if node_budget is not None and node_budget[0] <= 0:
        return [], True
    nd = 2 * p.ngens
    rel_dirs = list(dict.fromkeys(tuple(2 * (abs(lt) - 1) + (lt < 0) for lt in r)
                                  for r in p.relators if r))
    # per direction, one scan per distinct relator rotation that starts with
    # it, so a new edge only triggers scans of cycles that actually cross it:
    # the rest of the rotation, read on from the edge's target, as pairs
    # (direction, m) with m the letters after that direction; and the rest
    # reversed and inverted, read back from the edge's source for the m
    # letters after the gap where the forward read stopped
    scans = [{} for _ in range(nd)]
    pairs = {}  # one tuple per distinct pair, shared by all rotations
    for dirs in rel_dirs:
        n = len(dirs)
        for k in range(n):
            rot = dirs[k:] + dirs[:k]
            fwd = tuple(pairs.setdefault(x, x)
                        for x in zip(rot[1:], range(n - 2, -1, -1)))
            if fwd not in scans[rot[0]]:
                scans[rot[0]][fwd] = tuple(d ^ 1 for d in reversed(rot[1:]))
    scans = [list(s.items()) for s in scans]
    # the cell past the last row stays empty, so a hole is always found
    tab = [None] * (max_index * nd + 1)

    def propagate(queue, undo):
        """Scan relator cycles crossing newly set half-edges (source, dir,
        target); False on contradiction.  Deductions are queued too."""
        while queue:
            a, d0, f0 = queue.pop()
            for fwd, back in scans[d0]:
                f = f0
                for d, m in fwd:
                    t = tab[f + d]
                    if t is None:
                        break
                    f = t
                else:
                    if f != a:
                        return False
                    continue
                b = a
                for e in back[:m]:
                    t = tab[b + e]
                    if t is None:
                        break
                    b = t
                else:
                    # the traces meet at one missing edge f --d--> b; if b
                    # has a d^-1 edge already, two cosets would coincide
                    e = d ^ 1
                    if tab[b + e] is not None:
                        return False
                    tab[f + d] = b
                    tab[b + e] = f
                    undo += (f + d, b + e)
                    queue += ((f, d, b), (b, e, f))
        return True

    results = []
    truncated = [False]

    def dfs(pos, degree):
        if node_budget is not None:
            if node_budget[0] <= 0:
                truncated[0] = True
                return
            node_budget[0] -= 1
        size = degree * nd
        h = tab.index(None, pos)
        if h >= size:
            results.append((degree, tuple([e // nd for d in range(0, nd, 2)
                                           for e in tab[d:size:nd]])))
            return
        d = h % nd
        c, di = h - d, d ^ 1
        # candidates: each coset with no di edge yet, then a new coset (its
        # row is empty) while there is room for one
        for e in range(0, size + nd if degree < max_index else size, nd):
            if tab[e + di] is not None:
                continue
            tab[h] = e
            tab[e + di] = c
            undo = [h, e + di]
            if propagate([(c, d, e), (e, di, c)], undo):
                dfs(h + 1, degree + (e == size))
            for x in undo:
                tab[x] = None

    dfs(0, 1)
    return results, truncated[0]


def one_relator_verdicts(max_len: int) -> dict:
    """The one-relator verdicts of ``< a, b | r >`` for every relator r of
    at most ``max_len`` letters that has a syntactic shape, built from the
    shapes rather than matched against them.

    The shapes, each taken with every rotation of itself and of its
    inverse: a single letter (Z, "cyclic" of infinite order); the
    commutator [x, y] of letters of distinct generators (Z x Z); and
    x^n y^l x^-n y^-m for distinct generators x, y, n >= 1 and l, m nonzero,
    which is large when n > 1 or gcd(l, m) > 1 and else "BS_coprime".  A
    commutator relator is cited as Z x Z, not as BS(1, 1).  Maps r to
    ``(status, texts)``: the JSON texts, keys sorted, of the citations or
    ``cited_family`` data that describe it; a relator of the last shape has
    one text per description (x, y, n, l, m) it has.
    """
    names = ("a", "b")
    out, first = {}, {}

    def add(into, word, status, obj):
        text = json.dumps(obj, sort_keys=True)
        for w in (word, inverse(word)):
            for k in range(len(w)):
                into.setdefault(rotate(w, k), (status, set()))[1].add(text)

    for x, y in ((1, 2), (2, 1)):
        for n in range(1, max_len // 2):
            for l in range(-max_len, max_len + 1):
                for m in range(-max_len, max_len + 1):
                    if not l or not m or 2 * n + abs(l) + abs(m) > max_len:
                        continue
                    word = ((x,) * n + (y if l > 0 else -y,) * abs(l)
                            + (-x,) * n + (-y if m > 0 else y,) * abs(m))
                    if n > 1 or gcd(l, m) > 1:
                        add(out, word, "LARGE", {
                            "relator_index": 0, "n": n, "l": l, "m": m,
                            "conj_gen": names[x - 1], "base_gen": names[y - 1]})
                    else:
                        add(out, word, "NOT_LARGE_KNOWN",
                            {"reason": "BS_coprime", "l": l, "m": m})
    letters = (1, -1, 2, -2)
    for x in letters:
        add(first, (x,), "NOT_LARGE_KNOWN", {"reason": "cyclic", "order": "infinite"})
        for y in letters:
            if abs(x) != abs(y):
                add(first, (x, y, -x, -y), "NOT_LARGE_KNOWN", {"reason": "ZxZ"})
    out.update(first)
    return out
