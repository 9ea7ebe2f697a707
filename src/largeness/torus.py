"""Free-group endomorphisms, mapping tori, and their largeness pipelines.

The mapping torus of an endomorphism of F_n is the deficiency 1 group
< x_1..x_n, t | t x_i t^-1 = theta(x_i) >.  Given a user-supplied periodic
conjugacy witness theta^i(w) ~ w^k, the pipelines pass to a finite-index
subgroup built from a stable pullback of a finite-index overgroup of w and
certify largeness there, or report a cited non-large family or UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .alexander import PrimeField, QQ, prime_factors, rank_witness
from .certify import (Certificate, CertifyConfig, ChainLink, LARGE,
                      NOT_LARGE_KNOWN, UNKNOWN, Verdict, decide, replayed,
                      search_classes, solve_chi_killing)
from .stallings import (StallingsGraph, fold, graph_basis, hall_overgroup,
                        is_covering, pin_loop_basis, rank, sg_express,
                        sg_membership)
from .subgroups import (BoundExceeded, canonical_rebase, coset_enumerate,
                        cover_presentation)
from .words import (MAX_WORD_LEN, Presentation, Word, concat,
                    conjugator_between, default_names, free_reduce, inverse,
                    is_proper_power, letter, power, substitute)


@dataclass(frozen=True)
class Endomorphism:
    """Images of the free generators x_1..x_n under an endomorphism."""

    images: tuple  # Word per generator
    names: tuple = ()

    def __post_init__(self):
        if not self.names:
            object.__setattr__(self, "names", default_names(self.rank))
        if len(self.names) != self.rank:
            raise ValueError("one name per generator required")
        for img in self.images:
            if img != free_reduce(img):
                raise ValueError("images must be freely reduced")

    @property
    def rank(self) -> int:
        return len(self.images)


def endo_apply(e: Endomorphism, w: Word, power_: int = 1) -> Word:
    """theta^power(w), freely reduced."""
    if power_ < 0:
        raise ValueError("power must be >= 0")
    for _ in range(power_):
        w = substitute(w, e.images)
    return w


def endo_power(e: Endomorphism, j: int) -> Endomorphism:
    imgs = tuple(endo_apply(e, (letter(i),), j) for i in range(e.rank))
    return Endomorphism(imgs, e.names)


def endo_compose_inner(e: Endomorphism, v: Word) -> Endomorphism:
    """x -> v^-1 . e(x) . v   (undoes conjugation by v on the left)."""
    imgs = tuple(concat(inverse(v), img, v) for img in e.images)
    return Endomorphism(imgs, e.names)


def endo_is_injective(e: Endomorphism) -> bool:
    """Injective exactly when the folded image subgroup has full rank."""
    g = fold(e.images)
    return rank(g) == e.rank


def stable_letter_name(names) -> str:
    for cand in ("t", "s", "u"):
        if cand not in names:
            return cand
    i = 0
    while f"t{i}" in names:
        i += 1
    return f"t{i}"


def mapping_torus(e: Endomorphism) -> Presentation:
    """< x_1..x_n, t | t x_i t^-1 theta(x_i)^-1 >, deficiency 1."""
    n = e.rank
    t = letter(n)
    rels = tuple(free_reduce((t, letter(i), -t) + inverse(e.images[i]))
                 for i in range(n))
    return Presentation(e.names + (stable_letter_name(e.names),), rels)


def preimage_subgroup(e: Endomorphism, cover: StallingsGraph) -> StallingsGraph:
    """Graph of theta^-1(F): the stabilizer of the base coset under the
    action gamma -> (theta(gamma) acting on cosets of F)."""
    n = e.rank
    if not is_covering(cover, n):
        raise ValueError("preimage needs a finite-index (covering) graph")

    def act(v, w):
        for lt in w:
            v = cover.adj[v][lt]
        return v

    order = [cover.base]
    index = {cover.base: 0}
    adj = [dict()]
    pos = 0
    while pos < len(order):
        v = order[pos]
        for g in range(n):
            tgt = act(v, e.images[g])
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
                adj.append({})
            adj[pos][letter(g)] = index[tgt]
            adj[index[tgt]][-letter(g)] = pos
        pos += 1
    out = StallingsGraph(len(order), tuple(adj), 0)
    if out.nvertices > cover.nvertices:
        raise RuntimeError("preimage index must not grow")
    return out


# the most preimages a stable pullback takes before it gives up
MAX_PULLBACKS = 64


def stable_pullback(e: Endomorphism, cover: StallingsGraph):
    """Iterate preimages until a subgroup repeats: returns (Delta, j) with
    theta^j(Delta) <= Delta, verified on every basis element."""
    if not endo_is_injective(e):
        raise ValueError("stable pullback needs an injective endomorphism")
    seen = {}
    history = []
    cur = cover
    for step in range(MAX_PULLBACKS + 1):
        key = cur.canonical_key()
        if key in seen:
            a = seen[key]
            j = step - a
            delta = history[a]
            for b in graph_basis(delta):
                if not sg_membership(delta, endo_apply(e, b, j)):
                    raise RuntimeError("pullback postcondition failed")
            return delta, j
        seen[key] = step
        history.append(cur)
        cur = preimage_subgroup(e, cur)
    raise BoundExceeded(f"no repetition within {MAX_PULLBACKS} pullbacks")


@dataclass(frozen=True)
class PeriodicWitness:
    """Asserts theta^i(w) = v w^k v^-1; verified, never assumed."""

    w: Word
    i: int
    v: Word
    k: int

    def __post_init__(self):
        if not self.w:
            raise ValueError("witness word must be nonempty")
        if self.i < 1:
            raise ValueError("witness power i must be >= 1")
        if self.k == 0:
            raise ValueError("witness exponent k must be nonzero")


# the largest witness power i that ``witness_verify`` replays
MAX_WITNESS_POWER = 64


def witness_verify(e: Endomorphism, wit: PeriodicWitness) -> bool:
    """Whether theta^i(w) = v w^k v^-1.  ValueError, before the word is
    built, when i is above MAX_WITNESS_POWER, or when v w^k v^-1, or some
    theta^j(w), j <= i, before free reduction, needs more than
    MAX_WORD_LEN letters."""
    if wit.i > MAX_WITNESS_POWER:
        raise ValueError(f"witness power {wit.i} is above the bound {MAX_WITNESS_POWER}")
    if len(wit.w) * abs(wit.k) + 2 * len(wit.v) > MAX_WORD_LEN:
        raise ValueError(f"v w^k v^-1 is longer than {MAX_WORD_LEN} letters")
    # a letter with no image counts 0 here; substitute refuses it
    sizes = {s * (g + 1): len(img) for g, img in enumerate(e.images) for s in (1, -1)}
    lhs = wit.w
    for j in range(1, wit.i + 1):
        if sum(sizes.get(lt, 0) for lt in lhs) > MAX_WORD_LEN:
            raise ValueError(f"theta^{j}(w) needs more than {MAX_WORD_LEN} letters")
        lhs = substitute(lhs, e.images)
    return lhs == concat(wit.v, power(wit.w, wit.k), inverse(wit.v))


# ---------------------------------------------------------------------------
# primitivity fallback: bounded Whitehead-style search


def _whitehead_autos(r: int):
    """Type II Whitehead automorphisms of F_r, lazily, each as a pair of
    image tuples: the move and its inverse.

    The move given by the letter a and the letter set S sends x_g to
    a^-1 x_g a, with the left factor only when x_g^-1 is in S and the right
    one only when x_g is in S; the move given by a^-1 and S undoes it.
    """
    letters = [x for g in range(1, r + 1) for x in (g, -g)]

    def move(a, s):
        imgs = []
        for g in range(1, r + 1):
            if g == abs(a):
                imgs.append((g,))
                continue
            left = (-a,) if -g in s else ()
            right = (a,) if g in s else ()
            imgs.append(free_reduce(left + (g,) + right))
        return tuple(imgs)

    for a in letters:
        others = [x for x in letters if x != a and x != -a]
        for size in range(1, len(others) + 1):
            for extra in combinations(others, size):
                imgs = move(a, set(extra))
                if any(img != (g + 1,) for g, img in enumerate(imgs)):
                    yield imgs, move(-a, set(extra))


# the most Whitehead moves the primitivity search tries
WHITEHEAD_BUDGET = 10000


def whitehead_primitive_basis(graph: StallingsGraph, w: Word) -> Optional[list]:
    """A free basis (as ambient words) of the subgroup containing ``w``,
    found by greedy Whitehead reduction of at most ``WHITEHEAD_BUDGET``
    moves; None when the budget runs out or w is not primitive in the
    subgroup."""
    base_words = graph_basis(graph)
    r = len(base_words)
    if r == 0:
        return None
    coords = sg_express(graph, w)
    if coords is None:
        return None
    applied = []
    cur = coords
    spent = 0
    improved = True
    while len(cur) > 1 and improved and spent < WHITEHEAD_BUDGET:
        improved = False
        for imgs, inv in _whitehead_autos(r):
            spent += 1
            if spent >= WHITEHEAD_BUDGET:
                break
            cand = substitute(cur, imgs)
            if len(cand) < len(cur):
                cur = cand
                applied.append(inv)
                improved = True
                break
    if len(cur) != 1:
        return None
    # undo the moves on the standard basis to get a basis containing w
    basis_coords = [(letter(i),) for i in range(r)]
    for inv in reversed(applied):
        basis_coords = [substitute(b, inv) for b in basis_coords]
    j = abs(cur[0]) - 1
    if cur[0] < 0:
        basis_coords[j] = inverse(basis_coords[j])
    # check: the rebuilt coordinates of w must be exactly basis element j
    ambient = [free_reduce(substitute(b, base_words)) for b in basis_coords]
    if ambient[j] != w:
        return None
    check = fold(ambient)
    if check.canonical_key() != graph.canonical_key():
        return None
    return ambient


# ---------------------------------------------------------------------------
# pipelines


def _subgroup_setup(e: Endomorphism, wit: PeriodicWitness, diags: list):
    """Shared construction: conjugate the witness away, reduce to the root,
    build the stable pullback, and pin w into a basis of Delta.

    Returns (s1, delta_basis_words, w, exponent, j), or None when a bound
    is hit; either way the steps taken are appended to ``diags``.
    """
    w, i, v, k = wit.w, wit.i, wit.v, wit.k
    # refuse theta^i below (theta^2i and theta^i(v) when k = -1) past MAX_WORD_LEN
    sizes = [1] * e.rank
    for j in range(1, (2 * i if k == -1 else i) + 1):
        sizes = [sum(sizes[abs(lt) - 1] for lt in img) for img in e.images]
        if max(sizes) > MAX_WORD_LEN or (
                k == -1 and j == i and sum(sizes[abs(lt) - 1] for lt in v) > MAX_WORD_LEN):
            diags.append(f"theta^{j} needs more than {MAX_WORD_LEN} letters")
            return None
    if k == -1:
        # square the witness: theta^2i(w) = theta^i(v) v w v^-1 theta^i(v)^-1
        v = free_reduce(concat(endo_apply(e, v, i), v))
        i, k = 2 * i, 1
        diags.append("negative unit exponent: witness squared to k = 1")
    root = is_proper_power(w)
    if root is not None:
        rho, d = root
        conj = conjugator_between(endo_apply(e, rho, i), power(rho, k))
        if conj is None:
            raise ValueError("witness root fails conjugacy; invalid witness")
        diags.append(f"witness word replaced by its root (exponent {d})")
        w, v = rho, conj
    phi = endo_compose_inner(endo_power(e, i), v)
    if endo_apply(phi, w, 1) != power(w, k):
        raise ValueError("conjugated witness fails verification")
    hall = hall_overgroup(w, e.rank)
    try:
        delta, j = stable_pullback(phi, hall)
    except BoundExceeded as exc:
        diags.append(f"stable pullback bound: {exc}")
        return None
    pinned = pin_loop_basis(delta, w)
    if pinned is not None:
        d_forced, d_flips = pinned
        basis = graph_basis(delta, d_forced, d_flips)
    else:
        basis = whitehead_primitive_basis(delta, w)
        if basis is None:
            diags.append(
                "primitivity of the witness word in the pulled-back subgroup "
                "not established within budget")
            return None
    if w not in basis:
        raise RuntimeError("the witness word is not in the subgroup basis")
    s1 = concat(inverse(v), power((letter(e.rank),), i))
    exponent = k ** j
    diags.append(
        f"pullback stabilized after period {j}; subgroup of rank {len(basis)} "
        f"with conjugation exponent {exponent}")
    return s1, basis, w, exponent, j


def _fields_for(e_eff: int) -> list:
    """Q when the conjugation exponent is 1, else F_q for each prime q
    dividing 1 - e; ValueError when ``prime_factors`` cannot factor 1 - e."""
    return [QQ] if e_eff == 1 else [PrimeField(q) for q in prime_factors(1 - e_eff)]


def torus_zz_pipeline(e: Endomorphism, wit: PeriodicWitness,
                      config: CertifyConfig = CertifyConfig()) -> Verdict:
    """Largeness for a mapping torus containing a commuting pair, from a
    verified witness with k = 1 or -1."""
    return _torus_pipeline(e, wit, config, want_unit=True)


def torus_bs_pipeline(e: Endomorphism, wit: PeriodicWitness,
                      config: CertifyConfig = CertifyConfig()) -> Verdict:
    """Largeness for a mapping torus containing a Baumslag-Solitar subgroup,
    from a verified witness with |k| >= 2."""
    return _torus_pipeline(e, wit, config, want_unit=False)


def _torus_pipeline(e: Endomorphism, wit: PeriodicWitness,
                    config: CertifyConfig, want_unit: bool) -> Verdict:
    if not (abs(wit.k) == 1 if want_unit else abs(wit.k) >= 2):
        need = "k = 1 or -1" if want_unit else "|k| >= 2"
        raise ValueError(f"this pipeline needs a witness exponent {need}")
    if not endo_is_injective(e):
        raise ValueError(
            "the endomorphism is not injective; replace it by an injective "
            "endomorphism of a smaller free group presenting the same "
            "mapping torus before calling the pipeline")
    if not witness_verify(e, wit):
        raise ValueError("witness fails verification")
    p0 = mapping_torus(e)
    if e.rank == 1:
        citation = decide(p0, config).citation
        name = "Z x Z" if citation["reason"] == "ZxZ" else "a soluble Baumslag-Solitar group"
        return Verdict(NOT_LARGE_KNOWN, None, citation,
                       (f"rank-1 base: the mapping torus is {name}",))

    diags = []
    setup = _subgroup_setup(e, wit, diags)
    if setup is None:
        return Verdict(UNKNOWN, None, None, tuple(diags))
    s1, basis, w, exponent, j = setup

    def vanishing(chain, pres, kill, fields, where):
        """The replayed LARGE verdict when a character of ``pres`` killing
        the words in ``kill`` has a vanishing Alexander invariant over one
        of ``fields``, else None."""
        chi = solve_chi_killing(pres, kill)
        hit = None if chi is None else rank_witness(pres, chi, fields)
        if hit is None:
            return None
        fld, witness = hit
        cert = Certificate("alexander_zero", p0, chain,
                           {"chi": list(chi.values), "field": fld.name, **witness})
        diags.append(f"{where} gives a vanishing Alexander invariant over {fld.name}")
        return replayed(p0, Verdict(LARGE, cert, None, tuple(diags)))

    tried = []
    first_link = None
    searched = []  # decide's own search of the d = 1 cover, if it ran one
    # cyclic covers <Delta, s^d>: the conjugation exponent is e^d, and the
    # d = 2 cover repairs the exponent-2 case, where 1 - e has no prime
    for d in range(1, max(2, config.max_index) + 1):
        e_eff = exponent ** d
        try:
            fields = _fields_for(e_eff)
        except ValueError as exc:
            tried.append(f"d={d}: |1-e| = {exc}")
            continue
        if not fields:
            tried.append(f"d={d}: |1-e| = {abs(1 - e_eff)} has no prime divisor")
            continue
        s_d = power(s1, j * d)
        try:
            table = coset_enumerate(p0, list(basis) + [s_d])
        except BoundExceeded as exc:
            tried.append(f"d={d}: coset enumeration bound ({exc})")
            continue
        pres, (w_expr, s_expr) = cover_presentation(p0, table, [w, s_d])
        chain = (ChainLink(table, pres),)
        if d == 1:
            first_link = (table, pres, w_expr, s_expr, fields)
        kill = [w_expr, s_expr] if e_eff == 1 else [s_expr]
        found = vanishing(chain, pres, kill, fields,
                          f"cover d={d}: character killing the pinned elements")
        if found is not None:
            return found
        names = ",".join(f.name for f in fields)
        tried.append(f"d={d}: no vanishing over {names}")
        if d == 1:
            child = decide(pres, config, searched=searched)
            if child.is_large:
                diags.extend(child.diagnostics[-1:])
                cert = child.certificate.lift(p0, chain)
                return replayed(p0, Verdict(LARGE, cert, None, tuple(diags)))
        if e_eff == 1:
            break  # larger cyclic covers cannot help the unit case
    # covers of the rewritten subgroup containing both pinned elements
    if first_link is not None:
        table, pres, w_expr, s_expr, fields = first_link
        # the same search as decide's own, from the same fresh cell
        classes, cut = (searched[0] if searched else
                        search_classes(pres, config.max_index, [config.li_nodes]))
        for sub_table in classes:
            if sub_table.degree < 2:
                continue
            base_ok = next(
                (b for b in range(sub_table.degree)
                 if sub_table.trace(b, w_expr) == b
                 and sub_table.trace(b, s_expr) == b), None)
            if base_ok is None:
                continue
            tab2 = canonical_rebase(sub_table, base_ok)
            pres2, carried2 = cover_presentation(pres, tab2, [w_expr, s_expr])
            kill = carried2 if exponent == 1 else [carried2[1]]
            chain = (ChainLink(table, pres), ChainLink(tab2, pres2))
            found = vanishing(chain, pres2, kill, fields,
                              f"cover of index {tab2.degree} of the pinned subgroup")
            if found is not None:
                return found
        note = f"; search truncated {cut}" if cut else ""
        diags.append(
            "no finite-index subgroup with first Betti number >= 2 "
            f"admitting the vanishing test found up to index {config.max_index}"
            f"{note}")
    diags.extend(tried)
    return Verdict(UNKNOWN, None, None, tuple(diags))
