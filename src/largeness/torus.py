"""Free-group endomorphisms, mapping tori, and their largeness pipelines.

The mapping torus of an endomorphism of F_n is the deficiency 1 group
< x_1..x_n, t | t x_i t^-1 = theta(x_i) >.  Given a user-supplied periodic
conjugacy witness theta^i(w) ~ w^k, the pipelines pass to a finite-index
subgroup built from a stable pullback of a finite-index overgroup of w and
certify largeness there, or report a cited non-large family or UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from .alexander import PrimeField, QQ, prime_factors, rank_witness
from .certify import (Certificate, CertifyConfig, ChainLink, LARGE,
                      NOT_LARGE_KNOWN, UNKNOWN, Verdict, decide, replayed,
                      solve_chi_killing)
from .stallings import (StallingsGraph, fold, graph_basis, hall_overgroup,
                        is_covering, pin_loop_basis, rank, sg_express,
                        sg_membership)
from .subgroups import (BoundExceeded, canonical_rebase, coset_enumerate,
                        cover_presentation, low_index_subgroups)
from .words import (Presentation, Word, concat, conjugator_between,
                    default_names, free_reduce, inverse, is_proper_power,
                    letter, power, substitute)


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
    for cand in ("t", "s", "u", "t0", "t1"):
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


def cyclic_cover(e: Endomorphism, j: int) -> Presentation:
    """Presentation of the index-j subgroup generated by the base group and
    the j-th power of the stable letter."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if j == 1:
        return mapping_torus(e)
    ej = endo_power(e, j)
    n = e.rank
    s = letter(n)
    rels = tuple(free_reduce((s, letter(i), -s) + inverse(ej.images[i]))
                 for i in range(n))
    name = "s" if "s" not in e.names else stable_letter_name(e.names + ("s",))
    return Presentation(e.names + (name,), rels)


def normal_form(e: Endomorphism, g: Word) -> tuple:
    """Write a mapping-torus element as t^-p gamma t^q with p, q >= 0.

    ``g`` uses letters 1..n for the base generators and n+1 for the stable
    letter; t-letters are pushed outward with t x t^-1 = theta(x).
    """
    if not endo_is_injective(e):
        raise ValueError("normal form needs an injective endomorphism")
    n = e.rank
    t = n + 1
    p = 0
    gamma: Word = ()
    qcount = 0
    for lt in g:
        if abs(lt) == t:
            if lt > 0:
                qcount += 1
            elif qcount > 0:
                qcount -= 1
            else:
                p += 1
                gamma = endo_apply(e, gamma, 1)
        else:
            gamma = concat(gamma, endo_apply(e, (lt,), qcount))
    return p, gamma, qcount


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


def stable_pullback(e: Endomorphism, cover: StallingsGraph, max_iter: int = 64):
    """Iterate preimages until a subgroup repeats: returns (Delta, j) with
    theta^j(Delta) <= Delta, verified on every basis element."""
    if not endo_is_injective(e):
        raise ValueError("stable pullback needs an injective endomorphism")
    seen = {}
    history = []
    cur = cover
    for step in range(max_iter + 1):
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
    raise BoundExceeded(f"no repetition within {max_iter} pullbacks")


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


def witness_verify(e: Endomorphism, wit: PeriodicWitness) -> bool:
    lhs = endo_apply(e, wit.w, wit.i)
    rhs = concat(wit.v, power(wit.w, wit.k), inverse(wit.v))
    return lhs == rhs


# ---------------------------------------------------------------------------
# primitivity fallback: bounded Whitehead-style search


def _whitehead_autos(r: int):
    """Type II Whitehead automorphisms of F_r as image tuples, lazily."""
    letters = [x for g in range(1, r + 1) for x in (g, -g)]
    for a in letters:
        others = [x for x in letters if x != a and x != -a]
        for size in range(1, len(others) + 1):
            for extra in combinations(others, size):
                s = set(extra)
                imgs = []
                for g in range(1, r + 1):
                    if g == abs(a):
                        imgs.append((g,))
                        continue
                    left = (-a,) if -g in s else ()
                    right = (a,) if g in s else ()
                    imgs.append(free_reduce(left + (g,) + right))
                if any(img != (g + 1,) for g, img in enumerate(imgs)):
                    yield tuple(imgs)


def _auto_inverse(imgs: tuple, r: int) -> Optional[tuple]:
    """Invert an automorphism given by images; the inverse of a Whitehead
    move has images of length <= 3, so a short brute-force search finds it.
    None when nothing short works (caller treats as failure)."""
    letters = [x for h in range(1, r + 1) for x in (h, -h)]
    inv = []
    for g in range(1, r + 1):
        found = None
        for cand_len in (1, 2, 3):
            for cand in product(letters, repeat=cand_len):
                w = free_reduce(cand)
                if substitute(w, imgs) == (g,):
                    found = w
                    break
            if found:
                break
        if found is None:
            return None
        inv.append(found)
    return tuple(inv)


def whitehead_primitive_basis(graph: StallingsGraph, w: Word,
                              budget: int = 10000) -> Optional[list]:
    """A free basis (as ambient words) of the subgroup containing ``w``,
    found by bounded greedy Whitehead reduction; None when the budget runs
    out or w is not primitive in the subgroup."""
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
    while len(cur) > 1 and improved and spent < budget:
        improved = False
        for imgs in _whitehead_autos(r):
            spent += 1
            if spent >= budget:
                break
            cand = substitute(cur, imgs)
            if len(cand) < len(cur):
                cur = cand
                applied.append(imgs)
                improved = True
                break
    if len(cur) != 1:
        return None
    # undo the moves on the standard basis to get a basis containing w
    basis_coords = [(letter(i),) for i in range(r)]
    for imgs in reversed(applied):
        inv = _auto_inverse(imgs, r)
        if inv is None:
            return None
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


def _subgroup_setup(e: Endomorphism, wit: PeriodicWitness, config: CertifyConfig):
    """Shared construction: conjugate the witness away, reduce to the root,
    build the stable pullback, and pin w into a basis of Delta.

    Returns (p0, s1, delta_basis_words, w, exponent, j, diags) or an
    UNKNOWN verdict when a bound is hit.
    """
    diags = []
    p0 = mapping_torus(e)
    w, i, v, k = wit.w, wit.i, wit.v, wit.k
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
    hall, _, _ = hall_overgroup(w, e.rank)
    try:
        delta, j = stable_pullback(phi, hall, config.pull_iters)
    except BoundExceeded as exc:
        diags.append(f"stable pullback bound: {exc}")
        return None, None, None, None, None, None, diags
    pinned = pin_loop_basis(delta, w)
    if pinned is not None:
        d_forced, d_flips = pinned
        basis = graph_basis(delta, d_forced, d_flips)
    else:
        basis = whitehead_primitive_basis(delta, w, config.whitehead_budget)
        if basis is None:
            diags.append(
                "primitivity of the witness word in the pulled-back subgroup "
                "not established within budget")
            return None, None, None, None, None, None, diags
    if w not in basis:
        raise RuntimeError("the witness word is not in the subgroup basis")
    s1 = concat(inverse(v), power((letter(e.rank),), i))
    exponent = k ** j
    diags.append(
        f"pullback stabilized after period {j}; subgroup of rank {len(basis)} "
        f"with conjugation exponent {exponent}")
    return p0, s1, basis, w, exponent, j, diags


def _fields_for(e_eff: int) -> list:
    """Q when the conjugation exponent is 1, else F_q for each prime q
    dividing 1 - e."""
    return [QQ] if e_eff == 1 else [PrimeField(q) for q in prime_factors(1 - e_eff)]


def _targeted_chi_cert(p0, chain, pres, kill, fields) -> Optional[Certificate]:
    chi = solve_chi_killing(pres, kill)
    if chi is None:
        return None
    hit = rank_witness(pres, chi, fields)
    if hit is None:
        return None
    fld, witness = hit
    return Certificate("alexander_zero", p0, chain,
                       {"chi": list(chi.values), "field": fld.name, **witness})


def _rank_one_citation(e: Endomorphism, k: int):
    img = e.images[0]
    m = len(img) if img and all(lt == 1 for lt in img) else None
    if img == (1,) and k == 1:
        return {"reason": "ZxZ"}
    return {"reason": "BS_coprime", "l": 1,
            "m": m if m is not None else -len(img)}


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
    if want_unit and abs(wit.k) != 1:
        raise ValueError("this pipeline needs a witness exponent k = 1 or -1")
    if not want_unit and abs(wit.k) < 2:
        raise ValueError("this pipeline needs a witness exponent |k| >= 2")
    if not endo_is_injective(e):
        raise ValueError(
            "the endomorphism is not injective; replace it by an injective "
            "endomorphism of a smaller free group presenting the same "
            "mapping torus before calling the pipeline")
    if not witness_verify(e, wit):
        raise ValueError("witness fails verification")
    p0 = mapping_torus(e)
    if e.rank == 1:
        citation = _rank_one_citation(e, wit.k)
        name = "Z x Z" if citation["reason"] == "ZxZ" else "a soluble Baumslag-Solitar group"
        return Verdict(NOT_LARGE_KNOWN, None, citation,
                       (f"rank-1 base: the mapping torus is {name}",))

    _, s1, basis, w, exponent, j, diags = _subgroup_setup(e, wit, config)
    if basis is None:
        return Verdict(UNKNOWN, None, None, tuple(diags))

    tried = []
    first_link = None
    # cyclic covers <Delta, s^d>: the conjugation exponent is e^d, and the
    # d = 2 cover repairs the exponent-2 case, where 1 - e has no prime
    for d in range(1, max(2, config.max_index) + 1):
        e_eff = exponent ** d
        fields = _fields_for(e_eff)
        if not fields:
            tried.append(f"d={d}: |1-e| = {abs(1 - e_eff)} has no prime divisor")
            continue
        s_d = power(s1, j * d)
        try:
            table = coset_enumerate(p0, list(basis) + [s_d], config.max_cosets)
        except BoundExceeded as exc:
            tried.append(f"d={d}: coset enumeration bound ({exc})")
            continue
        pres, (w_expr, s_expr) = cover_presentation(p0, table, [w, s_d])
        chain = (ChainLink(table, pres),)
        if d == 1:
            first_link = (table, pres, w_expr, s_expr)
        kill = [w_expr, s_expr] if e_eff == 1 else [s_expr]
        cert = _targeted_chi_cert(p0, chain, pres, kill, fields)
        if cert is not None:
            diags.append(
                f"cover d={d}: character killing the pinned elements gives a "
                f"vanishing Alexander invariant over {cert.data['field']}")
            return replayed(p0, Verdict(LARGE, cert, None, tuple(diags)))
        names = ",".join(f.name for f in fields)
        tried.append(f"d={d}: no vanishing over {names}")
        if d == 1:
            child = decide(pres, config)
            if child.is_large:
                diags.extend(child.diagnostics[-1:])
                cert = child.certificate.lift(p0, chain)
                return replayed(p0, Verdict(LARGE, cert, None, tuple(diags)))
        if e_eff == 1:
            break  # larger cyclic covers cannot help the unit case
    # covers of the rewritten subgroup containing both pinned elements
    if first_link is not None:
        table, pres, w_expr, s_expr = first_link
        e_eff = exponent
        fields = _fields_for(e_eff)
        if fields:
            for sub_table in low_index_subgroups(pres, config.max_index):
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
                kill = carried2 if e_eff == 1 else [carried2[1]]
                chain = (ChainLink(table, pres), ChainLink(tab2, pres2))
                cert = _targeted_chi_cert(p0, chain, pres2, kill, fields)
                if cert is not None:
                    diags.append(
                        f"cover of index {tab2.degree} of the pinned subgroup "
                        f"gives a vanishing Alexander invariant over "
                        f"{cert.data['field']}")
                    return replayed(p0, Verdict(LARGE, cert, None, tuple(diags)))
            diags.append(
                "no finite-index subgroup with first Betti number >= 2 "
                f"admitting the vanishing test found up to index {config.max_index}")
    diags.extend(tried)
    return Verdict(UNKNOWN, None, None, tuple(diags))
