"""Largeness decision routes with replayable certificates.

A group is large when a finite-index subgroup surjects onto a non-abelian
free group.  ``certify`` tries, in a fixed order: presentation deficiency,
syntactic one-relator classification, proper-power relators, commutator
relators with homology conditions, a bounded character sweep testing
whether the Alexander invariant vanishes, and a bounded low-index cover
sweep with recursion, which stops at the first cover that is not large.
Every LARGE verdict carries a certificate that ``verify_certificate``
replays from scratch, and every NOT_LARGE_KNOWN verdict a citation that
``verify_citation`` replays.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, islice, product
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Optional, Sequence

from . import abelian
from .alexander import (PrimeField, QQ, field_by_name, is_prime,
                        prime_factors, rank_witness)
from .abelian import Chi, abelianization, image_span_rank
from .subgroups import (BoundExceeded, CosetTable, canonical_rebase,
                        cover_abelianization, cover_presentation,
                        index_two_classes, subgroup_classes)
from .words import (MAX_WORD_LEN, Presentation, SearchCapExceeded, Word,
                    commutator, conjugator_between, cyclic_reduce, gen_of,
                    inverse, is_commutator, is_proper_power, parse_word, power,
                    word_to_text)

LARGE = "LARGE"
NOT_LARGE_KNOWN = "NOT_LARGE_KNOWN"
UNKNOWN = "UNKNOWN"

# the character sweep skips presentations whose Alexander matrix would
# have more rows than this
MAX_ALEX_ROWS = 40


@dataclass(frozen=True)
class CertifyConfig:
    max_index: int = 8
    chi_height: int = 3
    primes: tuple = (2, 3, 5, 7)
    budget: int = 2
    li_nodes: int = 120000

    def __post_init__(self):
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        for name in ("max_index", "chi_height", "budget", "li_nodes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ChainLink:
    """One cover step: a coset table over the parent presentation and the
    simplified rewritten presentation of the subgroup."""

    table: CosetTable
    presentation: Presentation


@dataclass(frozen=True)
class Certificate:
    kind: str
    presentation: Presentation
    chain: tuple  # of ChainLink
    data: dict

    def lift(self, p: Presentation, links: tuple) -> "Certificate":
        """This certificate, made for the last cover in ``links``, restated
        over ``p``, the presentation the links start from."""
        return Certificate(self.kind, p, tuple(links) + self.chain, self.data)


@dataclass(frozen=True)
class Verdict:
    status: str
    certificate: Optional[Certificate]
    citation: Optional[dict]
    diagnostics: tuple

    @property
    def is_large(self):
        return self.status == LARGE


# ---------------------------------------------------------------------------
# serialization


def presentation_to_json(p: Presentation):
    return {"generators": list(p.generators),
            "relators": [word_to_text(r, p.generators) for r in p.relators]}


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"malformed certificate: {what}")


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(t, str) for t in x)


def presentation_from_json(obj) -> Presentation:
    _check(isinstance(obj, dict), "a presentation must be an object")
    _check(_is_str_list(obj["generators"]) and _is_str_list(obj["relators"]),
           "generators and relators must be lists of strings")
    names = tuple(obj["generators"])
    rels = tuple(parse_word(t, names) for t in obj["relators"])
    return Presentation(names, rels)


def _link_to_json(link: ChainLink):
    return {"table": link.table.to_json(),
            "presentation": presentation_to_json(link.presentation)}


def _links_from_json(links) -> tuple:
    """Parse the JSON of a chain of links, as certificates and ``chain``
    citations hold it; ValueError or KeyError on a wrong shape."""
    _check(isinstance(links, list) and all(isinstance(l, dict) for l in links),
           "the chain must be a list of objects")
    for l in links:
        t = l["table"]
        _check(isinstance(t, dict) and isinstance(t["degree"], int)
               and isinstance(t["action"], list)
               and all(isinstance(perm, list)
                       and all(isinstance(x, int) for x in perm)
                       for perm in t["action"]),
               "a table must have an integer degree and integer permutations")
    return tuple(ChainLink(CosetTable.from_json(l["table"]),
                           presentation_from_json(l["presentation"]))
                 for l in links)


def certificate_to_json(c: Certificate):
    return {"kind": c.kind,
            "presentation": presentation_to_json(c.presentation),
            "chain": [_link_to_json(link) for link in c.chain],
            "data": c.data}


def certificate_from_json(obj) -> Certificate:
    """Parse certificate JSON; ValueError or KeyError on a wrong shape."""
    _check(isinstance(obj, dict), "the top level must be an object")
    chain = _links_from_json(obj["chain"])
    return Certificate(obj["kind"], presentation_from_json(obj["presentation"]),
                       chain, obj["data"])


def verdict_to_json(v: Verdict):
    return {"status": v.status,
            "certificate": certificate_to_json(v.certificate) if v.certificate else None,
            "citation": v.citation,
            "diagnostics": list(v.diagnostics)}


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, without
    the pure-Python encoder that ``indent`` selects."""
    return _json_text(obj, "\n")


def _json_text(obj, nl: str) -> str:
    """Strings, ints, and the lists and str-keyed dicts that hold them are
    written here, a list of ints in one join; any other container by
    ``json.dumps``, re-indented to the depth where ``nl`` starts lines."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = nl + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = (map(int.__repr__, obj) if set(map(type, obj)) == {int}
                 else (_json_text(x, inner) for x in obj))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict and set(map(type, obj)) <= {str}:
        if not obj:
            return "{}"
        return "{" + ",".join(f"{inner}{encode_basestring_ascii(k)}: "
                              f"{_json_text(obj[k], inner)}" for k in sorted(obj)) + nl + "}"
    if isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)
    return json.dumps(obj)  # a scalar: the same text with or without indent


# ---------------------------------------------------------------------------
# syntactic relator classification


def classify_conjugated_power(w: Word) -> Optional[dict]:
    """Match the cyclic reduction of ``w`` against g A g^-1 A^c for a single
    letter g, giving the relation g A g^-1 = A^e with e = -c.

    Returns {"exponent": e, "amplitude": A} for the first match, in order of
    rotation and then of |A|, else None.
    """
    core, _ = cyclic_reduce(w)
    n = len(core)
    # g A g^-1 B with B = A^(+-c) has |A|(c + 1) = n - 2 and c >= 1, as
    # g A g^-1 is not cyclically reduced; each generator but g's occurs in
    # it a multiple of c + 1 times, and g's 2 more than that
    counts = Counter(map(abs, core))
    splits = []  # (|A|, c, the generator g must be, or 0 for any)
    for m in range(1, n - 2):
        if (n - 2) % m:
            continue
        c = (n - 2) // m - 1
        off = [j for j, t in counts.items() if t % (c + 1)]
        if not off and c == 1:
            splits.append((m, c, 0))
        elif len(off) == 1 and counts[off[0]] % (c + 1) == 2:
            splits.append((m, c, off[0]))
    core2 = core + core  # rotation k is core2[k:k + n]
    inv2 = inverse(core2)  # inverse(core2[i:j]) is inv2[2n - j:2n - i]
    end = 2 * n
    for k in range(n):
        g = -core2[k]
        j = abs(g)
        for m, c, gen in splits:
            if gen not in (0, j) or core2[k + m + 1] != g:
                continue
            # B = core2[s:k + n] is X*c, |X| = m, when it starts with X and
            # has period m.  A^c is the plain repetition A*c unless c >= 2
            # and A[0] = A[-1]^-1; then A^c is shorter than B and A*c is
            # not reduced, so neither equals B
            s = k + m + 2
            x = core2[s]
            if x == core2[k + 1] and core2[s:s + m] == core2[k + 1:k + m + 1]:
                e = -c
            elif (x == -core2[k + m]
                  and core2[s:s + m] == inv2[end - k - m - 1:end - k - 1]):
                e = c
            else:
                continue
            if core2[s + m:k + n] == core2[s:k + n - m]:
                return {"exponent": e, "amplitude": core2[k + 1:k + m + 1]}
    return None


def _syllables(w: Word):
    out = []
    for lt in w:
        g = gen_of(lt)
        e = 1 if lt > 0 else -1
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
        else:
            out.append((g, e))
    return out


def _cyclic_syllables(w: Word):
    syl = _syllables(w)
    if len(syl) > 1 and syl[0][0] == syl[-1][0]:
        g = syl[0][0]
        syl = [(g, syl[-1][1] + syl[0][1])] + syl[1:-1]
    return syl


def classify_bs_shape(w: Word) -> Optional[dict]:
    """Match a cyclically reduced 2-generator word against
    x^n y^l x^-n y^-m up to rotation and inversion.

    Returns {"conj_gen", "base_gen", "n", "l", "m"} with n > 0, or None.
    """
    for cand in (w, inverse(w)):
        syl = _cyclic_syllables(cand)
        if len(syl) != 4:
            continue
        for k in range(4):
            s = syl[k:] + syl[:k]
            (g0, e0), (g1, e1), (g2, e2), (g3, e3) = s
            if g0 == g2 and g1 == g3 and g0 != g1 and e2 == -e0 and e0 > 0:
                return {"conj_gen": g0, "base_gen": g1, "n": e0, "l": e1, "m": -e3}
    return None


def automatic_primes(p: Presentation) -> tuple:
    """Primes suggested by relator shapes: divisors of 1-e for conjugated
    powers g A g^-1 = A^e, and of gcd(l, m) for Baumslag-Solitar shapes."""
    out = set()
    for r in p.relators:
        if not r:
            continue
        hit = classify_conjugated_power(r)
        if hit and hit["exponent"] not in (0, 1):
            out.update(prime_factors(1 - hit["exponent"]))
        if len(set(map(abs, r))) == 2:
            bs = classify_bs_shape(cyclic_reduce(r)[0])
            if bs:
                g = gcd(abs(bs["l"]), abs(bs["m"]))
                if g > 1:
                    out.update(prime_factors(g))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# character sweep enumeration


@lru_cache(maxsize=32)
def sweep_vectors(dim: int, height: int) -> tuple:
    """Primitive integer vectors with entries in [-height, height], up to
    sign, ordered by (max abs entry, support size, lexicographic); built
    once per (dim, height).

    For dim > 4 only vectors supported on at most 2 coordinates are
    produced, to keep the sweep finite in practice.
    """
    nonzero = [x for x in range(-height, height + 1) if x]
    vecs = []
    for supp in range(1, (dim if dim <= 4 else 2) + 1):
        for idxs in combinations(range(dim), supp):
            for vals in product(nonzero, repeat=supp):
                v = [0] * dim
                for i, x in zip(idxs, vals):
                    v[i] = x
                vecs.append(tuple(v))
    out = []
    seen = set()
    for v in vecs:
        if gcd(*v) != 1:
            continue
        first = next(x for x in v if x)
        if first < 0:
            v = tuple(-x for x in v)
        if v not in seen:
            seen.add(v)
            out.append(v)
    out.sort(key=lambda v: (max(abs(x) for x in v),
                            sum(1 for x in v if x), v))
    return tuple(out)


def chi_from_coords(basis: Sequence[Chi], coords: Sequence[int]) -> Chi:
    n = len(basis[0].values)
    vals = [0] * n
    for c, b in zip(coords, basis):
        for i in range(n):
            vals[i] += c * b.values[i]
    return Chi(tuple(vals))


def solve_chi_killing(p: Presentation, words: Sequence[Word]) -> Optional[Chi]:
    """A surjection onto Z vanishing on the given words, or None."""
    try:
        basis = abelian.hom_to_Z_basis(p)
    except ValueError:
        return None
    kernel = abelian.integer_kernel([[b.of_word(w) for w in words] for b in basis])
    if not kernel:
        return None
    return chi_from_coords(basis, kernel[0])


# ---------------------------------------------------------------------------
# the decision procedure


def certify(p: Presentation, config: CertifyConfig = CertifyConfig()) -> Verdict:
    """Run the routes in order; a LARGE verdict is replayed once before it
    is returned."""
    return replayed(p, decide(p, config))


def replayed(p: Presentation, verdict: Verdict) -> Verdict:
    """``verdict`` itself, once its certificate (if LARGE) replays against
    ``p``; RuntimeError otherwise.  ValueError when the certificate has a
    relator that ``verify`` would refuse to parse back."""
    if not verdict.is_large:
        return verdict
    cert = verdict.certificate
    # the words in ``data`` are shorter than the relators they come from
    for q in (cert.presentation, *(link.presentation for link in cert.chain)):
        if any(len(r) > MAX_WORD_LEN for r in q.relators):
            raise ValueError(f"certificate relator longer than {MAX_WORD_LEN} letters")
    if not verify_certificate(p, cert):
        raise RuntimeError("internal error: emitted certificate failed replay")
    return verdict


def decide(p: Presentation, config: CertifyConfig = CertifyConfig(),
           pool: Optional[list] = None, searched: Optional[list] = None) -> Verdict:
    """The routes of ``certify`` without the final replay: for searches that
    lift the verdict into a larger certificate and replay that instead.

    The low-index DFS work of a call is bounded by 2 * ``li_nodes`` nodes,
    whatever the recursion depth.  A top-level call (no ``pool``) gives its
    own search a cell of ``li_nodes`` nodes, and every search in its covers,
    at any depth, draws from one shared pool of ``li_nodes`` more.  A child
    call's own search and its descendants' use the ``pool`` it is handed, a
    one-element list of nodes left, decremented in place.

    ``searched``, a list, gets one item ``(classes, note)`` when the
    low-index route runs its own search of ``p``: the result of
    ``search_classes(p, max_index, cell)`` on that search's cell, which
    at top level is a fresh ``[li_nodes]``.  It stays empty when the call
    returns before that search.
    """
    if pool is None:
        own, pool = [config.li_nodes], [config.li_nodes]
    else:
        own = pool
    diags = []
    verdict = _route_deficiency(p, diags)
    if verdict is None:
        verdict = _route_one_relator(p, diags)
    if verdict is None:
        verdict = _route_proper_power(p, diags)
    wits = {}
    if verdict is None:
        verdict = _route_commutator(p, diags, wits)
    if verdict is None:
        verdict = _route_chi_sweep(p, config, diags)
    if verdict is None:
        verdict = _route_low_index(p, config, diags, wits, own, pool, searched)
    if verdict is None:
        verdict = Verdict(UNKNOWN, None, None, tuple(diags))
    return verdict


def _route_deficiency(p: Presentation, diags) -> Optional[Verdict]:
    if p.deficiency >= 2:
        cert = Certificate("deficiency", p, (), {"deficiency": p.deficiency})
        return Verdict(LARGE, cert, None, tuple(diags))
    diags.append(f"deficiency route: presentation deficiency {p.deficiency} < 2")
    return None


def _route_one_relator(p: Presentation, diags) -> Optional[Verdict]:
    if p.ngens <= 1:
        inv = abelianization(p)
        order = "infinite" if inv.betti else str(inv.torsion[0] if inv.torsion else 1)
        diags.append(f"one-generator presentation: cyclic group, order {order}"
                     if p.ngens else "no generators: trivial group")
        return Verdict(NOT_LARGE_KNOWN, None,
                       {"reason": "cyclic", "order": order}, tuple(diags))
    if p.ngens != 2 or p.nrels != 1 or not p.relators[0]:
        diags.append("one-relator route: shape not applicable")
        return None
    core, _ = cyclic_reduce(p.relators[0])
    gens_used = {gen_of(lt) for lt in core}
    if len(gens_used) == 1 and len(core) == 1:
        diags.append("relator is a single letter: group is Z")
        return Verdict(NOT_LARGE_KNOWN, None,
                       {"reason": "cyclic", "order": "infinite"}, tuple(diags))
    if len(gens_used) == 2:
        bs = classify_bs_shape(core)
        if bs:
            n, l, m = bs["n"], bs["l"], bs["m"]
            if n == 1 and l == m and abs(l) == 1:
                # x y^l x^-1 y^-l: the 8 cyclic words of [a, b]^+-1
                diags.append("relator is a basic commutator up to rotation: group is Z x Z")
                return Verdict(NOT_LARGE_KNOWN, None, {"reason": "ZxZ"}, tuple(diags))
            if abs(n) > 1 or gcd(abs(l), abs(m)) > 1:
                cert = Certificate("cited_family", p, (), {
                    "relator_index": 0, "n": n, "l": l, "m": m,
                    "conj_gen": p.generators[bs["conj_gen"]],
                    "base_gen": p.generators[bs["base_gen"]]})
                diags.append(
                    f"relator has the x^n y^l x^-n y^-m shape (n={n}, l={l}, m={m}); "
                    "known to be large")
                return Verdict(LARGE, cert, None, tuple(diags))
            diags.append(
                f"Baumslag-Solitar relator with coprime exponents ({l}, {m}); not large")
            return Verdict(NOT_LARGE_KNOWN, None,
                           {"reason": "BS_coprime", "l": l, "m": m}, tuple(diags))
    diags.append("one-relator route: no recognized syntactic shape")
    return None


def _route_proper_power(p: Presentation, diags) -> Optional[Verdict]:
    if p.deficiency != 1:
        diags.append("proper-power route: needs a deficiency 1 presentation")
        return None
    for i, r in enumerate(p.relators):
        if not r:
            continue
        hit = is_proper_power(r)
        if hit:
            root, e = hit
            cert = Certificate("proper_power", p, (), {
                "relator_index": i,
                "root": word_to_text(root, p.generators),
                "exponent": e})
            diags.append(f"relator {i} is a proper power (exponent {e})")
            return Verdict(LARGE, cert, None, tuple(diags))
    diags.append("proper-power route: no proper-power relator")
    return None


def _route_commutator(p: Presentation, diags, wits) -> Optional[Verdict]:
    if p.deficiency != 1:
        diags.append("commutator route: needs a deficiency 1 presentation")
        return None
    for i, r in enumerate(p.relators):
        try:
            wit = is_commutator(r)
        except SearchCapExceeded:
            diags.append(f"commutator search cap reached on relator {i}; undetermined")
            continue
        if wit is not None:
            wits[i] = wit
    if not wits:
        diags.append("commutator route: no commutator relator found")
        return None
    inv = abelianization(p)
    for i, wit in sorted(wits.items()):
        rank, infinite = image_span_rank(p, [wit.u, wit.v])
        if infinite:
            cert = Certificate("commutator_betti", p, (), {
                "relator_index": i, "mode": "span",
                "u": word_to_text(wit.u, p.generators),
                "v": word_to_text(wit.v, p.generators),
                "rank": rank, "betti": inv.betti})
            diags.append(
                f"relator {i} is a commutator [u, v] and the image span has "
                f"rank {rank} < betti {inv.betti}")
            return Verdict(LARGE, cert, None, tuple(diags))
    if inv.betti == 2 and inv.torsion:
        i, wit = sorted(wits.items())[0]
        cert = Certificate("commutator_betti", p, (), {
            "relator_index": i, "mode": "torsion",
            "u": word_to_text(wit.u, p.generators),
            "v": word_to_text(wit.v, p.generators),
            "betti": inv.betti, "torsion": list(inv.torsion)})
        diags.append(
            f"relator {i} is a commutator and the abelianization {inv} has torsion")
        return Verdict(LARGE, cert, None, tuple(diags))
    diags.append(
        f"commutator route: relators {sorted(wits)} are commutators but the "
        f"abelianization {inv} decides nothing")
    if inv.is_z_squared():
        diags.append(
            "trichotomy: deficiency 1 with a commutator relator and "
            "abelianization Z x Z; the group is Z x Z, or NARA (every finite "
            "quotient abelian), or large; not decided at this bound")
    return None


def _route_chi_sweep(p: Presentation, config, diags) -> Optional[Verdict]:
    if p.ngens - 1 > MAX_ALEX_ROWS:
        diags.append(
            f"character sweep: skipped, {p.ngens} generators exceeds the "
            f"{MAX_ALEX_ROWS}-row bound")
        return None
    try:
        basis = abelian.hom_to_Z_basis(p)
    except ValueError:
        diags.append("character sweep: first Betti number 0, no characters")
        return None
    auto = automatic_primes(p)
    primes = tuple(sorted(set(config.primes) | set(auto)))
    fields = [QQ] + [PrimeField(q) for q in primes]
    vectors = sweep_vectors(len(basis), config.chi_height)
    for coords in vectors:
        chi = chi_from_coords(basis, coords)
        hit = rank_witness(p, chi, fields)
        if hit is not None:
            fld, wit = hit
            cert = Certificate("alexander_zero", p, (), {
                "chi": list(chi.values), "field": fld.name, **wit})
            diags.append(
                f"character {list(chi.values)} over {fld.name}: matrix rank "
                f"{wit['rank']} < {wit['rows']}, Alexander invariant vanishes")
            return Verdict(LARGE, cert, None, tuple(diags))
    extra = f" (auto primes {list(auto)})" if auto else ""
    diags.append(
        f"character sweep: {len(vectors)} characters of height <= "
        f"{config.chi_height} over Q and F_p for p in {list(primes)}{extra}; "
        "no vanishing")
    return None


def search_classes(p: Presentation, max_index: int, nodes: list):
    """``subgroup_classes(p, max_index, nodes)`` and where the search fell
    short: "at the node budget", "at the scan bound" (BoundExceeded) or ""."""
    try:
        classes, cut = subgroup_classes(p, max_index, nodes)
    except BoundExceeded:
        return [], "at the scan bound"
    return classes, "at the node budget" if cut else ""


def _cover_tables(p: Presentation, config, truncated, nodes, searched):
    """The tables the low-index route tries, in (degree, flat) order and
    lazily: the index-2 covers, from the maps onto Z/2, then the classes of
    degree 3 to ``max_index`` from a search run only once they are needed.

    The index-2 stage takes at most ``li_nodes`` tables, and the search the
    DFS nodes left in the one-element list ``nodes``; either sets
    ``truncated[0]``, if unset, to where it fell short.  The index-2 covers
    are all there even when the search stops short.  The search's whole
    result, every degree, is appended to ``searched`` unless that is None.
    """
    twos = index_two_classes(p)
    yield from islice(twos, config.li_nodes)
    if next(twos, None) is not None:
        truncated[0] = "at the node budget"
    if config.max_index > 2:
        classes, cut = search_classes(p, config.max_index, nodes)
        if searched is not None:
            searched.append((classes, cut))
        truncated[0] = truncated[0] or cut
        yield from (t for t in classes if t.degree > 2)


def _route_low_index(p: Presentation, config, diags, wits, own,
                     pool, searched) -> Optional[Verdict]:
    if config.budget < 1:
        diags.append("low-index route: recursion budget exhausted")
        return None
    if config.max_index < 2:
        diags.append("low-index route: max index < 2")
        return None
    truncated = [""]
    tables = _cover_tables(p, config, truncated, own, searched)
    if wits and p.deficiency == 1:
        # a commutator relator upstairs plus a cover whose abelianization
        # is not Z x Z gives largeness outright: every cover is checked
        # for that, off its coset table, before any child is decided
        checked = []
        for table in tables:
            checked.append(table)
            inv = cover_abelianization(p, table)
            if not inv.is_z_squared():
                i, wit = sorted(wits.items())[0]
                sub, _ = cover_presentation(p, table)
                cert = Certificate("big_cover_abelianization", p,
                                   (ChainLink(table, sub),), {
                    "parent_relator_index": i,
                    "u": word_to_text(wit.u, p.generators),
                    "v": word_to_text(wit.v, p.generators),
                    "betti": inv.betti, "torsion": list(inv.torsion)})
                diags.append(
                    f"cover of index {table.degree} has abelianization {inv} "
                    "!= Z x Z below a commutator relator")
                return Verdict(LARGE, cert, None, tuple(diags))
        tables = checked
    child_cfg = replace(config, budget=config.budget - 1)
    tried = 0
    # each cover presentation is built just before its child is decided
    for table in tables:
        tried += 1
        sub, _ = cover_presentation(p, table)
        child = decide(sub, child_cfg, pool)
        if child.is_large:
            cert = child.certificate.lift(p, (ChainLink(table, sub),))
            diags.append(
                f"cover of index {table.degree} certified large "
                f"({child.certificate.kind})")
            return Verdict(LARGE, cert, None, tuple(diags))
        if child.status == NOT_LARGE_KNOWN:
            # largeness passes to and from finite-index subgroups (Pride
            # 1980), so no other cover can help; a child's own chain is
            # extended, never nested
            links, inner = [_link_to_json(ChainLink(table, sub))], child.citation
            if inner["reason"] == "chain":
                links, inner = links + inner["chain"], inner["citation"]
            diags.append(
                f"cover of index {table.degree} is not large "
                f"({inner['reason']}), so neither is the group")
            return Verdict(NOT_LARGE_KNOWN, None,
                           {"reason": "chain", "chain": links, "citation": inner},
                           tuple(diags))
    note = f"; search truncated {truncated[0]}" if truncated[0] else ""
    diags.append(
        f"low-index route: {tried} proper covers up to index "
        f"{config.max_index} tried (budget {config.budget}){note}; none certified")
    return None


# ---------------------------------------------------------------------------
# certificate verification


def verify_certificate(p: Presentation, cert: Certificate) -> bool:
    """Replay every claim in the certificate from scratch; False on any
    mismatch.  Never raises."""
    try:
        return _verify(p, cert)
    except Exception:
        return False


def _replay_chain(p: Presentation, chain) -> Optional[list]:
    """The presentations along ``chain`` from ``p``; None on a mismatch.
    Every table is checked first against the presentation claimed before
    it: a permutation action, closed under its relators and in the standard
    form of the search.  Only then is each claimed presentation regenerated
    from the one before, a Tietze pass that grows as degree squared."""
    pres = [p, *(link.presentation for link in chain)]
    for q, link in zip(pres, chain):
        t = link.table
        if (t.degree < 1 or len(t.action) != q.ngens
                or any(len(perm) != t.degree or sorted(perm) != list(range(t.degree))
                       for perm in t.action)
                or not t.is_closed_under(q.relators) or canonical_rebase(t, 0) != t):
            return None
    for q, link in zip(pres, chain):
        if cover_presentation(q, link.table)[0] != link.presentation:
            return None
    return pres


def _verify(p: Presentation, cert: Certificate) -> bool:
    if cert.presentation != p:
        return False
    pres = _replay_chain(p, cert.chain)
    if pres is None:
        return False
    cur = pres[-1]
    data = cert.data

    def relator_at(q, key):
        i = data[key]
        if not isinstance(i, int) or not 0 <= i < q.nrels:
            return None
        return q.relators[i]

    def commutator_relator(q, key):
        """(u, v) from ``data`` if [u, v] is conjugate to the relator of
        ``q`` at ``key``, else None."""
        relator = relator_at(q, key)
        if relator is None:
            return None
        u = parse_word(data["u"], q.generators)
        v = parse_word(data["v"], q.generators)
        if conjugator_between(relator, commutator(u, v)) is None:
            return None
        return u, v

    if cert.kind == "deficiency":
        return cur.deficiency >= 2 and data.get("deficiency") == cur.deficiency
    if cert.kind == "cited_family":
        # the route that emits this kind, run again on the last presentation
        route = _route_one_relator(cur, [])
        return (route is not None and route.is_large
                and dumps(route.certificate.data) == dumps(data))
    if cert.kind == "proper_power":
        if cur.deficiency != 1:
            return False
        relator = relator_at(cur, "relator_index")
        if relator is None:
            return False
        root = parse_word(data["root"], cur.generators)
        e = data["exponent"]
        if e < 2 or not root:
            return False
        # conjugate words have cyclic cores of equal length; checked before
        # the power is built, whose length grows with e
        if len(cyclic_reduce(relator)[0]) != len(cyclic_reduce(root)[0]) * e:
            return False
        return conjugator_between(relator, power(root, e)) is not None
    if cert.kind == "alexander_zero":
        chi = Chi(tuple(data["chi"]))
        hit = rank_witness(cur, chi, [field_by_name(data["field"])])
        if hit is None:
            return False
        wit = hit[1]
        return (wit["rank"] == data["rank"]
                and wit["rows"] == data["rows"]
                and wit["pivot_cols"] == list(data["pivot_cols"]))
    if cert.kind == "commutator_betti":
        if cur.deficiency != 1:
            return False
        words = commutator_relator(cur, "relator_index")
        if words is None:
            return False
        if data["mode"] == "span":
            rank, infinite = image_span_rank(cur, words)
            return (infinite and rank == data["rank"]
                    and abelianization(cur).betti == data["betti"])
        if data["mode"] == "torsion":
            inv = abelianization(cur)
            return (inv.betti == 2 and inv.betti == data["betti"]
                    and list(inv.torsion) == data["torsion"]
                    and bool(inv.torsion))
        return False
    if cert.kind == "big_cover_abelianization":
        if not cert.chain:
            return False
        parent = pres[-2]
        if parent.deficiency != 1:
            return False
        if commutator_relator(parent, "parent_relator_index") is None:
            return False
        inv = abelianization(cur)
        if inv.is_z_squared():
            return False
        return inv.betti == data["betti"] and list(inv.torsion) == data["torsion"]
    return False


def verify_citation(p: Presentation, citation: dict) -> bool:
    """Whether ``citation`` is, as JSON, the non-largeness citation that
    the one-relator route emits for ``p``, which is run again, or a
    ``chain`` of proper covers, replayed from ``p``, with that citation for
    the last cover; False on any other input.  Never raises."""
    try:
        if isinstance(citation, dict) and citation.get("reason") == "chain":
            if set(citation) != {"reason", "chain", "citation"} or not citation["chain"]:
                return False
            links = _links_from_json(citation["chain"])
            if any(link.table.degree < 2 for link in links):
                return False  # the route emits proper covers only
            pres = _replay_chain(p, links)
            if pres is None:
                return False
            p, citation = pres[-1], citation["citation"]
        route = _route_one_relator(p, [])
        return (route is not None and route.citation is not None
                and dumps(route.citation) == dumps(citation))
    except Exception:
        return False
