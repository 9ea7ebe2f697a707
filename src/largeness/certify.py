"""Largeness decision routes with replayable certificates.

A group is large when a finite-index subgroup surjects onto a non-abelian
free group.  ``certify`` tries, in a fixed order: presentation deficiency,
syntactic one-relator classification, proper-power relators, commutator
relators with homology conditions, a bounded character sweep testing
whether the Alexander invariant vanishes, and a bounded low-index cover
sweep with recursion.  Every LARGE verdict carries a certificate that
``verify_certificate`` replays from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations, product
from math import gcd
from typing import Optional, Sequence

from . import abelian
from .alexander import (PrimeField, QQ, field_by_name, is_prime,
                        prime_factors, rank_witness)
from .abelian import Chi, abelianization, hermite_rows, image_span_rank
from .subgroups import CosetTable, cover_presentation, subgroup_classes
from .words import (Presentation, SearchCapExceeded, Word, commutator,
                    conjugator_between, cyclic_reduce, gen_of, inverse,
                    is_commutator, is_proper_power, parse_word, power, rotate,
                    word_to_text, zxz_relator_check)

LARGE = "LARGE"
NOT_LARGE_KNOWN = "NOT_LARGE_KNOWN"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class CertifyConfig:
    max_index: int = 8
    chi_height: int = 3
    primes: tuple = (2, 3, 5, 7)
    budget: int = 2
    max_cosets: int = 20000
    commutator_cap: int = 64
    pull_iters: int = 64
    whitehead_budget: int = 10000
    max_alex_rows: int = 40
    li_nodes: int = 120000

    def __post_init__(self):
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")


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

    @property
    def final_presentation(self) -> Presentation:
        return self.chain[-1].presentation if self.chain else self.presentation

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


def certificate_to_json(c: Certificate):
    return {"kind": c.kind,
            "presentation": presentation_to_json(c.presentation),
            "chain": [{"table": link.table.to_json(),
                       "presentation": presentation_to_json(link.presentation)}
                      for link in c.chain],
            "data": c.data}


def certificate_from_json(obj) -> Certificate:
    """Parse certificate JSON; ValueError or KeyError on a wrong shape."""
    _check(isinstance(obj, dict), "the top level must be an object")
    links = obj["chain"]
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
    chain = tuple(ChainLink(CosetTable.from_json(l["table"]),
                            presentation_from_json(l["presentation"]))
                  for l in links)
    return Certificate(obj["kind"], presentation_from_json(obj["presentation"]),
                       chain, obj["data"])


def verdict_to_json(v: Verdict):
    return {"status": v.status,
            "certificate": certificate_to_json(v.certificate) if v.certificate else None,
            "citation": v.citation,
            "diagnostics": list(v.diagnostics)}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# syntactic relator classification


def classify_conjugated_power(w: Word) -> Optional[dict]:
    """Match the cyclic reduction of ``w`` against g A g^-1 A^c for a single
    letter g, giving the relation g A g^-1 = A^e with e = -c.

    Returns {"exponent": e, "amplitude": A} for the first match, else None.
    """
    core, _ = cyclic_reduce(w)
    n = len(core)
    for k in range(n):
        r = rotate(core, k)
        g = r[0]
        for j in range(1, n):
            if r[j] != -g:
                continue
            a_part = r[1:j]
            b_part = r[j + 1:]
            if not a_part:
                continue
            if len(b_part) % len(a_part):
                continue
            c = len(b_part) // len(a_part)
            if b_part == power(a_part, c):
                return {"exponent": -c, "amplitude": a_part}
            if b_part == power(inverse(a_part), c):
                return {"exponent": c, "amplitude": a_part}
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
        gens = {gen_of(lt) for lt in r}
        if len(gens) == 2:
            bs = classify_bs_shape(cyclic_reduce(r)[0])
            if bs:
                g = gcd(abs(bs["l"]), abs(bs["m"]))
                if g > 1:
                    out.update(prime_factors(g))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# character sweep enumeration


def sweep_vectors(dim: int, height: int, max_support: int = 2):
    """Primitive integer vectors with entries in [-height, height], up to
    sign, ordered by (max abs entry, support size, lexicographic).

    For dim > 4 only vectors supported on at most ``max_support``
    coordinates are produced, to keep the sweep finite in practice.
    """
    vecs = []
    if dim <= 4:
        for v in product(range(-height, height + 1), repeat=dim):
            if any(v):
                vecs.append(v)
    else:
        seen = set()
        for supp in range(1, max_support + 1):
            for idxs in combinations(range(dim), supp):
                for vals in product([x for x in range(-height, height + 1) if x], repeat=supp):
                    v = [0] * dim
                    for i, x in zip(idxs, vals):
                        v[i] = x
                    v = tuple(v)
                    if v not in seen:
                        seen.add(v)
                        vecs.append(v)
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
    return out


def chi_from_coords(basis: Sequence[Chi], coords: Sequence[int]) -> Chi:
    n = len(basis[0].values)
    vals = [0] * n
    for c, b in zip(coords, basis):
        for i in range(n):
            vals[i] += c * b.values[i]
    g = gcd(*vals)
    if g > 1:
        vals = [x // g for x in vals]
    return Chi(tuple(vals))


def solve_chi_killing(p: Presentation, words: Sequence[Word]) -> Optional[Chi]:
    """A surjection onto Z vanishing on the given words, or None."""
    try:
        basis = abelian.hom_to_Z_basis(p)
    except ValueError:
        return None
    rows = [[b.of_word(w) for b in basis] for w in words]
    rows = [r for r in rows if any(r)]
    if not rows:
        return chi_from_coords(basis, [1] + [0] * (len(basis) - 1))
    # integer kernel of the constraint matrix
    a = rows
    snf = abelian.smith_normal_form(a)
    diag = snf.diagonal
    dim = len(basis)
    kernel = []
    for j in range(dim):
        if j >= len(diag) or diag[j] == 0:
            kernel.append([snf.V[i][j] for i in range(dim)])
    kernel = hermite_rows(kernel)
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
    ``p``; RuntimeError otherwise."""
    if verdict.is_large and not verify_certificate(p, verdict.certificate):
        raise RuntimeError("internal error: emitted certificate failed replay")
    return verdict


def decide(p: Presentation, config: CertifyConfig = CertifyConfig()) -> Verdict:
    """The routes of ``certify`` without the final replay: for searches that
    lift the verdict into a larger certificate and replay that instead."""
    diags = []
    verdict = _route_deficiency(p, diags)
    if verdict is None:
        verdict = _route_one_relator(p, diags)
    if verdict is None:
        verdict = _route_proper_power(p, diags)
    wits = {}
    if verdict is None:
        verdict = _route_commutator(p, config, diags, wits)
    if verdict is None:
        verdict = _route_chi_sweep(p, config, diags)
    if verdict is None:
        verdict = _route_low_index(p, config, diags, wits)
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
    if p.ngens == 1:
        inv = abelianization(p)
        order = "infinite" if inv.betti else str(inv.torsion[0] if inv.torsion else 1)
        diags.append(f"one-generator presentation: cyclic group, order {order}")
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
        if zxz_relator_check(core):
            diags.append("relator is a basic commutator up to rotation: group is Z x Z")
            return Verdict(NOT_LARGE_KNOWN, None, {"reason": "ZxZ"}, tuple(diags))
        bs = classify_bs_shape(core)
        if bs:
            n, l, m = bs["n"], bs["l"], bs["m"]
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


def _route_commutator(p: Presentation, config, diags, wits) -> Optional[Verdict]:
    if p.deficiency != 1:
        diags.append("commutator route: needs a deficiency 1 presentation")
        return None
    for i, r in enumerate(p.relators):
        try:
            wit = is_commutator(r, config.commutator_cap)
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
    if p.ngens - 1 > config.max_alex_rows:
        diags.append(
            f"character sweep: skipped, {p.ngens} generators exceeds the "
            f"{config.max_alex_rows}-row bound")
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


def _route_low_index(p: Presentation, config, diags, wits) -> Optional[Verdict]:
    if config.budget < 1:
        diags.append("low-index route: recursion budget exhausted")
        return None
    if config.max_index < 2:
        diags.append("low-index route: max index < 2")
        return None
    classes, truncated = subgroup_classes(p, config.max_index, config.li_nodes)
    covers = []
    for table in classes:
        if table.degree < 2:
            continue
        sub, _ = cover_presentation(p, table)
        covers.append((table, sub))
        # a commutator relator upstairs plus a cover whose abelianization
        # is not Z x Z gives largeness outright
        if wits and p.deficiency == 1:
            inv = abelianization(sub)
            if not inv.is_z_squared():
                i, wit = sorted(wits.items())[0]
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
    child_cfg = replace(config, budget=config.budget - 1)
    for table, sub in covers:
        child = decide(sub, child_cfg)
        if child.is_large:
            cert = child.certificate.lift(p, (ChainLink(table, sub),))
            diags.append(
                f"cover of index {table.degree} certified large "
                f"({child.certificate.kind})")
            return Verdict(LARGE, cert, None, tuple(diags))
    note = "; search truncated at the node budget" if truncated else ""
    diags.append(
        f"low-index route: {len(covers)} proper covers up to index "
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


def _table_valid(p: Presentation, table: CosetTable) -> bool:
    if table.degree < 1 or len(table.action) != p.ngens:
        return False
    for perm in table.action:
        if len(perm) != table.degree or sorted(perm) != list(range(table.degree)):
            return False
    return table.is_closed_under(p.relators)


def _verify(p: Presentation, cert: Certificate) -> bool:
    if cert.presentation != p:
        return False
    cur = p
    for link in cert.chain:
        if not _table_valid(cur, link.table):
            return False
        regenerated, _ = cover_presentation(cur, link.table)
        if regenerated != link.presentation:
            return False
        cur = regenerated
    data = cert.data

    def relator_at(pres, key):
        i = data[key]
        if not isinstance(i, int) or not 0 <= i < pres.nrels:
            return None
        return pres.relators[i]

    if cert.kind == "deficiency":
        return cur.deficiency >= 2 and data.get("deficiency") == cur.deficiency
    if cert.kind == "cited_family":
        if cur.ngens != 2 or cur.nrels != 1:
            return False
        if relator_at(cur, "relator_index") is None:
            return False
        i = data["relator_index"]
        core, _ = cyclic_reduce(cur.relators[i])
        if len({gen_of(lt) for lt in core}) != 2:
            return False
        bs = classify_bs_shape(core)
        if not bs:
            return False
        if (bs["n"], bs["l"], bs["m"]) != (data["n"], data["l"], data["m"]):
            return False
        if (cur.generators[bs["conj_gen"]] != data["conj_gen"]
                or cur.generators[bs["base_gen"]] != data["base_gen"]):
            return False
        return abs(bs["n"]) > 1 or gcd(abs(bs["l"]), abs(bs["m"])) > 1
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
        return conjugator_between(relator, power(root, e)) is not None
    if cert.kind == "alexander_zero":
        chi = Chi(tuple(data["chi"]))
        if len(chi.values) != cur.ngens or gcd(*chi.values) != 1:
            return False
        if any(chi.of_word(r) for r in cur.relators):
            return False
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
        relator = relator_at(cur, "relator_index")
        if relator is None:
            return False
        u = parse_word(data["u"], cur.generators)
        v = parse_word(data["v"], cur.generators)
        if conjugator_between(relator, commutator(u, v)) is None:
            return False
        if data["mode"] == "span":
            rank, infinite = image_span_rank(cur, [u, v])
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
        parent = cert.chain[-2].presentation if len(cert.chain) > 1 else p
        if parent.deficiency != 1:
            return False
        relator = relator_at(parent, "parent_relator_index")
        if relator is None:
            return False
        u = parse_word(data["u"], parent.generators)
        v = parse_word(data["v"], parent.generators)
        if conjugator_between(relator, commutator(u, v)) is None:
            return False
        inv = abelianization(cur)
        if inv.is_z_squared():
            return False
        return inv.betti == data["betti"] and list(inv.torsion) == data["torsion"]
    return False


def verify_citation(p: Presentation, citation: dict) -> bool:
    """Replay a structured non-largeness citation; False on mismatch."""
    try:
        return _verify_citation(p, citation)
    except Exception:
        return False


def _verify_citation(p: Presentation, data) -> bool:
    reason = data.get("reason")
    if reason == "cyclic":
        return p.ngens == 1 or (p.ngens == 2 and p.nrels == 1
                                and len(cyclic_reduce(p.relators[0])[0]) == 1)
    if reason == "ZxZ":
        if p.ngens != 2 or p.nrels != 1:
            return False
        core, _ = cyclic_reduce(p.relators[0])
        return len({gen_of(lt) for lt in core}) == 2 and zxz_relator_check(core)
    if reason == "BS_coprime":
        if p.ngens != 2 or p.nrels != 1:
            return False
        core, _ = cyclic_reduce(p.relators[0])
        bs = classify_bs_shape(core)
        return (bs is not None and abs(bs["n"]) == 1
                and gcd(abs(bs["l"]), abs(bs["m"])) == 1
                and (bs["l"], bs["m"]) == (data["l"], data["m"]))
    return False
