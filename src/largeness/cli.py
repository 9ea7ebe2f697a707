"""Command-line front end: parse inputs, dispatch, emit JSON on stdout.

Exit codes: 0 = a result was produced (UNKNOWN and failed verifications
included), 1 = input error, an unreadable input file included, or stdout
closed by its reader before the output was written, 2 = resource bound
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from .abelian import Chi, abelianization
from .alexander import alexander_polynomial, field_by_name
from .certify import (CertifyConfig, certificate_from_json, certify, dumps,
                      presentation_to_json, verdict_to_json,
                      verify_certificate)
from .subgroups import (BoundExceeded, cover_abelianization, low_index_subgroups,
                        reidemeister_schreier, tietze_simplify)
from .torus import (Endomorphism, PeriodicWitness, mapping_torus,
                    torus_bs_pipeline, torus_zz_pipeline, witness_verify)
from .words import (NAME_RE, ParseError, Presentation, parse_presentation,
                    parse_word)


def _read_presentation(arg: str) -> Presentation:
    text = arg
    if not arg.lstrip().startswith("<"):
        text = Path(arg).read_text()
    return parse_presentation(text)


def _config_from_args(args) -> CertifyConfig:
    kwargs = {}
    if args.max_index is not None:
        kwargs["max_index"] = args.max_index
    if args.chi_height is not None:
        kwargs["chi_height"] = args.chi_height
    if args.primes:
        kwargs["primes"] = tuple(int(x) for x in args.primes.split(","))
    if args.budget is not None:
        kwargs["budget"] = args.budget
    return CertifyConfig(**kwargs)


def _emit(obj: dict, args) -> None:
    """Print ``dumps(obj)``, or ``_textualize(obj)`` for ``--format text``,
    one top-level key at a time, and flush, so that a closed stdout raises
    here and not at exit.  An iterator value stands for the list of its
    entries and is rendered one entry at a time, so the whole text is never
    held."""
    text = getattr(args, "format", "json") == "text"
    sys.stdout.writelines((_text_pieces if text else _json_pieces)(obj))
    sys.stdout.flush()


def _json_pieces(obj: dict):
    # dumps escapes every newline in a string, so indenting its lines
    # renders a value at any depth
    for n, k in enumerate(sorted(obj)):
        v = obj[k]
        yield ("," if n else "{") + f"\n  {dumps(k)}: "
        if not isinstance(v, Iterator):
            yield dumps(v).replace("\n", "\n  ")
            continue
        lead = "["
        for x in v:
            yield lead + "\n    " + dumps(x).replace("\n", "\n    ")
            lead = ","
        yield "[]" if lead == "[" else "\n  ]"
    yield "\n}\n"


def _text_pieces(obj: dict):
    for k in sorted(obj):
        v = obj[k]
        if not isinstance(v, Iterator):
            nested = isinstance(v, (dict, list))
            yield f"{k}:\n{_textualize(v, 1)}\n" if nested else f"{k}: {v}\n"
            continue
        yield f"{k}:\n"
        empty = True
        for x in v:
            yield _textualize(x, 1) + "\n"
            empty = False
        if empty:
            yield "  (none)\n"


def _textualize(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_textualize(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(_textualize(v, indent) for v in obj) or f"{pad}(none)"
    return f"{pad}{obj}"


def lp_to_json(poly):
    return {"field": poly.field.name,
            "coeffs": [[e, *c.as_integer_ratio()] for e, c in poly.coeffs]}


def cmd_ab(args) -> int:
    p = _read_presentation(args.presentation)
    inv = abelianization(p)
    _emit({"betti": inv.betti, "torsion": list(inv.torsion),
           "display": str(inv)}, args)
    return 0


def cmd_alex(args) -> int:
    p = _read_presentation(args.presentation)
    chi = Chi(tuple(int(x) for x in args.chi.split(",")))
    if len(chi.values) != p.ngens:
        raise ParseError("chi needs one integer per generator")
    fld = field_by_name(args.field)
    poly = alexander_polynomial(p, chi, fld).normalize()
    _emit({"polynomial": lp_to_json(poly), "display": str(poly),
           "zero": poly.is_zero}, args)
    return 0


def cmd_subgroups(args) -> int:
    p = _read_presentation(args.presentation)
    classes = low_index_subgroups(p, args.max_index)

    def entry(table):
        inv = cover_abelianization(p, table)
        return {"index": table.degree, "table": table.to_json(),
                "abelianization": {"betti": inv.betti,
                                   "torsion": list(inv.torsion),
                                   "display": str(inv)}}

    _emit({"classes": map(entry, classes), "count": len(classes)}, args)
    return 0


def cmd_rewrite(args) -> int:
    p = _read_presentation(args.presentation)
    classes = low_index_subgroups(p, args.max_index)
    if not 0 <= args.index_class < len(classes):
        raise ParseError(
            f"index-class {args.index_class} out of range (0..{len(classes) - 1})")
    table = classes[args.index_class]
    raw, _ = reidemeister_schreier(p, table)
    simp, _ = tietze_simplify(raw)
    _emit({"index": table.degree,
           "raw": presentation_to_json(raw),
           "simplified": presentation_to_json(simp)}, args)
    return 0


def cmd_certify(args) -> int:
    p = _read_presentation(args.presentation)
    config = _config_from_args(args)
    verdict = certify(p, config)
    _emit(verdict_to_json(verdict), args)
    return 0


def _parse_endo(path: str) -> Endomorphism:
    source = Path(path).read_text()
    names = []
    images_at = []  # (right-hand side, its offset in source)
    start = 0
    for line_no, line in enumerate(source.split("\n"), 1):
        line_start, start = start, start + len(line) + 1
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "->" not in text:
            raise ParseError("expected 'name -> word'", line_no, 1)
        lhs, _, rhs = line.partition("->")
        name = lhs.strip()
        col = len(lhs) - len(lhs.lstrip()) + 1
        if not NAME_RE.fullmatch(name):
            raise ParseError(f"bad generator name {name!r}", line_no, col)
        if name in names:
            raise ParseError(f"duplicate generator name {name!r}", line_no, col)
        names.append(name)
        images_at.append((rhs, line_start + len(lhs) + 2))
    images = tuple(parse_word(raw, names, source, at) for raw, at in images_at)
    return Endomorphism(images, tuple(names))


def cmd_torus(args) -> int:
    e = _parse_endo(args.endo)
    p0 = mapping_torus(e)
    out = {"presentation": presentation_to_json(p0)}
    wit = None
    if args.witness:
        parts = args.witness.split(",")
        if len(parts) != 4:
            raise ParseError("witness must be w,i,v,k")
        w = parse_word(parts[0], e.names)
        v = parse_word(parts[2], e.names)
        wit = PeriodicWitness(w, int(parts[1]), v, int(parts[3]))
        out["witness_valid"] = witness_verify(e, wit)
    if args.certify:
        config = _config_from_args(args)
        if wit is not None:
            if not out["witness_valid"]:
                raise ParseError("witness fails verification")
            pipeline = torus_zz_pipeline if abs(wit.k) == 1 else torus_bs_pipeline
            verdict = pipeline(e, wit, config)
        else:
            verdict = certify(p0, config)
        out["verdict"] = verdict_to_json(verdict)
    _emit(out, args)
    return 0


def cmd_verify(args) -> int:
    obj = json.loads(Path(args.cert).read_text())
    cert = certificate_from_json(obj)
    if args.presentation:
        p = _read_presentation(args.presentation)
    else:
        p = cert.presentation
    _emit({"valid": verify_certificate(p, cert)}, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="largeness",
        description="Largeness certificates for finitely presented groups")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, pres=True):
        if pres:
            sp.add_argument("presentation",
                            help="inline '< gens | relators >' or a file path")
        sp.add_argument("--format", choices=["json", "text"], default="json")

    def config_options(sp):
        sp.add_argument("--max-index", type=int, default=None)
        sp.add_argument("--chi-height", type=int, default=None)
        sp.add_argument("--primes", default=None)
        sp.add_argument("--budget", type=int, default=None)

    sp = sub.add_parser("ab", help="abelianization invariants")
    common(sp)
    sp.set_defaults(func=cmd_ab)

    sp = sub.add_parser("alex", help="Alexander polynomial for a character")
    common(sp)
    sp.add_argument("--chi", required=True, help="comma-separated values, one per generator")
    sp.add_argument("--field", default="Q", help="Q or F<p>")
    sp.set_defaults(func=cmd_alex)

    sp = sub.add_parser("subgroups", help="conjugacy classes of low-index subgroups")
    common(sp)
    sp.add_argument("--max-index", type=int, required=True)
    sp.set_defaults(func=cmd_subgroups)

    sp = sub.add_parser("rewrite", help="subgroup presentation for one class")
    common(sp)
    sp.add_argument("--max-index", type=int, required=True)
    sp.add_argument("--index-class", type=int, required=True,
                    help="0-based position in the subgroups listing")
    sp.set_defaults(func=cmd_rewrite)

    sp = sub.add_parser("certify", help="decide largeness with a certificate")
    common(sp)
    config_options(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("torus", help="mapping torus of a free-group endomorphism")
    common(sp, pres=False)
    sp.add_argument("--endo", required=True, help="file of lines 'name -> word'")
    sp.add_argument("--witness", default=None, help="w,i,v,k")
    sp.add_argument("--certify", action="store_true")
    config_options(sp)
    sp.set_defaults(func=cmd_torus)

    sp = sub.add_parser("verify", help="replay a certificate file")
    sp.add_argument("--cert", required=True)
    sp.add_argument("presentation", nargs="?", default=None,
                    help="optional presentation to verify against")
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes nowhere, so
        # the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BoundExceeded as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
