"""Command-line front end: parse inputs, dispatch, emit JSON on stdout.

Exit codes: 0 = a result was produced (UNKNOWN and failed verifications
included), 1 = input error, an unreadable input file included, or stdout
closed by its reader before the output was written, 2 = resource bound
exceeded, memory included.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
    """Print ``dumps(obj)``, or its ``_text_lines`` for ``--format text``,
    piece by piece, and flush, so that a closed stdout raises here and not
    at exit.  An iterator value stands for the list of its entries and is
    rendered one entry at a time, so the whole text is never held."""
    if getattr(args, "format", "json") == "text":
        sys.stdout.writelines(line + "\n" for line in _text_lines(obj))
    else:
        sys.stdout.writelines(_json_pieces(obj))
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


def _text_lines(obj, indent=0):
    """The text format, line by line: a key per line with nested values
    indented under it, list entries one after another, ``(none)`` for an
    empty list and an empty line for an empty dict."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            yield ""
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list, Iterator)):
                yield f"{pad}{k}:"
                yield from _text_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {v}"
    elif isinstance(obj, (list, Iterator)):
        empty = True
        for x in obj:
            empty = False
            yield from _text_lines(x, indent)
        if empty:
            yield f"{pad}(none)"
    else:
        yield f"{pad}{obj}"


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
        raise ValueError(
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


def _witness_int(text: str, at: int) -> int:
    """The integer ``text``, which starts at column ``at`` + 1 of the
    one-line witness; ParseError at its first non-blank column if it is
    not an integer."""
    if not re.fullmatch(r"\s*[-+]?\d+\s*", text):
        raise ParseError(f"bad integer {text.strip()!r}", 1,
                         at + len(text) - len(text.lstrip()) + 1)
    return int(text)


def cmd_torus(args) -> int:
    e = _parse_endo(args.endo)
    p0 = mapping_torus(e)
    out = {"presentation": presentation_to_json(p0)}
    wit = None
    if args.witness:
        parts = args.witness.split(",")
        if len(parts) != 4:
            raise ValueError("witness must be w,i,v,k")
        at = [0]  # each part's offset in the argument
        for part in parts[:-1]:
            at.append(at[-1] + len(part) + 1)
        w, v = (parse_word(parts[j], e.names, args.witness, at[j]) for j in (0, 2))
        i, k = (_witness_int(parts[j], at[j]) for j in (1, 3))
        wit = PeriodicWitness(w, i, v, k)
        out["witness_valid"] = witness_verify(e, wit)
    if args.certify:
        config = _config_from_args(args)
        if wit is not None:
            if not out["witness_valid"]:
                raise ValueError("witness fails verification")
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BoundExceeded, RecursionError, MemoryError) as exc:
        # RecursionError: input nested deeper than Python's recursion limit;
        # MemoryError: a search or a replay larger than the memory allowed
        print(f"resource bound exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
