"""Command-line front end.

Subcommands: verify, solve-scale, solve-ansatz, cone-check, topology, search,
reproduce-paper.  Exit codes: 0 verdict pass / solution found, 1 verdict fail
or no solution, 2 usage or input error.  Certificates print as text or JSON
(--format); decimal approximations appear only in text output and are
labeled approximate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import catalog as catalog_io
from . import certificates as certs
from .cyt import (
    BundleSpec,
    balanced_check,
    solve_scale,
    solve_symmetric_ansatz,
    verify_cyt,
)
from .cone import is_kahler
from .errors import CytForgeError, MismatchAgainstExpected
from .reproduce import SECTIONS, reproduce_paper
from .scalars import approx_str, format_scalar, is_rational
from .search import SearchQuery, search
from .skt import hodge_obstruction, verify_skt
from .surfaces import SurfaceModel, parse_class, resolve_model
from .topology import UNCLASSIFIED, topology_certificate

_CLASS_FLAGS = {"--omega", "--kahler", "--class", "--ray"}


def _absorb_negative_values(argv: list[str]) -> list[str]:
    """Let class expressions start with '-'  (e.g. --omega -D) by folding the
    value into the flag with '='."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _CLASS_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _inline(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    return str(value)


def _has_dicts(value) -> bool:
    return isinstance(value, list) and any(isinstance(v, dict) for v in value)


def _render_text(doc: dict, indent: int = 0, out=None):
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            print(f"{pad}{key}:", file=out)
            _render_text(value, indent + 1, out)
        elif _has_dicts(value):
            print(f"{pad}{key}:", file=out)
            for item in value:
                print(f"{pad}  -", file=out)
                _render_text(item, indent + 2, out)
        else:
            print(f"{pad}{key}: {_inline(value)}", file=out)


def _emit(cert: certs.Certificate, fmt: str):
    if fmt == "json":
        sys.stdout.write(cert.to_json())
    else:
        _render_text(cert.to_doc())


def _bundle_from_args(model, omegas: list[str]) -> BundleSpec:
    return BundleSpec(model, tuple(parse_class(model, w) for w in omegas))


def _cmd_verify(args) -> int:
    model = resolve_model(args.model)
    bundle = _bundle_from_args(model, args.omega)
    results = {}
    f = parse_class(model, args.kahler) if args.kahler else None
    expect = args.expect

    if expect == "cyt":
        if f is None:
            raise CytForgeError("--expect cyt needs --kahler")
        cyt = verify_cyt(bundle, f)
        results["cyt"] = certs.cyt_doc(cyt)
        verdict = cyt.verdict
    elif expect == "skt":
        report = verify_skt(bundle)
        if f is not None and isinstance(model, SurfaceModel):
            report = hodge_obstruction(bundle, f)
        results["skt"] = certs.skt_doc(report)
        verdict = report.verdict
    else:  # balanced
        if f is None:
            raise CytForgeError("--expect balanced needs --kahler")
        verdict = balanced_check(bundle, f)
        results["balanced"] = {"verdict": verdict}

    cert = certs.build_certificate(
        command=args.command_echo,
        model=model,
        inputs={
            "omegas": [w.serialize() for w in bundle.curvatures],
            "kahler": f.serialize() if f is not None else None,
            "expect": expect,
        },
        results=results,
        verdict=verdict,
    )
    _emit(cert, args.format)
    return 0 if verdict else 1


def _cmd_cone_check(args) -> int:
    model = resolve_model(args.model)
    if not isinstance(model, SurfaceModel):
        raise CytForgeError("cone checks need a full lattice model")
    f = parse_class(model, getattr(args, "class"))
    witness = parse_class(model, args.witness) if args.witness else None
    cone = is_kahler(model, f, witness)
    cert = certs.build_certificate(
        command=args.command_echo,
        model=model,
        inputs={"class": f.serialize()},
        results={"cone": certs.cone_doc(cone)},
        verdict=cone.verdict,
    )
    _emit(cert, args.format)
    return 0 if cone.verdict else 1


def _cmd_solve_scale(args) -> int:
    model = resolve_model(args.model)
    bundle = _bundle_from_args(model, args.omega)
    ray = parse_class(model, args.ray)
    scale = solve_scale(bundle, ray)
    found = scale is not None
    results = {"scale": format_scalar(scale) if found else None}
    if found:
        f = scale * ray
        results["kahler"] = f.serialize()
        results["cyt"] = certs.cyt_doc(verify_cyt(bundle, f))
    cert = certs.build_certificate(
        command=args.command_echo,
        model=model,
        inputs={"omegas": [w.serialize() for w in bundle.curvatures], "ray": ray.serialize()},
        results=results,
        verdict=found,
    )
    if args.format == "text":
        if found:
            print(f"scale = {scale}")
        else:
            print("scale = NONE")
    _emit(cert, args.format)
    return 0 if found else 1


def _cmd_solve_ansatz(args) -> int:
    sol = solve_symmetric_ansatz(args.k)
    if sol is None:
        print(f"no symmetric-ansatz solution for k={args.k}", file=sys.stderr)
        return 1
    results = {
        "n": format_scalar(sol.n),
        "n_first4": format_scalar(sol.n_first4),
        "n_rest": format_scalar(sol.n_rest),
        "kahler": sol.kahler_class.serialize(),
        "omega1": sol.omega1.serialize(),
        "omega2": sol.omega2.serialize(),
        "cone": certs.cone_doc(sol.cone),
    }
    cert = certs.build_certificate(
        command=args.command_echo,
        model=None,
        inputs={"k": args.k},
        results=results,
        verdict=True,
    )
    if args.format == "text":
        print(f"n = {sol.n}  {approx_str(sol.n)}")
        print(f"n_1..4 = {sol.n_first4}  {approx_str(sol.n_first4)}")
        print(f"n_rest = {sol.n_rest}  {approx_str(sol.n_rest)}")
    _emit(cert, args.format)
    return 0


def _cmd_topology(args) -> int:
    model = resolve_model(args.model)
    bundle = _bundle_from_args(model, args.omega)
    cert_t = topology_certificate(bundle)
    verdict = cert_t.diffeo_label != UNCLASSIFIED
    cert = certs.build_certificate(
        command=args.command_echo,
        model=model,
        inputs={"omegas": [w.serialize() for w in bundle.curvatures]},
        results={"topology": certs.topology_doc(cert_t)},
        verdict=verdict,
    )
    _emit(cert, args.format)
    return 0 if verdict else 1


def _cmd_search(args) -> int:
    model = resolve_model(args.model)
    if not isinstance(model, SurfaceModel):
        raise CytForgeError("search needs a full lattice model")
    ray = parse_class(model, args.ray) if args.ray else None
    for f in ray.coeffs if ray is not None else ():
        if not is_rational(f):
            raise CytForgeError("search rays must have rational coefficients")
    query = SearchQuery(
        model=model,
        coeff_bound=args.bound,
        filters=frozenset(args.filter or []),
        ray=ray,
        limit=args.limit,
    )
    records, stats = search(
        query,
        threads=args.threads,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    if args.out:
        catalog_io.append_records(args.out, records)
    else:
        for rec in records:
            print(rec.to_line())
    if stats.exhausted:
        outcome = f"search exhausted coefficient bound {stats.bound}"
    else:
        outcome = f"search stopped at --limit {args.limit}"
    print(
        f"{outcome}: {stats.pairs_evaluated} pairs visited, "
        f"{stats.pairs_skipped} skipped by symmetry, {stats.records_emitted} records",
        file=sys.stderr,
    )
    return 0 if records else 1


def _cmd_reproduce(args) -> int:
    result = reproduce_paper(args.section, args.k, strict=False)
    verdict = not result["diffs"]
    cert = certs.build_certificate(
        command=args.command_echo,
        model=None,
        inputs={"section": args.section, "k": args.k},
        results={"computed": result["computed"], "diffs": result["diffs"]},
        verdict=verdict,
    )
    _emit(cert, args.format)
    if not verdict:
        err = MismatchAgainstExpected(f"section {args.section}", result["diffs"])
        print(str(err), file=sys.stderr)
        return 1
    return 0


def _count(least: int):
    """argparse type: an integer >= least (argparse turns the errors into exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cytforge",
        description="Exact-arithmetic certification of torsion Calabi-Yau, "
        "strong-KT and balanced structures on 2-torus bundles over surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="certify a bundle against a condition")
    p.add_argument("--model", required=True)
    p.add_argument("--omega", action="append", required=True, help="curvature class (repeat)")
    p.add_argument("--kahler", help="Kaehler class expression")
    p.add_argument("--expect", choices=("cyt", "skt", "balanced"), default="cyt")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cone-check", help="Kaehler-cone membership certificate")
    p.add_argument("--model", required=True)
    p.add_argument("--class", required=True)
    p.add_argument("--witness", help="override the ample witness")
    add_format(p)
    p.set_defaults(func=_cmd_cone_check)

    p = sub.add_parser("solve-scale", help="solve for the defect-vanishing scale on a ray")
    p.add_argument("--model", required=True)
    p.add_argument("--omega", action="append", required=True)
    p.add_argument("--ray", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_solve_scale)

    p = sub.add_parser("solve-ansatz", help="symmetric ansatz on k >= 9 points of a cubic")
    p.add_argument("--k", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_solve_ansatz)

    p = sub.add_parser("topology", help="total-space topology certificate")
    p.add_argument("--model", required=True)
    p.add_argument("--omega", action="append", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("search", help="enumerate curvature pairs passing filters")
    p.add_argument("--model", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--filter", action="append", choices=("cyt", "skt", "balanced", "topology", "spin"))
    p.add_argument("--ray")
    p.add_argument("--out", help="catalog file (line-delimited records)")
    p.add_argument("--limit", type=_count(0))
    p.add_argument("--threads", type=_count(1), help="worker processes (default: up to 4)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("reproduce-paper", help="rerun a worked construction against frozen values")
    p.add_argument("--section", required=True, choices=SECTIONS)
    p.add_argument("--k", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_absorb_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args.command_echo = list(argv)
    try:
        return args.func(args)
    except MismatchAgainstExpected as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CytForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
