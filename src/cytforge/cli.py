"""Command-line front end.

Subcommands: verify, solve-scale, solve-ansatz, cone-check, topology, search,
reproduce-paper.  Exit codes: 0 verdict pass / solution found, 1 verdict fail
or no solution, 2 usage or input error.  Certificates print as text or JSON
(--format); decimal approximations appear only in text output and are
labeled approximate.

Repeated `main` calls in one process pay once for what does not change
between them: the parser is built on the first call and reused (argparse
returns a fresh namespace per parse), a builtin blow-up model is built once
per spec with its curve list, and a class renders its exact scalar text
once.

A command loads only the layers it runs: this module imports what the parser
needs, and each `_cmd_*` imports its own layers when it is called.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from .errors import CytForgeError
from .scalars import approx_str, format_scalar
from .surfaces import SurfaceModel, parse_class, resolve_model

# the choices of search and reproduce, which parsing does not load (a test pins them)
VALID_FILTERS = ("cyt", "skt", "balanced", "topology", "spin")
SECTIONS = ("4.1", "4.2", "4.3", "4.4", "5", "6.1", "maxroot")

_CLASS_FLAGS = {"--omega", "--kahler", "--class", "--ray", "--witness"}


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


def _certify(args, model, inputs: dict, results: dict, verdict: bool, text_head=()) -> int:
    """Emit a subcommand's certificate as JSON, or as text after its head
    lines, and map the verdict to exit code 0 or 1."""
    from . import certificates as certs

    cert = certs.build_certificate(args.command_echo, model, inputs, results, verdict)
    if args.format == "json":
        sys.stdout.write(cert.to_json())
    else:
        for line in text_head:
            print(line)
        _render_text(cert.to_doc())
    return 0 if verdict else 1


def _bundle(args, model):
    """The bundle of the --omega classes, and the certificate inputs naming them."""
    from .cyt import BundleSpec

    bundle = BundleSpec(model, tuple(parse_class(model, w) for w in args.omega))
    return bundle, {"omegas": [w.serialize() for w in bundle.curvatures]}


def _cmd_verify(args) -> int:
    from . import certificates as certs, cyt

    model = resolve_model(args.model)
    bundle, inputs = _bundle(args, model)
    f = parse_class(model, args.kahler) if args.kahler else None
    inputs.update(kahler=certs.class_doc(f), expect=args.expect)
    if f is None and args.expect != "skt":
        raise CytForgeError(f"--expect {args.expect} needs --kahler")
    if args.expect == "cyt":
        cert = cyt.verify_cyt(bundle, f)
        return _certify(args, model, inputs, {"cyt": certs.cyt_doc(cert)}, cert.verdict)
    if args.expect == "skt":
        from .skt import hodge_obstruction, verify_skt

        if f is not None and isinstance(model, SurfaceModel):
            report = hodge_obstruction(bundle, f)
        else:
            report = verify_skt(bundle)
        return _certify(args, model, inputs, {"skt": certs.skt_doc(report)}, report.verdict)
    verdict = cyt.balanced_check(bundle, f)
    return _certify(args, model, inputs, {"balanced": {"verdict": verdict}}, verdict)


def _cmd_cone_check(args) -> int:
    from . import certificates as certs, cone

    model = resolve_model(args.model)
    f = parse_class(model, getattr(args, "class"))
    witness = parse_class(model, args.witness) if args.witness else None
    cert = cone.is_kahler(model, f, witness)
    return _certify(args, model, {"class": f.serialize()}, {"cone": certs.cone_doc(cert)}, cert.verdict)


def _cmd_solve_scale(args) -> int:
    from . import certificates as certs, cyt

    model = resolve_model(args.model)
    bundle, inputs = _bundle(args, model)
    ray = parse_class(model, args.ray)
    inputs["ray"] = ray.serialize()
    scale = cyt.solve_scale(bundle, ray)
    results = {"scale": format_scalar(scale) if scale is not None else None}
    if scale is not None:
        f = scale * ray
        results["kahler"] = f.serialize()
        results["cyt"] = certs.cyt_doc(cyt.verify_cyt(bundle, f))
    head = [f"scale = {scale if scale is not None else 'NONE'}"]
    return _certify(args, model, inputs, results, scale is not None, head)


def _cmd_solve_ansatz(args) -> int:
    from . import certificates as certs, cyt

    sol = cyt.solve_symmetric_ansatz(args.k)
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
    head = [
        f"{name} = {x}  {approx_str(x)}"
        for name, x in (("n", sol.n), ("n_1..4", sol.n_first4), ("n_rest", sol.n_rest))
    ]
    return _certify(args, None, {"k": args.k}, results, True, head)


def _cmd_topology(args) -> int:
    from . import certificates as certs, topology

    model = resolve_model(args.model)
    bundle, inputs = _bundle(args, model)
    cert = topology.topology_certificate(bundle)
    results = {"topology": certs.topology_doc(cert)}
    return _certify(args, model, inputs, results, cert.diffeo_label != topology.UNCLASSIFIED)


def _cmd_search(args) -> int:
    from .catalog import append_records
    from .search import SearchQuery, search

    model = resolve_model(args.model)
    query = SearchQuery(
        model=model,
        coeff_bound=args.bound,
        filters=frozenset(args.filter or []),
        ray=parse_class(model, args.ray) if args.ray else None,
        limit=args.limit,
    )
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        open(args.out, "a").close()  # a catalog that cannot be written fails before the search
    error = None
    try:
        records, stats = search(
            query,
            threads=args.threads,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
    except BaseException as exc:
        error = exc.with_traceback(None) if isinstance(exc, MemoryError) else exc  # frees the walk's frames
    if error is not None:
        if created:
            os.remove(args.out)  # once the handler has ended: a failed search leaves no new catalog
        raise error
    if args.out:
        append_records(args.out, records)
    else:
        try:
            for rec in records:
                print(rec.to_line())
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`| head`): end quietly, and point
            # stdout at devnull so the flush at exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0
    if args.ray and "cyt" in query.filters and "ray" not in stats.cyt_routes:
        print(
            f"--ray {args.ray} not used: a cyt ray must be Kaehler with Q(c1,R) > 0 on {model.name}",
            file=sys.stderr,
        )
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
    from . import reproduce

    result = reproduce.reproduce_paper(args.section, args.k)
    diffs = result["diffs"]
    inputs = {"section": args.section, "k": args.k}
    code = _certify(args, None, inputs, {"computed": result["computed"], "diffs": diffs}, not diffs)
    if diffs:
        print(f"section {args.section}: " + "; ".join(diffs), file=sys.stderr)
    return code


def _count(least: int):
    """argparse type: an integer >= least (argparse turns the errors into exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and every `append` option defaults to None, not to a shared list."""
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
    p.add_argument("--filter", action="append", choices=VALID_FILTERS)
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
    except (CytForgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # raised here or sent back by a search worker
        pass
    # reported once the handler has ended, which frees the frames its traceback held
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
