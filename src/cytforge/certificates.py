"""Machine-readable certificates: every inequality and identity a verdict
rests on, serialized with exact scalar text and digestible.

The digest covers the canonical JSON of everything except the timestamp, so
re-running the echoed command reproduces the certificate byte for byte up to
that field.

The indented document ``Certificate.to_json`` prints is rendered by
``_indented``, whose output equals ``json.dumps(doc, sort_keys=True,
indent=2)`` byte for byte; the tests hold ``json.dumps`` as its oracle.  It
exists because CPython before 3.13 runs any ``indent=`` encode in json's
pure-Python generators, which took about 40% of a warm certify round on
3.11; the writer sends every string through the same C escaper.  A list of
dicts with one key set, such as a cone certificate's 240 curve checks on
the blow-up at 8 points, is rendered as a table: the sorted keys are
escaped once into a row template, and a column of str values, of int
values or of lists of str is rendered in one pass (``_table``).  The
compact digest encodes stay on ``json.dumps``, which runs them in C.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape  # the C escaper of json.dumps
from typing import Optional

from .cone import ConeCertificate
from .cyt import CytCertificate
from .scalars import format_scalar
from .skt import SktReport
from .surfaces import CohClass, Model, model_to_dict
from .topology import SpectralTables, TopologyCertificate

TOOL_VERSION = "0.1.0"

NORMALIZATION_NOTE = (
    "Ricci classes are identified with the anti-canonical class of the base, "
    "so the trace condition fixes the overall scale of the fiber class; "
    "solvers treat that scale as an unknown, and a class failing only by "
    "scale is flagged via solved_scale rather than silently rescaled."
)

SKT_NOTE = (
    "necessary lattice condition verified; the metric construction making it "
    "sufficient is assumed"
)


_STR_ONLY = {str}
_DICT_ONLY = {dict}
_INT_ONLY = {int}
_LIST_ONLY = {list}


def _column(values: list, indent: str) -> list[str]:
    """The rendered values of one table column: in one map when they are all
    str, all int or all non-empty lists of str (a curve column), else value
    by value."""
    types = set(map(type, values))
    if types == _STR_ONLY:
        return list(map(_escape, values))
    if types == _INT_ONLY:
        return list(map(int.__repr__, values))
    if types == _LIST_ONLY and all(values) and set(map(type, chain.from_iterable(values))) == _STR_ONLY:
        sep = ",\n" + indent + "  "
        return [f"[\n{indent}  {sep.join(map(_escape, v))}\n{indent}]" for v in values]
    return [_indented(v, indent) for v in values]


def _table(rows, indent: str) -> Optional[str]:
    """The items of a non-empty list of dicts, each at ``indent``, when the
    dicts share one non-empty key set, else None: the sorted keys are
    escaped once into a row template, and the values are rendered column by
    column (`_column`)."""
    keys = rows[0].keys()
    if not keys or any(row.keys() != keys for row in rows):
        return None
    key_types = set(map(type, keys)) - _STR_ONLY
    if key_types:
        raise TypeError(f"keys of type {key_types.pop().__name__} are not JSON serializable")
    inner = indent + "  "
    names = sorted(keys)
    fields = f",\n{inner}".join([_escape(k).replace("%", "%%") + ": %s" for k in names])
    template = f"{{\n{inner}{fields}\n{indent}}}"
    columns = [_column([row[k] for row in rows], inner) for k in names]
    return f",\n{indent}".join([template % cells for cells in zip(*columns)])


def _indented(o, indent: str = "") -> str:
    """``json.dumps(o, sort_keys=True, indent=2)`` for the values a certificate
    holds: str, int, bool, None, and lists, tuples and str-keyed dicts of them.
    Any other type raises TypeError, and so does a str or int subclass other
    than bool.

    A list of str is escaped in one map.  A list whose items are all dicts
    with one key set, such as a cone certificate's curve_checks, is rendered
    as a table (`_table`)."""
    t = type(o)
    if t is str:
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is int:
        return int.__repr__(o)
    inner = indent + "  "
    sep = ",\n" + inner
    if t is list or t is tuple:
        if not o:
            return "[]"
        item_types = set(map(type, o))
        if item_types == _STR_ONLY:
            body = sep.join(map(_escape, o))
        else:
            body = _table(o, inner) if item_types == _DICT_ONLY else None
            if body is None:
                body = sep.join([_indented(x, inner) for x in o])
        return f"[\n{inner}{body}\n{indent}]"
    if t is dict:
        if not o:
            return "{}"
        key_types = set(map(type, o)) - _STR_ONLY
        if key_types:
            raise TypeError(f"keys of type {key_types.pop().__name__} are not JSON serializable")
        body = sep.join([f"{_escape(k)}: {_indented(v, inner)}" for k, v in sorted(o.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _json_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest_of(doc: dict) -> str:
    trimmed = {k: v for k, v in doc.items() if k != "timestamp"}
    return hashlib.sha256(_json_canonical(trimmed).encode("utf-8")).hexdigest()


def class_doc(c: Optional[CohClass]) -> Optional[list[str]]:
    return c.serialize() if c is not None else None


def cone_doc(cert: Optional[ConeCertificate]) -> Optional[dict]:
    if cert is None:
        return None
    return {
        "self_intersection": format_scalar(cert.self_intersection),
        "self_sign": cert.self_sign,
        "curve_checks": [
            {"curve": class_doc(c.curve), "value": format_scalar(c.value), "sign": c.sign}
            for c in cert.curve_checks
        ],
        "ample_witness": class_doc(cert.ample_witness),
        "ample_value": format_scalar(cert.ample_value) if cert.ample_value is not None else None,
        "ample_sign": cert.ample_sign,
        "witness_source": cert.witness_source,
        "anticanonical_ray": cert.anticanonical_ray,
        "verdict": cert.verdict,
    }


def cyt_doc(cert: CytCertificate) -> dict:
    return {
        "kahler_class": class_doc(cert.kahler_class),
        "lambdas": [format_scalar(x) for x in cert.lambdas],
        "defect": class_doc(cert.defect),
        "defect_zero": cert.defect_zero,
        "curvatures_integral": cert.curvatures_integral,
        "cone": cone_doc(cert.cone),
        "solved_scale": format_scalar(cert.solved_scale) if cert.solved_scale is not None else None,
        "reason": cert.reason,
        "verdict": cert.verdict,
    }


def skt_doc(report: SktReport) -> dict:
    doc = {
        "per_class_squares": [format_scalar(q) for q in report.per_class_squares],
        "total": format_scalar(report.total),
        "verdict": report.verdict,
        "note": SKT_NOTE,
    }
    if report.hodge is not None:
        doc["hodge"] = [
            {
                "omega": class_doc(row.omega),
                "trace_coefficient": format_scalar(row.trace_coefficient),
                "primitive_part": class_doc(row.primitive_part),
                "primitive_square": format_scalar(row.primitive_square),
            }
            for row in report.hodge
        ]
        doc["all_primitive_obstruction"] = report.all_primitive_obstruction
    return doc


def tables_doc(tables: Optional[SpectralTables]) -> Optional[dict]:
    if tables is None:
        return None
    return {
        "e2": [list(row) for row in tables.e2],
        "e3": [list(row) for row in tables.e3],
        "betti": list(tables.betti),
    }


def topology_doc(cert: TopologyCertificate) -> dict:
    return {
        "basis_extension": cert.basis_extension,
        "alpha": class_doc(cert.alpha),
        "beta": class_doc(cert.beta),
        "pairing_snf": list(cert.pairing_snf),
        "simply_connected_surrogate": cert.simply_connected_surrogate,
        "spin_integral": cert.spin_integral,
        "spin_mod2": cert.spin_mod2,
        "diffeo_label": cert.diffeo_label,
        "tables": tables_doc(cert.tables),
    }


@dataclass
class Certificate:
    """Top-level record a CLI run emits."""

    command: list[str]
    model: Optional[dict]
    inputs: dict
    results: dict
    verdict: bool
    tool_version: str = TOOL_VERSION
    normalization_note: str = NORMALIZATION_NOTE
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def to_doc(self) -> dict:
        doc = {
            "command": self.command,
            "tool_version": self.tool_version,
            "model": self.model,
            "model_digest": digest_of(self.model) if self.model else None,
            "inputs": self.inputs,
            "results": self.results,
            "verdict": self.verdict,
            "normalization_note": self.normalization_note,
            "timestamp": self.timestamp,
        }
        doc["digest"] = digest_of({k: v for k, v in doc.items() if k != "digest"})
        return doc

    def to_json(self) -> str:
        """The document as ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
        newline, byte for byte (the tests hold json.dumps as the oracle).
        ``_indented`` writes it because json runs ``indent=`` in pure Python
        before 3.13."""
        return _indented(self.to_doc()) + "\n"


def build_certificate(
    command: list[str],
    model: Optional[Model],
    inputs: dict,
    results: dict,
    verdict: bool,
) -> Certificate:
    return Certificate(
        command=list(command),
        model=model_to_dict(model) if model is not None else None,
        inputs=inputs,
        results=results,
        verdict=verdict,
    )
