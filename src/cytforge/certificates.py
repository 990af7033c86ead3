"""Machine-readable certificates: every inequality and identity a verdict
rests on, serialized with exact scalar text and digestible.

The digest covers the canonical JSON of everything except the timestamp, so
re-running the echoed command reproduces the certificate byte for byte up to
that field.

One writer, ``_render``, renders the compact text the digests hash and the
indented text ``Certificate.to_json`` prints: byte for byte what json.dumps
writes with ``sort_keys=True`` and ``separators=(",", ":")`` or
``indent=2``, its oracle in the tests.  CPython before 3.13 runs any
``indent=`` encode in pure Python; the writer sends every string through
json's C escaper and renders a list of dicts with one key set, such as the
240 curve checks on the blow-up at 8 points, as a table (``_table``).  Each
top-level field is rendered once compact for the digest and once indented.
A model's block (texts and digest) and the escaped items of its cone curves
are rendered once per model and kept in its store, so a curve table renders
only its value and sign columns per certificate.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import InitVar, dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape  # the C escaper of json.dumps
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from .scalars import format_scalar
from .surfaces import CohClass, Model, model_to_dict

if TYPE_CHECKING:  # named in annotations only, so rendering loads no solver layer
    from .cone import ConeCertificate
    from .cyt import CytCertificate
    from .skt import SktReport
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


def _pads(indent: Optional[str]) -> tuple[Optional[str], str, str]:
    """A container's inner indent, text after its opening and before its closing bracket."""
    return (None, "", "") if indent is None else (indent + "  ", f"\n{indent}  ", "\n" + indent)


def _column(values: list, indent: Optional[str], cells: Optional[dict]) -> list[str]:
    """The rendered values of one table column: in one map when they are all str,
    all int or all non-empty lists of str (curves: from their escaped items
    newline-joined, which cells keeps for a model's cone curves), else one by one."""
    types = set(map(type, values))
    if types == _STR_ONLY:
        return list(map(_escape, values))
    if types == _INT_ONLY:
        return list(map(int.__repr__, values))
    if types == _LIST_ONLY and all(values) and set(map(type, chain.from_iterable(values))) == _STR_ONLY:
        joined = list(map((cells or {}).get, map(tuple, values)))
        if None in joined:
            joined = [j or "\n".join(map(_escape, v)) for j, v in zip(joined, values)]
        _, pad, end = _pads(indent)
        sep = "," + pad  # an escaped item holds no newline
        return ["[" + pad + j.replace("\n", sep) + end + "]" for j in joined]
    return [_render(v, indent, cells) for v in values]


def _table(rows, indent: Optional[str], cells: Optional[dict]) -> Optional[str]:
    """The items of a non-empty list of dicts, each at ``indent``, when the
    dicts share one non-empty key set, else None: the sorted keys are
    escaped once into a row template, and the values are rendered column by
    column (`_column`)."""
    keys = rows[0].keys()
    key_types = set(map(type, keys)) - _STR_ONLY
    if key_types:
        raise TypeError(f"keys of type {key_types.pop().__name__} are not JSON serializable")
    names = sorted(keys)
    # rows of one length that each hold every name share one key set
    if not names or set(map(len, rows)) != {len(names)}:
        return None
    try:
        columns = [list(map(itemgetter(k), rows)) for k in names]
    except KeyError:
        return None
    inner, pad, end = _pads(indent)
    colon = ":" if indent is None else ": "
    entries = ("," + pad).join([_escape(k).replace("%", "%%") + colon + "%s" for k in names])
    template = f"{{{pad}{entries}{end}}}"
    cells_by_row = zip(*[_column(column, inner, cells) for column in columns])
    return ("," if indent is None else ",\n" + indent).join([template % row for row in cells_by_row])


def _render(o, indent: Optional[str] = None, cells: Optional[dict] = None) -> str:
    """``json.dumps(o, sort_keys=True, separators=(",", ":"))`` at indent None,
    ``json.dumps(o, sort_keys=True, indent=2)`` at a str indent (the prefix of
    o's own line), for str, int, bool, None, and lists, tuples and str-keyed
    dicts of them; any other type raises TypeError, and so does a str or int
    subclass other than bool.  A list of dicts with one key set is a table."""
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
    if t is not list and t is not tuple and t is not dict:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not o:
        return "{}" if t is dict else "[]"
    inner, pad, end = _pads(indent)
    sep = "," + pad
    if t is dict:
        key_types = set(map(type, o)) - _STR_ONLY
        if key_types:
            raise TypeError(f"keys of type {key_types.pop().__name__} are not JSON serializable")
        colon = ":" if indent is None else ": "
        body = sep.join([f"{_escape(k)}{colon}{_render(v, inner, cells)}" for k, v in sorted(o.items())])
        return f"{{{pad}{body}{end}}}"
    item_types = set(map(type, o))
    if item_types == _STR_ONLY:
        body = sep.join(map(_escape, o))
    elif item_types == _INT_ONLY:
        body = sep.join(map(int.__repr__, o))
    else:
        body = _table(o, inner, cells) if item_types == _DICT_ONLY else None
        if body is None:
            body = sep.join([_render(x, inner, cells) for x in o])
    return f"[{pad}{body}{end}]"


def digest_of(doc: dict) -> str:
    trimmed = {k: v for k, v in doc.items() if k != "timestamp"}
    return hashlib.sha256(_render(trimmed).encode("utf-8")).hexdigest()


def class_doc(c: Optional[CohClass]) -> Optional[list[str]]:
    return c.serialize() if c is not None else None


def cone_doc(cert: Optional[ConeCertificate]) -> Optional[dict]:
    """The cone certificate's fields.  The first on a model keeps in its store
    each cone curve's escaped items newline-joined, keyed by its text."""
    if cert is None:
        return None
    store = cert.model.certificate_store
    if "cells" not in store:
        store["cells"] = {c.text: "\n".join(map(_escape, c.text)) for c in cert.curves}
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


# the keys of a document in the order the text format prints them
_DOC_KEYS = ("command", "tool_version", "model", "model_digest", "inputs", "results", "verdict",
             "normalization_note", "timestamp", "digest")


@dataclass
class Certificate:
    """Top-level record a CLI run emits.  One built on a model (``source``)
    renders its model block and curve tables from the model's store: the
    block as the model dict's marshal bytes, compact text, digest and
    indented text, and the cells of the cone curves (`cone_doc`)."""

    command: list[str]
    model: Optional[dict]
    inputs: dict
    results: dict
    verdict: bool
    tool_version: str = TOOL_VERSION
    normalization_note: str = NORMALIZATION_NOTE
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    source: InitVar[Optional[Model]] = None

    def __post_init__(self, source: Optional[Model]) -> None:
        self._store = source.certificate_store if source is not None else {}
        if source is not None and "block" not in self._store:
            doc = model_to_dict(source)
            self._store["block"] = (marshal.dumps(doc, 2), _render(doc), digest_of(doc), _render(doc, "  "))

    def _fields(self) -> tuple[dict, Optional[str], Optional[dict]]:
        """The document's fields with the digest of their compact texts, the
        model block's indented text if stored, and the store's curve cells."""
        block, cells = self._store.get("block"), self._store.get("cells")
        try:  # marshal tells True from 1 and 1 from 1.0, which == does not
            cached = block is not None and marshal.dumps(self.model, 2) == block[0]
        except ValueError:  # a str or int subclass, which marshal does not write
            cached = False
        if cached:
            _, model_text, model_digest, model_indented = block
        else:
            model_text, model_indented = _render(self.model), None
            model_digest = digest_of(self.model) if self.model else None
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timestamp"}
        doc["model_digest"] = model_digest
        texts = [f'"{k}":{model_text if k == "model" else _render(v, None, cells)}'
                 for k, v in sorted(doc.items())]
        compact = "{" + ",".join(texts) + "}"
        doc.update(digest=hashlib.sha256(compact.encode("utf-8")).hexdigest(), timestamp=self.timestamp)
        return doc, model_indented, cells

    def to_doc(self) -> dict:
        doc, _, _ = self._fields()
        return {k: doc[k] for k in _DOC_KEYS}

    def to_json(self) -> str:
        """The document as ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
        newline, byte for byte (the tests hold json.dumps as the oracle)."""
        doc, model_indented, cells = self._fields()
        texts = [
            f'"{k}": {model_indented if k == "model" and model_indented else _render(v, "  ", cells)}'
            for k, v in sorted(doc.items())
        ]
        return "{\n  " + ",\n  ".join(texts) + "\n}\n"


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
        source=model,
    )
