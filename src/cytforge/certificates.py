"""Machine-readable certificates: every inequality and identity a verdict
rests on, serialized with exact scalar text and digestible.

The digest covers the canonical JSON of everything except the timestamp, so
re-running the echoed command reproduces the certificate byte for byte up to
that field.

One walk, ``_texts``, renders both texts of a value: the compact text the
digests hash and the indented text ``Certificate.to_json`` prints, byte
for byte what json.dumps writes with ``sort_keys=True`` and
``separators=(",", ":")`` or ``indent=2``, its oracle in the tests.  CPython
before 3.13 runs any ``indent=`` encode in pure Python; the walk escapes each
string once with json's C escaper and renders a list of dicts with one key
set, such as the 240 curve checks on the blow-up at 8 points, as a table
whose columns are taken and type-checked once (`_table`).  A model's block
(texts and digest) is rendered once per model, and its cone curves' cells
once per model and line prefix, both kept in its store, so a curve table
renders only its value and sign columns per certificate.
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


def _curve_cells(store: dict, indent: Optional[str]) -> dict:
    """The model's cone-curve cells at a line prefix, text -> both texts,
    rendered on the first table at that prefix and kept in its store."""
    cells = store["cells"]
    if indent not in cells:
        cells[indent] = {text: _texts(list(text), indent) for text in store["curves"]}
    return cells[indent]


def _column(values: list, indent: Optional[str], store: Optional[dict]) -> tuple:
    """Both texts of each value of one table column: in one map when they are
    all str or all int, from the model's cells for a column of lists of str
    that are its cone curves, else one by one."""
    types = set(map(type, values))
    if types == _STR_ONLY or types == _INT_ONLY:
        texts = list(map(_escape if types == _STR_ONLY else int.__repr__, values))
        return texts, texts
    if store and "curves" in store and types == _LIST_ONLY and set(map(type, chain.from_iterable(values))) == _STR_ONLY:
        pairs = list(map(_curve_cells(store, indent).get, map(tuple, values)))
        if None in pairs:
            pairs = [p or _texts(v, indent) for p, v in zip(pairs, values)]
    else:
        pairs = [_texts(v, indent, store) for v in values]
    return tuple(zip(*pairs))


def _table(rows, indent: Optional[str], store: Optional[dict]) -> Optional[tuple]:
    """Both texts of each item of a non-empty list of dicts, at ``indent``,
    when the dicts share one non-empty key set, else None: the sorted keys
    are escaped once into a row template of each form, and the values are
    taken and rendered column by column (`_column`)."""
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
    escaped = [_escape(k).replace("%", "%%") for k in names]
    compacts, indenteds = zip(*[_column(column, inner, store) for column in columns])
    row = "{" + ",".join([k + ":%s" for k in escaped]) + "}"
    compact = [row % cells for cells in zip(*compacts)]
    if indent is None:
        return compact, None
    row = f"{{{pad}{(',' + pad).join([k + ': %s' for k in escaped])}{end}}}"
    return compact, [row % cells for cells in zip(*indenteds)]


def _texts(o, indent: Optional[str] = None, store: Optional[dict] = None) -> tuple[str, Optional[str]]:
    """Both texts of o in one walk: ``json.dumps(o, sort_keys=True,
    separators=(",", ":"))`` and, at a str indent (the prefix of o's own
    line), ``json.dumps(o, sort_keys=True, indent=2)``; at indent None a
    container's indented text is None.  Takes str, int, bool, None, and
    lists, tuples and str-keyed dicts of them; any other type raises
    TypeError, and so does a str or int subclass other than bool.  A list of
    dicts with one key set is a table (`_table`)."""
    t = type(o)
    if t is str:
        text = _escape(o)
        return text, text
    if o is None:
        return "null", "null"
    if o is True:
        return "true", "true"
    if o is False:
        return "false", "false"
    if t is int:
        text = int.__repr__(o)
        return text, text
    if t is not list and t is not tuple and t is not dict:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not o:
        text = "{}" if t is dict else "[]"
        return text, text
    inner, pad, end = _pads(indent)
    sep = "," + pad
    if t is dict:
        key_types = set(map(type, o)) - _STR_ONLY
        if key_types:
            raise TypeError(f"keys of type {key_types.pop().__name__} are not JSON serializable")
        items = [(_escape(k), *_texts(v, inner, store)) for k, v in sorted(o.items())]
        compact = f"{{{','.join([f'{k}:{c}' for k, c, _ in items])}}}"
        if indent is None:
            return compact, None
        return compact, f"{{{pad}{sep.join([f'{k}: {i}' for k, _, i in items])}{end}}}"
    item_types = set(map(type, o))
    if item_types == _STR_ONLY or item_types == _INT_ONLY:
        compacts = indenteds = list(map(_escape if item_types == _STR_ONLY else int.__repr__, o))
    else:
        table = _table(o, inner, store) if item_types == _DICT_ONLY else None
        compacts, indenteds = table or zip(*[_texts(x, inner, store) for x in o])
    compact = f"[{','.join(compacts)}]"
    return compact, None if indent is None else f"[{pad}{sep.join(indenteds)}{end}]"


def digest_of(doc: dict) -> str:
    trimmed = {k: v for k, v in doc.items() if k != "timestamp"}
    return hashlib.sha256(_texts(trimmed)[0].encode("utf-8")).hexdigest()


def class_doc(c: Optional[CohClass]) -> Optional[list[str]]:
    return c.serialize() if c is not None else None


def cone_doc(cert: Optional[ConeCertificate]) -> Optional[dict]:
    """The cone certificate's fields.  The first on a model keeps in its store
    the texts of its cone curves, whose cells `_curve_cells` renders."""
    if cert is None:
        return None
    store = cert.model.certificate_store
    if "curves" not in store:
        store["curves"], store["cells"] = [c.text for c in cert.curves], {}
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
    """Top-level record a CLI run emits.  Each field is rendered in one walk
    (`_texts`) to its compact text, which the digest hashes, and, for
    `to_json`, its indented text.  One built on a model (``source``) renders
    its model block and curve tables from the model's store: the block as
    the model dict's marshal bytes, compact and indented texts and digest,
    and the cells of the cone curves at each prefix (`_curve_cells`)."""

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
            self._store["block"] = (marshal.dumps(doc, 2), *_texts(doc, "  "), digest_of(doc))

    def _fields(self, indent: Optional[str]) -> tuple[dict, dict]:
        """The document's fields with the digest of their compact texts, and
        each field's texts at ``indent`` (`_texts`), the digest's excepted."""
        block = self._store.get("block")
        try:  # marshal tells True from 1 and 1 from 1.0, which == does not
            cached = block is not None and marshal.dumps(self.model, 2) == block[0]
        except ValueError:  # a str or int subclass, which marshal does not write
            cached = False
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        if cached:
            model, doc["model_digest"] = block[1:3], block[3]
        else:
            model = _texts(self.model, indent)
            doc["model_digest"] = digest_of(self.model) if self.model else None
        texts = {k: model if k == "model" else _texts(v, indent, self._store) for k, v in doc.items()}
        compact = "{" + ",".join([f'"{k}":{texts[k][0]}' for k in sorted(texts) if k != "timestamp"]) + "}"
        doc["digest"] = hashlib.sha256(compact.encode("utf-8")).hexdigest()
        return doc, texts

    def to_doc(self) -> dict:
        doc, _ = self._fields(None)
        return {k: doc[k] for k in _DOC_KEYS}

    def to_json(self) -> str:
        """The document as ``json.dumps(doc, sort_keys=True, indent=2)`` plus a
        newline, byte for byte (the tests hold json.dumps as the oracle)."""
        doc, texts = self._fields("  ")
        texts["digest"] = _texts(doc["digest"])
        return "{\n  " + ",\n  ".join([f'"{k}": {texts[k][1]}' for k in sorted(texts)]) + "\n}\n"


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
