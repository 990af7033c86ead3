"""Line-delimited catalog of search hits: one JSON record per line, exact
scalar text throughout, append-only writes, bit-exact round-trips.  Corrupt
lines are reported by number without losing the rest of the file.

A line is the record's canonical body with its digest spliced in.  The body
is JSON with sorted keys, the compact separators ``,`` and ``:`` and every
non-ASCII character escaped, byte for byte what
``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` writes::

    {"canonical_key":"…","digest":"…","flags":{"balanced":…,"cyt":…,"cyt_route":…,
     "scale":…,"skt":…,"spin":…,"topology_label":…},"kahler":[…]|null,
     "model":"…","omega1":[…],"omega2":[…]}

The digest is the sha256 of the line without its digest field, and sits at
its sorted place between ``canonical_key`` and ``flags``.
``CatalogRecord.body_text`` renders the body from a fixed template, strings
through json's own ASCII escaper, so writing a line costs one render and one
hash, and reading one costs a parse, one render and one hash.  The template
renders each field as its declared type (str text, int omegas, flags that are
None, a bool, an int or a str) and raises TypeError on anything else, so a
line with a float, list or object in a scalar field reads as corrupt.  So
does an omega entry that is not a JSON integer, digest or no digest.
``json.dumps`` stays the oracle for these bytes in the tests.

Records hold no rendered text: caching the body and digest on each record
raised the peak RSS of a 5 133-record skt search by 11 MB, and was slower
than rendering again.  They do share their flags: the search and the load
build a VerdictFlags through one cache of the last 256 verdicts, so records
with the same verdict hold one object.  The cache key carries the types,
since 1 == True and a line's "skt":1 must not be handed the object that
renders true.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .errors import CorruptRecord
from .surfaces import CohClass


@dataclass(frozen=True)
class VerdictFlags:
    cyt: Optional[bool] = None
    skt: Optional[bool] = None
    balanced: Optional[bool] = None
    spin: Optional[bool] = None
    topology_label: Optional[str] = None
    cyt_route: Optional[str] = None  # "ray" | "anticanonical_ray" | "ansatz"
    scale: Optional[str] = None  # exact scalar text


# positional order of VerdictFlags, for building one from a parsed line
_FLAG_NAMES = tuple(f.name for f in fields(VerdictFlags))

# one shared VerdictFlags per distinct verdict, for the search and the load;
# typed, as 1 == True and a line's "skt":1 must not get the object that renders true
_flags = functools.lru_cache(maxsize=256, typed=True)(VerdictFlags)


def _flag_text(value) -> str:
    # bools by identity: 1 == True, so a lookup table would spell the int 1 "true"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return str(value)
    return _quote(value)  # TypeError on anything but a str


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CatalogRecord:
    model: str
    omega1: tuple[int, ...]
    omega2: tuple[int, ...]
    kahler: Optional[tuple[str, ...]]  # exact scalar text, when a class was solved
    flags: VerdictFlags
    canonical_key: str

    def _halves(self) -> tuple[str, str]:
        """The canonical body, cut where the digest field goes."""
        f = self.flags
        kahler = "null" if self.kahler is None else f'[{",".join(map(_quote, self.kahler))}]'
        head = '{"canonical_key":' + _quote(self.canonical_key)
        # int.__repr__ refuses anything but an int; a bool is its integer value here
        tail = (
            f',"flags":{{"balanced":{_flag_text(f.balanced)},"cyt":{_flag_text(f.cyt)},'
            f'"cyt_route":{_flag_text(f.cyt_route)},"scale":{_flag_text(f.scale)},'
            f'"skt":{_flag_text(f.skt)},"spin":{_flag_text(f.spin)},'
            f'"topology_label":{_flag_text(f.topology_label)}}},'
            f'"kahler":{kahler},"model":{_quote(self.model)},'
            f'"omega1":[{",".join(map(int.__repr__, self.omega1))}],'
            f'"omega2":[{",".join(map(int.__repr__, self.omega2))}]}}'
        )
        return head, tail

    def body_text(self) -> str:
        """The canonical body: the line without its digest field."""
        head, tail = self._halves()
        return head + tail

    def to_line(self) -> str:
        head, tail = self._halves()
        return f'{head},"digest":"{_sha256(head + tail)}"{tail}'

    @staticmethod
    def from_doc(doc: dict) -> "CatalogRecord":
        flags = doc["flags"]
        if not isinstance(flags, dict):
            raise TypeError("flags is not an object")
        kahler = doc.get("kahler")
        omega1, omega2 = tuple(doc["omega1"]), tuple(doc["omega2"])
        # by type: the template renders a bool as its integer value
        if not {int}.issuperset(map(type, omega1 + omega2)):
            raise TypeError("omega entries must be integers")
        rec = CatalogRecord(
            doc["model"],
            omega1,
            omega2,
            tuple(kahler) if kahler is not None else None,
            # a list, not a map: a map's unsized star-args tuple is shrunk after
            # filling, and its freed 7-tuples pile up on the tuple free list
            _flags(*[flags.get(name) for name in _FLAG_NAMES]),
            doc["canonical_key"],
        )
        body = rec.body_text()  # a field the template cannot render raises here
        stored = doc.get("digest")
        if stored is not None and stored != _sha256(body):
            raise ValueError("digest mismatch")
        return rec

    def kahler_class(self) -> Optional[CohClass]:
        return CohClass.deserialize(self.kahler) if self.kahler is not None else None


def append_records(path: str, records: list[CatalogRecord]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_line() + "\n")


def load_catalog(path: str) -> tuple[list[CatalogRecord], list[CorruptRecord]]:
    """All readable records plus one CorruptRecord per unreadable line: bad
    UTF-8, bad or too deeply nested JSON, a missing or wrong-typed field, or
    a digest that does not match.  Lines end at b"\\n"."""
    records: list[CatalogRecord] = []
    errors: list[CorruptRecord] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    records.append(CatalogRecord.from_doc(json.loads(line)))
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                errors.append(CorruptRecord(lineno, str(exc)))
    return records, errors
