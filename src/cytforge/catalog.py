"""Line-delimited catalog of search hits: one JSON record per line, exact
scalar text throughout, append-only writes, bit-exact round-trips.  Corrupt
lines are reported by number without losing the rest of the file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
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

    def to_doc(self) -> dict:
        return {name: getattr(self, name) for name in _FLAG_NAMES}

    @staticmethod
    def from_doc(doc: dict) -> "VerdictFlags":
        return VerdictFlags(**{name: doc.get(name) for name in _FLAG_NAMES})


# dataclasses.asdict deep-copies every value; records are written in bulk
_FLAG_NAMES = tuple(f.name for f in fields(VerdictFlags))


@dataclass(frozen=True)
class CatalogRecord:
    model: str
    omega1: tuple[int, ...]
    omega2: tuple[int, ...]
    kahler: Optional[tuple[str, ...]]  # exact scalar text, when a class was solved
    flags: VerdictFlags
    canonical_key: str

    def body_doc(self) -> dict:
        return {
            "model": self.model,
            "omega1": list(self.omega1),
            "omega2": list(self.omega2),
            "kahler": list(self.kahler) if self.kahler is not None else None,
            "flags": self.flags.to_doc(),
            "canonical_key": self.canonical_key,
        }

    @property
    def digest(self) -> str:
        body = json.dumps(self.body_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def to_line(self) -> str:
        doc = self.body_doc()
        doc["digest"] = self.digest
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_doc(doc: dict) -> "CatalogRecord":
        rec = CatalogRecord(
            model=doc["model"],
            omega1=tuple(int(x) for x in doc["omega1"]),
            omega2=tuple(int(x) for x in doc["omega2"]),
            kahler=tuple(doc["kahler"]) if doc.get("kahler") is not None else None,
            flags=VerdictFlags.from_doc(doc["flags"]),
            canonical_key=doc["canonical_key"],
        )
        stored = doc.get("digest")
        if stored is not None and stored != rec.digest:
            raise ValueError("digest mismatch")
        return rec

    def kahler_class(self) -> Optional[CohClass]:
        return CohClass.deserialize(self.kahler) if self.kahler is not None else None


def append_records(path: str, records: list[CatalogRecord]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_line() + "\n")


def load_catalog(path: str) -> tuple[list[CatalogRecord], list[CorruptRecord]]:
    """All readable records plus one CorruptRecord per unreadable line."""
    records: list[CatalogRecord] = []
    errors: list[CorruptRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(CatalogRecord.from_doc(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(CorruptRecord(lineno, str(exc)))
    return records, errors
