"""Pure helpers for the cytforge benchmark: statistics, the host-speed
kernel, the orbit canonicaliser, span self-time arithmetic, the seeded
certify-op generator and independent re-verification in plain Fraction
arithmetic.

Nothing here imports cytforge, so these helpers can check its outputs and can
be tested without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import statistics
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

# -- statistics -----------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


# -- host speed -----------------------------------------------------------
#
# On a shared host the same search takes from 140 to 300 ms, in phases that
# last tens of seconds.  Timings are therefore scaled by the host's speed at
# the moment: a fixed pure-Python kernel, run right before and right after the
# timed work, slows down with it, and the ratio of the two stays within a few
# percent across those phases.  Work on 2 processes is bracketed by the kernel
# on 2 processes, because losing the second CPU slows it far more.

REF_NOMINAL_S = 0.003  # reference_kernel on an idle 2-vCPU Intel Xeon host, Python 3.11.7


def reference_kernel() -> tuple:
    """Interpreter work like cytforge's: tuples, dicts, small ints, Fractions."""
    table: dict = {}
    acc = Fraction(0)
    for i in range(2000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + sum(a * b for a, b in zip(key, key[::-1]))
        if i % 8 == 0:
            acc += Fraction(i % 17 + 1, i % 19 + 1)
    return acc, len(table)


def reference_s(reps: int = 5) -> float:
    """Median time of the reference kernel over reps runs."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return median(times)


# A cold start spends its time faulting in memory and reading compiled
# modules, which the kernel above does not track.  Set-up time is scaled by
# a cold start of its own instead: a fresh interpreter importing a fixed set
# of stdlib modules, timed right before each set-up probe.
COLD_START_REF = (
    "import time; t = time.perf_counter(); "
    "import argparse, dataclasses, datetime, fractions, hashlib, importlib.resources, itertools, json, "
    "multiprocessing, re; print(time.perf_counter() - t)"
)
COLD_START_NOMINAL_S = 0.030  # COLD_START_REF on an idle 2-vCPU Intel Xeon host, Python 3.11.7


# -- orbit canonicaliser ----------------------------------------------------

# signed permutations of the curvature pair, the group O(2, Z) of order 8
_PAIR_GROUP = tuple(
    (swap, s1, s2) for swap in (False, True) for s1 in (1, -1) for s2 in (1, -1)
)


def orbit_key(w1: Sequence[int], w2: Sequence[int]) -> tuple[int, ...]:
    """Smallest image of the pair under S_k on the exceptional coordinates
    (index 1..k, permuted in both classes at once) times O(2, Z) on the pair,
    flattened as (x0, y0, x1, y1, ..., xk, yk)."""
    best: Optional[tuple[int, ...]] = None
    for swap, s1, s2 in _PAIR_GROUP:
        x, y = (w2, w1) if swap else (w1, w2)
        cols = sorted((s1 * a, s2 * b) for a, b in zip(x[1:], y[1:]))
        key = (s1 * x[0], s2 * y[0]) + tuple(c for col in cols for c in col)
        if best is None or key < best:
            best = key
    return best


# -- spans ----------------------------------------------------------------


@dataclass
class Spans:
    """Spans kept in memory as parallel arrays, in start order: the name id,
    the index of the enclosing span (-1 for none), start and end in ns."""

    names: list[str] = field(default_factory=list)
    name_id: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("q"))
    end: array = field(default_factory=lambda: array("q"))

    def __len__(self) -> int:
        return len(self.name_id)

    def add(self, name: str, parent: int, start: int, end: int) -> int:
        """Append a finished span; for tests and hand-built traces."""
        if name not in self.names:
            self.names.append(name)
        self.name_id.append(self.names.index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name_id) - 1

    def write(self, path: Path) -> None:
        """One JSON header line naming the arrays, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self), "arrays": ["name_id:i", "parent:i", "start:q", "end:q"]}
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(spans: Spans) -> dict[str, tuple[int, int, int]]:
    """Per span name: (calls, total ns, self ns).  A span's self time is its
    duration minus the part of it that its direct child spans cover.  Spans
    are in start order, so one pass over each parent's children, in order,
    measures the union of their intervals clipped to the parent."""
    n = len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    covered = array("q", bytes(8 * n))
    frontier = array("q", start)  # per parent: end of the children covered so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    out: dict[str, list[int]] = {}
    for i in range(n):
        dur = end[i] - start[i]
        acc = out.setdefault(spans.names[spans.name_id[i]], [0, 0, 0])
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - covered[i]
    return {name: tuple(v) for name, v in out.items()}


# -- lattice arithmetic on the Gram matrix ---------------------------------


def pair(gram: Sequence[Sequence[int]], x: Sequence, y: Sequence):
    """Q(x, y) for the Gram matrix."""
    return sum(xi * g * yj for xi, row in zip(x, gram) if xi for g, yj in zip(row, y) if g and yj)


def parse_fraction_vector(items: Sequence[str]) -> list:
    """Exact scalar text 'p/q' to ints or Fractions; quadratic numbers raise
    ValueError."""
    out = []
    for s in items:
        q = Fraction(s)
        out.append(q.numerator if q.denominator == 1 else q)
    return out


def cyt_defect(gram, c1: Sequence[int], omegas: Sequence[Sequence[int]], f: Sequence) -> Optional[list]:
    """c1 - sum 2 Q(w,F)/Q(F,F) w, or None when Q(F,F) = 0."""
    ff = pair(gram, f, f)
    if ff == 0:
        return None
    defect = [Fraction(c) for c in c1]
    for w in omegas:
        lam = Fraction(2 * pair(gram, w, f)) / ff
        defect = [d - lam * wi for d, wi in zip(defect, w)]
    return defect


def minors_gcd(rows: Sequence[Sequence[int]]) -> int:
    """gcd of the 2x2 minors of a 2 x n integer matrix."""
    a, b = rows
    g = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(g, a[i] * b[j] - a[j] * b[i])
    return g


def in_mod2_span(target: Sequence[int], w1: Sequence[int], w2: Sequence[int]) -> bool:
    return any(
        all((t - x * a - y * b) % 2 == 0 for t, a, b in zip(target, w1, w2))
        for x in (0, 1)
        for y in (0, 1)
    )


def check_search_record(gram, c1, doc: dict) -> Optional[str]:
    """Re-verify one catalog line; None when it holds, else the reason."""
    w1, w2 = doc["omega1"], doc["omega2"]
    flags = doc["flags"]
    if flags.get("skt"):
        if pair(gram, w1, w1) + pair(gram, w2, w2) != 0:
            return "skt record with nonzero square sum"
    if flags.get("cyt"):
        try:
            f = parse_fraction_vector(doc["kahler"])
        except (TypeError, ValueError):
            return f"cyt record with a non-rational Kahler class {doc['kahler']!r}"
        if pair(gram, f, f) <= 0:
            return "cyt record whose Kahler class has Q(F,F) <= 0"
        if any(cyt_defect(gram, c1, (w1, w2), f)):
            return "cyt record with nonzero defect"
    if flags.get("spin") and not in_mod2_span(c1, w1, w2):
        return "spin record with c1 outside the mod-2 span"
    if flags.get("topology_label") is not None:
        if flags["topology_label"] == "unclassified":
            return "topology record left unclassified"
        pairing = [[sum(w[a] * gram[a][j] for a in range(len(w))) for j in range(len(w))] for w in (w1, w2)]
        if minors_gcd((w1, w2)) != 1 or minors_gcd(pairing) != 1:
            return "topology record whose classes do not extend to a basis"
    return None


def certificate_digest(doc: dict) -> str:
    """The certificate digest: canonical JSON of all fields but the digest
    and the timestamp."""
    trimmed = {k: v for k, v in doc.items() if k not in ("digest", "timestamp")}
    return hashlib.sha256(json.dumps(trimmed, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


# -- workloads ------------------------------------------------------------

SEARCHES = {
    "search-cyt": {"k": 5, "bound": 3, "filters": ("cyt", "topology", "spin"), "threads": 2, "load": False},
    "search-skt": {"k": 3, "bound": 3, "filters": ("skt",), "threads": 1, "load": True},
}


def setup_plan(workload: str) -> tuple[list[str], list[str]]:
    """The model specs a workload builds and one argv its parser handles."""
    if workload in SEARCHES:
        cfg = SEARCHES[workload]
        argv = ["search", "--model", f"blowup_cp2({cfg['k']})", "--bound", str(cfg["bound"])]
        argv += [a for f in cfg["filters"] for a in ("--filter", f)]
        argv += ["--threads", str(cfg["threads"]), "--out", "catalog.jsonl"]
        return [f"blowup_cp2({cfg['k']})"], argv
    argv = ["cone-check", "--model", model_spec(8), "--class", vec_text([30] + [-10] * 8), "--format", "json"]
    return [model_spec(k) for k in CERTIFY_MODELS], argv


REPRODUCE_TARGETS = (
    [("4.1", None), ("4.2", None)]
    + [("4.3", k) for k in range(3, 9)]
    + [("4.4", k) for k in range(9, 13)]
    + [("5", None), ("6.1", None), ("maxroot", None)]
)

# classical counts of (-1)-curves on the plane blown up at k general points
NEG1_CURVES = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}

CERTIFY_MODELS = tuple(range(2, 13))  # k; general position up to 8, on a cubic from 9
OP_KINDS = ("verify", "solve-scale", "cone-check", "topology")
PASSING_PER_CELL = 2  # ops per (model, kind) built to take the passing path
RANDOM_PER_CELL = 3  # ops per (model, kind) with random classes


def golden_name(section: str, k: Optional[int]) -> str:
    stem = section.replace(".", "_")
    if section[0].isdigit():
        stem = f"section_{stem}"
    return f"{stem}_k{k}.json" if k is not None else f"{stem}.json"


def model_spec(k: int) -> str:
    return f"blowup_cp2({k})" if k <= 8 else f"blowup_cp2({k},on_cubic)"


def blowup_gram(k: int) -> list[list[int]]:
    return [[(1 if i == 0 else -1) if i == j else 0 for j in range(k + 1)] for i in range(k + 1)]


def blowup_c1(k: int) -> list[int]:
    return [3] + [-1] * k


def vec_text(v: Sequence) -> str:
    return "[" + ",".join(f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in v) + "]"


def _unit(n: int, i: int) -> list[int]:
    return [int(j == i) for j in range(n)]


def ample_class(rng: random.Random, k: int) -> list[int]:
    """A class that pairs positively with every curve the model checks, with
    itself and with the model's ample witness (k+1)H - sum E."""
    gram, c1 = blowup_gram(k), blowup_c1(k)
    if k <= 8:
        # every (-1)-curve C of degree <= 6 has Q(-K, C) = 1 and |Q(e, C)| <= 6 + 3k
        t = 6 + 3 * k + 1 + rng.randrange(4)
        f = [t * c + rng.choice((-1, 0, 1)) for c in c1]
        curves = ()
    else:
        b = [rng.randint(1, 3) for _ in range(k)]
        top = sorted(b)[-2:]
        f = [top[0] + top[1] + 1 + rng.randrange(3)] + [-x for x in b]
        # exceptional curves, lines through two points, and the cubic -K
        curves = [c1] + [[1] + [-int(t in (i, j)) for t in range(k)] for i in range(k) for j in range(i + 1, k)]
    witness = [k + 1] + [-1] * k
    while pair(gram, f, f) <= 0 or pair(gram, f, witness) <= 0 or any(pair(gram, f, c) <= 0 for c in curves):
        f[0] += 1
    return f


def boundary_class(rng: random.Random, k: int) -> list[int]:
    """An ample class with its E_k coefficient set to 0: still positive on
    itself and on every other checked curve, but 0 on E_k, so not ample."""
    f = ample_class(rng, k)
    f[k] = 0
    return f


@dataclass(frozen=True)
class Op:
    kind: str
    k: int
    argv: tuple[str, ...]
    passing: bool  # built so that the verdict must be a pass
    omegas: tuple[tuple[int, ...], ...] = ()
    cls: tuple = ()  # the Kahler class, ray or checked class


def _einstein_like(rng: random.Random, k: int):
    """(c1, w2) with Q(w2, R) = 0 for an ample ray R: the traced sum along R
    is 2 Q(c1,R)/Q(R,R) * c1, so F = that multiple of R solves the condition,
    as the Einstein route (-K, E1-E2) at F = 2(-K) does."""
    gram, c1 = blowup_gram(k), blowup_c1(k)
    ray = ample_class(rng, k)
    i, j = rng.sample(range(k + 1), 2)
    qi = pair(gram, ray, _unit(k + 1, i))
    qj = pair(gram, ray, _unit(k + 1, j))
    w2 = [qj * a - qi * b for a, b in zip(_unit(k + 1, i), _unit(k + 1, j))]
    scale = Fraction(2 * pair(gram, c1, ray), pair(gram, ray, ray))
    return c1, w2, ray, [scale * r for r in ray]


def _random_vec(rng: random.Random, k: int, bound: int = 3) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(k + 1)]


def _make_op(rng: random.Random, kind: str, k: int, passing: bool) -> Op:
    spec = model_spec(k)
    head = ["--model", spec]
    tail = ["--format", "json"]
    if kind == "cone-check":
        if passing:
            f = ample_class(rng, k)
        else:
            f = boundary_class(rng, k) if rng.random() < 0.5 else _random_vec(rng, k, 4)
        return Op(kind, k, tuple(["cone-check", *head, "--class", vec_text(f), *tail]), passing, (), tuple(f))
    if kind == "topology":
        if passing:
            # (+-c1, +-(Ei - Ej)): the Einstein-route pairs of section 4.3
            i, j = rng.sample(range(1, k + 1), 2)
            sign = rng.choice((1, -1))
            w1 = [sign * c for c in blowup_c1(k)]
            w2 = [int(t == i) - int(t == j) for t in range(k + 1)]
        else:
            w1, w2 = _random_vec(rng, k), _random_vec(rng, k)
        argv = ["topology", *head, "--omega", vec_text(w1), "--omega", vec_text(w2), *tail]
        return Op(kind, k, tuple(argv), passing, (tuple(w1), tuple(w2)))
    if passing:
        w1, w2, ray, f = _einstein_like(rng, k)
    else:
        w1, w2 = _random_vec(rng, k), _random_vec(rng, k)
        ray = ample_class(rng, k)  # a ray of positive square keeps solve-scale off the usage-error path
        f = _random_vec(rng, k, 4)
    omegas = ["--omega", vec_text(w1), "--omega", vec_text(w2)]
    if kind == "verify":
        argv = ["verify", *head, *omegas, "--kahler", vec_text(f), "--expect", "cyt", *tail]
        return Op(kind, k, tuple(argv), passing, (tuple(w1), tuple(w2)), tuple(f))
    argv = ["solve-scale", *head, *omegas, "--ray", vec_text(ray), *tail]
    return Op(kind, k, tuple(argv), passing, (tuple(w1), tuple(w2)), tuple(ray))


def generate_ops(seed: int, round_index: int) -> list[Op]:
    """The generated ops of one certify round: for every model and op kind,
    PASSING_PER_CELL ops built to pass and RANDOM_PER_CELL random ones, in a
    seeded shuffle.  The fixed cell sizes keep every round's mix the same."""
    rng = random.Random(f"certify:{seed}:{round_index}")
    ops = [
        _make_op(rng, kind, k, n < PASSING_PER_CELL)
        for k in CERTIFY_MODELS
        for kind in OP_KINDS
        for n in range(PASSING_PER_CELL + RANDOM_PER_CELL)
    ]
    rng.shuffle(ops)
    return ops


def check_op_result(op: Op, code: int, doc: Optional[dict]) -> Optional[str]:
    """Independent checks on one generated op; None when it holds."""
    if code not in (0, 1):
        return f"exit code {code}"
    if op.passing and code != 0:
        return "an op built to pass did not pass"
    if doc is None:
        return "no JSON certificate on stdout"
    if doc.get("digest") != certificate_digest(doc):
        return "certificate digest does not match its contents"
    if bool(doc["verdict"]) != (code == 0):
        return "verdict and exit code disagree"
    gram, c1 = blowup_gram(op.k), blowup_c1(op.k)
    res = doc["results"]
    if op.kind == "cone-check":
        checks = res["cone"]["curve_checks"]
        if op.k <= 8 and len(checks) != NEG1_CURVES[op.k]:
            return f"{len(checks)} curves checked, {NEG1_CURVES[op.k]} (-1)-curves exist"
        for c in checks:
            if Fraction(c["value"]) != pair(gram, op.cls, parse_fraction_vector(c["curve"])):
                return "curve pairing misreported"
        if code == 0 and (pair(gram, op.cls, op.cls) <= 0 or any(Fraction(c["value"]) <= 0 for c in checks)):
            return "class passed with a non-positive pairing"
    elif code == 0 and op.kind == "verify":
        f = parse_fraction_vector(res["cyt"]["kahler_class"])
        defect = cyt_defect(gram, c1, op.omegas, f)
        if defect is None or any(defect):
            return "cyt verdict at a class with nonzero defect"
    elif code == 0 and op.kind == "solve-scale":
        s = Fraction(res["scale"])
        defect = cyt_defect(gram, c1, op.omegas, [s * r for r in op.cls])
        if s <= 0 or defect is None or any(defect):
            return "solved scale does not zero the defect"
    elif code == 0 and op.kind == "topology":
        w1, w2 = op.omegas
        topo = res["topology"]
        a = parse_fraction_vector(topo["alpha"])
        b = parse_fraction_vector(topo["beta"])
        if (abs(pair(gram, w1, a)), pair(gram, w2, a), pair(gram, w1, b), abs(pair(gram, w2, b))) != (1, 0, 0, 1):
            return "pairing witnesses do not pair to the unit matrix"
    return None


def check_reproduce_result(section: str, k: Optional[int], code: int, doc: Optional[dict], golden: dict) -> Optional[str]:
    if code != 0:
        return f"reproduce-paper {section} k={k} exited {code}"
    if doc is None or doc["results"]["diffs"]:
        return f"reproduce-paper {section} k={k} reported diffs"
    computed = doc["results"]["computed"]
    for key, want in golden["expected"].items():
        if computed.get(key) != want:
            return f"reproduce-paper {section} k={k}: {key} differs from the golden value"
    return None


# -- environment ----------------------------------------------------------


def environment(root: Path) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit,
        "cyt_forge_threads_env": os.environ.get("CYT_FORGE_THREADS"),
    }
