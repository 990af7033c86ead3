"""cytforge benchmark: three workloads, end-to-end metrics with tracing off
and per-layer metrics from a separate traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload search-cyt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  perfbench/README.md describes the workloads
and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import traceback
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from benchlib import (  # noqa: E402
    COLD_START_NOMINAL_S,
    COLD_START_REF,
    REF_NOMINAL_S,
    REPRODUCE_TARGETS,
    SEARCHES,
    check_op_result,
    check_reproduce_result,
    check_search_record,
    environment,
    generate_ops,
    golden_name,
    median,
    orbit_key,
    percentile,
    reference_s,
    self_times,
    setup_plan,
)
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("search-cyt", "search-skt", "certify")
SETUP_PROBES = 25
CERTIFY_BATCH = 20  # generated ops between two measurements of the host's speed
FROZEN_ORBITS = HERE / "frozen_orbits.json"

# per-layer metrics, in the order BENCHMARK.json lists them
CALLS_AND_SELF = (
    "search.canonical_form",
    "cyt.solve_scale",
    "cyt.verify_cyt",
    "topology.topology_certificate",
    "intlinalg.snf",
    "intlinalg.IntegerSolver",
    "intlinalg.gf2_in_span",
    "surfaces.intersect",
    "surfaces.pairing_row",
    "surfaces.mod2_membership",
    "surfaces.basis_extension_check",
    "skt.verify_skt",
    "cone.is_kahler",
    "scalars.exact_sign",
    "scalars.exact_div",
    "cli.main",
)
SELF_ONLY = (
    "search.search",
    "cyt.solve_symmetric_ansatz",
    "certificates.to_json",
    "certificates.build_certificate",
    "cli.build_parser",
    "reproduce.reproduce_paper",
)
WALL_ONLY = ("catalog.append_records", "catalog.load_catalog")
COUNTS = (
    "search.pairs_evaluated",
    "search.records",
    "cone.curves_checked",
    "catalog.records_read",
)


def per_layer_names() -> list[str]:
    names = []
    for fn in CALLS_AND_SELF:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    names += [f"{fn}.self_s" for fn in SELF_ONLY]
    names += ["surfaces.CohClass.of.calls"]
    names += [f"{fn}.s" for fn in WALL_ONLY]
    names += list(COUNTS)
    names += [
        "search.yield",
        "search.chunk_imbalance",
        "cyt.solve_scale.hit_ratio",
        "topology.classified_ratio",
        "skt.pass_ratio",
        "catalog.bytes_written",
        "cone.negative_curves.cold_s",
        "trace.overhead_ratio",
    ]
    for layer in LAYERS:
        names += [f"layer.{layer}.calls", f"layer.{layer}.self_s"]
    return names


END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in COUNTS:
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "catalog.bytes_written":
        return "bytes"
    return "ratio"


class BenchError(Exception):
    """The benchmark cannot run here: no cytforge sources, or set-up failed."""


class Outcome:
    """Checked results of a run: ops attempted, the failures, the metrics and
    a report of everything else worth keeping next to the numbers."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.global_failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.report: dict = {}

    def op(self, failure) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.global_failures


# -- cytforge access ------------------------------------------------------


def load_cytforge() -> dict:
    """Import cytforge from this checkout's sources and return its modules."""
    if not (SRC / "cytforge" / "__init__.py").is_file():
        raise BenchError(f"no cytforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {layer: importlib.import_module(f"cytforge.{layer}") for layer in LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"cytforge imported from {origin}, not from {SRC}")
    return mods


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


class HostSpeed:
    """Times the reference kernel on as many processes at once as the work
    it brackets uses; extra processes come from a forked pool kept for the
    run.  Fork, not spawn: a spawn pool starts multiprocessing's resource
    tracker, a process that outlives the benchmark."""

    REPS = 15

    def __init__(self, processes: int):
        self.processes = processes
        self.pool = get_context("fork").Pool(processes) if processes > 1 else None
        self.kernel_s()  # warm-up: the first kernel run in fresh workers is slow

    def kernel_s(self) -> float:
        if self.pool is None:
            return reference_s(self.REPS)
        return sum(self.pool.starmap(reference_s, [(self.REPS,)] * self.processes)) / self.processes

    def around(self, fn):
        """Run fn between two timings of the kernel; return its result and
        the host's speed relative to nominal, by which its timings scale."""
        before = self.kernel_s()
        result = fn()
        return result, REF_NOMINAL_S / ((before + self.kernel_s()) / 2)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()


def run_setup_probes(workload: str) -> list[dict]:
    """SETUP_PROBES cold starts in fresh interpreters, each timed right after
    the reference cold start COLD_START_REF, whose time it is scaled by."""

    def child(argv: list[str]) -> str:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        return proc.stdout.strip().splitlines()[-1]

    probes = []
    for _ in range(SETUP_PROBES):
        speed = COLD_START_NOMINAL_S / float(child(["-c", COLD_START_REF]))
        probe = json.loads(child([str(HERE / "setup_probe.py"), workload]))
        probes.append({**probe, "speed": speed})
    return probes


def warm_setup(mods: dict, workload: str) -> None:
    """The set-up the probes time, done once in this process before timing."""
    specs, argv = setup_plan(workload)
    for spec in specs:
        mods["cone"].negative_curves(mods["surfaces"].builtin_model(spec))
    mods["cli"].build_parser().parse_args(argv)


# -- search workloads -----------------------------------------------------


class SearchRunner:
    def __init__(self, mods: dict, workload: str, workdir: Path):
        self.mods = mods
        self.cfg = SEARCHES[workload]
        self.workload = workload
        self.model = mods["surfaces"].blowup_cp2(self.cfg["k"])
        self.query = mods["search"].SearchQuery(
            model=self.model, coeff_bound=self.cfg["bound"], filters=frozenset(self.cfg["filters"])
        )
        self.catalog = workdir / f"{workload}.jsonl"

    def round(self, threads: int, progress=None) -> dict:
        """One search, written to a fresh catalog as `cytforge search --out`
        does, and read back when the workload loads its catalog."""
        mods = self.mods
        self.catalog.unlink(missing_ok=True)
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        records, stats = mods["search"].search(self.query, threads=threads, progress=progress)
        t1 = perf_counter()
        mods["catalog"].append_records(str(self.catalog), records)
        t2 = perf_counter()
        loaded = None
        if self.cfg["load"]:
            loaded = mods["catalog"].load_catalog(str(self.catalog))
        t3 = perf_counter()
        cpu = cpu_seconds() - cpu0
        data = self.catalog.read_bytes()
        self.catalog.unlink()
        return {
            "round_s": t3 - t0,
            "search_s": t2 - t0,
            "append_s": t2 - t1,
            "load_s": t3 - t2,
            "cpu_s": cpu,
            "bytes": data,
            "records": records,
            "stats": stats,
            "loaded": loaded,
        }

    def check_first(self, rnd: dict) -> list[str]:
        """Full output checks on one round; later rounds must match its bytes."""
        problems = []
        stats, records = rnd["stats"], rnd["records"]
        if not stats.exhausted or stats.records_emitted != len(records):
            problems.append("search did not report an exhausted box")
        gram = [list(row) for row in self.model.gram]
        c1 = self.model.c1.as_int_vector()
        lines = rnd["bytes"].decode("utf-8").splitlines()
        if len(lines) != len(records):
            problems.append(f"{len(lines)} catalog lines for {len(records)} records")
        docs = [json.loads(line) for line in lines]
        for doc in docs:
            reason = check_search_record(gram, c1, doc)
            if reason:
                problems.append(f"{reason}: {doc['omega1']} {doc['omega2']}")
                break
        if rnd["loaded"] is not None:
            loaded, errors = rnd["loaded"]
            if errors or loaded != records:
                problems.append("catalog read back differs from the records written")
        orbits = sorted({orbit_key(d["omega1"], d["omega2"]) for d in docs})
        frozen = json.loads(FROZEN_ORBITS.read_text())[self.workload] if FROZEN_ORBITS.is_file() else None
        if frozen is not None and [list(o) for o in orbits] != frozen:
            missed = len({tuple(o) for o in frozen} - set(orbits))
            extra = len(set(orbits) - {tuple(o) for o in frozen})
            problems.append(f"orbit set differs from the frozen list: {missed} missed, {extra} new")
        self.orbits = orbits
        return problems

    def effective_workers(self, messages: list[str], threads: int) -> int:
        """Worker count as the search's progress reports it, else as
        resolve_threads grants it; CYT_FORGE_THREADS can lower both."""
        for msg in messages:
            m = re.search(r"on (\d+) workers", msg)
            if m:
                return int(m.group(1))
        return self.mods["search"].resolve_threads(threads)


def run_search(mods, workload: str, seconds: float, workdir: Path) -> Outcome:
    out = Outcome()
    runner = SearchRunner(mods, workload, workdir)
    threads = runner.cfg["threads"]
    resolved = mods["search"].resolve_threads(threads)
    rounds = []
    first_digest = None
    host = HostSpeed(threads)
    t_start = perf_counter()
    try:
        while True:
            messages: list[str] = []
            rnd, speed = host.around(lambda: runner.round(threads, progress=messages.append))
            workers = runner.effective_workers(messages, threads)
            problems = []
            if workers != threads:
                problems.append(f"search ran on {workers} workers, the workload needs {threads}")
            digest = hashlib.sha256(rnd["bytes"]).hexdigest()
            if first_digest is None:
                first_digest = digest
                problems += runner.check_first(rnd)
            elif digest != first_digest:
                problems.append("catalog bytes differ between rounds")
            out.op("; ".join(problems))
            sample = {k: speed * rnd[k] for k in ("round_s", "search_s", "append_s", "load_s", "cpu_s")}
            rounds.append({**sample, "speed": speed, "wall_s": rnd["round_s"]})
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / len(rounds) > seconds:
                break
    finally:
        host.close()
    out.metrics["round_s"] = median([r["round_s"] for r in rounds])
    out.metrics["cpu_s"] = median([r["cpu_s"] for r in rounds])
    stats = rnd["stats"]
    out.report.update(
        rounds=len(rounds),
        samples=rounds,
        search_s=median([r["search_s"] for r in rounds]),
        load_s=median([r["load_s"] for r in rounds]),
        speed=median([r["speed"] for r in rounds]),
        wall_s=median([r["wall_s"] for r in rounds]),
        pairs_evaluated=stats.pairs_evaluated,
        records=stats.records_emitted,
        orbits=len(runner.orbits),
        catalog_bytes=len(rnd["bytes"]),
        catalog_sha256=first_digest,
        workers_resolved=resolved,
        workers_effective=workers,
    )
    return out


def trace_search(mods, workload: str, workdir: Path) -> Outcome:
    out = Outcome()
    runner = SearchRunner(mods, workload, workdir)
    # untraced serial pass: the base of the overhead ratio and the chunk times
    stamps: list[float] = []
    t0 = perf_counter()
    base = runner.round(1, progress=lambda msg: stamps.append(perf_counter()))
    chunk_s = [b - a for a, b in zip([t0] + stamps, stamps)]
    problems = runner.check_first(base)
    if runner.cfg["threads"] > 1:
        messages: list[str] = []
        parallel = runner.round(runner.cfg["threads"], progress=messages.append)
        workers = runner.effective_workers(messages, runner.cfg["threads"])
        if workers != runner.cfg["threads"]:
            problems.append(f"search ran on {workers} workers, the workload needs {runner.cfg['threads']}")
        if parallel["bytes"] != base["bytes"]:
            problems.append(f"catalog from {workers} workers differs from the serial one")
        out.report["workers_effective"] = workers
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            rnd = runner.round(1)
        finally:
            tracer.uninstall()
        if rnd["bytes"] != base["bytes"]:
            problems.append("traced catalog differs from the untraced one")
        tracer.counters["catalog.bytes_written"] = len(rnd["bytes"])
        passes.append((tracer, rnd["round_s"]))
    out.op("; ".join(problems))
    out.report["chunk_s"] = chunk_s
    imbalance = max(chunk_s) / (sum(chunk_s) / len(chunk_s))
    layer_metrics(out, workload, passes, base["round_s"], {"search.chunk_imbalance": imbalance})
    return out


# -- certify workload -----------------------------------------------------


def call_cli(mods, argv: list[str]) -> tuple[int, str, float, float]:
    """One in-process CLI call: exit code, captured stdout, wall and CPU s."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        c0 = process_time()
        t0 = perf_counter()
        try:
            code = mods["cli"].main(argv)
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            code = -1
            err.write(traceback.format_exc())
        t1 = perf_counter()
        c1 = process_time()
    return code, buf.getvalue(), t1 - t0, c1 - c0


def parse_certificate(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def certify_round(mods, seed: int, index: int, goldens: dict, out: Outcome) -> dict:
    """One pass over the reproduce targets, then the generated ops.  The
    host's speed is measured between batches of CERTIFY_BATCH ops, and each
    batch's timings are scaled by the speed around it."""
    reproduce = []
    for section, k in REPRODUCE_TARGETS:
        argv = ["reproduce-paper", "--section", section, "--format", "json"]
        argv += ["--k", str(k)] if k is not None else []
        reproduce.append((argv, (section, k)))
    ops = generate_ops(seed, index)
    batches = [reproduce] + [
        [(list(op.argv), op) for op in ops[i : i + CERTIFY_BATCH]] for i in range(0, len(ops), CERTIFY_BATCH)
    ]
    rnd = {"round_s": 0.0, "wall_s": 0.0, "reproduce_s": 0.0, "cpu_s": 0.0, "latencies": [], "kinds": {}, "exits": {}}
    ref = reference_s()
    for n, batch in enumerate(batches):
        results = [call_cli(mods, argv) for argv, _ in batch]
        ref_after = reference_s()
        speed = REF_NOMINAL_S / ((ref + ref_after) / 2)
        ref = ref_after
        for (argv, what), (code, text, wall, cpu) in zip(batch, results):
            rnd["round_s"] += speed * wall
            rnd["wall_s"] += wall
            rnd["cpu_s"] += speed * cpu
            if n == 0:
                rnd["reproduce_s"] += speed * wall
                out.op(check_reproduce_result(*what, code, parse_certificate(text), goldens[what]))
                continue
            rnd["latencies"].append(speed * wall)
            rnd["kinds"][what.kind] = rnd["kinds"].get(what.kind, 0) + 1
            rnd["exits"][str(code)] = rnd["exits"].get(str(code), 0) + 1
            failure = check_op_result(what, code, parse_certificate(text))
            out.op(f"{' '.join(argv)}: {failure}" if failure else None)
    rnd["speed"] = rnd["round_s"] / rnd["wall_s"]
    return rnd


def load_goldens() -> dict:
    golden_dir = SRC / "cytforge" / "data" / "golden"
    return {
        (section, k): json.loads((golden_dir / golden_name(section, k)).read_text(encoding="utf-8"))
        for section, k in REPRODUCE_TARGETS
    }


def merge_counts(total: dict, part: dict) -> None:
    for key, n in part.items():
        total[key] = total.get(key, 0) + n


def run_certify(mods, seed: int, seconds: float) -> Outcome:
    out = Outcome()
    goldens = load_goldens()
    rounds = []
    kinds: dict[str, int] = {}
    exits: dict[str, int] = {}
    latencies: list[float] = []
    t_start = perf_counter()
    while True:
        rnd = certify_round(mods, seed, len(rounds), goldens, out)
        rounds.append(rnd)
        latencies += rnd["latencies"]
        merge_counts(kinds, rnd["kinds"])
        merge_counts(exits, rnd["exits"])
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    out.metrics["round_s"] = median([r["round_s"] for r in rounds])
    out.metrics["cpu_s"] = median([r["cpu_s"] for r in rounds])
    out.report.update(
        rounds=len(rounds),
        reproduce_s=median([r["reproduce_s"] for r in rounds]),
        cert_p50_ms=1000 * median(latencies),
        cert_p90_ms=1000 * percentile(latencies, 90),
        cert_samples=len(latencies),
        certs_per_s=len(latencies) / sum(latencies),
        op_kinds=kinds,
        exit_codes=exits,
        speed=median([r["speed"] for r in rounds]),
        wall_s=median([r["wall_s"] for r in rounds]),
        samples=[{k: r[k] for k in ("round_s", "reproduce_s", "cpu_s", "speed", "wall_s")} for r in rounds],
    )
    return out


def trace_certify(mods, seed: int) -> Outcome:
    out = Outcome()
    goldens = load_goldens()
    base = certify_round(mods, seed, 0, goldens, out)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            rnd = certify_round(mods, seed, 0, goldens, out)
        finally:
            tracer.uninstall()
        passes.append((tracer, rnd["round_s"]))
    out.report.update(op_kinds=base["kinds"], exit_codes=base["exits"])
    layer_metrics(out, "certify", passes, base["round_s"], {"search.chunk_imbalance": 0.0})
    return out


# -- per-layer metrics ----------------------------------------------------


def layer_metrics(out: Outcome, workload: str, passes: list, base_wall: float, extra: dict) -> None:
    """Per-layer metrics from two traced passes of the same work: counts from
    the first, which must equal the second's, and times as their median."""
    tables = [self_times(tracer.spans) for tracer, _ in passes]
    counters = [dict(tracer.counters) for tracer, _ in passes]
    calls = [{name: row[0] for name, row in table.items()} for table in tables]
    if calls[0] != calls[1] or counters[0] != counters[1]:
        diff = sorted(n for n in set(calls[0]) | set(calls[1]) if calls[0].get(n) != calls[1].get(n))
        out.global_failures.append(f"traced passes disagree on counts: {diff[:5]} {counters}")
    table, count = tables[0], counters[0]

    def calls_of(fn):
        return table.get(fn, (0, 0, 0))[0]

    def seconds_of(fn, column):
        return median([t.get(fn, (0, 0, 0))[column] for t in tables]) / 1e9

    m = out.metrics
    for fn in CALLS_AND_SELF:
        m[f"{fn}.calls"] = calls_of(fn)
        m[f"{fn}.self_s"] = seconds_of(fn, 2)
    for fn in SELF_ONLY:
        m[f"{fn}.self_s"] = seconds_of(fn, 2)
    m["surfaces.CohClass.of.calls"] = calls_of("surfaces.CohClass.of")
    for fn in WALL_ONLY:
        m[f"{fn}.s"] = seconds_of(fn, 1)
    for name in COUNTS:
        m[name] = count.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m["search.yield"] = ratio(count.get("search.records", 0), count.get("search.pairs_evaluated", 0))
    m["cyt.solve_scale.hit_ratio"] = ratio(count.get("cyt.solve_scale.hits", 0), calls_of("cyt.solve_scale"))
    m["topology.classified_ratio"] = ratio(
        count.get("topology.classified", 0), calls_of("topology.topology_certificate")
    )
    m["skt.pass_ratio"] = ratio(count.get("skt.passes", 0), calls_of("skt.verify_skt"))
    m["catalog.bytes_written"] = count.get("catalog.bytes_written", 0)
    m["trace.overhead_ratio"] = median([wall for _, wall in passes]) / base_wall
    for layer in LAYERS:
        rows = [(name, row) for name, row in table.items() if name.split(".")[0] == layer]
        m[f"layer.{layer}.calls"] = sum(row[0] for _, row in rows)
        m[f"layer.{layer}.self_s"] = median(
            [sum(t[name][2] for name, _ in rows if name in t) for t in tables]
        ) / 1e9
    m.update(extra)
    OUT.mkdir(exist_ok=True)
    spans = passes[-1][0].spans
    spans.write(OUT / f"{workload}.spans")
    out.report["spans"] = {"count": len(spans), "file": str(OUT / f"{workload}.spans")}


# -- entry point ----------------------------------------------------------


def run_workload(args) -> Outcome:
    mods = load_cytforge()
    env = environment(ROOT)
    probes = run_setup_probes(args.workload)
    warm_setup(mods, args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.workload == "certify":
            outcome = trace_certify(mods, args.seed) if args.trace else run_certify(mods, args.seed, args.seconds)
        elif args.trace:
            outcome = trace_search(mods, args.workload, workdir)
        else:
            outcome = run_search(mods, args.workload, args.seconds, workdir)
    finally:
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()
    setup_s = median([p["speed"] * p["setup_s"] for p in probes])
    if args.trace:
        outcome.metrics["cone.negative_curves.cold_s"] = median(
            [p["speed"] * p["negative_curves_cold_s"] for p in probes]
        )
    else:
        outcome.metrics["setup_s"] = setup_s
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=env,
        setup_probes=probes,
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(),
        fail_ratio=len(outcome.failures) / max(outcome.attempted, 1),
        failures=(outcome.global_failures + outcome.failures)[:20],
    )
    return outcome


def summary_lines(outcome: Outcome) -> list[str]:
    """The run's metrics by name with units, including the per-workload ones
    that BENCHMARK.json cannot list."""
    rep = outcome.report
    lines = [f"# {rep['workload']}  seed={rep['seed']}  trace={rep['trace']}  {rep['environment']}"]

    def row(name, value, unit, note=""):
        lines.append(f"{name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())

    if not rep["trace"]:
        row("setup_s", rep["setup_s"], "s", f"median of {SETUP_PROBES} cold starts")
        if rep["workload"] == "certify":
            row("reproduce_s", rep["reproduce_s"], "s", f"median of {rep['rounds']} passes")
            row("cert_p50_ms", rep["cert_p50_ms"], "ms", f"n={rep['cert_samples']}")
            row("cert_p90_ms", rep["cert_p90_ms"], "ms", f"n={rep['cert_samples']}")
            row("certs_per_s", rep["certs_per_s"], "1/s")
            row("cpu_s", outcome.metrics["cpu_s"], "s", "per round")
        else:
            row("search_s", rep["search_s"], "s", f"median of {rep['rounds']} searches")
            row("cpu_s", outcome.metrics["cpu_s"], "s", "parent plus workers")
        row("peak_rss_mb", rep["peak_rss_mb"], "MB")
        row("round_s", outcome.metrics["round_s"], "s", "median round")
        row("round_wall_s", rep["wall_s"], "s", "median round, unscaled")
        row("host_speed", rep["speed"], "x", "timings above are scaled by it")
    else:
        for name, value in outcome.metrics.items():
            row(name, value, per_layer_unit(name))
    row("fail_ratio", rep["fail_ratio"], "", f"{len(outcome.failures)}/{outcome.attempted}")
    return lines


def run_all(args) -> int:
    """Every workload, each in its own process, as in separate runs."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        outcome = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(outcome):
        print(line)
    print("# report " + json.dumps(outcome.report, default=str))
    units = {name: per_layer_unit(name) for name in per_layer_names()} if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
