"""One pipeline benchmark: four workloads, end-to-end metrics, a layer budget.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload all --seed 7
    python3 benchmarks/e2e/run.py --workload serve_live --seed 7 --seconds 20 --trace 1
    python3 benchmarks/e2e/run.py --workload all --seed 7 --quick --out run.json

``--workload all`` runs each workload in its own subprocess.  Every metric
is printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``--trace 1`` splits ``--seconds`` between an untraced reference pass and
a traced pass over the same kind of work (plus, on ``ingest_evict``, a
telemetry-on pass), so a traced run costs what an untraced one does.
End-to-end numbers always come from an untraced pass.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

from tracer import WAIT_SPANS  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END, OPS, PER_LAYER, QUERY_KINDS, WORKLOADS, percentile, unit_of,
)

NAMES = tuple(name for name, _why in WORKLOADS)
DEFAULT_SECONDS = 20.0
#: Set-ups per untraced run; ``setup_s`` is their median.  A cheap set-up
#: is repeated up to MAX_SETUPS times while they total under SETUP_BUDGET_S.
SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 2.0
#: ``ops_per_s`` is the median over this many consecutive blocks of a run.
BLOCKS = 20


# ----------------------------------------------------------------------
# One pass = set-up + measured phase + verification
# ----------------------------------------------------------------------
def run_pass(spec, inputs, workdir: Path, repeat_setup: bool = False, tracer=None,
             telemetry=None, sharded: bool = False) -> dict:
    """Build the pipeline (several times if ``repeat_setup``), drive the last
    build, verify it."""
    from pipeline import Pipeline, ShardedPhase, drive, run_engine
    import verify

    setup_s = []
    pipeline = None
    for attempt in range(MAX_SETUPS if repeat_setup else 1):
        if attempt >= SETUPS and sum(setup_s) >= SETUP_BUDGET_S:
            break
        if pipeline is not None:
            pipeline.close()
        home = workdir / f"build-{attempt}"
        home.mkdir(parents=True)
        t0 = perf_counter()
        pipeline = Pipeline(spec, inputs, home, telemetry=telemetry)
        setup_s.append(perf_counter() - t0)
    if tracer is not None:
        pipeline.instrument(tracer)
    gc.collect()

    extras: dict = {}
    checks = misses = 0
    notes: list[str] = []
    if spec.ring:
        measured = asyncio.run(drive(pipeline, inputs))
        table = tracer.layer_table() if tracer is not None else {}
        results = [verify.check_answers(pipeline, inputs.deltas, measured.sampled)]
        if spec.archive:
            results.append(verify.check_archive(pipeline, inputs.deltas))
        pipeline.close()
        if spec.archive:
            extras["history.bytes_per_row"] = archive_bytes_per_row(pipeline.db_path)
    else:
        phase = ShardedPhase(pipeline, inputs) if sharded else None
        try:
            measured, trace = run_engine(pipeline, inputs, phase)
        finally:
            if phase is not None:
                phase.close()
        table = tracer.layer_table() if tracer is not None else {}
        equal = None
        if phase is not None:
            extras = phase.summary(trace, measured.rep_s)
            equal = bool(extras["parallel.bitwise_equal"])
        results = [verify.check_repetitions(measured.rep_messages, equal)]
    for n_checks, n_misses, why in results:
        checks += n_checks
        misses += n_misses
        notes += why
    queries = sum(measured.requests_by_kind.values()) + measured.closed_answers
    return {
        "pass": measured,
        "table": table,
        "setup_s": setup_s,
        "extras": extras,
        "attempted": measured.counts["readings"] + queries,
        "failed": measured.errors + misses + (0 if measured.valid else 1),
        "checks": checks,
        "notes": notes + ([] if measured.valid else [
            "final tick was more than one period late: the backlog was growing"
        ]),
    }


def archive_bytes_per_row(db_path: Path) -> float:
    """(db + WAL after ``wal_checkpoint(TRUNCATE)``) / rows."""
    conn = sqlite3.connect(str(db_path))
    try:
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
        (rows,) = conn.execute("SELECT COUNT(*) FROM archive").fetchone()
    finally:
        conn.close()
    size = sum(
        p.stat().st_size
        for p in (db_path, Path(str(db_path) + "-wal"))
        if p.exists()
    )
    return size / rows if rows else 0.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def block_rate(ops_each: float, busy_s: list) -> float:
    """Ops per busy second: the median over ``BLOCKS`` consecutive blocks.

    A whole-run mean charges every stall of the shared host to the program;
    with blocks, a slow stretch shorter than half the run moves only the
    blocks it hits.
    """
    size = max(1, len(busy_s) // BLOCKS)
    blocks = [busy_s[i:i + size] for i in range(0, len(busy_s) - size + 1, size)]
    return statistics.median(ops_each * len(block) / sum(block) for block in blocks)


def op_latencies(spec, m) -> list:
    """Seconds each op took as its user saw it: from the due time."""
    if spec.op == "query":
        return [q.done - q.due for q in m.queries]
    return m.tick_s


def end_to_end_metrics(spec, inputs, ran: dict) -> dict:
    """The five numbers every workload reports, from an untraced pass.

    ``ops_per_s`` counts ops per second the pipeline was busy with them
    (in a closed loop that is the wall); latencies run from the due time.
    See ``metrics.OPS`` for what an op is on each workload.
    """
    m = ran["pass"]
    if spec.op == "query":
        rate = block_rate(1, [q.done - q.issue for q in m.queries])
    elif m.rep_s:
        rate = spec.n_streams * inputs.ticks / statistics.median(m.rep_s)
    else:
        rate = block_rate(spec.n_streams, m.tick_busy_s)
    return {
        "setup_s": statistics.median(ran["setup_s"]),
        "peak_rss_mb": m.peak_rss_mb,
        "ops_per_s": rate,
        "op_p50_ms": percentile(op_latencies(spec, m), 50) * 1e3,
        "messages_per_reading": m.counts["messages_total"] / m.counts["readings_total"],
    }


def scoped_metrics(spec, ran: dict) -> dict:
    """User-visible numbers of the op's tail, the query client and the archive
    (untraced pass)."""
    m = ran["pass"]
    latency = [q.done - q.due for q in m.queries]
    history = [q.done - q.due for q in m.queries if q.kind.startswith("history_")]
    return {
        "driver.op_p90_ms": percentile(op_latencies(spec, m), 90) * 1e3,
        "serving.query_p50_ms": percentile(latency, 50) * 1e3,
        "serving.query_p90_ms": percentile(latency, 90) * 1e3,
        "serving.query_p99_ms": percentile(latency, 99) * 1e3,
        "serving.query_capacity_qps":
            m.closed_answers / m.closed_s if m.closed_s else 0.0,
        "history.query_p50_ms": percentile(history, 50) * 1e3,
        "history.bytes_per_row": ran["extras"].get("history.bytes_per_row", 0.0),
    }


def busy_per_op(m) -> float:
    """Mean seconds the driver spent inside one tick or request (any pass)."""
    busy = sum(m.tick_busy_s) + sum(q.done - q.issue for q in m.queries)
    return busy / (len(m.tick_busy_s) + len(m.queries))


def per_layer_metrics(spec, inputs, reference: dict, traced: dict, tracer,
                      telemetry_pass: dict | None) -> dict:
    """Every per-layer metric; 0 where the workload leaves the layer idle."""
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    out.update(scoped_metrics(spec, reference))
    out.update(reference["extras"])
    m, table = traced["pass"], traced["table"]
    counts = m.counts

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def p_ms(name, q):
        return percentile(tracer.durations(name), q) * 1e3

    readings = counts["readings"]
    out["core.run_busy_s"] = self_s("core.run")
    out["core.step_busy_s"] = self_s("core.step")
    out["core.step_us_per_reading"] = total_s("core.step") / readings * 1e6
    out["core.steps"] = counts["steps"]
    out["core.messages"] = counts["messages"]
    out["core.suppressed"] = readings - counts["messages"]
    for part in ("predicted_measurements", "predict", "update"):
        out[f"kalman.{part}_busy_s"] = self_s(f"kalman.{part}")
    out["kalman.update_rows"] = counts["update_rows"]
    if spec.ring:
        ingests = counts["ring_ingests"]
        out["serving.ring_ingest_busy_s"] = self_s("serving.ring_ingest")
        out["serving.ring_ingest_us_per_reading"] = (
            self_s("serving.ring_ingest") / ingests * 1e6
        )
        out["serving.ring_ingests"] = ingests
        out["serving.ring_evictions"] = counts["ring_evictions"]
        out["serving.cache_evictions"] = counts["cache_evictions"]
        out["serving.degraded"] = m.degraded
        out["serving.errors"] = m.errors
    if m.queries:
        service: dict[str, list] = {kind: [] for kind in QUERY_KINDS}
        provenance = {"live": 0, "historical": 0, "hybrid": 0}
        for q in m.queries:
            service[q.kind].append(q.service_s)
            if q.kind.startswith("history_"):
                provenance[q.provenance] += 1
        for kind, samples in service.items():
            out[f"serving.service_p50_us.{kind}"] = percentile(samples, 50) * 1e6
            out[f"serving.requests.{kind}"] = m.requests_by_kind.get(kind, 0)
        for where, n in provenance.items():
            out[f"serving.provenance.{where}"] = n
        out["serving.aggregate_us_per_member"] = (
            percentile(service["aggregate"], 50) * 1e6 / spec.window
        )
        handled = sum(sum(samples) for samples in service.values())
        out["serving.aggregate_share_of_handle"] = (
            (sum(service["aggregate"]) + sum(service["history_aggregate"])) / handled
        )
        waits = [q.issue - q.due for q in m.queries]
        out["serving.queue_wait_p50_ms"] = percentile(waits, 50) * 1e3
        out["serving.queue_wait_p90_ms"] = percentile(waits, 90) * 1e3
        out["serving.handle_busy_s"] = self_s("serving.handle")
        out["serving.cache_hit_ratio"] = counts["cache_hits"] / max(1, counts["served"])
        idle = [q.issue - q.due for q in m.queries if q.waited_idle]
        out["driver.query_lateness_p50_us"] = percentile(idle, 50) * 1e6
    if spec.archive:
        rows = table.get("history.archive_ingest", {}).get("n", 0)
        out["history.archive_ingest_busy_s"] = self_s("history.archive_ingest")
        out["history.archive_ingest_us_per_row"] = (
            self_s("history.archive_ingest") / rows * 1e6 if rows else 0.0
        )
        out["history.flush_busy_s"] = self_s("history.flush")
        out["history.flush_p50_ms"] = p_ms("history.flush", 50)
        out["history.flush_p90_ms"] = p_ms("history.flush", 90)
        out["history.flushes"] = counts["flushes"]
        out["history.rows_written"] = counts["rows_written"]
        reads = table.get("history.range_query")
        if reads:
            out["history.range_query_p50_us"] = p_ms("history.range_query", 50) * 1e3
            out["history.rows_per_query"] = reads["n"] / reads["count"]
        out["history.queries"] = counts["history_queries"]
    if spec.checkpoint_every:
        out["durability.snapshot_p50_ms"] = p_ms("durability.snapshot", 50)
        out["durability.checkpoint_p50_ms"] = p_ms("durability.checkpoint", 50)
        out["durability.checkpoint_bytes"] = counts["checkpoint_bytes"]
        out["durability.checkpoints"] = counts["checkpoints"]
    reference_busy = busy_per_op(reference["pass"])
    out["obs.trace_overhead_frac"] = busy_per_op(m) / reference_busy - 1.0
    if telemetry_pass is not None:
        out["obs.telemetry_overhead_frac"] = (
            busy_per_op(telemetry_pass["pass"]) / reference_busy - 1.0
        )
    accounted = sum(row["self_s"] for name, row in table.items()
                    if name not in WAIT_SPANS)
    out["driver.glue_busy_s"] = self_s("tick")
    out["driver.wall_s"] = m.wall_s
    out["driver.tick_p50_ms"] = percentile(m.tick_s, 50) * 1e3
    out["driver.tick_p90_ms"] = percentile(m.tick_s, 90) * 1e3
    out["driver.tick_lateness_p90_ms"] = percentile(m.tick_late_s, 90) * 1e3
    out["driver.tick_p99_ms"] = percentile(m.tick_s, 99) * 1e3
    out["driver.unaccounted_frac"] = 1.0 - accounted / m.wall_s
    return out


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def host_meta(workdir: Path) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sqlite": sqlite3.sqlite_version,
        "workdir": str(workdir),
        "workdir_tmpfs": on_tmpfs(workdir),
        "git_commit": commit,
    }


def on_tmpfs(path: Path) -> bool:
    """Whether ``path`` lives on a tmpfs mount (Linux; False elsewhere)."""
    best, fstype = "", ""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return False
    resolved = str(path.resolve())
    for line in mounts:
        _dev, mount, kind, *_rest = line.split()
        if (resolved == mount or resolved.startswith(mount.rstrip("/") + "/")) \
                and len(mount) > len(best):
            best, fstype = mount, kind
    return fstype == "tmpfs"


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 workdir: Path) -> dict:
    """Run one workload in this process; returns its result record."""
    from workloads import generate, sized
    from tracer import Tracer

    spec = sized(name, quick)
    passes = 1
    if trace:
        passes = 3 if name == "ingest_evict" else 2
    if quick:
        seconds = min(seconds, 0.8)
    inputs = generate(spec, seed, seconds / passes)
    reference = run_pass(spec, inputs, workdir / "reference",
                         repeat_setup=not (trace or quick),
                         sharded=trace and not spec.ring)
    ran = [reference]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "traced": trace,
        "schedule_hash": inputs.schedule_hash,
        "requests_by_kind": dict(sorted(reference["pass"].requests_by_kind.items())),
        "samples": {
            "ticks": len(reference["pass"].tick_s),
            "queries": len(reference["pass"].queries),
            "setups": len(reference["setup_s"]),
        },
        "end_to_end": end_to_end_metrics(spec, inputs, reference),
        "scoped": scoped_metrics(spec, reference),
        "per_layer": None,
        "layer_table": None,
        "trace_file": None,
    }
    if trace:
        from repro.obs import Telemetry

        tracer = Tracer()
        traced = run_pass(spec, inputs, workdir / "traced", tracer=tracer)
        ran.append(traced)
        telemetry_pass = None
        if name == "ingest_evict":
            telemetry_pass = run_pass(
                spec, inputs, workdir / "telemetry", telemetry=Telemetry()
            )
            ran.append(telemetry_pass)
        record["per_layer"] = per_layer_metrics(
            spec, inputs, reference, traced, tracer, telemetry_pass
        )
        record["layer_table"] = traced["table"]
        trace_file = workdir.parent / f"trace-{name}.jsonl"
        tracer.write_jsonl(trace_file)
        record["trace_file"] = str(trace_file)
    record["attempted"] = sum(r["attempted"] for r in ran)
    record["failed"] = sum(r["failed"] for r in ran)
    record["checks"] = sum(r["checks"] for r in ran)
    record["notes"] = [note for r in ran for note in r["notes"]]
    record["failed_frac"] = record["failed"] / record["attempted"]
    record["correct"] = record["failed"] == 0
    return record


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} seconds={record['seconds']}"
          f"{' quick' if record['quick'] else ''}  schedule={record['schedule_hash'][:16]}")
    print(f"   correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} failed_frac={record['failed_frac']:.3g} "
          f"checks={record['checks']} samples={record['samples']}")
    counted, timed = OPS[record["workload"]]
    print(f"   ops_per_s counts: {counted}\n   op_p50_ms / driver.op_p90_ms time: {timed}")
    for note in record["notes"]:
        print(f"   ! {note}")
    for name, value in record["end_to_end"].items():
        print(f"   {name:<44} {value:>16.6g} {unit_of(name)}")
    shown = record["per_layer"] or record["scoped"]
    for name, value in shown.items():
        print(f"   {name:<44} {value:>16.6g} {unit_of(name)}")
    if record["layer_table"]:
        wall = record["per_layer"]["driver.wall_s"]
        print(f"   -- layer table (self time; wall {wall:.3f} s) --")
        rows = sorted(record["layer_table"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            share = "   wait" if name in WAIT_SPANS else f"{row['self_s'] / wall:>7.1%}"
            print(f"   {name:<32} self {row['self_s']:>9.4f} s {share}"
                  f"  total {row['total_s']:>9.4f} s  spans {row['count']:>7}")
        print(f"   trace: {record['trace_file']}")


def result_line(record: dict) -> str:
    """The driver's contract: one JSON object, last line of stdout."""
    if record["traced"]:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit, _better in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name], "unit": unit}
            for name, unit, _better, _bound in END_TO_END
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one workload measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also run the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: each workload ends within 3 s")
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".bench_work",
                        help="where archives, checkpoints and traces go "
                             "(point it at a tmpfs to take the disk out)")
    return parser.parse_args(argv)


def stop_helpers() -> None:
    """Stop and wait for every process ``multiprocessing`` still holds.

    Creating a shared-memory segment starts the interpreter's resource
    tracker, a child that only ends once this process has gone and nobody
    waits for it: it would outlive the run.  Close its pipe and reap it
    here (``_stop()`` where Python has it, the same two steps by hand
    where it does not), after any worker a failed pass left behind.
    """
    from multiprocessing import active_children, resource_tracker

    for child in active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is None:
        return
    if hasattr(tracker, "_stop"):
        tracker._stop()
    else:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


def main(argv=None) -> int:
    args = parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=args.workdir))
    try:
        if args.workload == "all":
            records = []
            for name in NAMES:
                part = scratch / f"{name}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--workdir", str(args.workdir), "--out", str(part),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    return done.returncode
                records += json.loads(part.read_text())["workloads"]
        else:
            records = [run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.quick, scratch)]
        result = {"schema": 1, "meta": host_meta(args.workdir), "workloads": records}
        if args.out:
            args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(json.dumps(result["meta"], sort_keys=True))
        for record in records:
            print_record(record)
        if len(records) == 1:
            print(result_line(records[0]))
        return 0
    finally:
        stop_helpers()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
