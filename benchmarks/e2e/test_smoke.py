"""Smoke tests of the pipeline benchmark itself (not part of tier-1).

Run explicitly, from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They drive ``run.py --quick`` (each workload within 3 s) and check the
contract every later performance claim leans on: every metric is present,
finite, unit-labelled and well-named; counts repeat exactly for a seed;
the schedule is a function of the seed; ``compare.py`` calls a regression
a regression; the tracer's self times partition the wall.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from metrics import END_TO_END, PER_LAYER, SCOPED, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import generate, sized  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(HERE / "run.py")]

#: Counts that must repeat exactly across two runs of one seed.
EXACT = (
    "core.steps", "core.messages", "core.suppressed", "kalman.update_rows",
    "serving.ring_ingests", "serving.ring_evictions", "history.rows_written",
    "history.flushes", "durability.checkpoints",
) + tuple(n for n, _u, _b in PER_LAYER if n.startswith("serving.requests."))


def run_all(tmp_path: Path, tag: str) -> dict:
    out = tmp_path / f"{tag}.json"
    subprocess.run(
        RUN + ["--workload", "all", "--seed", "5", "--quick", "--trace", "1",
               "--workdir", str(tmp_path / "work"), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return run_all(tmp, "first"), run_all(tmp, "second")


def test_benchmark_json_agrees_with_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert {name for name, *_ in SCOPED} <= {name for name, *_ in PER_LAYER}


def test_schedule_is_a_function_of_the_seed():
    for name, _why in WORKLOADS:
        spec = sized(name, quick=True)
        a, b, c = generate(spec, 3, 1.0), generate(spec, 3, 1.0), generate(spec, 4, 1.0)
        assert a.schedule_hash == b.schedule_hash
        assert a.schedule_hash != c.schedule_hash
        assert a.schedule == b.schedule


def test_every_metric_present_finite_and_labelled(traced_twice):
    result, _ = traced_twice
    assert {"host_cores", "python", "numpy", "scipy", "sqlite", "workdir_tmpfs",
            "git_commit"} <= set(result["meta"])
    assert [r["workload"] for r in result["workloads"]] == [n for n, _ in WORKLOADS]
    for record in result["workloads"]:
        assert record["correct"] and record["failed"] == 0 and record["seed"] == 5
        assert set(record["end_to_end"]) == {n for n, *_ in END_TO_END}
        assert set(record["per_layer"]) == {n for n, *_ in PER_LAYER}
        for name, value in {**record["end_to_end"], **record["per_layer"]}.items():
            assert NAME.fullmatch(name), name
            assert math.isfinite(value), (record["workload"], name, value)
        for name, value in record["end_to_end"].items():
            assert value > 0, (record["workload"], name)


def test_layer_table_accounts_for_closed_loop_wall(traced_twice):
    result, _ = traced_twice
    by_name = {r["workload"]: r for r in result["workloads"]}
    for name in ("ingest_evict", "filter_wide"):
        assert abs(by_name[name]["per_layer"]["driver.unaccounted_frac"]) <= 0.10, name
    assert by_name["filter_wide"]["per_layer"]["parallel.bitwise_equal"] == 1


def test_counts_repeat_exactly_for_a_seed(traced_twice):
    first, second = traced_twice
    for a, b in zip(first["workloads"], second["workloads"]):
        assert a["schedule_hash"] == b["schedule_hash"]
        assert a["requests_by_kind"] == b["requests_by_kind"]
        assert a["end_to_end"]["messages_per_reading"] == b["end_to_end"]["messages_per_reading"]
        for name in EXACT:
            assert a["per_layer"][name] == b["per_layer"][name], (a["workload"], name)


def test_result_line_is_the_drivers_contract(tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "serve_live", "--seed", "9", "--seconds", "1", "--quick",
               "--trace", "0", "--workdir", str(tmp_path)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [n for n, *_ in END_TO_END]
    for name, unit, *_ in END_TO_END:
        assert line["metrics"][name]["unit"] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest_evict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def test_compare_verdicts(tmp_path):
    def result(tick, failed_frac=0.0):
        e2e = {n: 1.0 for n, *_ in END_TO_END}
        e2e["op_p50_ms"] = tick
        scoped = {n: 1.0 for n, *_ in SCOPED}
        return {"workloads": [{"workload": "ingest_evict", "end_to_end": e2e,
                               "scoped": scoped, "failed_frac": failed_frac}]}

    def write(tag, *ticks, **kw):
        paths = []
        for i, tick in enumerate(ticks):
            path = tmp_path / f"{tag}{i}.json"
            path.write_text(json.dumps(result(tick, **kw)))
            paths.append(str(path))
        return paths

    steady = write("p", 10.0, 10.1, 9.9, 10.0, 10.05)
    slower = write("s", 14.0, 14.1, 13.9, 14.0, 14.2)
    noisy = write("n", 6.0, 10.0, 14.0, 8.0, 12.0)
    failing = write("f", 10.0, failed_frac=0.01)

    def tick_verdict(parent, change):
        rows = compare.compare(compare.load(parent), compare.load(change))
        return {r["metric"]: r["verdict"] for r in rows}

    assert tick_verdict(steady, steady)["op_p50_ms"] == "ok"
    assert tick_verdict(steady, slower)["op_p50_ms"] == "regressed"
    assert tick_verdict(slower, steady)["op_p50_ms"] == "ok"
    assert tick_verdict(noisy, steady)["op_p50_ms"] == "unresolved"
    assert tick_verdict(steady, failing)["failed_frac"] == "regressed"
    assert compare.main(["--parent", *steady, "--change", *slower]) == 1
    assert compare.main(["--parent", *steady, "--change", *steady]) == 0


def test_tracer_self_times_partition_the_wall():
    tracer = Tracer()
    with tracer.span("tick", 0):
        with tracer.span("core.step"):
            sum(range(2000))
        with tracer.span("serving.ring_ingest"):
            hook = type("Hook", (), {"on_evict": staticmethod(lambda tup: sum(range(50)))})()
            tracer.wrap_batched(hook, "on_evict", "history.archive_ingest")
            for _ in range(20):
                hook.on_evict(None)
    table = tracer.layer_table()
    assert table["history.archive_ingest"]["n"] == 20
    assert table["history.archive_ingest"]["count"] == 1
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(table["tick"]["total_s"], rel=1e-9)
    parents = dict(zip(tracer.names, tracer.parents))
    assert tracer.names[parents["history.archive_ingest"]] == "serving.ring_ingest"
    assert set(tracer.idents) == {0}
