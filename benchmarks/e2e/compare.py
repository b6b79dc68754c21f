"""Compare runs of two commits: one row per (workload, metric), with a verdict.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json
    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is one ``run.py --out`` result (one workload or all four).  For
every workload both sides ran, every end-to-end metric — and every scoped
metric on the workloads that produce it — gets a row with each side's
median and quartiles and a verdict:

* ``ok`` — the change's median is no worse than the parent's by more than
  the metric's bound (or every change run beats every parent run);
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the parent's own run-to-run spread (q3 - q1 over the
  median) is wider than the bound, so these runs cannot tell.

``failed_frac`` has an absolute bound of zero: a change whose worst run
fails a larger share of its operations than the parent's worst is a
regression whatever its timings.  Exit status is 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, SCOPED, quartile_spread  # noqa: E402

__all__ = ["load", "compare", "main"]


def load(paths) -> dict:
    """``{workload: {metric: [value per run]}}`` plus ``failed_frac`` per run."""
    runs: dict[str, dict[str, list]] = {}
    for path in paths:
        for record in json.loads(Path(path).read_text())["workloads"]:
            side = runs.setdefault(record["workload"], {})
            values = dict(record["end_to_end"], **record["scoped"])
            values["failed_frac"] = record["failed_frac"]
            for name, value in values.items():
                side.setdefault(name, []).append(value)
    return runs


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartile_spread(parent)
    _c_q1, c_med, _c_q3 = quartile_spread(change)
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "ok"  # every change run beats every parent run
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved"
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else sign * (c_med - p_med)
    return "regressed" if worse_by > bound else "ok"


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per (workload, metric) both sides measured."""
    rows = []
    gates = [(n, u, b, bound, None) for n, u, b, bound in END_TO_END] + list(SCOPED)
    for workload in parent:
        if workload not in change:
            continue
        for name, unit, better, bound, where in gates:
            if where is not None and workload not in where:
                continue
            p, c = parent[workload][name], change[workload][name]
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "bound": bound,
                "parent": quartile_spread(p), "change": quartile_spread(c),
                "runs": (len(p), len(c)),
                "verdict": verdict(p, c, better, bound),
            })
        p, c = parent[workload]["failed_frac"], change[workload]["failed_frac"]
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio", "bound": 0.0,
            "parent": quartile_spread(p), "change": quartile_spread(c),
            "runs": (len(p), len(c)),
            "verdict": "regressed" if max(c) > max(p) else "ok",
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<28} {'unit':<6} {'bound':>6}  "
        f"{'parent q1/median/q3':<36} {'change q1/median/q3':<36} verdict"
    ]
    for row in rows:
        sides = [
            "/".join(f"{v:.5g}" for v in row[side]) + f" (n={n})"
            for side, n in zip(("parent", "change"), row["runs"])
        ]
        lines.append(
            f"{row['workload']:<14} {row['metric']:<28} {row['unit']:<6} "
            f"{row['bound']:>6.3f}  {sides[0]:<36} {sides[1]:<36} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="PARENT.json CHANGE.json")
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.files and not (args.parent or args.change) and len(args.files) == 2:
        args.parent, args.change = args.files[:1], args.files[1:]
    elif args.files or not (args.parent and args.change):
        parser.error("give PARENT.json CHANGE.json, or --parent ... --change ...")
    rows = compare(load(args.parent), load(args.change))
    print(render(rows))
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
