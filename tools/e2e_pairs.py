"""Run the pipeline benchmark on a parent commit and on this checkout, in pairs.

Usage (from the repository root)::

    python3 tools/e2e_pairs.py --parent HEAD --pairs 10 --workload serve_live --seed 7 31
    python3 tools/e2e_pairs.py --parent HEAD~1 --pairs 1 --quick --seconds 2
    python3 tools/e2e_pairs.py --parent HEAD --pairs 10 --workdir /dev/shm/e2e

The parent's committed files are unpacked with ``git archive`` into
``.bench_work/parent-<sha>/`` (no worktree is registered, nothing under
``.git`` changes); the change is this checkout as it stands.  For every seed,
``--pairs`` times, each side's own ``benchmarks/e2e/run.py --out`` runs once —
parent first in even pairs, change first in odd ones — and then
``benchmarks/e2e/compare.py --parent ... --change ...`` judges the seed's runs.
Last, the tool prints how many pairs the change won per end-to-end metric and
the two records (parent, change) to append to ``BENCH_e2e.json``.

Both sides' ``run.py`` get the same ``--workdir``, the directory their archives
and checkpoints live in: by default the results directory under
``.bench_work/``, with ``--workdir DIR`` any other (a tmpfs such as
``/dev/shm/e2e`` takes the device out of the flush).  Each record notes
``workdir_tmpfs``; compare tmpfs records only with tmpfs records.

This tool calls the benchmark; it does not edit it.  Exit status is 2 when a
run failed or answered incorrectly, else 1 when ``compare.py`` reports a
regression, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(E2E))

import compare  # noqa: E402
from metrics import END_TO_END, quartile_spread  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack_parent(rev: str) -> tuple[str, Path]:
    """``(sha, directory)`` of the parent's committed files, unpacked once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = WORK / f"parent-{sha[:12]}"
    if not (tree / "benchmarks" / "e2e" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", sha],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, **safe)
    return sha, tree


def run_once(tree: Path, out: Path, workload: str, seed: int, args) -> bool:
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--out", str(out), "--workdir", str(args.workdir or out.parent / "work"),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL)
    if done.returncode != 0 or not out.is_file():
        print(f"!! {out.name}: run.py exited {done.returncode}", flush=True)
        return False
    records = json.loads(out.read_text())["workloads"]
    shown = ", ".join(
        f"{r['workload']} {r['end_to_end']['ops_per_s']:.5g}/s"
        + ("" if r["correct"] else " INCORRECT")
        for r in records
    )
    print(f"   {out.name}: {shown}", flush=True)
    return all(r["correct"] for r in records)


def wins(parent: list[Path], change: list[Path]) -> list[str]:
    """Per (workload, end-to-end metric): pairs the change won / lost / tied."""
    lines = []
    p_runs, c_runs = compare.load(parent), compare.load(change)
    for workload in p_runs:
        for name, _unit, better, _bound in END_TO_END:
            sign = 1.0 if better == "lower" else -1.0
            pairs = list(zip(p_runs[workload][name], c_runs[workload][name]))
            won = sum(sign * c < sign * p for p, c in pairs)
            lost = sum(sign * c > sign * p for p, c in pairs)
            lines.append(
                f"{workload:<14} {name:<22} change won {won}, lost {lost}, "
                f"tied {len(pairs) - won - lost} of {len(pairs)} pairs"
            )
    return lines


def trajectory_record(commit: str, files: list[Path], args) -> dict:
    """One ``BENCH_e2e.json`` record: quartiles over every run of one side."""
    meta = json.loads(files[0].read_text())["meta"]
    return {
        "commit": commit,
        "host_cores": meta["host_cores"],
        "workdir_tmpfs": meta["workdir_tmpfs"],
        "seeds": args.seed,
        "pairs_per_seed": args.pairs,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {
            workload: {
                name: list(quartile_spread(values[name]))
                for name, _unit, _better, _bound in END_TO_END
            }
            for workload, values in compare.load(files).items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pairs", type=int, required=True, help="pairs of runs per seed")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, nargs="+", default=[7])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="run.py's --workdir for both sides "
                             "(default: the results directory under .bench_work)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    parent_sha, parent_tree = unpack_parent(args.parent)
    dirty = "+dirty" if git("status", "--porcelain") else ""
    change_commit = git("rev-parse", "HEAD") + dirty
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="pairs-", dir=WORK))
    print(f"parent {parent_sha[:12]} in {parent_tree}\nchange {change_commit[:18]} "
          f"in {ROOT}\nresults in {out_dir}", flush=True)

    sides = {"parent": parent_tree, "change": ROOT}
    files: dict[str, list[Path]] = {"parent": [], "change": []}
    status = 0
    for seed in args.seed:
        seed_files: dict[str, list[Path]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            print(f"seed {seed} pair {pair + 1}/{args.pairs}: {order[0]} first", flush=True)
            for side in order:
                out = out_dir / f"{side}-seed{seed}-pair{pair}.json"
                if not run_once(sides[side], out, args.workload, seed, args):
                    status = 2
                if out.is_file():
                    seed_files[side].append(out)
        if len(seed_files["parent"]) != args.pairs or len(seed_files["change"]) != args.pairs:
            print(f"seed {seed}: a run produced no result; not compared")
            continue
        print(f"\n== seed {seed}: compare.py, {args.pairs} pairs ==", flush=True)
        status = max(status, compare.main(
            ["--parent", *map(str, seed_files["parent"]),
             "--change", *map(str, seed_files["change"])]
        ))
        print("\n".join(wins(seed_files["parent"], seed_files["change"])))
        for side in files:
            files[side] += seed_files[side]

    if files["parent"] and files["change"]:
        print("\n== records for BENCH_e2e.json ==")
        for commit, side in ((parent_sha, "parent"), (change_commit, "change")):
            print(json.dumps(trajectory_record(commit, files[side], args), sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
