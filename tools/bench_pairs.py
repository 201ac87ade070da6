"""Paired benchmark comparison of this checkout against another revision.

    python tools/bench_pairs.py --against REV --workload W --pairs N \
        --seconds S --out BENCH_<pr>.json

REV is exported with ``git archive`` into a temporary directory, so the
repository gains no worktree entry even when a run is interrupted.  The
unchanged ``perfbench/run.py`` of each tree then runs ``--trace 0`` on
workload W, N times per tree, parent and change alternating and each
pair starting with the tree that went second in the pair before.

Per end-to-end metric of BENCHMARK.json the script prints both medians,
the parent's interquartile range, the number of pairs in which the
change did better and a verdict:

* ``gain``: the change did better in at least 9 of 10 pairs, and its
  median beats the parent's by more than the parent's IQR;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound times the parent median's magnitude;
* ``-``: neither.

A metric whose parent IQR is wider than its bound times the parent
median is also marked ``unresolved``: one median pair cannot tell a move
of the bound's size from noise.

The result goes to ``--out`` under the workload's name, together with
the machine record of the change's runs; a file that already exists
keeps its other workloads, so one file can collect several runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> str:
    """Write the tree of ``rev`` into ``dest``; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``tree``: (metric values, machine)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=""),
    )
    if done.returncode != 0:
        raise RuntimeError(f"run in {tree} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    prefix = f"# {workload} machine "
    machine = next(json.loads(l[len(prefix):]) for l in lines if l.startswith(prefix))
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, machine


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent_median: float, change_median: float, parent_iqr: float, wins: int,
            pairs: int, bound: float, higher: bool) -> str:
    """``gain``, ``regressed`` or ``-``, by the rules in the module docstring."""
    better_by = (change_median - parent_median) if higher else (parent_median - change_median)
    if 10 * wins >= 9 * pairs and better_by > parent_iqr:
        return "gain"
    if -better_by > bound * abs(parent_median):
        return "regressed"
    return "-"


def summarize(runs: dict[str, list[dict]], spec: list[dict]) -> dict:
    """Per end-to-end metric: both medians, the parent IQR, wins of the
    change and its verdict."""
    out = {}
    for m in spec:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        med, change_med = statistics.median(parent), statistics.median(change)
        spread = iqr(parent)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": bound,
            "parent_median": med, "change_median": change_med,
            "parent_iqr": spread, "wins": wins, "pairs": len(parent),
            "resolved": spread <= bound * abs(med),
            "verdict": verdict(med, change_med, spread, wins, len(parent), bound, higher),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="paired perfbench comparison")
    parser.add_argument("--against", required=True, help="revision to compare with")
    parser.add_argument("--workload", required=True, choices=("search", "schemes", "cli"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_<pr>.json")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        print("error: --pairs must be >= 1 and --seconds > 0", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    machines: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        commit = export(args.against, tmp)
        trees = {"parent": tmp, "change": ROOT}
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                metrics, machines[side] = run_once(trees[side], args.workload, args.seed, args.seconds)
                runs[side].append(metrics)
                print(f"# pair {k + 1}/{args.pairs} {side} ops_per_s {metrics['ops_per_s']:.6g}",
                      flush=True)

    summary = summarize(runs, spec)
    print(f"# {args.workload}: {args.pairs} pairs of {args.seconds:g} s against {commit[:12]}")
    print(f"{'metric':<18}{'parent':>12}{'change':>12}{'parent IQR':>12}{'wins':>7}  verdict")
    for name, s in summary.items():
        flag = "" if s["resolved"] else f"  unresolved (IQR above {s['bound']:.0%} bound)"
        print(f"{name:<18}{s['parent_median']:>12.6g}{s['change_median']:>12.6g}"
              f"{s['parent_iqr']:>12.4g}{s['wins']:>4}/{s['pairs']}  {s['verdict']:<9}{flag}")

    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record.setdefault("workloads", {})[args.workload] = {
        "against": commit, "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
        "machine": machines["change"], "summary": summary, "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
