"""ctrlsim benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload {search,schemes,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; the command fails with exit code 2, printing no
result, when it is not there.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs a fixed number of op cycles, each untraced
and then under span tracing, and reports the per-layer metrics.  Each workload
runs in a fresh interpreter (``worker.py``) so that ``setup_s`` includes
the imports and ``rss_peak_mb`` is that workload's own.  ``setup_s`` is
the median of several fresh set-ups.

Human-readable lines come first: the machine record and each metric with
its unit.  The last stdout line is the JSON result.  Each result, with
its machine record and any failure messages, is also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("search", "schemes", "cli")
SETUP_SAMPLES = 5
WORKLOAD_TIMEOUT_S = 170  # a run must end within 180 s


def _load_spec() -> dict[str, tuple[str, str]]:
    """Metric name to (unit, 'end_to_end' or 'per_layer'), from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        m["name"]: (m["unit"], group) for group in ("end_to_end", "per_layer") for m in spec[group]
    }


def _worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
            setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and parse its last line."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    # subprocess.run kills the child on timeout and waits for it
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(0.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Measure one workload; return the result object and write its record."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    got = _worker(workload, seed, seconds, trace, deadline)
    metrics = got["metrics"]
    if not trace:
        setups = [metrics["setup_s"]]
        setups += [
            _worker(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics["setup_s"] = statistics.median(setups)
    group = "per_layer" if trace else "end_to_end"
    names = [n for n, (_, g) in spec.items() if g == group]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"{workload}: metrics {sorted(metrics)} do not match BENCHMARK.json {group}")
    failed = len(got["failures"])
    result = {
        "correct": failed == 0,
        "attempted": got["attempted"],
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": spec[n][0]} for n in names},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": got["machine"], "failures": got["failures"], "result": result}
    with open(os.path.join(OUT_DIR, f"result-{workload}-{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"# {workload} machine {json.dumps(got['machine'], sort_keys=True)}")
    for message in got["failures"][:10]:
        print(f"# {workload} FAILED {message}")
    print(f"# {workload} attempted {result['attempted']} failed {failed} "
          f"failed_frac {failed / result['attempted']:.6g}")
    for n, m in result["metrics"].items():
        print(f"# {workload} {n} {m['value']:.6g} {m['unit']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="ctrlsim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "ctrlsim", "__init__.py")):
        print(f"error: no ctrlsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _load_spec()
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
        else:
            parts = {w: run_workload(w, args.seed, args.seconds, args.trace, spec) for w in WORKLOADS}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{w}.{n}": m for w, p in parts.items() for n, m in p["metrics"].items()},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
