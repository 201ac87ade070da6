"""One benchmark measurement in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1 [--setup-only]``.  Prints one JSON object on its
last stdout line.  ``setup_s`` runs from the first line of this file,
before numpy and ctrlsim are imported, to the end of the workload's
input generation.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ctrlsim  # noqa: E402
import workloads  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402

def git_commit() -> str:
    """Commit of the checkout, or 'unknown' outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_record() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        pass
    return {
        "cores": os.cpu_count(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def end_to_end(wl, durations_ns: list[int], elapsed: float, setup_s: float, ok_frac: float) -> dict:
    ms = [d / 1e6 for d in durations_ns]  # a run times at least one cycle of 2+ ops
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ms) / elapsed,
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": statistics.quantiles(ms, n=100, method="inclusive")[98],
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "best_wcf_ctrl_u": wl.best_wcf("ctrl_u"),
        "best_wcf_switch": wl.best_wcf("switch"),
        "ok_frac": ok_frac,
    }


def per_layer(wl, summary: dict, untraced_s: float, traced_s: float) -> dict:
    def stat(name, field):
        return summary.get(name, {}).get(field, 0)

    def busy(name):
        return stat(name, "self_ns") / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    counters = wl.counters
    fevals = counters["fevals"]
    out = {
        "hilbert.Operator.calls": stat("hilbert.Operator", "calls"),
        "hilbert.Operator.busy_s": busy("hilbert.Operator"),
        "hilbert.StateVector.calls": stat("hilbert.StateVector", "calls"),
        "hilbert.StateVector.busy_s": busy("hilbert.StateVector"),
        "hilbert.DensityMatrix.busy_s": busy("hilbert.DensityMatrix"),
        "hilbert.haar_unitary.busy_s": busy("hilbert.haar_unitary"),
        "hilbert.subspace_embed.busy_s": busy("hilbert.subspace_embed"),
        "photonic.propagate.calls": stat("photonic.propagate", "calls"),
        "photonic.propagate.busy_s": busy("photonic.propagate"),
        "photonic.propagate.p50_us": stat("photonic.propagate", "p50_ns") / 1e3,
        "photonic.element_unitary.calls": stat("photonic.element_unitary", "calls"),
        "photonic.element_unitary.busy_s": busy("photonic.element_unitary"),
        "photonic.compile_useful_ratio": ratio(
            stat("photonic.element_unitary", "distinct"), stat("photonic.element_unitary", "calls")
        ),
        "photonic.Network.from_json.busy_s": busy("photonic.Network.from_json"),
        "ion.run_sequence.calls": stat("ion.run_sequence", "calls"),
        "ion.run_sequence.busy_s": busy("ion.run_sequence"),
        "ion.run_sequence.p50_us": stat("ion.run_sequence", "p50_ns") / 1e3,
        "ion.pulse_unitary.calls": stat("ion.pulse_unitary", "calls"),
        "ion.pulse_unitary.busy_s": busy("ion.pulse_unitary"),
        "ion.compile_useful_ratio": ratio(
            stat("ion.pulse_unitary", "distinct"), stat("ion.pulse_unitary", "calls")
        ),
        "nogo.optimize.busy_s": busy("nogo.optimize"),
        "nogo.fevals": fevals,
        # per evaluation: optimize's inclusive time, which holds the
        # expm and minimize children that make up an evaluation
        "nogo.eval_us": ratio(stat("nogo.optimize", "total_ns") / 1e3, fevals),
        "nogo.expm.calls": stat("nogo.expm", "calls"),
        "nogo.expm.busy_s": busy("nogo.expm"),
        "nogo.minimize.busy_s": busy("nogo.minimize"),
        "nogo.converged_ratio": ratio(counters["converged"], counters["restarts"]),
        "nogo.eval_flops": ratio(counters["flops"], fevals),
        "cli.main.calls": stat("cli.main", "calls"),
        "cli.main.busy_s": busy("cli.main"),
        "cli.main.p50_us": stat("cli.main", "p50_ns") / 1e3,
        "cli.report_bytes": counters["report_bytes"],
    }
    for layer in MODULES:
        out[f"{layer}.errors"] = sum(s["errors"] for n, s in summary.items() if n.startswith(layer + "."))
    out["trace.overhead_frac"] = traced_s / untraced_s - 1
    return out


def measure(wl, seconds: float, tracer, setup_s: float) -> tuple[dict, int, list[str]]:
    """Run the workload; return metrics, ops attempted and failures.

    Without a tracer the run is timed; with one it gives per-layer metrics.
    """
    failures: list[str] = []
    if tracer is None:
        durations, elapsed, attempted = workloads.run_for(wl, seconds, failures)
        # 1 - failed_frac, since a reported metric must never be 0
        ok_frac = 1 - len(failures) / attempted
        return end_to_end(wl, durations, elapsed, setup_s, ok_frac), attempted, failures

    # A fixed op count, so that counts repeat for a seed.  Each cycle
    # runs untraced and then traced, so that drift in the machine's speed
    # falls on both sides of the overhead alike; only the traced ops count.
    cycles = max(1, round(seconds * wl.trace_cycles_per_s))
    warm = workloads.warm_up(wl, failures)
    untraced_s = traced_s = 0.0
    traced_counts = Counter()
    for c in range(cycles):
        ops = range(c * wl.cycle, (c + 1) * wl.cycle)
        wl.counters = Counter()
        start = time.perf_counter()
        workloads.run_ops(wl, ops, failures)
        untraced_s += time.perf_counter() - start
        wl.counters = traced_counts
        tracer.install()
        try:
            start = time.perf_counter()
            for i in ops:
                tracer.op = i
                tracer.span("bench.op", workloads.run_ops, (wl, (i,), failures))
            traced_s += time.perf_counter() - start
        finally:
            tracer.restore()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(workloads.OUT_DIR, f"spans-{wl.name}-{wl.seed}.tsv"))
    return per_layer(wl, tracer.summary(), untraced_s, traced_s), warm + 2 * cycles * wl.cycle, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not os.path.realpath(ctrlsim.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: imported ctrlsim from {ctrlsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        wl.setup()
    else:
        # trace the input generation too: haar_unitary runs there
        tracer.install()
        try:
            tracer.span("bench.setup", wl.setup)
        finally:
            tracer.restore()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    metrics, attempted, failures = measure(wl, args.seconds, tracer, setup_s)
    print(json.dumps({
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "machine": machine_record(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
