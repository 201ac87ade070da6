"""Time one search-objective evaluation, split into its passes.

    python tools/time_objective.py [--src DIR] [--repeats N]

Times ``nogo._objective`` for ``ctrl_u`` and ``switch`` at ancilla and
system dimension 2 with 16 Haar samples, at one fixed random parameter
point per kind.  One round times ``CALLS`` consecutive calls of each
part: the slot gates (``nogo._slot_matrices``), the value pass (one
``_objective`` call: slot gates, forward rows, overlaps and softmin) and
the gradient pass (the ``gradient()`` that call returns: adjoint rows
and the chain through the eigendecomposition).  It also times a
search's set-up, which runs once per search and not per evaluation:
one ``nogo.draw_samples`` plus ``nogo._prepare_samples`` of its 16
samples.  The script prints, per kind, the median and the interquartile
range over N rounds of the microseconds per call of each part.  An
evaluation costs ``value_us + grad_us`` at a line-search trial that
meets sufficient decrease and ``value_us`` at one that fails it;
``value_us`` includes ``slots_us``, and ``setup_us`` is apart from all
three.

``--src DIR`` loads the ``ctrlsim`` package under DIR (for instance the
``src`` of an exported parent commit) next to this checkout's, and the
rounds alternate between the two trees, so both see the same machine
state.  A tree whose ``_objective`` returns the gradient as an array
computes it in its one pass: its ``value_us`` is the whole evaluation
and its ``grad_us`` is 0.  Run as a script, BLAS uses one thread unless
``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ANCILLA, SYSTEM, SAMPLES, CALLS = 2, 2, 16, 50


def load_nogo(src: str, name: str):
    """The ``nogo`` module of the ``ctrlsim`` package under ``src``,
    imported as the package ``name`` so that two trees can coexist."""
    pkg = os.path.join(os.path.abspath(src), "ctrlsim")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.nogo")


def set_up(nogo, kind: str, rng) -> tuple:
    """A search's set-up: draw its samples and prepare them for the kernel."""
    return nogo._prepare_samples(kind, SYSTEM, nogo.draw_samples(kind, SYSTEM, SAMPLES, rng))


def problem(nogo, kind: str) -> tuple:
    """Arguments of one ``_objective`` call, the same for every tree."""
    rng = np.random.default_rng(0)
    prepared = set_up(nogo, kind, rng)
    x = rng.normal(0.0, 0.7, size=nogo.param_count(kind, ANCILLA, SYSTEM))
    return kind, ANCILLA, SYSTEM, x, prepared


def per_call_us(fn, args) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        fn(*args)
    return (time.perf_counter() - start) / CALLS * 1e6


def time_round(nogo, args) -> tuple[float, float, float, float]:
    """(slot gates, value pass, gradient pass, set-up) in microseconds per call."""
    kind, _, _, x, _ = args
    full_dim = 2 * ANCILLA * SYSTEM
    slots = per_call_us(nogo._slot_matrices, (kind, full_dim, x))
    value = per_call_us(nogo._objective, args)
    gradient = nogo._objective(*args)[1]
    grad = per_call_us(gradient, ()) if callable(gradient) else 0.0
    return slots, value, grad, per_call_us(set_up, (nogo, kind, np.random.default_rng(0)))


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="src directory of a second tree to alternate with")
    parser.add_argument("--repeats", type=int, default=20, help="rounds per kind and tree")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    trees = {"this": load_nogo(os.path.join(os.path.dirname(HERE), "src"), "_ctrlsim_this")}
    if args.src is not None:
        trees["--src"] = load_nogo(args.src, "_ctrlsim_src")
    print(f"# _objective at a = {ANCILLA}, d = {SYSTEM}, S = {SAMPLES}: {args.repeats} rounds "
          f"of {CALLS} calls, numpy {np.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"{os.cpu_count()} CPUs")
    print(f"{'kind':<8}{'tree':<7}{'slots_us':>10}{'IQR':>8}{'value_us':>10}{'IQR':>8}"
          f"{'grad_us':>10}{'IQR':>8}{'setup_us':>10}{'IQR':>8}")
    for kind in ("ctrl_u", "switch"):
        calls = {tree: problem(nogo, kind) for tree, nogo in trees.items()}
        rounds: dict[str, list[tuple[float, float, float, float]]] = {tree: [] for tree in trees}
        for r in range(args.repeats):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for tree in order:
                rounds[tree].append(time_round(trees[tree], calls[tree]))
        for tree, times in rounds.items():
            cells = "".join(f"{statistics.median(p):>10.1f}{iqr(p):>8.1f}" for p in zip(*times))
            print(f"{kind:<8}{tree:<7}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
