#!/usr/bin/env python3
# Why a fixed circuit cannot do what the interferometer does.
#
# Take the circuit skeleton B (1 x U) A (the unknown box wired onto the
# system line, parametrized gates around it, an ancilla allowed) and
# maximize the worst-case process fidelity against the controlled
# target 1 (+) U over a fixed set of Haar samples, by L-BFGS on a
# softmin over the samples with its exact gradient. Every restart runs
# to convergence, and the worst case stays far from 1. On a sample set
# closed under U -> -U it cannot pass 1/2 at all: the circuit's channel
# ignores the global phase of U, but 1 (+) U and 1 (+) -U are orthogonal.
# The same metric scores the direct-sum constructions, the photonic
# networks and the ion pulse sequences, at exactly 1, and a known
# (fixed) oracle is also reachable, so the gap is genuinely about U
# being unknown, not about the metric or the optimizer.

import numpy as np

from ctrlsim.hilbert import Operator, haar_unitary
from ctrlsim.nogo import (
    CTRL_U,
    SWITCH,
    SearchConfig,
    optimize,
    oracle_sanity,
)

config = SearchConfig(restarts=6, max_iters=800, sample_count=12, seed=7)

for kind in (CTRL_U, SWITCH):
    report = optimize(kind, config)
    converged = sum(r.converged for r in report.restarts)
    print(f"{kind}: best worst-case process fidelity over "
          f"{config.sample_count} unknown samples = {report.best_worst_case_fidelity:.4f} "
          f"({converged}/{config.restarts} restarts converged)")
    values = sorted(round(r.value, 4) for r in report.restarts)
    print("  per-restart values:", values)

rng = np.random.default_rng(7)
bases = [haar_unitary(2, rng).entries for _ in range(6)]
phase_closed = tuple({"U": Operator(p * u)} for u in bases for p in (1, -1, 1j, -1j))
ceiling = optimize(CTRL_U, config, samples=phase_closed).best_worst_case_fidelity
print(f"\nctrl_u on {len(phase_closed)} samples closed under U -> -U, iU: "
      f"best = {ceiling:.4f} (certified ceiling 1/2)")

print("\ncontrol experiment, oracle fixed and known (identity):")
known = optimize(
    CTRL_U,
    SearchConfig(restarts=2, max_iters=300, sample_count=1, seed=7),
    samples=({"U": Operator(np.eye(2))},),
)
print("  best fidelity =", known.best_worst_case_fidelity, " (reachable: U is not unknown)")

print("\nphysical constructions on the same metric (process fidelity):")
print("  minimum over the ctrl-u and switch interferometers and ion sequences,")
print("  32 Haar samples each =", oracle_sanity(sample_count=32, internal_dim=2, seed=7))
