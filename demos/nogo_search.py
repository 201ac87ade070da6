#!/usr/bin/env python3
# Why a fixed circuit cannot do what the interferometer does.
#
# Take the circuit skeleton B (1 x U) A (the unknown box wired onto the
# system line, parametrized gates around it, an ancilla allowed) and
# maximize the worst-case process fidelity against the controlled
# target 1 (+) U over a fixed set of Haar samples. The search can be
# run as hard as you like; the worst case stays bounded away from 1.
# The same metric scores the direct-sum constructions, the photonic
# networks and the ion pulse sequences, at exactly 1, and a known
# (fixed) oracle is also reachable, so the gap is genuinely about U
# being unknown, not about the metric or the optimizer.

import numpy as np

from ctrlsim.hilbert import Operator
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
    print(f"{kind}: best worst-case process fidelity over "
          f"{config.sample_count} unknown samples = {report.best_worst_case_fidelity:.4f}")
    values = sorted(round(r.value, 4) for r in report.per_restart)
    print("  per-restart values:", values)

print("\ncontrol experiment, oracle fixed and known (identity):")
known = optimize(
    CTRL_U,
    SearchConfig(restarts=2, max_iters=300, sample_count=1, seed=7),
    samples=(Operator(np.eye(2)),),
)
print("  best fidelity =", known.best_worst_case_fidelity, " (reachable: U is not unknown)")

print("\nphysical constructions on the same metric (process fidelity):")
print("  minimum over the ctrl-u and switch interferometers and ion sequences,")
print("  32 Haar samples each =", oracle_sanity(sample_count=32, internal_dim=2, seed=7))
