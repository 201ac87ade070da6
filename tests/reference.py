"""Independent reference for the search kernel ``nogo._objective``.

The fixed circuit is composed one sample at a time: each slot gate is
scipy's ``expm(1j * H)`` of its generator, each unknown is inserted as
``1_ac x U`` in the order of ``nogo.TASKS``, and the Choi matrix comes
from evolving every matrix unit with the ancilla attached.  Nothing here
calls the kernel's own builders (``_slot_matrices``, ``_oracle_entries``,
``_prepare_samples``), so agreement with them is a real check.
"""

import numpy as np
from scipy.linalg import expm

from ctrlsim.nogo import TASKS, hermitian_from_params


def circuit_unitary_oracle(kind, ancilla_dim, system_dim, x, bindings):
    """Total unitary on (ancilla, control, system) at parameters ``x``."""
    inserted = TASKS[kind][0]
    full_dim = ancilla_dim * 2 * system_dim
    gens = hermitian_from_params(np.reshape(x, (len(inserted) + 1, -1)), full_dim)
    slots = [expm(1j * h) for h in gens]
    eye_ac = np.eye(ancilla_dim * 2)
    total = slots[0]
    for s, slot in zip(inserted, slots[1:]):
        total = slot @ np.kron(eye_ac, bindings[s].entries) @ total
    return total


def choi_oracle(kind, ancilla_dim, system_dim, x, bindings):
    """Basis-enumeration Choi matrix of the induced map on (control,
    system): evolve every matrix unit |i><j| with the ancilla in |0>,
    trace the ancilla by explicit index summation, and assemble
    sum_ij E(|i><j|) (x) |i><j|."""
    total = circuit_unitary_oracle(kind, ancilla_dim, system_dim, x, bindings)
    a, cs = ancilla_dim, 2 * system_dim
    anc = np.zeros((a, a), dtype=complex)
    anc[0, 0] = 1.0
    j = np.zeros((cs * cs, cs * cs), dtype=complex)
    for i in range(cs):
        for k in range(cs):
            unit = np.zeros((cs, cs), dtype=complex)
            unit[i, k] = 1.0
            rho_out = total @ np.kron(anc, unit) @ total.conj().T
            reduced = np.zeros((cs, cs), dtype=complex)
            for m in range(a):
                reduced += rho_out[m * cs : (m + 1) * cs, m * cs : (m + 1) * cs]
            j += np.kron(reduced, unit)
    return j
