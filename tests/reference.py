"""Independent reference for the search kernel ``nogo._objective`` and
the scheme scorer ``nogo._scheme_fidelity``.

The fixed circuit is composed one sample at a time: each slot gate is
scipy's ``expm(1j * H)`` of its generator, each unknown is inserted as
``1_ac x U`` in the order of ``nogo.TASKS``, and the Choi matrix comes
from evolving every matrix unit with the ancilla attached.  The
controlled target is written out from the paper's ``1 (+) U`` and
``Ug Uf (+) Uf Ug``, and a channel is scored by its Choi overlap with
it.  Nothing here calls the kernel's own helpers (``_generator_map``,
``_slot_matrices``, ``_prepare_samples``, ``controlled_target``) or a
``nogo`` scorer, so agreement with them is a real check.

Choi convention: unnormalized, output factor first, columns flattened
in C order; the Choi matrix of a CPTP map on dimension D has trace D.
"""

import numpy as np
from scipy.linalg import expm

from ctrlsim.nogo import CTRL_U, SWITCH, TASKS


def hermitian_from_params(vec, dim):
    """Real vector of length dim**2 to a Hermitian matrix.

    The first ``dim`` entries fill the diagonal; the next ``n`` fill the
    real parts and the last ``n`` the imaginary parts of the strict upper
    triangle, in ``np.triu_indices`` order (``n = dim (dim - 1) / 2``).
    Leading axes of ``vec`` are batch axes: ``(..., dim**2)`` gives
    ``(..., dim, dim)``.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1:] != (dim * dim,):
        raise ValueError(f"expected {dim * dim} parameters, got {vec.shape}")
    rows, cols = np.triu_indices(dim, k=1)
    n = rows.size
    h = np.zeros((*vec.shape[:-1], dim, dim), dtype=complex)
    h[..., range(dim), range(dim)] = vec[..., :dim]
    h[..., rows, cols] = vec[..., dim : dim + n] + 1j * vec[..., dim + n :]
    h[..., cols, rows] = vec[..., dim : dim + n] - 1j * vec[..., dim + n :]
    return h


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


def choi_of_unitary(u):
    """Rank-one Choi matrix ``|u>><<u|`` of a matrix; for a unitary, the
    Choi matrix of its channel."""
    v = np.reshape(u, -1)
    return np.outer(v, v.conj())


def target_unitary(kind, bindings):
    """The controlled target on (control, system): ``1 (+) U`` for
    ``ctrl_u`` and ``Ug Uf (+) Uf Ug`` for ``switch``."""
    if kind == CTRL_U:
        u = bindings["U"].entries
        first, second = np.eye(len(u)), u
    elif kind == SWITCH:
        uf, ug = bindings["Uf"].entries, bindings["Ug"].entries
        first, second = ug @ uf, uf @ ug
    else:
        raise ValueError(f"unknown kind {kind!r}")
    zero = np.zeros(first.shape)
    return np.block([[first, zero], [zero, second]])


def process_fidelity(choi, target):
    """Normalized Choi overlap ``<<T|J|T>> / D^2`` with a target unitary
    matrix ``T``: ``|Tr(T^dag K)|^2 / D^2`` summed over the Kraus terms
    ``K`` of the channel, 1 iff the channel is exactly ``T``'s."""
    v = np.reshape(target, -1)
    return float(np.real(v.conj() @ choi @ v)) / len(target) ** 2
