#!/usr/bin/env python3
# The trapped-ion route to controlling unknown pulses, traced pulse by
# pulse. Two ions share a vibrational mode; ion 1 holds the control
# qubit, ion 2 the data qubit. The control is parked in the mode, the
# branch that should not see the unknown pulse is hidden in auxiliary
# levels, the pulse fires, and everything is undone.

import numpy as np

from ctrlsim.hilbert import fidelity_pure, haar_unitary, random_unit_vector
from ctrlsim.ion import (
    TrapSpace,
    assert_ground_mode,
    ion_input,
    run_sequence,
    seq_ctrl_switch,
    seq_ctrl_u,
)

rng = np.random.default_rng(2)
space = TrapSpace(fock_cutoff=3)

alpha, beta = random_unit_vector(2, rng)
psi = random_unit_vector(2, rng)
u = haar_unitary(2, rng)

init = ion_input(space, (alpha, beta), psi)
print("initial state: (alpha|g> + beta|e>)_1 |psi>_2 |0>")
print("alpha, beta =", np.round([alpha, beta], 4))


def dominant_terms(state, limit=6):
    labels = []
    names = ("g", "e", "g'", "e'")
    order = np.argsort(-np.abs(state.amps))
    for idx in order[:limit]:
        amp = state.amps[idx]
        if abs(amp) < 1e-12:
            break
        i1, i2, n = state.space.occupation(idx)
        labels.append(f"({amp.real:+.3f}{amp.imag:+.3f}j)|{names[i1]}>|{names[i2]}>|{n}>")
    return "  ".join(labels)


seq = seq_ctrl_u()
final, trace = run_sequence(seq, init, {"U": u}, space=space)
print("\ncontrol of a single unknown pulse:")
for pulse, state in zip(seq.pulses, trace):
    print(f"  after {pulse!r:28}  {dominant_terms(state)}")

target = np.zeros(space.total_dim, dtype=complex)
up = u.entries @ psi
for lv2 in (0, 1):
    target[space.flat(0, lv2, 0)] = alpha * psi[lv2]
    target[space.flat(1, lv2, 0)] = beta * up[lv2]
from ctrlsim.hilbert import StateVector

print("final fidelity vs (alpha|g>|psi> + beta|e>U|psi>)|0>:",
      fidelity_pure(final, StateVector(space, target)))
print("vibrational mode back in the ground state:", assert_ground_mode(final))

# Order control: each unknown pulse is sent once and reflected back by
# a mirror, so it interacts twice. The sigma-x exchanges between the
# interactions swap which branch is exposed, producing both orders.
seq2 = seq_ctrl_switch()
uf, ug = haar_unitary(2, rng), haar_unitary(2, rng)
final2, _ = run_sequence(seq2, init, {"Uf": uf, "Ug": ug}, space=space)
print("\norder control slot accounting:", seq2.slot_info())

target2 = np.zeros(space.total_dim, dtype=complex)
gf = ug.entries @ uf.entries @ psi
ge = uf.entries @ ug.entries @ psi
for lv2 in (0, 1):
    target2[space.flat(0, lv2, 0)] = alpha * gf[lv2]
    target2[space.flat(1, lv2, 0)] = beta * ge[lv2]
print("final fidelity vs (alpha|g>UgUf|psi> + beta|e>UfUg|psi>)|0>:",
      fidelity_pure(final2, StateVector(space, target2)))
