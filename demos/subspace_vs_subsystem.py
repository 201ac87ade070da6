#!/usr/bin/env python3
# Why the interferometer is not a counterexample to anything: the
# difference between acting on a subSYSTEM (a tensor factor, the
# circuit-model wire) and acting on a subSPACE (a direct-sum block).
#
# The same 2x2 box U gives two different 4x4 operations depending on
# the context it is wired into:
#   wire semantics      1 x U   (both control values see U)
#   block semantics     1 (+) U (only the control-on block sees U)
# The interferometer physically builds the second one; a circuit with U
# wired onto a fixed system line can only build the first.

import numpy as np

from ctrlsim.hilbert import (
    DirectSumBlock,
    HilbertSpace,
    Operator,
    basis_state,
    haar_unitary,
    partial_trace,
    subspace_embed,
    subsystem_embed,
)
from ctrlsim.photonic import Device, two_photon_product, two_photon_space

rng = np.random.default_rng(4)
u = haar_unitary(2, rng)
space = HilbertSpace([("control", 2), ("system", 2)])

wire = subsystem_embed(u, space, "system")        # 1 x U
block = subspace_embed(u, DirectSumBlock([2, 3], 4))  # 1 (+) U

print("1 x U:\n", np.round(wire.entries, 3))
print("1 (+) U:\n", np.round(block.entries, 3))
print("equal?", np.allclose(wire.entries, block.entries))

# The block form is literally a controlled operation:
x = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
ctrl_x = subspace_embed(x, DirectSumBlock([2, 3], 4))
for c, s in [(0, 0), (0, 1), (1, 0), (1, 1)]:
    out = ctrl_x.entries @ basis_state(space, (c, s)).amps
    print(f"ctrl-x |{c}{s}> -> index {int(np.argmax(np.abs(out)))}")

# Two-photon sanity check of the wire semantics: send one photon down
# each arm of the device fragment and the joint action factorizes as
# 1 x U, exactly what the circuit model would assign to the box.
joint = two_photon_product(Device("l", "U"), u)
print("\ntwo photons through the fragment == 1 x U:",
      np.allclose(joint.entries, np.kron(np.eye(2), u.entries)))

# and the marginals behave like independent wires:
from ctrlsim.hilbert import StateVector

both_zero = basis_state(two_photon_space(2), (0, 0))
out_state = StateVector(two_photon_space(2), joint.entries @ both_zero.amps)
upper = partial_trace(out_state.outer(), {"upper"})
print("upper photon untouched:", np.allclose(upper.entries, [[1, 0], [0, 0]]))
