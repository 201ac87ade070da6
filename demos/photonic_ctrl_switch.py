#!/usr/bin/env python3
# Controlling the ORDER of two unknown devices with one photon.
#
# Each device is inserted exactly once. The H component traverses
# device f first and device g second; the V component takes the
# opposite order. A mirror swap between the two passes exchanges the
# arms, so the same physical box serves both components at different
# times. (The half-wave plates on both arms, before and after the swap,
# cancel: the flip commutes with the devices and the swap.) The
# recombined output:
#   alpha |H> Ug Uf |psi> + beta |V> Uf Ug |psi>.

import numpy as np

from ctrlsim.hilbert import (
    Operator,
    fidelity_pure,
    haar_unitary,
    partial_trace,
    random_unit_vector,
)
from ctrlsim.photonic import photon_input, place_on_path, preset_ctrl_switch, propagate

rng = np.random.default_rng(1)
d = 2

net = preset_ctrl_switch(d)
print("stage list (note each device appears at two positions):")
for k, stage in enumerate(net.stages):
    print(f"  {k:2d}  {stage}")
print("slot accounting:", net.slot_info())

uf, ug = haar_unitary(d, rng), haar_unitary(d, rng)
alpha, beta = random_unit_vector(2, rng)
psi = random_unit_vector(d, rng)

inp = photon_input(net.space, net.input_path, (alpha, beta), psi)
out = propagate(net, inp, {"Uf": uf, "Ug": ug})

gf = ug.entries @ uf.entries @ psi   # order seen by the H component
ge = uf.entries @ ug.entries @ psi   # order seen by the V component
target = place_on_path(net.space, net.output_path, np.concatenate([alpha * gf, beta * ge]))
print("\nfidelity vs the order-controlled target:", fidelity_pure(out.state, target))

# When the devices commute the two orders agree, the control
# polarization stays unentangled and its reduced state is pure.
uf_c = Operator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d))))
ug_c = Operator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d))))
out_c = propagate(net, inp, {"Uf": uf_c, "Ug": ug_c})
pol = partial_trace(out_c.state.outer(), {"pol"})
print("commuting devices -> control purity:", round(pol.purity(), 12))
