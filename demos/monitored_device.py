#!/usr/bin/env python3
# An adversarial device that enforces circuit-model behavior.
#
# If the device provider wraps the unknown unitary with a
# non-demolition measurement of photon presence, the measurement
# collapses the path superposition that the control trick relies on.
# The coherent target is then reached only with probability
# |alpha|^4 + |beta|^4: for a balanced control the fidelity drops from
# 1 to 1/2, and the output is the classical mixture of the branches.

from collections import Counter

import numpy as np

from ctrlsim.hilbert import fidelity_mixed, haar_unitary, random_unit_vector
from ctrlsim.photonic import (
    photon_input,
    place_on_path,
    preset_ctrl_u_monitored,
    propagate,
    sample,
)

rng = np.random.default_rng(3)
d = 2
net = preset_ctrl_u_monitored(d)
u = haar_unitary(d, rng)
psi = random_unit_vector(d, rng)

print(" alpha   beta    fidelity   |a|^4+|b|^4")
for alpha in np.linspace(0, 1, 11):
    beta = np.sqrt(1 - alpha**2)
    inp = photon_input(net.space, "u", (alpha, beta), psi)
    out = propagate(net, inp, {"U": u})
    target = place_on_path(
        net.space, "u", np.concatenate([alpha * psi, beta * (u.entries @ psi)])
    )
    f = fidelity_mixed(out.rho, target)
    print(f"  {alpha:.2f}   {beta:.2f}    {f:.6f}   {alpha**4 + beta**4:.6f}")

# The monitor is a projective measurement, so single shots exist too:
# outcome 1 means the photon was seen in the device arm.
alpha, beta = 0.6, 0.8
inp = photon_input(net.space, "u", (alpha, beta), psi)
out = propagate(net, inp, {"U": u})
counts = Counter(b.outcomes[0] for b in sample(out, 100_000, np.random.default_rng(0)))
print("\n100000 monitored shots with alpha=0.6, beta=0.8:")
print("  photon absent :", counts[0], " (Born:", alpha**2, ")")
print("  photon present:", counts[1], " (Born:", beta**2, ")")

for seed in range(3):
    (shot,) = sample(out, 1, np.random.default_rng(seed))
    print(f"  single shot, seed {seed}: outcome {shot.outcomes[0]}, p = {shot.probability:.4f}")
