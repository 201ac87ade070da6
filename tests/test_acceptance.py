"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live).  Tolerances are fixed here and match the library contracts;
the two search-based criteria are the slow ones (the full falsification
run is budgeted at ten minutes and typically finishes in two).
"""

import time
from collections import Counter

import numpy as np

from ctrlsim import ion, nogo, photonic
from ctrlsim.hilbert import (
    Operator,
    StateVector,
    _unitary_deviation,
    fidelity_mixed,
    fidelity_pure,
    haar_unitary,
    random_unit_vector,
)
from reference import choi_oracle

G, E = ion.G, ion.E


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _random_control(rng):
    return random_unit_vector(2, rng)


def test_criterion_1_photonic_ctrl_u():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 1.0
    nets = {d: photonic.preset_ctrl_u(d) for d in (2, 3)}
    for k in range(100):
        d = 2 if k % 2 == 0 else 3
        net = nets[d]
        u = haar_unitary(d, rng)
        alpha, beta = _random_control(rng)
        psi = random_unit_vector(d, rng)
        inp = photonic.photon_input(net.space, net.input_path, (alpha, beta), psi)
        out = photonic.propagate(net, inp, {"U": u})
        block = np.concatenate([alpha * psi, beta * (u.entries @ psi)])
        want = photonic.place_on_path(net.space, net.output_path, block)
        worst = min(worst, fidelity_pure(out.state, want))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst >= 1 - 1e-10 and elapsed < 5.0,
        f"photonic ctrl-U, 100 instances, min fidelity {worst:.3e} in {elapsed:.2f}s",
    )


def test_criterion_2_photonic_ctrl_switch():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 1.0
    nets = {d: photonic.preset_ctrl_switch(d) for d in (2, 3)}
    for k in range(100):
        d = 2 if k % 2 == 0 else 3
        net = nets[d]
        uf, ug = haar_unitary(d, rng), haar_unitary(d, rng)
        alpha, beta = _random_control(rng)
        psi = random_unit_vector(d, rng)
        inp = photonic.photon_input(net.space, net.input_path, (alpha, beta), psi)
        out = photonic.propagate(net, inp, {"Uf": uf, "Ug": ug})
        block = np.concatenate(
            [alpha * (ug.entries @ uf.entries @ psi), beta * (uf.entries @ ug.entries @ psi)]
        )
        want = photonic.place_on_path(net.space, net.output_path, block)
        worst = min(worst, fidelity_pure(out.state, want))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst >= 1 - 1e-10 and elapsed < 5.0,
        f"photonic ctrl-switch, 100 instances, min fidelity {worst:.3e} in {elapsed:.2f}s",
    )


def _ion_step_targets(space, alpha, beta, a, b, u_entries):
    """Exact kets after each protocol step (hidden branch at n = 0)."""

    def lvl(idx):
        v = np.zeros(4, dtype=complex)
        v[idx] = 1.0
        return v

    def qb(x, y, primed=False):
        v = np.zeros(4, dtype=complex)
        off = 2 if primed else 0
        v[G + off], v[E + off] = x, y
        return v

    def md(n):
        v = np.zeros(space.fock_cutoff, dtype=complex)
        v[n] = 1.0
        return v

    ua, ub = u_entries @ np.array([a, b])
    hidden = alpha * np.kron(qb(a, b, primed=True), md(0))
    after_swap = np.kron(
        np.kron(lvl(E), qb(a, b)), alpha * md(1) + beta * md(0)
    )
    after_hiding = np.kron(lvl(E), hidden + beta * np.kron(qb(a, b), md(0)))
    after_carrier = np.kron(lvl(E), hidden + beta * np.kron(qb(ua, ub), md(0)))
    after_unhiding = np.kron(
        lvl(E), alpha * np.kron(qb(a, b), md(1)) + beta * np.kron(qb(ua, ub), md(0))
    )
    final = alpha * np.kron(np.kron(lvl(G), qb(a, b)), md(0)) + beta * np.kron(
        np.kron(lvl(E), qb(ua, ub)), md(0)
    )
    return {
        0: StateVector(space, after_swap),
        2: StateVector(space, after_hiding),
        3: StateVector(space, after_carrier),
        5: StateVector(space, after_unhiding),
        6: StateVector(space, final),
    }


def test_criterion_3_ion_ctrl_u_with_intermediate_kets():
    rng = np.random.default_rng(103)
    space = ion.TrapSpace(fock_cutoff=3)
    seq = ion.seq_ctrl_u()
    start = time.perf_counter()
    worst = 1.0
    ground_ok = True
    for _ in range(100):
        u = haar_unitary(2, rng)
        alpha, beta = _random_control(rng)
        a, b = random_unit_vector(2, rng)
        init = ion.ion_input(space, (alpha, beta), (a, b))
        final, trace = ion.run_sequence(seq, init, {"U": u}, space=space)
        targets = _ion_step_targets(space, alpha, beta, a, b, u.entries)
        for step, want in targets.items():
            worst = min(worst, fidelity_pure(trace[step], want))
        ground_ok = ground_ok and ion.assert_ground_mode(final)
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst >= 1 - 1e-10 and ground_ok and elapsed < 5.0,
        "ion ctrl-U, 100 instances, all step kets, "
        f"min fidelity {worst:.3e}, ground mode ok={ground_ok}, {elapsed:.2f}s",
    )


def test_criterion_4_ion_ctrl_switch():
    rng = np.random.default_rng(104)
    space = ion.TrapSpace(fock_cutoff=3)
    seq = ion.seq_ctrl_switch()
    start = time.perf_counter()
    worst = 1.0
    for _ in range(100):
        uf, ug = haar_unitary(2, rng), haar_unitary(2, rng)
        alpha, beta = _random_control(rng)
        psi = random_unit_vector(2, rng)
        init = ion.ion_input(space, (alpha, beta), psi)
        final, _ = ion.run_sequence(seq, init, {"Uf": uf, "Ug": ug}, space=space)
        gf = ug.entries @ uf.entries @ psi
        ge = uf.entries @ ug.entries @ psi
        amps = np.zeros(space.total_dim, dtype=complex)
        for lv2 in (G, E):
            amps[space.flat(G, lv2, 0)] = alpha * gf[lv2]
            amps[space.flat(E, lv2, 0)] = beta * ge[lv2]
        worst = min(worst, fidelity_pure(final, StateVector(space, amps)))
    elapsed = time.perf_counter() - start
    info = seq.slot_info()
    single_use = all(entry["pulses_sent"] == 1 for entry in info.values())
    _report(
        4,
        worst >= 1 - 1e-10 and single_use and elapsed < 5.0,
        f"ion ctrl-switch, 100 instances, min fidelity {worst:.3e}, "
        f"slot info {info}, {elapsed:.2f}s",
    )


def test_criterion_5_monitored_device():
    rng = np.random.default_rng(105)
    net = photonic.preset_ctrl_u_monitored(2)
    u = haar_unitary(2, rng)
    psi = random_unit_vector(2, rng)

    def mixed_fidelity(alpha, beta):
        inp = photonic.photon_input(net.space, "u", (alpha, beta), psi)
        out = photonic.propagate(net, inp, {"U": u})
        target = photonic.place_on_path(
            net.space, "u", np.concatenate([alpha * psi, beta * (u.entries @ psi)])
        )
        return fidelity_mixed(out.rho, target)

    r = 1 / np.sqrt(2)
    balanced_ok = abs(mixed_fidelity(r, r) - 0.5) <= 1e-10

    grid_ok = True
    worst_dev = 0.0
    for alpha in np.linspace(0.0, 1.0, 11):
        beta = np.sqrt(max(0.0, 1.0 - alpha**2))
        dev = abs(mixed_fidelity(alpha, beta) - (alpha**4 + beta**4))
        worst_dev = max(worst_dev, dev)
        grid_ok = grid_ok and dev <= 1e-10

    alpha, beta = 0.6, 0.8
    inp = photonic.photon_input(net.space, "u", (alpha, beta), psi)
    out = photonic.propagate(net, inp, {"U": u})
    shots = photonic.sample(out, 100_000, np.random.default_rng(55))
    counts = Counter(b.outcomes[0] for b in shots)
    f0, f1 = counts[0] / 100_000, counts[1] / 100_000
    freq_ok = abs(f0 - alpha**2) < 0.01 and abs(f1 - beta**2) < 0.01

    _report(
        5,
        balanced_ok and grid_ok and freq_ok,
        f"monitored device: balanced fidelity ok={balanced_ok}, grid max dev {worst_dev:.2e}, "
        f"sampled rates ({f0:.4f}, {f1:.4f}) vs (0.36, 0.64)",
    )


def test_criterion_6_two_photon_product():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        u = haar_unitary(2, rng)
        op = photonic.two_photon_product(photonic.Device("l", "U"), u)
        dev = float(np.max(np.abs(op.entries - np.kron(np.eye(2), u.entries))))
        worst = max(worst, dev)
    _report(6, worst <= 1e-12, f"two-photon product, 20 samples, max deviation {worst:.2e}")


def test_criterion_7_network_block_equals_direct_sum():
    rng = np.random.default_rng(107)
    worst = 0.0
    for d in (2, 3):
        net = photonic.preset_ctrl_u(d)
        for _ in range(10):
            u = haar_unitary(d, rng)
            total = photonic.network_unitary(net, {"U": u}).entries
            sl = net.space.path_slice(net.input_path)
            want = np.eye(2 * d, dtype=complex)
            want[d:, d:] = u.entries
            worst = max(worst, float(np.max(np.abs(total[sl, sl] - want))))
    _report(
        7,
        worst <= 1e-10,
        f"input-path block of the network unitary is identity (+) U, max deviation {worst:.2e}",
    )


def test_criterion_8_nogo_falsification():
    start = time.perf_counter()
    config = nogo.SearchConfig(
        restarts=20, max_iters=1500, sample_count=16, seed=42, system_dim=2, ancilla_dim=2
    )
    best = {}
    for kind in (nogo.CTRL_U, nogo.SWITCH):
        best[kind] = nogo.optimize(kind, config).best_worst_case_fidelity
    sanity = nogo.oracle_sanity(sample_count=32, internal_dim=2, seed=42)
    control_cfg = nogo.SearchConfig(
        restarts=2, max_iters=300, sample_count=1, seed=42, system_dim=2, ancilla_dim=2
    )
    control = nogo.optimize(
        nogo.CTRL_U, control_cfg, samples=({"U": Operator(np.eye(2))},)
    ).best_worst_case_fidelity
    elapsed = time.perf_counter() - start
    ok = (
        best[nogo.CTRL_U] < 0.999
        and best[nogo.SWITCH] < 0.999
        and sanity >= 1 - 1e-10
        and control >= 1 - 1e-6
        and elapsed < 600.0
    )
    _report(
        8,
        ok,
        f"search best ctrl-u {best[nogo.CTRL_U]:.4f} < 0.999, "
        f"switch {best[nogo.SWITCH]:.4f} < 0.999, oracle sanity {sanity:.12f}, "
        f"known-oracle control {control:.8f}, {elapsed:.0f}s",
    )


def test_criterion_9_invariants_and_determinism():
    rng = np.random.default_rng(109)
    problems = []

    # unitarity and norm conservation
    space = photonic.PhotonicSpace(("u", "l"), 3)
    bindings = {"U": haar_unitary(3, rng)}
    for e in (
        photonic.PBS(("u", "l"), ("u", "l")),
        photonic.HWP("u"),
        photonic.Device("l", "U"),
        photonic.Reroute({"u": "l", "l": "u"}),
    ):
        if not _unitary_deviation(photonic.element_unitary(e, space, bindings).entries) <= 1e-10:
            problems.append(f"element {e} not unitary")
    for _ in range(20):
        psi = StateVector(space, random_unit_vector(space.total_dim, rng))
        evolved = photonic.element_unitary(
            photonic.Device("l", "U"), space, bindings
        ).entries @ psi.amps
        if abs(np.linalg.norm(evolved) - 1) > 1e-10:
            problems.append("norm not conserved")

    # Choi CPTP checks at 1e-8
    for kind in (nogo.CTRL_U, nogo.SWITCH):
        n = nogo.param_count(kind, 2, 2)
        x = rng.normal(size=n)
        (sample,) = nogo.draw_samples(kind, 2, 1, rng)
        choi = choi_oracle(kind, 2, 2, x, sample)
        if np.max(np.abs(choi - choi.conj().T)) > 1e-8:
            problems.append(f"{kind} Choi not Hermitian")
        if float(np.min(np.linalg.eigvalsh(choi))) < -1e-8:
            problems.append(f"{kind} Choi not PSD")
        if abs(np.trace(choi).real - 4) > 1e-8:
            problems.append(f"{kind} Choi trace off")

    # pulse involutions at 1e-12
    trap = ion.TrapSpace(fock_cutoff=3)
    for p in (
        ion.SidebandSwap(1),
        ion.Hiding(2, "H1"),
        ion.Hiding(2, "H2"),
        ion.SigmaX(2, "Sg"),
        ion.SigmaX(2, "Se"),
    ):
        m = ion.pulse_unitary(p, trap).entries
        if np.max(np.abs(m @ m - np.eye(trap.total_dim))) > 1e-12:
            problems.append(f"pulse {p} not an involution")

    # Fock leakage at the top level stays zero through both protocols
    init = ion.ion_input(trap, random_unit_vector(2, rng), random_unit_vector(2, rng))
    all_bindings = {
        "U": haar_unitary(2, rng),
        "Uf": haar_unitary(2, rng),
        "Ug": haar_unitary(2, rng),
    }
    for seq in (ion.seq_ctrl_u(), ion.seq_ctrl_switch()):
        _, trace = ion.run_sequence(seq, init, all_bindings, space=trap)
        for state in trace:
            if state.population("mode", trap.fock_cutoff - 1) > 1e-12:
                problems.append("top Fock level populated")

    # determinism: byte-identical reports under identical seeds
    cfg = nogo.SearchConfig(restarts=2, max_iters=40, sample_count=2, seed=9)
    if nogo.optimize(nogo.CTRL_U, cfg).to_json() != nogo.optimize(nogo.CTRL_U, cfg).to_json():
        problems.append("search report not reproducible")

    _report(
        9,
        not problems,
        "invariants: unitarity, norm, Choi CPTP, involutions, Fock leakage, determinism"
        + (f"; problems: {problems}" if problems else ""),
    )
