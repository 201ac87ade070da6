from collections import Counter

import numpy as np
import pytest

from ctrlsim.hilbert import (
    Operator,
    _unitary_deviation,
    fidelity_mixed,
    fidelity_pure,
    haar_unitary,
    partial_trace,
    random_unit_vector,
)
from ctrlsim.photonic import (
    HWP,
    PBS,
    Device,
    MixedOutcome,
    MonitoredDevice,
    Network,
    PhotonicSpace,
    PureOutcome,
    Reroute,
    element_unitary,
    network_unitary,
    photon_input,
    place_on_path,
    preset_ctrl_switch,
    preset_ctrl_u,
    preset_ctrl_u_monitored,
    propagate,
    sample,
    two_photon_product,
    two_photon_space,
)

H, V = 0, 1
X = np.array([[0, 1], [1, 0]], dtype=complex)


def basis_photon(space, path, pol, internal):
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.flat(path, pol, internal)] = 1.0
    from ctrlsim.hilbert import StateVector

    return StateVector(space, amps)


class TestElements:
    def test_pbs_transmits_horizontal(self):
        space = PhotonicSpace(("a", "b"), 2)
        u = element_unitary(PBS(("a", "b"), ("a", "b")), space).entries
        src = space.flat("a", H, 0)
        assert u[src, src] == 1.0

    def test_pbs_reflects_vertical(self):
        space = PhotonicSpace(("a", "b"), 2)
        u = element_unitary(PBS(("a", "b"), ("a", "b")), space).entries
        assert u[space.flat("b", V, 1), space.flat("a", V, 1)] == 1.0
        assert u[space.flat("a", V, 1), space.flat("a", V, 1)] == 0.0

    def test_pbs_four_port_routing(self):
        space = PhotonicSpace(("a", "b", "c", "d"), 1)
        u = element_unitary(PBS(("a", "b"), ("c", "d")), space).entries
        assert u[space.flat("c", H, 0), space.flat("a", H, 0)] == 1.0
        assert u[space.flat("d", H, 0), space.flat("b", H, 0)] == 1.0
        assert u[space.flat("d", V, 0), space.flat("a", V, 0)] == 1.0
        assert u[space.flat("c", V, 0), space.flat("b", V, 0)] == 1.0

    def test_pbs_inconsistent_ports_rejected(self):
        space = PhotonicSpace(("a", "b", "c"), 1)
        with pytest.raises(ValueError):
            element_unitary(PBS(("a", "b"), ("b", "c")), space)

    def test_hwp_exchanges_polarizations_leaving_internal_alone(self):
        rng = np.random.default_rng(0)
        space = PhotonicSpace(("u", "l"), 3)
        psi = random_unit_vector(3, rng)
        state = place_on_path(space, "u", np.concatenate([np.zeros(3), psi]))
        out = element_unitary(HWP("u"), space).entries @ state.amps
        want = place_on_path(space, "u", np.concatenate([psi, np.zeros(3)]))
        assert np.max(np.abs(out - want.amps)) < 1e-12

    def test_hwp_identity_on_other_path(self):
        space = PhotonicSpace(("u", "l"), 2)
        u = element_unitary(HWP("u"), space).entries
        sl = space.path_slice("l")
        assert np.array_equal(u[sl, sl], np.eye(4))

    def test_device_identity_binding_is_identity(self):
        space = PhotonicSpace(("u", "l"), 3)
        u = element_unitary(Device("l", "U"), space, {"U": Operator(np.eye(3))})
        assert np.array_equal(u.entries, np.eye(space.total_dim))

    def test_device_acts_only_on_its_path(self):
        rng = np.random.default_rng(1)
        space = PhotonicSpace(("u", "l"), 2)
        bound = haar_unitary(2, rng)
        u = element_unitary(Device("l", "U"), space, {"U": bound}).entries
        sl_u = space.path_slice("u")
        assert np.array_equal(u[sl_u, sl_u], np.eye(4))
        sl_l = space.path_slice("l")
        assert np.max(np.abs(u[sl_l, sl_l] - np.kron(np.eye(2), bound.entries))) < 1e-12

    def test_monitored_device_same_unitary_as_device(self):
        rng = np.random.default_rng(2)
        space = PhotonicSpace(("u", "l"), 2)
        bound = haar_unitary(2, rng)
        a = element_unitary(Device("l", "U"), space, {"U": bound}).entries
        b = element_unitary(MonitoredDevice("l", "U"), space, {"U": bound}).entries
        assert np.array_equal(a, b)

    def test_device_binding_errors(self):
        space = PhotonicSpace(("u", "l"), 2)
        with pytest.raises(KeyError):
            element_unitary(Device("l", "U"), space, {})
        with pytest.raises(ValueError):
            element_unitary(Device("l", "U"), space, {"U": Operator(np.eye(3))})

    def test_reroute_permutes_paths(self):
        space = PhotonicSpace(("f", "g"), 2)
        u = element_unitary(Reroute({"f": "g", "g": "f"}), space).entries
        assert u[space.flat("g", V, 1), space.flat("f", V, 1)] == 1.0

    def test_reroute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Reroute({"f": "g"})

    def test_all_element_unitaries_pass_unitarity(self):
        rng = np.random.default_rng(3)
        space = PhotonicSpace(("u", "l"), 3)
        elements = [
            PBS(("u", "l"), ("u", "l")),
            HWP("u"),
            Device("l", "U"),
            MonitoredDevice("l", "U"),
            Reroute({"u": "l", "l": "u"}),
        ]
        bindings = {"U": haar_unitary(3, rng)}
        for e in elements:
            assert _unitary_deviation(element_unitary(e, space, bindings).entries) <= 1e-10


class TestNetworkValidation:
    def test_repeated_slot_on_distinct_devices_rejected(self):
        space = PhotonicSpace(("u", "l"), 2)
        with pytest.raises(ValueError):
            Network(space, (Device("u", "U"), Device("l", "U")), "u", "u")

    def test_same_device_twice_is_one_insertion(self):
        space = PhotonicSpace(("u", "l"), 2)
        dev = Device("l", "U")
        net = Network(space, (dev, dev), "u", "u")
        assert net.slots == {"U": 2}
        assert net.slot_info() == {"U": {"devices": 1, "traversals": 2}}

    def test_dangling_port_rejected(self):
        space = PhotonicSpace(("u", "l"), 2)
        with pytest.raises(ValueError):
            Network(space, (HWP("w"),), "u", "u")

    def test_unknown_io_path_rejected(self):
        space = PhotonicSpace(("u", "l"), 2)
        with pytest.raises(KeyError):
            Network(space, (), "w", "u")

    def test_missing_binding_rejected(self):
        net = preset_ctrl_u(2)
        inp = photon_input(net.space, "u", (1, 0), [1, 0])
        with pytest.raises(KeyError):
            propagate(net, inp, {})


class TestCtrlUPreset:
    def test_single_slot(self):
        net = preset_ctrl_u(2)
        assert net.slots == {"U": 1}

    @pytest.mark.parametrize("d", [2, 3])
    def test_output_formula_random_instances(self, d):
        rng = np.random.default_rng(20 + d)
        net = preset_ctrl_u(d)
        for _ in range(25):
            u = haar_unitary(d, rng)
            alpha, beta = random_unit_vector(2, rng)
            psi = random_unit_vector(d, rng)
            inp = photon_input(net.space, net.input_path, (alpha, beta), psi)
            out = propagate(net, inp, {"U": u})
            assert isinstance(out, PureOutcome)
            block = np.concatenate([alpha * psi, beta * (u.entries @ psi)])
            want = place_on_path(net.space, net.output_path, block)
            assert fidelity_pure(out.state, want) >= 1 - 1e-10

    def test_identity_binding_returns_input(self):
        rng = np.random.default_rng(21)
        net = preset_ctrl_u(2)
        alpha, beta = random_unit_vector(2, rng)
        psi = random_unit_vector(2, rng)
        inp = photon_input(net.space, "u", (alpha, beta), psi)
        out = propagate(net, inp, {"U": Operator(np.eye(2))})
        assert np.max(np.abs(out.state.amps - inp.amps)) < 1e-12

    def test_classical_control_never_reaches_device(self):
        rng = np.random.default_rng(22)
        net = preset_ctrl_u(2)
        psi = random_unit_vector(2, rng)
        inp = photon_input(net.space, "u", (1, 0), psi)
        out = propagate(net, inp, {"U": haar_unitary(2, rng)})
        want = place_on_path(net.space, "u", np.concatenate([psi, np.zeros(2)]))
        assert fidelity_pure(out.state, want) >= 1 - 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_restricted_network_unitary_is_direct_sum(self, d):
        # the network as a whole realizes identity (+) U on the
        # (pol, internal) block of the input path
        rng = np.random.default_rng(23)
        net = preset_ctrl_u(d)
        u = haar_unitary(d, rng)
        total = network_unitary(net, {"U": u}).entries
        sl = net.space.path_slice("u")
        block = total[sl, sl]
        want = np.eye(2 * d, dtype=complex)
        want[d:, d:] = u.entries
        assert np.max(np.abs(block - want)) < 1e-10


class TestCtrlSwitchPreset:
    def test_each_slot_single_device_two_traversals(self):
        net = preset_ctrl_switch(2)
        assert net.slot_info() == {
            "Uf": {"devices": 1, "traversals": 2},
            "Ug": {"devices": 1, "traversals": 2},
        }

    def test_identity_bindings_return_input_up_to_relabeling(self):
        rng = np.random.default_rng(24)
        net = preset_ctrl_switch(2)
        alpha, beta = random_unit_vector(2, rng)
        psi = random_unit_vector(2, rng)
        inp = photon_input(net.space, net.input_path, (alpha, beta), psi)
        eye = Operator(np.eye(2))
        out = propagate(net, inp, {"Uf": eye, "Ug": eye})
        in_block = inp.amps[net.space.path_slice(net.input_path)]
        out_block = out.state.amps[net.space.path_slice(net.output_path)]
        assert np.max(np.abs(in_block - out_block)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_output_formula_random_instances(self, d):
        rng = np.random.default_rng(25 + d)
        net = preset_ctrl_switch(d)
        for _ in range(25):
            uf, ug = haar_unitary(d, rng), haar_unitary(d, rng)
            alpha, beta = random_unit_vector(2, rng)
            psi = random_unit_vector(d, rng)
            inp = photon_input(net.space, net.input_path, (alpha, beta), psi)
            out = propagate(net, inp, {"Uf": uf, "Ug": ug})
            block = np.concatenate(
                [
                    alpha * (ug.entries @ uf.entries @ psi),
                    beta * (uf.entries @ ug.entries @ psi),
                ]
            )
            want = place_on_path(net.space, net.output_path, block)
            assert fidelity_pure(out.state, want) >= 1 - 1e-10

    def test_commuting_devices_factorize_control(self):
        rng = np.random.default_rng(26)
        net = preset_ctrl_switch(2)
        uf = Operator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))))
        ug = Operator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))))
        alpha, beta = random_unit_vector(2, rng)
        psi = random_unit_vector(2, rng)
        inp = photon_input(net.space, net.input_path, (alpha, beta), psi)
        out = propagate(net, inp, {"Uf": uf, "Ug": ug})
        pol = partial_trace(out.state.outer(), {"pol"})
        assert abs(pol.purity() - 1) < 1e-10


class TestMonitoredPropagation:
    def test_mixed_fidelity_drops_to_incoherent_value(self):
        rng = np.random.default_rng(27)
        net = preset_ctrl_u_monitored(2)
        u = haar_unitary(2, rng)
        a = b = 1 / np.sqrt(2)
        psi = random_unit_vector(2, rng)
        inp = photon_input(net.space, "u", (a, b), psi)
        out = propagate(net, inp, {"U": u})
        assert isinstance(out, MixedOutcome)
        target = place_on_path(
            net.space, "u", np.concatenate([a * psi, b * (u.entries @ psi)])
        )
        assert abs(fidelity_mixed(out.rho, target) - 0.5) < 1e-10

    def test_branch_probabilities_and_ensemble_consistency(self):
        rng = np.random.default_rng(28)
        net = preset_ctrl_u_monitored(2)
        u = haar_unitary(2, rng)
        a, b = 0.6, 0.8
        psi = random_unit_vector(2, rng)
        inp = photon_input(net.space, "u", (a, b), psi)
        mixed = propagate(net, inp, {"U": u})
        probs = {br.outcomes[0]: br.probability for br in mixed.branches}
        assert abs(probs[0] - a**2) < 1e-12
        assert abs(probs[1] - b**2) < 1e-12

        # collect both sampled post-states and rebuild the ensemble
        post = {}
        seed = 0
        while len(post) < 2:
            (s,) = sample(mixed, 1, np.random.default_rng(seed))
            post[s.outcomes] = (s.probability, s.state)
            seed += 1
        rebuilt = sum(
            p * np.outer(state.amps, state.amps.conj()) for p, state in post.values()
        )
        assert np.max(np.abs(rebuilt - mixed.rho.entries)) < 1e-10

    def test_sampled_mode_deterministic_under_seed(self):
        rng = np.random.default_rng(29)
        net = preset_ctrl_u_monitored(2)
        u = haar_unitary(2, rng)
        inp = photon_input(net.space, "u", random_unit_vector(2, rng), random_unit_vector(2, rng))
        (a,) = sample(propagate(net, inp, {"U": u}), 1, np.random.default_rng(123))
        (b,) = sample(propagate(net, inp, {"U": u}), 1, np.random.default_rng(123))
        assert a.outcomes == b.outcomes
        assert a.probability == b.probability
        assert np.array_equal(a.state.amps, b.state.amps)

    def test_degenerate_amplitude_keeps_single_branch(self):
        rng = np.random.default_rng(30)
        net = preset_ctrl_u_monitored(2)
        inp = photon_input(net.space, "u", (0, 1), random_unit_vector(2, rng))
        out = propagate(net, inp, {"U": haar_unitary(2, rng)})
        assert isinstance(out, MixedOutcome)
        assert len(out.branches) == 1
        assert out.branches[0].outcomes == (1,)

    def test_sample_outcomes_counts(self):
        rng = np.random.default_rng(31)
        net = preset_ctrl_u_monitored(2)
        inp = photon_input(net.space, "u", (0.6, 0.8), random_unit_vector(2, rng))
        out = propagate(net, inp, {"U": haar_unitary(2, rng)})
        counts = Counter(b.outcomes[0] for b in sample(out, 10_000, rng))
        assert counts[0] + counts[1] == 10_000
        assert abs(counts[0] / 10_000 - 0.36) < 0.02

    def test_sample_outcomes_needs_monitor(self):
        rng = np.random.default_rng(32)
        net = preset_ctrl_u(2)
        inp = photon_input(net.space, "u", (1, 0), [1, 0])
        out = propagate(net, inp, {"U": haar_unitary(2, rng)})
        with pytest.raises(ValueError):
            sample(out, 10, rng)

    def test_network_unitary_refuses_monitor(self):
        net = preset_ctrl_u_monitored(2)
        with pytest.raises(ValueError):
            network_unitary(net, {"U": Operator(np.eye(2))})


class TestTwoPhotonProduct:
    def test_identity_device(self):
        out = two_photon_product(Device("l", "U"), Operator(np.eye(2)))
        assert np.array_equal(out.entries, np.eye(4))

    def test_sigma_x_on_lower_photon(self):
        out = two_photon_product(Device("l", "U"), Operator(X))
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        got = out.entries @ np.kron(e0, e0)
        assert np.max(np.abs(got - np.kron(e0, e1))) < 1e-12

    def test_haar_marginals(self):
        rng = np.random.default_rng(33)
        u = haar_unitary(3, rng)
        op = two_photon_product(Device("l", "U"), u)
        space = two_photon_space(3)
        psi_u = random_unit_vector(3, rng)
        psi_l = random_unit_vector(3, rng)
        from ctrlsim.hilbert import StateVector

        joint = StateVector(space, op.entries @ np.kron(psi_u, psi_l))
        upper = partial_trace(joint.outer(), {"upper"})
        lower = partial_trace(joint.outer(), {"lower"})
        assert np.max(np.abs(upper.entries - np.outer(psi_u, psi_u.conj()))) < 1e-12
        want_lower = u.entries @ np.outer(psi_l, psi_l.conj()) @ u.entries.conj().T
        assert np.max(np.abs(lower.entries - want_lower)) < 1e-12

    def test_entrywise_kronecker_agreement(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            u = haar_unitary(2, rng)
            out = two_photon_product(Device("l", "U"), u)
            assert np.max(np.abs(out.entries - np.kron(np.eye(2), u.entries))) <= 1e-12

    def test_paths_must_differ(self):
        with pytest.raises(ValueError):
            two_photon_product(Device("u", "U"), Operator(np.eye(2)))


class TestSerialization:
    @pytest.mark.parametrize(
        "preset", [preset_ctrl_u, preset_ctrl_u_monitored, preset_ctrl_switch]
    )
    def test_round_trip_bit_identical(self, preset):
        net = preset(3)
        text = net.to_json()
        again = Network.from_json(text)
        assert again.to_json() == text
        assert again == net

    def test_round_trip_preserves_propagation(self):
        rng = np.random.default_rng(35)
        net = preset_ctrl_switch(2)
        again = Network.from_json(net.to_json())
        uf, ug = haar_unitary(2, rng), haar_unitary(2, rng)
        inp = photon_input(net.space, net.input_path, (0.6, 0.8), random_unit_vector(2, rng))
        a = propagate(net, inp, {"Uf": uf, "Ug": ug})
        b = propagate(again, inp, {"Uf": uf, "Ug": ug})
        assert np.array_equal(a.state.amps, b.state.amps)

    def test_unknown_element_type_rejected(self):
        net = preset_ctrl_u(2)
        data = net.to_json_dict()
        data["stages"][0]["type"] = "mystery"
        with pytest.raises(ValueError):
            Network.from_json_dict(data)
