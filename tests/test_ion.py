import numpy as np
import pytest

from ctrlsim.hilbert import (
    DirectSumBlock,
    Operator,
    StateVector,
    fidelity_pure,
    haar_unitary,
    is_unitary,
    partial_trace,
    random_unit_vector,
    subspace_embed,
)
from ctrlsim.ion import (
    Carrier,
    Hiding,
    PulseSequence,
    SidebandSwap,
    SigmaX,
    TrapSpace,
    assert_ground_mode,
    ion_input,
    pulse_unitary,
    run_sequence,
    seq_ctrl_switch,
    seq_ctrl_u,
)

G, E, GP, EP = 0, 1, 2, 3


def ket(space, ion1_amps, ion2_amps, mode_amps):
    """Assemble |ion1> x |ion2> x |mode> from per-factor amplitudes."""
    amps = np.kron(np.kron(ion1_amps, ion2_amps), mode_amps)
    return StateVector(space.hilbert, amps)


def level(index, primed=False):
    v = np.zeros(4, dtype=complex)
    v[index + (2 if primed else 0)] = 1.0
    return v


def qubit(a, b, primed=False):
    v = np.zeros(4, dtype=complex)
    off = 2 if primed else 0
    v[G + off], v[E + off] = a, b
    return v


def mode(space, n):
    v = np.zeros(space.fock_cutoff, dtype=complex)
    v[n] = 1.0
    return v


@pytest.fixture
def space():
    return TrapSpace(fock_cutoff=3)


class TestPulseUnitaries:
    def test_sideband_swap_moves_control_to_mode(self, space):
        rng = np.random.default_rng(0)
        alpha, beta = random_unit_vector(2, rng)
        a, b = random_unit_vector(2, rng)
        init = ion_input(space, (alpha, beta), (a, b))
        out = pulse_unitary(SidebandSwap(1), space).entries @ init.amps
        want = ket(
            space, level(E), qubit(a, b), alpha * mode(space, 1) + beta * mode(space, 0)
        )
        assert np.max(np.abs(out - want.amps)) < 1e-12

    def test_hiding_pulse_transfers_population(self, space):
        start = ket(space, level(G), level(G), mode(space, 1))
        out = pulse_unitary(Hiding(2, "H1"), space).entries @ start.amps
        want = ket(space, level(G), level(G, primed=True), mode(space, 0))
        assert np.max(np.abs(out - want.amps)) < 1e-12

    def test_carrier_acts_on_qubit_at_every_motional_level(self, space):
        u = haar_unitary(2, np.random.default_rng(1))
        # U on (g, e) and identity on (g', e'), at every motional level
        on_levels = np.eye(4, dtype=complex)
        on_levels[:2, :2] = u.entries
        eye_mode = np.eye(space.fock_cutoff)
        want = {
            1: np.kron(np.kron(on_levels, np.eye(4)), eye_mode),
            2: np.kron(np.kron(np.eye(4), on_levels), eye_mode),
        }
        for ion, full in want.items():
            carrier = pulse_unitary(Carrier(ion, "U"), space, {"U": u}).entries
            assert np.max(np.abs(carrier - full)) < 1e-12

    def test_carrier_identity_on_primed_levels(self, space):
        rng = np.random.default_rng(2)
        u = haar_unitary(2, rng)
        carrier = pulse_unitary(Carrier(2, "U"), space, {"U": u}).entries
        start = ket(
            space, level(E), qubit(*random_unit_vector(2, rng), primed=True), mode(space, 0)
        )
        assert np.max(np.abs(carrier @ start.amps - start.amps)) < 1e-12

    def test_carrier_binding_errors(self, space):
        with pytest.raises(KeyError):
            pulse_unitary(Carrier(2, "U"), space, {})
        with pytest.raises(ValueError):
            pulse_unitary(Carrier(2, "U"), space, {"U": Operator(np.eye(3))})

    def test_sigma_x_swaps_in_ground_block_only(self, space):
        sg = pulse_unitary(SigmaX(2, "Sg"), space).entries
        start = ket(space, level(E), level(G), mode(space, 0))
        want = ket(space, level(E), level(G, primed=True), mode(space, 0))
        assert np.max(np.abs(sg @ start.amps - want.amps)) < 1e-12
        excited = ket(space, level(E), level(G), mode(space, 1))
        assert np.max(np.abs(sg @ excited.amps - excited.amps)) < 1e-12

    def test_bad_pulse_arguments(self):
        with pytest.raises(ValueError):
            Hiding(2, "H3")
        with pytest.raises(ValueError):
            SigmaX(2, "Sx")
        with pytest.raises(ValueError):
            pulse_unitary(SidebandSwap(3), TrapSpace())

    def test_all_pulses_unitary(self, space):
        rng = np.random.default_rng(3)
        pulses = [
            SidebandSwap(1),
            SidebandSwap(2),
            Hiding(2, "H1"),
            Hiding(2, "H2"),
            SigmaX(2, "Sg"),
            SigmaX(2, "Se"),
            Carrier(2, "U"),
        ]
        bindings = {"U": haar_unitary(2, rng)}
        for p in pulses:
            assert is_unitary(pulse_unitary(p, space, bindings), 1e-12)

    def test_swap_pulses_are_involutions(self, space):
        for p in (
            SidebandSwap(1),
            Hiding(2, "H1"),
            Hiding(2, "H2"),
            SigmaX(2, "Sg"),
            SigmaX(2, "Se"),
        ):
            u = pulse_unitary(p, space).entries
            assert np.max(np.abs(u @ u - np.eye(space.total_dim))) < 1e-12

    def test_carrier_commutes_with_mode_and_primed_operators(self, space):
        # generators supported on the mode or on the primed levels only
        rng = np.random.default_rng(4)
        u = haar_unitary(2, rng)
        carrier = pulse_unitary(Carrier(2, "U"), space, {"U": u}).entries
        dim = space.total_dim

        def outer(i, j):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = 1.0
            return m

        generators = []
        # primed-level rotation of ion 2, inside n = 0 and inside n = 1
        for n in (0, 1):
            generators.append(
                outer(space.flat(G, GP, n), space.flat(G, EP, n))
                + outer(space.flat(G, EP, n), space.flat(G, GP, n))
            )
        # mode lowering operator on every electronic level
        lower = np.diag(np.sqrt(np.arange(1, space.fock_cutoff)), k=1)
        generators.append(np.kron(np.eye(16), lower))
        for g in generators:
            comm = carrier @ g - g @ carrier
            assert np.max(np.abs(comm)) < 1e-12
        # but not with the ion-2 qubit transition inside n = 1
        flip = outer(space.flat(E, G, 1), space.flat(E, E, 1))
        flip += flip.T
        assert np.max(np.abs(carrier @ flip - flip @ carrier)) > 0.1


class TestRunSequence:
    def test_empty_sequence(self, space):
        rng = np.random.default_rng(5)
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        final, trace = run_sequence(PulseSequence([]), init, {})
        assert final is init
        assert trace == []

    def test_double_sideband_is_identity_on_qubit_span(self, space):
        # span{|g>_1 |0>, |e>_1 |1>} x ion-2 states
        rng = np.random.default_rng(6)
        c0, c1 = random_unit_vector(2, rng)
        psi2 = random_unit_vector(4, rng)
        amps = np.zeros(space.total_dim, dtype=complex)
        for lv2 in range(4):
            amps[space.flat(G, lv2, 0)] = c0 * psi2[lv2]
            amps[space.flat(E, lv2, 1)] = c1 * psi2[lv2]
        init = StateVector(space.hilbert, amps)
        seq = PulseSequence([SidebandSwap(1), SidebandSwap(1)])
        final, _ = run_sequence(seq, init, {})
        assert np.max(np.abs(final.amps - init.amps)) < 1e-12

    def test_final_norm(self, space):
        rng = np.random.default_rng(7)
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        final, _ = run_sequence(seq_ctrl_u(), init, {"U": haar_unitary(2, rng)})
        assert abs(np.linalg.norm(final.amps) - 1) < 1e-10


class TestCtrlUSequence:
    def test_slot_metadata(self):
        assert seq_ctrl_u().slot_info() == {"U": {"pulses_sent": 1, "interactions": 1}}

    def test_intermediate_kets(self, space):
        # hidden branch sits at |0> with primed levels mid-protocol;
        # the literal hiding transitions fix the vibrational number
        rng = np.random.default_rng(8)
        alpha, beta = random_unit_vector(2, rng)
        a, b = random_unit_vector(2, rng)
        u = haar_unitary(2, rng)
        ua, ub = u.entries @ np.array([a, b])

        init = ion_input(space, (alpha, beta), (a, b))
        _, trace = run_sequence(seq_ctrl_u(), init, {"U": u})

        after_swap = ket(
            space, level(E), qubit(a, b), alpha * mode(space, 1) + beta * mode(space, 0)
        )
        hidden = alpha * np.kron(qubit(a, b, primed=True), mode(space, 0))
        active = beta * np.kron(qubit(a, b), mode(space, 0))
        after_hiding = StateVector(space.hilbert, np.kron(level(E), hidden + active))
        acted = beta * np.kron(qubit(ua, ub), mode(space, 0))
        after_carrier = StateVector(space.hilbert, np.kron(level(E), hidden + acted))
        unhidden = alpha * np.kron(qubit(a, b), mode(space, 1))
        after_unhiding = StateVector(space.hilbert, np.kron(level(E), unhidden + acted))
        final = StateVector(
            space.hilbert,
            alpha * np.kron(np.kron(level(G), qubit(a, b)), mode(space, 0))
            + beta * np.kron(np.kron(level(E), qubit(ua, ub)), mode(space, 0)),
        )

        expected = {0: after_swap, 2: after_hiding, 3: after_carrier, 5: after_unhiding, 6: final}
        for step, want in expected.items():
            assert fidelity_pure(trace[step], want) >= 1 - 1e-10

    def test_hidden_branch_shielded_during_carrier(self, space):
        # right after the second hiding pulse all unprimed ion-2
        # amplitude belongs to the beta branch
        rng = np.random.default_rng(9)
        alpha, beta = random_unit_vector(2, rng)
        a, b = random_unit_vector(2, rng)
        init = ion_input(space, (alpha, beta), (a, b))
        _, trace = run_sequence(seq_ctrl_u(), init, {"U": haar_unitary(2, rng)})
        state = trace[2]
        proj = np.zeros(space.total_dim)
        for lv2 in (G, E):
            for n in range(space.fock_cutoff):
                proj[space.flat(E, lv2, n)] = 1.0
        unprimed = state.amps * proj
        want = beta * np.kron(np.kron(level(E), qubit(a, b)), mode(space, 0))
        assert np.max(np.abs(unprimed - want)) < 1e-12

    def test_identity_binding_restores_input(self, space):
        rng = np.random.default_rng(10)
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        final, _ = run_sequence(seq_ctrl_u(), init, {"U": Operator(np.eye(2))})
        assert fidelity_pure(final, init) >= 1 - 1e-10

    def test_classical_control_branch(self, space):
        rng = np.random.default_rng(11)
        a, b = random_unit_vector(2, rng)
        init = ion_input(space, (1, 0), (a, b))
        final, trace = run_sequence(seq_ctrl_u(), init, {"U": haar_unitary(2, rng)})
        want = ket(space, level(G), qubit(a, b), mode(space, 0))
        assert fidelity_pure(final, want) >= 1 - 1e-10
        # during the carrier the whole state is hidden in primed levels
        mid = trace[2]
        want_mid = ket(space, level(E), qubit(a, b, primed=True), mode(space, 0))
        assert fidelity_pure(mid, want_mid) >= 1 - 1e-10

    def test_matches_subspace_embedded_control(self, space):
        # independent target: embed U directly on the (ion1 = e, n = 0)
        # block of ion 2, the block-diagonal form the protocol realizes
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = haar_unitary(2, rng)
            gate = subspace_embed(
                u,
                DirectSumBlock(
                    [space.flat(E, G, 0), space.flat(E, E, 0)], space.total_dim
                ),
            )
            init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
            want = StateVector(space.hilbert, gate.entries @ init.amps)
            final, _ = run_sequence(seq_ctrl_u(), init, {"U": u})
            assert fidelity_pure(final, want) >= 1 - 1e-10


class TestCtrlSwitchSequence:
    def test_slot_metadata(self):
        assert seq_ctrl_switch().slot_info() == {
            "Uf": {"pulses_sent": 1, "interactions": 2},
            "Ug": {"pulses_sent": 1, "interactions": 2},
        }

    def test_output_formula(self, space):
        rng = np.random.default_rng(13)
        for _ in range(10):
            uf, ug = haar_unitary(2, rng), haar_unitary(2, rng)
            alpha, beta = random_unit_vector(2, rng)
            psi = random_unit_vector(2, rng)
            init = ion_input(space, (alpha, beta), psi)
            final, _ = run_sequence(seq_ctrl_switch(), init, {"Uf": uf, "Ug": ug})
            gf = ug.entries @ uf.entries @ psi
            ge = uf.entries @ ug.entries @ psi
            want = StateVector(
                space.hilbert,
                alpha * np.kron(np.kron(level(G), qubit(*gf)), mode(space, 0))
                + beta * np.kron(np.kron(level(E), qubit(*ge)), mode(space, 0)),
            )
            assert fidelity_pure(final, want) >= 1 - 1e-10

    def test_identity_bindings(self, space):
        rng = np.random.default_rng(14)
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        eye = Operator(np.eye(2))
        final, _ = run_sequence(seq_ctrl_switch(), init, {"Uf": eye, "Ug": eye})
        assert fidelity_pure(final, init) >= 1 - 1e-10

    def test_commuting_pulses_leave_control_pure(self, space):
        rng = np.random.default_rng(15)
        uf = Operator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))))
        ug = Operator(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))))
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        final, _ = run_sequence(seq_ctrl_switch(), init, {"Uf": uf, "Ug": ug})
        control = partial_trace(final.outer(), {"ion1"})
        assert abs(control.purity() - 1) < 1e-10

    def test_matches_block_embedded_switch(self, space):
        # independent target assembled from two direct-sum embeddings
        rng = np.random.default_rng(16)
        for _ in range(10):
            uf, ug = haar_unitary(2, rng), haar_unitary(2, rng)
            block_g = subspace_embed(
                Operator(ug.entries @ uf.entries),
                DirectSumBlock([space.flat(G, G, 0), space.flat(G, E, 0)], space.total_dim),
            )
            block_e = subspace_embed(
                Operator(uf.entries @ ug.entries),
                DirectSumBlock([space.flat(E, G, 0), space.flat(E, E, 0)], space.total_dim),
            )
            init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
            want = StateVector(space.hilbert, (block_g.entries @ block_e.entries) @ init.amps)
            final, _ = run_sequence(seq_ctrl_switch(), init, {"Uf": uf, "Ug": ug})
            assert fidelity_pure(final, want) >= 1 - 1e-10


class TestGroundModeAndLeakage:
    def test_initial_state_in_ground_mode(self, space):
        rng = np.random.default_rng(17)
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        assert assert_ground_mode(init, 1e-12)

    def test_mode_excited_after_first_swap(self, space):
        rng = np.random.default_rng(18)
        alpha = 0.6
        init = ion_input(space, (alpha, 0.8), random_unit_vector(2, rng))
        _, trace = run_sequence(PulseSequence([SidebandSwap(1)]), init, {})
        assert not assert_ground_mode(trace[0], 1e-12)

    def test_ground_mode_restored_by_protocols(self, space):
        rng = np.random.default_rng(19)
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        final, _ = run_sequence(seq_ctrl_u(), init, {"U": haar_unitary(2, rng)})
        assert assert_ground_mode(final, 1e-12)

    def test_highest_fock_level_never_populated(self, space):
        rng = np.random.default_rng(20)
        bindings = {
            "U": haar_unitary(2, rng),
            "Uf": haar_unitary(2, rng),
            "Ug": haar_unitary(2, rng),
        }
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        for seq in (seq_ctrl_u(), seq_ctrl_switch()):
            _, trace = run_sequence(seq, init, bindings)
            top = space.fock_cutoff - 1
            for state in trace:
                assert state.population("mode", top) < 1e-12

    def test_tolerance_must_be_positive(self, space):
        init = ion_input(space, (1, 0), (1, 0))
        with pytest.raises(ValueError):
            assert_ground_mode(init, 0.0)


class TestSerialization:
    @pytest.mark.parametrize("builder", [seq_ctrl_u, seq_ctrl_switch])
    def test_round_trip_bit_identical(self, builder):
        seq = builder()
        text = seq.to_json()
        again = PulseSequence.from_json(text)
        assert again.to_json() == text
        assert again == seq

    def test_round_trip_preserves_execution(self, space):
        rng = np.random.default_rng(21)
        seq = PulseSequence.from_json(seq_ctrl_switch().to_json())
        bindings = {"Uf": haar_unitary(2, rng), "Ug": haar_unitary(2, rng)}
        init = ion_input(space, random_unit_vector(2, rng), random_unit_vector(2, rng))
        a, _ = run_sequence(seq_ctrl_switch(), init, bindings)
        b, _ = run_sequence(seq, init, bindings)
        assert np.array_equal(a.amps, b.amps)

    def test_unknown_pulse_type_rejected(self):
        with pytest.raises(ValueError):
            PulseSequence.from_json('[{"type": "mystery", "ion": 1}]')
