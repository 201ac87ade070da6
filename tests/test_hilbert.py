import numpy as np
import pytest

from ctrlsim.hilbert import (
    DensityMatrix,
    DirectSumBlock,
    HilbertSpace,
    Operator,
    StateVector,
    _RESTRICT_ABOVE,
    _unitary_deviation,
    basis_state,
    fidelity_mixed,
    fidelity_pure,
    haar_unitary,
    partial_trace,
    random_unit_vector,
    subspace_embed,
    subsystem_embed,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHilbertSpace:
    def test_total_dim_is_product(self):
        space = HilbertSpace([("a", 2), ("b", 3), ("c", 4)])
        assert space.total_dim == 24
        assert space.dims == (2, 3, 4)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace([("a", 2), ("a", 3)])

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace([("a", 0)])

    def test_leftmost_factor_is_slowest(self):
        space = HilbertSpace([("a", 2), ("b", 3)])
        assert space.flat_index((1, 0)) == 3
        assert space.occupation(5) == (1, 2)

    def test_unknown_label(self):
        space = HilbertSpace([("a", 2)])
        with pytest.raises(KeyError):
            space.axis("nope")


class TestStateAndOperatorInvariants:
    def test_state_norm_enforced(self):
        space = HilbertSpace([("q", 2)])
        with pytest.raises(ValueError):
            StateVector(space, [1.0, 1.0])

    def test_operator_unitarity_claim_enforced(self):
        with pytest.raises(ValueError):
            Operator(np.diag([1.0, 2.0]))

    def test_density_matrix_checks(self):
        space = HilbertSpace([("q", 2)])
        with pytest.raises(ValueError):
            DensityMatrix(space, np.array([[1.0, 0.5], [0.2, 0.0]]))
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([1.5, -0.5]))
        DensityMatrix(space, np.diag([0.5, 0.5]))

    def test_nan_fails_closed(self):
        space = HilbertSpace([("q", 2)])
        with pytest.raises(ValueError):
            Operator([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError):
            StateVector(space, [np.nan, 0.0])
        with pytest.raises(ValueError):
            DensityMatrix(space, np.diag([np.nan, 0.5]))
        with pytest.raises(ValueError):
            DensityMatrix(space, [[0.5, np.nan], [np.nan, 0.5]])

    def test_direct_sum_block_validation(self):
        with pytest.raises(ValueError):
            DirectSumBlock([1, 1], 4)
        with pytest.raises(ValueError):
            DirectSumBlock([2, 1], 4)
        with pytest.raises(ValueError):
            DirectSumBlock([3, 4], 4)

    def test_operator_composition_and_adjoint(self):
        rng = np.random.default_rng(18)
        w = Operator(haar_unitary(3, rng).entries @ haar_unitary(3, rng).entries)
        assert _unitary_deviation(w.entries) <= 1e-10
        assert np.max(np.abs(w.entries @ w.entries.conj().T - np.eye(3))) < 1e-10


class TestSubsystemEmbed:
    def test_definition_on_two_qubits(self):
        space = HilbertSpace([("c", 2), ("s", 2)])
        out = subsystem_embed(Operator(X), space, "s")
        assert np.array_equal(out.entries, np.kron(np.eye(2), X))

    def test_identity_embeds_to_identity(self):
        space = HilbertSpace([("c", 2), ("s", 3)])
        out = subsystem_embed(Operator(np.eye(3)), space, "s")
        assert np.array_equal(out.entries, np.eye(6))

    def test_errors(self):
        space = HilbertSpace([("c", 2), ("s", 3)])
        with pytest.raises(KeyError):
            subsystem_embed(Operator(np.eye(2)), space, "nope")
        with pytest.raises(ValueError):
            subsystem_embed(Operator(np.eye(2)), space, "s")

    def test_spectator_marginal_unchanged(self):
        rng = np.random.default_rng(11)
        space = HilbertSpace([("c", 2), ("s", 3)])
        for _ in range(10):
            u = haar_unitary(2, rng)
            psi_c = random_unit_vector(2, rng)
            psi_s = random_unit_vector(3, rng)
            state = StateVector(space, np.kron(psi_c, psi_s))
            evolved = StateVector(space, subsystem_embed(u, space, "c").entries @ state.amps)
            before = partial_trace(state.outer(), {"s"})
            after = partial_trace(evolved.outer(), {"s"})
            assert np.max(np.abs(before.entries - after.entries)) < 1e-12


def placement_oracle(u, indices, total):
    """Brute-force index bookkeeping for a direct-sum embedding."""
    out = np.zeros((total, total), dtype=complex)
    inside = set(indices)
    for i in range(total):
        if i not in inside:
            out[i, i] = 1.0
    for a, ia in enumerate(indices):
        for b, ib in enumerate(indices):
            out[ia, ib] = u[a, b]
    return out


class TestSubspaceEmbed:
    def test_ctrl_x_block(self):
        out = subspace_embed(Operator(X), DirectSumBlock([2, 3], 4))
        ctrl_x = np.eye(4, dtype=complex)
        ctrl_x[2:, 2:] = X
        assert np.array_equal(out.entries, ctrl_x)

    def test_identity_block(self):
        out = subspace_embed(Operator(np.eye(2)), DirectSumBlock([1, 3], 4))
        assert np.array_equal(out.entries, np.eye(4))

    def test_against_placement_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = haar_unitary(2, rng)
            out = subspace_embed(u, DirectSumBlock([0, 2], 4))
            assert np.max(np.abs(out.entries - placement_oracle(u.entries, (0, 2), 4))) == 0.0

    def test_block_size_mismatch(self):
        with pytest.raises(ValueError):
            subspace_embed(Operator(np.eye(3)), DirectSumBlock([0, 1], 4))

    def test_embedding_consistency_with_subsystem(self):
        # acting on the system factor == acting on both control blocks
        rng = np.random.default_rng(4)
        for d in (2, 3):
            space = HilbertSpace([("c", 2), ("s", d)])
            u = haar_unitary(d, rng)
            direct = subsystem_embed(u, space, "s")
            low = subspace_embed(u, DirectSumBlock(range(d), 2 * d))
            high = subspace_embed(u, DirectSumBlock(range(d, 2 * d), 2 * d))
            composed = low.entries @ high.entries
            assert np.max(np.abs(direct.entries - composed)) < 1e-12

    def test_ctrl_x_truth_table(self):
        space = HilbertSpace([("c", 2), ("s", 2)])
        gate = subspace_embed(Operator(X), DirectSumBlock([2, 3], 4))
        table = {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)}
        for occ_in, occ_out in table.items():
            got = StateVector(space, gate.entries @ basis_state(space, occ_in).amps)
            assert fidelity_pure(got, basis_state(space, occ_out)) > 1 - 1e-12


class TestApply:
    """A state evolved by an operator's matrix stays a normalized state."""

    def test_identity(self):
        rng = np.random.default_rng(5)
        space = HilbertSpace([("q", 4)])
        psi = StateVector(space, random_unit_vector(space.total_dim, rng))
        out = StateVector(space, Operator(np.eye(4)).entries @ psi.amps)
        assert fidelity_pure(out, psi) > 1 - 1e-12

    def test_basis_flip(self):
        space = HilbertSpace([("q", 2)])
        out = StateVector(space, Operator(X).entries @ basis_state(space, (0,)).amps)
        assert fidelity_pure(out, basis_state(space, (1,))) > 1 - 1e-12

    def test_ctrl_x_on_superposition_matches_matvec_oracle(self):
        space = HilbertSpace([("c", 2), ("s", 2)])
        gate = subspace_embed(Operator(X), DirectSumBlock([2, 3], 4))
        amps = np.array([1, 0, 1, 0]) / np.sqrt(2)
        expected = np.zeros(4, dtype=complex)
        for i in range(4):  # independent matrix-vector computation
            for j in range(4):
                expected[i] += gate.entries[i, j] * amps[j]
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.max(np.abs(expected - bell)) < 1e-15
        out = StateVector(space, gate.entries @ amps)
        assert np.max(np.abs(out.amps - bell)) < 1e-12

    def test_norm_conservation_property(self):
        rng = np.random.default_rng(6)
        space = HilbertSpace([("q", 5)])
        for _ in range(25):
            u = haar_unitary(5, rng)
            out = StateVector(space, u.entries @ random_unit_vector(space.total_dim, rng))
            assert abs(np.linalg.norm(out.amps) - 1) < 1e-10


class TestFidelities:
    def test_self_overlap(self):
        rng = np.random.default_rng(7)
        space = HilbertSpace([("q", 3)])
        psi = StateVector(space, random_unit_vector(space.total_dim, rng))
        assert abs(fidelity_pure(psi, psi) - 1) < 1e-12

    def test_orthogonal(self):
        space = HilbertSpace([("q", 2)])
        assert fidelity_pure(basis_state(space, (0,)), basis_state(space, (1,))) == 0.0

    def test_half_overlap(self):
        space = HilbertSpace([("q", 2)])
        plus = StateVector(space, np.array([1, 1]) / np.sqrt(2))
        assert abs(fidelity_pure(basis_state(space, (0,)), plus) - 0.5) < 1e-12

    def test_space_mismatch(self):
        a = basis_state(HilbertSpace([("q", 2)]), (0,))
        b = basis_state(HilbertSpace([("r", 2)]), (0,))
        with pytest.raises(ValueError):
            fidelity_pure(a, b)

    def test_mixed_on_pure_projector(self):
        space = HilbertSpace([("q", 2)])
        zero = basis_state(space, (0,))
        assert abs(fidelity_mixed(zero.outer(), zero) - 1) < 1e-12

    def test_mixed_on_maximally_mixed(self):
        rng = np.random.default_rng(8)
        space = HilbertSpace([("q", 2)])
        rho = DensityMatrix(space, np.eye(2) / 2)
        psi = StateVector(space, random_unit_vector(space.total_dim, rng))
        assert abs(fidelity_mixed(rho, psi) - 0.5) < 1e-12

    def test_mixed_against_coherent_target(self):
        # equal mixture of the two branches vs their equal superposition:
        # cross terms vanish, leaving |alpha|^4 + |beta|^4 = 0.5
        rng = np.random.default_rng(9)
        space = HilbertSpace([("pol", 2), ("s", 2)])
        u = haar_unitary(2, rng)
        psi = random_unit_vector(2, rng)
        branch_h = StateVector(space, np.kron([1, 0], psi))
        branch_v = StateVector(space, np.kron([0, 1], u.entries @ psi))
        rho = DensityMatrix.mixture([(0.5, branch_h), (0.5, branch_v)])
        target = StateVector(space, (branch_h.amps + branch_v.amps) / np.sqrt(2))
        assert abs(fidelity_mixed(rho, target) - 0.5) < 1e-12


def partial_trace_oracle(rho, d_keep, d_out):
    """Index-summation partial trace over the rightmost factor."""
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for i in range(d_keep):
        for j in range(d_keep):
            for k in range(d_out):
                out[i, j] += rho[i * d_out + k, j * d_out + k]
    return out


class TestPartialTrace:
    def test_product_case(self):
        rng = np.random.default_rng(10)
        space = HilbertSpace([("a", 2), ("b", 3)])
        psi_a = random_unit_vector(2, rng)
        psi_b = random_unit_vector(3, rng)
        rho = StateVector(space, np.kron(psi_a, psi_b)).outer()
        reduced = partial_trace(rho, {"a"})
        assert np.max(np.abs(reduced.entries - np.outer(psi_a, psi_a.conj()))) < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        space = HilbertSpace([("a", 2), ("b", 2)])
        bell = StateVector(space, np.array([1, 0, 0, 1]) / np.sqrt(2))
        for keep in ("a", "b"):
            reduced = partial_trace(bell.outer(), {keep})
            assert np.max(np.abs(reduced.entries - np.eye(2) / 2)) < 1e-12

    def test_against_index_summation_oracle(self):
        rng = np.random.default_rng(12)
        space = HilbertSpace([("a", 2), ("b", 2)])
        rho = StateVector(space, random_unit_vector(space.total_dim, rng)).outer()
        reduced = partial_trace(rho, {"a"})
        assert np.max(np.abs(reduced.entries - partial_trace_oracle(rho.entries, 2, 2))) < 1e-12

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(13)
        space = HilbertSpace([("a", 2), ("b", 3), ("c", 2)])
        for _ in range(5):
            rho = StateVector(space, random_unit_vector(space.total_dim, rng)).outer()
            reduced = partial_trace(rho, {"b", "c"})
            assert reduced.space.labels == ("b", "c")
            assert abs(np.trace(reduced.entries) - 1) < 1e-10
            assert np.max(np.abs(reduced.entries - reduced.entries.conj().T)) < 1e-10

    def test_unknown_label(self):
        space = HilbertSpace([("a", 2), ("b", 2)])
        rho = basis_state(space, (0, 0)).outer()
        with pytest.raises(KeyError):
            partial_trace(rho, {"zzz"})




class TestHaarUnitary:
    def test_dim_one_is_phase(self):
        u = haar_unitary(1, np.random.default_rng(0))
        assert abs(abs(u.entries[0, 0]) - 1) < 1e-12

    def test_samples_are_unitary(self):
        rng = np.random.default_rng(15)
        for dim in (2, 3, 5):
            assert _unitary_deviation(haar_unitary(dim, rng).entries) <= 1e-10

    def test_group_closure(self):
        rng = np.random.default_rng(16)
        prod = Operator(haar_unitary(3, rng).entries @ haar_unitary(3, rng).entries)
        assert _unitary_deviation(prod.entries) <= 1e-10

    def test_first_entry_moment(self):
        # Haar moment: E|u00|^2 = 1/dim; also check left invariance
        rng = np.random.default_rng(17)
        v = haar_unitary(2, rng).entries
        acc = acc_rotated = 0.0
        n = 10_000
        for _ in range(n):
            u = haar_unitary(2, rng).entries
            acc += abs(u[0, 0]) ** 2
            acc_rotated += abs((v @ u)[0, 0]) ** 2
        assert abs(acc / n - 0.5) < 0.02
        assert abs(acc_rotated / n - 0.5) < 0.02


class TestIsUnitary:
    def test_identity(self):
        assert _unitary_deviation(Operator(np.eye(4)).entries) <= 1e-10

    def test_diagonal_stretch(self):
        assert not _unitary_deviation(Operator(np.diag([1.0, 1.0 + 1e-11])).entries) <= 1e-12

    @staticmethod
    def _dense_deviation(m):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))))

    @staticmethod
    def _moved(n, size, rng, scale=1.0):
        """Identity of size ``n`` with a Haar block, times ``scale``, on
        ``size`` random indices ``J``; returns the matrix and ``J``."""
        j = np.sort(rng.choice(n, size, replace=False))
        m = np.eye(n, dtype=complex)
        m[np.ix_(j, j)] = scale * haar_unitary(size, rng).entries
        return m, j

    @pytest.mark.parametrize("n", [_RESTRICT_ABOVE, _RESTRICT_ABOVE + 1, 2 * _RESTRICT_ABOVE])
    @pytest.mark.parametrize("scale", [1.0, 1.01])
    def test_restricted_check_agrees_with_the_dense_product(self, n, scale):
        rng = np.random.default_rng(n)
        for size in (1, 2, n // 3, n // 2, n):
            m, _ = self._moved(n, size, rng, scale)
            assert abs(_unitary_deviation(m) - self._dense_deviation(m)) <= 1e-14

    def test_exact_identity_has_deviation_zero(self):
        n = 2 * _RESTRICT_ABOVE
        assert _unitary_deviation(np.eye(n, dtype=complex)) == 0.0
        assert _unitary_deviation(Operator(np.eye(n)).entries) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("on_diagonal", [True, False])
    def test_non_finite_entry_outside_the_block_is_rejected(self, bad, on_diagonal):
        rng = np.random.default_rng(3)
        n = 2 * _RESTRICT_ABOVE
        m, j = self._moved(n, 4, rng)
        a, b = np.setdiff1d(np.arange(n), j)[:2]
        m[a, a if on_diagonal else b] = bad
        # inf * 0 in the product warns before the check rejects it
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            Operator(m)

    def test_small_coupling_between_unmoved_indices_is_rejected(self):
        rng = np.random.default_rng(4)
        n = 2 * _RESTRICT_ABOVE
        m, j = self._moved(n, 4, rng)
        a, b = np.setdiff1d(np.arange(n), j)[:2]
        m[a, b] = 1e-3
        assert abs(_unitary_deviation(m) - self._dense_deviation(m)) <= 1e-14
        with pytest.raises(ValueError, match="deviates"):
            Operator(m)

    def test_non_unitary_block_is_rejected(self):
        m, _ = self._moved(2 * _RESTRICT_ABOVE, 6, np.random.default_rng(5), scale=1 + 1e-6)
        with pytest.raises(ValueError, match="deviates"):
            Operator(m)

    def test_empty_matrix_is_rejected(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((0, 0)))
