import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize as scipy_minimize, rosen, rosen_der

from ctrlsim import ion, nogo, photonic
from ctrlsim.hilbert import Operator, haar_unitary
from ctrlsim.nogo import (
    CTRL_U,
    SWITCH,
    SearchConfig,
    _objective,
    _prepare_samples,
    _slot_matrices,
    draw_samples,
    optimize,
    oracle_sanity,
    param_count,
)
from reference import (
    choi_of_unitary,
    choi_oracle,
    hermitian_from_params,
    process_fidelity,
    target_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def kernel_fidelities(kind, a, d, x, samples):
    """Per-sample fidelities of the search kernel."""
    return _objective(kind, a, d, x, _prepare_samples(kind, d, samples))[2]


def prepared_target(kind, bindings):
    """The controlled target ``_prepare_samples`` builds for one sample."""
    dim = next(iter(bindings.values())).dim
    return _prepare_samples(kind, dim, (bindings,))[1][0].conj()


def reference_fidelity(kind, a, d, x, bindings):
    """The same fidelity from the reference's basis-enumeration Choi matrix."""
    return process_fidelity(choi_oracle(kind, a, d, x, bindings), target_unitary(kind, bindings))


class TestParametrization:
    def test_hermitian_from_params(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 8):
            h = hermitian_from_params(rng.normal(size=dim * dim), dim)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14
        # leading axes are batch axes
        vecs = rng.normal(size=(3, 2, 16))
        batch = hermitian_from_params(vecs, 4)
        assert batch.shape == (3, 2, 4, 4)
        assert np.array_equal(batch[2, 1], hermitian_from_params(vecs[2, 1], 4))

    def test_param_vector_round_trips_all_entries(self):
        # distinct params must produce distinct generators
        vec = np.arange(16, dtype=float)
        h = hermitian_from_params(vec, 4)
        assert np.array_equal(np.real(np.diag(h)), vec[:4])
        assert h[0, 1] == complex(vec[4], vec[10])

    def test_param_count(self):
        assert param_count(CTRL_U, 2, 2) == 2 * 64
        assert param_count(SWITCH, 2, 2) == 3 * 64
        assert param_count(CTRL_U, 1, 3) == 2 * 36

    def test_param_circuit_validation(self):
        # a parameter vector of the wrong length and an unknown kind
        rng = np.random.default_rng(0)
        prepared = _prepare_samples(CTRL_U, 2, draw_samples(CTRL_U, 2, 1, rng))
        n = param_count(CTRL_U, 2, 2)
        with pytest.raises(ValueError, match=rf"expected {n} search parameters .* shape \(5,\)"):
            _objective(CTRL_U, 2, 2, np.zeros(5), prepared)
        with pytest.raises(ValueError):
            optimize("bogus", SearchConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_param_circuit_rejects_non_finite(self, bad):
        # one non-finite entry of an otherwise identity-circuit vector
        rng = np.random.default_rng(0)
        prepared = _prepare_samples(CTRL_U, 2, draw_samples(CTRL_U, 2, 1, rng))
        params = np.zeros(param_count(CTRL_U, 1, 2))
        params[3] = bad
        with pytest.raises(ValueError, match="finite"):
            _objective(CTRL_U, 1, 2, params, prepared)

    def test_slot_matrices_are_unitary(self):
        rng = np.random.default_rng(1)
        _, _, slots = _slot_matrices(SWITCH, 8, rng.normal(size=param_count(SWITCH, 2, 2)))
        for m in slots:
            assert np.max(np.abs(m.conj().T @ m - np.eye(8))) < 1e-8


class TestRealizedChannel:
    """The channel the circuit realizes: the reference Choi matrix, the
    kernel's overlaps with it, and the bindings the kernel accepts."""

    def test_identity_slots_give_wire_insertion(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(2, rng)
        choi = choi_oracle(CTRL_U, 1, 2, np.zeros(param_count(CTRL_U, 1, 2)), {"U": u})
        want = choi_of_unitary(np.kron(np.eye(2), u.entries))
        assert np.max(np.abs(choi - want)) < 1e-12

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    def test_choi_is_cptp(self, kind):
        rng = np.random.default_rng(3)
        x = rng.normal(size=param_count(kind, 2, 2))
        (bindings,) = draw_samples(kind, 2, 1, rng)
        choi = choi_oracle(kind, 2, 2, x, bindings)
        d = 2
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-8
        assert float(np.min(np.linalg.eigvalsh(choi))) > -1e-8
        assert abs(np.trace(choi).real - 2 * d) < 1e-8
        # trace preservation: partial trace over the output factor is 1
        cs = 2 * d
        tp = np.einsum("ikjk->ij", choi.reshape(cs, cs, cs, cs).transpose(1, 0, 3, 2))
        assert np.max(np.abs(tp - np.eye(cs))) < 1e-8

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    def test_against_basis_enumeration_oracle(self, kind):
        # the kernel's fidelity against any unitary, not only the
        # controlled target, is the overlap with the reference Choi matrix
        rng = np.random.default_rng(4)
        x = rng.normal(size=param_count(kind, 2, 2))
        (bindings,) = draw_samples(kind, 2, 1, rng)
        oracles, _ = _prepare_samples(kind, 2, (bindings,))
        choi = choi_oracle(kind, 2, 2, x, bindings)
        for _ in range(4):
            v = haar_unitary(4, rng)
            fid = _objective(kind, 2, 2, x, (oracles, v.entries.conj()[None]))[2]
            assert abs(fid[0] - process_fidelity(choi, v.entries)) < 1e-13

    def test_oracle_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _prepare_samples(CTRL_U, 2, ({"U": Operator(np.eye(3))},))

    def test_switch_needs_pair(self):
        with pytest.raises(KeyError, match="'Ug'"):
            _prepare_samples(SWITCH, 2, ({"Uf": Operator(np.eye(2))},))


class TestTargetUnitary:
    """The controlled target ``_prepare_samples`` assembles, against
    ``1 (+) U`` and ``Ug Uf (+) Uf Ug`` written out here and in the
    reference."""

    def test_ctrl_x(self):
        t = prepared_target(CTRL_U, {"U": Operator(X)})
        want = np.eye(4, dtype=complex)
        want[2:, 2:] = X
        assert np.array_equal(t, want)
        assert np.array_equal(target_unitary(CTRL_U, {"U": Operator(X)}), want)

    def test_equal_pulses_make_control_independent_blocks(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(2, rng)
        t = prepared_target(SWITCH, {"Uf": u, "Ug": u})
        assert np.max(np.abs(t - np.kron(np.eye(2), u.entries @ u.entries))) < 1e-12

    def test_haar_pair_against_block_assembly(self):
        rng = np.random.default_rng(6)
        uf, ug = haar_unitary(2, rng), haar_unitary(2, rng)
        t = prepared_target(SWITCH, {"Uf": uf, "Ug": ug})
        top = ug.entries @ uf.entries
        bottom = uf.entries @ ug.entries
        assert np.max(np.abs(t[:2, :2] - top)) < 1e-12
        assert np.max(np.abs(t[2:, 2:] - bottom)) < 1e-12
        assert np.max(np.abs(t[:2, 2:])) == 0.0
        assert np.max(np.abs(t[2:, :2])) == 0.0

    def test_control_branches(self):
        rng = np.random.default_rng(7)
        u, uf, ug = (haar_unitary(3, rng) for _ in range(3))
        m0, m1 = nogo.control_branches(CTRL_U, {"U": u})
        assert np.array_equal(m0, np.eye(3)) and np.array_equal(m1, u.entries)
        m0, m1 = nogo.control_branches(SWITCH, {"Uf": uf, "Ug": ug})
        assert np.array_equal(m0, ug.entries @ uf.entries)
        assert np.array_equal(m1, uf.entries @ ug.entries)


class TestProcessFidelity:
    def test_unitary_channel_self_fidelity(self):
        rng = np.random.default_rng(7)
        u = haar_unitary(4, rng)
        assert abs(process_fidelity(choi_of_unitary(u.entries), u.entries) - 1) < 1e-12

    def test_wire_insertion_vs_ctrl_x_quarter(self):
        # |Tr((ctrl-X)^dag (1 (x) X))|^2 / 16 = 0.25
        wire = Operator(np.kron(np.eye(2), X))
        target = target_unitary(CTRL_U, {"U": Operator(X)})
        assert abs(process_fidelity(choi_of_unitary(wire.entries), target) - 0.25) < 1e-12


class TestWorstCaseFidelity:
    def test_identity_everything(self):
        x = np.zeros(param_count(CTRL_U, 1, 2))
        fid = kernel_fidelities(CTRL_U, 1, 2, x, ({"U": Operator(np.eye(2))},))
        assert abs(fid.min() - 1) < 1e-12

    def test_sigma_x_sample_gives_quarter(self):
        x = np.zeros(param_count(CTRL_U, 1, 2))
        assert abs(kernel_fidelities(CTRL_U, 1, 2, x, ({"U": Operator(X)},)).min() - 0.25) < 1e-12

    def test_direct_sum_oracle_realizes_target_exactly(self):
        # the physically realized insertion (identity (+) U) is the
        # target itself, so its channel fidelity is 1 for every sample
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = haar_unitary(2, rng)
            block = np.eye(4, dtype=complex)
            block[2:, 2:] = u.entries
            f = process_fidelity(
                choi_of_unitary(block), target_unitary(CTRL_U, {"U": u})
            )
            assert f >= 1 - 1e-12

    def test_monotone_under_sample_supersets(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=param_count(CTRL_U, 2, 2))
        samples = draw_samples(CTRL_U, 2, 8, rng)
        worst = kernel_fidelities(CTRL_U, 2, 2, x, samples).min()
        for k in range(1, 8):
            assert worst <= kernel_fidelities(CTRL_U, 2, 2, x, samples[:k]).min() + 1e-12

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            _prepare_samples(CTRL_U, 2, ())

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    def test_fast_path_matches_reference(self, kind):
        rng = np.random.default_rng(10)
        for a, d in ((2, 2), (1, 1), (1, 3), (2, 3), (3, 2)):
            samples = draw_samples(kind, d, 5, rng)
            x = rng.normal(size=param_count(kind, a, d))
            ref = min(reference_fidelity(kind, a, d, x, s) for s in samples)
            assert abs(ref - kernel_fidelities(kind, a, d, x, samples).min()) < 1e-14


def params_from_hermitian(h):
    """Inverse of hermitian_from_params."""
    iu = np.triu_indices(h.shape[0], k=1)
    return np.concatenate([np.real(np.diag(h)), h[iu].real, h[iu].imag])


def random_problem(kind, a, d, count, seed):
    rng = np.random.default_rng(seed)
    samples = draw_samples(kind, d, count, rng)
    return rng, samples, _prepare_samples(kind, d, samples)


class TestBatchedKernel:
    """The search objective: slot gates from one stacked eigh, all
    samples propagated side by side."""

    def test_slot_gates_match_expm(self):
        # spectral norm 10 with a generic, a degenerate and a fully
        # degenerate spectrum, and the zero generator
        rng = np.random.default_rng(20)
        dim = 8
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        generic = (g + g.conj().T) / 2
        generic *= 10 / np.linalg.norm(generic, 2)
        q = haar_unitary(dim, rng).entries
        degenerate = q @ np.diag([-10.0, -10, -10, 2.5, 2.5, 7, 7, 7]) @ q.conj().T
        degenerate = (degenerate + degenerate.conj().T) / 2
        gens = [generic, degenerate, 10 * np.eye(dim), np.zeros((dim, dim))]
        points = np.stack(
            [np.concatenate([params_from_hermitian(h) for h in pair]) for pair in (gens[:2], gens[2:])]
        )
        _, _, slots = _slot_matrices(CTRL_U, dim, points)
        assert slots.shape == (2, 2, dim, dim)
        for k, h in enumerate(gens):
            want = expm(1j * h)
            assert np.max(np.abs(slots[k // 2, k % 2] - want)) < 1e-12

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    @pytest.mark.parametrize("a,d", [(2, 2), (1, 1), (1, 3), (2, 3), (3, 2)])
    def test_batch_equals_single_calls_and_reference(self, kind, a, d):
        # samples side by side give each sample's fidelity and gradient as
        # a one-sample call does, and the softmin weights the gradients
        rng, samples, prepared = random_problem(kind, a, d, 5, 21)
        x = rng.normal(size=param_count(kind, a, d))
        softmin, grad, fid = _objective(kind, a, d, x, prepared)
        assert fid.shape == (5,)
        single = [_objective(kind, a, d, x, _prepare_samples(kind, d, (s,))) for s in samples]
        assert np.allclose([f[0] for _, _, f in single], fid, rtol=0, atol=1e-14)
        assert np.allclose([v for v, _, _ in single], fid, rtol=0, atol=1e-14)
        weights = np.exp(-nogo._SOFTMIN_BETA * (fid - fid.min()))
        weights /= weights.sum()
        assert np.allclose(grad, weights @ [g for _, g, _ in single], rtol=0, atol=1e-13)
        assert fid.min() - np.log(5) / nogo._SOFTMIN_BETA <= softmin <= fid.min()
        for s, value in zip(samples, fid):
            assert abs(value - reference_fidelity(kind, a, d, x, s)) < 1e-13

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_prepared_targets_are_the_target_unitaries(self, kind, d):
        # all samples' targets at once are exactly the reference's, conjugated
        _, samples, (oracles, targets) = random_problem(kind, 1, d, 6, 22)
        assert oracles.shape == (6, len(nogo.TASKS[kind][0]), d, d)
        assert targets.shape == (6, 2 * d, 2 * d)
        for s, got in zip(samples, targets):
            assert np.array_equal(got, target_unitary(kind, s).conj())

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    def test_samples_are_consecutive_haar_draws(self, kind, d):
        # the stacked draw gives, bit for bit, one haar_unitary per slot per
        # sample on the same generator, each binding an Operator
        samples = draw_samples(kind, d, 5, np.random.default_rng(26))
        rng = np.random.default_rng(26)
        for bindings in samples:
            assert list(bindings) == list(nogo.TASKS[kind][0])
            for u in bindings.values():
                assert isinstance(u, Operator)
                assert u.entries.tobytes() == haar_unitary(d, rng).entries.tobytes()

    def test_prepared_targets_pass_one_unitarity_check(self, monkeypatch):
        # one stacked check at DEFAULT_TOL covers every target
        calls = []
        real = nogo._unitary_deviation

        def spy(m):
            calls.append(m.shape)
            return real(m)

        monkeypatch.setattr(nogo, "_unitary_deviation", spy)
        _prepare_samples(SWITCH, 2, draw_samples(SWITCH, 2, 5, np.random.default_rng(23)))
        assert calls == [(5, 4, 4)]
        monkeypatch.setattr(nogo, "_unitary_deviation", lambda m: 2 * nogo.DEFAULT_TOL)
        with pytest.raises(ValueError, match="unitary"):
            _prepare_samples(CTRL_U, 2, draw_samples(CTRL_U, 2, 2, np.random.default_rng(23)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_generator_maps_are_exact(self, dim):
        # to_h reproduces hermitian_from_params, batch axes included, and
        # back is its adjoint: on every unit parameter vector e_p,
        # (c.view(float) @ back)[p] = 2 Re sum(conj(c) * i H(e_p))
        to_h, back = nogo._generator_maps(dim)
        rng = np.random.default_rng(25)
        vecs = rng.normal(size=(3, 2, dim * dim))
        gens = (vecs @ to_h).view(np.complex128).reshape(3, 2, dim, dim)
        assert np.array_equal(gens, hermitian_from_params(vecs, dim))
        c = rng.normal(size=(4, dim * dim)) + 1j * rng.normal(size=(4, dim * dim))
        units = hermitian_from_params(np.eye(dim * dim), dim).reshape(dim * dim, -1)
        want = 2 * np.real(c.conj() @ (1j * units).T)
        assert np.array_equal(c.view(np.float64) @ back, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_kernel_rejects_non_finite(self, bad):
        rng, _, prepared = random_problem(CTRL_U, 1, 2, 2, 24)
        x = rng.normal(size=param_count(CTRL_U, 1, 2))
        x[5] = bad
        with pytest.raises(ValueError, match="finite"):
            _objective(CTRL_U, 1, 2, x, prepared)


class TestOptimize:
    def test_report_shape_and_determinism(self):
        cfg = SearchConfig(restarts=2, max_iters=60, sample_count=3, seed=5)
        rep1 = optimize(CTRL_U, cfg)
        rep2 = optimize(CTRL_U, cfg)
        assert rep1.to_json() == rep2.to_json()
        assert 0.0 <= rep1.best_worst_case_fidelity <= 1.0 + 1e-8
        assert len(rep1.restarts) == 2
        assert rep1.restarts[0].seed == (5, 0)
        data = rep1.to_json_dict()
        assert set(data) == {"kind", "dims", "config", "best_worst_case_fidelity", "restarts"}
        assert set(data["config"]) == {
            "restarts", "max_iters", "sample_count", "seed", "system_dim", "ancilla_dim"
        }

    # Per-restart (converged, iterations, evaluations, value) of this config.
    PIN = {
        CTRL_U: [(True, 11, 15, 0.5216220793223398), (False, 60, 65, 0.932038174469314)],
        SWITCH: [(True, 42, 51, 0.9804539577277657), (False, 60, 63, 0.9974200463627775)],
    }

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    def test_regression_pin(self, kind):
        cfg = SearchConfig(restarts=2, max_iters=60, sample_count=3, seed=5)
        rep = optimize(kind, cfg)
        assert len(rep.restarts) == len(self.PIN[kind])
        for got, (converged, iterations, fevals, value) in zip(rep.restarts, self.PIN[kind]):
            assert (got.converged, got.iterations, got.fevals) == (converged, iterations, fevals)
            assert abs(got.value - value) < 1e-6

    def test_report_counts_the_samples_it_scored(self):
        # supplied samples, more than the config asks for, are what the
        # report counts; drawn samples leave the config as it was
        cfg = SearchConfig(restarts=1, max_iters=5, sample_count=3, seed=2)
        samples = draw_samples(CTRL_U, 2, 6, np.random.default_rng(2))
        rep = optimize(CTRL_U, cfg, samples=samples)
        assert rep.config.sample_count == len(samples) == 6
        assert rep.config.seed == cfg.seed and rep.config.restarts == cfg.restarts
        assert optimize(CTRL_U, cfg).config == cfg

    def test_a_one_shot_iterator_of_samples_is_scored(self):
        cfg = SearchConfig(restarts=1, max_iters=5, seed=2)
        samples = draw_samples(CTRL_U, 2, 4, np.random.default_rng(2))
        rep = optimize(CTRL_U, cfg, samples=iter(samples))
        assert rep.to_json() == optimize(CTRL_U, cfg, samples=samples).to_json()

    def test_known_oracle_is_reachable(self):
        cfg = SearchConfig(restarts=1, max_iters=50, sample_count=1, seed=3)
        rep = optimize(CTRL_U, cfg, samples=({"U": Operator(np.eye(2))},))
        assert rep.best_worst_case_fidelity >= 1 - 1e-6

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    def test_unknown_oracle_objective_stays_below_one(self, kind):
        # enough samples pin the circuit down; exact realization is
        # impossible, so even the best restart stays short of 1
        cfg = SearchConfig(restarts=2, max_iters=150, sample_count=8, seed=13)
        rep = optimize(kind, cfg)
        assert rep.best_worst_case_fidelity <= 1 - 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SearchConfig(seed=-1)

    def test_gradient_matches_directional_difference(self):
        # the exact gradient against central differences of the softmin,
        # per coordinate and along it, at a random point and at x = 0
        # (all slot spectra degenerate)
        rng = np.random.default_rng(11)
        eps = 1e-6
        for kind, a, d in ((CTRL_U, 1, 2), (SWITCH, 1, 2), (CTRL_U, 2, 3), (SWITCH, 2, 3)):
            prepared = _prepare_samples(kind, d, draw_samples(kind, d, 4, rng))
            n = param_count(kind, a, d)

            def f(x):
                return _objective(kind, a, d, x, prepared)[0]

            for x in (rng.normal(scale=0.7, size=n), np.zeros(n)):
                grad = _objective(kind, a, d, x, prepared)[1]
                central = [(f(x + eps * e) - f(x - eps * e)) / (2 * eps) for e in np.eye(n)]
                assert np.max(np.abs(grad - central)) < 1e-9
                direction = grad / np.linalg.norm(grad)
                measured = (f(x + eps * direction) - f(x - eps * direction)) / (2 * eps)
                assert abs(measured - np.linalg.norm(grad)) < 1e-9

    @pytest.mark.parametrize("ancilla", [1, 2])
    def test_phase_closed_samples_stay_below_half(self, ancilla):
        # the realized channel ignores a global phase of U, and the Choi
        # vectors of 1 (+) U and 1 (+) -U are orthogonal, so on a set closed
        # under U -> -U no circuit exceeds worst-case fidelity 1/2
        rng = np.random.default_rng(40)
        bases = [haar_unitary(2, rng).entries for _ in range(8)]
        samples = tuple({"U": Operator(p * u)} for u in bases for p in (1, -1, 1j, -1j))
        cfg = SearchConfig(restarts=4, ancilla_dim=ancilla, seed=41)
        rep = optimize(CTRL_U, cfg, samples=samples)
        assert all(r.converged for r in rep.restarts)
        assert rep.best_worst_case_fidelity <= 0.5 + 1e-9


def _wrong_gradient(x):
    # the gradient of sum(x^4) with one component scaled by -0.2: a failed
    # line search empties the memory, the next one fails too and ends the run
    return float(np.sum(x**4)), 4 * x**3 * np.array([1.0, 1.0, 1.0, -0.2])


def _rotated_gradient(x):
    # a rotated gradient: one failed line search, then the evaluation cap
    return float(x @ x), 2 * np.array([x[1], -x[0]]) + 0.5 * x


def _cusps(x):
    # sum(sqrt|x|): pairs with s.y too small to store, then two failed
    # line searches
    return float(np.sum(np.sqrt(np.abs(x)))), 0.5 * np.sign(x) / np.sqrt(np.abs(x) + 1e-300)


def _styblinski_tang(x):
    return 0.5 * np.sum(x**4 - 16 * x**2 + 5 * x), 0.5 * (4 * x**3 - 32 * x + 5)


def _rastrigin(x):
    return (
        10 * len(x) + np.sum(x**2 - 10 * np.cos(2 * np.pi * x)),
        2 * x + 20 * np.pi * np.sin(2 * np.pi * x),
    )


def _rosenbrock(x):
    return rosen(x), rosen_der(x)


L_BFGS_B_PROBLEMS = {
    **{f"rosenbrock-{n}": (_rosenbrock, np.full(n, -1.2)) for n in (2, 5, 8)},
    "rosenbrock-spread": (_rosenbrock, np.linspace(-2.0, 2.0, 5)),
    "styblinski-tang": (_styblinski_tang, np.linspace(-4.5, 4.4, 5)),
    "rastrigin": (_rastrigin, np.linspace(-3.3, 2.7, 5)),
    "wrong-gradient": (_wrong_gradient, np.array([1.0, -2.0, 0.5, 1.5])),
    "rotated-gradient": (_rotated_gradient, np.array([1.0, 2.0])),
    "cusps": (_cusps, np.array([1.0, -2.0, 3.0])),
}


def _more_thuente():
    """The six line-search test functions of Moré & Thuente (1994), as
    ``(phi, dphi)`` pairs."""
    funcs = [
        (lambda a: -a / (a * a + 2.0), lambda a: (a * a - 2.0) / (a * a + 2.0) ** 2),
        (
            lambda a: (a + 0.004) ** 5 - 2 * (a + 0.004) ** 4,
            lambda a: (a + 0.004) ** 3 * (5 * (a + 0.004) - 8),
        ),
    ]
    b, l = 0.01, 39

    def phi3(a):
        base = 1 - a if a <= 1 - b else a - 1 if a >= 1 + b else (a - 1) ** 2 / (2 * b) + b / 2
        return base + 2 * (1 - b) / (l * np.pi) * np.sin(l * np.pi * a / 2)

    def dphi3(a):
        base = -1.0 if a <= 1 - b else 1.0 if a >= 1 + b else (a - 1) / b
        return base + (1 - b) * np.cos(l * np.pi * a / 2)

    funcs.append((phi3, dphi3))

    def gamma(t):
        return np.sqrt(1 + t * t) - t

    for b1, b2 in ((0.001, 0.001), (0.01, 0.001), (0.001, 0.01)):
        c1, c2 = gamma(b1), gamma(b2)
        funcs.append((
            lambda a, b1=b1, b2=b2, c1=c1, c2=c2:
                c1 * np.sqrt((1 - a) ** 2 + b2**2) + c2 * np.sqrt(a * a + b1 * b1),
            lambda a, b1=b1, b2=b2, c1=c1, c2=c2:
                c1 * (a - 1) / np.sqrt((1 - a) ** 2 + b2**2) + c2 * a / np.sqrt(a * a + b1 * b1),
        ))
    return funcs


MORE_THUENTE = _more_thuente()


class TestMinimize:
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    B = np.array([1.0, 2.0, 3.0, 4.0])

    def quadratic(self, x):
        return 0.5 * x @ self.A @ x - self.B @ x, self.A @ x - self.B, "extra"

    def test_a_convex_quadratic_converges_on_the_gradient(self):
        x, (f, g, extra), iterations, fevals, converged = nogo.minimize(
            self.quadratic, np.zeros(4), 100
        )
        assert converged and np.max(np.abs(g)) <= 1e-5
        assert 0 < iterations < fevals
        np.testing.assert_allclose(x, np.linalg.solve(self.A, self.B), atol=1e-5)
        # the evaluation handed back is the one at the point handed back
        assert (f, extra) == self.quadratic(x)[::2] and np.array_equal(g, self.quadratic(x)[1])

    def test_the_iteration_cap_stops_it_unconverged(self):
        _, (_, g, _), iterations, _, converged = nogo.minimize(self.quadratic, np.zeros(4), 3)
        assert (iterations, converged) == (3, False)
        assert np.max(np.abs(g)) > 1e-5

    def test_a_stationary_start_needs_no_iteration(self):
        x0 = np.linalg.solve(self.A, self.B)
        assert nogo.minimize(self.quadratic, x0, 100)[2:] == (0, 1, True)

    def test_it_is_deterministic(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=param_count(SWITCH, 1, 2))
        prepared = _prepare_samples(SWITCH, 2, draw_samples(SWITCH, 2, 4, rng))

        def negated(x):
            softmin, grad, fid = _objective(SWITCH, 1, 2, x, prepared)
            return -softmin, -grad, fid

        first, second = (nogo.minimize(negated, x0, 200) for _ in range(2))
        assert np.array_equal(first[0], second[0]) and first[2:] == second[2:]
        assert np.array_equal(first[1][2], second[1][2])

    @pytest.mark.parametrize("name", sorted(L_BFGS_B_PROBLEMS))
    def test_it_takes_l_bfgs_b_steps(self, name):
        # scipy's L-BFGS-B, unbounded at its defaults: the same iterations,
        # evaluations, outcome and end point
        fun, x0 = L_BFGS_B_PROBLEMS[name]
        ref = scipy_minimize(fun, x0, jac=True, method="L-BFGS-B")
        x, (f, _), iterations, fevals, converged = nogo.minimize(fun, x0, 15000)
        assert (iterations, fevals, converged) == (ref.nit, ref.nfev, ref.success)
        np.testing.assert_allclose(x, ref.x, rtol=1e-8, atol=1e-10)
        assert f == fun(x)[0]

    @pytest.mark.parametrize("k", range(6))
    def test_the_line_search_is_minpack_dcsrch(self, k):
        # scipy's Python port of the same MINPACK-2 routine, at L-BFGS-B's
        # tolerances, tries the same steps on the six test functions of
        # Moré & Thuente (1994) from initial steps over ten decades
        from scipy.optimize._dcsrch import DCSRCH

        phi, dphi = MORE_THUENTE[k]
        for first in (1e-5, 1e-3, 1e-2, 1e-1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e3, 1e5):
            ref, got = [], []
            search = DCSRCH(lambda t: ref.append(t) or phi(t), dphi, 1e-3, 0.9, 0.1, 0.0, 1e10)
            ref_step = search(first, phi(0.0), dphi(0.0), maxiter=20)[0]
            found = nogo._line_search(
                lambda t: got.append(t) or (phi(t), dphi(t), None), phi(0.0), dphi(0.0), first
            )
            assert got == ref
            if ref_step is not None:  # scipy's port returns no step on a warning
                assert found[0] == ref_step


class TestOracleSanity:
    def test_exact_for_generic_samples(self):
        assert oracle_sanity(sample_count=8, internal_dim=2, seed=7) >= 1 - 1e-10

    def test_degenerate_internal_dimension(self):
        # with d = 1 every unitary is a phase and control is trivial
        assert oracle_sanity(sample_count=4, internal_dim=1, seed=8) >= 1 - 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_scheme_scored_by_process_fidelity(self, d, monkeypatch):
        scored = []

        def spy(kind, scheme, bindings):
            value = real(kind, scheme, bindings)
            scored.append((kind, type(scheme).__name__, value))
            return value

        real = nogo._scheme_fidelity
        monkeypatch.setattr(nogo, "_scheme_fidelity", spy)
        worst = oracle_sanity(sample_count=3, internal_dim=d, seed=20 + d)
        assert {(kind, family) for kind, family, _ in scored} == {
            (CTRL_U, "Network"), (SWITCH, "Network"),
            (CTRL_U, "PulseSequence"), (SWITCH, "PulseSequence"),
        }
        assert len(scored) == 12
        assert worst == min(v for _, _, v in scored) >= 1 - 1e-10

    def test_logical_blocks_are_the_targets(self):
        rng = np.random.default_rng(31)
        uf, ug = haar_unitary(3, rng), haar_unitary(3, rng)
        block = nogo._logical_block(photonic.preset_ctrl_switch(3), {"Uf": uf, "Ug": ug})
        assert np.max(np.abs(block - target_unitary(SWITCH, {"Uf": uf, "Ug": ug}))) < 1e-12
        u = haar_unitary(2, rng)
        block = nogo._logical_block(ion.seq_ctrl_u(), {"U": u})
        assert np.max(np.abs(block - target_unitary(CTRL_U, {"U": u}))) < 1e-12

    @pytest.mark.parametrize("kind", [CTRL_U, SWITCH])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scheme_fidelity_is_the_reference_choi_score(self, kind, d, monkeypatch):
        # on any unitary block, not only the target, the overlap is the
        # reference's Choi score against its own written-out target; the
        # "scheme" here is the block itself
        monkeypatch.setattr(nogo, "_logical_block", lambda scheme, bindings: scheme)
        rng = np.random.default_rng(35)
        for bindings in draw_samples(kind, d, 4, rng):
            block = haar_unitary(2 * d, rng).entries
            want = process_fidelity(choi_of_unitary(block), target_unitary(kind, bindings))
            assert abs(nogo._scheme_fidelity(kind, block, bindings) - want) < 1e-15

    def test_miswired_schemes_score_below_one(self):
        # the device on the H arm realizes U (+) 1; an ion sequence without
        # its sideband swaps never moves the control into the mode, so the
        # carrier acts in both control branches: 1 x U
        space = photonic.PhotonicSpace(("u", "l"), 2)
        split = photonic.PBS(("u", "l"), ("u", "l"))
        wrong_arm = photonic.Network(space, (split, photonic.Device("u", "U"), split), "u", "u")
        no_swaps = ion.PulseSequence(
            [p for p in ion.seq_ctrl_u().pulses if not isinstance(p, ion.SidebandSwap)]
        )
        rng = np.random.default_rng(32)
        for _ in range(8):
            u = {"U": haar_unitary(2, rng)}
            assert nogo._scheme_fidelity(CTRL_U, photonic.preset_ctrl_u(2), u) >= 1 - 1e-10
            assert nogo._scheme_fidelity(CTRL_U, wrong_arm, u) < 0.9
            assert nogo._scheme_fidelity(CTRL_U, no_swaps, u) < 0.9
        x = {"U": Operator(X)}
        assert abs(nogo._scheme_fidelity(CTRL_U, wrong_arm, x)) < 1e-12  # |2 Re Tr X|^2 / 16
        assert abs(nogo._scheme_fidelity(CTRL_U, no_swaps, x) - 0.25) < 1e-12  # |Tr X + 2|^2 / 16


def _ablations(stages):
    """Each stage tuple with one position deleted, then with every
    element of one type deleted."""
    for i in range(len(stages)):
        yield f"position {i}", stages[:i] + stages[i + 1 :]
    for cls in sorted({type(s) for s in stages}, key=lambda c: c.__name__):
        yield f"every {cls.__name__}", tuple(s for s in stages if not isinstance(s, cls))


@pytest.mark.parametrize(
    "kind, build, unchanged",
    [
        (CTRL_U, lambda: photonic.preset_ctrl_u(2), ()),
        # its four half-wave plates flip the polarization on both arms
        # twice, so together they compose to the identity
        (SWITCH, lambda: photonic.preset_ctrl_switch(2), ("every HWP",)),
        (CTRL_U, ion.seq_ctrl_u, ()),
        (SWITCH, ion.seq_ctrl_switch, ()),
    ],
    ids=["ctrl-u", "ctrl-switch", "seq_ctrl_u", "seq_ctrl_switch"],
)
def test_every_element_is_needed(kind, build, unchanged):
    # a scheme missing any stage or pulse, or every element of one type,
    # either is rejected or misses the target on some Haar sample; the
    # ablations in ``unchanged`` leave its logical block as it was
    scheme = build()
    if isinstance(scheme, photonic.Network):
        stages = scheme.stages
        def rebuild(kept):
            return photonic.Network(scheme.space, kept, scheme.input_path, scheme.output_path)
    else:
        stages, rebuild = scheme.pulses, ion.PulseSequence
    samples = draw_samples(kind, 2, 8, np.random.default_rng(33))
    assert min(nogo._scheme_fidelity(kind, scheme, s) for s in samples) >= 1 - 1e-10
    for name, kept in _ablations(stages):
        try:
            ablated = rebuild(kept)
            worst = min(nogo._scheme_fidelity(kind, ablated, s) for s in samples)
        except (ValueError, KeyError):
            continue
        if name in unchanged:
            for b in samples:
                diff = nogo._logical_block(ablated, b) - nogo._logical_block(scheme, b)
                assert np.max(np.abs(diff)) < 1e-12, name
        else:
            assert worst < 0.9, name
