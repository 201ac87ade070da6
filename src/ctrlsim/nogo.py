"""Numerical falsification harness for fixed-circuit control.

The question under test: can a fixed circuit, with parametrized gates
surrounding single insertions of an unknown unitary (wired into the
circuit as a tensor-factor operation), reproduce the controlled
operation for every unknown?  The harness maximizes the worst-case
process fidelity over the circuit parameters and reports how close the
best circuit gets; the direct-sum constructions realized by the
photonic and ion schemes reach fidelity 1 on the same metric.

Circuit structures, on (ancilla a, control c = 2, system d) with the
ancilla prepared in |0> and traced out at the end:

* ``ctrl_u``:  B (1_ac x U) A          target  1_d (+) U
* ``switch``:  C (1_ac x Ug) B (1_ac x Uf) A   target  Ug Uf (+) Uf Ug

Matrix products above are written right to left (A acts first).  Any
fixed operation applied to the ancilla before trace-out drops out of
the induced channel, so it is not optimized over.

Choi convention: unnormalized, output factor first, columns flattened
in C order; the Choi matrix of a CPTP map on dimension D has trace D.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np
from scipy.linalg import block_diag, expm
from scipy.optimize import minimize

from . import ion, photonic
from .hilbert import Operator, haar_unitary

CTRL_U = "ctrl_u"
SWITCH = "switch"
KINDS = (CTRL_U, SWITCH)

# Byte budget for the largest intermediate array of one batched
# objective call.  Points beyond it are evaluated in chunks, so that a
# finite-difference gradient (about 400 MB in one batch at a=2, d=8)
# keeps a working set of a few times this size at any dimension.
_CHUNK_BYTES = 1 << 19


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def _n_slots(kind: str) -> int:
    return 2 if kind == CTRL_U else 3


def hermitian_from_params(vec: np.ndarray, dim: int) -> np.ndarray:
    """Real vector of length dim**2 to a Hermitian matrix.

    First ``dim`` entries fill the diagonal; the remaining pairs fill
    the real and imaginary parts of the strict upper triangle.  Leading
    axes of ``vec`` are batch axes: ``(..., dim**2)`` gives ``(...,
    dim, dim)``.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1:] != (dim * dim,):
        raise ValueError(f"expected {dim * dim} parameters, got {vec.shape}")
    re, im, sign = _generator_index(dim)
    h = np.empty(vec.shape, dtype=np.complex128)
    h.real = np.take(vec, re, axis=-1)
    h.imag = sign * np.take(vec, im, axis=-1)
    return h.reshape(*vec.shape[:-1], dim, dim)


@lru_cache(maxsize=None)
def _generator_index(dim: int) -> tuple[np.ndarray, ...]:
    """Gather indices of :func:`hermitian_from_params`, per matrix entry
    in C order: the parameter holding the real part, the one holding the
    imaginary part, and the sign of the imaginary part (0 on the
    diagonal, -1 below it)."""
    iu = np.triu_indices(dim, k=1)
    n_off = iu[0].size
    re = np.diag(np.arange(dim))
    im = np.zeros((dim, dim), dtype=re.dtype)
    sign = np.zeros((dim, dim))
    re[iu] = re.T[iu] = dim + np.arange(n_off)
    im[iu] = im.T[iu] = dim + n_off + np.arange(n_off)
    sign[iu], sign.T[iu] = 1.0, -1.0
    out = (re.reshape(-1), im.reshape(-1), sign.reshape(-1))
    for arr in out:
        arr.setflags(write=False)
    return out


@dataclass(frozen=True)
class ParamCircuit:
    """Fixed circuit skeleton with parametrized surrounding gates.

    Each slot gate is ``expm(i H)`` for a Hermitian generator ``H`` on
    the full (ancilla, control, system) space, so the parameter count
    is ``n_slots * (a * 2 * d)**2``.
    """

    kind: str
    ancilla_dim: int
    system_dim: int
    params: np.ndarray

    def __init__(self, kind: str, ancilla_dim: int, system_dim: int, params):
        _check_kind(kind)
        if ancilla_dim < 1 or system_dim < 1:
            raise ValueError("dimensions must be positive")
        params = np.array(params, dtype=float).reshape(-1)
        expected = _n_slots(kind) * (ancilla_dim * 2 * system_dim) ** 2
        if params.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got {params.shape[0]}")
        _require_finite(params)
        params.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ancilla_dim", int(ancilla_dim))
        object.__setattr__(self, "system_dim", int(system_dim))
        object.__setattr__(self, "params", params)

    @property
    def full_dim(self) -> int:
        return self.ancilla_dim * 2 * self.system_dim

    @property
    def cs_dim(self) -> int:
        return 2 * self.system_dim

    @cached_property
    def slot_matrices(self) -> tuple[np.ndarray, ...]:
        """Realized unitaries of the parametrized slots, in application
        order (first matrix acts first).

        Built one slot at a time with scipy's ``expm``: the reference
        the batched search kernel is tested against.
        """
        gens = hermitian_from_params(self.params.reshape(_n_slots(self.kind), -1), self.full_dim)
        return tuple(expm(1j * h) for h in gens)


def _require_finite(params: np.ndarray) -> None:
    if not np.isfinite(params).all():
        raise ValueError("search parameters must be finite")


def _slot_matrices(kind: str, full_dim: int, params: np.ndarray) -> np.ndarray:
    """Slot unitaries ``expm(i H)`` of parameter points ``(..., n)``, as
    an array ``(..., n_slots, D, D)`` in application order.

    All generators come from one gather and are exponentiated by one
    stacked Hermitian eigendecomposition, ``V e^{i w} V^dag``; scipy's
    ``expm`` in :attr:`ParamCircuit.slot_matrices` is the reference.
    """
    vec = np.reshape(params, (*np.shape(params)[:-1], _n_slots(kind), full_dim * full_dim))
    w, v = np.linalg.eigh(hermitian_from_params(vec, full_dim))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def param_count(kind: str, ancilla_dim: int, system_dim: int) -> int:
    return _n_slots(kind) * (ancilla_dim * 2 * system_dim) ** 2


def _oracle_entries(kind: str, oracle) -> tuple[np.ndarray, ...]:
    if kind == CTRL_U:
        if not isinstance(oracle, Operator):
            raise TypeError("ctrl_u expects a single Operator oracle")
        return (oracle.entries,)
    try:
        f, g = oracle
    except (TypeError, ValueError):
        raise TypeError("switch expects a pair of Operators") from None
    return (f.entries, g.entries)


def _circuit_unitary(pc: ParamCircuit, oracle) -> np.ndarray:
    """Total unitary on (a, c, s) with the oracle inserted as 1_ac x U."""
    entries = _oracle_entries(pc.kind, oracle)
    for u in entries:
        if u.shape != (pc.system_dim, pc.system_dim):
            raise ValueError(
                f"oracle dimension {u.shape[0]} does not match system dim {pc.system_dim}"
            )
    eye_ac = np.eye(pc.ancilla_dim * 2)
    slots = pc.slot_matrices
    if pc.kind == CTRL_U:
        a_mat, b_mat = slots
        (u,) = entries
        return b_mat @ np.kron(eye_ac, u) @ a_mat
    a_mat, b_mat, c_mat = slots
    uf, ug = entries
    return c_mat @ np.kron(eye_ac, ug) @ b_mat @ np.kron(eye_ac, uf) @ a_mat


def _choi_from_kraus(kraus: Sequence[np.ndarray], cs: int) -> np.ndarray:
    j = np.zeros((cs * cs, cs * cs), dtype=np.complex128)
    for k in kraus:
        v = k.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def realized_channel(pc: ParamCircuit, oracle) -> np.ndarray:
    """Choi matrix of the induced map on (control, system).

    The ancilla starts in |0> and is traced out after the circuit, so
    the channel's Kraus operators are the ancilla-output blocks of the
    total unitary.
    """
    total = _circuit_unitary(pc, oracle)
    a, cs = pc.ancilla_dim, pc.cs_dim
    t4 = total.reshape(a, cs, a, cs)
    kraus = [t4[m, :, 0, :] for m in range(a)]
    return _choi_from_kraus(kraus, cs)


def choi_of_unitary(u: Operator) -> np.ndarray:
    """Choi matrix of a unitary channel (rank one)."""
    v = u.entries.reshape(-1)
    return np.outer(v, v.conj())


def control_branches(kind: str, oracle) -> tuple[np.ndarray, np.ndarray]:
    """The two control-branch operators of the controlled target:
    ``(1, U)`` for ``ctrl_u`` and ``(Ug Uf, Uf Ug)`` for ``switch``.

    The controlled target applies the first to the system when the
    control is |0> and the second when it is |1>.
    """
    _check_kind(kind)
    entries = _oracle_entries(kind, oracle)
    if kind == CTRL_U:
        (u,) = entries
        return np.eye(u.shape[0]), u
    uf, ug = entries
    return ug @ uf, uf @ ug


def target_unitary(kind: str, oracle) -> Operator:
    """Controlled operation on (control, system) the circuit should
    reproduce: :func:`control_branches` as diagonal blocks."""
    return Operator(block_diag(*control_branches(kind, oracle)), tol=1e-8)


def process_fidelity(choi: np.ndarray, target: Operator) -> float:
    """Normalized Choi overlap with a target unitary channel.

    Equals ``|Tr(V^dag K)|^2 / D^2`` summed over Kraus terms; it is 1
    iff the channel is exactly the target unitary.
    """
    v = target.entries.reshape(-1)
    d2 = target.dim ** 2
    return float(np.real(v.conj() @ choi @ v)) / d2


def draw_samples(kind: str, system_dim: int, count: int, rng: np.random.Generator):
    """Haar sample set standing in for the unknown operations."""
    _check_kind(kind)
    if count < 1:
        raise ValueError("sample count must be positive")
    if kind == CTRL_U:
        return tuple(haar_unitary(system_dim, rng) for _ in range(count))
    return tuple(
        (haar_unitary(system_dim, rng), haar_unitary(system_dim, rng))
        for _ in range(count)
    )


def worst_case_fidelity(pc: ParamCircuit, samples) -> float:
    """Minimum process fidelity of the realized channel against the
    controlled target, over the sample set."""
    if not samples:
        raise ValueError("sample set must be non-empty")
    targets = [target_unitary(pc.kind, s) for s in samples]
    return min(
        process_fidelity(realized_channel(pc, s), t) for s, t in zip(samples, targets)
    )


def _prepare_samples(kind: str, ancilla_dim: int, samples):
    """Hoist the sample-dependent matrices out of the search loop.

    Returns the oracles stacked as ``(S, n_insertions, d, d)`` in
    insertion order and the conjugated targets flattened to
    ``(S, cs*cs)``.  The insertions act on each ancilla-control row
    block alike, so ``ancilla_dim`` does not enter.
    """
    if not samples:
        raise ValueError("sample set must be non-empty")
    oracles = np.stack([np.stack(_oracle_entries(kind, s)) for s in samples])
    targets = np.stack([target_unitary(kind, s).entries.reshape(-1).conj() for s in samples])
    return oracles, targets


def _worst_case_from_slots(kind, ancilla_dim, system_dim, slots, prepared):
    """Same value as :func:`worst_case_fidelity`, for every point of a
    batch of slot unitaries ``(..., n_slots, D, D)``.

    Only the columns of ancilla input |0> are propagated, for all
    samples side by side as ``(..., D, S*cs)``.  Each insertion
    ``1_ac x U`` is a matmul on the rows regrouped to ``(..., S, d,
    2a*cs)``.  Returns the minimum over samples, shape ``(...)``.
    """
    oracles, targets = prepared
    a, d = ancilla_dim, system_dim
    cs, blocks, n_samples = 2 * d, 2 * a, len(oracles)
    batch = slots.shape[:-3]
    n_insertions = oracles.shape[1]
    # the input columns are the same for every sample, so the first
    # insertion multiplies them by all oracles stacked as rows (S*d, d)
    cols = slots[..., 0, :, :cs].reshape(*batch, blocks, d, cs).swapaxes(-3, -2)
    rows = oracles[:, 0].reshape(n_samples * d, d) @ cols.reshape(*batch, d, blocks * cs)
    for k in range(1, n_insertions + 1):
        # rows (..., S, d, 2a*cs) -> columns (..., D, S*cs), then slot k
        rows = rows.reshape(*batch, n_samples, d, blocks, cs).swapaxes(-4, -2)
        cols = slots[..., k, :, :] @ rows.reshape(*batch, blocks * d, n_samples * cs)
        if k < n_insertions:  # back to rows for the next insertion, per sample
            rows = cols.reshape(*batch, blocks, d, n_samples, cs).swapaxes(-4, -2)
            rows = oracles[:, k] @ rows.reshape(*batch, n_samples, d, blocks * cs)
    # Kraus operator m of sample s is cols[(m, i), (s, j)]
    kraus = cols.reshape(*batch, a, cs, n_samples, cs).swapaxes(-4, -2).swapaxes(-3, -2)
    kraus = kraus.reshape(*batch, n_samples, a, cs * cs)
    overlaps = np.sum(kraus * targets[:, None, :], axis=-1)  # (..., S, a)
    fid = np.sum(np.abs(overlaps) ** 2, axis=-1) / (cs * cs)
    return np.min(fid, axis=-1)


def _worst_case(kind: str, ancilla_dim: int, system_dim: int, params, prepared) -> np.ndarray:
    """Search objective: the worst-case process fidelity of each
    parameter point ``(..., n)``, as an array ``(...)``.

    Points are evaluated in chunks whose largest intermediate stays
    within ``_CHUNK_BYTES``.
    """
    params = np.asarray(params, dtype=float)
    _require_finite(params)
    full_dim = ancilla_dim * 2 * system_dim
    n = params.shape[-1]
    flat = params.reshape(-1, n)
    oracles, _ = prepared
    # per point, the larger of its slot gates and its propagated columns
    point_bytes = 16 * full_dim * max(_n_slots(kind) * full_dim, len(oracles) * 2 * system_dim)
    chunk = max(1, _CHUNK_BYTES // point_bytes)
    out = np.empty(len(flat))
    for start in range(0, len(flat), chunk):
        part = flat[start : start + chunk]
        slots = _slot_matrices(kind, full_dim, part)
        out[start : start + chunk] = _worst_case_from_slots(
            kind, ancilla_dim, system_dim, slots, prepared
        )
    return out.reshape(params.shape[:-1])


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the multi-restart search.  All randomness derives from
    ``seed``; restart r uses the stream seeded by (seed, r)."""

    restarts: int = 20
    max_iters: int = 1500
    sample_count: int = 16
    seed: int = 0
    system_dim: int = 2
    ancilla_dim: int = 2
    f_tol: float = 1e-12
    x_tol: float = 1e-10
    fd_step: float = 1e-6
    polish_steps: int = 25

    def __post_init__(self):
        for name in ("restarts", "max_iters", "sample_count", "system_dim", "ancilla_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class RestartResult:
    seed: tuple[int, int]
    value: float
    iterations: int
    fevals: int
    converged: bool


@dataclass(frozen=True)
class SearchReport:
    kind: str
    dims: dict
    config: SearchConfig
    best_worst_case_fidelity: float
    per_restart: tuple[RestartResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dims": self.dims,
            "config": asdict(self.config),
            "best_worst_case_fidelity": self.best_worst_case_fidelity,
            "restarts": [
                {
                    "seed": list(r.seed),
                    "value": r.value,
                    "iterations": r.iterations,
                    "fevals": r.fevals,
                    "converged": r.converged,
                }
                for r in self.per_restart
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _fd_gradient(f, x: np.ndarray, step: float) -> np.ndarray:
    """Forward-difference gradient of a batched objective ``f``, which
    maps points ``(m, n)`` to values ``(m,)``.

    ``x`` and its ``n`` shifted copies go to ``f`` in one call, or in
    blocks of ``_CHUNK_BYTES`` when the points alone would exceed it.
    """
    n = x.size
    block = max(1, _CHUNK_BYTES // (8 * n))
    values = np.empty(n + 1)
    for start in range(0, n + 1, block):
        rows = np.arange(start, min(start + block, n + 1))
        points = np.tile(x, (rows.size, 1))
        shifted = rows > 0
        points[shifted, rows[shifted] - 1] += step
        values[rows] = f(points)
    return (values[1:] - values[0]) / step


def _fd_polish(f, x: np.ndarray, steps: int, fd_step: float, f_tol: float):
    """Finite-difference ascent from a simplex result, on a batched
    objective ``f`` (see :func:`_fd_gradient`).

    Backtracking line search along the gradient; stops when no trial
    step improves the objective by more than ``f_tol``.
    """
    best = float(f(x))
    fevals = 1
    iters = 0
    for _ in range(steps):
        grad = _fd_gradient(f, x, fd_step)
        fevals += x.size + 1
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break
        direction = grad / norm
        improved = False
        for scale in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003):
            trial = x + scale * direction
            val = float(f(trial))
            fevals += 1
            if val > best + f_tol:
                x, best = trial, val
                improved = True
                break
        iters += 1
        if not improved:
            break
    return x, best, iters, fevals


def optimize(kind: str, config: SearchConfig, samples=None) -> SearchReport:
    """Multi-restart maximization of the worst-case process fidelity.

    A fixed sample set is drawn once from the seed (or supplied
    explicitly for known-oracle control runs).  Restart 0 starts from
    zero parameters (identity slots); later restarts start from random
    Gaussian parameters.  Each restart runs a Nelder-Mead ascent
    followed by a short finite-difference polish.  Non-convergence is
    reported per restart, never raised.

    The objective is one batched kernel: slot gates from one stacked
    Hermitian eigendecomposition, all samples contracted at once, and
    each polish gradient evaluated in a single call.  ``ParamCircuit``
    with :func:`worst_case_fidelity` computes the same value through
    scipy's ``expm`` and is the reference the kernel is tested against.
    """
    _check_kind(kind)
    d, a = config.system_dim, config.ancilla_dim
    if samples is None:
        sample_rng = np.random.default_rng(config.seed)
        samples = draw_samples(kind, d, config.sample_count, sample_rng)
    n = param_count(kind, a, d)
    prepared = _prepare_samples(kind, a, samples)

    def objective(x: np.ndarray) -> np.ndarray:
        return _worst_case(kind, a, d, x, prepared)

    results: list[RestartResult] = []
    best_val = -np.inf
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        x0 = np.zeros(n) if r == 0 else rng.normal(0.0, 0.7, size=n)
        res = minimize(
            lambda x: -float(objective(x)),
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iters,
                "maxfev": 2 * config.max_iters,
                "fatol": config.f_tol,
                "xatol": config.x_tol,
            },
        )
        x_best, value, extra_iters, extra_fevals = _fd_polish(
            objective, np.array(res.x), config.polish_steps, config.fd_step, config.f_tol
        )
        results.append(
            RestartResult(
                seed=(config.seed, r),
                value=float(value),
                iterations=int(res.nit) + extra_iters,
                fevals=int(res.nfev) + extra_fevals,
                converged=bool(res.success),
            )
        )
        best_val = max(best_val, value)

    return SearchReport(
        kind=kind,
        dims={"ancilla": a, "control": 2, "system": d},
        config=config,
        best_worst_case_fidelity=float(best_val),
        per_restart=tuple(results),
    )


def logical_map(scheme, fock_cutoff: int = 3) -> tuple:
    """How a photonic network or an ion pulse sequence meets the logical
    (control, system) space: ``(dim, make_input, place_out, propagate)``.

    ``dim`` is the system dimension, ``make_input(control_amps,
    system_amps)`` the input state, ``place_out(vector)`` puts a logical
    vector of length ``2 * dim`` on the output side, and
    ``propagate(input, bindings, rng=None)`` returns the outcome.  A
    photon enters and leaves on the network's input and output paths;
    the ions carry the logical qubits with the mode, truncated at
    ``fock_cutoff``, in n = 0, and their final ket is a ``PureOutcome``.
    """
    if isinstance(scheme, photonic.Network):
        space = scheme.space
        return (
            space.internal_dim,
            partial(photonic.photon_input, space, scheme.input_path),
            partial(photonic.place_on_path, space, scheme.output_path),
            partial(photonic.propagate, scheme),
        )
    space = ion.TrapSpace(fock_cutoff=fock_cutoff)

    def propagate(init, bindings, rng=None):
        return photonic.PureOutcome(ion.run_sequence(scheme, init, bindings, space=space)[0])

    return 2, partial(ion.ion_input, space), partial(ion.place_logical, space), propagate


def _logical_block(scheme, bindings) -> np.ndarray:
    """A scheme's restriction to the logical (control, system) space, as
    a ``2d x 2d`` matrix: column ``(c, s)`` is the logical output of the
    logical basis input ``|c>|s>``."""
    dim, make_input, place_out, propagate = logical_map(scheme)
    outputs = np.array([
        propagate(make_input(c, s), bindings).state.amps for c in np.eye(2) for s in np.eye(dim)
    ])
    readout = np.array([place_out(e).amps for e in np.eye(2 * dim)])
    return readout.conj() @ outputs.T


def _scheme_fidelity(kind: str, scheme, oracle) -> float:
    """Process fidelity of a scheme's logical block against
    :func:`target_unitary`, with its slots bound to ``oracle``."""
    bindings = {"U": oracle} if kind == CTRL_U else dict(zip(("Uf", "Ug"), oracle))
    block = Operator(_logical_block(scheme, bindings), claims_unitary=False)
    return process_fidelity(choi_of_unitary(block), target_unitary(kind, oracle))


def oracle_sanity(sample_count: int = 32, internal_dim: int = 2, seed: int = 1234) -> float:
    """Minimum process fidelity of the photonic and ion constructions.

    For each sample, the photonic control and order-control networks at
    ``internal_dim`` and both ion sequences (qubit system) are bound to
    fresh Haar unitaries and scored by :func:`_scheme_fidelity`, the same
    metric the search maximizes.  The direct-sum realizations are exact,
    so the result must be 1 up to rounding.
    """
    rng = np.random.default_rng(seed)
    schemes = (
        (CTRL_U, internal_dim, photonic.preset_ctrl_u(internal_dim)),
        (SWITCH, internal_dim, photonic.preset_ctrl_switch(internal_dim)),
        (CTRL_U, 2, ion.seq_ctrl_u()),
        (SWITCH, 2, ion.seq_ctrl_switch()),
    )
    worst = 1.0
    for _ in range(sample_count):
        for kind, d, scheme in schemes:
            (oracle,) = draw_samples(kind, d, 1, rng)
            worst = min(worst, _scheme_fidelity(kind, scheme, oracle))
    return worst
