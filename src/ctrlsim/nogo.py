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
the induced channel, so it is not optimized over.  :data:`TASKS` holds
the two structures as table rows, and the unknown operations are always
``{slot: Operator}`` bindings, the form the photonic and ion schemes
take.  :func:`_prepare_samples` alone assembles the targets; ``ctrlsim
run`` and the scheme scorer read one binding's by :func:`controlled_target`.

One kernel, :func:`_objective`, computes the search's fidelities and
gradient with matmuls alone, in a value pass and a gradient pass run
only on request: the samples are the rows of one state matrix, and
:func:`_prepare_samples` builds every sample's matrices once per
search.  One cached map per dimension, :func:`_generator_map`, takes
parameters to Hermitian generators, and its transpose takes the
gradient pass back onto the parameters.  ``tests/reference.py``
composes the same circuit one sample at a time with scipy's ``expm``
and is the independent check on it.

Each restart maximizes the softmin with :func:`minimize`, a numpy
L-BFGS with L-BFGS-B's memory and stopping tests and a bisection line
search on the weak Wolfe conditions.  Both call one function,
``fun(point) -> (value, gradient, *extra)``; :func:`_line_search`
evaluates its trial points itself and skips the gradient pass at a
trial that fails sufficient decrease.  The package needs numpy alone:
scipy is imported only by :func:`expm`, which nothing in the package
calls, and by the tests, which check the kernel against it and compare
:func:`minimize`'s end points with scipy's L-BFGS-B.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial, reduce

import numpy as np

from . import ion, photonic
from .hilbert import (
    DEFAULT_TOL,
    _as_int,
    _haar_operators,
    _slot_binding,
    _unitary_deviation,
    haar_unitary,  # unused here; the benchmark's span tracer wraps nogo.haar_unitary
)

CTRL_U = "ctrl_u"
SWITCH = "switch"

# Per kind: the slots a fixed circuit inserts, in circuit order, and per
# control value the slots the target applies to the system, first-acting
# first.
TASKS = {
    CTRL_U: (("U",), ((), ("U",))),
    SWITCH: (("Uf", "Ug"), (("Uf", "Ug"), ("Ug", "Uf"))),
}

# Temperature of the softmin that smooths the minimum over samples in
# the search objective: the softmin lies within log(S) / 30 below the
# minimum of S samples, and its gradient weights the samples near it.
_SOFTMIN_BETA = 30.0

# L-BFGS as constants: the memory, the line search's sufficient-decrease
# and curvature tolerances and its evaluation cap, the two convergence
# tests (projected-gradient tolerance, and factr = 1e7 times the machine
# epsilon on the relative decrease, L-BFGS-B's defaults) and the run's
# evaluation cap.
_LBFGS_MEMORY = 10
_LS_FTOL, _LS_GTOL = 1e-3, 0.9
_LS_MAX_EVALS = 20
_PGTOL = 1e-5
_MAX_FEVALS = 15000
_EPS = float(np.finfo(float).eps)
_REL_DECREASE = 1e7 * _EPS


def expm(a: np.ndarray) -> np.ndarray:
    """scipy's ``expm``, imported on the first call.

    Nothing in the package calls it; it stays only because the
    benchmark's span tracer (``perfbench/spans.py``) wraps
    ``nogo.expm`` by name.  It can go when that span does.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _line_search(fun, x, d, f0, g0, stp):
    """Bisection on the weak Wolfe conditions (Lewis & Overton, Math.
    Program. 141, 2013) along ``x + t d``, from the first trial step ``stp``.

    ``fun`` is :func:`minimize`'s: each trial evaluates ``fun(x + stp *
    d)``, and only a trial whose value meets sufficient decrease against
    ``f0`` and the slope ``g0 = g.d < 0`` at 0 runs its ``gradient()``.  A
    trial that fails it (a NaN value fails too) becomes the upper end of
    the bracket, one whose slope ``gradient.d`` is still below ``_LS_GTOL *
    g0`` its lower end (a NaN slope is not, so it ends the search); the
    step doubles until an upper end is found, then bisects.  Returns
    ``(found, evals)``: ``found`` is ``(step, point, (value, gradient
    array, *extra))`` at the first trial that meets both conditions, or
    None after ``_LS_MAX_EVALS`` trials, and ``evals`` counts the calls of
    ``fun``.
    """
    lo, hi = 0.0, math.inf
    for evals in range(1, _LS_MAX_EVALS + 1):
        point = x + stp * d
        value, gradient, *extra = fun(point)
        if not value <= f0 + _LS_FTOL * stp * g0:
            hi = stp
        else:
            now = (value, gradient(), *extra)
            if now[1].dot(d) < _LS_GTOL * g0:
                lo = stp
            else:
                return (stp, point, now), evals
        stp = (lo + hi) / 2 if hi < math.inf else 2 * stp
    return None, _LS_MAX_EVALS


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """``-H g`` by the two-loop recursion over the stored ``(s, y, 1 / s.y)``
    pairs, oldest first, with ``H0 = (s.y / y.y) I`` from the newest."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * s.dot(q))
        q -= alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        q /= rho * y.dot(y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * y.dot(q)) * s
    return q


def minimize(fun, x0: np.ndarray, max_iters: int):
    """Minimize ``fun`` from ``x0`` by L-BFGS, with the memory and the
    stopping tests of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) at scipy's
    defaults and the weak-Wolfe bisection of :func:`_line_search`.

    ``fun(x)`` returns ``(value, gradient, *extra)``, where ``gradient()``
    returns the gradient at ``x``.  :func:`minimize` calls it once at the
    start point, and :func:`_line_search` at each trial point, which alone
    decides when ``gradient()`` runs: at the start point and at each trial
    that meets sufficient decrease, never at a trial that fails it.  The
    direction is ``-H g`` from the last ``_LBFGS_MEMORY`` pairs; the first
    line search starts at step ``1 / |d|``, later ones at 1.  A pair whose
    ``s.y`` is not above ``eps * (-g.s)`` is not stored.  A failed line
    search restarts from the last point with an empty memory, or ends the
    run when the memory is already empty.  The run converges when
    ``max|g| <= _PGTOL`` or the relative decrease of an iteration is at
    most ``_REL_DECREASE``, and stops unconverged after ``max_iters``
    iterations.

    Returns ``(x, evaluation, iterations, fevals, converged)``, where
    ``evaluation`` is ``(value, gradient array, *extra)`` at the point
    ``x`` it ends on, so the caller never evaluates that point again, and
    ``fevals`` counts the calls of ``fun``.
    """
    x = np.array(x0, dtype=float)
    value, gradient, *extra = fun(x)
    now, fevals = (value, gradient(), *extra), 1
    if np.abs(now[1]).max() <= _PGTOL:
        return x, now, 0, fevals, True
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_LBFGS_MEMORY)
    iterations = 0
    while True:
        f, g = now[0], now[1]
        d = _lbfgs_direction(g, pairs)
        slope = g.dot(d)
        step = 1.0 / np.linalg.norm(d) if iterations == 0 else 1.0
        found, evals = _line_search(fun, x, d, f, slope, step) if slope < 0 else (None, 0)
        fevals += evals
        if found is None:
            if not pairs:
                return x, now, iterations, fevals, False
            pairs.clear()
            continue
        step, x, now = found
        iterations += 1
        if iterations >= max_iters or fevals > _MAX_FEVALS:
            return x, now, iterations, fevals, False
        if np.abs(now[1]).max() <= _PGTOL:
            return x, now, iterations, fevals, True
        if f - now[0] <= _REL_DECREASE * max(abs(f), abs(now[0]), 1.0):
            return x, now, iterations, fevals, True
        s, y = step * d, now[1] - g
        sy = s.dot(y)
        if sy > _EPS * -(step * slope):
            pairs.append((s, y, 1.0 / sy))


def _check_kind(kind: str) -> str:
    if kind not in TASKS:
        raise ValueError(f"kind must be one of {tuple(TASKS)}, got {kind!r}")
    return kind


def _n_slots(kind: str) -> int:
    return len(TASKS[kind][0]) + 1


@lru_cache(maxsize=None)
def _generator_map(dim: int) -> np.ndarray:
    """The map from a real parameter vector of length ``dim**2`` to a
    Hermitian generator, as a read-only real matrix ``to_h``.

    ``basis[p]`` is the generator of the unit vector ``e_p``: the first
    ``dim`` parameters fill the diagonal, the rest the real and then the
    imaginary parts of the strict upper triangle, in ``np.triu_indices``
    order.  ``(vec @ to_h).view(complex128)`` is the flattened generator
    of ``vec``; for a flattened complex ``c``, ``((-2j * c).view(float64)
    @ to_h.T)[p]`` is ``2 Re sum(conj(c) * 1j * basis[p])``.  Every entry
    is 0 or ±1, two nonzeros a row at most: both products are exact.
    """
    rows, cols = np.triu_indices(dim, k=1)
    re = dim + np.arange(rows.size)
    im = re + rows.size
    basis = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    basis[range(dim), range(dim), range(dim)] = 1
    basis[re, rows, cols] = basis[re, cols, rows] = 1
    basis.imag[im, rows, cols], basis.imag[im, cols, rows] = 1, -1
    to_h = basis.reshape(dim * dim, -1).view(np.float64)
    to_h.setflags(write=False)
    return to_h


def _require_finite(params: np.ndarray) -> None:
    if not np.isfinite(params).all():
        raise ValueError("search parameters must be finite")


def _slot_matrices(kind: str, full_dim: int, params: np.ndarray):
    """Slot unitaries ``expm(i H)`` of parameter points ``(..., n)`` and
    the eigendecomposition they come from: ``(w, V, gates)`` with
    ``gates = V e^{i w} V^dag`` of shape ``(..., n_slots, D, D)`` in
    application order.

    All generators come from one product with the cached generator map
    and one stacked Hermitian eigendecomposition; ``tests/reference.py``
    builds the same gates one at a time with scipy's ``expm`` as the
    check on it.
    """
    vec = np.reshape(params, (*np.shape(params)[:-1], _n_slots(kind), full_dim * full_dim))
    gens = (vec @ _generator_map(full_dim)).view(np.complex128)
    w, v = np.linalg.eigh(gens.reshape(*vec.shape[:-1], full_dim, full_dim))
    return w, v, (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def param_count(kind: str, ancilla_dim: int, system_dim: int) -> int:
    return _n_slots(kind) * (ancilla_dim * 2 * system_dim) ** 2


def controlled_target(kind: str, bindings) -> np.ndarray:
    """The controlled target ``T`` of one binding, ``1 (+) U`` or ``Ug Uf
    (+) Uf Ug``: the one-sample case of :func:`_prepare_samples`, with its
    slot and unitarity checks, at the dimension of the first slot's binding."""
    slots = TASKS[_check_kind(kind)][0]
    dim = getattr((bindings or {}).get(slots[0]), "dim", None)
    return _prepare_samples(kind, dim, (bindings,))[1][0].conj().T


def draw_samples(kind: str, system_dim: int, count: int, rng: np.random.Generator):
    """Haar sample set standing in for the unknown operations: ``count``
    bindings of the kind's slots, drawn in slot order from one stacked
    draw, the same matrices as one :func:`haar_unitary` per slot per
    sample.  Each binding is an :class:`Operator`; the ``(count, n_slots,
    d, d)`` stack passes one unitarity check for all of them."""
    slots = TASKS[_check_kind(kind)][0]
    if _as_int("count", count) < 1:
        raise ValueError("sample count must be positive")
    ops = iter(_haar_operators((count, len(slots)), system_dim, rng))
    return tuple({s: next(ops) for s in slots} for _ in range(count))


def _prepare_samples(kind: str, dim: int, samples):
    """Hoist the sample-dependent matrices out of the search loop; every
    binding passes the schemes' slot check here, once per search.

    Returns the layouts :func:`_objective` reads: the bound slots as
    ``(n_insertions, S, d, d)``, one contiguous stack per insertion in
    insertion order, and the adjoints ``T^dag`` of the controlled targets
    ``T`` as ``(S, cs, cs)``.  This is the only place branch products are
    formed and ``T`` is assembled, for all samples at once: per control
    value, the stacked oracles' product over its order in :data:`TASKS`,
    first-acting rightmost, goes into its diagonal block of one zeroed
    array, and the stack passes one unitarity check at ``DEFAULT_TOL``.
    """
    if not samples:
        raise ValueError("sample set must be non-empty")
    slots, orders = TASKS[kind]
    bound = np.array([[_slot_binding(s, slot, dim) for slot in slots] for s in samples])
    oracles = np.ascontiguousarray(bound.swapaxes(0, 1))
    targets = np.zeros((len(samples), 2 * dim, 2 * dim), dtype=np.complex128)
    for c, order in enumerate(orders):
        factors = [oracles[slots.index(slot)] for slot in order]
        branch = reduce(lambda m, u: u @ m, factors) if factors else np.eye(dim)
        targets[:, c * dim : (c + 1) * dim, c * dim : (c + 1) * dim] = branch
    dev = _unitary_deviation(targets)
    if not dev <= DEFAULT_TOL:  # written to fail on NaN
        raise ValueError(f"control target deviates from unitary by {dev:.3e} (tol {DEFAULT_TOL})")
    return oracles, np.ascontiguousarray(targets.conj().swapaxes(-1, -2))


def _objective(kind: str, ancilla_dim: int, system_dim: int, x, prepared):
    """Search objective at one parameter point ``x``: ``(softmin,
    gradient, fidelities)`` from the value pass, where ``gradient()`` runs
    the gradient pass and returns the exact gradient of ``softmin`` in ``x``.

    ``fidelities`` are the per-sample process fidelities of the realized
    channel against the targets of :func:`_prepare_samples`, which
    ``tests/reference.py`` recomputes from a basis-enumeration Choi
    matrix; ``softmin`` smooths their minimum at temperature
    ``_SOFTMIN_BETA``.

    Every contraction is a matmul.  Only the ancilla-|0> columns are
    propagated, for all samples at once, as the rows of one
    ``(S cs, D)`` state matrix: row (sample, input column), column
    (block, system).  A slot is ``rows @ G^T`` and an insertion
    ``1_ac x O`` is ``rows.reshape(S, cs 2a, d) @ O^T`` per sample, except
    the first: its input is the same for all samples, so it is one GEMM
    ``(cs 2a, d) @ (d, S d)`` against every oracle side by side.  The
    input of each slot is kept.  The gradient pass carries the conjugate
    of the adjoint rows, so it runs back through ``G`` and ``O``
    themselves, and the first insertion's adjoint is one GEMM ``(cs 2a,
    S d) @ (S d, d)`` that also sums over the samples.  It reaches the
    generators through the eigendecomposition of the slot gates: for
    ``S = V e^{iw} V^dag``, ``dS = V (Phi o V^dag i dH V) V^dag`` with
    ``Phi_jk = e^{i(w_j+w_k)/2} sin(x_jk) / x_jk``, ``x_jk = (w_j - w_k) /
    2``, and ``sin(x) / x`` read as 1 at ``x = 0``, which holds at
    degenerate spectra too.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n := param_count(kind, ancilla_dim, system_dim),):
        raise ValueError(f"expected {n} search parameters for {kind}, got shape {x.shape}")
    _require_finite(x)
    oracles, targets_dag = prepared
    d, cs, n_samples = system_dim, 2 * system_dim, len(targets_dag)
    full_dim, width = ancilla_dim * cs, 2 * ancilla_dim * cs
    first = oracles[0].reshape(-1, d)  # row (sample, i): O_sample[i]
    w, v, slots = _slot_matrices(kind, full_dim, x)
    n_slots = len(slots)

    # forward: the input of slot k >= 1 is the output of insertion k
    rows = slots[0, :, :cs].T.reshape(width, d) @ first.T
    inputs = [rows.reshape(width, n_samples, d).swapaxes(0, 1).reshape(-1, full_dim)]
    rows = inputs[0] @ slots[1].T
    for k in range(2, n_slots):
        rows = rows.reshape(n_samples, width, d) @ oracles[k - 1].swapaxes(-1, -2)
        inputs.append(rows.reshape(-1, full_dim))
        rows = inputs[-1] @ slots[k].T
    # Kraus operator m of sample s is rows[(s, j), (m, i)] at entry (i, j),
    # so its overlap with the target is one product with T^dag
    kraus_t = rows.reshape(n_samples, cs, ancilla_dim, cs).transpose(0, 2, 1, 3)
    overlaps = kraus_t.reshape(n_samples, ancilla_dim, -1) @ targets_dag.reshape(n_samples, -1, 1)
    overlaps = overlaps[..., 0]
    fid = (np.abs(overlaps) ** 2).sum(axis=-1) / (cs * cs)
    low = fid.min()
    weights = np.exp(-_SOFTMIN_BETA * (fid - low))
    total = weights.sum()
    softmin = low - np.log(total) / _SOFTMIN_BETA

    def gradient():
        # adjoint, conjugated: mu is conj(dF/d conj(rows)), and
        # grads[k] is conj(dF/d conj(slot k)) until the last line
        coef = (weights / (total * cs * cs))[:, None] * overlaps.conj()
        mu = (coef[:, None, :, None] * targets_dag[:, :, None, :]).reshape(-1, full_dim)
        grads = np.zeros(slots.shape, dtype=slots.dtype)
        for k in range(n_slots - 1, 1, -1):
            grads[k] = mu.T @ inputs[k - 1]
            mu = (mu @ slots[k]).reshape(n_samples, width, d) @ oracles[k - 1]
            mu = mu.reshape(-1, full_dim)
        grads[1] = mu.T @ inputs[0]
        mu = (mu @ slots[1]).reshape(n_samples, width, d).swapaxes(0, 1).reshape(width, -1) @ first
        grads[0, :, :cs] = mu.reshape(cs, full_dim).T
        grads = grads.conj()

        # through the eigendecomposition to the Hermitian generators
        vh = v.conj().swapaxes(-1, -2)
        half = np.exp(-0.5j * w)
        phi_conj = half[:, :, None] * half[:, None, :]
        gap = (w[:, :, None] - w[:, None, :]) / 2
        phi_conj *= np.divide(np.sin(gap), gap, out=np.ones(gap.shape), where=gap != 0)
        c = (v @ (phi_conj * (vh @ grads @ v)) @ vh).reshape(n_slots, -1)
        return ((-2j * c).view(np.float64) @ _generator_map(full_dim).T).reshape(-1)

    return softmin, gradient, fid


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the multi-restart search: ``restarts`` L-BFGS runs of
    at most ``max_iters`` iterations each, on ``sample_count`` Haar
    samples at the given dimensions.  All randomness derives from
    ``seed``; restart r uses the stream seeded by (seed, r)."""

    restarts: int = 20
    max_iters: int = 1500
    sample_count: int = 16
    seed: int = 0
    system_dim: int = 2
    ancilla_dim: int = 2

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, _as_int(name, value))
        for name in ("restarts", "max_iters", "sample_count", "system_dim", "ancilla_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


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
    restarts: tuple[RestartResult, ...]

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def optimize(kind: str, config: SearchConfig, samples=None) -> SearchReport:
    """Multi-restart maximization of the worst-case process fidelity.

    A fixed sample set of slot bindings is drawn once from the seed (or
    supplied as any iterable, e.g. a known oracle or a phase-closed set).
    Restart 0 starts from zero parameters (identity slots); later
    restarts start from random Gaussian parameters.  Each restart is one
    :func:`minimize` run on :func:`_objective`, the softmin over samples
    with its exact gradient, of at most ``config.max_iters`` iterations.
    Its reported value is the true minimum over samples at the point the
    run ends on, read from the evaluation there, and its iteration and
    evaluation counts and convergence flag are the run's.
    Non-convergence is reported per restart, never raised.  The report's
    ``config.sample_count`` is the number of samples scored, also when
    they are supplied.
    """
    _check_kind(kind)
    d, a = config.system_dim, config.ancilla_dim
    if samples is None:
        samples = draw_samples(kind, d, config.sample_count, np.random.default_rng(config.seed))
    samples = tuple(samples)
    n = param_count(kind, a, d)
    prepared = _prepare_samples(kind, d, samples)
    config = replace(config, sample_count=len(samples))

    def negated(x: np.ndarray):
        softmin, gradient, fid = _objective(kind, a, d, x, prepared)
        return -softmin, lambda: -gradient(), fid

    results: list[RestartResult] = []
    for r in range(config.restarts):
        x0 = np.random.default_rng((config.seed, r)).normal(0.0, 0.7, size=n) if r else np.zeros(n)
        _, (_, _, fid), iterations, fevals, converged = minimize(negated, x0, config.max_iters)
        results.append(
            RestartResult(
                seed=(config.seed, r),
                value=float(fid.min()),
                iterations=iterations,
                fevals=fevals,
                converged=converged,
            )
        )

    return SearchReport(
        kind=kind,
        dims={"ancilla": a, "control": 2, "system": d},
        config=config,
        best_worst_case_fidelity=max(r.value for r in results),
        restarts=tuple(results),
    )


def logical_map(scheme, fock_cutoff: int = 3) -> tuple:
    """How a photonic network or an ion pulse sequence meets the logical
    (control, system) space: ``(dim, place_in, place_out, propagate)``.

    ``dim`` is the system dimension; ``place_in(vector)`` and
    ``place_out(vector)`` put a logical vector of length ``2 * dim``
    (control index slowest) on the input and the output side, and
    ``propagate(input, bindings)`` returns the outcome.  A photon enters
    and leaves on the network's input and output paths; the ions carry
    the logical qubits on both sides with the mode, truncated at
    ``fock_cutoff``, in n = 0, and their final ket is a ``PureOutcome``.
    """
    if isinstance(scheme, photonic.Network):
        space = scheme.space
        return (
            space.internal_dim,
            partial(photonic.place_on_path, space, scheme.input_path),
            partial(photonic.place_on_path, space, scheme.output_path),
            partial(photonic.propagate, scheme),
        )
    space = ion.TrapSpace(fock_cutoff=fock_cutoff)

    def propagate(init, bindings):
        return photonic.PureOutcome(ion.run_sequence(scheme, init, bindings, space=space)[0])

    place = partial(ion.place_logical, space)
    return 2, place, place, propagate


def _logical_block(scheme, bindings) -> np.ndarray:
    """A scheme's restriction to the logical (control, system) space, as
    a ``2d x 2d`` matrix: column ``k`` is the logical output of the
    logical basis input ``k = d c + s``."""
    dim, place_in, place_out, propagate = logical_map(scheme)
    basis = np.eye(2 * dim)
    outputs = np.array([propagate(place_in(e), bindings).state.amps for e in basis])
    readout = np.array([place_out(e).amps for e in basis])
    return readout.conj() @ outputs.T


def _scheme_fidelity(kind: str, scheme, bindings) -> float:
    """Process fidelity of a scheme's logical block ``B``, with its slots
    bound to ``bindings``, against :func:`controlled_target` ``T``: the
    kernel's overlap ``|Tr(T^dag B)|^2 / D^2``, which is 1 iff ``B`` is
    ``T`` up to a global phase."""
    block = _logical_block(scheme, bindings)
    return float(abs(np.sum(controlled_target(kind, bindings).conj() * block)) ** 2 / block.size)


def oracle_sanity(sample_count: int = 32, internal_dim: int = 2, seed: int = 1234) -> float:
    """Minimum process fidelity of the photonic and ion constructions.

    For each sample, the photonic control and order-control networks at
    ``internal_dim`` and both ion sequences (qubit system) are bound to
    fresh Haar unitaries and scored by :func:`_scheme_fidelity`, the same
    metric the search maximizes.  The direct-sum realizations are exact,
    so the result must be 1 up to rounding.
    """
    if _as_int("sample_count", sample_count) < 1:
        raise ValueError(f"sample_count must be positive, got {sample_count}")
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
            (bindings,) = draw_samples(kind, d, 1, rng)
            worst = min(worst, _scheme_fidelity(kind, scheme, bindings))
    return worst
