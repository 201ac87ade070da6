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
take.

One kernel, :func:`_objective`, computes the search's fidelities and
gradient with matmuls alone: the samples are the rows of one state
matrix, and :func:`_prepare_samples` builds every sample's matrices
once per search.  ``tests/reference.py`` composes the same circuit one
sample at a time with scipy's ``expm`` and is the independent check on
it.

Each restart maximizes the softmin with :func:`minimize`, a numpy port
of L-BFGS-B's unconstrained iteration at scipy's default settings,
with the Moré-Thuente line search that L-BFGS-B uses.  The package
needs numpy alone: scipy is imported only by :func:`expm`, which
nothing in the package calls, and by the tests, which check the kernel
and :func:`minimize` against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial, reduce

import numpy as np

from . import ion, photonic
from .hilbert import (
    DEFAULT_TOL,
    Operator,
    _haar_stack,
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

# L-BFGS at the defaults of scipy's L-BFGS-B, as constants: the memory,
# the line search's sufficient-decrease, curvature and interval
# tolerances, its evaluation cap and largest step, the two convergence
# tests (projected-gradient tolerance, and factr = 1e7 times the machine
# epsilon on the relative decrease) and the run's evaluation cap.
_LBFGS_MEMORY = 10
_LS_FTOL, _LS_GTOL, _LS_XTOL = 1e-3, 0.9, 0.1
_LS_MAX_EVALS = 20
_LS_STPMAX = 1e10
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


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of the Moré-Thuente line search, MINPACK-2's
    ``dcstep``: from the best step ``stx``, the other end ``sty`` of the
    interval and the trial ``stp`` (values ``f`` and slopes ``d`` at
    each), the updated ``(stx, fx, dx, sty, fy, dy)``, the next trial
    step, kept in ``[stpmin, stpmax]`` when nothing is bracketed, and
    whether a minimizer is bracketed.

    The four cases are the paper's (Moré & Thuente, ACM TOMS 20, 1994):
    a higher value; slopes of opposite sign; a slope of the same sign
    and smaller magnitude; and one whose magnitude does not decrease.
    ``max(0, .)`` under the square roots only keeps rounding from taking
    the square root of a negative number.
    """
    opposite = (dp < 0 < dx) or (dx < 0 < dp)

    def gamma_of(theta, da, db):
        s = max(abs(theta), abs(da), abs(db))
        return s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))

    if fp > fx:
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = gamma_of(theta, dx, dp) * (-1.0 if stp < stx else 1.0)
        stpc = stx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = gamma_of(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        stpc = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = gamma_of(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            bound = stp + 0.66 * (sty - stp)
            stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(max(stpf, stpmin), stpmax)
    elif brackt:
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = gamma_of(theta, dy, dp) * (-1.0 if stp > sty else 1.0)
        stpf = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _line_search(phi, f0, g0, stp):
    """Moré-Thuente line search, MINPACK-2's ``dcsrch`` as L-BFGS-B runs
    it: ``stpmin = 0``, ``stpmax = _LS_STPMAX`` and the tolerances
    ``_LS_FTOL``, ``_LS_GTOL``, ``_LS_XTOL``.

    ``phi(t)`` returns ``(value, slope, payload)`` along the search line,
    whose value and slope at 0 are ``f0`` and ``g0 < 0``; ``stp`` is the
    first trial step.  Returns ``(step, payload)`` of the last
    evaluation once it meets the strong Wolfe conditions, or once the
    bracket cannot shrink further (dcsrch's warnings, which L-BFGS-B
    accepts too), and None if neither happens within ``_LS_MAX_EVALS``
    evaluations.
    """
    gtest = _LS_FTOL * g0
    width, width1 = _LS_STPMAX, 2.0 * _LS_STPMAX
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = g0
    stmin, stmax = 0.0, stp + 4.0 * stp
    brackt, stage1 = False, True
    for _ in range(_LS_MAX_EVALS):
        f, g, payload = phi(stp)
        ftest = f0 + stp * gtest
        if stage1 and f <= ftest and g >= 0:
            stage1 = False
        if (
            (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax))
            or (stp == _LS_STPMAX and f <= ftest and g <= gtest)
            or (stp == 0.0 and (f > ftest or g >= gtest))
            or (f <= ftest and abs(g) <= _LS_GTOL * -g0)
        ):
            return stp, payload
        if stage1 and fx >= f > ftest:
            # step on psi(t) = phi(t) - phi(0) - ftol t phi'(0), the
            # function whose minimizer the interval holds in stage 1
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax,
            )
            fx, fy = fxm + stx * gtest, fym + sty * gtest
            gx, gy = gxm + gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
            )
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _LS_STPMAX)
        if brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax):
            stp = stx  # no further progress: evaluate the best step again
    return None


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """``-H g`` by the two-loop recursion over the stored ``(s, y, 1 / s.y)``
    pairs, oldest first, with ``H0 = (s.y / y.y) I`` from the newest."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        q /= rho * (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q


def minimize(fun, x0: np.ndarray, max_iters: int):
    """Minimize ``fun`` from ``x0`` by L-BFGS, the unconstrained iteration
    of L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995) at scipy's defaults.

    ``fun(x)`` returns ``(value, gradient, *extra)``.  The direction is
    ``-H g`` from the last ``_LBFGS_MEMORY`` pairs; the first line search
    starts at step ``1 / |d|``, later ones at 1.  A pair whose ``s.y`` is
    not above ``eps * (-g.s)`` is not stored.  A failed line search
    restarts from the last point with an empty memory, or ends the run
    when the memory is already empty.  The run converges when ``max|g|
    <= _PGTOL`` or the relative decrease of an iteration is at most
    ``_REL_DECREASE``, and stops unconverged after ``max_iters``
    iterations.

    Returns ``(x, evaluation, iterations, fevals, converged)``, where
    ``evaluation`` is ``fun``'s return at the point ``x`` it ends on, so
    that point is never evaluated twice.
    """
    fevals, last = 0, None

    def evaluate(x):
        # a point equal to the last one reuses its evaluation, as scipy's
        # wrapper does, so the counts agree with L-BFGS-B's
        nonlocal fevals, last
        if last is None or not np.array_equal(x, last[0]):
            fevals += 1
            last = x, fun(x)
        return last[1]

    x = np.array(x0, dtype=float)
    now = evaluate(x)
    if np.max(np.abs(now[1])) <= _PGTOL:
        return x, now, 0, fevals, True
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    iterations = 0
    while True:
        f, g = now[0], now[1]
        d = _lbfgs_direction(g, pairs)
        slope = g @ d
        step = min(1.0 / np.linalg.norm(d), _LS_STPMAX) if iterations == 0 else 1.0

        def along(t, x=x, d=d):
            point = x + t * d
            out = evaluate(point)
            return out[0], out[1] @ d, (point, out)

        found = _line_search(along, f, slope, step) if slope < 0 else None
        if found is None:
            if not pairs:
                return x, now, iterations, fevals, False
            pairs.clear()
            continue
        step, (x, now) = found
        iterations += 1
        if iterations >= max_iters or fevals > _MAX_FEVALS:
            return x, now, iterations, fevals, False
        if np.max(np.abs(now[1])) <= _PGTOL:
            return x, now, iterations, fevals, True
        if f - now[0] <= _REL_DECREASE * max(abs(f), abs(now[0]), 1.0):
            return x, now, iterations, fevals, True
        s, y = step * d, now[1] - g
        sy = s @ y
        if sy > _EPS * -(step * slope):
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-_LBFGS_MEMORY]


def _check_kind(kind: str) -> str:
    if kind not in TASKS:
        raise ValueError(f"kind must be one of {tuple(TASKS)}, got {kind!r}")
    return kind


def _n_slots(kind: str) -> int:
    return len(TASKS[kind][0]) + 1


@lru_cache(maxsize=None)
def _generator_maps(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The map from a real parameter vector of length ``dim**2`` to a
    Hermitian generator, and its adjoint, as real matrices ``(to_h, back)``.

    The first ``dim`` parameters fill the diagonal; the rest fill the real
    and then the imaginary parts of the strict upper triangle, in
    ``np.triu_indices`` order.  ``(vec @ to_h).view(complex128)`` is the
    flattened generator of ``vec``; for a flattened complex ``c``,
    ``c.view(float64) @ back`` is the ``g`` with ``g . dvec = 2 Re
    sum(conj(c) * 1j * dH)``.  Columns of ``to_h`` and rows of ``back``
    come in (Re, Im) pairs, the layout of complex128.  Every nonzero is
    ``±1`` or ``±2``, with at most one per column of ``to_h`` and two per
    column of ``back``, so both products are exact.
    """
    iu = np.triu_indices(dim, k=1)
    n_off = iu[0].size
    re = np.diag(np.arange(dim))
    im = np.zeros((dim, dim), dtype=re.dtype)
    sign = np.zeros((dim, dim))
    re[iu] = re.T[iu] = dim + np.arange(n_off)
    im[iu] = im.T[iu] = dim + n_off + np.arange(n_off)
    sign[iu], sign.T[iu] = 1.0, -1.0
    re, im, sign = re.reshape(-1), im.reshape(-1), sign.reshape(-1)
    entries = np.arange(dim * dim)
    to_h = np.zeros((dim * dim, dim * dim, 2))
    to_h[re, entries, 0] = 1.0
    to_h[im, entries, 1] = sign
    back = np.zeros((dim * dim, 2, dim * dim))
    back[entries, 0, im] = -2.0 * sign
    back[entries, 1, re] = 2.0
    out = (to_h.reshape(dim * dim, -1), back.reshape(-1, dim * dim))
    for arr in out:
        arr.setflags(write=False)
    return out


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
    gens = (vec @ _generator_maps(full_dim)[0]).view(np.complex128)
    w, v = np.linalg.eigh(gens.reshape(*vec.shape[:-1], full_dim, full_dim))
    return w, v, (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def param_count(kind: str, ancilla_dim: int, system_dim: int) -> int:
    return _n_slots(kind) * (ancilla_dim * 2 * system_dim) ** 2


def control_branches(kind: str, bindings) -> tuple[np.ndarray, np.ndarray]:
    """The two control-branch operators of the controlled target, from
    the orders in :data:`TASKS`: ``(1, U)`` for ``ctrl_u`` and
    ``(Ug Uf, Uf Ug)`` for ``switch``.

    The controlled target applies the first to the system when the
    control is |0> and the second when it is |1>.
    """
    slots = TASKS[_check_kind(kind)][0]
    return _branch_products(kind, {s: bindings[s].entries for s in slots}, bindings[slots[0]].dim)


def _branch_products(kind: str, mats, dim: int) -> tuple[np.ndarray, ...]:
    """Per control value, the product of ``mats[slot]`` over its order
    in :data:`TASKS`, first-acting rightmost; the identity for an empty
    order.  Leading axes of the matrices are batch axes."""

    def branch(order):
        factors = [mats[s] for s in order]
        return reduce(lambda m, u: u @ m, factors) if factors else np.eye(dim)

    return tuple(branch(order) for order in TASKS[kind][1])


def draw_samples(kind: str, system_dim: int, count: int, rng: np.random.Generator):
    """Haar sample set standing in for the unknown operations: ``count``
    bindings of the kind's slots, drawn in slot order from one stacked
    draw, the same matrices as one :func:`haar_unitary` per slot per
    sample; each binding is an :class:`Operator`, checked as such."""
    slots = TASKS[_check_kind(kind)][0]
    if count < 1:
        raise ValueError("sample count must be positive")
    mats = _haar_stack((count, len(slots)), system_dim, rng)
    return tuple({s: Operator(m) for s, m in zip(slots, sample)} for sample in mats)


def _prepare_samples(kind: str, dim: int, samples):
    """Hoist the sample-dependent matrices out of the search loop; every
    binding passes the schemes' slot check here, once per search.

    Returns the bound slots stacked as ``(S, n_insertions, d, d)`` in
    insertion order and the conjugated controlled targets ``(S, cs,
    cs)``, the only place the target matrix is assembled.  The targets
    are built for all samples at once, from the same branch products as
    :func:`control_branches`, stacked: each branch is written into its
    diagonal block of one zeroed array, and the whole stack passes one
    unitarity check at ``DEFAULT_TOL``.
    """
    if not samples:
        raise ValueError("sample set must be non-empty")
    slots = TASKS[kind][0]
    oracles = np.array([[_slot_binding(s, slot, dim) for slot in slots] for s in samples])
    by_slot = {s: oracles[:, k] for k, s in enumerate(slots)}
    targets = np.zeros((len(oracles), 2 * dim, 2 * dim), dtype=np.complex128)
    for c, branch in enumerate(_branch_products(kind, by_slot, dim)):
        targets[:, c * dim : (c + 1) * dim, c * dim : (c + 1) * dim] = branch
    dev = _unitary_deviation(targets)
    if not dev <= DEFAULT_TOL:  # written to fail on NaN
        raise ValueError(f"control target deviates from unitary by {dev:.3e} (tol {DEFAULT_TOL})")
    return oracles, targets.conj()


def _objective(kind: str, ancilla_dim: int, system_dim: int, x, prepared):
    """Search objective at one parameter point ``x``: ``(softmin,
    gradient, fidelities)``.

    ``fidelities`` are the per-sample process fidelities of the realized
    channel against the targets of :func:`_prepare_samples`, which
    ``tests/reference.py`` recomputes from a basis-enumeration Choi
    matrix; ``softmin`` smooths their minimum at temperature
    ``_SOFTMIN_BETA`` and ``gradient`` is its exact gradient in ``x``.

    Every contraction is a matmul.  Only the ancilla-|0> columns are
    propagated, for all samples at once, as the rows of one
    ``(S cs, D)`` state matrix: row (sample, input column), column
    (block, system).  A slot is ``rows @ G^T``, an insertion
    ``1_ac x O`` is ``rows.reshape(S, cs 2a, d) @ O^T`` per sample, and
    the input of each slot is kept.  The adjoint pass runs the same rows
    back through ``conj(G)`` and ``conj(O)``, and reaches the generators
    through the eigendecomposition of the slot gates: for ``S = V e^{iw}
    V^dag``, ``dS = V (Phi o V^dag i dH V) V^dag`` with ``Phi_jk =
    e^{i(w_j+w_k)/2} sinc((w_j - w_k) / 2 pi)``, which holds at
    degenerate spectra too.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n := param_count(kind, ancilla_dim, system_dim),):
        raise ValueError(f"expected {n} search parameters for {kind}, got shape {x.shape}")
    _require_finite(x)
    oracles, targets = prepared
    d, cs, n_samples = system_dim, 2 * system_dim, len(oracles)
    full_dim = ancilla_dim * cs
    w, v, slots = _slot_matrices(kind, full_dim, x)
    n_slots = len(slots)
    targets_t = targets.swapaxes(-1, -2)

    # forward: the input of slot k >= 1 is the output of insertion k
    rows = slots[0, :, :cs].T
    inputs = []
    for k in range(1, n_slots):
        rows = rows.reshape(-1, 2 * ancilla_dim * cs, d) @ oracles[:, k - 1].swapaxes(-1, -2)
        inputs.append(rows.reshape(n_samples * cs, full_dim))
        rows = inputs[-1] @ slots[k].T
    # Kraus operator m of sample s is rows[(s, j), (m, i)] at entry (i, j),
    # so its overlap with the target is one product with targets_t
    kraus_t = rows.reshape(n_samples, cs, ancilla_dim, cs).transpose(0, 2, 1, 3)
    overlaps = kraus_t.reshape(n_samples, ancilla_dim, -1) @ targets_t.reshape(n_samples, -1, 1)
    overlaps = overlaps[..., 0]
    fid = np.sum(np.abs(overlaps) ** 2, axis=-1) / (cs * cs)
    weights = np.exp(-_SOFTMIN_BETA * (fid - fid.min()))
    softmin = fid.min() - np.log(weights.sum()) / _SOFTMIN_BETA
    weights /= weights.sum()

    # adjoint: lam holds dF/d conj(rows); grads[k] is dF/d conj(slot k)
    coef = weights[:, None] * overlaps / (cs * cs)
    lam = (coef[:, None, :, None] * targets_t.conj()[:, :, None, :]).reshape(-1, full_dim)
    grads = np.zeros_like(slots)
    for k in range(n_slots - 1, 0, -1):
        grads[k] = lam.T @ inputs[k - 1].conj()
        lam = (lam @ slots[k].conj()).reshape(n_samples, -1, d) @ oracles[:, k - 1].conj()
        lam = lam.reshape(-1, full_dim)
    grads[0, :, :cs] = lam.reshape(n_samples, cs, full_dim).sum(axis=0).T

    # through the eigendecomposition to the Hermitian generators
    vh = v.conj().swapaxes(-1, -2)
    half = np.exp(-0.5j * w)
    phi_conj = half[:, :, None] * half[:, None, :]
    phi_conj *= np.sinc((w[:, :, None] - w[:, None, :]) / (2 * np.pi))
    c = (v @ (phi_conj * (vh @ grads @ v)) @ vh).reshape(n_slots, -1)
    return softmin, (c.view(np.float64) @ _generator_maps(full_dim)[1]).reshape(-1), fid


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
        softmin, grad, fid = _objective(kind, a, d, x, prepared)
        return -softmin, -grad, fid

    results: list[RestartResult] = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        x0 = np.zeros(n) if r == 0 else rng.normal(0.0, 0.7, size=n)
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
    ``propagate(input, bindings, rng=None)`` returns the outcome.  A
    photon enters and leaves on the network's input and output paths;
    the ions carry the logical qubits on both sides with the mode,
    truncated at ``fock_cutoff``, in n = 0, and their final ket is a
    ``PureOutcome``.
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

    def propagate(init, bindings, rng=None):
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
    bound to ``bindings``, against the controlled target ``T`` of
    :func:`_prepare_samples`: the kernel's overlap ``|Tr(T^dag B)|^2 /
    D^2``, which is 1 iff ``B`` is ``T`` up to a global phase."""
    block = _logical_block(scheme, bindings)
    _, (target_conj,) = _prepare_samples(kind, len(block) // 2, (bindings,))
    return float(abs(np.sum(target_conj * block)) ** 2 / block.size)


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
            (bindings,) = draw_samples(kind, d, 1, rng)
            worst = min(worst, _scheme_fidelity(kind, scheme, bindings))
    return worst
