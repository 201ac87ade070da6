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

Choi convention: unnormalized, output factor first, columns flattened
in C order; the Choi matrix of a CPTP map on dimension D has trace D.

One kernel, :func:`_objective`, computes the search's fidelities and
gradient; ``tests/reference.py`` composes the same circuit one sample
at a time with scipy's ``expm`` and is the independent check on it.
scipy is imported inside :func:`minimize` on its first call, so
importing this module, and every ``ctrlsim run`` and ``emit-scheme``,
needs numpy alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from functools import lru_cache, partial, reduce

import numpy as np

from . import ion, photonic
from .hilbert import Operator, _slot_binding, haar_unitary

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


def expm(a: np.ndarray) -> np.ndarray:
    """scipy's ``expm``, imported on the first call.

    Nothing in the package calls it; it stays only because the
    benchmark's span tracer (``perfbench/spans.py``) wraps
    ``nogo.expm`` by name.  It can go when that span does.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def minimize(*args, **kwargs):
    """scipy's ``minimize``, imported on the first call and called
    through the module global, so it can be wrapped by name."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _check_kind(kind: str) -> str:
    if kind not in TASKS:
        raise ValueError(f"kind must be one of {tuple(TASKS)}, got {kind!r}")
    return kind


def _n_slots(kind: str) -> int:
    return len(TASKS[kind][0]) + 1


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


def _require_finite(params: np.ndarray) -> None:
    if not np.isfinite(params).all():
        raise ValueError("search parameters must be finite")


def _slot_matrices(kind: str, full_dim: int, params: np.ndarray):
    """Slot unitaries ``expm(i H)`` of parameter points ``(..., n)`` and
    the eigendecomposition they come from: ``(w, V, gates)`` with
    ``gates = V e^{i w} V^dag`` of shape ``(..., n_slots, D, D)`` in
    application order.

    All generators come from one gather and one stacked Hermitian
    eigendecomposition; ``tests/reference.py`` builds the same gates
    one at a time with scipy's ``expm`` as the check on it.
    """
    vec = np.reshape(params, (*np.shape(params)[:-1], _n_slots(kind), full_dim * full_dim))
    w, v = np.linalg.eigh(hermitian_from_params(vec, full_dim))
    return w, v, (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def param_count(kind: str, ancilla_dim: int, system_dim: int) -> int:
    return _n_slots(kind) * (ancilla_dim * 2 * system_dim) ** 2


def _oracle_entries(kind: str, bindings, dim: int) -> tuple[np.ndarray, ...]:
    """Matrices of the inserted slots, in circuit order, each through the
    schemes' binding check for a system of dimension ``dim``."""
    return tuple(_slot_binding(bindings, s, dim) for s in TASKS[kind][0])


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Rank-one Choi matrix ``|u>><<u|`` of a matrix; for a unitary, the
    Choi matrix of its channel."""
    v = np.reshape(u, -1)
    return np.outer(v, v.conj())


def control_branches(kind: str, bindings) -> tuple[np.ndarray, np.ndarray]:
    """The two control-branch operators of the controlled target, from
    the orders in :data:`TASKS`: ``(1, U)`` for ``ctrl_u`` and
    ``(Ug Uf, Uf Ug)`` for ``switch``.

    The controlled target applies the first to the system when the
    control is |0> and the second when it is |1>.
    """
    slots, orders = TASKS[_check_kind(kind)]
    dim = bindings[slots[0]].dim

    def branch(order):
        mats = [bindings[s].entries for s in order]
        return reduce(lambda m, u: u @ m, mats) if mats else np.eye(dim)

    return tuple(branch(order) for order in orders)


def target_unitary(kind: str, bindings) -> Operator:
    """Controlled operation on (control, system) the circuit should
    reproduce: :func:`control_branches` as diagonal blocks."""
    first, second = control_branches(kind, bindings)
    zero = np.zeros(first.shape)
    return Operator(np.block([[first, zero], [zero, second]]), tol=1e-8)


def process_fidelity(choi: np.ndarray, target: Operator) -> float:
    """Normalized Choi overlap with a target unitary channel.

    Equals ``|Tr(V^dag K)|^2 / D^2`` summed over Kraus terms; it is 1
    iff the channel is exactly the target unitary.
    """
    v = target.entries.reshape(-1)
    d2 = target.dim ** 2
    return float(np.real(v.conj() @ choi @ v)) / d2


def draw_samples(kind: str, system_dim: int, count: int, rng: np.random.Generator):
    """Haar sample set standing in for the unknown operations: ``count``
    bindings of the kind's slots, drawn in slot order."""
    slots = TASKS[_check_kind(kind)][0]
    if count < 1:
        raise ValueError("sample count must be positive")
    return tuple({s: haar_unitary(system_dim, rng) for s in slots} for _ in range(count))


def _prepare_samples(kind: str, dim: int, samples):
    """Hoist the sample-dependent matrices out of the search loop; every
    binding passes the slot check here, once per search.

    Returns the bound slots stacked as ``(S, n_insertions, d, d)`` in
    insertion order and the conjugated targets ``(S, cs, cs)``.
    """
    if not samples:
        raise ValueError("sample set must be non-empty")
    oracles = np.stack([np.stack(_oracle_entries(kind, s, dim)) for s in samples])
    targets = np.stack([target_unitary(kind, s).entries.conj() for s in samples])
    return oracles, targets


def _objective(kind: str, ancilla_dim: int, system_dim: int, x, prepared):
    """Search objective at one parameter point ``x``: ``(softmin,
    gradient, fidelities)``.

    ``fidelities`` are the per-sample process fidelities of the realized
    channel against :func:`target_unitary`, which ``tests/reference.py``
    recomputes from a basis-enumeration Choi matrix; ``softmin`` smooths
    their minimum at temperature ``_SOFTMIN_BETA`` and ``gradient`` is
    its exact gradient in ``x``.  Only the ancilla-|0> columns are
    propagated, for all samples side by side as ``(2a, d, S, cs)``,
    keeping the input of each slot.  The adjoint pass runs back through
    the slots and the ``1_ac x U`` insertions, and reaches the generators
    through the eigendecomposition of the slot gates: for ``S = V e^{iw} V^dag``,
    ``dS = V (Phi o V^dag i dH V) V^dag`` with ``Phi_jk = e^{i(w_j+w_k)/2}
    sinc((w_j - w_k) / 2 pi)``, which holds at degenerate spectra too.
    """
    x = np.asarray(x, dtype=float)
    _require_finite(x)
    oracles, targets = prepared
    blocks, d, cs, n_samples = 2 * ancilla_dim, system_dim, 2 * system_dim, len(oracles)
    full_dim = blocks * d
    w, v, slots = _slot_matrices(kind, full_dim, x)
    n_slots = len(slots)

    # forward: the input of slot k >= 1 is the output of insertion k
    cols = slots[0, :, :cs].reshape(blocks, d, 1, cs)
    inputs = []
    for k in range(1, n_slots):
        rows = np.einsum("sij,bjsc->bisc", oracles[:, k - 1], cols)
        inputs.append(rows)
        cols = (slots[k] @ rows.reshape(full_dim, -1)).reshape(blocks, d, n_samples, cs)
    # Kraus operator m of sample s is cols[(m, i), s, j]
    kraus = cols.reshape(ancilla_dim, cs, n_samples, cs)
    overlaps = np.einsum("misj,sij->sm", kraus, targets)
    fid = np.sum(np.abs(overlaps) ** 2, axis=-1) / (cs * cs)
    weights = np.exp(-_SOFTMIN_BETA * (fid - fid.min()))
    softmin = fid.min() - np.log(weights.sum()) / _SOFTMIN_BETA
    weights /= weights.sum()

    # adjoint: lam holds dF/d conj(cols); grads[k] is dF/d conj(slot k)
    coef = weights[:, None] * overlaps / (cs * cs)
    lam = np.einsum("sm,sij->misj", coef, targets.conj()).reshape(blocks, d, n_samples, cs)
    grads = np.zeros_like(slots)
    for k in range(n_slots - 1, 0, -1):
        flat = lam.reshape(full_dim, -1)
        grads[k] = flat @ inputs[k - 1].reshape(full_dim, -1).conj().T
        lam = (slots[k].conj().T @ flat).reshape(blocks, d, n_samples, cs)
        lam = np.einsum("sji,bjsc->bisc", oracles[:, k - 1].conj(), lam)
    grads[0, :, :cs] = lam.sum(axis=2).reshape(full_dim, cs)

    # through the eigendecomposition to the Hermitian generators
    vh = v.conj().swapaxes(-1, -2)
    phi = np.exp(0.5j * (w[:, :, None] + w[:, None, :]))
    phi *= np.sinc((w[:, :, None] - w[:, None, :]) / (2 * np.pi))
    c = (v @ (phi.conj() * (vh @ grads @ v)) @ vh).reshape(n_slots, -1)
    re, im, sign = _generator_index(full_dim)
    offsets = full_dim * full_dim * np.arange(n_slots)[:, None]
    grad = np.bincount((re + offsets).ravel(), (2 * c.imag).ravel(), x.size)
    grad -= np.bincount((im + offsets).ravel(), (2 * sign * c.real).ravel(), x.size)
    return softmin, grad, fid


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
    supplied explicitly, e.g. a known oracle or a phase-closed set).
    Restart 0 starts from zero parameters (identity slots); later
    restarts start from random Gaussian parameters.  Each restart is one
    scipy L-BFGS-B run on :func:`_objective`, the softmin over samples
    with its exact gradient; its reported value is the true minimum over
    samples at the point L-BFGS-B returns, and its iteration and
    evaluation counts and convergence flag are scipy's.  Non-convergence
    is reported per restart, never raised.  The report's
    ``config.sample_count`` is the number of samples scored, also when
    they are supplied.
    """
    _check_kind(kind)
    d, a = config.system_dim, config.ancilla_dim
    if samples is None:
        sample_rng = np.random.default_rng(config.seed)
        samples = draw_samples(kind, d, config.sample_count, sample_rng)
    n = param_count(kind, a, d)
    prepared = _prepare_samples(kind, d, samples)
    config = replace(config, sample_count=len(samples))

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        softmin, grad, _ = _objective(kind, a, d, x, prepared)
        return -softmin, -grad

    results: list[RestartResult] = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        x0 = np.zeros(n) if r == 0 else rng.normal(0.0, 0.7, size=n)
        res = minimize(
            negated, x0, jac=True, method="L-BFGS-B", options={"maxiter": config.max_iters}
        )
        results.append(
            RestartResult(
                seed=(config.seed, r),
                value=float(_objective(kind, a, d, res.x, prepared)[2].min()),
                iterations=int(res.nit),
                fevals=int(res.nfev),
                converged=bool(res.success),
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
    """Process fidelity of a scheme's logical block against
    :func:`target_unitary`, with its slots bound to ``bindings``."""
    choi = choi_of_unitary(_logical_block(scheme, bindings))
    return process_fidelity(choi, target_unitary(kind, bindings))


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
