"""Dense linear-algebra substrate for small composite quantum systems.

Conventions used by every module in this package:

* Composite indices are flattened in C order: the leftmost factor of a
  :class:`HilbertSpace` is the slowest-varying index of the amplitude
  vector.  ``basis_state(space, (1, 0))`` on a (2, 3) space is index 3.
* Amplitudes and matrix entries are ``complex128``.  The default
  tolerance for norm and unitarity checks is ``DEFAULT_TOL = 1e-10``.
* All values are immutable after construction and all operations are
  pure functions; arrays handed out are marked read-only.
* Randomness flows through an explicit ``numpy.random.Generator``
  supplied by the caller.  Nothing in this package touches numpy's
  global random state.
* Photonic networks and ion pulse sequences share one scheme layer,
  kept here: ``_slot_binding``, ``_compile_once``, ``_fixed_stage``,
  ``_apply_stage``, ``_slot_counts`` and the JSON reader ``_json_field``.
  A fixed stage compiles to an index gather, built once per process for
  each (stage, space) by ``_fixed_stage``; a slot stage compiles to its
  dense unitary on every call.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_TOL = 1e-10


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _unitary_deviation(m: np.ndarray) -> float:
    d = m.shape[0]
    return float(np.max(np.abs(m.conj().T @ m - np.eye(d))))


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered list of labeled tensor factors.

    Parameters
    ----------
    factors : sequence of (label, dim) pairs
        Labels must be unique, dims positive.  The order fixes the
        index convention (leftmost factor varies slowest).
    """

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]]):
        norm = tuple((str(label), int(dim)) for label, dim in factors)
        if not norm:
            raise ValueError("a HilbertSpace needs at least one factor")
        labels = [label for label, _ in norm]
        if len(set(labels)) != len(labels):
            raise ValueError(f"factor labels must be unique, got {labels}")
        if any(dim < 1 for _, dim in norm):
            raise ValueError("factor dimensions must be positive")
        object.__setattr__(self, "factors", norm)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        """Position of the factor named ``label``."""
        for k, (name, _) in enumerate(self.factors):
            if name == label:
                return k
        raise KeyError(f"no factor labeled {label!r} in {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.axis(label)][1]

    def flat_index(self, occupation: Sequence[int]) -> int:
        """Flattened basis index of a per-factor occupation tuple."""
        if len(occupation) != len(self.factors):
            raise ValueError("occupation length does not match factor count")
        return int(np.ravel_multi_index(tuple(occupation), self.dims))

    def occupation(self, flat: int) -> tuple[int, ...]:
        """Inverse of :meth:`flat_index`."""
        return tuple(int(i) for i in np.unravel_index(flat, self.dims))


class StateVector:
    """Normalized complex amplitude vector over a :class:`HilbertSpace`."""

    def __init__(self, space: HilbertSpace, amps):
        amps = np.array(amps, dtype=np.complex128).reshape(-1)
        if amps.shape != (space.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"space has dimension {space.total_dim}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= DEFAULT_TOL:  # written to fail on NaN
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {DEFAULT_TOL}")
        amps.setflags(write=False)
        self.space = space
        self.amps = amps

    def outer(self) -> "DensityMatrix":
        """Rank-one density matrix ``|psi><psi|``."""
        return DensityMatrix(self.space, np.outer(self.amps, self.amps.conj()))

    def population(self, label: str, value: int) -> float:
        """Total probability of finding factor ``label`` at basis ``value``."""
        axis = self.space.axis(label)
        probs = np.abs(self.amps.reshape(self.space.dims)) ** 2
        other_axes = tuple(a for a in range(len(self.space.dims)) if a != axis)
        return float(probs.sum(axis=other_axes)[value])

    def __repr__(self) -> str:
        return f"StateVector(labels={self.space.labels}, dim={self.space.total_dim})"


class Operator:
    """Unitary matrix: the constructor verifies ``U^dag U = 1`` to within
    ``tol`` and rejects any other square matrix."""

    def __init__(self, entries, tol: float = DEFAULT_TOL):
        m = _as_complex_matrix(entries)
        dev = _unitary_deviation(m)
        if not dev <= tol:  # written to fail on NaN
            raise ValueError(f"matrix claimed unitary but deviates by {dev:.3e} (tol {tol})")
        m.setflags(write=False)
        self.entries = m

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a space."""

    def __init__(self, space: HilbertSpace, entries):
        m = _as_complex_matrix(entries)
        if m.shape[0] != space.total_dim:
            raise ValueError("matrix dimension does not match the space")
        # comparisons written to fail on NaN
        if not np.max(np.abs(m - m.conj().T)) <= DEFAULT_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
        if not lo >= -DEFAULT_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        m.setflags(write=False)
        self.space = space
        self.entries = m

    @classmethod
    def mixture(
        cls, branches: Iterable[tuple[float, StateVector]]
    ) -> "DensityMatrix":
        """Probability-weighted mixture of pure states on a shared space."""
        branches = list(branches)
        if not branches:
            raise ValueError("mixture needs at least one branch")
        space = branches[0][1].space
        rho = np.zeros((space.total_dim, space.total_dim), dtype=np.complex128)
        for p, psi in branches:
            _require_same_space(space, psi.space)
            rho += p * np.outer(psi.amps, psi.amps.conj())
        return cls(space, rho)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def __repr__(self) -> str:
        return f"DensityMatrix(labels={self.space.labels}, dim={self.space.total_dim})"


@dataclass(frozen=True)
class DirectSumBlock:
    """Embedding target: a direct-sum block of flat basis indices.

    ``block_indices`` must be distinct, sorted and within
    ``range(total_dim)``; their count must equal the dimension of the
    operator being embedded.
    """

    block_indices: tuple[int, ...]
    total_dim: int

    def __init__(self, block_indices: Iterable[int], total_dim: int):
        idx = tuple(int(i) for i in block_indices)
        total_dim = int(total_dim)
        if len(set(idx)) != len(idx):
            raise ValueError(f"block indices contain duplicates: {idx}")
        if any(i < 0 or i >= total_dim for i in idx):
            raise ValueError(f"block indices {idx} out of range for dim {total_dim}")
        if tuple(sorted(idx)) != idx:
            raise ValueError(f"block indices must be sorted, got {idx}")
        object.__setattr__(self, "block_indices", idx)
        object.__setattr__(self, "total_dim", total_dim)


def _json_field(obj, key: str, kind: type, items: type | None = None):
    """``obj[key]`` of a parsed JSON object, of type ``kind`` (an array's
    entries of type ``items``); any other shape raises ``ValueError``."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object with field {key!r}, got {obj!r}")
    if key not in obj:
        raise ValueError(f"JSON object lacks the field {key!r}: {obj!r}")
    value = obj[key]
    entries = value if items is not None and type(value) is list else ()
    if type(value) is not kind or any(type(v) is not items for v in entries):
        raise ValueError(f"field {key!r} has the wrong JSON type: {value!r}")
    return value


def _slot_binding(bindings: Mapping[str, Operator] | None, slot: str, dim: int) -> np.ndarray:
    """Matrix bound to ``slot``, the one check every insertion of an
    unknown operation passes (photonic devices, ion carriers and the
    search): unbound raises ``KeyError``, a binding of a dimension other
    than ``dim`` raises ``ValueError``.  The binding is an
    :class:`Operator`, so it is a unitary; any other binding raises
    ``TypeError``."""
    if not bindings or slot not in bindings:
        raise KeyError(f"slot {slot!r} is unbound")
    u = bindings[slot]
    if not isinstance(u, Operator):
        raise TypeError(f"binding for slot {slot!r} is a {type(u).__name__}, not an Operator")
    if u.dim != dim:
        raise ValueError(f"binding for slot {slot!r} has dim {u.dim}, the slot acts on dim {dim}")
    return u.entries


def _slot_counts(stages) -> dict[str, int]:
    """Slot name to the number of stage positions that carry it; the
    stages that take a bound operation are those with a ``slot`` field."""
    return dict(Counter(stage.slot for stage in stages if hasattr(stage, "slot")))


def _compile_once(stages, space, dest, unitary) -> list[np.ndarray]:
    """Compiled form of every stage position, for :func:`_apply_stage`: the
    matrix of ``unitary(stage)`` for a stage with a ``slot`` field, the gather
    :func:`_fixed_stage` keeps for ``dest`` on any other.  Each distinct stage
    is built once, in order of first appearance, and reused at every position
    it occupies."""
    built = {
        s: unitary(s).entries if hasattr(s, "slot") else _fixed_stage(dest, s, space)
        for s in dict.fromkeys(stages)
    }
    return [built[s] for s in stages]


@functools.cache
def _fixed_stage(dest, stage, space) -> np.ndarray:
    """``_gather(dest(stage, space))``, built once per process for each key and
    kept for the life of the process; a map that is not a permutation raises
    on every call, since a raised exception is not cached."""
    return _gather(dest(stage, space))


def _gather(dest) -> np.ndarray:
    """Read-only source indices ``src`` with ``s[src] == _permutation(dest) @ s``
    for every state ``s``; ``dest`` that is not a permutation of
    ``range(n)`` raises ``ValueError``."""
    dest = np.asarray(dest)
    src = np.argsort(dest) if dest.ndim == 1 and dest.dtype.kind in "iu" else None
    if src is None or not np.array_equal(dest[src], np.arange(dest.size)):
        raise ValueError(f"stage map is not a permutation of range({dest.size}): {dest}")
    src.setflags(write=False)
    return src


def _apply_stage(stage: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A compiled stage acting on a state or on the rows of a matrix; a gather
    adds ``0.0`` to read ``-0.0`` as ``+0.0``, bit for bit the dense product."""
    return s[stage] + 0.0 if stage.ndim == 1 else stage @ s


def _require_same_space(a: HilbertSpace, b: HilbertSpace) -> None:
    if a.factors != b.factors:
        raise ValueError(f"space mismatch: {a.factors} vs {b.factors}")


def subsystem_embed(u: Operator, space: HilbertSpace, slot: str) -> Operator:
    """Embed ``u`` as ``1 x ... x U x ... x 1`` acting on one factor."""
    axis = space.axis(slot)
    if u.dim != space.dims[axis]:
        raise ValueError(
            f"operator dimension {u.dim} does not match factor "
            f"{slot!r} of dimension {space.dims[axis]}"
        )
    full = np.array([[1.0 + 0j]])
    for k, (_, dim) in enumerate(space.factors):
        block = u.entries if k == axis else np.eye(dim)
        full = np.kron(full, block)
    return Operator(full, tol=1e-8)


def _permutation(dest: np.ndarray) -> np.ndarray:
    """Permutation matrix moving basis state ``j`` to ``dest[j]``."""
    full = np.zeros((dest.size, dest.size), dtype=np.complex128)
    full[dest, np.arange(dest.size)] = 1.0
    return full


def subspace_embed(u: Operator, emb: DirectSumBlock) -> Operator:
    """Embed ``u`` on a direct-sum block, identity on the complement.

    This is the ``1 (+) U`` construction: basis indices outside
    ``emb.block_indices`` are untouched, the listed indices carry ``u``
    in their listed order.
    """
    if not isinstance(emb, DirectSumBlock):
        raise TypeError("subspace_embed expects a DirectSumBlock embedding")
    if len(emb.block_indices) != u.dim:
        raise ValueError(
            f"block has {len(emb.block_indices)} indices, operator has dim {u.dim}"
        )
    full = np.eye(emb.total_dim, dtype=np.complex128)
    idx = np.array(emb.block_indices)
    full[np.ix_(idx, idx)] = u.entries
    return Operator(full, tol=1e-8)


def apply(op: Operator, psi: StateVector) -> StateVector:
    """Evolve a state by a unitary operator."""
    if op.dim != psi.space.total_dim:
        raise ValueError(
            f"operator dim {op.dim} does not match state dim {psi.space.total_dim}"
        )
    return StateVector(psi.space, op.entries @ psi.amps)


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """``|<a|b>|^2``, insensitive to global phase."""
    _require_same_space(a.space, b.space)
    return float(np.abs(np.vdot(a.amps, b.amps)) ** 2)


def fidelity_mixed(rho: DensityMatrix, b: StateVector) -> float:
    """``<b|rho|b>`` for a mixed state against a pure target."""
    _require_same_space(rho.space, b.space)
    return float(np.real(np.vdot(b.amps, rho.entries @ b.amps)))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix on ``keep``, factors in original order."""
    keep_set = set(keep)
    labels = rho.space.labels
    unknown = keep_set - set(labels)
    if unknown:
        raise KeyError(f"unknown factor labels: {sorted(unknown)}")
    if not keep_set:
        raise ValueError("must keep at least one factor")

    dims = rho.space.dims
    n = len(dims)
    tens = rho.entries.reshape(dims + dims)
    row = [chr(ord("a") + k) for k in range(n)]
    col = [chr(ord("A") + k) for k in range(n)]
    out_row, out_col = [], []
    for k, label in enumerate(labels):
        if label in keep_set:
            out_row.append(row[k])
            out_col.append(col[k])
        else:
            col[k] = row[k]  # same letter on row and col axes sums the diagonal
    spec = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    reduced = np.einsum(spec, tens)

    kept_factors = [f for f in rho.space.factors if f[0] in keep_set]
    sub = HilbertSpace(kept_factors)
    return DensityMatrix(sub, reduced.reshape(sub.total_dim, sub.total_dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> Operator:
    """Haar-distributed random unitary (QR with phase-fixed diagonal)."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return Operator(q)


def is_unitary(op: Operator, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``max |U^dag U - 1| <= tol``."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return _unitary_deviation(op.entries) <= tol


def basis_state(space: HilbertSpace, occupation) -> StateVector:
    """Computational basis state from a per-factor occupation.

    ``occupation`` is either a sequence of indices (one per factor, in
    order) or a mapping from factor label to index.
    """
    if isinstance(occupation, Mapping):
        occupation = [occupation[label] for label in space.labels]
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.flat_index(occupation)] = 1.0
    return StateVector(space, amps)


def product_state(space: HilbertSpace, parts: Mapping[str, Sequence[complex]]) -> StateVector:
    """Product state from normalized per-factor amplitude vectors."""
    missing = set(space.labels) - set(parts)
    if missing:
        raise ValueError(f"missing amplitudes for factors: {sorted(missing)}")
    amps = np.array([1.0 + 0j])
    for label, dim in space.factors:
        part = np.asarray(parts[label], dtype=np.complex128).reshape(-1)
        if part.shape != (dim,):
            raise ValueError(f"factor {label!r} expects {dim} amplitudes")
        amps = np.kron(amps, part)
    return StateVector(space, amps)


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state amplitudes (normalized complex Gaussian)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_state(space: HilbertSpace, rng: np.random.Generator) -> StateVector:
    return StateVector(space, random_unit_vector(space.total_dim, rng))
