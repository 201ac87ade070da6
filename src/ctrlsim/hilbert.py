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
"""

from __future__ import annotations

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
        return int(np.prod(self.dims))

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

    def __init__(self, space: HilbertSpace, amps, tol: float = DEFAULT_TOL):
        amps = np.array(amps, dtype=np.complex128).reshape(-1)
        if amps.shape != (space.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"space has dimension {space.total_dim}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= tol:  # written to fail on NaN
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {tol}")
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
    """Square complex matrix with a unitarity claim.

    When ``claims_unitary`` is true the constructor verifies
    ``U^dag U = 1`` to within ``tol`` and rejects the matrix otherwise.
    """

    def __init__(self, entries, claims_unitary: bool = True, tol: float = DEFAULT_TOL):
        m = _as_complex_matrix(entries)
        if claims_unitary:
            dev = _unitary_deviation(m)
            if not dev <= tol:  # written to fail on NaN
                raise ValueError(
                    f"matrix claimed unitary but deviates by {dev:.3e} (tol {tol})"
                )
        m.setflags(write=False)
        self.entries = m
        self.claims_unitary = bool(claims_unitary)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dagger(self) -> "Operator":
        return Operator(self.entries.conj().T, self.claims_unitary, tol=1e-8)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Operator(
            self.entries @ other.entries,
            self.claims_unitary and other.claims_unitary,
            tol=1e-8,
        )

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim}, claims_unitary={self.claims_unitary})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a space."""

    def __init__(self, space: HilbertSpace, entries, tol: float = DEFAULT_TOL):
        m = _as_complex_matrix(entries)
        if m.shape[0] != space.total_dim:
            raise ValueError("matrix dimension does not match the space")
        # comparisons written to fail on NaN
        if not np.max(np.abs(m - m.conj().T)) <= tol:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= tol:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))
        if not lo >= -tol:
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
    value = obj[key]
    entries = value if items is not None and type(value) is list else ()
    if type(value) is not kind or any(type(v) is not items for v in entries):
        raise ValueError(f"field {key!r} has the wrong JSON type: {value!r}")
    return value


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
    return Operator(full, u.claims_unitary, tol=1e-8)


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
    return Operator(full, u.claims_unitary, tol=1e-8)


def apply(op: Operator, psi: StateVector) -> StateVector:
    """Evolve a state by a unitary operator."""
    if op.dim != psi.space.total_dim:
        raise ValueError(
            f"operator dim {op.dim} does not match state dim {psi.space.total_dim}"
        )
    if not op.claims_unitary:
        raise ValueError("apply requires an operator that claims unitarity")
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
