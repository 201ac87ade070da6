"""Single-photon interferometer simulation.

A network is an ordered list of optical elements acting on the
single-photon sector of a set of labeled paths, a two-dimensional
polarization factor (H, V) and an internal degree of freedom of
dimension ``d`` (for instance orbital angular momentum).  Unknown
devices occupy named slots that are bound to d x d unitaries at
propagation time.

Port convention for polarizing beam splitters: horizontal polarization
is transmitted (input port i to output port i), vertical polarization
is reflected (input port i to output port 1 - i).  Each connection is
modeled as a symmetric exchange of the two path amplitudes, so a PBS
acting twice on the same port pair is the identity.

A slot name may appear at several stage positions, but only on one
physical device: this models a single inserted device that the photon
traverses more than once (a loop), which is how the order-control
network routes both polarization components through each device while
inserting every device exactly once.

A monitored device's presence measurement collapses any path
superposition, so :func:`propagate` returns the ensemble of measurement
branches and :func:`sample` draws shots from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    StateVector,
    _apply_stage,
    _as_int,
    _compile_once,
    _json_field,
    _slot_counts,
    _stage_unitary,
    subspace_embed,  # unused here; the benchmark's span tracer wraps photonic.subspace_embed
)

H, V = 0, 1


@dataclass(frozen=True)
class PhotonicSpace(HilbertSpace):
    """Single-photon sector: the :class:`HilbertSpace` with factors ``path``
    (one index per label in ``paths``), ``pol`` (H, V) and ``internal``."""

    paths: tuple[str, ...]
    internal_dim: int

    def __init__(self, paths, internal_dim: int):
        paths = tuple(str(p) for p in paths)
        if not paths:
            raise ValueError("a photonic space needs at least one path")
        if len(set(paths)) != len(paths):
            raise ValueError(f"path labels must be unique, got {paths}")
        if _as_int("internal dimension", internal_dim) < 1:
            raise ValueError("internal dimension must be at least 1")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "internal_dim", int(internal_dim))
        factors = [("path", len(paths)), ("pol", 2), ("internal", self.internal_dim)]
        HilbertSpace.__init__(self, factors)

    def path_index(self, path: str) -> int:
        try:
            return self.paths.index(path)
        except ValueError:
            raise KeyError(f"unknown path {path!r}, have {self.paths}") from None

    def flat(self, path: str, pol: int, internal: int) -> int:
        """Flat index of (path, pol, internal), range-checked by :meth:`flat_index`."""
        return self.flat_index((self.path_index(path), pol, internal))

    def path_slice(self, path: str) -> slice:
        """Contiguous flat-index range of one path (both polarizations)."""
        base = self.path_index(path) * 2 * self.internal_dim
        return slice(base, base + 2 * self.internal_dim)


@dataclass(frozen=True)
class PBS:
    """Polarizing beam splitter: transmits H, reflects V."""

    in_ports: tuple[str, str]
    out_ports: tuple[str, str]

    def __init__(self, in_ports, out_ports):
        in_ports = tuple(in_ports)
        out_ports = tuple(out_ports)
        for ports in (in_ports, out_ports):
            if len(ports) != 2 or ports[0] == ports[1]:
                raise ValueError(f"PBS needs two distinct ports, got {ports}")
        object.__setattr__(self, "in_ports", in_ports)
        object.__setattr__(self, "out_ports", out_ports)


@dataclass(frozen=True)
class HWP:
    """Half-wave plate on one path: exchanges H and V."""

    path: str


@dataclass(frozen=True)
class Device:
    """Unknown unitary bound by slot name, acting on the internal
    factor of amplitudes on one path only."""

    path: str
    slot: str


@dataclass(frozen=True)
class MonitoredDevice:
    """Device preceded by a non-demolition measurement of photon
    presence in its path.  The measurement collapses any path
    superposition before the device acts."""

    path: str
    slot: str


@dataclass(frozen=True)
class Reroute:
    """Permutation of path labels (mirror / swap routing)."""

    mapping: tuple[tuple[str, str], ...]

    def __init__(self, mapping: Mapping[str, str]):
        pairs = tuple(sorted((str(a), str(b)) for a, b in dict(mapping).items()))
        srcs = [a for a, _ in pairs]
        dsts = [b for _, b in pairs]
        if sorted(srcs) != sorted(dsts):
            raise ValueError(f"reroute mapping is not a permutation: {pairs}")
        object.__setattr__(self, "mapping", pairs)

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


Element = Union[PBS, HWP, Device, MonitoredDevice, Reroute]


def _element_ports(e: Element) -> list[str]:
    if isinstance(e, PBS):
        return list(e.in_ports) + list(e.out_ports)
    if isinstance(e, (HWP, Device, MonitoredDevice)):
        return [e.path]
    return [p for pair in e.mapping for p in pair]


@dataclass(frozen=True)
class Network:
    """Ordered optical network with named device slots.

    Slot uniqueness: every slot name must be carried by exactly one
    device description.  The same device may occur at several stage
    positions (multiple traversals); two different devices sharing a
    slot name are rejected.
    """

    space: PhotonicSpace
    stages: tuple[Element, ...]
    input_path: str
    output_path: str

    def __init__(self, space, stages, input_path, output_path):
        stages = tuple(stages)
        known = set(space.paths)
        for e in stages:
            dangling = set(_element_ports(e)) - known
            if dangling:
                raise ValueError(f"element {e} references unknown paths {sorted(dangling)}")
        for p in (input_path, output_path):
            if p not in known:
                raise KeyError(f"unknown path {p!r}")
        devices: dict[str, Element] = {}
        for e in stages:
            if isinstance(e, (Device, MonitoredDevice)):
                seen = devices.get(e.slot)
                if seen is not None and seen != e:
                    raise ValueError(
                        f"slot {e.slot!r} appears on two different devices: {seen} and {e}"
                    )
                devices[e.slot] = e
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "input_path", str(input_path))
        object.__setattr__(self, "output_path", str(output_path))

    @property
    def slots(self) -> dict[str, int]:
        """Slot name to number of stage traversals."""
        return _slot_counts(self.stages)

    def slot_info(self) -> dict[str, dict[str, int]]:
        """Single-use accounting: one inserted device per slot."""
        return {
            name: {"devices": 1, "traversals": n} for name, n in sorted(self.slots.items())
        }

    def to_json_dict(self) -> dict:
        stages = []
        for e in self.stages:
            if isinstance(e, PBS):
                stages.append(
                    {"type": "pbs", "ports": {"in": list(e.in_ports), "out": list(e.out_ports)}}
                )
            elif isinstance(e, HWP):
                stages.append({"type": "hwp", "path": e.path})
            elif isinstance(e, Device):
                stages.append({"type": "device", "path": e.path, "slot": e.slot})
            elif isinstance(e, MonitoredDevice):
                stages.append({"type": "monitored_device", "path": e.path, "slot": e.slot})
            else:
                stages.append({"type": "reroute", "perm": e.as_dict()})
        return {
            "space": {"paths": list(self.space.paths), "internal_dim": self.space.internal_dim},
            "stages": stages,
            "slots": self.slot_info(),
            "input_path": self.input_path,
            "output_path": self.output_path,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Network":
        space = _json_field(data, "space", dict)
        space = PhotonicSpace(
            _json_field(space, "paths", list, str), _json_field(space, "internal_dim", int)
        )
        stages: list[Element] = []
        for entry in _json_field(data, "stages", list):
            kind = _json_field(entry, "type", str)
            if kind == "pbs":
                ports = _json_field(entry, "ports", dict)
                stages.append(PBS(*(_json_field(ports, side, list, str) for side in ("in", "out"))))
            elif kind == "hwp":
                stages.append(HWP(_json_field(entry, "path", str)))
            elif kind in ("device", "monitored_device"):
                device = Device if kind == "device" else MonitoredDevice
                path, slot = (_json_field(entry, key, str) for key in ("path", "slot"))
                stages.append(device(path, slot))
            elif kind == "reroute":
                stages.append(Reroute(_json_field(entry, "perm", dict, str)))
            else:
                raise ValueError(f"unknown element type {kind!r}")
        ends = [_json_field(data, end, str) for end in ("input_path", "output_path")]
        return cls(space, stages, *ends)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Network":
        return cls.from_json_dict(json.loads(text))


def _pair_permutation(space: PhotonicSpace, moves: dict[tuple[str, int], tuple[str, int]]) -> np.ndarray:
    """Basis map ``dest`` of a permutation on (path, pol) pairs: basis
    state ``j`` moves to ``dest[j]``; pairs not in ``moves`` stay put."""
    block = {p: 2 * k for k, p in enumerate(space.paths)}  # row of (p, H); (p, V) is next
    dest = np.arange(space.total_dim).reshape(-1, space.internal_dim)
    home = dest.copy()
    for (p, pol), (q, qol) in moves.items():
        dest[block[p] + pol] = home[block[q] + qol]
    return dest.reshape(-1)


def _pbs_moves(e: PBS) -> dict[tuple[str, int], tuple[str, int]]:
    moves: dict[tuple[str, int], tuple[str, int]] = {}
    for i in (0, 1):
        for a, b in (
            ((e.in_ports[i], H), (e.out_ports[i], H)),
            ((e.in_ports[i], V), (e.out_ports[1 - i], V)),
        ):
            # each exchange is set both ways; a port wired twice fails
            if a != b and (moves.setdefault(a, b) != b or moves.setdefault(b, a) != a):
                raise ValueError(f"PBS port wiring is not a valid permutation: {e}")
    return moves


def _element_map(e: Element, space: PhotonicSpace) -> np.ndarray:
    """Index map of an element: a device's ``(2, d)`` (pol, internal) indices
    on its path, or the basis map of a PBS, HWP or reroute."""
    if isinstance(e, (Device, MonitoredDevice)):
        return np.arange(space.total_dim)[space.path_slice(e.path)].reshape(2, -1)
    if isinstance(e, PBS):
        return _pair_permutation(space, _pbs_moves(e))
    if isinstance(e, HWP):
        return _pair_permutation(space, {(e.path, H): (e.path, V), (e.path, V): (e.path, H)})
    if isinstance(e, Reroute):
        moves = {(src, pol): (dst, pol) for src, dst in e.mapping for pol in (H, V)}
        return _pair_permutation(space, moves)
    raise TypeError(f"unknown element type: {e!r}")


def element_unitary(
    e: Element, space: PhotonicSpace, bindings: Mapping[str, Operator] | None = None
) -> Operator:
    """Full single-photon-sector unitary of one element from its index map: a
    device's binding on both polarizations of its path, identity elsewhere."""
    return _stage_unitary(e, space, _element_map, bindings)


@dataclass(frozen=True)
class PureOutcome:
    state: StateVector


@dataclass(frozen=True)
class Branch:
    probability: float
    outcomes: tuple[int, ...]
    state: StateVector


@dataclass(frozen=True)
class MixedOutcome:
    rho: DensityMatrix
    branches: tuple[Branch, ...]


_BRANCH_CUTOFF = 1e-14


def _compile(net: Network, bindings: Mapping[str, Operator]) -> list[np.ndarray]:
    space = net.space
    return _compile_once(
        net.stages, space, _element_map, lambda e: element_unitary(e, space, bindings)
    )


def propagate(
    net: Network, input_state: StateVector, bindings: Mapping[str, Operator]
) -> PureOutcome | MixedOutcome:
    """Run a photon through the network.  ``input_state`` may live on any
    space with ``net.space``'s factors; the states returned live on ``net.space``.

    Without monitored devices the result is ``PureOutcome``.  Each
    monitored device's non-demolition measurement splits every branch
    into a photon-present branch (outcome 1) and a photon-absent branch
    (outcome 0), and the full ensemble is returned as ``MixedOutcome``;
    :func:`sample` draws shots from it.
    """
    if input_state.space.factors != net.space.factors:
        raise ValueError("input state does not live on the network space")

    # ensemble of (probability, amplitudes, outcome record)
    branches = [(1.0, np.array(input_state.amps), ())]
    for e, u in zip(net.stages, _compile(net, bindings)):
        if isinstance(e, MonitoredDevice):
            mask = np.zeros(net.space.total_dim)
            mask[net.space.path_slice(e.path)] = 1.0
            split = []
            for prob, amps, rec in branches:
                present = amps * mask
                p1 = min(max(float(np.real(np.vdot(present, present))), 0.0), 1.0)
                if 1.0 - p1 > _BRANCH_CUTOFF:
                    absent = amps * (1.0 - mask)
                    split.append((prob * (1.0 - p1), absent / np.sqrt(1.0 - p1), rec + (0,)))
                if p1 > _BRANCH_CUTOFF:
                    split.append((prob * p1, present / np.sqrt(p1), rec + (1,)))
            branches = split
        branches = [(prob, _apply_stage(u, amps), rec) for prob, amps, rec in branches]

    if len(branches) == 1 and branches[0][2] == ():
        return PureOutcome(StateVector(net.space, branches[0][1]))
    wrapped = tuple(
        Branch(prob, rec, StateVector(net.space, amps)) for prob, amps, rec in branches
    )
    rho = DensityMatrix.mixture((b.probability, b.state) for b in wrapped)
    return MixedOutcome(rho, wrapped)


def sample(
    outcome: PureOutcome | MixedOutcome, shots: int, rng: np.random.Generator
) -> list[Branch]:
    """``shots`` branches of ``outcome``'s ensemble, drawn by their
    probabilities with one ``rng.random`` value each.  A ``PureOutcome``
    saw no monitored device and raises ``ValueError``."""
    if isinstance(outcome, PureOutcome):
        raise ValueError("network has no monitored device, nothing to sample")
    weights = np.array([b.probability for b in outcome.branches])
    picks = np.searchsorted(np.cumsum(weights / weights.sum()), rng.random(shots))
    last = len(outcome.branches) - 1
    return [outcome.branches[min(int(i), last)] for i in picks]


def network_unitary(net: Network, bindings: Mapping[str, Operator]) -> Operator:
    """Composed unitary of all stages (networks without monitors)."""
    if any(isinstance(e, MonitoredDevice) for e in net.stages):
        raise ValueError("network contains a monitored device and is not unitary")
    total = np.eye(net.space.total_dim, dtype=np.complex128)
    for u in _compile(net, bindings):
        total = _apply_stage(u, total)
    return Operator(total)


def photon_input(
    space: PhotonicSpace,
    path: str,
    control_amps,
    internal_amps,
) -> StateVector:
    """Photon on one path: (alpha |H> + beta |V>) x |psi>."""
    alpha, beta = np.asarray(control_amps, dtype=np.complex128)
    psi = np.asarray(internal_amps, dtype=np.complex128).reshape(-1)
    if psi.shape != (space.internal_dim,):
        raise ValueError(f"internal state expects {space.internal_dim} amplitudes")
    block = np.kron(np.array([alpha, beta]), psi)
    return place_on_path(space, path, block)


def place_on_path(space: PhotonicSpace, path: str, pol_internal) -> StateVector:
    """State on ``space`` with all amplitude on one path; ``pol_internal``
    is the (pol, internal) block of length ``2 * internal_dim``."""
    block = np.asarray(pol_internal, dtype=np.complex128).reshape(-1)
    if block.shape != (2 * space.internal_dim,):
        raise ValueError("block length must be 2 * internal_dim")
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.path_slice(path)] = block
    return StateVector(space, amps)


def preset_ctrl_u(internal_dim: int) -> Network:
    """Interferometer adding control to one unknown device.

    The photon enters on path ``u``; a PBS sends the V component to
    path ``l`` where the device sits, and a second PBS recombines both
    components on path ``u``.  Output for input
    (alpha |H> + beta |V>) |psi> is alpha |H>|psi> + beta |V> U|psi>.
    """
    space = PhotonicSpace(("u", "l"), internal_dim)
    split = PBS(("u", "l"), ("u", "l"))
    return Network(space, (split, Device("l", "U"), split), "u", "u")


def preset_ctrl_u_monitored(internal_dim: int) -> Network:
    """Control interferometer with a presence-monitored device.

    The monitor's projective measurement collapses the control
    superposition, so the output is the classical mixture of the two
    branches instead of the coherent controlled state.
    """
    space = PhotonicSpace(("u", "l"), internal_dim)
    split = PBS(("u", "l"), ("u", "l"))
    return Network(space, (split, MonitoredDevice("l", "U"), split), "u", "u")


def preset_ctrl_switch(internal_dim: int) -> Network:
    """Interferometer controlling the order of two unknown devices.

    Polarization-loop routing: the first PBS sends the H component
    along path ``f`` through the ``Uf`` device and the V component along
    ``g`` through the ``Ug`` device; the path swap then sends each
    component through the other device, so each device is a single
    inserted element traversed twice.  The components recombine at the
    final PBS on path ``g``.  The two pairs of half-wave plates flip the
    polarization on both paths, before and after the swap; that flip
    commutes with the polarization-blind devices and with the swap, so
    the pairs cancel and the network unitary is the same without them.

    Output for (alpha |H> + beta |V>) |psi> is
    alpha |H> Ug Uf |psi> + beta |V> Uf Ug |psi>.
    """
    space = PhotonicSpace(("f", "g"), internal_dim)
    split = PBS(("f", "g"), ("f", "g"))
    dev_f = Device("f", "Uf")
    dev_g = Device("g", "Ug")
    flip_f = HWP("f")
    flip_g = HWP("g")
    swap = Reroute({"f": "g", "g": "f"})
    stages = (
        split,
        dev_f,
        dev_g,
        flip_f,
        flip_g,
        swap,
        dev_f,
        dev_g,
        flip_f,
        flip_g,
        split,
    )
    return Network(space, stages, "f", "g")


def two_photon_product(device: Device, u: Operator) -> Operator:
    """Joint internal-space action when two photons feed the device.

    One photon occupies path ``u``, the other the device path.  The
    device acts on whatever arrives on its own path, so the joint
    operator on (upper internal) x (lower internal) is ``1 x U``.  The
    construction goes through the generic single-photon element matrix
    and is verified entrywise against the Kronecker form.
    """
    if not isinstance(device, Device):
        raise TypeError("expected a Device network fragment")
    if device.path == "u":
        raise ValueError("the two photons must occupy different paths")
    space = PhotonicSpace(("u", device.path), u.dim)
    full = element_unitary(device, space, {device.slot: u}).entries

    d = space.internal_dim
    per_path = {}
    for p in space.paths:
        blocks = []
        for pol in (H, V):
            c0 = space.flat(p, pol, 0)
            col = full[:, c0 : c0 + d]
            # a device must keep the photon on its path and polarization
            outside = np.delete(col, np.s_[c0 : c0 + d], axis=0)
            if np.max(np.abs(outside)) > 1e-12:
                raise ValueError(f"element leaks amplitude out of path {p!r}")
            blocks.append(col[c0 : c0 + d, :])
        if np.max(np.abs(blocks[0] - blocks[1])) > 1e-12:
            raise ValueError(f"element acts polarization-dependently on path {p!r}")
        per_path[p] = blocks[0]

    joint = np.kron(per_path["u"], per_path[device.path])
    expected = np.kron(np.eye(d), u.entries)
    if np.max(np.abs(joint - expected)) > 1e-12:
        raise ValueError("two-photon action deviates from identity x U")
    return Operator(joint)


def two_photon_space(internal_dim: int) -> HilbertSpace:
    """Internal space of (upper photon, lower photon)."""
    return HilbertSpace([("upper", internal_dim), ("lower", internal_dim)])
