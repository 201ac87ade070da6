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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .hilbert import (
    DensityMatrix,
    DirectSumBlock,
    HilbertSpace,
    Operator,
    StateVector,
    _json_field,
    _permutation,
    subspace_embed,
)

H, V = 0, 1


@dataclass(frozen=True)
class PhotonicSpace:
    """Single-photon sector over (path, polarization, internal)."""

    paths: tuple[str, ...]
    internal_dim: int

    def __init__(self, paths, internal_dim: int):
        paths = tuple(str(p) for p in paths)
        if len(set(paths)) != len(paths):
            raise ValueError(f"path labels must be unique, got {paths}")
        if int(internal_dim) < 1:
            raise ValueError("internal dimension must be at least 1")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "internal_dim", int(internal_dim))

    @property
    def hilbert(self) -> HilbertSpace:
        return HilbertSpace(
            [("path", len(self.paths)), ("pol", 2), ("internal", self.internal_dim)]
        )

    @property
    def total_dim(self) -> int:
        return len(self.paths) * 2 * self.internal_dim

    def path_index(self, path: str) -> int:
        try:
            return self.paths.index(path)
        except ValueError:
            raise KeyError(f"unknown path {path!r}, have {self.paths}") from None

    def flat(self, path: str, pol: int, internal: int) -> int:
        return (self.path_index(path) * 2 + pol) * self.internal_dim + internal

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
        counts: dict[str, int] = {}
        for e in self.stages:
            if isinstance(e, (Device, MonitoredDevice)):
                counts[e.slot] = counts.get(e.slot, 0) + 1
        return counts

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
                stages.append(Reroute(_json_field(entry, "perm", dict)))
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
    """Full-sector matrix of a permutation on (path, pol) pairs; pairs
    not in ``moves`` stay put."""
    block = {p: 2 * k for k, p in enumerate(space.paths)}  # row of (p, H); (p, V) is next
    dest = np.arange(space.total_dim).reshape(-1, space.internal_dim)
    home = dest.copy()
    for (p, pol), (q, qol) in moves.items():
        dest[block[p] + pol] = home[block[q] + qol]
    return _permutation(dest.reshape(-1))


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


def element_unitary(
    e: Element, space: PhotonicSpace, bindings: Mapping[str, Operator] | None = None
) -> Operator:
    """Full single-photon-sector unitary of one element."""
    bindings = bindings or {}
    if isinstance(e, PBS):
        return Operator(_pair_permutation(space, _pbs_moves(e)))
    if isinstance(e, HWP):
        moves = {(e.path, H): (e.path, V), (e.path, V): (e.path, H)}
        return Operator(_pair_permutation(space, moves))
    if isinstance(e, Reroute):
        perm = e.as_dict()
        moves = {
            (src, pol): (dst, pol) for src, dst in perm.items() for pol in (H, V)
        }
        return Operator(_pair_permutation(space, moves))
    if isinstance(e, (Device, MonitoredDevice)):
        if e.slot not in bindings:
            raise KeyError(f"slot {e.slot!r} is unbound")
        u = bindings[e.slot]
        if not u.claims_unitary:
            raise ValueError(f"binding for slot {e.slot!r} is not unitary")
        if u.dim != space.internal_dim:
            raise ValueError(
                f"binding for slot {e.slot!r} has dim {u.dim}, "
                f"internal dim is {space.internal_dim}"
            )
        sl = space.path_slice(e.path)
        block = DirectSumBlock(range(sl.start, sl.stop), space.total_dim)
        return subspace_embed(Operator(np.kron(np.eye(2), u.entries)), block)
    raise TypeError(f"unknown element type: {e!r}")


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


@dataclass(frozen=True)
class SampledOutcome:
    outcome: int | tuple[int, ...]
    state: StateVector
    probability: float


SchemeOutcome = Union[PureOutcome, MixedOutcome, SampledOutcome]

_BRANCH_CUTOFF = 1e-14


def _check_bindings(net: Network, bindings: Mapping[str, Operator]) -> None:
    missing = set(net.slots) - set(bindings)
    if missing:
        raise KeyError(f"missing bindings for slots: {sorted(missing)}")


def _path_mask(space: PhotonicSpace, path: str) -> np.ndarray:
    mask = np.zeros(space.total_dim)
    sl = space.path_slice(path)
    mask[sl] = 1.0
    return mask


def _compile(net: Network, bindings: Mapping[str, Operator]):
    """Per-stage (matrix, monitored path) list; monitor is None for
    plain elements.  Each distinct element is compiled once and its
    matrix reused at every stage position it occupies."""
    cache: dict[Element, np.ndarray] = {}
    compiled = []
    for e in net.stages:
        if e not in cache:
            cache[e] = element_unitary(e, net.space, bindings).entries
        monitor = e.path if isinstance(e, MonitoredDevice) else None
        compiled.append((cache[e], monitor))
    return compiled


def propagate(
    net: Network,
    input_state: StateVector,
    bindings: Mapping[str, Operator],
    rng: np.random.Generator | None = None,
) -> SchemeOutcome:
    """Run a photon through the network.

    Without monitored devices the result is ``PureOutcome``.  With a
    monitored device the non-demolition measurement splits the state
    into a photon-present branch (outcome 1) and a photon-absent branch
    (outcome 0); the full ensemble is returned as ``MixedOutcome``
    unless ``rng`` is given, in which case one branch is sampled.
    """
    if input_state.space.factors != net.space.hilbert.factors:
        raise ValueError("input state does not live on the network space")
    _check_bindings(net, bindings)
    compiled = _compile(net, bindings)

    # ensemble of (probability, amplitudes, outcome record)
    branches = [(1.0, np.array(input_state.amps), ())]
    sampled = rng is not None
    for u, monitor in compiled:
        if monitor is not None:
            mask = _path_mask(net.space, monitor)
            new_branches = []
            for prob, amps, rec in branches:
                present = amps * mask
                p1 = float(np.real(np.vdot(present, present)))
                p1 = min(max(p1, 0.0), 1.0)
                options = []
                if 1.0 - p1 > _BRANCH_CUTOFF:
                    absent = amps * (1.0 - mask)
                    options.append((1.0 - p1, absent / np.sqrt(1.0 - p1), rec + (0,)))
                if p1 > _BRANCH_CUTOFF:
                    options.append((p1, present / np.sqrt(p1), rec + (1,)))
                if sampled:
                    weights = np.array([w for w, _, _ in options])
                    u_draw = float(rng.random())
                    pick = int(np.searchsorted(np.cumsum(weights / weights.sum()), u_draw))
                    pick = min(pick, len(options) - 1)
                    w, amps_k, rec_k = options[pick]
                    new_branches.append((prob * w, amps_k, rec_k))
                else:
                    new_branches.extend(
                        (prob * w, amps_k, rec_k) for w, amps_k, rec_k in options
                    )
            branches = new_branches
        branches = [(prob, u @ amps, rec) for prob, amps, rec in branches]

    space = net.space.hilbert
    if not branches:
        raise RuntimeError("no surviving branches")  # unreachable for unit input
    if len(branches) == 1 and branches[0][2] == ():
        return PureOutcome(StateVector(space, branches[0][1]))
    if sampled:
        prob, amps, rec = branches[0]
        outcome = rec[0] if len(rec) == 1 else rec
        return SampledOutcome(outcome, StateVector(space, amps), prob)
    wrapped = tuple(
        Branch(prob, rec, StateVector(space, amps)) for prob, amps, rec in branches
    )
    rho = DensityMatrix.mixture((b.probability, b.state) for b in wrapped)
    return MixedOutcome(rho, wrapped)


def sample_outcomes(
    net: Network,
    input_state: StateVector,
    bindings: Mapping[str, Operator],
    shots: int,
    rng: np.random.Generator,
) -> dict:
    """Outcome frequencies of repeated sampled propagation.

    The network is compiled once; shots are drawn from the exact branch
    distribution of the monitored measurements, which is what repeated
    single-shot runs converge to.
    """
    outcome = propagate(net, input_state, bindings)
    if isinstance(outcome, PureOutcome):
        raise ValueError("network has no monitored device, nothing to sample")
    keys = []
    weights = []
    for b in outcome.branches:
        keys.append(b.outcomes[0] if len(b.outcomes) == 1 else b.outcomes)
        weights.append(b.probability)
    weights = np.array(weights)
    draws = rng.choice(len(keys), size=int(shots), p=weights / weights.sum())
    counts = {k: 0 for k in keys}
    for i in draws:
        counts[keys[int(i)]] += 1
    return counts


def network_unitary(net: Network, bindings: Mapping[str, Operator]) -> Operator:
    """Composed unitary of all stages (networks without monitors)."""
    if any(isinstance(e, MonitoredDevice) for e in net.stages):
        raise ValueError("network contains a monitored device and is not unitary")
    _check_bindings(net, bindings)
    total = np.eye(net.space.total_dim, dtype=np.complex128)
    for u, _ in _compile(net, bindings):
        total = u @ total
    return Operator(total, tol=1e-8)


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
    """State with all amplitude on one path; ``pol_internal`` is the
    (pol, internal) block of length ``2 * internal_dim``."""
    block = np.asarray(pol_internal, dtype=np.complex128).reshape(-1)
    if block.shape != (2 * space.internal_dim,):
        raise ValueError("block length must be 2 * internal_dim")
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.path_slice(path)] = block
    return StateVector(space.hilbert, amps)


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


def two_photon_product(device: Device, u: Operator, upper_path: str = "u") -> Operator:
    """Joint internal-space action when two photons feed the device.

    One photon occupies ``upper_path``, the other the device path.  The
    device acts on whatever arrives on its own path, so the joint
    operator on (upper internal) x (lower internal) is ``1 x U``.  The
    construction goes through the generic single-photon element matrix
    and is verified entrywise against the Kronecker form.
    """
    if not isinstance(device, Device):
        raise TypeError("expected a Device network fragment")
    if device.path == upper_path:
        raise ValueError("the two photons must occupy different paths")
    if not u.claims_unitary:
        raise ValueError("device binding must be unitary")
    space = PhotonicSpace((upper_path, device.path), u.dim)
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

    joint = np.kron(per_path[upper_path], per_path[device.path])
    expected = np.kron(np.eye(d), u.entries)
    if np.max(np.abs(joint - expected)) > 1e-12:
        raise ValueError("two-photon action deviates from identity x U")
    return Operator(joint)


def two_photon_space(internal_dim: int) -> HilbertSpace:
    """Internal space of (upper photon, lower photon)."""
    return HilbertSpace([("upper", internal_dim), ("lower", internal_dim)])
