"""Two trapped ions with a shared vibrational mode, ideal pulse maps.

Each ion carries four electronic levels: the qubit pair ``g``, ``e``
and the auxiliary pair ``g'``, ``e'`` used to hide population.  The
common vibrational mode is truncated at ``fock_cutoff`` occupations
(protocols only ever populate n = 0 and n = 1; the spare level is kept
as a leakage detector).

The unknown carrier drives the {g, e} pair at every motional level and
leaves the primed levels alone, so the hiding pulses condition it: they
park the target ion's qubit of one control branch in the primed levels
while the carrier acts on the other.

Pulse phase convention: every two-level pulse is the real symmetric
exchange |a><b| + |b><a| plus identity on the rest.  Physical pi
pulses carry extra phases that are tunable in an experiment; the
ideal-map convention keeps the protocol algebra literal.

Slot accounting: a carrier slot may appear at several sequence
positions.  That models a single laser pulse sent by the external
agent which interacts with the ion more than once (mirror return), so
``slot_info`` reports ``pulses_sent = 1`` and the number of
interactions separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .hilbert import HilbertSpace, Operator, StateVector, _json_field, _permutation

G, E, GP, EP = 0, 1, 2, 3


@dataclass(frozen=True)
class TrapSpace:
    """Two four-level ions plus one truncated vibrational mode."""

    fock_cutoff: int = 3

    def __post_init__(self):
        if self.fock_cutoff < 2:
            raise ValueError("need at least occupations 0 and 1")

    @property
    def hilbert(self) -> HilbertSpace:
        return HilbertSpace([("ion1", 4), ("ion2", 4), ("mode", self.fock_cutoff)])

    @property
    def total_dim(self) -> int:
        return 16 * self.fock_cutoff

    def flat(self, ion1: int, ion2: int, n: int) -> int:
        return (ion1 * 4 + ion2) * self.fock_cutoff + n


@dataclass(frozen=True)
class SidebandSwap:
    """Blue-sideband swap |g>|0> <-> |e>|1> on one ion."""

    ion: int


@dataclass(frozen=True)
class Hiding:
    """Red-detuned hiding pulse.

    H1 exchanges |g>|1> <-> |g'>|0>, H2 exchanges |e>|1> <-> |e'>|0>.
    """

    ion: int
    which: str

    def __post_init__(self):
        if self.which not in ("H1", "H2"):
            raise ValueError(f"hiding pulse must be H1 or H2, got {self.which!r}")


@dataclass(frozen=True)
class Carrier:
    """Bound 2x2 unitary on the {g, e} pair at every vibrational
    occupation n; identity on the primed levels, which the unknown
    pulse does not reach."""

    ion: int
    slot: str


@dataclass(frozen=True)
class SigmaX:
    """Exchange with the auxiliary level in the n = 0 block.

    Sg exchanges |g> <-> |g'>, Se exchanges |e> <-> |e'>.
    """

    ion: int
    which: str

    def __post_init__(self):
        if self.which not in ("Sg", "Se"):
            raise ValueError(f"sigma-x pulse must be Sg or Se, got {self.which!r}")


Pulse = Union[SidebandSwap, Hiding, Carrier, SigmaX]

# The (level, n) <-> (level, n) exchange each fixed pulse makes on its
# ion, whatever the other ion's level.
_EXCHANGES = {
    (SidebandSwap, None): ((G, 0), (E, 1)),
    (Hiding, "H1"): ((G, 1), (GP, 0)),
    (Hiding, "H2"): ((E, 1), (EP, 0)),
    (SigmaX, "Sg"): ((G, 0), (GP, 0)),
    (SigmaX, "Se"): ((E, 0), (EP, 0)),
}


def _levels(space: TrapSpace, ion: int) -> np.ndarray:
    """Flat indices on the axes (level of ``ion``, level of the other
    ion, n)."""
    if ion not in (1, 2):
        raise ValueError(f"ion index must be 1 or 2, got {ion}")
    idx = np.arange(space.total_dim).reshape(4, 4, space.fock_cutoff)
    return idx if ion == 1 else idx.swapaxes(0, 1)


def pulse_unitary(
    p: Pulse, space: TrapSpace, bindings: Mapping[str, Operator] | None = None
) -> Operator:
    """Full-space unitary of one ideal pulse."""
    bindings = bindings or {}
    if isinstance(p, Carrier):
        if p.slot not in bindings:
            raise KeyError(f"carrier slot {p.slot!r} is unbound")
        u = bindings[p.slot]
        if not u.claims_unitary:
            raise ValueError(f"binding for slot {p.slot!r} is not unitary")
        if u.dim != 2:
            raise ValueError(f"carrier binding must be 2x2, got dim {u.dim}")
        # one (g, e) index pair per spectator level and motional level
        pairs = _levels(space, p.ion)[[G, E]].reshape(2, -1).T
        full = np.eye(space.total_dim, dtype=np.complex128)
        full[pairs[:, :, None], pairs[:, None, :]] = u.entries
        return Operator(full)
    exchange = _EXCHANGES.get((type(p), getattr(p, "which", None)))
    if exchange is None:
        raise TypeError(f"unknown pulse type: {p!r}")
    idx = _levels(space, p.ion)
    (la, na), (lb, nb) = exchange
    a, b = idx[la, :, na], idx[lb, :, nb]
    dest = np.arange(space.total_dim)
    dest[a], dest[b] = b, a
    return Operator(_permutation(dest))


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse program with slot-use metadata."""

    pulses: tuple[Pulse, ...]

    def __init__(self, pulses):
        object.__setattr__(self, "pulses", tuple(pulses))

    @property
    def slots(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for p in self.pulses:
            if isinstance(p, Carrier):
                counts[p.slot] = counts.get(p.slot, 0) + 1
        return counts

    def slot_info(self) -> dict[str, dict[str, int]]:
        """One laser pulse per slot; repeats are mirror returns."""
        return {
            name: {"pulses_sent": 1, "interactions": n}
            for name, n in sorted(self.slots.items())
        }

    def to_json_list(self) -> list[dict]:
        entries = []
        for p in self.pulses:
            if isinstance(p, SidebandSwap):
                entries.append({"type": "sideband_swap", "ion": p.ion})
            elif isinstance(p, Hiding):
                entries.append({"type": "hiding", "ion": p.ion, "which": p.which})
            elif isinstance(p, Carrier):
                entries.append({"type": "carrier", "ion": p.ion, "slot": p.slot})
            else:
                entries.append({"type": "sigma_x", "ion": p.ion, "which": p.which})
        return entries

    @classmethod
    def from_json_list(cls, entries) -> "PulseSequence":
        if type(entries) is not list:
            raise ValueError(f"pulse sequence must be a JSON array, got {entries!r}")
        pulses: list[Pulse] = []
        for entry in entries:
            kind = _json_field(entry, "type", str)
            ion = _json_field(entry, "ion", int)
            if kind == "sideband_swap":
                pulses.append(SidebandSwap(ion))
            elif kind == "hiding":
                pulses.append(Hiding(ion, entry["which"]))
            elif kind == "carrier":
                pulses.append(Carrier(ion, _json_field(entry, "slot", str)))
            elif kind == "sigma_x":
                pulses.append(SigmaX(ion, entry["which"]))
            else:
                raise ValueError(f"unknown pulse type {kind!r}")
        return cls(pulses)

    def to_json(self) -> str:
        return json.dumps(self.to_json_list(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PulseSequence":
        return cls.from_json_list(json.loads(text))


def run_sequence(
    seq: PulseSequence,
    init: StateVector,
    bindings: Mapping[str, Operator] | None = None,
    space: TrapSpace | None = None,
) -> tuple[StateVector, list[StateVector]]:
    """Apply the pulses in order, recording the state after each one."""
    if space is None:
        n = init.space.dim_of("mode")
        space = TrapSpace(fock_cutoff=n)
    if init.space.factors != space.hilbert.factors:
        raise ValueError("initial state does not live on the trap space")
    cache: dict[Pulse, np.ndarray] = {}
    state = np.array(init.amps)
    trace: list[StateVector] = []
    for p in seq.pulses:
        if p not in cache:
            cache[p] = pulse_unitary(p, space, bindings).entries
        state = cache[p] @ state
        trace.append(StateVector(space.hilbert, state))
    final = trace[-1] if trace else init
    return final, trace


def seq_ctrl_u() -> PulseSequence:
    """Pulse program conditioning one unknown carrier pulse on ion 1.

    The control qubit moves to the vibrational mode, the hiding pulses
    shield the n = 1 branch of ion 2 in the auxiliary levels, the
    unknown carrier acts on the remaining branch, and the whole
    transfer is undone.
    """
    return PulseSequence(
        [
            SidebandSwap(1),
            Hiding(2, "H1"),
            Hiding(2, "H2"),
            Carrier(2, "U"),
            Hiding(2, "H1"),
            Hiding(2, "H2"),
            SidebandSwap(1),
        ]
    )


def seq_ctrl_switch() -> PulseSequence:
    """Pulse program controlling the order of two unknown pulses.

    Between the two interactions of each unknown pulse, the sigma-x
    exchanges swap the hidden and active registers of ion 2, so one
    branch accumulates Ug then Uf while the other accumulates Uf then
    Ug.  Each unknown slot appears twice: the outgoing pulse and its
    mirror return.
    """
    return PulseSequence(
        [
            SidebandSwap(1),
            Hiding(2, "H1"),
            Hiding(2, "H2"),
            Carrier(2, "Ug"),
            SigmaX(2, "Sg"),
            SigmaX(2, "Se"),
            Carrier(2, "Uf"),
            Carrier(2, "Ug"),
            SigmaX(2, "Sg"),
            SigmaX(2, "Se"),
            Carrier(2, "Uf"),
            Hiding(2, "H1"),
            Hiding(2, "H2"),
            SidebandSwap(1),
        ]
    )


def assert_ground_mode(state: StateVector, tol: float) -> bool:
    """True iff the population of vibrational occupations n >= 1 is
    at most ``tol``."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = state.space.dim_of("mode")
    excited = sum(state.population("mode", k) for k in range(1, n))
    return excited <= tol


def place_logical(space: TrapSpace, control_system) -> StateVector:
    """State with the logical (control, system) vector on the electronic
    qubits of ion 1 and ion 2, the mode in n = 0: amplitude ``2c + s`` of
    ``control_system`` sits at ``space.flat(c, s, 0)``."""
    block = np.asarray(control_system, dtype=np.complex128).reshape(-1)
    if block.shape != (4,):
        raise ValueError("logical (control, system) vector must have length 4")
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[[space.flat(c, s, 0) for c in (G, E) for s in (G, E)]] = block
    return StateVector(space.hilbert, amps)


def ion_input(space: TrapSpace, control_amps, system_amps) -> StateVector:
    """Initial state (alpha |g> + beta |e>)_1 |psi>_2 |0>."""
    alpha, beta = np.asarray(control_amps, dtype=np.complex128)
    a, b = np.asarray(system_amps, dtype=np.complex128)
    return place_logical(space, [c * s for c in (alpha, beta) for s in (a, b)])
