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
from dataclasses import asdict, dataclass
from typing import Mapping, Union, get_type_hints

import numpy as np

from .hilbert import (
    HilbertSpace,
    Operator,
    StateVector,
    _apply_stage,
    _as_int,
    _compile_once,
    _json_field,
    _slot_counts,
    _stage_unitary,
)

G, E, GP, EP = 0, 1, 2, 3

# Largest population of n >= 1 that assert_ground_mode reads as the mode
# back in its ground state.
_GROUND_MODE_TOL = 1e-12


@dataclass(frozen=True)
class TrapSpace(HilbertSpace):
    """Two four-level ions plus one truncated vibrational mode: the
    :class:`HilbertSpace` with factors ``ion1``, ``ion2`` (4 each) and ``mode``."""

    fock_cutoff: int

    def __init__(self, fock_cutoff: int = 3):
        if _as_int("fock_cutoff", fock_cutoff) < 2:
            raise ValueError("need at least occupations 0 and 1")
        object.__setattr__(self, "fock_cutoff", int(fock_cutoff))
        HilbertSpace.__init__(self, [("ion1", 4), ("ion2", 4), ("mode", self.fock_cutoff)])

    def flat(self, ion1: int, ion2: int, n: int) -> int:
        """Flat index of (ion1, ion2, n), range-checked by :meth:`flat_index`."""
        return self.flat_index((ion1, ion2, n))


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

# JSON tag -> (pulse class, {field: JSON type}); a pulse is written as
# {"type": tag, **fields}
_PULSE_JSON = {
    tag: (cls, get_type_hints(cls))
    for tag, cls in (
        ("sideband_swap", SidebandSwap),
        ("hiding", Hiding),
        ("carrier", Carrier),
        ("sigma_x", SigmaX),
    )
}
_PULSE_TAG = {cls: tag for tag, (cls, _) in _PULSE_JSON.items()}

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


def _pulse_map(p: Pulse, space: TrapSpace) -> np.ndarray:
    """Index map of a pulse: a carrier's ``(k, 2)`` (g, e) pairs, one per
    spectator level and n, or a fixed pulse's basis map."""
    if isinstance(p, Carrier):
        return _levels(space, p.ion)[[G, E]].reshape(2, -1).T
    exchange = _EXCHANGES.get((type(p), getattr(p, "which", None)))
    if exchange is None:
        raise TypeError(f"unknown pulse type: {p!r}")
    idx = _levels(space, p.ion)
    (la, na), (lb, nb) = exchange
    a, b = idx[la, :, na], idx[lb, :, nb]
    dest = np.arange(space.total_dim)
    dest[a], dest[b] = b, a
    return dest


def pulse_unitary(
    p: Pulse, space: TrapSpace, bindings: Mapping[str, Operator] | None = None
) -> Operator:
    """Full-space unitary of one ideal pulse from its index map: a carrier's
    binding on each (g, e) pair of its ion, identity elsewhere."""
    return _stage_unitary(p, space, _pulse_map, bindings)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulse program with slot-use metadata."""

    pulses: tuple[Pulse, ...]

    def __init__(self, pulses):
        object.__setattr__(self, "pulses", tuple(pulses))

    @property
    def slots(self) -> dict[str, int]:
        return _slot_counts(self.pulses)

    def slot_info(self) -> dict[str, dict[str, int]]:
        """One laser pulse per slot; repeats are mirror returns."""
        return {
            name: {"pulses_sent": 1, "interactions": n}
            for name, n in sorted(self.slots.items())
        }

    def to_json_list(self) -> list[dict]:
        return [{"type": _PULSE_TAG[type(p)], **asdict(p)} for p in self.pulses]

    @classmethod
    def from_json_list(cls, entries) -> "PulseSequence":
        if type(entries) is not list:
            raise ValueError(f"pulse sequence must be a JSON array, got {entries!r}")
        pulses: list[Pulse] = []
        for entry in entries:
            kind = _json_field(entry, "type", str)
            if kind not in _PULSE_JSON:
                raise ValueError(f"unknown pulse type {kind!r}")
            pulse, types = _PULSE_JSON[kind]
            pulses.append(pulse(**{f: _json_field(entry, f, t) for f, t in types.items()}))
        return cls(pulses)

    def to_json(self) -> str:
        return json.dumps(self.to_json_list(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PulseSequence":
        return cls.from_json_list(json.loads(text))


def _compile(seq: PulseSequence, space: TrapSpace, bindings) -> list[np.ndarray]:
    return _compile_once(
        seq.pulses, space, _pulse_map, lambda p: pulse_unitary(p, space, bindings)
    )


def run_sequence(
    seq: PulseSequence,
    init: StateVector,
    bindings: Mapping[str, Operator] | None = None,
    space: TrapSpace | None = None,
) -> tuple[StateVector, list[StateVector]]:
    """Apply the pulses in order, recording the state after each one on
    ``space`` (by default the ``TrapSpace`` of ``init``'s mode cutoff);
    ``init`` may live on any space with ``space``'s factors."""
    if space is None:
        space = TrapSpace(fock_cutoff=init.space.dim_of("mode"))
    if init.space.factors != space.factors:
        raise ValueError("initial state does not live on the trap space")
    state = init.amps
    trace: list[StateVector] = []
    for stage in _compile(seq, space, bindings):
        state = _apply_stage(stage, state)
        trace.append(StateVector(space, state))
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


def assert_ground_mode(state: StateVector) -> bool:
    """True iff the population of vibrational occupations n >= 1 is
    at most ``_GROUND_MODE_TOL``."""
    n = state.space.dim_of("mode")
    excited = sum(state.population("mode", k) for k in range(1, n))
    return excited <= _GROUND_MODE_TOL


def place_logical(space: TrapSpace, control_system) -> StateVector:
    """State on ``space`` with the logical (control, system) vector on the
    electronic qubits of ion 1 and ion 2, the mode in n = 0: amplitude
    ``2c + s`` of ``control_system`` sits at ``space.flat(c, s, 0)``."""
    block = np.asarray(control_system, dtype=np.complex128).reshape(-1)
    if block.shape != (4,):
        raise ValueError("logical (control, system) vector must have length 4")
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[[space.flat(c, s, 0) for c in (G, E) for s in (G, E)]] = block
    return StateVector(space, amps)


def ion_input(space: TrapSpace, control_amps, system_amps) -> StateVector:
    """Initial state (alpha |g> + beta |e>)_1 |psi>_2 |0>."""
    alpha, beta = np.asarray(control_amps, dtype=np.complex128)
    a, b = np.asarray(system_amps, dtype=np.complex128)
    return place_logical(space, [c * s for c in (alpha, beta) for s in (a, b)])
