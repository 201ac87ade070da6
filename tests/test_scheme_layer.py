"""The layer photonic networks and ion pulse sequences share: one
slot-binding check, which the search passes through too, one sampler
over the exact branch ensemble, and pulse files read field by field."""

import numpy as np
import pytest

from ctrlsim import ion, nogo, photonic
from ctrlsim.hilbert import haar_unitary

PHOTONIC = photonic.PhotonicSpace(("u", "l"), 2)
TRAP = ion.TrapSpace(3)

SEARCH = nogo.ParamCircuit(nogo.CTRL_U, 1, 2, np.zeros(nogo.param_count(nogo.CTRL_U, 1, 2)))

# (stage carrying slot "U" of dimension 2, how to compile it)
STAGES = [
    (photonic.Device("l", "U"), lambda e, b: photonic.element_unitary(e, PHOTONIC, b)),
    (photonic.MonitoredDevice("l", "U"), lambda e, b: photonic.element_unitary(e, PHOTONIC, b)),
    (ion.Carrier(2, "U"), lambda e, b: ion.pulse_unitary(e, TRAP, b)),
    (SEARCH, nogo.realized_channel),
    (nogo.CTRL_U, lambda kind, b: nogo._prepare_samples(kind, 2, (b,))),
]
IDS = ["device", "monitored-device", "carrier", "search-circuit", "search-samples"]


@pytest.mark.parametrize("stage,compile_", STAGES, ids=IDS)
def test_unbound_slot_raises_key_error(stage, compile_):
    with pytest.raises(KeyError, match="slot 'U' is unbound"):
        compile_(stage, {"V": haar_unitary(2, np.random.default_rng(0))})
    with pytest.raises(KeyError, match="slot 'U' is unbound"):
        compile_(stage, None)


@pytest.mark.parametrize("stage,compile_", STAGES, ids=IDS)
def test_wrong_dimension_has_one_message(stage, compile_):
    with pytest.raises(ValueError) as info:
        compile_(stage, {"U": haar_unitary(3, np.random.default_rng(1))})
    assert str(info.value) == "binding for slot 'U' has dim 3, the slot acts on dim 2"


def _two_monitors():
    """The first monitor sees no photon, the second splits the state."""
    space = photonic.PhotonicSpace(("u", "l"), 2)
    split = photonic.PBS(("u", "l"), ("u", "l"))
    watched = photonic.MonitoredDevice("l", "U")
    return photonic.Network(space, (watched, split, watched, split), "u", "u")


def test_a_shot_is_one_branch_of_the_ensemble():
    net = _two_monitors()
    rng = np.random.default_rng(5)
    inp = photonic.photon_input(net.space, "u", (0.6, 0.8), [1, 0])
    bindings = {"U": haar_unitary(2, rng)}
    ensemble = photonic.propagate(net, inp, bindings)
    by_record = {b.outcomes: b for b in ensemble.branches}
    assert len(by_record) == 2
    seen = set()
    for seed in range(12):
        shot = photonic.propagate(net, inp, bindings, rng=np.random.default_rng(seed))
        branch = by_record[shot.outcome]
        assert shot.probability == branch.probability
        assert np.array_equal(shot.state.amps, branch.state.amps)
        seen.add(shot.outcome)
    assert seen == set(by_record)


def test_pulse_field_types_are_checked():
    with pytest.raises(ValueError, match="'which'"):
        ion.PulseSequence.from_json('[{"type": "hiding", "ion": 2, "which": 5}]')
    with pytest.raises(ValueError, match="lacks the field 'slot'"):
        ion.PulseSequence.from_json('[{"type": "carrier", "ion": 2}]')

