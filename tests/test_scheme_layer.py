"""The layer photonic networks and ion pulse sequences share: one
slot-binding check, which the search passes through too, compiled stages
that act exactly as the dense stage matrices, fixed-stage gathers built
once per process, one sampler over the exact branch ensemble, and pulse
files read field by field."""

import numpy as np
import pytest

from ctrlsim import ion, nogo, photonic
from ctrlsim.hilbert import _apply_stage, _fixed_stage, _gather, haar_unitary, random_unit_vector

PHOTONIC = photonic.PhotonicSpace(("u", "l"), 2)
TRAP = ion.TrapSpace(3)

# (stage carrying slot "U" of dimension 2, how to compile it)
STAGES = [
    (photonic.Device("l", "U"), lambda e, b: photonic.element_unitary(e, PHOTONIC, b)),
    (photonic.MonitoredDevice("l", "U"), lambda e, b: photonic.element_unitary(e, PHOTONIC, b)),
    (ion.Carrier(2, "U"), lambda e, b: ion.pulse_unitary(e, TRAP, b)),
    (nogo.CTRL_U, lambda kind, b: nogo._prepare_samples(kind, 2, (b,))),
]
IDS = ["device", "monitored-device", "carrier", "search-samples"]


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


@pytest.mark.parametrize("stage,compile_", STAGES, ids=IDS)
def test_a_binding_that_is_not_an_operator_fails_closed(stage, compile_):
    # a raw matrix, unitary and of the right dimension, is still not a binding
    with pytest.raises(TypeError) as info:
        compile_(stage, {"U": np.eye(2)})
    assert str(info.value) == "binding for slot 'U' is a ndarray, not an Operator"


def test_non_operator_bindings_fail_closed_in_propagate_and_run_sequence():
    bad = {"U": np.eye(2)}
    net = photonic.preset_ctrl_u(2)
    photon = photonic.photon_input(net.space, net.input_path, (1, 0), [1, 0])
    with pytest.raises(TypeError, match="not an Operator"):
        photonic.propagate(net, photon, bad)
    with pytest.raises(TypeError, match="not an Operator"):
        ion.run_sequence(ion.seq_ctrl_u(), ion.ion_input(TRAP, (1, 0), (1, 0)), bad)


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



def _cycle(d):
    """Fixed stages that are not their own inverse: a three-path cycle."""
    space = photonic.PhotonicSpace(("a", "b", "c"), d)
    turn = photonic.Reroute({"a": "b", "b": "c", "c": "a"})
    stages = (turn, photonic.HWP("b"), photonic.Device("c", "U"), turn)
    return photonic.Network(space, stages, "a", "c")


def _photonic_cases():
    presets = (photonic.preset_ctrl_u, photonic.preset_ctrl_u_monitored, photonic.preset_ctrl_switch, _cycle)
    for build in presets:
        for d in (1, 2, 3, 16):
            net = build(d)
            rng = np.random.default_rng(d)
            bindings = {slot: haar_unitary(d, rng) for slot in net.slots}
            compiled = photonic._compile(net, bindings)
            dense = [photonic.element_unitary(e, net.space, bindings).entries for e in net.stages]
            yield f"{build.__name__} dim {d}", net.stages, compiled, dense


def _ion_cases():
    for seq in (ion.seq_ctrl_u(), ion.seq_ctrl_switch()):
        for fock in (2, 3, 10):
            space = ion.TrapSpace(fock)
            rng = np.random.default_rng(fock)
            bindings = {slot: haar_unitary(2, rng) for slot in seq.slots}
            compiled = ion._compile(seq, space, bindings)
            dense = [ion.pulse_unitary(p, space, bindings).entries for p in seq.pulses]
            yield f"{len(seq.pulses)} pulses fock {fock}", seq.pulses, compiled, dense


def test_compiled_stages_act_exactly_as_their_dense_matrices():
    rng = np.random.default_rng(11)
    for label, stages, compiled, dense in [*_photonic_cases(), *_ion_cases()]:
        for stage, action, matrix in zip(stages, compiled, dense, strict=True):
            # fixed stages gather, slot stages keep their matrix
            assert action.ndim == (2 if hasattr(stage, "slot") else 1), (label, stage)
            for _ in range(3):
                s = random_unit_vector(matrix.shape[0], rng)
                assert np.array_equal(_apply_stage(action, s), matrix @ s), (label, stage)
            # to the bit, signed zeros included: a report prints a zero's sign
            s[::2] = np.resize([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)], s[::2].size)
            assert _apply_stage(action, s).tobytes() == (matrix @ s).tobytes(), (label, stage)


@pytest.mark.parametrize("build", [photonic.preset_ctrl_u, photonic.preset_ctrl_switch, _cycle])
@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_network_unitary_is_the_dense_product(build, d):
    net = build(d)
    rng = np.random.default_rng(d)
    bindings = {slot: haar_unitary(d, rng) for slot in net.slots}
    total = np.eye(net.space.total_dim, dtype=np.complex128)
    for e in net.stages:
        total = photonic.element_unitary(e, net.space, bindings).entries @ total
    assert np.array_equal(photonic.network_unitary(net, bindings).entries, total)


@pytest.mark.parametrize(
    "dest", [[0, 0, 2], [0, 1, 3], [-1, 0, 1], [0.0, 1.0, 2.0], [[0, 1], [1, 0]]],
    ids=["duplicate", "out-of-range", "negative", "float", "two-dim"],
)
def test_gather_rejects_a_map_that_is_not_a_permutation(dest):
    with pytest.raises(ValueError, match="not a permutation"):
        _gather(np.array(dest))


def test_gather_is_read_only_and_inverts_the_map():
    src = _gather(np.array([2, 0, 1]))
    assert src.tolist() == [1, 2, 0]
    assert not src.flags.writeable


def test_equal_fixed_stages_share_one_read_only_gather():
    # equal but distinct (stage, space) keys, then whole compiled schemes
    first, again = (
        _fixed_stage(photonic._element_dest, photonic.HWP("u"), photonic.PhotonicSpace(paths, 2))
        for paths in (("u", "l"), ["u", "l"])
    )
    assert first is again
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1
    nets = [photonic.preset_ctrl_switch(2) for _ in range(2)]
    rng = np.random.default_rng(4)
    a, b = (photonic._compile(net, {s: haar_unitary(2, rng) for s in net.slots}) for net in nets)
    for stage, x, y in zip(nets[0].stages, a, b, strict=True):
        # a slot stage is built afresh from each call's binding
        assert (x is y) != hasattr(stage, "slot"), stage
    a, b = (ion._compile(ion.seq_ctrl_u(), ion.TrapSpace(3), {"U": haar_unitary(2, rng)}) for _ in range(2))
    for pulse, x, y in zip(ion.seq_ctrl_u().pulses, a, b, strict=True):
        assert (x is y) != hasattr(pulse, "slot"), pulse


def _not_a_permutation(stage, space):
    return np.zeros(space.total_dim, dtype=int)


def test_a_bad_stage_map_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="not a permutation"):
            _fixed_stage(_not_a_permutation, photonic.HWP("u"), PHOTONIC)
