"""The layer photonic networks and ion pulse sequences share: scheme
spaces that are HilbertSpaces, one slot-binding check, which the search
passes through too, compiled stages that act exactly as the dense stage
matrices, slot-stage matrices equal to test-side embeddings, fixed-stage
gathers built once per process, one sampler over the exact branch
ensemble, and pulse files read field by field."""

import numpy as np
import pytest

from ctrlsim import ion, nogo, photonic
from ctrlsim.hilbert import (
    DirectSumBlock,
    HilbertSpace,
    Operator,
    StateVector,
    _apply_stage,
    _fixed_stage,
    _gather,
    basis_state,
    haar_unitary,
    random_unit_vector,
    subspace_embed,
)

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


@pytest.mark.parametrize(
    "space,factors",
    [
        (photonic.preset_ctrl_u(3).space, (("path", 2), ("pol", 2), ("internal", 3))),
        (photonic.preset_ctrl_switch(2).space, (("path", 2), ("pol", 2), ("internal", 2))),
        (ion.TrapSpace(4), (("ion1", 4), ("ion2", 4), ("mode", 4))),
        (ion.TrapSpace(), (("ion1", 4), ("ion2", 4), ("mode", 3))),
    ],
)
def test_scheme_spaces_are_hilbert_spaces(space, factors):
    assert isinstance(space, HilbertSpace)
    assert space.factors == factors
    assert space.total_dim == np.prod([dim for _, dim in factors])


def test_trap_space_stores_the_cutoff_its_mode_factor_has():
    for cutoff in (4, np.int64(4)):
        space = ion.TrapSpace(cutoff)
        assert type(space.fock_cutoff) is int and space.fock_cutoff == space.dim_of("mode") == 4
        assert space == ion.TrapSpace(4) and hash(space) == hash(ion.TrapSpace(4))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ion.TrapSpace(1), "need at least occupations 0 and 1"),
        (
            lambda: photonic.PhotonicSpace(("u", "u"), 2),
            "path labels must be unique, got ('u', 'u')",
        ),
        (lambda: photonic.PhotonicSpace(("u",), 0), "internal dimension must be at least 1"),
        (lambda: photonic.PhotonicSpace((), 2), "a photonic space needs at least one path"),
        # a size that is not an int is refused, not truncated
        (lambda: HilbertSpace([("a", 2.5)]), "dim of 'a' must be an int, got 2.5"),
        (lambda: HilbertSpace([("a", True)]), "dim of 'a' must be an int, got True"),
        (lambda: HilbertSpace([("a", "2")]), "dim of 'a' must be an int, got '2'"),
        (lambda: photonic.PhotonicSpace(("u", "l"), 2.9), "internal dimension must be an int, got 2.9"),
        (lambda: photonic.PhotonicSpace(("u",), True), "internal dimension must be an int, got True"),
        (lambda: ion.TrapSpace(3.7), "fock_cutoff must be an int, got 3.7"),
        (lambda: ion.TrapSpace(4.0), "fock_cutoff must be an int, got 4.0"),
        (lambda: ion.TrapSpace(True), "fock_cutoff must be an int, got True"),
    ],
)
def test_scheme_spaces_check_their_own_arguments(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_numpy_integer_sizes_are_accepted_as_ints():
    assert HilbertSpace([("a", np.int64(2))]).factors == (("a", 2),)
    space = photonic.PhotonicSpace(("u", "l"), np.int32(3))
    assert type(space.internal_dim) is int and space.dims == (2, 2, 3)


def test_flat_indices_are_range_checked():
    # in range, flat is the C-order index; out of range it raises instead
    # of landing on another basis state or counting from the end
    assert [TRAP.flat(*c) for c in np.ndindex(TRAP.dims)] == list(range(TRAP.total_dim))
    coords = np.ndindex(PHOTONIC.dims)
    assert [PHOTONIC.flat(PHOTONIC.paths[p], *c) for p, *c in coords] == list(range(8))
    for occupation in ((0, 5, 0), (-1, 0, 0)):
        with pytest.raises(ValueError) as info:
            TRAP.flat(*occupation)
        assert str(info.value) == f"occupation {occupation} outside dims (4, 4, 3)"
    with pytest.raises(ValueError) as info:
        PHOTONIC.flat("u", 2, 0)
    assert str(info.value) == "occupation (0, 2, 0) outside dims (2, 2, 2)"


@pytest.mark.parametrize("build", [photonic.preset_ctrl_switch, photonic.preset_ctrl_u_monitored])
def test_propagate_takes_a_state_on_a_plain_space_with_the_same_factors(build):
    rng = np.random.default_rng(24)
    net = build(2)
    bindings = {s: haar_unitary(2, rng) for s in net.slots}
    amps = random_unit_vector(net.space.total_dim, rng)
    own, plain = (
        photonic.propagate(net, StateVector(space, amps), bindings)
        for space in (net.space, HilbertSpace(net.space.factors))
    )
    own = getattr(own, "branches", [own])
    plain = getattr(plain, "branches", [plain])
    assert len(own) == len(plain)
    for a, b in zip(own, plain):
        assert b.state.space is net.space
        assert np.array_equal(a.state.amps, b.state.amps)


def test_run_sequence_takes_a_state_on_a_plain_space_with_the_same_factors():
    rng = np.random.default_rng(24)
    bindings = {s: haar_unitary(2, rng) for s in ("Uf", "Ug")}
    amps = random_unit_vector(TRAP.total_dim, rng)
    seq = ion.seq_ctrl_switch()
    own = ion.run_sequence(seq, StateVector(TRAP, amps), bindings, space=TRAP)
    plain = StateVector(HilbertSpace(TRAP.factors), amps)
    for space in (None, TRAP):
        final, trace = ion.run_sequence(seq, plain, bindings, space)
        assert final.space == TRAP
        assert np.array_equal(final.amps, own[0].amps)
        assert all(np.array_equal(a.amps, b.amps) for a, b in zip(trace, own[1], strict=True))


def test_a_state_on_other_factors_is_refused():
    net = photonic.preset_ctrl_u(2)
    bindings = {"U": haar_unitary(2, np.random.default_rng(0))}
    for other in (
        photonic.PhotonicSpace(("u", "l"), 3),
        HilbertSpace([("path", 2), ("pol", 2), ("spin", 2)]),
    ):
        with pytest.raises(ValueError) as info:
            photonic.propagate(net, basis_state(other, (0, 0, 0)), bindings)
        assert str(info.value) == "input state does not live on the network space"
    for other in (ion.TrapSpace(4), HilbertSpace([("ion1", 4), ("ion2", 4), ("phonon", 3)])):
        with pytest.raises(ValueError) as info:
            ion.run_sequence(ion.seq_ctrl_u(), basis_state(other, (0, 0, 0)), bindings, TRAP)
        assert str(info.value) == "initial state does not live on the trap space"

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
        (shot,) = photonic.sample(ensemble, 1, np.random.default_rng(seed))
        branch = by_record[shot.outcomes]
        assert shot.probability == branch.probability
        assert np.array_equal(shot.state.amps, branch.state.amps)
        seen.add(shot.outcomes)
    assert seen == set(by_record)


def test_a_shot_is_drawn_by_one_uniform_value():
    """A shot is branch ``k``, the insertion point of one ``rng.random()``
    in the normalized cumulative probabilities, so a seed fixes the shot
    that ``ctrlsim run --sample --seed`` reports."""
    net = _two_monitors()
    inp = photonic.photon_input(net.space, "u", (0.6, 0.8), [1, 0])
    ensemble = photonic.propagate(net, inp, {"U": haar_unitary(2, np.random.default_rng(5))})
    p = np.array([b.probability for b in ensemble.branches])
    for seed in range(12):
        u = np.random.default_rng(seed).random()
        pick = int(np.searchsorted(np.cumsum(p / p.sum()), u))
        (shot,) = photonic.sample(ensemble, 1, np.random.default_rng(seed))
        assert shot is ensemble.branches[pick]


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


@pytest.mark.parametrize("device", [photonic.Device, photonic.MonitoredDevice])
@pytest.mark.parametrize("d", [1, 2, 3, 16])
def test_device_matrix_is_the_kron_block_embedded_on_its_path(device, d):
    # the oracle: 1_pol x U as a direct-sum block on the path's indices
    space = photonic.PhotonicSpace(("a", "b", "c"), d)
    u = haar_unitary(d, np.random.default_rng(d))
    for path in space.paths:
        block = DirectSumBlock(
            [space.flat(path, pol, i) for pol in (photonic.H, photonic.V) for i in range(d)],
            space.total_dim,
        )
        want = subspace_embed(Operator(np.kron(np.eye(2), u.entries)), block).entries
        got = photonic.element_unitary(device(path, "U"), space, {"U": u}).entries
        assert np.array_equal(got, want), path


@pytest.mark.parametrize("fock", [2, 3, 10])
def test_carrier_matrix_is_the_bound_matrix_on_every_g_e_pair(fock):
    space = ion.TrapSpace(fock)
    u = haar_unitary(2, np.random.default_rng(fock))
    for which in (1, 2):
        want = np.eye(space.total_dim, dtype=complex)
        for other in range(4):
            for n in range(fock):
                levels = [(lv, other) if which == 1 else (other, lv) for lv in (ion.G, ion.E)]
                pair = [space.flat(*lvs, n) for lvs in levels]
                for i in range(2):
                    for j in range(2):
                        want[pair[i], pair[j]] = u.entries[i, j]
        got = ion.pulse_unitary(ion.Carrier(which, "U"), space, {"U": u}).entries
        assert np.array_equal(got, want), which


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
        _fixed_stage(photonic._element_map, photonic.HWP("u"), photonic.PhotonicSpace(paths, 2))
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
