"""Property tests of photonic networks and ion pulse sequences.

Random networks of every element type over 2-4 paths, and random pulse
sequences, survive a JSON round trip exactly; without a monitored
device, ``propagate`` and ``run_sequence`` conserve the norm under Haar
bindings.  The random PBS wirings and reroutes reach permutations the
presets never build.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlsim import ion, photonic
from ctrlsim.hilbert import StateVector, haar_unitary, random_unit_vector

# few examples, fixed seeds: the properties are checked without moving
# the suite's run time or making it flaky
PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

PATHS = ("a", "b", "c", "d")


@st.composite
def pbs(draw, paths):
    """A PBS whose output ports are its input ports, in either order, or
    two other paths: the wirings that make a permutation."""
    ins = draw(st.permutations(paths).map(lambda p: tuple(p[:2])))
    rest = [p for p in paths if p not in ins]
    choices = [ins, ins[::-1]] + ([tuple(rest[:2]), tuple(rest[1::-1])] if len(rest) >= 2 else [])
    return photonic.PBS(ins, draw(st.sampled_from(choices)))


def element(paths, monitored):
    path = st.sampled_from(paths)
    # one slot name per device, so a repeated device is one insertion
    devices = [path.map(lambda p: photonic.Device(p, f"U{p}"))]
    if monitored:
        devices.append(path.map(lambda p: photonic.MonitoredDevice(p, f"M{p}")))
    return st.one_of(
        pbs(paths),
        path.map(photonic.HWP),
        st.permutations(paths).map(lambda perm: photonic.Reroute(dict(zip(paths, perm)))),
        *devices,
    )


@st.composite
def networks(draw, monitored=True):
    paths = PATHS[: draw(st.integers(2, 4))]
    space = photonic.PhotonicSpace(paths, draw(st.integers(1, 3)))
    stages = draw(st.lists(element(paths, monitored), max_size=8))
    return photonic.Network(
        space, stages, draw(st.sampled_from(paths)), draw(st.sampled_from(paths))
    )


pulses = st.one_of(
    st.builds(ion.SidebandSwap, st.sampled_from((1, 2))),
    st.builds(ion.Hiding, st.sampled_from((1, 2)), st.sampled_from(("H1", "H2"))),
    st.builds(ion.Carrier, st.sampled_from((1, 2)), st.sampled_from(("U", "Uf", "Ug"))),
    st.builds(ion.SigmaX, st.sampled_from((1, 2)), st.sampled_from(("Sg", "Se"))),
)
sequences = st.lists(pulses, max_size=10).map(ion.PulseSequence)
seeds = st.integers(0, 2**32 - 1)


@PROPS
@given(networks())
def test_network_json_round_trip_is_exact(net):
    text = net.to_json()
    back = photonic.Network.from_json(text)
    assert back == net
    assert back.to_json() == text


@PROPS
@given(sequences)
def test_sequence_json_round_trip_is_exact(seq):
    text = seq.to_json()
    back = ion.PulseSequence.from_json(text)
    assert back == seq
    assert back.to_json() == text


@PROPS
@given(networks(monitored=False), seeds)
def test_propagate_conserves_norm(net, seed):
    rng = np.random.default_rng(seed)
    bindings = {s: haar_unitary(net.space.internal_dim, rng) for s in net.slots}
    psi = StateVector(net.space, random_unit_vector(net.space.total_dim, rng))
    outcome = photonic.propagate(net, psi, bindings)
    assert isinstance(outcome, photonic.PureOutcome)
    assert abs(np.linalg.norm(outcome.state.amps) - 1) < 1e-10


@PROPS
@given(sequences, st.integers(2, 4), seeds)
def test_run_sequence_conserves_norm(seq, fock, seed):
    rng = np.random.default_rng(seed)
    space = ion.TrapSpace(fock_cutoff=fock)
    bindings = {s: haar_unitary(2, rng) for s in ("U", "Uf", "Ug")}
    psi = StateVector(space, random_unit_vector(space.total_dim, rng))
    final, trace = ion.run_sequence(seq, psi, bindings, space=space)
    assert len(trace) == len(seq.pulses)
    assert abs(np.linalg.norm(final.amps) - 1) < 1e-10


@PROPS
@given(st.integers(2, 4).flatmap(lambda n: st.permutations(PATHS[:n])), st.integers(1, 3), seeds)
def test_reroute_moves_each_path_to_its_image(perm, dim, seed):
    paths = PATHS[: len(perm)]
    space = photonic.PhotonicSpace(paths, dim)
    reroute = photonic.element_unitary(photonic.Reroute(dict(zip(paths, perm))), space).entries
    rng = np.random.default_rng(seed)
    block = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    block /= np.linalg.norm(block)
    for src, dst in zip(paths, perm):
        moved = reroute @ photonic.place_on_path(space, src, block).amps
        assert np.array_equal(moved[space.path_slice(dst)], block)
