"""Property tests of the ``ctrlsim run`` exit-code contract.

Whatever the scheme or sequence file, the float flags, the ``--psi``
entries and a rotation's angle hold, ``run`` exits 0, 1 or 2 and never
lets an exception escape; the suite turns numpy warnings into errors,
so none may be printed on the way.  Exit 2 leaves no report; exit 1
only comes with a finite fidelity in the report.
"""

import copy
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlsim import ion, photonic
from ctrlsim.cli import main

# few examples, fixed seeds: the contract is checked without moving the
# suite's run time or making it flaky
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

BIND = ["--u", "haar:1", "--uf", "haar:2", "--ug", "haar:3"]

# what emit-scheme writes for every preset, as (source flag, document)
EMITTED = [
    ("--scheme", photonic.preset_ctrl_u(2).to_json_dict()),
    ("--scheme", photonic.preset_ctrl_u_monitored(2).to_json_dict()),
    ("--scheme", photonic.preset_ctrl_switch(2).to_json_dict()),
    ("--sequence", ion.seq_ctrl_u().to_json_list()),
    ("--sequence", ion.seq_ctrl_switch().to_json_list()),
]

# small integers only: a dimension or an ion index drawn from here keeps
# every run small
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["U", "Uf", "Ug", "u", "l", "in", "out", "pbs", "hwp", "device",
                       "monitored_device", "reroute", "carrier", "hiding", "sigma_x",
                       "sideband_swap", "g", "e"])
    | st.text(max_size=3)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every position in a parsed JSON document, as a key/index tuple."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _check_run(argv_head, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        out = os.path.join(tmp, "report.json")
        with open(path, "w") as fh:
            fh.write(text)
        code = main(["run", *argv_head, path, *BIND, "--out", out])
        _check_outcome(code, out)


def _check_outcome(code, out):
    assert code in (0, 1, 2)
    if code == 2:
        assert not os.path.exists(out)
        return
    with open(out) as fh:
        fidelity = json.load(fh)["fidelity"]
    if code == 1:
        assert fidelity is not None and math.isfinite(fidelity)


@FUZZ
@given(source=st.sampled_from(["--scheme", "--sequence"]), doc=JSON)
def test_arbitrary_json_files(source, doc):
    _check_run([source], json.dumps(doc))


@FUZZ
@given(data=st.data())
def test_mutated_emitted_files(data):
    source, doc = data.draw(st.sampled_from(EMITTED))
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        doc = data.draw(JSON)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON)
    _check_run([source], json.dumps(doc))


FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@FUZZ
@given(
    preset=st.sampled_from(["ctrl-u", "ctrl-u-monitored", "ctrl-switch", "ion-ctrl-u", "ion-ctrl-switch"]),
    floats=st.lists(FLOAT, min_size=4, max_size=4),
    psi=st.lists(FLOAT, min_size=4, max_size=4),
    rotation=st.sampled_from(["rx", "ry", "rz"]),
    angle=FLOAT,
)
def test_float_flags(preset, floats, psi, rotation, angle):
    # every preset has a qubit system at the default size, so four --psi
    # entries; the rotation binds U and Uf, a slot of every preset
    names = ("--alpha", "--beta", "--beta-phase", "--tolerance")
    flags = [f"{name}={value!r}" for name, value in zip(names, floats)]
    flags += [f"--psi={','.join(map(repr, psi))}"]
    gate = f"{rotation}:{angle!r}"
    bind = ["--u", gate, "--uf", gate, "--ug", "haar:3"]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        code = main(["run", "--preset", preset, *bind, *flags, "--out", out])
        _check_outcome(code, out)
