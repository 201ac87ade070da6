"""Print a fingerprint of every report and matrix a fixed set of calls produces.

Each line is one in-process ``cli.main`` call (exit code, sha256 of its
stdout plus the file it wrote, with the temporary directory masked, and
the first stderr line) or one element, pulse or network matrix (sha256
of its ``complex128`` bytes), followed by ``oracle_sanity(8)``.  Two
checkouts that print the same lines produce byte-identical reports and
matrices on this machine.  The hashes depend on the BLAS, so compare
only runs made on one machine.

Usage::

    python tools/golden_reports.py [--src DIR] > golden.txt

``--src`` selects the ``src`` directory whose ``ctrlsim`` is imported
(default: the one next to this script), so one copy of the script
fingerprints any checkout, for instance a ``git worktree`` of the parent
commit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cli_calls(tmp: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every fingerprinted ``cli.main`` call, in order;
    a call that emits a file is followed by the runs that read it."""
    calls: list[tuple[str, list[str]]] = []

    def add(label, *argv):
        calls.append((label, list(argv)))

    photonic = {"ctrl-u": ["--u"], "ctrl-u-monitored": ["--u"], "ctrl-switch": ["--uf", "--ug"]}
    ion = {"ion-ctrl-u": ["--u"], "ion-ctrl-switch": ["--uf", "--ug"]}

    def bind(flags, seed):
        return [x for k, f in enumerate(flags) for x in (f, f"haar:{seed + k}")]

    for preset, flags in photonic.items():
        for dim in (1, 2, 3):
            add(f"run {preset} dim {dim}", "run", "--preset", preset, "--dim", str(dim),
                *bind(flags, 10 * dim), "--alpha", "0.6", "--beta", "0.8", "--beta-phase", "0.3")
    for preset, flags in ion.items():
        for fock in (3, 5):
            add(f"run {preset} fock {fock}", "run", "--preset", preset, "--fock", str(fock),
                *bind(flags, fock), "--alpha", "0.6", "--beta", "0.8")
    gates = ["i", "x", "y", "z", "h", "s", "t", "rx:0.3", "matrix:[[0,0],[1,0],[1,0],[0,0]]"]
    for gate in gates:
        add(f"run ctrl-u --u {gate}", "run", "--preset", "ctrl-u", "--u", gate)
        add(f"run ion-ctrl-u --u {gate}", "run", "--preset", "ion-ctrl-u", "--u", gate,
            "--psi", "0.6,0,0,0.8")
        add(f"run ctrl-switch --uf {gate}", "run", "--preset", "ctrl-switch", "--uf", gate, "--ug", "h")
        add(f"run ion-ctrl-switch --ug {gate}", "run", "--preset", "ion-ctrl-switch", "--uf", "t",
            "--ug", gate, "--beta-phase", "1.1")
    add("run ctrl-switch psi dim 3", "run", "--preset", "ctrl-switch", "--dim", "3",
        "--uf", "haar:1", "--ug", "haar:2", "--psi", "1,0,1,1,0,-1")
    add("run ctrl-switch --bind", "run", "--preset", "ctrl-switch", "--bind", "Uf=x", "--bind", "Ug=h")
    add("run ion-ctrl-switch normalized", "run", "--preset", "ion-ctrl-switch", "--uf", "h",
        "--ug", "t", "--alpha", "3", "--beta", "4")
    for fock in (2, 4):
        add(f"run ion-ctrl-switch fock {fock} psi", "run", "--preset", "ion-ctrl-switch", "--fock",
            str(fock), "--uf", "haar:8", "--ug", "haar:9", "--psi", "0,1,1,0")
    for alpha in ("0", "0.3", "1"):
        add(f"run ctrl-u-monitored alpha {alpha}", "run", "--preset", "ctrl-u-monitored", "--u", "y",
            "--alpha", alpha, "--beta", "0.5")
    for seed in range(6):
        add(f"sample ctrl-u-monitored seed {seed}", "run", "--preset", "ctrl-u-monitored",
            "--u", "haar:5", "--sample", "--seed", str(seed), "--alpha", "0.6", "--beta", "0.8")

    for preset, flags in {**photonic, **ion}.items():
        dims = (1, 2, 3) if preset in photonic else (None,)
        source = "--scheme" if preset in photonic else "--sequence"
        for dim in dims:
            path = os.path.join(tmp, f"{preset}-{dim}.json")
            dim_flag = [] if dim is None else ["--dim", str(dim)]
            add(f"emit {preset} dim {dim}", "emit-scheme", "--preset", preset, *dim_flag, "--out", path)
            add(f"rerun {preset} dim {dim}", "run", source, path, *bind(flags, 40), "--alpha", "0.8",
                "--beta", "0.6")
            if preset == "ctrl-u-monitored":
                for seed in range(3):
                    add(f"rerun-sample {preset} dim {dim} seed {seed}", "run", source, path,
                        *bind(flags, 40), "--sample", "--seed", str(seed))
    add("emit ctrl-u stdout", "emit-scheme", "--preset", "ctrl-u")
    add("emit ion-ctrl-u stdout", "emit-scheme", "--preset", "ion-ctrl-u")

    # a network whose first monitor does not split the state
    twice = {
        "space": {"paths": ["u", "l"], "internal_dim": 2},
        "stages": [
            {"type": "monitored_device", "path": "l", "slot": "U"},
            {"type": "pbs", "ports": {"in": ["u", "l"], "out": ["u", "l"]}},
            {"type": "monitored_device", "path": "l", "slot": "U"},
            {"type": "pbs", "ports": {"in": ["u", "l"], "out": ["u", "l"]}},
        ],
        "input_path": "u",
        "output_path": "u",
    }
    # no slot stage: the amplitudes pass through permutations only
    fixed = {
        "space": {"paths": ["u", "l"], "internal_dim": 2},
        "stages": [
            {"type": "pbs", "ports": {"in": ["u", "l"], "out": ["u", "l"]}},
            {"type": "hwp", "path": "u"},
        ],
        "input_path": "u",
        "output_path": "u",
    }
    files = {
        "twice.json": twice,
        "fixed.json": fixed,
        "fixed-seq.json": [{"type": "sideband_swap", "ion": 1}, {"type": "hiding", "ion": 2, "which": "H1"}],
        "empty.json": {},
        "no-slot.json": [{"type": "carrier", "ion": 2}],
        "no-which.json": [{"type": "hiding", "ion": 2}],
        "which-int.json": [{"type": "hiding", "ion": 2, "which": 5}],
        "bad-type.json": [{"type": "laser", "ion": 2}],
        "not-list.json": {"type": "carrier"},
    }
    for name, doc in files.items():
        with open(os.path.join(tmp, name), "w") as fh:
            json.dump(doc, fh)
    twice_path = os.path.join(tmp, "twice.json")
    add("run twice ensemble", "run", "--scheme", twice_path, "--u", "h")
    for seed in range(4):
        add(f"sample twice seed {seed}", "run", "--scheme", twice_path, "--u", "h", "--sample",
            "--seed", str(seed))
    # a negative alpha times a zero of psi is -0.0, and a report prints a zero's sign
    for source, name, psi in (("--scheme", "fixed.json", "0,0,1,0"), ("--sequence", "fixed-seq.json", "1,0,0,0")):
        add(f"run {name} negative alpha", "run", source, os.path.join(tmp, name), "--alpha", "-0.6",
            "--beta", "0.8", "--psi", psi)

    for k, (kind, dim, ancilla, seed) in enumerate(
        [("ctrl-u", 2, 1, 0), ("ctrl-u", 2, 2, 7), ("switch", 2, 1, 3), ("switch", 3, 1, 1)]
    ):
        add(f"nogo {kind} seed {seed}", "nogo", "--kind", kind, "--dim", str(dim), "--ancilla",
            str(ancilla), "--restarts", "2", "--samples", "3", "--max-iters", "40", "--seed", str(seed),
            "--out", os.path.join(tmp, f"nogo-{k}.json"))

    three = "matrix:" + json.dumps([[1, 0], [0, 0], [0, 0]] + [[0, 0], [1, 0], [0, 0]] + [[0, 0], [0, 0], [1, 0]])
    errors = [
        ("missing binding", "run", "--preset", "ctrl-u"),
        ("bad gate spec", "run", "--preset", "ctrl-u", "--u", "frobnicate"),
        ("non-unitary literal", "run", "--preset", "ctrl-u", "--u", "matrix:[[1,0],[1,0],[0,0],[0,0]]"),
        ("wrong-dim photonic", "run", "--scheme", os.path.join(tmp, "ctrl-u-2.json"), "--u", three),
        ("wrong-dim ion", "run", "--preset", "ion-ctrl-u", "--u", three),
        ("dim disagrees", "run", "--preset", "ion-ctrl-u", "--u", "x", "--dim", "3"),
        ("emit ion dim", "emit-scheme", "--preset", "ion-ctrl-u", "--dim", "3"),
        ("sample no monitor", "run", "--preset", "ctrl-u", "--u", "x", "--sample"),
        ("sample ion", "run", "--preset", "ion-ctrl-u", "--u", "x", "--sample"),
        ("nan alpha", "run", "--preset", "ctrl-u", "--u", "x", "--alpha", "nan"),
        ("zero control", "run", "--preset", "ctrl-u", "--u", "x", "--alpha", "0", "--beta", "0"),
        ("bad psi", "run", "--preset", "ctrl-u", "--u", "x", "--psi", "1,0"),
        ("no source", "run", "--u", "x"),
        ("two sources", "run", "--preset", "ctrl-u", "--sequence", "x.json", "--u", "x"),
        ("missing file", "run", "--scheme", os.path.join(tmp, "absent.json"), "--u", "x"),
        ("bind syntax", "run", "--preset", "ctrl-u", "--bind", "U"),
        ("bound twice sugar", "run", "--preset", "ctrl-u", "--bind", "U=x", "--u", "z"),
        ("bound twice bind", "run", "--preset", "ctrl-u", "--bind", "U=x", "--bind", "U=z"),
        ("empty scheme", "run", "--scheme", os.path.join(tmp, "empty.json"), "--u", "x"),
        ("carrier without slot", "run", "--sequence", os.path.join(tmp, "no-slot.json"), "--u", "x"),
        ("hiding without which", "run", "--sequence", os.path.join(tmp, "no-which.json"), "--u", "x"),
        ("which is an integer", "run", "--sequence", os.path.join(tmp, "which-int.json"), "--u", "x"),
        ("unknown pulse", "run", "--sequence", os.path.join(tmp, "bad-type.json"), "--u", "x"),
        ("sequence not a list", "run", "--sequence", os.path.join(tmp, "not-list.json"), "--u", "x"),
        ("scheme is a sequence", "run", "--scheme", os.path.join(tmp, "no-slot.json"), "--u", "x"),
    ]
    for label, *argv in errors:
        add(f"error: {label}", *argv)
    return calls


def run_call(cli, argv: list[str], tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = b""
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                written = fh.read()
    digest = _sha((out.getvalue().encode() + b"\0" + written).replace(tmp.encode(), b"<tmp>"))
    first = (err.getvalue().splitlines() or [""])[0].replace(tmp, "<tmp>")
    return f"exit {code} {digest} {first}"


def matrices(hilbert, photonic, ion) -> list[tuple[str, object]]:
    """(label, Operator) of every distinct element, pulse and network
    unitary of the presets over a range of sizes."""
    out = []
    for dim in (1, 2, 3, 4, 5, 6):
        rng = np.random.default_rng(dim)
        bindings = {s: hilbert.haar_unitary(dim, rng) for s in ("U", "Uf", "Ug")}
        for build in (photonic.preset_ctrl_u, photonic.preset_ctrl_u_monitored, photonic.preset_ctrl_switch):
            net = build(dim)
            for e in dict.fromkeys(net.stages):
                out.append((f"element {build.__name__} dim {dim} {e}", photonic.element_unitary(e, net.space, bindings)))
        if dim <= 4:
            for build in (photonic.preset_ctrl_u, photonic.preset_ctrl_switch):
                out.append((f"network {build.__name__} dim {dim}", photonic.network_unitary(build(dim), bindings)))
    rng = np.random.default_rng(99)
    bindings = {s: hilbert.haar_unitary(2, rng) for s in ("U", "Uf", "Ug")}
    pulses = dict.fromkeys(ion.seq_ctrl_u().pulses + ion.seq_ctrl_switch().pulses)
    pulses.update(dict.fromkeys([ion.SidebandSwap(2), ion.Carrier(1, "U"), ion.Hiding(1, "H1"),
                                 ion.Hiding(1, "H2"), ion.SigmaX(1, "Sg"), ion.SigmaX(1, "Se")]))
    for fock in (2, 3, 4, 5, 8, 10):
        space = ion.TrapSpace(fock_cutoff=fock)
        for p in pulses:
            out.append((f"pulse fock {fock} {p}", ion.pulse_unitary(p, space, bindings)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from ctrlsim import cli, hilbert, ion, nogo, photonic

    with tempfile.TemporaryDirectory() as tmp:
        tmp = os.path.realpath(tmp)
        for label, call in cli_calls(tmp):
            print(f"{label}: {run_call(cli, call, tmp)}")
    for label, op in matrices(hilbert, photonic, ion):
        print(f"{label}: {_sha(op.entries.tobytes())}")
    print(f"oracle_sanity(8): {nogo.oracle_sanity(8)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
