"""Command-line front end: run schemes, run the search, emit files.

Commands
--------
run
    Run a preset or a scheme/sequence file, compare against the scheme's
    analytic target state, write a JSON report.  Exit 0 when the
    fidelity reaches 1 - tolerance, 1 on fidelity failure, 2 on bad
    input.  Monitored presets report the mixed-state fidelity without a
    threshold.
nogo
    Run the fixed-circuit search and write the search report.
emit-scheme
    Write a preset's scheme (photonic) or sequence (ion) file.

Reports never contain wall-clock data, and all randomness flows from
the ``--seed`` flag plus gate-spec seeds, so identical invocations
produce byte-identical reports.  Files are written via a temporary
name and an atomic rename, so a failed run never leaves a partial
report behind.  The argument parser is built once per process, on the
first call of :func:`main`, and reused: parsing keeps no state in it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, ion, nogo, photonic
from .hilbert import Operator, fidelity_mixed, fidelity_pure, haar_unitary

_PAULI = {
    "i": np.eye(2),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "s": np.diag([1, 1j]),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]),
}

def parse_gate_spec(text: str, dim: int = 2) -> Operator:
    """Parse a gate description into a unitary operator.

    Accepted forms: the named gates ``i x y z h s t``, rotations
    ``rx:θ ry:θ rz:θ`` (radians), ``haar:seed`` (deterministic in the
    non-negative integer seed, dimension ``dim``), and
    ``matrix:[[re,im],...]`` with the entries row-major.
    """
    text = text.strip()
    name, _, arg = text.partition(":")
    name = name.lower()
    if name in _PAULI and not arg:
        return Operator(_PAULI[name])
    if name in ("rx", "ry", "rz"):
        try:
            theta = float(arg)
        except ValueError:
            raise ValueError(f"malformed angle in gate spec {text!r}") from None
        if not math.isfinite(theta):
            raise ValueError(f"angle in gate spec {text!r} must be finite")
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        if name == "rx":
            return Operator([[c, -1j * s], [-1j * s, c]])
        if name == "ry":
            return Operator([[c, -s], [s, c]])
        return Operator(np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))
    if name == "haar":
        try:
            seed = int(arg)
        except ValueError:
            seed = None
        if seed is None or seed < 0:
            raise ValueError(f"malformed seed in gate spec {text!r}")
        return haar_unitary(dim, np.random.default_rng(seed))
    if name == "matrix":
        try:
            pairs = json.loads(arg)
            flat = [complex(re, im) for re, im in pairs]
        except (ValueError, TypeError) as exc:
            raise ValueError(f"malformed matrix literal {text!r}: {exc}") from None
        d = int(round(np.sqrt(len(flat))))
        if d < 1 or d * d != len(flat):
            raise ValueError(f"matrix literal needs a positive square entry count, got {len(flat)}")
        m = np.array(flat, dtype=complex).reshape(d, d)
        try:
            # an inf or an overflowing entry makes the deviation NaN or
            # inf, which fails the check; numpy need not warn about it
            with np.errstate(over="ignore", invalid="ignore"):
                return Operator(m)
        except ValueError as exc:
            raise ValueError(f"matrix literal is not unitary: {exc}") from None
    raise ValueError(f"unknown gate spec {text!r}")


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def _matrix_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [_complex_pairs(row) for row in m]


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _normalized(amps, zero: str, too_large: str, what: str) -> np.ndarray:
    """``amps`` over its norm, each real and imaginary part divided as a
    float; the norm goes to stderr when it is not 1.

    The parts are first scaled by the power of two of the largest
    ``|part|``, which is exact, so entries whose squares underflow still
    normalize, and the norm is otherwise bit for bit the unscaled one.
    An all-zero vector raises ``zero``, and one whose squared norm
    overflows a float raises ``too_large``.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    parts = amps.view(np.float64)
    peak = float(np.abs(parts).max())
    if peak == 0:
        raise ValueError(zero)
    shift = math.frexp(peak)[1]
    parts = np.ldexp(parts, -shift)
    scaled_norm = float(np.linalg.norm(parts.view(np.complex128)))
    if math.log2(scaled_norm) + shift >= 512:
        raise ValueError(too_large)
    norm = math.ldexp(scaled_norm, shift)
    if abs(norm - 1.0) <= 1e-12:
        return amps
    print(f"warning: normalizing {what} by 1/{norm:.6g}", file=sys.stderr)
    return (parts / scaled_norm).view(np.complex128)


def _control_amps(args) -> tuple[complex, complex]:
    alpha = complex(args.alpha)
    beta = complex(args.beta) * np.exp(1j * args.beta_phase)
    alpha, beta = _normalized(
        [alpha, beta],
        "alpha and beta cannot both be zero",
        "alpha and beta are too large to normalize",
        "control amplitudes",
    )
    return alpha, beta


def _parse_psi(text: str | None, dim: int) -> np.ndarray:
    if text is None:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        return psi
    values = [float(v) for v in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--psi entries must be finite, got {text!r}")
    if len(values) != 2 * dim:
        raise ValueError(f"--psi expects {2 * dim} numbers (re,im per amplitude)")
    psi = np.array(
        [complex(values[2 * k], values[2 * k + 1]) for k in range(dim)], dtype=complex
    )
    return _normalized(
        psi,
        "--psi cannot be the zero vector",
        "--psi entries are too large to normalize",
        "system state",
    )


def _collect_bindings(args, slots, dim: int) -> tuple[dict[str, str], dict[str, Operator]]:
    """Map slot names to their specs and parsed gates from --u/--uf/--ug/--bind."""
    pairs = []
    for entry in args.bind or []:
        slot, eq, spec = entry.partition("=")
        if not eq:
            raise ValueError(f"--bind expects SLOT=SPEC, got {entry!r}")
        pairs.append((slot, spec))
    sugar = {"U": args.u, "Uf": args.uf, "Ug": args.ug}
    pairs += [(slot, spec) for slot, spec in sugar.items() if spec is not None]
    specs: dict[str, str] = {}
    for slot, spec in pairs:
        if slot in specs:
            raise ValueError(f"slot {slot!r} is bound twice")
        specs[slot] = spec
    missing = set(slots) - set(specs)
    if missing:
        raise ValueError(f"missing gate bindings for slots: {sorted(missing)}")
    gates = {}
    for slot in slots:
        try:
            gates[slot] = parse_gate_spec(specs[slot], dim)
        except ValueError as exc:
            raise ValueError(f"slot {slot!r}: {exc}") from None
    return {slot: specs[slot] for slot in slots}, gates


# preset name -> (scheme family, builder, kind of the analytic target)
PRESETS = {
    "ctrl-u": ("photonic", photonic.preset_ctrl_u, nogo.CTRL_U),
    "ctrl-u-monitored": ("photonic", photonic.preset_ctrl_u_monitored, nogo.CTRL_U),
    "ctrl-switch": ("photonic", photonic.preset_ctrl_switch, nogo.SWITCH),
    "ion-ctrl-u": ("ion", ion.seq_ctrl_u, nogo.CTRL_U),
    "ion-ctrl-switch": ("ion", ion.seq_ctrl_switch, nogo.SWITCH),
}


def _build_preset(args):
    """(family, scheme, target kind) of ``--preset``; photonic presets
    take ``--dim`` (default 2), ion presets always have a qubit system."""
    family, build, kind = PRESETS[args.preset]
    scheme = build(2 if args.dim is None else args.dim) if family == "photonic" else build()
    return family, scheme, kind


def _run(args, family: str, scheme, scheme_id: str, kind: str | None) -> tuple[dict, int]:
    dim, place_in, place_out, propagate = nogo.logical_map(scheme, fock_cutoff=args.fock)
    if args.dim is not None and args.dim != dim:
        raise ValueError(f"--dim {args.dim} disagrees with the scheme's system dimension {dim}")
    specs, bindings = _collect_bindings(args, sorted(scheme.slots), dim)
    alpha, beta = _control_amps(args)
    psi = _parse_psi(args.psi, dim)

    rng = np.random.default_rng(args.seed) if args.sample else None
    outcome = propagate(place_in(np.kron([alpha, beta], psi)), bindings, rng=rng)
    if rng is not None and isinstance(outcome, photonic.PureOutcome):
        raise ValueError("--sample needs a network with a monitored device")

    target = None
    if kind is not None:
        m0, m1 = nogo.control_branches(kind, bindings)
        target = place_out(np.concatenate([alpha * (m0 @ psi), beta * (m1 @ psi)]))

    if isinstance(outcome, photonic.MixedOutcome):
        output = {
            "kind": "mixed",
            "density_matrix": _matrix_pairs(outcome.rho.entries),
            "branch_probabilities": [b.probability for b in outcome.branches],
        }
        fidelity = fidelity_mixed(outcome.rho, target) if target is not None else None
    elif isinstance(outcome, photonic.SampledOutcome):
        output = {
            "kind": "sampled",
            "outcome": outcome.outcome,
            "probability": outcome.probability,
            "amplitudes": _complex_pairs(outcome.state.amps),
        }
        fidelity = None
    else:
        output = {"kind": "pure", "amplitudes": _complex_pairs(outcome.state.amps)}
        fidelity = fidelity_pure(outcome.state, target) if target is not None else None

    size = {"internal_dim": dim} if family == "photonic" else {"fock_cutoff": args.fock}
    report = {
        "scheme": scheme_id,
        "bindings": specs,
        "input": {
            "alpha": [alpha.real, alpha.imag],
            "beta": [beta.real, beta.imag],
            "psi": _complex_pairs(psi),
            **size,
        },
        "slots": scheme.slot_info(),
        "output": output,
        "fidelity": fidelity,
        "seed": args.seed,
        "version": __version__,
    }
    if family == "ion":
        report["ground_mode"] = ion.assert_ground_mode(outcome.state)
    # only a pure output is held to the threshold, not an ensemble or a shot
    failed = fidelity is not None and fidelity < 1.0 - args.tolerance
    if failed and isinstance(outcome, photonic.PureOutcome):
        return report, 1
    return report, 0


def _cmd_run(args) -> int:
    for flag in ("alpha", "beta", "beta_phase", "tolerance"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    if not 0 <= args.tolerance < 1:
        raise ValueError(f"--tolerance must be in [0, 1), got {args.tolerance}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    sources = [args.preset, args.scheme, args.sequence]
    if sum(s is not None for s in sources) != 1:
        raise ValueError("need exactly one of --preset, --scheme, --sequence")
    if args.preset is not None:
        family, scheme, kind = _build_preset(args)
        report, code = _run(args, family, scheme, args.preset, kind)
    else:
        family = "photonic" if args.scheme is not None else "ion"
        path = args.scheme if family == "photonic" else args.sequence
        load = photonic.Network.from_json if family == "photonic" else ion.PulseSequence.from_json
        with open(path) as fh:
            scheme = load(fh.read())
        report, code = _run(args, family, scheme, path, None)
    _write(json.dumps(report, indent=2, sort_keys=True), args.out)
    return code


def _cmd_nogo(args) -> int:
    kind = {"ctrl-u": nogo.CTRL_U, "switch": nogo.SWITCH}[args.kind]
    config = nogo.SearchConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        sample_count=args.samples,
        seed=args.seed,
        system_dim=args.dim,
        ancilla_dim=args.ancilla,
    )
    report = nogo.optimize(kind, config)
    _write(report.to_json(), args.out)
    return 0


def _cmd_emit_scheme(args) -> int:
    family, scheme, _ = _build_preset(args)
    if family == "ion" and args.dim not in (None, 2):
        raise ValueError(f"--dim {args.dim} disagrees with the ion system dimension 2")
    _write(scheme.to_json(), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrlsim",
        description="Simulate control of unknown operations; search fixed circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset or a scheme/sequence file")
    run.add_argument("--preset", choices=PRESETS)
    run.add_argument("--scheme", help="photonic network JSON file")
    run.add_argument("--sequence", help="ion pulse-sequence JSON file")
    run.add_argument("--u", help="gate spec for slot U")
    run.add_argument("--uf", help="gate spec for slot Uf")
    run.add_argument("--ug", help="gate spec for slot Ug")
    run.add_argument("--bind", action="append", help="SLOT=SPEC binding (repeatable)")
    run.add_argument("--alpha", type=float, default=1 / np.sqrt(2))
    run.add_argument("--beta", type=float, default=1 / np.sqrt(2))
    run.add_argument("--beta-phase", type=float, default=0.0, help="radians")
    run.add_argument("--psi", help="system amplitudes re,im,re,im,...")
    run.add_argument(
        "--dim", type=int, help="system dimension: photonic presets default 2, files and ion fixed"
    )
    run.add_argument("--fock", type=int, default=3, help="ion vibrational cutoff")
    run.add_argument("--sample", action="store_true", help="sample one monitored branch")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--tolerance", type=float, default=1e-9)
    run.add_argument("--out", help="report path (default stdout)")
    run.set_defaults(func=_cmd_run)

    ng = sub.add_parser("nogo", help="search fixed circuits for the controlled target")
    ng.add_argument("--kind", choices=("ctrl-u", "switch"), required=True)
    ng.add_argument("--dim", type=int, default=2)
    ng.add_argument("--ancilla", type=int, default=2)
    ng.add_argument("--restarts", type=int, default=20)
    ng.add_argument("--samples", type=int, default=16)
    ng.add_argument("--max-iters", type=int, default=1500)
    ng.add_argument("--seed", type=int, default=0)
    ng.add_argument("--out", help="report path (default stdout)")
    ng.set_defaults(func=_cmd_nogo)

    emit = sub.add_parser("emit-scheme", help="write a preset scheme/sequence file")
    emit.add_argument("--preset", choices=PRESETS, required=True)
    emit.add_argument("--dim", type=int, help="photonic internal dimension (default 2; ion: 2)")
    emit.add_argument("--out", help="file path (default stdout)")
    emit.set_defaults(func=_cmd_emit_scheme)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RecursionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
