"""The benchmark's three workloads and the loop that measures them.

Every workload drives ctrlsim's public API in-process, makes all of its
inputs from the workload seed, and checks each operation (op) against
values the benchmark computes itself.  Targets are built here from the
bindings (``1 (+) U`` and ``UgUf (+) UfUg`` on the output port) and never
from ``cli._photonic_target`` or ``nogo.target_unitary``, so a refactor
of the program's target code cannot make a check agree with itself.

* ``search`` - one ``ctrlsim nogo`` call per op at the criterion-8 size
  (ancilla 2, system 2, 16 Haar samples, ``--max-iters 1500``), ``ctrl-u``
  and ``switch`` alternating.  Exercises ``nogo``: scipy ``expm`` of the
  slot gates and the per-sample contraction under Nelder-Mead.
* ``schemes`` - one Haar instance per op through ``photonic.propagate`` or
  ``ion.run_sequence``, internal dims 2-16 and Fock cutoffs 3-10 in a
  balanced mix.  Exercises ``hilbert`` validation and the ``photonic``
  and ``ion`` compilers at sizes where BLAS matters.
* ``cli`` - one ``cli.main`` call per op at d=2 and Fock 3: ``run`` on
  every preset, sampled monitored shots, ``emit-scheme`` and ``run
  --scheme``/``--sequence`` on the emitted files.  Per-call overhead
  (argument and gate-spec parsing, JSON encoding, atomic writes)
  dominates.

Ops come in balanced cycles and a run stops on a cycle boundary, so the
mix of sizes and presets is the same on every seed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from collections import Counter

import numpy as np

from ctrlsim import cli, hilbert, ion, photonic

FIDELITY_TOL = 1e-9
OUT_DIR = ".perfbench_out"


class CheckFailed(Exception):
    """An op returned a wrong or malformed result."""


def derive_seed(seed: int, *path: int) -> int:
    """Independent 31-bit seed for one op, from the workload seed."""
    return int(np.random.SeedSequence((seed, *path)).generate_state(1)[0] >> 1)


def _unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _control_amps(rng: np.random.Generator) -> tuple[float, float, float]:
    """Real alpha, |beta| and the phase of beta, with |alpha|^2+|beta|^2 = 1."""
    theta = rng.uniform(0.1, 1.47)
    return math.cos(theta), math.sin(theta), rng.uniform(0.0, 2 * math.pi)


def _block_target(kind: str, alpha: complex, beta: complex, psi, mats) -> tuple[np.ndarray, np.ndarray]:
    """Control-0 and control-1 blocks of the controlled target applied to psi."""
    if kind == "ctrl_u":
        (u,) = mats
        return alpha * psi, beta * (u @ psi)
    uf, ug = mats
    return alpha * (ug @ uf @ psi), beta * (uf @ ug @ psi)


def _photonic_amps(n_paths: int, out_index: int, block0, block1) -> np.ndarray:
    """Single-photon amplitudes over (path, pol, internal) in C order,
    with the H block and the V block on the output path."""
    d = block0.shape[0]
    amps = np.zeros(n_paths * 2 * d, dtype=complex)
    base = out_index * 2 * d
    amps[base : base + d] = block0
    amps[base + d : base + 2 * d] = block1
    return amps


def _ion_amps(fock: int, block0, block1) -> np.ndarray:
    """Trap amplitudes over (ion1, ion2, mode) in C order: ion 1 in g
    carries block0, in e carries block1, mode in n = 0."""
    amps = np.zeros(16 * fock, dtype=complex)
    for lv2 in (0, 1):
        amps[(0 * 4 + lv2) * fock] = block0[lv2]
        amps[(1 * 4 + lv2) * fock] = block1[lv2]
    return amps


def _pure_fidelity(target: np.ndarray, amps: np.ndarray) -> float:
    return float(abs(np.vdot(target, amps)) ** 2)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _fresh_dir(name: str) -> str:
    """Empty working directory under the checkout, relative to it, so
    that paths echoed into reports have the same length on every run."""
    path = os.path.join(OUT_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    """Base: inputs from a seed, ops by index, checks, counters.

    ``cycle`` is the number of ops in one balanced cycle; ``min_ops`` is
    the number every run completes, and the quality metrics are taken
    over exactly those ops so that they repeat for a seed.  Whole cycles
    run untimed for at least ``warmup_s`` before timing starts, since
    the first BLAS calls of a process can stall for a large part of a
    second.  ``trace_cycles_per_s`` sizes the fixed op count of a traced
    run.
    """

    name = ""
    cycle = 1
    min_ops = 1
    warmup_s = 1.0
    trace_cycles_per_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.counters: Counter = Counter()
        self.quality: dict[str, dict[int, float]] = {"ctrl_u": {}, "switch": {}}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> None:
        raise NotImplementedError

    def _record_quality(self, i: int, cls: str, value: float) -> None:
        self.quality[cls][i] = value

    def _prefix_quality(self, cls: str) -> list[float]:
        return [v for i, v in self.quality[cls].items() if i < self.min_ops]

    def best_wcf(self, cls: str) -> float:
        """Worst fidelity of the fixed direct-sum construction over the
        first ``min_ops`` ops; 0 when none of them passed its check."""
        return min(self._prefix_quality(cls), default=0.0)

    def _cli(self, argv: list[str], out: str):
        """Run ``cli.main`` in-process, check exit 0, parse the report."""
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        _require(code == 0, f"ctrlsim {argv[0]} exited with {code}")
        with open(out) as fh:
            text = fh.read()
        self.counters["report_bytes"] += len(text.encode())
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"report {out} does not parse: {exc}") from None


# Real flops of one objective evaluation are modelled from the
# dimensions, not measured: D = 2 a d, a complex n x n product is 8 n^3
# real flops, scipy's expm (Pade 13 with scaling and squaring) is taken
# as EXPM_PRODUCTS such products, and each sample costs 2 (ctrl-u) or 4
# (switch) products plus the Kraus overlaps.
EXPM_PRODUCTS = 8


def eval_flops(kind: str, ancilla: int, system: int, samples: int) -> int:
    """Modelled real flops of one search-objective evaluation."""
    full, cs = 2 * ancilla * system, 2 * system
    slots, products = (2, 2) if kind == "ctrl-u" else (3, 4)
    slot_build = slots * EXPM_PRODUCTS * 8 * full**3
    contraction = samples * (products * 8 * full**3 + 8 * ancilla * cs * cs)
    return slot_build + contraction


class Search(Workload):
    """A fixed pool of nogo problems, ``ctrl-u`` and ``switch`` alternating.

    The pool is the same for every workload seed, which sets only where
    the rotation starts.  One search's cost varies about twofold with its
    nogo seed (the finite-difference polish runs anywhere from 0 to 25
    steps), and its best value by about a fifth; with 14 ops per run,
    seed-drawn problems would spread the figures across seeds by more
    than any bound allows.  Each run covers the whole pool at least once.
    """

    name = "search"
    cycle = 2
    warmup_s = 0.0  # a `ctrlsim nogo` process pays its cold start on every call too
    trace_cycles_per_s = 0.08
    NOGO_SEEDS = tuple(range(7))
    RESTARTS = 1  # the most ops, and so latency samples, per run

    def __init__(self, seed: int, max_iters: int = 1500, samples: int = 16):
        super().__init__(seed)
        self.max_iters = max_iters
        self.samples = samples
        self.min_ops = 2 * len(self.NOGO_SEEDS)

    def setup(self) -> None:
        self.out = _fresh_dir("search")

    def best_wcf(self, cls: str) -> float:
        """Mean over the first ``min_ops`` ops of the search's best
        worst-case process fidelity; 0 when none of them passed."""
        values = self._prefix_quality(cls)
        return statistics.fmean(values) if values else 0.0

    def op(self, i: int) -> None:
        kind = ("ctrl-u", "switch")[i % 2]
        pair = (self.seed + i // 2) % len(self.NOGO_SEEDS)
        out = os.path.join(self.out, f"{kind}.json")
        report = self._cli(
            [
                "nogo", "--kind", kind, "--dim", "2", "--ancilla", "2",
                "--samples", str(self.samples), "--max-iters", str(self.max_iters),
                "--restarts", str(self.RESTARTS), "--seed", str(self.NOGO_SEEDS[pair]),
                "--out", out,
            ],
            out,
        )
        restarts = report["restarts"]
        values = [r["value"] for r in restarts]
        best = report["best_worst_case_fidelity"]
        _require(len(restarts) == self.RESTARTS, f"{len(restarts)} restarts reported")
        _require(all(0.0 <= v <= 1.0 for v in values), f"restart values out of range: {values}")
        _require(best == max(values), "best value is not the best restart")
        # criterion 8: no fixed circuit reaches the controlled target
        _require(best < 0.999, f"search reached {best} >= 0.999")
        fevals = sum(r["fevals"] for r in restarts)
        self.counters["fevals"] += fevals
        self.counters["flops"] += fevals * eval_flops(kind, 2, 2, self.samples)
        self.counters["restarts"] += len(restarts)
        self.counters["converged"] += sum(bool(r["converged"]) for r in restarts)
        self._record_quality(i, "ctrl_u" if kind == "ctrl-u" else "switch", best)


PHOTONIC_PRESETS = {
    "ctrl-u": photonic.preset_ctrl_u,
    "ctrl-switch": photonic.preset_ctrl_switch,
    "ctrl-u-monitored": photonic.preset_ctrl_u_monitored,
}
ION_PRESETS = {"ion-ctrl-u": ion.seq_ctrl_u, "ion-ctrl-switch": ion.seq_ctrl_switch}


def _target_kind(preset: str) -> str:
    return "switch" if preset.endswith("switch") else "ctrl_u"


class Schemes(Workload):
    name = "schemes"
    DIMS = (2, 4, 8, 16)
    FOCKS = (3, 5, 8, 10)
    trace_cycles_per_s = 8.0
    POOL_CYCLES = 8

    def __init__(self, seed: int, dims=DIMS, focks=FOCKS):
        super().__init__(seed)
        self.dims = dims
        self.focks = focks
        self.cycle = len(PHOTONIC_PRESETS) * len(dims) + len(ION_PRESETS) * len(focks)
        self.min_ops = self.cycle

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        nets = {(p, d): build(d) for p, build in PHOTONIC_PRESETS.items() for d in self.dims}
        seqs = {p: build() for p, build in ION_PRESETS.items()}
        spaces = {f: ion.TrapSpace(fock_cutoff=f) for f in self.focks}
        grid = [("photonic", p, d) for p in PHOTONIC_PRESETS for d in self.dims]
        grid += [("ion", p, f) for p in ION_PRESETS for f in self.focks]
        self.pool = []
        for _ in range(self.POOL_CYCLES):
            for k in rng.permutation(len(grid)):
                family, preset, size = grid[k]
                if family == "photonic":
                    self.pool.append(self._photonic_instance(nets[preset, size], preset, rng))
                else:
                    self.pool.append(self._ion_instance(seqs[preset], spaces[size], preset, rng))

    def _bindings(self, preset: str, dim: int, rng):
        names = ("Uf", "Ug") if _target_kind(preset) == "switch" else ("U",)
        return {n: hilbert.haar_unitary(dim, rng) for n in names}

    def _photonic_instance(self, net, preset: str, rng):
        d = net.space.internal_dim
        a, b, phase = _control_amps(rng)
        alpha, beta = complex(a), b * np.exp(1j * phase)
        psi = _unit_vector(d, rng)
        bindings = self._bindings(preset, d, rng)
        mats = [u.entries for u in bindings.values()]
        blocks = _block_target(_target_kind(preset), alpha, beta, psi, mats)
        target = _photonic_amps(len(net.space.paths), net.space.paths.index(net.output_path), *blocks)
        inp = photonic.photon_input(net.space, net.input_path, (alpha, beta), psi)
        # monitored: the two branches are orthogonal, so the ensemble's
        # fidelity with the coherent target is |alpha|^4 + |beta|^4
        expected = abs(alpha) ** 4 + abs(beta) ** 4 if preset == "ctrl-u-monitored" else None
        return ("photonic", preset, net, inp, bindings, target, expected)

    def _ion_instance(self, seq, space, preset: str, rng):
        a, b, phase = _control_amps(rng)
        alpha, beta = complex(a), b * np.exp(1j * phase)
        psi = _unit_vector(2, rng)
        bindings = self._bindings(preset, 2, rng)
        mats = [u.entries for u in bindings.values()]
        target = _ion_amps(space.fock_cutoff, *_block_target(_target_kind(preset), alpha, beta, psi, mats))
        init = ion.ion_input(space, (alpha, beta), psi)
        return ("ion", preset, (seq, space), init, bindings, target, None)

    def op(self, i: int) -> None:
        family, preset, program, inp, bindings, target, expected = self.pool[i % len(self.pool)]
        if family == "ion":
            seq, space = program
            final, kets = ion.run_sequence(seq, inp, bindings, space=space)
            _require(len(kets) == len(seq.pulses), "run_sequence lost intermediate kets")
            fid = _pure_fidelity(target, final.amps)
        else:
            outcome = photonic.propagate(program, inp, bindings)
            if expected is not None:
                _require(isinstance(outcome, photonic.MixedOutcome), f"{preset} did not return an ensemble")
                fid = float(np.real(np.vdot(target, outcome.rho.entries @ target)))
                _require(abs(fid - expected) <= FIDELITY_TOL, f"{preset} ensemble fidelity {fid} != {expected}")
                return
            fid = _pure_fidelity(target, outcome.state.amps)
        _require(fid >= 1 - FIDELITY_TOL, f"{preset} fidelity {fid} below 1 - {FIDELITY_TOL}")
        self._record_quality(i, _target_kind(preset), fid)


class Cli(Workload):
    name = "cli"
    DIM = 2
    FOCK = 3
    POOL_CYCLES = 4
    trace_cycles_per_s = 6.0

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.out = _fresh_dir("cli")
        nets = {p: build(self.DIM) for p, build in PHOTONIC_PRESETS.items()}
        self.ports = {p: (len(n.space.paths), n.space.paths.index(n.output_path)) for p, n in nets.items()}
        self.pool = []
        for c in range(self.POOL_CYCLES):
            self.pool += self._cycle(c, rng)
        self.cycle = len(self.pool) // self.POOL_CYCLES
        self.min_ops = self.cycle

    def _gate(self, rng) -> tuple[str, np.ndarray]:
        """A gate spec and its matrix: a seeded Haar spec or a matrix literal."""
        if rng.random() < 0.5:
            k = int(rng.integers(1 << 30))
            return f"haar:{k}", hilbert.haar_unitary(self.DIM, np.random.default_rng(k)).entries
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        return "matrix:" + json.dumps([[z.real, z.imag] for z in u.reshape(-1)]), u

    def _run(self, rng, source: list[str], preset: str, extra=()):
        """Argv and expected outcome of one ``run`` call."""
        a, b, phase = _control_amps(rng)
        alpha, beta = complex(a), b * np.exp(1j * phase)
        psi = _unit_vector(self.DIM, rng)
        kind = _target_kind(preset)
        slots = ("Uf", "Ug") if kind == "switch" else ("U",)
        gates = [self._gate(rng) for _ in slots]
        argv = ["run", *source]
        for slot, (spec, _) in zip(slots, gates):
            argv += [f"--{slot.lower()}", spec]
        argv += ["--alpha", repr(a), "--beta", repr(b), "--beta-phase", repr(phase)]
        # one token, since a leading minus would read as a flag
        argv.append("--psi=" + ",".join(repr(float(x)) for z in psi for x in (z.real, z.imag)))
        argv += ["--fock", str(self.FOCK), *extra]
        block0, block1 = _block_target(kind, alpha, beta, psi, [u for _, u in gates])
        if preset.startswith("ion"):
            target = _ion_amps(self.FOCK, block0, block1)
        else:
            target = _photonic_amps(*self.ports[preset], block0, block1)
        check = {"preset": preset, "kind": kind, "target": target}
        if preset == "ctrl-u-monitored":
            check["ensemble"] = abs(alpha) ** 4 + abs(beta) ** 4
            if extra:  # a sampled shot lands on one orthogonal branch
                zero = np.zeros(self.DIM, dtype=complex)
                check["branches"] = {
                    0: (abs(alpha) ** 2, _photonic_amps(*self.ports[preset], psi, zero)),
                    1: (abs(beta) ** 2, _photonic_amps(*self.ports[preset], zero, block1 / beta)),
                }
        return argv, check

    def _cycle(self, c: int, rng) -> list[tuple[list[str], dict]]:
        ops = []
        for preset in (*PHOTONIC_PRESETS, *ION_PRESETS):
            emitted = os.path.join(self.out, f"{preset}.emitted.json")
            ops.append((["emit-scheme", "--preset", preset, "--dim", str(self.DIM), "--out", emitted],
                        {"emit": preset}))
            flag = "--sequence" if preset.startswith("ion") else "--scheme"
            ops.append(self._run(rng, [flag, emitted], preset))
        for preset in (*PHOTONIC_PRESETS, *ION_PRESETS):
            ops.append(self._run(rng, ["--preset", preset, "--dim", str(self.DIM)], preset))
        shot = derive_seed(self.seed, c)
        ops.append(self._run(rng, ["--preset", "ctrl-u-monitored", "--dim", str(self.DIM)],
                             "ctrl-u-monitored", ["--sample", "--seed", str(shot)]))
        for k, (argv, check) in enumerate(ops):
            out = os.path.join(self.out, f"op{k}.json")
            if argv[0] == "run":
                argv += ["--out", out]
                check["out"] = out
            else:
                check["out"] = argv[-1]
        return ops

    def op(self, i: int) -> None:
        argv, check = self.pool[i % len(self.pool)]
        report = self._cli(argv, check["out"])
        if "emit" in check:
            if check["emit"].startswith("ion"):
                ok = isinstance(report, list) and len(report) > 0
            else:
                ok = isinstance(report, dict) and len(report.get("stages", ())) > 0
            _require(ok, f"emitted {check['emit']} has no stages")
            return
        output = report["output"]
        if "branches" in check:
            _require(output["kind"] == "sampled", "monitored shot was not sampled")
            prob, want = check["branches"][output["outcome"]]
            _require(abs(output["probability"] - prob) <= FIDELITY_TOL, "shot probability is off")
            amps = np.array([complex(re, im) for re, im in output["amplitudes"]])
            fid = _pure_fidelity(want, amps)
            _require(fid >= 1 - FIDELITY_TOL, f"shot state fidelity {fid}")
            return
        target = check["target"]
        if "ensemble" in check:
            _require(output["kind"] == "mixed", "monitored run did not return an ensemble")
            rho = np.array([[complex(re, im) for re, im in row] for row in output["density_matrix"]])
            fid = float(np.real(np.vdot(target, rho @ target)))
            _require(abs(fid - check["ensemble"]) <= FIDELITY_TOL, f"ensemble fidelity {fid}")
            return
        _require(output["kind"] == "pure", f"{check['preset']} output is {output['kind']}")
        amps = np.array([complex(re, im) for re, im in output["amplitudes"]])
        fid = _pure_fidelity(target, amps)
        _require(fid >= 1 - FIDELITY_TOL, f"{check['preset']} fidelity {fid}")
        self._record_quality(i, check["kind"], fid)


WORKLOADS = {w.name: w for w in (Search, Schemes, Cli)}


def run_ops(wl: Workload, indices, failures: list[str]) -> list[int]:
    """Run the given ops; return each op's wall time in ns.

    An op that raises counts as failed; the run goes on.
    """
    durations = []
    for i in indices:
        start = time.perf_counter_ns()
        try:
            wl.op(i)
        except Exception as exc:  # a failed op is a measurement, not a crash
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        durations.append(time.perf_counter_ns() - start)
    return durations


def warm_up(wl: Workload, failures: list[str]) -> int:
    """Run whole cycles untimed for at least ``wl.warmup_s``; return the op count."""
    start = time.perf_counter()
    i = 0
    while i % wl.cycle or time.perf_counter() - start < wl.warmup_s:
        run_ops(wl, (i,), failures)
        i += 1
    return i


def run_for(wl: Workload, seconds: float, failures: list[str]) -> tuple[list[int], float, int]:
    """Closed loop, one op at a time, after the warm-up.

    Timing runs until ``seconds`` have passed, at least ``min_ops`` ops
    are done and the last cycle is complete.  Returns the timed ops' wall
    times in ns, the timed wall time and the number of ops run.
    """
    i = warm_up(wl, failures)
    durations: list[int] = []
    start = time.perf_counter()
    while True:
        durations += run_ops(wl, (i,), failures)
        i += 1
        if i >= wl.min_ops and i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            return durations, time.perf_counter() - start, i
