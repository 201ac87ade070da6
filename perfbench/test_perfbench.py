"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

They check that every workload runs and reports every metric named in
BENCHMARK.json, that the exact counts repeat for a seed, that tracing
restores every attribute it wraps, that the checks catch a wrong result,
and that the benchmark fails without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import worker  # puts the checkout's src/ first on sys.path
import workloads
from spans import Tracer

ROOT = worker.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def tiny(name: str, seed: int = 7) -> workloads.Workload:
    if name == "search":
        return workloads.Search(seed, max_iters=20, samples=4)
    if name == "schemes":
        return workloads.Schemes(seed, dims=(2, 3), focks=(3, 4))
    return workloads.Cli(seed)


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def measure(name: str, trace: bool, seed: int = 7) -> tuple[dict, int, list[str]]:
    wl = tiny(name, seed)
    tracer = Tracer() if trace else None
    wl.setup()
    return worker.measure(wl, 0.01, tracer, 0.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_reports_every_metric(name, trace):
    metrics, attempted, failures = measure(name, trace)
    assert failures == []
    assert attempted >= 1
    assert set(metrics) == set(PER_LAYER if trace else END_TO_END)
    assert all(isinstance(v, (int, float)) and np.isfinite(v) for v in metrics.values())
    if not trace:
        assert metrics["ok_frac"] == 1.0
        assert all(metrics[k] > 0 for k in END_TO_END)


def test_command_prints_every_metric_with_its_unit(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "cli", "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"# cli {name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("# cli machine ") and '"blas"' in line for line in lines)


EXACT = {
    "search": ("nogo.fevals", "cli.report_bytes"),
    "schemes": ("photonic.element_unitary.calls", "ion.pulse_unitary.calls", "hilbert.Operator.calls"),
    "cli": ("cli.report_bytes", "cli.main.calls", "photonic.element_unitary.calls", "ion.pulse_unitary.calls"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_and_quality_repeat_for_a_seed(name):
    first, second = measure(name, True)[0], measure(name, True)[0]
    for key in EXACT[name]:
        assert first[key] == second[key] > 0, key
    quality = [measure(name, False)[0] for _ in range(2)]
    for key in ("best_wcf_ctrl_u", "best_wcf_switch"):
        assert quality[0][key] == quality[1][key], key


def _attributes() -> dict:
    """Every attribute of every ctrlsim module and class, by identity."""
    seen = {}
    for full, module in sys.modules.items():
        if full == "ctrlsim" or full.startswith("ctrlsim."):
            for attr, value in vars(module).items():
                seen[full, attr] = value
                if isinstance(value, type):
                    for member, desc in vars(value).items():
                        seen[full, attr, member] = desc
    return seen


def test_tracing_restores_every_attribute():
    before = _attributes()
    tracer = Tracer()
    tracer.install()
    try:
        installed = _attributes()
        from ctrlsim import nogo, photonic

        assert photonic.subspace_embed is not before["ctrlsim.photonic", "subspace_embed"]
        assert nogo.expm is not before["ctrlsim.nogo", "expm"]
        assert nogo.haar_unitary is not before["ctrlsim.nogo", "haar_unitary"]
        assert sum(installed[k] is not v for k, v in before.items()) > 50
    finally:
        tracer.restore()
    measure("schemes", True)
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        return sum(range(1000))

    def parent():
        tracer.span("child", child)
        tracer.span("child", child)

    tracer.span("parent", parent)
    stats = tracer.summary()
    spans = {s[3]: s for s in tracer.spans}
    total = spans["parent"][5] - spans["parent"][4]
    assert stats["child"]["calls"] == 2
    assert stats["parent"]["self_ns"] == total - stats["child"]["total_ns"]
    assert all(s[1] == spans["parent"][0] for s in tracer.spans if s[3] == "child")


def test_checks_catch_a_wrong_result():
    wl = tiny("schemes")
    wl.setup()
    family, preset, program, inp, bindings, target, expected = wl.pool[0]
    wl.pool[0] = (family, preset, program, inp, bindings, -1j * np.roll(target, 1), expected)
    with pytest.raises(workloads.CheckFailed):
        wl.op(0)

    wl = tiny("cli")
    wl.setup()
    k = next(k for k, (_, check) in enumerate(wl.pool) if "kind" in check and "ensemble" not in check)
    argv, check = wl.pool[k]
    wl.pool[k] = (argv, dict(check, target=np.roll(check["target"], 1)))
    with pytest.raises(workloads.CheckFailed):
        wl.op(k)


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "schemes", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
