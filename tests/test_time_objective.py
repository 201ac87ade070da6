"""A smoke run of ``tools/time_objective.py``, so the timer does not rot."""

import importlib.util
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "time_objective", os.path.join(_ROOT, "tools", "time_objective.py")
)
time_objective = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(time_objective)


def test_one_round_per_tree_prints_every_part(capsys):
    assert time_objective.main(["--repeats", "1", "--src", os.path.join(_ROOT, "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# _objective at a = 2, d = 2, S = 16: 1 rounds")
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [
        ["ctrl_u", "this"], ["ctrl_u", "--src"], ["switch", "this"], ["switch", "--src"]
    ]
    for row in rows:
        slots, slots_iqr, value, value_iqr, grad, grad_iqr, setup, setup_iqr = map(float, row[2:])
        assert value > slots > 0 and grad > 0 and setup > 0
        assert slots_iqr == value_iqr == grad_iqr == setup_iqr == 0.0
