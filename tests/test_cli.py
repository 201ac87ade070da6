import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ctrlsim
from ctrlsim import nogo
from ctrlsim.cli import PRESETS, _build_parser, main, parse_gate_spec
from ctrlsim.hilbert import _unitary_deviation

X = np.array([[0, 1], [1, 0]], dtype=complex)
# U^dag U - 1 is about 1e-9, ten times the one unitarity tolerance
NEAR_UNITARY = "matrix:[[1,0],[0,0],[0,0],[1.0000000005,0]]"
NOT_UNITARY = "slot 'U': matrix literal is not unitary"


def run_cli(*argv):
    return main(list(argv))


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestParseGateSpec:
    def test_named_gates(self):
        assert np.array_equal(parse_gate_spec("x").entries, X)
        assert np.array_equal(parse_gate_spec("i").entries, np.eye(2))

    def test_zero_angle_rotation_is_identity(self):
        assert np.max(np.abs(parse_gate_spec("rz:0").entries - np.eye(2))) < 1e-15

    def test_rotation_angle(self):
        got = parse_gate_spec("ry:3.141592653589793").entries
        assert np.max(np.abs(got - np.array([[0, -1], [1, 0]]))) < 1e-12

    def test_matrix_literal(self):
        got = parse_gate_spec("matrix:[[0,0],[1,0],[1,0],[0,0]]")
        assert np.array_equal(got.entries, X)

    def test_a_literal_no_scheme_can_run_is_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="matrix literal is not unitary"):
            parse_gate_spec(NEAR_UNITARY)

    def test_haar_spec_deterministic_and_dim_aware(self):
        a = parse_gate_spec("haar:7", dim=3)
        b = parse_gate_spec("haar:7", dim=3)
        assert np.array_equal(a.entries, b.entries)
        assert a.dim == 3
        assert _unitary_deviation(a.entries) <= 1e-10

    @pytest.mark.parametrize(
        "bad",
        ["frobnicate", "rx:abc", "haar:x", "matrix:[[1,0],[0,0],[0,0],[0,0]]", "matrix:[[1,0],[0,0],[0,0]]"],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_gate_spec(bad)

    @pytest.mark.parametrize("empty", ["matrix:[]", "matrix:{}"])
    def test_an_empty_literal_gets_its_own_error(self, empty):
        with pytest.raises(ValueError, match="^matrix literal needs a positive square entry count, got 0$"):
            parse_gate_spec(empty)


class TestRunCommand:
    def test_ctrl_u_preset(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--preset", "ctrl-u", "--u", "x",
            "--alpha", "0.6", "--beta", "0.8", "--out", str(out),
        )
        assert code == 0
        report = read_report(out)
        assert report["fidelity"] >= 1 - 1e-10
        assert report["scheme"] == "ctrl-u"
        assert report["bindings"] == {"U": "x"}
        assert report["slots"] == {"U": {"devices": 1, "traversals": 1}}

    def test_ion_switch_identity(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--preset", "ion-ctrl-switch", "--uf", "i", "--ug", "i",
            "--alpha", "0.6", "--beta", "0.8", "--out", str(out),
        )
        assert code == 0
        report = read_report(out)
        assert report["fidelity"] >= 1 - 1e-10
        assert report["ground_mode"] is True
        assert report["slots"]["Uf"]["pulses_sent"] == 1
        assert report["slots"]["Uf"]["interactions"] == 2

    def test_monitored_preset_reports_mixed_fidelity(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--preset", "ctrl-u-monitored", "--u", "haar:7",
            "--alpha", "0.7071", "--beta", "0.7071", "--out", str(out),
        )
        assert code == 0
        report = read_report(out)
        assert abs(report["fidelity"] - 0.5) < 1e-6
        assert report["output"]["kind"] == "mixed"
        probs = report["output"]["branch_probabilities"]
        assert abs(sum(probs) - 1) < 1e-12

    def test_sampled_mode(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--preset", "ctrl-u-monitored", "--u", "x", "--sample",
            "--seed", "11", "--out", str(out),
        )
        assert code == 0
        report = read_report(out)
        assert report["output"]["kind"] == "sampled"
        assert report["output"]["outcome"] in (0, 1)

    @pytest.mark.parametrize(
        "source,flags",
        [
            ("ctrl-u", ["--u", "x"]),
            ("ctrl-switch", ["--uf", "x", "--ug", "h"]),
            ("ion-ctrl-u", ["--u", "x"]),
            ("ion-ctrl-switch", ["--uf", "x", "--ug", "h"]),
            ("--scheme", ["--u", "x"]),
            ("--sequence", ["--u", "x"]),
        ],
    )
    def test_sample_without_monitored_device_exits_2(self, tmp_path, capsys, source, flags):
        if source.startswith("--"):
            preset = "ctrl-u" if source == "--scheme" else "ion-ctrl-u"
            emitted = tmp_path / "emitted.json"
            assert run_cli("emit-scheme", "--preset", preset, "--out", str(emitted)) == 0
            source_flags = [source, str(emitted)]
        else:
            source_flags = ["--preset", source]
        out = tmp_path / "r.json"
        assert run_cli("run", *source_flags, *flags, "--sample", "--out", str(out)) == 2
        assert "--sample" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_from_monitored_scheme_file(self, tmp_path):
        emitted = tmp_path / "emitted.json"
        assert run_cli("emit-scheme", "--preset", "ctrl-u-monitored", "--out", str(emitted)) == 0
        out = tmp_path / "r.json"
        assert run_cli("run", "--scheme", str(emitted), "--u", "x", "--sample", "--out", str(out)) == 0
        assert read_report(out)["output"]["kind"] == "sampled"

    def test_higher_internal_dimension(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--preset", "ctrl-switch", "--uf", "haar:1", "--ug", "haar:2",
            "--dim", "3", "--out", str(out),
        )
        assert code == 0
        assert read_report(out)["fidelity"] >= 1 - 1e-10

    def test_normalization_warning_still_runs(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--preset", "ctrl-u", "--u", "x", "--alpha", "3", "--beta", "4",
            "--out", str(out),
        )
        assert code == 0
        assert "normalizing" in capsys.readouterr().err
        report = read_report(out)
        assert abs(report["input"]["alpha"][0] - 0.6) < 1e-12

    @pytest.mark.parametrize(
        "flags, field, normalized",
        [
            (["--psi=1e-170,0,0,0"], "psi", [[1.0, 0.0], [0.0, 0.0]]),
            (["--psi=5e-324,0,0,-5e-324"], "psi", [[2**-0.5, 0.0], [0.0, -(2**-0.5)]]),
            (["--alpha", "1e-170", "--beta", "0"], "alpha", [1.0, 0.0]),
            (["--alpha", "5e-324", "--beta", "5e-324"], "beta", [2**-0.5, 0.0]),
        ],
        ids=["psi", "subnormal-psi", "alpha", "subnormal-control"],
    )
    def test_a_tiny_nonzero_vector_normalizes(self, tmp_path, capsys, flags, field, normalized):
        # the squares of these entries underflow to zero
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "ctrl-u", "--u", "x", *flags, "--out", str(out)) == 0
        assert "warning: normalizing" in capsys.readouterr().err
        np.testing.assert_allclose(read_report(out)["input"][field], normalized, atol=1e-15)

    def test_bad_gate_spec_exits_2_without_partial_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("run", "--preset", "ctrl-u", "--u", "frob", "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--beta-phase", "--tolerance", "--psi"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r.json"
        if flag == "--psi":
            value = f"{value},0,1,0"
        code = run_cli("run", "--preset", "ctrl-u", "--u", "x", f"{flag}={value}", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--u", "matrix:[[Infinity,0],[0,0],[0,0],[1,0]]"], NOT_UNITARY),
            (["--u", "matrix:[[1e200,0],[0,0],[0,0],[1,0]]"], NOT_UNITARY),
            (["--u", "rx:inf"], "slot 'U': angle in gate spec 'rx:inf' must be finite"),
            (["--u", "ry:-inf"], "slot 'U': angle in gate spec 'ry:-inf' must be finite"),
            (["--u", "rz:nan"], "slot 'U': angle in gate spec 'rz:nan' must be finite"),
            (["--u", "x", "--psi=1e200,0,0,0"], "--psi entries are too large to normalize"),
            (["--u", "x", "--psi=a,0,0,0"], "--psi entries must be numbers, got 'a,0,0,0'"),
            (["--u", "x", "--psi="], "--psi entries must be numbers, got ''"),
        ],
        ids=[
            "inf-literal", "overflowing-literal", "rx-inf", "ry-minus-inf", "rz-nan", "huge-psi",
            "non-numeric-psi", "empty-psi",
        ],
    )
    def test_a_non_finite_or_overflowing_value_exits_2_without_warnings(
        self, tmp_path, capsys, argv, error
    ):
        # the suite turns numpy's RuntimeWarnings into errors, so a warning
        # on the way to the error would escape main
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "ctrl-u", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {error}")
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["ctrl-u", "ion-ctrl-u"])
    def test_near_unitary_literal_exits_2_at_parse_time(self, tmp_path, capsys, preset):
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", preset, "--u", NEAR_UNITARY, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: slot 'U': matrix literal is not unitary")
        assert not out.exists()

    def test_a_bad_gate_spec_names_its_slot(self, tmp_path, capsys):
        # with two literals the error says which one failed
        out = tmp_path / "r.json"
        argv = ["run", "--preset", "ctrl-switch", "--uf", "matrix:[[1,0],[1,0],[0,0],[0,0]]",
                "--ug", "h", "--out", str(out)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: slot 'Uf': matrix literal is not unitary")
        assert not out.exists()

    def test_negative_haar_seed_is_a_malformed_seed(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "ctrl-u", "--u", "haar:-3", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: slot 'U': malformed seed in gate spec 'haar:-3'\n"
        assert not out.exists()

    @pytest.mark.parametrize("sample", [[], ["--sample"]], ids=["pure", "sampled"])
    def test_negative_seed_is_rejected_by_name(self, tmp_path, capsys, sample):
        out = tmp_path / "r.json"
        argv = ["run", "--preset", "ctrl-u-monitored", "--u", "x", *sample, "--seed", "-1"]
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_missing_binding_exits_2(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "ctrl-u", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--bind", "U=x", "--u", "z"], ["--bind", "U=x", "--bind", "U=z"], ["--bind", "U=x", "--bind", "U=x"]],
        ids=["bind-and-sugar", "bind-twice", "same-spec-twice"],
    )
    def test_slot_bound_twice_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "ctrl-u", *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: slot 'U' is bound twice\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, flags, unknown",
        [
            ("ctrl-u", ["--u", "x", "--bind", "W=notaspec"], "['W']"),
            ("ctrl-u", ["--u", "x", "--ug", "h"], "['Ug']"),
            ("ion-ctrl-u", ["--bind", "U=x", "--uf", "notaspec"], "['Uf']"),
            ("ctrl-switch", ["--uf", "x", "--ug", "h", "--u", "z", "--bind", "V=i"], "['U', 'V']"),
        ],
        ids=["bind", "sugar", "ion", "two-unknown"],
    )
    def test_a_binding_for_a_slot_the_scheme_lacks_exits_2(self, tmp_path, capsys, preset, flags, unknown):
        # one line names the unknown slots; their specs are never parsed
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", preset, *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: gate bindings for slots the scheme lacks: {unknown}\n"
        assert not out.exists()

    def test_fidelity_threshold_controls_exit_code(self, tmp_path, monkeypatch):
        # a target whose branches both leave the system alone: with U = X
        # on |0> and equal control amplitudes the output scores 1/4
        monkeypatch.setattr(nogo, "controlled_target", lambda kind, bindings: np.eye(4))
        out = tmp_path / "r.json"
        argv = ["run", "--preset", "ctrl-u", "--u", "x", "--out", str(out)]
        assert run_cli(*argv, "--tolerance", "0.5") == 1
        assert abs(read_report(out)["fidelity"] - 0.25) < 1e-12  # report still written
        assert run_cli(*argv, "--tolerance", "0.9") == 0

    def test_literals_whose_target_is_not_unitary_exit_2(self, tmp_path, capsys):
        # each literal deviates by 8e-11, within tolerance, but the
        # target's branch Ug Uf by 1.6e-10: the target check refuses it
        m = "matrix:[[1.00000000004,0],[0,0],[0,0],[1,0]]"
        out = tmp_path / "r.json"
        assert run_cli("run", "--preset", "ctrl-switch", "--uf", m, "--ug", m, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: control target deviates from unitary by 1.600e-10 (tol 1e-10)\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "1", "5"])
    def test_tolerance_outside_the_unit_interval_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "r.json"
        code = run_cli("run", "--preset", "ctrl-u", "--u", "h", "--tolerance", value, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"error: --tolerance must be in [0, 1), got {float(value)}\n"
        assert not out.exists()

    def test_an_empty_literal_exits_2_with_its_own_error(self, capsys):
        assert run_cli("run", "--preset", "ctrl-u", "--u", "matrix:[]") == 2
        err = capsys.readouterr().err
        assert err == "error: slot 'U': matrix literal needs a positive square entry count, got 0\n"

    def test_conflicting_sources_rejected(self, tmp_path):
        assert run_cli("run", "--preset", "ctrl-u", "--scheme", "x.json", "--u", "i") == 2

    def test_seeded_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["run", "--preset", "ctrl-switch", "--uf", "haar:3", "--ug", "haar:4",
                 "--alpha", "0.6", "--beta", "0.8", "--beta-phase", "0.3"]
        assert run_cli(*flags, "--out", str(a)) == 0
        assert run_cli(*flags, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--preset", "ion-ctrl-u", "--dim", "3", "--u", "haar:1"],
            ["--preset", "ion-ctrl-switch", "--dim", "1", "--uf", "i", "--ug", "i"],
        ],
    )
    def test_dim_disagreeing_with_ion_preset_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert run_cli("run", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--dim" in err
        assert not out.exists()

    def test_dim_flags_the_benchmark_passes_are_accepted(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["--u", "haar:1", "--alpha", "0.6", "--beta", "0.8"]
        assert run_cli("run", "--preset", "ion-ctrl-u", *flags, "--out", str(a)) == 0
        assert run_cli("run", "--preset", "ion-ctrl-u", "--dim", "2", *flags, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        assert run_cli("run", "--preset", "ctrl-u", "--fock", "5", *flags, "--out", str(c)) == 0
        assert read_report(c)["input"]["internal_dim"] == 2

    def test_psi_flag(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--preset", "ctrl-u", "--u", "x", "--psi", "0,0,1,0",
            "--out", str(out),
        )
        assert code == 0
        assert read_report(out)["input"]["psi"] == [[0.0, 0.0], [1.0, 0.0]]


class TestSchemeFiles:
    def test_emit_and_rerun_photonic_scheme_matches_preset(self, tmp_path):
        scheme = tmp_path / "net.json"
        assert run_cli("emit-scheme", "--preset", "ctrl-u", "--out", str(scheme)) == 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["--u", "haar:5", "--alpha", "0.6", "--beta", "0.8"]
        assert run_cli("run", "--preset", "ctrl-u", *flags, "--out", str(a)) == 0
        assert run_cli("run", "--scheme", str(scheme), *flags, "--out", str(b)) == 0
        ra, rb = read_report(a), read_report(b)
        assert ra["output"]["amplitudes"] == rb["output"]["amplitudes"]
        assert rb["fidelity"] is None  # file runs carry no analytic target

    def test_emit_and_rerun_ion_sequence(self, tmp_path):
        seq = tmp_path / "seq.json"
        assert run_cli("emit-scheme", "--preset", "ion-ctrl-switch", "--out", str(seq)) == 0
        payload = json.loads(seq.read_text())
        assert isinstance(payload, list) and payload[0]["type"] == "sideband_swap"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["--uf", "haar:1", "--ug", "haar:2", "--alpha", "0.8", "--beta", "0.6"]
        assert run_cli("run", "--preset", "ion-ctrl-switch", *flags, "--out", str(a)) == 0
        assert run_cli("run", "--sequence", str(seq), *flags, "--out", str(b)) == 0
        assert read_report(a)["output"] == read_report(b)["output"]

    def test_bind_flag_for_scheme_files(self, tmp_path):
        scheme = tmp_path / "net.json"
        run_cli("emit-scheme", "--preset", "ctrl-switch", "--out", str(scheme))
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--scheme", str(scheme), "--bind", "Uf=x", "--bind", "Ug=h",
            "--out", str(out),
        )
        assert code == 0
        assert read_report(out)["bindings"] == {"Uf": "x", "Ug": "h"}

    def test_dim_must_match_scheme_file(self, tmp_path, capsys):
        scheme = tmp_path / "net.json"
        assert run_cli("emit-scheme", "--preset", "ctrl-u", "--dim", "3", "--out", str(scheme)) == 0
        out = tmp_path / "r.json"
        assert run_cli("run", "--scheme", str(scheme), "--u", "haar:2", "--dim", "2", "--out", str(out)) == 2
        assert "--dim" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("run", "--scheme", str(scheme), "--u", "haar:2", "--dim", "3", "--out", str(out)) == 0
        assert read_report(out)["input"]["internal_dim"] == 3

    def test_emit_ion_preset_rejects_other_dim(self, tmp_path):
        out = tmp_path / "seq.json"
        assert run_cli("emit-scheme", "--preset", "ion-ctrl-u", "--dim", "3", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "source,text",
        [
            pytest.param("--scheme", "[]", id="scheme-array"),
            pytest.param("--scheme", "stages=5", id="scheme-stages-number"),
            pytest.param("--scheme", '{"space": 5, "stages": []}', id="scheme-space-number"),
            pytest.param("--scheme", "stage=5", id="scheme-stage-number"),
            pytest.param("--sequence", '{"a": 1}', id="sequence-object"),
            pytest.param("--sequence", "[5]", id="sequence-pulse-number"),
            pytest.param("--sequence", "5", id="sequence-number"),
            pytest.param("--sequence", '[{"type": "carrier", "ion": 2, "slot": ["U"]}]', id="sequence-slot-array"),
            pytest.param("--sequence", '[{"type": "sideband_swap", "ion": null}]', id="sequence-ion-null"),
            pytest.param("--scheme", "[" * 100000 + "]" * 100000, id="scheme-deeply-nested"),
            pytest.param("--sequence", "[" * 100000 + "]" * 100000, id="sequence-deeply-nested"),
        ],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, source, text):
        if text.startswith(("stages=", "stage=")):
            # a valid emitted scheme with "stages" (or its first stage) replaced by 5
            assert run_cli("emit-scheme", "--preset", "ctrl-u", "--out", str(tmp_path / "ok.json")) == 0
            data = read_report(tmp_path / "ok.json")
            if text.startswith("stages="):
                data["stages"] = 5
            else:
                data["stages"][0] = 5
            text = json.dumps(data)
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "r.json"
        code = run_cli("run", source, str(path), "--u", "x", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "source,text,field",
        [
            ("--scheme", "{}", "space"),
            ("--sequence", '[{"type": "carrier", "ion": 2}]', "slot"),
            ("--sequence", '[{"type": "hiding", "ion": 2}]', "which"),
        ],
    )
    def test_missing_field_is_named(self, tmp_path, capsys, source, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli("run", source, str(path), "--u", "x") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: JSON object lacks the field {field!r}") and err.count("\n") == 1

    def test_a_reroute_target_must_be_a_string(self, tmp_path, capsys):
        scheme = {
            "space": {"paths": ["0", "1"], "internal_dim": 2},
            "stages": [
                {"type": "reroute", "perm": {"0": 1, "1": 0}},
                {"type": "device", "path": "1", "slot": "U"},
            ],
            "input_path": "0",
            "output_path": "1",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scheme))
        assert run_cli("run", "--scheme", str(path), "--u", "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'perm' has the wrong JSON type") and err.count("\n") == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("run", "--scheme", str(tmp_path / "nope.json"), "--u", "i") == 2

    def test_emit_scheme_round_trip_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("emit-scheme", "--preset", "ctrl-switch", "--dim", "3", "--out", str(a))
        run_cli("emit-scheme", "--preset", "ctrl-switch", "--dim", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "preset,flags",
        [
            ("ctrl-u", ["--u", "haar:9"]),
            ("ctrl-u-monitored", ["--u", "haar:9"]),
            ("ctrl-switch", ["--uf", "haar:9", "--ug", "haar:10"]),
            ("ion-ctrl-u", ["--u", "haar:9"]),
            ("ion-ctrl-switch", ["--uf", "haar:9", "--ug", "haar:10"]),
        ],
    )
    def test_every_preset_reruns_identically_from_its_file(self, preset, flags, tmp_path):
        emitted = tmp_path / "emitted.json"
        assert run_cli("emit-scheme", "--preset", preset, "--out", str(emitted)) == 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = [*flags, "--alpha", "0.6", "--beta", "0.8"]
        assert run_cli("run", "--preset", preset, *common, "--out", str(a)) == 0
        source = "--sequence" if preset.startswith("ion") else "--scheme"
        assert run_cli("run", source, str(emitted), *common, "--out", str(b)) == 0
        assert read_report(a)["output"] == read_report(b)["output"]


class TestNogoCommand:
    def test_search_report_written_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["nogo", "--kind", "switch", "--restarts", "1", "--samples", "1",
                 "--max-iters", "30", "--seed", "1"]
        assert run_cli(*flags, "--out", str(a)) == 0
        assert run_cli(*flags, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        report = read_report(a)
        assert report["kind"] == "switch"
        assert 0.0 <= report["best_worst_case_fidelity"] <= 1.0 + 1e-8
        assert len(report["restarts"]) == 1

    def test_defaults_are_the_search_config_defaults(self):
        args = _build_parser().parse_args(["nogo", "--kind", "ctrl-u"])
        parsed = nogo.SearchConfig(
            restarts=args.restarts,
            max_iters=args.max_iters,
            sample_count=args.samples,
            seed=args.seed,
            system_dim=args.dim,
            ancilla_dim=args.ancilla,
        )
        assert parsed == nogo.SearchConfig()

    def test_bad_config_exits_2(self, tmp_path):
        assert run_cli("nogo", "--kind", "ctrl-u", "--restarts", "0") == 2

    def test_negative_seed_is_rejected_by_name(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("nogo", "--kind", "ctrl-u", "--seed", "-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "ctrl-u", "--u", "x"],
        ["emit-scheme", "--preset", "ctrl-u"],
        ["nogo", "--kind", "ctrl-u", "--restarts", "1", "--samples", "1", "--max-iters", "5"],
    ],
    ids=["run", "emit-scheme", "nogo"],
)
@pytest.mark.parametrize(
    "target, reason",
    [("missing/r.json", "No such file or directory"), ("taken", "Is a directory")],
)
def test_a_failed_write_names_the_given_path(tmp_path, capsys, argv, target, reason):
    # "taken" is a directory: the temporary file is written, then os.replace fails
    (tmp_path / "taken").mkdir()
    out = str(tmp_path / target)
    assert run_cli(*argv, "--out", out) == 2
    assert capsys.readouterr().err == f"error: cannot write {out!r}: {reason}\n"
    assert not list(tmp_path.rglob("*.tmp"))


# Each size's first large allocation exceeds the 128 TiB user address space,
# so it fails at once whatever the overcommit setting; the run sizes are the
# smallest round ones that do (149 TiB), which keeps their vectors small.
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "ion-ctrl-u", "--u", "h", "--fock", "200000"],
        ["run", "--preset", "ctrl-u", "--u", "h", "--dim", "800000"],
        ["nogo", "--kind", "ctrl-u", "--dim", "1000000", "--restarts", "1"],
        ["nogo", "--kind", "switch", "--ancilla", "1000000", "--restarts", "1"],
        ["nogo", "--kind", "ctrl-u", "--samples", "100000000000000", "--restarts", "1"],
    ],
    ids=["fock", "dim", "nogo-dim", "ancilla", "samples"],
)
def test_a_size_that_cannot_be_allocated_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


_SCIPY_PROBE = textwrap.dedent(
    """
    import json, sys
    from ctrlsim.cli import PRESETS, main

    def scipy_loaded():
        return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

    codes = []
    for preset in PRESETS:
        binds = ["--uf", "h", "--ug", "t"] if "switch" in preset else ["--u", "haar:3"]
        codes.append(main(["run", "--preset", preset, *binds, "--out", preset + ".report"]))
        codes.append(main(["emit-scheme", "--preset", preset, "--out", preset + ".json"]))
        source = "--sequence" if preset.startswith("ion") else "--scheme"
        codes.append(main(["run", source, preset + ".json", *binds, "--out", preset + ".file"]))
    codes.append(main(["nogo", "--kind", "switch", "--restarts", "1", "--samples", "2",
                       "--max-iters", "5", "--out", "nogo.json"]))
    print(json.dumps({"codes": codes, "loaded": scipy_loaded()}))
    """
)


def test_no_command_loads_scipy(tmp_path):
    # run, emit-scheme and the search need numpy alone; scipy is for the tests
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctrlsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["codes"] == [0] * (3 * len(PRESETS) + 1)
    assert probe["loaded"] == []


class TestOneParser:
    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_share_no_parse_state(self, capsys):
        calls = [["run", "--preset", "ctrl-u", "--bind", f"U={spec}"] for spec in ("haar:3", "x")]
        # each report as the first call of a fresh interpreter writes it
        src = os.path.dirname(os.path.dirname(os.path.abspath(ctrlsim.__file__)))
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "ctrlsim.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                capture_output=True, text=True, timeout=300, check=True,
            ).stdout
            for argv in calls
        ]
        assert fresh[0] != fresh[1]
        with pytest.raises(SystemExit) as rejected:
            main(["run", "--preset", "no-such-preset"])
        assert rejected.value.code == 2
        capsys.readouterr()
        for argv, report in zip(calls, fresh):
            # a --bind list carried over would bind U twice and exit 2
            assert main(argv) == 0
            assert capsys.readouterr().out == report
        assert main(["run", "--preset", "ctrl-u"]) == 2
        assert capsys.readouterr().err == "error: missing gate bindings for slots: ['U']\n"


class TestStdout:
    def test_report_to_stdout(self, capsys):
        code = run_cli("run", "--preset", "ctrl-u", "--u", "i")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity"] >= 1 - 1e-10
