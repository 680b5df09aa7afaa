from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasesim
from phasesim import ConfigError, cli, experiment, load_summary, overhead_report
from phasesim.detector import MAX_RETIRED
from phasesim.experiment import ARTIFACTS


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


FIXED_STEADY = """\
workload.preset = steady
workload.cycles = 2000000
mode = fixed_tau
fixed_tau = 100000
"""

TRACE_HEADER = (
    b"index,start_cycle,tau,retired_instructions,util_int,util_fp,source_core\n"
)
MACHINE_HEADER = (
    b"name,core_class,issue_width,int_window,fp_window,int_fu_count,fp_fu_count\n"
)

#: simulate at a fixed tau on its start core: a replay of the trace of such a
#: run writes the run's own scatter and events.
ONE_CORE_FIXED = "mode = fixed_tau\nfixed_tau = 100000\nscheduler.enabled = no\n"


def simulate_trace(tmp_path, text, trace_name):
    """Write ``trace_name`` with ``simulate --emit-trace`` over a config of
    ``text``; the run's artifacts go to ``simulated``."""
    config = write_config(tmp_path, text, name="traced.conf")
    trace = tmp_path / trace_name
    simulated = tmp_path / "simulated"
    argv = ["simulate", "--config", str(config), "--out", str(simulated)]
    assert cli.main([*argv, "--emit-trace", str(trace)]) == 0
    return trace


class TestSimulateCommand:
    def test_happy_path(self, tmp_path, capsys):
        config = write_config(tmp_path, FIXED_STEADY)
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "scatter.csv").exists()
        assert (out / "events.csv").exists()
        summary = load_summary(out)
        assert summary["sample_count"] == 20
        printed = capsys.readouterr().out
        assert "samples=20" in printed

    def test_flag_overrides_win(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        out = tmp_path / "run"
        code = cli.main(
            ["simulate", "--config", str(config), "--variable-tau", "--out", str(out)]
        )
        assert code == 0
        assert load_summary(out)["mode"] == "variable_tau"

    def test_seed_override_lands_in_summary(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        out = tmp_path / "run"
        cli.main(
            ["simulate", "--config", str(config), "--seed", "9", "--out", str(out)]
        )
        assert load_summary(out)["seed"] == 9

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert (
                cli.main(["simulate", "--config", str(config), "--out", str(out)])
                == 0
            )
        for artifact in ("scatter.csv", "events.csv", "summary.json"):
            assert (outs[0] / artifact).read_bytes() == (
                outs[1] / artifact
            ).read_bytes()

    def test_missing_out_dir_is_a_config_error(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        assert cli.main(["simulate", "--config", str(config)]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("wizard", "yes"), ("detector.normalization", "raw")],
        ids=["wizard", "detector.normalization"],
    )
    def test_unknown_config_key_exits_one(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, FIXED_STEADY + f"{key} = {value}\n")
        out = tmp_path / "run"
        assert (
            cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        )
        assert not out.exists()
        assert repr(key) in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        assert cli.main(["simulate", "--no-such-flag"]) == 1

    def test_conflicting_tau_flags_exit_one(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        code = cli.main(
            [
                "simulate",
                "--config",
                str(config),
                "--fixed-tau",
                "100000",
                "--variable-tau",
            ]
        )
        assert code == 1

    def test_internal_error_exits_three(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, FIXED_STEADY)

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli.main(
            ["simulate", "--config", str(config), "--out", str(tmp_path / "x")]
        )
        assert code == 3

    def test_empty_workload_spec_exits_one_without_artifacts(self, tmp_path):
        bad_spec = tmp_path / "empty.json"
        bad_spec.write_text(
            json.dumps({"schema_version": 1, "name": "empty", "segments": []})
        )
        config = write_config(
            tmp_path, f"workload.spec = {bad_spec.name}\nfixed_tau = 100000\n"
        )
        out = tmp_path / "run"
        assert (
            cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "config_text, files, named",
        [
            (b"fixed_tau = 100000\n# caf\xe9\n", {}, "run.conf"),
            (
                b"machine = m.csv\n",
                {"m.csv": MACHINE_HEADER + b"A\xff,A,4,80,32,,\n"},
                "m.csv",
            ),
            (
                b"machine = m.csv\n",
                {"m.csv": MACHINE_HEADER + b"A0,A,4,80,32,," + b"9" * 140_000 + b"\n"},
                "m.csv",
            ),
            (
                b"workload.spec = s.json\nfixed_tau = 100000\n",
                {"s.json": b"[" * 100_000},
                "s.json",
            ),
            (
                b"workload.spec = s.json\nfixed_tau = 100000\n",
                {"s.json": b'{"schema_version": 1, "segments": [[1000000, 1.5]]}'},
                "s.json: segment 0: a segment must be a JSON object",
            ),
            (b"machine = m\0.csv\n", {}, "machine:"),
            (b"workload.trace = t\0.csv\n", {}, "workload.trace:"),
            (b"fixed_tau = 100000\nout =\n", {}, "out: expected a path, got an empty value"),
            (b"workload.spec = \n", {}, "workload.spec: expected a path, got an empty value"),
            (b"workload.trace =\n", {}, "workload.trace: expected a path, got an empty value"),
            (b"machine =\n", {}, "machine: expected a path, got an empty value"),
        ],
        ids=[
            "config_invalid_utf8",
            "machine_invalid_utf8",
            "machine_field_over_limit",
            "spec_deep_nesting",
            "spec_segment_not_an_object",
            "machine_nul_path",
            "trace_nul_path",
            "out_empty_path",
            "spec_empty_path",
            "trace_empty_path",
            "machine_empty_path",
        ],
    )
    def test_unreadable_config_input_exits_one(
        self, tmp_path, capsys, config_text, files, named
    ):
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        config = tmp_path / "run.conf"
        config.write_bytes(config_text)
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "make, reason",
        [(lambda path: None, "No such file or directory"), (Path.mkdir, "Is a directory")],
        ids=["spec_missing", "spec_is_a_directory"],
    )
    def test_unreadable_workload_spec_exits_one_naming_it(
        self, tmp_path, capsys, make, reason
    ):
        # As a machine file or config that cannot be read: a config error
        # naming the file, not an i/o error.
        spec = tmp_path / "s.json"
        make(spec)
        config = write_config(tmp_path, "workload.spec = s.json\nfixed_tau = 100000\n")
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read workload spec {spec}: [Errno ")
        assert reason in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, named",
        [
            ("machine = m.csv\n", "duplicate core name 'A0'"),
            ("machine = m.csv\nscheduler.enabled = no\n", "duplicate core name 'A0'"),
            ("scheduler.migration_penalty = -1\n", "migration_penalty must be >= 0"),
        ],
        ids=["duplicate_core_scheduler_on", "duplicate_core_scheduler_off", "negative_penalty"],
    )
    def test_invalid_machine_or_scheduler_setting_exits_one(
        self, tmp_path, capsys, extra, named
    ):
        (tmp_path / "m.csv").write_bytes(
            MACHINE_HEADER + b"A0,A,4,80,32,,\nA0,B,2,56,16,,\n"
        )
        config = write_config(tmp_path, FIXED_STEADY + extra)
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert named in err
        assert not out.exists()

    def test_trace_source_exits_one_naming_detect(self, tmp_path, capsys):
        # A trace is replayed by detect only, even with a fixed_tau that
        # would satisfy the simulate checks.
        (tmp_path / "t.csv").write_bytes(TRACE_HEADER)
        config = write_config(tmp_path, "workload.trace = t.csv\nfixed_tau = 100000\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "phasesim detect" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_ipc_demand_exits_one_naming_the_field(self, tmp_path, capsys):
        # JSON accepts NaN; the segment must refuse it before it reaches the
        # core model's arithmetic.
        spec = tmp_path / "nan.json"
        spec.write_text(
            '{"schema_version": 1, "name": "nan", "segments": '
            '[{"duration": 1000000, "ipc_demand": NaN}]}'
        )
        config = write_config(
            tmp_path, f"workload.spec = {spec.name}\nfixed_tau = 100000\n"
        )
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "ipc_demand must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec_text, named",
        [
            (
                '{"schema_version": true, "seed": true, '
                '"segments": [{"duration": 1000000.7, "ipc_demand": true}]}',
                "schema_version",
            ),
            (
                '{"schema_version": 1, "segments": [{"duration": 1000000.7, '
                '"ipc_demand": 1.0}]}',
                "duration must be an int",
            ),
            (
                '{"schema_version": 1, "name": "s", "segments": '
                '[{"duration": 1.5, "ipc_demand": 1.0}]}',
                "s.json: segment 0: duration must be an int, got 1.5",
            ),
        ],
        ids=["bool_schema_version", "float_duration", "fractional_duration"],
    )
    def test_spec_value_of_the_wrong_json_type_exits_one(
        self, tmp_path, capsys, spec_text, named
    ):
        (tmp_path / "s.json").write_text(spec_text)
        config = write_config(tmp_path, "workload.spec = s.json\nfixed_tau = 100000\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert named in err
        assert not out.exists()

    def test_spec_number_too_large_for_a_float_exits_one_naming_it(
        self, tmp_path, capsys
    ):
        (tmp_path / "s.json").write_text(
            '{"schema_version": 1, "segments": [{"duration": 1000000, '
            f'"ipc_demand": {10**400}}}]}}'
        )
        config = write_config(tmp_path, "workload.spec = s.json\nfixed_tau = 100000\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "segment 0: ipc_demand does not fit a float" in capsys.readouterr().err
        assert not out.exists()

    def test_segment_without_a_required_field_exits_one_naming_it(
        self, tmp_path, capsys
    ):
        (tmp_path / "s.json").write_text(
            '{"schema_version": 1, "segments": [{"ipc_demand": 1.0}]}'
        )
        config = write_config(tmp_path, "workload.spec = s.json\nfixed_tau = 100000\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "s.json: segment 0: missing required field 'duration'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "duration, code",
        [
            (2**62, 1),  # 4 * 2**62 = 2**64
            (2**61 - 1, 1),  # 4 * (2**61 - 1) fits, but rounds up to 2**63 in floats
            (2**61 - 256, 0),  # 4.0 * (2**61 - 256) = 2**63 - 1024, exactly
        ],
        ids=["2**62", "2**61-1", "2**61-256"],
    )
    def test_workload_that_could_retire_past_a_64_bit_counter_exits_one(
        self, tmp_path, capsys, duration, code
    ):
        # One interval at full width on A0, the widest core (4-wide).
        (tmp_path / "big.json").write_text(
            '{"schema_version": 1, "name": "big", "segments": '
            f'[{{"duration": {duration}, "ipc_demand": 4.0}}]}}'
        )
        config = write_config(
            tmp_path, f"workload.spec = big.json\nfixed_tau = {2**62}\n"
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert f"config error: workload covers {duration} cycles" in err
            assert f"could retire more than {MAX_RETIRED} instructions" in err
            assert not out.exists()
        else:
            [row] = list(csv.DictReader((out / "scatter.csv").read_text().splitlines()))
            assert int(row["throughput_raw"]) == 2**63 - 1024

    @pytest.mark.parametrize("column", ["int_fu_count", "fp_fu_count"])
    def test_unit_count_past_a_64_bit_counter_exits_one_naming_it(
        self, tmp_path, capsys, column
    ):
        # simulate_interval divides a float rate by the count.
        counts = {"int_fu_count": b"4", "fp_fu_count": b"2"}
        counts[column] = b"1" + b"0" * 400
        (tmp_path / "machine.csv").write_bytes(
            MACHINE_HEADER + b"A0,A,4,80,32," + b",".join(counts.values()) + b"\n"
        )
        config = write_config(
            tmp_path,
            "workload.preset = fft_like\nfixed_tau = 100000\nmachine = machine.csv\n",
        )
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"machine.csv:2: {column} must be >= 1 and fit a 64-bit counter" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "demand, code", [("1e305", 1), ("1e300", 0)], ids=["1e305", "1e300"]
    )
    def test_demand_past_a_float_exits_one(self, tmp_path, capsys, demand, code):
        # 100000 cycles * 1e305 is inf, and the blended fp share inf / inf is
        # NaN, which both utilization clips would let through as 1.0.
        (tmp_path / "s.json").write_text(
            '{"schema_version": 1, "name": "big", "segments": [{"duration": '
            f'1000000, "ipc_demand": {demand}, "fp_fraction": 0.2}}]}}'
        )
        config = write_config(
            tmp_path,
            "workload.spec = s.json\nfixed_tau = 100000\n"
            "start_core = A0\nscheduler.enabled = no\n",
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert "config error: the workload demands more instructions in total" in err
            assert not out.exists()
        else:
            rows = list(csv.DictReader((out / "scatter.csv").read_text().splitlines()))
            assert {row["utilization"] for row in rows} == {"0.8"}

    def test_nan_detector_threshold_exits_one_naming_the_field(
        self, tmp_path, capsys
    ):
        config = write_config(tmp_path, FIXED_STEADY + "detector.delta_th = nan\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "delta_th must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestGenWorkloadCommand:
    @pytest.mark.parametrize(
        "preset_args, samples",
        [(["steady", "--cycles", "1000000"], 10), (["fmm_like"], 1000)],
        ids=["steady", "fmm_like"],
    )
    def test_spec_then_simulate(self, tmp_path, preset_args, samples):
        spec_path = tmp_path / "spec.json"
        assert cli.main(["gen-workload", "--preset", *preset_args, "--out", str(spec_path)]) == 0
        config = write_config(
            tmp_path,
            f"workload.spec = {spec_path.name}\nmode = fixed_tau\nfixed_tau = 100000\n",
        )
        out, trace, replayed = tmp_path / "run", tmp_path / "t.jsonl", tmp_path / "replayed"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert cli.main([*argv, "--emit-trace", str(trace)]) == 0
        assert load_summary(out)["sample_count"] == samples
        assert cli.main(["detect", "--trace", str(trace), "--out", str(replayed)]) == 0
        assert load_summary(replayed)["sample_count"] == samples

    def test_unknown_preset_exits_one(self, tmp_path):
        code = cli.main(
            ["gen-workload", "--preset", "mystery", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_cycles_rejected_for_non_steady(self, tmp_path):
        code = cli.main(
            [
                "gen-workload",
                "--preset",
                "fft_like",
                "--cycles",
                "1000000",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("preset", ["fft_like", "fmm_like"])
    @pytest.mark.parametrize("flag, value", [("--cycles", "100"), ("--demand", "1.5")])
    def test_steady_only_flag_names_itself_and_the_preset(
        self, tmp_path, capsys, preset, flag, value
    ):
        out = tmp_path / "x.json"
        code = cli.main(["gen-workload", "--preset", preset, flag, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{flag} was given with preset {preset!r}" in err
        assert "only apply to the steady preset" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "5"),
            ("--format", "jsonl"),
            ("--emit-trace", "t.csv"),
            ("--tau", "100000"),
            ("--core-class", "B"),
        ],
    )
    def test_no_trace_seed_or_format_flag(self, tmp_path, capsys, flag, value):
        # gen-workload writes specs only: simulate --emit-trace writes traces,
        # at the core and tau its config names. The presets are noise-free.
        out = tmp_path / "x.json"
        argv = ["gen-workload", "--preset", "fft_like", flag, value, "--out", str(out)]
        assert cli.main(argv) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


class TestEmitTrace:
    def test_trace_then_detect(self, tmp_path, capsys):
        text = "workload.preset = fft_like\n" + ONE_CORE_FIXED
        trace = simulate_trace(tmp_path, text, "t.csv")
        assert "samples=270 " in capsys.readouterr().out
        assert len(trace.read_text().splitlines()) == 271
        out = tmp_path / "detected"
        assert cli.main(["detect", "--trace", str(trace), "--out", str(out)]) == 0
        summary = load_summary(out)
        assert summary["sample_count"] == 270
        assert summary["phase_count"] == 3
        assert summary["mode"] == "detect"

    def test_jsonl_trace_on_small_core(self, tmp_path):
        text = (
            "workload.preset = steady\nworkload.cycles = 500000\n"
            "workload.demand = 3.0\nstart_core = B0\n" + ONE_CORE_FIXED
        )
        lines = simulate_trace(tmp_path, text, "t.jsonl").read_text().splitlines()
        assert len(lines) == 5
        first = json.loads(lines[0])
        assert first["schema_version"] == 1
        assert first["source_core"] == "B0"
        assert first["retired_instructions"] == 200_000

    def test_artifacts_are_those_of_a_run_without_the_flag(self, tmp_path):
        # Variable tau on a weak core: migrations, tau changes, dead cycles.
        config = write_config(
            tmp_path, "workload.preset = fft_like\nmode = variable_tau\nstart_core = B0\n"
        )
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        assert cli.main(["simulate", "--config", str(config), "--out", str(plain)]) == 0
        argv = ["simulate", "--config", str(config), "--out", str(traced)]
        assert cli.main([*argv, "--emit-trace", str(tmp_path / "t.csv")]) == 0
        for name in ("scatter.csv", "events.csv", "summary.json"):
            assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
        summary = load_summary(traced)
        assert summary["migration_count"] > 0
        rows = len((tmp_path / "t.csv").read_text().splitlines()) - 1
        assert rows == summary["sample_count"]

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "workload.preset = steady\nworkload.cycles = 99999\nfixed_tau = 100000\n",
                "workload covers 99999 cycles, shorter than tau_min=100000",
            ),
            ("workload.preset = steady\nfixed_tau = 0\n", "fixed_tau=0 is below tau_min"),
            (
                f"workload.preset = steady\nworkload.cycles = {2**62}\n"
                f"workload.demand = 4.0\nfixed_tau = {2**62}\n",
                f"workload covers {2**62} cycles: at issue width 4 an interval "
                f"could retire more than {MAX_RETIRED} instructions",
            ),
            (
                f"workload.preset = steady\nworkload.cycles = {2**61 - 1}\n"
                f"workload.demand = 4.0\nfixed_tau = {2**62}\n",
                f"workload covers {2**61 - 1} cycles: at issue width 4 an interval "
                f"could retire more than {MAX_RETIRED} instructions",
            ),
        ],
        ids=["shorter_than_tau_min", "zero_tau", "2**62", "2**61-1"],
    )
    def test_run_refused_at_set_up_writes_no_trace(self, tmp_path, capsys, text, message):
        config = write_config(tmp_path, text)
        trace, out = tmp_path / "t.csv", tmp_path / "run"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert cli.main([*argv, "--emit-trace", str(trace)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not trace.exists()
        assert not out.exists()

    def test_trace_needs_an_output_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, FIXED_STEADY)
        trace = tmp_path / "t.csv"
        argv = ["simulate", "--config", str(config), "--emit-trace", str(trace)]
        assert cli.main(argv) == 1
        assert "config error: no output directory" in capsys.readouterr().err
        assert not trace.exists()

    def test_trace_in_the_output_directory(self, tmp_path):
        # The output directory is made before the trace opens.
        config = write_config(tmp_path, FIXED_STEADY)
        out = tmp_path / "run"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert cli.main([*argv, "--emit-trace", str(out / "trace.csv")]) == 0
        names = ["events.csv", "scatter.csv", "summary.json", "trace.csv"]
        assert sorted(path.name for path in out.iterdir()) == names
        assert len((out / "trace.csv").read_text().splitlines()) == 21

    @pytest.mark.parametrize("relative", [True, False], ids=["relative", "absolute"])
    @pytest.mark.parametrize("suffix", ["", "/"], ids=["bare", "trailing_slash"])
    def test_trace_that_is_the_output_directory_exits_one(
        self, tmp_path, capsys, monkeypatch, relative, suffix
    ):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, FIXED_STEADY)
        trace = ("run" if relative else str(tmp_path / "run")) + suffix
        argv = ["simulate", "--config", str(config), "--out", "run"]
        assert cli.main([*argv, "--emit-trace", trace]) == 1
        err = capsys.readouterr().err
        assert f"config error: the trace '{trace}' is the output directory" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize(
        "trace, artifact",
        [
            ("run/scatter.csv", "scatter.csv"),
            ("run/events.csv", "events.csv"),
            ("run/summary.json", "summary.json"),
            ("run/./summary.json", "summary.json"),
        ],
        ids=["scatter", "events", "summary", "dot_summary"],
    )
    def test_trace_named_after_an_artifact_exits_one(
        self, tmp_path, capsys, monkeypatch, trace, artifact
    ):
        # write_artifacts would write the artifact over the trace.
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, FIXED_STEADY)
        argv = ["simulate", "--config", str(config), "--out", "run"]
        assert cli.main([*argv, "--emit-trace", trace]) == 1
        err = capsys.readouterr().err
        assert f"config error: the trace '{trace}' is the run's {artifact}" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.conf"]

    def test_artifact_name_outside_the_output_directory_is_a_trace(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "run")]
        assert cli.main([*argv, "--emit-trace", str(tmp_path / "summary.json")]) == 0
        assert (tmp_path / "summary.json").read_text().startswith("index,")

    def test_empty_trace_path_counts_as_not_given(self, tmp_path, capsys):
        config = write_config(tmp_path, FIXED_STEADY)
        out = tmp_path / "run"
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert cli.main([*argv, "--emit-trace", ""]) == 0
        assert "samples=20 " in capsys.readouterr().out
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run", "run.conf"]


#: FIXED_STEADY over 200 intervals.
LONG_STEADY = FIXED_STEADY.replace("2000000", "20000000")


def failing_at(index: int, error: type[BaseException], watched: Path, seen: list):
    """A ``simulate_interval`` that raises ``error`` on its call for interval
    ``index``, first adding to ``seen`` the names of the files then under
    ``watched``."""
    simulate_interval = experiment.simulate_interval
    calls = []

    def simulate(*args):
        if len(calls) == index:
            seen.extend(sorted(path.name for path in watched.rglob("*")))
            raise error(f"interval {index}")
        calls.append(None)
        return simulate_interval(*args)

    return simulate


class TestOutputsAppearWhole:
    """Each output, the trace too, is written under a temporary name in its
    directory and moved into place when the run completes: a run that fails
    at any point leaves no trace, no artifact, no temporary file and no
    directory it made."""

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("suffix", ["csv", "jsonl"])
    def test_simulate_failing_mid_loop_leaves_nothing(
        self, tmp_path, monkeypatch, capsys, suffix, error
    ):
        config = write_config(tmp_path, LONG_STEADY)
        (tmp_path / "traces").mkdir()
        trace, out = tmp_path / "traces" / f"t.{suffix}", tmp_path / "runs" / "run"
        seen: list[str] = []
        monkeypatch.setattr(
            experiment, "simulate_interval", failing_at(100, error, tmp_path, seen)
        )
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        argv += ["--emit-trace", str(trace)]
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            assert cli.main(argv) == 3
            assert "internal error: RuntimeError('interval 100')" in capsys.readouterr().err
        # Mid-loop, the trace and scatter.csv were streaming to temporary files.
        temporary = [name for name in seen if name.endswith(".tmp")]
        assert [name.split(".")[1] for name in temporary] == ["scatter", "t"]
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["run.conf", "traces"]

    def test_a_directory_that_existed_stays_empty(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, LONG_STEADY)
        out = tmp_path / "run"
        out.mkdir()
        seen: list[str] = []
        monkeypatch.setattr(
            experiment, "simulate_interval", failing_at(100, RuntimeError, out, seen)
        )
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 3
        assert len(seen) == 1 and seen[0].startswith(".scatter.csv.")
        assert list(out.iterdir()) == []

    def test_a_writer_failing_after_the_scatter_leaves_no_artifact(
        self, tmp_path, monkeypatch
    ):
        def fail(events, handle):
            raise OSError("disk full")

        config = write_config(tmp_path, LONG_STEADY)
        out = tmp_path / "run"
        monkeypatch.setattr(experiment, "emit_events_csv", fail)
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    def test_an_output_that_is_a_symlink_is_replaced_not_written_through(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        out = tmp_path / "run"
        out.mkdir()
        target = tmp_path / "elsewhere.json"
        target.write_text("kept\n")
        (out / "summary.json").symlink_to(target)
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert not (out / "summary.json").is_symlink()
        assert load_summary(out)["sample_count"] == 20
        assert target.read_text() == "kept\n"

    def test_an_output_that_is_a_hard_link_keeps_its_other_name(self, tmp_path):
        config = write_config(tmp_path, FIXED_STEADY)
        out = tmp_path / "run"
        out.mkdir()
        other = tmp_path / "other.csv"
        other.write_text("kept\n")
        os.link(other, out / "scatter.csv")
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        assert cli.main([*argv, "--emit-trace", str(tmp_path / "t.csv")]) == 0
        assert len((out / "scatter.csv").read_text().splitlines()) == 21
        assert other.read_text() == "kept\n"


class TestDetectCommand:
    def test_missing_trace_file_exits_two(self, tmp_path):
        code = cli.main(
            [
                "detect",
                "--trace",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "name, content, named",
        [
            ("bad.csv", b"index,tau\n0,100\n", "line 1: bad header ['index', 'tau']"),
            (
                "bad.csv",
                TRACE_HEADER + b"0,0,100000,100000,0.5,0.0,A\xff\n",
                "bad.csv is not valid UTF-8",
            ),
            (
                "bad.jsonl",
                b'{"schema_version": 1, "source_core": "A\xff"}\n',
                "bad.jsonl is not valid UTF-8",
            ),
            (
                "bad.csv",
                TRACE_HEADER + b"0,0,100000,100000,0.5,0.0," + b"A" * 140_000,
                "line 2: field larger than field limit",
            ),
            ("bad.jsonl", b"[" * 100_000 + b"\n", "line 1: "),
            ("bad.jsonl", b'{"schema_version": 1, "tau": ' + b"1" * 5000 + b"}\n", "line 1: "),
            (
                "gap.csv",
                TRACE_HEADER + b"0,0,100,50,0.5,0.0,A0\n1,150,100,50,0.5,0.0,A0\n",
                "row 1: start_cycle 150 leaves a gap (expected 100)",
            ),
            (
                "util.jsonl",
                b'{"schema_version": 1, "index": 0, "start_cycle": 0, "tau": 100, '
                b'"retired_instructions": 50, "util_int": 1.5, "util_fp": 0.0, '
                b'"source_core": "A0"}\n',
                "row 0: util_int must lie in [0, 1], got 1.5",
            ),
            (
                "bool.jsonl",
                b'{"schema_version": 1, "index": 0, "start_cycle": 0, "tau": 100, '
                b'"retired_instructions": 50, "util_int": true, "util_fp": 0.0, '
                b'"source_core": "A0"}\n',
                "row 0: util_int must be a number, got True",
            ),
            (
                "start.csv",
                TRACE_HEADER + b"0,9223372036854775808,100,50,0.5,0.0,A0\n",
                "row 0: start_cycle must be >= 0 and fit a 64-bit counter, "
                "got 9223372036854775808",
            ),
            (
                "skip.csv",
                TRACE_HEADER + b"0,0,100,50,0.5,0.0,A0\n2,100,100,50,0.5,0.0,A0\n",
                "row 1: index 2 does not follow 0",
            ),
            (
                "first.csv",
                TRACE_HEADER + b"1,0,100,50,0.5,0.0,A0\n",
                "row 0: the first index is 1, expected 0",
            ),
            (
                "short.csv",
                TRACE_HEADER + b"0,0,100,50,0.5,0.0\n",
                "line 2: expected 7 fields, got 6",
            ),
        ],
        ids=[
            "bad_header",
            "csv_invalid_utf8",
            "jsonl_invalid_utf8",
            "csv_field_over_limit",
            "jsonl_deep_nesting",
            "jsonl_long_integer",
            "gap",
            "util_out_of_range",
            "util_bool",
            "start_past_64_bits",
            "skipped_index",
            "first_index_not_0",
            "short_row",
        ],
    )
    def test_malformed_trace_exits_two(self, tmp_path, capsys, name, content, named):
        trace = tmp_path / name
        trace.write_bytes(content)
        out = tmp_path / "out"
        code = cli.main(["detect", "--trace", str(trace), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ")
        assert named in err
        assert not out.exists()

    @given(
        fmt=st.sampled_from(["csv", "jsonl"]),
        first=st.integers(0, 3),
        rows=st.lists(
            st.tuples(
                st.sampled_from([1, 100_000]),
                st.one_of(
                    st.integers(0, 500_000),
                    st.sampled_from(
                        [10**308, MAX_RETIRED, MAX_RETIRED + 1, 10**310, 10**400]
                    ),
                ),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_huge_counts_and_shifted_indexes_never_exit_three(
        self, tmp_path_factory, fmt, first, rows
    ):
        tmp = tmp_path_factory.mktemp("detect")
        lines, start = [], 0
        for offset, (tau, retired, util) in enumerate(rows):
            fields = [first + offset, start, tau, retired, util, 0.0, "A0"]
            if fmt == "csv":
                lines.append(",".join(map(str, fields)))
            else:
                record = dict(zip(TRACE_HEADER.decode().strip().split(","), fields))
                lines.append(json.dumps({"schema_version": 1, **record}))
            start += tau
        header = TRACE_HEADER.decode() if fmt == "csv" else ""
        trace = tmp / f"trace.{fmt}"
        trace.write_text(header + "\n".join(lines) + "\n")
        code = cli.main(["detect", "--trace", str(trace), "--out", str(tmp / "out")])
        bad = first != 0 or max(retired for _, retired, _ in rows) > MAX_RETIRED
        assert code == (2 if bad else 0)

    def test_summary_at_the_largest_count_is_strict_json(self, tmp_path):
        # One-cycle intervals at the largest count: the per-phase sums stay
        # finite, so summary.json holds no Infinity.
        trace = tmp_path / "trace.csv"
        rows = "".join(f"{i},{i},1,{MAX_RETIRED},0.5,0.0,A0\n" for i in range(2))
        trace.write_bytes(TRACE_HEADER + rows.encode())
        out = tmp_path / "out"
        assert cli.main(["detect", "--trace", str(trace), "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"summary.json holds {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        [phase] = summary["phases"]
        assert phase["mean_throughput_raw"] == phase["mean_throughput_per_cycle"]
        assert phase["mean_throughput_raw"] == float(MAX_RETIRED)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("field", ["start_cycle", "tau"])
    @pytest.mark.parametrize("value", [MAX_RETIRED, MAX_RETIRED + 1])
    def test_cycle_counts_up_to_a_64_bit_counter_replay(
        self, tmp_path, capsys, fmt, field, value
    ):
        row = dict(
            zip(TRACE_HEADER.decode().strip().split(","), [0, 0, 1, 1, 0.5, 0.0, "A0"])
        )
        row[field] = value
        trace = tmp_path / f"trace.{fmt}"
        if fmt == "csv":
            trace.write_bytes(TRACE_HEADER + ",".join(map(str, row.values())).encode() + b"\n")
        else:
            trace.write_text(json.dumps({"schema_version": 1, **row}) + "\n")
        out = tmp_path / "out"
        code = cli.main(["detect", "--trace", str(trace), "--out", str(out)])
        if value > MAX_RETIRED:
            assert code == 2
            assert f"row 0: {field} must be" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            [scatter] = list(csv.DictReader((out / "scatter.csv").read_text().splitlines()))
            assert int(scatter[field]) == MAX_RETIRED

    def test_no_trace_anywhere_exits_one(self, tmp_path):
        assert cli.main(["detect", "--out", str(tmp_path / "out")]) == 1

    def test_config_with_a_second_source_exits_one(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_bytes(TRACE_HEADER)
        config = write_config(
            tmp_path, "workload.trace = t.csv\nworkload.preset = steady\n"
        )
        out = tmp_path / "out"
        assert cli.main(["detect", "--config", str(config), "--out", str(out)]) == 1
        assert (
            f"{config}:2: detect reads only workload.trace, out and detector.* "
            "keys, got 'workload.preset'"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_trace_flag_overrides_the_config_source(self, tmp_path):
        (tmp_path / "t.csv").write_bytes(TRACE_HEADER)
        config = write_config(tmp_path, "workload.trace = other.csv\n")
        out = tmp_path / "out"
        code = cli.main(
            ["detect", "--config", str(config), "--trace", str(tmp_path / "t.csv"),
             "--out", str(out)]
        )
        assert code == 0
        assert load_summary(out)["label"] == "t.csv"

    def test_empty_trace_flag_counts_as_not_given(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_bytes(TRACE_HEADER)
        config = write_config(tmp_path, "workload.trace = t.csv\n")
        out = tmp_path / "out"
        argv = ["detect", "--trace", "", "--out", str(out)]
        assert cli.main([*argv, "--config", str(config)]) == 0
        assert load_summary(out)["label"] == "t.csv"
        assert cli.main(argv) == 1
        assert "config error: detect needs a trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("workload.preset", "steady"),
            ("workload.spec", "spec.json"),
            ("workload.cycles", "2000000"),
            ("workload.demand", "2.0"),
            ("workload.fp_fraction", "0.5"),
            ("workload.noise", "0.5"),
            ("machine", "nope.csv"),
            ("start_core", "Z9"),
            ("mode", "variable_tau"),
            ("fixed_tau", "3"),
            ("seed", "7"),
            ("scheduler.enabled", "no"),
            ("scheduler.migration_penalty", "-1"),
        ],
    )
    def test_config_key_detect_does_not_read_exits_one(
        self, tmp_path, capsys, key, value
    ):
        # Every simulate-only key is refused at its line, valid value or not,
        # before any file it names is opened.
        (tmp_path / "t.csv").write_bytes(TRACE_HEADER)
        config = write_config(
            tmp_path,
            "# replay\nworkload.trace = t.csv\ndetector.tau_min = 50000\n"
            f"{key} = {value}\n",
        )
        out = tmp_path / "out"
        assert cli.main(["detect", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (
            f"{config}:4: detect reads only workload.trace, out and detector.* "
            f"keys, got {key!r}"
        ) in err
        assert "cannot read machine file" not in err
        assert not out.exists()

    def test_documented_example_is_refused_at_its_first_key(self, tmp_path, capsys):
        example = Path(__file__).resolve().parent.parent / "docs" / "example.conf"
        lines = example.read_text(encoding="utf-8").splitlines()
        line = lines.index("workload.preset = fft_like") + 1
        (tmp_path / "t.csv").write_bytes(TRACE_HEADER)
        out = tmp_path / "out"
        argv = ["detect", "--config", str(example), "--trace", str(tmp_path / "t.csv")]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {example}:{line}: detect reads only workload.trace, out "
            "and detector.* keys, got 'workload.preset'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("artifact", ARTIFACTS)
    def test_trace_named_after_an_artifact_exits_one(
        self, tmp_path, capsys, monkeypatch, artifact
    ):
        # write_artifacts would write the artifact over the trace it read.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run").mkdir()
        trace = simulate_trace(tmp_path, FIXED_STEADY, f"run/{artifact}")
        recorded = trace.read_bytes()
        capsys.readouterr()
        assert cli.main(["detect", "--trace", f"run/{artifact}", "--out", "run"]) == 1
        assert capsys.readouterr().err == (
            f"config error: the trace 'run/{artifact}' is the run's {artifact}; "
            "name another file\n"
        )
        assert trace.read_bytes() == recorded
        assert [path.name for path in (tmp_path / "run").iterdir()] == [artifact]

    def test_empty_trace_writes_header_only_artifacts(self, tmp_path):
        trace = tmp_path / "empty.csv"
        trace.write_text("")
        out = tmp_path / "out"
        assert cli.main(["detect", "--trace", str(trace), "--out", str(out)]) == 0
        scatter = (out / "scatter.csv").read_text()
        assert scatter.splitlines() == [
            "interval_index,start_cycle,tau,throughput_raw,"
            "throughput_per_cycle,utilization,phase_id,event"
        ]
        assert load_summary(out)["sample_count"] == 0

    def test_format_override(self, tmp_path):
        # A jsonl stream behind a .log extension only loads when --format says so.
        text = "workload.preset = steady\nworkload.cycles = 300000\n" + ONE_CORE_FIXED
        spec_trace = simulate_trace(tmp_path, text, "trace.jsonl")
        renamed = tmp_path / "trace.log"
        renamed.write_bytes(spec_trace.read_bytes())
        out = tmp_path / "out"
        assert (
            cli.main(
                [
                    "detect",
                    "--trace",
                    str(renamed),
                    "--format",
                    "jsonl",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert load_summary(out)["sample_count"] == 3
        bad = cli.main(
            ["detect", "--trace", str(renamed), "--out", str(tmp_path / "out2")]
        )
        assert bad == 2

    def test_detector_overrides_from_config(self, tmp_path):
        text = "workload.preset = steady\nworkload.cycles = 1000000\n" + ONE_CORE_FIXED
        trace = simulate_trace(tmp_path, text, "trace.csv")
        config = write_config(
            tmp_path,
            f"workload.trace = {trace.name}\ndetector.delta_under = 0.5\n",
        )
        out = tmp_path / "out"
        assert cli.main(["detect", "--config", str(config), "--out", str(out)]) == 0
        summary = load_summary(out)
        # Steady demand 1.6 sits at 40% utilization, under the raised bound.
        assert summary["event_counts"].get("under_util", 0) > 0


class TestNoOutputIsAnInput:
    """One rule for every file a run names: no output (the trace ``simulate``
    writes, or an artifact) may be a file the run reads (its config, workload
    spec, machine file, or ``detect``'s trace) or another output. Each case
    exits 1 naming both files' roles, before any output opens, and leaves the
    input as it was. Nor may an output be a directory that exists."""

    SPEC_CONFIG = "workload.spec = spec.json\nmode = fixed_tau\nfixed_tau = 100000\n"

    def refused(self, capsys, argv, message, kept: Path) -> None:
        before = kept.read_bytes()
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}; name another file\n"
        assert kept.read_bytes() == before

    def test_trace_named_after_the_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, FIXED_STEADY, name="s.conf")
        argv = ["simulate", "--config", "s.conf", "--out", "run", "--emit-trace", "s.conf"]
        self.refused(capsys, argv, "the trace 's.conf' is the config file", tmp_path / "s.conf")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s.conf"]

    def test_trace_named_after_the_workload_spec(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen-workload", "--preset", "steady", "--cycles", "1000000",
                         "--out", "spec.json"]) == 0
        write_config(tmp_path, self.SPEC_CONFIG, name="s.conf")
        argv = ["simulate", "--config", "s.conf", "--out", "run", "--emit-trace", "spec.json"]
        self.refused(
            capsys, argv, "the trace 'spec.json' is the workload spec", tmp_path / "spec.json"
        )
        assert cli.main(["simulate", "--config", "s.conf", "--out", "run"]) == 0

    def test_trace_named_after_the_machine_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.csv").write_bytes(MACHINE_HEADER + b"A0,A,4,64,32,,\nB0,B,2,32,16,,\n")
        write_config(tmp_path, FIXED_STEADY + "machine = m.csv\n", name="s.conf")
        argv = ["simulate", "--config", "s.conf", "--out", "run", "--emit-trace", "m.csv"]
        self.refused(capsys, argv, "the trace 'm.csv' is the machine file", tmp_path / "m.csv")
        assert cli.main(["simulate", "--config", "s.conf", "--out", "run"]) == 0

    def test_artifact_hard_linked_to_the_trace(self, tmp_path, capsys, monkeypatch):
        # A hard link resolves to its own name; only the file's identity tells.
        monkeypatch.chdir(tmp_path)
        trace = simulate_trace(tmp_path, FIXED_STEADY, "t.csv")
        (tmp_path / "hl").mkdir()
        os.link(trace, tmp_path / "hl" / "scatter.csv")
        argv = ["detect", "--trace", "t.csv", "--out", "hl"]
        self.refused(capsys, argv, "the trace 't.csv' is the run's scatter.csv", trace)
        assert cli.main(["detect", "--trace", "t.csv", "--out", "replay"]) == 0

    def test_artifact_symlinked_to_the_trace(self, tmp_path, capsys, monkeypatch):
        # open(path, "w") writes through a symlink.
        monkeypatch.chdir(tmp_path)
        trace = simulate_trace(tmp_path, FIXED_STEADY, "t2.csv")
        (tmp_path / "sl").mkdir()
        (tmp_path / "sl" / "events.csv").symlink_to(Path("..") / "t2.csv")
        argv = ["detect", "--trace", "t2.csv", "--out", "sl"]
        self.refused(capsys, argv, "the trace 't2.csv' is the run's events.csv", trace)

    def test_artifact_named_after_the_workload_spec(self, tmp_path, capsys, monkeypatch):
        # No trace: the summary would be written over the spec it ran.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run").mkdir()
        assert cli.main(["gen-workload", "--preset", "steady", "--cycles", "1000000",
                         "--out", "run/summary.json"]) == 0
        write_config(
            tmp_path, self.SPEC_CONFIG.replace("spec.json", "run/summary.json"), name="s.conf"
        )
        argv = ["simulate", "--config", "s.conf", "--out", "run"]
        message = "the workload spec 'run/summary.json' is the run's summary.json"
        self.refused(capsys, argv, message, tmp_path / "run" / "summary.json")

    def test_artifact_symlinked_to_another_artifact(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, FIXED_STEADY, name="s.conf")
        assert cli.main(["simulate", "--config", "s.conf", "--out", "run"]) == 0
        (tmp_path / "run" / "events.csv").unlink()
        (tmp_path / "run" / "events.csv").symlink_to("scatter.csv")
        argv = ["simulate", "--config", "s.conf", "--out", "run"]
        message = "the run's scatter.csv 'run/scatter.csv' is the run's events.csv"
        self.refused(capsys, argv, message, tmp_path / "run" / "scatter.csv")

    def test_config_file_is_an_input_of_detect(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        trace = simulate_trace(tmp_path, FIXED_STEADY, "t.csv")
        (tmp_path / "run").mkdir()
        write_config(tmp_path / "run", "detector.delta_th = 50\n", name="events.csv")
        argv = ["detect", "--trace", str(trace), "--config", "run/events.csv", "--out", "run"]
        message = "the config file 'run/events.csv' is the run's events.csv"
        self.refused(capsys, argv, message, tmp_path / "run" / "events.csv")


    @pytest.mark.parametrize("command", ["simulate", "detect"])
    @pytest.mark.parametrize("artifact", ARTIFACTS)
    def test_artifact_that_is_a_directory_exits_one(
        self, tmp_path, capsys, monkeypatch, command, artifact
    ):
        # Each artifact open would fail, after the ones before it were written.
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, FIXED_STEADY, name="s.conf")
        source = ["--config", "s.conf"]
        if command == "detect":
            source = ["--trace", str(simulate_trace(tmp_path, FIXED_STEADY, "t.csv"))]
        (tmp_path / "run" / artifact).mkdir(parents=True)
        capsys.readouterr()
        assert cli.main([command, *source, "--out", "run"]) == 1
        assert capsys.readouterr().err == (
            f"config error: the run's {artifact} 'run/{artifact}' is an existing directory\n"
        )
        assert [path.name for path in (tmp_path / "run").iterdir()] == [artifact]
        assert not any((tmp_path / "run" / artifact).iterdir())

    def test_trace_that_is_a_directory_exits_one(self, tmp_path, capsys, monkeypatch):
        # Opening it would fail after the output directory was made.
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, FIXED_STEADY, name="s.conf")
        (tmp_path / "d").mkdir()
        argv = ["simulate", "--config", "s.conf", "--out", "run", "--emit-trace", "d"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "config error: the trace 'd' is an existing directory\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["d", "s.conf"]
        assert not any((tmp_path / "d").iterdir())


class TestCompareCommand:
    def test_reports_the_ratio(self, tmp_path, capsys):
        config = write_config(tmp_path, FIXED_STEADY)
        fixed_out = tmp_path / "fixed"
        variable_out = tmp_path / "variable"
        cli.main(["simulate", "--config", str(config), "--out", str(fixed_out)])
        cli.main(
            [
                "simulate",
                "--config",
                str(config),
                "--variable-tau",
                "--out",
                str(variable_out),
            ]
        )
        capsys.readouterr()
        code = cli.main(["compare-overhead", str(fixed_out), str(variable_out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "overhead ratio" in printed

    def test_missing_run_exits_two(self, tmp_path):
        assert (
            cli.main(["compare-overhead", str(tmp_path / "a"), str(tmp_path / "b")])
            == 2
        )

    @pytest.mark.parametrize(
        "content, named",
        [
            (b"\xff", "summary.json"),
            (b"[" * 100_000, "summary.json"),
            (b"{}", "cycles_covered"),
            (b"[]", "cycles_covered"),
            (
                b'{"cycles_covered": 2000000, "sample_count": "20", '
                b'"label": "steady", "mode": "fixed_tau"}',
                "bad/summary.json: sample_count must be an int, got '20'",
            ),
        ],
        ids=["invalid_utf8", "deep_nesting", "empty_object", "not_an_object", "string_count"],
    )
    def test_malformed_summary_exits_one(self, tmp_path, capsys, content, named):
        config = write_config(tmp_path, FIXED_STEADY)
        good, bad = tmp_path / "good", tmp_path / "bad"
        cli.main(["simulate", "--config", str(config), "--out", str(good)])
        bad.mkdir()
        (bad / "summary.json").write_bytes(content)
        capsys.readouterr()
        for runs in ([good, bad], [bad, good]):
            assert cli.main(["compare-overhead", *map(str, runs)]) == 1
            err = capsys.readouterr().err
            assert "internal error" not in err
            assert named in err

    @given(
        contents=st.lists(
            st.one_of(
                st.binary(max_size=200),
                st.dictionaries(
                    st.sampled_from(["cycles_covered", "sample_count", "label", "mode"]),
                    st.one_of(
                        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
                    ),
                ).map(lambda summary: json.dumps(summary).encode()),
            ),
            min_size=2,
            max_size=2,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_summaries_report_or_raise_config_error(
        self, tmp_path_factory, contents
    ):
        runs = [tmp_path_factory.mktemp("run") for _ in contents]
        for run, content in zip(runs, contents):
            (run / "summary.json").write_bytes(content)
        try:
            overhead_report(*runs)
        except ConfigError:
            pass

    def test_negative_sample_count_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, FIXED_STEADY)
        good, bad = tmp_path / "good", tmp_path / "bad"
        cli.main(["simulate", "--config", str(config), "--out", str(good)])
        bad.mkdir()
        summary = load_summary(good)
        summary["sample_count"] = -5
        (bad / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        for runs in ([good, bad], [bad, good]):
            assert cli.main(["compare-overhead", *map(str, runs)]) == 1
            assert "sample counts must be >= 1" in capsys.readouterr().err

    def test_runs_of_different_workloads_exit_one(self, tmp_path, capsys):
        # A steady run over the same 27 000 000 cycles as the documented
        # fft_like example: the budgets match, the workloads do not.
        example = Path(__file__).resolve().parent.parent / "docs" / "example.conf"
        steady = write_config(
            tmp_path,
            "workload.preset = steady\nworkload.cycles = 27000000\n"
            "mode = fixed_tau\nfixed_tau = 100000\n",
        )
        fixed, variable = tmp_path / "fixed", tmp_path / "variable"
        assert cli.main(["simulate", "--config", str(steady), "--out", str(fixed)]) == 0
        assert (
            cli.main(["simulate", "--config", str(example), "--out", str(variable)]) == 0
        )
        assert load_summary(fixed)["cycles_covered"] == 27_000_000
        capsys.readouterr()
        assert cli.main(["compare-overhead", str(fixed), str(variable)]) == 1
        err = capsys.readouterr().err
        assert "different workloads: 'steady' vs 'fft_like'" in err

    def test_runs_in_the_wrong_order_exit_one(self, tmp_path, capsys):
        config = write_config(tmp_path, FIXED_STEADY)
        fixed, variable = tmp_path / "fixed", tmp_path / "variable"
        cli.main(["simulate", "--config", str(config), "--out", str(fixed)])
        cli.main(
            ["simulate", "--config", str(config), "--variable-tau", "--out", str(variable)]
        )
        capsys.readouterr()
        assert cli.main(["compare-overhead", str(variable), str(fixed)]) == 1
        captured = capsys.readouterr()
        assert "pass the fixed_tau run first" in captured.err
        assert captured.out == ""

    def test_mismatched_budgets_exit_one(self, tmp_path):
        short = write_config(
            tmp_path,
            "workload.preset = steady\nworkload.cycles = 1000000\nfixed_tau = 100000\n",
            name="short.conf",
        )
        long = write_config(
            tmp_path,
            "workload.preset = steady\nworkload.cycles = 2000000\nfixed_tau = 100000\n",
            name="long.conf",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(short), "--out", str(a)])
        cli.main(["simulate", "--config", str(long), "--out", str(b)])
        assert cli.main(["compare-overhead", str(a), str(b)]) == 1


def simulate_and_replay(tmp_path, text):
    """``simulate --emit-trace`` over a config of ``text``, then ``detect``
    over its trace: the two runs' output directories."""
    trace = simulate_trace(tmp_path, text, "trace.csv")
    replayed = tmp_path / "replayed"
    assert cli.main(["detect", "--trace", str(trace), "--out", str(replayed)]) == 0
    return tmp_path / "simulated", replayed


REPLAY_MATRIX = [
    pytest.param(
        f"workload.preset = {preset_name}\nstart_core = {core}\nseed = {seed}\n",
        id=f"{preset_name}-{core}-{seed}",
    )
    for preset_name in ("fft_like", "fmm_like")
    for core in ("A0", "B0")
    for seed in (0, 7)
]


@pytest.mark.parametrize("text", REPLAY_MATRIX)
def test_simulate_agrees_with_detect_over_its_own_trace(tmp_path, text):
    # At a fixed tau on one core the replay sees every interval simulate saw,
    # at the length simulate ran it, and migrates nothing: it writes the same
    # scatter and events. The presets carry no noise, so the seed moves no
    # interval.
    simulated, replayed = simulate_and_replay(tmp_path, text + ONE_CORE_FIXED)
    for name in ("scatter.csv", "events.csv"):
        assert (simulated / name).read_bytes() == (replayed / name).read_bytes(), name


def _csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


#: Events a replay does not raise: tau changes and migrations are the
#: interval controller's and the scheduler's decisions, which only simulate
#: runs. Without them a replay's events are simulate's, in every mode.
_SIMULATE_ONLY_EVENTS = ("migration", "tau_doubled", "tau_halved")


@pytest.mark.parametrize("scheduler", ["yes", "no"])
@pytest.mark.parametrize(
    "mode", ["mode = fixed_tau\nfixed_tau = 100000\n", "mode = variable_tau\n"]
)
@pytest.mark.parametrize("text", REPLAY_MATRIX)
def test_replay_of_simulate_trace_repeats_phases_and_detector_events(
    tmp_path, text, mode, scheduler
):
    simulated, replayed = simulate_and_replay(
        tmp_path, f"{text}{mode}scheduler.enabled = {scheduler}\n"
    )
    runs = (simulated, replayed)
    phase_ids = [[row["phase_id"] for row in _csv_rows(run / "scatter.csv")] for run in runs]
    events = [
        [row for row in _csv_rows(run / "events.csv") if row["kind"] not in _SIMULATE_ONLY_EVENTS]
        for run in runs
    ]
    assert phase_ids[0] == phase_ids[1]
    assert events[0] == events[1]
    assert events[0]  # every run changes phase at least once


def test_documented_example_runs(tmp_path, capsys):
    example = Path(__file__).resolve().parent.parent / "docs" / "example.conf"
    variable, fixed = tmp_path / "variable", tmp_path / "fixed"
    assert cli.main(["simulate", "--config", str(example), "--out", str(variable)]) == 0
    assert (
        cli.main(
            ["simulate", "--config", str(example), "--fixed-tau", "100000", "--out", str(fixed)]
        )
        == 0
    )
    summary = load_summary(variable)
    assert (
        summary["sample_count"],
        summary["phase_count"],
        summary["migration_count"],
        summary["cycles_covered"],
    ) == (229, 3, 2, 27_000_000)
    assert load_summary(fixed)["sample_count"] == 270
    capsys.readouterr()
    assert cli.main(["compare-overhead", str(fixed), str(variable)]) == 0
    assert "overhead ratio" in capsys.readouterr().out


class TestParserShape:
    def test_missing_subcommand_exits_one(self):
        assert cli.main([]) == 1

    def test_gen_workload_requires_out(self):
        assert cli.main(["gen-workload", "--preset", "steady"]) == 1

    @pytest.mark.parametrize(
        "argv, name, value",
        [
            (["detect", "--trace", "a\0b", "--out", "run"], "--trace", "a\0b"),
            (["detect", "--trace", "t.csv", "--out", "r\0x"], "--out", "r\0x"),
            (["detect", "--config", "c\0.conf", "--out", "run"], "--config", "c\0.conf"),
            (
                ["simulate", "--config", "s.conf", "--out", "run", "--emit-trace", "a\0b"],
                "--emit-trace",
                "a\0b",
            ),
            (["simulate", "--config", "s.conf", "--out", "r\0n"], "--out", "r\0n"),
            (["simulate", "--config", "s\0.conf", "--out", "run"], "--config", "s\0.conf"),
            (["compare-overhead", "a\0", "b"], "fixed_dir", "a\0"),
            (["gen-workload", "--preset", "steady", "--out", "a\0b"], "--out", "a\0b"),
        ],
        ids=[
            "detect_trace",
            "detect_out",
            "detect_config",
            "simulate_emit_trace",
            "simulate_out",
            "simulate_config",
            "compare_fixed_dir",
            "gen_workload_out",
        ],
    )
    def test_nul_byte_in_a_path_exits_one_naming_the_argument(
        self, tmp_path, capsys, monkeypatch, argv, name, value
    ):
        # The OS cannot open such a path: the config keys' rule refuses it.
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, FIXED_STEADY, name="s.conf")
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: {name}: path contains a NUL byte: {value!r}\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["s.conf"]


def test_exit_codes_through_a_process(tmp_path):
    # Every other test calls main() in process: this one runs the module as a
    # program, on the phasesim these tests import.
    env = {**os.environ, "PYTHONPATH": str(Path(phasesim.__file__).parent.parent)}

    def detect(name, second_start):
        trace = tmp_path / f"{name}.csv"
        rows = f"0,0,100,50,0.5,0.0,A0\n1,{second_start},100,50,0.5,0.0,A0\n"
        trace.write_bytes(TRACE_HEADER + rows.encode())
        argv = ["detect", "--trace", str(trace), "--out", str(tmp_path / name)]
        return subprocess.run(
            [sys.executable, "-m", "phasesim.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    good, gap = detect("good", 100), detect("gap", 150)
    assert (good.returncode, good.stderr) == (0, "")
    assert good.stdout.startswith("samples=2 ")
    assert (gap.returncode, gap.stdout) == (2, "")
    assert gap.stderr == "i/o error: row 1: start_cycle 150 leaves a gap (expected 100)\n"


class TestRarelyTakenPaths:
    """Error and skip paths that no other test runs, each pinned to its exit
    code and message."""

    def test_jsonl_row_without_a_field_exits_two_naming_it(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"schema_version": 1, "index": 0, "start_cycle": 0, '
            '"retired_instructions": 10, "util_int": 0.5, "util_fp": 0.0, '
            '"source_core": "A0"}\n'
        )
        out = tmp_path / "out"
        assert cli.main(["detect", "--trace", str(trace), "--out", str(out)]) == 2
        assert "i/o error: line 1: missing fields ['tau']" in capsys.readouterr().err

    def test_machine_row_with_too_few_fields_exits_one(self, tmp_path, capsys):
        (tmp_path / "m1.csv").write_bytes(MACHINE_HEADER + b"A0,A,4,80,32\n")
        config = write_config(tmp_path, FIXED_STEADY + "machine = m1.csv\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "m1.csv:2: expected 7 fields" in capsys.readouterr().err
        assert not out.exists()

    def test_machine_file_of_blank_rows_lists_no_cores(self, tmp_path, capsys):
        (tmp_path / "m.csv").write_bytes(MACHINE_HEADER + b"\n,,,,,,\n")
        config = write_config(tmp_path, FIXED_STEADY + "machine = m.csv\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "machine file lists no cores" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_machine_row_between_cores_is_skipped(self, tmp_path):
        (tmp_path / "m.csv").write_bytes(
            MACHINE_HEADER + b"A0,A,4,80,32,4,2\n\nB0,B,2,56,16,2,1\n"
        )
        config = write_config(
            tmp_path,
            "workload.preset = fft_like\nfixed_tau = 100000\n"
            "machine = m.csv\nstart_core = B0\n",
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert load_summary(out)["sample_count"] == 270

    def test_detect_without_an_output_directory_exits_one(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_bytes(TRACE_HEADER)
        config = write_config(tmp_path, "workload.trace = t.csv\n")
        assert cli.main(["detect", "--config", str(config)]) == 1
        assert "config error: no output directory" in capsys.readouterr().err

    def test_unknown_preset_in_a_config_exits_one_listing_the_presets(
        self, tmp_path, capsys
    ):
        config = write_config(tmp_path, "workload.preset = nope\nfixed_tau = 100000\n")
        out = tmp_path / "run"
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        assert (
            "config error: unknown preset 'nope'; known presets: fft_like, fmm_like, steady"
            in capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, utilization", [("", 0.4), ("workload.fp_fraction = 1.0\n", 0.8)]
    )
    def test_fp_fraction_moves_the_load_to_the_fp_units(
        self, tmp_path, extra, utilization
    ):
        # Demand 1.6 on A0: 4-wide integer issue, or 2 fp units.
        config = write_config(
            tmp_path,
            "workload.preset = steady\nworkload.cycles = 1000000\n"
            "fixed_tau = 100000\nstart_core = A0\n" + extra,
        )
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "scatter.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10
        assert {float(row["utilization"]) for row in rows} == {utilization}
