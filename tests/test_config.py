from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesim import (
    ConfigError,
    CoreClass,
    DetectorConfig,
    ExperimentConfig,
    Mode,
    default_machine,
    load_machine_file,
    parse_config_file,
    parse_config_pairs,
    run_experiment,
)

MACHINE_CSV = """\
name,core_class,issue_width,int_window,fp_window,int_fu_count,fp_fu_count
BIG,A,4,80,32,4,2
TINY,B,2,56,16,,
"""


class TestParseConfigFile:
    def test_full_round_trip(self, tmp_path):
        (tmp_path / "machine.csv").write_text(MACHINE_CSV)
        config_text = """\
# synthetic run
workload.preset = steady
workload.cycles = 1000000
workload.demand = 2.0

machine = machine.csv
start_core = TINY
mode = variable_tau
seed = 7
out = runs/demo
scheduler.enabled = false
detector.delta_th = 50
detector.util_window = 3
detector.recurrence_matching = no
"""
        path = tmp_path / "run.conf"
        path.write_text(config_text)
        config = parse_config_file(path)

        assert config.workload_preset == "steady"
        assert config.preset_args == {"total_cycles": 1_000_000, "demand": 2.0}
        assert [c.name for c in config.machine_cores] == ["BIG", "TINY"]
        assert config.start_core == "TINY"
        assert config.mode is Mode.VARIABLE
        assert config.seed == 7
        assert config.out_dir == tmp_path / "runs/demo"
        assert config.scheduler_enabled is False
        assert config.detector.delta_th == 50.0
        assert config.detector.util_window == 3
        assert config.detector.recurrence_matching is False
        config.validate()

    def test_defaults_survive_an_empty_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# nothing but comments\n\n")
        config = parse_config_file(path)
        assert config.detector == DetectorConfig()
        assert config.mode is Mode.FIXED
        assert [c.name for c in config.machine_cores] == ["A0", "A1", "B0", "B1"]

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_pairs({"wizard": "gandalf"})

    def test_unknown_detector_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_pairs({"detector.delta_theta": "1.0"})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_pairs({"mode": "adaptive"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_pairs({"scheduler.enabled": "maybe"})

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("just a sentence\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_invalid_detector_combination_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_pairs(
                {"detector.delta_under": "0.8", "detector.delta_over": "0.5"}
            )

    @pytest.mark.parametrize(
        "field", ["delta_th", "delta_over", "delta_under", "steady_band"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_detector_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            parse_config_pairs({f"detector.{field}": value})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "missing.conf")

    @given(
        text=st.binary(max_size=400)
        | st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "workload.preset", "workload.spec", "workload.trace",
                        "workload.cycles", "workload.demand", "machine", "mode",
                        "fixed_tau", "seed", "out", "scheduler.enabled",
                        "detector.delta_th", "detector.tau_max",
                        "detector.recurrence_matching",
                    ]
                ),
                st.text(max_size=30),
            ),
            max_size=6,
        ).map(lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs).encode())
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_parse_or_raise_config_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "run.conf"
        path.write_bytes(text)
        for detect in (False, True):
            try:
                parse_config_file(path, detect=detect)
            except ConfigError:
                pass


class TestExperimentConfigValidate:
    def test_needs_exactly_one_source(self):
        config = ExperimentConfig(fixed_tau=100_000)
        with pytest.raises(ConfigError):
            config.validate()
        config.workload_preset = "steady"
        config.validate()

    def test_two_sources_rejected(self, tmp_path):
        config = ExperimentConfig(
            workload_preset="steady",
            workload_trace_path=tmp_path / "t.csv",
            fixed_tau=100_000,
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_fixed_mode_needs_fixed_tau(self):
        config = ExperimentConfig(workload_preset="steady")
        with pytest.raises(ConfigError):
            config.validate()

    def test_fixed_tau_below_floor_rejected(self):
        # In either mode: a variable-tau run never reads fixed_tau, but a
        # value that is set is still range-checked.
        for mode in Mode:
            config = ExperimentConfig(workload_preset="steady", mode=mode, fixed_tau=50_000)
            with pytest.raises(ConfigError, match="fixed_tau=50000 is below tau_min"):
                config.validate()

    def test_preset_args_only_fit_steady(self):
        config = ExperimentConfig(
            workload_preset="fft_like",
            fixed_tau=100_000,
            preset_args={"demand": 2.0},
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_unknown_start_core_rejected(self):
        config = ExperimentConfig(
            workload_preset="steady", fixed_tau=100_000, start_core="Z9"
        )
        with pytest.raises(ConfigError):
            config.validate()

    def test_empty_machine_rejected(self):
        config = ExperimentConfig(
            workload_preset="steady", fixed_tau=100_000, machine_cores=[]
        )
        with pytest.raises(ConfigError, match="the machine lists no cores"):
            config.validate()
        with pytest.raises(ConfigError, match="the machine lists no cores"):
            run_experiment(config)

    def test_negative_seed_rejected(self):
        config = ExperimentConfig(workload_preset="steady", fixed_tau=100_000, seed=-1)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            config.validate()

    def test_start_core_outside_the_machine_does_not_resolve(self):
        config = ExperimentConfig(start_core="Z9")
        with pytest.raises(ConfigError, match="start_core 'Z9' not in machine"):
            config.resolved_start_core()

    def test_start_core_defaults_to_first(self):
        config = ExperimentConfig(workload_preset="steady", fixed_tau=100_000)
        assert config.resolved_start_core().name == "A0"
        config.start_core = "B1"
        assert config.resolved_start_core().name == "B1"


class TestMachineFile:
    def test_blank_fu_counts_take_defaults(self, tmp_path):
        path = tmp_path / "machine.csv"
        path.write_text(MACHINE_CSV)
        cores = load_machine_file(path)
        big, tiny = cores
        assert big.core_class is CoreClass.A
        assert (big.int_fu_count, big.fp_fu_count) == (4, 2)
        assert tiny.core_class is CoreClass.B
        assert (tiny.int_fu_count, tiny.fp_fu_count) == (2, 1)

    def test_default_machine_is_two_of_each(self):
        cores = default_machine()
        assert [c.core_class for c in cores] == [
            CoreClass.A,
            CoreClass.A,
            CoreClass.B,
            CoreClass.B,
        ]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "machine.csv"
        path.write_text("name,width\nA0,4\n")
        with pytest.raises(ConfigError):
            load_machine_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "machine.csv"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_machine_file(path)

    def test_bad_class_rejected(self, tmp_path):
        path = tmp_path / "machine.csv"
        path.write_text(
            "name,core_class,issue_width,int_window,fp_window,int_fu_count,fp_fu_count\n"
            "X0,C,4,80,32,,\n"
        )
        with pytest.raises(ConfigError):
            load_machine_file(path)
