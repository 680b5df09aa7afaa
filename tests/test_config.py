from __future__ import annotations

import re

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
from phasesim.config import CONFIG_KEYS



def refused(message: str):
    """``pytest.raises`` for a ConfigError whose message is ``message`` exactly."""
    return pytest.raises(ConfigError, match=f"^{re.escape(message)}$")


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
        with refused(f"{path}:2: duplicate key 'seed'"):
            parse_config_file(path)

    def test_unknown_key_rejected(self):
        with refused("unknown config key 'wizard'"):
            parse_config_pairs({"wizard": "gandalf"})

    def test_unknown_detector_key_rejected(self):
        with refused("unknown detector option 'detector.delta_theta'"):
            parse_config_pairs({"detector.delta_theta": "1.0"})

    def test_unknown_detector_key_in_a_detect_config_rejected(self, tmp_path):
        # detect reads every detector.* key, so the detector names the bad one.
        path = tmp_path / "run.conf"
        path.write_text("workload.trace = t.csv\ndetector.delta_theta = 1.0\n")
        with refused("unknown detector option 'detector.delta_theta'"):
            parse_config_file(path, detect=True)

    def test_bad_mode_rejected(self):
        with refused("mode must be fixed_tau or variable_tau, got 'adaptive'"):
            parse_config_pairs({"mode": "adaptive"})

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("scheduler.enabled", "maybe", "scheduler.enabled: expected a boolean, got 'maybe'"),
            ("detector.recurrence_matching", "", "detector.recurrence_matching: expected a boolean, got ''"),
            ("seed", "1.5", "seed: expected an integer, got '1.5'"),
            ("workload.cycles", "1e6", "workload.cycles: expected an integer, got '1e6'"),
            ("detector.tau_min", "fast", "detector.tau_min: expected an integer, got 'fast'"),
            ("workload.demand", "lots", "workload.demand: expected a number, got 'lots'"),
            ("detector.delta_th", "1,5", "detector.delta_th: expected a number, got '1,5'"),
            ("out", "", "out: expected a path, got an empty value"),
            ("workload.spec", "a\0b", "workload.spec: path contains a NUL byte: 'a\\x00b'"),
            ("machine", "m\0.csv", "machine: path contains a NUL byte: 'm\\x00.csv'"),
        ],
    )
    def test_bad_value_rejected(self, key, value, message):
        with refused(message):
            parse_config_pairs({key: value})

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("just a sentence\n")
        with refused(f"{path}:1: expected key=value, got 'just a sentence'"):
            parse_config_file(path)

    def test_invalid_detector_combination_rejected(self):
        with refused(
            "utilization bounds must satisfy 0 <= delta_under < delta_over <= 1, "
            "got delta_under=0.8, delta_over=0.5"
        ):
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
        path = tmp_path / "missing.conf"
        with refused(
            f"cannot read config {path}: [Errno 2] No such file or directory: '{path}'"
        ):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            # Keys are parsed in file order: the first bad one is named.
            ("seed = x\nwizard = 1\n", "seed: expected an integer, got 'x'"),
            ("wizard = 1\nseed = x\n", "unknown config key 'wizard'"),
            # The machine file loads at its own line, before later keys parse.
            (
                "machine = m.csv\nseed = x\n",
                "cannot read machine file {dir}/m.csv: [Errno 2] No such file or "
                "directory: '{dir}/m.csv'",
            ),
            ("seed = x\nmachine = m.csv\n", "seed: expected an integer, got 'x'"),
            # Detector options are checked together, after every other key.
            (
                "detector.delta_under = 0.8\ndetector.delta_over = 0.5\nseed = x\n",
                "seed: expected an integer, got 'x'",
            ),
            (
                "detector.delta_theta = 1\nseed = 1\nmode = adaptive\n",
                "unknown detector option 'detector.delta_theta'",
            ),
            # Lines are read before any value parses.
            ("seed = x\nseed = 1\n", "{path}:2: duplicate key 'seed'"),
            ("seed = x\noops\n", "{path}:2: expected key=value, got 'oops'"),
        ],
    )
    def test_first_refusal_wins(self, tmp_path, text, message):
        path = tmp_path / "run.conf"
        path.write_text(text)
        with refused(message.format(dir=tmp_path, path=path)):
            parse_config_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            # A key detect does not read is refused at its line, before any
            # value is parsed or any file named is opened.
            (
                "detector.tau_min = x\nmachine = m.csv\n",
                "{path}:2: detect reads only workload.trace, out and detector.* "
                "keys, got 'machine'",
            ),
            (
                "wizard = 1\n",
                "{path}:1: detect reads only workload.trace, out and detector.* "
                "keys, got 'wizard'",
            ),
            # Lines are checked in file order, each for '=', then for a
            # duplicate, then for a key detect reads.
            (
                "seed = 1\nseed = 2\n",
                "{path}:1: detect reads only workload.trace, out and detector.* "
                "keys, got 'seed'",
            ),
            ("out = a\nout = b\n", "{path}:2: duplicate key 'out'"),
            ("oops\nseed = 1\n", "{path}:1: expected key=value, got 'oops'"),
            # Keys detect reads parse as in any config.
            ("out =\n", "out: expected a path, got an empty value"),
            ("detector.tau_min = x\n", "detector.tau_min: expected an integer, got 'x'"),
        ],
    )
    def test_detect_refusals(self, tmp_path, text, message):
        path = tmp_path / "run.conf"
        path.write_text(text)
        with refused(message.format(path=path)):
            parse_config_file(path, detect=True)

    @given(
        text=st.binary(max_size=400)
        | st.lists(
            st.tuples(st.sampled_from(sorted(CONFIG_KEYS)), st.text(max_size=30)),
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
        with refused(
            "exactly one workload source required (workload.preset or workload.spec)"
        ):
            config.validate()
        config.workload_preset = "steady"
        config.validate()

    def test_two_sources_rejected(self, tmp_path):
        config = ExperimentConfig(
            workload_preset="steady",
            workload_trace_path=tmp_path / "t.csv",
            fixed_tau=100_000,
        )
        with refused("workload.trace is replayed by `phasesim detect`, not simulated"):
            config.validate()

    def test_fixed_mode_needs_fixed_tau(self):
        config = ExperimentConfig(workload_preset="steady")
        with refused("mode=fixed_tau requires a fixed_tau value"):
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
        with refused(
            "workload.cycles/demand/fp_fraction/noise only apply to the steady preset"
        ):
            config.validate()

    def test_unknown_start_core_rejected(self):
        config = ExperimentConfig(
            workload_preset="steady", fixed_tau=100_000, start_core="Z9"
        )
        with refused("start_core 'Z9' not in machine ['A0', 'A1', 'B0', 'B1']"):
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
        with refused(
            f"{path}: bad header ['name', 'width'], expected ['name', 'core_class', "
            "'issue_width', 'int_window', 'fp_window', 'int_fu_count', 'fp_fu_count']"
        ):
            load_machine_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "machine.csv"
        path.write_text("")
        with refused(f"{path}: empty machine file"):
            load_machine_file(path)

    @pytest.mark.parametrize(
        "name, cell",
        [
            ("A\r0", '"A\r0"'),
            ("A\n0", '"A\n0"'),
            ("A\r\n0", '"A\r\n0"'),
            ('A,"0', '"A,""0"'),
            # Characters str.splitlines ends a line at, which CSV does not.
            *((f"A{c}0", f"A{c}0") for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        ],
    )
    def test_names_read_back_exactly(self, tmp_path, name, cell):
        path = tmp_path / "machine.csv"
        path.write_bytes(
            (MACHINE_CSV.splitlines()[0] + f"\n{cell},A,4,80,32,,\nB0,B,2,56,16,,\n").encode()
        )
        assert [core.name for core in load_machine_file(path)] == [name, "B0"]

    def test_a_row_is_named_by_the_line_it_starts_on(self, tmp_path):
        path = tmp_path / "machine.csv"
        path.write_bytes(
            (MACHINE_CSV.splitlines()[0] + '\n"A\n0",A,4,80,32,,\nX0,C,4,80,32,,\n').encode()
        )
        with refused(f"{path}:4: 'C' is not a valid CoreClass"):
            load_machine_file(path)

    def test_bad_class_rejected(self, tmp_path):
        path = tmp_path / "machine.csv"
        path.write_text(
            "name,core_class,issue_width,int_window,fp_window,int_fu_count,fp_fu_count\n"
            "X0,C,4,80,32,,\n"
        )
        with refused(f"{path}:2: 'C' is not a valid CoreClass"):
            load_machine_file(path)
