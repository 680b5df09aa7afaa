from __future__ import annotations

import csv
import gc
import io
import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_stream, workload_specs
from phasesim import (
    PHASE_CHANGE_KINDS,
    ConfigError,
    CoreClass,
    CoreSpec,
    DetectorConfig,
    ExperimentConfig,
    IntervalSample,
    Mode,
    PhaseDetector,
    PhaseEvent,
    PhaseEventKind,
    RunResult,
    ScatterRow,
    WorkloadSegment,
    WorkloadSpec,
    cli,
    detect_over_samples,
    experiment,
    fft_like,
    load_machine_file,
    load_summary,
    load_trace,
    overhead_report,
    run_experiment,
    save_trace,
    save_workload_spec,
    simulate_interval,
)
from phasesim.experiment import (
    _SCATTER_BLOCK,
    _SCATTER_PRIORITY,
    EVENT_COLUMNS,
    SCATTER_COLUMNS,
    _run_intervals,
    _write_events,
)
from phasesim.workload import csv_writers


def fft_config(**kwargs):
    defaults = dict(workload_preset="fft_like", fixed_tau=100_000)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def steady_config(**kwargs):
    defaults = dict(workload_preset="steady", fixed_tau=100_000)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def replay_rows(rows):
    """The samples a run's scatter rows describe, ready for detection."""
    return [
        IntervalSample(
            index=r.interval_index,
            start_cycle=r.start_cycle,
            tau=r.tau,
            retired_instructions=r.throughput_raw,
            util_int=r.utilization,
            util_fp=0.0,
        )
        for r in rows
    ]


def table(run: RunResult) -> list[tuple]:
    """A run's scatter rows but their ``event`` column: what a replay, which
    raises no tau or migration event, repeats."""
    return [row[:-1] for row in run.rows]


class TestSimulateFixed:
    def test_fft_run_shape(self):
        result = run_experiment(fft_config())
        assert len(result.rows) == 270
        assert result.summary["sample_count"] == 270
        assert result.summary["cycles_covered"] == 27_000_000
        assert result.summary["phase_count"] == 3
        assert result.summary["event_counts"]["throughput_change"] == 1

    def test_rows_are_contiguous(self):
        result = run_experiment(fft_config())
        for prev, cur in zip(result.rows, result.rows[1:]):
            assert cur.interval_index == prev.interval_index + 1
            assert cur.start_cycle == prev.start_cycle + prev.tau

    def test_summary_phase_means_match_rows(self):
        result = run_experiment(fft_config())
        for phase in result.summary["phases"]:
            mine = [r for r in result.rows if r.phase_id == phase["phase_id"]]
            assert phase["intervals"] == len(mine)
            assert phase["mean_throughput_per_cycle"] == pytest.approx(
                sum(r.throughput_per_cycle for r in mine) / len(mine)
            )
            assert phase["mean_utilization"] == pytest.approx(
                sum(r.utilization for r in mine) / len(mine)
            )

    def test_every_event_interval_is_annotated(self):
        result = run_experiment(fft_config(start_core="B0"))
        annotated = {r.interval_index for r in result.rows if r.event != "none"}
        for event in result.events:
            if getattr(event, "kind", None) is not None:
                if event.kind.value == "phase_recurred":
                    continue
            assert event.interval_index in annotated

    def test_migration_wins_the_annotation(self):
        result = run_experiment(fft_config(start_core="B0"))
        by_index = {r.interval_index: r for r in result.rows}
        for migration in result.migrations:
            assert by_index[migration.interval_index].event == "migration"

    def test_scheduler_disabled_never_migrates(self):
        result = run_experiment(
            fft_config(start_core="B0", scheduler_enabled=False)
        )
        assert result.migrations == []
        assert result.summary["migration_count"] == 0
        assert result.summary["scheduler_enabled"] is False

    def test_migration_penalty_costs_retirement(self):
        with_penalty = run_experiment(fft_config(start_core="B0"))
        free = run_experiment(
            fft_config(start_core="B0", migration_penalty=0)
        )
        assert [m.interval_index for m in with_penalty.migrations] == [
            m.interval_index for m in free.migrations
        ]
        first = with_penalty.migrations[0].interval_index
        hit = with_penalty.rows[first + 1]
        clean = free.rows[first + 1]
        assert hit.throughput_raw < clean.throughput_raw

    def test_short_workload_rejected(self, tmp_path):
        config = steady_config(preset_args={"total_cycles": 50_000})
        out = tmp_path / "run"
        with pytest.raises(ConfigError):
            run_experiment(config, out_dir=out)
        assert not out.exists()


class TestWrongTypesRefusedBeforeSetUp:
    """A library caller's value of the wrong type is a config error naming
    the field, raised before the output directory is made."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"seed": 1.5}, "seed must be an int, got 1.5"),
            ({"seed": True}, "seed must be an int, got True"),
            ({"fixed_tau": 100_000.5}, "fixed_tau must be an int, got 100000.5"),
            ({"migration_penalty": 10.0}, "migration_penalty must be an int, got 10.0"),
            ({"scheduler_enabled": 1}, "scheduler_enabled must be a bool, got 1"),
            (
                {"preset_args": {"total_cycles": 1_000_000.5}},
                "duration must be an int, got 1000000.5",
            ),
        ],
        ids=["float_seed", "bool_seed", "float_fixed_tau", "float_penalty",
             "int_scheduler_enabled", "float_segment_duration"],
    )
    def test_refused_naming_the_field(self, tmp_path, changes, message):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_experiment(steady_config(**changes), out_dir=out)
        assert not out.exists()


#: What each record needs besides the field under test.
_RECORD_BASE = {
    DetectorConfig: {},
    CoreSpec: {"name": "A0", "core_class": CoreClass.A, "issue_width": 4},
    WorkloadSegment: {"duration": 1000, "ipc_demand": 1.0},
    WorkloadSpec: {"name": "w", "segments": (WorkloadSegment(1000, 1.0),)},
}


class TestFieldRule:
    """Each config record holds its fields to their annotations: a value of
    another type is refused naming the field, by the record itself or, for
    an ExperimentConfig, by run_experiment before any output is made."""

    @pytest.mark.parametrize(
        "record, field, value, message",
        [
            (DetectorConfig, "util_window", 2.5, "util_window must be an int, got 2.5"),
            (DetectorConfig, "tau_min", 100_000.0, "tau_min must be an int, got 100000.0"),
            (DetectorConfig, "tau_max", 6_400_000.0, "tau_max must be an int, got 6400000.0"),
            (
                DetectorConfig, "recurrence_matching", "no",
                "recurrence_matching must be a bool, got 'no'",
            ),
            (DetectorConfig, "delta_th", "5", "delta_th must be a number, got '5'"),
            (CoreSpec, "issue_width", 4.5, "issue_width must be an int, got 4.5"),
            (CoreSpec, "name", 7, "name must be a string, got 7"),
            (CoreSpec, "core_class", "A", "core_class must be a CoreClass, got 'A'"),
            (CoreSpec, "int_fu_count", 2.0, "int_fu_count must be an int, got 2.0"),
            (WorkloadSegment, "ipc_demand", "2", "ipc_demand must be a number, got '2'"),
            (WorkloadSpec, "seed", 1.5, "seed must be an int, got 1.5"),
            (WorkloadSpec, "name", None, "name must be a string, got None"),
            (
                WorkloadSpec, "segments", ["x"],
                "segments must be a tuple of WorkloadSegment, got ['x']",
            ),
            (
                WorkloadSpec, "segments", [WorkloadSegment(1000, 1.0)],
                "segments must be a tuple of WorkloadSegment, got "
                "[WorkloadSegme...amplitude=0.0)]",
            ),
            (ExperimentConfig, "mode", "fixed_tau", "mode must be a Mode, got 'fixed_tau'"),
            (
                ExperimentConfig, "preset_args", {"demand": "2"},
                "ipc_demand must be a number, got '2'",
            ),
            (
                ExperimentConfig, "detector", {"delta_th": 5.0},
                "detector must be a DetectorConfig, got {'delta_th': 5.0}",
            ),
            (
                ExperimentConfig, "machine_cores", ["A0"],
                "machine_cores must be a list of CoreSpec, got ['A0']",
            ),
            (ExperimentConfig, "workload_preset", 7, "workload_preset must be a string, got 7"),
            (ExperimentConfig, "start_core", 7, "start_core must be a string, got 7"),
        ],
    )
    def test_wrong_type_is_refused_naming_the_field(
        self, tmp_path, record, field, value, message
    ):
        match = f"^{re.escape(message)}$"
        if record is ExperimentConfig:
            out = tmp_path / "run"
            with pytest.raises(ConfigError, match=match):
                run_experiment(steady_config(**{field: value}), out_dir=out)
            assert not out.exists()
        else:
            with pytest.raises(ValueError, match=match):
                record(**{**_RECORD_BASE[record], field: value})

    def test_an_int_in_a_float_field_is_held_as_a_float(self):
        config = DetectorConfig(delta_th=100)
        assert type(config.delta_th) is float
        assert config == DetectorConfig()

    def test_none_passes_where_the_annotation_allows_it(self):
        config = steady_config(mode=Mode.VARIABLE, fixed_tau=None, start_core=None)
        config.validate()
        assert config.fixed_tau is None


class TestSimulateVariable:
    def test_steady_ladder_counts(self):
        fixed = run_experiment(steady_config())
        variable = run_experiment(steady_config(mode=Mode.VARIABLE))
        assert fixed.summary["sample_count"] == 2000
        assert variable.summary["sample_count"] == 356
        assert variable.summary["event_counts"] == {"tau_doubled": 4}

    def test_doubling_is_stamped_on_the_triggering_interval(self):
        result = run_experiment(steady_config(mode=Mode.VARIABLE))
        doubled = [
            e.interval_index
            for e in result.events
            if getattr(e, "kind", None) is not None and e.kind.value == "tau_doubled"
        ]
        assert doubled == [75, 150, 225, 300]
        by_index = {r.interval_index: r for r in result.rows}
        for idx in doubled:
            assert by_index[idx].tau == by_index[idx + 1].tau // 2
            assert by_index[idx].event == "tau_doubled"
        annotated = [r for r in result.rows if r.event == "tau_doubled"]
        assert len(annotated) == len(doubled)

    def test_budget_is_tiled_exactly(self):
        result = run_experiment(steady_config(mode=Mode.VARIABLE))
        assert result.summary["cycles_covered"] == 200_000_000
        last = result.rows[-1]
        assert last.start_cycle + last.tau == 200_000_000

    def test_under_utilization_churn_pins_tau_to_the_floor(self):
        # Demand 1.0 parks a big core at 25% utilization, below the under
        # threshold, so every window ends the phase and no streak survives.
        # The scheduler is off; letting it move the process to a small core
        # would lift utilization back into the band.
        fixed = run_experiment(
            steady_config(preset_args={"demand": 1.0}, scheduler_enabled=False)
        )
        variable = run_experiment(
            steady_config(
                preset_args={"demand": 1.0},
                mode=Mode.VARIABLE,
                scheduler_enabled=False,
            )
        )
        assert fixed.summary["sample_count"] == 2000
        assert variable.summary["sample_count"] == 2000
        assert all(r.tau == 100_000 for r in variable.rows)

    def test_variable_never_needs_more_samples(self):
        for name in ("steady", "fft_like", "fmm_like"):
            fixed = run_experiment(
                ExperimentConfig(workload_preset=name, fixed_tau=100_000)
            )
            variable = run_experiment(
                ExperimentConfig(workload_preset=name, mode=Mode.VARIABLE)
            )
            assert (
                variable.summary["sample_count"] <= fixed.summary["sample_count"]
            )

    def test_fmm_pattern_recurs_when_pinned(self):
        # Pinned to one core the alternating pattern maps onto two phase ids
        # for the whole run. (With migrations enabled the utilization
        # signature moves with the core, so episodes on different core
        # classes intentionally stay distinct.)
        result = run_experiment(
            ExperimentConfig(
                workload_preset="fmm_like",
                fixed_tau=100_000,
                scheduler_enabled=False,
            )
        )
        assert result.summary["event_counts"].get("phase_recurred", 0) > 0
        assert result.summary["phase_count"] == 2


#: The controller's and the scheduler's events: only ``simulate`` runs them.
_SIMULATE_ONLY_KINDS = (
    PhaseEventKind.TAU_DOUBLED,
    PhaseEventKind.TAU_HALVED,
    PhaseEventKind.MIGRATION,
)


def detector_only(events: list[PhaseEvent]) -> list[PhaseEvent]:
    """``events`` without the controller's and the scheduler's."""
    return [e for e in events if e.kind not in _SIMULATE_ONLY_KINDS]


class TestDetectOverSamples:
    def test_replay_records_every_length_but_stamps_no_tau_event(self):
        # simulate stamps each doubling on the interval whose steady streak
        # triggered it; the replay runs no controller, so the new lengths
        # are only its tau column, from the interval after.
        sim = run_experiment(steady_config(mode=Mode.VARIABLE))
        doubled = [e.interval_index for e in sim.events]
        assert doubled == [75, 150, 225, 300]
        result = detect_over_samples(replay_rows(sim.rows), DetectorConfig())
        assert result.events == []
        taus = [row.tau for row in result.rows]
        assert taus == [row.tau for row in sim.rows]
        assert [i for i in range(1, len(taus)) if taus[i] == 2 * taus[i - 1]] == [
            76, 151, 226, 301
        ]
        assert result.summary["sample_count"] == 356
        assert result.summary["phase_count"] == 1

    @pytest.mark.parametrize(
        "taus",
        [
            # Doubling, then halving, on the tau_min * 2**k ladder:
            [100_000] * 3 + [200_000] * 3 + [100_000] * 2,
            [100_000] * 3 + [50_000],  # truncated tail below tau_min
            [300_000] * 3 + [600_000],  # neither length on the ladder
            [6_400_000] * 2 + [12_800_000],  # above tau_max
            # The previous length off the ladder, the new one on it:
            [50_000] + [100_000] * 2,  # below tau_min, then tau_min
            [12_800_000] + [6_400_000] * 2,  # above tau_max, then tau_max
        ],
        ids=["ladder", "truncated", "off_ladder", "above_tau_max", "to_tau_min", "to_tau_max"],
    )
    def test_detect_stamps_no_tau_event(self, taus):
        samples = build_stream([1.0] * len(taus), utils=0.5, tau=taus)
        result = detect_over_samples(samples, DetectorConfig())
        assert result.events == []
        assert [row.tau for row in result.rows] == taus
        assert result.summary["mode"] == "detect"

    @pytest.mark.parametrize(
        "config, tail",
        [
            # 100.5 intervals of 100k cycles: the last one is cut to 50k. Its
            # per-cycle throughput matches the phase.
            (
                steady_config(
                    preset_args={"total_cycles": 10_050_000},
                    detector=DetectorConfig(delta_th=20.0),
                ),
                50_000,
            ),
            # The controller doubles tau to 1.6M; the last interval is cut to
            # 800k, half of it and on the ladder.
            (
                steady_config(mode=Mode.VARIABLE, preset_args={"total_cycles": 199_800_000}),
                800_000,
            ),
        ],
        ids=["fixed", "variable"],
    )
    def test_truncated_tail_is_neither_a_phase_nor_a_tau_change(self, config, tail):
        sim = run_experiment(config)
        assert sim.rows[-1].tau == tail
        assert sim.summary["phase_count"] == 1
        assert detector_only(sim.events) == []
        assert all(e.interval_index < len(sim.rows) - 1 for e in sim.events)

        replay = detect_over_samples(replay_rows(sim.rows), config.detector)
        assert table(replay) == table(sim)
        assert replay.events == []

    def test_empty_stream_gives_an_empty_run(self):
        result = detect_over_samples([], DetectorConfig())
        assert result.rows == []
        assert result.summary["sample_count"] == 0
        assert result.summary["phase_count"] == 0


class TestReplayOfSimulatedSamples:
    """``detect_over_samples`` over the samples ``simulate`` drew repeats the
    run's scatter rows but their annotations, and every event but the
    controller's and the scheduler's."""

    @given(
        spec=workload_specs(),
        start=st.sampled_from(["A0", "B0"]),
        tau=st.sampled_from([None, 100_000, 150_000, 200_000]),  # None: variable
        steady_upper_bound=st.sampled_from([5, 75]),
        scheduler=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_replay_repeats_phases_and_events(
        self, tmp_path_factory, spec, start, tau, steady_upper_bound, scheduler
    ):
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        save_workload_spec(spec, path)
        config = ExperimentConfig(
            detector=DetectorConfig(steady_upper_bound=steady_upper_bound),
            workload_spec_path=path,
            mode=Mode.FIXED if tau else Mode.VARIABLE,
            fixed_tau=tau,
            start_core=start,
            scheduler_enabled=scheduler,
        )
        recorded = []

        def record(*args):
            sample = simulate_interval(*args)
            if sample is not None:
                recorded.append(sample)
            return sample

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "simulate_interval", record)
            simulated = run_experiment(config)
        replayed = detect_over_samples(recorded, config.detector)

        # Every row, the final one too, whatever its length.
        assert table(replayed) == table(simulated)
        assert replayed.events == detector_only(simulated.events)


class TestArtifacts:
    def test_files_and_headers(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(fft_config(), out_dir=out)
        scatter = (out / "scatter.csv").read_text().splitlines()
        events = (out / "events.csv").read_text().splitlines()
        assert scatter[0] == (
            "interval_index,start_cycle,tau,throughput_raw,"
            "throughput_per_cycle,utilization,phase_id,event"
        )
        assert events[0] == (
            "interval_index,kind,old_phase_id,new_phase_id,d_i,"
            "process,from_core,to_core"
        )
        assert len(scatter) == 271
        summary = load_summary(out)
        assert summary["sample_count"] == 270

    def test_runs_are_byte_deterministic(self, tmp_path):
        dirs = []
        for name in ("one", "two"):
            out = tmp_path / name
            run_experiment(fft_config(start_core="B0", seed=3), out_dir=out)
            dirs.append(out)
        for artifact in ("scatter.csv", "events.csv", "summary.json"):
            assert (dirs[0] / artifact).read_bytes() == (
                dirs[1] / artifact
            ).read_bytes()

    def test_migration_rows_carry_core_names(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(fft_config(start_core="B0"), out_dir=out)
        lines = (out / "events.csv").read_text().splitlines()
        migration_rows = [l for l in lines if ",migration," in l]
        assert len(migration_rows) == 2
        assert migration_rows[0].endswith("fft_like,B0,A0")
        assert migration_rows[1].endswith("fft_like,A0,B0")

    def test_events_csv_reads_back_with_a_carriage_return_in_the_label(self, tmp_path):
        # Under a "\n" line end the csv module leaves a "\r" bare, and a
        # reader would end the row there: the migration rows are quoted.
        spec = tmp_path / "spec.json"
        save_workload_spec(replace(fft_like(), name="fft\rlike"), spec)
        config = ExperimentConfig(
            workload_spec_path=spec, mode=Mode.VARIABLE, start_core="B0"
        )
        result = run_experiment(config, out_dir=tmp_path / "run")
        with open(tmp_path / "run" / "events.csv", encoding="utf-8", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == list(EVENT_COLUMNS)
        assert len(rows) == len(result.events) == 6
        assert all(len(row) == len(EVENT_COLUMNS) for row in rows)
        assert [row[5:] for row in rows if row[1] == "migration"] == [
            ["fft\rlike", "B0", "A0"],
            ["fft\rlike", "A0", "B0"],
        ]


#: Names a CSV writer has to quote, or that a line reader could split on,
#: drawn alongside arbitrary text.
AWKWARD_NAMES = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", "é", "A\r0", 'p,"\r\n']),
    st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\x00"), max_size=5),
)


@st.composite
def event_lists(draw) -> list[PhaseEvent]:
    """0-12 events of every kind, in any order: detector and tau events with
    any phase ids and deviation (and, rarely, names, which a library caller
    may give them), and migrations naming any process and two cores."""
    events = []
    for _ in range(draw(st.integers(0, 12))):
        index = draw(st.integers(0, 10**6))
        kind = draw(st.sampled_from(PhaseEventKind))
        if kind is PhaseEventKind.MIGRATION:
            from_core, to_core = draw(
                st.lists(AWKWARD_NAMES, min_size=2, max_size=2, unique=True)
            )
            reason = draw(st.sampled_from(
                [PhaseEventKind.OVER_UTILIZATION, PhaseEventKind.UNDER_UTILIZATION]
            ))
            events.append(PhaseEvent(
                index, kind, None, None, None, draw(AWKWARD_NAMES), from_core, to_core, reason
            ))
        else:
            names = draw(st.one_of(
                *[st.just((None, None, None))] * 3,
                st.tuples(*[st.one_of(st.none(), AWKWARD_NAMES)] * 3),
            ))
            events.append(PhaseEvent(
                index, kind, draw(st.integers(0, 99)), draw(st.integers(0, 99)),
                draw(st.one_of(st.none(), st.floats())), *names,
            ))
    return events


def row_by_row_events(events: list[PhaseEvent]) -> bytes:
    """events.csv as the csv module writes it one row at a time, a row with a
    "\\r" in any string under QUOTE_NONNUMERIC: the reference for the
    streamed writer."""
    buffer = io.StringIO()
    plain = csv.writer(buffer, lineterminator="\n")
    quoting = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    plain.writerow(EVENT_COLUMNS)
    for e in events:
        row = (e.interval_index, e.kind.value, e.old_phase_id, e.new_phase_id, e.d_i,
               e.process, e.from_core, e.to_core)
        carriage = any(type(value) is str and "\r" in value for value in row)
        (quoting if carriage else plain).writerow(row)
    return buffer.getvalue().encode("utf-8")


class TestEventsWriter:
    @given(events=event_lists(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_blocks_give_the_bytes_of_the_row_by_row_rule(self, tmp_path_factory, events, data):
        # The loop writes each block's events as the block ends: any split
        # of the list into blocks writes the file the rule writes.
        cuts = sorted(data.draw(st.lists(st.integers(0, len(events)), max_size=4)))
        path = tmp_path_factory.mktemp("events") / "events.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            plain, quoting = csv_writers(handle, EVENT_COLUMNS)
            for start, end in zip([0, *cuts], [*cuts, len(events)]):
                _write_events(events[start:end], plain, quoting)
        assert path.read_bytes() == row_by_row_events(events)


#: Names that round-trip through events.csv: an empty one reads back as None.
NAMES = AWKWARD_NAMES.filter(bool)
UTILIZATION_KINDS = [PhaseEventKind.OVER_UTILIZATION, PhaseEventKind.UNDER_UTILIZATION]
#: Deviations a row may hold. Runs never raise NaN (the detector's deviation
#: is finite or +inf), so none is drawn.
DEVIATIONS = st.one_of(
    st.none(), st.sampled_from([math.inf, -math.inf, -0.0, 0.0]), st.floats(allow_nan=False)
)


@st.composite
def event_runs(draw):
    """A stream of 1 to two blocks and one interval whose utilization swings
    at a few drawn intervals, near its ends and at a block edge (where a
    util_window of 1 raises utilization events, with recurrences), and the
    events a step adds there: 0-3 of any kind, with None or any phase ids and
    deviation, and names: always on a migration, rarely on another kind. A
    migration is drawn with the utilization kind that causes it (see
    ``adding_step``)."""
    edge = _SCATTER_BLOCK
    n = draw(st.sampled_from([1, 2, edge - 1, edge, edge + 1, 2 * edge + 1]))
    near = {0, 1, edge - 2, edge - 1, edge, edge + 1, n - 2, n - 1}
    indices = sorted(i for i in near if 0 <= i < n)
    utils = {i: draw(st.sampled_from([0.1, 0.6, 0.97])) for i in indices}
    samples = build_stream([1.5] * n, [utils.get(i, 0.6) for i in range(n)], tau=100)
    extra = {}
    for i in indices:
        events = []
        for kind in draw(st.lists(st.sampled_from(PhaseEventKind), max_size=3)):
            if kind is PhaseEventKind.MIGRATION:
                process = draw(NAMES)
                from_core, to_core = draw(st.lists(NAMES, min_size=2, max_size=2, unique=True))
                cause = draw(st.sampled_from(UTILIZATION_KINDS))
                events.append((kind, process, from_core, to_core, cause))
            else:
                names = draw(st.one_of(
                    *[st.just((None, None, None))] * 3,
                    st.tuples(*[st.one_of(st.none(), NAMES)] * 3),
                ))
                ids = draw(st.tuples(*[st.one_of(st.none(), st.integers(0, 10**6))] * 2))
                events.append((kind, *ids, draw(DEVIATIONS), *names))
        extra[i] = events
    return samples, extra


def adding_step(extra: dict, emitted: list):
    """A step that adds the events ``extra`` holds for each interval, as
    ``simulate``'s step adds the controller's and the scheduler's, and keeps
    in ``emitted`` every event of the interval. A migration follows its
    interval's first event, which must be a utilization event: drawn as its
    cause when the interval has none, skipped when the first is another."""

    def step(sample, phase_id, events):
        for kind, *values in extra.get(sample.index, []):
            if kind is not PhaseEventKind.MIGRATION:
                events.append(PhaseEvent(sample.index, kind, *values))
                continue
            *names, cause = values
            if not events:
                events.append(PhaseEvent(sample.index, cause, phase_id, phase_id, 0.0))
            if events[0].kind in UTILIZATION_KINDS:
                events.append(PhaseEvent(
                    sample.index, kind, None, None, None, *names, reason=events[0].kind
                ))
        emitted.extend(events)

    return step


def assert_read_back(result: RunResult, emitted: list[PhaseEvent]) -> None:
    """``result.events`` equals the events the loop wrote, value for value:
    repr tells -0.0 from 0.0 and an int from a float."""
    assert result.events == emitted
    assert [repr(event) for event in result.events] == [repr(event) for event in emitted]
    assert result.migrations == [e for e in emitted if e.kind is PhaseEventKind.MIGRATION]


class TestEventsReadBack:
    """``RunResult.events``, parsed from the run's rows at first read, equals
    the events the loop wrote, in memory and on disk."""

    @given(drawn=event_runs())
    @settings(max_examples=100, deadline=None)
    def test_events_read_back_as_written(self, tmp_path_factory, drawn):
        samples, extra = drawn
        config = DetectorConfig(util_window=1)
        header = {"label": "t", "mode": "detect", "seed": None}
        for out in (None, tmp_path_factory.mktemp("run") / "run"):
            emitted: list[PhaseEvent] = []
            result = _run_intervals(
                samples, PhaseDetector(config), adding_step(extra, emitted), header, out
            )
            assert_read_back(result, emitted)
            assert result.summary["event_counts"] == {
                kind.value: count
                for kind in PhaseEventKind
                if (count := sum(e.kind is kind for e in emitted))
            }

    def test_migrations_between_cores_named_in_a_machine_file(self, tmp_path):
        # Quoted core names that hold a comma, a quote, a line feed and a
        # carriage return load as they are, and each migration's names and
        # reason read back from events.csv.
        machine = tmp_path / "machine.csv"
        machine.write_bytes(
            b"name,core_class,issue_width,int_window,fp_window,int_fu_count,fp_fu_count\n"
            b'"A,\n""0",A,4,80,32,,\n"B\r0",B,2,56,16,,\n'
        )
        cores = load_machine_file(machine)
        assert [core.name for core in cores] == ['A,\n"0', "B\r0"]
        spec = tmp_path / "spec.json"
        save_workload_spec(replace(fft_like(), name='fft,"\r\nlike'), spec)
        config = ExperimentConfig(
            workload_spec_path=spec, mode=Mode.VARIABLE, machine_cores=cores, start_core="B\r0"
        )
        for out in (None, tmp_path / "run"):
            emitted: list[PhaseEvent] = []
            write = experiment._write_events

            def record(events, plain, quoting):
                emitted.extend(events)
                write(events, plain, quoting)

            with mock.patch.object(experiment, "_write_events", record):
                result = run_experiment(config, out)
            assert_read_back(result, emitted)
            assert [(m.process, m.from_core, m.to_core, m.reason) for m in result.migrations] == [
                ('fft,"\r\nlike', "B\r0", 'A,\n"0', PhaseEventKind.OVER_UTILIZATION),
                ('fft,"\r\nlike', 'A,\n"0', "B\r0", PhaseEventKind.UNDER_UTILIZATION),
            ]

    def test_a_migration_after_another_first_event_is_refused(self):
        # events.csv holds no reason: a migration's is its interval's first
        # event, which PhaseEvent requires to be a utilization event.
        moved = PhaseEvent(
            0, PhaseEventKind.MIGRATION, None, None, None, "p", "B0", "A0",
            PhaseEventKind.OVER_UTILIZATION,
        )
        extra = {0: [scatter_event(0, PhaseEventKind.TAU_DOUBLED), moved]}
        result = injected_run(build_stream([1.5], tau=100), DetectorConfig(), extra)
        with pytest.raises(ValueError, match="migrations are utilization-driven"):
            result.events


SCATTER_TOKENS = ["none", *(kind.value for kind in _SCATTER_PRIORITY)]
#: Utilizations a sample may hold: both ends, a signed zero, the smallest
#: subnormal, the float below 1.0, and any float between.
SCATTER_UTILS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, 1.0 - 2**-53]),
    st.floats(0.0, 1.0),
)


def scatter_event(index: int, kind: PhaseEventKind) -> PhaseEvent:
    """An event of ``kind`` at row ``index``, valid for its kind."""
    if kind is PhaseEventKind.MIGRATION:
        return PhaseEvent(
            index, kind, None, None, None, process="p", from_core="B0",
            to_core="A0", reason=PhaseEventKind.OVER_UTILIZATION,
        )
    return PhaseEvent(index, kind, 0, 0, 0.0)


@st.composite
def sample_streams(draw):
    """0-12 samples that tile the cycle axis from any first start: 64-bit
    counts (a tau of at least 1, up to 2**59 so that 12 of them still start
    within a 64-bit count), any utilization; a detector config whose
    thresholds and window make phase changes, recurrences and utilization
    events common; and 0-3 more events of any kind at each interval, in
    interval order as a step adds them."""
    samples = []
    start = draw(st.integers(0, 2**62))
    for index in range(draw(st.integers(0, 12))):
        tau = draw(st.one_of(st.integers(1, 1000), st.integers(1, 2**59)))
        raw = draw(st.one_of(st.integers(0, 1000), st.integers(0, 2**63 - 1)))
        samples.append(
            IntervalSample(index, start, tau, raw, draw(SCATTER_UTILS), draw(SCATTER_UTILS))
        )
        start += tau
    config = DetectorConfig(
        delta_th=draw(st.sampled_from([3.0, 100.0])),
        util_window=draw(st.integers(1, 3)),
        recurrence_matching=draw(st.booleans()),
    )
    extra = {
        sample.index: [
            scatter_event(sample.index, kind)
            for kind in draw(st.lists(st.sampled_from(PhaseEventKind), max_size=3))
        ]
        for sample in samples
    }
    return samples, config, extra


def csv_module_scatter(
    samples: list[IntervalSample], config: DetectorConfig, extra: dict | None = None
) -> bytes:
    """The scatter rows of a run over ``samples`` as the csv module writes
    them: the phase ids, utilizations and events from a detector of its
    own, plus the events ``extra`` holds for each interval index. The
    reference for the loop's format-string lines: a row's token is the
    first kind in ``_SCATTER_PRIORITY`` found among its events."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCATTER_COLUMNS)
    detector = PhaseDetector(config)
    for s in samples:
        phase_id, events = detector.observe(s)
        kinds = [e.kind for e in [*events, *(extra or {}).get(s.index, [])]]
        token = next((k.value for k in _SCATTER_PRIORITY if k in kinds), "none")
        writer.writerow(
            [s.index, s.start_cycle, s.tau, s.retired_instructions,
             s.retired_instructions / s.tau, detector.last_utilization, phase_id, token]
        )
    return buffer.getvalue().encode("utf-8")


def injected_run(
    samples: list[IntervalSample], config: DetectorConfig, extra: dict, out_dir=None
) -> RunResult:
    """The interval loop over ``samples`` with a step that adds, at each
    interval, the events ``extra`` holds for its index, as ``simulate``'s
    step adds the controller's and the scheduler's."""

    def step(sample, phase_id, events):
        events += extra.get(sample.index, [])

    header = {"label": "t", "mode": "detect", "seed": None}
    return _run_intervals(samples, PhaseDetector(config), step, header, out_dir)


def scatter_bytes(tmp_path, run) -> bytes:
    """The scatter ``run(out_dir)`` writes, checked equal in memory (an
    ``out_dir`` of None) and in the file written under ``tmp_path``."""
    in_memory = run(None).scatter.encode("utf-8")
    run(tmp_path / "run")
    assert (tmp_path / "run" / "scatter.csv").read_bytes() == in_memory
    return in_memory


class TestScatterWriter:
    @given(drawn=sample_streams())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_the_csv_module(self, tmp_path_factory, drawn):
        samples, config, extra = drawn
        scatter = scatter_bytes(
            tmp_path_factory.mktemp("detect"),
            lambda out: detect_over_samples(samples, config, out_dir=out),
        )
        assert scatter == csv_module_scatter(samples, config)
        scatter = scatter_bytes(
            tmp_path_factory.mktemp("injected"),
            lambda out: injected_run(samples, config, extra, out),
        )
        assert scatter == csv_module_scatter(samples, config, extra)

    @pytest.mark.parametrize("extra", [-1, 0, 1, _SCATTER_BLOCK + 3])
    def test_bytes_across_write_blocks(self, tmp_path, extra):
        n = _SCATTER_BLOCK + extra
        special = [-0.0, 5e-324, 1.0, 0.1, 0.0, 0.97, 0.5]
        kinds = list(PhaseEventKind)
        taus = [1 + 3**i % 2**40 for i in range(n)]
        starts = [7 + sum(taus[:i]) for i in range(n)]
        samples = [
            IntervalSample(i, starts[i], taus[i], 5**i % 2**63, special[i % len(special)], 0.0)
            for i in range(n)
        ]
        config = DetectorConfig()
        scatter = scatter_bytes(
            tmp_path / "detect", lambda out: detect_over_samples(samples, config, out_dir=out)
        )
        assert scatter == csv_module_scatter(samples, config)
        # Row i also holds i % 4 events, of kinds that rotate with i.
        events = {
            i: [scatter_event(i, kinds[(i + j) % len(kinds)]) for j in range(i % 4)]
            for i in range(n)
        }
        scatter = scatter_bytes(
            tmp_path / "injected", lambda out: injected_run(samples, config, events, out)
        )
        assert scatter == csv_module_scatter(samples, config, events)

    def test_rows_that_share_events_take_the_most_significant(self, tmp_path):
        samples = build_stream([0.5] * 3, tau=100)
        config = DetectorConfig()
        events = {
            0: [
                scatter_event(0, PhaseEventKind.OVER_UTILIZATION),
                scatter_event(0, PhaseEventKind.PHASE_RECURRED),
                scatter_event(0, PhaseEventKind.MIGRATION),
            ],
            1: [
                scatter_event(1, PhaseEventKind.THROUGHPUT_CHANGE),
                scatter_event(1, PhaseEventKind.PHASE_RECURRED),
            ],
        }
        scatter = scatter_bytes(tmp_path, lambda out: injected_run(samples, config, events, out))
        assert scatter == csv_module_scatter(samples, config, events)
        tokens = ["migration", "throughput_change", "none"]
        path = tmp_path / "run" / "scatter.csv"
        assert [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]] == tokens
        assert [row.event for row in injected_run(samples, config, events).rows] == tokens

    @pytest.mark.parametrize("token", SCATTER_TOKENS)
    def test_annotation_tokens_need_no_quoting(self, token):
        # The writer joins fields with commas and quotes nothing.
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([token, token])
        assert buffer.getvalue() == f"{token},{token}\n"


def scatter_csv_rows(path) -> list[ScatterRow]:
    """The rows of a written scatter.csv, parsed back to their types."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert tuple(next(reader)) == SCATTER_COLUMNS
        return [
            ScatterRow(int(i), int(s), int(t), int(r), float(p), float(u), int(ph), e)
            for i, s, t, r, p, u, ph, e in reader
        ]


def assert_behaves_as(rows, expected: list) -> None:
    """``rows`` reads, slices and compares as the list ``expected`` does."""
    assert len(rows) == len(expected)
    assert list(rows) == expected
    assert rows == expected and expected == rows
    assert not rows != expected
    assert rows != expected[:-1] and rows != [*expected, expected[0]]
    assert rows != tuple(expected)
    for index in (0, 1, len(expected) // 2, -1, -2, -len(expected)):
        assert rows[index] == expected[index]
    for bad in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            rows[bad]
    for part in (
        slice(1, None), slice(None, -1), slice(-7, -2), slice(None, None, -3),
        slice(5, 2), slice(2, 40, 7), slice(-10**9, 10**9),
    ):
        assert rows[part] == expected[part]
        assert type(rows[part]) is list
    assert list(reversed(rows)) == expected[::-1]
    assert expected[-1] in rows
    row = rows[-1]
    assert isinstance(row, ScatterRow)
    assert [type(getattr(row, name)) for name in SCATTER_COLUMNS] == [
        int, int, int, int, float, float, int, str
    ]
    assert row.interval_index == len(expected) - 1
    assert all(row.interval_index == i for i, row in enumerate(rows))


CONTRACT_RUNS = [
    pytest.param(preset, mode, scheduler, id=f"{preset}-{mode.value}-{label}")
    for preset in ("fft_like", "fmm_like")
    for mode in (Mode.FIXED, Mode.VARIABLE)
    for scheduler, label in ((True, "scheduled"), (False, "unscheduled"))
]


class TestRunRowsAreAListOfScatterRows:
    @pytest.mark.parametrize("preset, mode, scheduler", CONTRACT_RUNS)
    def test_rows_read_back_as_their_scatter_csv(self, tmp_path, preset, mode, scheduler):
        config = ExperimentConfig(
            workload_preset=preset,
            mode=mode,
            fixed_tau=100_000,
            start_core="B0",
            scheduler_enabled=scheduler,
        )
        result = run_experiment(config, out_dir=tmp_path / "sim")
        expected = scatter_csv_rows(tmp_path / "sim" / "scatter.csv")
        assert_behaves_as(result.rows, expected)
        assert result.rows == run_experiment(config).rows

        replay = detect_over_samples(
            replay_rows(result.rows), DetectorConfig(), out_dir=tmp_path / "replay"
        )
        replayed = scatter_csv_rows(tmp_path / "replay" / "scatter.csv")
        assert_behaves_as(replay.rows, replayed)
        assert [r.tau for r in replay.rows] == [r.tau for r in result.rows]

    def test_runs_that_differ_compare_unequal(self):
        scheduled = run_experiment(fft_config(start_core="B0"))
        unscheduled = run_experiment(fft_config(start_core="B0", scheduler_enabled=False))
        assert len(scheduled.rows) == len(unscheduled.rows)
        assert scheduled.rows != unscheduled.rows
        assert list(scheduled.rows) != list(unscheduled.rows)


def retained_bytes_per_interval(run) -> float:
    """Memory a finished run still holds, per scatter row, under tracemalloc."""
    run()  # first calls may fill caches; they are not the run's to keep
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(result.rows)


def churn_stream(n: int) -> list[IntervalSample]:
    """``n`` intervals whose throughput swings between two levels every 6
    intervals: under ``CHURN`` each swing is a phase change back to the
    other level's phase, with its recurrence note, so the phase table stays
    at two phases while the events grow with the run."""
    return build_stream([1.0 if i // 6 % 2 == 0 else 2.5 for i in range(n)])


CHURN = DetectorConfig(delta_th=50.0)


class TestRetainedMemory:
    """A run without an output directory keeps its scatter lines, one str of
    about 45 bytes per steady interval, and its event rows; a run that
    writes its artifacts keeps nothing that grows with the run, its events
    neither."""

    BUDGET = 64
    WRITTEN_BUDGET = 1

    def test_detect_over_a_steady_trace(self, tmp_path):
        path = tmp_path / "steady.csv"
        save_trace(build_stream([1.5] * 20_000), path)
        retained = retained_bytes_per_interval(
            lambda: detect_over_samples(load_trace(path), DetectorConfig())
        )
        assert retained <= self.BUDGET

    def test_simulate_steady(self):
        config = steady_config(preset_args={"total_cycles": 2_000_000_000})
        retained = retained_bytes_per_interval(lambda: run_experiment(config))
        assert retained <= self.BUDGET

    def test_detect_with_an_output_directory(self, tmp_path):
        path = tmp_path / "steady.csv"
        save_trace(build_stream([1.5] * 20_000), path)
        retained = retained_bytes_per_interval(
            lambda: detect_over_samples(load_trace(path), DetectorConfig(), out_dir=tmp_path / "run")
        )
        assert retained <= self.WRITTEN_BUDGET

    def test_simulate_with_an_output_directory(self, tmp_path):
        config = steady_config(preset_args={"total_cycles": 2_000_000_000})
        retained = retained_bytes_per_interval(lambda: run_experiment(config, tmp_path / "run"))
        assert retained <= self.WRITTEN_BUDGET

    def test_detect_over_a_churn_trace_with_an_output_directory(self, tmp_path):
        path = tmp_path / "churn.csv"
        save_trace(churn_stream(20_000), path)
        run = lambda: detect_over_samples(load_trace(path), CHURN, out_dir=tmp_path / "run")
        assert run().summary["event_counts"] == {"throughput_change": 3333, "phase_recurred": 3332}
        assert retained_bytes_per_interval(run) <= self.WRITTEN_BUDGET

    def test_simulate_with_migrations_and_an_output_directory(self, tmp_path):
        # Work that over-utilizes either core class, then work that
        # under-utilizes either, 500 intervals each: the process migrates at
        # each swing, and a utilization event every 5 intervals between,
        # with its recurrence note, adds to the events but not the phases.
        swing = (WorkloadSegment(50_000_000, 4.0, 0.5), WorkloadSegment(50_000_000, 0.3, 0.0))
        spec = tmp_path / "swing.json"
        save_workload_spec(WorkloadSpec("swing", swing * 20), spec)
        config = ExperimentConfig(workload_spec_path=spec, fixed_tau=100_000, start_core="B0")
        run = lambda: run_experiment(config, tmp_path / "run")
        summary = run().summary
        assert (summary["migration_count"], summary["phase_count"]) == (40, 21)
        assert sum(summary["event_counts"].values()) > 7_000
        assert retained_bytes_per_interval(run) <= self.WRITTEN_BUDGET


class TestStreamedTraceMemory:
    """simulate --emit-trace writes each sample as it is simulated, so the
    trace adds nothing that grows with the run to its peak memory: over
    20 000 intervals it stays within a quarter MiB of the same run without
    the flag (a list of their samples alone takes several MiB)."""

    BUDGET = 1 << 18

    def test_emit_trace_keeps_no_samples(self, tmp_path, capsys):
        config = tmp_path / "steady.conf"
        config.write_text(
            f"workload.preset = steady\nworkload.cycles = {20_000 * 100_000}\n"
            "mode = fixed_tau\nfixed_tau = 100000\n"
        )
        run = ["simulate", "--config", str(config), "--out", str(tmp_path / "run")]
        traced = [*run, "--emit-trace", str(tmp_path / "steady.csv")]
        peaks = []
        for argv in (run, traced, run, traced):  # first calls may fill caches
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert "samples=20000 " in capsys.readouterr().out
        assert len((tmp_path / "steady.csv").read_text().splitlines()) == 20_001
        assert peaks[3] - peaks[2] < self.BUDGET


class TestStreamedEventsMemory:
    """A run writes each block's events with its lines as the block ends and
    keeps none, so its peak does not grow with its events: doubling a churn
    stream (one phase change in 6 intervals) raises the peak of a detect with
    an output directory by less than one block's worth, its 512 lines, their
    joined text and its events. A list of every event would add about 0.5
    MiB here."""

    BUDGET = 1 << 17

    def test_peak_does_not_grow_with_the_events(self, tmp_path):
        for n in (10_000, 20_000):
            save_trace(churn_stream(n), tmp_path / f"churn{n}.csv")

        def peak(n: int) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                detect_over_samples(
                    load_trace(tmp_path / f"churn{n}.csv"), CHURN, out_dir=tmp_path / "run"
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        detect_over_samples(churn_stream(10), CHURN, out_dir=tmp_path / "run")  # fills caches
        assert peak(20_000) - peak(10_000) < self.BUDGET


class TestOverheadReport:
    def test_self_comparison_is_ratio_one(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(steady_config(), out_dir=out)
        report = overhead_report(out, out)
        assert report["ratio"] == 1.0

    def test_fixed_versus_variable(self, tmp_path):
        fixed_dir = tmp_path / "fixed"
        variable_dir = tmp_path / "variable"
        run_experiment(steady_config(), out_dir=fixed_dir)
        run_experiment(steady_config(mode=Mode.VARIABLE), out_dir=variable_dir)
        report = overhead_report(fixed_dir, variable_dir)
        assert report["fixed"]["sample_count"] == 2000
        assert report["variable"]["sample_count"] == 356
        assert report["ratio"] == pytest.approx(2000 / 356)

    def test_mismatched_budgets_rejected(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(steady_config(), out_dir=a)
        run_experiment(
            steady_config(preset_args={"total_cycles": 100_000_000}), out_dir=b
        )
        with pytest.raises(ConfigError):
            overhead_report(a, b)
