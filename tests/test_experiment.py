from __future__ import annotations

import csv
import gc
import io
import math
import re
import tracemalloc
from array import array
from dataclasses import replace

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
    PhaseEvent,
    PhaseEventKind,
    RunResult,
    ScatterRow,
    WorkloadSegment,
    WorkloadSpec,
    cli,
    detect_over_samples,
    emit_events_csv,
    emit_scatter_csv,
    experiment,
    fft_like,
    load_summary,
    load_trace,
    overhead_report,
    run_experiment,
    save_trace,
    save_workload_spec,
    simulate_interval,
    write_artifacts,
)
from phasesim.experiment import (
    _SCATTER_BLOCK,
    _SCATTER_PRIORITY,
    EVENT_COLUMNS,
    SCATTER_COLUMNS,
    ScatterTable,
)


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
        taus = result.table.tau
        assert taus == sim.table.tau
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
        assert list(result.table.tau) == taus
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
        assert replay.table == sim.table
        assert replay.events == []

    def test_empty_stream_gives_an_empty_run(self):
        result = detect_over_samples([], DetectorConfig())
        assert result.rows == []
        assert result.summary["sample_count"] == 0
        assert result.summary["phase_count"] == 0

    @pytest.mark.parametrize(
        "heads, message",
        [
            ([(0, 0), (2, 500)], "out-of-order sample: got index 2, expected 1"),
            ([(1, 0)], "out-of-order sample: got index 1, expected 0"),
            ([(0, 0), (1, 1000)], "start_cycle 1000 leaves a gap (expected 500)"),
            ([(0, 0), (1, 499)], "start_cycle 499 leaves a gap (expected 500)"),
        ],
        ids=["skip", "first_not_zero", "gap", "overlap"],
    )
    def test_in_memory_samples_out_of_order_are_refused(self, heads, message):
        # Each sample is (index, start_cycle) on a stream of 500-cycle intervals.
        samples = build_stream([0.5] * len(heads), tau=500)
        moved = [replace(s, index=i, start_cycle=c) for s, (i, c) in zip(samples, heads)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            detect_over_samples(moved, DetectorConfig())


class TestReplayOfSimulatedSamples:
    """``detect_over_samples`` over the samples ``simulate`` drew repeats the
    run's table and every event but the controller's and the scheduler's."""

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
        assert replayed.table == simulated.table
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
    @given(events=event_lists())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_row_by_row_rule(self, tmp_path_factory, events):
        path = tmp_path_factory.mktemp("events") / "events.csv"
        emit_events_csv(events, path)
        assert path.read_bytes() == row_by_row_events(events)


SCATTER_TOKENS = ["none", *(kind.value for kind in _SCATTER_PRIORITY)]
INT64 = st.integers(-(2**63), 2**63 - 1)
SCATTER_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e22, 1e16, 0.1, math.inf, -math.inf, math.nan]),
)


def scatter_table(starts, taus, raws, utilizations, phase_ids) -> ScatterTable:
    """A table holding the given columns, in ``ScatterTable`` field order."""
    return ScatterTable(
        array("q", starts), array("q", taus), array("q", raws),
        array("d", utilizations), array("q", phase_ids),
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
def scatter_tables(draw):
    """A table of 0-12 rows: any 64-bit counts (a tau of at least 1, as a
    sample's), any double as the utilization; and 0-3 events of any kind at
    each row, in row order as a run emits them."""
    n = draw(st.integers(0, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    table = scatter_table(
        column(INT64),
        column(st.integers(1, 2**63 - 1)),
        column(INT64),
        column(SCATTER_FLOATS),
        column(INT64),
    )
    events = [
        scatter_event(index, kind)
        for index in range(n)
        for kind in draw(st.lists(st.sampled_from(PhaseEventKind), max_size=3))
    ]
    return table, events


def csv_module_scatter(table: ScatterTable, events: list[PhaseEvent]) -> bytes:
    """The scatter rows as the csv module writes them from the columns and
    the events: the reference for the format-string writer. A row's token is
    the first kind in ``_SCATTER_PRIORITY`` found among its events."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCATTER_COLUMNS)
    starts, taus, raws, utilizations, phase_ids = table
    for i in range(len(taus)):
        kinds = [e.kind for e in events if e.interval_index == i]
        token = next((k.value for k in _SCATTER_PRIORITY if k in kinds), "none")
        writer.writerow(
            [i, starts[i], taus[i], raws[i], raws[i] / taus[i], utilizations[i],
             phase_ids[i], token]
        )
    return buffer.getvalue().encode("utf-8")


class TestScatterWriter:
    @given(drawn=scatter_tables())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_the_csv_module(self, tmp_path_factory, drawn):
        path = tmp_path_factory.mktemp("scatter") / "scatter.csv"
        emit_scatter_csv(*drawn, path)
        assert path.read_bytes() == csv_module_scatter(*drawn)

    @pytest.mark.parametrize("extra", [-1, 0, 1, _SCATTER_BLOCK + 3])
    def test_bytes_across_write_blocks(self, tmp_path, extra):
        n = _SCATTER_BLOCK + extra
        special = [-0.0, 5e-324, 1e22, 0.1, math.inf, -math.inf, math.nan]
        kinds = list(PhaseEventKind)
        table = scatter_table(
            [7**i % 2**63 for i in range(n)],
            [1 + 3**i % 2**40 for i in range(n)],
            [-(5**i % 2**63) for i in range(n)],
            [special[i % len(special)] for i in range(n)],
            [i // 5 for i in range(n)],
        )
        # Row i holds i % 4 events, of kinds that rotate with i.
        events = [
            scatter_event(i, kinds[(i + j) % len(kinds)])
            for i in range(n)
            for j in range(i % 4)
        ]
        path = tmp_path / "scatter.csv"
        emit_scatter_csv(table, events, path)
        assert path.read_bytes() == csv_module_scatter(table, events)

    def test_rows_that_share_events_take_the_most_significant(self, tmp_path):
        table = scatter_table([0, 100, 200], [100] * 3, [50] * 3, [0.5] * 3, [0, 1, 2])
        events = [
            scatter_event(0, PhaseEventKind.OVER_UTILIZATION),
            scatter_event(0, PhaseEventKind.PHASE_RECURRED),
            scatter_event(0, PhaseEventKind.MIGRATION),
            scatter_event(1, PhaseEventKind.THROUGHPUT_CHANGE),
            scatter_event(1, PhaseEventKind.PHASE_RECURRED),
        ]
        path = tmp_path / "scatter.csv"
        emit_scatter_csv(table, events, path)
        assert path.read_bytes() == csv_module_scatter(table, events)
        tokens = ["migration", "throughput_change", "none"]
        assert [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]] == tokens
        assert [row.event for row in RunResult(table, events, {}).rows] == tokens

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

        replay = detect_over_samples(replay_rows(result.rows), DetectorConfig())
        write_artifacts(replay, tmp_path / "replay")
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


class TestRetainedMemory:
    """A run keeps its rows as columns: 5 eight-byte fields per interval,
    plus the arrays' over-allocation."""

    BUDGET = 64

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
