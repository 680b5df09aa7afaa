"""Metamorphic invariants: relations between two runs that need no oracle.

Each test runs a workload twice, changing one thing that should not matter,
and compares the artifacts of the two runs.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import workload_specs
from phasesim import (
    DetectorConfig,
    ExperimentConfig,
    Mode,
    RunResult,
    WorkloadSegment,
    WorkloadSpec,
    default_machine,
    preset,
    run_experiment,
    save_workload_spec,
)
from phasesim.experiment import EVENT_COLUMNS, SCATTER_COLUMNS

ORIGINAL_NAMES = [core.name for core in default_machine()]
CORE_COLUMNS = [EVENT_COLUMNS.index("from_core"), EVENT_COLUMNS.index("to_core")]

# Four distinct names, printable so that every CSV field stays one line.
NEW_NAMES = st.lists(
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=8),
    min_size=4,
    max_size=4,
    unique=True,
)


def simulate(out: Path, preset: str, mode: Mode, names: list[str]) -> None:
    """Simulate ``preset`` into ``out`` with the scheduler on, on the default
    machine with its cores called ``names``, starting on B0 under its name."""
    config = ExperimentConfig(
        machine_cores=[
            replace(core, name=name) for name, core in zip(names, default_machine())
        ],
        workload_preset=preset,
        mode=mode,
        fixed_tau=100_000 if mode is Mode.FIXED else None,
        start_core=names[ORIGINAL_NAMES.index("B0")],
        scheduler_enabled=True,
    )
    run_experiment(config, out)


def event_rows(run: Path, back: dict[str, str]) -> list[list[str]]:
    """``events.csv`` of ``run`` with each core column mapped through ``back``."""
    with open(run / "events.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    for row in rows[1:]:
        for column in CORE_COLUMNS:
            row[column] = back.get(row[column], row[column])
    return rows


class TestRenamingCores:
    """Renaming every core, start core included, changes only the names."""

    @pytest.mark.parametrize("mode", [Mode.FIXED, Mode.VARIABLE], ids=lambda m: m.value)
    @pytest.mark.parametrize("preset", ["fft_like", "fmm_like"])
    @given(names=NEW_NAMES)
    @settings(max_examples=10, deadline=None)
    def test_renamed_machine_gives_the_same_run(
        self, tmp_path_factory, preset, mode, names
    ):
        original = tmp_path_factory.mktemp("original")
        renamed = tmp_path_factory.mktemp("renamed")
        simulate(original, preset, mode, ORIGINAL_NAMES)
        simulate(renamed, preset, mode, names)
        back = dict(zip(names, ORIGINAL_NAMES))

        assert (renamed / "scatter.csv").read_bytes() == (
            original / "scatter.csv"
        ).read_bytes()

        events = event_rows(renamed, back)
        assert events == event_rows(original, {})
        # The scheduler moved the process, so the names were in the file.
        assert any(row[1] == "migration" for row in events[1:])

        summary = json.loads((renamed / "summary.json").read_bytes())
        summary["start_core"] = back[summary["start_core"]]
        assert summary == json.loads((original / "summary.json").read_bytes())


SPECS = {
    "steady": preset("steady"),
    "steady_noisy": preset("steady", noise=0.05),
    "fft_like": preset("fft_like"),
    "fmm_like": preset("fmm_like"),
}
PHASE_ID = SCATTER_COLUMNS.index("phase_id")
# Everything of an event but d_i, which is a throughput and so not scale-free.
EVENT_KEY = [
    EVENT_COLUMNS.index(name)
    for name in ("interval_index", "kind", "old_phase_id", "new_phase_id", "to_core")
]


def simulate_scaled(
    out: Path, spec: WorkloadSpec, scale: int, mode: Mode, start: str, scheduler: bool
) -> tuple[list[str], list[list[str]]]:
    """Simulate ``spec`` with every segment and every cycle count of the
    config multiplied by ``scale``; return the per-interval phase ids and the
    events without d_i."""
    out.mkdir()
    scaled = WorkloadSpec(
        spec.name,
        tuple(replace(s, duration=s.duration * scale) for s in spec.segments),
        spec.seed,
    )
    save_workload_spec(scaled, out / "spec.json")
    defaults = DetectorConfig()
    config = ExperimentConfig(
        detector=replace(
            defaults,
            tau_min=defaults.tau_min * scale,
            tau_max=defaults.tau_max * scale,
        ),
        workload_spec_path=out / "spec.json",
        mode=mode,
        fixed_tau=100_000 * scale if mode is Mode.FIXED else None,
        start_core=start,
        scheduler_enabled=scheduler,
        migration_penalty=ExperimentConfig().migration_penalty * scale,
    )
    run_experiment(config, out / "run")
    with open(out / "run" / "scatter.csv", encoding="utf-8", newline="") as handle:
        phase_ids = [row[PHASE_ID] for row in list(csv.reader(handle))[1:]]
    with open(out / "run" / "events.csv", encoding="utf-8", newline="") as handle:
        events = [[row[i] for i in EVENT_KEY] for row in list(csv.reader(handle))[1:]]
    return phase_ids, events


class TestScalingTime:
    """Doubling every cycle count (segments, tau bounds, fixed tau and the
    migration penalty) doubles each interval and leaves the phases alone."""

    @pytest.mark.parametrize("scheduler", [True, False], ids=["sched", "nosched"])
    @pytest.mark.parametrize("start", ["A0", "B0"])
    @pytest.mark.parametrize("mode", [Mode.FIXED, Mode.VARIABLE], ids=lambda m: m.value)
    @pytest.mark.parametrize("workload", sorted(SPECS))
    def test_doubled_cycles_give_the_same_phases_and_events(
        self, tmp_path, workload, mode, start, scheduler
    ):
        spec = SPECS[workload]
        original = simulate_scaled(tmp_path / "x1", spec, 1, mode, start, scheduler)
        doubled = simulate_scaled(tmp_path / "x2", spec, 2, mode, start, scheduler)
        assert doubled == original


def simulate_spec(
    directory: Path, spec: WorkloadSpec, mode: Mode, start: str, scheduler: bool
) -> RunResult:
    """Simulate ``spec`` in memory, its spec file kept in ``directory``."""
    save_workload_spec(spec, directory / "spec.json")
    config = ExperimentConfig(
        workload_spec_path=directory / "spec.json",
        mode=mode,
        fixed_tau=100_000 if mode is Mode.FIXED else None,
        start_core=start,
        scheduler_enabled=scheduler,
    )
    return run_experiment(config)


def decisions(run: RunResult) -> tuple:
    """Every verdict of a run: its phase ids and interval lengths, and each
    event without d_i."""
    events = [
        (e.interval_index, e.kind, e.old_phase_id, e.new_phase_id, e.to_core)
        for e in run.events
    ]
    return [row.phase_id for row in run.rows], [row.tau for row in run.rows], events


def assert_split_matches_whole(split_run: RunResult, whole: RunResult, cut: int) -> None:
    """``split_run``, of a spec cut in two at cycle ``cut``, makes ``whole``'s
    decisions. Retired counts are equal, save on the interval that holds the
    cut, where they may differ by exactly 1; utilizations agree to a relative
    error of 16 machine epsilons."""
    assert decisions(split_run) == decisions(whole)
    for split_row, row in zip(split_run.rows, whole.rows, strict=True):
        if row.start_cycle < cut < row.start_cycle + row.tau:
            assert abs(split_row.throughput_raw - row.throughput_raw) <= 1
        else:
            assert split_row.throughput_raw == row.throughput_raw
        assert math.isclose(
            split_row.utilization, row.utilization,
            rel_tol=16 * sys.float_info.epsilon, abs_tol=0.0,
        )


class TestSplittingASegment:
    """Cutting one segment in two with the same demand, fp share and noise
    changes no decision.

    The bytes may change: an interval that spans the cut sums its demand,
    fp and noise cycles over two spans instead of one, so its utilization
    can round differently in the last bits. Rounding a retired count to an
    integer hides that, except at an exact tie: a product ``ipc * live`` of
    ``x.5`` in one sum and a last bit above it in the other rounds to two
    counts 1 apart. So the decisions are compared exactly, the retired
    counts exactly but on the interval that holds the cut, where they may
    differ by 1, and the utilizations to a relative error of 16 machine
    epsilons.
    """

    @given(
        spec=workload_specs(),
        data=st.data(),
        mode=st.sampled_from([Mode.FIXED, Mode.VARIABLE]),
        start=st.sampled_from(["A0", "B0"]),
        scheduler=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_segment_gives_the_same_decisions(
        self, tmp_path_factory, spec, data, mode, start, scheduler
    ):
        at = data.draw(st.integers(0, len(spec.segments) - 1), label="segment")
        segment = spec.segments[at]
        head = data.draw(st.integers(1, segment.duration - 1), label="cut")
        halves = (
            replace(segment, duration=head),
            replace(segment, duration=segment.duration - head),
        )
        split = replace(spec, segments=spec.segments[:at] + halves + spec.segments[at + 1 :])

        whole = simulate_spec(tmp_path_factory.mktemp("whole"), spec, mode, start, scheduler)
        split_run = simulate_spec(tmp_path_factory.mktemp("split"), split, mode, start, scheduler)
        cut = sum(s.duration for s in spec.segments[:at]) + head
        assert_split_matches_whole(split_run, whole, cut)

    def test_a_rounding_tie_moves_the_count_at_the_cut_by_one(self, tmp_path_factory):
        # The interval at cycles 6 700 000-6 800 000 retires 224 234.5
        # instructions in one sum and 224 234.50000000003 in the other.
        ahead = (
            WorkloadSegment(100_000, 1.6),
            WorkloadSegment(100_000, 1.6),
            WorkloadSegment(6_541_605, 1.6),
        )
        last = WorkloadSegment(100_000, 2.7, 0.5)
        spec = WorkloadSpec("tie", (*ahead, last))
        split = WorkloadSpec(
            "tie", (*ahead, replace(last, duration=203), replace(last, duration=99_797))
        )
        whole = simulate_spec(tmp_path_factory.mktemp("whole"), spec, Mode.FIXED, "A0", False)
        split_run = simulate_spec(
            tmp_path_factory.mktemp("split"), split, Mode.FIXED, "A0", False
        )
        assert_split_matches_whole(split_run, whole, cut=6_741_605 + 203)
        assert whole.rows[67].start_cycle == 6_700_000
        assert (whole.rows[67].throughput_raw, split_run.rows[67].throughput_raw) == (
            224_234, 224_235
        )
