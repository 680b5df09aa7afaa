"""Differential tests of the per-interval hot path against reference loops.

``PhaseDetector.observe`` and ``simulate_interval`` inline their arithmetic
for speed. Each is checked against a model in ``tests/reference_model.py``
written from the README's description: the detector against
``ReferenceDetector``, the core model against ``blended_interval``, which
walks the segment list itself. The summary ``detect_over_samples`` builds in
its interval loop is checked against ``summary_phases``, which sums each
phase's rows on its own in row order.
Results must be equal, not close: the artifacts are byte-identical only if
every float rounds the same way.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_stream
from phasesim import (
    DetectorConfig,
    IntervalSample,
    PhaseDetector,
    SegmentCursor,
    WorkloadSegment,
    a_core,
    b_core,
    detect_over_samples,
    simulate_interval,
)
from reference_model import ReferenceDetector, blended_interval


def assert_matches_reference(config: DetectorConfig, samples) -> None:
    detector = PhaseDetector(config)
    reference = ReferenceDetector(config)
    for sample in samples:
        assert detector.observe(sample) == reference.observe(sample)
        assert repr(detector.last_delta) == repr(reference.last_delta)
        assert repr(detector.phases) == repr(reference.phases)
        assert list(detector._closed.values()) == [
            reference.phases[i] for i in reference.closed
        ]
        assert detector.current_phase_id == reference.current


# (delta_under, delta_over) pairs; utilizations are drawn from a palette that
# holds both bounds exactly, so "at the bound" (never a trip) gets exercised.
UTIL_BOUNDS = [(0.30, 0.95), (0.4, 0.5), (0.0, 1.0), (0.25, 0.75)]
# Per-cycle throughput levels: idle, near-equal pairs and large jumps.
LEVELS = [0.0, 0.5, 1.0, 1.04, 1.5, 2.5, 4.0]
TAUS = [1_000, 2_000, 4_000]


@st.composite
def detector_runs(draw):
    under, over = draw(st.sampled_from(UTIL_BOUNDS))
    config = DetectorConfig(
        delta_th=draw(st.sampled_from([3.0, 20.0, 100.0])),
        delta_over=over,
        delta_under=under,
        util_window=draw(st.integers(1, 4)),
        recurrence_matching=draw(st.booleans()),
    )
    util = st.one_of(
        st.sampled_from([0.0, -0.0, under, over, 1.0, (under + over) / 2]),
        st.floats(0.0, 1.0),
    )
    samples = []
    start = 0
    for index in range(draw(st.integers(1, 60))):
        tau = draw(st.sampled_from(TAUS))
        level = draw(st.sampled_from(LEVELS))
        retired = int(level * tau) + draw(st.integers(0, 30)) * (level > 0)
        samples.append(
            IntervalSample(index, start, tau, retired, draw(util), draw(util), "A0")
        )
        start += tau
    return config, samples


class TestDetectorMatchesReference:
    @given(detector_runs())
    @settings(max_examples=200, deadline=None)
    def test_random_streams(self, run):
        config, samples = run
        assert_matches_reference(config, samples)

    @pytest.mark.parametrize("bound", ["delta_over", "delta_under"])
    @pytest.mark.parametrize("window", [1, 5])
    def test_utilization_exactly_at_a_bound_never_trips(self, bound, window):
        config = DetectorConfig(util_window=window)
        at = getattr(config, bound)
        samples = build_stream([1.0] * 12, utils=[at] * 12)
        assert_matches_reference(config, samples)
        detector = PhaseDetector(config)
        assert all(detector.observe(s)[1] == [] for s in samples)

    @pytest.mark.parametrize("recurrence", [True, False])
    def test_window_of_one_trips_on_every_out_of_band_interval(self, recurrence):
        config = DetectorConfig(util_window=1, recurrence_matching=recurrence)
        utils = [0.6, 0.97, 0.97, 0.1, 0.6, 0.97, 0.1, 0.1]
        assert_matches_reference(config, build_stream([1.0] * len(utils), utils=utils))

    @pytest.mark.parametrize("recurrence", [True, False])
    def test_zero_throughput_phases_recur(self, recurrence):
        config = DetectorConfig(recurrence_matching=recurrence)
        ths = [0.0] * 4 + [1.0] * 4 + [0.0] * 4 + [2.5] * 3 + [0.0] * 3 + [1.0] * 2
        assert_matches_reference(config, build_stream(ths))


# Signed zeros are included on purpose: a sum over one span is ``0 + term``,
# which turns a -0.0 term into 0.0. Demands of 1.0, 2.0 and 4.0 equal an issue
# width or a unit count of the A and B cores, and fp_fraction 1.0 puts all of
# the demand on the fp units, so the width clip and the unit caps meet ties.
segments = st.builds(
    WorkloadSegment,
    duration=st.integers(1, 400),
    ipc_demand=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 4.0]), st.floats(0.0, 6.0)
    ),
    fp_fraction=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)),
    noise_amplitude=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 0.9)),
)


# Segments for the memo's edge cases: two of one duration and different
# demands, so a blend kept past a segment end shows in the next segment, and
# a long one for runs of hits.
FIRST = WorkloadSegment(300, 1.5, 0.25, 0.1)
SECOND = WorkloadSegment(300, 3.0, 0.5, 0.2)
LONG = WorkloadSegment(2000, 2.7, 0.5, 0.1)


class TestSimulateIntervalMatchesSpanFormulas:
    @given(
        segs=st.lists(segments, min_size=1, max_size=5),
        taus=st.lists(st.integers(1, 300), min_size=1, max_size=8),
        # None stands for the interval's own length, which leaves no live cycle.
        dead=st.lists(
            st.one_of(st.sampled_from([None, 0]), st.integers(0, 400)),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
        # The core of each step, A when True: a migration switches it mid-run.
        strong=st.lists(st.booleans(), min_size=1, max_size=4),
    )
    # Noise-free demand exactly at the A core's width and int units, at its
    # two fp units and at the B core's one fp unit; then a fully dead interval.
    @example([WorkloadSegment(300, 4.0)], [100], [0, None], 0, [True])
    @example([WorkloadSegment(300, 2.0, 1.0)], [100], [0, None], 0, [True])
    @example([WorkloadSegment(300, 1.0, 1.0)], [100], [0, None], 0, [False])
    # The memo (see SegmentCursor): a run of equal taus in one long segment;
    # the same tau crossing into a segment of the same duration; an interval
    # ending exactly at a segment end, then the same tau; dead cycles in the
    # middle of a run of hits, then a shorter tau in the same segment, whose
    # blend rounds apart from the memo's (3 * 2.7 / 3 is not 2.7).
    @example([LONG], [100], [0], 1, [True, False])
    @example([FIRST, SECOND], [70], [0], 2, [True])
    @example([FIRST, SECOND], [100], [0], 3, [False])
    @example([LONG], [100] * 5 + [3], [0, 0, 30, 0], 4, [True])
    @settings(max_examples=300, deadline=None)
    def test_every_interval_equals_the_blend(self, segs, taus, dead, seed, strong):
        cores = [a_core("A0") if is_strong else b_core("B0") for is_strong in strong]
        cursor = SegmentCursor(segs)
        rng, twin_rng = random.Random(seed), random.Random(seed)
        index = start = 0
        for step in range(10_000):
            tau, dead_cycles = taus[step % len(taus)], dead[step % len(dead)]
            core = cores[step % len(cores)]
            if dead_cycles is None:
                dead_cycles = min(tau, cursor.total_cycles - start)
            sample = simulate_interval(core, cursor, tau, rng, dead_cycles=dead_cycles)
            expected = blended_interval(
                core, segs, index, start, tau, twin_rng, dead_cycles
            )
            # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not.
            assert repr(sample) == repr(expected)
            if sample is None:
                break
            index, start = index + 1, start + sample.tau
            assert (cursor.position, cursor.next_index) == (start, index)
        assert start == cursor.total_cycles == sum(s.duration for s in segs)
        assert rng.random() == twin_rng.random()


def phase_rows(samples, config: DetectorConfig) -> list[tuple]:
    """Each sample's (phase id, retired count, tau, utilization), the phase
    id and the utilization as a detector of its own gives them."""
    detector = PhaseDetector(config)
    rows = []
    for sample in samples:
        phase_id, _ = detector.observe(sample)
        rows.append((phase_id, sample.retired_instructions, sample.tau, detector.last_utilization))
    return rows


def summary_phases(rows: list[tuple]) -> list[dict]:
    """The summary's per-phase block, one phase at a time: each phase's rows
    picked out in row order and summed from 0.0."""
    phases = []
    for pid in sorted({row[0] for row in rows}):
        count, raw_sum, per_cycle_sum, util_sum = 0, 0.0, 0.0, 0.0
        for phase_id, raw, tau, util in rows:
            if phase_id == pid:
                count += 1
                raw_sum += raw
                per_cycle_sum += raw / tau
                util_sum += util
        phases.append(
            {
                "phase_id": pid,
                "intervals": count,
                "mean_throughput_raw": raw_sum / count,
                "mean_throughput_per_cycle": per_cycle_sum / count,
                "mean_utilization": util_sum / count,
            }
        )
    return phases


#: Per-cycle throughput levels at least 4x apart: under ``SUMMARY_CONFIG``
#: each change of level is a phase change, and a return to a level can recur.
PHASE_LEVELS = (0.5, 2.0, 8.0, 2.0**20)
SUMMARY_CONFIG = DetectorConfig(delta_th=20.0)


@st.composite
def phase_runs(draw):
    """Samples in runs of one level, with levels that return (for example
    0, 1, 0, 2, 1), so rows come in runs of one phase and phases recur; any
    utilization, so utilization events open phases too."""
    levels = []
    for _ in range(draw(st.integers(0, 12))):
        levels += [draw(st.integers(0, 3))] * draw(st.integers(1, 6))
    rows = len(levels)
    taus = draw(st.lists(st.integers(1_000, 10**6), min_size=rows, max_size=rows))
    jitters = draw(st.lists(st.integers(0, 30), min_size=rows, max_size=rows))
    utils = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)),
            min_size=rows,
            max_size=rows,
        )
    )
    samples = []
    start = 0
    for index, (level, tau, jitter, util) in enumerate(zip(levels, taus, jitters, utils)):
        raw = int(PHASE_LEVELS[level] * tau) + jitter
        samples.append(IntervalSample(index, start, tau, raw, util, 0.0))
        start += tau
    return samples


class TestBuildSummaryMatchesRowOrderSums:
    @given(phase_runs())
    # Phases 0, 1, 0, 2, 1: levels 1, 3, 1, 9, 3, each return a recurrence.
    @example(build_stream([1.0, 3.0, 1.0, 9.0, 3.0], utils=[0.1, 0.7, 0.2, 0.3, 0.9], tau=100))
    @settings(max_examples=200, deadline=None)
    def test_per_phase_sums_follow_row_order(self, samples):
        rows = phase_rows(samples, SUMMARY_CONFIG)
        summary = detect_over_samples(samples, SUMMARY_CONFIG).summary
        # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not.
        assert repr(summary["phases"]) == repr(summary_phases(rows))
        assert summary["phase_count"] == len({row[0] for row in rows})
        assert summary["sample_count"] == len(samples)
        assert summary["cycles_covered"] == sum(sample.tau for sample in samples)

    def test_the_example_recurs(self):
        samples = build_stream([1.0, 3.0, 1.0, 9.0, 3.0], utils=[0.1, 0.7, 0.2, 0.3, 0.9], tau=100)
        assert [row[0] for row in phase_rows(samples, SUMMARY_CONFIG)] == [0, 1, 0, 2, 1]
