"""Differential tests of the per-interval hot path against reference loops.

``PhaseDetector.observe`` and ``simulate_interval`` inline their arithmetic
for speed. Each is checked against a model in ``tests/reference_model.py``
written from the README's description: the detector against
``ReferenceDetector``, the core model against ``blended_interval``, which
walks the segment list itself. Results must be equal, not close: the
artifacts are byte-identical only if every float rounds the same way.
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
        strong=st.booleans(),
    )
    # Noise-free demand exactly at the A core's width and int units, at its
    # two fp units and at the B core's one fp unit; then a fully dead interval.
    @example([WorkloadSegment(300, 4.0)], [100], [0, None], 0, True)
    @example([WorkloadSegment(300, 2.0, 1.0)], [100], [0, None], 0, True)
    @example([WorkloadSegment(300, 1.0, 1.0)], [100], [0, None], 0, False)
    @settings(max_examples=300, deadline=None)
    def test_every_interval_equals_the_blend(self, segs, taus, dead, seed, strong):
        core = a_core("A0") if strong else b_core("B0")
        cursor = SegmentCursor(segs)
        rng, twin_rng = random.Random(seed), random.Random(seed)
        index = start = 0
        for step in range(10_000):
            tau, dead_cycles = taus[step % len(taus)], dead[step % len(dead)]
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
