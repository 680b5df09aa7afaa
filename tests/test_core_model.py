from __future__ import annotations

import math
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesim import (
    CoreClass,
    CoreSpec,
    IntervalSample,
    SegmentCursor,
    WorkloadSegment,
    a_core,
    b_core,
    simulate_interval,
)


class TestCoreSpecs:
    def test_big_core_parameters(self):
        core = a_core("A0")
        assert core.core_class is CoreClass.A
        assert core.issue_width == 4
        assert (core.int_fu_count, core.fp_fu_count) == (4, 2)

    def test_small_core_parameters(self):
        core = b_core("B0")
        assert core.core_class is CoreClass.B
        assert core.issue_width == 2
        assert (core.int_fu_count, core.fp_fu_count) == (2, 1)

    def test_big_core_dominates_small_fieldwise(self):
        big, small = a_core("A"), b_core("B")
        assert big.issue_width > small.issue_width
        assert big.int_fu_count > small.int_fu_count
        assert big.fp_fu_count > small.fp_fu_count


def one_interval(core, demand, fp_fraction=0.0, tau=100):
    """The single interval of a one-segment, noise-free workload."""
    cursor = SegmentCursor([WorkloadSegment(tau, demand, fp_fraction)])
    return simulate_interval(core, cursor, tau, random.Random(0))


class TestIssueWidthClip:
    def test_demand_above_width_clips(self):
        assert one_interval(a_core("A"), 6.0).retired_instructions == 400
        assert one_interval(b_core("B"), 6.0).retired_instructions == 200

    def test_demand_below_width_passes_through(self):
        assert one_interval(b_core("B"), 1.5).retired_instructions == 150

    def test_zero_demand(self):
        sample = one_interval(a_core("A"), 0.0)
        assert sample.retired_instructions == 0
        assert (sample.util_int, sample.util_fp) == (0.0, 0.0)


class TestUnitOccupancy:
    def test_int_only_on_big_core(self):
        sample = one_interval(a_core("A"), 1.0)
        assert (sample.util_int, sample.util_fp) == (0.25, 0.0)

    def test_fp_saturates_small_core(self):
        sample = one_interval(b_core("B"), 1.0, fp_fraction=1.0)
        assert (sample.util_int, sample.util_fp) == (0.0, 1.0)

    def test_caps_at_one(self):
        # 2.0 achieved ipc on B: 0.5 integer over 2 units, 1.5 fp over 1 unit.
        sample = one_interval(b_core("B"), 2.0, fp_fraction=0.75)
        assert (sample.util_int, sample.util_fp) == (0.25, 1.0)


class TestSegmentCursor:
    def test_interval_crosses_two_boundaries_then_truncates(self):
        cursor = SegmentCursor(
            [
                WorkloadSegment(100, 1.0, 0.0, 0.0),
                WorkloadSegment(100, 2.0, 0.5, 0.0),
                WorkloadSegment(100, 1.0, 1.0, 0.0),
            ]
        )
        rng = random.Random(0)
        core = a_core("A0")
        # 100 + 100 + 50 cycles: 350 demanded instructions, 150 of them fp.
        first = simulate_interval(core, cursor, 250, rng)
        assert (first.index, first.start_cycle, first.tau) == (0, 0, 250)
        assert first.retired_instructions == 350
        assert first.util_int == pytest.approx(1.4 * (4 / 7) / 4)
        assert first.util_fp == pytest.approx(1.4 * (3 / 7) / 2)
        assert (cursor.position, cursor.next_index) == (250, 1)
        # The rest is the 50-cycle tail of the third segment alone.
        tail = simulate_interval(core, cursor, 250, rng)
        assert (tail.index, tail.start_cycle, tail.tau) == (1, 250, 50)
        assert tail.retired_instructions == 50
        assert (tail.util_int, tail.util_fp) == (0.0, 0.5)
        assert (cursor.position, cursor.next_index) == (300, 2)
        assert simulate_interval(core, cursor, 1, rng) is None


class TestSimulateInterval:
    def _run(self, core, segments, tau=100_000, seed=0, dead_cycles=0):
        cursor = SegmentCursor(segments)
        rng = random.Random(seed)
        out = []
        while True:
            sample = simulate_interval(
                core, cursor, tau, rng, dead_cycles=dead_cycles
            )
            if sample is None:
                return out
            dead_cycles = 0
            out.append(sample)

    def test_saturating_demand_on_big_core(self):
        segments = [WorkloadSegment(100_000, 6.0, 0.0, 0.0)]
        [sample] = self._run(a_core("A"), segments)
        assert sample.retired_instructions == 400_000
        assert (sample.util_int, sample.util_fp) == (1.0, 0.0)

    def test_light_demand_on_small_core(self):
        segments = [WorkloadSegment(100_000, 0.5, 0.0, 0.0)]
        [sample] = self._run(b_core("B"), segments)
        assert sample.retired_instructions == 50_000
        assert (sample.util_int, sample.util_fp) == (0.25, 0.0)

    def test_boundary_blending_weights_by_cycles(self):
        segments = [
            WorkloadSegment(100, 2.0, 0.0, 0.0),
            WorkloadSegment(200, 4.0, 1.0, 0.0),
        ]
        cursor = SegmentCursor(segments)
        rng = random.Random(0)
        sample = simulate_interval(a_core("A"), cursor, 150, rng)
        # Blended demand (100*2 + 50*4) / 150 = 8/3 ipc over 150 cycles.
        assert sample.retired_instructions == 400
        # The fp share is demand-weighted: 200 of 400 demanded slots are fp.
        assert sample.util_fp == pytest.approx((8 / 3) * 0.5 / 2)

    def test_final_interval_truncates_to_budget(self):
        segments = [WorkloadSegment(250, 1.0, 0.0, 0.0)]
        samples = self._run(a_core("A"), segments, tau=100)
        assert [s.tau for s in samples] == [100, 100, 50]
        assert [s.start_cycle for s in samples] == [0, 100, 200]

    def test_zero_noise_is_exact_and_seed_independent(self):
        segments = [WorkloadSegment(300_000, 1.6, 0.0, 0.0)]
        runs = [self._run(a_core("A"), segments, seed=s) for s in (0, 99)]
        assert runs[0] == runs[1]
        assert all(s.retired_instructions == 160_000 for s in runs[0])

    def test_noise_is_deterministic_per_seed(self):
        segments = [WorkloadSegment(500_000, 1.5, 0.2, 0.3)]
        first = self._run(b_core("B"), segments, seed=7)
        second = self._run(b_core("B"), segments, seed=7)
        other = self._run(b_core("B"), segments, seed=8)
        assert first == second
        assert first != other

    def test_dead_cycles_shrink_retirement_but_not_the_interval(self):
        segments = [WorkloadSegment(100_000, 1.0, 0.0, 0.0)]
        [sample] = self._run(a_core("A"), segments, dead_cycles=10_000)
        assert sample.tau == 100_000
        assert sample.retired_instructions == 90_000
        assert sample.util_int == pytest.approx(0.9 * 1.0 / 4)

    def test_big_core_never_retires_less(self):
        demands = [i / 4 for i in range(25)]
        for d in demands:
            segments = [WorkloadSegment(100_000, d, 0.0, 0.0)]
            [big] = self._run(a_core("A"), segments)
            [small] = self._run(b_core("B"), segments)
            assert big.retired_instructions >= small.retired_instructions
            if d <= 2.0:
                assert big.retired_instructions == small.retired_instructions
            else:
                assert big.retired_instructions > small.retired_instructions

    @given(
        demand=st.floats(0.0, 8.0, allow_nan=False),
        fp=st.floats(0.0, 1.0, allow_nan=False),
        noise=st.floats(0.0, 0.5, allow_nan=False),
        seed=st.integers(0, 1000),
        tau=st.integers(1, 200_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_sample_invariants(self, demand, fp, noise, seed, tau):
        core = a_core("A")
        segments = [WorkloadSegment(tau, demand, fp, noise)]
        cursor = SegmentCursor(segments)
        sample = simulate_interval(core, cursor, tau, random.Random(seed))
        assert sample is not None
        assert sample.retired_instructions <= core.issue_width * tau
        assert 0.0 <= sample.util_int <= 1.0
        assert 0.0 <= sample.util_fp <= 1.0


@st.composite
def simulated_samples(draw):
    """Every sample of a small workload: 1-6 segments of any in-range demand,
    fp share and noise, a tau of 1 to 2**20 and dead cycles up to 2 * tau, on
    either core or one with a single unit of each kind. The final interval is
    truncated unless the segments happen to fill it."""
    core = draw(
        st.sampled_from(
            [a_core("A0"), b_core("B0"), CoreSpec("C0", CoreClass.A, 4, 1, 1)]
        )
    )
    tau = draw(st.integers(1, 2**20))
    segments = draw(
        st.lists(
            st.builds(
                WorkloadSegment,
                duration=st.integers(1, 3 * tau),
                ipc_demand=st.floats(0.0, 3.0 * core.issue_width),
                fp_fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                noise_amplitude=st.floats(0.0, 0.999),
            ),
            min_size=1,
            max_size=6,
        )
    )
    dead_cycles = draw(st.integers(0, 2 * tau))
    cursor = SegmentCursor(segments)
    rng = random.Random(draw(st.integers(0, 2**32)))
    samples = []
    while (sample := simulate_interval(core, cursor, tau, rng, dead_cycles)) is not None:
        samples.append(sample)
    return samples


class TestUncheckedSamples:
    """simulate_interval builds its samples without IntervalSample's check;
    each must still pass it and be a plain sample."""

    @given(samples=simulated_samples())
    @settings(max_examples=300, deadline=None)
    def test_every_sample_passes_the_sample_rule(self, samples):
        for sample in samples:
            assert type(sample) is IntervalSample
            checked = IntervalSample(*(getattr(sample, f.name) for f in fields(sample)))
            assert sample == checked and checked == sample
            assert repr(sample) == repr(checked)


def one_segment_cursor() -> SegmentCursor:
    return SegmentCursor([WorkloadSegment(1000, 1.0, 0.0, 0.0)])


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: CoreSpec("", CoreClass.A, 4), "core name must be non-empty"),
            (lambda: SegmentCursor([]), "workload needs at least one segment"),
            (lambda: WorkloadSegment(1000.0, 1.0), r"^duration must be an int, got 1000\.0$"),
            (lambda: WorkloadSegment(True, 1.0), "^duration must be an int, got True$"),
            (
                lambda: simulate_interval(
                    a_core("A0"), one_segment_cursor(), 0, random.Random(0)
                ),
                "tau must be >= 1, got 0",
            ),
            (
                lambda: simulate_interval(
                    a_core("A0"), one_segment_cursor(), 100, random.Random(0), -1
                ),
                "dead_cycles must be >= 0, got -1",
            ),
        ],
        ids=[
            "empty_core_name", "no_segments", "float_duration", "bool_duration", "zero_tau",
            "negative_dead_cycles",
        ],
    )
    def test_refusal_names_its_cause(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestWorkloadSegmentValidation:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            WorkloadSegment(0, 1.0, 0.0, 0.0)

    def test_rejects_bad_fp_fraction(self):
        with pytest.raises(ValueError):
            WorkloadSegment(10, 1.0, 1.5, 0.0)

    def test_rejects_full_noise(self):
        with pytest.raises(ValueError):
            WorkloadSegment(10, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("field", ["ipc_demand", "fp_fraction", "noise_amplitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"ipc_demand": 1.0, "fp_fraction": 0.0, "noise_amplitude": 0.0}
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WorkloadSegment(10, **kwargs)
