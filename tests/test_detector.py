from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_stream, event_kinds
from phasesim import (
    DetectorConfig,
    IntervalSample,
    PhaseDetector,
    PhaseEventKind,
    PhaseState,
    TraceValidationError,
    UtilizationClass,
    detect_over_samples,
    load_trace,
    match_recurring_phase,
    save_trace,
    utilization_class,
)
from reference_model import (
    effective_utilization,
    running_average,
    similarity_verdict,
    throughput_delta,
)


class TestThroughputDelta:
    def test_doubling_is_plus_hundred(self):
        assert throughput_delta(400_000.0, 200_000.0) == 100.0

    def test_equal_is_zero(self):
        assert throughput_delta(200_000.0, 200_000.0) == 0.0

    def test_drop_is_negative(self):
        assert throughput_delta(150_000.0, 200_000.0) == -25.0

    @pytest.mark.parametrize("prev", [0.0, -1.0])
    def test_nonpositive_baseline_rejected(self, prev):
        with pytest.raises(ValueError):
            throughput_delta(1.0, prev)

    @given(
        th=st.floats(0.0, 1e9, allow_nan=False),
        prev=st.floats(1e-3, 1e9, allow_nan=False),
        scale=st.floats(1e-3, 1e3, allow_nan=False),
    )
    def test_scale_invariant(self, th, prev, scale):
        base = throughput_delta(th, prev)
        scaled = throughput_delta(th * scale, prev * scale)
        assert math.isclose(base, scaled, rel_tol=1e-9, abs_tol=1e-9)

    def test_drop_cannot_exceed_default_threshold(self):
        # With the default delta_th of 100 only increases can trigger:
        # a throughput of zero is a delta of exactly -100, never beyond.
        cfg = DetectorConfig()
        assert throughput_delta(0.0, 123.456) == -100.0
        assert abs(throughput_delta(0.0, 123.456)) <= cfg.delta_th


def fold(values):
    """The running average after each value in turn, from an empty phase."""
    mean = 0.0
    for count, value in enumerate(values):
        mean = running_average(mean, count, value)
    return mean


class TestRunningAverage:
    def test_first_sample_seeds_exactly(self):
        assert running_average(0.0, 0, 3.75) == 3.75

    def test_three_samples(self):
        assert fold([100.0, 200.0, 300.0]) == pytest.approx(200.0, rel=1e-12)

    def test_constant_stream_stays_constant(self):
        assert fold([1.25] * 50) == pytest.approx(1.25, rel=1e-12)

    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=100))
    def test_matches_batch_mean(self, values):
        batch = math.fsum(values) / len(values)
        assert math.isclose(fold(values), batch, rel_tol=1e-9, abs_tol=1e-9)


class TestOnLadder:
    @pytest.mark.parametrize("tau", [100_000, 200_000, 800_000, 6_400_000])
    def test_tau_min_doublings_up_to_tau_max_are_on_it(self, tau):
        assert DetectorConfig().on_ladder(tau)

    @pytest.mark.parametrize(
        "tau", [0, -100_000, 50_000, 150_000, 300_000, 100_001, 12_800_000]
    )
    def test_other_lengths_are_off_it(self, tau):
        assert not DetectorConfig().on_ladder(tau)

    @pytest.mark.parametrize("tau_max", [300_000, 50_000, 0, 100_001])
    def test_tau_max_must_sit_on_it(self, tau_max):
        with pytest.raises(ValueError, match="power of two"):
            DetectorConfig(tau_max=tau_max)


class TestDetectorConfigBounds:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("delta_th", 0.0, "delta_th must be > 0, got 0.0"),
            ("util_window", 0, "util_window must be >= 1, got 0"),
            ("steady_band", 0.0, "steady_band must be > 0, got 0.0"),
            ("steady_upper_bound", 0, "steady_upper_bound must be >= 1, got 0"),
            ("tau_min", 0, "tau_min must be >= 1, got 0"),
        ],
        ids=["delta_th", "util_window", "steady_band", "steady_upper_bound", "tau_min"],
    )
    def test_out_of_range_value_is_named(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectorConfig(**{field: value})

    def test_no_current_phase_before_any_interval(self):
        with pytest.raises(ValueError, match="no interval observed yet"):
            PhaseDetector(DetectorConfig()).current_phase


class TestUtilization:
    def test_effective_is_max_of_pools(self):
        assert effective_utilization(0.3, 0.8) == 0.8
        assert effective_utilization(0.9, 0.1) == 0.9

    def test_classes_use_open_interval(self):
        cfg = DetectorConfig()
        assert utilization_class(0.95, cfg) is UtilizationClass.NORMAL
        assert utilization_class(0.951, cfg) is UtilizationClass.OVER
        assert utilization_class(0.30, cfg) is UtilizationClass.NORMAL
        assert utilization_class(0.299, cfg) is UtilizationClass.UNDER


class TestClassifySimilarity:
    CFG = DetectorConfig()
    THROUGHPUT = PhaseEventKind.THROUGHPUT_CHANGE
    OVER = PhaseEventKind.OVER_UTILIZATION
    UNDER = PhaseEventKind.UNDER_UTILIZATION

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            similarity_verdict(0.0, [], self.CFG)

    def test_overfull_history_rejected(self):
        with pytest.raises(ValueError):
            similarity_verdict(0.0, [0.5] * 6, self.CFG)

    def test_similar_when_everything_in_band(self):
        assert similarity_verdict(50.0, [0.6] * 5, self.CFG) is None

    def test_throughput_breach(self):
        assert similarity_verdict(120.0, [0.6] * 5, self.CFG) is self.THROUGHPUT

    def test_throughput_exactly_at_threshold_is_similar(self):
        assert similarity_verdict(100.0, [0.6] * 5, self.CFG) is None
        assert similarity_verdict(-100.0, [0.6] * 5, self.CFG) is None

    def test_full_over_window(self):
        assert similarity_verdict(10.0, [0.96] * 5, self.CFG) is self.OVER

    def test_full_under_window(self):
        assert similarity_verdict(10.0, [0.2] * 5, self.CFG) is self.UNDER

    def test_boundary_utils_are_in_band(self):
        assert similarity_verdict(0.0, [0.95] * 5, self.CFG) is None
        assert similarity_verdict(0.0, [0.30] * 5, self.CFG) is None

    def test_partial_window_never_votes(self):
        assert similarity_verdict(0.0, [0.96] * 4, self.CFG) is None
        assert similarity_verdict(0.0, [0.2] * 4, self.CFG) is None

    def test_one_dissenter_breaks_the_streak(self):
        history = [0.96, 0.96, 0.5, 0.96, 0.96]
        assert similarity_verdict(0.0, history, self.CFG) is None

    def test_throughput_outranks_utilization(self):
        assert similarity_verdict(150.0, [0.96] * 5, self.CFG) is self.THROUGHPUT

    def test_window_of_one(self):
        cfg = DetectorConfig(util_window=1)
        assert similarity_verdict(0.0, [0.96], cfg) is self.OVER
        assert similarity_verdict(0.0, [0.2], cfg) is self.UNDER


class TestRecurrenceMatching:
    CFG = DetectorConfig()

    def _phase(self, pid, avg, util):
        return PhaseState(phase_id=pid, running_avg=avg, count=5, util_avg=util)

    def test_empty_table_matches_nothing(self):
        assert match_recurring_phase(4.0, 0.6, [], self.CFG) is None

    def test_match_within_band_and_class(self):
        closed = [self._phase(0, 4.1, 0.5)]
        assert match_recurring_phase(4.0, 0.6, closed, self.CFG) == 0

    def test_class_mismatch_blocks(self):
        closed = [self._phase(0, 4.0, 0.98)]
        assert match_recurring_phase(4.0, 0.6, closed, self.CFG) is None

    def test_throughput_gap_blocks(self):
        closed = [self._phase(0, 1.0, 0.6)]
        assert match_recurring_phase(2.5, 0.6, closed, self.CFG) is None

    def test_most_recent_candidate_wins(self):
        closed = [self._phase(0, 4.0, 0.6), self._phase(1, 4.2, 0.55)]
        assert match_recurring_phase(4.1, 0.6, closed, self.CFG) == 1

    def test_zero_average_phase_only_matches_zero(self):
        closed = [self._phase(0, 0.0, 0.6)]
        assert match_recurring_phase(0.0, 0.6, closed, self.CFG) is not None
        assert match_recurring_phase(1.0, 0.6, closed, self.CFG) is None


class TestPhaseDetectorObserve:
    def test_first_interval_seeds_phase_zero(self):
        det = PhaseDetector()
        stream = build_stream([1.0])
        pid, events = det.observe(stream[0])
        assert pid == 0
        assert events == []
        assert det.current_phase.running_avg == pytest.approx(1.0)

    def test_indices_must_be_contiguous(self):
        det = PhaseDetector()
        a, b = build_stream([1.0, 1.0])
        det.observe(a)
        skipped = IntervalSample(
            index=5,
            start_cycle=b.start_cycle,
            tau=b.tau,
            retired_instructions=b.retired_instructions,
            util_int=b.util_int,
            util_fp=b.util_fp,
        )
        with pytest.raises(TraceValidationError) as exc:
            det.observe(skipped)
        assert str(exc.value) == "row 1: index 5 does not follow 0"
        assert exc.value.row_index == 1

    def test_step_up_triggers_throughput_change(self):
        det = PhaseDetector()
        events = []
        for s in build_stream([1.0] * 10 + [2.5] * 10):
            _, evs = det.observe(s)
            events.extend(evs)
        assert event_kinds(events) == [(10, "throughput_change")]
        assert events[0].old_phase_id == 0
        assert events[0].new_phase_id == 1
        assert events[0].d_i == pytest.approx(150.0, rel=1e-12)

    def test_step_down_inside_band_is_silent(self):
        det = PhaseDetector()
        events = []
        for s in build_stream([4.0] * 10 + [1.5] * 10):
            _, evs = det.observe(s)
            events.extend(evs)
        # -62.5% never breaches a 100% band; drops surface as under-utilization.
        assert events == []

    def test_under_utilization_fires_on_fifth_interval(self):
        det = PhaseDetector()
        utils = [0.6] * 5 + [0.2] * 5
        events = []
        for s in build_stream([1.0] * 10, utils=utils):
            _, evs = det.observe(s)
            events.extend(evs)
        assert event_kinds(events) == [(9, "under_util")]

    def test_over_utilization_fires_on_fifth_interval(self):
        det = PhaseDetector()
        utils = [0.6] * 5 + [0.96] * 5
        events = []
        for s in build_stream([1.0] * 10, utils=utils):
            _, evs = det.observe(s)
            events.extend(evs)
        assert event_kinds(events) == [(9, "over_util")]

    def test_four_in_a_row_is_not_enough(self):
        det = PhaseDetector()
        utils = [0.6] * 5 + [0.96] * 4 + [0.6]
        events = []
        for s in build_stream([1.0] * 10, utils=utils):
            _, evs = det.observe(s)
            events.extend(evs)
        assert events == []

    def test_history_clears_at_phase_boundary(self):
        # A persistent condition re-fires once per full window, not every
        # interval, because the boundary resets the history.
        det = PhaseDetector(DetectorConfig(recurrence_matching=False))
        events = []
        for s in build_stream([1.0] * 15, utils=[0.96] * 15):
            _, evs = det.observe(s)
            events.extend(evs)
        assert event_kinds(events) == [(4, "over_util"), (9, "over_util"), (14, "over_util")]

    def test_throughput_outranks_utilization_on_same_interval(self):
        # The over-utilization streak completes on the same interval as the
        # throughput jump; only the higher-priority cause is reported.
        det = PhaseDetector()
        events = []
        for s in build_stream([1.0] * 5 + [2.5], utils=[0.6] + [0.96] * 5):
            _, evs = det.observe(s)
            events.extend(evs)
        assert event_kinds(events) == [(5, "throughput_change")]

    def test_zero_throughput_phase_is_stable_until_signal_returns(self):
        det = PhaseDetector()
        events = []
        ths = [0.0] * 6 + [1.0]
        for s in build_stream(ths, utils=0.6):
            _, evs = det.observe(s)
            events.extend(evs)
        assert event_kinds(events) == [(6, "throughput_change")]
        assert events[0].d_i == math.inf

    def test_recurring_phase_id_is_reused(self):
        det = PhaseDetector()
        events = []
        pids = []
        utils = [0.6] * 10 + [0.2] * 10
        for s in build_stream([1.0] * 20, utils=utils):
            pid, evs = det.observe(s)
            pids.append(pid)
            events.extend(evs)
        # First breach opens phase 1; the persisting condition then re-matches
        # phase 1 (same throughput, same utilization class) instead of minting
        # phase 2.
        assert event_kinds(events) == [
            (14, "under_util"),
            (19, "under_util"),
            (19, "phase_recurred"),
        ]
        assert pids[-1] == 1
        assert len(det.phases) == 2

    def test_recurrence_reseeds_the_running_average(self):
        det = PhaseDetector()
        utils = [0.6] * 10 + [0.2] * 10
        ths = [1.0] * 15 + [1.4] * 5
        for s in build_stream(ths, utils=utils):
            det.observe(s)
        # After the recurrence at interval 19 the phase average restarts from
        # that episode alone rather than blending in the earlier visit.
        assert det.current_phase.running_avg == pytest.approx(1.4, rel=1e-12)
        assert det.current_phase.count == 1

    def test_recurrence_can_be_disabled(self):
        det = PhaseDetector(DetectorConfig(recurrence_matching=False))
        pids = []
        utils = [0.6] * 10 + [0.2] * 10
        for s in build_stream([1.0] * 20, utils=utils):
            pid, _ = det.observe(s)
            pids.append(pid)
        assert pids[-1] == 2
        assert all(b >= a for a, b in zip(pids, pids[1:]))

    @given(
        ths=st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=1, max_size=60),
        utils=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_determinism(self, ths, utils):
        us = utils.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=len(ths),
                max_size=len(ths),
            )
        )
        runs = []
        for _ in range(2):
            det = PhaseDetector()
            log = []
            for s in build_stream(ths, utils=us):
                pid, evs = det.observe(s)
                log.append((pid, tuple(event_kinds(evs))))
            runs.append(log)
        assert runs[0] == runs[1]

    @given(
        ths=st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=1, max_size=80),
        utils=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fresh_phase_ids_increase_monotonically(self, ths, utils):
        us = utils.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False),
                min_size=len(ths),
                max_size=len(ths),
            )
        )
        det = PhaseDetector(DetectorConfig(recurrence_matching=False))
        pids = []
        for s in build_stream(ths, utils=us):
            pid, _ = det.observe(s)
            pids.append(pid)
        assert all(b >= a for a, b in zip(pids, pids[1:]))
        assert sorted(set(pids)) == list(range(len(set(pids))))

    @given(
        ths=st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=2, max_size=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_throughput_event_implies_band_breach(self, ths):
        cfg = DetectorConfig()
        det = PhaseDetector(cfg)
        for s in build_stream(ths, utils=0.6):
            _, evs = det.observe(s)
            for e in evs:
                if e.kind is PhaseEventKind.THROUGHPUT_CHANGE:
                    assert abs(e.d_i) > cfg.delta_th

    @given(
        ths=st.lists(st.floats(0.01, 8.0, allow_nan=False), min_size=1, max_size=50),
        exponent=st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_under_power_of_two(self, ths, exponent):
        # Powers of two are exact in binary floating point, so the two runs
        # must agree bit for bit, not just approximately.
        factor = 2**exponent
        base = build_stream(ths, utils=0.6)
        logs = []
        for multiplier in (1, factor):
            det = PhaseDetector()
            log = []
            for s in base:
                bumped = IntervalSample(
                    index=s.index,
                    start_cycle=s.start_cycle,
                    tau=s.tau,
                    retired_instructions=s.retired_instructions * multiplier,
                    util_int=s.util_int,
                    util_fp=s.util_fp,
                )
                pid, evs = det.observe(bumped)
                log.append((pid, tuple((e.interval_index, e.kind) for e in evs)))
            logs.append(log)
        assert logs[0] == logs[1]


class TestSampleRule:
    COUNTS = ("index", "start_cycle", "tau", "retired_instructions")

    @staticmethod
    def fields(**changes):
        fields = dict(
            index=0, start_cycle=0, tau=100, retired_instructions=50,
            util_int=0.5, util_fp=0.0,
        )
        fields.update(changes)
        return fields

    @pytest.mark.parametrize("field", COUNTS)
    @pytest.mark.parametrize("value", [5.0, 0.0, True, False], ids=repr)
    def test_counts_must_be_ints(self, field, value):
        with pytest.raises(
            ValueError, match=f"^{field} must be an int, got {value!r}$"
        ):
            IntervalSample(**self.fields(**{field: value}))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("index", "sample index must be >= 0, got -1"),
            ("start_cycle", "start_cycle must be >= 0 and fit a 64-bit counter, got -1"),
            (
                "retired_instructions",
                "retired_instructions must be >= 0 and fit a 64-bit counter, got -1",
            ),
        ],
    )
    def test_counts_below_zero_are_refused(self, field, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IntervalSample(**self.fields(**{field: -1}))

    @pytest.mark.parametrize("field", COUNTS)
    def test_the_first_bad_field_is_named(self, field):
        later = self.COUNTS[self.COUNTS.index(field):]
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            IntervalSample(**self.fields(**{name: 1.0 for name in later}))

    @pytest.mark.parametrize("field", ["util_int", "util_fp"])
    @pytest.mark.parametrize("value", [True, False, "0.5", None], ids=repr)
    def test_utilizations_must_be_numbers(self, field, value):
        with pytest.raises(
            ValueError, match=f"^{field} must be a number, got {re.escape(repr(value))}$"
        ):
            IntervalSample(**self.fields(**{field: value}))

    @pytest.mark.parametrize("value", [7, None, b"A0"], ids=repr)
    def test_source_core_must_be_a_string(self, tmp_path, value):
        with pytest.raises(
            ValueError, match=f"^source_core must be a string, got {re.escape(repr(value))}$"
        ):
            IntervalSample(**self.fields(source_core=value))
        # Refused before save_trace could write a file that load_trace refuses.
        with pytest.raises(ValueError):
            save_trace([IntervalSample(**self.fields(source_core=value))], tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_an_int_utilization_is_held_and_written_as_a_float(self, tmp_path, fmt):
        sample = IntervalSample(**self.fields(util_int=1, util_fp=0))
        assert (repr(sample.util_int), repr(sample.util_fp)) == ("1.0", "0.0")
        path = tmp_path / f"trace.{fmt}"
        save_trace([sample], path)
        assert "1.0" in path.read_text() and "0.0" in path.read_text()

    def test_an_int_utilization_too_large_for_a_float_is_named(self):
        with pytest.raises(ValueError, match="^util_fp does not fit a float, got 1000"):
            IntervalSample(**self.fields(util_fp=10**400))

    @pytest.mark.parametrize("value", [0, 1, 0.25], ids=repr)
    def test_number_utilizations_round_trip_through_jsonl(self, tmp_path, value):
        path = tmp_path / "trace.jsonl"
        save_trace([IntervalSample(**self.fields(util_int=value, util_fp=value))], path)
        (sample,) = load_trace(path)
        assert (sample.util_int, sample.util_fp) == (value, value)

    def test_a_float_count_stops_before_detection(self):
        with pytest.raises(ValueError, match="^retired_instructions must be an int"):
            detect_over_samples(
                [IntervalSample(0, 0, 100, 5.0, 0.5, 0.0)], DetectorConfig()
            )
