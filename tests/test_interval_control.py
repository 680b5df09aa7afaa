from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from phasesim import (
    DetectorConfig,
    ExperimentConfig,
    IntervalController,
    Mode,
    PhaseEventKind,
    a_core,
    b_core,
    run_experiment,
    steady,
)
from reference_model import expected_taus


def steady_verdict(average, previous, band=1.0):
    """The verdict observe_average casts on ``average`` after ``previous``."""
    ctl = IntervalController(DetectorConfig(steady_band=band))
    ctl.reset_baseline(previous)
    assert ctl.observe_average(average) is None
    return ctl.steady_count == 1


class TestSteadinessVerdict:
    def test_identical_averages_are_steady(self):
        assert steady_verdict(100.0, 100.0) is True

    def test_small_drift_is_steady(self):
        assert steady_verdict(100.5, 100.0) is True

    def test_band_edge_is_not_steady(self):
        assert steady_verdict(101.0, 100.0) is False

    def test_large_drift_is_not_steady(self):
        assert steady_verdict(101.5, 100.0) is False
        assert steady_verdict(98.0, 100.0) is False


class TestIntervalLadder:
    def test_doubles_only_after_full_streak(self):
        cfg = DetectorConfig()
        ctl = IntervalController(cfg)
        events = []
        for _ in range(cfg.steady_upper_bound - 1):
            events.append(ctl.update_interval_length(True))
        assert events == [None] * (cfg.steady_upper_bound - 1)
        assert ctl.tau == cfg.tau_min

        assert ctl.update_interval_length(True) is PhaseEventKind.TAU_DOUBLED
        assert ctl.tau == 2 * cfg.tau_min
        assert ctl.steady_count == 0

    def test_unsteady_interval_halves_and_resets(self):
        cfg = DetectorConfig()
        ctl = IntervalController(cfg)
        for _ in range(cfg.steady_upper_bound):
            ctl.update_interval_length(True)
        assert ctl.tau == 200_000
        for _ in range(10):
            ctl.update_interval_length(True)

        assert ctl.update_interval_length(False) is PhaseEventKind.TAU_HALVED
        assert ctl.tau == 100_000
        assert ctl.steady_count == 0

    def test_no_event_below_the_floor(self):
        cfg = DetectorConfig()
        ctl = IntervalController(cfg)
        assert ctl.tau == cfg.tau_min
        assert ctl.update_interval_length(False) is None
        assert ctl.tau == cfg.tau_min

    def test_no_event_above_the_ceiling(self):
        cfg = DetectorConfig(steady_upper_bound=2)
        ctl = IntervalController(cfg)
        while ctl.tau < cfg.tau_max:
            ctl.update_interval_length(True)
        for _ in range(10):
            assert ctl.update_interval_length(True) is None
            assert ctl.tau == cfg.tau_max

    def test_climb_touches_every_rung(self):
        cfg = DetectorConfig(steady_upper_bound=1)
        ctl = IntervalController(cfg)
        rungs = [ctl.tau]
        while ctl.tau < cfg.tau_max:
            ctl.update_interval_length(True)
            rungs.append(ctl.tau)
        assert rungs == [100_000 * 2**k for k in range(7)]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_walk_stays_on_the_ladder(self, seed):
        cfg = DetectorConfig(steady_upper_bound=3)
        ladder = set()
        tau = cfg.tau_min
        while tau <= cfg.tau_max:
            ladder.add(tau)
            tau *= 2
        ctl = IntervalController(cfg)
        rng = random.Random(seed)
        for _ in range(4_000):
            ctl.update_interval_length(rng.random() < 0.9)
            assert cfg.tau_min <= ctl.tau <= cfg.tau_max
            assert ctl.tau in ladder


class TestObserveAverage:
    def test_first_average_sets_the_baseline(self):
        ctl = IntervalController(DetectorConfig())
        assert ctl.observe_average(1.6) is None
        assert ctl.tau == 100_000

    def test_streak_of_steady_averages_doubles(self):
        cfg = DetectorConfig()
        ctl = IntervalController(cfg)
        event = None
        for _ in range(cfg.steady_upper_bound + 1):
            event = ctl.observe_average(1.6)
        assert event is PhaseEventKind.TAU_DOUBLED
        assert ctl.tau == 200_000

    def test_jittery_averages_never_climb(self):
        ctl = IntervalController(DetectorConfig())
        values = [1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0]
        for v in values:
            assert ctl.observe_average(v) is None
        assert ctl.tau == 100_000

    def test_reset_baseline_interrupts_a_streak(self):
        cfg = DetectorConfig(steady_upper_bound=3)
        ctl = IntervalController(cfg)
        ctl.observe_average(1.0)
        ctl.observe_average(1.0)
        ctl.reset_baseline(5.0)
        # The streak starts over; three more steady verdicts are needed.
        assert ctl.observe_average(5.0) is None
        assert ctl.observe_average(5.0) is None
        assert ctl.observe_average(5.0) is PhaseEventKind.TAU_DOUBLED

    def test_zero_running_average_counts_as_steady_only_against_zero(self):
        cfg = DetectorConfig(steady_upper_bound=2)
        ctl = IntervalController(cfg)
        ctl.reset_baseline(0.0)
        assert ctl.observe_average(0.0) is None
        assert ctl.observe_average(0.0) is PhaseEventKind.TAU_DOUBLED
        ctl.reset_baseline(0.0)
        assert ctl.observe_average(0.5) is PhaseEventKind.TAU_HALVED
        assert ctl.tau == 100_000


@st.composite
def in_band_steady_runs(draw):
    """A variable-tau run of a noiseless one-segment workload whose
    utilization sits inside the band on its start core, so nothing opens a
    phase and every verdict is steady. A tau_min of 1 000 cycles or more
    keeps a count's rounding far below steady_band."""
    core = draw(st.sampled_from([a_core("A0"), b_core("B0")]))
    tau_min = draw(st.integers(1_000, 200_000))
    detector = DetectorConfig(
        tau_min=tau_min,
        tau_max=tau_min * 2 ** draw(st.integers(0, 5)),
        steady_upper_bound=draw(st.integers(1, 12)),
    )
    utilization = draw(st.floats(detector.delta_under + 0.05, detector.delta_over - 0.05))
    spec = steady(
        total_cycles=draw(st.integers(tau_min, tau_min * 400)),
        demand=utilization * core.int_fu_count,
    )
    config = ExperimentConfig(
        detector=detector,
        machine_cores=[core],
        workload_preset="steady",
        preset_args={"total_cycles": spec.total_cycles, "demand": spec.segments[0].ipc_demand},
        mode=Mode.VARIABLE,
    )
    return spec, config


class TestLadderOracle:
    @given(run=in_band_steady_runs())
    @settings(max_examples=150, deadline=None)
    def test_tau_column_is_the_closed_form_ladder(self, run):
        spec, config = run
        result = run_experiment(config)
        taus = [row.tau for row in result.rows]
        # Every verdict but the cut-short final interval's was steady.
        assert all(
            event.kind is PhaseEventKind.TAU_DOUBLED
            for event in result.events
            if event.interval_index < len(taus) - 1
        )
        assert taus == expected_taus(spec, config)
