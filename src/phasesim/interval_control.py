"""Dynamic adjustment of the profiling interval length.

The interval length walks a doubling ladder between ``tau_min`` and
``tau_max``: once the phase's running average has barely moved for
``steady_upper_bound`` consecutive intervals the length doubles, and any
unsteady interval halves it again. Short intervals watch volatile code
closely; long ones keep profiling cheap while nothing happens.
"""

from __future__ import annotations

from .detector import DetectorConfig, PhaseEventKind


class IntervalController:
    """Tracks steadiness of the phase average and adjusts the interval.

    ``tau`` always sits on the ladder ``tau_min * 2**k`` within
    ``[tau_min, tau_max]``. The steadiness baseline is re-anchored at every
    phase boundary (see :meth:`reset_baseline`), so a steady run never spans
    two phases and the boundary interval itself casts no verdict.
    """

    def __init__(self, config: DetectorConfig) -> None:
        self.config = config
        self.tau: int = config.tau_min
        self.steady_count: int = 0
        self.prev_running_avg: float | None = None

    def reset_baseline(self, running_avg: float) -> None:
        """Re-anchor the comparison after a phase boundary seeded a new average."""
        self.steady_count = 0
        self.prev_running_avg = running_avg

    def observe_average(self, running_avg: float) -> PhaseEventKind | None:
        """Cast a steadiness verdict for the newest running average.

        The average is steady when it moved less than ``steady_band`` percent
        from the previous one. Returns the interval-length event that
        resulted, if any. Phases with no accumulated throughput are treated
        as steady while they stay idle.
        """
        prev = self.prev_running_avg
        if prev is None:
            self.prev_running_avg = running_avg
            return None
        if prev > 0:
            steady = abs(running_avg - prev) * 100.0 / prev < self.config.steady_band
        else:
            steady = running_avg <= 0
        self.prev_running_avg = running_avg
        return self.update_interval_length(steady)

    def update_interval_length(self, steady: bool) -> PhaseEventKind | None:
        """Apply one steadiness verdict; report when tau actually changed.

        Reaching ``steady_upper_bound`` consecutive steady verdicts doubles
        tau and restarts the count; an unsteady verdict halves tau and
        restarts the count. No event is reported when clamping at either end
        of the ladder leaves tau unchanged.
        """
        if steady:
            self.steady_count += 1
            if self.steady_count >= self.config.steady_upper_bound:
                self.steady_count = 0
                if self.tau < self.config.tau_max:
                    self.tau = min(self.tau * 2, self.config.tau_max)
                    return PhaseEventKind.TAU_DOUBLED
            return None
        self.steady_count = 0
        if self.tau > self.config.tau_min:
            self.tau = max(self.tau // 2, self.config.tau_min)
            return PhaseEventKind.TAU_HALVED
        return None
