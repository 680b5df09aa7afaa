"""A reference model of phase detection, written from its description.

The README describes detection this way: each interval's throughput, in
instructions per cycle, is compared with the current phase's running
average; a new phase opens when the throughput deviates by more than
``delta_th`` percent, or when the interval's utilization (the busier of the
integer and floating-point units) has sat outside the ``[delta_under,
delta_over]`` band for a full window of ``util_window`` intervals. With
recurrence matching on, the new phase is the most recently closed phase of
similar throughput and the same utilization class, if there is one.

``ReferenceDetector`` does this one step at a time with plain state: a
sliding window of utilizations, a table of phase statistics and a list of
closed phase ids. ``PhaseDetector.observe`` must agree with it exactly.
Floats are compared bit for bit, so every formula here uses the operation
order that the artifacts are pinned to: a deviation is the difference times
100 over the average, and a running average folds a new value into the old
mean as ``(mean * n + value) / (n + 1)``.

``expected_taus`` is the interval ladder the same way: the closed form of
README's "Interval ladder" for a run in which nothing opens a phase.

``blended_interval`` is the core model the same way: an interval covers the
spans of every segment it touches, found by walking the segment list from
cycle 0, and blends their demand pro rata by cycles. ``simulate_interval``
must agree with it exactly.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from typing import Sequence

from phasesim import (
    CoreSpec,
    DetectorConfig,
    ExperimentConfig,
    IntervalSample,
    PhaseEvent,
    PhaseEventKind,
    PhaseState,
    WorkloadSegment,
    WorkloadSpec,
)


def throughput_delta(th: float, average: float) -> float:
    """Percent deviation of a throughput from a positive phase average."""
    if average <= 0:
        raise ValueError(f"a deviation needs a positive average, got {average}")
    return (th - average) * 100.0 / average


def running_average(mean: float, count: int, value: float) -> float:
    """The mean of ``count`` values, ``mean``, after one more ``value``."""
    return (mean * count + value) / (count + 1)


def effective_utilization(util_int: float, util_fp: float) -> float:
    """The busier of the two units; on a tie, the integer unit's figure."""
    return max(util_int, util_fp)


def utilization_class(u: float, config: DetectorConfig) -> str:
    """``over`` above the band, ``under`` below it, ``normal`` on or inside it."""
    if u > config.delta_over:
        return "over"
    if u < config.delta_under:
        return "under"
    return "normal"


def similarity_verdict(
    d_i: float, window: Sequence[float], config: DetectorConfig
) -> PhaseEventKind | None:
    """The phase change that an interval causes, or None when it is similar.

    ``window`` holds the utilizations of the newest intervals of the current
    phase, newest last, at most ``util_window`` of them. Utilization decides
    only on a full window. Throughput is judged first, then over-, then
    under-utilization.
    """
    if not 1 <= len(window) <= config.util_window:
        raise ValueError(
            f"a window holds 1 to {config.util_window} values, got {len(window)}"
        )
    if abs(d_i) > config.delta_th:
        return PhaseEventKind.THROUGHPUT_CHANGE
    if len(window) == config.util_window:
        classes = {utilization_class(u, config) for u in window}
        if classes == {"over"}:
            return PhaseEventKind.OVER_UTILIZATION
        if classes == {"under"}:
            return PhaseEventKind.UNDER_UTILIZATION
    return None


def recurring_phase(
    th: float, u: float, closed: list[PhaseState], config: DetectorConfig
) -> int | None:
    """The id of the most recently closed phase that the interval resumes.

    ``closed`` is in closure order. A phase qualifies when the interval's
    throughput is within ``delta_th`` percent of the phase average (a phase
    that averaged zero takes only a zero throughput) and both share a
    utilization class.
    """
    for phase in closed[::-1]:
        if phase.running_avg > 0:
            near = abs(throughput_delta(th, phase.running_avg)) <= config.delta_th
        else:
            near = th == 0
        if near and utilization_class(phase.util_avg, config) == utilization_class(
            u, config
        ):
            return phase.phase_id
    return None


class ReferenceDetector:
    """Phase detection over a stream of intervals, one interval at a time.

    The utilization window starts empty at every phase boundary: the
    interval that opens a phase is not in it. The first interval of the
    stream opens phase 0 without a boundary, so its utilization counts.
    """

    def __init__(self, config: DetectorConfig) -> None:
        self.config = config
        self.phases: dict[int, PhaseState] = {}
        self.current: int | None = None
        self.closed: list[int] = []
        self.window: deque[float] = deque(maxlen=config.util_window)
        self.last_delta: float | None = None

    def _open(self, phase_id: int, th: float, u: float) -> None:
        self.phases[phase_id] = PhaseState(phase_id, th, 1, u)
        self.current = phase_id

    def observe(self, sample: IntervalSample) -> tuple[int, list[PhaseEvent]]:
        th = sample.retired_instructions / sample.tau
        u = effective_utilization(sample.util_int, sample.util_fp)
        if self.current is None:
            self._open(0, th, u)
            self.window.append(u)
            return 0, []

        phase = self.phases[self.current]
        if phase.running_avg > 0:
            d = throughput_delta(th, phase.running_avg)
        else:
            # An idle phase stays idle until anything retires.
            d = 0.0 if th == 0 else float("inf")
        self.last_delta = d
        self.window.append(u)
        kind = similarity_verdict(d, self.window, self.config)
        if kind is None:
            n = phase.count
            self.phases[phase.phase_id] = PhaseState(
                phase.phase_id,
                running_average(phase.running_avg, n, th),
                n + 1,
                running_average(phase.util_avg, n, u),
            )
            return phase.phase_id, []

        old_id = phase.phase_id
        self.closed.append(old_id)
        new_id = None
        if self.config.recurrence_matching:
            new_id = recurring_phase(
                th, u, [self.phases[i] for i in self.closed], self.config
            )
        recurred = new_id is not None
        if recurred:
            self.closed.remove(new_id)
        else:
            new_id = len(self.phases)
        self._open(new_id, th, u)
        self.window.clear()
        events = [PhaseEvent(sample.index, kind, old_id, new_id, d)]
        if recurred:
            events.append(
                PhaseEvent(sample.index, PhaseEventKind.PHASE_RECURRED, old_id, new_id, d)
            )
        return new_id, events


def segment_spans(
    segments: Sequence[WorkloadSegment], start: int, tau: int
) -> list[tuple[int, WorkloadSegment]]:
    """The (cycles, segment) spans of cycles ``[start, start + tau)``, in
    order, cut at segment boundaries and at the end of the workload."""
    spans = []
    seg_start = 0
    for segment in segments:
        seg_end = seg_start + segment.duration
        low, high = max(start, seg_start), min(start + tau, seg_end)
        if low < high:
            spans.append((high - low, segment))
        seg_start = seg_end
    return spans


def fold(terms) -> float:
    """Sum left to right from 0, the order the artifacts are pinned to.

    A one-term fold is ``0 + term``, which turns -0.0 into 0.0. (``sum()``
    over floats rounds this way only up to Python 3.11.)
    """
    total = 0
    for term in terms:
        total += term
    return total


def blended_interval(
    core: CoreSpec,
    segments: Sequence[WorkloadSegment],
    index: int,
    start: int,
    tau: int,
    rng,
    dead_cycles: int,
) -> IntervalSample | None:
    """Interval ``index`` of length up to ``tau`` from cycle ``start``, or
    None past the end of the workload.

    Demand blends by cycles, the fp share by demanded instructions and the
    noise amplitude by cycles; one noise draw scales the demand before it is
    clipped at the issue width. ``dead_cycles`` retire nothing. Each unit's
    occupancy is its achieved rate over its unit count, capped at 1.
    """
    spans = segment_spans(segments, start, tau)
    if not spans:
        return None
    covered = fold(cycles for cycles, _ in spans)
    demand_cycles = fold(cycles * seg.ipc_demand for cycles, seg in spans)
    base_demand = demand_cycles / covered
    if demand_cycles > 0:
        fp_fraction = (
            fold(cycles * seg.ipc_demand * seg.fp_fraction for cycles, seg in spans)
            / demand_cycles
        )
    else:
        fp_fraction = 0.0
    noise_amp = fold(cycles * seg.noise_amplitude for cycles, seg in spans) / covered
    jitter = rng.uniform(-noise_amp, noise_amp)
    ipc = min(base_demand * (1.0 + jitter), float(core.issue_width))
    live = max(covered - dead_cycles, 0)
    scale = live / covered
    util_int = min(1.0, ipc * (1.0 - fp_fraction) * scale / core.int_fu_count)
    util_fp = min(1.0, ipc * fp_fraction * scale / core.fp_fu_count)
    return IntervalSample(
        index, start, covered, int(round(ipc * live)), util_int, util_fp, core.name
    )


def expected_taus(spec: WorkloadSpec, config: ExperimentConfig) -> list[int]:
    """The ``tau`` column of a ``variable_tau`` run of ``spec`` in which no
    phase opens after the first and every verdict is steady:
    ``steady_upper_bound + 1`` intervals at ``tau_min``, ``steady_upper_bound``
    at each rung above it below ``tau_max``, then ``tau_max`` until the
    workload ends, the last interval cut short."""
    detector = config.detector
    rungs, tau, count = [], detector.tau_min, detector.steady_upper_bound + 1
    while tau < detector.tau_max:
        rungs += [tau] * count
        tau, count = tau * 2, detector.steady_upper_bound
    ladder = chain(rungs, repeat(detector.tau_max))
    taus, left = [], spec.total_cycles
    while left:
        taus.append(min(next(ladder), left))
        left -= taus[-1]
    return taus
