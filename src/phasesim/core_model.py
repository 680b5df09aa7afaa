"""Analytic stand-in for cycle-accurate core simulation.

:func:`simulate_interval` clips an interval's demanded IPC at the core's
issue width and reports each functional unit's occupancy as its achieved
rate over its unit count, capped at 1. The model is deliberately
transparent: with zero noise every output is predictable in closed form,
which keeps behaviour auditable end to end. A core is its issue width and
its integer and floating-point unit counts; instruction windows, caches and
branch predictors are not modelled.
"""

from __future__ import annotations

import math
import random
import reprlib
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .records import MAX_RETIRED, IntervalSample, check_fields


class CoreClass(Enum):
    A = "A"  # strong: wide issue
    B = "B"  # weak: narrow issue


@dataclass(frozen=True)
class CoreSpec:
    """Static capabilities of one core.

    ``int_fu_count`` defaults to the issue width and ``fp_fu_count`` to half
    of it (at least one unit).
    """

    name: str
    core_class: CoreClass
    issue_width: int
    int_fu_count: int | None = None
    fp_fu_count: int | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.name:
            raise ValueError("core name must be non-empty")
        if self.int_fu_count is None:
            object.__setattr__(self, "int_fu_count", self.issue_width)
        if self.fp_fu_count is None:
            object.__setattr__(self, "fp_fu_count", max(1, self.issue_width // 2))
        # simulate_interval divides float rates by these counts.
        for name in ("issue_width", "int_fu_count", "fp_fu_count"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_RETIRED:
                raise ValueError(
                    f"{name} must be >= 1 and fit a 64-bit counter, "
                    f"got {reprlib.repr(value)}"
                )


def a_core(name: str) -> CoreSpec:
    """Strong core: 4-wide issue, 4 integer and 2 floating-point units."""
    return CoreSpec(name, CoreClass.A, issue_width=4)


def b_core(name: str) -> CoreSpec:
    """Weak core: 2-wide issue, 2 integer units and 1 floating-point unit."""
    return CoreSpec(name, CoreClass.B, issue_width=2)


@dataclass(frozen=True)
class WorkloadSegment:
    """A stretch of cycles with homogeneous demand.

    ``ipc_demand`` is what the code would retire per cycle on an infinitely
    wide core; ``fp_fraction`` the share of those instructions that need the
    floating-point units; ``noise_amplitude`` the half-width of the uniform
    relative jitter applied per interval.
    """

    duration: int
    ipc_demand: float
    fp_fraction: float = 0.0
    noise_amplitude: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("ipc_demand", "fp_fraction", "noise_amplitude"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.duration < 1:
            raise ValueError(f"segment duration must be >= 1 cycle, got {self.duration}")
        if self.ipc_demand < 0:
            raise ValueError(f"ipc_demand must be >= 0, got {self.ipc_demand}")
        if not 0.0 <= self.fp_fraction <= 1.0:
            raise ValueError(f"fp_fraction must lie in [0, 1], got {self.fp_fraction}")
        if not 0.0 <= self.noise_amplitude < 1.0:
            raise ValueError(
                f"noise_amplitude must lie in [0, 1), got {self.noise_amplitude}"
            )


class SegmentCursor:
    """Single-pass position over a segment list; :func:`simulate_interval`
    advances it.

    ``position`` is the next sample's start cycle, ``next_index`` its index.
    ``_seg`` is the index of the segment that holds ``position`` (the
    segment count once the workload is done) and ``_seg_end`` the cycle at
    which that segment ends. ``_memo`` holds the blend of the last interval
    that ended inside ``_seg`` (base demand, fp share, one minus the fp
    share, and the jitter's low end and width), and ``_memo_need`` its
    length. The blend of a span depends only on its segment and its length,
    so the memo holds for any later interval of that length that also ends
    inside ``_seg``. An interval that crosses a segment end or ends on one
    sets ``_memo_need`` to 0, which no interval matches, so a memo never
    outlives its segment.
    """

    def __init__(self, segments: Sequence[WorkloadSegment]) -> None:
        self._segments = list(segments)
        if not self._segments:
            raise ValueError("workload needs at least one segment")
        self.total_cycles = sum(s.duration for s in self._segments)
        self.position = 0
        self.next_index = 0
        self._seg = 0
        self._seg_end = self._segments[0].duration
        self._memo_need = 0
        self._memo: tuple = ()


def check_retire_range(total_cycles: int, issue_width: int) -> None:
    """Refuse a workload on which one interval could retire more instructions
    than a 64-bit counter holds.

    :func:`simulate_interval` retires ``round(ipc * cycles)`` in floats, with
    ``ipc`` at most the issue width, so a product that rounds up to 2**63 is
    refused as well.
    """
    if (
        issue_width * total_cycles > MAX_RETIRED
        or float(issue_width) * total_cycles >= 2.0**63
    ):
        raise ValueError(
            f"workload covers {total_cycles} cycles: at issue width {issue_width} "
            f"an interval could retire more than {MAX_RETIRED} instructions, the "
            "range of a 64-bit counter"
        )


def simulate_interval(
    core: CoreSpec,
    cursor: SegmentCursor,
    tau: int,
    rng: random.Random,
    dead_cycles: int = 0,
) -> IntervalSample | None:
    """Produce the next profiling interval, or None at the end of the workload.

    An interval spanning a segment boundary blends the demand pro rata by
    cycles (the fp share weighted by demanded instructions) before clipping
    at the issue width. Exactly one noise draw is consumed per interval: the
    relative jitter is ``rng.uniform(-amp, amp)``, written out as that
    method's own formula ``-amp + (amp - -amp) * rng.random()``. The final
    interval is truncated so the stream tiles the workload exactly.
    ``dead_cycles`` models migration cost: that many cycles retire nothing
    while still counting toward the interval.
    An interval of the memo's length that ends inside the cursor's segment
    reuses the memo (see :class:`SegmentCursor`) instead of walking the
    segments: it is the blend that walk would compute. With no dead cycles
    the live share is left out of the unit rates, as it is exactly 1.0 and
    ``x * 1.0`` is ``x`` for every float.
    The sample skips :class:`IntervalSample`'s check: ``tau`` and
    ``dead_cycles`` must be ints, the caller has passed the workload through
    :func:`check_retire_range`, and utilization is clipped.
    """
    if type(tau) is not int or tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if type(dead_cycles) is not int or dead_cycles < 0:
        raise ValueError(f"dead_cycles must be >= 0, got {dead_cycles}")
    need = cursor.total_cycles - cursor.position
    if need <= 0:
        return None
    if tau < need:
        need = tau

    index, start = cursor.next_index, cursor.position
    end = start + need
    cursor.next_index, cursor.position = index + 1, end
    covered = need
    if need == cursor._memo_need and end < cursor._seg_end:
        base_demand, fp_fraction, int_share, low, width = cursor._memo
    else:
        segments, seg, seg_end = cursor._segments, cursor._seg, cursor._seg_end
        offset = segments[seg].duration - (seg_end - start)
        # Per-span terms are summed in span order from 0, so a one-span
        # interval rounds as ``0 + term`` (which turns -0.0 into 0.0).
        demand_cycles = fp_cycles = noise_cycles = 0
        while need:
            segment = segments[seg]
            chunk = segment.duration - offset
            if need < chunk:
                chunk, offset = need, offset + need
            else:
                seg, offset = seg + 1, 0
            need -= chunk
            demand = chunk * segment.ipc_demand
            demand_cycles += demand
            fp_cycles += demand * segment.fp_fraction
            noise_cycles += chunk * segment.noise_amplitude
        cursor._seg = seg
        if seg < len(segments):
            cursor._seg_end = end + segments[seg].duration - offset

        base_demand = demand_cycles / covered
        fp_fraction = fp_cycles / demand_cycles if demand_cycles > 0 else 0.0
        noise_amp = noise_cycles / covered
        int_share = 1.0 - fp_fraction
        low, width = -noise_amp, noise_amp - -noise_amp
        if end < seg_end:  # within one segment: the blend holds for its length
            cursor._memo_need = covered
            cursor._memo = base_demand, fp_fraction, int_share, low, width
        else:  # it crossed or reached a segment end
            cursor._memo_need = 0

    # uniform's formula and plain comparisons give what uniform, min and max
    # would, ties and NaN included, without a generic call per interval.
    # noise_amplitude < 1 keeps the jittered demand >= 0; clip at the width.
    jitter = low + width * rng.random()
    ipc = base_demand * (1.0 + jitter)
    if core.issue_width < ipc:
        ipc = float(core.issue_width)

    if dead_cycles:
        live = covered - dead_cycles if covered > dead_cycles else 0
        scale = live / covered
        retired = round(ipc * live)
        int_rate = ipc * int_share * scale / core.int_fu_count
        fp_rate = ipc * fp_fraction * scale / core.fp_fu_count
    else:  # the scale would be exactly 1.0, and x * 1.0 is x
        retired = round(ipc * covered)
        int_rate = ipc * int_share / core.int_fu_count
        fp_rate = ipc * fp_fraction / core.fp_fu_count
    util_int = int_rate if int_rate < 1.0 else 1.0
    util_fp = fp_rate if fp_rate < 1.0 else 1.0

    # The one sample built without IntervalSample's check: its values are
    # valid by construction, and the constructor would add about 0.3 us to
    # this call's 0.9 (Python 3.11, 2-vCPU x86).
    sample = object.__new__(IntervalSample)
    sample.index, sample.start_cycle, sample.tau = index, start, covered
    sample.retired_instructions, sample.util_int = retired, util_int
    sample.util_fp, sample.source_core = util_fp, core.name
    return sample
