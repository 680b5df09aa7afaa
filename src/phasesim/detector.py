"""Throughput/utilization phase detection over profiling intervals.

A program phase is a contiguous stretch of intervals whose behaviour stays
similar. Each interval carries an instruction count and the occupancy of the
integer and floating-point units; an interval stays in the current phase
unless its throughput, in instructions per cycle so that intervals of
different lengths compare, deviates from the phase's running average by more
than a threshold, or the effective utilization pins above/below the configured
bounds for a full window of consecutive intervals. Closed phases are kept
around so a recurring phase can be recognised instead of minting a new id.
"""

from __future__ import annotations

import builtins
import math
import reprlib
import sys
from dataclasses import dataclass, is_dataclass
from enum import Enum, EnumMeta
from typing import Reversible


class PhaseEventKind(Enum):
    THROUGHPUT_CHANGE = "throughput_change"
    OVER_UTILIZATION = "over_util"
    UNDER_UTILIZATION = "under_util"
    TAU_DOUBLED = "tau_doubled"
    TAU_HALVED = "tau_halved"
    PHASE_RECURRED = "phase_recurred"
    MIGRATION = "migration"


#: Event kinds that close the current phase and open another one.
PHASE_CHANGE_KINDS = frozenset(
    {
        PhaseEventKind.THROUGHPUT_CHANGE,
        PhaseEventKind.OVER_UTILIZATION,
        PhaseEventKind.UNDER_UTILIZATION,
    }
)


#: The largest count a sample holds, the range of a 64-bit counter: it bounds
#: instruction counts, start cycles and interval lengths alike. Per-phase sums
#: of counts this size stay finite, so summary.json holds no Infinity.
MAX_RETIRED = 2**63 - 1

#: The value-type rule of every record the program reads: for each field
#: annotation, the types a value may have, by type identity (a bool, though an
#: int subclass, is not a number), and their name in a message.
_VALUE_TYPES = {
    "int": ((int,), "an int"),
    "float": ((float, int), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "a bool"),
}


def typed_value(name: str, value, annotation: str):
    """``value`` as a field ``name`` annotated ``annotation`` holds it.

    A value of another type is refused with a ``ValueError`` naming the
    field; an int in a ``"float"`` field becomes a float, and one too large
    for a float is refused.
    """
    kinds, noun = _VALUE_TYPES[annotation]
    if type(value) not in kinds:
        raise ValueError(f"{name} must be {noun}, got {reprlib.repr(value)}")
    if type(value) is int and annotation == "float":
        try:
            return float(value)
        except OverflowError:
            raise ValueError(
                f"{name} does not fit a float, got {reprlib.repr(value)}"
            ) from None
    return value


def check_fields(record) -> None:
    """Hold each field of the dataclass ``record`` to its annotation, in
    declaration order, naming the first that fails in a ``ValueError``.

    A field annotated ``int``, ``float``, ``str`` or ``bool`` keeps the value
    :func:`typed_value` returns for it; one annotated with the name ``R`` of
    an enum or a record class in the record's module must hold exactly that
    class, and one annotated ``list[R]`` or ``tuple[R, ...]`` exactly that
    container of exactly ``R``. An annotation ``X | None`` also takes None.
    Other annotations (``Path``, ``dict[...]``) are left to the record.
    """
    for name, f in record.__dataclass_fields__.items():
        value = getattr(record, name)
        annotation = f.type.removesuffix(" | None")
        if value is None and annotation != f.type:
            continue
        types = _VALUE_TYPES.get(annotation)
        if types is None:
            outer, _, inner = annotation.partition("[")
            inner = inner.removesuffix(", ...]" if outer == "tuple" else "]")
            kind = vars(sys.modules[type(record).__module__]).get(inner or outer)
            if not (isinstance(kind, EnumMeta) or is_dataclass(kind)):
                continue
            if inner:
                container = getattr(builtins, outer)
                if type(value) is not container or any(type(v) is not kind for v in value):
                    raise ValueError(
                        f"{name} must be a {outer} of {inner}, got {reprlib.repr(value)}"
                    )
            elif type(value) is not kind:
                raise ValueError(f"{name} must be a {annotation}, got {reprlib.repr(value)}")
        elif type(value) is not types[0][0]:  # not the annotation's own type
            object.__setattr__(record, name, typed_value(name, value, annotation))


class UtilizationClass(Enum):
    UNDER = "under"
    NORMAL = "normal"
    OVER = "over"


class TraceError(Exception):
    pass


class TraceValidationError(TraceError):
    """A decoded row violates the sample invariants."""

    def __init__(self, message: str, row_index: int) -> None:
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


# Not frozen: built once per interval; frozen costs an object.__setattr__ per field.
@dataclass(slots=True, init=False)
class IntervalSample:
    """Measurements for one profiling interval.

    ``util_int`` and ``util_fp`` are occupancy fractions of the integer and
    floating-point units over the interval. ``tau`` is the interval length in
    cycles; consecutive samples are expected to tile the cycle axis without
    gaps (``start_cycle + tau`` of one sample is the next one's start).
    Building one checks it: exact types (int counts, float utilizations, a
    str core), an index >= 0, counts that fit a 64-bit counter (``tau`` at
    least 1 cycle) and utilizations in [0, 1] (NaN is not). Values that fail
    are converted under :func:`check_fields`, so an int utilization is held as
    a float, or refused naming the first bad field. Both trace loaders build
    through this check; only the core model's samples, valid by
    construction, skip it.
    """

    index: int
    start_cycle: int
    tau: int
    retired_instructions: int
    util_int: float
    util_fp: float
    source_core: str = ""

    # Written by hand so the check tests locals, the cheapest place for it.
    def __init__(
        self, index: int, start_cycle: int, tau: int, retired_instructions: int,
        util_int: float, util_fp: float, source_core: str = "",
    ) -> None:
        self.index, self.start_cycle, self.tau = index, start_cycle, tau
        self.retired_instructions, self.util_int = retired_instructions, util_int
        self.util_fp, self.source_core = util_fp, source_core
        if (
            type(index) is int
            and type(start_cycle) is int
            and type(tau) is int
            and type(retired_instructions) is int
            and type(util_int) is float
            and type(util_fp) is float
            and type(source_core) is str
            and 0 <= index
            and 0 <= start_cycle <= MAX_RETIRED
            and 1 <= tau <= MAX_RETIRED
            and 0 <= retired_instructions <= MAX_RETIRED
            and 0.0 <= util_int <= 1.0
            and 0.0 <= util_fp <= 1.0
        ):
            return
        # Convert each value, or name the first of the wrong type; then name
        # the first out of range, if any is.
        check_fields(self)
        if self.index < 0:
            raise ValueError(f"sample index must be >= 0, got {self.index}")
        if not 0 <= self.start_cycle <= MAX_RETIRED:
            raise ValueError(
                "start_cycle must be >= 0 and fit a 64-bit counter, got "
                f"{reprlib.repr(self.start_cycle)}"
            )
        if not 1 <= self.tau <= MAX_RETIRED:
            raise ValueError(
                "tau must be >= 1 cycle and fit a 64-bit counter, got "
                f"{reprlib.repr(self.tau)}"
            )
        if not 0 <= self.retired_instructions <= MAX_RETIRED:
            raise ValueError(
                "retired_instructions must be >= 0 and fit a 64-bit counter, got "
                f"{reprlib.repr(self.retired_instructions)}"
            )
        if not 0.0 <= self.util_int <= 1.0:
            raise ValueError(f"util_int must lie in [0, 1], got {self.util_int}")
        if not 0.0 <= self.util_fp <= 1.0:
            raise ValueError(f"util_fp must lie in [0, 1], got {self.util_fp}")


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds and knobs for phase detection and interval adjustment.

    Percentage-valued fields (``delta_th``, ``steady_band``) are on a 0..100
    scale; the utilization bounds are fractions on 0..1. ``tau_max`` must be
    ``tau_min`` times a power of two so interval lengths stay on a doubling
    ladder.
    """

    delta_th: float = 100.0
    delta_over: float = 0.95
    delta_under: float = 0.30
    util_window: int = 5
    steady_band: float = 1.0
    steady_upper_bound: int = 75
    tau_min: int = 100_000
    tau_max: int = 6_400_000
    recurrence_matching: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("delta_th", "delta_over", "delta_under", "steady_band"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.delta_th <= 0:
            raise ValueError(f"delta_th must be > 0, got {self.delta_th}")
        if not 0.0 <= self.delta_under < self.delta_over <= 1.0:
            raise ValueError(
                "utilization bounds must satisfy 0 <= delta_under < delta_over <= 1, "
                f"got delta_under={self.delta_under}, delta_over={self.delta_over}"
            )
        if self.util_window < 1:
            raise ValueError(f"util_window must be >= 1, got {self.util_window}")
        if self.steady_band <= 0:
            raise ValueError(f"steady_band must be > 0, got {self.steady_band}")
        if self.steady_upper_bound < 1:
            raise ValueError(
                f"steady_upper_bound must be >= 1, got {self.steady_upper_bound}"
            )
        if self.tau_min < 1:
            raise ValueError(f"tau_min must be >= 1, got {self.tau_min}")
        if not self.on_ladder(self.tau_max):
            raise ValueError(
                f"tau_max must be tau_min times a power of two, got "
                f"tau_min={self.tau_min}, tau_max={self.tau_max}"
            )

    def on_ladder(self, tau: int) -> bool:
        """True when ``tau`` is ``tau_min * 2**k`` and at most ``tau_max``."""
        quotient, remainder = divmod(tau, self.tau_min)
        return (
            remainder == 0
            and quotient >= 1
            and quotient & (quotient - 1) == 0
            and tau <= self.tau_max
        )


# Not frozen: the open phase is updated in place at every similar interval.
@dataclass(slots=True)
class PhaseState:
    """Incremental statistics for one phase.

    ``running_avg`` and ``util_avg`` are arithmetic means over the intervals
    assigned since the phase was last (re)opened; ``count`` is that interval
    count. A re-opened recurring phase starts from a fresh seed.
    """

    phase_id: int
    running_avg: float = 0.0
    count: int = 0
    util_avg: float = 0.0


# Not frozen: built at every phase change; frozen costs an object.__setattr__ per field.
@dataclass(slots=True)
class PhaseEvent:
    """Something the detector, interval controller or scheduler decided at an
    interval.

    For phase changes ``old_phase_id``/``new_phase_id`` are the closed and
    opened phases; for interval-length events they are both the current
    phase. ``d_i`` is the percent throughput deviation observed at the
    triggering interval. A migration leaves those three ``None`` and names
    the ``process`` moved ``from_core`` ``to_core`` and the utilization
    event kind that was its ``reason``.
    """

    interval_index: int
    kind: PhaseEventKind
    old_phase_id: int | None
    new_phase_id: int | None
    d_i: float | None
    process: str | None = None
    from_core: str | None = None
    to_core: str | None = None
    reason: PhaseEventKind | None = None

    def __post_init__(self) -> None:
        if self.kind is PhaseEventKind.MIGRATION:
            if self.from_core == self.to_core:
                raise ValueError("migration must change cores")
            if self.reason not in (
                PhaseEventKind.OVER_UTILIZATION,
                PhaseEventKind.UNDER_UTILIZATION,
            ):
                raise ValueError(f"migrations are utilization-driven, got {self.reason}")


def utilization_class(u: float, config: DetectorConfig) -> UtilizationClass:
    if u > config.delta_over:
        return UtilizationClass.OVER
    if u < config.delta_under:
        return UtilizationClass.UNDER
    return UtilizationClass.NORMAL


def match_recurring_phase(
    candidate_th: float,
    candidate_util: float,
    closed_phases: Reversible[PhaseState],
    config: DetectorConfig,
) -> int | None:
    """Find a closed phase the candidate interval could be resuming.

    ``closed_phases`` is ordered oldest-closed first; the most recently
    closed acceptable phase wins. A phase is acceptable when its stored
    average throughput is within ``delta_th`` percent of the candidate and
    its utilization class (under/normal/over) matches the candidate's.
    """
    cand_class = utilization_class(candidate_util, config)
    for phase in reversed(closed_phases):
        if phase.running_avg > 0:
            diff = abs(candidate_th - phase.running_avg) * 100.0 / phase.running_avg
            if diff > config.delta_th:
                continue
        elif candidate_th != 0:
            continue
        if utilization_class(phase.util_avg, config) == cand_class:
            return phase.phase_id
    return None


class PhaseDetector:
    """Streaming phase classifier.

    Feed intervals in index order, each starting where the previous one
    ended, via :meth:`observe`; the detector assigns each to a phase and
    reports change events. The utilization window is cleared whenever a phase
    boundary is crossed, so a utilization streak never spans two phases. One
    instance tracks one process and carries its phase table across core
    migrations; instances are not thread-safe.
    """

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self.phases: dict[int, PhaseState] = {}
        self.current_phase_id: int | None = None
        self.last_index: int | None = None
        # Where the last observed interval ended: the next one starts there.
        self._end_cycle = 0
        #: Percent deviation computed at the most recent interval, None while
        #: the deviation was undefined (first interval ever).
        self.last_delta: float | None = None
        #: The most recent interval's effective utilization.
        self.last_utilization = 0.0
        # Closed phases in closure order, oldest first. A closed phase's
        # state cannot change until it is re-opened and leaves this table.
        self._closed: dict[int, PhaseState] = {}
        # The utilization window as two run lengths: how many of the newest
        # intervals since the last phase boundary sat above delta_over, and
        # below delta_under. A full window of either is a run of util_window.
        self._over_run = 0
        self._under_run = 0

    @property
    def current_phase(self) -> PhaseState:
        if self.current_phase_id is None:
            raise ValueError("no interval observed yet")
        return self.phases[self.current_phase_id]

    def observe(self, sample: IntervalSample) -> tuple[int, list[PhaseEvent]]:
        """Assign one interval to a phase, returning (phase_id, events).

        The interval leaves the current phase when its throughput deviates
        from the phase average by more than ``delta_th`` percent, or when the
        last ``util_window`` intervals since the phase opened all sat above
        ``delta_over`` (or all below ``delta_under``); the new phase is a
        :func:`match_recurring_phase` hit or a fresh id. Events are returned
        exactly at a phase change, in a new list the caller may extend.

        The stream rule is checked here alone, for trace files and samples in
        memory alike: a sample whose index is not the next from 0, or that
        does not start where the previous one ended, raises
        :class:`TraceValidationError` naming its row.
        """
        expected = 0 if self.last_index is None else self.last_index + 1
        index, start = sample.index, sample.start_cycle
        if index != expected or (expected and start != self._end_cycle):
            raise TraceValidationError(
                _sequence_error(expected, index, start, self._end_cycle), expected
            )
        self.last_index, self._end_cycle = expected, start + sample.tau

        config = self.config
        th = sample.retired_instructions / sample.tau
        # Effective utilization: the busier unit, the integer one on a tie.
        u = self.last_utilization = (
            sample.util_fp if sample.util_fp > sample.util_int else sample.util_int
        )
        self._over_run = self._over_run + 1 if u > config.delta_over else 0
        self._under_run = self._under_run + 1 if u < config.delta_under else 0

        if self.current_phase_id is None:
            self._seed_phase(0, th, u)
            self.last_delta = None
            return self.current_phase_id, []

        current = self.phases[self.current_phase_id]
        avg = current.running_avg
        if avg > 0:
            d = (th - avg) * 100.0 / avg
        else:
            # A phase seeded on zero throughput: nothing changed while the
            # stream stays idle, any activity at all is a phase change.
            d = 0.0 if th == 0 else math.inf
        self.last_delta = d

        if abs(d) > config.delta_th:
            kind = PhaseEventKind.THROUGHPUT_CHANGE
        elif self._over_run >= config.util_window:
            kind = PhaseEventKind.OVER_UTILIZATION
        elif self._under_run >= config.util_window:
            kind = PhaseEventKind.UNDER_UTILIZATION
        else:
            count = current.count
            new_count = current.count = count + 1
            current.running_avg = (th + avg * count) / new_count
            current.util_avg = (u + current.util_avg * count) / new_count
            return current.phase_id, []

        old_id = current.phase_id
        self._closed[old_id] = current
        matched: int | None = None
        if config.recurrence_matching:
            matched = match_recurring_phase(th, u, self._closed.values(), config)
        if matched is None:
            # Every minted id enters the phase table at once and never leaves.
            new_id = len(self.phases)
        else:
            new_id = matched
            del self._closed[matched]
        self._seed_phase(new_id, th, u)
        self._over_run = self._under_run = 0

        events = [PhaseEvent(sample.index, kind, old_id, new_id, d)]
        if matched is not None:
            events.append(
                PhaseEvent(sample.index, PhaseEventKind.PHASE_RECURRED, old_id, new_id, d)
            )
        return new_id, events

    def _seed_phase(self, phase_id: int, th: float, u: float) -> None:
        self.phases[phase_id] = PhaseState(phase_id, th, 1, u)
        self.current_phase_id = phase_id


def _sequence_error(row_index: int, index: int, start: int, end: int) -> str:
    """Why the sample holding ``index`` and starting at ``start`` cannot be
    row ``row_index`` of a stream whose previous row ended at ``end``."""
    if index == row_index:
        return f"start_cycle {start} leaves a gap (expected {end})"
    if row_index == 0:
        return f"the first index is {index}, expected 0"
    return f"index {index} does not follow {row_index - 1}"
