"""Class-based migration policy for one process on an asymmetric machine.

The machine runs a single process, so every core but the current one is
free. Over-utilization sends the process to a strong (class A) core,
sustained under-utilization returns it to a weak (class B) one. Throughput-only
phase changes never move anything: same kind of work, different amount.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core_model import CoreClass, CoreSpec
from .detector import PhaseEvent, PhaseEventKind

_TARGET_CLASS = {
    PhaseEventKind.OVER_UTILIZATION: CoreClass.A,
    PhaseEventKind.UNDER_UTILIZATION: CoreClass.B,
}


def decide_migration(
    event: PhaseEvent, process: str, current_core: CoreSpec, cores: Sequence[CoreSpec]
) -> PhaseEvent | None:
    """Pick a migration for a utilization-driven phase event, if one helps.

    The migration is a :class:`PhaseEvent` of kind ``MIGRATION`` to the first
    listed core of the target class, and its ``reason`` is the utilization
    event's kind. Returns None in exactly three cases: the event is not over-
    or under-utilization, the process already sits on the target class, or
    ``cores`` lists no core of that class.
    """
    target_class = _TARGET_CLASS.get(event.kind)
    if target_class is None or current_core.core_class is target_class:
        return None
    for core in cores:
        if core.core_class is target_class:
            # A migration carries no phase ids and no throughput deviation.
            return PhaseEvent(
                event.interval_index, PhaseEventKind.MIGRATION, None, None, None,
                process=process, from_core=current_core.name, to_core=core.name,
                reason=event.kind,
            )
    return None
