"""Class-based migration policy for an asymmetric machine.

Over-utilization sends a process to a free strong (class A) core, sustained
under-utilization returns it to a weak (class B) one. Throughput-only phase
changes never move anything: same kind of work, different amount.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core_model import CoreClass, CoreSpec
from .detector import PhaseEvent, PhaseEventKind


class SchedulingConflictError(Exception):
    pass


@dataclass
class MachineState:
    """Cores plus the process-to-core assignment.

    The assignment is kept bijective: a process sits on exactly one core and
    a core hosts at most one process. Cores keep their listed order; ties
    among free cores break toward the earliest listed.
    """

    cores: list[CoreSpec]
    assignment: dict[str, str] = field(default_factory=dict)
    migration_penalty: int = 10_000

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError("machine needs at least one core")
        names = [core.name for core in self.cores]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate core names in {names}")
        if self.migration_penalty < 0:
            raise ValueError(
                f"migration_penalty must be >= 0, got {self.migration_penalty}"
            )
        occupied = list(self.assignment.values())
        if len(set(occupied)) != len(occupied):
            raise ValueError("two processes assigned to one core")
        for process, core_name in self.assignment.items():
            if core_name not in names:
                raise ValueError(f"process {process!r} assigned to unknown core {core_name!r}")

    def core(self, name: str) -> CoreSpec:
        for core in self.cores:
            if core.name == name:
                return core
        raise ValueError(f"no core named {name!r}")

    def is_free(self, name: str) -> bool:
        return name not in self.assignment.values()

    def free_cores(self, core_class: CoreClass) -> list[CoreSpec]:
        return [
            core
            for core in self.cores
            if core.core_class is core_class and self.is_free(core.name)
        ]

    def process_on(self, core_name: str) -> str | None:
        for process, name in self.assignment.items():
            if name == core_name:
                return process
        return None


def decide_migration(
    event: PhaseEvent, current_core: CoreSpec, machine: MachineState
) -> PhaseEvent | None:
    """Pick a migration for a utilization-driven phase event, if one helps.

    The migration is a :class:`PhaseEvent` of kind ``MIGRATION`` whose
    ``reason`` is the utilization event's kind. Returns None when the process
    already sits on the right class, no core of the target class is free, or
    the event carries no utilization cause.
    """
    if event.kind is PhaseEventKind.OVER_UTILIZATION:
        if current_core.core_class is CoreClass.A:
            return None
        target_class = CoreClass.A
    elif event.kind is PhaseEventKind.UNDER_UTILIZATION:
        if current_core.core_class is CoreClass.B:
            return None
        target_class = CoreClass.B
    else:
        return None
    free = machine.free_cores(target_class)
    if not free:
        return None
    process = machine.process_on(current_core.name)
    if process is None:
        return None
    # A migration carries no phase ids and no throughput deviation.
    return PhaseEvent(
        event.interval_index, PhaseEventKind.MIGRATION, None, None, None,
        process=process, from_core=current_core.name, to_core=free[0].name,
        reason=event.kind,
    )


def apply_migration(machine: MachineState, migration: PhaseEvent) -> None:
    """Move the process; the caller charges the penalty to its next interval."""
    machine.core(migration.to_core)  # unknown target raises here
    if not machine.is_free(migration.to_core):
        raise SchedulingConflictError(
            f"core {migration.to_core!r} is occupied by "
            f"{machine.process_on(migration.to_core)!r}"
        )
    if machine.assignment.get(migration.process) != migration.from_core:
        raise SchedulingConflictError(
            f"process {migration.process!r} is not on {migration.from_core!r}"
        )
    machine.assignment[migration.process] = migration.to_core
