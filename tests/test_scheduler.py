from __future__ import annotations

import pytest

from phasesim import (
    CoreClass,
    MachineState,
    PhaseEvent,
    PhaseEventKind,
    SchedulingConflictError,
    a_core,
    apply_migration,
    b_core,
    decide_migration,
)


def make_machine(assignment=None):
    cores = [a_core("A0"), a_core("A1"), b_core("B0"), b_core("B1")]
    return MachineState(cores=cores, assignment=dict(assignment or {}))


def migration_event(index, process, from_core, to_core, reason):
    return PhaseEvent(
        index,
        PhaseEventKind.MIGRATION,
        None,
        None,
        None,
        process=process,
        from_core=from_core,
        to_core=to_core,
        reason=reason,
    )


def util_event(kind, index=10):
    return PhaseEvent(
        interval_index=index, kind=kind, old_phase_id=0, new_phase_id=1, d_i=0.0
    )


class TestMachineState:
    def test_duplicate_core_names_rejected(self):
        with pytest.raises(ValueError):
            MachineState(cores=[a_core("A0"), b_core("A0")])

    def test_shared_core_rejected(self):
        with pytest.raises(ValueError):
            make_machine({"p1": "A0", "p2": "A0"})

    def test_unknown_assignment_rejected(self):
        with pytest.raises(ValueError):
            make_machine({"p1": "C9"})

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            MachineState(cores=[a_core("A0")], migration_penalty=-1)

    def test_free_cores_keep_listed_order(self):
        machine = make_machine({"p1": "A0"})
        assert [c.name for c in machine.free_cores(CoreClass.A)] == ["A1"]
        assert [c.name for c in machine.free_cores(CoreClass.B)] == ["B0", "B1"]


class TestMigrationEvent:
    def test_must_change_cores(self):
        with pytest.raises(ValueError):
            migration_event(0, "p1", "A0", "A0", PhaseEventKind.OVER_UTILIZATION)

    def test_must_be_utilization_driven(self):
        with pytest.raises(ValueError):
            migration_event(0, "p1", "B0", "A0", PhaseEventKind.THROUGHPUT_CHANGE)


class TestDecideMigration:
    def test_over_utilized_small_core_moves_up(self):
        machine = make_machine({"p1": "B0"})
        event = util_event(PhaseEventKind.OVER_UTILIZATION)
        migration = decide_migration(event, machine.core("B0"), machine)
        assert migration is not None
        assert (migration.from_core, migration.to_core) == ("B0", "A0")
        assert migration.process == "p1"
        assert migration.interval_index == 10
        assert migration.kind is PhaseEventKind.MIGRATION
        assert migration.reason is PhaseEventKind.OVER_UTILIZATION
        assert (migration.old_phase_id, migration.new_phase_id, migration.d_i) == (
            None,
            None,
            None,
        )

    def test_over_utilized_big_core_stays(self):
        machine = make_machine({"p1": "A0"})
        event = util_event(PhaseEventKind.OVER_UTILIZATION)
        assert decide_migration(event, machine.core("A0"), machine) is None

    def test_under_utilized_big_core_moves_down(self):
        machine = make_machine({"p1": "A1"})
        event = util_event(PhaseEventKind.UNDER_UTILIZATION)
        migration = decide_migration(event, machine.core("A1"), machine)
        assert migration is not None
        assert (migration.from_core, migration.to_core) == ("A1", "B0")

    def test_under_utilized_small_core_stays(self):
        machine = make_machine({"p1": "B1"})
        event = util_event(PhaseEventKind.UNDER_UTILIZATION)
        assert decide_migration(event, machine.core("B1"), machine) is None

    def test_throughput_change_never_migrates(self):
        machine = make_machine({"p1": "B0"})
        event = util_event(PhaseEventKind.THROUGHPUT_CHANGE)
        assert decide_migration(event, machine.core("B0"), machine) is None

    def test_no_free_target_means_no_move(self):
        machine = make_machine({"p1": "B0", "q1": "A0", "q2": "A1"})
        event = util_event(PhaseEventKind.OVER_UTILIZATION)
        assert decide_migration(event, machine.core("B0"), machine) is None

    def test_first_free_core_wins_the_tie(self):
        machine = make_machine({"p1": "B0", "q1": "A0"})
        event = util_event(PhaseEventKind.OVER_UTILIZATION)
        migration = decide_migration(event, machine.core("B0"), machine)
        assert migration is not None and migration.to_core == "A1"

    def test_unassigned_core_means_no_move(self):
        machine = make_machine()
        event = util_event(PhaseEventKind.OVER_UTILIZATION)
        assert decide_migration(event, machine.core("B0"), machine) is None


class TestApplyMigration:
    def test_moves_the_assignment(self):
        machine = make_machine({"p1": "B0"})
        migration = migration_event(
            5, "p1", "B0", "A0", PhaseEventKind.OVER_UTILIZATION
        )
        apply_migration(machine, migration)
        assert machine.assignment == {"p1": "A0"}
        assert machine.is_free("B0")

    def test_occupied_target_conflicts(self):
        machine = make_machine({"p1": "B0", "q1": "A0"})
        migration = migration_event(
            5, "p1", "B0", "A0", PhaseEventKind.OVER_UTILIZATION
        )
        with pytest.raises(SchedulingConflictError):
            apply_migration(machine, migration)

    def test_stale_source_conflicts(self):
        machine = make_machine({"p1": "B1"})
        migration = migration_event(
            5, "p1", "B0", "A0", PhaseEventKind.OVER_UTILIZATION
        )
        with pytest.raises(SchedulingConflictError):
            apply_migration(machine, migration)

    def test_unknown_target_rejected(self):
        machine = make_machine({"p1": "B0"})
        migration = migration_event(
            5, "p1", "B0", "Z9", PhaseEventKind.OVER_UTILIZATION
        )
        with pytest.raises(ValueError):
            apply_migration(machine, migration)
