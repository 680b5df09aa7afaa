from __future__ import annotations

import pytest

from phasesim import (
    ExperimentConfig,
    PhaseEvent,
    PhaseEventKind,
    a_core,
    b_core,
    decide_migration,
    run_experiment,
)

#: Listed out of name order, so "first listed" and "first by name" differ.
CORES = [b_core("B1"), a_core("A1"), b_core("B0"), a_core("A0")]


def core(name):
    return next(c for c in CORES if c.name == name)


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


class TestMigrationEvent:
    def test_must_change_cores(self):
        with pytest.raises(ValueError):
            migration_event(0, "p1", "A0", "A0", PhaseEventKind.OVER_UTILIZATION)

    def test_must_be_utilization_driven(self):
        with pytest.raises(ValueError):
            migration_event(0, "p1", "B0", "A0", PhaseEventKind.THROUGHPUT_CHANGE)


class TestDecideMigration:
    def test_over_utilized_weak_core_moves_to_the_first_listed_strong_core(self):
        event = util_event(PhaseEventKind.OVER_UTILIZATION)
        migration = decide_migration(event, "p1", core("B0"), CORES)
        assert migration == migration_event(
            10, "p1", "B0", "A1", PhaseEventKind.OVER_UTILIZATION
        )

    def test_under_utilized_strong_core_moves_to_the_first_listed_weak_core(self):
        event = util_event(PhaseEventKind.UNDER_UTILIZATION)
        migration = decide_migration(event, "p1", core("A0"), CORES)
        assert migration == migration_event(
            10, "p1", "A0", "B1", PhaseEventKind.UNDER_UTILIZATION
        )

    @pytest.mark.parametrize(
        "kind, name",
        [
            (PhaseEventKind.OVER_UTILIZATION, "A0"),
            (PhaseEventKind.OVER_UTILIZATION, "A1"),
            (PhaseEventKind.UNDER_UTILIZATION, "B0"),
            (PhaseEventKind.UNDER_UTILIZATION, "B1"),
        ],
    )
    def test_process_already_on_the_target_class_stays(self, kind, name):
        assert decide_migration(util_event(kind), "p1", core(name), CORES) is None

    @pytest.mark.parametrize(
        "kind, cores",
        [
            (PhaseEventKind.OVER_UTILIZATION, [b_core("B0"), b_core("B1")]),
            (PhaseEventKind.UNDER_UTILIZATION, [a_core("A0"), a_core("A1")]),
        ],
        ids=["no_strong_core", "no_weak_core"],
    )
    def test_machine_without_the_target_class_declines(self, kind, cores):
        assert decide_migration(util_event(kind), "p1", cores[0], cores) is None

    @pytest.mark.parametrize(
        "kind",
        [
            PhaseEventKind.THROUGHPUT_CHANGE,
            PhaseEventKind.PHASE_RECURRED,
            PhaseEventKind.TAU_DOUBLED,
            PhaseEventKind.TAU_HALVED,
        ],
    )
    @pytest.mark.parametrize("name", ["A0", "B0"])
    def test_non_utilization_events_never_migrate(self, kind, name):
        assert decide_migration(util_event(kind), "p1", core(name), CORES) is None


class TestSchedulerInRun:
    def test_weak_only_machine_never_migrates(self):
        # fft_like from a weak core raises over-utilization, which finds no
        # strong core to move to; the run is then the scheduler-off run.
        config = dict(
            workload_preset="fft_like",
            fixed_tau=100_000,
            machine_cores=[b_core("B0"), b_core("B1")],
            start_core="B0",
        )
        result = run_experiment(ExperimentConfig(**config))
        assert result.summary["event_counts"]["over_util"] > 0
        assert result.migrations == []
        assert result.summary["migration_count"] == 0
        unscheduled = run_experiment(ExperimentConfig(scheduler_enabled=False, **config))
        assert result.rows == unscheduled.rows
        assert result.events == unscheduled.events

    def test_a_utilization_change_that_recurs_still_migrates(self):
        # Demand 3 pins a weak core's integer units. At the fifth interval the
        # over-utilization change closes phase 0, and phase 0 is also the
        # closed phase it recurs to: the change comes first, then its
        # recurrence note, and the change moves the process to a strong core.
        result = run_experiment(
            ExperimentConfig(
                workload_preset="steady",
                preset_args={"demand": 3.0, "total_cycles": 1_000_000},
                fixed_tau=100_000,
                start_core="B0",
            )
        )
        assert [(e.interval_index, e.kind) for e in result.events] == [
            (4, PhaseEventKind.OVER_UTILIZATION),
            (4, PhaseEventKind.PHASE_RECURRED),
            (4, PhaseEventKind.MIGRATION),
        ]
        (migration,) = result.migrations
        assert (migration.from_core, migration.to_core) == ("B0", "A0")
        assert migration.reason is PhaseEventKind.OVER_UTILIZATION
