"""Experiment driver: simulation and trace-detection runs with CSV artifacts.

Every run produces three files in its output directory: ``scatter.csv`` (one
row per interval, annotated with the most significant event), ``events.csv``
(every event, one row each) and ``summary.json`` (counts and per-phase
means). Artifacts are written only after the run completes, so a failing run
leaves no partial outputs. Scatter rows are built from ``RunResult.table``,
five columns, and ``RunResult.events``, which annotate them;
``RunResult.rows`` is a list of ``ScatterRow`` built at its first read and kept.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .config import ConfigError, ExperimentConfig, Mode
from .core_model import SegmentCursor, check_retire_range, simulate_interval
from .detector import (
    DetectorConfig,
    IntervalSample,
    PhaseDetector,
    PhaseEvent,
    PhaseEventKind,
)
from .interval_control import IntervalController
from .scheduler import decide_migration
from .workload import (
    WorkloadSpec,
    csv_writers,
    detect_format,
    generate_workload,
    json_field,
    load_workload_spec,
    preset,
    recorded,
)

SUMMARY_SCHEMA_VERSION = 1


class SummaryField(NamedTuple):
    """A summary.json key's row in :data:`SUMMARY_FIELDS`."""

    type: str  # its value's type as json.load gives it, an annotation typed_value reads
    compared: bool = False  # whether compare-overhead reads it, so load_summary checks it
    simulate_only: bool = False  # whether only simulate writes it, not detect


#: Every top-level key of summary.json, in the order README lists them.
SUMMARY_FIELDS: dict[str, SummaryField] = {
    "schema_version": SummaryField("int"),
    "cycles_covered": SummaryField("int", compared=True),
    "sample_count": SummaryField("int", compared=True),
    "label": SummaryField("str", compared=True),
    "mode": SummaryField("str", compared=True),
    "seed": SummaryField("int | None"),
    "start_core": SummaryField("str", simulate_only=True),
    "scheduler_enabled": SummaryField("bool", simulate_only=True),
    "phase_count": SummaryField("int"),
    "migration_count": SummaryField("int"),
    "event_counts": SummaryField("dict"),
    "phases": SummaryField("list"),
}

#: The keys of each entry of the summary's ``phases``, with their types, in README order.
PHASE_FIELDS: dict[str, str] = {
    "phase_id": "int",
    "intervals": "int",
    "mean_throughput_raw": "float",
    "mean_throughput_per_cycle": "float",
    "mean_utilization": "float",
}

#: The files a run writes in its output directory.
ARTIFACTS = ("scatter.csv", "events.csv", "summary.json")

#: An events.csv row is a PhaseEvent without its ``reason``.
EVENT_COLUMNS = tuple(f.name for f in fields(PhaseEvent) if f.name != "reason")

#: Scatter rows carry a single annotation; when an interval produced several
#: events the most significant one, the first here, wins. Recurrence notes
#: never annotate the scatter (their cause event does); they still appear in
#: events.csv. A tuple, not a dict: finding a member in it compares by
#: identity, where a dict lookup calls ``Enum.__hash__`` in Python.
_SCATTER_PRIORITY = (
    PhaseEventKind.MIGRATION,
    PhaseEventKind.THROUGHPUT_CHANGE,
    PhaseEventKind.OVER_UTILIZATION,
    PhaseEventKind.UNDER_UTILIZATION,
    PhaseEventKind.TAU_DOUBLED,
    PhaseEventKind.TAU_HALVED,
)
#: The annotation token of each interval's event code: 0 is "none", code i
#: the kind at _SCATTER_PRIORITY[i - 1].
_SCATTER_TOKENS = ("none", *(kind.value for kind in _SCATTER_PRIORITY))


class ScatterRow(NamedTuple):
    """One scatter.csv row: its fields are the file's columns."""

    interval_index: int
    start_cycle: int
    tau: int
    throughput_raw: int
    throughput_per_cycle: float
    utilization: float
    phase_id: int
    event: str


SCATTER_COLUMNS = ScatterRow._fields


class ScatterTable(NamedTuple):
    """A run's scatter rows as columns: 64-bit integer arrays for the counts
    and a double array for the utilization (an integer occupancy reads back
    as a float, which the writer writes as repr(float)). ``interval_index``
    is not stored: it is the row's position, as the detector observes
    intervals in index order from 0. Nor is ``throughput_per_cycle``: it is
    ``throughput_raw / tau``, the division the detector makes. Nor is
    ``event``: it is read off the run's events.
    """

    start_cycle: array
    tau: array
    throughput_raw: array
    utilization: array
    phase_id: array


def _row_fields(table: ScatterTable, events: list[PhaseEvent]) -> Iterator[tuple]:
    """Each row's fields in ``SCATTER_COLUMNS`` order: the columns, and as
    the annotation the most significant kind among the row's events."""
    starts, taus, raws, utilizations, phase_ids = table
    codes = bytearray(len(taus))
    for event in events:
        if event.kind in _SCATTER_PRIORITY:
            code = _SCATTER_PRIORITY.index(event.kind) + 1
            index = event.interval_index
            codes[index] = min(codes[index] or code, code)
    return zip(
        range(len(taus)), starts, taus, raws, map(operator.truediv, raws, taus),
        utilizations, phase_ids, map(_SCATTER_TOKENS.__getitem__, codes),
    )


@dataclass
class RunResult:
    table: ScatterTable = field(repr=False)
    events: list[PhaseEvent]
    summary: dict

    @cached_property
    def rows(self) -> list[ScatterRow]:
        """The scatter rows, built from the table and events at first read, then kept."""
        return list(map(ScatterRow._make, _row_fields(self.table, self.events)))

    @property
    def migrations(self) -> list[PhaseEvent]:
        return [e for e in self.events if e.kind is PhaseEventKind.MIGRATION]


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    trace: str | Path | None = None,
    inputs: dict[str, str | Path] | None = None,
) -> RunResult:
    """Simulate one preset or workload-spec source and, given ``out_dir``,
    write its artifacts there. With ``trace``, each interval is also written
    to that file as it is simulated, in the format its suffix picks (see
    :func:`save_trace`). ``inputs`` names, by role, other files the caller
    read for the run (``simulate`` passes its config and machine files):
    :func:`check_paths` refuses an output that is one of them, the workload
    spec or another output.

    :meth:`ExperimentConfig.validate` refuses a trace source:
    ``detect_over_samples`` (``phasesim detect``) is the one replay path.
    """
    config.validate()
    out = Path(out_dir) if out_dir is not None else None
    if out is not None or trace is not None:
        check_paths(out, {**(inputs or {}), "workload spec": config.workload_spec_path}, trace)
    result = _simulate(config, out, trace)
    if out is not None:
        write_artifacts(result, out)
    return result


def check_paths(
    out_dir: str | Path | None,
    inputs: dict[str, str | Path | None],
    trace: str | Path | None = None,
) -> None:
    """The one rule for the files a run names: no output (``trace``, which
    ``simulate`` writes, or one of the ``ARTIFACTS`` in ``out_dir``) may be
    one of ``inputs`` (role: path, ``None`` for none; ``detect`` reads its
    trace as ``"trace"``) or another output, and the trace, read or written,
    may not be ``out_dir``; nor may an output be a directory that exists. A
    file that exists is compared by what it is, the test of
    :func:`os.path.samefile`, so a hard link or a symlink to it is the same
    file; a path that does not exist yet, by where it resolves. Both
    commands check before any output is opened."""
    outputs = {} if trace is None else {"trace": trace}
    # The trace comes first, so a message names it first; detect's inputs start with it.
    files = {**outputs, **{role: path for role, path in inputs.items() if path is not None}}
    if out_dir is not None:
        out = Path(out_dir)
        trace_path = files.get("trace")
        if trace_path is not None and _file_key(trace_path) == _file_key(out):
            raise ConfigError(
                f"the trace {str(trace_path)!r} is the output directory; name a file in it"
            )
        artifacts = {f"run's {name}": out / name for name in ARTIFACTS}
        outputs.update(artifacts)
        files.update(artifacts)
    seen: dict[object, str] = {}
    for role, path in files.items():
        if role in outputs and os.path.isdir(path):
            raise ConfigError(f"the {role} {str(path)!r} is an existing directory")
        first = seen.setdefault(_file_key(path), role)
        if first != role and (role in outputs or first in outputs):
            raise ConfigError(
                f"the {first} {str(files[first])!r} is the {role}; name another file"
            )


def _file_key(path: str | Path) -> object:
    """What a path names: an existing file's device and inode, else the
    path resolved (through a dangling symlink too)."""
    try:
        stat = os.stat(path)
    except OSError:
        return Path(path).resolve()
    return stat.st_dev, stat.st_ino


def _resolve_workload(config: ExperimentConfig) -> WorkloadSpec:
    if config.workload_preset is not None:
        try:
            return preset(config.workload_preset, **config.preset_args)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    path = config.workload_spec_path
    assert path is not None
    try:
        return load_workload_spec(path)
    except OSError as exc:
        raise ConfigError(f"cannot read workload spec {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _simulate(
    config: ExperimentConfig, out: Path | None, trace: str | Path | None
) -> RunResult:
    """Set up a run and simulate it. Set-up refuses a workload shorter than
    ``tau_min``, one on which an interval could retire past a 64-bit count on
    the widest core, and one whose demanded instructions do not sum to a
    float. The output directory is made after set-up and the trace file
    opened after that: a refused run writes neither."""
    det_cfg = config.detector
    spec = _resolve_workload(config)
    if spec.total_cycles < det_cfg.tau_min:
        raise ConfigError(
            f"workload covers {spec.total_cycles} cycles, shorter than "
            f"tau_min={det_cfg.tau_min}"
        )
    cores = config.machine_cores
    segments = generate_workload(spec)
    cursor = SegmentCursor(segments)
    try:
        check_retire_range(cursor.total_cycles, max(core.issue_width for core in cores))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not math.isfinite(sum(s.duration * s.ipc_demand for s in segments)):
        raise ConfigError(
            "the workload demands more instructions in total (the sum of "
            "duration * ipc_demand over its segments) than a float holds"
        )
    # Both seeds take part, so re-seeding either the run or the workload
    # reshuffles the noise draws.
    rng = random.Random(config.seed + spec.seed)
    start = current_core = config.resolved_start_core()
    detector = PhaseDetector(det_cfg)
    controller = IntervalController(det_cfg) if config.mode is Mode.VARIABLE else None
    dead_cycles = 0

    def intervals() -> Iterator[IntervalSample]:
        nonlocal dead_cycles
        while True:
            tau = controller.tau if controller is not None else config.fixed_tau
            # Looked up at each call, so a tracer's wrapper sees every call.
            sample = simulate_interval(current_core, cursor, tau, rng, dead_cycles)
            if sample is None:
                return
            dead_cycles = 0
            yield sample

    def step(sample: IntervalSample, phase_id: int, events: list[PhaseEvent]) -> None:
        nonlocal current_core, dead_cycles
        # Detector events mark a phase boundary; other events join the list.
        # The first interval raises none; observe_average takes it as the baseline.
        if events:
            # The boundary interval seeds a fresh average; it casts no
            # steadiness verdict and steady runs never span phases.
            if controller is not None:
                controller.reset_baseline(detector.phases[phase_id].running_avg)
            if config.scheduler_enabled:
                # Only the first event, the phase change, can be a utilization event.
                migration = decide_migration(events[0], spec.name, current_core, cores)
                if migration is not None:
                    current_core = next(c for c in cores if c.name == migration.to_core)
                    dead_cycles = config.migration_penalty
                    events.append(migration)
        elif controller is not None:
            kind = controller.observe_average(detector.phases[phase_id].running_avg)
            if kind is not None:
                events.append(
                    PhaseEvent(sample.index, kind, phase_id, phase_id, detector.last_delta)
                )

    header = {
        "label": spec.name,
        "mode": config.mode.value,
        "seed": config.seed,
        "start_core": start.name,
        "scheduler_enabled": config.scheduler_enabled,
    }
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    if trace is None:
        return _run_intervals(intervals(), detector, step, header)
    with open(trace, "w", encoding="utf-8", newline="") as handle:
        samples = recorded(intervals(), handle, detect_format(trace))
        return _run_intervals(samples, detector, step, header)


def detect_over_samples(
    samples: Iterable[IntervalSample],
    det_cfg: DetectorConfig,
    label: str = "trace",
) -> RunResult:
    """Run the detector alone over recorded intervals, which it holds to the
    stream rule (see :meth:`PhaseDetector.observe`).

    A replay raises no tau or migration events: those are the interval
    controller's and the scheduler's decisions, which only ``simulate`` runs.
    Every recorded length is in the table's ``tau`` column.
    """
    header = {"label": label, "mode": "detect", "seed": None}
    return _run_intervals(samples, PhaseDetector(det_cfg), _detector_only, header)


def _detector_only(sample: IntervalSample, phase_id: int, events: list[PhaseEvent]) -> None:
    """``detect``'s step: the detector's events are the run's events."""


def _run_intervals(
    samples: Iterable[IntervalSample],
    detector: PhaseDetector,
    step: Callable[[IntervalSample, int, list[PhaseEvent]], None],
    header: dict,
) -> RunResult:
    """Every run's interval loop: observe, ``step`` (which may add events),
    record the row and events; summarize under ``header`` at the end."""
    table = ScatterTable(array("q"), array("q"), array("q"), array("d"), array("q"))
    add_start, add_tau, add_raw, add_util, add_phase = (column.append for column in table)
    emitted: list[PhaseEvent] = []
    observe = detector.observe  # bound per run, after any tracer has wrapped it
    for sample in samples:
        phase_id, events = observe(sample)
        step(sample, phase_id, events)
        add_start(sample.start_cycle)
        add_tau(sample.tau)
        add_raw(sample.retired_instructions)
        add_util(detector.last_utilization)
        add_phase(phase_id)
        emitted.extend(events)
    return RunResult(table, emitted, _build_summary(table, emitted, header))


def _build_summary(table: ScatterTable, emitted: list[PhaseEvent], header: dict) -> dict:
    """The run's counts under ``header`` (label, mode, seed and, for
    ``simulate``, its settings), keyed and ordered as ``SUMMARY_FIELDS``."""
    # _value_ is the attribute the Enum.value property reads.
    event_counts = dict(Counter(map(operator.attrgetter("kind._value_"), emitted)))

    # Per phase: (intervals, raw sum, per-cycle sum, utilization sum), each
    # sum accumulated in row order from 0.0. Rows come in runs of one phase:
    # a run adds into locals, which go back to per_phase when the phase
    # changes, so a revisited phase carries on from its stored sums.
    per_phase: dict[int, tuple] = {}
    open_id = None
    for phase_id, raw, tau, util in zip(
        table.phase_id, table.throughput_raw, table.tau, table.utilization
    ):
        if phase_id != open_id:
            if open_id is not None:
                per_phase[open_id] = count, raw_sum, per_cycle_sum, util_sum
            open_id = phase_id
            count, raw_sum, per_cycle_sum, util_sum = per_phase.get(
                phase_id, (0, 0.0, 0.0, 0.0)
            )
        count += 1
        raw_sum += raw
        per_cycle_sum += raw / tau
        util_sum += util
    if open_id is not None:
        per_phase[open_id] = count, raw_sum, per_cycle_sum, util_sum
    # Each phase's values in PHASE_FIELDS order: its id, its interval count, its means.
    phases = [
        dict(zip(PHASE_FIELDS, (pid, count, raw / count, per_cycle / count, util / count)))
        for pid, (count, raw, per_cycle, util) in sorted(per_phase.items())
    ]

    values = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        **header,
        "sample_count": len(table.tau),
        "cycles_covered": sum(table.tau),
        # Every phase id the detector mints is assigned to the interval that
        # opened it, so the rows hold every phase.
        "phase_count": len(per_phase),
        "migration_count": event_counts.get("migration", 0),
        "event_counts": event_counts,
        "phases": phases,
    }
    # A detect header holds none of the simulate-only fields.
    return {name: values[name] for name in SUMMARY_FIELDS if name in values}


# Every field is an int, a float or an annotation token, none of which needs
# CSV quoting, and "%s" writes a float as repr(float), as the csv module does.
_SCATTER_LINE = ",".join(["%s"] * len(SCATTER_COLUMNS)) + "\n"


#: Lines per write: a few tens of KB, joined, cost less than a write per line.
_SCATTER_BLOCK = 512


def emit_scatter_csv(
    table: ScatterTable, events: list[PhaseEvent], path: str | Path
) -> None:
    """Write the scatter rows of ``table`` and its run's ``events``,
    formatting each line from the columns."""
    lines = map(_SCATTER_LINE.__mod__, _row_fields(table, events))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(SCATTER_COLUMNS) + "\n")
        while block := "".join(islice(lines, _SCATTER_BLOCK)):
            handle.write(block)


# The kind is written as its value.
_EVENT_FIELDS = operator.attrgetter(
    *("kind._value_" if name == "kind" else name for name in EVENT_COLUMNS)
)


def emit_events_csv(events: list[PhaseEvent], path: str | Path) -> None:
    """Write ``events``, one row each; the csv module writes None as an empty
    field. Only a row that names a process or a core (a migration's) can hold
    a "\\r" (see :func:`csv_writers`); the rows between two such rows are
    written by the csv module alone, streamed."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        plain, quoting = csv_writers(handle, EVENT_COLUMNS)
        written = 0
        for position, event in enumerate(events):
            if event.process or event.from_core or event.to_core:
                plain.writerows(map(_EVENT_FIELDS, events[written:position]))
                row = _EVENT_FIELDS(event)
                carriage = any(type(value) is str and "\r" in value for value in row)
                (quoting if carriage else plain).writerow(row)
                written = position + 1
        plain.writerows(map(_EVENT_FIELDS, events[written:]))


def write_artifacts(result: RunResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scatter_path, events_path, summary_path = (out / name for name in ARTIFACTS)
    emit_scatter_csv(result.table, result.events, scatter_path)
    emit_events_csv(result.events, events_path)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(result.summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_summary(run_dir: str | Path) -> dict:
    path = Path(run_dir) / "summary.json"
    with open(path, "r", encoding="utf-8") as handle:
        try:
            summary = json.load(handle)
        except (RecursionError, ValueError) as exc:  # ValueError: also bad UTF-8
            raise ConfigError(f"{path}: not a valid summary: {exc}") from exc
    # A summary that is not a JSON object lacks every key.
    record = summary if isinstance(summary, dict) else {}
    try:
        for name, row in SUMMARY_FIELDS.items():
            if row.compared:
                json_field(record, name, row.type)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return summary


def overhead_report(fixed_dir: str | Path, variable_dir: str | Path) -> dict:
    """Compare the profiling cost of two runs over the same cycle budget.

    The ratio is fixed samples over variable samples: how many times fewer
    intervals the adaptive run needed.
    """
    fixed = load_summary(fixed_dir)
    variable = load_summary(variable_dir)
    if fixed["cycles_covered"] != variable["cycles_covered"]:
        raise ConfigError(
            "runs cover different cycle budgets: "
            f"{fixed['cycles_covered']} vs {variable['cycles_covered']}"
        )
    if fixed["label"] != variable["label"]:
        raise ConfigError(
            f"runs of different workloads: {fixed['label']!r} vs {variable['label']!r}"
        )
    if (fixed["mode"], variable["mode"]) == ("variable_tau", "fixed_tau"):
        raise ConfigError(
            "runs in the wrong order: the first is variable_tau and the second "
            "fixed_tau; pass the fixed_tau run first"
        )
    counts = fixed["sample_count"], variable["sample_count"]
    if min(counts) < 1:
        raise ConfigError(f"sample counts must be >= 1: {counts[0]} and {counts[1]}")
    keys = [name for name, row in SUMMARY_FIELDS.items() if row.compared]
    return {
        "cycles_covered": fixed["cycles_covered"],
        "fixed": {key: fixed[key] for key in keys},
        "variable": {key: variable[key] for key in keys},
        "ratio": counts[0] / counts[1],
    }


def format_overhead_report(report: dict) -> str:
    lines = [
        f"cycle budget        : {report['cycles_covered']}",
        f"fixed run samples   : {report['fixed']['sample_count']} "
        f"({report['fixed']['label']}, {report['fixed']['mode']})",
        f"variable run samples: {report['variable']['sample_count']} "
        f"({report['variable']['label']}, {report['variable']['mode']})",
        f"overhead ratio      : {report['ratio']:.2f}x fewer samples",
    ]
    return "\n".join(lines)
