"""Experiment driver: simulation and trace-detection runs with CSV artifacts.

Every run produces three files in its output directory: ``scatter.csv`` (one
row per interval, annotated with the most significant event), ``events.csv``
(every event, one row each) and ``summary.json`` (counts and per-phase
means). One loop, :func:`_run_intervals`, handles each interval once: it
formats the interval's scatter line and adds the interval to the per-phase
sums, and writes the scatter lines and the events a block of intervals at a
time, so a run keeps neither. Each output, a ``simulate`` trace too, is
written under a temporary name and moved into place when the loop
completes, so a failing run leaves no partial outputs. ``RunResult.rows``
and ``RunResult.events`` parse the run's rows at first read.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import random
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

from .config import ConfigError, ExperimentConfig, Mode
from .core_model import SegmentCursor, check_retire_range, simulate_interval
from .detector import DetectorConfig, PhaseDetector, PhaseEvent, PhaseEventKind
from .interval_control import IntervalController
from .records import IntervalSample, json_field
from .scheduler import decide_migration
from .workload import (
    WorkloadSpec, csv_writers, detect_format, generate_workload, load_workload_spec,
    preset, recorded,
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
#: events.csv.
_SCATTER_PRIORITY = (
    PhaseEventKind.MIGRATION,
    PhaseEventKind.THROUGHPUT_CHANGE,
    PhaseEventKind.OVER_UTILIZATION,
    PhaseEventKind.UNDER_UTILIZATION,
    PhaseEventKind.TAU_DOUBLED,
    PhaseEventKind.TAU_HALVED,
)


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


@dataclass
class RunResult:
    summary: dict
    #: Where the run's scatter lines went: their text, header first, for a
    #: run without an output directory; else the path of its scatter.csv.
    scatter: str | Path = field(repr=False)
    #: Where the run's event rows went, as ``scatter`` says for its lines.
    event_rows: str | Path = field(repr=False)

    @cached_property
    def rows(self) -> list[ScatterRow]:
        """The scatter rows, parsed from the run's lines at first read, then
        kept. Ints, ``repr`` floats and the tokens read back exactly."""
        text = self.scatter
        if isinstance(text, Path):
            text = text.read_text(encoding="utf-8")
        return [
            ScatterRow(int(i), int(s), int(t), int(r), float(p), float(u), int(ph), e)
            for i, s, t, r, p, u, ph, e in (line.split(",") for line in text.splitlines()[1:])
        ]

    @cached_property
    def events(self) -> list[PhaseEvent]:
        """Every event in order, parsed from the run's rows at first read,
        then kept. Ints and ``repr`` floats read back exactly, and an empty
        field as None. events.csv holds no ``reason``: a migration's is the
        kind of the first event of its interval, the phase change that
        ``_simulate``'s step decided it on."""
        source = self.event_rows
        if isinstance(source, Path):
            handle: TextIO = open(source, encoding="utf-8", newline="")
        else:
            handle = io.StringIO(source, newline="")
        events: list[PhaseEvent] = []
        with handle:
            rows = csv.reader(handle)
            next(rows)  # the header, EVENT_COLUMNS
            for index, kind, old, new, d_i, process, from_core, to_core in rows:
                index, kind = int(index), PhaseEventKind(kind)
                if not events or events[-1].interval_index != index:
                    first = kind
                events.append(PhaseEvent(
                    index, kind, int(old) if old else None, int(new) if new else None,
                    float(d_i) if d_i else None,
                    process or None, from_core or None, to_core or None,
                    first if kind is PhaseEventKind.MIGRATION else None,
                ))
        return events

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
    to that file, in the format its suffix picks (see :func:`save_trace`),
    as the artifacts are. ``inputs`` names, by role, other files the caller
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
    return _simulate(config, out, trace)


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


def _simulate(config: ExperimentConfig, out: Path | None, trace: str | Path | None) -> RunResult:
    """Set up a run and simulate it. Set-up refuses a workload shorter than
    ``tau_min``, one on which an interval could retire past a 64-bit count on
    the widest core, and one whose demanded instructions do not sum to a
    float. The output directory is made after set-up and the trace file
    opened after that (see :func:`_run_intervals`): a refused run writes
    neither."""
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
    return _run_intervals(intervals(), detector, step, header, out, trace)


def detect_over_samples(
    samples: Iterable[IntervalSample],
    det_cfg: DetectorConfig,
    label: str = "trace",
    out_dir: str | Path | None = None,
) -> RunResult:
    """Run the detector alone over recorded intervals, which it holds to the
    stream rule (see :meth:`PhaseDetector.observe`), and, given ``out_dir``,
    write the artifacts there. The caller applies :func:`check_paths` first,
    as ``phasesim detect`` does with the trace it reads.

    A replay raises no tau or migration events: those are the interval
    controller's and the scheduler's decisions, which only ``simulate`` runs.
    Every recorded length is in the scatter's ``tau`` column.
    """
    header = {"label": label, "mode": "detect", "seed": None}
    # detect's step does nothing: the detector's events are the run's events.
    return _run_intervals(samples, PhaseDetector(det_cfg), lambda *_: None, header, out_dir)


class _Staged:
    """A run's output files, each written under a temporary name in its own
    directory, then moved into place together by :meth:`commit`, or removed
    by :meth:`discard` with every directory :meth:`make_dir` created."""

    def __init__(self) -> None:
        self.files: list[tuple[TextIO, Path, Path]] = []  # handle, temporary, final
        self.made: list[Path] = []  # deepest first

    def make_dir(self, path: Path) -> None:
        self.made += [directory for directory in (path, *path.parents) if not directory.exists()]
        path.mkdir(parents=True, exist_ok=True)

    def open(self, path: Path, newline: str | None = "") -> TextIO:
        """A new file beside ``path``, to be moved to it; mode "x" opens no file that exists."""
        temporary = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        handle = open(temporary, "x", encoding="utf-8", newline=newline)
        self.files.append((handle, temporary, path))
        return handle

    def commit(self) -> None:
        for handle, _, _ in self.files:
            handle.close()
        for _, temporary, path in self.files:
            os.replace(temporary, path)

    def discard(self) -> None:
        """Close and remove each file, then each directory made. A step that
        fails (a flush, a file already moved, a directory another process
        wrote in) does not stop the others."""
        steps = [handle.close for handle, _, _ in self.files]
        steps += [partial(os.unlink, temporary) for _, temporary, _ in self.files]
        for undo in steps + [directory.rmdir for directory in self.made]:
            try:
                undo()
            except OSError:
                pass


def _run_intervals(
    samples: Iterable[IntervalSample],
    detector: PhaseDetector,
    step: Callable[[IntervalSample, int, list[PhaseEvent]], None],
    header: dict,
    out_dir: str | Path | None,
    trace: str | Path | None = None,
) -> RunResult:
    """Every run's interval loop: observe, ``step`` (which may add events),
    then format the interval's scatter line, final once ``step`` returns, and
    add the interval to the sums. The loop takes ``_SCATTER_BLOCK`` samples
    at a time: at a block's end it writes the block's scatter lines and
    events, counts the events by kind and keeps none of them. At the end it
    summarizes under ``header``. Each output (the scatter lines, the events,
    the summary and ``trace``) is staged (see :class:`_Staged`): moved into
    place when the loop completes, or removed on any exception, a
    ``BaseException`` too. A run without an output directory keeps its lines
    and event rows in memory instead."""
    staged = _Staged()
    out = Path(out_dir) if out_dir is not None else None
    try:
        if out is None:
            scatter_file, events_file = io.StringIO(), io.StringIO()
        else:
            staged.make_dir(out)
            scatter_file = staged.open(out / "scatter.csv")
            events_file = staged.open(out / "events.csv")
        write = scatter_file.write
        if trace is not None:
            samples = recorded(samples, staged.open(Path(trace)), detect_format(trace))
        write(",".join(SCATTER_COLUMNS) + "\n")
        plain, quoting = csv_writers(events_file, EVENT_COLUMNS)
        lines: list[str] = []
        add_line = lines.append
        block_events: list[PhaseEvent] = []
        event_counts: Counter[str] = Counter()  # by kind, in the order first seen
        # Per phase: (intervals, raw sum, per-cycle sum, utilization sum),
        # each sum accumulated in row order from 0.0. Rows come in runs of
        # one phase: a run adds into locals, which go back to per_phase when
        # the phase changes, so a revisited phase carries on from its sums.
        per_phase: dict[int, tuple] = {}
        open_id = None
        cycles = 0
        observe = detector.observe  # bound per run, after any tracer has wrapped it
        samples = iter(samples)
        while True:
            for sample in islice(samples, _SCATTER_BLOCK):
                phase_id, events = observe(sample)
                step(sample, phase_id, events)
                tau, raw = sample.tau, sample.retired_instructions
                per_cycle = raw / tau
                util = detector.last_utilization
                if events:
                    # Every event of this interval is in the list by now.
                    block_events += events
                    kinds = [event.kind for event in events]
                    token = next((k._value_ for k in _SCATTER_PRIORITY if k in kinds), "none")
                else:
                    token = "none"
                add_line(_SCATTER_LINE % (
                    sample.index, sample.start_cycle, tau, raw, per_cycle, util, phase_id, token
                ))
                if phase_id != open_id:
                    if open_id is not None:
                        per_phase[open_id] = count, raw_sum, per_cycle_sum, util_sum
                    open_id = phase_id
                    count, raw_sum, per_cycle_sum, util_sum = per_phase.get(
                        phase_id, (0, 0.0, 0.0, 0.0)
                    )
                count += 1
                raw_sum += raw
                per_cycle_sum += per_cycle
                util_sum += util
                cycles += tau
            write("".join(lines))
            _write_events(block_events, plain, quoting)
            # _value_ is the attribute the Enum.value property reads.
            event_counts.update(map(operator.attrgetter("kind._value_"), block_events))
            if len(lines) < _SCATTER_BLOCK:  # the samples ran out
                break
            lines.clear()
            block_events.clear()
        if open_id is not None:
            per_phase[open_id] = count, raw_sum, per_cycle_sum, util_sum
        summary = _summary(header, per_phase, cycles, dict(event_counts))
        if out is None:
            scatter, event_rows = scatter_file.getvalue(), events_file.getvalue()
        else:
            scatter, event_rows = out / "scatter.csv", out / "events.csv"
            handle = staged.open(out / "summary.json", newline=None)
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        staged.commit()
    except BaseException:
        staged.discard()
        raise
    return RunResult(summary, scatter, event_rows)


def _summary(header: dict, per_phase: dict, cycles: int, event_counts: dict[str, int]) -> dict:
    """The run's counts under ``header`` (label, mode, seed and, for
    ``simulate``, its settings), keyed and ordered as ``SUMMARY_FIELDS``;
    ``event_counts`` holds the number of events of each kind, by its value."""
    # Each phase's values in PHASE_FIELDS order: its id, its interval count, its means.
    phases = [
        dict(zip(PHASE_FIELDS, (pid, count, raw / count, per_cycle / count, util / count)))
        for pid, (count, raw, per_cycle, util) in sorted(per_phase.items())
    ]
    values = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        **header,
        "sample_count": sum(count for count, *_ in per_phase.values()),
        "cycles_covered": cycles,
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


#: Intervals per block: a block's lines, a few tens of KB joined, cost less
#: written at once than a write per line, and its events are written with them.
_SCATTER_BLOCK = 512


# The kind is written as its value.
_EVENT_FIELDS = operator.attrgetter(
    *("kind._value_" if name == "kind" else name for name in EVENT_COLUMNS)
)


def _write_events(events: list[PhaseEvent], plain, quoting) -> None:
    """Write ``events`` one row each through the ``plain`` and ``quoting``
    writers of :func:`csv_writers`; the csv module writes None as an empty
    field. Only a row that names a process or a core (a migration's) can
    hold a "\\r", which takes ``quoting``; the rows between two such rows are
    written by ``plain`` alone, streamed."""
    written = 0
    for position, event in enumerate(events):
        if event.process or event.from_core or event.to_core:
            plain.writerows(map(_EVENT_FIELDS, events[written:position]))
            row = _EVENT_FIELDS(event)
            carriage = any(type(value) is str and "\r" in value for value in row)
            (quoting if carriage else plain).writerow(row)
            written = position + 1
    plain.writerows(map(_EVENT_FIELDS, events[written:]))


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
