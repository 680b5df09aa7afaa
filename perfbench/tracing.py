"""Spans around the calls into each phasesim module, recorded from outside.

Wrappers are installed at the names the callers look up (for example
``phasesim.experiment.simulate_interval`` or ``PhaseDetector.observe``) and
removed again after the traced op; nothing inside the package is changed.
Spans are kept in memory as parallel arrays (name, parent, start, end) and
written out once the op is over. A span's self time is its duration minus
the time its child spans cover.

A span's name is ``<layer>.<function>``; the layer is the phasesim module
the function belongs to. The op itself is the root span ``cli.main``.
"""

from __future__ import annotations

import csv
import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = (
    "core_model",
    "detector",
    "interval_control",
    "scheduler",
    "experiment",
    "workload",
    "config",
)

ROOT = "cli.main"


class Recorder:
    """Spans of one traced op, plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter[str] = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("span", "name", "parent", "start_s", "end_s"))
            names = self.names
            writer.writerows(
                (i, names[n], p, repr(s), repr(e))
                for i, (n, p, s, e) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)
                )
            )


def _spanned(rec: Recorder, fn, name: str, classify=None):
    """``fn`` inside a span; ``classify(args, result)`` may count the result
    and return another span name for this call."""
    name_id = rec.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if classify is not None:
            renamed = classify(args, result)
            if renamed is not None:
                rec.name[span] = rec.intern(renamed)
        return result

    return wrapper


def _spanned_iter(rec: Recorder, fn, name: str):
    """``fn`` returns an iterable: span the call and every ``next()`` on it,
    so a lazy loader's work lands where it is done."""
    name_id = rec.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name_id)
        try:
            iterator = iter(fn(*args, **kwargs))
        finally:
            rec.close(span)
        return _timed_next(rec, name_id, iterator)

    return wrapper


def _timed_next(rec: Recorder, name_id: int, iterator):
    while True:
        span = rec.open(name_id)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            rec.close(span)
        yield item


def _counted(rec: Recorder, fn, classify):
    """Count calls without a span: for calls made inside one layer, where a
    span would only add overhead."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        classify(args, result)
        return result

    return wrapper


def install(rec: Recorder):
    """Install every wrapper; returns a function that removes them all.

    A name that no longer exists is skipped, and the metrics it feeds read 0.
    """
    counters = rec.counters

    def observe(args, result):
        _, events = result
        if not events:
            return "detector.observe.similar"
        counters["detector.changes"] += 1
        recurred = any(e.kind.value == "phase_recurred" for e in events)
        counters["detector.recurrences"] += recurred
        # Phases known before the change: every closed phase plus the one
        # just closed, i.e. the closed list that recurrence matching scans.
        counters["detector.closed_at_change"] += len(args[0].phases) - (not recurred)
        return "detector.observe.change"

    def observe_average(args, result):
        counters["interval_control.tau_changes"] += result is not None

    def decide_migration(args, result):
        counters["scheduler.taken"] += result is not None

    def take(args, result):
        counters["core_model.take.calls"] += 1
        counters["core_model.take.multi"] += len(result) > 1

    plan = [
        # (module, owner class or None, attribute, wrapper factory)
        ("phasesim.cli", None, "parse_config_file",
         lambda f: _spanned(rec, f, "config.parse_config_file")),
        ("phasesim.config", "ExperimentConfig", "validate",
         lambda f: _spanned(rec, f, "config.validate")),
        ("phasesim.cli", None, "run_experiment",
         lambda f: _spanned(rec, f, "experiment.run_experiment")),
        ("phasesim.cli", None, "detect_over_samples",
         lambda f: _spanned(rec, f, "experiment.detect_over_samples")),
        ("phasesim.cli", None, "write_artifacts",
         lambda f: _spanned(rec, f, "experiment.write_artifacts")),
        ("phasesim.experiment", None, "write_artifacts",
         lambda f: _spanned(rec, f, "experiment.write_artifacts")),
        ("phasesim.cli", None, "load_trace",
         lambda f: _spanned_iter(rec, f, "workload.load_trace")),
        ("phasesim.experiment", None, "load_trace",
         lambda f: _spanned_iter(rec, f, "workload.load_trace")),
        ("phasesim.experiment", None, "load_workload_spec",
         lambda f: _spanned(rec, f, "workload.load_workload_spec")),
        ("phasesim.experiment", None, "generate_workload",
         lambda f: _spanned(rec, f, "workload.generate_workload")),
        ("phasesim.experiment", None, "simulate_interval",
         lambda f: _spanned(rec, f, "core_model.simulate_interval")),
        ("phasesim.core_model", "SegmentCursor", "take",
         lambda f: _counted(rec, f, take)),
        ("phasesim.detector", "PhaseDetector", "observe",
         lambda f: _spanned(rec, f, "detector.observe", observe)),
        ("phasesim.interval_control", "IntervalController", "observe_average",
         lambda f: _spanned(rec, f, "interval_control.observe_average", observe_average)),
        ("phasesim.interval_control", "IntervalController", "reset_baseline",
         lambda f: _spanned(rec, f, "interval_control.reset_baseline")),
        ("phasesim.experiment", None, "decide_migration",
         lambda f: _spanned(rec, f, "scheduler.decide_migration", decide_migration)),
        ("phasesim.experiment", None, "apply_migration",
         lambda f: _spanned(rec, f, "scheduler.apply_migration")),
    ]
    restore = []
    for module_name, owner_name, attribute, factory in plan:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name, None)
        original = getattr(owner, attribute, None)
        if original is None:
            continue
        # Take the plain function off a class, so the wrapper binds like it.
        if owner_name is not None:
            original = owner.__dict__[attribute]
        setattr(owner, attribute, factory(original))
        restore.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


def layer_metrics(rec: Recorder, rows: int, trace_bytes: int, artifact_bytes: int) -> dict:
    """Per-layer figures of one traced op.

    ``rows`` is the op's interval count; ``trace_bytes`` the size of the
    replayed trace (0 for simulate).
    """
    count = len(rec.name)
    duration = [e - s for s, e in zip(rec.start, rec.end)]
    covered = [0.0] * count
    for span, parent in enumerate(rec.parent):
        if parent >= 0:
            covered[parent] += duration[span]

    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    for span, name_id in enumerate(rec.name):
        name = rec.names[name_id]
        calls[name] += 1
        total[name] += duration[span]
        self_time[name] += duration[span] - covered[span]
    wall = total[ROOT]

    def mean_us(name: str) -> float:
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        layer_self = sum(self_time[n] for n in names)
        metrics[f"{layer}.calls"] = sum(calls[n] for n in names)
        metrics[f"{layer}.self_s"] = layer_self
        metrics[f"{layer}.self_share"] = share(layer_self, wall)

    c = rec.counters
    observe_calls = calls["detector.observe.similar"] + calls["detector.observe.change"]
    loop_self = self_time["experiment.run_experiment"] + self_time["experiment.detect_over_samples"]
    load_s = total["workload.load_trace"]
    metrics.update(
        {
            "core_model.simulate_interval.us": mean_us("core_model.simulate_interval"),
            "core_model.take.multi_span_share": share(
                c["core_model.take.multi"], c["core_model.take.calls"]
            ),
            "detector.observe.similar_us": mean_us("detector.observe.similar"),
            "detector.observe.change_us": mean_us("detector.observe.change"),
            "detector.change_share": share(c["detector.changes"], observe_calls),
            "detector.recur_share": share(c["detector.recurrences"], c["detector.changes"]),
            "detector.closed_phases_mean": share(
                c["detector.closed_at_change"], c["detector.changes"]
            ),
            "interval_control.observe_average.us": mean_us("interval_control.observe_average"),
            "interval_control.tau_changes": c["interval_control.tau_changes"],
            "scheduler.decide_migration.calls": calls["scheduler.decide_migration"],
            "scheduler.taken_share": share(c["scheduler.taken"], calls["scheduler.decide_migration"]),
            "experiment.loop_self_us": share(loop_self, rows) * 1e6,
            "experiment.write_artifacts.rows_per_s": share(rows, total["experiment.write_artifacts"]),
            "experiment.artifact_bytes": artifact_bytes,
            "workload.load_trace.us_per_row": share(load_s, rows) * 1e6 if trace_bytes else 0.0,
            "workload.load_trace.mb_per_s": share(trace_bytes / 1e6, load_s),
            "config.parse_config_file.s": total["config.parse_config_file"],
        }
    )
    return metrics
