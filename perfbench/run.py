"""phasesim benchmark: host throughput, set-up time and memory of simulate and
detect, with a separately traced per-module breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root. The first form measures one workload and
prints a report, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
``--all`` runs every workload both ways, each in its own process, and prints
every metric by name with its unit.

Ops run in-process through ``phasesim.cli.main``, one after another in a
closed loop with one caller and one thread. Every op's artifacts are checked
(see ``Checker``); an op that raises, exits non-zero or fails the check
counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
ARTIFACTS = ("scatter.csv", "events.csv", "summary.json")

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters per run for setup_s; one more runs first and is
#: discarded, so byte-compiling the sources never lands in the figure.
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 120

#: Host time is scaled to a nominal host speed: the speed at which
#: _reference_work takes REFERENCE_NOMINAL_S, its typical time on a 2-vCPU
#: Xeon container with Python 3.11. A shared host's speed moves by up to
#: 1.6x within seconds, and op and reference work move together, so the
#: run's median scaled by the run's median reference time repeats where the
#: raw median does not. Raw figures are reported beside the scaled ones.
REFERENCE_ITEMS = 20_000
REFERENCE_COMPILES = 8
REFERENCE_NOMINAL_S = 0.065

HEADER = """\
# phasesim benchmark: workload {workload}, seed {seed}, trace {trace}
# python {python}, nproc {nproc}, {machine}
# load: closed loop, 1 caller, 1 thread; ops run in-process via phasesim.cli.main
# The core model is unvalidated: the repository holds no reference hardware
# results, so no accuracy figure is given. The analytic model has no modelled
# caches; the only warm-up is one discarded op that lets imports and lazy
# set-up finish.
# Host times (intervals_per_s, setup_s) are scaled to a nominal host speed by
# a reference workload timed around each op; raw wall-clock figures follow.
# sample_savings_x is a simulated figure, deterministic for a given seed."""


class OpFailed(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Checker:
    """Correctness of each op's artifacts.

    The first op's artifacts are checked against invariants computed from
    the generated inputs alone, and, for the pinned seeds, against the
    digests in pinned_digests.json. Every later op must reproduce the first
    op's bytes exactly, so it passes the same checks.
    """

    def __init__(self, name: str, seed: int, inputs: workloads.Inputs) -> None:
        self.inputs = inputs
        pinned = json.loads((BENCH / "pinned_digests.json").read_text(encoding="utf-8"))
        self.pinned = pinned.get(name, {}).get(str(seed))
        self.must_pin = seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED)
        self.reference: dict[str, str] | None = None
        self.summary: dict = {}

    def check(self, out: Path) -> None:
        digests = {name: _sha256(out / name) for name in ARTIFACTS}
        if self.reference is not None:
            if digests != self.reference:
                raise OpFailed("artifacts differ from the first op of this run")
            return
        self.reference = digests
        self.summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        problems = self._invariants(out)
        if self.pinned is None and self.must_pin:
            problems.append("no pinned digests for this seed")
        elif self.pinned is not None and digests != self.pinned:
            problems.append(f"artifacts differ from the pinned digests {self.pinned}")
        if problems:
            raise OpFailed("; ".join(problems))

    def _invariants(self, out: Path) -> list[str]:
        inputs, summary = self.inputs, self.summary
        rows = tau_sum = 0
        with open(out / "scatter.csv", encoding="utf-8") as handle:
            header = next(handle).rstrip("\n").split(",")
            tau_column = header.index("tau")
            for line in handle:
                rows += 1
                tau_sum += int(line.split(",")[tau_column])
        problems = []
        if summary["cycles_covered"] != inputs.cycles:
            problems.append(
                f"cycles_covered {summary['cycles_covered']} != generated {inputs.cycles}"
            )
        if tau_sum != summary["cycles_covered"]:
            problems.append(f"sum of scatter tau {tau_sum} != cycles_covered")
        if rows != summary["sample_count"]:
            problems.append(f"{rows} scatter rows != sample_count {summary['sample_count']}")
        if inputs.expected_rows is not None and rows != inputs.expected_rows:
            problems.append(f"{rows} scatter rows, expected {inputs.expected_rows}")
        return problems


class WorkloadRun:
    """One workload's inputs, op runner and failure count for one run."""

    def __init__(self, name: str, seed: int) -> None:
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = workloads.generate(name, seed, self.work / "input")
        self.checker = Checker(name, seed, self.inputs)
        self.attempted = 0
        self.failures: list[str] = []
        sys.path.insert(0, str(SRC))
        import phasesim.cli

        self.cli = phasesim.cli

    def argv(self, out: Path) -> list[str]:
        return [*self.inputs.argv_base, "--out", str(out)]

    def op(self, rec: tracing.Recorder | None = None) -> float | None:
        """Run and check one op; its wall seconds, or None if it failed."""
        out = self.work / "out"
        self.attempted += 1
        gc.collect()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if rec is None:
                    start = perf_counter()
                    code = self.cli.main(self.argv(out))
                    seconds = perf_counter() - start
                else:
                    root = rec.open(rec.intern(tracing.ROOT))
                    try:
                        code = self.cli.main(self.argv(out))
                    finally:
                        rec.close(root)
                    seconds = rec.end[root] - rec.start[root]
            if code != 0:
                raise OpFailed(f"exit code {code}")
            self.checker.check(out)
        except Exception as exc:  # every failure of the op is counted
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return seconds

    def probe(self, mode: str) -> float | None:
        """A fresh interpreter that runs the probe; its number, or None."""
        out = self.work / f"out_{mode}"
        command = [sys.executable, str(BENCH / "probe.py"), mode, str(SRC), *self.argv(out)]
        self.attempted += 1
        try:
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False
            )
            if done.returncode != 0:
                raise OpFailed(f"{mode} probe exit {done.returncode}: {done.stderr.strip()}")
            value = float(done.stdout.strip().splitlines()[-1])
            if mode == "rss":
                self.checker.check(out)
        except (OpFailed, OSError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        return value

    @property
    def rows(self) -> int:
        return self.checker.summary.get("sample_count", 0)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Source compiled and run by the reference work, standing in for the
#: module bodies and generated dataclass methods that set-up executes.
_REFERENCE_SOURCE = "\n".join(
    f"def f{i}(a, b=1, *c, **d):\n    x = [a + b for _ in range(3)]\n"
    f"    return {{'k{i}': x, 'n': len(c)}}\n"
    for i in range(40)
)


def _reference_work() -> int:
    """A fixed pure-Python mix of the work the program does: small dicts,
    float arithmetic, float repr and string joins, then compiling and
    running source as imports do. It belongs to the benchmark, so its speed
    depends on the host alone."""
    total = 0
    for i in range(REFERENCE_ITEMS):
        x = i * 0.37
        d = {"i": i, "x": x, "y": x * x + 1.0}
        total += len(",".join((str(d["i"]), repr(d["x"]), f"{d['y']:.6g}")))
    for _ in range(REFERENCE_COMPILES):
        namespace: dict = {}
        exec(compile(_REFERENCE_SOURCE, "<reference>", "exec"), namespace)
        total += len(namespace)
    return total


def reference_seconds() -> float:
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


def interleaved(measure, done) -> tuple[list[float], list[float]]:
    """Call ``measure()`` (a host figure, or None if it failed) until
    ``done(calls)``, timing the reference work before the first call and
    after each one. Returns the figures and the reference times."""
    values, reference = [], [reference_seconds()]
    calls = 0
    while True:
        value = measure()
        reference.append(reference_seconds())
        calls += 1
        if value is not None:
            values.append(value)
        if done(calls):
            return values, reference


def to_nominal(reference: list[float]) -> float:
    """Factor that turns host seconds measured alongside ``reference`` into
    seconds at the nominal host speed. Medians on both sides keep one noisy
    reference timing from moving a single op."""
    return REFERENCE_NOMINAL_S / statistics.median(reference)


def _spread(label: str, values: list[float], unit: str) -> str:
    if len(values) < 2:
        return f"# {label}: {values} {unit}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (
        f"# {label}: {len(values)} samples, min {min(values):.6g}, quartiles "
        f"{q1:.6g} / {q2:.6g} / {q3:.6g}, max {max(values):.6g} {unit}"
    )


def timed_run(bench: WorkloadRun, seconds: float) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics; returns (values, sample counts, report lines)."""
    bench.probe("setup")  # discarded: byte-compiles the sources
    raw_setup, setup_reference = interleaved(
        lambda: bench.probe("setup"), lambda calls: calls == SETUP_PROBES
    )
    bench.op()  # warm-up: checked, not timed
    start = perf_counter()
    raw_ops, op_reference = interleaved(
        bench.op, lambda calls: perf_counter() - start >= seconds
    )
    rss = bench.probe("rss")
    rows = bench.rows
    raw_rates = [rows / took for took in raw_ops]
    setup_factor, op_factor = to_nominal(setup_reference), to_nominal(op_reference)
    notes = [
        _spread("intervals_per_s, raw wall clock", raw_rates, "intervals/s"),
        _spread("setup_s, raw wall clock", raw_setup, "s"),
        _spread("reference work during ops", op_reference, "s"),
        _spread("reference work during set-up probes", setup_reference, "s"),
        f"# to nominal host speed: ops x{op_factor:.4f}, set-up x{setup_factor:.4f}",
    ]
    values = {
        "intervals_per_s": _median(raw_rates) / op_factor,
        "setup_s": _median(raw_setup) * setup_factor,
        "peak_rss_mb": rss or 0.0,
        "sample_savings_x": math.ceil(bench.inputs.cycles / workloads.TAU_MIN) / rows
        if rows
        else 0.0,
    }
    counts = {
        "intervals_per_s": len(raw_rates),
        "setup_s": len(raw_setup),
        "peak_rss_mb": int(rss is not None),
        "sample_savings_x": 1,
    }
    return values, counts, notes


def source_lines() -> dict:
    counts = {}
    for path in sorted((SRC / "phasesim").glob("*.py")):
        module = "init" if path.stem == "__init__" else path.stem
        counts[f"{module}.source_lines"] = path.read_bytes().count(b"\n")
    counts["total.source_lines"] = sum(counts.values())
    return counts


def traced_run(bench: WorkloadRun, seconds: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics; untraced and traced ops alternate, and each traced
    op must reproduce the untraced artifacts byte for byte."""
    bench.op()  # warm-up: checked, not timed
    plain, traced, per_op = [], [], []
    rec = None
    start = perf_counter()
    while not per_op or perf_counter() - start < seconds:
        took = bench.op()
        if took is None:
            break
        plain.append(took)
        rec = tracing.Recorder()
        uninstall = tracing.install(rec)
        try:
            took = bench.op(rec)
        finally:
            uninstall()
        if took is None:
            break
        traced.append(took)
        artifact_bytes = sum((bench.work / "out" / n).stat().st_size for n in ARTIFACTS)
        per_op.append(
            tracing.layer_metrics(rec, bench.rows, bench.inputs.trace_bytes, artifact_bytes)
        )
    if rec is not None:
        rec.write(bench.work / "spans.csv")
    values = {key: _median([m[key] for m in per_op]) for key in (per_op[0] if per_op else {})}
    values["trace_overhead"] = _median(traced) / _median(plain) if plain and traced else 0.0
    values["error_rate"] = len(bench.failures) / bench.attempted
    counts = dict.fromkeys(values, len(traced))
    counts["error_rate"] = bench.attempted
    lines = source_lines()
    values.update(lines)
    counts.update(dict.fromkeys(lines, 1))
    notes = [
        _spread("untraced op wall clock", plain, "s"),
        _spread("traced op wall clock", traced, "s"),
    ]
    return values, counts, notes


def report(
    args, bench: WorkloadRun, declared: list[dict], values: dict, counts: dict, notes: list[str]
) -> dict:
    print(
        HEADER.format(
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            python=platform.python_version(),
            nproc=len(os.sched_getaffinity(0)),
            machine=f"{platform.system()} {platform.machine()}",
        )
    )
    inputs = bench.inputs
    print(
        f"# inputs: {inputs.cycles} cycles, "
        f"{inputs.trace_rows if inputs.trace_rows is not None else '-'} trace rows, "
        f"{inputs.trace_bytes} trace bytes; op: {' '.join(bench.argv(Path('OUT')))}"
    )
    failed = len(bench.failures)
    print(
        f"# ops: {bench.attempted} attempted, {failed} failed, "
        f"error_rate {failed / bench.attempted:.4f}"
    )
    for failure in bench.failures[:5]:
        print(f"# failed: {failure}")
    for name, digest in (bench.checker.reference or {}).items():
        print(f"# sha256 {name} {digest}")
    print("\n".join(notes))
    print(f"# {'metric':40} {'value':>18}  {'unit':12} samples")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values and not bench.failures:
            raise KeyError(f"benchmark computes no value for declared metric {name!r}")
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"  {name:40} {value:>18.6g}  {entry['unit']:12} {counts.get(name, 0)}")
    return metrics


def run_one(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {w["name"]: w["why"] for w in declared["workloads"]} != workloads.WORKLOADS:
        raise SystemExit("BENCHMARK.json and workloads.py disagree on the workloads")
    bench = WorkloadRun(args.workload, args.seed)
    if args.trace:
        values, counts, notes = traced_run(bench, args.seconds)
        metrics = report(args, bench, declared["per_layer"], values, counts, notes)
    else:
        values, counts, notes = timed_run(bench, args.seconds)
        metrics = report(args, bench, declared["end_to_end"], values, counts, notes)
    failed = len(bench.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            results[f"{name}/trace{trace}"] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both ways")
    args = parser.parse_args()
    if not (SRC / "phasesim" / "cli.py").is_file():
        print(f"error: no phasesim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
