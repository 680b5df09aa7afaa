"""Seeded benchmark workloads.

Every workload is generated here from the benchmark's ``--seed`` and written
as the program's normal input files: a workload-spec JSON plus a config for
``simulate``, a CSV or JSONL trace plus a config for ``detect``. Traces are
synthesised by this file's own closed-form core arithmetic, not by the
program, so the inputs of a run never depend on the code under test.

The facts returned with each input (cycles, rows, bytes) are what run.py's
correctness check compares the program's artifacts against.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: The default DetectorConfig's shortest interval, and the fixed tau used.
TAU_MIN = 100_000

#: The seed the pinned digests belong to, and the held-out seed for checking
#: a claim on inputs it was not developed against.
DEFAULT_SEED = 1
HELDOUT_SEED = 2

# Sizes: each op takes one to two seconds on a 2-vCPU x86 container with
# Python 3.11, so a 12 s run yields enough ops for a median.
STEADY_INTERVALS = 40_000
PHASED_SEGMENTS = 300
PHASED_SEGMENT_CYCLES = (40_000_000, 80_000_000)
CHURN_ROWS = 50_000
CHURN_SEGMENTS = 400
STEADY_TRACE_ROWS = 45_000

# The two core classes as the default machine defines them:
# (issue width, integer units, fp units).
A_CORE = (4, 4, 2)
B_CORE = (2, 2, 1)

TRACE_COLUMNS = (
    "index",
    "start_cycle",
    "tau",
    "retired_instructions",
    "util_int",
    "util_fp",
    "source_core",
)


#: Each workload and the one-line reason it was chosen (mirrored in
#: BENCHMARK.json, which run.py checks).
WORKLOADS = {
    "sim_steady_fixed": (
        "simulate, fixed tau, one in-band segment on a strong core: core model, "
        "detector similar path, rows and writing only; controller and scheduler bypassed"
    ),
    "sim_phased_adaptive": (
        "simulate, variable tau from a weak core over recurring phase kinds: every "
        "layer runs, with tau doubling and halving, migrations and recurrences"
    ),
    "detect_churn_csv": (
        "detect over a CSV trace where about 1 interval in 6 changes phase: CSV "
        "parsing and the detector's phase-change and recurrence path"
    ),
    "detect_steady_jsonl": (
        "detect over a steady JSONL trace on the similar path: separates JSONL "
        "parsing cost from phase-change cost"
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Generated input files and the facts the outputs are checked against."""

    argv_base: tuple[str, ...]  # CLI argv without --out
    cycles: int
    trace_rows: int | None  # rows in the trace file, detect only
    trace_bytes: int  # size of the trace file, 0 for simulate
    expected_rows: int | None  # exact scatter row count when known up front


def generate(name: str, seed: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    return _GENERATORS[name](rng, seed, directory)


def _write_conf(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_spec(path: Path, name: str, spec_seed: int, segments: list[tuple]) -> int:
    payload = {
        "schema_version": 1,
        "name": name,
        "seed": spec_seed,
        "segments": [
            {
                "duration": duration,
                "ipc_demand": demand,
                "fp_fraction": fp,
                "noise_amplitude": noise,
            }
            for duration, demand, fp, noise in segments
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return sum(segment[0] for segment in segments)


def _steady_kind(rng: random.Random) -> tuple[float, float, float]:
    """(ipc demand, fp fraction, noise amplitude) that keep both unit
    occupancies inside [delta_under, delta_over] on a class A core and every
    interval within a few percent of the phase average, so nothing but the
    detector's similar path runs."""
    return rng.uniform(2.2, 2.6), rng.uniform(0.1, 0.25), rng.uniform(0.02, 0.05)


def _steady_fixed(rng: random.Random, seed: int, directory: Path) -> Inputs:
    # The final interval is truncated, so the row count is a ceiling.
    cycles = (STEADY_INTERVALS - 1) * TAU_MIN + rng.randint(1, TAU_MIN - 1)
    segment = (cycles, *_steady_kind(rng))
    _write_spec(directory / "spec.json", "steady_fixed", rng.randrange(1000), [segment])
    _write_conf(
        directory / "sim.conf",
        [
            "workload.spec = spec.json",
            "mode = fixed_tau",
            f"fixed_tau = {TAU_MIN}",
            "start_core = A0",
            "scheduler.enabled = yes",
            f"seed = {seed}",
        ],
    )
    return Inputs(
        ("simulate", "--config", str(directory / "sim.conf")),
        cycles,
        None,
        0,
        math.ceil(cycles / TAU_MIN),
    )


#: Phase kinds by category, each drawn as (ipc demand, fp fraction, noise
#: amplitude). In-band kinds sit inside [delta_under, delta_over] on both core
#: classes, with noise below ("calm": tau climbs the ladder) or above
#: ("noisy": early verdicts are unsteady and tau halves) the 1 % steady band.
#: "over_int" and "over_fp" saturate a weak core's integer or single fp unit
#: (a migration up, or re-fires every util_window intervals where none can
#: happen); "under" is too little work for either class; "thin_noisy" is thin
#: work noisy enough to trip the throughput test.
_CATEGORIES = {
    "calm": ((1.3, 1.8), (0.25, 0.35), (0.001, 0.004)),
    "noisy": ((1.3, 1.8), (0.25, 0.35), (0.3, 0.4)),
    "over_int": ((2.6, 3.4), (0.0, 0.03), (0.01, 0.05)),
    "over_fp": ((2.2, 2.8), (0.5, 0.6), (0.01, 0.05)),
    "under": ((0.05, 0.5), (0.0, 0.3), (0.002, 0.01)),
    "thin_noisy": ((0.05, 0.5), (0.0, 0.3), (0.6, 0.9)),
}
KINDS_PER_CATEGORY = 3


def _palette_sequence(rng: random.Random, cycle: tuple[str, ...], count: int) -> list[tuple]:
    """``count`` phase kinds from a seeded palette.

    The categories follow ``cycle`` over and over; which of a category's
    kinds fills each slot is seeded. A fixed category order keeps the
    workload's character, and so its figures, alike from seed to seed.
    """
    palette = {
        category: [
            tuple(rng.uniform(lo, hi) for lo, hi in _CATEGORIES[category])
            for _ in range(KINDS_PER_CATEGORY)
        ]
        for category in sorted(set(cycle))
    }
    return [rng.choice(palette[cycle[i % len(cycle)]]) for i in range(count)]


#: Category order of the phased workload: calm stretches let tau climb,
#: noisy ones pull it back, and the out-of-band kinds move the process
#: between core classes or re-fire where it cannot move.
PHASED_CYCLE = (
    "calm", "over_int", "calm", "noisy", "under", "over_fp", "calm", "noisy",
    "over_int", "under", "calm", "over_fp", "under",
)
#: Category order of the churn trace, mostly out of band for a weak core.
CHURN_CYCLE = (
    "over_int", "under", "thin_noisy", "over_fp", "calm", "under", "over_int",
    "thin_noisy", "over_fp", "under", "noisy", "over_int",
)


def _phased_adaptive(rng: random.Random, seed: int, directory: Path) -> Inputs:
    kinds = _palette_sequence(rng, PHASED_CYCLE, PHASED_SEGMENTS)
    lo, hi = PHASED_SEGMENT_CYCLES
    # Durations off the tau ladder, so longer taus straddle boundaries.
    segments = [(rng.randint(lo, hi), *kind) for kind in kinds]
    cycles = _write_spec(directory / "spec.json", "phased", rng.randrange(1000), segments)
    _write_conf(
        directory / "sim.conf",
        [
            "workload.spec = spec.json",
            "mode = variable_tau",
            "start_core = B0",
            "scheduler.enabled = yes",
            f"seed = {seed}",
        ],
    )
    return Inputs(("simulate", "--config", str(directory / "sim.conf")), cycles, None, 0, None)


def _interval(core: tuple[int, int, int], demand: float, fp: float, jitter: float, tau: int):
    """Closed-form interval on one core: demand clipped at the issue width,
    unit occupancy as the achieved rate over the unit count."""
    width, int_units, fp_units = core
    ipc = min(demand * (1.0 + jitter), float(width))
    return (
        int(round(ipc * tau)),
        min(1.0, ipc * (1.0 - fp) / int_units),
        min(1.0, ipc * fp / fp_units),
    )


def _trace_rows(rng, core, core_name, segments, rows):
    """(index, start, tau, retired, util_int, util_fp, core) for ``rows``
    intervals at tau_min, walking ``segments`` of (intervals, demand, fp,
    noise) cyclically."""
    index = 0
    while index < rows:
        for length, demand, fp, noise in segments:
            for _ in range(length):
                if index == rows:
                    return
                retired, util_int, util_fp = _interval(
                    core, demand, fp, rng.uniform(-noise, noise), TAU_MIN
                )
                yield (index, index * TAU_MIN, TAU_MIN, retired, util_int, util_fp, core_name)
                index += 1


def _detect_conf(directory: Path, trace_name: str) -> tuple[str, ...]:
    _write_conf(directory / "detect.conf", [f"workload.trace = {trace_name}"])
    return ("detect", "--config", str(directory / "detect.conf"))


def _churn_csv(rng: random.Random, seed: int, directory: Path) -> Inputs:
    # A palette workload pinned to a weak core: out-of-band kinds re-fire
    # every util_window intervals and noisy thin kinds trip the throughput
    # test, so phases change often and recur among a growing closed list.
    kinds = _palette_sequence(rng, CHURN_CYCLE, CHURN_SEGMENTS)
    segments = [(rng.randint(20, 200), *kind) for kind in kinds]
    path = directory / "trace.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for row in _trace_rows(rng, B_CORE, "B0", segments, CHURN_ROWS):
            writer.writerow((*row[:4], repr(row[4]), repr(row[5]), row[6]))
    return Inputs(
        _detect_conf(directory, path.name),
        CHURN_ROWS * TAU_MIN,
        CHURN_ROWS,
        path.stat().st_size,
        CHURN_ROWS,
    )


def _steady_jsonl(rng: random.Random, seed: int, directory: Path) -> Inputs:
    segment = (STEADY_TRACE_ROWS, *_steady_kind(rng))
    path = directory / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for row in _trace_rows(rng, A_CORE, "A0", [segment], STEADY_TRACE_ROWS):
            record = {"schema_version": 1, **dict(zip(TRACE_COLUMNS, row))}
            handle.write(json.dumps(record) + "\n")
    return Inputs(
        _detect_conf(directory, path.name),
        STEADY_TRACE_ROWS * TAU_MIN,
        STEADY_TRACE_ROWS,
        path.stat().st_size,
        STEADY_TRACE_ROWS,
    )


_GENERATORS = {
    "sim_steady_fixed": _steady_fixed,
    "sim_phased_adaptive": _phased_adaptive,
    "detect_churn_csv": _churn_csv,
    "detect_steady_jsonl": _steady_jsonl,
}
