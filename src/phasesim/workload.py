"""Synthetic phase-structured workloads and interval-trace files."""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .core_model import WorkloadSegment
from .detector import (
    IntervalSample, TraceError, TraceValidationError, check_fields, typed_value,
)

SPEC_SCHEMA_VERSION = 1
TRACE_SCHEMA_VERSION = 1

#: A trace row is an IntervalSample: its columns, in order. CSV rows hold
#: them in this order; JSONL rows are ``schema_version`` and these keys.
TRACE_COLUMNS = tuple(f.name for f in fields(IntervalSample))
_trace_values = operator.attrgetter(*TRACE_COLUMNS)
_trace_row = operator.itemgetter(*TRACE_COLUMNS)
_JSONL_KEYS = ("schema_version", *TRACE_COLUMNS)

#: A spec segment is a WorkloadSegment: its keys, in order, with their
#: defaults (None: required).
_SEGMENT_FIELDS = tuple(
    (f.name, None if f.default is MISSING else f.default) for f in fields(WorkloadSegment)
)
_raw_decode = json.JSONDecoder().raw_decode


class TraceParseError(TraceError):
    """A line could not be decoded at all."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    segments: tuple[WorkloadSegment, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.name:
            raise ValueError("workload name must be non-empty")
        if not self.segments:
            raise ValueError("workload needs at least one segment")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def total_cycles(self) -> int:
        return sum(segment.duration for segment in self.segments)


def generate_workload(spec: WorkloadSpec) -> list[WorkloadSegment]:
    """The deterministic segment stream described by a spec."""
    return list(spec.segments)


def steady(
    total_cycles: int = 200_000_000,
    demand: float = 1.6,
    fp_fraction: float = 0.0,
    noise: float = 0.0,
) -> WorkloadSpec:
    """One homogeneous segment; the default demand keeps both core classes
    inside the utilization bounds so nothing interrupts steady profiling."""
    return WorkloadSpec(
        name="steady",
        segments=(WorkloadSegment(total_cycles, demand, fp_fraction, noise),),
    )


def fft_like() -> WorkloadSpec:
    """Three distinct phases: integer-only warmup, a heavier mixed stretch,
    then a long integer-dominant tail with little to do."""
    return WorkloadSpec(
        name="fft_like",
        segments=(
            WorkloadSegment(3_000_000, 1.3, 0.0),
            WorkloadSegment(15_500_000, 2.7, 0.5),
            WorkloadSegment(8_500_000, 1.1, 0.1),
        ),
    )


def fmm_like(repeats: int = 10) -> WorkloadSpec:
    """A two-phase pattern recurring every ten million cycles."""
    if type(repeats) is not int or repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    pair = (
        WorkloadSegment(5_000_000, 2.2, 0.5),
        WorkloadSegment(5_000_000, 1.0, 0.0),
    )
    return WorkloadSpec(name="fmm_like", segments=pair * repeats)


PRESETS: dict[str, Callable[..., WorkloadSpec]] = {
    "steady": steady,
    "fft_like": fft_like,
    "fmm_like": fmm_like,
}


def preset(name: str, **kwargs) -> WorkloadSpec:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; known presets: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory(**kwargs)


def save_workload_spec(spec: WorkloadSpec, path: str | Path) -> None:
    payload = {
        "schema_version": SPEC_SCHEMA_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "segments": [asdict(segment) for segment in spec.segments],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_workload_spec(path: str | Path) -> WorkloadSpec:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"{path}: not valid workload JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: workload spec must be a JSON object")
    version = payload.get("schema_version")
    if version != SPEC_SCHEMA_VERSION or type(version) is not int:
        raise ValueError(f"{path}: unsupported schema_version {version!r}")
    raw_segments = payload.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ValueError(f"{path}: workload needs at least one segment")
    segments = []
    for i, raw in enumerate(raw_segments):
        try:
            if not isinstance(raw, dict):
                raise ValueError("a segment must be a JSON object")
            segments.append(WorkloadSegment(*(
                raw[name] if default is None else raw.get(name, default)
                for name, default in _SEGMENT_FIELDS
            )))
        except KeyError as exc:
            raise ValueError(f"{path}: segment {i}: missing required field {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: segment {i}: {exc}") from exc
    try:
        return WorkloadSpec(
            name=payload.get("name", Path(path).stem),
            segments=tuple(segments),
            seed=payload.get("seed", 0),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def json_field(record: dict, name: str, annotation: str, default=None):
    """``record[name]``, required unless a default is given, as a field
    annotated ``annotation`` holds it (see :func:`typed_value`)."""
    if default is None and name not in record:
        raise ValueError(f"missing required field {name!r}")
    return typed_value(name, record.get(name, default), annotation)


def detect_format(path: str | Path, explicit: str | None = None) -> str:
    if explicit is not None:
        if explicit not in ("csv", "jsonl"):
            raise ValueError(f"unknown trace format {explicit!r}")
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".jsonl":
        return "jsonl"
    return "csv"


def csv_writers(handle: TextIO, header: Sequence[str]) -> tuple:
    """Write ``header`` to ``handle``; return two csv writers, ``plain`` and
    ``quoting``. Lines end in "\\n". Under that line end the csv module leaves
    a "\\r" unquoted, and a reader ends the line there: a row with a "\\r" in
    a string goes to ``quoting``, which quotes every string."""
    plain = csv.writer(handle, lineterminator="\n")
    quoting = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    plain.writerow(header)
    return plain, quoting


def recorded(
    samples: Iterable[IntervalSample], handle: TextIO, fmt: str
) -> Iterator[IntervalSample]:
    """``samples``, each yielded after its trace row is written to ``handle``
    in ``fmt``, "csv" or "jsonl"; none is kept, so a trace of any length streams."""
    if fmt == "csv":
        plain, quoting = (writer.writerow for writer in csv_writers(handle, TRACE_COLUMNS))

        def write(values: tuple) -> None:
            # source_core, the last column, is the one string a row holds.
            (quoting if "\r" in values[-1] else plain)(values)
    else:
        def write(values: tuple) -> None:
            record = dict(zip(_JSONL_KEYS, (TRACE_SCHEMA_VERSION, *values)))
            handle.write(json.dumps(record) + "\n")
    for sample in samples:
        write(_trace_values(sample))
        yield sample


def save_trace(
    samples: Iterable[IntervalSample], path: str | Path, fmt: str | None = None
) -> None:
    fmt = detect_format(path, fmt)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for _ in recorded(samples, handle, fmt):
            pass


def load_trace(path: str | Path, fmt: str | None = None) -> Iterator[IntervalSample]:
    """Stream samples from a trace file, one per row, as it is read.

    Each row is decoded and checked as an :class:`IntervalSample`; an empty
    file yields an empty stream. Whether each sample follows the previous
    one is the stream rule, checked when the samples are observed
    (:meth:`PhaseDetector.observe`).
    """
    path = Path(path)
    return (_csv_samples if detect_format(path, fmt) == "csv" else _jsonl_samples)(path)


# Both loaders decode a row into locals and build the sample from them, so
# IntervalSample's check converts its values (a JSONL int utilization, say)
# or names the bad one.


def _csv_samples(path: Path) -> Iterator[IntervalSample]:
    """The samples of a CSV trace, whose rows hold ``TRACE_COLUMNS`` in order."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader, None)
                if header is None:
                    return
                if tuple(header) != TRACE_COLUMNS:
                    raise TraceParseError(
                        f"bad header {header!r}, expected {list(TRACE_COLUMNS)}", 1
                    )
                for row_index, row in enumerate(reader):
                    try:
                        index, start, tau, retired, util_int, util_fp, core = row
                    except ValueError:
                        raise TraceParseError(
                            f"expected {len(TRACE_COLUMNS)} fields, got {len(row)}",
                            row_index + 2,
                        ) from None
                    try:
                        index, start, tau, retired = int(index), int(start), int(tau), int(retired)
                        util_int, util_fp = float(util_int), float(util_fp)
                    except ValueError as exc:
                        raise TraceParseError(str(exc), row_index + 2) from exc
                    try:
                        sample = IntervalSample(
                            index, start, tau, retired, util_int, util_fp, core
                        )
                    except ValueError as exc:
                        raise TraceValidationError(str(exc), row_index) from exc
                    yield sample
            except csv.Error as exc:
                raise TraceParseError(f"{exc} in {path}", reader.line_num) from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _jsonl_samples(path: Path) -> Iterator[IntervalSample]:
    """The samples of a JSONL trace, one record a line; blank lines are skipped."""
    row_index = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                # A JSON value cannot start with whitespace: a decode that ends
                # the line equals json.loads(line); other lines go to json.loads.
                try:
                    record, stop = _raw_decode(line)
                    exact = stop == len(line) or line[stop:] == "\n"
                except (RecursionError, ValueError):
                    exact = False
                if not exact:
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise TraceParseError(str(exc), line_number) from exc
                    except (RecursionError, ValueError) as exc:
                        # Nesting too deep, or an integer past the
                        # interpreter's digit limit.
                        raise TraceParseError(f"{exc} in {path}", line_number) from exc
                if not isinstance(record, dict):
                    raise TraceParseError("each line must be a JSON object", line_number)
                if "schema_version" not in record:
                    raise TraceParseError("missing schema_version", line_number)
                version = record["schema_version"]
                if version != TRACE_SCHEMA_VERSION or type(version) is not int:
                    raise TraceParseError(
                        f"unsupported schema_version {version!r}", line_number
                    )
                try:
                    index, start, tau, retired, util_int, util_fp, core = _trace_row(record)
                except KeyError:
                    missing = [c for c in TRACE_COLUMNS if c not in record]
                    raise TraceParseError(f"missing fields {missing}", line_number) from None
                try:
                    sample = IntervalSample(index, start, tau, retired, util_int, util_fp, core)
                except ValueError as exc:
                    raise TraceValidationError(str(exc), row_index) from exc
                row_index += 1
                yield sample
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> TraceError:
    # The decoder works on whole chunks, so the line is unknown.
    return TraceError(f"{path} is not valid UTF-8: {exc.reason}")
