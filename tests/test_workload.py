from __future__ import annotations

import json
import math
import reprlib
from dataclasses import replace
from itertools import tee
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_stream
from phasesim import (
    PRESETS,
    ConfigError,
    DetectorConfig,
    IntervalSample,
    TraceError,
    TraceParseError,
    TraceValidationError,
    WorkloadSegment,
    WorkloadSpec,
    cli,
    detect_format,
    detect_over_samples,
    fft_like,
    fmm_like,
    load_summary,
    load_trace,
    load_workload_spec,
    preset,
    save_trace,
    save_workload_spec,
    steady,
)
from phasesim.detector import MAX_RETIRED
from phasesim.workload import TRACE_COLUMNS

#: Core names that a CSV trace has to quote or that a line reader could split
#: on, drawn alongside arbitrary text.
AWKWARD_CORES = ("", ",", '"', "A\n0", "A\r0", "A0\r\n", "é", "核")


@st.composite
def valid_streams(draw) -> list[IntervalSample]:
    """Contiguous streams of any valid samples: counts from 0 to 2**63 - 1,
    utilizations floats in [0, 1] or the ints 0 and 1, and core names of any
    text but NUL (which the csv reader of Python 3.10 refuses) and lone
    surrogates (which are not UTF-8)."""
    counts = st.integers(0, MAX_RETIRED)
    utilizations = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1]))
    text = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\x00"))
    cores = st.one_of(st.sampled_from(AWKWARD_CORES), text)
    samples: list[IntervalSample] = []
    start = draw(counts)
    for index in range(draw(st.integers(0, 6))):
        if start > MAX_RETIRED:
            break
        tau = draw(st.integers(1, MAX_RETIRED))
        samples.append(
            IntervalSample(
                index, start, tau, draw(counts),
                draw(utilizations), draw(utilizations), draw(cores),
            )
        )
        start += tau
    return samples


class TestPresets:
    def test_registry_contents(self):
        assert set(PRESETS) == {"steady", "fft_like", "fmm_like"}

    def test_steady_is_one_flat_segment(self):
        spec = steady()
        assert len(spec.segments) == 1
        assert spec.total_cycles == 200_000_000
        assert spec.segments[0].fp_fraction == 0.0

    def test_steady_accepts_overrides(self):
        spec = preset("steady", total_cycles=1_000_000, demand=2.0)
        assert spec.total_cycles == 1_000_000
        assert spec.segments[0].ipc_demand == 2.0

    def test_fft_like_shape(self):
        spec = fft_like()
        assert len(spec.segments) == 3
        demands = [s.ipc_demand for s in spec.segments]
        assert len(set(demands)) == 3
        assert spec.segments[0].fp_fraction == 0.0
        assert spec.segments[1].fp_fraction > 0.0
        assert all(s.duration % 100_000 == 0 for s in spec.segments)

    def test_fmm_like_alternates(self):
        spec = fmm_like(repeats=4)
        assert len(spec.segments) == 8
        demands = [s.ipc_demand for s in spec.segments]
        assert demands[0::2] == [demands[0]] * 4
        assert demands[1::2] == [demands[1]] * 4
        assert demands[0] != demands[1]

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: WorkloadSpec(name="", segments=steady().segments),
                "workload name must be non-empty",
            ),
            (lambda: fmm_like(repeats=0), "repeats must be >= 1, got 0"),
            (lambda: fmm_like(repeats=2.0), r"^repeats must be >= 1, got 2\.0$"),
            (lambda: fmm_like(repeats="2"), "^repeats must be >= 1, got '2'$"),
            (
                lambda: WorkloadSpec(name="s", segments=steady().segments, seed=-1),
                "seed must be >= 0, got -1",
            ),
        ],
        ids=[
            "empty_name", "fmm_like_zero_repeats", "fmm_like_float_repeats",
            "fmm_like_str_repeats", "negative_seed",
        ],
    )
    def test_refusal_names_its_cause(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("fibonacci")


class TestWorkloadSpecIO:
    def test_round_trip(self, tmp_path):
        spec = replace(fft_like(), seed=42)
        path = tmp_path / "spec.json"
        save_workload_spec(spec, path)
        assert load_workload_spec(path) == spec

    def test_rejects_empty_segments(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="empty", segments=(), seed=0)

    def test_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "spec.json"
        save_workload_spec(steady(), path)
        blob = json.loads(path.read_text())
        blob["schema_version"] = 99
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError):
            load_workload_spec(path)

    def test_rejects_bad_segment_values(self, tmp_path):
        path = tmp_path / "spec.json"
        save_workload_spec(steady(), path)
        blob = json.loads(path.read_text())
        blob["segments"][0]["fp_fraction"] = 2.0
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError):
            load_workload_spec(path)

    @pytest.mark.parametrize("field", ["duration", "ipc_demand"])
    def test_missing_required_segment_field_is_named(self, tmp_path, field):
        path = tmp_path / "spec.json"
        save_workload_spec(steady(), path)
        blob = json.loads(path.read_text())
        del blob["segments"][0][field]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError) as exc:
            load_workload_spec(path)
        assert str(exc.value) == f"{path}: segment 0: missing required field {field!r}"

    @pytest.mark.parametrize("where", ["duration", "seed"])
    def test_rejects_an_integer_too_large_for_a_float(self, tmp_path, where):
        # JSON reads 1e400 as the float inf, which no integer field takes.
        path = tmp_path / "spec.json"
        save_workload_spec(steady(), path)
        text = path.read_text()
        key = f'"{where}": '
        start = text.index(key) + len(key)
        end = min(text.index(",", start), text.index("\n", start))
        path.write_text(text[:start] + "1e400" + text[end:])
        with pytest.raises(ValueError, match=f"{where} must be an int, got inf"):
            load_workload_spec(path)

    @pytest.mark.parametrize(
        "in_segment, field, value",
        [
            (False, "schema_version", True),
            (False, "schema_version", 1.0),
            (False, "seed", True),
            (False, "seed", 3.0),
            (False, "name", 5),
            (True, "duration", 1000000.7),
            (True, "duration", True),
            (True, "ipc_demand", True),
            (True, "ipc_demand", "1.5"),
            (True, "fp_fraction", False),
            (True, "noise_amplitude", None),
        ],
    )
    def test_value_of_the_wrong_json_type_is_rejected(
        self, tmp_path, in_segment, field, value
    ):
        path = tmp_path / "spec.json"
        save_workload_spec(steady(), path)
        blob = json.loads(path.read_text())
        (blob["segments"][0] if in_segment else blob)[field] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=field):
            load_workload_spec(path)

    def test_integer_demand_fields_read_as_floats(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            '{"schema_version": 1, "name": "ints", "seed": 2, "segments": [{"duration": '
            '1000000, "ipc_demand": 2, "fp_fraction": 0, "noise_amplitude": 0}]}'
        )
        # repr tells 2 from 2.0, which == does not.
        expected = WorkloadSpec("ints", (WorkloadSegment(1_000_000, 2.0, 0.0, 0.0),), 2)
        assert repr(load_workload_spec(path)) == repr(expected)


class TestTraceFormats:
    def test_detect_format_by_extension(self, tmp_path):
        assert detect_format(tmp_path / "t.jsonl") == "jsonl"
        assert detect_format(tmp_path / "t.csv") == "csv"
        assert detect_format(tmp_path / "t.dat") == "csv"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip(self, tmp_path, fmt):
        samples = build_stream([1.0, 2.5, 0.0], utils=[0.5, 0.96, 0.2])
        path = tmp_path / f"trace.{fmt}"
        save_trace(samples, path, fmt=fmt)
        assert list(load_trace(path, fmt=fmt)) == samples

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_empty_file_is_an_empty_stream(self, tmp_path, fmt):
        path = tmp_path / f"trace.{fmt}"
        path.write_text("")
        assert list(load_trace(path, fmt=fmt)) == []

    def test_header_only_csv_is_empty(self, tmp_path):
        samples = build_stream([])
        path = tmp_path / "trace.csv"
        save_trace(samples, path, fmt="csv")
        assert path.read_text().count("\n") == 1
        assert list(load_trace(path)) == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace([], tmp_path / "t.bin", fmt="parquet")

    @given(
        ths=st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=1, max_size=30),
        fmt=st.sampled_from(["csv", "jsonl"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, ths, fmt):
        tmp = tmp_path_factory.mktemp("traces")
        samples = build_stream(ths)
        path = tmp / f"trace.{fmt}"
        save_trace(samples, path, fmt=fmt)
        assert list(load_trace(path, fmt=fmt)) == samples

    @given(samples=valid_streams())
    @settings(max_examples=60, deadline=None)
    def test_any_valid_stream_round_trips(self, tmp_path_factory, samples):
        # save_trace, the CSV reader's unrolled conversion and the JSONL
        # reader's type comparison must agree with IntervalSample on every
        # valid value.
        tmp = tmp_path_factory.mktemp("traces")
        for fmt in ("csv", "jsonl"):
            path = tmp / f"trace.{fmt}"
            save_trace(samples, path)
            loaded = list(load_trace(path))
            assert loaded == samples, fmt
            assert all(type(s.util_int) is type(s.util_fp) is float for s in loaded), fmt

    def test_jsonl_keys_in_any_order_and_extra_keys_load_alike(self, tmp_path):
        samples = build_stream([1.0, 2.5, 0.0], utils=[0.5, 0.96, 0.2])
        path = tmp_path / "trace.jsonl"
        save_trace(samples, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        reordered = [dict(reversed(record.items())) for record in records]
        extended = [{"note": "x", **record, "util": [1.0]} for record in records]
        for variant in (reordered, extended):
            path.write_text("".join(json.dumps(record) + "\n" for record in variant))
            assert list(load_trace(path)) == samples


def replay(path):
    """``detect``'s replay of the trace at ``path``."""
    return detect_over_samples(load_trace(path), DetectorConfig())


class TestTraceErrors:
    HEADER = "index,start_cycle,tau,retired_instructions,util_int,util_fp,source_core"

    def test_bad_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("index,tau\n0,100\n")
        with pytest.raises(TraceParseError) as exc:
            list(load_trace(path))
        assert exc.value.line_number == 1

    def test_unparsable_field_reports_the_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            f"{self.HEADER}\n"
            "0,0,100000,100000,0.5,0.0,A0\n"
            "1,100000,oops,100000,0.5,0.0,A0\n"
        )
        with pytest.raises(TraceParseError) as exc:
            list(load_trace(path))
        assert exc.value.line_number == 3

    def test_out_of_range_util_is_a_validation_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            f"{self.HEADER}\n"
            "0,0,100000,100000,1.3,0.0,A0\n"
        )
        with pytest.raises(TraceValidationError) as exc:
            list(load_trace(path))
        assert exc.value.row_index == 0

    def test_index_gap_is_a_validation_error(self, tmp_path):
        samples = build_stream([1.0, 1.0, 1.0])
        gapped = [samples[0], samples[2]]
        path = tmp_path / "trace.csv"
        save_trace(gapped, path)
        with pytest.raises(TraceValidationError):
            replay(path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(index=2), "row 1: index 2 does not follow 0"),
            (
                dict(start_cycle=100_001),
                "row 1: start_cycle 100001 leaves a gap (expected 100000)",
            ),
        ],
        ids=["index_skip", "cycle_gap"],
    )
    def test_a_row_out_of_sequence_is_named(self, tmp_path, fmt, change, message):
        first, second = build_stream([1.0, 1.0])
        path = tmp_path / f"trace.{fmt}"
        save_trace([first, replace(second, **change)], path)
        with pytest.raises(TraceValidationError) as exc:
            replay(path)
        assert str(exc.value) == message
        assert exc.value.row_index == 1

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_first_index_other_than_zero_is_a_validation_error(self, tmp_path, fmt):
        path = tmp_path / f"trace.{fmt}"
        save_trace([replace(s, index=s.index + 5) for s in build_stream([1.0, 1.0])], path)
        with pytest.raises(TraceValidationError, match="first index is 5") as exc:
            replay(path)
        assert exc.value.row_index == 0

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "count",
        [10**308, 10**310, 10**400, MAX_RETIRED + 1],
        ids=["1e308", "1e310", "1e400", "max+1"],
    )
    def test_count_beyond_a_64_bit_counter_is_a_validation_error(
        self, tmp_path, fmt, count
    ):
        path = tmp_path / f"trace.{fmt}"
        save_trace(build_stream([1.0, 1.0]), path)
        field = "100000,0.6" if fmt == "csv" else '"retired_instructions": 100000'
        path.write_text(path.read_text().replace(field, field.replace("100000", str(count)), 1))
        with pytest.raises(
            TraceValidationError, match="retired_instructions must be >= 0 and fit a 64-bit counter"
        ) as exc:
            list(load_trace(path))
        assert exc.value.row_index == 0

    def test_largest_64_bit_count_loads(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(build_stream([1.0]), path)
        path.write_text(path.read_text().replace("100000,0.6", f"{MAX_RETIRED},0.6"))
        [sample] = load_trace(path)
        assert sample.retired_instructions == MAX_RETIRED

    @staticmethod
    def one_row_trace(path, **fields) -> None:
        row = dict(zip(TRACE_COLUMNS, (0, 0, 100_000, 100_000, 0.6, 0.0, "A0")))
        row.update(fields)
        if path.suffix == ".csv":
            text = ",".join(TRACE_COLUMNS) + "\n" + ",".join(map(str, row.values())) + "\n"
        else:
            text = json.dumps({"schema_version": 1, **row}) + "\n"
        path.write_text(text)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("field", ["start_cycle", "tau"])
    @pytest.mark.parametrize("value", [MAX_RETIRED + 1, 10**20], ids=["max+1", "1e20"])
    def test_cycle_count_beyond_a_64_bit_counter_is_a_validation_error(
        self, tmp_path, fmt, field, value
    ):
        path = tmp_path / f"trace.{fmt}"
        self.one_row_trace(path, **{field: value})
        with pytest.raises(
            TraceValidationError, match=f"^row 0: {field} must be .* fit a 64-bit counter"
        ) as exc:
            list(load_trace(path))
        assert exc.value.row_index == 0

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("field", ["start_cycle", "tau"])
    def test_largest_64_bit_cycle_count_loads(self, tmp_path, fmt, field):
        path = tmp_path / f"trace.{fmt}"
        self.one_row_trace(path, **{field: MAX_RETIRED})
        [sample] = load_trace(path)
        assert getattr(sample, field) == MAX_RETIRED

    def test_cycle_gap_is_a_validation_error(self, tmp_path):
        a, b = build_stream([1.0, 1.0])
        shifted = IntervalSample(
            index=b.index,
            start_cycle=b.start_cycle + 1,
            tau=b.tau,
            retired_instructions=b.retired_instructions,
            util_int=b.util_int,
            util_fp=b.util_fp,
            source_core=b.source_core,
        )
        path = tmp_path / "trace.csv"
        save_trace([a, shifted], path)
        with pytest.raises(TraceValidationError):
            replay(path)

    def test_jsonl_line_without_schema_version(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"index": 0}\n')
        with pytest.raises(TraceParseError):
            list(load_trace(path, fmt="jsonl"))

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"', "2"])
    def test_jsonl_schema_version_must_be_the_integer_one(self, tmp_path, version):
        path = tmp_path / "trace.jsonl"
        save_trace(build_stream([1.0]), path)
        path.write_text(
            path.read_text().replace('"schema_version": 1', f'"schema_version": {version}')
        )
        with pytest.raises(TraceParseError, match="unsupported schema_version"):
            list(load_trace(path))

    def test_jsonl_infinite_integer_is_a_validation_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(build_stream([1.0]), path)
        path.write_text(path.read_text().replace('"tau": 100000', '"tau": 1e400'))
        with pytest.raises(TraceValidationError) as exc:
            list(load_trace(path))
        assert exc.value.row_index == 0

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("tau", 100000.7, "100000.7"),
            ("tau", True, "True"),
            ("index", False, "False"),
            ("start_cycle", "0", "'0'"),
            ("retired_instructions", None, "None"),
            ("source_core", None, "None"),
            ("source_core", 7, "7"),
            ("util_int", "0.5", "'0.5'"),
            ("util_fp", True, "True"),
            ("util_int", [0.5], "[0.5]"),
            ("util_fp", 10**400, "does not fit a float"),
        ],
    )
    def test_jsonl_value_of_the_wrong_type_is_a_validation_error(
        self, tmp_path, field, value, shown
    ):
        path = tmp_path / "trace.jsonl"
        save_trace(build_stream([1.0]), path)
        record = json.loads(path.read_text())
        record[field] = value
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TraceValidationError) as exc:
            list(load_trace(path))
        assert exc.value.row_index == 0
        assert field in str(exc.value)
        assert shown in str(exc.value)

    def test_jsonl_integer_utilization_reads_as_a_float(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(build_stream([1.0], utils=1.0), path)
        path.write_text(path.read_text().replace('"util_int": 1.0', '"util_int": 1'))
        (sample,) = load_trace(path)
        assert type(sample.util_int) is float and sample.util_int == 1.0

    def test_jsonl_line_missing_two_fields_names_them_in_column_order(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(build_stream([1.0, 1.0]), path)
        first, second = path.read_text().splitlines()
        record = json.loads(second)
        del record["util_fp"], record["tau"]
        path.write_text(f"{first}\n{json.dumps(record)}\n")
        with pytest.raises(TraceParseError) as exc:
            list(load_trace(path))
        assert str(exc.value) == "line 2: missing fields ['tau', 'util_fp']"

    def test_jsonl_integer_utilization_then_a_bool_names_the_bool(self, tmp_path):
        # The integer passes as a number; the bool in a later column does not.
        path = tmp_path / "trace.jsonl"
        save_trace(build_stream([1.0], utils=1.0), path)
        record = json.loads(path.read_text())
        record.update(util_int=1, util_fp=True)
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(TraceValidationError) as exc:
            list(load_trace(path))
        assert str(exc.value) == "row 0: util_fp must be a number, got True"

    def test_jsonl_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceParseError) as exc:
            list(load_trace(path, fmt="jsonl"))
        assert exc.value.line_number == 1

    def test_jsonl_value_split_across_lines_is_rejected_at_its_first_line(
        self, tmp_path
    ):
        # Joined as "[" + line 1 + "," + line 2 + "]", these two lines decode
        # to two records, one per line; read line by line, line 1 is
        # unterminated.
        path = tmp_path / "trace.jsonl"
        path.write_text(
            jsonl_record(0, ', "x": [1') + "\n" + "2]}, " + jsonl_record(1, "}") + "\n"
        )
        with pytest.raises(TraceParseError) as exc:
            list(load_trace(path))
        assert exc.value.line_number == 1
        assert str(exc.value) == (
            "line 1: Expecting ',' delimiter: line 2 column 1 (char 161)"
        )


def two_rows(row: int, changes: dict) -> list[dict]:
    """Two contiguous trace rows, column to value, with ``changes`` laid
    over row ``row``: a value None drops the field."""
    rows = [dict(zip(TRACE_COLUMNS, (i, i * 100_000, 100_000, 60_000, 0.6, 0.0, "A0")))
            for i in range(2)]
    rows[row].update(changes)
    rows[row] = {key: value for key, value in rows[row].items() if value is not None}
    return rows


def two_row_trace(path, row: int, changes: dict) -> None:
    """The trace of ``two_rows(row, changes)`` at ``path``, in the format its
    suffix names. A JSONL trace opens with a blank line, so in either format
    row ``i`` sits on line ``i + 2``. Text is written with
    ``surrogateescape``, so "\\udcff" in a value is the byte 0xff, which is
    not UTF-8."""
    rows = two_rows(row, changes)
    if path.suffix == ".csv":
        lines = [TRACE_COLUMNS, *(values.values() for values in rows)]
        text = "".join(",".join(map(str, line)) + "\n" for line in lines)
    else:
        records = ({"schema_version": 1, **values} for values in rows)
        text = "\n" + "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


def both_formats(error, message, number) -> dict:
    return dict.fromkeys(["csv", "jsonl"], (error, message, number))


#: One case per class of malformed row: the row of two_row_trace to change
#: and the change, then for each format the error, its text and the line (a
#: parse error) or row (a validation error) it names.
MALFORMED_ROWS = {
    "short_row": (
        1,
        {"source_core": None},
        {"csv": (TraceParseError, "line 3: expected 7 fields, got 6", 3),
         "jsonl": (TraceParseError, "line 3: missing fields ['source_core']", 3)},
    ),
    "non_integer_count": (
        1,
        {"tau": 1e5},
        {"csv": (TraceParseError,
                 "line 3: invalid literal for int() with base 10: '100000.0'", 3),
         "jsonl": (TraceValidationError, "row 1: tau must be an int, got 100000.0", 1)},
    ),
    "out_of_range_value": (
        1,
        {"util_fp": 1.5},
        both_formats(TraceValidationError, "row 1: util_fp must lie in [0, 1], got 1.5", 1),
    ),
    "negative_index": (
        0,
        {"index": -1},
        both_formats(TraceValidationError, "row 0: sample index must be >= 0, got -1", 0),
    ),
    "negative_start_cycle": (
        0,
        {"start_cycle": -1},
        both_formats(
            TraceValidationError,
            "row 0: start_cycle must be >= 0 and fit a 64-bit counter, got -1",
            0,
        ),
    ),
    "negative_retired_instructions": (
        1,
        {"retired_instructions": -1},
        both_formats(
            TraceValidationError,
            "row 1: retired_instructions must be >= 0 and fit a 64-bit counter, got -1",
            1,
        ),
    ),
    "bad_utf8": (
        1,
        {"source_core": "A\udcff"},
        both_formats(TraceError, "{path} is not valid UTF-8: invalid start byte", None),
    ),
}


class TestMalformedRows:
    """Each class of malformed row fails the load with its own text and the
    number of its line or row. Rows that do not follow each other are the
    detector's to refuse (``TestStreamRule``)."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("case", MALFORMED_ROWS)
    def test_message_and_number(self, tmp_path, fmt, case):
        row, changes, expected = MALFORMED_ROWS[case]
        error, message, number = expected[fmt]
        path = tmp_path / f"trace.{fmt}"
        two_row_trace(path, row, changes)
        with pytest.raises(TraceError) as exc:
            list(load_trace(path))
        assert type(exc.value) is error
        assert str(exc.value) == message.format(path=path)
        if error is TraceParseError:
            assert exc.value.line_number == number
        elif error is TraceValidationError:
            assert exc.value.row_index == number


#: One case per way a sample can break the stream rule: the row of two_rows
#: to change, the change, and the message, which names that row.
STREAM_VIOLATIONS = {
    "first_index_not_0": (0, {"index": 1}, "row 0: the first index is 1, expected 0"),
    "skipped_index": (1, {"index": 2}, "row 1: index 2 does not follow 0"),
    "gap": (
        1, {"start_cycle": 100_001}, "row 1: start_cycle 100001 leaves a gap (expected 100000)"
    ),
    "overlap": (
        1, {"start_cycle": 99_999}, "row 1: start_cycle 99999 leaves a gap (expected 100000)"
    ),
}


class TestStreamRule:
    """The detector alone checks that samples follow each other: a CSV
    trace, a JSONL trace and samples in memory that break the rule alike
    fail with one message naming one row."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("case", STREAM_VIOLATIONS)
    def test_detect_exits_two_naming_the_row(self, tmp_path, capsys, fmt, case):
        row, changes, message = STREAM_VIOLATIONS[case]
        path, out = tmp_path / f"trace.{fmt}", tmp_path / "out"
        two_row_trace(path, row, changes)
        assert cli.main(["detect", "--trace", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"i/o error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("case", STREAM_VIOLATIONS)
    def test_replay_of_a_trace(self, tmp_path, fmt, case):
        row, changes, message = STREAM_VIOLATIONS[case]
        path = tmp_path / f"trace.{fmt}"
        two_row_trace(path, row, changes)
        self.assert_refused(load_trace(path), message, row)

    @pytest.mark.parametrize("case", STREAM_VIOLATIONS)
    def test_replay_of_samples_in_memory(self, case):
        row, changes, message = STREAM_VIOLATIONS[case]
        samples = [IntervalSample(*values.values()) for values in two_rows(row, changes)]
        self.assert_refused(samples, message, row)

    @staticmethod
    def assert_refused(samples, message: str, row: int) -> None:
        with pytest.raises(TraceValidationError) as exc:
            detect_over_samples(samples, DetectorConfig())
        assert str(exc.value) == message
        assert exc.value.row_index == row


#: One case per class of number spelling that Python's int() and float() read
#: and JSON has no number for: the CSV loader reads a field with them, so
#: these rows load as the trace writer's spelling of the same value does.
CSV_NUMBER_SPELLINGS = {
    "underscores": {"tau": "1_000_00"},
    "surrounding_space": {"retired_instructions": " 60000"},
    "plus_sign": {"start_cycle": "+100000"},
    "leading_zeros": {"index": "01"},
    "non_ascii_digits": {"tau": "\uff11\uff10\uff10\uff10\uff10\uff10"},
    "no_digit_before_the_point": {"util_int": ".6"},
}


@pytest.mark.parametrize("spelling", CSV_NUMBER_SPELLINGS)
def test_csv_reads_numbers_as_int_and_float_do(tmp_path, spelling):
    written, spelled = tmp_path / "written.csv", tmp_path / "spelled.csv"
    two_row_trace(written, 1, {})
    two_row_trace(spelled, 1, CSV_NUMBER_SPELLINGS[spelling])
    assert spelled.read_bytes() != written.read_bytes()
    assert list(load_trace(spelled)) == list(load_trace(written))


TRACE_HEADER = (
    b"index,start_cycle,tau,retired_instructions,util_int,util_fp,source_core\n"
)
ONE_ROW = {
    "csv": TRACE_HEADER + b"0,0,100000,100000,0.5,0.0,A0\n",
    "jsonl": (
        b'{"schema_version": 1, "index": 0, "start_cycle": 0, "tau": 100000, '
        b'"retired_instructions": 100000, "util_int": 0.5, "util_fp": 0.0, '
        b'"source_core": "A0"}\n'
    ),
}


def jsonl_record(index: int, tail: str = "}") -> str:
    """The ONE_ROW record moved to position ``index`` of a contiguous stream,
    with ``tail`` in place of its closing brace."""
    record = ONE_ROW["jsonl"].decode().rstrip("\n")
    moved = record.replace(
        '"index": 0, "start_cycle": 0',
        f'"index": {index}, "start_cycle": {index * 100_000}',
    )
    return moved[:-1] + tail


def load_jsonl_with_json_loads(path):
    """The loader with every line decoded by json.loads: what it did before
    lines were decoded with raw_decode, and the reference for it."""

    def no_raw_decode(line):
        raise ValueError("raw_decode disabled")

    with mock.patch("phasesim.workload._raw_decode", no_raw_decode):
        return trace_outcome(path)


def trace_outcome(path):
    """The samples a trace loads to, or the type and text of its error."""
    try:
        return list(load_trace(path, fmt="jsonl"))
    except TraceError as exc:
        return type(exc), str(exc)


def mostly(common, rare: list):
    """``common`` three times in four, otherwise one of ``rare``."""
    return st.one_of(*[st.just(common)] * 3, st.sampled_from(rare))


# Record tails: valid and invalid values, NaN and Infinity literals, nesting
# past the recursion limit, an integer past the digit limit, an unclosed list.
JSONL_TAILS = mostly(
    "}",
    [
        ', "x": null}',
        ', "util_fp": NaN}',
        ', "util_int": Infinity}',
        ', "x": -Infinity}',
        ', "x": ' + "[" * 20 + "]" * 20 + "}",
        ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ', "x": ' + "7" * 5000 + "}",
        ', "x": [1',
        "",
    ],
)
JSONL_LINES = st.lists(
    st.tuples(
        mostly("", [" ", "\t", "\ufeff"]),
        st.one_of(
            JSONL_TAILS,
            # A 1-tuple: the whole text of a line that is not a record.
            st.sampled_from(["", " ", "null", "[]", "{not json}", "2]}"]).map(
                lambda text: (text,)
            ),
        ),
        # "\x0c" is whitespace to str.strip but not to JSON.
        mostly("", [" ", "\t", "\r", "\x0c", "x", ", {}", "}", "]"]),
    ),
    max_size=6,
)


class TestJsonlDecoding:
    """Lines that raw_decode takes must load as with json.loads; the rest
    must fall through to json.loads and its messages."""

    @given(lines=JSONL_LINES, final_newline=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_json_loads(self, tmp_path_factory, lines, final_newline):
        texts, records = [], 0
        for prefix, body, suffix in lines:
            if isinstance(body, tuple):
                (body,) = body
            else:
                body = jsonl_record(records, body)
                records += 1
            texts.append(prefix + body + suffix)
        text = "\n".join(texts) + ("\n" if final_newline and texts else "")
        path = tmp_path_factory.mktemp("jsonl") / "trace.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert trace_outcome(path) == load_jsonl_with_json_loads(path)


class TestTraceLoaderFuzz:
    """Whatever the bytes, a trace either replays or raises TraceError."""

    @given(
        fmt=st.sampled_from(["csv", "jsonl"]),
        prefix=st.sampled_from(["", "header", "row"]),
        tail=st.binary(max_size=400),
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, fmt, prefix, tail):
        head = {"": b"", "header": TRACE_HEADER, "row": ONE_ROW[fmt]}[prefix]
        path = tmp_path_factory.mktemp("fuzz") / f"trace.{fmt}"
        path.write_bytes(head + tail)
        try:
            replay(path)
        except TraceError:
            pass


# JSON values drawn over the spec's own keys, so the fuzz reaches the type
# checks of every field and not only the JSON decoder.
SPEC_KEYS = st.sampled_from(
    [
        "schema_version",
        "name",
        "seed",
        "segments",
        "duration",
        "ipc_demand",
        "fp_fraction",
        "noise_amplitude",
    ]
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(SPEC_KEYS, inner, max_size=8)
    ),
    max_leaves=8,
)
SPEC_OVERRIDES = st.dictionaries(SPEC_KEYS, JSON_VALUES, max_size=3)


def spec_bytes(top: dict, segment: dict) -> bytes:
    """A valid one-segment spec with ``top`` and ``segment`` laid over it."""
    base_segment = {"duration": 1000, "ipc_demand": 1.0, **segment}
    return json.dumps({"schema_version": 1, "segments": [base_segment], **top}).encode()


class TestWorkloadSpecFuzz:
    """Whatever the bytes, a workload spec either loads or raises ValueError."""

    @given(
        payload=st.one_of(
            st.binary(max_size=400),
            JSON_VALUES.map(lambda value: json.dumps(value).encode()),
            st.builds(spec_bytes, SPEC_OVERRIDES, SPEC_OVERRIDES),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("fuzz") / "spec.json"
        path.write_bytes(payload)
        try:
            load_workload_spec(path)
        except ValueError:
            pass


# One value of any JSON type: integers reach past a float's range, and floats
# include inf and nan (JSON's Infinity and NaN).
ANY_JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 10**309, -(10**400), 10**400]),
    st.integers(min_value=-(10**400), max_value=10**400),
)


def spec_error(directory, field: str, value) -> str | None:
    """The error of a one-segment spec with ``value`` as the segment's
    ``field``, or None if it loads."""
    path = directory / "spec.json"
    path.write_bytes(spec_bytes({}, {field: value}))
    try:
        load_workload_spec(path)
    except ValueError as exc:
        return str(exc)
    return None


def jsonl_error(directory, field: str, value) -> str | None:
    """The error of a one-row JSONL trace with ``value`` as ``field``."""
    record = json.loads(ONE_ROW["jsonl"])
    record[field] = value
    path = directory / "trace.jsonl"
    path.write_text(json.dumps(record) + "\n")
    try:
        list(load_trace(path))
    except TraceError as exc:
        return str(exc)
    return None


def summary_error(directory, field: str, value) -> str | None:
    """The error of a run's summary with ``value`` as ``field``."""
    summary = {
        "cycles_covered": 100_000,
        "sample_count": 1,
        "label": "steady",
        "mode": "fixed_tau",
        field: value,
    }
    (directory / "summary.json").write_text(json.dumps(summary))
    try:
        load_summary(directory)
    except ConfigError as exc:
        return str(exc)
    return None


def fits_a_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


class TestOneJsonTypeRule:
    """Specs, JSONL traces and summaries judge a field's JSON type alike."""

    @given(value=ANY_JSON_VALUE)
    @settings(max_examples=200, deadline=None)
    def test_an_integer_field_takes_only_a_json_integer(self, tmp_path_factory, value):
        directory = tmp_path_factory.mktemp("int")
        errors = {
            "duration": spec_error(directory, "duration", value),
            "tau": jsonl_error(directory, "tau", value),
            "sample_count": summary_error(directory, "sample_count", value),
        }
        for field, error in errors.items():
            if type(value) is int:
                assert error is None or "must be an int" not in error
            else:
                expected = f"{field} must be an int, got {reprlib.repr(value)}"
                assert error is not None and error.endswith(expected)

    @given(value=ANY_JSON_VALUE)
    @settings(max_examples=200, deadline=None)
    def test_a_number_field_takes_any_json_number_that_fits_a_float(
        self, tmp_path_factory, value
    ):
        directory = tmp_path_factory.mktemp("number")
        errors = {
            "ipc_demand": spec_error(directory, "ipc_demand", value),
            "util_int": jsonl_error(directory, "util_int", value),
        }
        shown = reprlib.repr(value)
        for field, error in errors.items():
            if type(value) is float or (type(value) is int and fits_a_float(value)):
                assert error is None or "must be a number" not in error
                assert error is None or "does not fit a float" not in error
            elif type(value) is int:
                assert error is not None
                assert error.endswith(f"{field} does not fit a float, got {shown}")
            else:
                assert error is not None
                assert error.endswith(f"{field} must be a number, got {shown}")


# One defect a raw trace row may carry, as (field, change, value): "shift"
# moves the index by the step, "gap" moves the start of this row and of the
# rows after it, "set" replaces the value. A gap before the first row is no
# defect: a trace may start at any cycle.
ROW_DEFECTS = st.one_of(
    st.none(),
    st.tuples(st.just("index"), st.just("shift"), st.sampled_from([-1, 1, 2])),
    st.tuples(st.just("index"), st.just("set"), st.just(-1)),
    st.tuples(st.just("start_cycle"), st.just("gap"), st.integers(1, 1000)),
    st.tuples(st.just("tau"), st.just("set"), st.just(0)),
    st.tuples(
        st.sampled_from(["util_int", "util_fp"]),
        st.just("set"),
        st.sampled_from([-0.5, -1e-9, 1.0000001, 1.5, 7.0]),
    ),
    st.tuples(st.just("retired_instructions"), st.just("set"), st.just(2**63)),
)
RAW_ROWS = st.lists(
    st.tuples(
        st.integers(1, 10**6),
        st.integers(0, MAX_RETIRED),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        ROW_DEFECTS,
    ),
    min_size=1,
    max_size=4,
)


def raw_trace_rows(rows) -> list[dict]:
    """Contiguous trace rows, each with its defect (if any) applied."""
    records, start = [], 0
    for index, (tau, retired, util_int, util_fp, defect) in enumerate(rows):
        if defect is not None and defect[1] == "gap":
            start += defect[2]
        record = {
            "index": index,
            "start_cycle": start,
            "tau": tau,
            "retired_instructions": retired,
            "util_int": util_int,
            "util_fp": util_fp,
            "source_core": "A0",
        }
        start += tau
        if defect is not None and defect[1] != "gap":
            field, change, value = defect
            record[field] = value if change == "set" else record[field] + value
        records.append(record)
    return records


def loaded(path):
    """The samples of a trace that the detector replays, or the type and
    text of the error that stops the replay."""
    replayed, samples = tee(load_trace(path))
    try:
        detect_over_samples(replayed, DetectorConfig())
    except TraceError as exc:
        return type(exc), str(exc)
    return list(samples)


class TestCsvAndJsonlApplyOneRule:
    """The same raw rows, written by hand as CSV and as JSONL, replay as the
    same samples or fail with the same validation error. save_trace cannot
    write them: it takes samples, and a sample holds no invalid value."""

    @given(rows=RAW_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_same_samples_or_same_error(self, tmp_path_factory, rows):
        records = raw_trace_rows(rows)
        directory = tmp_path_factory.mktemp("one_rule")
        csv_path, jsonl_path = directory / "t.csv", directory / "t.jsonl"
        # str() of a float is its shortest round-trip repr, as in json.dumps.
        lines = [TRACE_COLUMNS, *(r.values() for r in records)]
        csv_path.write_text("".join(",".join(map(str, line)) + "\n" for line in lines))
        jsonl_path.write_text(
            "".join(json.dumps({"schema_version": 1, **r}) + "\n" for r in records)
        )
        from_csv, from_jsonl = loaded(csv_path), loaded(jsonl_path)
        assert from_csv == from_jsonl
        # Any defect fails the load, except a gap before the first row.
        if any(d is not None and (i or d[1] != "gap") for i, (*_, d) in enumerate(rows)):
            assert from_csv[0] is TraceValidationError
        else:
            assert from_csv == [IntervalSample(*r.values()) for r in records]
