"""The record rule: the value types of every record the program reads, the
interval sample each stage passes on and the errors a trace file raises.
It imports no other phasesim module, so no stage imports another for these.
"""

from __future__ import annotations

import builtins
import reprlib
import sys
from dataclasses import dataclass, is_dataclass
from enum import EnumMeta

#: The largest count a sample holds, the range of a 64-bit counter: it bounds
#: instruction counts, start cycles and interval lengths alike. Per-phase sums
#: of counts this size stay finite, so summary.json holds no Infinity.
MAX_RETIRED = 2**63 - 1

#: The value-type rule of every record the program reads: for each field
#: annotation, the types a value may have, by type identity (a bool, though an
#: int subclass, is not a number), and their name in a message.
_VALUE_TYPES = {
    "int": ((int,), "an int"),
    "float": ((float, int), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "a bool"),
}


def typed_value(name: str, value, annotation: str):
    """``value`` as a field ``name`` annotated ``annotation`` holds it.

    A value of another type is refused with a ``ValueError`` naming the
    field; an int in a ``"float"`` field becomes a float, and one too large
    for a float is refused.
    """
    kinds, noun = _VALUE_TYPES[annotation]
    if type(value) not in kinds:
        raise ValueError(f"{name} must be {noun}, got {reprlib.repr(value)}")
    if type(value) is int and annotation == "float":
        try:
            return float(value)
        except OverflowError:
            raise ValueError(
                f"{name} does not fit a float, got {reprlib.repr(value)}"
            ) from None
    return value


def check_fields(record) -> None:
    """Hold each field of the dataclass ``record`` to its annotation, in
    declaration order, naming the first that fails in a ``ValueError``.

    A field annotated ``int``, ``float``, ``str`` or ``bool`` keeps the value
    :func:`typed_value` returns for it; one annotated with the name ``R`` of
    an enum or a record class in the record's module must hold exactly that
    class, and one annotated ``list[R]`` or ``tuple[R, ...]`` exactly that
    container of exactly ``R``. An annotation ``X | None`` also takes None.
    Other annotations (``Path``, ``dict[...]``) are left to the record.
    """
    for name, f in record.__dataclass_fields__.items():
        value = getattr(record, name)
        annotation = f.type.removesuffix(" | None")
        if value is None and annotation != f.type:
            continue
        types = _VALUE_TYPES.get(annotation)
        if types is None:
            outer, _, inner = annotation.partition("[")
            inner = inner.removesuffix(", ...]" if outer == "tuple" else "]")
            kind = vars(sys.modules[type(record).__module__]).get(inner or outer)
            if not (isinstance(kind, EnumMeta) or is_dataclass(kind)):
                continue
            if inner:
                container = getattr(builtins, outer)
                if type(value) is not container or any(type(v) is not kind for v in value):
                    raise ValueError(
                        f"{name} must be a {outer} of {inner}, got {reprlib.repr(value)}"
                    )
            elif type(value) is not kind:
                raise ValueError(f"{name} must be a {annotation}, got {reprlib.repr(value)}")
        elif type(value) is not types[0][0]:  # not the annotation's own type
            object.__setattr__(record, name, typed_value(name, value, annotation))


def json_field(record: dict, name: str, annotation: str):
    """``record[name]``, which must be present, as a field annotated
    ``annotation`` holds it (see :func:`typed_value`)."""
    if name not in record:
        raise ValueError(f"missing required field {name!r}")
    return typed_value(name, record[name], annotation)


class TraceError(Exception):
    pass


class TraceValidationError(TraceError):
    """A decoded row violates the sample invariants."""

    def __init__(self, message: str, row_index: int) -> None:
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


class TraceParseError(TraceError):
    """A line could not be decoded at all."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# Not frozen: built once per interval; frozen costs an object.__setattr__ per field.
@dataclass(slots=True, init=False)
class IntervalSample:
    """Measurements for one profiling interval.

    ``util_int`` and ``util_fp`` are occupancy fractions of the integer and
    floating-point units over the interval. ``tau`` is the interval length in
    cycles; consecutive samples are expected to tile the cycle axis without
    gaps (``start_cycle + tau`` of one sample is the next one's start).
    Building one checks it: exact types (int counts, float utilizations, a
    str core), an index >= 0, counts that fit a 64-bit counter (``tau`` at
    least 1 cycle) and utilizations in [0, 1] (NaN is not). Values that fail
    are converted under :func:`check_fields`, so an int utilization is held as
    a float, or refused naming the first bad field. Both trace loaders build
    through this check; only the core model's samples, valid by
    construction, skip it.
    """

    index: int
    start_cycle: int
    tau: int
    retired_instructions: int
    util_int: float
    util_fp: float
    source_core: str = ""

    # Written by hand so the check tests locals, the cheapest place for it.
    def __init__(
        self, index: int, start_cycle: int, tau: int, retired_instructions: int,
        util_int: float, util_fp: float, source_core: str = "",
    ) -> None:
        self.index, self.start_cycle, self.tau = index, start_cycle, tau
        self.retired_instructions, self.util_int = retired_instructions, util_int
        self.util_fp, self.source_core = util_fp, source_core
        if (
            type(index) is int
            and type(start_cycle) is int
            and type(tau) is int
            and type(retired_instructions) is int
            and type(util_int) is float
            and type(util_fp) is float
            and type(source_core) is str
            and 0 <= index
            and 0 <= start_cycle <= MAX_RETIRED
            and 1 <= tau <= MAX_RETIRED
            and 0 <= retired_instructions <= MAX_RETIRED
            and 0.0 <= util_int <= 1.0
            and 0.0 <= util_fp <= 1.0
        ):
            return
        # Convert each value, or name the first of the wrong type; then name
        # the first out of range, if any is.
        check_fields(self)
        if self.index < 0:
            raise ValueError(f"sample index must be >= 0, got {self.index}")
        if not 0 <= self.start_cycle <= MAX_RETIRED:
            raise ValueError(
                "start_cycle must be >= 0 and fit a 64-bit counter, got "
                f"{reprlib.repr(self.start_cycle)}"
            )
        if not 1 <= self.tau <= MAX_RETIRED:
            raise ValueError(
                "tau must be >= 1 cycle and fit a 64-bit counter, got "
                f"{reprlib.repr(self.tau)}"
            )
        if not 0 <= self.retired_instructions <= MAX_RETIRED:
            raise ValueError(
                "retired_instructions must be >= 0 and fit a 64-bit counter, got "
                f"{reprlib.repr(self.retired_instructions)}"
            )
        if not 0.0 <= self.util_int <= 1.0:
            raise ValueError(f"util_int must lie in [0, 1], got {self.util_int}")
        if not 0.0 <= self.util_fp <= 1.0:
            raise ValueError(f"util_fp must lie in [0, 1], got {self.util_fp}")

