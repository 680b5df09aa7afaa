"""Experiment configuration: flat key=value files plus machine descriptions.

Config files are plain text, one ``key=value`` per line, ``#`` starting a
comment line. Dotted prefixes group related keys (``detector.delta_th``,
``scheduler.enabled``, ``workload.preset``). Paths are resolved relative to
the config file's directory.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

from .core_model import CoreClass, CoreSpec, a_core, b_core
from .detector import DetectorConfig


class ConfigError(Exception):
    pass


class Mode(Enum):
    FIXED = "fixed_tau"
    VARIABLE = "variable_tau"


def default_machine() -> list[CoreSpec]:
    return [a_core("A0"), a_core("A1"), b_core("B0"), b_core("B1")]


@dataclass
class ExperimentConfig:
    """Everything one run needs; :meth:`validate` checks a ``simulate`` run."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    machine_cores: list[CoreSpec] = field(default_factory=default_machine)
    workload_preset: str | None = None
    workload_spec_path: Path | None = None
    workload_trace_path: Path | None = None
    preset_args: dict[str, float | int] = field(default_factory=dict)
    mode: Mode = Mode.FIXED
    fixed_tau: int | None = None
    seed: int = 0
    start_core: str | None = None
    out_dir: Path | None = None
    scheduler_enabled: bool = True
    migration_penalty: int = 10_000

    def validate(self) -> None:
        """Check a ``simulate`` run: one preset or spec source, no trace."""
        if self.workload_trace_path is not None:
            raise ConfigError(
                "workload.trace is replayed by `phasesim detect`, not simulated"
            )
        if (self.workload_preset is None) == (self.workload_spec_path is None):
            raise ConfigError(
                "exactly one workload source required "
                "(workload.preset or workload.spec)"
            )
        if self.mode is Mode.FIXED and self.fixed_tau is None:
            raise ConfigError("mode=fixed_tau requires a fixed_tau value")
        if self.fixed_tau is not None and self.fixed_tau < self.detector.tau_min:
            raise ConfigError(
                f"fixed_tau={self.fixed_tau} is below tau_min={self.detector.tau_min}"
            )
        if self.preset_args and self.workload_preset != "steady":
            raise ConfigError(
                "workload.cycles/demand/fp_fraction/noise only apply to the "
                "steady preset"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.migration_penalty < 0:
            raise ConfigError(
                f"scheduler.migration_penalty must be >= 0, got {self.migration_penalty}"
            )
        names = [core.name for core in self.machine_cores]
        if not names:
            raise ConfigError("the machine lists no cores")
        for index, name in enumerate(names):
            if name in names[:index]:
                raise ConfigError(f"duplicate core name {name!r} in machine {names}")
        if self.start_core is not None and self.start_core not in names:
            raise ConfigError(
                f"start_core {self.start_core!r} not in machine {names}"
            )

    def resolved_start_core(self) -> CoreSpec:
        name = self.start_core or self.machine_cores[0].name
        for core in self.machine_cores:
            if core.name == name:
                return core
        raise ConfigError(f"start_core {name!r} not in machine")


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


#: Each detector option parsed by the type of its default.
_DETECTOR_PARSERS = {
    f.name: {bool: _parse_bool, int: _parse_int, float: _parse_float}[type(f.default)]
    for f in fields(DetectorConfig)
}


def _parse_path(value: str, key: str, base_dir: Path) -> Path:
    # An empty value would name base_dir itself.
    if not value:
        raise ConfigError(f"{key}: expected a path, got an empty value")
    # The OS cannot open a path with a NUL byte; Python raises ValueError.
    if "\0" in value:
        raise ConfigError(f"{key}: path contains a NUL byte: {value!r}")
    return base_dir / value


def parse_config_file(path: str | Path, *, detect: bool = False) -> ExperimentConfig:
    """Parse a config file; ``detect=True`` refuses every key ``detect`` does
    not read, before any value is parsed or any file it names is opened."""
    path = Path(path)
    pairs: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: not UTF-8, or a NUL byte in the path.
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_number}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(f"{path}:{line_number}: duplicate key {key!r}")
        if detect and key not in ("workload.trace", "out") and not key.startswith("detector."):
            raise ConfigError(
                f"{path}:{line_number}: detect reads only workload.trace, out "
                f"and detector.* keys, got {key!r}"
            )
        pairs[key] = value
    return parse_config_pairs(pairs, base_dir=path.parent)


def parse_config_pairs(
    pairs: dict[str, str], base_dir: str | Path = "."
) -> ExperimentConfig:
    base_dir = Path(base_dir)
    config = ExperimentConfig()
    detector_overrides: dict[str, object] = {}

    for key, value in pairs.items():
        if key == "workload.preset":
            config.workload_preset = value
        elif key == "workload.spec":
            config.workload_spec_path = _parse_path(value, key, base_dir)
        elif key == "workload.trace":
            config.workload_trace_path = _parse_path(value, key, base_dir)
        elif key == "workload.cycles":
            config.preset_args["total_cycles"] = _parse_int(value, key)
        elif key == "workload.demand":
            config.preset_args["demand"] = _parse_float(value, key)
        elif key == "workload.fp_fraction":
            config.preset_args["fp_fraction"] = _parse_float(value, key)
        elif key == "workload.noise":
            config.preset_args["noise"] = _parse_float(value, key)
        elif key == "machine":
            config.machine_cores = load_machine_file(_parse_path(value, key, base_dir))
        elif key == "start_core":
            config.start_core = value
        elif key == "mode":
            try:
                config.mode = Mode(value)
            except ValueError:
                raise ConfigError(
                    f"mode must be fixed_tau or variable_tau, got {value!r}"
                ) from None
        elif key == "fixed_tau":
            config.fixed_tau = _parse_int(value, key)
        elif key == "seed":
            config.seed = _parse_int(value, key)
        elif key == "out":
            config.out_dir = _parse_path(value, key, base_dir)
        elif key == "scheduler.enabled":
            config.scheduler_enabled = _parse_bool(value, key)
        elif key == "scheduler.migration_penalty":
            config.migration_penalty = _parse_int(value, key)
        elif key.startswith("detector."):
            field_name = key[len("detector.") :]
            if field_name not in _DETECTOR_PARSERS:
                raise ConfigError(f"unknown detector option {key!r}")
            detector_overrides[field_name] = _DETECTOR_PARSERS[field_name](value, key)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    if detector_overrides:
        try:
            config.detector = DetectorConfig(**detector_overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config


MACHINE_COLUMNS = (
    "name",
    "core_class",
    "issue_width",
    "int_window",
    "fp_window",
    "int_fu_count",
    "fp_fu_count",
)


def load_machine_file(path: str | Path) -> list[CoreSpec]:
    """Read a machine description: CSV with one CoreSpec per row.

    ``int_window``/``fp_window`` are required columns but are not read;
    ``int_fu_count``/``fp_fu_count`` may be left blank to take the defaults.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: not UTF-8, or a NUL byte in the path.
        raise ConfigError(f"cannot read machine file {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty machine file")
    header = rows[0]
    if tuple(header) != MACHINE_COLUMNS:
        raise ConfigError(
            f"{path}: bad header {header!r}, expected {list(MACHINE_COLUMNS)}"
        )
    cores: list[CoreSpec] = []
    for row_number, row in enumerate(rows[1:], start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != len(MACHINE_COLUMNS):
            raise ConfigError(
                f"{path}:{row_number}: expected {len(MACHINE_COLUMNS)} fields"
            )
        try:
            cores.append(
                CoreSpec(
                    name=row[0],
                    core_class=CoreClass(row[1]),
                    issue_width=int(row[2]),
                    int_fu_count=int(row[5]) if row[5].strip() else None,
                    fp_fu_count=int(row[6]) if row[6].strip() else None,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path}:{row_number}: {exc}") from exc
    if not cores:
        raise ConfigError(f"{path}: machine file lists no cores")
    return cores
