"""Experiment configuration: flat key=value files plus machine descriptions.

Config files are plain text, one ``key=value`` per line, ``#`` starting a
comment line; :data:`CONFIG_KEYS` lists the keys. Paths are resolved relative
to the config file's directory.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

from .core_model import CoreClass, CoreSpec, a_core, b_core
from .detector import DetectorConfig
from .records import check_fields


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
        """Check a ``simulate`` run: the types of the values a library caller
        may set, one preset or spec source, no trace, then the ranges."""
        try:
            check_fields(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.workload_trace_path is not None:
            raise ConfigError("workload.trace is replayed by `phasesim detect`, not simulated")
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


def _parse_str(value: str, key: str, base_dir: Path) -> str:
    return value


def _parse_bool(value: str, key: str, base_dir: Path) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_int(value: str, key: str, base_dir: Path) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(value: str, key: str, base_dir: Path) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_mode(value: str, key: str, base_dir: Path) -> Mode:
    try:
        return Mode(value)
    except ValueError:
        raise ConfigError(f"mode must be fixed_tau or variable_tau, got {value!r}") from None


def path_text(value: str, name: str) -> str:
    """``value``, refused if the OS could not open it as a path: the one rule
    for a path given by a config key or a command-line argument ``name``."""
    # The OS cannot open a path with a NUL byte; Python raises ValueError.
    if "\0" in value:
        raise ConfigError(f"{name}: path contains a NUL byte: {value!r}")
    return value


def _parse_path(value: str, key: str, base_dir: Path) -> Path:
    # An empty value would name base_dir itself.
    if not value:
        raise ConfigError(f"{key}: expected a path, got an empty value")
    return base_dir / path_text(value, key)


def _parse_machine(value: str, key: str, base_dir: Path) -> list[CoreSpec]:
    return load_machine_file(_parse_path(value, key, base_dir))


class ConfigKey(NamedTuple):
    """A config key's row in :data:`CONFIG_KEYS`."""

    field: str  # an ExperimentConfig field, preset_args.<name> or detector.<name>
    parse: Callable[[str, str, Path], object]  # (value, key, config file's directory)
    detect: bool = False  # whether detect reads the key


_DETECTOR = "detector."
_BY_TYPE = {"bool": _parse_bool, "int": _parse_int, "float": _parse_float}

#: Every config key, in the order README lists them.
CONFIG_KEYS: dict[str, ConfigKey] = {
    "workload.preset": ConfigKey("workload_preset", _parse_str),
    "workload.spec": ConfigKey("workload_spec_path", _parse_path),
    "workload.trace": ConfigKey("workload_trace_path", _parse_path, detect=True),
    "mode": ConfigKey("mode", _parse_mode),
    "fixed_tau": ConfigKey("fixed_tau", _parse_int),
    "machine": ConfigKey("machine_cores", _parse_machine),
    "start_core": ConfigKey("start_core", _parse_str),
    "seed": ConfigKey("seed", _parse_int),
    "out": ConfigKey("out_dir", _parse_path, detect=True),
    "scheduler.enabled": ConfigKey("scheduler_enabled", _parse_bool),
    "scheduler.migration_penalty": ConfigKey("migration_penalty", _parse_int),
    **{  # each detector option parsed by its annotation
        _DETECTOR + f.name: ConfigKey(_DETECTOR + f.name, _BY_TYPE[f.type], True)
        for f in fields(DetectorConfig)
    },
    "workload.cycles": ConfigKey("preset_args.total_cycles", _parse_int),
    "workload.demand": ConfigKey("preset_args.demand", _parse_float),
    "workload.fp_fraction": ConfigKey("preset_args.fp_fraction", _parse_float),
    "workload.noise": ConfigKey("preset_args.noise", _parse_float),
}


def parse_config_file(path: str | Path, *, detect: bool = False) -> ExperimentConfig:
    """Parse a config file; ``detect=True`` refuses every key ``detect`` does
    not read, before any value is parsed or any file it names is opened."""
    path = Path(path)
    return parse_config_pairs(_read_pairs(path, detect), base_dir=path.parent)


#: The keys that name a file a ``simulate`` run reads, with its role.
_INPUT_ROLES = {"workload.spec": "workload spec", "machine": "machine file"}


def config_inputs(path: str | Path) -> dict[str, Path]:
    """The config file ``path`` and the files it names for a ``simulate`` run
    to read, by role: the files no output of the run may be."""
    path = Path(path)
    pairs = _read_pairs(path, detect=False)
    return {
        "config file": path,
        **{
            role: _parse_path(pairs[key], key, path.parent)
            for key, role in _INPUT_ROLES.items()
            if key in pairs
        },
    }


def _read_pairs(path: Path, detect: bool) -> dict[str, str]:
    """A config file's ``key = value`` pairs, in file order."""
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
        # An unknown detector.* key passes, so parsing names it as one.
        row = CONFIG_KEYS.get(key)
        if detect and not (row.detect if row else key.startswith(_DETECTOR)):
            raise ConfigError(
                f"{path}:{line_number}: detect reads only workload.trace, out "
                f"and detector.* keys, got {key!r}"
            )
        pairs[key] = value
    return pairs


def parse_config_pairs(pairs: dict[str, str], base_dir: str | Path = ".") -> ExperimentConfig:
    """The config the pairs set, each value parsed in order by its key's row
    of :data:`CONFIG_KEYS`."""
    base_dir = Path(base_dir)
    config = ExperimentConfig()
    # Where each field prefix stores its values; detector options make one DetectorConfig.
    stores = {"": vars(config), "preset_args": config.preset_args, "detector": {}}
    for key, value in pairs.items():
        row = CONFIG_KEYS.get(key)
        if row is None:
            if key.startswith(_DETECTOR):
                raise ConfigError(f"unknown detector option {key!r}")
            raise ConfigError(f"unknown config key {key!r}")
        store, _, name = row.field.rpartition(".")
        stores[store][name] = row.parse(value, key, base_dir)
    if stores["detector"]:
        try:
            config.detector = DetectorConfig(**stores["detector"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return config


MACHINE_COLUMNS = (
    "name", "core_class", "issue_width", "int_window", "fp_window", "int_fu_count", "fp_fu_count"
)


def load_machine_file(path: str | Path) -> list[CoreSpec]:
    """Read a machine description: CSV with one CoreSpec per row.

    ``int_window``/``fp_window`` are required columns but are not read;
    ``int_fu_count``/``fp_fu_count`` may be left blank to take the defaults.
    """
    path = Path(path)
    # Read as a CSV trace is: only the csv module ends a row, at a "\r" or a
    # "\n" outside quotes, so a name keeps any other character.
    rows: list[tuple[int, list[str]]] = []  # each row with the line it starts on
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            start = 1
            try:
                for row in reader:
                    rows.append((start, row))
                    start = reader.line_num + 1
            except csv.Error as exc:
                raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
    except (OSError, ValueError) as exc:
        # ValueError: not UTF-8, or a NUL byte in the path.
        raise ConfigError(f"cannot read machine file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty machine file")
    _, header = rows[0]
    if tuple(header) != MACHINE_COLUMNS:
        raise ConfigError(f"{path}: bad header {header!r}, expected {list(MACHINE_COLUMNS)}")
    cores: list[CoreSpec] = []
    for row_number, row in rows[1:]:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != len(MACHINE_COLUMNS):
            raise ConfigError(f"{path}:{row_number}: expected {len(MACHINE_COLUMNS)} fields")
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
