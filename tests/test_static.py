"""Checks that read the sources and the README instead of running a command:
no dead module-level names in ``src/``, the file formats the README
documents are the ones the record types state, the config keys it and
``docs/example.conf`` document are the ones ``config.CONFIG_KEYS`` lists,
the summary fields it documents are those of ``experiment.SUMMARY_FIELDS``
and ``experiment.PHASE_FIELDS``, a field's type is read only from its
annotation, by the records the README lists, the stream rule's messages
are worded once, in the detector, the record layer is imported first and
only from ``records``, the detection oracle imports no checked code, and
``experiment.py`` handles each interval in one loop, which alone formats the
scatter line and writes the event rows."""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from phasesim.config import CONFIG_KEYS, ExperimentConfig, parse_config_pairs
from phasesim.detector import DetectorConfig
from phasesim.experiment import EVENT_COLUMNS, PHASE_FIELDS, SCATTER_COLUMNS, SUMMARY_FIELDS
from phasesim.workload import TRACE_COLUMNS, steady

ROOT = Path(__file__).resolve().parent.parent
#: Every module but __init__.py, which only re-exports.
MODULES = sorted(
    path for path in (ROOT / "src" / "phasesim").glob("*.py") if path.name != "__init__.py"
)


def unreferenced(tree: ast.Module) -> list[str]:
    """Module-level imports and private (``_``-prefixed, not dunder) names
    that nothing in the module reads."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                defined[alias.asname or alias.name.split(".")[0]] = node.lineno
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


class TestNoDeadCode:
    def test_the_check_finds_dead_names(self):
        source = (
            "from __future__ import annotations\nimport os\nimport json\n"
            "from csv import reader as _r\n_x = 1\n_y = 2\ny = _y\n"
            "def _f():\n    return json\nclass _C:\n    pass\n"
        )
        assert unreferenced(ast.parse(source)) == [
            "os (line 2)", "_r (line 4)", "_x (line 5)", "_f (line 8)", "_C (line 10)",
        ]

    @pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
    def test_every_module_level_name_is_read(self, path):
        assert unreferenced(ast.parse(path.read_text(encoding="utf-8"))) == []


def readme_section(section: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def documented_header(section: str, after: str) -> tuple[str, ...]:
    """The first backquoted comma list after ``after`` in a README section."""
    body = readme_section(section)
    match = re.search(r"`([a-z_]+(?:,[a-z_]+)+)`", body[body.index(after):])
    assert match is not None, (section, after)
    return tuple(match.group(1).split(","))


class TestReadmeHeaders:
    def test_trace_header(self):
        assert documented_header("Trace format", "CSV with header") == TRACE_COLUMNS

    def test_scatter_header(self):
        assert documented_header("Artifacts", "`scatter.csv`") == SCATTER_COLUMNS

    def test_events_header(self):
        assert documented_header("Artifacts", "`events.csv`") == EVENT_COLUMNS


def documented_keys() -> list[tuple[str, bool]]:
    """README's Configuration list: each backquoted key in a bullet's head
    (its text before the first ": "), in order, with whether the head marks
    it (detect)."""
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", readme_section("Configuration"), re.M)
    keys = []
    for bullet in bullets:
        head = " ".join(bullet.split()).split(": ", 1)[0]
        keys += [(key, "(detect)" in head) for key in re.findall(r"`([^`]+)`", head)]
    return keys


def example_lines() -> list[tuple[str, str]]:
    """The ``key = value`` lines of docs/example.conf, commented out or not."""
    text = (ROOT / "docs" / "example.conf").read_text(encoding="utf-8")
    return re.findall(r"^(?:# )?([a-z_]+(?:\.[a-z_]+)*) = (.+)$", text, re.M)


class TestConfigKeys:
    def test_readme_lists_each_key_in_table_order_with_its_detect_mark(self):
        assert documented_keys() == [(key, row.detect) for key, row in CONFIG_KEYS.items()]

    def test_example_conf_shows_each_key_once_with_a_value_that_parses(self):
        keys = [key for key, _ in example_lines()]
        assert sorted(keys) == sorted(CONFIG_KEYS)
        for key, value in example_lines():
            parse_config_pairs({key: value}, base_dir=ROOT / "docs")

    def test_each_row_sets_a_field_of_experiment_config(self):
        # A key's field is an ExperimentConfig field, or an entry of
        # preset_args (a steady() parameter) or of detector (a DetectorConfig
        # field); every field is set by some key, and no two keys set one.
        targets = [row.field.rpartition(".") for row in CONFIG_KEYS.values()]
        assert len(set(targets)) == len(targets)
        assert {owner or name for owner, _, name in targets} == {
            f.name for f in fields(ExperimentConfig)
        }
        entries = {
            owner: [name for o, _, name in targets if o == owner]
            for owner in ("preset_args", "detector")
        }
        assert entries["preset_args"] == list(inspect.signature(steady).parameters)
        assert entries["detector"] == [f.name for f in fields(DetectorConfig)]


def documented_summary_fields(indent: int) -> list[tuple[str, ...]]:
    """README's list of summary.json keys nested ``indent`` spaces deep
    under the Artifacts bullet: each key with its parenthesized type and
    marks, in order."""
    body = readme_section("Artifacts")
    bullet = body[body.index("- `summary.json`"):].split("\n- ", 1)[0]
    pattern = rf"^ {{{indent}}}- `([a-z_]+)` \(([^)]*)\):"
    return [(key, *facts.split(", ")) for key, facts in re.findall(pattern, bullet, re.M)]


class TestSummaryFields:
    def test_readme_lists_each_field_in_table_order_with_its_type_and_marks(self):
        assert documented_summary_fields(2) == [
            (key, row.type, *["compare"] * row.compared, *["simulate"] * row.simulate_only)
            for key, row in SUMMARY_FIELDS.items()
        ]

    def test_readme_lists_each_phase_field_in_table_order_with_its_type(self):
        assert documented_summary_fields(4) == list(PHASE_FIELDS.items())


def calls_of(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls of the plain name ``name`` in ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def stray_typed_value_calls(tree: ast.Module) -> list[int]:
    """Lines that call ``typed_value`` outside ``check_fields`` and
    ``json_field``, the two places a field's type is read from its
    annotation."""
    allowed = {
        id(call)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("check_fields", "json_field")
        for call in calls_of(node, "typed_value")
    }
    return [call.lineno for call in calls_of(tree, "typed_value") if id(call) not in allowed]


def documented_checked_records() -> list[str]:
    """README's list of the records that check their own fields."""
    body = readme_section("Value type rule")
    sentence = body[body.index("The records that check their own fields"):].split(".", 1)[0]
    return re.findall(r"`([A-Z]\w*)`", sentence)


class TestFieldRule:
    def test_the_check_finds_a_restated_type(self):
        source = (
            "def check_fields(record):\n    typed_value('a', 1, 'int')\n"
            "def validate(self):\n    typed_value('seed', self.seed, 'int')\n"
        )
        assert stray_typed_value_calls(ast.parse(source)) == [4]

    @pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
    def test_typed_value_is_called_only_by_the_annotation_readers(self, path):
        assert stray_typed_value_calls(ast.parse(path.read_text(encoding="utf-8"))) == []

    def test_readme_lists_each_record_that_checks_its_fields(self):
        checking = [
            node.name
            for path in MODULES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef) and calls_of(node, "check_fields")
        ]
        assert sorted(documented_checked_records()) == sorted(checking)


#: Words of the stream rule's three messages, which ``PhaseDetector.observe``
#: raises for trace files and samples in memory alike.
STREAM_PHRASES = ("the first index is", "does not follow", "leaves a gap")


def strings_holding(tree: ast.AST, phrase: str) -> list[int]:
    """Lines of the string constants in ``tree``, f-string parts included,
    that hold ``phrase``."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value
    ]


class TestStreamRule:
    def test_the_check_finds_a_restated_message(self):
        source = (
            'def observe(i, k):\n    raise E(f"index {i} does not follow {k}")\n'
            'def load(i, k):\n    raise E(f"index {i} does not follow {k}")\n'
        )
        assert strings_holding(ast.parse(source), "does not follow") == [2, 4]

    @pytest.mark.parametrize("phrase", STREAM_PHRASES)
    def test_each_message_is_worded_once_in_the_detector(self, phrase):
        holders = [
            path.name
            for path in MODULES
            for _ in strings_holding(ast.parse(path.read_text(encoding="utf-8")), phrase)
        ]
        assert holders == ["detector.py"]


def phasesim_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for each name ``tree`` imports from phasesim, the
    module given without the package: ``from .records import X`` and
    ``from phasesim.records import X`` both give ``("records", "X")``,
    ``from phasesim import X`` gives ``("", "X")`` and ``import phasesim.cli``
    gives ``("cli", "")``. Relative imports are read as phasesim's own."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.partition(".")[0] != "phasesim":
                continue
            source = module if node.level else module.removeprefix("phasesim").lstrip(".")
            pairs += [(source, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [
                (alias.name.removeprefix("phasesim").lstrip("."), "")
                for alias in node.names
                if alias.name.partition(".")[0] == "phasesim"
            ]
    return pairs


def import_order_faults(trees: dict[str, ast.Module]) -> list[str]:
    """Breaks of the import order among the modules of ``trees``, by name:
    ``records`` importing any phasesim module, ``core_model`` or
    ``workload`` importing from ``detector``, and any module taking a name
    that ``records`` defines from a module other than ``records``."""
    record_names = {
        name
        for node in trees["records"].body
        for name in (
            [node.name] if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        )
    }
    faults = []
    for module, tree in trees.items():
        for source, name in phasesim_imports(tree):
            if module == "records":
                faults.append(f"records imports {source or 'phasesim'}")
            elif source == "detector" and module in ("core_model", "workload"):
                faults.append(f"{module} imports {name} from detector")
            elif name in record_names and source != "records":
                faults.append(f"{module} imports {name} from {source or 'phasesim'}")
    return faults


#: The names the detection oracle may import from phasesim: record, config
#: and enum types, none of the code it checks.
ORACLE_IMPORTS = {
    "CoreSpec", "DetectorConfig", "ExperimentConfig", "IntervalSample", "PhaseEvent",
    "PhaseEventKind", "PhaseState", "WorkloadSegment", "WorkloadSpec",
}


def oracle_extras(tree: ast.Module) -> set[str]:
    """What ``tree`` imports from phasesim beyond :data:`ORACLE_IMPORTS`;
    ``""`` stands for a whole module."""
    return {name for _, name in phasesim_imports(tree)} - ORACLE_IMPORTS


class TestImportOrder:
    def test_the_check_finds_each_break(self):
        trees = {
            "records": ast.parse("from . import cli\nMAX = 1\nclass Sample:\n    pass\n"),
            "core_model": ast.parse("from .detector import PhaseEvent\n"),
            "workload": ast.parse("from phasesim.records import Sample\n"),
            "cli": ast.parse("from .workload import Sample\nfrom .records import MAX\n"),
            "experiment": ast.parse("from phasesim import MAX\nimport phasesim.cli\n"),
        }
        assert import_order_faults(trees) == [
            "records imports phasesim",
            "core_model imports PhaseEvent from detector",
            "cli imports Sample from workload",
            "experiment imports MAX from phasesim",
        ]

    def test_records_come_first_and_only_from_records(self):
        trees = {
            path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in (ROOT / "src" / "phasesim").glob("*.py")
        }
        assert import_order_faults(trees) == []

    @pytest.mark.parametrize("name", ["PhaseDetector", "match_recurring_phase", "simulate_interval"])
    def test_the_check_finds_the_oracle_importing_checked_code(self, name):
        tree = ast.parse(f"from phasesim import CoreSpec, {name}\nimport phasesim.detector\n")
        assert oracle_extras(tree) == {name, ""}

    def test_the_oracle_imports_only_record_and_config_types(self):
        oracle = ROOT / "tests" / "reference_model.py"
        assert oracle_extras(ast.parse(oracle.read_text(encoding="utf-8"))) == set()


def enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Each node's innermost enclosing function, by the node's id."""
    owner: dict[int, str] = {}
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    # Outer functions first, so an inner one overwrites its nodes' owner.
    for function in sorted(functions, key=lambda f: (f.lineno, -f.end_lineno)):
        for node in ast.walk(function):
            owner[id(node)] = function.name
    return owner


def sample_loops(tree: ast.Module) -> list[str]:
    """The function of each loop or comprehension over samples: a ``for``
    whose target is the name ``sample`` or whose iterable is ``samples``."""
    owner = enclosing_functions(tree)
    loops = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and any(
            isinstance(part, ast.Name) and part.id == name
            for part, name in ((node.target, "sample"), (node.iter, "samples"))
        )
    ]
    return [owner.get(id(loop), "<module>") for loop in loops]


def name_reads(tree: ast.Module, name: str) -> list[str]:
    """The function of each place that reads the name ``name``, and how:
    ``%`` when it is the left side of a ``%``."""
    owner = enclosing_functions(tree)
    formats = {
        id(node.left) for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
    }
    return [
        f"{owner.get(id(node), '<module>')}:{'%' if id(node) in formats else 'read'}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    ]


EXPERIMENT = ROOT / "src" / "phasesim" / "experiment.py"


class TestOneIntervalLoop:
    def test_the_checks_find_a_second_loop_and_a_second_format(self):
        source = (
            "def _run_intervals(samples):\n    for sample in samples:\n"
            "        _SCATTER_LINE % sample\n"
            "def summary(samples):\n    return [s for s in samples]\n"
            "def write(rows):\n    lines = map(_SCATTER_LINE.__mod__, rows)\n"
        )
        tree = ast.parse(source)
        assert sample_loops(tree) == ["_run_intervals", "summary"]
        assert name_reads(tree, "_SCATTER_LINE") == ["_run_intervals:%", "write:read"]

    def test_experiment_loops_over_samples_once(self):
        tree = ast.parse(EXPERIMENT.read_text(encoding="utf-8"))
        assert sample_loops(tree) == ["_run_intervals"]

    def test_the_scatter_line_is_formatted_at_one_site(self):
        tree = ast.parse(EXPERIMENT.read_text(encoding="utf-8"))
        assert name_reads(tree, "_SCATTER_LINE") == ["_run_intervals:%"]

    def test_the_check_finds_an_events_writer_outside_the_loop(self):
        source = (
            "def _run_intervals(samples, handle):\n"
            "    plain, quoting = csv_writers(handle, EVENT_COLUMNS)\n"
            "    _write_events(block, plain, quoting)\n"
            "def _write_events(events, plain, quoting):\n"
            "    plain.writerows(map(_EVENT_FIELDS, events))\n"
            "def emit(events, handle):\n"
            "    _write_events(events, *csv_writers(handle, EVENT_COLUMNS))\n"
            "def dump(events, writer):\n"
            "    writer.writerows(map(_EVENT_FIELDS, events))\n"
        )
        tree = ast.parse(source)
        assert name_reads(tree, "_write_events") == ["_run_intervals:read", "emit:read"]
        assert name_reads(tree, "EVENT_COLUMNS") == ["_run_intervals:read", "emit:read"]
        assert name_reads(tree, "_EVENT_FIELDS") == ["_write_events:read", "dump:read"]

    def test_event_rows_are_written_at_one_site_in_the_loop(self):
        # events.csv's header and rows are written by the interval loop
        # alone, each block's rows through one call: no writer at the end of
        # a run, over a list of every event, can come back.
        tree = ast.parse(EXPERIMENT.read_text(encoding="utf-8"))
        assert name_reads(tree, "_write_events") == ["_run_intervals:read"]
        header = sorted(name_reads(tree, "EVENT_COLUMNS"))
        assert header == ["<module>:read", "_run_intervals:read"]
        assert set(name_reads(tree, "_EVENT_FIELDS")) == {"_write_events:read"}
