"""Checks that read the sources and the README instead of running a command:
no dead module-level names in ``src/``, the file formats the README
documents are the ones the record types state, the config keys it and
``docs/example.conf`` document are the ones ``config.CONFIG_KEYS`` lists,
the summary fields it documents are those of ``experiment.SUMMARY_FIELDS``
and ``experiment.PHASE_FIELDS``, and a field's type is read only from its
annotation, by the records the README lists."""

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
