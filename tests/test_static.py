"""Checks that read the sources and the README instead of running a command:
no dead module-level names in ``src/``, and the file formats the README
documents are the ones the record types state."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from phasesim.experiment import EVENT_COLUMNS, SCATTER_COLUMNS
from phasesim.workload import TRACE_COLUMNS

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


def documented_header(section: str, after: str) -> tuple[str, ...]:
    """The first backquoted comma list after ``after`` in a README section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
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
