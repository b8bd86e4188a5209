"""The declared dependencies cover what the tests and the benchmark import."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _declared() -> set[str]:
    """Module names of pyproject's dependencies and its ``test`` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_") for spec in specs}


def _imported(path: Path) -> set[str]:
    """The top-level module of every absolute import in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_of_the_tests_and_the_benchmark_is_declared():
    allowed = set(sys.stdlib_module_names) | {"amnm", "__future__"} | _declared()
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert files
    undeclared = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in files
        for name in _imported(path)
        if name not in allowed and not (path.parent / f"{name}.py").exists()
    }
    assert not undeclared, sorted(undeclared)
