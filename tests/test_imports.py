"""Every name a module of the package imports is used in that module, and
every function, method and class the package defines is used by the package.

`__init__.py` files are skipped: their imports are the package's re-exports,
and a name only they mention is public API that nothing inside runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "moesim"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import json\nfrom math import pi, tau\nprint(pi)\n") == [
        "line 1: json",
        "line 2: tau",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public entry points that no module of the package calls, each kept for a
# reader outside it.
API_EDGE = {
    "return_error_bound": "the paper's bound, and the planner test's reference",
    "nearest_index": "the nearest row of one neighbour scan; perfbench's tracer wraps it "
    "and the tests compare it with a per-action linear scan",
}


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Names of functions, methods and classes defined in `sources` that no
    source mentions as a bare name or an attribute; dunder methods are
    called by Python itself and are skipped."""
    defined: set[str] = set()
    used: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(defined - used)


def test_detects_an_unreferenced_definition():
    source = (
        "class A:\n"
        "    def __init__(self): self.go()\n"
        "    def go(self): pass\n"
        "    def spare(self): pass\n"
        "def main(): return A()\n"
        "def helper(): pass\n"
        "main()\n"
    )
    assert unreferenced_definitions([source]) == ["helper", "spare"]


def test_package_defines_nothing_only_tests_use():
    found = unreferenced_definitions([path.read_text() for path in MODULES])
    assert [name for name in found if name not in API_EDGE] == []


def test_a_windy_config_does_not_import_sympy():
    # sympy is only needed to compile ODE specs, and importing it costs more
    # than the rest of a CLI start-up
    code = (
        "import sys\n"
        "from moesim.experiments import validate_config\n"
        "validate_config({'name': 'w', 'env': {'kind': 'windy2d'},\n"
        "    'behavior': {'kind': 'env_scripted'}, 'model': {'kind': 'ridge'},\n"
        "    'sim': {'n_rollouts': 1, 'horizon': 5, 'gamma': 1.0},\n"
        "    'estimators': ['moe']})\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
