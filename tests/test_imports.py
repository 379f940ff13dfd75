"""Every name a module of the package imports is used in that module,
every function, method and class the package defines is used by the
package, every exported name resolves, the runtime dependencies are
exactly the third-party modules the package imports, importing the
package starts no thread and loads no module that only some commands
use, and each environment kind is built from its horizon alone.

The first two checks skip `__init__.py` files: their imports are the
package's re-exports, and a name only they mention is public API that
nothing inside runs.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from moesim import envs
from moesim.experiments import SECTIONS

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


def test_every_api_edge_name_is_defined():
    # a definition deleted from the package leaves API_EDGE with it
    defined = {
        node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert sorted(set(API_EDGE) - defined) == []


@pytest.mark.parametrize("module", ["moesim", "moesim.envs"])
def test_every_export_resolves(module):
    # a name deleted from the package leaves `__all__` with it
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


@pytest.mark.parametrize("kind", sorted(SECTIONS["env"]))
def test_each_environment_kind_is_made_from_its_horizon_alone(kind):
    # a config object or knob that comes back to an environment fails here
    make = getattr(envs, f"make_{kind}")
    assert list(inspect.signature(make).parameters) == ["horizon"]


def unread_class_attributes(sources: list[str]) -> list[str]:
    """Names that a plain assignment in a class body of `sources` binds and
    that no source reads as an attribute (`obj.name`).  Annotated fields,
    such as a dataclass's, are out of scope."""
    bound: set[str] = set()
    read: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        bound.update(
                            name.id for target in stmt.targets for name in ast.walk(target)
                            if isinstance(name, ast.Name)
                        )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(bound - read)


def test_detects_an_unread_class_attribute():
    source = (
        "class A:\n"
        "    kind = 'a'\n"
        "    size = 3\n"
        "    lo, hi = 0, 1\n"
        "    field: int = 0\n"
        "    def grow(self): self.kind = 'b'; return self.size + A.hi\n"
        "kind = 'c'\n"
    )
    assert unread_class_attributes([source]) == ["kind", "lo"]


def test_package_reads_every_class_attribute():
    assert unread_class_attributes([path.read_text() for path in MODULES]) == []


def third_party_imports(sources: list[str]) -> set[str]:
    """Top-level modules that `sources` import, anywhere in a module, that
    are neither the standard library nor the package itself."""
    found: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"moesim"}


def test_detects_a_third_party_import():
    source = (
        "import os.path\nfrom . import core\nfrom numpy import array\n"
        "def f():\n    import yaml\n"
    )
    assert third_party_imports([source]) == {"numpy", "yaml"}


def test_runtime_dependencies_are_the_imported_modules():
    # a stale entry in pyproject.toml, or an import it does not declare, fails
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in project["dependencies"]
    }
    assert declared == third_party_imports([path.read_text() for path in SRC.rglob("*.py")])


def test_importing_the_package_starts_no_thread():
    # a thread alive at import would be alive when `--jobs` forks workers
    modules = sorted(
        "moesim." + ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in MODULES
    )
    code = (
        "import threading\n"
        f"import {', '.join(modules)}\n"
        "print(threading.active_count())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "1"


@pytest.mark.parametrize("module", ["moesim.experiments", "moesim.cli"])
def test_importing_loads_no_module_that_only_some_commands_use(module):
    # jsonschema is only the tests' oracle of the config checker; the
    # process pool loads for `--jobs` above 1, csv for error maps, and
    # numpy.random (about 15 ms) with the first seeded rollout
    code = (
        f"import sys, {module}\n"
        "print([m for m in ('jsonschema', 'concurrent.futures.process', 'multiprocessing',"
        " 'csv', 'numpy.random') if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout.strip() == "[]"
