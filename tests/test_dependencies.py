"""The package imports only what ``pyproject.toml`` declares.

A clean ``pip install -e .`` installs the ``[project] dependencies``
and nothing else, so a module under ``src/repro`` that imports any
other third-party package breaks ``import repro`` there.  The scan
reads every import statement, including the ones inside functions.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies():
    """Import names of ``[project] dependencies`` (no ``tomllib``:
    Python 3.10 has none)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1),
                       re.M | re.S)
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', listed.group(1))
    }


def imported_modules():
    """Top-level module of every absolute import, with its locations."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.setdefault(name.split(".")[0], []).append(where)
    return found


def test_declared_dependencies_are_read():
    assert declared_dependencies() == {"numpy"}


def test_every_import_is_stdlib_repro_or_declared():
    allowed = declared_dependencies() | {"repro"}
    imported = imported_modules()
    assert "numpy" in imported and "repro" in imported
    undeclared = {
        module: where for module, where in imported.items()
        if module not in sys.stdlib_module_names and module not in allowed
    }
    assert not undeclared, f"imported but not declared: {undeclared}"


PROBE = """
import sys
declared = set(sys.argv[1:])

class Undeclared:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in declared and top not in sys.stdlib_module_names:
            raise ModuleNotFoundError(f"undeclared package {name!r}")

sys.meta_path.insert(0, Undeclared())
import repro.eval.experiments, repro.engine
serve = sorted(name for name in sys.modules if name.startswith("repro.serve"))
assert not serve, f"batch entry points load the serve tier: {serve}"
import repro, repro.__main__, repro.serve.http
"""


def test_fresh_interpreter_imports_only_declared_packages():
    """The batch entry points, the CLI and the server import in a
    fresh interpreter that refuses every third-party package
    ``pyproject.toml`` does not declare, and the batch ones leave the
    serve tier (HTTP client, ``ssl``) unloaded."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE, "repro", *declared_dependencies()],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
