"""salab runs on numpy and the standard library alone.

Every import in src/salab, at any depth of a module, is read with ast, so
a new run-time dependency fails here before it reaches an install.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: top-level modules salab may import beside the standard library's
ALLOWED = {"numpy", "salab"}


def imported_modules(path: Path):
    """The top-level name of every module that path imports; a relative import is salab."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "salab" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "salab").glob("*.py")),
                         ids=lambda path: path.name)
def test_salab_imports_numpy_and_the_standard_library_only(path):
    foreign = {name for name in imported_modules(path)
               if name not in sys.stdlib_module_names and name not in ALLOWED}
    assert not foreign


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")        # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", spec).group() for spec in project["dependencies"]]
    assert names == ["numpy"]
