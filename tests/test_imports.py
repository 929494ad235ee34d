"""The package imports nothing outside the standard library, and the cube
oracle (``cubes`` and ``homology``) never imports the star construction it
is meant to check."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treebraid"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imports(path):
    """(absolute module names, package-relative module names) of one file."""
    absolute, relative = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                absolute.add(node.module)
            elif node.module is not None:
                relative.add(node.module)
            else:                       # from . import a, b
                relative.update(alias.name for alias in node.names)
    return absolute, relative


def test_every_source_is_seen():
    assert {p.stem for p in SOURCES} >= {"cli", "cubes", "homology", "presentation", "stars", "trees"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_standard_library_imports(path):
    absolute, _ = imports(path)
    outside = {name for name in absolute if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("name", ["cubes", "homology"])
def test_oracle_does_not_import_stars(name):
    absolute, relative = imports(PACKAGE / f"{name}.py")
    assert "stars" not in relative
    assert not any(m == "treebraid.stars" or m.startswith("treebraid.stars.") for m in absolute)
