"""The package imports nothing outside the standard library, only the CLI
touches the interpreter's cyclic collector, and the cube oracle (``cubes``
and ``homology``) never reaches the star construction it is meant to check,
directly or through another module.  Starting the CLI loads none of the
standard modules that compile or inspect code (``dataclasses`` and what it
pulls in), and running a command loads no argument-parser machinery
(``argparse``, ``gettext``, ``locale``): every command would pay for them
before computing anything."""
import ast
import os
import subprocess
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_cli_imports_gc(path):
    # library calls must leave interpreter state, such as the collector, alone
    absolute, _ = imports(path)
    assert ("gc" in absolute) == (path.stem == "cli")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    absolute, _ = imports(path)
    assert not {name for name in absolute if name.split(".")[0] == "dataclasses"}


def new_modules(statement):
    """Modules that running statement loads in a fresh interpreter, beyond
    those the interpreter had already loaded when it started."""
    code = (
        "import sys; before = set(sys.modules); " + statement
        + "; print(*sorted(set(sys.modules) - before), sep='\\n')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_start_up_compiles_nothing():
    loaded = new_modules("import treebraid.cli")
    assert "treebraid.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(loaded)


def test_a_command_loads_no_parser_machinery():
    # argparse translated its help strings through gettext, which imports
    # locale: about 2 ms of every command before it computed anything
    loaded = new_modules(
        'import treebraid.cli; treebraid.cli.main(["table", "--k-max", "3", "--n-max", "2"])'
    )
    assert "treebraid.stars" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}, sorted(loaded)


def package_imports(name):
    """Package modules that importing treebraid.<name> loads besides itself:
    the package __init__, and every module either of them imports, followed
    transitively."""
    seen = set()
    todo = [name, "__init__"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        absolute, relative = imports(PACKAGE / f"{module}.py")
        todo.extend(relative)
        todo.extend(m.split(".")[1] for m in absolute if m.startswith("treebraid."))
    return seen - {name}


@pytest.mark.parametrize("name", ["cubes", "homology"])
def test_oracle_reaches_neither_stars_nor_presentation(name):
    reached = package_imports(name)
    assert not reached & {"stars", "presentation"}, f"{name} reaches {sorted(reached)}"


def test_importing_cubes_loads_no_construction():
    loaded = {m for m in new_modules("import treebraid.cubes") if m.split(".")[0] == "treebraid"}
    assert "treebraid.cubes" in loaded
    assert not loaded & {"treebraid.stars", "treebraid.presentation"}, sorted(loaded)
