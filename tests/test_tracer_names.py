"""Every function the benchmark's tracer (perfbench/tracer.py) rebinds must
exist in treebraid: a renamed or deleted one makes a traced run fail while
installing the tracer, before any command runs.  A traced run must also
read the fields its counters look at."""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
CHILD = ROOT / "perfbench" / "child.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [entry[:3] for entry in tracer.TRACED]


@pytest.mark.parametrize("module,owner,attr", traced_names())
def test_traced_name_resolves(module, owner, attr):
    target = importlib.import_module(f"treebraid.{module}")
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, attr, None))


def traced_counts(tmp_path, *argv, tree=None):
    """Run one command, on tree if given, through the benchmark's traced
    child and return its counters."""
    if tree is not None:
        path = tmp_path / "tree.txt"
        path.write_text(
            f"endpoint {tree.endpoint}\n" + "".join(f"{u} {w}\n" for u, w in tree.edges)
        )
        argv = (argv[0], "--tree", str(path), *argv[1:])
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(ROOT / "src"), "1", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0, result["stderr"]
    return result["trace"]["counts"]


@pytest.mark.parametrize("command,generators,relations", [
    ("present", 12, 1),      # level 4 alone
    ("stabilize", 20, 1),    # levels 0..4: 0 + 0 + 2 + 6 + 12 generators
])
def test_traced_run_counts_presentations(tmp_path, htree, command, generators, relations):
    counts = traced_counts(tmp_path, command, "--n", "4", tree=htree)
    assert counts["presentation.generators"] == generators
    assert counts["presentation.relations"] == relations


def test_traced_verify_counts_the_oracle(tmp_path, htree):
    # the oracle hooks read CubeComplex.n/.tree/.cell_counts() and
    # SparseIntMatrix.entry_count(); levels 2 and 3, cut into 1 and 2 pieces
    counts = traced_counts(tmp_path, "verify", "--n-min", "2", "--n-max", "3", tree=htree)
    cells = [counts[f"cubes.cells_d{d}"] for d in range(4)]
    assert cells == [180, 380, 242, 48]
    assert counts["cubes.nonzeros"] == 1436
    assert counts["homology.pivots"] == 420


def test_traced_table_counts_the_star_edges(tmp_path):
    # each rank of k=2..8 and n=0..9 is counted off its arm-vector level:
    # neither a basis nor a full edge list is built, so neither the basis
    # counter nor the star_edges counters are ever set
    counts = traced_counts(tmp_path, "table", "--k-max", "8", "--n-max", "9")
    edge_counters = {
        "stars.basis_calls",
        "stars.star_edges_calls", "stars.star_edges", "stars.star_edges_levels",
    }
    assert not edge_counters & counts.keys()


def test_traced_present_counts_the_exported_bytes(tmp_path, caterpillar5):
    # the present_caterpillar command: to_json and to_dot stay traced by name
    counts = traced_counts(
        tmp_path, "present", "--n-min", "0", "--n-max", "8", "--format", "dot",
        "--out", str(tmp_path / "out"), tree=caterpillar5,
    )
    assert counts["presentation.export_bytes"] == 1481172
