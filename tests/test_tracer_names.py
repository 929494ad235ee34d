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


@pytest.mark.parametrize("command,generators,relations", [
    ("present", 12, 1),      # level 4 alone
    ("stabilize", 20, 1),    # levels 0..4: 0 + 0 + 2 + 6 + 12 generators
])
def test_traced_run_counts_presentations(tmp_path, htree, command, generators, relations):
    tree = tmp_path / "htree.txt"
    tree.write_text(f"endpoint {htree.endpoint}\n" + "".join(f"{u} {w}\n" for u, w in htree.edges))
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(ROOT / "src"), "1", command,
         "--tree", str(tree), "--n", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0, result["stderr"]
    counts = result["trace"]["counts"]
    assert counts["presentation.generators"] == generators
    assert counts["presentation.relations"] == relations
