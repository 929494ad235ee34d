"""Every function the benchmark's tracer (perfbench/tracer.py) rebinds must
exist in treebraid: a renamed or deleted one makes a traced run fail while
installing the tracer, before any command runs."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
