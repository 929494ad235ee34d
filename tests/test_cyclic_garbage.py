"""The library paths the CLI runs leave no cyclic garbage: with the
collector paused, a full collection afterwards finds nothing to free.

``cli.main`` pauses the cyclic collector for a whole command, which is
only free of cost while the objects a command builds are acyclic; a
reference cycle made on one of these paths would fail here."""
import gc

import pytest

from treebraid import cubes, presentation, stars, trees


@pytest.fixture
def paused_collector():
    # what exists before the test, pytest's own objects included, moves to
    # the permanent generation, so each full collection walks only what
    # the test made
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()
    if was_enabled:
        gc.enable()


def test_star_ranks(paused_collector):
    # the table command's path: rank keeps no basis, so a cycle it left
    # would be garbage at once
    for k in range(2, 9):
        for n in range(10):
            stars.rank(k, n)
            assert gc.collect() == 0, (k, n)


def test_presentations_and_exports(paused_collector, caterpillar5):
    gc.collect()
    arm_counts = trees.decompose(caterpillar5)
    assert gc.collect() == 0
    previous = None
    for n in range(7):
        pres = presentation.assemble(arm_counts, n)
        assert gc.collect() == 0, ("assemble", n)
        presentation.to_json(pres)
        assert gc.collect() == 0, ("to_json", n)
        presentation.to_dot(pres)
        assert gc.collect() == 0, ("to_dot", n)
        if previous is not None:
            presentation.stabilize(previous, pres)
            assert gc.collect() == 0, ("stabilize", n)
        previous = pres


def test_oracle_report(paused_collector, htree):
    gc.collect()
    for n in (2, 3):
        cubes.oracle_report(htree, n)
        assert gc.collect() == 0, n
