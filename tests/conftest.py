import signal
import time
from contextlib import contextmanager

import pytest

from treebraid import trees


@contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once ``seconds`` of wall time
    have passed, so a call that would hang fails in bounded time.  Uses
    SIGALRM, so only in the main thread; the previous handler and any
    running timer, less the time spent here, are restored on exit."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old_handler = signal.signal(signal.SIGALRM, expire)
    old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        if old_delay:
            left = old_delay - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6), old_interval)


def tree_from_edges(edges, endpoint):
    vertices = {v for e in edges for v in e}
    return trees.make_tree(vertices, edges, endpoint)


@pytest.fixture
def interval():
    return tree_from_edges([("p", "m"), ("m", "q")], "p")


@pytest.fixture
def tripod():
    return tree_from_edges([("x", "v"), ("y", "v"), ("z", "v")], "x")


@pytest.fixture
def star4():
    return tree_from_edges([("w", "v"), ("x", "v"), ("y", "v"), ("z", "v")], "w")


@pytest.fixture
def htree():
    # two degree-3 hubs u, v joined by an edge, two extra leaves each
    return tree_from_edges(
        [("p", "u"), ("a", "u"), ("u", "v"), ("v", "b"), ("v", "c")], "p"
    )


@pytest.fixture
def caterpillar3():
    # three degree-3 hubs in a row
    return tree_from_edges(
        [
            ("p", "v1"),
            ("a", "v1"),
            ("v1", "v2"),
            ("v2", "b"),
            ("v2", "v3"),
            ("v3", "c"),
            ("v3", "d"),
        ],
        "p",
    )


@pytest.fixture
def caterpillar5():
    # five adjacent hubs with 4, 4, 3, 5 and 3 arms
    return tree_from_edges(
        [
            ("p", "h1"), ("h1", "a1"), ("h1", "a2"), ("h1", "h2"), ("h2", "b1"),
            ("h2", "b2"), ("h2", "h3"), ("h3", "c1"), ("h3", "h4"), ("h4", "d1"),
            ("h4", "d2"), ("h4", "d3"), ("h4", "h5"), ("h5", "e1"), ("h5", "e2"),
        ],
        "p",
    )


@pytest.fixture
def spider():
    # three tripods joined at a center: branch vertices form a Y, not linear
    edges = [("c", "n1"), ("c", "n2"), ("c", "n3")]
    for i in (1, 2, 3):
        edges += [(f"n{i}", f"l{i}a"), (f"n{i}", f"l{i}b")]
    return tree_from_edges(edges, "l1a")
