"""Test-side companions of ``treebraid.stars``: the Type I end of an edge,
the base vertex and the spanning tree of successor edges, listed edge by
edge with ``is_tree_edge``.
``stars.basis`` reads its complement in closed form; the tests check the
tree's shape here and the basis against it.  None is needed by a command."""
from treebraid.stars import is_tree_edge, star_edges


def type1(edge: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
    """The Type I end b of the edge (a, p): a with one strand moved from arm
    p onto the hub.  The Type II end is ``a`` itself."""
    a, p = edge
    b = list(a)
    b[p - 1] -= 1
    return tuple(b)


def base_vertex(k: int, n: int) -> tuple[int, ...]:
    """The Type I vertex with every strand on arm 1 (requires n >= 1)."""
    if n < 1:
        raise ValueError("the empty configuration has no hub vertex")
    return (n - 1,) + (0,) * (k - 1)


def spanning_tree(k: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Successor edges of every non-base vertex, in (a, p) order: a maximal
    tree of the complex."""
    return tuple(filter(is_tree_edge, star_edges(k, n)))
