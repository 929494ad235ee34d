"""Discretized configuration cube complexes of subdivided trees.

The n-strand discrete model of a graph: a d-cell is a choice of d edges
and n - d vertices whose closures are pairwise disjoint (no shared or
adjacent endpoints).  Faces replace an edge by one of its endpoints.  By
Prue and Scrimshaw (Abrams's stable equivalence for graph braid groups,
2014), a graph whose paths between vertices of degree != 2 all have at
least n - 1 edges, and whose cycles have at least n + 1, gives a complex
homotopy equivalent to the space of n unordered points.  A tree has no
cycles, so cutting every edge into max(1, n - 1) pieces is enough.  That
is what lets the complex serve as an independent check on the assembled
presentations: b_1 must count generators and b_2 must count commuting
pairs.

Vertex ids are interned to integers (rank in sorted id order), so cells
are plain int tuples and the lexicographic cell order is reproducible.

``betti`` is one pass from the top dimension down.  Each boundary_d is
built once, as flat face rows found through integer cell keys; it is
checked against boundary_{d+1} (boundary^2 == 0, exactly) before it is
reduced, so every clearing step rests on a product already checked.
"""
from __future__ import annotations

from itertools import combinations, compress, cycle
from math import comb
from typing import NamedTuple

from .homology import SparseIntMatrix, chain_homology
from .trees import Tree, bfs_parents, subdivide_edges

DEFAULT_CELL_CAP = 5_000_000

Cell = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]   # (edges, vertices)


class ResourceCapError(RuntimeError):
    """The largest cell layer would exceed the configured cap."""

    def __init__(self, message: str, cells: int, cap: int):
        super().__init__(message)
        self.cells = cells
        self.cap = cap


class BoundarySquareError(AssertionError):
    """Some boundary of a boundary is not exactly zero."""


class CubeComplex(NamedTuple):
    tree: Tree
    n: int
    d_max: int
    cells: tuple[tuple[Cell, ...], ...]          # cells[d], lexicographically sorted

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]


# the sign of the face in each column position: axis p // 2, upper endpoint
# at even p, so +(-1)^i and -(-1)^i for axis i
_SIGNS = (1, -1, -1, 1, 1, -1)


class BoundaryMatrix(NamedTuple):
    """Signed incidence of d-cells (columns) on (d-1)-cells (rows): column j
    is rows[2d*j : 2d*(j+1)], its entry at position p has sign _SIGNS[p]."""

    nrows: int
    d: int
    rows: tuple[int, ...]

    def to_sparse(self, skip=frozenset()) -> SparseIntMatrix:
        """The columns whose index is not in skip, renumbered in order."""
        width = 2 * self.d
        keep = [True] * (len(self.rows) // width)
        for j in skip:
            keep[j] = False
        entries = zip(self.rows, cycle(_SIGNS[:width]))
        return SparseIntMatrix.from_columns(self.nrows, compress(zip(*[entries] * width), keep))


class HomologyReport(NamedTuple):
    cell_counts: tuple[int, ...]
    boundary_ranks: tuple[int, ...]      # rank of d-boundary, d = 1..d_max
    betti: tuple[int, ...]               # b_0 .. b_{d_max - 1}
    torsion: tuple[tuple[int, ...], ...]  # invariant factors != 1 of H_d


def _disjoint_edge_tuples(edges, masks, size: int, start: int = 0,
                          chosen: tuple = (), used: int = 0):
    """All strictly increasing tuples of ``size`` pairwise vertex-disjoint
    edges, with the vertex masks they cover, that extend ``chosen`` (mask
    ``used``) by edges from index ``start`` on.  It recurses through itself
    rather than a nested closure, which would leave a function <-> cell
    reference cycle for the cyclic collector on every call."""
    if len(chosen) == size:
        yield chosen, used
        return
    for i in range(start, len(edges)):
        mask = masks[i]
        if used & mask:
            continue
        yield from _disjoint_edge_tuples(edges, masks, size, i + 1, chosen + (edges[i],), used | mask)


def matching_counts(tree: Tree, top: int) -> list[int]:
    """[m_0, .., m_top]: the number of d-edge matchings of tree.

    One pass from the leaves up keeps, per vertex, the matching polynomials
    of its subtree truncated at degree top: with the vertex left unmatched,
    and in total.
    """

    def mul(a, b):
        out = [0] * (top + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(top + 1 - i):
                    out[i + j] += x * b[j]
        return out

    unit = [1] + [0] * top
    root = tree.vertices[0]
    parent = bfs_parents(tree, root)
    unmatched: dict[str, list[int]] = {}
    total: dict[str, list[int]] = {}
    for v in reversed(parent):     # children before their parents
        free, matched = unit, [0] * (top + 1)
        for c in tree.neighbors(v):
            if c == parent[v]:
                continue
            via_edge = [0] + unmatched[c][:top]      # the edge v-c is used
            matched = [a + b for a, b in zip(mul(matched, total[c]), mul(free, via_edge))]
            free = mul(free, total[c])
        unmatched[v] = free
        total[v] = [a + b for a, b in zip(free, matched)]
    return total[root]


def layer_sizes(tree: Tree, n: int, d_max: int) -> list[int]:
    """Exact cell count of each dimension 0..d_max for n strands on tree.

    A d-cell is a d-edge matching plus n - d of the V - 2d vertices it
    leaves uncovered, so there are m_d * C(V - 2d, n - d) of them.
    """
    m = matching_counts(tree, d_max)
    nv = len(tree.vertices)
    return [
        m[d] * comb(nv - 2 * d, n - d) if d <= n and m[d] else 0
        for d in range(d_max + 1)
    ]


def build_complex(
    tree: Tree, n: int, d_max: int = 3, cell_cap: int = DEFAULT_CELL_CAP
) -> CubeComplex:
    """Enumerate all cells of dimension <= d_max for n strands on tree.

    The tree must already be subdivided finely enough for n (every edge in
    at least max(1, n - 1) pieces, after Prue and Scrimshaw); this is the
    caller's contract, which ``oracle_report`` enforces.  Refuses to
    start if any layer would hold more than cell_cap cells; the layer
    sizes are counted exactly beforehand by ``layer_sizes``.
    """
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")
    if not 1 <= d_max <= 3:
        raise ValueError(f"d_max must be 1..3, got {d_max}")
    nv = len(tree.vertices)
    if n > nv:
        raise ValueError(f"cannot place {n} strands on {nv} vertices")
    worst = max(layer_sizes(tree, n, d_max))
    if worst > cell_cap:
        raise ResourceCapError(
            f"largest cell layer has {worst} cells, above the cap {cell_cap}",
            cells=worst, cap=cell_cap,
        )

    edges = _interned_edges(tree)
    masks = [(1 << u) | (1 << w) for u, w in edges]

    layers: list[tuple[Cell, ...]] = []
    for d in range(min(d_max, n) + 1):
        layer = []
        for chosen, used in _disjoint_edge_tuples(edges, masks, d):
            free = [v for v in range(nv) if not (used >> v) & 1]
            for verts in combinations(free, n - d):
                layer.append((chosen, verts))
        layer.sort()
        layers.append(tuple(layer))
    while len(layers) <= d_max:
        layers.append(())   # dimensions above the strand count are empty

    return CubeComplex(tree=tree, n=n, d_max=d_max, cells=tuple(layers))


def _interned_edges(tree: Tree) -> tuple[tuple[int, int], ...]:
    """The edges as (smaller, larger) interned ids, in sorted order."""
    pos = {v: i for i, v in enumerate(tree.vertices)}
    return tuple(sorted((pos[u], pos[w]) for u, w in tree.edges))


def _keys(cells, vertex_bit, edge_bit):
    """The integer key of each cell, in order: its vertex bits plus its
    edge bits."""
    for edges, verts in cells:
        key = 0
        for v in verts:
            key += vertex_bit[v]
        for e in edges:
            key += edge_bit[e]
        yield key


def boundary_matrix(cx: CubeComplex, d: int) -> BoundaryMatrix:
    """Boundary of the d-cells, in cell order.  Axis i (the i-th smallest
    edge) of a cell contributes the faces at its upper, then its lower
    endpoint, edges being oriented from the smaller to the larger interned
    id; ``_SIGNS`` gives their signs.  A face is found by its integer key:
    dropping edge (u, w) for endpoint x changes a cell's key by a constant
    of the edge and x, so no face is built as a tuple.
    """
    if not 1 <= d <= cx.d_max:
        raise ValueError(f"dimension must be 1..{cx.d_max}, got {d}")
    nv = len(cx.tree.vertices)
    vertex_bit = [1 << v for v in range(nv)]
    edge_bit = {e: 1 << (nv + i) for i, e in enumerate(_interned_edges(cx.tree))}
    # per edge, the key change of its (upper, lower) face
    shift = {(u, w): (vertex_bit[w] - bit, vertex_bit[u] - bit) for (u, w), bit in edge_bit.items()}
    lower, cells = cx.cells[d - 1], cx.cells[d]
    index = dict(zip(_keys(lower, vertex_bit, edge_bit), range(len(lower))))
    rows: list[int] = []
    append = rows.append
    for (edges, _), key in zip(cells, _keys(cells, vertex_bit, edge_bit)):
        for e in edges:
            up, low = shift[e]
            append(index[key + up])
            append(index[key + low])
    return BoundaryMatrix(len(lower), d, tuple(rows))


def _face_pairs(d: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The faces of faces of a (d+1)-cell in pairs that name the same
    (d-1)-cell: position p of the cell's column, then position q of that
    face's column.  Dropping axes a < b for endpoints e and f goes through
    (2a + e, 2(b - 1) + f) and through (2b + f, 2a + e)."""
    return [((2 * a + e, 2 * (b - 1) + f), (2 * b + f, 2 * a + e))
            for a in range(d + 1) for b in range(a + 1, d + 1) for e in (0, 1) for f in (0, 1)]


def _check_pair(cx: CubeComplex, lower: BoundaryMatrix, upper: BoundaryMatrix) -> None:
    """Raise unless lower * upper == 0 exactly, for lower = boundary_d and
    upper = boundary_{d+1}, on the rows and signs as they are stored.

    The check is the pairwise face identity, which implies boundary^2 == 0:
    in each pair of ``_face_pairs`` both faces of faces name the same row,
    compared for all columns at once, and carry opposite signs.
    """
    d = lower.d
    width, sub_width = 2 * d + 2, 2 * d
    sub_rows = lower.rows

    def entries(p, q):
        """Entry q of the column of face p, for every (d+1)-cell in order."""
        return list(map(sub_rows[q::sub_width].__getitem__, upper.rows[p::width]))

    bad = None
    for (p, q), (p2, q2) in _face_pairs(d):
        first, second = entries(p, q), entries(p2, q2)
        if _SIGNS[p] * _SIGNS[q] != -_SIGNS[p2] * _SIGNS[q2]:
            j = 0       # the signs fail in every column
        elif first != second:
            j = next(j for j, (a, b) in enumerate(zip(first, second)) if a != b)
        else:
            continue
        if bad is None or j < bad[0]:
            bad = (j, first[j], second[j])
    if bad is not None:
        j, a, b = bad
        raise BoundarySquareError(
            f"boundary^2 != 0 on {cx.cells[d + 1][j]}: faces {cx.cells[d - 1][a]}"
            f" and {cx.cells[d - 1][b]} do not cancel"
        )


def _checked_boundaries(cx: CubeComplex):
    """Yield boundary_d for each nonempty dimension d, from the top down,
    each once boundary_d * boundary_{d+1} == 0 is checked.  Only the matrix
    of the step above is kept; an empty layer leaves nothing to check."""
    above = None
    for d in range(cx.d_max, 0, -1):
        if not cx.cells[d]:
            above = None
            continue
        matrix = boundary_matrix(cx, d)
        if above is not None:
            _check_pair(cx, matrix, above)
        above = matrix
        yield matrix


def check_boundary_squares_to_zero(cx: CubeComplex) -> None:
    """Assert boundary_d * boundary_{d+1} == 0 exactly, in every dimension,
    on the matrices ``boundary_matrix`` builds, each built once."""
    for _ in _checked_boundaries(cx):
        pass


def betti(cx: CubeComplex) -> HomologyReport:
    """Exact Betti numbers b_0..b_{d_max-1} and the torsion of each H_d,
    reduced by ``homology.chain_homology`` with clearing, in one pass from
    the top down: each boundary_d is built once, checked against the
    boundary_{d+1} of the step before, and only then reduced with the
    columns cleared by that step.  A failed check raises, so no report is
    returned unless boundary^2 == 0 held throughout.
    """
    counts = cx.cell_counts()
    boundaries = _checked_boundaries(cx)

    def boundary(d, skip):
        matrix = next(boundaries)
        assert matrix.d == d, (matrix.d, d)
        return matrix.to_sparse(skip)

    return HomologyReport(tuple(counts), *chain_homology(counts, boundary))


def oracle_report(
    tree: Tree, n: int, d_max: int = 3, parts: int | None = None,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> HomologyReport:
    """Homology of the n-strand cube complex of tree, every edge cut into
    max(1, n - 1) pieces unless parts asks for more (Prue-Scrimshaw), read
    only after the boundary of every boundary is checked to be zero.
    """
    floor = max(1, n - 1)
    if parts is None:
        parts = floor
    if parts < floor:
        raise ValueError(
            f"subdivision {parts} is too coarse for n={n}; need at least {floor}"
        )
    return betti(build_complex(subdivide_edges(tree, parts), n, d_max=d_max, cell_cap=cell_cap))


def raag_clique_counts(pres) -> tuple[int, int, int]:
    """(vertices, edges, triangles) of the defining graph of a
    ``presentation.Presentation``; these are the expected Betti numbers b_1,
    b_2, b_3 of the group the presentation defines.  With later[i] the
    neighbours j > i of generator index i, each triangle i < j < l is one l
    in later[i] & later[j].
    """
    later: list[set[int]] = [set() for _ in pres.generators]
    for i, j in pres.relations:
        later[i].add(j)
    triangles = sum(len(later[i] & later[j]) for i, js in enumerate(later) for j in js)
    return (len(pres.generators), len(pres.relations), triangles)
