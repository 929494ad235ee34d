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
"""
from __future__ import annotations

from collections import deque
from itertools import combinations
from math import comb
from typing import NamedTuple

from .homology import SparseIntMatrix, chain_homology, rank_and_factors
from .trees import Tree, bfs_parents, subdivide_edges

DEFAULT_CELL_CAP = 5_000_000

Cell = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]   # (edges, vertices)


class ResourceCapError(RuntimeError):
    """The largest cell layer would exceed the configured cap."""

    def __init__(self, message: str, cells: int, cap: int):
        super().__init__(message)
        self.cells = cells
        self.cap = cap


class DisconnectedComplexError(RuntimeError):
    """The 1-skeleton is not connected."""


class BoundarySquareError(AssertionError):
    """Some boundary of a boundary is not exactly zero."""


class CubeComplex(NamedTuple):
    tree: Tree
    n: int
    d_max: int
    cells: tuple[tuple[Cell, ...], ...]          # cells[d], lexicographically sorted

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]


class BoundaryMatrix(NamedTuple):
    """Signed incidence of d-cells (columns) on (d-1)-cells (rows)."""

    nrows: int
    columns: tuple[tuple[tuple[int, int], ...], ...]   # per column: ((row, sign), ...)

    def to_sparse(self) -> SparseIntMatrix:
        return SparseIntMatrix.from_columns(self.nrows, self.columns)


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
    ids = tree.vertices            # already sorted
    nv = len(ids)
    if n > nv:
        raise ValueError(f"cannot place {n} strands on {nv} vertices")
    worst = max(layer_sizes(tree, n, d_max))
    if worst > cell_cap:
        raise ResourceCapError(
            f"largest cell layer has {worst} cells, above the cap {cell_cap}",
            cells=worst, cap=cell_cap,
        )

    pos = {v: i for i, v in enumerate(ids)}
    edges = tuple(sorted((pos[u], pos[w]) for u, w in tree.edges))
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


def cell_faces(cell: Cell) -> list[tuple[Cell, int]]:
    """Codimension-1 faces with signs: axis i (the i-th smallest edge)
    contributes +/-(-1)^i for its upper/lower endpoint.  Edges are oriented
    from the smaller to the larger interned id.
    """
    edges, verts = cell
    out = []
    for i, (u, w) in enumerate(edges):
        rest = edges[:i] + edges[i + 1:]
        sign = -1 if i % 2 else 1
        out.append(((rest, tuple(sorted(verts + (w,)))), sign))
        out.append(((rest, tuple(sorted(verts + (u,)))), -sign))
    return out


def boundary_matrix(cx: CubeComplex, d: int, skip=frozenset()) -> BoundaryMatrix:
    """Boundary of the d-cells, in cell order, leaving out the column of
    every d-cell whose index is in skip.  Rows keep the (d-1)-cell indices.
    """
    if not 1 <= d <= cx.d_max:
        raise ValueError(f"dimension must be 1..{cx.d_max}, got {d}")
    index = {cell: i for i, cell in enumerate(cx.cells[d - 1])}
    columns = tuple(
        tuple((index[face], sign) for face, sign in cell_faces(cell))
        for j, cell in enumerate(cx.cells[d])
        if j not in skip
    )
    return BoundaryMatrix(nrows=len(cx.cells[d - 1]), columns=columns)


def check_boundary_squares_to_zero(cx: CubeComplex) -> None:
    """Assert boundary_d * boundary_{d+1} == 0 exactly, in every dimension.

    The products are taken over the integer columns of ``boundary_matrix``,
    the matrices ``betti`` reduces, row indices included.  From the top
    down, each column of boundary_{d+1} is summed through the columns of
    boundary_d, which are then carried up for the next step, so every
    cell's faces are computed once.
    """
    above = ()
    for d in range(cx.d_max, 0, -1):
        columns = boundary_matrix(cx, d).columns
        for j, column in enumerate(above):
            acc: dict[int, int] = {}
            for row, sign in column:
                for sub, sub_sign in columns[row]:
                    acc[sub] = acc.get(sub, 0) + sign * sub_sign
            bad = {cx.cells[d - 1][k]: v for k, v in acc.items() if v}
            if bad:
                raise BoundarySquareError(f"boundary^2 != 0 on {cx.cells[d + 1][j]}: {bad}")
        above = columns


def betti(cx: CubeComplex) -> HomologyReport:
    """Exact Betti numbers b_0..b_{d_max-1} and the torsion of each H_d,
    reduced by ``homology.chain_homology`` with clearing.
    """
    counts = cx.cell_counts()
    return HomologyReport(tuple(counts), *chain_homology(
        counts, lambda d, skip: boundary_matrix(cx, d, skip).to_sparse()
    ))


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
    cx = build_complex(subdivide_edges(tree, parts), n, d_max=d_max, cell_cap=cell_cap)
    check_boundary_squares_to_zero(cx)
    return betti(cx)


class Pi1Presentation(NamedTuple):
    """Spanning-tree presentation of the fundamental group of the 1-skeleton
    modulo the squares: generators are the non-tree 1-cells, one relator
    word (length <= 4 after tree elision) per 2-cell.
    """

    generator_count: int
    relators: tuple[tuple[tuple[int, int], ...], ...]   # ((gen index, exponent), ...)

    def abelianized_rank(self) -> int:
        """Rank of the abelianized group: generators minus relator-matrix rank."""
        columns = []
        for word in self.relators:
            acc: dict[int, int] = {}
            for gen, exp in word:
                acc[gen] = acc.get(gen, 0) + exp
            col = [(gen, v) for gen, v in sorted(acc.items()) if v]
            columns.append(col)
        sparse = SparseIntMatrix.from_columns(self.generator_count, columns)
        r, _ = rank_and_factors(sparse)
        return self.generator_count - r


def pi1_presentation(cx: CubeComplex) -> Pi1Presentation:
    """Presentation read off the 1-skeleton and the squares.

    The spanning tree is breadth-first from the lexicographically least
    0-cell, visiting 1-cells in cell order.  Each square contributes the
    word of its boundary loop walked lower-corner -> first axis -> second
    axis -> back, with tree edges elided.
    """
    if cx.d_max < 2:
        raise ValueError("pi1 needs cells up to dimension 2")
    zero_index = {cell: i for i, cell in enumerate(cx.cells[0])}
    one_cells = cx.cells[1]

    # oriented 1-cells: tail = lower endpoint face, head = upper
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in cx.cells[0]]
    for j, (edges, verts) in enumerate(one_cells):
        (u, w) = edges[0]
        tail = zero_index[((), tuple(sorted(verts + (u,))))]
        head = zero_index[((), tuple(sorted(verts + (w,))))]
        adjacency[tail].append((head, j, +1))
        adjacency[head].append((tail, j, -1))

    n_zero = len(cx.cells[0])
    visited = [False] * n_zero
    in_tree = [False] * len(one_cells)
    if n_zero:
        visited[0] = True
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y, j, _ in adjacency[x]:
                if not visited[y]:
                    visited[y] = True
                    in_tree[j] = True
                    queue.append(y)
    if not all(visited):
        missing = visited.count(False)
        raise DisconnectedComplexError(
            f"disconnected: {missing} of {n_zero} 0-cells unreachable"
        )

    gen_index = {}
    for j, tree_flag in enumerate(in_tree):
        if not tree_flag:
            gen_index[j] = len(gen_index)

    one_index = {cell: j for j, cell in enumerate(one_cells)}
    relators = []
    for (e1, e2), verts in cx.cells[2]:
        (u1, w1) = e1
        (u2, w2) = e2
        side = [
            (one_index[((e1,), tuple(sorted(verts + (u2,))))], +1),
            (one_index[((e2,), tuple(sorted(verts + (w1,))))], +1),
            (one_index[((e1,), tuple(sorted(verts + (w2,))))], -1),
            (one_index[((e2,), tuple(sorted(verts + (u1,))))], -1),
        ]
        word = tuple(
            (gen_index[j], exp) for j, exp in side if not in_tree[j]
        )
        relators.append(word)
    return Pi1Presentation(generator_count=len(gen_index), relators=tuple(relators))


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
