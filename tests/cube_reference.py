"""Test-side companions of ``treebraid.cubes``: cells as tuples, decoded
from their integer keys and enumerated by brute force; matching counts of
any size, by a polynomial pass over the tree and by brute force, which
``cubes.layer_sizes``'s closed form is checked against; the tuple-based
face rule the flat boundary rows are checked against; and a spanning-tree
presentation of the fundamental group of the 2-skeleton, whose
abelianization is checked against b_1.  None is needed by a command."""
from collections import deque
from itertools import combinations
from typing import NamedTuple

from treebraid.cubes import CubeComplex
from treebraid.homology import SparseIntMatrix, rank_and_factors
from treebraid.trees import bfs_parents

Cell = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]   # (edges, vertices)


def interned_edges(tree) -> list[tuple[int, int]]:
    """The edges as (smaller, larger) ranks in the sorted vertex ids, sorted."""
    rank = {v: i for i, v in enumerate(sorted(tree.vertices))}
    return sorted(tuple(sorted((rank[u], rank[w]))) for u, w in tree.edges)


def decoder(tree):
    """The function from a cell's key to its (edges, vertices): with V
    vertices, bit v of the key is vertex v and bit V + i the i-th edge of
    ``interned_edges``."""
    nv = len(tree.vertices)
    edges = interned_edges(tree)

    def decode(key: int) -> Cell:
        assert 0 <= key < 1 << (nv + len(edges)), key
        ones = []       # the positions of the set bits, ascending
        while key:
            low = key & -key
            ones.append(low.bit_length() - 1)
            key ^= low
        return tuple(edges[i - nv] for i in ones if i >= nv), tuple(i for i in ones if i < nv)

    return decode


def decoded_layers(cx: CubeComplex) -> list[list[Cell]]:
    """Every layer of cx as tuple cells, in the complex's order."""
    decode = decoder(cx.tree)
    return [[decode(key) for key in layer] for layer in cx.cells]


def brute_force_cells(tree, n: int, d: int) -> set[Cell]:
    """The d-cells for n strands: every d-set of edges whose closures are
    pairwise disjoint, times every (n - d)-set of the vertices they leave."""
    edges = interned_edges(tree)
    out = set()
    if d > n:
        return out
    for chosen in combinations(edges, d):
        covered = {v for e in chosen for v in e}
        if len(covered) < 2 * d:
            continue
        free = [v for v in range(len(tree.vertices)) if v not in covered]
        out.update((chosen, verts) for verts in combinations(free, n - d))
    return out


def matching_counts(tree, top: int) -> list[int]:
    """[m_0, .., m_top]: the number of d-edge matchings of tree, for any top.

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


def brute_force_matchings(tree, top: int) -> list[int]:
    """[m_0, .., m_top], counting every d-set of edges with 2d endpoints.

    With each edge as the mask of its two endpoints, the sum of d masks
    keeps all 2d bits only when no two masks share one: a shared bit
    carries, and popcount(x + y) is popcount(x) + popcount(y) less the
    number of carries."""
    masks = [1 << u | 1 << w for u, w in interned_edges(tree)]
    return [sum(key.bit_count() == 2 * d for key in map(sum, combinations(masks, d)))
            for d in range(top + 1)]


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


class DisconnectedComplexError(RuntimeError):
    """The 1-skeleton is not connected."""


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
    """Presentation read off the 1-skeleton and the squares, as decoded.

    The spanning tree is breadth-first from the first 0-cell, visiting
    1-cells in cell order.  Each square contributes the word of its
    boundary loop walked lower-corner -> first axis -> second axis -> back,
    with tree edges elided.
    """
    if cx.d_max < 2:
        raise ValueError("pi1 needs cells up to dimension 2")
    decode = decoder(cx.tree)
    zero_cells, one_cells, two_cells = ([decode(key) for key in layer] for layer in cx.cells[:3])
    zero_index = {cell: i for i, cell in enumerate(zero_cells)}

    # oriented 1-cells: tail = lower endpoint face, head = upper
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in zero_cells]
    for j, (edges, verts) in enumerate(one_cells):
        (u, w) = edges[0]
        tail = zero_index[((), tuple(sorted(verts + (u,))))]
        head = zero_index[((), tuple(sorted(verts + (w,))))]
        adjacency[tail].append((head, j, +1))
        adjacency[head].append((tail, j, -1))

    n_zero = len(zero_cells)
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
    for (e1, e2), verts in two_cells:
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
