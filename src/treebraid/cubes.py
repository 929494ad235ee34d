"""Discretized configuration cube complexes of subdivided trees.

The n-strand discrete model of a graph: a d-cell is a choice of d edges
and n - d vertices whose closures are pairwise disjoint (no two share a
vertex).  Faces replace an edge by one of its endpoints.  By
Prue and Scrimshaw (Abrams's stable equivalence for graph braid groups,
2014), a graph whose paths between vertices of degree != 2 all have at
least n - 1 edges, and whose cycles have at least n + 1, gives a complex
homotopy equivalent to the space of n unordered points.  A tree has no
cycles, so cutting every edge into max(1, n - 1) pieces is enough.  That
is what lets the complex serve as an independent check on the assembled
presentations: b_1 must count generators and b_2 must count commuting
pairs.

Vertex ids are interned to integers (rank in sorted id order), and a cell
is one integer, its key: vertex v sets bit v, and the i-th edge in sorted
order sets bit V + i, for V vertices.  Each layer is in ascending key
order, which is reproducible.

``check_limits`` is the one place the cell cap is checked, before the
tree is cut: ``layer_sizes`` counts every layer exactly from the vertex
degrees of the uncut tree.

``betti`` is one pass from the top dimension down.  Each boundary_d is
built once, as flat face rows found by key arithmetic; it is
checked against boundary_{d+1} (boundary^2 == 0, exactly) before it is
reduced, so every clearing step rests on a product already checked.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, compress, cycle
from math import comb, log10
from typing import NamedTuple

from .homology import SparseIntMatrix, chain_homology
from .trees import Tree, subdivide_edges

DEFAULT_CELL_CAP = 5_000_000


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
    cells: tuple[tuple[int, ...], ...]           # cells[d], the d-cells' keys, ascending

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


def _disjoint_edges(masks, offset: int, size: int, start: int = 0,
                    bits: int = 0, used: int = 0):
    """(edge bits, covered vertex mask) of each way to add ``size`` disjoint
    edges from index ``start`` on, edge i having bit offset + i and vertex
    mask masks[i].  It recurses through itself, as a nested closure would
    leave a function <-> cell reference cycle on every call."""
    if not size:
        yield bits, used
        return
    for i in range(start, len(masks)):
        mask = masks[i]
        if not used & mask:
            yield from _disjoint_edges(masks, offset, size - 1, i + 1,
                                       bits | 1 << (offset + i), used | mask)


def layer_sizes(tree: Tree, n: int, d_max: int, parts: int = 1) -> list[int]:
    """Exact cell count of each dimension 0..d_max for n strands on tree
    with every edge cut into ``parts`` pieces, read off the vertex degrees
    and edge endpoints without making the cut.

    A d-cell is a d-edge matching plus n - d of the V - 2d vertices it
    leaves uncovered, so there are m_d * C(V - 2d, n - d) of them.  In a
    tree two edges share at most one vertex and no cycle exists.  So with
    A = sum C(deg v, 2) pairs of edges at a vertex, S = sum C(deg v, 3)
    triples at a vertex and P = sum over edges uw of (deg u - 1)(deg w - 1)
    paths of three edges, counted by their middle edge: m_2 = C(E, 2) - A;
    and, as the A(E - 2) triples through a pair at a vertex count a triple
    with one such pair once, a path twice and three edges at a vertex three
    times, m_3 = C(E, 3) - A(E - 2) + P + 2S.  The cut adds (parts - 1)E vertices
    of degree 2 and nothing else, so S stays as it is.  The closed form
    stops at m_3, as ``build_complex`` does.  At n = 0 the one cell is
    empty, and no degree is read.
    """
    if not 1 <= d_max <= 3:
        raise ValueError(f"d_max must be 1..3, got {d_max}")
    if not n:
        return [1] + [0] * d_max
    deg = tree.degree
    added = (parts - 1) * len(tree.edges)   # the cut's vertices, each of degree 2
    pairs = sum(comb(deg(v), 2) for v in tree.vertices) + added
    claws = sum(comb(deg(v), 3) for v in tree.vertices)
    if parts == 1:
        paths = sum((deg(u) - 1) * (deg(w) - 1) for u, w in tree.edges)
    else:   # per edge, a piece at each end and parts - 2 between degree-2 ends
        paths = sum(deg(u) + deg(w) + parts - 4 for u, w in tree.edges)
    nv, ne = len(tree.vertices) + added, parts * len(tree.edges)
    m = (1, ne, comb(ne, 2) - pairs, comb(ne, 3) - pairs * (ne - 2) + paths + 2 * claws)
    return [
        m[d] * comb(nv - 2 * d, n - d) if d <= n and m[d] else 0
        for d in range(d_max + 1)
    ]


def build_complex(tree: Tree, n: int, d_max: int = 3) -> CubeComplex:
    """Enumerate all cells of dimension <= d_max for n strands on tree.

    The tree must already be subdivided finely enough for n (every edge in
    at least max(1, n - 1) pieces, after Prue and Scrimshaw), and its
    layers must fit the cell cap; both are the caller's contract, which
    ``oracle_report`` enforces.
    """
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")
    if not 1 <= d_max <= 3:
        raise ValueError(f"d_max must be 1..3, got {d_max}")
    nv = len(tree.vertices)
    if n > nv:
        raise ValueError(f"cannot place {n} strands on {nv} vertices")

    # at n = 0 the one cell is empty, and no mask would be read
    masks = [(1 << u) | (1 << w) for u, w in _interned_edges(tree)] if n else []

    layers: list[tuple[int, ...]] = []
    for d in range(min(d_max, n) + 1):
        layer: list[int] = []
        for bits, used in _disjoint_edges(masks, nv, d):
            # an n-cell has no vertex, so its matchings skip the O(V) scan
            free = [1 << v for v in range(nv) if not used >> v & 1] if d < n else ()
            layer += map(bits.__add__, map(sum, combinations(free, n - d)))
        layer.sort()
        layers.append(tuple(layer))
    while len(layers) <= d_max:
        layers.append(())   # dimensions above the strand count are empty

    return CubeComplex(tree=tree, n=n, d_max=d_max, cells=tuple(layers))


def _interned_edges(tree: Tree) -> tuple[tuple[int, int], ...]:
    """The edges as (smaller, larger) interned ids, in sorted order."""
    pos = {v: i for i, v in enumerate(tree.vertices)}
    return tuple(sorted((pos[u], pos[w]) for u, w in tree.edges))


def _decode(tree: Tree, key: int) -> tuple:
    """The cell of a key as ((edges), (vertices)) in interned ids."""
    nv = len(tree.vertices)
    return (tuple(e for i, e in enumerate(_interned_edges(tree)) if key >> (nv + i) & 1),
            tuple(v for v in range(nv) if key >> v & 1))


def boundary_matrix(cx: CubeComplex, d: int) -> BoundaryMatrix:
    """Boundary of the d-cells, in cell order.  Axis i of a cell (its i-th
    lowest edge bit, so its i-th smallest edge) gives the faces at its upper,
    then lower endpoint, edges running from the smaller to the larger
    interned id; ``_SIGNS`` gives their signs.  Dropping edge (u, w) for
    endpoint x adds a constant of the edge and x to the cell's key.
    """
    if not 1 <= d <= cx.d_max:
        raise ValueError(f"dimension must be 1..{cx.d_max}, got {d}")
    nv = len(cx.tree.vertices)
    # per edge bit of key >> nv, the key change of the (upper, lower) face
    shift = {1 << i: ((1 << w) - (1 << (nv + i)), (1 << u) - (1 << (nv + i)))
             for i, (u, w) in enumerate(_interned_edges(cx.tree))}
    lower = cx.cells[d - 1]
    index = dict(zip(lower, range(len(lower))))
    rows: list[int] = []
    append = rows.append
    for key in cx.cells[d]:
        edge_bits = key >> nv
        while edge_bits:
            bit = edge_bits & -edge_bits
            up, low = shift[bit]
            append(index[key + up])
            append(index[key + low])
            edge_bits ^= bit
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
        tree, faces = cx.tree, cx.cells[d - 1]
        raise BoundarySquareError(
            f"boundary^2 != 0 on {_decode(tree, cx.cells[d + 1][j])}: faces"
            f" {_decode(tree, faces[a])} and {_decode(tree, faces[b])} do not cancel"
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


def check_limits(tree: Tree, n: int, d_max: int = 3, parts: int | None = None,
                 cell_cap: int = DEFAULT_CELL_CAP) -> int:
    """The pieces per edge of the n-strand oracle on tree: max(1, n - 1)
    unless parts asks for more (Prue-Scrimshaw).  Refuses, without cutting,
    a parts below that and a complex whose largest cell layer, counted
    exactly by ``layer_sizes``, holds more than cell_cap cells."""
    floor = max(1, n - 1)
    if parts is None:
        parts = floor
    if parts < floor:
        raise ValueError(f"subdivision {parts} is too coarse for n={n}; need at least {floor}")
    worst = max(layer_sizes(tree, n, d_max, parts))
    if worst > cell_cap:
        # past 20 digits, the leading digits and digit count: float() and str() fail on huge ints
        digits = int(log10(worst)) + 1
        digits += (worst >= 10 ** digits) - (worst < 10 ** (digits - 1))
        shown = f"{worst // 10 ** (digits - 6)}... ({digits} digits)" if digits > 20 else worst
        raise ResourceCapError(f"largest cell layer has {shown} cells, above the cap {cell_cap}",
                               cells=worst, cap=cell_cap)
    return parts


def oracle_report(tree: Tree, n: int, d_max: int = 3, parts: int | None = None,
                  cell_cap: int = DEFAULT_CELL_CAP) -> HomologyReport:
    """Homology of the n-strand cube complex of tree, cut as ``check_limits``
    allows, read only after every boundary of a boundary is checked to be 0."""
    parts = check_limits(tree, n, d_max, parts, cell_cap)
    return betti(build_complex(subdivide_edges(tree, parts), n, d_max=d_max))


def raag_clique_counts(pres) -> tuple[int, int, int]:
    """(vertices, edges, triangles) of the defining graph of a
    ``presentation.Presentation``: the expected Betti numbers b_1, b_2, b_3
    of the group it defines.  Row i holds i's partners, one range per later
    star.  For an edge i < j, j in the c-th range of row i, row[c + 1:] lines
    up with row j, and each triangle i < j < l is one l in both.  Each
    distinct row is counted once, times the number of generators holding it.
    """
    rows = pres.partners
    held = Counter(rows).items()
    triangles = sum(
        k * len(range(max(a.start, b.start), min(a.stop, b.stop)))
        for row, k in held for c, r in enumerate(row)
        for j in r for a, b in zip(row[c + 1:], rows[j])
    )
    return (len(pres.generators), sum(k * sum(map(len, row)) for row, k in held), triangles)
