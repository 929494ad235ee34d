"""The reduced 1-complex of n unordered strands on a star with k arms.

A star is a hub vertex v with k >= 2 arms; a strand configuration is
described purely by how many strands sit on each arm.  Vertices of the
complex come in two kinds:

* TypeIVertex: the hub is occupied; ``b[j]`` counts the strands on arm
  j + 1 excluding the hub, so sum(b) == n - 1.
* TypeIIVertex: the hub is free and every occupied arm has a strand
  pressed up against it; ``a[j]`` counts the strands on arm j + 1, so
  sum(a) == n, with at least two arms occupied.

Every edge of the complex joins a Type II vertex ``a`` to the Type I
vertex obtained by sliding one strand from arm p onto the hub, so an edge
is the pair (a, p) with a[p-1] >= 1.

Each non-base vertex has a canonical *successor* edge; the successor edges
form a spanning tree of the complex, and the edges outside it are a free
basis of the n-strand group of the star.  Adding a strand parked at arm 1
or arm 2 maps tree edges to tree edges and basis edges to basis edges,
which is what makes the glued presentations of whole trees stable in n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb


class BaseVertexError(ValueError):
    """Raised when asking for the successor of the base vertex."""


class NotBasisEdgeError(ValueError):
    """Raised when a basis-only operation is applied to a tree edge."""


class RankMismatchError(RuntimeError):
    """Internal inconsistency between the three rank computations."""


@dataclass(frozen=True, order=True)
class TypeIVertex:
    """Hub occupied; b = strands per arm, hub excluded (sum n - 1)."""

    b: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.b)

    @property
    def n(self) -> int:
        return sum(self.b) + 1


@dataclass(frozen=True, order=True)
class TypeIIVertex:
    """Hub free; a = strands per arm (sum n, at least two arms occupied)."""

    a: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return sum(self.a)


@dataclass(frozen=True, order=True)
class StarEdge:
    """Edge of the star complex: Type II vertex ``a`` plus the sliding arm p.

    Its Type I endpoint is ``a`` with one strand moved from arm p onto the
    hub.  p is 1-based and requires a[p-1] >= 1.
    """

    a: tuple[int, ...]
    p: int

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return sum(self.a)

    def type2(self) -> TypeIIVertex:
        return TypeIIVertex(self.a)

    def type1(self) -> TypeIVertex:
        b = list(self.a)
        b[self.p - 1] -= 1
        return TypeIVertex(tuple(b))


@dataclass(frozen=True)
class StarBasis:
    """Free basis of the n-strand group of a k-arm star."""

    k: int
    n: int
    edges: frozenset[StarEdge]


def arm_vectors(total: int, k: int):
    """All length-k tuples of nonnegative ints summing to total, lex order."""
    if total < 0:
        return
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in arm_vectors(total - first, k - 1):
            yield (first, *rest)


def type1_vertices(k: int, n: int) -> list[TypeIVertex]:
    if n == 0:
        return []
    return [TypeIVertex(b) for b in arm_vectors(n - 1, k)]


def type2_vertices(k: int, n: int) -> list[TypeIIVertex]:
    """All hub-free vertices: k nonnegative counts summing to n, >= 2 occupied."""
    out = []
    for a in arm_vectors(n, k):
        occupied = sum(1 for x in a if x > 0)
        if occupied >= 2:
            out.append(TypeIIVertex(a))
    return out


def star_edges(k: int, n: int) -> list[StarEdge]:
    """Every edge of the complex, ordered by (a, p)."""
    return [
        StarEdge(v.a, p)
        for v in type2_vertices(k, n)
        for p in range(1, k + 1)
        if v.a[p - 1] >= 1
    ]


def base_vertex(k: int, n: int) -> TypeIVertex:
    """The Type I vertex with every strand on arm 1 (requires n >= 1)."""
    if n < 1:
        raise ValueError("the empty configuration has no hub vertex")
    return TypeIVertex((n - 1,) + (0,) * (k - 1))


def last_occupied_arm(a: tuple[int, ...]) -> int:
    """Largest 1-based index with a strand on it."""
    for j in range(len(a), 0, -1):
        if a[j - 1] >= 1:
            return j
    raise ValueError("empty configuration has no occupied arm")


def successor(vertex: TypeIVertex | TypeIIVertex) -> StarEdge:
    """The canonical edge leading one step closer to the base vertex.

    A Type I vertex slides a strand from arm 1 off the hub (so the edge's
    Type II end adds one to arm 1); a Type II vertex slides the innermost
    strand of its last occupied arm onto the hub.
    """
    if isinstance(vertex, TypeIVertex):
        b = vertex.b
        if all(x == 0 for x in b[1:]):
            raise BaseVertexError("base vertex has no successor")
        return StarEdge((b[0] + 1,) + b[1:], 1)
    return StarEdge(vertex.a, last_occupied_arm(vertex.a))


def is_tree_edge(edge: StarEdge) -> bool:
    return edge.p == 1 or edge.p == last_occupied_arm(edge.a)


@lru_cache(maxsize=None)
def spanning_tree(k: int, n: int) -> frozenset[StarEdge]:
    """Successor edges of every non-base vertex: a maximal tree of the complex."""
    return frozenset(e for e in star_edges(k, n) if is_tree_edge(e))


@lru_cache(maxsize=None)
def basis(k: int, n: int) -> StarBasis:
    """Edges outside the spanning tree: a free basis, in closed form the
    edges (a, p) with a[p-1] >= 1 and p neither 1 nor the last occupied arm.

    Cached: assembling presentations sweeps the same (k, n) levels over and
    over, and every level embeds in the next.
    """
    edges = frozenset(e for e in star_edges(k, n) if not is_tree_edge(e))
    return StarBasis(k=k, n=n, edges=edges)


def rank_closed_form(k: int, n: int) -> int:
    """1 + (k-1)*C(n+k-2, k-1) - C(n+k-1, k-1).

    Note the final term: the variant sometimes quoted with C(n-k-1, k-1)
    is undefined for small n and does not match the enumerated basis; this
    form agrees with the enumeration and with the Euler characteristic for
    every k and n.
    """
    return 1 + (k - 1) * comb(n + k - 2, k - 1) - comb(n + k - 1, k - 1)


def rank_from_euler(k: int, n: int) -> int:
    """1 - chi of the enumerated complex (a single point when n == 0).

    Vertices are counted straight from the arm vectors, and edges as the
    occupied arms of the Type II vertices.  No spanning tree is involved,
    so this agrees with the basis size only if ``is_tree_edge`` keeps
    exactly one edge per non-base vertex.
    """
    if n == 0:
        return 0
    type1 = sum(1 for _ in arm_vectors(n - 1, k))
    occupied = (sum(1 for x in a if x) for a in arm_vectors(n, k))
    type2 = [arms for arms in occupied if arms >= 2]     # occupied arms = edges
    return 1 - (type1 + len(type2) - sum(type2))


def rank(k: int, n: int) -> int:
    """Free rank of the n-strand group of a k-arm star.

    Computed as the enumerated basis size and cross-checked against the
    Euler characteristic and the closed form; a disagreement means the
    implementation is broken and raises RankMismatchError.
    """
    enumerated = len(basis(k, n).edges)
    euler = rank_from_euler(k, n)
    closed = rank_closed_form(k, n)
    if not (enumerated == euler == closed):
        raise RankMismatchError(
            f"rank disagreement at k={k}, n={n}: "
            f"enumerated={enumerated}, euler={euler}, closed_form={closed}"
        )
    return enumerated


def add_strand(edge: StarEdge, arm: int) -> StarEdge:
    """Image of an edge after parking one extra strand at arm 1 or arm 2.

    Tree edges map to tree edges and basis edges to basis edges, and the
    two arms' maps commute; none of this holds for arms >= 3.
    """
    if arm not in (1, 2):
        raise ValueError(f"strands can only be added at arm 1 or 2, got arm {arm}")
    a = list(edge.a)
    a[arm - 1] += 1
    return StarEdge(tuple(a), edge.p)


def capacity(edge: StarEdge, arm: int) -> int:
    """How many times ``edge`` can be peeled back along ``arm`` while staying
    a basis edge: a[arm-1], minus one when the edge slides on that same arm.
    """
    if arm not in (1, 2):
        raise ValueError(f"capacity is defined for arms 1 and 2, got arm {arm}")
    if is_tree_edge(edge):
        raise NotBasisEdgeError(f"not a basis edge: a={edge.a} p={edge.p}")
    count = edge.a[arm - 1]
    return count - 1 if arm == edge.p else count


def dump_edges(k: int, n: int) -> str:
    """Debug dump, one edge per line: "a=(a1,...,ak) p=<arm> [tree|basis]"."""
    lines = []
    for e in star_edges(k, n):
        kind = "tree" if is_tree_edge(e) else "basis"
        lines.append(f"a=({','.join(map(str, e.a))}) p={e.p} {kind}")
    return "\n".join(lines)
