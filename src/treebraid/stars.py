"""The reduced 1-complex of n unordered strands on a star with k arms.

A star is a hub vertex v with k >= 2 arms; a strand configuration is
described purely by how many strands sit on each arm, so a vertex of the
complex is an arm vector, a plain tuple of k counts.  There are two kinds:

* Type I, ``b``: the hub is occupied; ``b[j]`` counts the strands on arm
  j + 1 excluding the hub, so sum(b) == n - 1.
* Type II, ``a``: the hub is free and every occupied arm has a strand
  pressed up against it; ``a[j]`` counts the strands on arm j + 1, so
  sum(a) == n, with at least two arms occupied.

The sums differ, so within one level a vector is never both kinds.

Every edge of the complex joins a Type II vertex ``a`` to the Type I
vertex obtained by sliding one strand from arm p onto the hub, so an edge
is the plain pair (a, p) with a[p-1] >= 1.
Arm vectors are enumerated in lex order by prefix extension: each vector
of the (total, k) level is a prefix, a run of zeros and then a nonzero
count f, followed by a vector of the level with total - f and the arms
that remain.  Each level is built once per process and cached as a tuple
of tuples, together with each vector's occupancy mask in reversed bit
order (bit i set when arm k - i holds a strand); ``arm_vectors``, both
vertex lists, ``star_edges``, ``basis``, ``rank`` and ``rank_from_euler``
all read that one level.  ``basis`` reads its edges straight off the level
without listing the tree edges: the basis arms depend only on the mask and
k, so they are worked out once per distinct (mask, k) and paired with the
vectors by C-level iteration.  ``rank`` counts those same arms once per
distinct mask, weighted by how many vectors carry it, and builds no edge;
``rank_from_euler`` counts vertices and edges from a histogram of empty
arms per vector; none of the three runs Python code per vector.  Edges
come in (a, p) order; the vertex lists, the edges and the basis all come
out in that order, unsorted.  Type II vertices are the vectors with at
most k - 2 empty arms.

Each non-base vertex has a canonical *successor* edge; the successor edges
form a spanning tree of the complex, and the edges outside it are a free
basis of the n-strand group of the star.  Adding a strand parked at arm 1
or arm 2 maps tree edges to tree edges and basis edges to basis edges,
which is what makes the glued presentations of whole trees stable in n.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, compress, repeat
from math import comb


class BaseVertexError(ValueError):
    """Raised when asking for the successor of the base vertex."""


class NotBasisEdgeError(ValueError):
    """Raised when a basis-only operation is applied to a tree edge."""


class RankMismatchError(RuntimeError):
    """Internal inconsistency between the three rank computations."""


@lru_cache(maxsize=None)
def _level(total: int, k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The level of length-k vectors of nonnegative ints summing to total,
    in lex order, by prefix extension, with each vector's occupancy mask in
    reversed bit order: bit i of ``masks[j]`` is set exactly when
    ``vectors[j][k - 1 - i] >= 1``, that is when arm k - i holds a strand.

    A prefix is a run of zeros and then the first nonzero count f; more
    zeros come first, then smaller f, and each prefix extends every vector
    of the (total - f, k - 1 - zeros) level, one C-level tuple
    concatenation per vector.  The sub-level's arms are this level's last
    arms, so in reversed order its masks keep their bits, and the prefix
    adds the single bit k - 1 - zeros: one C-level ``or`` per vector.  Only
    levels of a smaller total are read, so a wide star (k much larger than
    total) keeps no level of its own total with fewer arms, and the
    recursion is at most total deep."""
    if total < 0:
        return (), ()
    if k < 1:
        raise ValueError(f"an arm vector needs k >= 1 arms, got k={k}")
    blocks = [
        (zeros, first, *_level(total - first, k - 1 - zeros))
        for zeros in range(k - 2, -1, -1) for first in range(1, total + 1)
    ]
    # the first vector has its whole total on the last arm, so its mask is
    # that arm's bit 0, or no bit when the total is 0
    vectors = chain(
        [(0,) * (k - 1) + (total,)],
        *(map(((0,) * zeros + (first,)).__add__, sub) for zeros, first, sub, _ in blocks),
    )
    masks = chain(
        [1 if total else 0],
        *(map((1 << (k - 1 - zeros)).__or__, sub) for zeros, _, _, sub in blocks),
    )
    return tuple(vectors), tuple(masks)


def _vectors(total: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The vectors of the cached (total, k) level (see ``_level``)."""
    return _level(total, k)[0]


def arm_vectors(total: int, k: int):
    """All length-k tuples of nonnegative ints summing to total, in lex
    order, read from the cached level (see ``_level``).  Nothing when
    total < 0; ValueError when k < 1."""
    return iter(_vectors(total, k))


def type1_vertices(k: int, n: int) -> list[tuple[int, ...]]:
    """The hub-occupied vertices b: k nonnegative counts summing to n - 1."""
    return list(arm_vectors(n - 1, k))


def type2_vertices(k: int, n: int) -> list[tuple[int, ...]]:
    """The hub-free vertices a: k nonnegative counts summing to n, >= 2 occupied."""
    most_empty = k - 2
    return [a for a in arm_vectors(n, k) if a.count(0) <= most_empty]


def star_edges(k: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every edge of the complex, ordered by (a, p)."""
    arms = range(1, k + 1)      # compress keeps the occupied ones, a[p-1] >= 1
    return [(a, p) for a in type2_vertices(k, n) for p in compress(arms, a)]


def last_occupied_arm(a: tuple[int, ...]) -> int:
    """Largest 1-based index with a strand on it."""
    for j in range(len(a), 0, -1):
        if a[j - 1] >= 1:
            return j
    raise ValueError("empty configuration has no occupied arm")


def type1_successor(b: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The canonical edge leading Type I vertex b one step closer to the
    base vertex: a strand slides from arm 1 off the hub, so the edge's
    Type II end adds one to arm 1."""
    if not any(b[1:]):
        raise BaseVertexError("base vertex has no successor")
    return (b[0] + 1,) + b[1:], 1


def type2_successor(a: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The canonical edge leading Type II vertex a one step closer to the
    base vertex: the innermost strand of its last occupied arm slides onto
    the hub."""
    return a, last_occupied_arm(a)


def is_tree_edge(edge: tuple[tuple[int, ...], int]) -> bool:
    """Whether edge is a successor edge: p is 1 or the last occupied arm.
    With a[p-1] >= 1, which every edge of the complex has, p is the last
    occupied arm exactly when no strand sits on a later arm."""
    a, p = edge
    return p == 1 or not any(a[p:])


@lru_cache(maxsize=None)
def _basis_arms(mask: int, k: int) -> tuple[int, ...]:
    """The 1-based occupied arms of the k-arm occupancy ``mask`` (reversed
    bit order, see ``_level``) strictly between arm 1 and the last occupied
    arm, k minus the lowest set bit.  Cached per (mask, k): a level of a
    k-arm star has at most 2**k distinct masks, so this runs once per
    pattern, not once per vector."""
    last = k - (mask & -mask).bit_length() + 1
    return tuple(p for p in range(2, last) if mask >> (k - p) & 1)


def _check_star(k: int, n: int) -> None:
    """ValueError unless k >= 2 and n >= 0, the stars ``basis`` and ``rank`` take."""
    if k < 2 or n < 0:
        raise ValueError(f"a star needs k >= 2 arms and n >= 0 strands, got k={k}, n={n}")


@lru_cache(maxsize=None)
def basis(k: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Edges outside the spanning tree, in (a, p) order: a free basis of the
    n-strand group of a k-arm star.

    The tree holds each vertex's successor edge, the edges with p = 1 or p
    the last occupied arm, so the basis is, in closed form, the edges (a, p)
    with a[p-1] >= 1 and 1 < p < last occupied arm.  It is read straight off
    the (n, k) level: each vector a pairs with ``_basis_arms`` of its
    occupancy mask and k, in a pipeline of ``map``, ``zip`` and ``chain``
    with no Python-level step per vector or per edge.  A vector with fewer than two
    occupied arms, which is no Type II vertex, has no arm between arm 1 and
    its last occupied arm, so it adds nothing and needs no filter.

    Cached: assembling presentations sweeps the same (k, n) levels over and
    over, and every level embeds in the next.
    """
    _check_star(k, n)
    vectors, masks = _level(n, k)
    arms = map(_basis_arms, masks, repeat(k))
    return tuple(chain.from_iterable(map(zip, map(repeat, vectors), arms)))


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

    Vertices and edges are counted on the same cached arm-vector levels
    that the basis enumerates: the Type I vertices are the (n - 1, k)
    level, and each vector of the (n, k) level with at most k - 2 empty
    arms is a Type II vertex with one edge per occupied arm.  Both counts
    come from one histogram of the number of empty arms per vector, built
    by C-level iteration, so the Python work is per histogram bar (at most
    k), not per vector.  No spanning tree is involved, so this agrees with
    the basis size only if the rule in ``_basis_arms`` leaves out exactly
    one edge per non-base vertex.

    The empty arms are counted from the zeros of the vectors, not from the
    level's occupancy masks, which only the basis and its count in
    ``rank`` read: a mask that disagrees with its vector then changes the
    basis size but not this count, and ``rank`` reports the mismatch.
    """
    if n == 0:
        return 0
    type1 = len(_vectors(n - 1, k))
    empties = Counter(map(tuple.count, _vectors(n, k), repeat(0)))
    type2 = edges = 0
    for empty, count in empties.items():
        if empty <= k - 2:
            type2 += count
            edges += (k - empty) * count     # occupied arms = edges
    return 1 - (type1 + type2 - edges)


def rank(k: int, n: int) -> int:
    """Free rank of the n-strand group of a k-arm star.

    Computed as the enumerated basis size and cross-checked against the
    Euler characteristic and the closed form; a disagreement means the
    implementation is broken and raises RankMismatchError.  Raises
    ValueError unless k >= 2 and n >= 0.

    The basis size is counted off the (n, k) level without building an
    edge: ``basis`` pairs each vector with the ``_basis_arms`` of its mask,
    so its length is the sum of those arm counts, taken once per distinct
    mask times the number of vectors that carry it.  A wrong mask or a
    vector missing from the level changes this count as it changes the
    basis.
    """
    _check_star(k, n)
    masks = Counter(_level(n, k)[1])
    enumerated = sum(len(_basis_arms(mask, k)) * count for mask, count in masks.items())
    euler = rank_from_euler(k, n)
    closed = rank_closed_form(k, n)
    if not (enumerated == euler == closed):
        raise RankMismatchError(
            f"rank disagreement at k={k}, n={n}: "
            f"enumerated={enumerated}, euler={euler}, closed_form={closed}"
        )
    return enumerated


def add_strand(
    edge: tuple[tuple[int, ...], int], arm: int, times: int = 1
) -> tuple[tuple[int, ...], int]:
    """Image of an edge after parking ``times`` extra strands at arm 1 or
    arm 2, in one step: the one-strand map applied ``times`` times.

    Tree edges map to tree edges and basis edges to basis edges, and the
    two arms' maps commute; none of this holds for arms >= 3.
    """
    if arm not in (1, 2):
        raise ValueError(f"strands can only be added at arm 1 or 2, got arm {arm}")
    if times < 0:
        raise ValueError(f"cannot add a negative number of strands, got {times}")
    a = list(edge[0])
    a[arm - 1] += times
    return tuple(a), edge[1]


def capacity(edge: tuple[tuple[int, ...], int], arm: int) -> int:
    """How many times ``edge`` can be peeled back along ``arm`` while staying
    a basis edge: a[arm-1], minus one when the edge slides on that same arm.
    """
    if arm not in (1, 2):
        raise ValueError(f"capacity is defined for arms 1 and 2, got arm {arm}")
    a, p = edge
    if is_tree_edge(edge):
        raise NotBasisEdgeError(f"not a basis edge: a={a} p={p}")
    count = a[arm - 1]
    return count - 1 if arm == p else count

