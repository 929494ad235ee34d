"""Test-side companions of ``treebraid.stars`` and ``treebraid.presentation``.

The Type I end of an edge, the base vertex and the spanning tree of
successor edges, listed edge by edge with ``is_tree_edge``: ``stars.basis``
reads its complement in closed form; the tests check the tree's shape here
and the basis against it.

The commutation predicate in closed form, pair by pair and as one range
per (generator, later star): ``presentation.assemble`` sweeps
strand-addition maps instead, and the tests check the two against each
other.  And a sabotage of the presentation that ``presentation.stabilize``
must refuse.  None of this is needed by a command."""
from bisect import bisect_left

from treebraid.presentation import Generator, Presentation
from treebraid.stars import capacity, is_tree_edge, star_edges


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


class SameStarError(ValueError):
    """The commutation predicate needs generators from distinct stars."""


def commutation_predicate(g: Generator, h: Generator, n: int) -> bool:
    """Closed form for whether two generators commute in the n-strand group:
    writing lo for the one on the smaller star index, lo must be pushable
    along arm 2 at least once, and its arm-2 capacity plus hi's arm-1 count
    must reach n.  Must coincide with the relation set of ``assemble``.
    """
    if g.star == h.star:
        raise SameStarError(f"generators are both on star {g.star}")
    lo, hi = (g, h) if g.star < h.star else (h, g)
    cap = capacity((lo.a, lo.p), 2)
    return cap >= 1 and cap + hi.a[0] >= n


def predicate_relations(pres: Presentation, n: int) -> tuple[tuple[int, int], ...]:
    """Sorted index pairs the closed-form predicate induces on pres's generators."""
    gens = pres.generators
    return tuple((i, j) for i, g in enumerate(gens) for j in range(i + 1, len(gens))
                 if g.star != gens[j].star and commutation_predicate(g, gens[j], n))


def predicate_partners(pres: Presentation) -> tuple[tuple[range, ...], ...]:
    """The predicate's partners of each generator g, as one range per later
    star: the star's generators h with a[0] >= n - capacity(g, 2), found by
    one bisect over that star's block, which is sorted by a[0].  A capacity
    of 0 asks for a[0] >= n, which no generator has (a basis edge keeps a
    strand off arm 1), so it needs no case of its own."""
    gens = pres.generators
    first, stop = {}, {}
    for i, g in enumerate(gens):
        first.setdefault(g.star, i)
        stop[g.star] = i + 1
    a0 = [g.a[0] for g in gens]
    partners = []
    for g in gens:
        least = pres.n - capacity((g.a, g.p), 2)
        partners.append(tuple(range(bisect_left(a0, least, first[s], stop[s]), stop[s])
                              for s in stop if s > g.star))
    return tuple(partners)


def spans(partners: tuple[tuple[range, ...], ...]) -> list[list[tuple[int, int]]]:
    """Each range as (start, stop): empty ranges compare equal whatever their
    bounds, and an empty partner range must still end where its star's
    block ends."""
    return [[(r.start, r.stop) for r in row] for row in partners]


# a relation the H-tree (arm counts (3, 3)) lacks at level 5, between the
# images of two level-4 generators
EXTRA_RELATION = (Generator(1, (1, 1, 3), 2), Generator(2, (3, 1, 1), 2))


def gain_relation(pres: Presentation, g: Generator, h: Generator) -> Presentation:
    """pres with the relation (g, h) added, for g on an earlier star than h:
    g's range on h's star grows down by one, so h must sit just before it."""
    i, j = map(pres.generators.index, (g, h))
    row = list(pres.partners[i])
    r = row[h.star - g.star - 1]
    assert r.start == j + 1, (r, j)
    row[h.star - g.star - 1] = range(j, r.stop)
    return pres._replace(partners=(*pres.partners[:i], tuple(row), *pres.partners[i + 1:]))
