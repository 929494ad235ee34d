"""Commutator-only presentations of the n-strand group of a linear tree.

A linear tree enters only through its arm counts: the degrees of its
branch vertices, in spine order from the marked endpoint (see
``trees.decompose``).  Generators are the star-complex basis edges of
each star, tagged with the 1-based star index.  Relations are built by
recursion along the spine: gluing star i onto the trees to its right
commutes, for each split k of the strands, everything that arrives on star
i's arm 2 from the shared endpoint with everything on the right-hand side
that arrives from its left endpoint.  The result is exactly the data of a
defining graph: vertices = generators, edges = commuting pairs, and a
``Presentation`` stores it as that graph: the generators sorted by
(star, a, p), and each commuting pair as an index pair i < j into them,
the pairs sorted.  The JSON and DOT exports write these fields as they are,
each through a fixed template.

``Generator``, ``Presentation`` and ``StabilizationMap`` are NamedTuples.
A generator is the flat record (star, a, p), the fields of its JSON object
in the same order, so it hashes and compares as that tuple and sorting and
index lookups run in C.

``assemble`` realizes that sweep literally, by iterating strand-addition
maps; ``commutation_predicate`` is the equivalent closed form in terms of
capacities, kept as an independent code path so the two can be checked
against each other.
"""
from __future__ import annotations

from typing import NamedTuple

from .stars import add_strand, basis, capacity


class SameStarError(ValueError):
    """The commutation predicate needs generators from distinct stars."""


class NaturalityError(RuntimeError):
    """A stabilization image escaped the target presentation (a bug)."""


class Generator(NamedTuple):
    """The basis edge (a, p) of star number ``star``, 1-based along the spine."""

    star: int
    a: tuple[int, ...]
    p: int


class Presentation(NamedTuple):
    """The defining graph at a fixed strand count: generators in sorted
    order, and each commuting pair as an index pair i < j into them, the
    pairs sorted."""

    n: int
    generators: tuple[Generator, ...]
    relations: tuple[tuple[int, int], ...]


class StabilizationMap(NamedTuple):
    """Embedding of the (n-1)-strand presentation into the n-strand one:
    mapping[i] is the target index of source generator i."""

    source: Presentation
    target: Presentation
    mapping: tuple[int, ...]


def assemble(arm_counts: tuple[int, ...], n: int) -> Presentation:
    """Presentation of the n-strand group of the linear tree whose stars,
    in spine order, have these arm counts.

    Recursion over the suffix tree X_i = stars i..m: a single star is free;
    gluing star i on the left keeps all of X_{i+1}'s relations and adds,
    for each split k = 1..n-1, every pair (g, h) where g is a star-i
    generator reachable by pushing k strands in along arm 2 and h is an
    X_{i+1} generator reachable by pushing n-k strands in at its left
    endpoint (a uniform arm-1 shift on every constituent star).

    Generators are listed star by star, each star's basis in its (a, p)
    order: that is their sorted (star, a, p) order with no sort.  Star
    first makes each such pair an index pair g < h, and sorting each g's
    partners once sorts the pairs.  A shifted edge that is not a level-n
    generator raises NaturalityError.
    """
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")
    generators = tuple(
        Generator(i, *e) for i, k in enumerate(arm_counts, 1) for e in basis(k, n)
    )
    index = {g: j for j, g in enumerate(generators)}

    def indices(star: int, level: int, arm: int, times: int) -> list[int]:
        """Level-n indices of star's level-``level`` basis edges after
        ``times`` strands are pushed in along arm."""
        out = []
        for e in basis(arm_counts[star - 1], level):
            e = add_strand(e, arm, times)
            try:
                out.append(index[(star, *e)])
            except KeyError:
                raise NaturalityError(
                    f"shifted generator {Generator(star, *e)} is not a generator at level {n}"
                ) from None
        return out

    # suffix[k]: level-n indices of X_{i+1}'s level-k generators, shifted
    # n - k strands in along arm 1; later[g]: the partners h > g of g
    suffix: list[list[int]] = [[] for _ in range(n)]
    later: list[set[int]] = [set() for _ in generators]
    for i in range(len(arm_counts) - 1, 0, -1):
        for k in range(1, n):
            suffix[k] += indices(i + 1, k, 1, n - k)
            for g in indices(i, n - k, 2, k):
                later[g].update(suffix[k])
    relations = tuple((g, h) for g, hs in enumerate(later) for h in sorted(hs))
    return Presentation(n=n, generators=generators, relations=relations)


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
    return tuple(
        (i, j)
        for i, g in enumerate(gens)
        for j in range(i + 1, len(gens))
        if g.star != gens[j].star and commutation_predicate(g, gens[j], n)
    )


def stabilize(source: Presentation, target: Presentation) -> StabilizationMap:
    """The strand-addition embedding of source, at level n - 1, into
    target, at level n, both assembled from the same arm counts.

    Every generator's edge gains one strand on arm 1.  The map is checked:
    images must be distinct generators and image relations must be
    relations; a violation is an implementation bug, not bad input.
    """
    n = target.n
    if n != source.n + 1:
        raise ValueError(f"stabilization needs consecutive levels, got {source.n} and {n}")
    index = {g: j for j, g in enumerate(target.generators)}
    images = [Generator(g.star, *add_strand((g.a, g.p), 1)) for g in source.generators]
    stray = sorted(g for g in images if g not in index)
    mapping = tuple(index[g] for g in images if g in index)
    if stray or len(set(mapping)) != len(mapping):
        raise NaturalityError(
            f"generator images escape level {n}: {stray[:3]}"
        )
    relations = set(target.relations)
    for i, j in source.relations:
        a, b = sorted((mapping[i], mapping[j]))
        if (a, b) not in relations:
            pair = [target.generators[a], target.generators[b]]
            raise NaturalityError(f"relation image {pair} missing at level {n}")
    return StabilizationMap(source=source, target=target, mapping=mapping)


def _array(items: list[str], indent: str) -> str:
    """A JSON list of already-written items, laid out as json.dumps(indent=2)
    lays out a list that opens ``indent`` deep."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def to_json(pres: Presentation) -> str:
    """Byte for byte ``json.dumps(..., indent=2) + "\n"`` of the three fields,
    from a fixed template: every field is an int or a list of ints."""
    generators = [
        f'{{\n      "star": {g.star},\n'
        f'      "a": {_array(list(map(str, g.a)), "      ")},\n'
        f'      "p": {g.p}\n    }}'
        for g in pres.generators
    ]
    relations = [f"[\n      {i},\n      {j}\n    ]" for i, j in pres.relations]
    head = f'{{\n  "n": {pres.n},\n  "generators": {_array(generators, "  ")},\n'
    return head + f'  "relations": {_array(relations, "  ")}\n}}\n'


def to_dot(pres: Presentation) -> str:
    """Defining graph in DOT: one vertex per generator, one edge per relation."""
    lines = [f"graph strands_{pres.n} {{"]
    for i, g in enumerate(pres.generators):
        label = f"s{g.star} a=({','.join(map(str, g.a))}) p={g.p}"
        lines.append(f'  g{i} [label="{label}"];')
    for i, j in pres.relations:
        lines.append(f"  g{i} -- g{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
