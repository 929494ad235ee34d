"""Commutator-only presentations of the n-strand group of a linear tree.

Generators are the star-complex basis edges of each star in the
decomposition, tagged with the 1-based star index.  Relations are built by
recursion along the spine: gluing star i onto the trees to its right
commutes, for each split k of the strands, everything that arrives on star
i's arm 2 from the shared endpoint with everything on the right-hand side
that arrives from its left endpoint.  The result is exactly the data of a
defining graph: vertices = generators, edges = commuting pairs.

``assemble`` realizes that sweep literally, by iterating strand-addition
maps; ``commutation_predicate`` is the equivalent closed form in terms of
capacities, kept as an independent code path so the two can be checked
against each other.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .stars import StarEdge, add_strand, basis, capacity
from .trees import StarDecomposition


class SameStarError(ValueError):
    """The commutation predicate needs generators from distinct stars."""


class NaturalityError(RuntimeError):
    """A stabilization image escaped the target presentation (a bug)."""


@dataclass(frozen=True, order=True)
class Generator:
    """A basis edge of star number ``star`` (1-based along the spine)."""

    star: int
    edge: StarEdge


@dataclass(frozen=True)
class Presentation:
    """Generators plus unordered commuting pairs at a fixed strand count."""

    n: int
    generators: frozenset[Generator]
    relations: frozenset[frozenset[Generator]]

    def sorted_generators(self) -> list[Generator]:
        return sorted(self.generators)

    def sorted_relations(self) -> list[tuple[Generator, Generator]]:
        gens = self.sorted_generators()
        return [(gens[i], gens[j]) for i, j in self.relation_index_pairs()]

    def relation_index_pairs(self) -> list[tuple[int, int]]:
        """Relations as sorted index pairs i < j into sorted_generators();
        index order is generator order, so sorted_relations() follows it."""
        index = {g: i for i, g in enumerate(self.sorted_generators())}
        pairs = ((index[g], index[h]) for g, h in self.relations)
        return sorted((i, j) if i < j else (j, i) for i, j in pairs)


@dataclass(frozen=True)
class StabilizationMap:
    """Embedding of the (n-1)-strand presentation into the n-strand one."""

    source: Presentation
    target: Presentation
    mapping: dict[Generator, Generator]


def _shift(edge: StarEdge, arm: int, times: int) -> StarEdge:
    for _ in range(times):
        edge = add_strand(edge, arm)
    return edge


def _star_generators(ks, star_index: int, level: int) -> set[Generator]:
    return {Generator(star_index, e) for e in basis(ks[star_index - 1], level).edges}


def assemble(decomp: StarDecomposition, n: int) -> Presentation:
    """Presentation of the n-strand group of the decomposed tree.

    Recursion over the suffix tree X_i = stars i..m: a single star is free;
    gluing star i on the left keeps all of X_{i+1}'s relations and adds,
    for each split k = 1..n-1, every pair (g, h) where g is a star-i
    generator reachable by pushing k strands in along arm 2 and h is an
    X_{i+1} generator reachable by pushing n-k strands in at its left
    endpoint (a uniform arm-1 shift on every constituent star).
    """
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")
    ks = decomp.arm_counts()
    m = len(ks)
    generators: set[Generator] = set()
    for i in range(1, m + 1):
        generators |= _star_generators(ks, i, n)

    # suffix_gens[i][lvl]: generators of stars i..m at strand count lvl
    suffix_gens: dict[int, list[set[Generator]]] = {m + 1: [set() for _ in range(n + 1)]}
    for i in range(m, 0, -1):
        suffix_gens[i] = [
            suffix_gens[i + 1][lvl] | _star_generators(ks, i, lvl)
            for lvl in range(n + 1)
        ]

    relations: set[frozenset[Generator]] = set()
    for i in range(1, m):
        for k in range(1, n):
            left = {
                Generator(i, _shift(e, 2, k))
                for e in basis(ks[i - 1], n - k).edges
            }
            if not left:
                continue
            right = {
                Generator(g.star, _shift(g.edge, 1, n - k))
                for g in suffix_gens[i + 1][k]
            }
            relations.update(
                frozenset((g, h)) for g in left for h in right
            )
    return Presentation(n=n, generators=frozenset(generators), relations=frozenset(relations))


def commutation_predicate(g: Generator, h: Generator, n: int) -> bool:
    """Closed form for whether two generators commute in the n-strand group:
    writing lo for the one on the smaller star index, lo must be pushable
    along arm 2 at least once, and its arm-2 capacity plus hi's arm-1 count
    must reach n.  Must coincide with the relation set of ``assemble``.
    """
    if g.star == h.star:
        raise SameStarError(f"generators are both on star {g.star}")
    lo, hi = (g, h) if g.star < h.star else (h, g)
    cap = capacity(lo.edge, 2)
    return cap >= 1 and cap + hi.edge.a[0] >= n


def predicate_relations(pres: Presentation, n: int) -> frozenset[frozenset[Generator]]:
    """Relation set the closed-form predicate induces on pres's generators."""
    gens = pres.sorted_generators()
    out = set()
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if g.star != h.star and commutation_predicate(g, h, n):
                out.add(frozenset((g, h)))
    return frozenset(out)


def stabilize(source: Presentation, target: Presentation) -> StabilizationMap:
    """The strand-addition embedding of source, at level n - 1, into
    target, at level n, both assembled from the same decomposition.

    Every generator's edge gains one strand on arm 1.  The map is checked:
    images must be generators and image relations must be relations; a
    violation is an implementation bug, not bad input.
    """
    n = target.n
    if n != source.n + 1:
        raise ValueError(f"stabilization needs consecutive levels, got {source.n} and {n}")
    mapping = {
        g: Generator(g.star, add_strand(g.edge, 1)) for g in source.generators
    }
    stray = sorted(set(mapping.values()) - target.generators)
    if stray or len(set(mapping.values())) != len(mapping):
        raise NaturalityError(
            f"generator images escape level {n}: {stray[:3]}"
        )
    for pair in source.relations:
        image = frozenset(mapping[g] for g in pair)
        if image not in target.relations:
            raise NaturalityError(
                f"relation image {sorted(image)} missing at level {n}"
            )
    return StabilizationMap(source=source, target=target, mapping=mapping)


def to_json_dict(pres: Presentation) -> dict:
    return {
        "n": pres.n,
        "generators": [
            {"star": g.star, "a": list(g.edge.a), "p": g.edge.p}
            for g in pres.sorted_generators()
        ],
        "relations": [list(pair) for pair in pres.relation_index_pairs()],
    }


def to_json(pres: Presentation) -> str:
    return json.dumps(to_json_dict(pres), indent=2, sort_keys=False) + "\n"


def to_dot(pres: Presentation) -> str:
    """Defining graph in DOT: one vertex per generator, one edge per relation."""
    gens = pres.sorted_generators()
    lines = [f"graph strands_{pres.n} {{"]
    for i, g in enumerate(gens):
        label = f"s{g.star} a=({','.join(map(str, g.edge.a))}) p={g.edge.p}"
        lines.append(f'  g{i} [label="{label}"];')
    for i, j in pres.relation_index_pairs():
        lines.append(f"  g{i} -- g{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(pres: Presentation, fmt: str) -> str:
    if fmt == "json":
        return to_json(pres)
    if fmt == "dot":
        return to_dot(pres)
    raise ValueError(f"unknown format: {fmt!r}")
