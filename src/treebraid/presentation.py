"""Commutator-only presentations of the n-strand group of a linear tree.

A linear tree enters only through its arm counts: the degrees of its
branch vertices, in trunk order from the marked endpoint (see
``trees.decompose``).  Generators are the star-complex basis edges of
each star, tagged with the 1-based star index.  Relations are built by
recursion along the trunk: gluing star i onto the trees to its right
commutes, for each split k of the strands, everything that arrives on star
i's arm 2 from the shared endpoint with everything on the right-hand side
that arrives from its left endpoint.  The result is exactly the data of a
defining graph: vertices = generators, edges = commuting pairs, and a
``Presentation`` stores it as that graph: the generators sorted by
(star, a, p), and each commuting pair as an index pair i < j into them,
the pairs sorted.  The JSON and DOT exports write these fields as they are:
each run of consecutive generators with the same arm count k through one
template built for k, and each relation as two pieces of text written once
per generator index.

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

from itertools import accumulate, chain, count, groupby
from operator import itemgetter
from typing import NamedTuple

from .stars import add_strand, basis, capacity


class SameStarError(ValueError):
    """The commutation predicate needs generators from distinct stars."""


class NaturalityError(RuntimeError):
    """A stabilization image escaped the target presentation (a bug)."""


class Generator(NamedTuple):
    """The basis edge (a, p) of star number ``star``, 1-based along the trunk."""

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
    in trunk order, have these arm counts.

    Recursion over the suffix tree X_i = stars i..m: a single star is free;
    gluing star i on the left keeps all of X_{i+1}'s relations and adds,
    for each split k = 1..n-1, every pair (g, h) where g is a star-i
    generator reachable by pushing k strands in along arm 2 and h is an
    X_{i+1} generator reachable by pushing n-k strands in at its left
    endpoint (a uniform arm-1 shift on every constituent star).

    Generators are listed star by star, each star's basis in its (a, p)
    order: that is their sorted (star, a, p) order with no sort.  Each star
    keeps a dict from its bare basis edges (a, p) to their level-n indices,
    and a shifted edge is looked up there as ``add_strand`` returns it.
    Star first makes each such pair an index pair g < h, and sorting each
    g's partners once sorts the pairs.  A shifted edge that is not a level-n
    generator raises NaturalityError, naming the first in (a, p) order.
    """
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")
    bases = [basis(k, n) for k in arm_counts]
    generators = tuple([Generator(i, a, p) for i, edges in enumerate(bases, 1) for a, p in edges])
    # index[star - 1]: that star's basis edge (a, p) -> its level-n index
    starts = accumulate(map(len, bases), initial=0)
    index = [dict(zip(edges, count(start))) for edges, start in zip(bases, starts)]

    def indices(star: int, level: int, arm: int, times: int) -> list[int]:
        """Level-n indices of star's level-``level`` basis edges after
        ``times`` strands are pushed in along arm."""
        shifted = [add_strand(e, arm, times) for e in basis(arm_counts[star - 1], level)]
        try:
            return list(map(index[star - 1].__getitem__, shifted))
        except KeyError as exc:
            stray = Generator(star, *exc.args[0])
            raise NaturalityError(
                f"shifted generator {stray} is not a generator at level {n}"
            ) from None

    # suffix[k]: level-n indices of X_{i+1}'s level-k generators, shifted
    # n - k strands in along arm 1; later[g]: the partners h > g of g
    suffix: list[list[int]] = [[] for _ in range(n)] if len(arm_counts) > 1 else []
    later: list[set[int]] = [set() for _ in generators]
    for i in range(len(arm_counts) - 1, 0, -1):
        for k in range(1, n):
            suffix[k] += indices(i + 1, k, 1, n - k)
            for g in indices(i, n - k, 2, k):
                later[g].update(suffix[k])
    relations = tuple([(g, h) for g, hs in enumerate(later) for h in sorted(hs)])
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
    relations; a violation is an implementation bug, not bad input.  The
    images are looked up in one pass and the relation images checked with
    one subset test; only a failed check walks them again, to name the
    sorted stray images or the first missing relation image.
    """
    n = target.n
    if n != source.n + 1:
        raise ValueError(f"stabilization needs consecutive levels, got {source.n} and {n}")
    index = dict(zip(target.generators, count()))
    # (star, a, p) tuples hash and compare as the Generators they name
    images = [(star, *add_strand((a, p), 1)) for star, a, p in source.generators]
    mapping = tuple(map(index.get, images))
    if None in mapping or len(set(mapping)) != len(mapping):
        stray = sorted(Generator(*g) for g in images if g not in index)
        raise NaturalityError(
            f"generator images escape level {n}: {stray[:3]}"
        )
    # each relation image as an ordered pair, in source.relations order
    pairs = [
        (a, b) if (a := mapping[i]) < (b := mapping[j]) else (b, a)
        for i, j in source.relations
    ]
    relations = set(target.relations)
    if not relations.issuperset(pairs):
        a, b = next(pair for pair in pairs if pair not in relations)
        pair = [target.generators[a], target.generators[b]]
        raise NaturalityError(f"relation image {pair} missing at level {n}")
    return StabilizationMap(source=source, target=target, mapping=mapping)


def _runs(generators: tuple[Generator, ...]):
    """Each maximal run of consecutive generators with the same arm count
    k, as (k, index of its first generator, the run)."""
    start = 0
    for k, run in groupby(map(len, map(itemgetter(1), generators))):
        stop = start + len(list(run))
        yield k, start, generators[start:stop]
        start = stop


def _fields(run: tuple[Generator, ...], *lead) -> tuple:
    """The run's generators as rows (*lead, star, *a, p), in one flat tuple."""
    arms = zip(*map(itemgetter(1), run))
    rows = zip(*lead, map(itemgetter(0), run), *arms, map(itemgetter(2), run))
    return tuple(chain.from_iterable(rows))


def _relation_parts(pres: Presentation, head: str, tail: str) -> tuple[list[str], list[str]]:
    """Each generator index written once into both halves of a relation's
    text, so relation (i, j) is written as head[i] + tail[j] with no
    number formatted per relation."""
    indices = range(len(pres.generators))
    return list(map(head.format, indices)), list(map(tail.format, indices))


def to_json(pres: Presentation) -> str:
    """Byte for byte ``json.dumps(..., indent=2) + "\n"`` of the three fields,
    every one an int or a list of ints: each run of generators with k arms
    through one template built for k."""
    blocks = []
    for k, _, run in _runs(pres.generators):
        a = "[\n        " + ",\n        ".join(["%s"] * k) + "\n      ]" if k else "[]"
        item = '{\n      "star": %s,\n      "a": ' + a + ',\n      "p": %s\n    }'
        blocks.append(",\n    ".join([item] * len(run)) % _fields(run))
    generators = "[\n    " + ",\n    ".join(blocks) + "\n  ]" if blocks else "[]"
    head, tail = _relation_parts(pres, "[\n      {},\n      ", "{}\n    ]")
    relations = ",\n    ".join([head[i] + tail[j] for i, j in pres.relations])
    relations = "[\n    " + relations + "\n  ]" if relations else "[]"
    return f'{{\n  "n": {pres.n},\n  "generators": {generators},\n  "relations": {relations}\n}}\n'


def to_dot(pres: Presentation) -> str:
    """Defining graph in DOT: one vertex per generator, one edge per relation;
    each run of generators with k arms goes through one template for k."""
    lines = [f"graph strands_{pres.n} {{"]
    for k, start, run in _runs(pres.generators):
        line = '  g%s [label="s%s a=(' + ",".join(["%s"] * k) + ') p=%s"];'
        lines.append("\n".join([line] * len(run)) % _fields(run, range(start, start + len(run))))
    head, tail = _relation_parts(pres, "  g{} -- g", "{};")
    lines += [head[i] + tail[j] for i, j in pres.relations]
    lines.append("}")
    return "\n".join(lines) + "\n"
