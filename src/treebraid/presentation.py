"""Commutator-only presentations of the n-strand group of a linear tree.

A linear tree enters only through its arm counts: the degrees of its
branch vertices, in trunk order from the marked endpoint (see
``trees.decompose``).  Generators are the star-complex basis edges of
each star, tagged with the 1-based star index.  Relations are built by
recursion along the trunk: gluing star i onto the trees to its right
commutes, for each split k of the strands, everything that arrives on star
i's arm 2 from the shared endpoint with everything on the right-hand side
that arrives from its left endpoint.  What arrives on a star from its left
endpoint is its generators with a[0] at or above a threshold: a suffix of
its block of generators, which is sorted by (a, p).  So a ``Presentation``
holds the defining graph as the generators, sorted by (star, a, p), and
each generator's partners as one ``range`` per later star.  The exports
and the counts read the ranges, ``stabilize`` pulls them back to check that
level n - 1 is the subgraph of level n induced on its arm-1 images, and
``Presentation.relations`` lists the index pairs, for tests and tracing.

``assemble`` realizes the sweep by iterating strand-addition maps; the
closed form in ``stars.capacity`` that it must agree with is in the tests.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress, count, groupby, repeat
from operator import ge, itemgetter
from typing import NamedTuple

from .stars import add_strand, basis


class NaturalityError(RuntimeError):
    """A strand-addition image is not where the presentation needs it (a bug)."""


class Generator(NamedTuple):
    """The basis edge (a, p) of star number ``star``, 1-based along the trunk."""

    star: int
    a: tuple[int, ...]
    p: int


class Presentation(NamedTuple):
    """The defining graph at a fixed strand count: generators in sorted
    order, and partners[g]: g's partners on each later star, as a range."""

    n: int
    generators: tuple[Generator, ...]
    partners: tuple[tuple[range, ...], ...]

    @property
    def relations(self) -> tuple[tuple[int, int], ...]:
        """Each commuting pair as an index pair i < j, the pairs sorted."""
        return tuple((g, h) for g, row in enumerate(self.partners) for r in row for h in r)


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
    order, which is their sorted order.  A shifted edge is looked up in a
    dict of its star's level-n indices as ``add_strand`` returns it, and
    NaturalityError names the first that is not a level-n generator, or
    arm-1 images that are not exactly a suffix of their star's block.  The
    suffixes grow with k: each generator gets those at its largest arm-2
    split, in a row of ranges shared per star and split.  In closed form,
    g's range on a later star holds that star's generators h with
    ``capacity(g, 2) + h.a[0] >= n``; the tests check the sweep against it.
    """
    if n < 0:
        raise ValueError(f"strand count must be >= 0, got {n}")
    bases = [basis(k, n) for k in arm_counts]
    generators = tuple([Generator(i, a, p) for i, edges in enumerate(bases, 1) for a, p in edges])
    # stops[star - 1]: one past the level-n index of that star's last generator
    stops = list(accumulate(map(len, bases)))
    index = [dict(zip(edges, count(stop - len(edges)))) for edges, stop in zip(bases, stops)]

    def indices(star: int, level: int, arm: int, times: int) -> list[int]:
        """Level-n indices of star's level-``level`` basis edges after
        ``times`` strands are pushed in along arm."""
        shifted = [add_strand(e, arm, times) for e in basis(arm_counts[star - 1], level)]
        try:
            return list(map(index[star - 1].__getitem__, shifted))
        except KeyError as exc:
            raise NaturalityError(f"shifted generator {Generator(star, *exc.args[0])}"
                                  f" is not a generator at level {n}") from None

    rows = [()] * n if len(arm_counts) > 1 else []  # rows[k]: X_{i+1}'s arm-1 images at split k
    partners: list[tuple[range, ...]] = [()] * len(generators)
    for i in range(len(arm_counts) - 1, 0, -1):
        split: dict[int, int] = {}      # level-n index -> largest arm-2 split
        for k in range(n):
            images = indices(i + 1, k, 1, n - k)
            block = range(stops[i] - len(images), stops[i])
            if images != list(block):
                raise NaturalityError(f"star {i + 1}'s level-{k} generators pushed in"
                                      f" along arm 1 are not a suffix at level {n}")
            rows[k] = (block, *rows[k])
            if k:
                split.update(zip(indices(i, n - k, 2, k), repeat(k)))
        star = range(stops[i - 1] - len(bases[i - 1]), stops[i - 1])
        partners[star.start:star.stop] = map(rows.__getitem__, map(split.get, star, repeat(0)))
    return Presentation(n=n, generators=generators, partners=tuple(partners))


def stabilize(source: Presentation, target: Presentation) -> tuple[int, ...]:
    """The strand-addition embedding of source, at level n - 1, into
    target, at level n, both assembled from the same arm counts:
    mapping[i] is the target index of source generator i.

    Each edge gains one strand on arm 1, keeping the (star, a, p) order, so
    the images must be generators in increasing order; and source must be
    the subgraph of target induced on them, so that the map is injective on
    the groups (killing the other generators retracts onto it): the images'
    rows, each distinct one pulled back once, must equal source's partners.
    A bug is named by the stray images, the first pair out of order, or the
    first relation missing or added.
    """
    n = target.n
    if n != source.n + 1:
        raise ValueError(f"stabilization needs consecutive levels, got {source.n} and {n}")
    index = dict(zip(target.generators, count()))
    # (star, a, p) tuples hash and compare as the Generators they name
    images = [(star, *add_strand((a, p), 1)) for star, a, p in source.generators]
    mapping = tuple(map(index.get, images))
    if None in mapping:
        stray = sorted(Generator(*g) for g in images if g not in index)
        raise NaturalityError(f"generator images escape level {n}: {stray[:3]}")
    if (i := next(compress(count(), map(ge, mapping, mapping[1:])), None)) is not None:
        a, b = (f"{Generator(*images[k])} at index {mapping[k]}" for k in (i, i + 1))
        raise NaturalityError(f"generator images out of order at level {n}: {a}, then {b}")
    back = {row: tuple(range(bisect_left(mapping, t.start), bisect_left(mapping, t.stop))
                       for t in row) for row in set(map(target.partners.__getitem__, mapping))}
    pulled = tuple(back[target.partners[m]] for m in mapping)
    if source.partners != pulled:
        have = set(source.relations)
        i, j = min(have.symmetric_difference(source._replace(partners=pulled).relations))
        pair = [target.generators[mapping[i]], target.generators[mapping[j]]]
        raise NaturalityError(f"relation image {pair} missing at level {n}" if (i, j) in have else
                              f"relation {pair} at level {n} has no preimage at level {n - 1}")
    return mapping


def relation_count(pres: Presentation) -> int:
    """The number of commuting pairs, read off the partner ranges."""
    return sum(map(len, chain.from_iterable(pres.partners)))


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


def _relation_texts(pres: Presentation, head: str, tail: str, sep: str) -> list[str]:
    """Per generator g, one piece: each relation (g, h) as sep + head(g) + tail(h),
    every tail formatted once, every distinct row's tails listed once."""
    tails = list(map(tail.format, range(len(pres.generators))))
    listed = {row: list(chain.from_iterable(tails[r.start:r.stop] for r in row))
              for row in dict.fromkeys(pres.partners)}
    return [(h := sep + head.format(g)) + h.join(t)
            for g, row in enumerate(pres.partners) if (t := listed[row])]


def to_json(pres: Presentation) -> str:
    """Byte for byte ``json.dumps(..., indent=2) + "\n"`` of n, the generators
    and the relations, every one an int or a list of ints, in one join: each
    run of generators with k arms through one template built for k."""
    blocks = []
    for k, _, run in _runs(pres.generators):
        a = "[\n        " + ",\n        ".join(["%s"] * k) + "\n      ]" if k else "[]"
        item = '{\n      "star": %s,\n      "a": ' + a + ',\n      "p": %s\n    }'
        blocks.append(",\n    ".join([item] * len(run)) % _fields(run))
    generators = "[\n    " + ",\n    ".join(blocks) + "\n  ]" if blocks else "[]"
    relations = _relation_texts(pres, "[\n      {},\n      ", "{}\n    ]", ",\n    ")
    if relations:
        relations[0] = relations[0][1:]     # no comma before the first
    return "".join([f'{{\n  "n": {pres.n},\n  "generators": {generators},\n  "relations": [',
                    *relations, "\n  ]\n}\n" if relations else "]\n}\n"])


def to_dot(pres: Presentation) -> str:
    """Defining graph in DOT, one vertex per generator and one edge per relation,
    in one join; each run of generators with k arms through one template for k."""
    lines = [f"graph strands_{pres.n} {{"]
    for k, start, run in _runs(pres.generators):
        line = '\n  g%s [label="s%s a=(' + ",".join(["%s"] * k) + ') p=%s"];'
        lines.append("".join([line] * len(run)) % _fields(run, range(start, start + len(run))))
    return "".join([*lines, *_relation_texts(pres, "  g{} -- g", "{};", "\n"), "\n}\n"])
