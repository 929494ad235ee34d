import json
import random
import tracemalloc
from bisect import bisect_left
from itertools import groupby

import pytest

from treebraid import presentation as pres
from treebraid import stars, trees
from treebraid.presentation import (
    Generator,
    NaturalityError,
    Presentation,
    assemble,
    relation_count,
    stabilize,
    to_dot,
    to_json,
)
import star_reference
from dot_reference import to_dot_by_lines
from star_reference import (
    EXTRA_RELATION,
    SameStarError,
    commutation_predicate,
    gain_relation,
    predicate_partners,
    predicate_relations,
    spans,
)
from test_random_trees import random_caterpillar


def decompositions(*fixtures):
    return [trees.decompose(t) for t in fixtures]


def generator_pairs(p):
    return [(p.generators[i], p.generators[j]) for i, j in p.relations]


class TestAssemble:
    def test_interval_always_empty(self, interval):
        d = trees.decompose(interval)
        for n in range(6):
            p = assemble(d, n)
            assert not p.generators and not p.relations

    def test_htree_counts_by_level(self, htree):
        d = trees.decompose(htree)
        got = [(len(assemble(d, n).generators), len(assemble(d, n).relations)) for n in range(5)]
        assert got == [(0, 0), (0, 0), (2, 0), (6, 0), (12, 1)]

    def test_htree_n4_relation_is_the_known_pair(self, htree):
        d = trees.decompose(htree)
        p = assemble(d, 4)
        assert generator_pairs(p) == [
            (Generator(1, (0, 3, 1), 2), Generator(2, (2, 1, 1), 2))
        ]

    def test_caterpillar_n4(self, caterpillar3):
        d = trees.decompose(caterpillar3)
        p = assemble(d, 4)
        assert len(p.generators) == 18
        assert len(p.relations) == 3
        assert {(g.star, h.star) for g, h in generator_pairs(p)} == {(1, 2), (1, 3), (2, 3)}

    def test_generator_count_additivity(self, tripod, htree, caterpillar3, star4):
        for d in decompositions(tripod, htree, caterpillar3, star4):
            for n in range(7):
                p = assemble(d, n)
                expect = sum(stars.rank(k, n) for k in d)
                assert len(p.generators) == expect

    def test_generators_come_out_sorted(self, interval, tripod, star4, htree,
                                        caterpillar3, caterpillar5):
        # assemble lists each star's basis as it comes, with no sort of its own
        rng = random.Random(20240)
        shapes = decompositions(interval, tripod, star4, htree, caterpillar3, caterpillar5)
        shapes += [trees.decompose(random_caterpillar(rng)) for _ in range(25)]
        for d in shapes:
            for n in range(7):
                gens = assemble(d, n).generators
                assert gens == tuple(sorted(gens)), (d, n)

    def test_relations_join_distinct_stars(self, caterpillar3):
        d = trees.decompose(caterpillar3)
        for n in range(7):
            for g, h in generator_pairs(assemble(d, n)):
                assert g.star != h.star

    @pytest.mark.parametrize("parts", [2, 3])
    def test_unchanged_by_subdivision(self, htree, caterpillar5, parts):
        # subdividing keeps every hub's degree and the hubs' trunk order,
        # so the presentation cannot change
        for tree in (htree, caterpillar5):
            fine = trees.subdivide_edges(tree, parts)
            for n in range(6):
                assert assemble(trees.decompose(fine), n) == assemble(trees.decompose(tree), n)

    def test_negative_n_rejected(self, tripod):
        with pytest.raises(ValueError):
            assemble(trees.decompose(tripod), -1)

    def test_broken_shift_is_caught(self, htree, monkeypatch):
        # a shifted edge that is not a level-n generator is a bug, and must
        # surface as NaturalityError rather than a KeyError
        monkeypatch.setattr(pres, "add_strand", lambda edge, arm, times=1: edge)
        with pytest.raises(NaturalityError, match="not a generator at level 4"):
            assemble(trees.decompose(htree), 4)


class TestPartnerRows:
    def test_rows_are_shared_suffix_ranges(self, caterpillar5):
        # one range per later star, ending where that star's block ends,
        # and one row per star and largest arm-2 split
        d = trees.decompose(caterpillar5)
        for n in range(10):
            p = assemble(d, n)
            stop = {g.star: i + 1 for i, g in enumerate(p.generators)}
            for g, row in zip(p.generators, p.partners):
                assert [r.stop for r in row] == [stop[s] for s in range(g.star + 1, len(d) + 1)]
                assert all(r.step == 1 for r in row)
            assert len(set(map(id, p.partners))) <= len(d) * max(n, 1)
            assert relation_count(p) == len(p.relations)

    def test_shift_that_breaks_a_suffix_is_caught(self, monkeypatch):
        # every arm-1 image is still a generator, and as many as before,
        # but one strand lands on arm 2
        def misplaced(edge, arm, times=1):
            if arm == 1 and times >= 1:
                a = edge[0]
                return (a[0] + times - 1, a[1] + 1, *a[2:]), edge[1]
            return stars.add_strand(edge, arm, times)

        monkeypatch.setattr(pres, "add_strand", misplaced)
        with pytest.raises(NaturalityError, match="along arm 1 are not a suffix at level 6"):
            assemble((4, 4, 3, 5, 3), 6)

    def test_assemble_holds_ranges_not_pairs(self):
        d = (4, 4, 3, 5, 3)
        assemble(d, 14)     # the star bases are cached first: only the result counts
        tracemalloc.start()
        try:
            p = assemble(d, 14)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert relation_count(p) == 507_650
        assert held < 4_000_000, held
        assert peak < 4_000_000, peak


def assert_partners_are_suffixes(p):
    """Each generator's partners on each later star are a contiguous suffix
    of that star's block of generators."""
    stop = {g.star: i + 1 for i, g in enumerate(p.generators)}
    for (g, star), hs in groupby(p.relations, lambda r: (r[0], p.generators[r[1]].star)):
        hs = [h for _, h in hs]
        assert star > p.generators[g].star
        assert hs == list(range(stop[star] - len(hs), stop[star])), (p.n, g, star)


class TestSuffixPartners:
    @pytest.mark.parametrize("n", range(9))
    def test_fixtures(self, tripod, star4, htree, caterpillar3, caterpillar5, n):
        for d in decompositions(tripod, star4, htree, caterpillar3, caterpillar5):
            assert_partners_are_suffixes(assemble(d, n))

    def test_random_caterpillars(self):
        rng = random.Random(7)
        for _ in range(40):
            d = tuple(rng.randint(3, 6) for _ in range(rng.randint(2, 4)))
            for n in range(9):
                assert_partners_are_suffixes(assemble(d, n))


class TestPredicate:
    def test_known_pairs_htree_n4(self):
        g = Generator(1, (0, 3, 1), 2)
        h = Generator(2, (2, 1, 1), 2)
        assert commutation_predicate(g, h, 4)
        assert commutation_predicate(h, g, 4)   # symmetric in its arguments
        g2 = Generator(1, (1, 2, 1), 2)
        assert not commutation_predicate(g2, h, 4)

    def test_htree_n3_all_false(self, htree):
        d = trees.decompose(htree)
        p = assemble(d, 3)
        gens = p.generators
        assert not any(
            commutation_predicate(g, h, 3)
            for i, g in enumerate(gens)
            for h in gens[i + 1:]
            if g.star != h.star
        )

    def test_same_star_rejected(self):
        g = Generator(1, (0, 1, 1), 2)
        h = Generator(1, (0, 2, 1), 2)
        with pytest.raises(SameStarError):
            commutation_predicate(g, h, 3)

    def test_equals_assembled_relations(self, tripod, htree, caterpillar3, star4, interval):
        # the closed form and the iterated-image sweep must agree exactly
        for d in decompositions(tripod, htree, caterpillar3, star4, interval):
            for n in range(7):
                p = assemble(d, n)
                assert p.relations == predicate_relations(p, n), (d, n)

    def test_equals_assembled_relations_mixed_arm_counts(self):
        # a degree-4 hub glued to a degree-3 hub
        from conftest import tree_from_edges

        mixed = tree_from_edges(
            [("p", "u"), ("a1", "u"), ("a2", "u"), ("u", "v"), ("v", "b"), ("v", "c")],
            "p",
        )
        d = trees.decompose(mixed)
        assert d == (4, 3)
        for n in range(7):
            p = assemble(d, n)
            assert p.relations == predicate_relations(p, n)
            assert len(p.generators) == stars.rank(4, n) + stars.rank(3, n)
        for n in range(1, 7):
            stabilize(assemble(d, n - 1), assemble(d, n))


# (arm counts, top level): one to five hubs of 3 to 6 arms
SHAPES = [((3,), 11), ((4,), 11), ((3, 3), 11), ((3, 3, 3), 11), ((5, 3, 4), 11),
          ((3, 6), 11), ((6, 3, 3, 4), 11), ((4, 4, 3, 5, 3), 9)]


class TestRangeForm:
    """The predicate as one bisect per (generator, later star), against the
    pairwise predicate and against assemble's partner ranges."""

    def test_equals_pairwise_predicate(self):
        # the pairwise predicate is quadratic: 2-4 hubs of 3 or 4 arms keep
        # n <= 8 under a second, and SHAPES reach 5 and 6 arms
        rng = random.Random(3101)
        for _ in range(10):
            d = tuple(rng.randint(3, 4) for _ in range(rng.randint(2, 4)))
            for n in range(9):
                p = assemble(d, n)
                ranges = p._replace(partners=predicate_partners(p))
                assert ranges.relations == predicate_relations(p, n), (d, n)

    @pytest.mark.parametrize("d,top", SHAPES)
    def test_equals_assembled_partners(self, d, top):
        for n in range(top + 1):
            p = assemble(d, n)
            assert spans(predicate_partners(p)) == spans(p.partners), (d, n)

    @pytest.mark.parametrize("off", [-1, 1])
    def test_wrong_capacity_is_seen(self, monkeypatch, off):
        real = star_reference.capacity
        monkeypatch.setattr(star_reference, "capacity", lambda edge, arm: real(edge, arm) + off)
        p = assemble((4, 4, 3, 5, 3), 6)
        assert spans(predicate_partners(p)) != spans(p.partners)


class TestStabilize:
    def test_htree_level2_to_3(self, htree):
        d = trees.decompose(htree)
        source, target = assemble(d, 2), assemble(d, 3)
        mapping = stabilize(source, target)
        assert len(mapping) == 2
        for i, j in enumerate(mapping):
            src, dst = source.generators[i], target.generators[j]
            assert dst.a[0] == src.a[0] + 1
            assert dst.a[1:] == src.a[1:]

    def test_tripod_level3_to_4(self, tripod):
        d = trees.decompose(tripod)
        source, target = assemble(d, 3), assemble(d, 4)
        mapping = stabilize(source, target)
        assert len(source.generators) == 3
        assert len(target.generators) == 6
        assert set(mapping) <= set(range(len(target.generators)))

    def test_interval_chain_is_empty(self, interval):
        d = trees.decompose(interval)
        for n in range(1, 6):
            assert stabilize(assemble(d, n - 1), assemble(d, n)) == ()

    def test_full_chains(self, tripod, htree, caterpillar3, star4, interval):
        for d in decompositions(tripod, htree, caterpillar3, star4, interval):
            for n in range(1, 7):
                # raises NaturalityError on any failure
                source = assemble(d, n - 1)
                assert len(stabilize(source, assemble(d, n))) == len(source.generators)

    def test_relation_monotonicity(self, htree, caterpillar3):
        for d in decompositions(htree, caterpillar3):
            for n in range(1, 7):
                source, target = assemble(d, n - 1), assemble(d, n)
                stabilize(source, target)
                assert len(source.relations) <= len(target.relations)

    def test_rejects_non_consecutive_levels(self, htree):
        d = trees.decompose(htree)
        with pytest.raises(ValueError):
            stabilize(assemble(d, 1), assemble(d, 3))

    def test_broken_shift_is_caught(self, htree, monkeypatch):
        # sabotage the strand-addition map: validation must notice
        d = trees.decompose(htree)
        source, target = assemble(d, 3), assemble(d, 4)

        def wrong_shift(edge, arm):
            return edge   # forgets to add the strand

        monkeypatch.setattr(pres, "add_strand", wrong_shift)
        with pytest.raises(NaturalityError, match="generator images escape level 4"):
            stabilize(source, target)

    def test_missing_relation_image_is_caught(self, htree):
        d = trees.decompose(htree)
        source, target = assemble(d, 4), assemble(d, 5)
        assert source.relations
        empty = tuple(tuple(range(r.stop, r.stop) for r in row) for row in target.partners)
        dropped = Presentation(n=5, generators=target.generators, partners=empty)
        assert not dropped.relations
        with pytest.raises(NaturalityError, match="relation image .* missing at level 5"):
            stabilize(source, dropped)

    def test_extra_relation_image_is_caught(self, htree):
        # relations mapping into relations is not enough: the images must
        # span a full subgraph, so a relation among them needs a preimage
        d = trees.decompose(htree)
        source, target = assemble(d, 4), assemble(d, 5)
        g, h = EXTRA_RELATION
        gained = gain_relation(target, g, h)
        assert len(gained.relations) == len(target.relations) + 1
        with pytest.raises(NaturalityError, match=r"relation \[Generator\(star=1, a=\(1, 1, 3\), p=2\),"
                           r" Generator\(star=2, a=\(3, 1, 1\), p=2\)\] at level 5"
                           r" has no preimage at level 4"):
            stabilize(source, gained)

    def test_swapped_images_are_caught(self, htree):
        # two images on one star trade places: every image is still a
        # generator, but the mapping no longer keeps the (star, a, p) order
        d = trees.decompose(htree)
        source, target = assemble(d, 4), assemble(d, 5)
        gens = list(target.generators)
        i, j = [i for i, g in enumerate(gens) if g.star == 1 and g.a[0] >= 1][:2]
        gens[i], gens[j] = gens[j], gens[i]
        with pytest.raises(NaturalityError, match="generator images out of order at level 5"):
            stabilize(source, target._replace(generators=tuple(gens)))


def sliced(top: Presentation, m: int):
    """Level m read off level top.n: the generators with a[0] >= top.n - m,
    with that taken off a[0], and their partner ranges renumbered to the
    kept indices below each bound."""
    t = top.n - m
    keep = [i for i, g in enumerate(top.generators) if g.a[0] >= t]
    generators = tuple(Generator(g.star, (g.a[0] - t, *g.a[1:]), g.p)
                       for g in map(top.generators.__getitem__, keep))
    partners = tuple(tuple(range(bisect_left(keep, r.start), bisect_left(keep, r.stop))
                           for r in top.partners[i]) for i in keep)
    return generators, partners


class TestSlices:
    """Every level is a slice of every level above it: level m is the
    subgraph of level N induced on the generators with a[0] >= N - m, which
    is what makes each strand-addition map injective on the groups."""

    def test_random_caterpillars(self):
        rng = random.Random(3201)
        for _ in range(15):
            d = trees.decompose(random_caterpillar(rng))
            levels = [assemble(d, n) for n in range(9)]
            for top in levels:
                for m in range(top.n + 1):
                    generators, partners = sliced(top, m)
                    assert generators == levels[m].generators, (d, top.n, m)
                    assert spans(partners) == spans(levels[m].partners), (d, top.n, m)

    def test_a_slice_sees_an_extra_relation(self, htree):
        d = trees.decompose(htree)
        top = gain_relation(assemble(d, 5), *EXTRA_RELATION)
        assert spans(sliced(top, 4)[1]) != spans(assemble(d, 4).partners)


class TestExport:
    def test_json_schema(self, htree):
        d = trees.decompose(htree)
        p = assemble(d, 4)
        data = json.loads(to_json(p))
        assert data["n"] == 4
        assert len(data["generators"]) == 12
        assert data["relations"] == [[2, 11]]
        g = data["generators"][0]
        assert set(g) == {"star", "a", "p"}
        # indices refer to the sorted generator list
        lo = data["generators"][2]
        hi = data["generators"][11]
        assert (lo["star"], tuple(lo["a"]), lo["p"]) == (1, (0, 3, 1), 2)
        assert (hi["star"], tuple(hi["a"]), hi["p"]) == (2, (2, 1, 1), 2)

    def test_json_bytes_match_json_dumps(self, interval, tripod, star4, htree,
                                         caterpillar3, caterpillar5):
        # the template must give json.dumps(indent=2)'s bytes, empty lists
        # (the interval, n = 0, no relations) included
        rng = random.Random(20240)
        arm_counts = decompositions(interval, tripod, star4, htree, caterpillar3, caterpillar5)
        arm_counts += [trees.decompose(random_caterpillar(rng)) for _ in range(25)]
        presentations = [assemble(d, n) for d in arm_counts for n in range(7)]
        presentations.append(Presentation(3, (
            Generator(1, (0, 2, 1), 2),
            Generator(2, (1, 1, 1), 2),
        ), ()))
        for p in presentations:
            fields = {
                "n": p.n,
                "generators": [{"star": g.star, "a": list(g.a), "p": g.p}
                               for g in p.generators],
                "relations": [[i, j] for i, j in p.relations],
            }
            text = to_json(p)
            assert text == json.dumps(fields, indent=2) + "\n"
            assert json.loads(text) == fields
        assert any(not p.generators for p in presentations)
        assert any(p.generators and not p.relations for p in presentations)

    def test_dot_bytes_match_the_line_by_line_writer(self, interval, tripod, star4, htree,
                                                      caterpillar3, caterpillar5):
        # the presentations test_json_bytes_match_json_dumps writes: empty
        # lists, runs of one arm count across stars, a hand-made presentation
        rng = random.Random(20240)
        arm_counts = decompositions(interval, tripod, star4, htree, caterpillar3, caterpillar5)
        arm_counts += [trees.decompose(random_caterpillar(rng)) for _ in range(25)]
        presentations = [assemble(d, n) for d in arm_counts for n in range(7)]
        presentations.append(Presentation(3, (
            Generator(1, (0, 2, 1), 2),
            Generator(2, (1, 1, 1), 2),
        ), ()))
        for p in presentations:
            assert to_dot(p) == to_dot_by_lines(p)

        def spans_stars(p):
            # one arm count on both sides of a star boundary
            return any(g.star != h.star and len(g.a) == len(h.a)
                       for g, h in zip(p.generators, p.generators[1:]))

        assert any(map(spans_stars, presentations))

    def test_generator_objects_are_the_record_fields(self):
        # a Generator is its JSON object: the same keys, in the same order
        p = assemble((4, 4, 3, 5, 3), 6)
        written = json.loads(to_json(p))["generators"]
        assert len(written) == len(p.generators) > 0
        for g, obj in zip(p.generators, written):
            assert tuple(obj) == Generator._fields
            assert tuple(obj.values()) == (g.star, list(g.a), g.p)

    def test_dot_htree_n4(self, htree):
        d = trees.decompose(htree)
        text = to_dot(assemble(d, 4))
        assert text.count("[label=") == 12
        assert text.count(" -- ") == 1

    def test_dot_tripod_n3(self, tripod):
        d = trees.decompose(tripod)
        text = to_dot(assemble(d, 3))
        assert text.count("[label=") == 3
        assert " -- " not in text

    def test_dot_interval_empty(self, interval):
        d = trees.decompose(interval)
        text = to_dot(assemble(d, 5))
        assert "[label=" not in text and " -- " not in text

    @pytest.mark.parametrize("export", [to_json, to_dot])
    def test_export_peaks_near_its_text(self, export):
        # one join over the pieces: the text and its pieces, no further
        # joined or concatenated copy
        p = assemble((4, 4, 3, 5, 3), 14)
        tracemalloc.start()
        try:
            text = export(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 9_000_000
        assert peak < 2.5 * len(text), peak / len(text)

    def test_deterministic(self, caterpillar3):
        d = trees.decompose(caterpillar3)
        assert to_json(assemble(d, 4)) == to_json(assemble(d, 4))
        assert to_dot(assemble(d, 4)) == to_dot(assemble(d, 4))

    def test_relation_order_is_generator_order(self, caterpillar5):
        # the index pairs are sorted as ints; they must list the relations
        # in the order that comparing the generators themselves gives
        p = assemble(trees.decompose(caterpillar5), 5)
        assert list(p.generators) == sorted(p.generators)
        pairs = generator_pairs(p)
        by_generators = sorted(tuple(sorted(pair)) for pair in pairs)
        assert len(by_generators) > 100
        assert pairs == by_generators
