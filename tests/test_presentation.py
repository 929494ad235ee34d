import json

import pytest

from treebraid import presentation as pres
from treebraid import stars, trees
from treebraid.presentation import (
    Generator,
    NaturalityError,
    SameStarError,
    assemble,
    commutation_predicate,
    export,
    predicate_relations,
    stabilize,
    to_dot,
    to_json,
)
from treebraid.stars import StarEdge


def decompositions(*fixtures):
    return [trees.decompose(t) for t in fixtures]


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
        assert p.sorted_relations() == [
            (Generator(1, StarEdge((0, 3, 1), 2)), Generator(2, StarEdge((2, 1, 1), 2)))
        ]

    def test_caterpillar_n4(self, caterpillar3):
        d = trees.decompose(caterpillar3)
        p = assemble(d, 4)
        assert len(p.generators) == 18
        assert len(p.relations) == 3
        assert {(g.star, h.star) for g, h in p.sorted_relations()} == {(1, 2), (1, 3), (2, 3)}

    def test_generator_count_additivity(self, tripod, htree, caterpillar3, star4):
        for d in decompositions(tripod, htree, caterpillar3, star4):
            for n in range(7):
                p = assemble(d, n)
                expect = sum(stars.rank(k, n) for k in d.arm_counts())
                assert len(p.generators) == expect

    def test_relations_join_distinct_stars(self, caterpillar3):
        d = trees.decompose(caterpillar3)
        for n in range(7):
            for g, h in assemble(d, n).sorted_relations():
                assert g.star != h.star

    def test_negative_n_rejected(self, tripod):
        with pytest.raises(ValueError):
            assemble(trees.decompose(tripod), -1)


class TestPredicate:
    def test_known_pairs_htree_n4(self):
        g = Generator(1, StarEdge((0, 3, 1), 2))
        h = Generator(2, StarEdge((2, 1, 1), 2))
        assert commutation_predicate(g, h, 4)
        assert commutation_predicate(h, g, 4)   # symmetric in its arguments
        g2 = Generator(1, StarEdge((1, 2, 1), 2))
        assert not commutation_predicate(g2, h, 4)

    def test_htree_n3_all_false(self, htree):
        d = trees.decompose(htree)
        p = assemble(d, 3)
        gens = p.sorted_generators()
        assert not any(
            commutation_predicate(g, h, 3)
            for i, g in enumerate(gens)
            for h in gens[i + 1:]
            if g.star != h.star
        )

    def test_same_star_rejected(self):
        g = Generator(1, StarEdge((0, 1, 1), 2))
        h = Generator(1, StarEdge((0, 2, 1), 2))
        with pytest.raises(SameStarError):
            commutation_predicate(g, h, 3)

    def test_equals_assembled_relations(self, tripod, htree, caterpillar3, star4, interval):
        # the closed form and the iterated-image sweep must agree exactly
        for d in decompositions(tripod, htree, caterpillar3, star4, interval):
            for n in range(7):
                p = assemble(d, n)
                assert p.relations == predicate_relations(p, n), (d.arm_counts(), n)

    def test_equals_assembled_relations_mixed_arm_counts(self):
        # a degree-4 hub glued to a degree-3 hub
        from conftest import tree_from_edges

        mixed = tree_from_edges(
            [("p", "u"), ("a1", "u"), ("a2", "u"), ("u", "v"), ("v", "b"), ("v", "c")],
            "p",
        )
        d = trees.decompose(mixed)
        assert d.arm_counts() == (4, 3)
        for n in range(7):
            p = assemble(d, n)
            assert p.relations == predicate_relations(p, n)
            assert len(p.generators) == stars.rank(4, n) + stars.rank(3, n)
        for n in range(1, 7):
            stabilize(assemble(d, n - 1), assemble(d, n))


class TestStabilize:
    def test_htree_level2_to_3(self, htree):
        d = trees.decompose(htree)
        step = stabilize(assemble(d, 2), assemble(d, 3))
        assert len(step.mapping) == 2
        for src, dst in step.mapping.items():
            assert dst.edge.a[0] == src.edge.a[0] + 1
            assert dst.edge.a[1:] == src.edge.a[1:]

    def test_tripod_level3_to_4(self, tripod):
        d = trees.decompose(tripod)
        step = stabilize(assemble(d, 3), assemble(d, 4))
        assert len(step.source.generators) == 3
        assert len(step.target.generators) == 6
        assert set(step.mapping.values()) <= step.target.generators

    def test_interval_chain_is_empty(self, interval):
        d = trees.decompose(interval)
        for n in range(1, 6):
            assert stabilize(assemble(d, n - 1), assemble(d, n)).mapping == {}

    def test_full_chains(self, tripod, htree, caterpillar3, star4, interval):
        for d in decompositions(tripod, htree, caterpillar3, star4, interval):
            for n in range(1, 7):
                # raises NaturalityError on any failure
                step = stabilize(assemble(d, n - 1), assemble(d, n))
                assert len(step.mapping) == len(step.source.generators)

    def test_relation_monotonicity(self, htree, caterpillar3):
        for d in decompositions(htree, caterpillar3):
            for n in range(1, 7):
                step = stabilize(assemble(d, n - 1), assemble(d, n))
                assert len(step.source.relations) <= len(step.target.relations)

    def test_rejects_non_consecutive_levels(self, htree):
        d = trees.decompose(htree)
        with pytest.raises(ValueError):
            stabilize(assemble(d, 1), assemble(d, 3))

    def test_broken_shift_is_caught(self, htree, monkeypatch):
        # sabotage the strand-addition map: validation must notice
        d = trees.decompose(htree)

        def wrong_shift(edge, arm):
            return edge   # forgets to add the strand

        monkeypatch.setattr(pres, "add_strand", wrong_shift)
        with pytest.raises(NaturalityError):
            stabilize(assemble(d, 3), assemble(d, 4))


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

    def test_unknown_format(self, tripod):
        d = trees.decompose(tripod)
        with pytest.raises(ValueError, match="unknown format"):
            export(assemble(d, 2), "xml")

    def test_deterministic(self, caterpillar3):
        d = trees.decompose(caterpillar3)
        assert to_json(assemble(d, 4)) == to_json(assemble(d, 4))
        assert to_dot(assemble(d, 4)) == to_dot(assemble(d, 4))

    def test_relation_order_is_generator_order(self, caterpillar5):
        # the index pairs are sorted as ints; they must list the relations
        # in the order that comparing the generators themselves gives
        p = assemble(trees.decompose(caterpillar5), 5)
        by_generators = sorted(tuple(sorted(pair)) for pair in p.relations)
        assert len(by_generators) > 100
        assert p.sorted_relations() == by_generators
