import json

import pytest

from treebraid.trees import (
    InvalidTreeError,
    NotLinearError,
    ParseError,
    decompose,
    parse_tree,
    subdivide_edges,
    validate_linear,
)

from conftest import tree_from_edges


class TestParse:
    def test_json_path(self):
        t = parse_tree(json.dumps(
            {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], "endpoint": "a"}
        ))
        assert t.vertices == ("a", "b", "c")
        assert t.edges == (("a", "b"), ("b", "c"))
        assert t.endpoint == "a"

    def test_json_tripod(self):
        t = parse_tree(json.dumps(
            {
                "vertices": ["v", "x", "y", "z"],
                "edges": [["v", "x"], ["v", "y"], ["v", "z"]],
                "endpoint": "x",
            }
        ))
        assert t.degree("v") == 3

    def test_text_matches_json(self):
        text = "endpoint a\na b\nb c\n"
        as_json = json.dumps(
            {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], "endpoint": "a"}
        )
        assert parse_tree(text) == parse_tree(as_json)

    def test_text_comments_and_blanks(self):
        t = parse_tree("# a path\nendpoint a\n\na b  # first\nb c\n")
        assert t.edges == (("a", "b"), ("b", "c"))

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_tree('{"vertices": ["a", "b"], "edges": [["a", "a"], ["a", "b"]], "endpoint": "b"}')

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_tree("endpoint a\na b\nb a\n")

    def test_cycle_rejected(self):
        with pytest.raises(InvalidTreeError, match="not a tree"):
            parse_tree("endpoint d\na b\nb c\nc a\na d\n")

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidTreeError, match="not a tree"):
            parse_tree(
                '{"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]],'
                ' "endpoint": "a"}'
            )

    def test_marked_vertex_must_be_endpoint(self):
        with pytest.raises(InvalidTreeError, match="not an endpoint"):
            parse_tree("endpoint b\na b\nb c\n")

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_tree('{"vertices": ["a", "b"], "edges": [["a", "z"]], "endpoint": "a"}')

    def test_missing_json_field(self):
        with pytest.raises(ParseError, match="endpoint"):
            parse_tree('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')

    def test_bad_first_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_tree("a b\n")

    def test_integer_ids_coerced(self):
        t = parse_tree('{"vertices": [1, 2], "edges": [[1, 2]], "endpoint": 1}')
        assert t.vertices == ("1", "2")


class TestValidateLinear:
    def test_tripod_spine(self, tripod):
        spine = validate_linear(tripod)
        assert spine[0] == "x" and "v" in spine and len(spine) == 3

    def test_htree_spine_covers_both_hubs(self, htree):
        spine = validate_linear(htree)
        assert spine[0] == "p"
        assert {"u", "v"} <= set(spine)
        # exhaustive check: spine is a real path in the tree
        for x, y in zip(spine, spine[1:]):
            assert y in htree.neighbors(x)

    def test_spider_not_linear(self, spider):
        with pytest.raises(NotLinearError) as exc:
            validate_linear(spider)
        assert exc.value.offending   # names the stranded hubs

    def test_spider_no_covering_path_exhaustive(self, spider):
        # independent confirmation: no leaf-to-leaf path covers all hubs
        hubs = set(spider.branch_vertices())
        leaves = spider.leaves()

        def path(a, b):
            parent = {a: None}
            stack = [a]
            while stack:
                x = stack.pop()
                for y in spider.neighbors(x):
                    if y not in parent:
                        parent[y] = x
                        stack.append(y)
            out = [b]
            while parent[out[-1]] is not None:
                out.append(parent[out[-1]])
            return out

        assert not any(
            hubs <= set(path(a, b)) for a in leaves for b in leaves if a != b
        )

    def test_middle_marked_endpoint_rejected(self, caterpillar3):
        # the tree is linear, but not from a leaf hanging off the middle hub
        shifted = tree_from_edges(list(caterpillar3.edges), "b")
        with pytest.raises(NotLinearError):
            validate_linear(shifted)

    def test_interval_spine(self, interval):
        assert validate_linear(interval) == ("p", "m", "q")

    def test_stable_under_subdivision(self, htree, spider):
        assert validate_linear(subdivide_edges(htree, 3))
        with pytest.raises(NotLinearError):
            validate_linear(subdivide_edges(spider, 3))


class TestDecompose:
    def test_interval_is_empty(self, interval):
        d = decompose(interval)
        assert d.is_interval and d.stars == () and d.glue_points == ()

    def test_tripod_single_star(self, tripod):
        d = decompose(tripod)
        assert len(d.stars) == 1
        star = d.stars[0]
        assert star.k == 3
        assert star.arm(1).endpoint == "x"      # toward the marked endpoint
        assert star.arm(2).endpoint == "y"      # lowest-id other leaf
        assert star.arm(3).endpoint == "z"

    def test_htree_two_stars(self, htree):
        d = decompose(htree)
        assert [s.k for s in d.stars] == [3, 3]
        assert len(d.glue_points) == 1
        q = d.glue_points[0]
        # glue vertex was inserted on the hub-hub edge and ends both spine arms
        assert d.stars[0].arm(2).endpoint == q
        assert d.stars[1].arm(1).endpoint == q
        assert set(d.stars[0].vertex_set() & d.stars[1].vertex_set()) == {q}

    def test_htree_stars_cover_tree(self, htree):
        d = decompose(htree)
        union = set()
        for s in d.stars:
            union |= s.edge_set()
        assert union == set(d.tree.edges)

    def test_caterpillar_chain(self, caterpillar3):
        d = decompose(caterpillar3)
        assert [s.k for s in d.stars] == [3, 3, 3]
        for i in range(len(d.stars) - 1):
            q = d.glue_points[i]
            assert d.stars[i].arm(2).endpoint == q
            assert d.stars[i + 1].arm(1).endpoint == q
            shared = d.stars[i].vertex_set() & d.stars[i + 1].vertex_set()
            assert shared == {q}

    def test_every_hub_in_exactly_one_star(self, caterpillar3):
        d = decompose(caterpillar3)
        hubs = d.tree.branch_vertices()
        owners = {h: [i for i, s in enumerate(d.stars) if s.node == h] for h in hubs}
        assert all(len(v) == 1 for v in owners.values())

    def test_arm_counts_equal_degrees(self, htree, caterpillar3, star4):
        for tree in (htree, caterpillar3, star4):
            d = decompose(tree)
            for s in d.stars:
                assert s.k == d.tree.degree(s.node)

    def test_glue_without_insertion_when_hubs_far_apart(self):
        t = tree_from_edges(
            [("p", "u"), ("a", "u"), ("u", "m"), ("m", "v"), ("v", "b"), ("v", "c")], "p"
        )
        d = decompose(t)
        assert d.glue_points == ("m",)
        assert set(d.tree.vertices) == set(t.vertices)   # nothing inserted

    def test_spider_propagates_not_linear(self, spider):
        with pytest.raises(NotLinearError):
            decompose(spider)


class TestSubdivide:
    def test_single_edge(self):
        t = tree_from_edges([("a", "b")], "a")
        fine = subdivide_edges(t, 3)
        assert len(fine.edges) == 3 and len(fine.vertices) == 4

    def test_tripod_counts(self, tripod):
        fine = subdivide_edges(tripod, 3)
        assert len(fine.edges) == 9 and len(fine.vertices) == 10

    def test_htree_counts(self, htree):
        fine = subdivide_edges(htree, 5)
        assert len(fine.edges) == 25 and len(fine.vertices) == 26

    def test_originals_preserved_and_deterministic(self, htree):
        fine1 = subdivide_edges(htree, 4)
        fine2 = subdivide_edges(htree, 4)
        assert fine1 == fine2
        assert set(htree.vertices) <= set(fine1.vertices)

    def test_degree_sequence_of_essential_vertices_unchanged(self, htree, star4):
        for tree in (htree, star4):
            fine = subdivide_edges(tree, 4)
            before = sorted(tree.degree(v) for v in tree.vertices if tree.degree(v) != 2)
            after = sorted(fine.degree(v) for v in fine.vertices if fine.degree(v) != 2)
            assert before == after

    def test_rejects_zero_strands(self, tripod):
        # zero pieces per edge
        with pytest.raises(ValueError):
            subdivide_edges(tripod, 0)

    def test_names_avoid_ids_already_in_the_tree(self):
        t = tree_from_edges([("p", "u"), ("u", "p:u:1"), ("u", "a")], "p")
        fine = subdivide_edges(t, 3)
        assert len(fine.vertices) == 4 + 3 * 2
        assert fine.neighbors("p") == ("p:u:1'",)
        assert fine.neighbors("p:u:1'") == ("p", "p:u:2")
        # names that collide with nothing are the plain "u:w:i"
        assert {"a:u:1", "a:u:2", "p:u:1:u:1", "p:u:1:u:2"} <= set(fine.vertices)


class TestDecomposeReassemble:
    def test_union_and_overlap_all_trees(self, tripod, htree, caterpillar3, star4):
        for tree in (tripod, htree, caterpillar3, star4):
            d = decompose(tree)
            union = set()
            for s in d.stars:
                union |= s.edge_set()
            assert union == set(d.tree.edges)
            for i in range(len(d.stars) - 1):
                shared = d.stars[i].vertex_set() & d.stars[i + 1].vertex_set()
                assert len(shared) == 1
