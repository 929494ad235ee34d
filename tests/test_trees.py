import json
import random

import pytest

from treebraid.trees import (
    InvalidTreeError,
    NotLinearError,
    ParseError,
    decompose,
    load_tree,
    make_tree,
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

    def test_disconnected_with_a_cycle_rejected(self):
        # four vertices and three edges pass the edge count; the cycle a-b-c
        # leaves d apart
        with pytest.raises(InvalidTreeError, match="not a tree: graph is disconnected"):
            parse_tree("endpoint d\na b\nb c\nc a\n")

    def test_only_comments_and_blanks_rejected(self):
        with pytest.raises(ParseError, match="empty input: first line must be 'endpoint <id>'"):
            parse_tree("# nothing here\n\n   \n# endpoint p\n")

    @pytest.mark.parametrize("text", [
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], "endpoint": "a"}',
        "endpoint a\na b\nb c\n",
    ], ids=["json", "text"])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_tree(marked) == load_tree(plain) == parse_tree(text)

    def test_integer_ids_coerced(self):
        t = parse_tree('{"vertices": [1, 2], "edges": [[1, 2]], "endpoint": 1}')
        assert t.vertices == ("1", "2")


class TestValidateLinear:
    def test_tripod_spine(self, tripod):
        # the trunk stops at the hub: nothing past the last hub is read
        assert validate_linear(tripod) == ("x", "v")

    def test_htree_spine_covers_both_hubs(self, htree):
        trunk = validate_linear(htree)
        assert trunk[0] == "p"
        assert {"u", "v"} <= set(trunk)
        # exhaustive check: the trunk is a real path in the tree
        for x, y in zip(trunk, trunk[1:]):
            assert y in htree.neighbors(x)

    def test_spider_not_linear(self, spider):
        with pytest.raises(NotLinearError) as exc:
            validate_linear(spider)
        assert exc.value.offending   # names the stranded hubs

    def test_spider_no_covering_path_exhaustive(self, spider):
        # independent confirmation: no leaf-to-leaf path covers all hubs
        hubs = set(spider.branch_vertices())
        leaves = [v for v in spider.vertices if spider.degree(v) == 1]

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
        # no branch vertex, so no trunk: the interval is linear with no stars
        assert validate_linear(interval) == ()

    def test_stable_under_subdivision(self, htree, spider):
        assert validate_linear(subdivide_edges(htree, 3))
        with pytest.raises(NotLinearError):
            validate_linear(subdivide_edges(spider, 3))


def random_tree(rng):
    """A random tree of 2..14 vertices whose ids are unrelated to its shape,
    marked at a random leaf."""
    size = rng.randint(2, 14)
    names = [f"v{i}" for i in rng.sample(range(100), size)]
    edges = [(names[i], names[rng.randrange(i)]) for i in range(1, size)]
    ends = [v for v in names if sum(v in e for e in edges) == 1]
    return make_tree(names, edges, rng.choice(ends))


def paths_from_endpoint(tree):
    """Each vertex's path from the marked endpoint, found depth first."""
    paths = {tree.endpoint: (tree.endpoint,)}
    stack = [tree.endpoint]
    while stack:
        v = stack.pop()
        for w in tree.neighbors(v):
            if w not in paths:
                paths[w] = paths[v] + (w,)
                stack.append(w)
    return paths


class TestTrunkAgainstBruteForce:
    def test_random_trees(self):
        rng = random.Random(411)
        seen = {"linear": 0, "not linear": 0, "tied": 0}
        for trial in range(3000):
            tree = random_tree(rng)
            paths = paths_from_endpoint(tree)
            hubs = {v for v in tree.vertices if tree.degree(v) >= 3}
            ends = [v for v in tree.vertices if tree.degree(v) == 1 and v != tree.endpoint]
            covering = [paths[v] for v in ends if hubs <= set(paths[v])]
            if covering:
                # linear: the trunk is that path cut after its last hub
                path = covering[0]
                last = max((i + 1 for i, v in enumerate(path) if v in hubs), default=0)
                assert validate_linear(tree) == path[:last], trial
                assert decompose(tree) == tuple(tree.degree(v) for v in path if v in hubs), trial
                seen["linear"] += 1
                continue
            # not linear: the hubs off the path to the farthest hub, the
            # larger id on a tie
            depth = max(len(paths[v]) for v in hubs)
            far = max(v for v in hubs if len(paths[v]) == depth)
            missed = tuple(sorted(hubs - set(paths[far])))
            with pytest.raises(NotLinearError) as exc:
                decompose(tree)
            assert exc.value.offending == missed, trial
            assert str(exc.value) == (
                "not linear: no path from the marked endpoint covers branch vertices "
                + ", ".join(map(repr, missed))
            ), trial
            seen["not linear"] += 1
            seen["tied"] += sum(len(paths[v]) == depth for v in hubs) > 1
        # every branch of the check is reached, ties included
        assert min(seen.values()) >= 50, seen


class TestDecompose:
    def test_interval_is_empty(self, interval):
        assert decompose(interval) == ()

    def test_tripod_single_star(self, tripod, star4):
        assert decompose(tripod) == (3,)
        assert decompose(star4) == (4,)

    def test_htree_two_stars(self, htree):
        assert decompose(htree) == (3, 3)

    def test_caterpillar_chain(self, caterpillar3, caterpillar5):
        assert decompose(caterpillar3) == (3, 3, 3)
        assert decompose(caterpillar5) == (4, 4, 3, 5, 3)

    def test_every_hub_in_exactly_one_star(self, caterpillar3, caterpillar5):
        for tree in (caterpillar3, caterpillar5):
            assert len(decompose(tree)) == len(tree.branch_vertices())

    def test_arm_counts_equal_degrees(self, tripod, star4, htree, caterpillar3, caterpillar5):
        for tree in (tripod, star4, htree, caterpillar3, caterpillar5):
            hubs = [v for v in validate_linear(tree) if tree.degree(v) >= 3]
            assert decompose(tree) == tuple(tree.degree(v) for v in hubs)

    def test_spine_order_not_id_order(self):
        # hubs "z" (degree 4) then "a" (degree 3) from the endpoint: the
        # counts follow the trunk, not the sorted ids
        t = tree_from_edges(
            [("p", "z"), ("z", "z1"), ("z", "z2"), ("z", "a"), ("a", "a1"), ("a", "a2")], "p"
        )
        assert decompose(t) == (4, 3)

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
