from math import comb

import pytest

from treebraid import cubes, presentation, trees
from treebraid.cubes import (
    CubeComplex,
    DisconnectedComplexError,
    ResourceCapError,
    betti,
    boundary_matrix,
    build_complex,
    cell_faces,
    check_boundary_squares_to_zero,
    dump_cells,
    layer_sizes,
    pi1_presentation,
    raag_clique_counts,
)
from treebraid.homology import rank_and_factors

from conftest import tree_from_edges


def path_tree(edges_count):
    labels = [str(i) for i in range(edges_count + 1)]
    return tree_from_edges(list(zip(labels, labels[1:])), "0")


class TestBuild:
    def test_path3_n2_counts(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        assert cx.cell_counts() == [6, 6, 1]
        # the single square is the two disjoint end edges
        (square,) = cx.cells[2]
        assert square == (((0, 1), (2, 3)), ())

    def test_zero_cells_are_all_vertex_subsets(self):
        t = path_tree(4)
        cx = build_complex(t, 2, d_max=1)
        assert len(cx.cells[0]) == comb(5, 2)

    def test_n1_complex_is_the_tree(self, tripod):
        cx = build_complex(tripod, 1, d_max=3)
        assert cx.cell_counts() == [4, 3, 0, 0]
        assert betti(cx).betti == (1, 0, 0)

    def test_n0_complex_is_a_point(self, tripod):
        cx = build_complex(tripod, 0, d_max=3)
        assert cx.cell_counts() == [1, 0, 0, 0]
        assert betti(cx).betti == (1, 0, 0)

    def test_faces_are_cells(self, htree):
        fine = trees.subdivide(htree, 2)
        cx = build_complex(fine, 2, d_max=2)
        for d in (1, 2):
            lower = set(cx.cells[d - 1])
            for cell in cx.cells[d]:
                for face, _ in cell_faces(cell):
                    assert face in lower

    def test_cells_sorted_and_deterministic(self, tripod):
        fine = trees.subdivide(tripod, 2)
        a = build_complex(fine, 2, d_max=3)
        b = build_complex(fine, 2, d_max=3)
        assert a.cells == b.cells
        for layer in a.cells:
            assert list(layer) == sorted(layer)

    def test_resource_cap(self, htree):
        fine = trees.subdivide(htree, 4)
        with pytest.raises(ResourceCapError):
            build_complex(fine, 4, cell_cap=1000)

    @pytest.mark.parametrize(
        "name", ["interval", "tripod", "star4", "htree", "caterpillar3"]
    )
    def test_layer_sizes_are_the_cell_counts(self, name, request):
        tree = request.getfixturevalue(name)
        for parts in (1, 2, 3):
            fine = trees.subdivide_edges(tree, parts)
            for n in range(4):
                cx = build_complex(fine, n, d_max=3)
                assert layer_sizes(fine, n, 3) == cx.cell_counts(), (parts, n)
        path = path_tree(6)
        for d_max in (1, 2, 3):
            assert layer_sizes(path, 3, d_max) == build_complex(path, 3, d_max).cell_counts()

    def test_cap_bounds_the_largest_layer(self, htree):
        # the 2-cells (5874) outnumber the 0- and 1-cells (1820, 5460)
        fine = trees.subdivide_edges(htree, 3)
        assert layer_sizes(fine, 4, 3) == [1820, 5460, 5874, 2680]
        with pytest.raises(ResourceCapError, match="5874") as info:
            build_complex(fine, 4, cell_cap=5873)
        assert (info.value.cells, info.value.cap) == (5874, 5873)
        assert build_complex(fine, 4, cell_cap=5874).cell_counts() == [1820, 5460, 5874, 2680]

    def test_too_many_strands(self):
        with pytest.raises(ValueError):
            build_complex(path_tree(1), 3)


class TestBoundary:
    def test_squares_to_zero_small(self, tripod, htree):
        for t, n in [(tripod, 2), (tripod, 3), (htree, 2)]:
            fine = trees.subdivide(t, n)
            cx = build_complex(fine, n, d_max=3)
            check_boundary_squares_to_zero(cx)

    def test_column_signs_sum_to_zero_in_dim1(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        m = boundary_matrix(cx, 1)
        for col in m.columns:
            assert sorted(sign for _, sign in col) == [-1, 1]

    def test_square_boundary_has_four_faces(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        m = boundary_matrix(cx, 2)
        (col,) = m.columns
        assert len(col) == 4
        assert sorted(sign for _, sign in col) == [-1, -1, 1, 1]

    def test_bad_dimension(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 3)

    def test_skip_leaves_out_columns(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        full = boundary_matrix(cx, 1)
        part = boundary_matrix(cx, 1, skip={0, 2})
        assert part.nrows == full.nrows
        assert part.columns == tuple(
            col for j, col in enumerate(full.columns) if j not in (0, 2)
        )


class TestBetti:
    def test_tripod_two_strands_is_a_circle(self, tripod):
        fine = trees.subdivide(tripod, 2)
        cx = build_complex(fine, 2, d_max=2)
        rep = betti(cx)
        assert rep.betti == (1, 1)
        assert not any(rep.torsion)

    def test_interval_contractible(self, interval):
        fine = trees.subdivide(interval, 3)
        cx = build_complex(fine, 3, d_max=3)
        rep = betti(cx)
        assert rep.betti == (1, 0, 0)

    def test_htree_two_strands(self, htree):
        fine = trees.subdivide(htree, 2)
        rep = betti(build_complex(fine, 2, d_max=3))
        assert rep.betti == (1, 2, 0)
        assert not any(rep.torsion)

    def test_report_json_shape(self, tripod):
        fine = trees.subdivide(tripod, 2)
        rep = betti(build_complex(fine, 2, d_max=2))
        assert rep.betti == (1, 1)
        assert rep.cell_counts == (45, 72, 27)


class TestClearing:
    @pytest.mark.parametrize("name,n,parts", [
        ("interval", 3, 2),
        ("tripod", 3, 2),
        ("star4", 3, 2),
        ("htree", 3, 2),
        ("htree", 4, 3),
        ("caterpillar3", 3, 2),
    ])
    def test_cleared_ranks_equal_full_ranks(self, name, n, parts, request, monkeypatch):
        tree = request.getfixturevalue(name)
        cx = build_complex(trees.subdivide_edges(tree, parts), n, d_max=3)
        skipped = {}
        real = cubes.boundary_matrix

        def recording(cx, d, skip=frozenset()):
            skipped[d] = len(skip)
            return real(cx, d, skip)

        monkeypatch.setattr(cubes, "boundary_matrix", recording)
        rep = betti(cx)
        assert skipped.get(3, 0) == 0 and skipped[1] > 0   # clearing did happen
        for d in range(1, 4):
            if not cx.cells[d]:
                continue
            r, factors = rank_and_factors(real(cx, d).to_sparse())
            assert rep.boundary_ranks[d - 1] == r, d
            assert rep.torsion[d - 1] == tuple(factors), d


class TestPi1:
    def test_tripod_rank_matches_b1(self, tripod):
        fine = trees.subdivide(tripod, 2)
        cx = build_complex(fine, 2, d_max=2)
        p = pi1_presentation(cx)
        assert p.abelianized_rank() == betti(cx).betti[1] == 1

    def test_interval_collapses(self, interval):
        fine = trees.subdivide(interval, 2)
        cx = build_complex(fine, 2, d_max=2)
        p = pi1_presentation(cx)
        assert p.abelianized_rank() == 0

    def test_htree_two_strands_rank2(self, htree):
        for parts in (3, 4):
            fine = trees.subdivide_edges(htree, parts)
            cx = build_complex(fine, 2, d_max=2)
            assert pi1_presentation(cx).abelianized_rank() == 2

    def test_relator_words_short(self, tripod):
        fine = trees.subdivide(tripod, 2)
        cx = build_complex(fine, 2, d_max=2)
        p = pi1_presentation(cx)
        assert len(p.relators) == len(cx.cells[2])
        assert all(len(word) <= 4 for word in p.relators)

    def test_generator_count_is_nontree_edges(self, tripod):
        fine = trees.subdivide(tripod, 2)
        cx = build_complex(fine, 2, d_max=2)
        p = pi1_presentation(cx)
        assert p.generator_count == len(cx.cells[1]) - (len(cx.cells[0]) - 1)

    def test_disconnected_raises(self):
        tiny = tree_from_edges([("a", "b")], "a")
        base = build_complex(tiny, 1, d_max=2)
        broken = CubeComplex(
            tree=base.tree,
            n=1,
            d_max=2,
            vertex_ids=base.vertex_ids,
            cells=((((), (0,)), ((), (1,))), (), ()),   # two 0-cells, no 1-cells
        )
        with pytest.raises(DisconnectedComplexError):
            pi1_presentation(broken)

    def test_needs_dimension_two(self):
        cx = build_complex(path_tree(3), 2, d_max=1)
        with pytest.raises(ValueError):
            pi1_presentation(cx)


class TestMixedArmCounts:
    def test_oracle_agrees_on_mixed_tree(self):
        # degree-4 hub glued to a degree-3 hub; levels 2 and 3 are cheap
        # (n=4 also agrees: presentation (32, 3) vs betti (1, 32, 3), ~25 s)
        mixed = tree_from_edges(
            [("p", "u"), ("a1", "u"), ("a2", "u"), ("u", "v"), ("v", "b"), ("v", "c")],
            "p",
        )
        d = trees.decompose(mixed)
        for n, expect in [(2, (4, 0)), (3, (14, 0))]:
            p = presentation.assemble(d, n)
            assert (len(p.generators), len(p.relations)) == expect
            fine = trees.subdivide_edges(mixed, n + 1)
            rep = betti(build_complex(fine, n, d_max=3))
            assert rep.betti == (1, *expect)
            assert not any(rep.torsion)


class TestCliqueCounts:
    def test_htree_n4(self, htree):
        d = trees.decompose(htree)
        p = presentation.assemble(d, 4)
        assert raag_clique_counts(p, 3) == (12, 1, 0)

    def test_tripod_n3(self, tripod):
        d = trees.decompose(tripod)
        p = presentation.assemble(d, 3)
        assert raag_clique_counts(p, 3) == (3, 0, 0)

    def test_interval(self, interval):
        d = trees.decompose(interval)
        p = presentation.assemble(d, 4)
        assert raag_clique_counts(p, 3) == (0, 0, 0)

    def test_triangle_count_on_forged_graph(self):
        # three pairwise-commuting generators -> one triangle
        from treebraid.presentation import Generator, Presentation
        from treebraid.stars import StarEdge

        gens = [Generator(i, StarEdge((0, 1, 1), 2)) for i in (1, 2, 3)]
        rels = frozenset(
            frozenset((gens[i], gens[j])) for i in range(3) for j in range(i + 1, 3)
        )
        p = Presentation(n=2, generators=frozenset(gens), relations=rels)
        assert raag_clique_counts(p, 3) == (3, 3, 1)

    def test_triangles_match_a_count_over_generator_pairs(self, caterpillar5):
        d = trees.decompose(caterpillar5)
        assert d.arm_counts() == (4, 4, 3, 5, 3)
        p = presentation.assemble(d, 6)
        neighbours = {g: set() for g in p.generators}
        for pair in p.relations:
            for g in pair:
                neighbours[g] |= pair - {g}
        # every triangle has three edges, each seeing its third vertex once
        seen = sum(len(neighbours[g] & neighbours[h]) for g, h in p.relations)
        assert seen % 3 == 0
        assert raag_clique_counts(p, 3) == (495, 1758, seen // 3) == (495, 1758, 156)

    def test_max_size_validated(self, tripod):
        d = trees.decompose(tripod)
        p = presentation.assemble(d, 2)
        with pytest.raises(ValueError):
            raag_clique_counts(p, 4)
        assert raag_clique_counts(p, 1) == (1,)


class TestDump:
    def test_dump_uses_string_ids(self):
        cx = build_complex(path_tree(2), 1, d_max=1)
        text = dump_cells(cx)
        lines = text.splitlines()
        assert len(lines) == 3 + 2
        assert lines[0] == "dim=0 edges= vertices=0"
        assert any(line == "dim=1 edges=0-1 vertices=" for line in lines)
