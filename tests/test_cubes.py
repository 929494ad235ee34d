import random
import tracemalloc
from math import comb

import pytest

from treebraid import cubes, presentation, trees
from treebraid.cubes import (
    BoundaryMatrix,
    BoundarySquareError,
    CubeComplex,
    ResourceCapError,
    betti,
    boundary_matrix,
    build_complex,
    check_boundary_squares_to_zero,
    layer_sizes,
    oracle_report,
    raag_clique_counts,
)
from treebraid.homology import rank_and_factors

from conftest import tree_from_edges
from cube_reference import (
    DisconnectedComplexError,
    brute_force_cells,
    brute_force_matchings,
    cell_faces,
    decoded_layers,
    decoder,
    matching_counts,
    pi1_presentation,
)

FIXTURE_TREES = ["interval", "tripod", "star4", "htree", "caterpillar3", "caterpillar5", "spider"]


def path_tree(edges_count):
    labels = [str(i) for i in range(edges_count + 1)]
    return tree_from_edges(list(zip(labels, labels[1:])), "0")


def random_tree(rng, size):
    """A tree on size vertices, each after the first joined to an earlier one."""
    edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, size)]
    leaf = next(v for v in (f"v{i}" for i in range(size))
                if sum(v in e for e in edges) == 1)
    return tree_from_edges(edges, leaf)


def columns(m):
    """The columns of a BoundaryMatrix as ((row, sign), ...) tuples."""
    width = 2 * m.d
    return [
        tuple(zip(m.rows[start:start + width], cubes._SIGNS))
        for start in range(0, len(m.rows), width)
    ]


def misindexing(real, bad_d):
    """boundary_matrix, but the first entry of column 0 of boundary_bad_d
    names the next row."""

    def misindexed(cx, d):
        m = real(cx, d)
        if d == bad_d:
            m = m._replace(rows=((m.rows[0] + 1) % m.nrows, *m.rows[1:]))
        return m

    return misindexed


class TestBuild:
    def test_path3_n2_counts(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        assert cx.cell_counts() == [6, 6, 1]
        # the single square is the two disjoint end edges
        (square,) = cx.cells[2]
        assert decoder(cx.tree)(square) == (((0, 1), (2, 3)), ())

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

    def test_n0_on_a_fine_cut_builds_no_edge_masks(self, htree):
        # n = 0 reads no edge mask; at V + E bits each, they would take ~170 MB
        fine = trees.subdivide_edges(htree, 10000)
        tracemalloc.start()
        try:
            cx = build_complex(fine, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cx.cell_counts() == [1, 0, 0, 0]
        assert peak < 60 * 2**20

    def test_n0_counts_one_cell_without_reading_the_tree(self):
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"the tree's {name} was read")

        assert layer_sizes(Unread(), 0, 3, parts=10000) == [1, 0, 0, 0]

    def test_faces_are_cells(self, htree):
        fine = trees.subdivide_edges(htree, 2 + 1)
        cx = build_complex(fine, 2, d_max=2)
        layers = decoded_layers(cx)
        for d in (1, 2):
            lower = set(layers[d - 1])
            for cell in layers[d]:
                for face, _ in cell_faces(cell):
                    assert face in lower

    def test_cells_sorted_and_deterministic(self, tripod):
        # the same tree given with its edges reversed, in reverse order
        flipped = tree_from_edges([(w, u) for u, w in reversed(tripod.edges)], tripod.endpoint)
        a = build_complex(trees.subdivide_edges(tripod, 2 + 1), 2, d_max=3)
        b = build_complex(trees.subdivide_edges(flipped, 2 + 1), 2, d_max=3)
        assert a.cells == b.cells
        for layer in a.cells:
            assert all(type(key) is int for key in layer)
            assert all(x < y for x, y in zip(layer, layer[1:]))

    @pytest.mark.parametrize("name", FIXTURE_TREES)
    def test_keys_decode_to_the_brute_force_cells(self, name, request):
        tree = request.getfixturevalue(name)
        for n in range(4):
            fine = trees.subdivide_edges(tree, max(1, n - 1))
            cx = build_complex(fine, n, d_max=3)
            for d, (keys, cells) in enumerate(zip(cx.cells, decoded_layers(cx))):
                assert all(x < y for x, y in zip(keys, keys[1:])), (n, d)
                assert set(cells) == brute_force_cells(fine, n, d), (n, d)

    def test_resource_cap(self, htree):
        with pytest.raises(ResourceCapError):
            oracle_report(htree, 4, parts=3, cell_cap=1000)

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
        assert layer_sizes(htree, 4, 3, parts=3) == [1820, 5460, 5874, 2680]
        with pytest.raises(ResourceCapError, match="5874") as info:
            oracle_report(htree, 4, parts=3, cell_cap=5873)
        assert (info.value.cells, info.value.cap) == (5874, 5873)
        assert oracle_report(htree, 4, parts=3, cell_cap=5874).cell_counts == (1820, 5460, 5874, 2680)

    def test_too_many_strands(self):
        with pytest.raises(ValueError):
            build_complex(path_tree(1), 3)

    @pytest.mark.parametrize("n,d_max,message", [
        (-1, 3, "strand count must be >= 0, got -1"),
        (2, 4, "d_max must be 1..3, got 4"),
    ])
    def test_bad_strand_count_or_depth(self, htree, n, d_max, message):
        with pytest.raises(ValueError, match=message):
            build_complex(htree, n, d_max)


class TestLayerSizes:
    """The closed form of ``layer_sizes`` against two matching counts that
    make the cut: the reference DP and brute force over edge triples."""

    def test_against_the_matchings_of_the_cut(self):
        rng = random.Random(2226)
        for trial in range(300):
            tree = random_tree(rng, rng.randint(2, 14))
            for parts in range(1, 5):
                fine = trees.subdivide_edges(tree, parts)
                m = matching_counts(fine, 3)
                assert m == brute_force_matchings(fine, 3), (trial, parts)
                nv = len(fine.vertices)
                for n in range(6):
                    cells = [m[d] * comb(max(nv - 2 * d, 0), n - d) if d <= n else 0
                             for d in range(4)]
                    for d_max in (1, 2, 3):
                        assert layer_sizes(tree, n, d_max, parts) == cells[:d_max + 1], \
                            (trial, tree.edges, parts, n, d_max)

    @pytest.mark.parametrize("name", FIXTURE_TREES)
    def test_parts_count_the_cut(self, name, request):
        tree = request.getfixturevalue(name)
        for parts in range(1, 5):
            fine = trees.subdivide_edges(tree, parts)
            for n in range(6):
                for d_max in (1, 2, 3):
                    assert layer_sizes(tree, n, d_max, parts) == layer_sizes(fine, n, d_max), \
                        (parts, n, d_max)

    @pytest.mark.parametrize("d_max", [0, 4])
    def test_d_max_outside_1_to_3_is_refused(self, htree, d_max):
        with pytest.raises(ValueError, match=f"d_max must be 1..3, got {d_max}"):
            layer_sizes(htree, 2, d_max)


class TestBoundary:
    def test_squares_to_zero_small(self, tripod, htree):
        for t, n in [(tripod, 2), (tripod, 3), (htree, 2)]:
            fine = trees.subdivide_edges(t, n + 1)
            cx = build_complex(fine, n, d_max=3)
            check_boundary_squares_to_zero(cx)

    def test_check_reads_the_boundary_matrices(self, htree, monkeypatch):
        # one entry of one boundary_d column points at the wrong row
        cx = build_complex(trees.subdivide_edges(htree, 2), 3, d_max=3)
        real = cubes.boundary_matrix
        for bad_d in (1, 2, 3):
            monkeypatch.setattr(cubes, "boundary_matrix", misindexing(real, bad_d))
            with pytest.raises(BoundarySquareError, match=r"boundary\^2 != 0 on "):
                check_boundary_squares_to_zero(cx)

    def test_check_takes_one_face_pass_per_cell(self, htree, monkeypatch):
        # each boundary is built once per check and once per oracle_report,
        # and only for the dimensions that have cells
        cx = build_complex(trees.subdivide_edges(htree, 2), 3, d_max=3)
        calls = []
        real = cubes.boundary_matrix
        monkeypatch.setattr(cubes, "boundary_matrix", lambda cx, d: calls.append(d) or real(cx, d))
        check_boundary_squares_to_zero(cx)
        assert calls == [3, 2, 1]
        for n, built in [(0, []), (1, [1]), (2, [2, 1]), (3, [3, 2, 1])]:
            calls.clear()
            oracle_report(htree, n, 3, parts=2)
            assert calls == built, n

    def test_column_signs_sum_to_zero_in_dim1(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        m = boundary_matrix(cx, 1)
        assert len(m.rows) == 2 * len(cx.cells[1])
        for col in columns(m):
            assert [sign for _, sign in col] == [1, -1]

    def test_square_boundary_has_four_faces(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        m = boundary_matrix(cx, 2)
        (col,) = columns(m)
        assert len(col) == 4
        assert [sign for _, sign in col] == [1, -1, -1, 1]

    @pytest.mark.parametrize("name", FIXTURE_TREES)
    def test_rows_and_signs_are_the_reference_faces(self, name, request):
        tree = request.getfixturevalue(name)
        for n in range(4):
            cx = build_complex(trees.subdivide_edges(tree, max(1, n - 1)), n, d_max=3)
            layers = decoded_layers(cx)
            for d in range(1, 4):
                m = boundary_matrix(cx, d)
                assert m.nrows == len(cx.cells[d - 1]) and m.d == d
                index = {cell: i for i, cell in enumerate(layers[d - 1])}
                want = [
                    tuple((index[face], sign) for face, sign in cell_faces(cell))
                    for cell in layers[d]
                ]
                assert columns(m) == want, (n, d)

    def test_face_pairs_cancel(self):
        # the pairs the check compares name each face of a face once, and
        # their two signs are opposite
        for d in (1, 2):
            pairs = cubes._face_pairs(d)
            positions = [pos for pair in pairs for pos in pair]
            assert sorted(positions) == [(p, q) for p in range(2 * d + 2) for q in range(2 * d)]
            for (p, q), (p2, q2) in pairs:
                assert cubes._SIGNS[p] * cubes._SIGNS[q] == -cubes._SIGNS[p2] * cubes._SIGNS[q2]

    def test_check_names_the_column_and_the_faces(self, monkeypatch):
        cx = build_complex(path_tree(3), 2, d_max=2)
        monkeypatch.setattr(cubes, "boundary_matrix", misindexing(cubes.boundary_matrix, 2))
        with pytest.raises(BoundarySquareError) as caught:
            check_boundary_squares_to_zero(cx)
        message = str(caught.value)
        first = decoder(cx.tree)(cx.cells[2][0])
        assert message.startswith(f"boundary^2 != 0 on {first}: faces ((), ")
        assert message.endswith(" do not cancel")

    @pytest.mark.parametrize("signs", [(1,) * 6, (1, -1, 1, -1, 1, -1)])
    def test_check_reads_the_signs(self, htree, monkeypatch, signs):
        # the rows are right, but the signs no longer cancel in pairs
        cx = build_complex(trees.subdivide_edges(htree, 2), 3, d_max=3)
        monkeypatch.setattr(cubes, "_SIGNS", signs)
        with pytest.raises(BoundarySquareError, match=r"boundary\^2 != 0 on "):
            check_boundary_squares_to_zero(cx)
        with pytest.raises(BoundarySquareError):
            oracle_report(htree, 3, 3, parts=2)

    def test_bad_dimension(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 3)

    def test_skip_leaves_out_columns(self):
        cx = build_complex(path_tree(3), 2, d_max=2)
        m = boundary_matrix(cx, 1)
        full, part = m.to_sparse(), m.to_sparse(skip={0, 2})
        assert (part.nrows, part.ncols) == (full.nrows, full.ncols - 2) == (6, 4)
        kept = [col for j, col in enumerate(columns(m)) if j not in (0, 2)]
        assert {r: row for r, row in part.rows.items()} == {
            r: {c: v for c, col in enumerate(kept) for rr, v in col if rr == r}
            for r in {r for col in kept for r, _ in col}
        }

    def test_to_sparse_shares_one_int_per_row(self, htree):
        cx = build_complex(trees.subdivide_edges(htree, 2), 3, d_max=3)
        sparse = boundary_matrix(cx, 2).to_sparse()
        first = {}
        for c, rows in sparse.cols.items():
            for r in rows:
                assert first.setdefault(r, r) is r
        for r in sparse.rows:
            assert first[r] is r


class TestBetti:
    def test_tripod_two_strands_is_a_circle(self, tripod):
        fine = trees.subdivide_edges(tripod, 2 + 1)
        cx = build_complex(fine, 2, d_max=2)
        rep = betti(cx)
        assert rep.betti == (1, 1)
        assert not any(rep.torsion)

    def test_interval_contractible(self, interval):
        fine = trees.subdivide_edges(interval, 3 + 1)
        cx = build_complex(fine, 3, d_max=3)
        rep = betti(cx)
        assert rep.betti == (1, 0, 0)

    def test_htree_two_strands(self, htree):
        fine = trees.subdivide_edges(htree, 2 + 1)
        rep = betti(build_complex(fine, 2, d_max=3))
        assert rep.betti == (1, 2, 0)
        assert not any(rep.torsion)

    def test_report_json_shape(self, tripod):
        fine = trees.subdivide_edges(tripod, 2 + 1)
        rep = betti(build_complex(fine, 2, d_max=2))
        assert rep.betti == (1, 1)
        assert rep.cell_counts == (45, 72, 27)


class TestOracleReport:
    @pytest.mark.parametrize("d_max", [2, 3])
    def test_zero_strands_is_a_point(self, htree, d_max):
        rep = oracle_report(htree, 0, d_max)
        assert rep.cell_counts == (1,) + (0,) * d_max
        assert rep.betti == (1, 0, 0)[:d_max]
        assert not any(rep.torsion)

    @pytest.mark.parametrize("n,parts", [(1, 1), (2, 1), (3, 2), (4, 3)])
    def test_default_cut_is_the_floor(self, tripod, n, parts, monkeypatch):
        seen = []
        real = cubes.subdivide_edges
        monkeypatch.setattr(cubes, "subdivide_edges", lambda t, k: seen.append(k) or real(t, k))
        oracle_report(tripod, n)
        assert seen == [parts]

    def test_below_the_floor_builds_nothing(self, tripod, monkeypatch):
        monkeypatch.setattr(cubes, "build_complex", None)
        with pytest.raises(ValueError, match="subdivision 1 is too coarse for n=3; need at least 2"):
            oracle_report(tripod, 3, parts=1)

    def test_a_cut_with_more_vertices_than_the_cap_is_not_made(self, htree, monkeypatch):
        # 6 vertices and 5 edges: 20 pieces per edge give 101 vertices and 100
        # edges, and at n=2 100 * 99 = 9900 1-cells
        real = cubes.subdivide_edges
        monkeypatch.setattr(cubes, "subdivide_edges", None)
        for cap in (100, 9899):
            with pytest.raises(ResourceCapError) as info:
                oracle_report(htree, 2, parts=20, cell_cap=cap)
            assert str(info.value) == f"largest cell layer has 9900 cells, above the cap {cap}"
            assert (info.value.cells, info.value.cap) == (9900, cap)
        # no strand, one cell: the cap is not reached, however fine the cut
        monkeypatch.setattr(cubes, "subdivide_edges", real)
        assert oracle_report(htree, 0, parts=20, cell_cap=1).cell_counts == (1, 0, 0, 0)
        # the count before the cut is the count of the cut
        assert layer_sizes(htree, 2, 3, parts=20) == [5050, 9900, 4849, 0]
        assert layer_sizes(real(htree, 20), 2, 3) == [5050, 9900, 4849, 0]

    def test_the_lower_bound_never_exceeds_the_exact_count(self, htree, tripod):
        # past a smaller side of _EXACT_SIDE in C(V, n), the 0-cells of the V
        # vertices of the cut, the refusal counts C(V, _EXACT_SIDE) instead
        side = cubes._EXACT_SIDE
        interval = tree_from_edges([("p", "q")], "p")
        for tree, n, parts in [(htree, side + 1, side), (tripod, side + 50, side + 49),
                               (htree, side + 1, 3 * side), (interval, 5000, 9200)]:
            with pytest.raises(ResourceCapError, match="^largest cell layer has at least "
                                                       r"\d{6}\.\.\. ") as info:
                cubes.check_limits(tree, n, 3, parts)
            assert info.value.cells == comb(len(tree.vertices) + (parts - 1) * len(tree.edges),
                                            side)
            assert info.value.cells <= max(layer_sizes(tree, n, 3, parts)), (n, parts)
        # up to that side the count is exact: n = side on the H-tree, and
        # V - n = 8896 - 4800 = side on the interval cut into 8895 pieces
        for tree, n, parts in [(htree, side, None), (interval, 4800, 8895)]:
            with pytest.raises(ResourceCapError) as info:
                cubes.check_limits(tree, n, 3, parts)
            assert info.value.cells == max(layer_sizes(tree, n, 3, parts or n - 1))
            assert "at least" not in str(info.value)

    def test_boundary_is_checked_before_betti(self, tripod, monkeypatch):
        # a wrong row in boundary_2 stops the report: no Betti number is
        # returned, and boundary_1, whose clearing rests on
        # boundary_1 * boundary_2 == 0, is never reduced
        assert oracle_report(tripod, 2, parts=3).betti == (1, 1, 0)
        reduced = []
        real_sparse = BoundaryMatrix.to_sparse
        monkeypatch.setattr(
            BoundaryMatrix, "to_sparse",
            lambda m, skip=frozenset(): reduced.append(m.d) or real_sparse(m, skip),
        )
        monkeypatch.setattr(cubes, "boundary_matrix", misindexing(cubes.boundary_matrix, 2))
        with pytest.raises(BoundarySquareError, match=r"boundary\^2 != 0 on "):
            oracle_report(tripod, 2, parts=3)
        assert reduced == [2]

    @pytest.mark.parametrize("n,d_max", [(2, 3), (2, 2), (3, 3)])
    def test_every_pair_below_an_empty_top_is_checked(self, tripod, monkeypatch, n, d_max):
        # at n=2 and --dmax 3 there are no 3-cells; boundary_1 * boundary_2
        # is still checked, so a wrong row in boundary_1 raises
        real = cubes.boundary_matrix
        monkeypatch.setattr(cubes, "boundary_matrix", misindexing(real, 1))
        with pytest.raises(BoundarySquareError):
            oracle_report(tripod, n, d_max, parts=3)
        monkeypatch.setattr(cubes, "boundary_matrix", real)
        top = oracle_report(tripod, n, d_max, parts=3).cell_counts[-1]
        assert (top == 0) == (n < d_max)

    def test_one_strand_builds_only_the_edges(self, tripod, monkeypatch):
        # n=1 has no 2-cells, so boundary_1 is the only matrix and has no
        # pair to be checked in
        calls = []
        real = cubes.boundary_matrix
        monkeypatch.setattr(cubes, "boundary_matrix", lambda cx, d: calls.append(d) or real(cx, d))
        rep = oracle_report(tripod, 1, 3)
        assert (rep.cell_counts, rep.betti) == ((4, 3, 0, 0), (1, 0, 0))
        assert calls == [1]


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
        real = BoundaryMatrix.to_sparse

        def recording(m, skip=frozenset()):
            skipped[m.d] = len(skip)
            return real(m, skip)

        monkeypatch.setattr(BoundaryMatrix, "to_sparse", recording)
        rep = betti(cx)
        assert skipped.get(3, 0) == 0 and skipped[1] > 0   # clearing did happen
        for d in range(1, 4):
            if not cx.cells[d]:
                continue
            r, factors = rank_and_factors(real(boundary_matrix(cx, d)))
            assert rep.boundary_ranks[d - 1] == r, d
            assert rep.torsion[d - 1] == tuple(factors), d


class TestPi1:
    def test_tripod_rank_matches_b1(self, tripod):
        fine = trees.subdivide_edges(tripod, 2 + 1)
        cx = build_complex(fine, 2, d_max=2)
        p = pi1_presentation(cx)
        assert p.abelianized_rank() == betti(cx).betti[1] == 1

    def test_interval_collapses(self, interval):
        fine = trees.subdivide_edges(interval, 2 + 1)
        cx = build_complex(fine, 2, d_max=2)
        p = pi1_presentation(cx)
        assert p.abelianized_rank() == 0

    def test_htree_two_strands_rank2(self, htree):
        for parts in (3, 4):
            fine = trees.subdivide_edges(htree, parts)
            cx = build_complex(fine, 2, d_max=2)
            assert pi1_presentation(cx).abelianized_rank() == 2

    def test_relator_words_short(self, tripod):
        fine = trees.subdivide_edges(tripod, 2 + 1)
        cx = build_complex(fine, 2, d_max=2)
        p = pi1_presentation(cx)
        assert len(p.relators) == len(cx.cells[2])
        assert all(len(word) <= 4 for word in p.relators)

    def test_generator_count_is_nontree_edges(self, tripod):
        fine = trees.subdivide_edges(tripod, 2 + 1)
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
            cells=((1 << 0, 1 << 1), (), ()),   # 0-cells (), (0,) and (), (1,); no 1-cells
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
        assert raag_clique_counts(p) == (12, 1, 0)

    def test_tripod_n3(self, tripod):
        d = trees.decompose(tripod)
        p = presentation.assemble(d, 3)
        assert raag_clique_counts(p) == (3, 0, 0)

    def test_interval(self, interval):
        d = trees.decompose(interval)
        p = presentation.assemble(d, 4)
        assert raag_clique_counts(p) == (0, 0, 0)

    def test_triangle_count_on_forged_graph(self):
        # three pairwise-commuting generators -> one triangle
        from treebraid.presentation import Generator, Presentation

        gens = tuple(Generator(i, (0, 1, 1), 2) for i in (1, 2, 3))
        p = Presentation(n=2, generators=gens,
                         partners=((range(1, 2), range(2, 3)), (range(2, 3),), ()))
        assert p.relations == ((0, 1), (0, 2), (1, 2))
        assert raag_clique_counts(p) == (3, 3, 1)

    def test_triangles_match_a_count_over_generator_pairs(self, caterpillar5):
        d = trees.decompose(caterpillar5)
        assert d == (4, 4, 3, 5, 3)
        p = presentation.assemble(d, 6)
        pairs = [(p.generators[i], p.generators[j]) for i, j in p.relations]
        neighbours = {g: set() for g in p.generators}
        for g, h in pairs:
            neighbours[g].add(h)
            neighbours[h].add(g)
        # every triangle has three edges, each seeing its third vertex once
        seen = sum(len(neighbours[g] & neighbours[h]) for g, h in pairs)
        assert seen % 3 == 0
        assert raag_clique_counts(p) == (495, 1758, seen // 3) == (495, 1758, 156)

