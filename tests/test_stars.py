import sys
from collections import Counter
from itertools import combinations_with_replacement, filterfalse, product
from math import comb
from operator import sub

import pytest

from treebraid import stars
from treebraid.stars import (
    BaseVertexError,
    NotBasisEdgeError,
    RankMismatchError,
    add_strand,
    arm_vectors,
    basis,
    capacity,
    is_tree_edge,
    last_occupied_arm,
    rank,
    rank_closed_form,
    rank_from_euler,
    star_edges,
    type1_successor,
    type1_vertices,
    type2_successor,
    type2_vertices,
)
from star_reference import base_vertex, spanning_tree, type1

ALL_KN = [(k, n) for k in range(2, 6) for n in range(7)]
# the star table's grid, and wide stars with far more arms than strands
GRID_AND_WIDE = [(k, n) for k in range(2, 9) for n in range(10)] + [(40, 3), (120, 2), (1200, 1)]


def brute_vectors(total, k):
    """Oracle: every length-k tuple over 0..total summing to total."""
    return sorted(t for t in product(range(total + 1), repeat=k) if sum(t) == total)


def stars_and_bars(total, k):
    """Oracle: the gaps between k - 1 nondecreasing cut points in 0..total,
    the cut points in lex order; nothing when total < 0."""
    if total < 0:
        return []
    cut_points = combinations_with_replacement(range(total + 1), k - 1)
    return [tuple(map(sub, cuts + (total,), (0,) + cuts)) for cuts in cut_points]


class TestEnumeration:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_arm_vectors_in_lex_order(self, k):
        for total in range(-1, 8):
            assert list(arm_vectors(total, k)) == brute_vectors(total, k), total

    @pytest.mark.parametrize("k", range(1, 9))
    def test_arm_vectors_against_stars_and_bars(self, k):
        for total in range(-1, 10):
            assert list(arm_vectors(total, k)) == stars_and_bars(total, k), total

    @pytest.mark.parametrize("total", [0, 3])
    def test_arm_vectors_need_an_arm(self, total):
        # a ValueError, as stars and bars raised, not a RecursionError
        with pytest.raises(ValueError, match="k >= 1"):
            arm_vectors(total, 0)

    def test_a_wide_star_keeps_only_smaller_totals(self, request):
        # 1,200 arms and one strand: beside its own level, only the zero
        # vectors of 1..1,199 arms, and no recursion 1,200 calls deep
        stars._level.cache_clear()
        request.addfinalizer(stars._level.cache_clear)
        assert len(list(arm_vectors(1, 1200))) == 1200
        assert stars._level.cache_info().currsize == 1200

    @pytest.mark.parametrize("k,n", GRID_AND_WIDE)
    def test_masks_are_the_occupancy_of_their_vectors(self, k, n, request):
        request.addfinalizer(stars._level.cache_clear)
        for total in (n - 1, n):
            vectors, masks = stars._level(total, k)
            assert len(masks) == len(vectors)
            for a, mask in zip(vectors, masks):
                # reversed bit order: bit k - p is arm p's
                assert mask == sum(1 << (k - p) for p, count in enumerate(a, 1) if count >= 1), a

    @pytest.mark.parametrize("vertices", [type1_vertices, type2_vertices])
    def test_vertex_lists_are_fresh(self, vertices):
        # the lists are built over the cached levels; changing one must not
        # change the next caller's
        expect = vertices(4, 3)
        got = vertices(4, 3)
        got.clear()
        assert vertices(4, 3) == expect != []

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_star_edges_in_edge_order(self, k, n):
        assert star_edges(k, n) == sorted(star_edges(k, n))

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_star_edges_are_real_star_edges(self, k, n):
        # an edge is the bare pair (a, p), not a record
        for e in star_edges(k, n):
            assert type(e) is tuple and len(e) == 2

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_type2_against_brute_force(self, k, n):
        expect = [
            a for a in brute_vectors(n, k) if sum(1 for x in a if x) >= 2
        ]
        assert type2_vertices(k, n) == expect

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_type1_against_brute_force(self, k, n):
        assert type1_vertices(k, n) == brute_vectors(n - 1, k)

    def test_type2_examples(self):
        assert type2_vertices(3, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert type2_vertices(3, 1) == []
        assert len(type2_vertices(3, 3)) == 7   # C(5,2) compositions minus 3 single-arm

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 6) for n in range(1, 7)])
    def test_vertex_counts(self, k, n):
        assert len(type1_vertices(k, n)) == comb(n + k - 2, k - 1)
        assert len(type2_vertices(k, n)) == comb(n + k - 1, k - 1) - k

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_edge_count_is_occupied_arm_total(self, k, n):
        expect = sum(
            sum(1 for x in a if x) for a in type2_vertices(k, n)
        )
        assert len(star_edges(k, n)) == expect

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_edge_endpoints_are_valid_vertices(self, k, n):
        ones = set(type1_vertices(k, n))
        twos = set(type2_vertices(k, n))
        for e in star_edges(k, n):
            assert e[0] in twos
            assert type1(e) in ones
            assert sum(type1(e)) == n - 1

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_kinds_never_collide_within_a_level(self, k, n):
        # the two kinds are bare tuples, told apart by their sums alone
        assert not set(type1_vertices(k, n)) & set(type2_vertices(k, n))


class TestStarEdge:
    def test_hash_and_order_are_the_pair(self):
        # basis order and the generators' sort rely on the (a, p) order,
        # assemble's index lookups on the hash
        e = basis(3, 2)[0]
        assert e == ((0, 1, 1), 2) and hash(e) == hash(((0, 1, 1), 2))
        edges = [((1, 0, 1), 1), ((0, 1, 1), 3), ((0, 1, 1), 2)]
        assert sorted(edges) == [((0, 1, 1), 2), ((0, 1, 1), 3), ((1, 0, 1), 1)]

    def test_immutable(self):
        e = basis(3, 2)[0]
        with pytest.raises(TypeError):
            e[1] = 3

    def test_type1_end(self):
        assert type1(((0, 2, 1), 2)) == (0, 1, 1)
        assert type1(((1, 0, 3), 3)) == (1, 0, 2)


class TestSuccessor:
    def test_type1_example(self):
        assert type1_successor((0, 1, 0)) == ((1, 1, 0), 1)

    def test_type2_example(self):
        assert type2_successor((0, 1, 1)) == ((0, 1, 1), 3)

    def test_base_vertex_has_none(self):
        assert base_vertex(3, 2) == (1, 0, 0)
        with pytest.raises(BaseVertexError):
            type1_successor((1, 0, 0))

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 6) for n in range(1, 7)])
    def test_successor_edge_contains_its_vertex(self, k, n):
        base = base_vertex(k, n)
        for b in type1_vertices(k, n):
            if b == base:
                continue
            assert type1(type1_successor(b)) == b
        for a in type2_vertices(k, n):
            assert type2_successor(a)[0] == a

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 6) for n in range(1, 7)])
    def test_iterated_successor_reaches_base(self, k, n):
        # walking successor edges must terminate at the base vertex
        base = ("I", base_vertex(k, n))
        starts = [("I", b) for b in type1_vertices(k, n)]
        starts += [("II", a) for a in type2_vertices(k, n)]
        for v in starts:
            for _ in range(10 * (n + k)):
                if v == base:
                    break
                kind, arms = v
                if kind == "I":
                    v = ("II", type1_successor(arms)[0])
                else:
                    v = ("I", type1(type2_successor(arms)))
            assert v == base


def check_tree(k, n):
    """Oracle: union-find acyclicity + spanning check over explicit vertices."""
    edges = spanning_tree(k, n)
    vertices = [("I", b) for b in type1_vertices(k, n)]
    vertices += [("II", a) for a in type2_vertices(k, n)]
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        a, b = ("II", e[0]), ("I", type1(e))
        ra, rb = find(a), find(b)
        assert ra != rb, f"cycle in spanning tree at k={k}, n={n}"
        parent[ra] = rb
    roots = {find(v) for v in vertices}
    assert len(roots) <= 1, f"spanning tree disconnected at k={k}, n={n}"
    assert len(edges) == max(len(vertices) - 1, 0)


class TestSpanningTree:
    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_acyclic_and_spanning(self, k, n):
        check_tree(k, n)

    def test_example_3_2(self):
        expect = {
            ((1, 1, 0), 1), ((1, 0, 1), 1),
            ((1, 1, 0), 2), ((1, 0, 1), 3), ((0, 1, 1), 3),
        }
        assert set(spanning_tree(3, 2)) == expect

    @pytest.mark.parametrize("n", range(7))
    def test_interval_star_is_all_tree(self, n):
        assert spanning_tree(2, n) == tuple(star_edges(2, n))
        assert basis(2, n) == ()

    def test_single_vertex_level(self):
        assert spanning_tree(3, 1) == ()
        assert type1_vertices(3, 1) == [(0, 0, 0)]

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_contains_two_arm_subcomplex(self, k, n):
        # edges living on arms 1 and 2 only are always tree edges
        for e in star_edges(k, n):
            if not any(e[0][2:]):
                assert e in spanning_tree(k, n)

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_partition_of_edges(self, k, n):
        tree = set(spanning_tree(k, n))
        free = set(basis(k, n))
        assert tree | free == set(star_edges(k, n))
        assert not tree & free

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_tree_and_basis_keep_edge_order(self, k, n):
        # assemble lists generators straight from the bases, with no sort
        assert basis(k, n) == tuple(sorted(basis(k, n)))
        assert spanning_tree(k, n) == tuple(sorted(spanning_tree(k, n)))
        assert len(set(basis(k, n))) == len(basis(k, n))

    def test_is_tree_edge_consistent(self):
        for e in star_edges(4, 3):
            assert is_tree_edge(e) == (e in spanning_tree(4, 3))


def assert_basis_size_is_the_rank(k, n):
    assert len(stars.basis(k, n)) == rank(k, n), (k, n)


class TestBasis:
    def test_examples(self):
        assert set(basis(3, 2)) == {((0, 1, 1), 2)}
        assert set(basis(4, 2)) == {
            ((0, 1, 1, 0), 2), ((0, 1, 0, 1), 2), ((0, 0, 1, 1), 3),
        }
        four = basis(3, 4)
        assert len(four) == 6
        assert all(p == 2 and a[1] >= 1 and a[2] >= 1 for a, p in four)

    @pytest.mark.parametrize("k,n", GRID_AND_WIDE)
    def test_is_the_complement_of_the_tree_edges(self, k, n, request):
        # basis reads its edges off the arm-vector level in closed form; the
        # tree edges, filtered out edge by edge, must leave the same tuple
        request.addfinalizer(basis.cache_clear)
        request.addfinalizer(stars._level.cache_clear)
        got = basis(k, n)
        assert got == tuple(filterfalse(is_tree_edge, star_edges(k, n)))
        assert all(type(e) is tuple and len(e) == 2 for e in got)

    def test_no_python_call_per_vector(self, request):
        # with its level warm, basis(8, 9) runs Python code once per distinct
        # occupancy mask (at most 2**8), not once per vector of the level
        vectors, _ = stars._level(9, 8)
        assert len(vectors) == 11440
        basis.cache_clear()
        stars._basis_arms.cache_clear()
        request.addfinalizer(basis.cache_clear)
        events = Counter()

        def count(frame, event, arg):
            events[event] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            got = basis(8, 9)
        finally:
            sys.setprofile(previous)
        assert len(got) == rank_closed_form(8, 9)
        assert events["call"] + events["c_call"] < len(vectors)

    @pytest.mark.parametrize("k,n", GRID_AND_WIDE)
    def test_size_is_the_rank(self, k, n, request):
        # rank counts the basis arms of each mask without building the basis;
        # the pairs that assemble reads must still number exactly that many
        request.addfinalizer(basis.cache_clear)
        request.addfinalizer(stars._level.cache_clear)
        assert_basis_size_is_the_rank(k, n)

    def test_a_basis_missing_a_pair_fails_the_size_check(self, monkeypatch, request):
        real = stars.basis
        monkeypatch.setattr(stars, "basis", lambda k, n: real(k, n)[1:])
        request.addfinalizer(basis.cache_clear)
        request.addfinalizer(stars._level.cache_clear)
        caught = []
        for k, n in GRID_AND_WIDE:
            try:
                assert_basis_size_is_the_rank(k, n)
            except AssertionError:
                caught.append((k, n))
        # every level with a basis edge to lose
        assert caught == [(k, n) for k, n in GRID_AND_WIDE if rank_closed_form(k, n) > 0]

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_closed_form_membership(self, k, n):
        for a, p in star_edges(k, n):
            in_basis = p not in (1, last_occupied_arm(a))
            assert ((a, p) in basis(k, n)) == in_basis


class TestRank:
    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_three_way_agreement(self, k, n):
        assert rank(k, n) == rank_from_euler(k, n) == rank_closed_form(k, n)

    def test_spot_values(self):
        assert rank(3, 2) == 1
        assert rank(3, 3) == 3
        assert rank(3, 4) == 6
        assert rank(4, 2) == 3

    def test_euler_spot(self):
        # 13 vertices, 15 edges at k=3, n=3
        assert len(type1_vertices(3, 3)) + len(type2_vertices(3, 3)) == 13
        assert len(star_edges(3, 3)) == 15

    def test_edges_are_enumerated_once_per_level(self, request):
        # rank counts each basis off its level: no basis is built, and a
        # level asked for again is read from the cache
        basis.cache_clear()
        stars._level.cache_clear()
        request.addfinalizer(stars._level.cache_clear)
        misses = []
        for k, n in [(3, 4), (5, 3), (3, 4)]:
            rank(k, n)
            misses.append(stars._level.cache_info().misses)
        assert misses[1] > misses[0] and misses[2] == misses[1]
        assert basis.cache_info().misses == 0

    def test_no_python_call_per_vector(self):
        # with its levels warm, rank(8, 9) runs Python code once per distinct
        # occupancy mask and once per histogram bar, not once per vector: the
        # enumerated count and the Euler count both pass over the level in C
        vectors, _ = stars._level(9, 8)
        stars._level(8, 8)
        assert len(vectors) == 11440
        stars._basis_arms.cache_clear()
        events = Counter()

        def count(frame, event, arg):
            events[event] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            got = rank(8, 9)
        finally:
            sys.setprofile(previous)
        assert got == rank_closed_form(8, 9)
        assert events["call"] + events["c_call"] < len(vectors)

    def test_euler_witness_catches_a_wrong_spanning_tree(self, monkeypatch):
        # a tree without the last-occupied-arm successors leaves one more
        # basis edge per Type II vertex, 12 at k=3, n=4; the Euler count
        # never asks which edges are tree edges
        real = stars._basis_arms

        def keep_last(mask, k):
            two_or_more = mask & (mask - 1)
            last = k - (mask & -mask).bit_length() + 1
            return real(mask, k) + (last,) if two_or_more else ()

        monkeypatch.setattr(stars, "_basis_arms", keep_last)
        assert rank_from_euler(3, 4) == rank_closed_form(3, 4) == 6
        with pytest.raises(RankMismatchError, match="enumerated=18, euler=6, closed_form=6"):
            rank(3, 4)

    def test_each_vector_level_is_built_once(self, request):
        basis.cache_clear()
        stars._level.cache_clear()
        request.addfinalizer(basis.cache_clear)
        for k, n in ALL_KN:
            rank(k, n)
        # the levels rank asks for, (n, k) and (n - 1, k), and the levels of
        # a smaller total and fewer arms that prefix extension reads below
        # them: of those, only the one-arm levels were not asked for
        levels = {(total, arms) for total in range(7) for arms in range(2, 6)}
        levels |= {(total, 1) for total in range(6)}
        assert stars._level.cache_info().misses == len(levels)
        for k, n in ALL_KN:
            rank_from_euler(k, n)
        assert stars._level.cache_info().misses == len(levels)

    def test_rank_builds_no_basis(self, monkeypatch):
        def refuse(k, n):
            raise AssertionError("rank built a basis")

        monkeypatch.setattr(stars, "basis", refuse)
        assert rank(3, 4) == 6
        assert [rank(k, n) for k, n in ALL_KN] == [rank_closed_form(k, n) for k, n in ALL_KN]

    def sabotage_level(self, monkeypatch, request, change):
        """Rebind ``_level`` so that the (4, 3) level is change(vectors,
        masks); every other level is the real one."""
        real = stars._level

        def sabotaged(total, k):
            level = real(total, k)
            return change(*level) if (total, k) == (4, 3) else level

        monkeypatch.setattr(stars, "_level", sabotaged)
        basis.cache_clear()
        real.cache_clear()
        request.addfinalizer(basis.cache_clear)
        request.addfinalizer(real.cache_clear)

    def test_a_vector_missing_from_the_shared_level_is_caught(self, monkeypatch, request):
        # basis and Euler count read the same level, so both lose the vector
        # (0, 1, 3), its mask and its basis edge (p=2); only the closed form
        # still counts it
        def drop(vectors, masks):
            kept = [(v, m) for v, m in zip(vectors, masks) if v != (0, 1, 3)]
            return tuple(v for v, _ in kept), tuple(m for _, m in kept)

        self.sabotage_level(monkeypatch, request, drop)
        assert len(basis(3, 4)) == rank_from_euler(3, 4) == 5
        assert rank_closed_form(3, 4) == 6
        with pytest.raises(RankMismatchError, match="enumerated=5, euler=5, closed_form=6"):
            rank(3, 4)

    def test_a_wrong_mask_is_caught(self, monkeypatch, request):
        # the mask of (0, 1, 3) says arm 2 is empty, so basis loses its edge
        # (p=2); the Euler count reads the vectors, not the masks, and the
        # closed form reads neither
        def corrupt(vectors, masks):
            wrong = 0b001       # arm 3 only, bit k - 3 with k = 3
            return vectors, tuple(
                wrong if v == (0, 1, 3) else m for v, m in zip(vectors, masks)
            )

        self.sabotage_level(monkeypatch, request, corrupt)
        assert len(basis(3, 4)) == 5
        assert rank_from_euler(3, 4) == rank_closed_form(3, 4) == 6
        with pytest.raises(RankMismatchError, match="enumerated=5, euler=6, closed_form=6"):
            rank(3, 4)

    @pytest.mark.parametrize("k,n", [(0, 3), (1, 3), (-1, 2), (3, -1), (2, -5)])
    @pytest.mark.parametrize("fn", [rank, basis])
    def test_not_a_star_is_bad_input(self, fn, k, n):
        # neither a RecursionError nor a RankMismatchError
        with pytest.raises(ValueError, match=rf"k={k}, n={n}\b"):
            fn(k, n)

    def test_degenerate_rows(self):
        assert all(rank(k, 0) == 0 for k in range(2, 6))
        assert all(rank(k, 1) == 0 for k in range(2, 6))
        assert all(rank(2, n) == 0 for n in range(7))


class TestAddStrand:
    def test_examples(self):
        e = ((0, 1, 1), 2)
        assert add_strand(e, 2) == ((0, 2, 1), 2)
        assert add_strand(e, 1) == ((1, 1, 1), 2)
        assert add_strand(((1, 1, 0), 1), 2) == ((1, 2, 0), 1)

    def test_images_land_where_claimed(self):
        assert add_strand(((0, 1, 1), 2), 2) in basis(3, 3)
        assert add_strand(((0, 1, 1), 2), 1) in basis(3, 3)
        assert add_strand(((1, 1, 0), 1), 2) in spanning_tree(3, 3)

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 6) for n in range(6)])
    @pytest.mark.parametrize("arm", [1, 2])
    def test_tree_to_tree_basis_to_basis(self, k, n, arm):
        up_tree = set(spanning_tree(k, n + 1))
        up_basis = set(basis(k, n + 1))
        for e in spanning_tree(k, n):
            assert add_strand(e, arm) in up_tree
        for e in basis(k, n):
            assert add_strand(e, arm) in up_basis

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 6) for n in range(6)])
    def test_injective_and_commuting(self, k, n):
        edges = star_edges(k, n)
        for arm in (1, 2):
            images = {add_strand(e, arm) for e in edges}
            assert len(images) == len(edges)
        for e in edges:
            assert add_strand(add_strand(e, 1), 2) == add_strand(add_strand(e, 2), 1)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_arm_1_images_are_the_basis_suffix(self, k):
        # pushed n - m strands in along arm 1, the level-m basis is the last
        # len(basis(k, m)) edges of the level-n basis, in order: the suffix
        # property the presentation's relations rest on
        for n in range(10):
            top = basis(k, n)
            for m in range(n + 1):
                low = basis(k, m)
                images = [add_strand(e, 1, n - m) for e in low]
                assert images == list(top[len(top) - len(low):]), (k, m, n)

    def test_rejects_high_arms(self):
        with pytest.raises(ValueError):
            add_strand(((0, 1, 1), 2), 3)
        with pytest.raises(ValueError):
            add_strand(((0, 1, 1), 2), 0, times=2)

    @pytest.mark.parametrize("times", [-1, -3])
    def test_rejects_negative_times(self, times):
        with pytest.raises(ValueError, match="negative"):
            add_strand(((0, 1, 1), 2), 1, times)

    @pytest.mark.parametrize("k,n", [(3, 4), (4, 3), (5, 2)])
    @pytest.mark.parametrize("arm", [1, 2])
    def test_times_is_repeated_single_steps(self, k, n, arm):
        for e in star_edges(k, n):
            stepped = e
            for times in range(5):
                got = add_strand(e, arm, times)
                assert got == stepped
                assert type(got) is tuple and len(got) == 2
                stepped = add_strand(stepped, arm)


class TestCapacity:
    def test_examples(self):
        assert capacity(((0, 3, 1), 2), 2) == 2
        assert capacity(((2, 1, 1), 2), 1) == 2
        assert capacity(((0, 1, 1), 2), 2) == 0

    def test_tree_edge_rejected(self):
        with pytest.raises(NotBasisEdgeError):
            capacity(((1, 1, 0), 1), 1)

    def test_arms_other_than_1_and_2_rejected(self):
        with pytest.raises(ValueError, match="arms 1 and 2, got arm 3"):
            capacity(((0, 3, 1), 2), 3)

    def test_empty_configuration_has_no_last_arm(self):
        assert last_occupied_arm((0, 2, 0)) == 2
        with pytest.raises(ValueError, match="no occupied arm"):
            last_occupied_arm((0, 0))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("arm", [1, 2])
    def test_matches_forward_images(self, k, arm):
        # oracle: compute every t-fold image set explicitly, then compare
        # membership with the capacity >= t rule, for all n <= 6
        for n in range(7):
            for t in range(n + 1):
                image = set(basis(k, n - t))
                for _ in range(t):
                    image = {add_strand(e, arm) for e in image}
                for e in basis(k, n):
                    assert (e in image) == (capacity(e, arm) >= t), (e, arm, t)
