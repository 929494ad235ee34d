import random
import signal
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from treebraid.cubes import boundary_matrix, build_complex
from treebraid.homology import (
    SparseIntMatrix,
    chain_homology,
    eliminate_units,
    rank_and_factors,
    smith_diagonal,
)
from treebraid.trees import subdivide_edges

from conftest import deadline


def sparse_from_dense(rows):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    columns = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                columns[j].append((i, v))
    return SparseIntMatrix.from_columns(nrows, columns)


def fraction_rank(rows):
    """Oracle: Gaussian elimination over exact rationals."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def determinant(rows):
    n = len(rows)
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c]:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def minor_gcd_factors(rows):
    """Oracle: invariant factors via gcds of i x i minors."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    previous = 1
    factors = []
    for size in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), size):
            for ci in combinations(range(ncols), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, int(determinant(sub)))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def gfp_rank(rows, p):
    """Oracle: rank over the field of p elements, p prime."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def unit_free(nrows, ncols, seed):
    """Entries from {0, +-2, +-3}: no unit pivot, as eliminate_units leaves."""
    rng = random.Random(seed)
    return [[rng.choice((0, 2, -2, 3, -3)) for _ in range(ncols)] for _ in range(nrows)]


def assert_is_smith_diagonal_of(diag, rows):
    """Check a full diagonal (1s included) against the rank over Q, the
    ranks over GF(p), the divisibility chain and |det|."""
    assert all(d > 0 for d in diag)
    assert len(diag) == fraction_rank(rows)
    for p in (2, 3, 5, 7):
        assert sum(1 for d in diag if d % p) == gfp_rank(rows, p)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    if len(rows) == len(rows[0]) == len(diag):
        product = 1
        for d in diag:
            product *= d
        assert product == abs(determinant(rows))


# naive Euclidean elimination grows these entries without bound; the
# factors are [1, 1, 1, 1, 2]
BLOWUP_7X5 = [
    [839, -381, 0, 41, -508],
    [-110, -960, -446, 0, -742],
    [-788, 0, 114, 137, 0],
    [0, 0, -369, -730, 870],
    [0, 0, 0, 640, 0],
    [819, -682, 0, -100, 1000],
    [0, 365, 0, 0, 0],
]


def signed_rectangular(seed):
    rng = random.Random(5000 + seed)
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
    return [[rng.choice((0, rng.randint(-1000, 1000))) for _ in range(ncols)]
            for _ in range(nrows)]


def test_deadline_interrupts_a_loop_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(TimeoutError):
        with deadline(0.05):
            while True:
                pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestFromColumns:
    def test_zero_entries_are_dropped(self):
        m = SparseIntMatrix.from_columns(3, [[(0, 3), (2, 0)], [(1, 0)]])
        assert (m.nrows, m.ncols) == (3, 2)
        assert m.rows == {0: {0: 3}}
        assert m.cols == {0: {0}}

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate entry at \(1, 0\)"):
            SparseIntMatrix.from_columns(2, [[(1, 2), (1, -1)]])


class TestSmithDiagonal:
    def test_known_2x2(self):
        assert smith_diagonal([[2, 4], [4, 6]]) == [2, 2]

    def test_diag_with_divisibility_fix(self):
        assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]

    def test_single_entry(self):
        assert smith_diagonal([[6]]) == [6]

    def test_zero_matrix(self):
        assert smith_diagonal([[0, 0], [0, 0]]) == []
        assert smith_diagonal([]) == []

    def test_identity(self):
        assert smith_diagonal([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_divisibility_chain_random(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            diag = smith_diagonal([row[:] for row in rows])
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_against_minor_gcds(self):
        rng = random.Random(13)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            diag = smith_diagonal([row[:] for row in rows])
            assert diag == minor_gcd_factors(rows)

    @pytest.mark.parametrize(
        "rows",
        [BLOWUP_7X5, [[2, 0, 0], [0, 2, 0], [0, 0, 3]]]
        + [signed_rectangular(seed) for seed in range(12)],
        ids=["blowup7x5", "diag223"] + [f"seed{seed}" for seed in range(12)],
    )
    def test_signed_rectangular_against_minor_gcds(self, rows):
        with deadline(2):
            diag = smith_diagonal([row[:] for row in rows])
        assert diag == minor_gcd_factors(rows)

    @pytest.mark.parametrize("shape", [(10, 10), (11, 13), (12, 12), (14, 12), (16, 16)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("seed", range(2))
    def test_unit_free_against_rank_oracles(self, shape, seed):
        rows = unit_free(*shape, 6000 + seed)
        with deadline(2):
            diag = smith_diagonal([row[:] for row in rows])
        assert_is_smith_diagonal_of(diag, rows)


class TestEliminateUnits:
    def test_unit_only_matrix_fully_eliminates(self):
        rows = [[1, 0, -1], [0, 1, 1], [1, 1, 0]]
        m = sparse_from_dense(rows)
        units, dense = eliminate_units(m)
        assert units == fraction_rank(rows)
        assert not dense or all(all(abs(v) != 1 for v in r) for r in dense)

    def test_remainder_has_no_units(self):
        rng = random.Random(99)
        for _ in range(30):
            rows = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(6)] for _ in range(5)]
            units, dense = eliminate_units(sparse_from_dense(rows))
            for r in dense:
                assert 1 not in r and -1 not in r

    def test_empty(self):
        units, dense = eliminate_units(SparseIntMatrix.from_columns(0, []))
        assert units == 0 and dense == []

    def test_pivot_rows_are_independent_and_count_the_units(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(6)] for _ in range(7)]
            m = sparse_from_dense(rows)
            units, _ = eliminate_units(m)
            assert len(m.pivot_rows) == units
            assert fraction_rank([rows[r] for r in m.pivot_rows]) == units

    def test_emptied_row_is_not_a_pivot(self):
        # pivoting on either of two equal rows empties the other
        m = sparse_from_dense([[1, -1, 0], [1, -1, 0]])
        units, dense = eliminate_units(m)
        assert (units, dense) == (1, [])
        assert len(m.pivot_rows) == 1 and m.pivot_rows[0] in (0, 1)

    def test_remainder_pivots_are_not_recorded(self):
        m = sparse_from_dense([[1, 1, 0], [0, 0, 2]])
        units, dense = eliminate_units(m)
        assert (units, dense) == (1, [[2]])
        assert m.pivot_rows == [0]

    @pytest.mark.parametrize("rows, first", [
        # units of column 0 in rows of 3 and 2 entries; row 2's 2 is no unit
        ([[1, 1, 1], [1, 0, 1], [2, 1, 0]], 1),
        # units of column 0 in rows 1 and 2, of 2 entries each
        ([[0, 1, 1], [1, 1, 0], [-1, 0, 1]], 1),
    ])
    def test_pivot_is_the_shortest_unit_row_then_the_lowest(self, rows, first):
        m = sparse_from_dense(rows)
        eliminate_units(m)
        assert m.pivot_rows[0] == first

    def test_a_unit_made_by_fill_in_a_swept_column_is_pivoted(self):
        # column 0 has no unit; pivoting on row 0 in column 1 leaves 3 - 2 = 1
        # in row 1, column 0, which a single sweep would leave as [[1]]
        m = sparse_from_dense([[2, 1], [3, 1]])
        assert eliminate_units(m) == (2, [])
        assert m.pivot_rows == [0, 1]

    def test_fill_stays_bounded_on_a_cube_boundary(self, htree):
        # the shortest unit row of each column writes 44,318 entries of the
        # unreduced boundary_2 at n=4, 3 pieces; the first unit row in set
        # order wrote 956,460
        class Counting(dict):
            writes = 0

            def __setitem__(self, key, value):
                Counting.writes += 1
                super().__setitem__(key, value)

        cx = build_complex(subdivide_edges(htree, 3), 4)
        m = boundary_matrix(cx, 2).to_sparse()
        m.rows = {r: Counting(row) for r, row in m.rows.items()}
        assert eliminate_units(m) == (3629, [])     # the rank of boundary_2
        assert Counting.writes <= 100_000


class TestRankAndFactors:
    @pytest.mark.parametrize("seed", range(20))
    def test_rank_matches_fraction_oracle(self, seed):
        rng = random.Random(seed)
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        r, _ = rank_and_factors(sparse_from_dense(rows))
        assert r == fraction_rank(rows)

    @pytest.mark.parametrize("seed", range(12))
    def test_factors_match_minor_gcds(self, seed):
        rng = random.Random(100 + seed)
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        _, factors = rank_and_factors(sparse_from_dense(rows))
        expect = [d for d in minor_gcd_factors(rows) if d != 1]
        assert factors == expect

    @pytest.mark.parametrize("seed", range(8))
    def test_invariant_under_unimodular_moves(self, seed):
        # row/column additions and swaps must not change rank or factors
        rng = random.Random(1000 + seed)
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        base = rank_and_factors(sparse_from_dense(rows))
        mixed = [row[:] for row in rows]
        for _ in range(12):
            a, b = rng.sample(range(len(mixed)), 2)
            f = rng.randint(-2, 2)
            mixed[a] = [x + f * y for x, y in zip(mixed[a], mixed[b])]
            c, d = rng.sample(range(5), 2)
            for row in mixed:
                row[c] += f * row[d]
        assert rank_and_factors(sparse_from_dense(mixed)) == base

    def test_torsion_two(self):
        # doubled circle boundary: H has Z/2
        rows = [[2], [0]]
        r, factors = rank_and_factors(sparse_from_dense(rows))
        assert (r, factors) == (1, [2])

    def test_wide_sparse(self):
        rows = [[1 if (i + j) % 3 == 0 else 0 for j in range(40)] for i in range(9)]
        r, _ = rank_and_factors(sparse_from_dense(rows))
        assert r == fraction_rank(rows)

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_on_larger_sparse_unit_matrices(self, seed):
        # the regime the cube boundaries live in: mostly empty, entries +-1
        rng = random.Random(3000 + seed)
        nrows, ncols = 60, 80
        rows = [[0] * ncols for _ in range(nrows)]
        for j in range(ncols):
            for i in rng.sample(range(nrows), rng.randint(2, 4)):
                rows[i][j] = rng.choice([1, -1])
        r, factors = rank_and_factors(sparse_from_dense(rows))
        assert r == fraction_rank(rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_with_planted_torsion(self, seed):
        # embed a diag(1, 2, 6) block inside sparse noise, then shuffle
        # unimodularly; the factors 2 and 6 must survive
        rng = random.Random(4000 + seed)
        size = 12
        rows = [[0] * size for _ in range(size)]
        rows[0][0], rows[1][1], rows[2][2] = 1, 2, 6
        base_rank = 3
        mixed = [row[:] for row in rows]
        for _ in range(40):
            a, b = rng.sample(range(size), 2)
            f = rng.randint(-1, 1)
            mixed[a] = [x + f * y for x, y in zip(mixed[a], mixed[b])]
            c, d = rng.sample(range(size), 2)
            for row in mixed:
                row[c] += f * row[d]
        r, factors = rank_and_factors(sparse_from_dense(mixed))
        assert r == base_rank
        assert factors == [2, 6]

    def test_unit_free_matrix_through_the_sparse_path(self):
        # no unit pivot: the whole matrix reaches smith_diagonal
        rows = unit_free(12, 12, 7000)
        with deadline(2):
            r, factors = rank_and_factors(sparse_from_dense(rows))
        assert_is_smith_diagonal_of([1] * (r - len(factors)) + factors, rows)


class TestChainHomology:
    """chain_homology on hand-built complexes; columns[d] lists the columns
    of boundary_d, and each request's skip set is recorded."""

    @staticmethod
    def run(counts, columns):
        requested = {}

        def boundary(d, skip):
            requested[d] = set(skip)
            kept = [col for j, col in enumerate(columns[d]) if j not in skip]
            return SparseIntMatrix.from_columns(counts[d - 1], kept)

        return chain_homology(counts, boundary), requested

    def test_disc_glued_twice_round_a_loop(self):
        # one vertex, one loop edge (boundary 0), one 2-cell with boundary 2
        (ranks, b, torsion), requested = self.run([1, 1, 1], {1: [[]], 2: [[(0, 2)]]})
        assert b == (1, 0)
        assert torsion == ((), (2,))
        assert ranks == (0, 1)
        assert requested == {2: set(), 1: set()}   # a non-unit pivot is never cleared

    def test_filled_triangle(self):
        # vertices 0, 1, 2; edges 01, 02, 12 oriented upward; face 01 - 02 + 12
        edges = [[(0, -1), (1, 1)], [(0, -1), (2, 1)], [(1, -1), (2, 1)]]
        face = [[(0, 1), (1, -1), (2, 1)]]
        (ranks, b, torsion), requested = self.run([3, 3, 1], {1: edges, 2: face})
        assert b == (1, 0)
        assert torsion == ((), ())
        assert ranks == (2, 1)
        assert requested[2] == set() and len(requested[1]) == 1

    def test_empty_dimensions_are_not_requested(self):
        # the one-cell complex of zero strands
        (ranks, b, torsion), requested = self.run([1, 0, 0, 0], {})
        assert (ranks, b, torsion) == ((0, 0, 0), (1, 0, 0), ((), (), ()))
        assert requested == {}
