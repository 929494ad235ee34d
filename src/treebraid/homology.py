"""Exact rank and invariant factors of sparse integer matrices.

The boundary matrices of the cube complexes handled here are large, very
sparse, and almost entirely made of +-1 entries.  The workhorse is a
sweep over the columns that pivots on unit entries only, in each column on
the shortest row holding one: adding integer multiples of the pivot row to
other rows is unimodular, and once the pivot column is clear the pivot row
can be removed with equally unimodular column operations that touch
nothing else.  Each such step contributes an invariant factor of 1.
Whatever survives (typically nothing) is diagonalized densely, pivoting
on a least entry until its row and column are clear; each pass either
shrinks the matrix or lowers the least entry, so this ends.  A gcd/lcm
pass over the diagonal then yields the invariant factors.  All arithmetic
is on Python ints, so growth can never overflow.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from math import gcd, lcm


class SparseIntMatrix:
    """Mutable sparse integer matrix stored by rows with a column index.

    ``rows[r]`` maps column -> nonzero value; ``cols[c]`` is the set of rows
    with a nonzero in column c.  Consumed destructively by ``eliminate_units``,
    which leaves the rows it pivoted on in ``pivot_rows``.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "pivot_rows")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        self.pivot_rows: list[int] = []

    @classmethod
    def from_columns(cls, nrows: int,
                     columns: Iterable[Iterable[tuple[int, int]]]) -> "SparseIntMatrix":
        m = cls(nrows, 0)
        rows = m.rows
        cols = m.cols
        c = -1
        for c, column in enumerate(columns):
            for r, v in column:
                if v == 0:
                    continue
                row = rows.get(r)
                if row is None:
                    row = rows[r] = {}
                if c in row:
                    raise ValueError(f"duplicate entry at ({r}, {c})")
                row[c] = v
                col = cols.get(c)
                if col is None:
                    col = cols[c] = set()
                col.add(r)
        m.ncols = c + 1
        return m

    def entry_count(self) -> int:
        return sum(len(row) for row in self.rows.values())


def eliminate_units(m: SparseIntMatrix) -> tuple[int, list[list[int]]]:
    """Unimodular unit-pivot elimination; returns (pivots done, dense rest).

    Sweeps the columns in order and, in each column with a +-1 entry,
    pivots on the shortest such row, the lowest-numbered on a tie: within
    one column that is the least Markowitz cost (len(row) - 1) *
    (len(col) - 1), a bound on the fill.  Fill can make a unit in a column
    already swept, so sweeps repeat until one finds no unit, and the
    returned dense remainder has no unit entries (usually it is empty).
    Destroys m, and records in ``m.pivot_rows`` the row of each unit pivot,
    in pivot order.  Rows merely emptied by elimination are not recorded, nor
    is anything the dense remainder later pivots on.  The pivot minor is
    unimodular, which is what makes these rows safe to clear.
    """
    rows = m.rows
    cols = m.cols
    m.pivot_rows = pivot_rows = []
    swept = -1
    while swept != len(pivot_rows):     # until a whole sweep finds no unit
        swept = len(pivot_rows)
        for c in sorted(cols):
            col_c = cols[c]
            pivot = min(((len(rows[s]), s) for s in col_c if rows[s][c] in (1, -1)),
                        default=None)
            if pivot is None:
                continue
            r = pivot[1]
            row_r = rows.pop(r)
            val = row_r[c]
            pivot_rows.append(r)
            for cc in row_r:
                cols[cc].discard(r)
            del cols[c]
            pivot_items = [(cc, v) for cc, v in row_r.items() if cc != c]
            for s in col_c:
                row_s = rows[s]
                factor = row_s.pop(c) * val    # val in {1,-1}: division == multiplication
                for cc, v in pivot_items:
                    cur = row_s.get(cc)
                    if cur is None:
                        row_s[cc] = -factor * v
                        cols[cc].add(s)
                    else:
                        nv = cur - factor * v
                        if nv:
                            row_s[cc] = nv
                        else:
                            del row_s[cc]
                            cols[cc].discard(s)
                if not row_s:
                    del rows[s]

    # pack the remainder densely
    left_rows = sorted(rows)
    left_cols = sorted({c for row in rows.values() for c in row})
    col_pos = {c: j for j, c in enumerate(left_cols)}
    dense = []
    for r in left_rows:
        line = [0] * len(left_cols)
        for c, v in rows[r].items():
            line[col_pos[c]] = v
        dense.append(line)
    return len(pivot_rows), dense


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of a dense matrix.

    Returned entries are positive and each divides the next.  Modifies mat.

    Each pass drops the zero rows and pivots on an entry p of least absolute
    value, the first such in (row, column) order.  It reduces every other
    entry of p's column, then of p's row, modulo p.  If that clears the
    cross, |p| is recorded and its row and column deleted; otherwise a
    nonzero remainder, smaller than |p|, is left, and the next pass pivots
    on it.  Each pass thus shrinks the matrix or lowers the least nonzero
    entry, a positive integer, so the loop ends.  Replacing each
    pair (d_i, d_j), i < j, of the diagonal by (gcd, lcm) then sorts each
    prime's exponents, which puts the factors in divisibility order.

    On cube-complex boundaries this only ever sees what ``eliminate_units``
    leaves behind, and that remainder was empty on every input measured
    (the five test trees of the acceptance suite, up to n=4).  The path is
    kept for inputs where it is not, and the homology tests exercise it
    directly.
    """
    diag = []
    while True:
        mat[:] = [row for row in mat if any(row)]
        if not mat:
            break
        _, i, j = min((abs(v), i, j) for i, row in enumerate(mat)
                      for j, v in enumerate(row) if v)
        top = mat[i]
        p = top[j]
        for row in mat:
            q = row[j] // p
            if q and row is not top:
                row[:] = [a - q * b for a, b in zip(row, top)]
        for c, v in enumerate(top):
            q = v // p
            if q and c != j:
                for row in mat:
                    row[c] -= q * row[j]
        if sum(map(bool, top)) > 1 or any(row[j] for row in mat if row is not top):
            continue
        diag.append(abs(p))
        del mat[i]
        for row in mat:
            del row[j]
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            diag[a], diag[b] = gcd(diag[a], diag[b]), lcm(diag[a], diag[b])
    return diag


def rank_and_factors(m: SparseIntMatrix) -> tuple[int, list[int]]:
    """(rank over Q, invariant factors != 1) of an integer matrix; destroys m."""
    units, dense = eliminate_units(m)
    diag = smith_diagonal(dense)
    return units + len(diag), [d for d in diag if d != 1]


def chain_homology(
    counts: Sequence[int], boundary: Callable[[int, set[int]], SparseIntMatrix]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(ranks, betti, torsion) of a chain complex with counts[d] cells in
    dimension d = 0..top: the rank of each boundary_d, d = 1..top, the
    Betti numbers b_0..b_{top-1}, and the invariant factors != 1 of each
    H_d, d = 0..top-1.  boundary(d, skip) is the matrix of boundary_d, its
    columns in cell order but leaving out every d-cell whose index is in
    skip; rows keep the (d-1)-cell indices.

    b_d = #cells_d - rank(boundary_d) - rank(boundary_{d+1}); ranks are
    over the rationals but computed by integer elimination, so the same
    pass yields the invariant factors.

    The boundaries are reduced from the top down with clearing (Chen and
    Kerber, Persistent homology computation with a twist, 2011): a d-cell
    that was a unit pivot row of boundary_{d+1} has its column left out of
    boundary_d.  The pivot minor A of boundary_{d+1} is unimodular, and
    boundary_d * boundary_{d+1} = 0 makes the cleared columns equal to
    -(remaining columns) * boundary_{d+1}[rest, pivots] * A^-1, an integer
    combination of the columns kept; rank and invariant factors survive.
    """
    top = len(counts) - 1
    ranks = [0] * top
    torsion: list[tuple[int, ...]] = [()] * top
    cleared: set[int] = set()
    for d in range(top, 0, -1):
        if not counts[d]:
            continue
        sparse = boundary(d, cleared)
        r, factors = rank_and_factors(sparse)
        ranks[d - 1] = r
        torsion[d - 1] = tuple(factors)
        cleared = set(sparse.pivot_rows)
        del sparse      # free its emptied tables before the next boundary is built
    # ranks[d] is the rank of boundary_{d+1}, and torsion[d], the torsion of
    # boundary_{d+1}, is that of H_d
    bettis = tuple(counts[d] - (ranks[d - 1] if d else 0) - ranks[d] for d in range(top))
    return tuple(ranks), bettis, tuple(torsion)
