"""Exact rank and invariant factors of sparse integer matrices.

The boundary matrices of the cube complexes handled here are large, very
sparse, and almost entirely made of +-1 entries.  The workhorse is a
greedy Markowitz elimination restricted to unit pivots: adding integer
multiples of the pivot row to other rows is unimodular, and once the pivot
column is clear the pivot row can be removed with equally unimodular
column operations that touch nothing else.  Each such step contributes an
invariant factor of 1; whatever survives (typically nothing) is finished
off by a dense Smith normal form.  All arithmetic is on Python ints, so
pivot growth can never overflow.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from heapq import heapify, heappop, heappush


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

    Pivots are chosen greedily by Markowitz cost (fill bound) among entries
    of value +-1, via a lazy heap: stale records are re-validated on pop.
    The returned dense remainder has no unit entries (usually it is empty).
    Destroys m, and records in ``m.pivot_rows`` the row of each unit pivot,
    in pivot order.  Rows merely emptied by elimination are not recorded, nor
    is anything the dense remainder later pivots on.  The pivot minor is
    unimodular, which is what makes these rows safe to clear.
    """
    rows = m.rows
    cols = m.cols
    heap = [
        ((len(row) - 1) * (len(cols[c]) - 1), r, c)
        for r, row in rows.items()
        for c, v in row.items()
        if v == 1 or v == -1
    ]
    heapify(heap)
    m.pivot_rows = pivot_rows = []
    while heap:
        cost, r, c = heappop(heap)
        row_r = rows.get(r)
        if row_r is None:
            continue
        val = row_r.get(c)
        if val is None or (val != 1 and val != -1):
            continue
        col_c = cols[c]
        current = (len(row_r) - 1) * (len(col_c) - 1)
        if current > cost:
            heappush(heap, (current, r, c))
            continue

        pivot_rows.append(r)
        del rows[r]
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
                    nv = -factor * v
                    row_s[cc] = nv
                    cols[cc].add(s)
                else:
                    nv = cur - factor * v
                    if nv == 0:
                        del row_s[cc]
                        cols[cc].discard(s)
                        continue
                    row_s[cc] = nv
                if nv == 1 or nv == -1:
                    heappush(heap, ((len(row_s) - 1) * (len(cols[cc]) - 1), s, cc))
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


def _smallest_nonzero(mat: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    best_abs = None
    for i in range(t, len(mat)):
        row = mat[i]
        for j in range(t, len(row)):
            v = row[j]
            if v and (best_abs is None or abs(v) < best_abs):
                best = (i, j)
                best_abs = abs(v)
                if best_abs == 1:
                    return best
    return best


def _clear_cross(mat: list[list[int]], t: int) -> None:
    """Zero out column t below and row t right of the pivot at (t, t).

    Classic Euclidean sweep: reduce every cross entry modulo the pivot,
    swap any nonzero remainder (strictly smaller) into the pivot slot, and
    repeat; |pivot| strictly decreases between passes, so this terminates.
    """
    nrows = len(mat)
    ncols = len(mat[0])
    while True:
        clean = True
        for i in range(t + 1, nrows):
            if mat[i][t]:
                q = mat[i][t] // mat[t][t]
                if q:
                    for jj in range(t, ncols):
                        mat[i][jj] -= q * mat[t][jj]
                if mat[i][t]:
                    mat[t], mat[i] = mat[i], mat[t]
                    clean = False
        for j in range(t + 1, ncols):
            if mat[t][j]:
                q = mat[t][j] // mat[t][t]
                if q:
                    for ii in range(t, nrows):
                        mat[ii][j] -= q * mat[ii][t]
                if mat[t][j]:
                    for row in mat:
                        row[t], row[j] = row[j], row[t]
                    clean = False
        if clean:
            return


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form of a dense matrix.

    Returned entries are positive and each divides the next.  Modifies mat.

    On cube-complex boundaries this only ever sees what ``eliminate_units``
    leaves behind, and that remainder was empty on every input measured
    (the five test trees of the acceptance suite, up to n=4).  The path is
    kept for inputs where it is not, and the homology tests exercise it
    directly.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    diag = []
    t = 0
    while t < nrows and t < ncols:
        pos = _smallest_nonzero(mat, t)
        if pos is None:
            break
        i, j = pos
        mat[t], mat[i] = mat[i], mat[t]
        if j != t:
            for row in mat:
                row[t], row[j] = row[j], row[t]
        _clear_cross(mat, t)

        # invariant-factor condition: pivot must divide the trailing block
        pivot = mat[t][t]
        offender = None
        for i in range(t + 1, nrows):
            row = mat[i]
            for j in range(t + 1, ncols):
                if row[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for jj in range(t, ncols):
                mat[t][jj] += mat[offender][jj]
            _clear_cross(mat, t)    # gcd step: |pivot| strictly shrinks
            continue                # recheck divisibility with the new pivot
        diag.append(abs(pivot))
        t += 1
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
