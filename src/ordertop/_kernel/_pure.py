"""Exact column reduction over Z and Z/2, with clearing.

Both entry points reduce the columns of a sparse matrix left to right: each
column is reduced against the earlier pivot columns until its lowest nonzero
row (its "low") is a row no earlier pivot owns.  ``reduced_homology`` calls
them once per degree, top dimension down, and passes the pivot rows found in
degree k+1 as ``cleared`` columns of degree k (the clearing or "twist" trick
of Chen-Kerber, *Persistent homology computation with a twist*, 2011).  A
cleared column never has to be reduced: over Z/2 it is a combination of the
other columns, and over Z it is an integer one because only +-1 lows become
pivots.  When ``pivot_rows`` is a list, the pivot rows found are appended.

The names ``eliminate_unit_pivots`` and ``rank_mod2`` are the kernel entry
points the benchmark tracer wraps.
"""

from __future__ import annotations

from typing import Collection, Iterable


def _check(r: int, c: int, n_rows: int, n_cols: int) -> None:
    if not 0 <= r < n_rows or not 0 <= c < n_cols:
        raise ValueError(f"entry ({r}, {c}) outside a {n_rows} x {n_cols} matrix")


def _subtract(col: dict[int, int], q: int, piv: dict[int, int]) -> None:
    """col -= q * piv, dropping entries that become zero."""
    for r, v in piv.items():
        nv = col.get(r, 0) - q * v
        if nv:
            col[r] = nv
        else:
            del col[r]  # nv == 0 needs r in col, since q and v are nonzero


def eliminate_unit_pivots(
    n_rows: int,
    n_cols: int,
    entries: Iterable[tuple[int, int, int]],
    cleared: Collection[int] = (),
    pivot_rows: list[int] | None = None,
) -> tuple[int, list[tuple[int, int, int]]]:
    """Split a sparse integer matrix into unit pivots and a small residual.

    Duplicate (row, col) entries are summed.  Only column operations are
    used, and a column becomes a pivot only when its low entry is +-1.  A
    column whose low is not a unit is set aside; once every pivot is known it
    is reduced against them until it is zero on all pivot rows.  Returns
    ``(unit_count, residual)``: the invariant factors of the matrix (without
    the ``cleared`` columns) are ``[1] * unit_count`` followed by those of the
    ``residual`` entries, because the pivot block is unimodular and the
    residual columns vanish on its rows.
    """
    cols: dict[int, dict[int, int]] = {}
    for r, c, v in entries:
        _check(r, c, n_rows, n_cols)
        if v and c not in cleared:
            col = cols.setdefault(c, {})
            col[r] = col.get(r, 0) + v

    pivots: dict[int, dict[int, int]] = {}  # low row -> pivot column, +-1 there
    set_aside: list[tuple[int, dict[int, int]]] = []
    for c in sorted(cols):
        col = cols.pop(c)
        if 0 in col.values():
            col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                if col[low] in (1, -1):
                    pivots[low] = col
                else:
                    set_aside.append((c, col))
                break
            _subtract(col, col[low] * piv[low], piv)

    residual = []
    for c, col in set_aside:
        while hits := [r for r in col if r in pivots]:
            low = max(hits)
            piv = pivots[low]
            _subtract(col, col[low] * piv[low], piv)
        residual += [(r, c, v) for r, v in col.items()]
    if pivot_rows is not None:
        pivot_rows += pivots
    return len(pivots), sorted(residual)


def rank_mod2(
    n_rows: int,
    n_cols: int,
    entries: Iterable[tuple[int, int, int]],
    cleared: Collection[int] = (),
    pivot_rows: list[int] | None = None,
) -> int:
    """Rank over Z/2 of a sparse integer matrix (without the ``cleared``
    columns).  Each column is packed into a Python integer, bit r for row r,
    only when its turn comes, so at most the pivots are held as bitsets."""
    col_rows: dict[int, list[int]] = {}
    for r, c, v in entries:
        _check(r, c, n_rows, n_cols)
        if v & 1 and c not in cleared:
            col_rows.setdefault(c, []).append(r)

    pivots: dict[int, int] = {}  # low row -> pivot column
    for c in sorted(col_rows):
        col = 0
        for r in col_rows.pop(c):
            col ^= 1 << r
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            col ^= piv
    if pivot_rows is not None:
        pivot_rows += pivots
    return len(pivots)
