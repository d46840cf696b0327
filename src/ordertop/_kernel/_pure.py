"""Exact column reduction over Z and Z/2, with clearing and apparent pivots.

Both entry points reduce the columns of a sparse matrix left to right: each
column is reduced against the pivot columns until its lowest nonzero row (its
"low") is a row no pivot owns.  ``reduced_homology`` calls them once per
degree on the coboundaries, degree 0 upward, and passes the pivot rows found
in one degree as ``cleared`` columns of the next (the clearing or "twist"
trick of Chen-Kerber, *Persistent homology computation with a twist*, 2011).
A cleared column never has to be reduced: over Z/2 it is a combination of the
other columns, and over Z it is an integer one because only +-1 lows become
pivots.  Both return ``(units, residual, pivot rows)``, the residual empty
over Z/2 and the pivot rows the ``cleared`` of the next degree.

Before any reduction, one array pass finds the apparent pivots (Bauer,
*Ripser*, J. Appl. Comput. Topol. 2021): the first active column with a given
initial low owns that row, over Z only when its low entry is +-1.  No column
has to be reduced to find them, so only the other columns run the Python
loop.  Taking pivots out of left-to-right order is still a sequence of
unimodular column operations, since a pivot column is never changed.

A matrix arrives in compressed columns (``homology.SparseMatrix``); each of
its arrays is read once into a Python list, and a column becomes a dict (over
Z) or a bitset (over Z/2) only when its turn comes.  An apparent pivot stays
a column index in ``apparent`` until some column is first reduced against
it; it then moves, unpacked, to ``pivots``.

The names ``eliminate_unit_pivots`` and ``rank_mod2`` are the kernel entry
points the benchmark tracer wraps.
"""

from __future__ import annotations

from typing import Collection

import numpy as np


def _apparent_pivots(
    ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray | None, cleared: Collection[int]
) -> tuple[dict[int, int], list[int]]:
    """Split the nonempty columns that are not ``cleared`` into apparent
    pivots and the rest.

    Returns ``({low row: column}, other columns ascending)``.  A column is an
    apparent pivot when no earlier one of these columns has the same initial
    low and, unless ``vals`` is None (over Z/2), that low entry is +-1.
    """
    ends = ptr[1:]
    active = ends > ptr[:-1]
    if cleared:
        active[np.fromiter(cleared, np.int64, len(cleared))] = False
    cols = np.flatnonzero(active)
    last = ends[cols] - 1
    lows, first = np.unique(rows[last], return_index=True)
    if vals is not None:
        unit = np.abs(vals[last[first]]) == 1
        lows, first = lows[unit], first[unit]
    rest = np.ones(len(cols), dtype=bool)
    rest[first] = False
    return dict(zip(lows.tolist(), cols[first].tolist())), cols[rest].tolist()


def _subtract(col: dict[int, int], q: int, piv: dict[int, int]) -> None:
    """col -= q * piv, dropping entries that become zero."""
    for r, v in piv.items():
        nv = col.get(r, 0) - q * v
        if nv:
            col[r] = nv
        else:
            del col[r]  # nv == 0 needs r in col, since q and v are nonzero


def eliminate_unit_pivots(m, cleared: Collection[int] = ()) -> tuple[int, list, list[int]]:
    """Split a sparse integer matrix into unit pivots and a small residual.

    ``m`` is a ``homology.SparseMatrix``.  Only column operations are used,
    and a column becomes a pivot only when its low entry is +-1.  A column
    whose low is not a unit is set aside; once every pivot is known it is
    reduced against them until it is zero on all pivot rows.  Returns
    ``(units, residual, pivot rows)``: the invariant factors of the matrix
    (without the ``cleared`` columns) are ``[1] * units`` followed by those
    of the ``residual`` (row, col, value) triples, because the pivot block is
    unimodular and the residual columns vanish on its rows.
    """
    ptr, rows, vals = m.ptr.tolist(), m.rows.tolist(), m.vals.tolist()

    def column(c: int) -> dict[int, int]:
        return dict(zip(rows[ptr[c] : ptr[c + 1]], vals[ptr[c] : ptr[c + 1]]))

    # low row -> pivot column, +-1 there
    apparent, rest = _apparent_pivots(m.ptr, m.rows, m.vals, cleared)
    pivots: dict[int, dict[int, int]] = {}
    set_aside: list[tuple[int, dict[int, int]]] = []
    for c in rest:
        col = column(c)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                a = apparent.pop(low, None)
                if a is None:
                    if col[low] in (1, -1):
                        pivots[low] = col
                    else:
                        set_aside.append((c, col))
                    break
                piv = pivots[low] = column(a)
            _subtract(col, col[low] * piv[low], piv)

    residual = []
    for c, col in set_aside:
        while hits := [r for r in col if r in pivots or r in apparent]:
            low = max(hits)
            piv = pivots.get(low)
            if piv is None:
                piv = pivots[low] = column(apparent.pop(low))
            _subtract(col, col[low] * piv[low], piv)
        residual += [(r, c, v) for r, v in col.items()]
    return len(pivots) + len(apparent), sorted(residual), [*pivots, *apparent]


def rank_mod2(m, cleared: Collection[int] = ()) -> tuple[int, list, list[int]]:
    """Rank over Z/2 of a ``homology.SparseMatrix`` (without the ``cleared``
    columns), as ``(rank, [], pivot rows)``.  The odd entries are picked by
    one mask, and each column is packed into a Python integer, bit r for row
    r, only when its turn comes, so at most the pivots are held as bitsets."""
    odd = (m.vals % 2).astype(bool)
    odd_ptr = np.concatenate(([0], np.cumsum(odd)))[m.ptr]
    odd_rows = m.rows[odd]
    ptr, rows = odd_ptr.tolist(), odd_rows.tolist()

    def bitset(c: int) -> int:
        col = 0
        for r in rows[ptr[c] : ptr[c + 1]]:
            col ^= 1 << r
        return col

    # low row -> pivot column as a bitset
    apparent, rest = _apparent_pivots(odd_ptr, odd_rows, None, cleared)
    pivots: dict[int, int] = {}
    for c in rest:
        col = bitset(c)
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                a = apparent.pop(low, None)
                if a is None:
                    pivots[low] = col
                    break
                piv = pivots[low] = bitset(a)
            col ^= piv
    return len(pivots) + len(apparent), [], [*pivots, *apparent]
