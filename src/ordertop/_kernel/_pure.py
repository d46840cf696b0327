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

A matrix arrives in compressed columns (``homology.SparseMatrix``) and stays
in its arrays; ``cleared`` is an int64 array of its columns, the pivot rows
of the degree before, or an empty one.  The apparent pivots are three
arrays: their lows ascending, the column of each, and the other columns.
Only the other columns, and the pivot columns they meet, are sliced out of
the arrays; a column becomes a dict (over Z) or a bitset (over Z/2) only
when its turn comes, and an apparent pivot's low is looked up by
``searchsorted`` and its column unpacked the first time some column is
reduced against it.  When there are no other columns, the loops run zero
times and the pivot rows are the lows, with no Python object made per entry.
That is every degree of the generated partition lattices, Boolean lattices
and exp_discrete posets under their own labels (``posets._chain_levels``);
the same posets under random labels leave some hundreds of columns to the
loops.

The names ``eliminate_unit_pivots`` and ``rank_mod2`` are the kernel entry
points the benchmark tracer wraps.
"""

from __future__ import annotations

import numpy as np

_NO_ROWS = np.empty(0, dtype=np.int64)


def _apparent_pivots(
    ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray | None, cleared: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the nonempty columns that are not ``cleared`` (an int64 array
    of column indices) into apparent pivots and the rest.

    Returns ``(lows, owners, rest)``: the apparent pivots' low rows
    ascending, the column that owns each, and the other columns ascending.
    A column is an apparent pivot when no earlier one of these columns has
    the same initial low and, unless ``vals`` is None (over Z/2), that low
    entry is +-1.
    """
    ends = ptr[1:]
    active = ends > ptr[:-1]
    active[cleared] = False
    cols = np.flatnonzero(active)
    last = ends[cols] - 1
    lows, first = np.unique(rows[last], return_index=True)
    if vals is not None:
        unit = np.abs(vals[last[first]]) == 1
        lows, first = lows[unit], first[unit]
    rest = np.ones(len(cols), dtype=bool)
    rest[first] = False
    return lows, cols[first], cols[rest]


def _owner(lows: np.ndarray, owners: np.ndarray, row: int) -> int | None:
    """The apparent pivot column whose low is ``row``, or None."""
    i = int(lows.searchsorted(row))
    return int(owners[i]) if i < len(lows) and lows[i] == row else None


def _subtract(col: dict[int, int], q: int, piv: dict[int, int]) -> None:
    """col -= q * piv, dropping entries that become zero."""
    for r, v in piv.items():
        nv = col.get(r, 0) - q * v
        if nv:
            col[r] = nv
        else:
            del col[r]  # nv == 0 needs r in col, since q and v are nonzero


def eliminate_unit_pivots(m, cleared: np.ndarray = _NO_ROWS) -> tuple[int, list, np.ndarray]:
    """Split a sparse integer matrix into unit pivots and a small residual.

    ``m`` is a ``homology.SparseMatrix``.  Only column operations are used,
    and a column becomes a pivot only when its low entry is +-1.  A column
    whose low is not a unit is set aside; once every pivot is known it is
    reduced against them until it is zero on all pivot rows.  Returns
    ``(units, residual, pivot rows)``: the invariant factors of the matrix
    (without the ``cleared`` columns) are ``[1] * units`` followed by those
    of the ``residual`` (row, col, value) triples, because the pivot block is
    unimodular and the residual columns vanish on its rows.  The pivot rows
    are an int64 array.
    """
    lows, owners, rest = _apparent_pivots(m.ptr, m.rows, m.vals, cleared)

    def column(c: int) -> dict[int, int]:
        start, stop = m.ptr[c], m.ptr[c + 1]
        return dict(zip(m.rows[start:stop].tolist(), m.vals[start:stop].tolist()))

    def pivot(low: int) -> dict[int, int] | None:
        """The pivot column on row ``low``, unpacking an apparent one."""
        piv = pivots.get(low)
        if piv is None:
            a = _owner(lows, owners, low)
            if a is not None:
                piv = pivots[low] = column(a)
        return piv

    pivots: dict[int, dict[int, int]] = {}  # low row -> column, +-1 there
    found: list[int] = []  # the pivot rows that are not apparent
    set_aside: list[tuple[int, dict[int, int]]] = []
    for c in rest.tolist():
        col = column(c)
        while col:
            low = max(col)
            piv = pivot(low)
            if piv is None:
                if col[low] in (1, -1):
                    pivots[low] = col
                    found.append(low)
                else:
                    set_aside.append((c, col))
                break
            _subtract(col, col[low] * piv[low], piv)

    residual = []
    for c, col in set_aside:
        while hits := [r for r in col if r in pivots or _owner(lows, owners, r) is not None]:
            low = max(hits)
            piv = pivot(low)
            _subtract(col, col[low] * piv[low], piv)
        residual += [(r, c, v) for r, v in col.items()]
    pivot_rows = np.concatenate((lows, np.array(found, dtype=np.int64)))
    return len(pivot_rows), sorted(residual), pivot_rows


def rank_mod2(m, cleared: np.ndarray = _NO_ROWS) -> tuple[int, list, np.ndarray]:
    """Rank over Z/2 of a ``homology.SparseMatrix`` (without the ``cleared``
    columns), as ``(rank, [], pivot rows)``, the pivot rows an int64 array.
    Unless every entry is +-1, the odd entries are picked by one mask; each
    column is packed into a Python integer, bit r for row r, only when its
    turn comes, so at most the pivots are held as bitsets."""
    ptr, rows, vals = m.ptr, m.rows, m.vals
    if len(vals) and (vals.min() < -1 or vals.max() > 1):
        odd = vals % 2 != 0
        ptr = np.concatenate(([0], np.cumsum(odd)))[ptr]
        rows = rows[odd]
    lows, owners, rest = _apparent_pivots(ptr, rows, None, cleared)

    def bitset(c: int) -> int:
        col = 0
        for r in rows[ptr[c] : ptr[c + 1]].tolist():
            col |= 1 << r
        return col

    pivots: dict[int, int] = {}  # low row -> pivot column as a bitset
    found: list[int] = []  # the pivot rows that are not apparent
    for c in rest.tolist():
        col = bitset(c)
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                a = _owner(lows, owners, low)
                if a is None:
                    pivots[low] = col
                    found.append(low)
                    break
                piv = pivots[low] = bitset(a)
            col ^= piv
    pivot_rows = np.concatenate((lows, np.array(found, dtype=np.int64)))
    return len(pivot_rows), [], pivot_rows
