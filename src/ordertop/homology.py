"""Exact reduced simplicial homology over Z and Z/2 via Smith normal form.

Chain complexes are augmented: degree -1 carries the empty simplex, so the
empty complex reports one unit of homology in degree -1 and all conventions
for joins and suspensions of the empty complex compose correctly.  The stage
runs from the face table to the invariant factors in these steps.

Face table to compressed columns.  Every matrix is a ``SparseMatrix`` in
compressed columns (``ptr``, ``rows``, ``vals``), the layout of PHAT
(Bauer-Kerber-Reininghaus-Wagner, J. Symb. Comput. 2017).
``ChainComplex.from_complex`` builds d_k from the face table of
``ordertop.complexes`` with array operations only.

d o d pairing.  The ``ChainComplex`` constructor checks d_k o d_{k+1} = 0
for every consecutive pair on the same arrays, exactly.  The check first
pairs the terms of every column of the product: dropping two vertices in
either order reaches the same face with opposite signs, so when every pair
has equal rows and negated products the product is zero, with no array as
long as all of its terms (``_pairs_cancel``).  This decides every pair that
``from_complex`` builds.  Any other pair is multiplied out one column at a
time in Python integers.

Coboundary.  ``reduced_homology`` reduces the coboundaries d_k^T, degree 0
upward.  Each has its rows and columns numbered backwards, so the low of a
column, its lowest nonzero row, is its lexicographically first coface.  A
``Coboundary`` reads those lows off the rows of d_k: one ``np.minimum.at``
over the entry positions finds the first column of d_k that holds each
row.  The matrix itself (``_coboundary``, one in-place sort of the unique
int64 keys row * nnz + entry) is built only for a degree that leaves some
column to the reducer.

Apparent pivots.  Before any reduction, one array pass over the lows finds
the apparent pivots (Bauer, *Ripser*, J. Appl. Comput. Topol. 2021): the
first active column with a given low owns that row, over Z only when its
low entry is +-1 (``_apparent_pivots``).  No column has to be reduced to
find them.  Taking pivots out of left-to-right order is still a sequence of
unimodular column operations, since a pivot column is never changed.

Clearing.  The pivot rows found in one degree are the ``cleared`` columns
of the next (the "twist" of Chen-Kerber, *Persistent homology computation
with a twist*, 2011).  A cleared column never has to be reduced: over Z/2 it
is a combination of the other columns, and over Z it is an integer one
because only +-1 lows become pivots.

Reducer.  ``eliminate_unit_pivots`` (over Z) and ``rank_mod2`` (over Z/2)
take a ``SparseMatrix`` or a ``Coboundary`` and reduce the columns that are
neither apparent pivots nor cleared, left to right, each against the pivot
columns until its low is a row no pivot owns.  Both return ``(units,
residual, pivot rows)``, the residual empty over Z/2 and the pivot rows an
int64 array.  Only those columns, and the pivot columns they meet, are
sliced out of the arrays; a column becomes a dict (over Z) or a bitset
(over Z/2) only when its turn comes.  When there are no such columns, the
pivot rows are the apparent lows: no Python object is made per entry, and
a ``Coboundary`` is never built.  That is every degree of the order
complexes of the generated partition lattices, Boolean lattices and
exp_discrete posets, under their own labels and shuffled ones, numbered by
``posets._chain_table``; a complex given by its facets, numbered in sorted
label order, may leave columns (the boundary of the cyclic 6-polytope on 14
vertices leaves 45).  The benchmark
tracer wraps both reducers by replacing these module globals, so every
caller reads them from the module when it runs and none binds them under
another name at import.

Dense SNF.  Over Z the residual goes to ``_dense_snf``, which pivots on
entries of least absolute value and ends with one (gcd, lcm) pass over the
diagonal.  ``smith_normal_form`` and ``invariant_factors`` run the Z reducer
on a single matrix, untransposed and without clearing.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

import numpy as np

from .complexes import FaceTable, SimplicialComplex
from .posets import BoundedPoset, PosetError

Z = "Z"
Z2 = "Z/2"
_COEFF_ALIASES = {"z": Z, "Z": Z, "z2": Z2, "Z2": Z2, "Z/2": Z2, "z/2": Z2}
_INT64_MAX = int(np.iinfo(np.int64).max)
_NO_ROWS = np.empty(0, dtype=np.int64)


class HomologyError(ValueError):
    """Inconsistent chain data or invalid coefficient ring."""


def normalize_coeff(coeff: str) -> str:
    try:
        return _COEFF_ALIASES[coeff]
    except KeyError:
        raise HomologyError(f"unknown coefficient ring {coeff!r}; use Z or Z/2") from None


def _int_array(values: Sequence[int]) -> np.ndarray:
    """int64 when every value fits, else an object array of Python ints."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _max_abs(vals: np.ndarray) -> int:
    return max(int(vals.max()), -int(vals.min())) if len(vals) else 0


class SparseMatrix:
    """Integer matrix in compressed columns.

    The entries of column c are ``rows[ptr[c]:ptr[c+1]]`` (strictly
    ascending) with values ``vals[ptr[c]:ptr[c+1]]`` (nonzero).  ``vals`` is
    int8 for the +-1 signs of ``ChainComplex.from_complex``; a matrix from
    entries stores int64 when every value fits and an object array of Python
    ints otherwise.  The reducers read values through ``tolist()``, so they
    compute in Python integers whatever the dtype.  The constructor checks
    the layout, so a matrix is always duplicate-free, zero-free and inside
    its shape.  Triples and dense lists enter through ``from_entries`` and
    ``from_dense``.
    """

    __slots__ = ("n_rows", "n_cols", "ptr", "rows", "vals")

    def __init__(
        self, n_rows: int, n_cols: int, ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray
    ):
        nnz = len(rows)
        if n_rows < 0 or n_cols < 0:
            raise HomologyError(f"negative matrix shape {n_rows}x{n_cols}")
        if len(ptr) != n_cols + 1 or ptr[0] != 0 or ptr[-1] != nnz or len(vals) != nnz:
            raise HomologyError("column pointers do not match the entries")
        if nnz:
            if (np.diff(ptr) < 0).any():
                raise HomologyError("column pointers are not ascending")
            low, high = int(rows.min()), int(rows.max())
            if low < 0 or high >= n_rows:
                bad = low if low < 0 else high
                raise HomologyError(f"row {bad} lies outside a {n_rows}x{n_cols} matrix")
            column_start = np.zeros(nnz, dtype=bool)
            column_start[ptr[:-1][ptr[:-1] < nnz]] = True
            if not ((np.diff(rows) > 0) | column_start[1:]).all():
                raise HomologyError("rows are not strictly ascending within a column")
            if np.count_nonzero(vals) != nnz:
                raise HomologyError("stored entries must be nonzero")
        self.n_rows, self.n_cols = n_rows, n_cols
        self.ptr, self.rows, self.vals = ptr, rows, vals

    @classmethod
    def from_entries(
        cls, n_rows: int, n_cols: int, entries: Iterable[tuple[int, int, int]]
    ) -> "SparseMatrix":
        """Matrix from (row, col, value) triples; duplicates are summed."""
        acc: dict[tuple[int, int], int] = {}
        for r, c, v in entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise HomologyError(f"entry ({r}, {c}) lies outside a {n_rows}x{n_cols} matrix")
            acc[c, r] = acc.get((c, r), 0) + int(v)
        cells = sorted(cell for cell, v in acc.items() if v)
        ptr = np.zeros(n_cols + 1, dtype=np.int64)
        cols = np.array([c for c, _ in cells], dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n_cols), out=ptr[1:])
        rows = np.array([r for _, r in cells], dtype=np.int64)
        return cls(n_rows, n_cols, ptr, rows, _int_array([acc[cell] for cell in cells]))

    @classmethod
    def from_dense(cls, data: Sequence[Sequence[int]]) -> "SparseMatrix":
        rows = [list(row) for row in data]
        n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise HomologyError("ragged matrix input")
        entries = ((r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v)
        return cls.from_entries(len(rows), n_cols, entries)

    @property
    def entries(self) -> "Entries":
        """Read-only view of the (row, col, value) triples, column by column."""
        return Entries(self)

    def lows(self) -> tuple[np.ndarray, np.ndarray]:
        """The low row of every column, its last (``rows[ptr[1:] - 1]``), or
        -1 for an empty column, and the value there (0 for an empty one)."""
        ends = self.ptr[1:]
        filled = ends > self.ptr[:-1]
        last = ends[filled] - 1
        return _spread(filled, self.rows[last], -1), _spread(filled, self.vals[last], 0)

    def odd(self) -> "SparseMatrix":
        """The matrix over Z/2: the entries with odd values, or the matrix
        itself when every value is +-1."""
        vals = self.vals
        if not len(vals) or (vals.min() >= -1 and vals.max() <= 1):
            return self
        odd = vals % 2 != 0
        ptr = np.concatenate(([0], np.cumsum(odd)))[self.ptr]
        return SparseMatrix(self.n_rows, self.n_cols, ptr, self.rows[odd], vals[odd])


def _spread(filled: np.ndarray, values: np.ndarray, blank: int) -> np.ndarray:
    """An array over the bool array ``filled``: ``values`` in order where it
    is True, ``blank`` elsewhere."""
    out = np.full(len(filled), blank, dtype=values.dtype)
    out[filled] = values
    return out


class Entries:
    """The (row, col, value) triples of a ``SparseMatrix``.  The length is
    the stored entry count; the triples are made only when read."""

    __slots__ = ("_m",)

    def __init__(self, m: SparseMatrix):
        self._m = m

    def __len__(self) -> int:
        return len(self._m.rows)

    def __iter__(self):
        m = self._m
        cols = np.repeat(np.arange(m.n_cols), np.diff(m.ptr))
        return zip(m.rows.tolist(), cols.tolist(), m.vals.tolist())


def _apparent_pivots(
    lows: np.ndarray, low_vals: np.ndarray | None, cleared: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the nonempty columns that are not ``cleared`` (an int64 array
    of column indices) into apparent pivots and the rest, from every
    column's low row (-1 when empty) and, over Z, the value there.

    Returns ``(lows, owners, rest)``: the apparent pivots' low rows
    ascending, the column that owns each, and the other columns ascending.
    A column is an apparent pivot when no earlier one of these columns has
    the same low and, unless ``low_vals`` is None (over Z/2), its low value
    is +-1.
    """
    active = lows >= 0
    active[cleared] = False
    cols = np.flatnonzero(active)
    lows, first = np.unique(lows[cols], return_index=True)
    if low_vals is not None:
        unit = np.abs(low_vals[cols[first]]) == 1
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

    ``m`` is a ``SparseMatrix`` or a ``Coboundary``, whose matrix is built
    only when some column is neither an apparent pivot nor cleared.  Only
    column operations are used, and a
    column becomes a pivot only when its low entry is +-1.  A column whose
    low is not a unit is set aside; once every pivot is known it is reduced
    against them until it is zero on all pivot rows.  Returns
    ``(units, residual, pivot rows)``: the invariant factors of the matrix
    (without the ``cleared`` columns) are ``[1] * units`` followed by those
    of the ``residual`` (row, col, value) triples, because the pivot block is
    unimodular and the residual columns vanish on its rows.  The pivot rows
    are an int64 array.
    """
    lows, owners, rest = _apparent_pivots(*m.lows(), cleared)
    if not len(rest):
        return len(lows), [], lows
    ptr, rows, vals = m.ptr, m.rows, m.vals

    def column(c: int) -> dict[int, int]:
        start, stop = ptr[c], ptr[c + 1]
        return dict(zip(rows[start:stop].tolist(), vals[start:stop].tolist()))

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
    """Rank over Z/2 of a ``SparseMatrix`` or a ``Coboundary`` (without the
    ``cleared`` columns), as ``(rank, [], pivot rows)``, the pivot rows an
    int64 array.  Unless every entry is +-1, the odd entries are picked by
    one mask (``odd``); each column is packed into a Python integer, bit r
    for row r, only when its turn comes, so at most the pivots are held as
    bitsets."""
    m = m.odd()
    lows, owners, rest = _apparent_pivots(m.lows()[0], None, cleared)
    if not len(rest):
        return len(lows), [], lows
    ptr, rows = m.ptr, m.rows

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


def _dense_snf(entries: Sequence[tuple[int, int, int]]) -> list[int]:
    """Invariant factors of a small residual matrix, exact integers.

    Each step pivots on an entry of least absolute value and clears its
    column and its row by integer division.  A nonzero remainder is smaller
    than the pivot and becomes the next pivot; once the pivot's row and
    column are clear, the pivot joins the diagonal and both are dropped.
    One pairwise (gcd, lcm) pass (``_divisor_chain``) then puts the diagonal
    in the order d1 | d2 | ..., which keeps the Smith normal form of the
    diagonal matrix.
    """
    row_ids = {r: i for i, r in enumerate(sorted({r for r, _, _ in entries}))}
    col_ids = {c: j for j, c in enumerate(sorted({c for _, c, _ in entries}))}
    a = [[0] * len(col_ids) for _ in row_ids]
    for r, c, v in entries:
        a[row_ids[r]][col_ids[c]] += v

    diagonal: list[int] = []
    while nonzero := [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]:
        _, i, j = min(nonzero)
        pivot_row, p = a[i], a[i][j]
        for row in a:
            q = row[j] // p
            if q and row is not pivot_row:
                row[:] = [x - q * y for x, y in zip(row, pivot_row)]
        for k in range(len(pivot_row)):
            q = pivot_row[k] // p
            if q and k != j:
                for row in a:
                    row[k] -= q * row[j]
        # clear when the pivot, counted in its row and in its column, is all
        if sum(map(bool, pivot_row)) + sum(bool(row[j]) for row in a) == 2:
            diagonal.append(abs(p))
            del a[i]
            for row in a:
                del row[j]
    return _divisor_chain(diagonal)


def _divisor_chain(diagonal: list[int]) -> list[int]:
    """Put a diagonal in the order d1 | d2 | ... by one pairwise (gcd, lcm)
    pass, in place; the Smith normal form of the diagonal matrix is kept, so
    Z/2 + Z/3 becomes Z/1 + Z/6."""
    for s in range(len(diagonal)):
        for t in range(s + 1, len(diagonal)):
            diagonal[s], diagonal[t] = gcd(diagonal[s], diagonal[t]), lcm(diagonal[s], diagonal[t])
    return diagonal


def invariant_factors(m: SparseMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix (d_i > 0)."""
    units, residual, _ = eliminate_unit_pivots(m)
    return (1,) * units + tuple(_dense_snf(residual))


def smith_normal_form(data: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factor sequence of a dense integer matrix."""
    return invariant_factors(SparseMatrix.from_dense(data))


class ChainComplex:
    """Augmented chain complex of a simplicial complex.

    ``counts[k]`` is the number of k-faces (counts[-1] == 1, the empty
    simplex) and ``boundary[k]`` the matrix C_k -> C_{k-1} for 0 <= k <= dim.
    The identity boundary-of-boundary = 0 is verified on construction.
    """

    __slots__ = ("counts", "boundary", "dim")

    def __init__(self, counts: dict[int, int], boundary: dict[int, SparseMatrix]):
        self.counts = dict(counts)
        self.boundary = dict(boundary)
        self.dim = max(self.counts)
        for k, mat in self.boundary.items():
            if mat.n_cols != self.counts.get(k, 0) or mat.n_rows != self.counts.get(k - 1, 0):
                raise HomologyError(f"boundary {k} has inconsistent shape")
        for k in sorted(self.boundary):
            if k + 1 not in self.boundary:
                continue
            if not _product_is_zero(self.boundary[k], self.boundary[k + 1]):
                raise HomologyError(f"boundary composition {k} o {k + 1} is nonzero")

    @classmethod
    def from_complex(cls, K: SimplicialComplex | FaceTable) -> "ChainComplex":
        """Boundary matrices d_0, ..., d_dim straight from the face table's
        rows (K's own, or K itself when it is a ``FaceTable``): column j of
        d_k holds the k+1 codimension-one faces of face j, ascending, with
        the sign (-1)^i of the removed vertex position i; a vertex's one
        face is the empty face, with sign +1."""
        table = K if isinstance(K, FaceTable) else K.face_table()
        counts = {-1: 1}
        boundary: dict[int, SparseMatrix] = {}
        for k, rows in table.rows().items():
            counts[k] = n = len(rows)
            signs = np.array([-1 if (k - p) % 2 else 1 for p in range(k + 1)], dtype=np.int8)
            boundary[k] = SparseMatrix(
                counts[k - 1], n, np.arange(n + 1) * (k + 1), rows.ravel(), np.tile(signs, n)
            )
        return cls(counts, boundary)


def _face_pairs(m: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The terms of one column of d_k o d_{k+1} that cancel, in pairs of
    (position in the column of d_{k+1}, position in the column of d_k),
    for columns of m and m - 1 entries.

    Rows ascend within a column, so with the vertices v_0 < ... < v_{m-1}
    of a (k+1)-face, position p of its column drops v_{m-1-p}, and position
    q of the column of that face drops its vertex m-2-q.  The term (s, t-1),
    s < t, drops v_{m-1-s} and then v_{m-1-t}; the term (t, s) drops the two
    in the other order.  Both reach the same (k-1)-face, with opposite signs
    (Munkres, Elements of Algebraic Topology, Section 5), and the pairs
    cover each of the m(m-1) terms once.
    """
    return [((s, t - 1), (t, s)) for s in range(m) for t in range(s + 1, m)]


def _pairs_cancel(outer: SparseMatrix, inner: SparseMatrix) -> bool:
    """True when the terms of outer @ inner cancel in the pairs of
    ``_face_pairs``: every column of ``inner`` has m entries, every column
    of ``outer`` has m - 1, and for each position pair the two gathered rows
    are equal and the two products negated, column by column.  Then every
    column of the product is zero.  Products are formed in the values'
    common dtype, int8 for the signs of ``from_complex``, and only when
    none can pass that dtype's range (int64's for other values); otherwise,
    and whenever a pair differs, this returns False and decides nothing.
    """
    n, nnz = inner.n_cols, len(inner.rows)
    if not n or nnz % n:
        return False
    m = nnz // n
    kind = np.result_type(inner.vals, outer.vals)  # the dtype of the products
    top = int(np.iinfo(kind).max) if kind.kind == "i" else _INT64_MAX
    if not (
        np.array_equal(inner.ptr, np.arange(n + 1) * m)
        and np.array_equal(outer.ptr, np.arange(outer.n_cols + 1) * (m - 1))
        and _max_abs(inner.vals) * _max_abs(outer.vals) <= top
    ):
        return False
    rows, vals = inner.rows.reshape(n, m), inner.vals.reshape(n, m)
    for (s, q), (t, r) in _face_pairs(m):
        # the two terms of every column, as positions in ``outer``: the
        # start of the column that ``inner`` names plus the offset there
        i = rows[:, s] * (m - 1) + q
        j = rows[:, t] * (m - 1) + r
        if not np.array_equal(outer.rows[i], outer.rows[j]):
            return False
        if not np.array_equal(vals[:, s] * outer.vals[i], -(vals[:, t] * outer.vals[j])):
            return False
    return True


def _product_is_zero(outer: SparseMatrix, inner: SparseMatrix) -> bool:
    """True when outer @ inner == 0, computed exactly.

    The pairing test ``_pairs_cancel`` decides every d_k o d_{k+1} that
    ``ChainComplex.from_complex`` builds without forming the product.  Any
    pair it does not certify (columns of other lengths, values whose
    products could pass int64, or a faulty matrix) is multiplied out one
    column of ``inner`` at a time: each entry (r, c, v) adds v * outer[:, r]
    to a dict of the column's sums, in Python integers.
    """
    if _pairs_cancel(outer, inner):
        return True
    ptr, rows, vals = outer.ptr.tolist(), outer.rows.tolist(), outer.vals.tolist()
    for _, column in groupby(inner.entries, key=itemgetter(1)):
        sums: dict[int, int] = {}
        for r, _, v in column:
            for e in range(ptr[r], ptr[r + 1]):
                sums[rows[e]] = sums.get(rows[e], 0) + v * vals[e]
        if any(sums.values()):
            return False
    return True


@dataclass(frozen=True, eq=False)
class HomologyProfile:
    """Per-degree reduced Betti numbers and torsion, tagged by coefficient ring.

    Only nonzero data is stored; profiles over different-dimensional models
    compare equal when their nonzero parts agree.
    """

    coeff: str
    betti: dict[int, int] = field(default_factory=dict)
    torsion: dict[int, tuple[int, ...]] = field(default_factory=dict)
    dim: int = -1

    def betti_number(self, k: int) -> int:
        return self.betti.get(k, 0)

    def torsion_factors(self, k: int) -> tuple[int, ...]:
        return self.torsion.get(k, ())

    @property
    def is_acyclic(self) -> bool:
        return not self.betti and not self.torsion

    def euler(self) -> int:
        return sum((-1 if k % 2 else 1) * b for k, b in self.betti.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        return (
            self.coeff == other.coeff
            and self.betti == other.betti
            and self.torsion == other.torsion
        )

    def __repr__(self) -> str:
        parts = [f"b{k}={v}" for k, v in sorted(self.betti.items())]
        parts += [f"t{k}={list(v)}" for k, v in sorted(self.torsion.items())]
        inner = ", ".join(parts) if parts else "acyclic"
        return f"HomologyProfile[{self.coeff}]({inner})"


def _coboundary(d: SparseMatrix) -> SparseMatrix:
    """The transpose of ``d`` with its rows and its columns both numbered
    backwards: entry (r, c, v) goes to (n_cols-1-c, n_rows-1-r, v).

    The entries are ordered by the int64 keys r * nnz + e, e the entry's
    index, which are unique, so one in-place sort gives the order of a
    stable sort by row.  Read backwards, it orders the entries by their new
    column and, within one, by ascending new row.  For d_k the low of a
    column is then the lexicographically first coface of a (k-1)-face, and
    the row numbering is the column numbering of the coboundary of d_{k+1}.
    """
    nnz = len(d.rows)
    if d.n_rows * nnz > _INT64_MAX:
        raise HomologyError("coboundary too large to key in int64")
    keys = d.rows * nnz + np.arange(nnz)
    keys.sort()
    order = keys[::-1] % max(nnz, 1)
    del keys
    cols = np.repeat(np.arange(d.n_cols), np.diff(d.ptr))
    ptr = np.zeros(d.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(d.rows, minlength=d.n_rows)[::-1], out=ptr[1:])
    return SparseMatrix(d.n_cols, d.n_rows, ptr, d.n_cols - 1 - cols[order], d.vals[order])


class Coboundary:
    """The coboundary ``_coboundary(d)`` of a ``SparseMatrix`` ``d``, as
    the reducers read it: its lows come off the rows of ``d``, and its
    entries (``ptr``, ``rows``, ``vals``) are built on first use.

    Column n_rows-1-r of the coboundary is row r of ``d``, and its low is
    n_cols-1-c for the first column c of ``d`` that holds row r, with the
    value of ``d`` there.  Entries are stored column by column, so that
    column holds the row's first entry: one ``np.minimum.at`` over the
    entry positions finds it for every row.
    """

    __slots__ = ("d", "_built")

    def __init__(self, d: SparseMatrix):
        self.d = d
        self._built: SparseMatrix | None = None

    def lows(self) -> tuple[np.ndarray, np.ndarray]:
        """As ``SparseMatrix.lows``, from one pass over the rows of ``d``."""
        d = self.d
        nnz = len(d.rows)
        first = np.full(d.n_rows, nnz, dtype=np.int64)
        np.minimum.at(first, d.rows, np.arange(nnz))
        first = first[::-1]
        filled = first < nnz
        at = first[filled]
        cols = np.repeat(np.arange(d.n_cols), np.diff(d.ptr))[at]
        return _spread(filled, d.n_cols - 1 - cols, -1), _spread(filled, d.vals[at], 0)

    def odd(self) -> "Coboundary":
        """The coboundary over Z/2, as ``SparseMatrix.odd``."""
        d = self.d.odd()
        return self if d is self.d else Coboundary(d)

    def _matrix(self) -> SparseMatrix:
        if self._built is None:
            self._built = _coboundary(self.d)
        return self._built

    ptr = property(lambda self: self._matrix().ptr)
    rows = property(lambda self: self._matrix().rows)
    vals = property(lambda self: self._matrix().vals)


def _factors_by_degree(cc: ChainComplex, ring: str) -> dict[int, tuple[int, ...]]:
    """The invariant factors of every d_k over ``ring`` (over Z/2, one 1 per
    unit of rank), from the coboundaries reduced degree 0 upward.

    The pivot rows of the coboundary of d_k are cleared from the columns of
    the coboundary of d_{k+1}.
    """
    reduce = eliminate_unit_pivots if ring == Z else rank_mod2
    factors: dict[int, tuple[int, ...]] = {}
    cleared = _NO_ROWS
    for k in sorted(cc.boundary):
        units, residual, cleared = reduce(Coboundary(cc.boundary[k]), cleared)
        factors[k] = (1,) * units + tuple(_dense_snf(residual))
    return factors


def reduced_homology(K: SimplicialComplex | FaceTable, coeff: str = Z) -> HomologyProfile:
    """Reduced simplicial homology of K, a complex or a face table, over Z
    or Z/2.

    Every rank and invariant factor comes from the coboundaries, reduced
    degree 0 upward with clearing (``_factors_by_degree``).
    """
    ring = normalize_coeff(coeff)
    cc = ChainComplex.from_complex(K)
    factors = _factors_by_degree(cc, ring)

    betti: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for k in range(-1, cc.dim + 1):
        b = cc.counts.get(k, 0) - len(factors.get(k, ())) - len(factors.get(k + 1, ()))
        if b:
            betti[k] = b
        tors = tuple(f for f in factors.get(k + 1, ()) if f > 1)
        if tors:
            torsion[k] = tors
    profile = HomologyProfile(ring, betti, torsion, cc.dim)

    expected = sum((-1 if k % 2 else 1) * n for k, n in cc.counts.items())
    if profile.euler() != expected:
        raise HomologyError(
            f"internal check failed: homology Euler {profile.euler()} != face count {expected}"
        )
    return profile


@dataclass(frozen=True)
class HallReport:
    """Mobius number against the reduced Euler characteristic of the proper part."""

    mobius: int
    euler: int

    @property
    def passed(self) -> bool:
        return self.mobius == self.euler


def philip_hall_check(P: BoundedPoset) -> HallReport:
    """Check mu(bottom, top) == reduced Euler characteristic of the order
    complex of the proper part (Hall's identity)."""
    if len(P) < 3:
        raise PosetError("bounded poset must have at least 3 elements")
    euler = P.truncate().order_complex().euler_reduced()
    return HallReport(P.mobius(), euler)
