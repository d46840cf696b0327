"""Exact reduced simplicial homology over Z and Z/2 via Smith normal form.

Chain complexes are augmented: degree -1 carries the empty simplex, so the
empty complex reports one unit of homology in degree -1 and all conventions
for joins and suspensions of the empty complex compose correctly.

``reduced_homology`` reduces the boundary matrices top dimension down with
the column reducer in ``ordertop._kernel._pure``, clearing from d_k the pivot
rows of d_{k+1}.  Over Z only +-1 lows become pivots, which keeps clearing
exact; the few columns left over go to the classical Smith normal form
``_dense_snf``.  ``smith_normal_form`` runs the same reduction on a single
matrix, without clearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Sequence

from ._kernel import _pure
from .complexes import SimplicialComplex
from .posets import BoundedPoset, PosetError

Z = "Z"
Z2 = "Z/2"
_COEFF_ALIASES = {"z": Z, "Z": Z, "z2": Z2, "Z2": Z2, "Z/2": Z2, "z/2": Z2}


class HomologyError(ValueError):
    """Inconsistent chain data or invalid coefficient ring."""


def normalize_coeff(coeff: str) -> str:
    try:
        return _COEFF_ALIASES[coeff]
    except KeyError:
        raise HomologyError(f"unknown coefficient ring {coeff!r}; use Z or Z/2") from None


@dataclass(frozen=True)
class SparseMatrix:
    """Integer matrix as sorted (row, col, value) triples."""

    n_rows: int
    n_cols: int
    entries: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_dense(cls, data: Sequence[Sequence[int]]) -> "SparseMatrix":
        rows = [list(row) for row in data]
        n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise HomologyError("ragged matrix input")
        entries = tuple(
            (r, c, int(v))
            for r, row in enumerate(rows)
            for c, v in enumerate(row)
            if v
        )
        return cls(len(rows), n_cols, entries)


def _dense_snf(entries: Sequence[tuple[int, int, int]]) -> list[int]:
    """Classical Smith normal form of a small residual matrix, exact integers.

    Pivots are chosen by minimal absolute value to limit entry growth.  The
    divisibility fix-up (add an offending row into the pivot row) guarantees
    each diagonal entry divides everything that follows.
    """
    if not entries:
        return []
    row_ids = sorted({r for r, _, _ in entries})
    col_ids = sorted({c for _, c, _ in entries})
    ri = {r: i for i, r in enumerate(row_ids)}
    ci = {c: j for j, c in enumerate(col_ids)}
    m, n = len(row_ids), len(col_ids)
    a = [[0] * n for _ in range(m)]
    for r, c, v in entries:
        a[ri[r]][ci[c]] += v

    factors: list[int] = []
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        p = a[t][t]

        dirty = False
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t]:
                dirty = True  # remainder smaller than |p|: rescan for pivot
        if dirty:
            continue
        for j in range(t + 1, n):
            q = a[t][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        bad = next(
            (
                i
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % p
            ),
            None,
        )
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        factors.append(abs(p))
        t += 1
    return factors


def invariant_factors(
    m: SparseMatrix, cleared: Collection[int] = (), pivot_rows: list[int] | None = None
) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix (d_i > 0).

    The columns in ``cleared`` are left out, and the pivot rows are appended
    to ``pivot_rows`` when it is a list (see ``reduced_homology``).
    """
    units, residual = _pure.eliminate_unit_pivots(
        m.n_rows, m.n_cols, m.entries, cleared, pivot_rows
    )
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
        # Each matrix is grouped by column once: d_{k+1} is the inner matrix
        # of one pair and the outer matrix of the next.
        outer_cols = None
        for k in sorted(self.boundary):
            if k + 1 not in self.boundary:
                outer_cols = None
                continue
            if outer_cols is None:
                outer_cols = _columns(self.boundary[k])
            inner_cols = _columns(self.boundary[k + 1])
            if not _composes_to_zero(outer_cols, inner_cols):
                raise HomologyError(f"boundary composition {k} o {k + 1} is nonzero")
            outer_cols = inner_cols

    @classmethod
    def from_complex(cls, K: SimplicialComplex) -> "ChainComplex":
        faces = K.faces_by_dim()
        counts = {-1: 1}
        counts.update({d: len(fs) for d, fs in faces.items()})
        boundary: dict[int, SparseMatrix] = {}
        if 0 in faces:
            boundary[0] = SparseMatrix(
                1, len(faces[0]), tuple((0, j, 1) for j in range(len(faces[0])))
            )
        for k in sorted(faces):
            if k == 0:
                continue
            index = {f: i for i, f in enumerate(faces[k - 1])}
            entries = []
            for j, face in enumerate(faces[k]):
                for i in range(len(face)):
                    sub = face[:i] + face[i + 1:]
                    entries.append((index[sub], j, -1 if i % 2 else 1))
            boundary[k] = SparseMatrix(len(faces[k - 1]), len(faces[k]), tuple(sorted(entries)))
        return cls(counts, boundary)


def _columns(m: SparseMatrix) -> list[list[tuple[int, int]]]:
    """The (row, value) entries of each column, in a list indexed by column."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(m.n_cols)]
    for r, c, v in m.entries:
        if not (0 <= r < m.n_rows and 0 <= c < m.n_cols):
            raise HomologyError(f"entry ({r}, {c}) lies outside a {m.n_rows}x{m.n_cols} matrix")
        cols[c].append((r, v))
    return cols


def _composes_to_zero(
    outer_cols: list[list[tuple[int, int]]], inner_cols: list[list[tuple[int, int]]]
) -> bool:
    """True when outer @ inner == 0, for matrices grouped by ``_columns``."""
    for cells in inner_cols:
        acc: dict[int, int] = {}
        for mid, v in cells:
            for out_row, w in outer_cols[mid]:
                acc[out_row] = acc.get(out_row, 0) + v * w
        if any(acc.values()):
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


def reduced_homology(K: SimplicialComplex, coeff: str = Z) -> HomologyProfile:
    """Reduced simplicial homology of K over Z or Z/2.

    Degrees are reduced top down, and the pivot rows of d_{k+1} are cleared
    from the columns of d_k (see ``ordertop._kernel._pure``).
    """
    ring = normalize_coeff(coeff)
    cc = ChainComplex.from_complex(K)
    ranks: dict[int, int] = {}
    factors: dict[int, tuple[int, ...]] = {}
    cleared: frozenset[int] = frozenset()
    for k in sorted(cc.boundary, reverse=True):
        mat = cc.boundary[k]
        pivot_rows: list[int] = []
        if ring == Z:
            factors[k] = invariant_factors(mat, cleared, pivot_rows)
            ranks[k] = len(factors[k])
        else:
            ranks[k] = _pure.rank_mod2(mat.n_rows, mat.n_cols, mat.entries, cleared, pivot_rows)
        cleared = frozenset(pivot_rows)

    betti: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for k in range(-1, cc.dim + 1):
        b = cc.counts.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if b:
            betti[k] = b
        if ring == Z:
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
