"""Simplicial complexes and the space-level operations used on order complexes.

Conventions: the empty complex (no vertices at all) is a legal value, distinct
from the one-point complex; it plays the role of S^{-1}, is the identity for
the join, and has reduced Euler characteristic -1.

Faces are computed on demand as integer arrays (``FaceTable``): each k-face
is a row of k+1 ascending vertex ids, the rows of each dimension in
lexicographic order, but the table stores no rows, only the vertices and,
for every face, the positions of its codimension-one faces (the row indices
of the boundary matrix, ``homology.ChainComplex``); a face's row is read off
the first two of those positions.  A complex given by its facets numbers its
vertices in sorted label order and builds the table top down from the
facets, with one ``np.unique`` per dimension (``_face_table``): every size,
the largest too, stacks the faces one size up, each with one vertex dropped,
on its own facets, and at the largest size that upper stack is empty.  The
rows then come in the lexicographic order of the label tuples.  An order
complex (``posets.OrderComplex``) numbers them from the top of its poset
down and grows the table from the chains instead; the face table is the
only method it overrides.  Every reader of faces (face counts, the Euler
characteristic, the boundary matrices) goes through ``FaceTable.rows``,
which starts at degree 0, each vertex bounded by the empty face.  Label
tuples are made only by ``faces_by_dim``, always from the facets.

A table also gives, with array operations only, the full subcomplex on a
set of its ids (``FaceTable.restrict``) and the complex with a cone over
such a subcomplex (``FaceTable.cone``), which models the quotient; the
complementation checks read every complex they need off one chain trie
this way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class ComplexError(ValueError):
    """Malformed simplicial-complex input or parameters."""


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ComplexError(f"vertex label must be a nonempty string, got {label!r}")
    if label.split() != [label]:
        raise ComplexError(f"vertex label may not contain whitespace: {label!r}")
    if "#" in label:
        raise ComplexError(f"vertex label may not contain '#' (.cplx comment): {label!r}")
    return label


_NO_FACETS: frozenset[int] = frozenset()
_INT64_MAX = int(np.iinfo(np.int64).max)

# Largest array of vertex ids that ``_face_table`` stacks for one dimension:
# each face one dimension up once per dropped vertex, plus the facets of
# that size.  The peak memory of ``ordertop homology`` grows with the
# largest stack (one fresh process each, 2-CPU x86 VM): the order complex of
# the full partition lattice Pi_7, read from its facets, stacks 7.19 M ids
# and peaks at about 390 MB over either ring; the 18-vertex simplex stacks
# 3.94 M and peaks at 207 MB; the 19-vertex simplex would stack 8.31 M (not
# measured) and the 20-vertex simplex 18.5 M, which peaked at 1.1 GB and
# took 8.9 s without this limit.  The chain trie of an order complex
# (``posets._chain_table``) holds the same bound for each of its levels,
# (k + 1) * f_k ids for the k-chains.
MAX_STACK_ENTRIES = 8_000_000


class FaceTable(NamedTuple):
    """All nonempty faces of a complex, by dimension, as boundary rows.

    An id is a position in ``vertices``: the sorted labels for a complex
    given by its facets; for an order complex, the poset's elements from
    the top down (by strict up-set size, ties in label order), so a chain's
    row lists it from its top element.  The 0-faces are the ids.
    ``boundary_rows[k]``, for k >= 1, has shape (f_k, k+1), one row per
    k-face in lexicographic order of the faces' id rows: entry [j, p] is the
    position among the (k-1)-faces of face j with its vertex in column k-p
    removed, so each row ascends.  The id row of face j is that of its face
    in column 0 followed by the last id of its face in column 1.  ``rows``
    adds degree 0, where the one face below every vertex is the empty face.
    ``restrict`` and ``cone`` derive tables that keep this contract.
    """

    vertices: tuple[str, ...]
    boundary_rows: dict[int, np.ndarray]

    def rows(self) -> dict[int, np.ndarray]:
        """The boundary rows of every dimension from 0: each vertex's row is
        [0], the position of the empty face.  Empty for the empty complex."""
        ground = np.zeros((len(self.vertices), 1), dtype=np.int64)
        return {0: ground, **self.boundary_rows} if self.vertices else {}

    def _kept(self, keep: np.ndarray) -> list[np.ndarray]:
        """Per dimension from 0, which faces have all their vertices in
        ``keep`` (a bool array over the ids), up to the last dimension that
        keeps any.  A k-face is kept when its faces in columns 0 and 1 are:
        together they hold all of its vertices."""
        masks = []
        mask = np.asarray(keep, dtype=bool)
        while mask.any():
            masks.append(mask)
            rows = self.boundary_rows.get(len(masks))
            if rows is None:
                break
            mask = mask[rows[:, 0]] & mask[rows[:, 1]]
        return masks

    def restrict(self, keep: np.ndarray) -> "FaceTable":
        """The full subcomplex on the ids marked in the bool array ``keep``.

        The kept faces of each dimension are renumbered in order (their
        rank among the kept ones), so rows stay ascending and in
        lexicographic order, and the kept vertices keep their order.
        """
        masks = self._kept(keep)
        ranks = [np.cumsum(m, dtype=np.int64) - 1 for m in masks]
        boundary_rows = {
            k: ranks[k - 1][self.boundary_rows[k][masks[k]]] for k in range(1, len(masks))
        }
        vertices = tuple(v for v, m in zip(self.vertices, keep) if m)
        return FaceTable(vertices, boundary_rows)

    def cone(self, keep: np.ndarray, apex: str) -> "FaceTable":
        """The complex with a cone attached over the full subcomplex on the
        ids marked in ``keep``; it has the homology of the quotient by that
        subcomplex.  With nothing kept the apex is an isolated vertex.

        The apex, a label not among the vertices, takes id 0 and the others
        move up by one.  Each dimension lists first the apex faces, apex
        with a kept face sigma one dimension down, in sigma's order, then
        the complex's own faces.  An apex face's row is the ranks among the
        apex faces of sigma's own row, then the position of sigma; an own
        row moves up by the apex faces one dimension down.  Each
        dimension's table is checked against ``MAX_STACK_ENTRIES`` before
        it is built.
        """
        masks = self._kept(keep)
        rows = self.rows()
        ranks = [np.zeros(1, dtype=np.int64)]  # dimension -1: the empty face
        ranks += [np.cumsum(m, dtype=np.int64) - 1 for m in masks]
        boundary_rows: dict[int, np.ndarray] = {}
        below = 1  # the apex faces one dimension down; in dimension 0, the apex
        for k in range(1, max(len(rows), len(masks) + 1)):
            sigma = np.flatnonzero(masks[k - 1]) if k <= len(masks) else np.empty(0, np.int64)
            own = rows.get(k, np.empty((0, k + 1), dtype=np.int64))
            _check_stack(k + 1, (k + 1) * (len(sigma) + len(own)))
            apex_rows = np.concatenate(
                (ranks[k - 1][rows[k - 1][sigma]], (below + sigma)[:, None]), axis=1
            )
            boundary_rows[k] = np.concatenate((apex_rows, own + below))
            below = len(sigma)
        return FaceTable((apex, *self.vertices), boundary_rows)


def _lex_codes(rows: np.ndarray, base: int) -> np.ndarray:
    """int64 codes, one per row, ordered as the rows are lexicographically.

    Entries lie in [0, base).  A row is read as a number in base ``base``,
    one column at a time; before a step that could pass the int64 range the
    codes are replaced by their ranks, so a code stays below len(rows) * base
    and never wraps, whatever the row width.
    """
    codes = np.zeros(len(rows), dtype=np.int64)
    bound = 0  # an upper bound of the codes
    for column in rows.T:
        if bound * base + base - 1 > _INT64_MAX:
            codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
            bound = len(rows)
        codes = codes * base + column
        bound = bound * base + base - 1
    return codes


def _check_stack(size: int, entries: int) -> None:
    if entries > MAX_STACK_ENTRIES:
        raise ComplexError(
            f"the {size - 1}-faces need a table of {entries} vertex ids, "
            f"above the limit {MAX_STACK_ENTRIES}"
        )


def _face_table(vertices: tuple[str, ...], facets: Iterable[frozenset[str]]) -> FaceTable:
    id_of = {v: i for i, v in enumerate(vertices)}.__getitem__
    by_size: dict[int, list[str]] = {}  # size -> the labels of its facets, one after another
    for f in facets:
        by_size.setdefault(len(f), []).extend(f)
    boundary_rows: dict[int, np.ndarray] = {}
    top = max(by_size, default=0)
    upper = np.empty((0, top + 1), dtype=np.int64)  # the faces with one vertex more
    # The largest facet alone stacks comb(top, size + 1) faces size + 1 times
    # each, so every stack it forces is checked before the first is built.
    for size in range(top, 0, -1):
        _check_stack(size, comb(top, size + 1) * (size + 1) * size + (top if size == top else 0))
    for size in range(top, 0, -1):
        labels = by_size.get(size, ())
        _check_stack(size, len(labels) + upper.size * size)
        own = np.fromiter(map(id_of, labels), dtype=np.int64, count=len(labels))
        own = np.sort(own.reshape(-1, size), axis=1, kind="stable")
        # Copy p of the upper faces drops column size-p, so the copies come
        # out in ascending order of the face they give.
        keep = [[c for c in range(size + 1) if c != size - p] for p in range(size + 1)]
        dropped = upper[:, keep].transpose(1, 0, 2).reshape(-1, size)
        stacked = np.concatenate((dropped, own))
        _, first, inverse = np.unique(
            _lex_codes(stacked, len(vertices)), return_index=True, return_inverse=True
        )
        if len(dropped):  # none at the top
            boundary_rows[size] = inverse.reshape(-1)[: len(dropped)].reshape(size + 1, -1).T
        upper = stacked[first]
    return FaceTable(vertices, dict(sorted(boundary_rows.items())))


class SimplicialComplex:
    """Immutable abstract simplicial complex stored by its facets.

    The constructor normalizes input: faces contained in other faces are
    dropped, so ``facets`` always holds exactly the maximal faces.  Vertices
    not covered by any larger face appear as singleton facets.  Faces are
    tested by size class, largest first, against a vertex -> kept-facet index
    of the larger classes; pure input never builds the index.  Each distinct
    label is checked once (a nonempty string without whitespace), however
    many faces it appears in.
    """

    __slots__ = ("vertices", "facets")

    def __init__(self, facets: Iterable[Iterable[str]] = (), vertices: Iterable[str] = ()):
        try:
            raw = {frozenset(f) for f in facets}
            raw.update(frozenset((v,)) for v in vertices)
        except TypeError as err:  # an unhashable label, or a facet that is no collection
            raise ComplexError(f"facets must hold nonempty string labels: {err}") from None
        raw.discard(frozenset())
        labels = set().union(*raw)
        for v in labels:
            _check_label(v)
        by_size: dict[int, list[frozenset[str]]] = {}
        for f in raw:
            by_size.setdefault(len(f), []).append(f)
        # A face can only lie in a strictly larger one, so each size class is
        # tested against an index of the faces kept from the larger classes.
        maximal: list[frozenset[str]] = []
        index: dict[str, set[int]] = {}  # vertex -> positions in ``maximal``
        sizes = sorted(by_size, reverse=True)
        for size in sizes:
            start = len(maximal)
            for f in by_size[size]:
                if index:
                    holders = sorted((index.get(v, _NO_FACETS) for v in f), key=len)
                    if holders[0].intersection(*holders[1:]):
                        continue
                maximal.append(f)
            if size != sizes[-1]:
                for pos in range(start, len(maximal)):
                    for v in maximal[pos]:
                        index.setdefault(v, set()).add(pos)
        self.facets: frozenset[frozenset[str]] = frozenset(maximal)
        self.vertices: tuple[str, ...] = tuple(sorted(labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"

    @property
    def is_empty(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def face_table(self) -> FaceTable:
        """The faces as integer arrays (see ``FaceTable``)."""
        return _face_table(self.vertices, self.facets)

    def faces_by_dim(self) -> dict[int, tuple[tuple[str, ...], ...]]:
        """All faces grouped by dimension, each a sorted vertex tuple, in
        lexicographic order.

        The empty face is not listed; homology handles degree -1 separately.
        Each dimension's rows are gathered from the rows one dimension down
        along boundary columns 0 and 1 (see ``FaceTable``).
        """
        labels = np.array(self.vertices, dtype=object)
        ids = np.arange(len(labels)).reshape(-1, 1)
        faces = {0: ids} if len(labels) else {}
        for d, rows in _face_table(self.vertices, self.facets).boundary_rows.items():
            faces[d] = ids = np.concatenate((ids[rows[:, 0]], ids[rows[:, 1], -1:]), axis=1)
        return {d: tuple(map(tuple, labels[ids].tolist())) for d, ids in faces.items()}

    def face_counts(self) -> dict[int, int]:
        return {k: len(rows) for k, rows in self.face_table().rows().items()}

    def euler_reduced(self) -> int:
        """Reduced Euler characteristic: alternating face count minus 1."""
        return sum((-1) ** d * n for d, n in self.face_counts().items()) - 1

    def has_face(self, face: Iterable[str]) -> bool:
        f = frozenset(face)
        return any(f <= g for g in self.facets) if f else True

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        # Adding self's facets leaves other unchanged exactly when each lies in one of its facets.
        return SimplicialComplex([*other.facets, *self.facets]) == other


@dataclass(frozen=True)
class PointedComplex:
    """A simplicial complex with a distinguished basepoint vertex."""

    complex: SimplicialComplex
    basepoint: str

    def __post_init__(self):
        if self.basepoint not in self.complex.vertices:
            raise ComplexError(f"basepoint {self.basepoint!r} is not a vertex")


def empty_complex() -> SimplicialComplex:
    return SimplicialComplex()


def point_complex(label: str = "pt") -> SimplicialComplex:
    return SimplicialComplex([[label]])


def _facets_or_empty(K: SimplicialComplex) -> Iterable[frozenset[str]]:
    # For join-like constructions the empty complex contributes the empty face.
    return K.facets if K.facets else (frozenset(),)


def fresh_label(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    label = base
    while label in taken:
        label += "'"
    return label


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: faces are unions of a face of K and a face of L.

    Vertices are tagged ``l.`` / ``r.`` to keep the two sides disjoint;
    joining with the empty complex returns the other argument unchanged.
    """
    if K.is_empty:
        return L
    if L.is_empty:
        return K
    left = {v: "l." + v for v in K.vertices}
    right = {v: "r." + v for v in L.vertices}
    left_facets = [frozenset(map(left.__getitem__, f)) for f in K.facets]
    right_facets = [frozenset(map(right.__getitem__, g)) for g in L.facets]
    return SimplicialComplex(f | g for f in left_facets for g in right_facets)


def cone(K: SimplicialComplex, apex: str = "apex") -> SimplicialComplex:
    """Cone over K with a fresh apex vertex (a point when K is empty)."""
    apex = fresh_label(apex, K.vertices)
    return SimplicialComplex(f | {apex} for f in _facets_or_empty(K))


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Join with a two-point complex; the apexes get fresh pole labels."""
    north = fresh_label("pole+", K.vertices)
    south = fresh_label("pole-", K.vertices)
    facets = [f | {pole} for f in _facets_or_empty(K) for pole in (north, south)]
    return SimplicialComplex(facets)


def suspension_pointed(K: SimplicialComplex) -> PointedComplex:
    """Suspension pointed at its north pole (the deterministic wedge basepoint)."""
    north = fresh_label("pole+", K.vertices)
    return PointedComplex(suspension(K), north)


def wedge(parts: Sequence[PointedComplex], basepoint: str = "*") -> PointedComplex:
    """One-point union: all basepoints are identified to a single vertex.

    A single part is returned unchanged; an empty sequence yields the
    one-point complex (the unit of the wedge).
    """
    if len(parts) == 1:
        return parts[0]
    facets = []
    for i, part in enumerate(parts):
        name = {v: f"w{i}.{v}" for v in part.complex.vertices}
        name[part.basepoint] = basepoint
        facets.extend(frozenset(map(name.__getitem__, f)) for f in part.complex.facets)
    return PointedComplex(SimplicialComplex(facets, vertices=[basepoint]), basepoint)


def quotient_model(K: SimplicialComplex, A: SimplicialComplex) -> SimplicialComplex:
    """A complex with the homology of the quotient K/A, built as K with a cone
    attached over A.  For empty A the quotient acquires a disjoint basepoint,
    so the model is K plus one isolated vertex.
    """
    if not A.is_subcomplex_of(K):
        raise ComplexError("A is not a subcomplex of K")
    apex = fresh_label("q*", K.vertices)
    return SimplicialComplex([*K.facets, *(f | {apex} for f in A.facets)], vertices=[apex])


def sphere_complex(d: int) -> SimplicialComplex:
    """Boundary of a (d+1)-simplex, a triangulated d-sphere; S^{-1}, the
    boundary of a point, has only the empty face, so it is the empty complex."""
    if d < -1:
        raise ComplexError("sphere dimension must be >= -1")
    verts = [f"s{i}" for i in range(d + 2)]
    return SimplicialComplex(combinations(verts, d + 1))


def _adjacent_pairs(lo: int, hi: int, count: int) -> Iterable[list[int]]:
    """Every union of ``count`` disjoint pairs {s, s+1} inside lo..hi.

    Pair starts s_0 < s_1 < ... with gaps of at least 2 correspond to the
    subsets t of lo..hi-count through s_j = t_j + j.
    """
    for t in combinations(range(lo, hi - count + 1), count):
        yield [v for j, s in enumerate(t) for v in (s + j, s + j + 1)]


def cyclic_polytope_boundary(m: int, d: int) -> SimplicialComplex:
    """Boundary complex of the cyclic polytope with m vertices in even dimension d.

    By Gale's evenness condition the facets are the disjoint unions of d/2
    cyclically adjacent pairs {i, i+1} of 1..m, {m, 1} counted as adjacent
    (Ziegler, *Lectures on Polytopes*, ch. 0): the pairs inside the path
    1..m, and {m, 1} with d/2 - 1 pairs inside 2..m-1.  The result is a
    simplicial (d-1)-sphere.
    """
    if d < 2 or d % 2:
        raise ComplexError(f"dimension must be even and >= 2, got {d}")
    if m < d + 1:
        raise ComplexError(f"need at least d+1 = {d + 1} vertices, got {m}")
    half = d // 2
    facets = list(_adjacent_pairs(1, m, half))
    facets += [[m, 1, *rest] for rest in _adjacent_pairs(2, m - 1, half - 1)]
    return SimplicialComplex([str(x) for x in f] for f in facets)


def is_pseudomanifold(K: SimplicialComplex) -> bool:
    """True when K is pure and every ridge lies in exactly two facets."""
    sizes = {len(f) for f in K.facets}
    if len(sizes) != 1 or sizes.pop() < 2:
        return False
    ridges = Counter(f - {v} for f in K.facets for v in f)
    return all(c == 2 for c in ridges.values())


def parse_cplx(text: str) -> SimplicialComplex:
    """Parse the ``.cplx`` format: one facet per line, whitespace-separated
    vertex labels; ``#`` starts a comment; an empty file is the empty complex.

    The facets are streamed into the constructor in one pass over the
    lines, each label one string object however many facets name it.
    """
    vertex: dict[str, str] = {}

    def facet(line: str) -> Iterable[str]:
        labels = line.split("#", 1)[0].split()
        return map(vertex.setdefault, labels, labels)

    return SimplicialComplex(map(facet, text.splitlines()))


def format_cplx(K: SimplicialComplex) -> str:
    lines = sorted(" ".join(sorted(f)) for f in K.facets)
    return "\n".join(lines) + ("\n" if lines else "")
