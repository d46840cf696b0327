"""Simplicial complexes and the space-level operations used on order complexes.

Conventions: the empty complex (no vertices at all) is a legal value, distinct
from the one-point complex; it plays the role of S^{-1}, is the identity for
the join, and has reduced Euler characteristic -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence


class ComplexError(ValueError):
    """Malformed simplicial-complex input or parameters."""


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ComplexError(f"vertex label must be a nonempty string, got {label!r}")
    if any(ch.isspace() for ch in label):
        raise ComplexError(f"vertex label may not contain whitespace: {label!r}")
    return label


_NO_FACETS: frozenset[int] = frozenset()


class SimplicialComplex:
    """Immutable abstract simplicial complex stored by its facets.

    The constructor normalizes input: faces contained in other faces are
    dropped, so ``facets`` always holds exactly the maximal faces.  Vertices
    not covered by any larger face appear as singleton facets.  Faces are
    tested by size class, largest first, against a vertex -> kept-facet index
    of the larger classes; pure input never builds the index.
    """

    __slots__ = ("vertices", "facets", "_faces")

    def __init__(self, facets: Iterable[Iterable[str]] = (), vertices: Iterable[str] = ()):
        raw = [frozenset(_check_label(v) for v in f) for f in facets]
        raw = [f for f in raw if f]
        for v in vertices:
            raw.append(frozenset((_check_label(v),)))
        by_size: dict[int, list[frozenset[str]]] = {}
        for f in set(raw):
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
        self.vertices: tuple[str, ...] = tuple(sorted(set().union(*maximal) if maximal else ()))
        self._faces: dict[int, tuple[tuple[str, ...], ...]] | None = None

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

    def faces_by_dim(self) -> dict[int, tuple[tuple[str, ...], ...]]:
        """All faces grouped by dimension, each a sorted vertex tuple.

        The empty face is not listed; homology handles degree -1 separately.
        """
        if self._faces is None:
            seen: set[tuple[str, ...]] = set()
            for facet in self.facets:
                fs = tuple(sorted(facet))
                for k in range(1, len(fs) + 1):
                    seen.update(combinations(fs, k))
            grouped: dict[int, list[tuple[str, ...]]] = {}
            for face in seen:
                grouped.setdefault(len(face) - 1, []).append(face)
            self._faces = {d: tuple(sorted(fs)) for d, fs in sorted(grouped.items())}
        return self._faces

    def face_counts(self) -> dict[int, int]:
        return {d: len(fs) for d, fs in self.faces_by_dim().items()}

    def euler_reduced(self) -> int:
        """Reduced Euler characteristic: alternating face count minus 1."""
        return sum((-1) ** d * n for d, n in self.face_counts().items()) - 1

    def has_face(self, face: Iterable[str]) -> bool:
        f = frozenset(face)
        return any(f <= g for g in self.facets) if f else True

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return all(other.has_face(f) for f in self.facets)

    def relabel(self, fn) -> "SimplicialComplex":
        """New complex with every vertex label replaced by ``fn(label)``."""
        return SimplicialComplex({frozenset(fn(v) for v in f) for f in self.facets})


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
    left = K.relabel(lambda v: "l." + v)
    right = L.relabel(lambda v: "r." + v)
    return SimplicialComplex(f | g for f in left.facets for g in right.facets)


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
    for part in parts:
        if part.complex.is_empty:
            raise ComplexError("cannot wedge an empty complex: it has no basepoint")
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return PointedComplex(point_complex(basepoint), basepoint)
    facets = []
    for i, part in enumerate(parts):
        prefix = f"w{i}."
        relabeled = part.complex.relabel(
            lambda v, bp=part.basepoint, p=prefix: basepoint if v == bp else p + v
        )
        facets.extend(relabeled.facets)
    return PointedComplex(SimplicialComplex(facets, vertices=[basepoint]), basepoint)


def quotient_model(K: SimplicialComplex, A: SimplicialComplex) -> SimplicialComplex:
    """A complex with the homology of the quotient K/A, built as K with a cone
    attached over A.  For empty A the quotient acquires a disjoint basepoint,
    so the model is K plus one isolated vertex.
    """
    if not A.is_subcomplex_of(K):
        raise ComplexError("A is not a subcomplex of K")
    apex = fresh_label("q*", K.vertices)
    if A.is_empty:
        return SimplicialComplex(K.facets, vertices=[apex])
    coned = [f | {apex} for f in A.facets]
    return SimplicialComplex(list(K.facets) + coned)


def sphere_complex(d: int) -> SimplicialComplex:
    """Boundary of a (d+1)-simplex, a triangulated d-sphere; S^{-1} is empty."""
    if d < -1:
        raise ComplexError("sphere dimension must be >= -1")
    if d == -1:
        return empty_complex()
    verts = [f"s{i}" for i in range(d + 2)]
    return SimplicialComplex(combinations(verts, d + 1))


def cyclic_polytope_boundary(m: int, d: int) -> SimplicialComplex:
    """Boundary complex of the cyclic polytope with m vertices in even dimension d.

    Facets are the d-subsets S of {1..m} passing the evenness test: any two
    vertices outside S must be separated by an even number of members of S.
    The result is a simplicial (d-1)-sphere.
    """
    if d < 2 or d % 2:
        raise ComplexError(f"dimension must be even and >= 2, got {d}")
    if m < d + 1:
        raise ComplexError(f"need at least d+1 = {d + 1} vertices, got {m}")
    facets = []
    for S in combinations(range(1, m + 1), d):
        inside = set(S)
        outside = [x for x in range(1, m + 1) if x not in inside]
        # Between consecutive outsiders: count of members of S must be even;
        # evenness for arbitrary outsider pairs follows by summing segments.
        ok = True
        for a, b in zip(outside, outside[1:]):
            if sum(1 for s in S if a < s < b) % 2:
                ok = False
                break
        if ok:
            facets.append(frozenset(str(x) for x in S))
    return SimplicialComplex(facets)


def is_pseudomanifold(K: SimplicialComplex) -> bool:
    """True when K is pure and every ridge lies in exactly two facets."""
    if K.is_empty:
        return False
    dims = {len(f) for f in K.facets}
    if len(dims) != 1:
        return False
    size = dims.pop()
    if size < 2:
        return False
    ridge_count: dict[frozenset[str], int] = {}
    for facet in K.facets:
        for ridge in combinations(sorted(facet), size - 1):
            key = frozenset(ridge)
            ridge_count[key] = ridge_count.get(key, 0) + 1
    return all(c == 2 for c in ridge_count.values())


def parse_cplx(text: str) -> SimplicialComplex:
    """Parse the ``.cplx`` format: one facet per line, whitespace-separated
    vertex labels; ``#`` starts a comment; an empty file is the empty complex.
    """
    facets = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        facets.append(line.split())
    return SimplicialComplex(facets)


def format_cplx(K: SimplicialComplex) -> str:
    lines = sorted(" ".join(sorted(f)) for f in K.facets)
    return "\n".join(lines) + ("\n" if lines else "")
