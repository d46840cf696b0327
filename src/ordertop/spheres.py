"""Symbolic homotopy types in the class of finite wedges of spheres.

The calculus covers exactly the normal forms Empty, Point and finite wedges
of spheres S^d (d >= 0), with join, smash, suspension and wedge as operators.
The rewrite rules (S^a * S^b = S^{a+b+1}, S^a ^ S^b = S^{a+b}, distribution
over wedges, Empty as join unit, Point as wedge unit and smash zero) are
homotopy equivalences for this class only; nothing here applies to arbitrary
spaces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

from .complexes import PointedComplex, SimplicialComplex, sphere_complex, wedge as complex_wedge


class SphereCalcError(ValueError):
    """Operand outside the wedge-of-spheres calculus."""


@dataclass(frozen=True)
class SphereWedge:
    """Normal form: Empty, Point, or a nonempty multiset of sphere dimensions."""

    kind: str
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("empty", "point", "wedge"):
            raise SphereCalcError(f"unknown kind {self.kind!r}")
        if self.kind == "wedge":
            if not self.dims:
                raise SphereCalcError("a wedge needs at least one sphere; use POINT")
            if any(d < 0 for d in self.dims):
                raise SphereCalcError("sphere dimensions must be >= 0")
            if tuple(sorted(self.dims)) != self.dims:
                raise SphereCalcError("dims must be sorted; use wedge_of()")
        elif self.dims:
            raise SphereCalcError(f"{self.kind} carries no sphere dimensions")

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def is_point(self) -> bool:
        return self.kind == "point"

    def sphere_count(self) -> int:
        return len(self.dims)

    def dim_counts(self) -> dict[int, int]:
        return dict(sorted(Counter(self.dims).items()))

    def __str__(self) -> str:
        if self.kind == "empty":
            return "Empty"
        if self.kind == "point":
            return "Point"
        parts = []
        for d, c in self.dim_counts().items():
            parts.append(f"S^{d}" if c == 1 else f"{c}xS^{d}")
        return " v ".join(parts)


EMPTY = SphereWedge("empty")
POINT = SphereWedge("point")


def sphere(d: int) -> SphereWedge:
    """S^d as a normal form; S^{-1} is EMPTY."""
    if d == -1:
        return EMPTY
    return SphereWedge("wedge", (d,))


def wedge_of(dims: Sequence[int]) -> SphereWedge:
    dims = tuple(sorted(dims))
    return SphereWedge("wedge", dims) if dims else POINT


def _join2(a: SphereWedge, b: SphereWedge) -> SphereWedge:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    # Point has no spheres, so the product multiset is empty: Point * X = Point.
    return wedge_of([x + y + 1 for x in a.dims for y in b.dims])


def _smash2(a: SphereWedge, b: SphereWedge) -> SphereWedge:
    if a.is_empty or b.is_empty:
        raise SphereCalcError("smash with the empty space is undefined (no basepoint)")
    return wedge_of([x + y for x in a.dims for y in b.dims])


def suspend(x: SphereWedge) -> SphereWedge:
    return _join2(sphere(0), x)


def combine(operator: str, operands: Sequence[SphereWedge]) -> SphereWedge:
    """Fold an operator over normal forms: join | smash | suspend | wedge."""
    ops = list(operands)
    if operator == "join":
        out = EMPTY
        for x in ops:
            out = _join2(out, x)
        return out
    if operator == "smash":
        if not ops:
            raise SphereCalcError("smash needs at least one operand")
        out = ops[0]
        for x in ops[1:]:
            out = _smash2(out, x)
        return out
    if operator == "suspend":
        (x,) = ops
        return suspend(x)
    if operator == "wedge":
        dims: list[int] = []
        for x in ops:
            if x.is_empty:
                raise SphereCalcError("cannot wedge the empty space (no basepoint)")
            dims.extend(x.dims)
        return wedge_of(dims)
    raise SphereCalcError(f"unknown operator {operator!r}")


# -- closed families -----------------------------------------------------------


def grassmannian_type(n: int, d: int = 1) -> SphereWedge:
    """Homotopy type of the truncated subspace-inclusion poset over a field of
    real dimension d: a single sphere S^{C(n,2) d + n - 2}.

    Evaluates the recurrence X_n = S^{d(n-1)} ^ Sigma(X_{n-1}) from the base
    X_2 = S^d and cross-checks it against the closed form.
    """
    if n < 2:
        raise SphereCalcError("need n >= 2")
    if d not in (1, 2, 4):
        raise SphereCalcError("field dimension must be 1, 2 or 4")
    current = sphere(d)
    for k in range(3, n + 1):
        current = _smash2(sphere(d * (k - 1)), suspend(current))
    closed = sphere(comb(n, 2) * d + n - 2)
    if current != closed:
        raise SphereCalcError(
            f"recurrence {current} disagrees with closed form {closed}"
        )
    return closed


def oriented_grassmannian_type(n: int) -> SphereWedge:
    """Oriented variant: a wedge of 2^{n-2} spheres of dimension C(n,2)+n-2.

    Recurrence X_n = (S^{n-1} v S^{n-1}) ^ Sigma(X_{n-1}) from X_2 = S^1.
    """
    if n < 2:
        raise SphereCalcError("need n >= 2")
    current = sphere(1)
    for k in range(3, n + 1):
        current = _smash2(wedge_of([k - 1, k - 1]), suspend(current))
    closed = wedge_of([comb(n, 2) + n - 2] * 2 ** (n - 2))
    if current != closed:
        raise SphereCalcError(
            f"recurrence {current} disagrees with closed form {closed}"
        )
    return closed


def partition_type(n: int) -> SphereWedge:
    """Homotopy type of the proper part of the partition lattice: a wedge of
    (n-1)! spheres of dimension n-3, by unrolling the recurrence
    X_n = wedge of (n-1) copies of Sigma(X_{n-1}) from X_3 = S^0 v S^0.
    """
    if n < 3:
        raise SphereCalcError("need n >= 3")
    current = wedge_of([0, 0])
    for k in range(4, n + 1):
        current = combine("wedge", [suspend(current)] * (k - 1))
    if current != wedge_of([n - 3] * factorial(n - 1)):
        raise SphereCalcError(
            f"internal check failed: the recurrence for n={n} is not (n-1)! spheres"
        )
    return current


def exp_circle_type(n: int) -> SphereWedge:
    """Homotopy type of the order complex of the poset of at most n points on
    a circle: S^n smashed with the boundary-collapsed simplex model, which is
    S^{n-1}, giving S^{2n-1}.
    """
    if n < 1:
        raise SphereCalcError("need n >= 1")
    collapsed_simplex = sphere(n - 1)
    return _smash2(sphere(n), collapsed_simplex)


# -- simplicial realization -----------------------------------------------------


def implied_betti(x: SphereWedge) -> dict[int, int]:
    """Reduced Betti numbers the normal form implies (degree -> rank)."""
    if x.is_empty:
        return {-1: 1}
    return x.dim_counts() if x.kind == "wedge" else {}


def realize(x: SphereWedge) -> SimplicialComplex:
    """A simplicial model: a wedge of boundary-of-simplex spheres."""
    if x.is_empty:
        return SimplicialComplex()
    if x.is_point:
        return SimplicialComplex([["pt"]])
    parts = []
    for d in x.dims:
        K = sphere_complex(d)
        parts.append(PointedComplex(K, K.vertices[0]))
    return complex_wedge(parts).complex
