"""Symbolic homotopy types in the class of finite wedges of spheres.

The calculus covers exactly the normal forms Empty, Point and finite wedges
of spheres S^d (d >= 0), with join, smash, suspension and wedge as operators.
A normal form maps sphere dimension to multiplicity: Point is the empty map
and Empty is S^{-1}, the map {-1: 1}.  The rewrite rules (S^a * S^b =
S^{a+b+1}, S^a ^ S^b = S^{a+b}, distribution over wedges, Empty as join unit,
Point as wedge unit and smash zero) are homotopy equivalences for this class
only; nothing here applies to arbitrary spaces.

Three closed families satisfy one recurrence, X_k = A_k ^ Sigma(X_{k-1}):
Vassiliev's Grassmannian posets (A_k = S^{d(k-1)}), their oriented variant
(A_k = S^{k-1} v S^{k-1}) and the proper parts of the partition lattices
(A_k = k-1 copies of S^0).  Each family is a base case and its factor A_k;
``_unrolled`` evaluates the recurrence and returns the closed form only when
the two agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .complexes import PointedComplex, SimplicialComplex, sphere_complex, wedge as complex_wedge


class SphereCalcError(ValueError):
    """Operand outside the wedge-of-spheres calculus."""


# Largest n evaluated.  The multiplicities (n-1)! and 2^(n-2) stay well below
# the 4300-digit int-to-str limit the CLI output would hit.  Each step of a
# recurrence is one smash (a big-integer multiplication for the partition
# lattice), so at the largest n the partition type takes about 3 ms and either
# grassmannian type 65-70 ms (best of 7 on a 2-CPU x86 VM).  ORIENTED_MAX_N
# bounds both grassmannian families and exp_circle_type, whose sphere
# dimension 2n-1 is printed in full.
PARTITION_MAX_N = 500
ORIENTED_MAX_N = 10_000


@dataclass(frozen=True)
class SphereWedge:
    """Normal form: a read-only map dimension -> multiplicity, sorted by
    dimension; Point is {} and Empty is {-1: 1}, the only form with -1."""

    dims: Mapping[int, int]

    def __post_init__(self):
        items = sorted(self.dims.items())
        if any(d < -1 or c < 1 for d, c in items):
            raise SphereCalcError("need dimensions >= -1 and multiplicities >= 1")
        if items and items[0][0] == -1 and items != [(-1, 1)]:
            raise SphereCalcError("S^{-1} is Empty and cannot be wedged")
        object.__setattr__(self, "dims", MappingProxyType(dict(items)))

    def __hash__(self) -> int:
        return hash(tuple(self.dims.items()))

    @property
    def is_empty(self) -> bool:
        return -1 in self.dims

    @property
    def is_point(self) -> bool:
        return not self.dims

    def sphere_count(self) -> int:
        return 0 if self.is_empty else sum(self.dims.values())

    def __str__(self) -> str:
        if self.is_empty:
            return "Empty"
        if self.is_point:
            return "Point"
        return " v ".join(
            f"S^{d}" if c == 1 else f"{c}xS^{d}" for d, c in self.dims.items()
        )


EMPTY = SphereWedge({-1: 1})
POINT = SphereWedge({})


def sphere(d: int) -> SphereWedge:
    """S^d as a normal form; S^{-1} is EMPTY."""
    return SphereWedge({d: 1})


def wedge_of(dims: Sequence[int]) -> SphereWedge:
    """The wedge of one sphere per listed dimension (each >= 0); [] is POINT."""
    counts = Counter(dims)
    if any(d < 0 for d in counts):
        raise SphereCalcError("sphere dimensions must be >= 0")
    return SphereWedge(counts)


def _product(a: SphereWedge, b: SphereWedge, shift: int) -> SphereWedge:
    """Join (shift 1) or smash (shift 0) of wedges: S^x, S^y -> S^{x+y+shift}."""
    out: Counter[int] = Counter()
    for x, c in a.dims.items():
        for y, e in b.dims.items():
            out[x + y + shift] += c * e
    return SphereWedge(out)


def _smash2(a: SphereWedge, b: SphereWedge) -> SphereWedge:
    if a.is_empty or b.is_empty:
        raise SphereCalcError("smash with the empty space is undefined (no basepoint)")
    return _product(a, b, 0)


def suspend(x: SphereWedge) -> SphereWedge:
    return _product(sphere(0), x, 1)


def combine(operator: str, operands: Sequence[SphereWedge]) -> SphereWedge:
    """Fold an operator over normal forms: join | smash | suspend | wedge."""
    ops = list(operands)
    if operator == "join":
        out = EMPTY
        for x in ops:
            out = _product(out, x, 1)
        return out
    if operator == "smash":
        if not ops:
            raise SphereCalcError("smash needs at least one operand")
        out = ops[0]
        for x in ops[1:]:
            out = _smash2(out, x)
        return out
    if operator == "suspend":
        if len(ops) != 1:
            raise SphereCalcError(f"suspend takes one operand, got {len(ops)}")
        return suspend(ops[0])
    if operator == "wedge":
        counts: Counter[int] = Counter()
        for x in ops:
            if x.is_empty:
                raise SphereCalcError("cannot wedge the empty space (no basepoint)")
            counts.update(x.dims)
        return SphereWedge(counts)
    raise SphereCalcError(f"unknown operator {operator!r}")


# -- closed families -----------------------------------------------------------


def _check_n(n: int, low: int, high: int = ORIENTED_MAX_N) -> None:
    if n < low:
        raise SphereCalcError(f"need n >= {low}")
    if n > high:
        raise SphereCalcError(f"need n <= {high}, got {n}")


def _unrolled(
    n: int, low: int, x: SphereWedge, factor: Callable[[int], SphereWedge], closed: SphereWedge
) -> SphereWedge:
    """X_n by the recurrence X_k = factor(k) ^ Sigma(X_{k-1}) from X_low = x,
    returned only if it equals the closed form."""
    for k in range(low + 1, n + 1):
        x = _smash2(factor(k), suspend(x))
    if x != closed:
        raise SphereCalcError(f"internal check failed: {x} disagrees with closed form {closed}")
    return closed


def grassmannian_type(n: int, d: int = 1) -> SphereWedge:
    """Homotopy type of the truncated subspace-inclusion poset over a field of
    real dimension d: a single sphere S^{C(n,2) d + n - 2}, from X_2 = S^d
    with the factor A_k = S^{d(k-1)}."""
    _check_n(n, 2)
    if d not in (1, 2, 4):
        raise SphereCalcError("field dimension must be 1, 2 or 4")
    closed = sphere(comb(n, 2) * d + n - 2)
    return _unrolled(n, 2, sphere(d), lambda k: sphere(d * (k - 1)), closed)


def oriented_grassmannian_type(n: int) -> SphereWedge:
    """Oriented variant: a wedge of 2^{n-2} spheres of dimension C(n,2)+n-2,
    from X_2 = S^1 with the factor A_k = S^{k-1} v S^{k-1}."""
    _check_n(n, 2)
    closed = SphereWedge({comb(n, 2) + n - 2: 2 ** (n - 2)})
    return _unrolled(n, 2, sphere(1), lambda k: SphereWedge({k - 1: 2}), closed)


def partition_type(n: int) -> SphereWedge:
    """Homotopy type of the proper part of the partition lattice: a wedge of
    (n-1)! spheres of dimension n-3, from X_3 = S^0 v S^0 with the factor
    A_k = k-1 copies of S^0, since the wedge of k-1 copies of Sigma(X_{k-1})
    is (S^0 v ... v S^0) ^ Sigma(X_{k-1})."""
    _check_n(n, 3, PARTITION_MAX_N)
    closed = SphereWedge({n - 3: factorial(n - 1)})
    return _unrolled(n, 3, SphereWedge({0: 2}), lambda k: SphereWedge({0: k - 1}), closed)


def exp_circle_type(n: int) -> SphereWedge:
    """Homotopy type of the order complex of the poset of at most n points on
    a circle: S^n smashed with the boundary-collapsed simplex model, which is
    S^{n-1}, giving S^{2n-1}.
    """
    _check_n(n, 1)
    collapsed_simplex = sphere(n - 1)
    return _smash2(sphere(n), collapsed_simplex)


# -- simplicial realization -----------------------------------------------------


def implied_betti(x: SphereWedge) -> dict[int, int]:
    """Reduced Betti numbers the normal form implies (degree -> rank)."""
    return dict(x.dims)


def realize(x: SphereWedge) -> SimplicialComplex:
    """A simplicial model: a wedge of boundary-of-simplex spheres."""
    if x.is_empty:
        return SimplicialComplex()
    if x.is_point:
        return SimplicialComplex([["pt"]])
    parts = []
    for d, c in x.dims.items():
        K = sphere_complex(d)
        parts += [PointedComplex(K, K.vertices[0])] * c
    return complex_wedge(parts).complex
