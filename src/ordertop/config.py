"""Configuration-poset computations: binary-partition cohomology counts for
unordered planar configurations, the duality-predicted Betti table for point
clouds on the 2-sphere, the cyclic-polytope circle model, and the neighborly
embedding bound.

The Betti numbers for the 2-sphere case are never computed from a simplicial
model (none is available); they come from the mod-2 cohomology of planar
configuration spaces pushed through duality, so all ranks are over Z/2 and
integral torsion is reported as unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complexes import cyclic_polytope_boundary, is_pseudomanifold
from .homology import HomologyProfile, reduced_homology
from .posets import exp_discrete_poset


class ConfigError(ValueError):
    """Parameter out of range."""


# Largest point count n for the power-of-two tables.  Their memoised
# recursion runs up to n frames deep and its cache lives for one table:
# n = 400 takes under a second, fuchs_table(495) overflows the default
# recursion limit and predicted_betti_exp2(2000) would hold 1.27 GB.
MAX_N = 400

# Largest face count of the circle model's sphere (``circle_face_count``).
# At the largest m admitted for each n, in a fresh process on a 2-CPU x86
# VM: n = 1 (m = 100000) takes 2.2 s and 127 MB, n = 3 (m = 55) 2.5 s and
# 169 MB, n = 6 (m = 18) 1.3 s and 186 MB, n = 7 (m = 17) 0.9 s; n >= 8
# is never admitted.
MAX_CIRCLE_FACES = 200_000


def _check_max_n(n: int) -> None:
    if n > MAX_N:
        raise ConfigError(f"need n <= {MAX_N}, got {n}")


def _power_sum_count(total: int, parts: int, max_exp: int, memo: dict) -> int:
    """Multisets of exactly ``parts`` powers of two, each at most 2^max_exp,
    summing to ``total``.  ``memo`` belongs to one top-level call, so the
    cache is freed when that call returns."""
    if parts == 0:
        return 1 if total == 0 else 0
    if total <= 0:
        return 0
    key = (total, parts, max_exp)
    count = memo.get(key)
    if count is None:
        count = 0
        exp = min(max_exp, total.bit_length() - 1)
        for a in range(exp, -1, -1):
            count += _power_sum_count(total - (1 << a), parts - 1, a, memo)
        memo[key] = count
    return count


def _fuchs_dimension(n: int, k: int, memo: dict) -> int:
    if k < 0 or k >= n:
        return 0
    return _power_sum_count(n, n - k, n.bit_length(), memo)


def fuchs_dimension(n: int, k: int) -> int:
    """Z/2 dimension of H^k of the space of n distinct unordered points in the
    plane: the number of multisets of n-k powers of two summing to n."""
    if n < 1:
        raise ConfigError("need n >= 1")
    return _fuchs_dimension(n, k, {})


def binary_partition_count(n: int) -> int:
    """Number of multisets of powers of two summing to n (any part count)."""
    if n < 0:
        raise ConfigError("need n >= 0")
    memo: dict = {}
    return sum(_power_sum_count(n, p, n.bit_length(), memo) for p in range(n + 1))


@dataclass(frozen=True)
class FuchsTable:
    """Per-degree Z/2 cohomology dimensions for n unordered planar points."""

    n: int
    dims: dict[int, int]

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)


def fuchs_table(n: int) -> FuchsTable:
    _check_max_n(n)
    memo: dict = {}
    return FuchsTable(n, {k: _fuchs_dimension(n, k, memo) for k in range(n)})


@dataclass(frozen=True)
class PredictedBetti:
    """Duality-predicted reduced Z/2 Betti table for at most n points on S^2."""

    n: int
    m: int
    betti: dict[int, int]

    def betti_number(self, p: int) -> int:
        return self.betti.get(p, 0)

    @property
    def sphere_like(self) -> bool:
        return sum(1 for v in self.betti.values() if v) == 1


def predicted_betti_exp2(n: int) -> PredictedBetti:
    """Reduced Betti numbers (Z/2) of the order complex for at most n points
    on the 2-sphere: degree p receives the planar configuration cohomology in
    degree 3n - p - 1."""
    if n < 1:
        raise ConfigError("need n >= 1")
    _check_max_n(n)
    betti = {}
    memo: dict = {}
    for p in range(3 * n):
        rank = _fuchs_dimension(n, 3 * n - p - 1, memo)
        if rank:
            betti[p] = rank
    return PredictedBetti(n, 2, betti)


def neighborly_bound(n: int) -> int:
    """Lower bound 3n for the ambient dimension of an n-neighborly embedding
    of the 2-sphere, valid because the degree 3n-1 predicted rank is nonzero."""
    if n < 1:
        raise ConfigError("need n >= 1")
    top = predicted_betti_exp2(n).betti_number(3 * n - 1)
    if top == 0:
        raise ConfigError(f"internal failure: degree {3 * n - 1} rank is zero")
    return 3 * n


@dataclass(frozen=True)
class CircleModelReport:
    """Homology verdict for the cyclic-polytope model of n points on a circle."""

    n: int
    m: int
    profile: HomologyProfile
    pseudomanifold: bool

    @property
    def passed(self) -> bool:
        want = {2 * self.n - 1: 1}
        return (
            self.pseudomanifold
            and self.profile.betti == want
            and not self.profile.torsion
        )


def circle_face_count(n: int, m: int) -> int:
    """Nonempty faces of the boundary of the cyclic polytope with m vertices
    in dimension d = 2n, from its h-vector: h_i = C(m-d-1+i, i) for i <= n,
    h_{d-i} = h_i, and f_{j-1} = sum_i C(d-i, j-i) h_i (Ziegler, *Lectures
    on Polytopes*, ch. 8)."""
    d = 2 * n
    h = [comb(m - d - 1 + i, i) for i in range(n + 1)]
    h += h[-2::-1]
    return sum(comb(d - i, j - i) * h[i] for j in range(1, d + 1) for i in range(j + 1))


def circle_model_check(n: int, m: int, coeff: str = "Z") -> CircleModelReport:
    """Build the boundary of the cyclic polytope with m vertices in dimension
    2n and check it has exactly the homology of S^{2n-1} plus the
    every-ridge-in-two-facets property."""
    if n < 1:
        raise ConfigError("need n >= 1")
    if m < 2 * n + 2:
        raise ConfigError(f"need m >= 2n + 2 = {2 * n + 2}, got {m}")
    # A facet alone has 4^n - 1 nonempty faces, so large n is refused uncounted.
    if 2 * n > MAX_CIRCLE_FACES.bit_length():
        raise ConfigError(
            f"the sphere has at least 4^{n} - 1 faces, above the limit {MAX_CIRCLE_FACES}"
        )
    faces = circle_face_count(n, m)
    if faces > MAX_CIRCLE_FACES:
        raise ConfigError(f"the sphere has {faces} faces, above the limit {MAX_CIRCLE_FACES}")
    K = cyclic_polytope_boundary(m, 2 * n)
    return CircleModelReport(
        n=n,
        m=m,
        profile=reduced_homology(K, coeff),
        pseudomanifold=is_pseudomanifold(K),
    )


@dataclass(frozen=True)
class ExpDiscreteReport:
    """Order-complex homology of bounded-size subsets of a finite set against
    the expected wedge of C(m-1, n) spheres of dimension n-1."""

    m: int
    n: int
    profile: HomologyProfile
    expected_count: int
    expected_dim: int

    @property
    def passed(self) -> bool:
        want = {self.expected_dim: self.expected_count} if self.expected_count else {}
        return self.profile.betti == want and not self.profile.torsion


def exp_discrete_check(m: int, n: int, coeff: str = "Z") -> ExpDiscreteReport:
    if not 1 <= n <= m:
        raise ConfigError(f"need 1 <= n <= m, got n={n}, m={m}")
    P = exp_discrete_poset(m, n)
    return ExpDiscreteReport(
        m=m,
        n=n,
        profile=reduced_homology(P.order_complex(), coeff),
        expected_count=comb(m - 1, n),
        expected_dim=n - 1,
    )
