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


# Largest point count n for the power-of-two tables.  ``_binary_partitions``
# holds n^2/2 counts: n = 400 takes about 0.01 s and 1.2 MB (tracemalloc
# peak) on a 2-CPU x86 VM.
MAX_N = 400

# Largest face count of the circle model's sphere (``circle_face_count``).
# At the largest m admitted for each n, in a fresh process on a 2-CPU x86
# VM: n = 1 (m = 100000) takes 2.2 s and 127 MB, n = 3 (m = 55) 2.5 s and
# 169 MB, n = 6 (m = 18) 1.3 s and 186 MB, n = 7 (m = 17) 0.9 s; n >= 8
# is never admitted.
MAX_CIRCLE_FACES = 200_000


def _binary_partitions(n: int) -> list[int]:
    """Entry p is b(n, p): the number of multisets of exactly p powers of two
    summing to n.  Rows are built forward from b(s, p) = b(s-1, p-1) +
    [s even] b(s/2, p): a multiset with a part 1 loses it, one without has
    every part halved (Churchhouse's halving recurrence, refined by parts)."""
    if n > MAX_N:
        raise ConfigError(f"need n <= {MAX_N}, got {n}")
    rows = [[1]]
    for s in range(1, n + 1):
        row = [0] + rows[s - 1]
        if s % 2 == 0:
            for p, count in enumerate(rows[s // 2]):
                row[p] += count
        rows.append(row)
    return rows[n]


def _fuchs_row(n: int) -> list[int]:
    """The row b(n, p) for a configuration of n >= 1 points."""
    if n < 1:
        raise ConfigError("need n >= 1")
    return _binary_partitions(n)


def binary_partition_count(n: int) -> int:
    """Number of multisets of powers of two summing to n (any part count)."""
    if n < 0:
        raise ConfigError("need n >= 0")
    return sum(_binary_partitions(n))


@dataclass(frozen=True)
class FuchsTable:
    """Per-degree Z/2 cohomology dimensions for n unordered planar points."""

    n: int
    dims: dict[int, int]

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)


def fuchs_table(n: int) -> FuchsTable:
    row = _fuchs_row(n)
    return FuchsTable(n, {k: row[n - k] for k in range(n)})


def fuchs_dimension(n: int, k: int) -> int:
    """Z/2 dimension of H^k of the space of n distinct unordered points in the
    plane: the number of multisets of n-k powers of two summing to n."""
    return fuchs_table(n).dim(k)


@dataclass(frozen=True)
class PredictedBetti:
    """Duality-predicted reduced Z/2 Betti table for at most n points on S^2."""

    n: int
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
    row = _fuchs_row(n)
    # b(n, q) is the rank in cohomological degree n - q, so in degree 2n - 1 + q
    betti = {2 * n - 1 + q: row[q] for q in range(1, n + 1) if row[q]}
    return PredictedBetti(n, betti)


def neighborly_bound(n: int) -> int:
    """Lower bound 3n for the ambient dimension of an n-neighborly embedding
    of the 2-sphere, valid because the degree 3n-1 predicted rank is nonzero."""
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
