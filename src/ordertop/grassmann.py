"""Numeric eigenvalue flag map on real symmetric matrices.

A symmetric matrix that is not a multiple of the identity determines a point
in the join of the subspace strata: nested eigenvector spans weighted by
normalized eigenvalue gaps.  The map is invariant under A -> alpha A + beta I
(alpha > 0), and the trace-free unit-norm slice picks one representative per
orbit; both facts are checked numerically on sampled inputs.

Every computation runs on stacks of shape (k, n, n): one stacked ``eigh`` per
stack for the flags, one stacked projection residual per flag stage for the
angles, and the slices of the whole stack at once.  An angle is the largest
singular value of its residual.  ``check_battery`` runs that SVD on one
stage per block, whose gap floors the largest angle, and then only on the
few stages whose Frobenius bounds say they could fail the tolerance or hold
the maximum; its report is the one that computing every gap gives.  The
single-matrix functions (``phi``, ``orbit_invariance_check``,
``slice_representative``, ``subspace_gap``) are stacks of one, and
``check_battery`` draws its samples in blocks of
``max(1, BLOCK_ENTRIES // n^2)`` matrices, so its memory does not grow with
the sample count.  Per matrix the arithmetic is that of a loop over single
matrices, in the same order (weights are normalised by a sequential sum and
Frobenius norms are dot products), but not always bit-identical to it: the
first stage's residual, taken from a strided view through a stacked matmul,
can round differently from a contiguous 2-D product.  The angles agree with
such a loop to rounding (5 of the first 60 samples at n = 4, seed 0 differ,
near 1e-15), and so does a battery's largest angle: in 107 of 2,880 seeded
batteries (n from 2 to 12, 1 to 40 samples) it differs from the loop's, by
at most 2.3e-16.  The failure counts at the default ``CHECK_TOL`` are the
same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12
WEIGHT_DROP = 1e-10
CHECK_TOL = 1e-8

# Largest matrix order for check_battery: a sample builds n - 1 projection
# residuals of up to n x n, so time grows as n^4 (about 0.01 s per sample at
# n = 100).
MAX_N = 100

# Largest samples * n^2 for check_battery, which bounds its total work.  A
# sample costs about 0.4-1.4 us per matrix entry (one BLAS thread, 2-CPU x86
# VM): 4.4 us at n = 2, 26 us at n = 8 and 10 ms at n = 100, so the slowest
# inputs within the limit, n = 100 with 1,600 samples and n = 2 with
# 4,000,000, run in 16 s and 18 s (n = 8 with 250,000 in 7 s).
MAX_SAMPLE_ENTRIES = 16_000_000

# Matrix entries per block of battery samples (128 samples at n = 8).
BLOCK_ENTRIES = 8192

# Relative margin on a stage's Frobenius bound before its exact gap is
# skipped.  The computed SVD and Frobenius norm of one residual each round
# to within a few n * eps of the exact values (under 1e-13 at n = MAX_N), so
# a bound that stays under a threshold after widening by 1e-6 is under it
# by far more than rounding can move either.
BOUND_MARGIN = 1e-6


class GrassmannError(ValueError):
    """Invalid matrix input or undefined map value."""


# -- the stack core ------------------------------------------------------------


def _stack_of_one(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise GrassmannError(f"expected a square matrix, got shape {M.shape}")
    return M[None]


def _symmetric_stack(M: np.ndarray) -> np.ndarray:
    """Check each matrix of a (k, n, n) stack for finite entries and for
    symmetry within SYM_TOL times its own scale; return the symmetrised
    stack."""
    if not np.all(np.isfinite(M)):
        raise GrassmannError("matrix entries must be finite")
    Mt = M.swapaxes(1, 2)
    scale = np.maximum(1.0, np.abs(M).max(axis=(1, 2)))
    if np.any(np.abs(M - Mt).max(axis=(1, 2)) > SYM_TOL * scale):
        raise GrassmannError("matrix is not symmetric within tolerance")
    return (M + Mt) / 2.0


def _flags(M: np.ndarray):
    """Weighted eigenvector flags of a symmetric stack.

    Returns ``(weights, keep, vecs)``: ``weights[j, i - 1]`` is the weight of
    stage i of matrix j (0 where the stage is dropped), ``keep`` marks the
    stages above WEIGHT_DROP, and stage i spans ``vecs[j, :, :i]``.
    """
    lam, vecs = np.linalg.eigh(M)
    spread = lam[:, -1] - lam[:, 0]
    scale = np.maximum(1.0, np.abs(lam).max(axis=1))
    if np.any(spread <= SYM_TOL * scale):
        raise GrassmannError("map undefined: matrix is a multiple of the identity")
    weights = np.diff(lam, axis=1) / spread[:, None]
    keep = weights > WEIGHT_DROP
    weights = np.where(keep, weights, 0.0)
    # a running sum adds left to right like a loop; .sum() would not
    return weights / np.cumsum(weights, axis=1)[:, -1:], keep, vecs


def _residuals(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per-matrix projection residual V - U (U^T V)."""
    return V - U @ (U.swapaxes(1, 2) @ V)


def _gaps(R: np.ndarray) -> np.ndarray:
    """Per-matrix 2-norm of a stack of residuals."""
    return np.linalg.svd(R, compute_uv=False).max(axis=1)


def _may_matter(resid: list[np.ndarray], live: np.ndarray, top: float) -> np.ndarray:
    """Mark the stages whose gap could reach CHECK_TOL or the largest of
    ``top`` and the live stages' gaps.

    A stage's gap is at most ||R||_F of its residual R.  In exact arithmetic
    stage i's R has rank at most min(i, n - i), so ||R||_F / sqrt(min(i, n - i))
    would bound the gap from below; a computed residual at rounding level
    need not keep that rank, and its gap can fall under that figure.  So
    that figure only picks the live stage most likely to hold the largest
    gap, and that stage's computed gap (one SVD) is the floor: a stage whose
    upper bound stays under CHECK_TOL and under the larger of ``top`` and
    that gap neither fails the check nor holds the maximum.
    """
    n = len(resid) + 1
    frob = np.stack([np.sqrt(np.einsum("kij,kij->k", R, R)) for R in resid], axis=1)
    stage = np.arange(1, n)
    likely = np.where(live, frob / np.sqrt(np.minimum(stage, n - stage)), -1.0)
    j, i = np.unravel_index(np.argmax(likely), likely.shape)
    floor = float(_gaps(resid[i][j : j + 1])[0]) if live[j, i] else 0.0
    return frob * (1.0 + BOUND_MARGIN) >= min(CHECK_TOL, max(top, floor))


def _orbit_stack(
    M: np.ndarray, alpha: np.ndarray, beta: np.ndarray, floor: float | None = None
):
    """Compare the flag of each M[j] with that of alpha[j] M[j] + beta[j] I.

    Returns the shifted stack and, per matrix, the support match, the
    weight and angle deviations (inf where the supports differ) and whether
    the support of M[j] is reduced.

    Without ``floor`` every stage's gap is computed.  With it, two things
    about the angle deviations come out as if every gap were: which reach
    CHECK_TOL, and the largest of them and ``floor``.  A stage's gap is then
    computed only where ``_may_matter`` says it could change either, and
    counts as 0 elsewhere.
    """
    n = M.shape[1]
    B = _symmetric_stack(alpha[:, None, None] * M + beta[:, None, None] * np.eye(n))
    wa, ka, va = _flags(M)
    wb, kb, vb = _flags(B)
    match = (ka == kb).all(axis=1)
    # dropped stages weigh 0 on both sides when the supports match
    weight_dev = np.abs(wa - wb).max(axis=1)
    resid = [_residuals(va[:, :, :i], vb[:, :, :i]) for i in range(1, n)]
    measured = ka & match[:, None]
    if floor is not None:
        # a support mismatch already holds the maximum: its deviation is inf
        measured &= _may_matter(resid, measured, floor if match.all() else np.inf)
    angle_dev = np.zeros(len(M))
    for i, R in enumerate(resid):
        rows = measured[:, i]
        if rows.any():
            angle_dev[rows] = np.maximum(angle_dev[rows], _gaps(R[rows]))
    weight_dev[~match] = np.inf
    angle_dev[~match] = np.inf
    return B, match, weight_dev, angle_dev, ~ka.all(axis=1)


def _frobenius(M: np.ndarray) -> np.ndarray:
    flat = M.reshape(len(M), -1)
    return np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])


def _slices(M: np.ndarray) -> np.ndarray:
    """Trace-free, unit-Frobenius-norm representatives of a symmetric stack."""
    n = M.shape[1]
    trace = np.trace(M, axis1=1, axis2=2)
    centered = M - (trace / n)[:, None, None] * np.eye(n)
    norm = _frobenius(centered)
    if np.any(norm <= SYM_TOL * np.maximum(1.0, _frobenius(M))):
        raise GrassmannError("slice undefined: matrix is a multiple of the identity")
    return centered / norm[:, None, None]


def _orbit_passed(support_match, weight_dev, angle_dev):
    return support_match & (weight_dev < CHECK_TOL) & (angle_dev < CHECK_TOL)


# -- single matrices -----------------------------------------------------------


@dataclass(frozen=True)
class FlagComponent:
    """One weighted stage of a flag: an orthonormal basis of the subspace."""

    weight: float
    basis: np.ndarray  # shape (n, k), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class FlagPoint:
    """Strictly nested weighted subspaces; weights are positive and sum to 1."""

    components: tuple[FlagComponent, ...]

    def __post_init__(self):
        dims = [c.dim for c in self.components]
        if any(a >= b for a, b in zip(dims, dims[1:])):
            raise GrassmannError("flag subspaces must be strictly nested")
        if any(c.weight <= 0 for c in self.components):
            raise GrassmannError("flag weights must be positive")
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-10:
            raise GrassmannError(f"flag weights must sum to 1, got {total}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    @property
    def reduced_support(self) -> bool:
        """True when eigenvalue coincidences removed some flag stages."""
        n = self.components[0].basis.shape[0] if self.components else 0
        return len(self.components) < n - 1


def phi(A) -> FlagPoint:
    """Map a symmetric matrix to its weighted eigenvector flag.

    With eigenvalues l_1 <= ... <= l_n, stage i (spanning the first i
    eigenvectors) gets weight (l_{i+1} - l_i) / (l_n - l_1); stages whose
    weight falls below 1e-10 are dropped, which is how coinciding eigenvalues
    shrink the support.  Multiples of the identity are rejected: the flag is
    undefined there.
    """
    weights, keep, vecs = _flags(_symmetric_stack(_stack_of_one(A)))
    return FlagPoint(tuple(
        FlagComponent(float(weights[0, i - 1]), vecs[0, :, :i].copy())
        for i in range(1, vecs.shape[1])
        if keep[0, i - 1]
    ))


def subspace_gap(U: np.ndarray, V: np.ndarray) -> float:
    """Sine of the largest principal angle between equal-dimension spans.

    Computed from the projection residual, which stays well conditioned for
    tiny angles (the arccos of a singular value near 1 does not).
    """
    if U.shape != V.shape:
        raise GrassmannError("subspace bases have different shapes")
    return float(_gaps(_residuals(U[None], V[None]))[0])


@dataclass(frozen=True)
class OrbitReport:
    """Flag comparison between A and alpha A + beta I."""

    support_match: bool
    weight_dev: float
    angle_dev: float
    reduced_support: bool

    @property
    def passed(self) -> bool:
        return bool(_orbit_passed(self.support_match, self.weight_dev, self.angle_dev))


def orbit_invariance_check(A, alpha: float, beta: float) -> OrbitReport:
    """Check phi(A) == phi(alpha A + beta I) within tolerance; alpha > 0."""
    if alpha <= 0:
        raise GrassmannError("alpha must be positive")
    M = _symmetric_stack(_stack_of_one(A))
    _, match, weight_dev, angle_dev, reduced = _orbit_stack(
        M, np.array([alpha], dtype=float), np.array([beta], dtype=float)
    )
    return OrbitReport(
        bool(match[0]), float(weight_dev[0]), float(angle_dev[0]), bool(reduced[0])
    )


def slice_representative(A) -> np.ndarray:
    """The unique trace-free, unit-Frobenius-norm point on the orbit of A."""
    return _slices(_symmetric_stack(_stack_of_one(A)))[0]


# -- the sampled battery -------------------------------------------------------


@dataclass(frozen=True)
class BatteryReport:
    """Aggregate outcome of the sampled property battery."""

    n: int
    samples: int
    failures: int
    max_weight_dev: float
    max_angle_dev: float
    max_slice_dev: float
    reduced_support_count: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def check_battery(n: int, samples: int, seed: int) -> BatteryReport:
    """Run orbit-invariance and slice-agreement checks on seeded random
    symmetric matrices; failures are deviations at or above 1e-8.

    Sample j draws its matrix, then alpha, then beta, from one generator, so
    the samples do not depend on the block size.
    """
    if n < 2:
        raise GrassmannError("need matrix order n >= 2")
    if n > MAX_N:
        raise GrassmannError(f"need n <= {MAX_N}, got {n}")
    if samples < 1:
        raise GrassmannError(f"need samples >= 1, got {samples}")
    if samples * n * n > MAX_SAMPLE_ENTRIES:
        raise GrassmannError(
            f"need samples * n^2 <= {MAX_SAMPLE_ENTRIES}, got {samples} * {n}^2 = {samples * n * n}"
        )
    if seed < 0:
        raise GrassmannError(f"need seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    per_block = max(1, BLOCK_ENTRIES // (n * n))
    failures = reduced = 0
    max_weight = max_angle = max_slice = 0.0
    for start in range(0, samples, per_block):
        k = min(per_block, samples - start)
        raw = np.empty((k, n, n))
        u = np.empty((k, 2))
        for j in range(k):
            rng.standard_normal(out=raw[j])
            rng.random(out=u[j])
        # rng.uniform(low, high) draws low + (high - low) * rng.random()
        alpha = 0.1 + (3.0 - 0.1) * u[:, 0]
        beta = -5.0 + (5.0 - -5.0) * u[:, 1]
        M = _symmetric_stack((raw + raw.swapaxes(1, 2)) / 2.0)
        B, match, weight_dev, angle_dev, reduced_support = _orbit_stack(
            M, alpha, beta, floor=max_angle
        )
        slice_dev = np.abs(_slices(M) - _slices(B)).max(axis=(1, 2))
        max_weight = max(max_weight, float(weight_dev.max()))
        max_angle = max(max_angle, float(angle_dev.max()))
        max_slice = max(max_slice, float(slice_dev.max()))
        reduced += int(reduced_support.sum())
        failed = ~_orbit_passed(match, weight_dev, angle_dev) | (slice_dev >= CHECK_TOL)
        failures += int(failed.sum())
    return BatteryReport(n, samples, failures, max_weight, max_angle, max_slice, reduced)
