import dataclasses
import math

import numpy as np
import oracles
import pytest

from ordertop import grassmann
from ordertop.grassmann import (
    FlagComponent,
    FlagPoint,
    GrassmannError,
    check_battery,
    orbit_invariance_check,
    phi,
    slice_representative,
    subspace_gap,
)
from ordertop.spheres import grassmannian_type


class TestPhi:
    def test_distinct_diagonal(self):
        flag = phi(np.diag([1.0, 2.0, 3.0]))
        assert flag.support == (1, 2)
        weights = [c.weight for c in flag.components]
        assert np.allclose(weights, [0.5, 0.5])
        e1 = np.array([[1.0], [0.0], [0.0]])
        assert subspace_gap(flag.components[0].basis, e1) < 1e-12
        e12 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert subspace_gap(flag.components[1].basis, e12) < 1e-12

    def test_degenerate_eigenvalue_drops_stage(self):
        flag = phi(np.diag([1.0, 1.0, 2.0]))
        assert flag.support == (2,)
        assert flag.reduced_support
        assert math.isclose(flag.components[0].weight, 1.0)

    def test_identity_rejected(self):
        with pytest.raises(GrassmannError, match="identity"):
            phi(np.eye(3))
        with pytest.raises(GrassmannError, match="identity"):
            phi(7.5 * np.eye(4))

    def test_non_symmetric_rejected(self):
        with pytest.raises(GrassmannError, match="symmetric"):
            phi(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_weights_positive_sum_one(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            raw = rng.standard_normal((4, 4))
            flag = phi(raw + raw.T)
            weights = [c.weight for c in flag.components]
            assert all(w > 0 for w in weights)
            assert abs(sum(weights) - 1.0) < 1e-10
            dims = [c.dim for c in flag.components]
            assert dims == sorted(set(dims))


class TestOrbitInvariance:
    def test_random_orbit(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((5, 5))
        A = (raw + raw.T) / 2
        report = orbit_invariance_check(A, 2.0, -5.0)
        assert report.passed
        assert report.weight_dev < 1e-8 and report.angle_dev < 1e-8

    def test_identity_action(self):
        A = np.diag([1.0, 2.0, 4.0])
        report = orbit_invariance_check(A, 1.0, 0.0)
        assert report.passed
        assert report.weight_dev == 0.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(GrassmannError, match="alpha"):
            orbit_invariance_check(np.diag([1.0, 2.0]), -1.0, 0.0)

    def test_degenerate_input_flags_without_failing(self):
        report = orbit_invariance_check(np.diag([1.0, 1.0, 2.0]), 3.0, 1.0)
        assert report.reduced_support
        assert report.passed


class TestSlice:
    def test_diag_example(self):
        s = slice_representative(np.diag([1.0, 3.0]))
        expected = np.diag([-1.0, 1.0]) / math.sqrt(2)
        assert np.abs(s - expected).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((4, 4))
        A = raw + raw.T
        once = slice_representative(A)
        twice = slice_representative(once)
        assert np.abs(once - twice).max() < 1e-12

    def test_trace_free_unit_norm(self):
        s = slice_representative(np.diag([2.0, 5.0, 11.0]))
        assert abs(np.trace(s)) < 1e-12
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_identity_rejected(self):
        with pytest.raises(GrassmannError):
            slice_representative(4.0 * np.eye(3))

    def test_orbit_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            raw = rng.standard_normal((3, 3))
            A = raw + raw.T
            B = 1.7 * A + 0.3 * np.eye(3)
            assert np.abs(slice_representative(A) - slice_representative(B)).max() < 1e-8
            fa, fb = phi(A), phi(slice_representative(A))
            assert fa.support == fb.support
            assert max(
                abs(ca.weight - cb.weight) for ca, cb in zip(fa.components, fb.components)
            ) < 1e-8


class TestBattery:
    def test_deterministic(self):
        assert check_battery(3, 25, 9) == check_battery(3, 25, 9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_passes(self, n):
        report = check_battery(n, 30, 1234)
        assert report.passed
        assert report.max_weight_dev < 1e-8
        assert report.max_angle_dev < 1e-8
        assert report.max_slice_dev < 1e-8


def _per_block(n):
    return max(1, grassmann.BLOCK_ENTRIES // (n * n))


class TestAgainstLoopOracle:
    """The stacked core against the loop over single matrices: the same
    arithmetic per matrix, so equal results, not close ones."""

    # n = 12 has more than 8 flag stages, where a pairwise sum of the weights
    # would round differently from the loop's sequential one
    @pytest.mark.parametrize("n", [2, 8, 12])
    @pytest.mark.parametrize("extra", ["per-1", "per", "per+1", "2per+1"])
    def test_battery_across_block_boundaries(self, n, extra):
        per = _per_block(n)
        samples = {"per-1": per - 1, "per": per, "per+1": per + 1, "2per+1": 2 * per + 1}[extra]
        report = check_battery(n, samples, 31 + n)
        assert dataclasses.astuple(report) == oracles.battery(n, samples, 31 + n)

    @pytest.mark.parametrize("n", [3, 5, 9, 30])
    def test_battery_other_orders(self, n):
        for seed in range(2):
            report = check_battery(n, 40, seed)
            assert dataclasses.astuple(report) == oracles.battery(n, 40, seed)

    def test_block_size_does_not_change_report(self, monkeypatch):
        expected = oracles.battery(4, 10, 8)
        assert dataclasses.astuple(check_battery(4, 10, 8)) == expected
        monkeypatch.setattr(grassmann, "BLOCK_ENTRIES", 3 * 16)
        assert _per_block(4) == 3
        assert dataclasses.astuple(check_battery(4, 10, 8)) == expected

    @pytest.mark.parametrize(
        "A",
        [
            np.diag([1.0, 1.0, 2.0]),
            np.diag([2.0, 2.0, 2.0, 5.0]),
            np.diag([1.0, 3.0, 3.0, 3.0, 4.0]),
            np.array([[1.0, 2.0], [2.0, -1.0]]),
        ],
    )
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (3.0, 1.0), (0.25, -7.5)])
    def test_single_matrices(self, A, alpha, beta):
        report = orbit_invariance_check(A, alpha, beta)
        assert dataclasses.astuple(report) == oracles.orbit_check(A, alpha, beta)
        flag = phi(A)
        support, weights, bases = oracles.flag_point(A)
        assert flag.support == support
        assert [c.weight for c in flag.components] == weights
        for c, basis in zip(flag.components, bases):
            assert np.array_equal(c.basis, basis)
            assert subspace_gap(c.basis, basis[::-1]) == oracles.flag_subspace_gap(
                c.basis, basis[::-1]
            )
        assert np.array_equal(slice_representative(A), oracles.flag_slice(A))

    def test_failures_are_counted(self, monkeypatch):
        monkeypatch.setattr(grassmann, "CHECK_TOL", 0.0)
        report = check_battery(5, 20, 4)
        assert report.failures == report.samples == 20
        assert not report.passed
        assert dataclasses.astuple(report) == oracles.battery(5, 20, 4, check_tol=0.0)

    # at n = 2 and these tolerances, some samples pass the orbit check and
    # fail only on the slice, others fail on the angle
    @pytest.mark.parametrize("tol", [1e-16, 1e-15])
    def test_failure_criteria(self, monkeypatch, tol):
        monkeypatch.setattr(grassmann, "CHECK_TOL", tol)
        report = check_battery(2, 200, 1)
        assert 0 < report.failures < 200
        assert dataclasses.astuple(report) == oracles.battery(2, 200, 1, check_tol=tol)

    def test_reduced_supports_are_counted(self, monkeypatch):
        monkeypatch.setattr(grassmann, "WEIGHT_DROP", 0.15)
        report = check_battery(4, 300, 6)
        assert 0 < report.reduced_support_count < 300
        assert dataclasses.astuple(report) == oracles.battery(4, 300, 6, weight_drop=0.15)

    def test_support_mismatch_gives_inf(self):
        # the shift by 1e7 rounds the 1.2e-10 gap away, so stage 1 drops on
        # one side only
        A = np.diag([0.0, 1.2e-10, 1.0])
        report = orbit_invariance_check(A, 1.0, 1e7)
        assert not report.support_match and not report.passed
        assert report.weight_dev == report.angle_dev == math.inf
        assert dataclasses.astuple(report) == oracles.orbit_check(A, 1.0, 1e7)

    def test_stack_rows_are_independent(self):
        """Each row of one stack gives what the matrix gives alone: scales,
        tolerances, dropped stages and support mismatches are per matrix."""
        rng = np.random.default_rng(21)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        raw = rng.standard_normal((3, 3))
        mats = [
            np.diag([0.0, 1.2e-10, 1.0]),  # support mismatch under the shift
            Q @ np.diag([1.0, 1.0, 2.0]) @ Q.T,  # stage 1 dropped, its span arbitrary
            np.diag([1.0, 1.0 + 1e-11, 1.0 + 2e-11]),  # small spread, accepted alone
            1e3 * (raw + raw.T),
        ]
        alpha = np.array([1.0, 2.5, 0.5, 1.5])
        beta = np.array([1e7, -3.0, 0.0, 4.0])
        M = grassmann._symmetric_stack(np.stack(mats))
        B, *rows = grassmann._orbit_stack(M, alpha, beta)
        slices = grassmann._slices(M)
        for j, A in enumerate(mats):
            want = oracles.orbit_check(A, float(alpha[j]), float(beta[j]))
            assert tuple(r[j] for r in rows) == want
            assert np.array_equal(slices[j], oracles.flag_slice(A))
            assert np.array_equal(B[j], alpha[j] * M[j] + beta[j] * np.eye(3))


def _angle_devs(n, samples, seed, weight_drop=oracles.FLAG_WEIGHT_DROP):
    return [
        oracles.orbit_check(A, alpha, beta, weight_drop)[2]
        for A, alpha, beta in oracles.battery_draws(n, samples, seed)
    ]


class TestBoundedGaps:
    """check_battery runs the exact SVD only for stages whose Frobenius
    bounds say they could fail CHECK_TOL or hold the largest angle; the
    oracle runs every SVD, and the reports must still be equal."""

    # at n = 30 the bounds of each block alone, without the running maximum
    # of the blocks before it, would leave about 2% of the stages to an SVD
    @pytest.mark.parametrize("n,samples", [(8, 2000), (30, 100)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_few_stages_need_an_svd(self, monkeypatch, n, samples, seed):
        svd = np.linalg.svd
        stages = []

        def counting_svd(a, *args, **kwargs):
            stages.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(grassmann.np.linalg, "svd", counting_svd)
        check_battery(n, samples, seed)
        assert 0 < sum(stages) < 0.01 * samples * (n - 1)

    # the n = 8 gaps spread from about 1e-15 to 6e-14, so at these tolerances
    # rows that do not hold the maximum fail on the angle
    @pytest.mark.parametrize("tol", [1e-14, 3e-14])
    def test_non_maximal_angle_failures(self, monkeypatch, tol):
        angle_failures = sum(dev >= tol for dev in _angle_devs(8, 300, 3))
        assert 1 < angle_failures < 300
        monkeypatch.setattr(grassmann, "CHECK_TOL", tol)
        report = check_battery(8, 300, 3)
        assert report.failures >= angle_failures
        assert dataclasses.astuple(report) == oracles.battery(8, 300, 3, check_tol=tol)

    def test_tolerance_equal_to_a_gap(self, monkeypatch):
        """A row whose gap equals CHECK_TOL fails.  For a rank-1 residual
        the computed Frobenius norm can round an ulp below the computed SVD,
        which the margin on the bound has to cover."""
        draws = list(oracles.battery_draws(3, 40, 0))
        M = grassmann._symmetric_stack(np.stack([A for A, _, _ in draws]))
        alpha = np.array([a for _, a, _ in draws])
        beta = np.array([b for _, _, b in draws])
        exact = grassmann._orbit_stack(M, alpha, beta)[3]
        for tol in exact:
            monkeypatch.setattr(grassmann, "CHECK_TOL", tol)
            # an infinite floor leaves CHECK_TOL as the only reason to run an SVD
            pruned = grassmann._orbit_stack(M, alpha, beta, floor=math.inf)[3]
            assert np.array_equal(pruned >= tol, exact >= tol)

    def test_mismatch_in_an_early_block(self, monkeypatch):
        """A support mismatch makes the largest angle inf in the first block;
        later blocks must still find the rows that fail on the angle."""
        n, samples, seed, tol = 4, 60, 1, 1e-15
        # a stage of sample 0 weighs an ulp less on one side of the orbit
        # than on the other: dropping at the smaller weight keeps it on one
        # side only
        A, alpha, beta = next(oracles.battery_draws(n, 1, seed))
        sides = []
        for M in (A, alpha * A + beta * np.eye(n)):
            lam = np.linalg.eigh(M[None])[0][0]
            sides.append(np.diff(lam) / (lam[-1] - lam[0]))
        drop = min(np.minimum(*sides)[sides[0] != sides[1]])
        # the weights sum to 1, so a drop below 1 / (n - 1) keeps a stage
        # of every flag
        assert drop < 1 / (n - 1)
        monkeypatch.setattr(grassmann, "WEIGHT_DROP", drop)
        monkeypatch.setattr(grassmann, "CHECK_TOL", tol)
        monkeypatch.setattr(grassmann, "BLOCK_ENTRIES", 10 * n * n)
        devs = _angle_devs(n, samples, seed, weight_drop=drop)
        assert devs[0] == math.inf
        assert 0 < sum(math.isfinite(d) and d >= tol for d in devs[10:]) < samples - 10
        report = check_battery(n, samples, seed)
        assert dataclasses.astuple(report) == oracles.battery(
            n, samples, seed, check_tol=tol, weight_drop=drop
        )


class TestInputValidation:
    @pytest.mark.parametrize(
        "stages, message",
        [
            ([(0.5, 2), (0.5, 1)], "strictly nested"),
            ([(0.5, 1), (0.5, 1)], "strictly nested"),
            ([(1.5, 1), (-0.5, 2)], "positive"),
            ([(0.5, 1), (0.25, 2)], "sum to 1, got 0.75"),
        ],
    )
    def test_flag_point_validated(self, stages, message):
        components = tuple(FlagComponent(w, np.eye(3)[:, :k]) for w, k in stages)
        with pytest.raises(GrassmannError, match=message):
            FlagPoint(components)

    def test_subspace_gap_shapes_must_match(self):
        with pytest.raises(GrassmannError, match="different shapes"):
            subspace_gap(np.eye(3)[:, :1], np.eye(3)[:, :2])

    def test_non_square_rejected(self):
        with pytest.raises(GrassmannError, match="square"):
            phi(np.ones((2, 3)))
        with pytest.raises(GrassmannError, match="square"):
            slice_representative(np.ones(4))

    def test_non_finite_rejected(self):
        with pytest.raises(GrassmannError, match="finite"):
            orbit_invariance_check(np.diag([1.0, np.nan]), 1.0, 0.0)

    def test_symmetry_tolerance_scales_per_matrix(self):
        # an asymmetry of 1e-9 is within tolerance for entries of size 1e6
        big = np.diag([1e6, 2e6])
        big[0, 1] += 1e-9
        assert phi(big).support == (1,)
        small = np.diag([1.0, 2.0])
        small[0, 1] += 1e-9
        with pytest.raises(GrassmannError, match="symmetric"):
            phi(small)
        with pytest.raises(GrassmannError, match="symmetric"):
            grassmann._symmetric_stack(np.stack([big, small]))


class TestDimensionConsistency:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_slice_sphere_dimension_matches_symbolic(self, n):
        # the slice is the unit sphere of a dimension C(n,2)+n-1 space
        slice_space_dim = n * (n + 1) // 2 - 1
        (sphere_dim,) = grassmannian_type(n, 1).dims
        assert sphere_dim == slice_space_dim - 1
