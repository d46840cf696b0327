import random

import pytest

import oracles
from randgen import projective_plane, random_bounded_poset, random_complex
from ordertop.complexes import SimplicialComplex, empty_complex, point_complex
from ordertop.homology import (
    ChainComplex,
    HomologyError,
    HomologyProfile,
    SparseMatrix,
    normalize_coeff,
    philip_hall_check,
    reduced_homology,
    smith_normal_form,
)
from ordertop.posets import BoundedPoset, boolean_lattice, chain_poset, partition_lattice

RP2 = projective_plane()
HOLLOW_TRIANGLE = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]])


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)

    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)

    def test_hollow_triangle_boundary(self):
        # vertex x edge incidence of the hollow triangle, signed
        mat = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
        assert smith_normal_form(mat) == (1, 1)

    def test_empty_matrix(self):
        assert smith_normal_form([]) == ()
        assert smith_normal_form([[0, 0], [0, 0]]) == ()

    def test_divisibility_chain(self):
        factors = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_against_sympy(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(mat) == oracles.sympy_invariant_factors(mat)

    def test_big_integer_entries(self):
        # far outside int64: exercises the pure big-int path
        huge = 2 ** 70
        assert smith_normal_form([[huge, 0], [0, 3]]) == (1, 3 * huge)

    def test_deterministic(self):
        mat = [[6, 10, 15], [10, 15, 6], [15, 6, 10]]
        assert smith_normal_form(mat) == smith_normal_form(mat)


class TestReducedHomology:
    def test_hollow_triangle(self):
        profile = reduced_homology(HOLLOW_TRIANGLE)
        assert profile.betti == {1: 1}
        assert not profile.torsion

    def test_projective_plane_Z(self):
        profile = reduced_homology(RP2)
        assert profile.betti == {}
        assert profile.torsion == {1: (2,)}

    def test_projective_plane_Z2(self):
        profile = reduced_homology(RP2, "z2")
        assert profile.betti == {1: 1, 2: 1}

    def test_empty_complex(self):
        profile = reduced_homology(empty_complex())
        assert profile.betti == {-1: 1}

    def test_point(self):
        assert reduced_homology(point_complex()).is_acyclic

    def test_coeff_validation(self):
        assert normalize_coeff("z") == "Z"
        assert normalize_coeff("z2") == "Z/2"
        with pytest.raises(HomologyError):
            reduced_homology(point_complex(), "Q")

    @pytest.mark.parametrize("seed", range(15))
    def test_betti_against_fraction_oracle(self, seed):
        K = random_complex(random.Random(seed))
        assert reduced_homology(K).betti == oracles.brute_betti(K.facets, "Q")
        assert reduced_homology(K, "z2").betti == oracles.brute_betti(K.facets, "GF2")

    @pytest.mark.parametrize("seed", range(15))
    def test_universal_coefficients_accounting(self, seed):
        # b_k(Z/2) = b_k(Z) + #even factors in degree k + in degree k-1
        K = random_complex(random.Random(400 + seed), 7, 7, 5)
        pz = reduced_homology(K)
        p2 = reduced_homology(K, "z2")
        even = {
            k: sum(1 for f in fs if f % 2 == 0) for k, fs in pz.torsion.items()
        }
        for k in range(-1, K.dim + 1):
            assert p2.betti_number(k) == (
                pz.betti_number(k) + even.get(k, 0) + even.get(k - 1, 0)
            )

    def test_universal_coefficients_on_torsion(self):
        pz = reduced_homology(RP2)
        p2 = reduced_homology(RP2, "z2")
        assert p2.betti_number(1) == pz.betti_number(1) + 1
        assert p2.betti_number(2) == pz.betti_number(2) + 1

    def test_profile_equality_ignores_dim(self):
        a = HomologyProfile("Z", {1: 1}, {}, 1)
        b = HomologyProfile("Z", {1: 1}, {}, 5)
        assert a == b
        assert a != HomologyProfile("Z/2", {1: 1}, {}, 1)


class TestChainComplex:
    def test_boundary_squared_zero_checked(self):
        # a corrupted boundary pair must be rejected
        good = ChainComplex.from_complex(HOLLOW_TRIANGLE)
        bad_d1 = SparseMatrix(
            good.boundary[1].n_rows,
            good.boundary[1].n_cols,
            tuple((r, c, 1) for r, c, _ in good.boundary[1].entries),
        )
        with pytest.raises(HomologyError, match="composition"):
            ChainComplex(good.counts, {**good.boundary, 1: bad_d1})

    @pytest.mark.parametrize("seed", range(10))
    def test_construction_validates_random_complexes(self, seed):
        K = random_complex(random.Random(500 + seed))
        cc = ChainComplex.from_complex(K)
        assert cc.counts[-1] == 1

    def test_empty_complex_chain(self):
        cc = ChainComplex.from_complex(empty_complex())
        assert cc.counts == {-1: 1}
        assert not cc.boundary


class TestPhilipHall:
    def test_boolean_3(self):
        report = philip_hall_check(BoundedPoset.from_poset(boolean_lattice(3)))
        assert (report.mobius, report.euler, report.passed) == (-1, -1, True)

    def test_chain_4(self):
        report = philip_hall_check(BoundedPoset.from_poset(chain_poset(4)))
        assert (report.mobius, report.euler) == (0, 0)

    def test_partition_4(self):
        report = philip_hall_check(BoundedPoset.from_poset(partition_lattice(4)))
        assert (report.mobius, report.euler) == (-6, -6)

    def test_too_small(self):
        with pytest.raises(Exception, match="at least 3"):
            philip_hall_check(BoundedPoset.from_poset(chain_poset(2)))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_posets(self, seed):
        B = random_bounded_poset(random.Random(600 + seed))
        assert philip_hall_check(B).passed
