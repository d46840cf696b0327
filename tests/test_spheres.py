import random
from math import comb, factorial

import pytest

from ordertop.homology import reduced_homology
from ordertop.posets import BoundedPoset, boolean_lattice
from ordertop import spheres
from ordertop.complexes import quotient_model
from ordertop.spheres import (
    EMPTY,
    POINT,
    SphereCalcError,
    SphereWedge,
    combine,
    exp_circle_type,
    grassmannian_type,
    implied_betti,
    oriented_grassmannian_type,
    partition_type,
    realize,
    sphere,
    suspend,
    wedge_of,
)


def random_form(rng):
    roll = rng.random()
    if roll < 0.15:
        return EMPTY
    if roll < 0.3:
        return POINT
    return wedge_of([rng.randint(0, 4) for _ in range(rng.randint(1, 3))])


class TestCombine:
    def test_join_spheres(self):
        assert combine("join", [sphere(0), sphere(0)]) == sphere(1)

    def test_join_cross_checked_against_homology(self):
        K = realize(combine("join", [sphere(0), sphere(0)]))
        assert reduced_homology(K).betti == {1: 1}

    def test_smash(self):
        assert combine("smash", [sphere(3), sphere(2)]) == sphere(5)

    def test_join_unit(self):
        assert combine("join", [EMPTY, wedge_of([2, 2])]) == wedge_of([2, 2])

    def test_point_absorbs_join(self):
        assert combine("join", [POINT, sphere(3)]) == POINT

    def test_point_absorbs_smash(self):
        assert combine("smash", [POINT, sphere(3)]) == POINT

    def test_smash_with_empty_rejected(self):
        with pytest.raises(SphereCalcError, match="basepoint"):
            combine("smash", [EMPTY, sphere(1)])

    def test_wedge_point_unit(self):
        assert combine("wedge", [POINT, sphere(2), POINT]) == sphere(2)

    def test_wedge_empty_rejected(self):
        with pytest.raises(SphereCalcError):
            combine("wedge", [EMPTY])

    def test_suspend_empty_is_s0(self):
        assert suspend(EMPTY) == sphere(0)

    def test_suspend_point_is_point(self):
        assert suspend(POINT) == POINT

    def test_normal_form_validation(self):
        with pytest.raises(SphereCalcError):
            SphereWedge("wedge", ())
        with pytest.raises(SphereCalcError):
            SphereWedge("point", (1,))
        with pytest.raises(SphereCalcError):
            wedge_of([-2])

    @pytest.mark.parametrize("seed", range(15))
    def test_join_commutative_associative(self, seed):
        rng = random.Random(seed)
        a, b, c = (random_form(rng) for _ in range(3))
        assert combine("join", [a, b]) == combine("join", [b, a])
        assert combine("join", [combine("join", [a, b]), c]) == combine(
            "join", [a, combine("join", [b, c])]
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_suspend_is_join_with_s0(self, seed):
        x = random_form(random.Random(100 + seed))
        assert suspend(x) == combine("join", [sphere(0), x])


class TestFamilies:
    @pytest.mark.parametrize(
        "n,d,expected", [(2, 1, 1), (3, 1, 4), (3, 2, 7), (2, 2, 2), (2, 4, 4)]
    )
    def test_grassmannian(self, n, d, expected):
        assert grassmannian_type(n, d) == sphere(expected)

    def test_grassmannian_recurrence_matches_closed_form(self):
        for d in (1, 2, 4):
            for n in range(2, 13):
                assert grassmannian_type(n, d) == sphere(comb(n, 2) * d + n - 2)

    @pytest.mark.parametrize(
        "n,count,dim", [(2, 1, 1), (3, 2, 4), (4, 4, 8)]
    )
    def test_oriented(self, n, count, dim):
        assert oriented_grassmannian_type(n) == wedge_of([dim] * count)

    def test_oriented_range(self):
        for n in range(2, 13):
            result = oriented_grassmannian_type(n)
            assert result.sphere_count() == 2 ** (n - 2)
            assert set(result.dims) == {comb(n, 2) + n - 2}

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_partition(self, n):
        assert partition_type(n) == wedge_of([n - 3] * factorial(n - 1))

    def test_partition_closed_form_check_raises(self, monkeypatch):
        # the recurrence is checked against (n-1)! spheres with a raised error,
        # which ``python -O`` keeps, not an assert
        monkeypatch.setattr(spheres, "factorial", lambda n: 1)
        with pytest.raises(SphereCalcError, match="internal check failed"):
            partition_type(4)

    def test_partition_3_realization(self):
        assert reduced_homology(realize(partition_type(3))).betti == {0: 2}

    @pytest.mark.parametrize("n,dim", [(1, 1), (2, 3), (5, 9)])
    def test_exp_circle(self, n, dim):
        assert exp_circle_type(n) == sphere(dim)

    def test_exp_circle_quotient_step_simplicially(self):
        # the collapsed-boundary simplex model really is a sphere: check the
        # subset-poset barycentric model for small n
        for n in (2, 3):
            full = boolean_lattice(n).remove(["{}"])
            proper = full.remove([max(full.elements, key=len)])
            Q = quotient_model(full.order_complex(), proper.order_complex())
            assert reduced_homology(Q).betti == {n - 1: 1}

    def test_preconditions(self):
        with pytest.raises(SphereCalcError):
            grassmannian_type(1)
        with pytest.raises(SphereCalcError):
            grassmannian_type(3, 3)
        with pytest.raises(SphereCalcError):
            partition_type(2)
        with pytest.raises(SphereCalcError):
            exp_circle_type(0)


class TestCrossModule:
    """The symbolic wedge forms and the simplicial models must agree."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partition_type_matches_order_complex(self, n):
        from ordertop.posets import partition_lattice

        trunc = BoundedPoset.from_poset(partition_lattice(n)).truncate()
        assert reduced_homology(trunc.order_complex()).betti == implied_betti(
            partition_type(n)
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_boolean_truncation_is_a_sphere(self, n):
        # the proper part of the subset lattice models S^{n-2}
        trunc = BoundedPoset.from_poset(boolean_lattice(n)).truncate()
        assert reduced_homology(trunc.order_complex()).betti == implied_betti(
            sphere(n - 2)
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exp_circle_matches_cyclic_polytope(self, n):
        from ordertop.config import circle_model_check

        profile = circle_model_check(n, 2 * n + 2).profile
        assert profile.betti == implied_betti(exp_circle_type(n))


class TestRealization:
    def test_empty_and_point(self):
        assert realize(EMPTY).is_empty
        assert reduced_homology(realize(EMPTY)).betti == {-1: 1}
        assert reduced_homology(realize(POINT)).is_acyclic

    @pytest.mark.parametrize(
        "form",
        [
            sphere(0),
            sphere(3),
            wedge_of([0, 0]),
            wedge_of([1, 1, 2]),
            wedge_of([2, 2, 2, 4]),
            grassmannian_type(3, 1),
            exp_circle_type(3),
            partition_type(5),
        ],
    )
    def test_implied_betti_matches_realization(self, form):
        if form.dims and max(form.dims) > 6:
            pytest.skip("realization capped at total dimension 6")
        assert reduced_homology(realize(form)).betti == implied_betti(form)
