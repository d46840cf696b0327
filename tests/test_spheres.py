import random
from collections import Counter
from dataclasses import FrozenInstanceError
from math import comb, factorial

import pytest

import oracles
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
        # dimension below -1, multiplicity below 1, S^{-1} not alone or twice
        for dims in ({-2: 1}, {2: 0}, {2: -1}, {-1: 1, 0: 1}, {-1: 1, 3: 2}, {-1: 2}):
            with pytest.raises(SphereCalcError):
                SphereWedge(dims)
        for dims in ([-1], [-2], [0, -1]):
            with pytest.raises(SphereCalcError):
                wedge_of(dims)

    def test_empty_is_s_minus_one_and_point_the_empty_map(self):
        assert EMPTY == sphere(-1) == SphereWedge({-1: 1})
        assert POINT == wedge_of([]) == SphereWedge({})
        assert combine("suspend", [EMPTY]) == sphere(0)
        assert combine("smash", [EMPTY]) == EMPTY
        assert combine("join", []) == EMPTY
        assert EMPTY.sphere_count() == 0
        assert POINT.sphere_count() == 0
        assert (str(EMPTY), str(POINT)) == ("Empty", "Point")

    def test_frozen_sorted_and_hashable(self):
        a, b = wedge_of([3, 1, 3]), SphereWedge({3: 2, 1: 1})
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert list(a.dims.items()) == [(1, 1), (3, 2)]
        assert str(a) == "S^1 v 2xS^3"
        assert a.sphere_count() == 3
        with pytest.raises(TypeError):
            a.dims[1] = 5
        with pytest.raises(FrozenInstanceError):
            a.dims = {}

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


def random_expanded(rng):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.3:
        return []
    return sorted(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))


def expand(x):
    if x.is_empty:
        return None
    return sorted(d for d, c in x.dims.items() for _ in range(c))


class TestAgainstMultisetModel:
    """The dimension -> multiplicity forms against the fully expanded model."""

    @pytest.mark.parametrize("operator", ["join", "smash", "wedge", "suspend", "unknown"])
    def test_random_operand_lists(self, operator):
        rng = random.Random(2024)
        for _ in range(2000):
            expanded = [random_expanded(rng) for _ in range(rng.randint(0, 4))]
            forms = [EMPTY if e is None else wedge_of(e) for e in expanded]
            try:
                want = oracles.multiset_combine(operator, expanded)
            except oracles.MultisetCalcError:
                with pytest.raises(SphereCalcError):
                    combine(operator, forms)
                continue
            got = combine(operator, forms)
            assert expand(got) == want
            if want is None:
                assert implied_betti(got) == {-1: 1} and got.sphere_count() == 0
            else:
                assert implied_betti(got) == Counter(want)
                assert got.sphere_count() == len(want)


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

    def test_closed_forms_beyond_expanded_memory(self):
        # expanded, these are 12! and 2^38 entries
        assert partition_type(13) == SphereWedge({10: factorial(12)})
        assert partition_type(13).sphere_count() == factorial(12)
        assert oriented_grassmannian_type(40) == SphereWedge({comb(40, 2) + 38: 2**38})

    @pytest.mark.parametrize("family", [oriented_grassmannian_type, grassmannian_type])
    def test_grassmannian_closed_form_checks_raise(self, monkeypatch, family):
        monkeypatch.setattr(spheres, "comb", lambda n, k: 0)
        with pytest.raises(SphereCalcError, match="disagrees with closed form"):
            family(4)

    def test_partition_closed_form_check_raises(self, monkeypatch):
        # the recurrence is checked against (n-1)! spheres with a raised error,
        # which ``python -O`` keeps, not an assert
        monkeypatch.setattr(spheres, "factorial", lambda n: 1)
        with pytest.raises(SphereCalcError, match="internal check failed"):
            partition_type(4)

    # family, its closed form computed here, and its range of n
    FAMILIES = {
        "grassmannian-1": (
            lambda n: grassmannian_type(n, 1), lambda n: {comb(n, 2) + n - 2: 1}, 2, 10_000
        ),
        "grassmannian-2": (
            lambda n: grassmannian_type(n, 2), lambda n: {2 * comb(n, 2) + n - 2: 1}, 2, 10_000
        ),
        "grassmannian-4": (
            lambda n: grassmannian_type(n, 4), lambda n: {4 * comb(n, 2) + n - 2: 1}, 2, 10_000
        ),
        "oriented": (
            oriented_grassmannian_type, lambda n: {comb(n, 2) + n - 2: 2 ** (n - 2)}, 2, 10_000
        ),
        "partition": (partition_type, lambda n: {n - 3: factorial(n - 1)}, 3, 500),
        "exp-circle": (exp_circle_type, lambda n: {2 * n - 1: 1}, 1, 10_000),
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_equals_closed_form_on_its_range(self, name):
        family, closed_form, low, high = self.FAMILIES[name]
        for n in [*range(low, 61), high]:
            assert family(n).dims == closed_form(n), n
        with pytest.raises(SphereCalcError, match=f"^need n >= {low}$"):
            family(low - 1)
        with pytest.raises(SphereCalcError, match=f"^need n <= {high}, got {high + 1}$"):
            family(high + 1)

    def test_n_is_checked_before_d(self):
        with pytest.raises(SphereCalcError, match="^need n >= 2$"):
            grassmannian_type(1, 3)
        with pytest.raises(SphereCalcError, match="^need n <= 10000, got 10001$"):
            grassmannian_type(10_001, 3)
        with pytest.raises(SphereCalcError, match="^field dimension must be 1, 2 or 4$"):
            grassmannian_type(2, 3)

    @pytest.mark.parametrize(
        "family", [grassmannian_type, oriented_grassmannian_type, partition_type]
    )
    def test_one_cross_check_message(self, monkeypatch, family):
        monkeypatch.setattr(spheres, "comb", lambda n, k: 0)
        monkeypatch.setattr(spheres, "factorial", lambda n: 1)
        with pytest.raises(
            SphereCalcError, match="^internal check failed: .* disagrees with closed form "
        ):
            family(5)

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
        with pytest.raises(SphereCalcError, match="need n >= 2"):
            oriented_grassmannian_type(1)


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
