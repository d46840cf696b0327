"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value and tolerance is pinned in place.
"""

import random
import time
from math import factorial

import numpy as np
import pytest

from randgen import (
    random_antichain,
    random_bounded_poset,
    random_complex,
    random_poset,
    random_two_chain_diagram,
)
from ordertop import complementation, config, grassmann, spheres
from ordertop.complexes import join, suspension
from ordertop.homology import ChainComplex, philip_hall_check, reduced_homology
from ordertop.posets import BoundedPoset, boolean_lattice, partition_lattice


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_partition_lattice_homology():
    timings = {}
    for n in (3, 4, 5, 6):
        t0 = time.perf_counter()
        trunc = BoundedPoset.from_poset(partition_lattice(n)).truncate()
        profile = reduced_homology(trunc.order_complex())
        timings[n] = time.perf_counter() - t0
        expected = {n - 3: factorial(n - 1)}
        assert profile.betti == expected, (n, profile)
        assert not profile.torsion, (n, profile)
    ok = timings[6] < 120.0
    report(
        1,
        "partition-lattice",
        ok,
        f"ranks (2,6,24,120) in degrees (0,1,2,3); n=6 took {timings[6]:.2f}s",
    )


def test_criterion_2_philip_hall():
    checked = 0
    for n in (2, 3, 4, 5):
        assert philip_hall_check(BoundedPoset.from_poset(boolean_lattice(n))).passed
        checked += 1
    for n in (3, 4, 5):
        assert philip_hall_check(BoundedPoset.from_poset(partition_lattice(n))).passed
        checked += 1
    for seed in range(200):
        B = random_bounded_poset(random.Random(9000 + seed))
        result = philip_hall_check(B)
        assert result.passed, (seed, result)
        checked += 1
    report(2, "philip-hall", True, f"{checked} posets, exact equality")


def test_criterion_3_complementation_formula():
    lattices = [("boolean", n, BoundedPoset.from_poset(boolean_lattice(n))) for n in (2, 3, 4, 5)]
    lattices += [("partition", n, BoundedPoset.from_poset(partition_lattice(n))) for n in (3, 4, 5)]
    acyclic_checked = wedge_checked = 0
    for _, _, L in lattices:
        trunc = L.truncate()
        for z in trunc:
            result = complementation.verify(L, z)
            assert result.removed_acyclic, (L, z)
            acyclic_checked += 1
            if trunc.is_antichain(result.complements):
                assert result.wedge_match, (L, z)
                wedge_checked += 1
    assert wedge_checked > 0
    report(
        3,
        "complementation",
        True,
        f"{acyclic_checked} removals acyclic, {wedge_checked} wedge decompositions exact",
    )


def test_criterion_4_finite_antichain_quotient():
    for seed in range(100):
        rng = random.Random(7000 + seed)
        P = random_poset(rng, max_elements=30)
        C = random_antichain(rng, P)
        result = complementation.quotient_wedge_check(P, C)
        assert result.passed, (seed, sorted(C))
    report(4, "antichain-quotient", True, "100 seeded (poset, antichain) pairs")


def test_criterion_5_circle_model():
    cases = [(1, m) for m in range(4, 11)]
    cases += [(2, m) for m in range(6, 11)]
    cases += [(3, m) for m in range(8, 13)]
    for n, m in cases:
        result = config.circle_model_check(n, m)
        assert result.passed, (n, m, result.profile)
        assert result.profile.betti == {2 * n - 1: 1}
        assert not result.profile.torsion
        assert result.pseudomanifold
    report(5, "circle-model", True, f"{len(cases)} cyclic-polytope models, all S^(2n-1)")


def test_criterion_6_not_a_sphere_and_neighborly():
    one = config.predicted_betti_exp2(1)
    assert one.betti == {2: 1} and one.sphere_like
    for n in range(2, 11):
        predicted = config.predicted_betti_exp2(n)
        nonzero = [p for p, r in predicted.betti.items() if r]
        assert len(nonzero) >= 2, (n, predicted)
        assert predicted.betti_number(3 * n - 1) == 1
        assert predicted.betti_number(3 * n - 2) == 1
        assert not predicted.sphere_like
        assert config.neighborly_bound(n) == 3 * n
    assert config.neighborly_bound(1) == 3
    report(6, "not-a-sphere", True, "n=2..10 two top classes; bound 3n certified")


def test_criterion_7_grassmannian_closed_forms():
    from math import comb

    count = 0
    for d in (1, 2, 4):
        for n in range(2, 13):
            assert spheres.grassmannian_type(n, d) == spheres.sphere(comb(n, 2) * d + n - 2)
            count += 1
    for n in range(2, 13):
        result = spheres.oriented_grassmannian_type(n)
        assert result == spheres.wedge_of([comb(n, 2) + n - 2] * 2 ** (n - 2))
        count += 1
    report(7, "grassmannian-forms", True, f"{count} recurrence/closed-form agreements")


def test_criterion_8_numeric_flag_map():
    worst = 0.0
    for n in (3, 4, 5):
        battery = grassmann.check_battery(n, 100, seed=20_000 + n)
        assert battery.failures == 0, battery
        worst = max(worst, battery.max_weight_dev, battery.max_angle_dev, battery.max_slice_dev)
    assert worst < 1e-8
    degenerate = [np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 2.0, 2.0, 5.0])]
    for A in degenerate:
        result = grassmann.orbit_invariance_check(A, 2.0, 0.5)
        assert result.reduced_support
        assert result.passed, result
    report(8, "numeric-flag-map", True, f"300 samples, max deviation {worst:.2e}")


def test_criterion_9_structural_suites():
    # join-Kunneth over Z/2
    for seed in range(50):
        rng = random.Random(30_000 + seed)
        K, L = random_complex(rng, 8, 5, 4), random_complex(rng, 8, 5, 4)
        pk, pl = reduced_homology(K, "z2"), reduced_homology(L, "z2")
        pj = reduced_homology(join(K, L), "z2")
        for k in range(-1, K.dim + L.dim + 2):
            expected = sum(
                pk.betti_number(i) * pl.betti_number(k - 1 - i) for i in range(-1, k + 1)
            )
            assert pj.betti_number(k) == expected, (seed, k)

    # suspension shifts degrees by one, exactly
    for seed in range(50):
        K = random_complex(random.Random(31_000 + seed))
        before, after = reduced_homology(K), reduced_homology(suspension(K))
        assert after.betti == {k + 1: b for k, b in before.betti.items()}
        assert after.torsion == {k + 1: t for k, t in before.torsion.items()}

    # boundary-of-boundary vanishes on construction for random complexes
    for seed in range(50):
        ChainComplex.from_complex(random_complex(random.Random(32_000 + seed)))

    # mapping-cylinder homology over two-chain diagrams
    for seed in range(50):
        D = random_two_chain_diagram(random.Random(33_000 + seed))
        assert diagrams_cylinder_passed(D), seed

    report(9, "structural-suites", True, "Kunneth, suspension, d∘d=0, cylinder: 200 checks")


def diagrams_cylinder_passed(D):
    from ordertop.diagrams import cylinder_check

    return cylinder_check(D).passed
