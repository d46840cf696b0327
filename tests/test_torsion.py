"""Torsion-rich differential harness for the exact homology reducer.

Every case is checked against sympy's Smith normal form over Z and Gaussian
elimination over GF(2).  Barycentric subdivision and universal coefficients
give two more checks that need no oracle.
"""

import random
from math import prod

import pytest

import oracles
import randgen
from ordertop.complexes import join
from ordertop.homology import reduced_homology
from ordertop.posets import face_poset

NAMED = randgen.torsion_cases()
NAMED_Z = {
    "rp2": ({}, {1: (2,)}),
    "klein": ({1: 1}, {1: (2,)}),
    "moore3": ({}, {1: (3,)}),
    "susp_rp2": ({}, {2: (2,)}),
    "susp2_rp2": ({}, {3: (2,)}),
    # Kunneth for joins: Z/2 (x) Z/2 in degree 3, Tor(Z/2, Z/2) in degree 4
    "join_rp2_rp2": ({}, {3: (2,), 4: (2,)}),
}


def planted(seed):
    return randgen.planted_torsion_complex(random.Random(700 + seed))


SMALL = [NAMED[name] for name in sorted(NAMED) if name != "join_rp2_rp2"]
SMALL += [planted(seed)[0] for seed in range(8)]
EVERY = SMALL + [NAMED["join_rp2_rp2"]]


def z_profile(K):
    profile = reduced_homology(K)
    return profile.betti, profile.torsion


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_against_oracles(name):
    K = NAMED[name]
    assert z_profile(K) == oracles.sympy_homology(K.facets) == NAMED_Z[name]
    assert reduced_homology(K, "z2").betti == oracles.brute_betti(K.facets, "GF2")


@pytest.mark.parametrize("seed", range(20))
def test_planted_against_oracles(seed):
    K, degree, m = planted(seed)
    assert z_profile(K) == oracles.sympy_homology(K.facets)
    assert prod(reduced_homology(K).torsion_factors(degree)) % m == 0
    assert reduced_homology(K, "z2").betti == oracles.brute_betti(K.facets, "GF2")


@pytest.mark.parametrize("index", range(len(SMALL)))
def test_barycentric_subdivision_invariance(index):
    K = SMALL[index]
    subdivided = face_poset(K).order_complex()
    for coeff in ("z", "z2"):
        assert reduced_homology(subdivided, coeff) == reduced_homology(K, coeff)


@pytest.mark.parametrize("index", range(len(EVERY)))
def test_universal_coefficients(index):
    # b_k(Z/2) = b_k(Z) + #even factors in degree k + in degree k-1
    K = EVERY[index]
    pz, p2 = reduced_homology(K), reduced_homology(K, "z2")
    even = {k: sum(1 for f in fs if f % 2 == 0) for k, fs in pz.torsion.items()}
    for k in range(-1, K.dim + 1):
        assert p2.betti_number(k) == pz.betti_number(k) + even.get(k, 0) + even.get(k - 1, 0)


def test_coprime_torsion_join_is_acyclic():
    # Kunneth: Z/2 (x) Z/3 = Tor(Z/2, Z/3) = 0
    K = join(NAMED["rp2"], NAMED["moore3"])
    assert reduced_homology(K).is_acyclic
    assert reduced_homology(K, "z2").is_acyclic
