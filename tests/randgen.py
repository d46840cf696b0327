"""Seeded random object generators shared by the property and acceptance tests.

Random posets are layered (elements get levels, relations only go upward
between levels), which keeps chains short so order complexes stay small even
for 30-element posets.

The torsion cases at the end (projective plane, Klein bottle, Moore spaces,
their joins and suspensions, random complexes with a planted Moore space)
send non-unit pivots through the exact Z reducer.
"""

import random

from ordertop.complexes import (
    PointedComplex,
    SimplicialComplex,
    join,
    quotient_model,
    suspension,
    wedge,
)
from ordertop.diagrams import PosetDiagram
from ordertop.posets import BoundedPoset, FinitePoset


def random_poset(rng: random.Random, max_elements: int = 8, max_height: int = 4) -> FinitePoset:
    n = rng.randint(1, max_elements)
    levels = [rng.randrange(max_height) for _ in range(n)]
    labels = [f"e{i}" for i in range(n)]
    rels = []
    for i in range(n):
        for j in range(n):
            if levels[i] < levels[j] and rng.random() < 0.4:
                rels.append((labels[i], labels[j]))
    return FinitePoset(labels, rels)


def random_bounded_poset(rng: random.Random, max_inner: int = 8) -> BoundedPoset:
    inner = random_poset(rng, max_elements=max_inner)
    labels = list(inner.elements) + ["bot", "top"]
    rels = [(a, b) for a in inner.elements for b in inner.upset(a)]
    rels += [("bot", e) for e in inner.elements] + [(e, "top") for e in inner.elements]
    rels.append(("bot", "top"))
    return BoundedPoset(FinitePoset(labels, rels), "bot", "top")


def random_closure_lattice(
    rng: random.Random, max_ground: int = 6, max_generators: int = 8
) -> BoundedPoset:
    """A random closure system on {1..n}, ordered by inclusion: the empty set,
    the ground set, random generator sets and all their intersections.  An
    intersection-closed family with a top is a lattice (the meet is the
    intersection), and it need not be graded."""
    n = rng.randint(3, max_ground)
    ground = frozenset(range(1, n + 1))
    family = {frozenset(), ground}
    for _ in range(rng.randint(2, max_generators)):
        generator = frozenset(x for x in ground if rng.random() < 0.5)
        family |= {generator & s for s in family}
    label = {s: "{" + ",".join(map(str, sorted(s))) + "}" for s in family}
    rels = [(label[a], label[b]) for a in family for b in family if a < b]
    return BoundedPoset(FinitePoset(label.values(), rels), label[frozenset()], label[ground])


def random_antichain(rng: random.Random, P: FinitePoset) -> frozenset:
    pool = list(P.elements)
    rng.shuffle(pool)
    chosen: list[str] = []
    for e in pool:
        if all(not P.comparable(e, c) for c in chosen):
            chosen.append(e)
        if len(chosen) >= 6:
            break
    size = rng.randint(1, len(chosen)) if chosen else 0
    return frozenset(chosen[:size])


def random_complex(
    rng: random.Random, max_vertices: int = 8, max_facets: int = 6, max_facet_size: int = 4
) -> SimplicialComplex:
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_facet_size, n))
        facets.append(rng.sample(vertices, size))
    return SimplicialComplex(facets)


def random_subcomplex(rng: random.Random, K: SimplicialComplex) -> SimplicialComplex:
    faces = [f for fs in K.faces_by_dim().values() for f in fs]
    if not faces:
        return SimplicialComplex()
    picked = [f for f in faces if rng.random() < 0.5]
    return SimplicialComplex(picked)


def random_monotone_map(rng: random.Random, src: FinitePoset, dst: FinitePoset) -> dict:
    """A random monotone map src -> dst, by greedy assignment along a linear
    extension with rejection; falls back to a constant map."""
    order = sorted(src.elements, key=lambda e: (len(src.downset(e)), e))
    for _ in range(50):
        assigned = {}
        ok = True
        for x in order:
            lower_images = [assigned[y] for y in src.downset(x)]
            candidates = [
                d for d in dst.elements if all(dst.leq(img, d) for img in lower_images)
            ]
            if not candidates:
                ok = False
                break
            assigned[x] = rng.choice(candidates)
        if ok:
            return assigned
    constant = rng.choice(dst.elements)
    return {x: constant for x in src.elements}


def random_two_chain_diagram(rng: random.Random, max_fiber: int = 5) -> PosetDiagram:
    base = FinitePoset(["lo", "hi"], [("lo", "hi")])
    lower = random_poset(rng, max_elements=max_fiber)
    upper = random_poset(rng, max_elements=max_fiber)
    mapping = random_monotone_map(rng, upper, lower)
    return PosetDiagram(base, {"lo": lower, "hi": upper}, {("lo", "hi"): mapping})


def projective_plane() -> SimplicialComplex:
    """The 6-vertex RP^2: H~_1 = Z/2 and nothing else over Z."""
    return SimplicialComplex([list(s) for s in "014 015 023 024 035 123 125 134 245 345".split()])


def klein_bottle() -> SimplicialComplex:
    """A 3 x 3 grid on the square with (x, 0) ~ (x, 3) and (0, y) ~ (3, 3 - y):
    H~_1 = Z + Z/2 over Z."""

    def vertex(i: int, j: int) -> str:
        return f"k0{(3 - j) % 3}" if i == 3 else f"k{i}{j % 3}"

    facets = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i, j + 1), vertex(i + 1, j + 1)
            facets += [[a, b, d], [a, c, d]]
    return SimplicialComplex(facets)


def moore_space(m: int) -> SimplicialComplex:
    """M(Z/m, 1) as the mapping cone of the degree-m map from a 3m-cycle onto
    a triangle: the simplicial mapping cylinder with a cone on its source."""
    n = 3 * m
    cylinder = []
    for i in range(n):
        j = (i + 1) % n
        cylinder += [[f"y{i}", f"y{j}", f"x{j % 3}"], [f"y{i}", f"x{i % 3}", f"x{j % 3}"]]
    source = SimplicialComplex([f"y{i}", f"y{(i + 1) % n}"] for i in range(n))
    return quotient_model(SimplicialComplex(cylinder), source)


def planted_torsion_complex(
    rng: random.Random,
) -> tuple[SimplicialComplex, int, int]:
    """A random complex wedged with a Moore space M(Z/m, 1), suspended once
    or not at all.

    Returns ``(K, degree, m)``: the torsion of H~_degree(K) contains Z/m.
    """
    base = random_complex(rng, max_vertices=6, max_facets=5, max_facet_size=3)
    m = rng.randint(2, 5)
    moore = moore_space(m)
    shifts = rng.randint(0, 1)
    for _ in range(shifts):
        moore = suspension(moore)
    parts = [
        PointedComplex(base, rng.choice(base.vertices)),
        PointedComplex(moore, rng.choice(moore.vertices)),
    ]
    return wedge(parts).complex, 1 + shifts, m


def torsion_cases() -> dict[str, SimplicialComplex]:
    """Named torsion-rich complexes with a few hundred faces at most."""
    rp2 = projective_plane()
    return {
        "rp2": rp2,
        "klein": klein_bottle(),
        "moore3": moore_space(3),
        "susp_rp2": suspension(rp2),
        "susp2_rp2": suspension(suspension(rp2)),
        "join_rp2_rp2": join(rp2, rp2),
    }
