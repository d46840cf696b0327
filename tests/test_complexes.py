import random
from itertools import combinations
from math import comb

import pytest

import oracles
from randgen import random_complex, random_subcomplex
from ordertop import complementation, complexes, config, posets
from ordertop.complexes import (
    ComplexError,
    PointedComplex,
    SimplicialComplex,
    cone,
    cyclic_polytope_boundary,
    empty_complex,
    format_cplx,
    is_pseudomanifold,
    join,
    parse_cplx,
    point_complex,
    quotient_model,
    sphere_complex,
    suspension,
    wedge,
)
from ordertop.homology import philip_hall_check, reduced_homology
from ordertop.posets import BoundedPoset, OrderComplex, boolean_lattice, partition_lattice


def betti(K, coeff="Z"):
    return reduced_homology(K, coeff).betti


class TestValues:
    def test_empty_vs_point_distinct(self):
        assert empty_complex() != point_complex()
        assert empty_complex().is_empty
        assert empty_complex().dim == -1
        assert point_complex().dim == 0

    def test_facets_normalized(self):
        K = SimplicialComplex([["a"], ["a", "b"], ["b", "a"]])
        assert K.facets == {frozenset(["a", "b"])}

    def test_isolated_vertex_kept(self):
        K = SimplicialComplex([["a", "b"]], vertices=["c"])
        assert frozenset(["c"]) in K.facets

    @pytest.mark.parametrize("seed", range(20))
    def test_facets_match_quadratic_scan(self, seed):
        # non-pure input with duplicates, nested faces, permuted vertex order,
        # empty faces and extra vertices
        rng = random.Random(900 + seed)
        for _ in range(25):
            verts = [f"v{i}" for i in range(rng.randint(1, 9))]
            faces = [
                rng.sample(verts, rng.randint(0, len(verts))) for _ in range(rng.randint(0, 15))
            ]
            for f in list(faces)[: rng.randint(0, 5)]:
                faces.append(rng.sample(f, len(f)))
                faces.append(rng.sample(f, rng.randint(0, len(f))))
            rng.shuffle(faces)
            extra = rng.sample(verts + ["w0", "w1"], rng.randint(0, 3))
            K = SimplicialComplex(faces, vertices=extra)
            expected = oracles.maximal_faces(faces + [[v] for v in extra])
            assert K.facets == expected
            assert K.vertices == tuple(sorted(set().union(*expected)))

    def test_euler_reduced(self):
        assert empty_complex().euler_reduced() == -1
        assert point_complex().euler_reduced() == 0
        assert sphere_complex(1).euler_reduced() == -1
        assert sphere_complex(2).euler_reduced() == 1

    def test_sphere_below_minus_one_refused(self):
        with pytest.raises(ComplexError, match="sphere dimension must be >= -1"):
            sphere_complex(-2)

    def test_sphere_minus_one_is_empty(self):
        K = sphere_complex(-1)
        assert K == empty_complex() and K.is_empty and K.vertices == ()
        assert K.dim == -1 and K.face_counts() == {}
        assert betti(K) == {-1: 1}


BAD_LABELS = {
    "int": 5, "none": None, "list": ["a"], "empty": "", "space": "a b", "tab": "a\tb", "hash": "a#b"
}


class TestLabels:
    @pytest.mark.parametrize("bad", BAD_LABELS.values(), ids=BAD_LABELS.keys())
    @pytest.mark.parametrize("place", ["first_facet", "later_facet", "vertices"])
    def test_bad_label_rejected(self, place, bad):
        facets = [["a", "b"], ["b", "c"], ["c", "d"]]
        vertices = ["e"]
        if place == "first_facet":
            facets[0] = [bad, "b"]
        elif place == "later_facet":
            facets[2] = ["c", bad]
        else:
            vertices.append(bad)
        with pytest.raises(ComplexError):
            SimplicialComplex(facets, vertices=vertices)

    def test_each_distinct_label_checked_once(self, monkeypatch):
        seen = []
        check = complexes._check_label
        monkeypatch.setattr(complexes, "_check_label", lambda v: seen.append(v) or check(v))
        facets = [["a", "b", "c"], ["b", "c", "d"], ["a", "d"], ["c"]]
        SimplicialComplex(facets, vertices=["a", "e"])
        assert sorted(seen) == ["a", "b", "c", "d", "e"]


class TestSubcomplex:
    @staticmethod
    def oracle(A, K):
        faces = lambda X: {f for fs in oracles.faces_of(X.facets).values() for f in fs}
        return faces(A) <= faces(K)

    @pytest.mark.parametrize("seed", range(10))
    def test_true_cases(self, seed):
        rng = random.Random(700 + seed)
        K = random_complex(rng)
        facets = sorted(map(sorted, K.facets))
        dropped = SimplicialComplex(rng.sample(facets, rng.randint(0, len(facets))))
        for A in (dropped, random_subcomplex(rng, K), K, empty_complex()):
            assert self.oracle(A, K)
            assert A.is_subcomplex_of(K)

    @pytest.mark.parametrize("seed", range(10))
    def test_vertex_swapped_for_fresh_label(self, seed):
        rng = random.Random(710 + seed)
        K = random_complex(rng)
        facet = sorted(rng.choice(sorted(map(sorted, K.facets))))
        facet[rng.randrange(len(facet))] = "fresh"
        A = SimplicialComplex([facet])
        assert not self.oracle(A, K)
        assert not A.is_subcomplex_of(K)

    def test_non_face_spanned_by_vertices(self):
        tested = 0
        for seed in range(40):
            K = random_complex(random.Random(720 + seed))
            faces = {f for fs in oracles.faces_of(K.facets).values() for f in fs}
            non_faces = [
                c for k in range(2, len(K.vertices) + 1)
                for c in combinations(K.vertices, k) if c not in faces
            ]
            if not non_faces:
                continue
            A = SimplicialComplex([non_faces[0]])
            assert not self.oracle(A, K)
            assert not A.is_subcomplex_of(K)
            tested += 1
        assert tested >= 10


class TestJoin:
    def test_s0_join_s0_is_circle(self):
        K = join(sphere_complex(0), sphere_complex(0))
        assert len(K.vertices) == 4
        assert betti(K) == oracles.brute_betti(K.facets) == {1: 1}

    def test_join_with_point_is_acyclic(self):
        K = join(sphere_complex(1), point_complex())
        assert reduced_homology(K).is_acyclic

    def test_join_with_empty_is_identity(self):
        K = sphere_complex(1)
        assert join(K, empty_complex()) == K
        assert join(empty_complex(), K) == K

    def test_tags_keep_sides_disjoint(self):
        K = join(point_complex("x"), point_complex("x"))
        assert K.vertices == ("l.x", "r.x")

    @pytest.mark.parametrize("seed", range(8))
    def test_join_kunneth_mod2(self, seed):
        rng = random.Random(seed)
        K, L = random_complex(rng, 6, 4, 3), random_complex(rng, 6, 4, 3)
        bk = reduced_homology(K, "z2")
        bl = reduced_homology(L, "z2")
        bj = reduced_homology(join(K, L), "z2")
        degrees = range(-1, K.dim + L.dim + 2)
        for k in degrees:
            expected = sum(
                bk.betti_number(i) * bl.betti_number(k - 1 - i) for i in range(-1, k + 1)
            )
            assert bj.betti_number(k) == expected


class TestSuspension:
    def test_suspend_s0_is_circle(self):
        assert betti(suspension(sphere_complex(0))) == {1: 1}

    def test_suspend_empty_is_s0(self):
        K = suspension(empty_complex())
        assert betti(K) == {0: 1}
        assert len(K.vertices) == 2

    def test_suspend_point_contractible(self):
        assert reduced_homology(suspension(point_complex())).is_acyclic

    @pytest.mark.parametrize("seed", range(8))
    def test_degree_shift(self, seed):
        K = random_complex(random.Random(40 + seed))
        before = reduced_homology(K)
        after = reduced_homology(suspension(K))
        assert after.betti == {k + 1: b for k, b in before.betti.items()}
        assert after.torsion == {k + 1: t for k, t in before.torsion.items()}


class TestWedge:
    def test_two_circles(self):
        parts = [
            PointedComplex(sphere_complex(1), "s0"),
            PointedComplex(sphere_complex(1), "s0"),
        ]
        W = wedge(parts)
        assert betti(W.complex) == {1: 2}
        assert W.basepoint in W.complex.vertices

    def test_single_part_unchanged(self):
        p = PointedComplex(sphere_complex(1), "s1")
        assert wedge([p]) == p

    def test_three_s0(self):
        parts = [PointedComplex(sphere_complex(0), "s0") for _ in range(3)]
        W = wedge(parts).complex
        assert len(W.vertices) == 4
        assert betti(W) == {0: 3}

    def test_empty_part_rejected(self):
        # an empty complex has no vertex, so no part of a wedge can be empty
        with pytest.raises(ComplexError, match="basepoint"):
            PointedComplex(empty_complex(), "x")

    @pytest.mark.parametrize("seed", range(6))
    def test_homology_adds(self, seed):
        rng = random.Random(70 + seed)
        ks = [random_complex(rng, 5, 3, 3) for _ in range(3)]
        parts = [PointedComplex(K, K.vertices[0]) for K in ks]
        total = reduced_homology(wedge(parts).complex)
        summed = {}
        for K in ks:
            for k, b in reduced_homology(K).betti.items():
                if k >= 0:
                    summed[k] = summed.get(k, 0) + b
        # wedging connects components, so degree-0 classes just add
        assert total.betti == {k: b for k, b in summed.items() if b}


class TestQuotientModel:
    def test_disc_mod_boundary_is_sphere(self):
        disc = SimplicialComplex([["a", "b", "c"]])
        boundary = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]])
        assert betti(quotient_model(disc, boundary)) == {2: 1}

    def test_collapse_everything_is_acyclic(self):
        K = sphere_complex(1)
        assert reduced_homology(quotient_model(K, K)).is_acyclic

    def test_hexagon_mod_alternating_vertices(self):
        hexagon = SimplicialComplex(
            [["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "6"], ["1", "6"]]
        )
        dots = SimplicialComplex([["1"], ["3"], ["5"]])
        Q = quotient_model(hexagon, dots)
        assert Q.euler_reduced() == -3
        assert betti(Q) == {1: 3}

    def test_empty_subcomplex_adds_point(self):
        K = sphere_complex(1)
        Q = quotient_model(K, empty_complex())
        assert betti(Q) == {0: 1, 1: 1}

    def test_not_subcomplex_rejected(self):
        with pytest.raises(ComplexError, match="subcomplex"):
            quotient_model(sphere_complex(1), point_complex("zzz"))

    def test_non_face_rejected_with_message(self):
        hollow = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]])
        with pytest.raises(ComplexError, match="^A is not a subcomplex of K$"):
            quotient_model(hollow, SimplicialComplex([["a", "b", "c"]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_euler_difference(self, seed):
        rng = random.Random(90 + seed)
        K = random_complex(rng)
        A = random_subcomplex(rng, K)
        Q = quotient_model(K, A)
        assert Q.euler_reduced() == K.euler_reduced() - A.euler_reduced()


class TestCyclicPolytope:
    def test_square(self):
        K = cyclic_polytope_boundary(4, 2)
        assert {tuple(sorted(f)) for f in K.facets} == {
            ("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")
        }

    def test_6_4(self):
        K = cyclic_polytope_boundary(6, 4)
        assert len(K.facets) == 9
        assert betti(K) == {3: 1}
        assert not reduced_homology(K).torsion

    def test_simplex_boundary(self):
        K = cyclic_polytope_boundary(5, 4)
        assert len(K.facets) == 5
        assert betti(K) == {3: 1}

    def test_parameter_errors(self):
        with pytest.raises(ComplexError, match="even"):
            cyclic_polytope_boundary(7, 3)
        with pytest.raises(ComplexError, match="vertices"):
            cyclic_polytope_boundary(4, 4)

    @pytest.mark.parametrize("d", range(2, 13, 2))
    def test_facets_match_evenness_filter(self, d):
        for m in range(d + 1, 15):
            K = cyclic_polytope_boundary(m, d)
            facets = {frozenset(int(x) for x in f) for f in K.facets}
            assert facets == oracles.cyclic_facets_by_evenness(m, d), m

    @pytest.mark.parametrize("m,d", [(4, 2), (6, 2), (6, 4), (8, 4), (8, 6)])
    def test_pseudomanifold_and_euler(self, m, d):
        K = cyclic_polytope_boundary(m, d)
        assert is_pseudomanifold(K)
        # unreduced Euler characteristic of an odd sphere vanishes
        assert K.euler_reduced() + 1 == 0


def test_non_pure_complex_is_no_pseudomanifold():
    # a 2-sphere beside a circle: every ridge lies in two facets, but the
    # facets have two sizes
    K = SimplicialComplex([*combinations("abcd", 3), *combinations("xyz", 2)])
    assert not is_pseudomanifold(K)
    assert is_pseudomanifold(sphere_complex(2)) and is_pseudomanifold(sphere_complex(1))


class TestCone:
    def test_cone_over_empty_is_point(self):
        assert cone(empty_complex()) == point_complex("apex")

    def test_cone_acyclic(self):
        assert reduced_homology(cone(sphere_complex(1))).is_acyclic

    def test_apex_freshened(self):
        K = point_complex("apex")
        assert "apex'" in cone(K).vertices


class TestCplxFormat:
    def test_parse_basic(self):
        K = parse_cplx("# comment\na b c\nd\n")
        assert K.facets == {frozenset(["a", "b", "c"]), frozenset(["d"])}

    def test_empty_file(self):
        assert parse_cplx("").is_empty

    def test_roundtrip(self):
        for seed in range(5):
            K = random_complex(random.Random(seed))
            assert parse_cplx(format_cplx(K)) == K

    def test_roundtrip_of_punctuated_labels(self):
        K = SimplicialComplex([["a;b", "<", "c,"], ["{x}", "(1)(2)", "a;b"], ["e:f", "!"]])
        assert parse_cplx(format_cplx(K)) == K

    def test_comment_mark_refused_in_made_labels(self):
        # '#' starts a .cplx comment, so such a label could not be read back;
        # facet and vertex labels are in TestLabels
        K = point_complex()
        parts = [PointedComplex(K, "pt"), PointedComplex(K, "pt")]
        for make in (
            lambda: point_complex("p#"),
            lambda: cone(K, apex="apex#"),
            lambda: wedge(parts, basepoint="*#"),
        ):
            with pytest.raises(ComplexError, match=r"may not contain '#' \(\.cplx comment\)"):
                make()


class TestFaceTableBound:
    # Each k-face of the 6-simplex is stacked once per vertex, with that
    # vertex dropped (k ids a row), to make the (k-1)-faces; the largest
    # stack is at k = 3.
    N = 6
    LARGEST = max(comb(6, k + 1) * (k + 1) * k for k in range(1, 6))

    def test_stack_at_the_limit_is_built(self, monkeypatch):
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", self.LARGEST)
        K = SimplicialComplex([[f"v{i}" for i in range(self.N)]])
        assert K.face_counts() == {k: comb(self.N, k + 1) for k in range(self.N)}

    def test_stack_past_the_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", self.LARGEST - 1)
        K = SimplicialComplex([[f"v{i}" for i in range(self.N)]])
        with pytest.raises(ComplexError, match=f"{self.LARGEST} vertex ids, above the limit"):
            K.face_table()


def verify_every_inner_element() -> int:
    checks = 0
    for P in (boolean_lattice(4), partition_lattice(4)):
        L = BoundedPoset.from_poset(P)
        for z in L.truncate():
            complementation.verify(L, z)
            checks += 1
    return checks


def one_quotient_wedge_check() -> int:
    proper = BoundedPoset.from_poset(boolean_lattice(4)).truncate()
    complementation.quotient_wedge_check(proper, ["{1,2}", "{3}"])
    return 1


FACE_TABLE_READERS = {
    "reduced_homology": lambda: reduced_homology(sphere_complex(3), "Z/2"),
    "verify": verify_every_inner_element,
    "quotient_wedge_check": one_quotient_wedge_check,
    "circle_model_check": lambda: config.circle_model_check(2, 7),
    "philip_hall_check": lambda: philip_hall_check(BoundedPoset.from_poset(partition_lattice(4))),
}
# The readers that run complementation checks; each returns how many it ran.
COMPLEMENTATION_CHECKS = {"verify", "quotient_wedge_check"}


class TestFaceTableBuilds:
    """A complex is its vertices and facets; each check builds the face
    table of each complex it reads once.  A reader asks for a face table,
    the one way to the faces; a build runs the label builder or grows a
    poset's chain trie.  A complementation check reads no complex: it
    builds one chain trie and reads every complex off it."""

    def test_a_complex_keeps_no_table(self):
        assert SimplicialComplex.__slots__ == ("vertices", "facets")
        assert OrderComplex.__slots__ == ("poset",)

    @pytest.mark.parametrize("name", sorted(FACE_TABLE_READERS))
    def test_one_build_per_complex(self, monkeypatch, name):
        readers, label_builds, tries = [], [], []

        def spy(owner, attr, log):
            original = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args: log.append(args[0]) or original(*args))

        spy(SimplicialComplex, "face_table", readers)
        spy(OrderComplex, "face_table", readers)
        spy(complexes, "_face_table", label_builds)
        # the chain trie, as order complexes and the complementation checks call it
        spy(posets, "_chain_table", tries)
        spy(complementation, "_chain_table", tries)
        result = FACE_TABLE_READERS[name]()
        if name in COMPLEMENTATION_CHECKS:
            assert readers == [] and label_builds == []
            assert len(tries) == result
        else:
            builds = label_builds + tries
            assert builds and len(builds) == len(readers)
            assert len({id(K) for K in readers}) == len(readers)
