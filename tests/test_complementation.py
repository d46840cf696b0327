import random

import pytest

import oracles
from randgen import (
    moore_space,
    projective_plane,
    random_antichain,
    random_closure_lattice,
    random_poset,
)
from ordertop import complementation, complexes
from ordertop.complementation import AntichainError, quotient_wedge_check, verify, wedge_side
from ordertop.complexes import SimplicialComplex, join, suspension_pointed, wedge
from ordertop.homology import HomologyProfile, reduced_homology
from ordertop.posets import (
    BoundedPoset,
    FinitePoset,
    boolean_lattice,
    chain_poset,
    face_poset,
    partition_lattice,
)


def bounded(P):
    return BoundedPoset.from_poset(P)


def polygon_face_lattice(n):
    """Bounded face lattice of an n-gon: empty face, vertices, edges, full."""
    ring = SimplicialComplex(
        [[f"p{i}", f"p{(i + 1) % n}"] for i in range(n)]
    )
    faces = face_poset(ring)
    labels = list(faces.elements) + ["0^", "1^"]
    rels = [(a, b) for a in faces.elements for b in faces.upset(a)]
    rels += [("0^", e) for e in faces.elements] + [(e, "1^") for e in faces.elements]
    rels.append(("0^", "1^"))
    return BoundedPoset(FinitePoset(labels, rels), "0^", "1^")


class TestRemovedAcyclic:
    def test_boolean_3(self):
        report = verify(bounded(boolean_lattice(3)), "{1}")
        assert report.complements == {"{2,3}"}
        assert report.removed_acyclic
        # five elements survive the removal
        assert len(report.removed_profile.betti) == 0

    def test_partition_4_coatom(self):
        report = verify(bounded(partition_lattice(4)), "(123)(4)")
        assert report.removed_acyclic

    def test_chain_3_middle(self):
        report = verify(bounded(chain_poset(3)), "2")
        assert report.complements == frozenset()
        assert report.removed_acyclic

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_z_in_boolean(self, n):
        B = bounded(boolean_lattice(n))
        for z in B.truncate():
            assert verify(B, z).removed_acyclic

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_z_in_partition(self, n):
        B = bounded(partition_lattice(n))
        for z in B.truncate():
            assert verify(B, z).removed_acyclic

    @pytest.mark.parametrize("n", [4, 6])
    def test_every_z_in_polygon_face_lattice(self, n):
        B = polygon_face_lattice(n)
        for z in B.truncate():
            assert verify(B, z).removed_acyclic


class TestWedgeDecomposition:
    def test_boolean_3(self):
        B = bounded(boolean_lattice(3))
        report = verify(B, "{1}")
        right = wedge_side(B.truncate(), report.complements)
        assert report.wedge_match
        assert right.betti == {1: 1}  # one suspended S^0

    def test_partition_4_coatom(self):
        B = bounded(partition_lattice(4))
        report = verify(B, "(123)(4)")
        right = wedge_side(B.truncate(), report.complements)
        assert len(report.complements) == 3
        assert right.betti == {1: 6}
        assert report.wedge_match

    def test_boolean_2_smallest(self):
        B = bounded(boolean_lattice(2))
        report = verify(B, "{1}")
        right = wedge_side(B.truncate(), report.complements)
        assert right.betti == {0: 1}  # suspension of empty
        assert report.wedge_match

    def test_empty_antichain_means_contractible(self):
        B = bounded(chain_poset(3))
        report = verify(B, "2")
        right = wedge_side(B.truncate(), report.complements)
        assert report.complements == frozenset()
        assert right.is_acyclic
        assert report.wedge_match

    def test_non_antichain_rejected(self):
        # find a z in the partition lattice whose complement set is not an
        # antichain; verify must skip the wedge comparison for it
        B = bounded(partition_lattice(4))
        trunc = B.truncate()
        offenders = [z for z in trunc if not trunc.is_antichain(B.complements(z))]
        assert offenders
        report = verify(B, offenders[0])
        assert report.antichain is False
        assert report.wedge_match is None
        assert report.removed_acyclic
        assert report.passed


class TestVerify:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_boolean_all_z(self, n):
        B = bounded(boolean_lattice(n))
        for z in B.truncate():
            report = verify(B, z)
            assert report.passed
            assert report.antichain  # set complements are unique in B_n
            assert report.wedge_match

    def test_z2_coefficients(self):
        report = verify(bounded(boolean_lattice(3)), "{1}", coeff="z2")
        assert report.coeff == "Z/2"
        assert report.passed

    def test_wedge_mismatch_fails(self, monkeypatch):
        # the formula holds on every lattice, so only a wrong wedge side
        # can make the two profiles differ
        monkeypatch.setattr(
            complementation,
            "_wedge_side",
            lambda trunc, table, co, coeff: HomologyProfile("Z", {0: 1}),
        )
        report = verify(bounded(boolean_lattice(3)), "{1}")
        assert report.antichain and report.removed_acyclic
        assert report.left_profile.betti == {1: 1}
        assert report.right_profile.betti == {0: 1}
        assert report.wedge_match is False
        assert not report.passed

    @pytest.mark.parametrize(
        "lattice, z, antichain",
        [(boolean_lattice(3), "{1}", True), (partition_lattice(4), "(12)(34)", False)],
    )
    def test_one_proper_part_and_one_complement_set(self, monkeypatch, lattice, z, antichain):
        calls = {"truncate": 0, "complements": 0}
        for name in calls:
            original = getattr(BoundedPoset, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(BoundedPoset, name, counted)
        report = verify(bounded(lattice), z)
        assert report.antichain is antichain
        assert report.passed
        assert calls == {"truncate": 1, "complements": 1}


class TestQuotientWedge:
    def test_truncated_boolean_coatoms(self):
        P = bounded(boolean_lattice(3)).truncate()
        coatoms = ["{1,2}", "{1,3}", "{2,3}"]
        report = quotient_wedge_check(P, coatoms)
        assert report.quotient_profile.betti == {1: 3}
        assert report.passed

    def test_chain_middle(self):
        report = quotient_wedge_check(chain_poset(3), ["2"])
        assert report.quotient_profile.is_acyclic
        assert report.passed

    def test_empty_antichain_degenerate(self):
        report = quotient_wedge_check(chain_poset(3), [])
        assert not report.applicable
        assert report.passed

    def test_whole_antichain(self):
        P = FinitePoset(["a", "b", "c"])
        report = quotient_wedge_check(P, ["a", "b", "c"])
        assert report.quotient_profile.betti == {0: 3}
        assert report.passed

    def test_non_antichain_rejected(self):
        with pytest.raises(AntichainError):
            quotient_wedge_check(chain_poset(3), ["1", "3"])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs(self, seed):
        rng = random.Random(800 + seed)
        P = random_poset(rng, max_elements=12)
        C = random_antichain(rng, P)
        assert quotient_wedge_check(P, C).passed


class TestRandomLattices:
    """The Bjorner-Walker formula holds on every finite bounded lattice, so
    random closure systems (not graded, Co(z) often empty or not an
    antichain) need no other oracle: L~ - Co(z) is acyclic for every z, and
    the wedge matches whenever Co(z) is an antichain.  Neither statement
    sees complements taken by meet alone (L~ minus that larger antichain is
    contractible too), so Co(z) is also checked against set operations."""

    @pytest.mark.parametrize("seed", range(40))
    def test_verify_every_inner_element(self, seed):
        rng = random.Random(1100 + seed)
        L = random_closure_lattice(rng)
        trunc = L.truncate()
        sets = {x: frozenset(int(i) for i in x[1:-1].split(",") if i) for x in L.poset}
        for z in trunc:
            assert L.complements(z) == oracles.closure_complements(sets, z), z
            for coeff in ("Z", "Z/2"):
                assert verify(L, z, coeff).passed, (z, coeff)
        for _ in range(3):
            assert quotient_wedge_check(trunc, random_antichain(rng, trunc)).passed


def label_wedge(trunc, antichain):
    """The wedge over the antichain built from labels: each summand is the
    suspension of the join of the two cones' order complexes, pointed at its
    north pole, and the poles are glued.  An oracle for ``wedge_side`` that
    shares none of its path after the order complexes."""
    parts = []
    for y in sorted(antichain):
        lower, upper = trunc.cones(y)
        parts.append(suspension_pointed(join(lower.order_complex(), upper.order_complex())))
    return wedge(parts).complex


def assert_matches_label_wedge(trunc, antichain):
    for coeff in ("Z", "Z/2"):
        got = wedge_side(trunc, antichain, coeff)
        want = reduced_homology(label_wedge(trunc, antichain), coeff)
        assert (got.coeff, got.betti, got.torsion, got.dim) == (
            want.coeff, want.betti, want.torsion, want.dim
        ), (sorted(antichain), coeff)


def under_two_tops(K, L):
    """The face posets of K and L, disjoint, under two incomparable tops
    ``ya`` and ``yb``: the link of ``ya`` is the barycentric subdivision of
    K, that of ``yb`` the one of L."""
    elements, relations = ["ya", "yb"], []
    for top, tag, M in (("ya", "a", K), ("yb", "b", L)):
        faces = face_poset(M)
        elements += [tag + e for e in faces]
        relations += [(tag + a, tag + b) for a, b in faces.covers]
        relations += [(tag + e, top) for e in faces]
    return FinitePoset(elements, relations)


class TestAgainstLabelWedge:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_antichain_complement_set_of_partition_lattice(self, n):
        L = bounded(partition_lattice(n))
        trunc = L.truncate()
        antichains = {co for co in map(L.complements, trunc) if trunc.is_antichain(co)}
        assert len(antichains) > 1
        for co in antichains:
            assert_matches_label_wedge(trunc, co)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_z_of_boolean_lattice(self, n):
        L = bounded(boolean_lattice(n))
        trunc = L.truncate()
        for z in trunc:
            assert_matches_label_wedge(trunc, L.complements(z))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_closure_lattices(self, seed):
        # the lattices of TestRandomLattices
        L = random_closure_lattice(random.Random(1100 + seed))
        trunc = L.truncate()
        for z in trunc:
            co = L.complements(z)
            if trunc.is_antichain(co):
                assert_matches_label_wedge(trunc, co)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_posets(self, seed):
        rng = random.Random(2300 + seed)
        P = random_poset(rng, max_elements=12)
        assert_matches_label_wedge(P, random_antichain(rng, P))

    def test_no_summands_is_a_point(self):
        point = wedge_side(chain_poset(3), frozenset())
        assert point.is_acyclic and point.dim == 0
        assert_matches_label_wedge(chain_poset(3), frozenset())

    @pytest.mark.parametrize("coeff", ["Z", "Z/2"])
    def test_checks_build_no_label_construction(self, monkeypatch, coeff):
        def refuse(*args, **kwargs):
            raise AssertionError("label construction called")

        for name in ("join", "suspension_pointed", "wedge", "quotient_model"):
            monkeypatch.setattr(complexes, name, refuse)
        monkeypatch.setattr(FinitePoset, "maximal_chains", refuse)
        B = bounded(boolean_lattice(4))
        proper = B.truncate()
        induced = []
        original_induced = FinitePoset._induced
        monkeypatch.setattr(
            FinitePoset, "_induced", lambda P, keep: induced.append(P) or original_induced(P, keep)
        )
        built = []
        original = SimplicialComplex.__init__

        def recorded(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(SimplicialComplex, "__init__", recorded)
        for z in proper:
            report = verify(B, z, coeff)
            assert report.passed and report.wedge_match
        L = bounded(partition_lattice(4))
        report = verify(L, "(123)(4)", coeff)
        assert report.passed and report.wedge_match
        # each verify builds one subposet, its proper part
        assert induced == [B.poset] * len(proper) + [L.poset]
        induced.clear()
        coatoms = ["{1,2,3}", "{1,2,4}", "{1,3,4}", "{2,3,4}"]
        assert quotient_wedge_check(proper, coatoms, coeff).passed
        assert induced == []
        # every complex, the quotient model too, is read off a chain trie
        assert built == []


class TestMixedTorsion:
    """Z/2 from RP^2 and Z/3 from the Moore space M(Z/3, 1), each suspended
    once, meet in degree 2 of one wedge."""

    P = under_two_tops(projective_plane(), moore_space(3))

    def test_torsion_factors_divide(self):
        profile = wedge_side(self.P, {"ya", "yb"}, "Z")
        assert profile.betti == {}
        assert profile.torsion == {2: (6,)}
        assert_matches_label_wedge(self.P, frozenset({"ya", "yb"}))

    def test_z2_sees_only_the_projective_plane(self):
        profile = wedge_side(self.P, {"ya", "yb"}, "Z/2")
        assert profile.betti == {2: 1, 3: 1}
        assert profile.torsion == {}

    @pytest.mark.parametrize("coeff", ["Z", "Z/2"])
    def test_quotient_wedge_check(self, coeff):
        report = quotient_wedge_check(self.P, ["ya", "yb"], coeff)
        assert report.passed
        assert report.quotient_profile == wedge_side(self.P, {"ya", "yb"}, coeff)
