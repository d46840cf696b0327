"""The face table of an order complex, grown from the chains of its poset
(``posets._chain_table``), against the all-chains oracle and against the
label builder that numbers vertices in sorted label order; and the full
subcomplexes and cones read off it (``FaceTable.restrict`` and ``cone``)
against the order complexes of subposets and ``complexes.quotient_model``."""

import random
import tracemalloc
from math import comb

import numpy as np
import pytest

import oracles
from randgen import random_antichain, random_poset
from ordertop import complexes, posets
from ordertop.complexes import ComplexError, SimplicialComplex, quotient_model
from ordertop.homology import ChainComplex, reduced_homology
from ordertop.posets import (
    BoundedPoset,
    FinitePoset,
    OrderComplex,
    boolean_lattice,
    chain_poset,
    exp_discrete_poset,
    partition_lattice,
)


def proper_part(P):
    return BoundedPoset.from_poset(P).truncate()


def face_rows(table):
    """The vertex rows of every face, by dimension: a k-face is the row of
    its boundary face in column 0 and the last id of the one in column 1."""
    rows = {0: np.arange(len(table.vertices)).reshape(-1, 1)} if table.vertices else {}
    for k, bounds in table.boundary_rows.items():
        lower = rows[k - 1]
        rows[k] = np.concatenate((lower[bounds[:, 0]], lower[bounds[:, 1], -1:]), axis=1)
    return rows


POSETS = {
    f"random{seed}": lambda seed=seed: random_poset(random.Random(700 + seed), 12, 5)
    for seed in range(25)
}
POSETS.update({f"pi{n}": lambda n=n: proper_part(partition_lattice(n)) for n in (4, 5, 6)})
POSETS["b5"] = lambda: boolean_lattice(5)
POSETS["b5_proper"] = lambda: proper_part(boolean_lattice(5))
POSETS["exp8_4"] = lambda: exp_discrete_poset(8, 4)
POSETS["empty"] = lambda: chain_poset(0)


@pytest.mark.parametrize("name", sorted(POSETS))
class TestChainTrie:
    def test_faces_are_the_chains(self, name):
        P = POSETS[name]()
        table = P.order_complex().face_table()
        faces = face_rows(table)
        rows = [row for ids in faces.values() for row in ids.tolist()]
        chains = {frozenset(table.vertices[i] for i in row) for row in rows}
        assert len(chains) == len(rows)
        assert chains == oracles.brute_chains(P.elements, P.lt)
        assert sorted(table.vertices) == list(P.elements)
        for k, ids in faces.items():
            assert ids.shape[1] == k + 1
            assert (np.diff(ids, axis=1) > 0).all()
            assert sorted(map(tuple, ids.tolist())) == list(map(tuple, ids.tolist()))

    def test_vertices_follow_the_numbering(self, name):
        P = POSETS[name]()
        assert P.order_complex().face_table().vertices == oracles.chain_numbering(
            P.elements, P.lt
        )

    def test_boundary_rows_drop_one_vertex(self, name):
        table = POSETS[name]().order_complex().face_table()
        rows_by_dim = face_rows(table)
        assert set(table.boundary_rows) == set(rows_by_dim) - {0}
        for k, rows in table.boundary_rows.items():
            faces, lower = rows_by_dim[k], rows_by_dim[k - 1]
            for p in range(k + 1):
                assert (lower[rows[:, p]] == np.delete(faces, k - p, axis=1)).all()

    def test_counts_are_the_table_lengths(self, name):
        K = POSETS[name]().order_complex()
        table = K.face_table()
        assert K.face_counts() == {k: len(ids) for k, ids in face_rows(table).items()}
        assert K.face_counts() == SimplicialComplex(K.facets).face_counts()

    @pytest.mark.parametrize("coeff", ["Z", "Z/2"])
    def test_profile_equals_the_label_builders(self, name, coeff):
        K = POSETS[name]().order_complex()
        assert reduced_homology(K, coeff) == reduced_homology(SimplicialComplex(K.facets), coeff)


def test_ties_keep_label_order():
    # Elements with equal height and equal down-sets keep label order in
    # the ids, above as well as at the bottom.
    antichain = FinitePoset(["a", "b", "c"])
    assert posets._chain_table(antichain).vertices == ("a", "b", "c")
    two_tops = FinitePoset(["x", "y", "z"], [("z", "x"), ("z", "y")])
    assert posets._chain_table(two_tops).vertices == ("x", "y", "z")


def test_an_order_complex_overrides_only_its_face_table():
    # the members it defines beside its docstring, module and slot names
    own = {
        name
        for name, member in vars(OrderComplex).items()
        if callable(member) or isinstance(member, type(OrderComplex.poset))
    }
    assert own == {"__init__", "face_table", "poset"}


def test_an_order_complex_is_the_complex_of_its_maximal_chains():
    P = proper_part(partition_lattice(4))
    K = P.order_complex()
    assert isinstance(K, OrderComplex) and K.poset is P
    L = SimplicialComplex(P.maximal_chains())
    assert K == L and hash(K) == hash(L) and K.vertices == L.vertices
    assert K.faces_by_dim() == L.faces_by_dim()


class TestCountFirst:
    """Every level of the trie is counted, and checked against
    ``MAX_STACK_ENTRIES``, before any is built.  The k-chains of a chain of
    n elements are the (k+1)-subsets, k+1 ids each."""

    N = 12
    LARGEST = 12 * comb(11, 5)  # the largest k * comb(12, k) = 12 * comb(11, k - 1)

    def test_largest_level_at_the_limit_is_built(self, monkeypatch):
        K = chain_poset(self.N).order_complex()
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", self.LARGEST)
        expected = {k: comb(self.N, k + 1) for k in range(self.N)}
        assert K.face_counts() == expected
        assert {k: len(ids) for k, ids in face_rows(K.face_table()).items()} == expected

    def test_largest_level_past_the_limit_is_refused(self, monkeypatch):
        K = chain_poset(self.N).order_complex()
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", self.LARGEST - 1)
        for read in (K.face_table, K.face_counts):
            with pytest.raises(ComplexError, match=f"{self.LARGEST} vertex ids, above the limit"):
                read()

    def test_pairs_are_counted_before_the_up_sets_are_listed(self, monkeypatch):
        K = chain_poset(20).order_complex()
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", 2 * comb(20, 2) - 1)
        with pytest.raises(ComplexError, match="the 1-faces need a table of 380 vertex ids"):
            K.face_table()

    def test_refused_before_any_level_is_built(self, monkeypatch):
        # The 7-faces of a 20-element chain take 8 * C(20, 8) = 1,007,760 ids;
        # the levels below them hold 875,920, 7 MB as int64.
        K = chain_poset(20).order_complex()
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", 1_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ComplexError, match="the 7-faces need a table of 1007760 vertex"):
                K.face_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_the_trie_stores_no_chain_rows():
    # Pi_6's proper part: 9,011 faces in four levels.  Its boundary rows and
    # the per-level arrays of the trie peak at about 0.7 MiB (numpy 2.4.6);
    # also storing every chain as a row of ids took about 0.9 MiB.
    P = proper_part(partition_lattice(6))
    posets._chain_table(P)
    tracemalloc.start()
    try:
        table = posets._chain_table(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 810 * 1024
    assert table._fields == ("vertices", "boundary_rows")


def assert_face_table(table):
    """The ``FaceTable`` contract: per dimension, ascending id rows in
    lexicographic order, and column p of a boundary row names the face
    without the vertex in column k - p."""
    faces = face_rows(table)
    assert set(table.boundary_rows) == set(faces) - {0}
    for k, ids in faces.items():
        assert ids.shape[1] == k + 1
        assert (np.diff(ids, axis=1) > 0).all()
        assert sorted(map(tuple, ids.tolist())) == list(map(tuple, ids.tolist()))
        for p in range(k + 1) if k else ():
            lower = faces[k - 1][table.boundary_rows[k][:, p]]
            assert (lower == np.delete(ids, k - p, axis=1)).all()
    return faces


def label_faces(table):
    """Every face of the table as a frozenset of labels, by dimension."""
    return {
        k: {frozenset(table.vertices[i] for i in row) for row in ids.tolist()}
        for k, ids in face_rows(table).items()
    }


def mask_of(table, labels):
    return np.array([v in labels for v in table.vertices], dtype=bool)


RESTRICTED = {f"pi{n}": lambda n=n: proper_part(partition_lattice(n)) for n in (4, 5)}
RESTRICTED.update({f"b{n}": lambda n=n: proper_part(boolean_lattice(n)) for n in (4, 5)})
RESTRICTED.update(
    {f"random{seed}": lambda seed=seed: random_poset(random.Random(900 + seed), 12, 5)
     for seed in range(30)}
)


@pytest.mark.parametrize("name", sorted(RESTRICTED))
class TestRestrict:
    """The full subcomplex of the trie on a set of elements is the order
    complex of the subposet on them."""

    @staticmethod
    def element_sets(P, seed: str):
        rng = random.Random(seed)
        random_sets = [{e for e in P.elements if rng.random() < q} for q in (0.3, 0.6, 0.85)]
        return [set(), set(P.elements), *random_sets]

    def test_faces_are_the_subposet_chains(self, name):
        P = RESTRICTED[name]()
        table = posets._chain_table(P)
        for kept in self.element_sets(P, name):
            sub = table.restrict(mask_of(table, kept))
            K = P.subposet(kept).order_complex()
            assert set(sub.vertices) == kept
            assert [v for v in table.vertices if v in kept] == list(sub.vertices)
            assert {k: len(ids) for k, ids in assert_face_table(sub).items()} == K.face_counts()
            assert label_faces(sub) == {
                k: set(map(frozenset, faces)) for k, faces in K.faces_by_dim().items()
            }

    @pytest.mark.parametrize("coeff", ["Z", "Z/2"])
    def test_profile_is_the_subposet_profile(self, name, coeff):
        P = RESTRICTED[name]()
        table = posets._chain_table(P)
        for kept in self.element_sets(P, name + coeff):
            got = reduced_homology(table.restrict(mask_of(table, kept)), coeff)
            expected = reduced_homology(P.subposet(kept).order_complex(), coeff)
            assert got == expected and got.dim == expected.dim


class TestCone:
    """The trie with a cone over the full subcomplex off an antichain C has
    the homology of Delta(P) / Delta(P - C), as the label model has."""

    @staticmethod
    def profiles(P, C, coeff):
        table = posets._chain_table(P)
        model = table.cone(~mask_of(table, C))
        expected = reduced_homology(
            quotient_model(P.order_complex(), P.remove(C).order_complex()), coeff
        )
        return reduced_homology(model, coeff), expected

    @pytest.mark.parametrize("seed", range(200))
    def test_profile_is_the_quotient_model_profile(self, seed):
        rng = random.Random(1700 + seed)
        P = random_poset(rng, 10, 4)
        # the empty antichain every tenth seed, else a random one
        C = frozenset() if seed % 10 == 0 else random_antichain(rng, P)
        for coeff in ("Z", "Z/2"):
            got, expected = self.profiles(P, C, coeff)
            assert got == expected and got.dim == expected.dim

    @pytest.mark.parametrize("coeff", ["Z", "Z/2"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_the_whole_antichain_leaves_an_isolated_apex(self, n, coeff):
        P = posets.FinitePoset([f"a{i}" for i in range(n)])
        got, expected = self.profiles(P, frozenset(P.elements), coeff)
        assert got == expected and got.betti == {0: n}
        table = posets._chain_table(P)
        cone = table.cone(np.zeros(n, dtype=bool))
        assert cone.vertices == ("q*", *table.vertices) and cone.boundary_rows == {}

    @pytest.mark.parametrize("name", ["chain3", "pi4", "b4", "random3", "random11"])
    def test_nothing_kept_adds_an_isolated_apex(self, name):
        """Whatever the dimension of the complex, nothing kept moves only
        the vertex ids up by one, past the apex."""
        P = chain_poset(3) if name == "chain3" else RESTRICTED[name]()
        table = posets._chain_table(P)
        cone = table.cone(np.zeros(len(P), dtype=bool))
        assert cone.vertices == ("q*", *table.vertices)
        assert cone.rows()[0].tolist() == [[0]] * (len(P) + 1)
        assert set(cone.boundary_rows) == set(table.boundary_rows)
        for k, rows in table.boundary_rows.items():
            assert np.array_equal(cone.boundary_rows[k], rows + (k == 1))
        model = quotient_model(P.order_complex(), SimplicialComplex([]))
        for coeff in ("Z", "Z/2"):
            assert reduced_homology(cone, coeff) == reduced_homology(model, coeff)

    def test_empty_poset_is_the_apex(self):
        table = posets._chain_table(chain_poset(0))
        cone = table.cone(np.zeros(0, dtype=bool))
        assert cone.vertices == ("q*",) and cone.rows()[0].tolist() == [[0]]

    @pytest.mark.parametrize("name", ["pi4", "b4", "random3", "random11"])
    def test_apex_faces_come_first(self, name):
        P = RESTRICTED[name]()
        table = posets._chain_table(P)
        keep = mask_of(table, set(P.elements[::2]))
        cone = table.cone(keep)
        assert cone.vertices == ("q*", *table.vertices)
        faces = label_faces(cone)
        sub = label_faces(table.restrict(keep))
        own = label_faces(table)
        for k, ids in assert_face_table(cone).items():
            apex = {f - {"q*"} for f in faces[k] if "q*" in f}
            assert apex == (sub.get(k - 1, set()) if k else {frozenset()})
            assert faces[k] - {f | {"q*"} for f in apex} == own.get(k, set())
            assert (ids[: len(apex), 0] == 0).all() and (ids[len(apex):, 0] > 0).all()

    @pytest.mark.parametrize("taken, apex", [(["q*"], "q*'"), (["q*", "q*'"], "q*''")])
    def test_the_apex_label_is_fresh(self, taken, apex):
        P = posets.FinitePoset([*taken, "a"], [("a", taken[0])])
        table = posets._chain_table(P)
        for keep in (np.zeros(len(P), dtype=bool), np.ones(len(P), dtype=bool)):
            assert table.cone(keep).vertices == (apex, *table.vertices)

    def test_a_face_table_is_a_chain_complex_source(self):
        P = proper_part(partition_lattice(4))
        table = posets._chain_table(P)
        from_table = ChainComplex.from_complex(table)
        from_complex = ChainComplex.from_complex(P.order_complex())
        assert from_table.counts == from_complex.counts
        for k, d in from_table.boundary.items():
            assert np.array_equal(d.rows, from_complex.boundary[k].rows)


class TestConeBound:
    """Each dimension of the cone is checked against ``MAX_STACK_ENTRIES``
    before it is built.  The cone over a 4-element chain's whole complex is
    the 4-simplex on 5 vertices, whose 2-faces take the most ids, 3 * 10."""

    LARGEST = 30

    def cone(self, monkeypatch, limit):
        table = posets._chain_table(chain_poset(4))
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", limit)
        return table.cone(np.ones(4, dtype=bool))

    def test_at_the_limit_is_built(self, monkeypatch):
        cone = self.cone(monkeypatch, self.LARGEST)
        assert {k: len(ids) for k, ids in cone.rows().items()} == {
            k: comb(5, k + 1) for k in range(5)
        }

    def test_past_the_limit_is_refused(self, monkeypatch):
        with pytest.raises(ComplexError, match=f"2-faces need a table of {self.LARGEST} vertex ids"):
            self.cone(monkeypatch, self.LARGEST - 1)
