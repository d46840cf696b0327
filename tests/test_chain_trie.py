"""The face table of an order complex, grown from the chains of its poset
(``posets._chain_table``), against the all-chains oracle and against the
label builder that numbers vertices in sorted label order."""

import random
import tracemalloc
from math import comb

import numpy as np
import pytest

import oracles
from randgen import random_poset
from ordertop import complexes, posets
from ordertop.complexes import ComplexError, SimplicialComplex
from ordertop.homology import reduced_homology
from ordertop.posets import (
    BoundedPoset,
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
