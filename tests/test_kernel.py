import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import oracles
from randgen import moore_space, projective_plane, random_complex, torsion_cases
from ordertop import _kernel, homology, kernel_backend
from ordertop.complexes import SimplicialComplex, cyclic_polytope_boundary, join
from ordertop.homology import (
    Z,
    Z2,
    ChainComplex,
    Coboundary,
    HomologyProfile,
    SparseMatrix,
    _apparent_pivots,
    _coboundary,
    _dense_snf,
    _factors_by_degree,
    eliminate_unit_pivots,
    invariant_factors,
    rank_mod2,
    reduced_homology,
    smith_normal_form,
)
from ordertop.posets import (
    BoundedPoset,
    FinitePoset,
    boolean_lattice,
    exp_discrete_poset,
    partition_lattice,
)


def random_entries(rng, n_rows, n_cols, nnz, lo=-6, hi=6):
    return [
        (rng.randrange(n_rows), rng.randrange(n_cols), rng.randint(lo, hi))
        for _ in range(nnz)
    ]


def matrix(n_rows, n_cols, entries):
    return SparseMatrix.from_entries(n_rows, n_cols, entries)


def plain(result):
    """A reducer's (units, residual, pivot rows), the pivot rows, an int
    array, as a list."""
    units, residual, pivot_rows = result
    return units, residual, [int(r) for r in pivot_rows]


class TestPureKernel:
    def test_unit_elimination_counts_rank(self):
        # identity: every pivot is a unit
        entries = [(i, i, 1) for i in range(5)]
        units, residual, pivot_rows = eliminate_unit_pivots(matrix(5, 5, entries))
        assert units == 5 and residual == [] and sorted(pivot_rows) == [0, 1, 2, 3, 4]

    def test_residual_has_no_units(self):
        entries = [(0, 0, 2), (1, 1, 3)]
        units, residual, pivot_rows = plain(eliminate_unit_pivots(matrix(2, 2, entries)))
        assert units == 0 and pivot_rows == []
        assert sorted(residual) == [(0, 0, 2), (1, 1, 3)]

    def test_duplicate_entries_summed(self):
        result = eliminate_unit_pivots(matrix(1, 1, [(0, 0, 1), (0, 0, -1)]))
        assert plain(result) == (0, [], [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            eliminate_unit_pivots(matrix(1, 1, [(0, 2, 1)]))

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_mod2_against_oracle(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = random_entries(rng, n_rows, n_cols, rng.randint(0, 20))
        dense = [[0] * n_cols for _ in range(n_rows)]
        for r, c, v in entries:
            dense[r][c] += v
        rank, _, _ = rank_mod2(matrix(n_rows, n_cols, entries))
        assert rank == oracles.rank_gf2(dense)

    def test_big_integers_against_sympy(self):
        huge = 2 ** 70
        assert smith_normal_form([[huge, 2], [2, 2]]) == oracles.sympy_invariant_factors(
            [[huge, 2], [2, 2]]
        )

    def test_residual_reduced_on_pivot_rows(self):
        # column 0 is a unit pivot on row 0; column 1 has the non-unit low 2
        entries = [(0, 0, 1), (0, 1, 1), (1, 1, 2)]
        assert plain(eliminate_unit_pivots(matrix(2, 2, entries))) == (1, [(1, 1, 2)], [0])
        assert smith_normal_form([[1, 1], [0, 2]]) == (1, 2)
        # the same column left unreduced on row 0 would give (1, 1)
        assert _dense_snf([(0, 1, 1), (1, 1, 2)]) == [1]

    def test_rank_mod2_sums_duplicates_and_rejects_out_of_range(self):
        assert plain(rank_mod2(matrix(1, 1, [(0, 0, 1), (0, 0, 1)]))) == (0, [], [])
        assert plain(rank_mod2(matrix(1, 1, [(0, 0, 1), (0, 0, 2)]))) == (1, [], [0])
        assert plain(eliminate_unit_pivots(matrix(1, 1, [(0, 0, 1), (0, 0, 1)]))) == (
            0,
            [(0, 0, 2)],
            [],
        )
        with pytest.raises(ValueError):
            rank_mod2(matrix(1, 1, [(1, 0, 1)]))

    @pytest.mark.parametrize("seed", range(10))
    def test_pivot_rows_distinct(self, seed):
        # Both reducers return (units, residual, pivot rows): one distinct
        # row per unit, and no residual over Z/2.
        rng = random.Random(100 + seed)
        n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)
        entries = random_entries(rng, n_rows, n_cols, rng.randint(0, 40), -2, 2)
        m = matrix(n_rows, n_cols, entries)
        units, residual, rows_z = plain(eliminate_unit_pivots(m))
        rank, residual_2, rows_2 = plain(rank_mod2(m))
        assert len(set(rows_z)) == len(rows_z) == units
        assert len(set(rows_2)) == len(rows_2) == rank
        assert all(0 <= r < n_rows for r in rows_z + rows_2)
        assert residual_2 == []
        assert not {r for r, _, _ in residual} & set(rows_z)


SNF_VALUES = [0, 1, -1, 2, 3, -4, 6, 9, 2**70]


@pytest.mark.parametrize("seed", range(6))
def test_dense_snf_against_sympy(seed):
    # 300 dense matrices up to 6x6; 2^70 forces Python integers
    rng = random.Random(2000 + seed)
    for _ in range(50):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.choice(SNF_VALUES) for _ in range(n)] for _ in range(m)]
        entries = [(r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
        assert tuple(_dense_snf(entries)) == oracles.sympy_invariant_factors(dense)


@pytest.mark.parametrize(
    "diagonal, factors",
    [((2, 3), [1, 6]), ((4, 6), [2, 12]), ((6, 10, 15), [1, 30, 30]), ((0, 0), [])],
)
def test_dense_snf_orders_a_diagonal(diagonal, factors):
    # every pivot is clear at once; only the (gcd, lcm) pass makes the chain
    entries = [(i, i, d) for i, d in enumerate(diagonal)]
    assert _dense_snf(entries) == factors


COMPLEXES = [random_complex(random.Random(900 + seed), 8, 8, 5) for seed in range(15)]
COMPLEXES += list(torsion_cases().values())
# clearing the low row of a non-unit column would change the factors here
COMPLEXES.append(join(projective_plane(), moore_space(3)))


def factors(reduced):
    units, residual, _ = reduced
    return (1,) * units + tuple(_dense_snf(residual))


@pytest.mark.parametrize("index", range(len(COMPLEXES)))
def test_clearing_keeps_factors_and_ranks(index):
    # Clearing the pivot rows of d_{k+1} from the columns of d_k changes
    # neither the invariant factors over Z nor the rank over Z/2.
    cc = ChainComplex.from_complex(COMPLEXES[index])
    for k in range(1, cc.dim + 1):
        upper, lower = cc.boundary[k], cc.boundary[k - 1]
        for reduce in (eliminate_unit_pivots, rank_mod2):
            _, _, rows = reduce(upper)
            assert factors(reduce(lower, rows)) == factors(reduce(lower))


def dense_array(m):
    a = np.zeros((m.n_rows, m.n_cols), dtype=np.int64)
    for r, c, v in m.entries:
        a[r, c] = v
    return a


@pytest.mark.parametrize("index", range(len(COMPLEXES)))
def test_coboundary_is_the_backward_transpose(index):
    for d in ChainComplex.from_complex(COMPLEXES[index]).boundary.values():
        cob = _coboundary(d)
        assert (cob.n_rows, cob.n_cols) == (d.n_cols, d.n_rows)
        assert (dense_array(cob) == dense_array(d).T[::-1, ::-1]).all()


def proper_part(P):
    return BoundedPoset.from_poset(P).truncate().order_complex()


FACTOR_CASES = {name: lambda K=K: K for name, K in torsion_cases().items()}
FACTOR_CASES.update({f"pi{n}": lambda n=n: proper_part(partition_lattice(n)) for n in (4, 5, 6)})
FACTOR_CASES["exp8_4"] = lambda: exp_discrete_poset(8, 4).order_complex()
FACTOR_CASES["cyclic11_8"] = lambda: cyclic_polytope_boundary(11, 8)


@pytest.mark.parametrize("name", sorted(FACTOR_CASES))
def test_coboundary_factors_per_degree(name):
    # Reduced as coboundaries with clearing, every d_k keeps the invariant
    # factors it has when reduced by itself, untransposed and uncleared, and
    # its rank over GF(2).
    cc = ChainComplex.from_complex(FACTOR_CASES[name]())
    over_z, over_2 = _factors_by_degree(cc, Z), _factors_by_degree(cc, Z2)
    assert set(over_z) == set(over_2) == set(cc.boundary)
    for k, d in cc.boundary.items():
        assert over_z[k] == invariant_factors(d)
        assert over_2[k] == (1,) * oracles.rank_gf2_entries(d.entries)


@pytest.mark.parametrize("reduce", [eliminate_unit_pivots, rank_mod2])
def test_all_apparent_reduction_makes_no_object_per_entry(reduce):
    # The coboundary of d_1 of the complete graph on 150 vertices has 149
    # entries a column; with the empty face's pivot row cleared, every pivot
    # is apparent.
    graph = SimplicialComplex(combinations([f"v{i:03d}" for i in range(150)], 2))
    cc = ChainComplex.from_complex(graph)
    _, _, cleared = reduce(_coboundary(cc.boundary[0]))
    cob = _coboundary(cc.boundary[1])
    assert not len(_apparent_pivots(*cob.lows(), cleared)[2])
    tracemalloc.start()
    try:
        units, residual, pivot_rows = reduce(cob, cleared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (units, residual, len(pivot_rows)) == (149, [], 149)
    # A list of the rows alone would take a pointer and an int per entry.
    assert peak < cob.rows.nbytes // 4


def relabelled(P, seed):
    """P with its labels replaced by shuffled ones."""
    names = [f"v{i:03d}" for i in range(len(P))]
    random.Random(seed).shuffle(names)
    name = dict(zip(P.elements, names))
    return FinitePoset(names, [(name[a], name[b]) for a, b in P.covers])


def loop_columns(K):
    """Per ring, the columns of every coboundary of K that are neither
    apparent pivots nor cleared: those the reduction loop runs on."""
    cc = ChainComplex.from_complex(K)
    rest = {}
    for ring, reduce in ((Z, eliminate_unit_pivots), (Z2, rank_mod2)):
        cleared, rest[ring] = np.empty(0, dtype=np.int64), 0
        for k in sorted(cc.boundary):
            cob = Coboundary(cc.boundary[k])
            lows, vals = cob.lows()
            rest[ring] += len(_apparent_pivots(lows, vals if ring == Z else None, cleared)[2])
            cleared = reduce(cob, cleared)[2]
    return rest


def proper_poset(P):
    return BoundedPoset.from_poset(P).truncate()


RELABELLED = {
    "b5": lambda: proper_poset(boolean_lattice(5)),
    "pi5": lambda: proper_poset(partition_lattice(5)),
    "exp8_4": lambda: exp_discrete_poset(8, 4),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_relabelled_posets_leave_no_column_to_the_loop(name, seed):
    # The chain trie numbers elements from the order alone, so every pivot
    # stays apparent under shuffled labels, over each ring, and the profile
    # does not change.
    canonical = RELABELLED[name]()
    shuffled = relabelled(canonical, seed)
    assert loop_columns(shuffled.order_complex()) == {Z: 0, Z2: 0}
    for ring in (Z, Z2):
        assert reduced_homology(shuffled.order_complex(), ring) == reduced_homology(
            canonical.order_complex(), ring
        )


def test_cyclic_polytope_reaches_the_reduction_loop():
    # A complex given by its facets numbers its vertices in sorted label
    # order, and "10" sorts before "2": the boundary of the cyclic 6-polytope
    # on 14 vertices leaves 45 columns to the loop, over each ring.
    K = cyclic_polytope_boundary(14, 6)
    assert loop_columns(K) == {Z: 45, Z2: 45}
    assert reduced_homology(K, Z2).betti == oracles.brute_betti(K.facets, "GF2")
    # a simplicial 5-sphere
    assert reduced_homology(K, Z) == HomologyProfile(Z, {5: 1})


def split_by_definition(dense, over_z, cleared):
    """The apparent pivots of a dense matrix by their definition, column by
    column: the first column with a given low owns it, over Z only when the
    value there is +-1.  Returns (their lows ascending, their columns, the
    other columns)."""
    owner, seen, rest = {}, set(), []
    for c in range(dense.shape[1]):
        nonzero = np.flatnonzero(dense[:, c])
        if c in cleared or not len(nonzero):
            continue
        low = int(nonzero[-1])
        if low not in seen and (not over_z or abs(dense[low, c]) == 1):
            owner[low] = c
        else:
            rest.append(c)
        seen.add(low)
    lows = sorted(owner)
    return lows, [owner[r] for r in lows], rest


@pytest.mark.parametrize("seed", range(40))
def test_lows_from_the_rows_match_the_coboundary(seed):
    # Random boundaries with empty rows and columns and values other than
    # +-1: the split read off the rows of d equals the split of the built
    # coboundary and the one by definition, over each ring, with a cleared
    # set; and both reducers give the same on the lazy and the built one.
    rng = random.Random(3000 + seed)
    n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 9)
    nnz = rng.randint(0, 30) if n_rows and n_cols else 0
    d = matrix(n_rows, n_cols, random_entries(rng, n_rows, n_cols, nnz, -3, 3))
    built = _coboundary(d)
    cleared = np.array(sorted(rng.sample(range(n_rows), rng.randint(0, n_rows))), dtype=np.int64)
    for over_z, reduce in ((True, eliminate_unit_pivots), (False, rank_mod2)):
        lazy = Coboundary(d) if over_z else Coboundary(d).odd()
        target = built if over_z else built.odd()
        lows, vals = lazy.lows()
        split = _apparent_pivots(lows, vals if over_z else None, cleared)
        target_lows, target_vals = target.lows()
        expected = _apparent_pivots(target_lows, target_vals if over_z else None, cleared)
        assert [a.tolist() for a in split] == [a.tolist() for a in expected]
        by_definition = split_by_definition(dense_array(target), over_z, set(cleared.tolist()))
        assert [a.tolist() for a in split] == list(by_definition)
        assert plain(reduce(Coboundary(d), cleared)) == plain(reduce(built, cleared))


def coboundary_calls(monkeypatch):
    """The boundaries whose coboundary gets built, as (rows, columns)."""
    calls = []
    original = homology._coboundary

    def counted(d):
        calls.append((d.n_rows, d.n_cols))
        return original(d)

    monkeypatch.setattr(homology, "_coboundary", counted)
    return calls


@pytest.mark.parametrize("shuffle", [None, 0])
@pytest.mark.parametrize("name", ["b5", "pi5"])
def test_apparent_degrees_build_no_coboundary(monkeypatch, name, shuffle):
    P = RELABELLED[name]()
    K = P.order_complex() if shuffle is None else relabelled(P, shuffle).order_complex()
    calls = coboundary_calls(monkeypatch)
    for ring in (Z, Z2):
        reduced_homology(K, ring)
    assert calls == []


def test_degrees_with_loop_columns_build_their_coboundary(monkeypatch):
    # Of the cyclic sphere's coboundaries, those of d_3, d_4 and d_5 keep
    # columns for the loop (16, 27 and 2): only those are built, once a ring.
    K = cyclic_polytope_boundary(14, 6)
    cc = ChainComplex.from_complex(K)
    calls = coboundary_calls(monkeypatch)
    for ring in (Z, Z2):
        reduced_homology(K, ring)
    shapes = [(cc.boundary[k].n_rows, cc.boundary[k].n_cols) for k in (3, 4, 5)]
    assert calls == shapes * 2


class TestReducerGlobals:
    """Every caller reads the reducers from the ``homology`` module when it
    runs, so a wrapper set there sees each call.  The benchmark tracer wraps
    them this way, through the names of ``ordertop._kernel``."""

    def test_kernel_names_point_at_homology(self):
        assert _kernel.pure() is homology
        assert _kernel.active() is homology
        assert kernel_backend == "pure"

    @staticmethod
    def counted_calls(monkeypatch):
        calls = []
        for name in ("eliminate_unit_pivots", "rank_mod2"):
            original = getattr(homology, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(homology, name, counted)
        return calls

    @pytest.mark.parametrize("coeff, name", [(Z, "eliminate_unit_pivots"), (Z2, "rank_mod2")])
    def test_reduced_homology_calls_one_reducer_per_degree(self, monkeypatch, coeff, name):
        K = projective_plane()
        expected = reduced_homology(K, coeff)
        calls = self.counted_calls(monkeypatch)
        assert reduced_homology(K, coeff) == expected
        assert calls == [name] * len(ChainComplex.from_complex(K).boundary)

    def test_smith_normal_form_calls_the_z_reducer_once(self, monkeypatch):
        calls = self.counted_calls(monkeypatch)
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
        assert calls == ["eliminate_unit_pivots"]
