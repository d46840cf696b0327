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
    assert not len(_apparent_pivots(cob.ptr, cob.rows, cob.vals, cleared)[2])
    tracemalloc.start()
    try:
        units, residual, pivot_rows = reduce(cob, cleared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (units, residual, len(pivot_rows)) == (149, [], 149)
    # A list of the rows alone would take a pointer and an int per entry.
    assert peak < cob.rows.nbytes // 4


def test_relabelled_poset_reaches_the_reduction_loop():
    # Under the generator's labels every pivot of the proper part of B_5 is
    # apparent.  Ids of equal up-set size go in label order, so under
    # shuffled labels some columns are left to the loop, over each ring, and
    # the profile must not change.
    canonical = BoundedPoset.from_poset(boolean_lattice(5)).truncate()
    names = [f"v{i:02d}" for i in range(len(canonical))]
    random.Random(0).shuffle(names)
    name = dict(zip(canonical.elements, names))
    relabelled = FinitePoset(names, [(name[a], name[b]) for a, b in canonical.covers])
    cc = ChainComplex.from_complex(relabelled.order_complex())
    for ring, reduce in ((Z, eliminate_unit_pivots), (Z2, rank_mod2)):
        cleared, rest = np.empty(0, dtype=np.int64), 0
        for k in sorted(cc.boundary):
            cob = _coboundary(cc.boundary[k])
            vals = cob.vals if ring == Z else None
            rest += len(_apparent_pivots(cob.ptr, cob.rows, vals, cleared)[2])
            cleared = reduce(cob, cleared)[2]
        assert rest > 0, ring
        assert reduced_homology(relabelled.order_complex(), ring) == reduced_homology(
            canonical.order_complex(), ring
        )


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
