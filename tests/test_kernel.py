import random

import pytest

import oracles
from randgen import moore_space, projective_plane, random_complex, torsion_cases
from ordertop._kernel import _pure
from ordertop.complexes import join
from ordertop.homology import ChainComplex, _dense_snf, invariant_factors, smith_normal_form


def random_entries(rng, n_rows, n_cols, nnz, lo=-6, hi=6):
    return [
        (rng.randrange(n_rows), rng.randrange(n_cols), rng.randint(lo, hi))
        for _ in range(nnz)
    ]


class TestPureKernel:
    def test_unit_elimination_counts_rank(self):
        # identity: every pivot is a unit
        entries = [(i, i, 1) for i in range(5)]
        units, residual = _pure.eliminate_unit_pivots(5, 5, entries)
        assert units == 5 and residual == []

    def test_residual_has_no_units(self):
        entries = [(0, 0, 2), (1, 1, 3)]
        units, residual = _pure.eliminate_unit_pivots(2, 2, entries)
        assert units == 0
        assert sorted(residual) == [(0, 0, 2), (1, 1, 3)]

    def test_duplicate_entries_summed(self):
        units, residual = _pure.eliminate_unit_pivots(1, 1, [(0, 0, 1), (0, 0, -1)])
        assert units == 0 and residual == []

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _pure.eliminate_unit_pivots(1, 1, [(0, 2, 1)])

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_mod2_against_oracle(self, seed):
        rng = random.Random(seed)
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = random_entries(rng, n_rows, n_cols, rng.randint(0, 20))
        dense = [[0] * n_cols for _ in range(n_rows)]
        for r, c, v in entries:
            dense[r][c] += v
        assert _pure.rank_mod2(n_rows, n_cols, entries) == oracles.rank_gf2(dense)

    def test_big_integers_against_sympy(self):
        huge = 2 ** 70
        assert smith_normal_form([[huge, 2], [2, 2]]) == oracles.sympy_invariant_factors(
            [[huge, 2], [2, 2]]
        )

    def test_residual_reduced_on_pivot_rows(self):
        # column 0 is a unit pivot on row 0; column 1 has the non-unit low 2
        entries = [(0, 0, 1), (0, 1, 1), (1, 1, 2)]
        assert _pure.eliminate_unit_pivots(2, 2, entries) == (1, [(1, 1, 2)])
        assert smith_normal_form([[1, 1], [0, 2]]) == (1, 2)
        # the same column left unreduced on row 0 would give (1, 1)
        assert _dense_snf([(0, 1, 1), (1, 1, 2)]) == [1]

    def test_rank_mod2_sums_duplicates_and_rejects_out_of_range(self):
        assert _pure.rank_mod2(1, 1, [(0, 0, 1), (0, 0, 1)]) == 0
        assert _pure.rank_mod2(1, 1, [(0, 0, 1), (0, 0, 2)]) == 1
        assert _pure.eliminate_unit_pivots(1, 1, [(0, 0, 1), (0, 0, 1)]) == (0, [(0, 0, 2)])
        with pytest.raises(ValueError):
            _pure.rank_mod2(1, 1, [(1, 0, 1)])

    @pytest.mark.parametrize("seed", range(10))
    def test_pivot_rows_distinct(self, seed):
        rng = random.Random(100 + seed)
        n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)
        entries = random_entries(rng, n_rows, n_cols, rng.randint(0, 40), -2, 2)
        rows_z: list[int] = []
        units, _ = _pure.eliminate_unit_pivots(n_rows, n_cols, entries, pivot_rows=rows_z)
        rows_2: list[int] = []
        rank = _pure.rank_mod2(n_rows, n_cols, entries, pivot_rows=rows_2)
        assert len(set(rows_z)) == len(rows_z) == units
        assert len(set(rows_2)) == len(rows_2) == rank
        assert all(0 <= r < n_rows for r in rows_z + rows_2)


COMPLEXES = [random_complex(random.Random(900 + seed), 8, 8, 5) for seed in range(15)]
COMPLEXES += list(torsion_cases().values())
# clearing the low row of a non-unit column would change the factors here
COMPLEXES.append(join(projective_plane(), moore_space(3)))


@pytest.mark.parametrize("index", range(len(COMPLEXES)))
def test_clearing_keeps_factors_and_ranks(index):
    # Clearing the pivot rows of d_{k+1} from the columns of d_k changes
    # neither the invariant factors over Z nor the rank over Z/2.
    cc = ChainComplex.from_complex(COMPLEXES[index])
    for k in range(1, cc.dim + 1):
        upper, lower = cc.boundary[k], cc.boundary[k - 1]
        rows_z: list[int] = []
        invariant_factors(upper, pivot_rows=rows_z)
        rows_2: list[int] = []
        _pure.rank_mod2(upper.n_rows, upper.n_cols, upper.entries, pivot_rows=rows_2)
        assert invariant_factors(lower, frozenset(rows_z)) == invariant_factors(lower)
        shape = (lower.n_rows, lower.n_cols, lower.entries)
        assert _pure.rank_mod2(*shape, frozenset(rows_2)) == _pure.rank_mod2(*shape)
