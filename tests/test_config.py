import gc
import tracemalloc

import pytest

import oracles
from ordertop.complexes import cyclic_polytope_boundary
from ordertop.config import (
    MAX_CIRCLE_FACES,
    MAX_N,
    ConfigError,
    binary_partition_count,
    circle_face_count,
    circle_model_check,
    exp_discrete_check,
    fuchs_dimension,
    fuchs_table,
    neighborly_bound,
    predicted_betti_exp2,
)


class TestFuchsDimension:
    def test_tables_keep_no_cache(self):
        # each call builds its own table and frees it on return; a
        # process-wide memo held 7.8 MB after these calls
        fuchs_table(5)
        tracemalloc.start()
        try:
            fuchs_table(200)
            predicted_betti_exp2(200)
            binary_partition_count(100)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 100_000

    @pytest.mark.parametrize(
        "n,k,expected", [(3, 0, 1), (3, 2, 0), (4, 3, 1), (1, 0, 1), (2, 0, 1), (2, 1, 1)]
    )
    def test_values(self, n, k, expected):
        assert fuchs_dimension(n, k) == expected
        assert oracles.power_of_two_multisets(n, n - k) == expected

    def test_sizes_below_the_range_refused(self):
        with pytest.raises(ConfigError, match="need n >= 1"):
            fuchs_dimension(0, 0)
        with pytest.raises(ConfigError, match="need n >= 0"):
            binary_partition_count(-1)
        assert binary_partition_count(0) == 1

    def test_out_of_range_degrees(self):
        assert fuchs_dimension(5, -1) == 0
        assert fuchs_dimension(5, 5) == 0
        assert fuchs_dimension(5, 9) == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_enumeration(self, n):
        for k in range(n):
            assert fuchs_dimension(n, k) == oracles.power_of_two_multisets(n, n - k)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_row_sums_are_binary_partition_counts(self, n):
        assert sum(fuchs_dimension(n, k) for k in range(n)) == binary_partition_count(n)

    @pytest.mark.parametrize("n", range(1, 20))
    def test_top_degree_iff_power_of_two(self, n):
        expected = 1 if n & (n - 1) == 0 else 0
        assert fuchs_dimension(n, n - 1) == expected

    def test_table(self):
        assert fuchs_table(3).dims == {0: 1, 1: 1, 2: 0}

    def test_dimension_reads_the_table(self):
        for n in range(1, 41):
            table = fuchs_table(n)
            for k in range(-1, n + 2):
                assert fuchs_dimension(n, k) == table.dim(k), (n, k)


# OEIS A018819, the binary partition function, for n = 0..33
A018819 = [
    1, 1, 2, 2, 4, 4, 6, 6, 10, 10, 14, 14, 20, 20, 26, 26, 36, 36, 46, 46,
    60, 60, 74, 74, 94, 94, 114, 114, 140, 140, 166, 166, 202, 202,
]


@pytest.fixture(scope="module")
def knapsack_table():
    return oracles.power_of_two_multiset_table(MAX_N)


class TestTables:
    """The halving recurrence against counts it does not share code with."""

    @pytest.mark.parametrize("n", [*range(1, 65), 127, 128, 129, 255, 256, 257, MAX_N])
    def test_fuchs_table_against_knapsack(self, n, knapsack_table):
        row = knapsack_table[n]
        assert fuchs_table(n).dims == {k: row[n - k] for k in range(n)}

    def test_binary_partition_count_is_a018819(self):
        assert [binary_partition_count(n) for n in range(34)] == A018819

    def test_every_table_is_bounded(self):
        with pytest.raises(ConfigError, match=f"need n <= {MAX_N}, got 1200"):
            fuchs_dimension(1200, 100)
        with pytest.raises(ConfigError, match=f"need n <= {MAX_N}"):
            binary_partition_count(MAX_N + 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_fuchs_table_needs_a_point(self, n):
        with pytest.raises(ConfigError, match="need n >= 1"):
            fuchs_table(n)

    def test_largest_table_is_small(self):
        # n^2/2 counts peak at about 1.2 MB; a memo of partial sums would not fit
        tracemalloc.start()
        try:
            fuchs_table(MAX_N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestPredictedBetti:
    def test_n1_is_a_sphere(self):
        predicted = predicted_betti_exp2(1)
        assert predicted.betti == {2: 1}
        assert predicted.sphere_like

    def test_n2(self):
        predicted = predicted_betti_exp2(2)
        assert predicted.betti == {5: 1, 4: 1}
        assert not predicted.sphere_like

    def test_n3(self):
        predicted = predicted_betti_exp2(3)
        assert predicted.betti == {8: 1, 7: 1}
        assert not predicted.sphere_like

    @pytest.mark.parametrize("n", range(2, 11))
    def test_two_adjacent_top_classes(self, n):
        predicted = predicted_betti_exp2(n)
        assert predicted.betti_number(3 * n - 1) == 1
        assert predicted.betti_number(3 * n - 2) == 1
        assert not predicted.sphere_like

    @pytest.mark.parametrize("n", range(1, 11))
    def test_degree_bound(self, n):
        predicted = predicted_betti_exp2(n)
        assert all(0 <= p <= 3 * n - 1 for p in predicted.betti)


class TestNeighborlyBound:
    @pytest.mark.parametrize("n,expected", [(1, 3), (2, 6), (5, 15)])
    def test_values(self, n, expected):
        assert neighborly_bound(n) == expected

    def test_range_check(self):
        with pytest.raises(ConfigError):
            neighborly_bound(0)


class TestCircleModel:
    def test_pentagon(self):
        report = circle_model_check(1, 5)
        assert report.profile.betti == {1: 1}
        assert report.pseudomanifold
        assert report.passed

    @pytest.mark.parametrize("n,m", [(2, 6), (2, 7), (3, 8)])
    def test_higher_models(self, n, m):
        report = circle_model_check(n, m)
        assert report.profile.betti == {2 * n - 1: 1}
        assert not report.profile.torsion
        assert report.passed

    def test_verdict_stable_in_m(self):
        assert all(circle_model_check(1, m).passed for m in range(4, 11))

    def test_parameter_range(self):
        with pytest.raises(ConfigError):
            circle_model_check(2, 5)

    @pytest.mark.parametrize("n,m", [(1, 4), (1, 9), (2, 8), (3, 10), (3, 12), (4, 11), (5, 13)])
    def test_face_count_matches_sphere(self, n, m):
        faces = cyclic_polytope_boundary(m, 2 * n).face_counts()
        assert circle_face_count(n, m) == sum(faces.values())

    @pytest.mark.parametrize(
        "n,m", [(1, 100_000), (2, 317), (3, 55), (4, 27), (5, 20), (6, 18), (7, 17)]
    )
    def test_largest_admitted_m(self, n, m):
        # The inputs whose times and peaks config.py records.
        assert circle_face_count(n, m) <= MAX_CIRCLE_FACES < circle_face_count(n, m + 1)

    def test_no_admitted_input_past_n_7(self):
        # The face count grows with m, so the smallest m decides.
        assert circle_face_count(8, 18) > MAX_CIRCLE_FACES
        assert circle_face_count(11, 26) == 66_400_256


class TestExpDiscrete:
    def test_4_2(self):
        report = exp_discrete_check(4, 2)
        assert report.profile.betti == {1: 3}
        assert report.passed

    def test_3_1(self):
        report = exp_discrete_check(3, 1)
        assert report.profile.betti == {0: 2}
        assert report.passed

    def test_3_3_full_simplex(self):
        report = exp_discrete_check(3, 3)
        assert report.profile.is_acyclic
        assert report.passed

    @pytest.mark.parametrize("m,n", [(4, 1), (4, 3), (5, 2), (5, 4), (6, 2)])
    def test_grid(self, m, n):
        assert exp_discrete_check(m, n).passed

    def test_range(self):
        with pytest.raises(ConfigError):
            exp_discrete_check(2, 3)
