"""The chain complex built from face arrays against the tuple-and-triple
assembly of ``oracles.boundary_triples``: the same faces in the same order,
the same boundary matrices and the same homology, and an exact
boundary-of-boundary check, by the pairing of face terms and by the column
product behind it."""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

import oracles
import randgen
from ordertop import (
    BoundedPoset,
    boolean_lattice,
    cyclic_polytope_boundary,
    exp_discrete_poset,
    join,
    partition_lattice,
    quotient_model,
)
from ordertop._kernel import _pure
from ordertop.complexes import SimplicialComplex
from ordertop.homology import (
    ChainComplex,
    HomologyError,
    SparseMatrix,
    _coboundary,
    _face_pairs,
    _pairs_cancel,
    _product_is_zero,
    invariant_factors,
    reduced_homology,
)
from ordertop.posets import face_poset


def non_pure(seed):
    """Non-pure input with duplicate, permuted, nested and empty faces and
    extra vertices."""
    rng = random.Random(1300 + seed)
    verts = [f"v{i}" for i in range(rng.randint(1, 9))]
    faces = [rng.sample(verts, rng.randint(0, len(verts))) for _ in range(rng.randint(0, 8))]
    for f in list(faces)[:3]:
        faces.append(rng.sample(f, len(f)))
        faces.append(rng.sample(f, rng.randint(0, len(f))))
    faces.append([])
    rng.shuffle(faces)
    return SimplicialComplex(faces, vertices=rng.sample(verts + ["w0", "w1"], rng.randint(0, 3)))


def wide():
    """5,000 vertices and faces of up to 7 vertices: 5000^6 > 2^63, so the
    lexicographic codes of the faces must be re-ranked on the way."""
    rng = random.Random(1400)
    verts = [str(i) for i in range(5000)]  # string order differs from numeric order
    facets = [rng.sample(verts, 6) for _ in range(12)] + [rng.sample(verts, 7) for _ in range(3)]
    return SimplicialComplex(facets, vertices=verts)


CASES = [randgen.random_complex(random.Random(seed), 8, 7, 5) for seed in range(200)]
CASES += [randgen.torsion_cases()[name] for name in sorted(randgen.torsion_cases())]
CASES += [randgen.planted_torsion_complex(random.Random(1200 + seed))[0] for seed in range(4)]
CASES += [non_pure(seed) for seed in range(12)]
CASES += [SimplicialComplex(), SimplicialComplex([["a"]]), wide()]


def triples_profile(mats, counts, ring):
    """Betti numbers and torsion from the oracle's matrices, every degree
    reduced on its own (no clearing)."""
    ranks, factors = {}, {}
    for k, (n_rows, n_cols, entries) in mats.items():
        m = SparseMatrix.from_entries(n_rows, n_cols, entries)
        if ring == "Z":
            factors[k] = invariant_factors(m)
            ranks[k] = len(factors[k])
        else:
            ranks[k], _, _ = _pure.rank_mod2(m)
    betti, torsion = {}, {}
    for k in range(-1, max(counts) + 1):
        b = counts.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if b:
            betti[k] = b
        tors = tuple(f for f in factors.get(k + 1, ()) if f > 1)
        if tors:
            torsion[k] = tors
    return betti, torsion


@pytest.mark.parametrize("index", range(len(CASES)))
def test_faces_boundaries_and_profiles_match_tuple_assembly(index):
    K = CASES[index]
    faces, mats = oracles.boundary_triples(K.facets)
    assert K.faces_by_dim() == {d: tuple(fs) for d, fs in sorted(faces.items())}
    cc = ChainComplex.from_complex(K)
    assert cc.counts == {-1: 1, **{d: len(fs) for d, fs in faces.items()}}
    assert sorted(cc.boundary) == sorted(mats)
    for k, (n_rows, n_cols, entries) in mats.items():
        mat = cc.boundary[k]
        assert (mat.n_rows, mat.n_cols) == (n_rows, n_cols)
        assert len(mat.entries) == len(entries)
        assert sorted(mat.entries) == entries
    for ring in ("Z", "Z/2"):
        profile = reduced_homology(K, ring)
        assert (profile.betti, profile.torsion) == triples_profile(mats, cc.counts, ring)


def test_wide_complex_homology():
    # a forest of simplices with isolated vertices: reduced H_0 only, one
    # generator per connected component but one
    K = wide()
    parent = {v: v for v in K.vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for f in K.facets:
        first, *rest = f
        for v in rest:
            parent[root(v)] = root(first)
    components = len({root(v) for v in K.vertices})
    assert reduced_homology(K).betti == {0: components - 1}


@pytest.mark.parametrize("seed", range(30))
def test_boundary_check_agrees_with_dict_check(seed):
    # a random complex's d_k, d_{k+1}: as built, scaled by a large factor, or
    # with one entry of d_{k+1} changed; the array check must accept exactly
    # when the dict-based check of the oracle does
    rng = random.Random(1500 + seed)
    K = randgen.random_complex(rng, 7, 6, 5)
    _, mats = oracles.boundary_triples(K.facets)
    pairs = [k for k in mats if k + 1 in mats]
    if not pairs:
        return
    k = rng.choice(pairs)
    outer, inner = mats[k][2], list(mats[k + 1][2])
    scale = rng.choice([1, 2**40, 2**70])
    outer = [(r, c, v * scale) for r, c, v in outer]
    if rng.random() < 0.5:
        i = rng.randrange(len(inner))
        r, c, v = inner[i]
        inner[i] = (r, c, rng.choice([-v, 2 * v, v * scale]))
    counts = {-1: 1, k - 1: mats[k][0], k: mats[k][1], k + 1: mats[k + 1][1]}
    boundary = {
        k: SparseMatrix.from_entries(*mats[k][:2], outer),
        k + 1: SparseMatrix.from_entries(*mats[k + 1][:2], inner),
    }
    if oracles.composes_to_zero(outer, inner):
        ChainComplex(counts, boundary)
    else:
        with pytest.raises(HomologyError, match="composition"):
            ChainComplex(counts, boundary)


def composed(outer_column, inner_column):
    """d0 = one row, d1 = one column: d0 @ d1 is their dot product."""
    n = len(outer_column)
    d0 = SparseMatrix.from_dense([outer_column])
    d1 = SparseMatrix.from_dense([[v] for v in inner_column])
    return ChainComplex({-1: 1, 0: n, 1: 1}, {0: d0, 1: d1})


@pytest.mark.parametrize("big", [2**40, 2**70])
def test_boundary_check_exact_on_large_products(big):
    # each product is 2^80 or 2^140: it wraps to 0 in int64
    assert composed([big, big], [big, -big]).dim == 1
    with pytest.raises(HomologyError, match="composition 0 o 1"):
        composed([big, big], [big, big])


def test_boundary_check_exact_on_large_sums():
    # four products of 2^62 each: their sum 2^64 wraps to 0 in int64
    big = 2**31
    assert composed([big] * 4, [big, big, -big, -big]).dim == 1
    with pytest.raises(HomologyError, match="composition 0 o 1"):
        composed([big] * 4, [big] * 4)


def traced_peak(build):
    """The ``tracemalloc`` peak, in bytes, while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


HUGE = 2**61


def test_boundary_check_exact_on_huge_row_counts():
    # d_1 with 2^61 rows against d_2: both verdicts are exact, and the check
    # allocates nothing that grows with the row count
    def nonzero():
        d1 = SparseMatrix.from_entries(HUGE, 1, [(0, 0, 1)])
        d2 = SparseMatrix.from_entries(1, 4, [(0, 3, 1)])
        with pytest.raises(HomologyError, match="composition 1 o 2"):
            ChainComplex({-1: 1, 0: HUGE, 1: 1, 2: 4}, {1: d1, 2: d2})

    def zero():
        # columns of two entries against one of two: outside the pairing
        d1 = SparseMatrix.from_entries(HUGE, 2, [(r, c, 1) for r in (0, HUGE - 1) for c in (0, 1)])
        d2 = SparseMatrix.from_entries(2, 1, [(0, 0, 1), (1, 0, -1)])
        assert not _pairs_cancel(d1, d2)
        assert ChainComplex({-1: 1, 0: HUGE, 1: 2, 2: 1}, {1: d1, 2: d2}).dim == 2

    assert traced_peak(nonzero) < 64 * 1024
    assert traced_peak(zero) < 64 * 1024


def test_product_check_on_empty_columns():
    # the column product sees no entry: an inner matrix with no columns, and
    # one whose entries all name empty columns of the outer matrix
    outer = SparseMatrix.from_entries(2, 3, [(0, 0, 1), (1, 2, 1)])
    no_columns = SparseMatrix.from_entries(3, 0, [])
    onto_empty = SparseMatrix.from_entries(3, 2, [(1, 0, 5), (1, 1, -2)])
    for inner in (no_columns, onto_empty):
        assert not _pairs_cancel(outer, inner)
        assert _product_is_zero(outer, inner)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 1, [0, 1], [2], [1]), "outside"),
        ((2, 1, [0, 1], [-1], [1]), "outside"),
        ((2, 1, [0, 2], [1, 0], [1, 1]), "ascending"),
        ((2, 1, [0, 2], [1, 1], [1, 1]), "ascending"),
        ((2, 1, [0, 1], [0], [0]), "nonzero"),
        ((2, 2, [0, 1], [0], [1]), "pointers"),
        ((2, 2, [0, 2, 1], [0], [1]), "pointers"),
        ((-1, 0, [0], [], []), "negative matrix shape -1x0"),
    ],
)
def test_column_layout_validated(args, message):
    n_rows, n_cols, *arrays = args
    with pytest.raises(HomologyError, match=message):
        SparseMatrix(n_rows, n_cols, *(np.array(a) for a in arrays))


def test_ragged_dense_input_refused():
    with pytest.raises(HomologyError, match="ragged matrix input"):
        SparseMatrix.from_dense([[1, 0], [1]])


def proper_part(P):
    return BoundedPoset.from_poset(P).truncate().order_complex()


def named_complexes():
    rp2 = randgen.projective_plane()
    sphere = cyclic_polytope_boundary(9, 4)
    return {
        **{f"pi{n}": proper_part(partition_lattice(n)) for n in (4, 5, 6)},
        "b5": proper_part(boolean_lattice(5)),
        "exp_8_4": exp_discrete_poset(8, 4).order_complex(),
        "cyclic_11_8": cyclic_polytope_boundary(11, 8),
        "cyclic_14_6": cyclic_polytope_boundary(14, 6),
        "rp2": rp2,
        "sd_rp2": face_poset(rp2).order_complex(),
        "rp2_join_rp2": join(rp2, rp2),
        "quotient": quotient_model(sphere, randgen.random_subcomplex(random.Random(1600), sphere)),
    }


NAMED = named_complexes()


def consecutive_pairs(K):
    b = ChainComplex.from_complex(K).boundary
    return [(k, b[k], b[k + 1]) for k in sorted(b) if k + 1 in b]


@pytest.mark.parametrize("name", sorted(NAMED))
def test_pairing_certifies_named_complexes(name):
    for _, outer, inner in consecutive_pairs(NAMED[name]):
        assert _pairs_cancel(outer, inner)


def test_pairing_certifies_generated_complexes():
    for K in CASES:
        for _, outer, inner in consecutive_pairs(K):
            assert _pairs_cancel(outer, inner)


@pytest.mark.parametrize("m", range(2, 13))
def test_face_pairs_cover_every_term_once(m):
    terms = [term for pair in _face_pairs(m) for term in pair]
    assert sorted(terms) == list(product(range(m), range(m - 1)))


def with_column(mat, c, rows, vals):
    """``mat`` with column c replaced by the given entries, sorted by row."""
    lo, hi = mat.ptr[c], mat.ptr[c + 1]
    order = np.argsort(rows)
    new_rows, new_vals = mat.rows.copy(), mat.vals.copy()
    new_rows[lo:hi], new_vals[lo:hi] = np.asarray(rows)[order], np.asarray(vals)[order]
    return SparseMatrix(mat.n_rows, mat.n_cols, mat.ptr, new_rows, new_vals)


def faults(rng, k, inner):
    """d_{k+1} with the sign of one entry flipped, and for k >= 1 with the
    row of one entry moved to a face outside its column.  (The columns of
    d_0 are all equal, so a moved row of d_1 still composes to zero.)"""
    c = rng.randrange(inner.n_cols)
    lo, hi = inner.ptr[c], inner.ptr[c + 1]
    rows, vals = inner.rows[lo:hi].tolist(), inner.vals[lo:hi].tolist()
    p = rng.randrange(len(rows))
    flipped = vals[:p] + [-vals[p]] + vals[p + 1 :]
    yield with_column(inner, c, rows, flipped)
    free = sorted(set(range(inner.n_rows)) - set(rows))
    if k >= 1 and free:
        yield with_column(inner, c, rows[:p] + [rng.choice(free)] + rows[p + 1 :], vals)


FAULT_INPUTS = [NAMED[name] for name in sorted(NAMED)] + CASES[:40]


@pytest.mark.parametrize("index", range(len(FAULT_INPUTS)))
def test_one_fault_makes_the_pairing_decline(index):
    rng = random.Random(1700 + index)
    K = FAULT_INPUTS[index]
    counts = ChainComplex.from_complex(K).counts
    for k, outer, inner in consecutive_pairs(K):
        for faulty in faults(rng, k, inner):
            assert not _pairs_cancel(outer, faulty)
            with pytest.raises(HomologyError, match=f"composition {k} o {k + 1}"):
                ChainComplex(counts, {k: outer, k + 1: faulty})


def test_boundary_check_memory_stays_below_the_products():
    # Pi_6's proper part: 61,600 terms in its three products, 481 KiB as one
    # int64 array; the pairing holds a few arrays of one column position
    # (167 KiB measured with numpy 2.4)
    pairs = consecutive_pairs(NAMED["pi6"])
    terms = sum(int(np.diff(outer.ptr)[inner.rows].sum()) for _, outer, inner in pairs)
    assert terms == 61_600
    tracemalloc.start()
    try:
        assert all(_product_is_zero(outer, inner) for _, outer, inner in pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 224 * 1024 < 8 * terms / 2


def test_from_complex_stores_the_signs_in_one_byte():
    # Pi_6's proper part: 27,466 entries in its matrices.  The ids and the
    # column pointers are int64; the +-1 values take one byte each, so the
    # matrices hold about 312 KiB, where int64 values would add 215 KiB.
    K = NAMED["pi6"]
    K.face_table()
    tracemalloc.start()
    try:
        cc = ChainComplex.from_complex(K)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(m.rows) for m in cc.boundary.values()) == 27_466
    assert all(m.vals.dtype == np.int8 for m in cc.boundary.values())
    assert kept < 400 * 1024 < 504 * 1024


@pytest.mark.parametrize("facets", [[], [["a"]], [["a"], ["b"]]], ids=["empty", "point", "two"])
def test_d0_bounds_every_vertex_by_the_empty_face(facets):
    K = SimplicialComplex(facets)
    n = len(facets)
    table = K.face_table()
    assert list(table.rows()) == ([0] if n else [])
    cc = ChainComplex.from_complex(K)
    assert cc.counts == ({-1: 1, 0: n} if n else {-1: 1})
    assert list(cc.boundary) == ([0] if n else [])
    if n:
        d0 = cc.boundary[0]
        assert (d0.n_rows, d0.n_cols) == (1, n)
        for got, want in zip((d0.ptr, d0.rows, d0.vals), (np.arange(n + 1), [0] * n, [1] * n)):
            assert got.tolist() == list(want)
        assert (d0.ptr.dtype, d0.rows.dtype, d0.vals.dtype) == (np.int64, np.int64, np.int8)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_rows_add_degree_0_to_the_boundary_rows(name):
    table = NAMED[name].face_table()
    rows = table.rows()
    assert rows[0].tolist() == [[0]] * len(table.vertices)
    assert list(rows)[1:] == list(table.boundary_rows)
    assert all(rows[k] is table.boundary_rows[k] for k in table.boundary_rows)


def test_pairing_keeps_int8_products_in_range():
    # 100 * 63 and 100 * -1 agree modulo 256, so int8 products would pair the
    # terms of this nonzero product as if they cancelled; 100 * 1 fits.
    outer = ChainComplex.from_complex(SimplicialComplex([["a", "b", "c"]])).boundary[1]
    signs = np.array([100, -100, 100], dtype=np.int8)
    inner = SparseMatrix(3, 1, np.array([0, 3]), np.array([0, 1, 2]), signs)
    assert _pairs_cancel(outer, inner)
    vals = outer.vals.copy()
    assert vals[0] == -1
    vals[0] = 63
    faulty = SparseMatrix(outer.n_rows, outer.n_cols, outer.ptr, outer.rows, vals)
    assert not _pairs_cancel(faulty, inner)
    assert not _product_is_zero(faulty, inner)


def random_sparse(rng):
    """A random matrix with empty and uneven columns; some values need
    Python integers."""
    n_rows, n_cols = rng.randint(0, 9), rng.randint(0, 9)
    big = rng.choice([1, 2**70])
    entries = [
        (r, c, rng.choice([-1, 1, 2, -3, big]))
        for r in range(n_rows)
        for c in range(n_cols)
        if rng.random() < rng.choice([0.1, 0.5])
    ]
    return SparseMatrix.from_entries(n_rows, n_cols, entries)


@pytest.mark.parametrize("seed", range(40))
def test_coboundary_is_the_reversed_transpose(seed):
    d = random_sparse(random.Random(1800 + seed))
    n_rows, n_cols = d.n_rows, d.n_cols
    expected = SparseMatrix.from_entries(
        n_cols, n_rows, [(n_cols - 1 - c, n_rows - 1 - r, v) for r, c, v in d.entries]
    )
    got = _coboundary(d)
    assert (got.n_rows, got.n_cols) == (n_cols, n_rows)
    assert got.ptr.tolist() == expected.ptr.tolist()
    assert list(got.entries) == list(expected.entries)


def test_coboundary_keys_stay_in_int64():
    # keys row * nnz + entry would pass 2^63: 2^61 rows times 4 entries
    d = SparseMatrix.from_entries(2**61, 4, [(0, c, 1) for c in range(4)])
    with pytest.raises(HomologyError, match="too large"):
        _coboundary(d)
