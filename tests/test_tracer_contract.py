"""The benchmark tracer (``perfbench/spans.py``) wraps ordertop functions by
name and reads counts from their arguments and results.  Installing it fails
when a wrapped name is gone; on small complexes the counts it reads must
equal ones computed independently."""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

import oracles
from randgen import projective_plane
from ordertop.complexes import SimplicialComplex
from ordertop.homology import reduced_homology
from ordertop.posets import BoundedPoset, partition_lattice

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """Import spans.py without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


COMPLEXES = {
    "hollow_triangle": SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]]),
    "rp2": projective_plane(),
}


@pytest.fixture(scope="module")
def tracer():
    t = load_spans().Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.mark.parametrize("coeff", ["z", "z2"])
@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_counts_match_independent_ones(tracer, name, coeff):
    K = COMPLEXES[name]
    tracer.reset()
    reduced_homology(K, coeff)
    counts = tracer.counts
    faces, mats = oracles.boundary_triples(K.facets)
    assert counts["complexes.faces"] == sum(len(fs) for fs in faces.values())
    assert counts["homology.boundary_nnz"] == sum(len(m[2]) for m in mats.values())
    if coeff == "z2":
        assert counts["kernel.unit_pivots"] == counts["homology.residual_entries"] == 0
        return
    # Every invariant factor above 1 is a torsion factor here, and only
    # those are left to the residual: the units are the rank less the torsion.
    _, dense = oracles.dense_boundaries(K.facets)
    rank = sum(oracles.rank_fraction(m) for m in dense.values())
    _, torsion = oracles.sympy_homology(K.facets)
    assert counts["kernel.unit_pivots"] == rank - sum(len(t) for t in torsion.values())
    # Each torsion factor of these complexes is left to the residual as one
    # entry, and nothing else is.
    assert counts["homology.residual_entries"] == sum(len(t) for t in torsion.values())


def test_order_complex_counts_facets(tracer):
    # structure-z2 builds its complexes only through order_complex, and its
    # traced metrics divide by the facets the constructor saw.
    tracer.reset()
    start = time.perf_counter()
    proper = BoundedPoset.from_poset(partition_lattice(4)).truncate()
    reduced_homology(proper.order_complex(), "z2")
    wall = time.perf_counter() - start
    assert tracer.counts["complexes.facet_filter.passed"] > 0
    metrics = tracer.layer_metrics(wall)
    assert metrics["complexes.facet_filter.kept_ratio"] == 1.0
