"""Per-layer spans recorded from outside ordertop.

``Tracer.install`` replaces public functions and methods of ordertop with
wrappers that record a span (layer, start, end, parent) in memory, plus a few
counts taken from arguments and results at the same boundary.
``Tracer.uninstall`` puts the originals back, so traced and untraced passes
can alternate in one process.  Nothing inside ordertop is edited.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Several functions may share a layer (``complexes.ops``).
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import ordertop
from ordertop import _kernel, cli, complementation, complexes, config, diagrams, grassmann
from ordertop import homology, posets, spheres

# (owner, attribute, layer).  Module-level functions are also replaced in
# every ordertop module that imported them by name.
_POINTS = [
    (posets, "generate", "posets.generate"),
    (posets, "chain_poset", "posets.generate"),
    (posets, "boolean_lattice", "posets.generate"),
    (posets, "exp_discrete_poset", "posets.generate"),
    (posets, "partition_lattice", "posets.generate"),
    (posets, "face_poset", "posets.generate"),
    (posets, "poset_product", "posets.generate"),
    (posets.FinitePoset, "__init__", "posets.FinitePoset"),
    (posets.FinitePoset, "maximal_chains", "posets.maximal_chains"),
    (posets.BoundedPoset, "mobius", "posets.mobius"),
    (posets.BoundedPoset, "complements", "posets.complements"),
    (posets, "parse_poset", "posets.parse_poset"),
    (complexes.SimplicialComplex, "__init__", "complexes.SimplicialComplex"),
    (complexes.SimplicialComplex, "faces_by_dim", "complexes.faces_by_dim"),
    (complexes, "join", "complexes.ops"),
    (complexes, "cone", "complexes.ops"),
    (complexes, "suspension", "complexes.ops"),
    (complexes, "suspension_pointed", "complexes.ops"),
    (complexes, "wedge", "complexes.ops"),
    (complexes, "quotient_model", "complexes.ops"),
    (complexes, "format_cplx", "complexes.format_cplx"),
    (homology, "reduced_homology", "homology.reduced_homology"),
    (homology.ChainComplex, "from_complex", "homology.from_complex"),
    (homology.ChainComplex, "__init__", "homology.dd_check"),
    (homology, "_dense_snf", "homology.dense_snf"),
    (_kernel.pure(), "eliminate_unit_pivots", "kernel.eliminate_unit_pivots"),
    (_kernel.pure(), "rank_mod2", "kernel.rank_mod2"),
    (complementation, "verify", "complementation.verify"),
    (complementation, "quotient_wedge_check", "complementation.quotient_wedge_check"),
    (spheres, "grassmannian_type", "spheres.calc"),
    (spheres, "oriented_grassmannian_type", "spheres.calc"),
    (spheres, "partition_type", "spheres.calc"),
    (spheres, "exp_circle_type", "spheres.calc"),
    (config, "fuchs_table", "config"),
    (config, "predicted_betti_exp2", "config"),
    (config, "circle_model_check", "config"),
    (config, "neighborly_bound", "config"),
    (grassmann, "check_battery", "grassmann.check_battery"),
    (diagrams, "parse_pdiag", "diagrams"),
    (diagrams, "validate", "diagrams"),
    (diagrams, "grothendieck", "diagrams"),
    (diagrams, "cylinder_check", "diagrams"),
    (cli, "run", "cli.run"),
]
if ordertop.kernel_backend == "compiled":
    _POINTS += [
        (_kernel.active(), "eliminate_unit_pivots", "kernel.eliminate_unit_pivots"),
        (_kernel.active(), "rank_mod2", "kernel.rank_mod2"),
    ]

# Layers whose span count is reported as "<layer>.calls".
_CALL_COUNTS = ("posets.FinitePoset", "complexes.SimplicialComplex", "kernel.eliminate_unit_pivots")

# Every per-layer metric with its unit, in report order.
METRICS = {
    "posets.generate.self_s": "s",
    "posets.FinitePoset.self_s": "s",
    "posets.FinitePoset.calls": "count",
    "posets.maximal_chains.self_s": "s",
    "posets.chains": "count",
    "posets.mobius.self_s": "s",
    "posets.complements.self_s": "s",
    "posets.parse_poset.self_s": "s",
    "complexes.SimplicialComplex.self_s": "s",
    "complexes.SimplicialComplex.calls": "count",
    "complexes.facet_filter.kept_ratio": "ratio",
    "complexes.faces_by_dim.self_s": "s",
    "complexes.faces": "count",
    "complexes.ops.self_s": "s",
    "complexes.format_cplx.self_s": "s",
    "homology.reduced_homology.self_s": "s",
    "homology.from_complex.self_s": "s",
    "homology.dd_check.self_s": "s",
    "homology.boundary_nnz": "count",
    "homology.dense_snf.self_s": "s",
    "homology.residual_entries": "count",
    "kernel.eliminate_unit_pivots.self_s": "s",
    "kernel.eliminate_unit_pivots.calls": "count",
    "kernel.unit_pivots": "count",
    "kernel.rank_mod2.self_s": "s",
    "kernel.fallbacks": "count",
    "complementation.verify.self_s": "s",
    "complementation.quotient_wedge_check.self_s": "s",
    "spheres.calc.self_s": "s",
    "spheres.dims_stored": "count",
    "config.self_s": "s",
    "grassmann.check_battery.self_s": "s",
    "diagrams.self_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


class Tracer:
    """Span recorder for one process; spans of one pass are kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, layer: str, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _after_hooks(self, owner, name: str):
        c = self._count
        if owner is posets.FinitePoset and name == "maximal_chains":
            return lambda args, r: c("posets.chains", len(r))
        if owner is homology.ChainComplex and name == "from_complex":
            def chain_sizes(args, cc):
                c("complexes.faces", sum(n for k, n in cc.counts.items() if k >= 0))
                c("homology.boundary_nnz", sum(len(m.entries) for m in cc.boundary.values()))
            return chain_sizes
        if name == "_dense_snf":
            return lambda args, r: c("homology.residual_entries", len(args[0]))
        if name == "eliminate_unit_pivots":
            return lambda args, r: c("kernel.unit_pivots", r[0])
        if owner is spheres:
            return lambda args, r: c("spheres.dims_stored", len(r.dims))
        return None

    def _complex_init(self, original):
        """SimplicialComplex.__init__ that also counts facets in and kept."""
        c = self._count

        def init(self_, facets=(), vertices=()):
            facets, vertices = list(facets), list(vertices)
            original(self_, facets, vertices)
            c("complexes.facet_filter.passed", len(facets) + len(vertices))
            c("complexes.facet_filter.kept", len(self_.facets))

        return init

    def _compiled_fallbacks(self, original):
        """A compiled kernel entry that counts the errors which send
        ordertop back to the pure kernel."""
        c = self._count

        def call(*args):
            try:
                return original(*args)
            except (OverflowError, MemoryError):
                c("kernel.fallbacks", 1)
                raise

        return call

    # -- installing ------------------------------------------------------------

    def _replace(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ordertop" or key.startswith("ordertop."))]
        for owner, name, layer in _POINTS:
            original = owner.__dict__[name]
            after = self._after_hooks(owner, name)
            if isinstance(original, classmethod):
                self._replace(owner, name, classmethod(self._wrap(original.__func__, layer, after)))
                continue
            fn = original
            if owner is complexes.SimplicialComplex and name == "__init__":
                fn = self._complex_init(original)
            elif owner is _kernel.active() and owner is not _kernel.pure():
                fn = self._compiled_fallbacks(original)
            wrapped = self._wrap(fn, layer, after)
            if isinstance(owner, type):
                self._replace(owner, name, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- per pass --------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for (layer, start, end, _), inner in zip(self.spans, child):
            self_time[layer] += end - start - inner
            calls[layer] += 1
        out = {name: 0.0 for name in METRICS if name.endswith(".self_s")}
        out.update({f"{layer}.self_s": t for layer, t in self_time.items()})
        out.update({f"{layer}.calls": calls[layer] for layer in _CALL_COUNTS})
        for name, unit in METRICS.items():
            if unit == "count" and name not in out:
                out[name] = self.counts[name]
        # Every workload builds complexes, so facets were passed in.
        out["complexes.facet_filter.kept_ratio"] = (
            self.counts["complexes.facet_filter.kept"] / self.counts["complexes.facet_filter.passed"]
        )
        out["trace.span_coverage"] = covered / wall
        return out

