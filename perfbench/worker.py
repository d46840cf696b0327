"""One workload run in a fresh interpreter; started by ``run.py``.

Usage: worker.py --manifest PATH --seconds S --trace 0|1 [--setup-only]

Imports ordertop from the checkout's ``src``, loads the generated inputs
(that is the set-up time), then runs the case list of the manifest as a
closed loop with one caller until the next pass would end after ``--seconds``.
Each pass runs every case once and checks every result.  After each case it
runs slices of a fixed reference computation for about ``REF_SHARE`` of the
case's time, so each pass also records how fast the host ran pure Python
while it ran.  With ``--trace 1`` untraced and traced passes alternate, so
the tracing overhead is measured in the same process.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def _load():
    """Import ordertop and read the generated inputs; return the timed part."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import ordertop
    from ordertop import cli, complementation  # noqa: F401  (cli imports numpy)

    manifest = json.loads(args.manifest.read_text())
    workdir = args.manifest.parent
    texts = {name: (workdir / name).read_text() for name in manifest["files"]}
    setup_s = time.perf_counter() - start

    if Path(ordertop.__file__).resolve().parent != SRC / "ordertop":
        sys.exit(f"ordertop was imported from {ordertop.__file__}, not from {SRC}")
    return args, manifest, workdir, texts, setup_s


# Reference time spent after each case, as a share of the case's time.
REF_SHARE = 0.3
REF_CHECKSUM = 769352


def reference_slice() -> int:
    """A fixed pure-Python computation of about 40 ms: tuple-keyed dict
    updates, a sort and integer arithmetic, as in ordertop's own loops, on a
    few megabytes, so that it feels contention for the shared caches as
    ordertop does.  It never calls ordertop, so a change to ordertop cannot
    change its time."""
    table = {}
    for i in range(30000):
        key = (i % 613, (i * 7919) % 40933)
        table[key] = table.get(key, 0) + i
    acc = 0
    for a, b in sorted(table):
        acc = (acc * 31 + a * b + table[a, b]) % 1000003
    return acc


def run_reference(budget: float) -> tuple[int, float]:
    """Run reference slices until ``budget`` seconds are used (one at least);
    return (slices, seconds).  The garbage collector is off meanwhile, so
    the objects ordertop left alive do not add to the reference time."""
    slices, start = 0, time.perf_counter()
    gc.disable()
    try:
        while True:
            if reference_slice() != REF_CHECKSUM:
                raise RuntimeError("reference computation gave a wrong result")
            slices += 1
            spent = time.perf_counter() - start
            if spent >= budget:
                return slices, spent
    finally:
        gc.enable()


def run_pass(cases, texts, workdir, runners, tracer=None):
    """Run every case once, each followed by reference slices; return the
    pass record (case times, their sum as ``wall``, reference slices and
    seconds) and the failure messages."""
    times, failures = {}, []
    ref_slices, ref_s = 0, 0.0
    for case in cases:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            observed = json.loads(json.dumps(runners[case["kind"]](case, texts, workdir)))
            ok = observed == case["expected"]
        except Exception:
            ok, observed = False, traceback.format_exc(limit=3)
        finally:
            times[case["name"]] = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if not ok:
            failures.append(f"{case['name']}: got {observed!r}, expected {case['expected']!r}")
        slices, seconds = run_reference(REF_SHARE * times[case["name"]])
        ref_slices += slices
        ref_s += seconds
    record = {"wall": sum(times.values()), "cases": times,
              "ref_slices": ref_slices, "ref_s": ref_s, "failed": len(failures)}
    return record, failures


def main() -> int:
    args, manifest, workdir, texts, setup_s = _load()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import ordertop
    from cases import RUNNERS

    tracer, units = None, {}
    if args.trace:
        from spans import METRICS as units, Tracer

        tracer = Tracer()

    cases = manifest["cases"]
    passes, failures = [], []
    start = time.perf_counter()
    while True:
        # No warm-up pass: on a 2-CPU x86 VM the first pass took 0.97 to 1.04
        # of the median of the later ones (per workload), so it is timed too.
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
        pass_start = time.perf_counter()
        record, failed = run_pass(cases, texts, workdir, RUNNERS, tracer if traced else None)
        pass_s = time.perf_counter() - pass_start
        record["traced"] = traced
        if traced:
            record["layers"] = tracer.layer_metrics(record["wall"])
        passes.append(record)
        failures += failed
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if tracer else 1) and elapsed + pass_s > args.seconds:
            break

    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "passes": passes,
        "attempted": len(cases) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": units,
        "meta": {
            "kernel_backend": ordertop.kernel_backend,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
