#!/usr/bin/env python3
"""ordertop benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-z --seed 1 --seconds 30 --trace 0

Writes the seeded inputs under ``.perfbench_work/``, then starts fresh
interpreters with one BLAS thread each: five that only import ordertop and
load the inputs (set-up time), and one that runs the workload's case list
for ``--seconds`` (``worker.py``).  Prints each metric by name and unit, the
run metadata, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of ``spans.py``.

Pass and case times are reported in "ref": multiples of the time a fixed
pure-Python reference computation took in the same pass.  On a shared host
whose speed drifts by up to 1.5x over tens of seconds, that ratio holds
steady where seconds do not; the seconds are printed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Deadline for the whole run; the benchmark must exit within 180 s.
RUN_LIMIT_S = 170.0
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # Fixed string hashing, so set iteration order is the same in every run.
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "wall_ref": "ref",
    "slowest_case_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
# One "ref" is the time of this many reference slices (worker.py); about one
# second on a 2-CPU x86 VM.
REF_UNIT_SLICES = 25


def _child(argv: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    # Inherited PYTHON* settings (PYTHONPATH above all) could change what runs.
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(CHILD_ENV)
    proc = subprocess.run(
        [sys.executable, "-s", str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _in_ref(passes: list[dict]) -> list[dict[str, float]]:
    """Every case time of every pass in ref.  A pass's ref is measured over
    all the reference slices run between its cases, so that a drift in the
    host's speed from pass to pass is divided out.  (A ref taken only from
    the slices next to a case follows faster drift, but spread more from run
    to run on the same code.)"""
    out = []
    for p in passes:
        unit = p["ref_s"] / p["ref_slices"] * REF_UNIT_SLICES
        out.append({name: seconds / unit for name, seconds in p["cases"].items()})
    return out


def _end_to_end(result: dict, setup_samples: list[float]) -> dict[str, float]:
    passes = _in_ref(result["passes"])
    return {
        "wall_ref": statistics.median(sum(p.values()) for p in passes),
        "slowest_case_ref": max(
            statistics.median(p[name] for p in passes) for name in passes[0]
        ),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_rate": 1.0 - result["failed"] / result["attempted"],
    }


def _per_layer(result: dict) -> dict[str, float]:
    passes = result["passes"]
    from_spans = [p["layers"] for p in passes if p["traced"]]
    out = {name: statistics.median_low(layers[name] for layers in from_spans)
           for name in from_spans[0]}
    traced = statistics.median(p["wall"] for p in passes if p["traced"])
    untraced = statistics.median(p["wall"] for p in passes if not p["traced"])
    out["trace.overhead_s"] = traced - untraced
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=inputs.SCALES, default="full",
                        help="'smoke' runs every case at its smallest size")
    parser.add_argument("--plant-error", action="store_true",
                        help="replace one expected value by a wrong one (gate self-test)")
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "ordertop" / "__init__.py").is_file():
        print(f"error: no ordertop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.scale}-{args.seed}"
    manifest = inputs.build(args.workload, args.scale, args.seed, workdir, args.plant_error)
    common = ["--manifest", str(manifest), "--seconds", str(args.seconds)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(_child([*common, "--setup-only"], deadline)["setup_s"])
        result = _child([*common, "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(result))
    if args.trace:
        metrics, units = _per_layer(result), result["units"]
    else:
        metrics, units = _end_to_end(result, setup + [result["setup_s"]]), END_TO_END
    meta = dict(result["meta"], seed=args.seed, workload=args.workload, scale=args.scale,
                passes=len(result["passes"]), seconds=args.seconds)
    print("meta " + json.dumps(meta, sort_keys=True))
    for p, in_ref in zip(result["passes"], _in_ref(result["passes"])):
        print(f"pass {'traced' if p['traced'] else 'untraced'} wall_s {p['wall']!r}"
              f" wall_ref {sum(in_ref.values())!r}")
    untraced = [p for p in result["passes"] if not p["traced"]]
    for name in untraced[0]["cases"]:
        times = [p["cases"][name] for p in untraced]
        print(f"case {name} median_s {statistics.median(times)!r}")
    print(f"wall_s {statistics.median(p['wall'] for p in untraced)!r}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"error_rate {result['failed'] / result['attempted']!r}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
