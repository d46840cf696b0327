"""The ordertop calls behind each case kind.

Every call goes through a public entry point of ``ordertop``, looked up at
call time, so the tracer in ``spans.py`` sees it when it is installed.  A
runner returns a JSON-shaped summary that ``worker.py`` compares with the
case's expected value.
"""

from __future__ import annotations

import ordertop
from ordertop import cli, complementation
from inputs import facets_digest


def _profile(p) -> dict:
    return {
        "betti": {str(k): v for k, v in sorted(p.betti.items())},
        "torsion": {str(k): list(v) for k, v in sorted(p.torsion.items())},
    }


def poset_homology(case, texts, workdir):
    P = ordertop.generate(*case["generator"])
    if case["truncate"]:
        P = ordertop.BoundedPoset.from_poset(P).truncate()
    return _profile(ordertop.reduced_homology(P.order_complex(), case["coeff"]))


def cyclic_homology(case, texts, workdir):
    K = ordertop.cyclic_polytope_boundary(*case["params"])
    return _profile(ordertop.reduced_homology(K, case["coeff"]))


def cplx_homology(case, texts, workdir):
    K = ordertop.parse_cplx(texts[case["file"]])
    if case["transform"] == "subdivide":
        K = ordertop.generate("face_poset", K).order_complex()
    elif case["transform"] == "join_self":
        K = ordertop.join(K, K)
    return _profile(ordertop.reduced_homology(K, case["coeff"]))


def mobius(case, texts, workdir):
    return ordertop.BoundedPoset.from_poset(ordertop.generate(*case["generator"])).mobius()


def verify(case, texts, workdir):
    L = ordertop.BoundedPoset.from_poset(ordertop.parse_poset(texts[case["file"]]))
    report = complementation.verify(L, case["z"], case["coeff"])
    return {
        "complements": sorted(report.complements),
        "antichain": report.antichain,
        "removed_acyclic": report.removed_acyclic,
        "wedge_match": report.wedge_match,
        "passed": report.passed,
    }


def quotient_wedge(case, texts, workdir):
    L = ordertop.BoundedPoset.from_poset(ordertop.parse_poset(texts[case["file"]]))
    report = complementation.quotient_wedge_check(L.truncate(), case["antichain"], case["coeff"])
    return {
        "passed": report.passed,
        "applicable": report.applicable,
        "wedge": _profile(report.wedge_profile),
    }


def run_cli(case, texts, workdir):
    # "{name}" stands for the path of the generated input file called name.
    argv = [
        str(workdir / arg[1:-1]) if arg.startswith("{") and arg.endswith("}") else arg
        for arg in case["argv"]
    ]
    outcome = cli.run(argv)
    lines = list(outcome.stdout_lines)
    if case["check"] == "facets":
        lines = [len(lines), facets_digest(lines)]
    elif case["check"] == "verdicts":
        lines = [line for line in lines if line.split()[0] in ("samples", "failures", "verdict")]
    return {"exit": outcome.exit_code, "stdout": lines}


RUNNERS = {
    "poset_homology": poset_homology,
    "cyclic_homology": cyclic_homology,
    "cplx_homology": cplx_homology,
    "mobius": mobius,
    "verify": verify,
    "quotient_wedge": quotient_wedge,
    "cli": run_cli,
}
