"""Command-line surface.

Machine-readable ``<key> <arg>... <value>`` records go to stdout; human
summaries and diagnostics go to stderr.  Exit code 0 means every verdict in
the invoked report passed, 1 means some verdict failed, 2 means the
invocation itself was unusable (bad flags, missing file, malformed input).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from . import complementation, config, diagrams, grassmann, spheres
from .complexes import ComplexError, format_cplx, parse_cplx
from .homology import HomologyError, HomologyProfile, reduced_homology
from .posets import BoundedPoset, PosetError, format_poset, parse_poset


@dataclass(frozen=True)
class CommandOutcome:
    """Result record of one invocation."""

    exit_code: int
    stdout_lines: tuple[str, ...]
    stderr_lines: tuple[str, ...]


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures into exit code 2
        raise _UsageError(message)

    def print_help(self, file=None):  # route -h into the record, exit code 0
        raise _HelpRequested(self.format_help())


@functools.cache  # built on the first run, then shared: parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="ordertop", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="suppress stderr summaries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="reduced homology of a .cplx file")
    p.add_argument("file")
    p.add_argument("--coeff", default="z", choices=["z", "z2"])

    p = sub.add_parser("mobius", help="Mobius number of a bounded .poset file")
    p.add_argument("file")

    p = sub.add_parser("ordercomplex", help="order complex of a .poset file as .cplx")
    p.add_argument("file")

    p = sub.add_parser("complementation", help="complementation checks")
    psub = p.add_subparsers(dest="subcommand", required=True)
    v = psub.add_parser("verify", help="verify complement removal and wedge match")
    v.add_argument("file")
    v.add_argument("--z", required=True, metavar="LABEL")
    v.add_argument("--coeff", default="z", choices=["z", "z2"])

    p = sub.add_parser("calc", help="wedge-of-spheres closed forms")
    csub = p.add_subparsers(dest="subcommand", required=True)
    c = csub.add_parser("grassmannian")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, default=1)
    c = csub.add_parser("oriented")
    c.add_argument("--n", type=int, required=True)
    c = csub.add_parser("partition")
    c.add_argument("--n", type=int, required=True)
    c = csub.add_parser("exp-circle")
    c.add_argument("--n", type=int, required=True)

    p = sub.add_parser("config", help="configuration-poset computations")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    f = fsub.add_parser("fuchs")
    f.add_argument("--n", type=int, required=True)
    f = fsub.add_parser("exp2-betti")
    f.add_argument("--n", type=int, required=True)
    f = fsub.add_parser("circle")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--m", type=int, required=True)
    f = fsub.add_parser("neighborly")
    f.add_argument("--n", type=int, required=True)

    p = sub.add_parser("grassmann", help="numeric flag-map property battery")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    g = gsub.add_parser("check")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--samples", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("diagram", help="diagrams of posets")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    d = dsub.add_parser("grothendieck")
    d.add_argument("file")
    d = dsub.add_parser("check")
    d.add_argument("file")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _profile_lines(profile: HomologyProfile, nonzero_only: bool = False) -> list[str]:
    lines = []
    for k in range(-1, profile.dim + 1):
        rank = profile.betti_number(k)
        if rank or not nonzero_only:
            lines.append(f"betti {k} {rank}")
    for k in sorted(profile.torsion):
        factors = " ".join(str(f) for f in profile.torsion_factors(k))
        lines.append(f"torsion {k} {factors}")
    return lines


def _wedge_lines(x: spheres.SphereWedge) -> list[str]:
    # every calc family gives a wedge of spheres of dimension >= 0
    return [f"wedge {c} x S^{d}" for d, c in x.dims.items()]


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_homology(args) -> tuple[list[str], bool]:
    profile = reduced_homology(parse_cplx(_read(args.file)), args.coeff)
    return _profile_lines(profile), True


def _cmd_mobius(args) -> tuple[list[str], bool]:
    P = BoundedPoset.from_poset(parse_poset(_read(args.file)))
    return [f"mobius {P.mobius()}"], True


def _cmd_ordercomplex(args) -> tuple[list[str], bool]:
    K = parse_poset(_read(args.file)).order_complex()
    return format_cplx(K).splitlines(), True


def _cmd_complementation(args) -> tuple[list[str], bool]:
    L = BoundedPoset.from_poset(parse_poset(_read(args.file)))
    report = complementation.verify(L, args.z, args.coeff)
    lines = [f"z {report.z}"]
    lines += [f"complement {c}" for c in sorted(report.complements)]
    lines.append(f"antichain {_bool(report.antichain)}")
    lines.append(f"removed_acyclic {_bool(report.removed_acyclic)}")
    if report.wedge_match is not None:
        lines.append(f"wedge_match {_bool(report.wedge_match)}")
    lines.append(f"verdict {'pass' if report.passed else 'fail'}")
    return lines, report.passed


def _cmd_calc(args) -> tuple[list[str], bool]:
    if args.subcommand == "grassmannian":
        result = spheres.grassmannian_type(args.n, args.d)
    elif args.subcommand == "oriented":
        result = spheres.oriented_grassmannian_type(args.n)
    elif args.subcommand == "partition":
        result = spheres.partition_type(args.n)
    else:
        result = spheres.exp_circle_type(args.n)
    return _wedge_lines(result), True


def _cmd_config(args) -> tuple[list[str], bool]:
    if args.subcommand == "fuchs":
        table = config.fuchs_table(args.n)
        return [f"dim {k} {table.dim(k)}" for k in range(args.n)], True
    if args.subcommand == "exp2-betti":
        predicted = config.predicted_betti_exp2(args.n)
        lines = [
            f"betti {p} {r}" for p, r in sorted(predicted.betti.items(), reverse=True)
        ]
        lines.append(f"verdict {'sphere' if predicted.sphere_like else 'not-sphere'}")
        return lines, True
    if args.subcommand == "circle":
        report = config.circle_model_check(args.n, args.m)
        lines = _profile_lines(report.profile, nonzero_only=True)
        lines.append(f"pseudomanifold {_bool(report.pseudomanifold)}")
        lines.append(f"verdict {'pass' if report.passed else 'fail'}")
        return lines, report.passed
    bound = config.neighborly_bound(args.n)
    return [f"bound {bound}"], True


def _cmd_grassmann(args) -> tuple[list[str], bool]:
    report = grassmann.check_battery(args.n, args.samples, args.seed)
    lines = [
        f"samples {report.samples}",
        f"failures {report.failures}",
        f"max_weight_dev {report.max_weight_dev:.3e}",
        f"max_angle_dev {report.max_angle_dev:.3e}",
        f"max_slice_dev {report.max_slice_dev:.3e}",
        f"reduced_support {report.reduced_support_count}",
        f"verdict {'pass' if report.passed else 'fail'}",
    ]
    return lines, report.passed


def _cmd_diagram(args) -> tuple[list[str], bool]:
    D = diagrams.parse_pdiag(_read(args.file))
    if args.subcommand == "grothendieck":
        return format_poset(diagrams.grothendieck(D)).splitlines(), True
    if len(D.base) == 2 and len(D.base.covers) == 1:
        # The cylinder check validates the diagram itself; on this base its
        # only DiagramError is a failed validation.
        try:
            cyl = diagrams.cylinder_check(D)
        except diagrams.DiagramError:
            return ["valid false", "verdict fail"], False
        lines = ["valid true", f"cylinder_match {_bool(cyl.passed)}"]
        passed = cyl.passed
    else:
        passed = diagrams.validate(D).passed
        lines = [f"valid {_bool(passed)}"]
    lines.append(f"verdict {'pass' if passed else 'fail'}")
    return lines, passed


_HANDLERS = {
    "homology": _cmd_homology,
    "mobius": _cmd_mobius,
    "ordercomplex": _cmd_ordercomplex,
    "complementation": _cmd_complementation,
    "calc": _cmd_calc,
    "config": _cmd_config,
    "grassmann": _cmd_grassmann,
    "diagram": _cmd_diagram,
}


def run(argv) -> CommandOutcome:
    """Parse and dispatch one invocation, capturing all output in the record."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        lines, passed = _HANDLERS[args.command](args)
    except _HelpRequested as exc:
        return CommandOutcome(0, tuple(str(exc).splitlines()), ())
    except _UsageError as exc:
        return CommandOutcome(2, (), (f"usage error: {exc}",))
    except (
        PosetError,
        ComplexError,
        HomologyError,
        config.ConfigError,
        diagrams.DiagramError,
        grassmann.GrassmannError,
        spheres.SphereCalcError,
    ) as exc:
        return CommandOutcome(2, (), (f"error: {exc}",))
    code = 0 if passed else 1
    summary = "ok" if passed else "FAILED"
    quiet = getattr(args, "quiet", False)
    return CommandOutcome(code, tuple(lines), () if quiet else (summary,))


def main(argv=None) -> int:
    outcome = run(sys.argv[1:] if argv is None else argv)
    for line in outcome.stdout_lines:
        print(line)
    for line in outcome.stderr_lines:
        print(line, file=sys.stderr)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
