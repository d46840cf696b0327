import os
import subprocess
import sys
import tracemalloc
from math import factorial
from pathlib import Path

import pytest

from randgen import projective_plane
from ordertop import cli, complementation, config, diagrams, grassmann, spheres
from ordertop.cli import CommandOutcome, run
from ordertop.complexes import format_cplx, parse_cplx
from ordertop.homology import reduced_homology
from ordertop.posets import (
    MAX_ELEMENTS,
    BoundedPoset,
    boolean_lattice,
    format_poset,
    parse_poset,
    partition_lattice,
)

SRC = Path(cli.__file__).resolve().parents[1]
B3_POSET = format_poset(boolean_lattice(3))
TRIANGLE_CPLX = "a b\nb c\na c\n"


@pytest.fixture
def b3_file(tmp_path):
    path = tmp_path / "b3.poset"
    path.write_text(B3_POSET)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.cplx"
    path.write_text(TRIANGLE_CPLX)
    return str(path)


@pytest.fixture
def cylinder_file(tmp_path):
    path = tmp_path / "cyl.pdiag"
    path.write_text(
        "base:\nelements: 0 1\n0 < 1\n"
        "fiber 0:\nelements: x y\n"
        "fiber 1:\nelements: p\n"
        "map 0 1: p->x\n"
    )
    return str(path)


class TestHomologyCommand:
    def test_matches_library(self, triangle_file):
        outcome = run(["homology", triangle_file])
        assert outcome.exit_code == 0
        profile = reduced_homology(parse_cplx(TRIANGLE_CPLX))
        expected = [
            f"betti {k} {profile.betti_number(k)}" for k in range(-1, profile.dim + 1)
        ]
        assert list(outcome.stdout_lines) == expected

    def test_z2(self, triangle_file):
        outcome = run(["homology", triangle_file, "--coeff", "z2"])
        assert "betti 1 1" in outcome.stdout_lines

    def test_torsion_record(self, tmp_path):
        path = tmp_path / "rp2.cplx"
        path.write_text(format_cplx(projective_plane()))
        outcome = run(["homology", str(path)])
        assert outcome.exit_code == 0
        assert outcome.stdout_lines == (
            "betti -1 0", "betti 0 0", "betti 1 0", "betti 2 0", "torsion 1 2"
        )

    def test_missing_file_is_usage_error(self):
        outcome = run(["homology", "missing.cplx"])
        assert outcome.exit_code == 2
        assert any("missing.cplx" in line for line in outcome.stderr_lines)

    def test_face_table_over_the_limit_exits_2(self, tmp_path):
        path = tmp_path / "simplex20.cplx"
        path.write_text(" ".join(f"v{i}" for i in range(20)) + "\n")
        outcome = run(["homology", str(path)])
        assert outcome.exit_code == 2 and not outcome.stdout_lines
        assert outcome.stderr_lines == (
            "error: the 11-faces need a table of 12093120 vertex ids, above the limit 8000000",
        )

    def test_face_table_over_the_limit_is_refused_before_any_stack(self, tmp_path):
        path = tmp_path / "simplex20.cplx"
        path.write_text(" ".join(f"v{i}" for i in range(20)) + "\n")
        outcome, peak = traced_run(["homology", str(path)])
        assert outcome.exit_code == 2
        assert peak < 5_000_000


def traced_run(argv) -> tuple[CommandOutcome, int]:
    """The outcome of one invocation and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        outcome = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return outcome, peak


class TestPosetCommands:
    def test_mobius(self, b3_file):
        outcome = run(["mobius", b3_file])
        assert outcome.stdout_lines == ("mobius -1",)
        assert outcome.exit_code == 0

    def test_mobius_unbounded_is_input_error(self, tmp_path):
        path = tmp_path / "anti.poset"
        path.write_text("elements: a b\n")
        assert run(["mobius", str(path)]).exit_code == 2

    def test_ordercomplex_roundtrip(self, b3_file):
        outcome = run(["ordercomplex", b3_file])
        expected = format_cplx(parse_poset(B3_POSET).order_complex())
        assert "\n".join(outcome.stdout_lines) + "\n" == expected

    def test_chain_table_over_the_limit_is_refused_before_any_chain(self, tmp_path):
        # six layers of 20 with every cover between adjacent layers: 20^6
        # maximal chains of 6 elements each
        layers = [[f"l{k}e{i}" for i in range(20)] for k in range(6)]
        lines = ["elements: " + " ".join(e for layer in layers for e in layer)]
        lines += [f"{a} < {b}" for lo, hi in zip(layers, layers[1:]) for a in lo for b in hi]
        path = tmp_path / "layered.poset"
        path.write_text("\n".join(lines) + "\n")
        outcome, peak = traced_run(["ordercomplex", str(path)])
        assert outcome.exit_code == 2 and not outcome.stdout_lines
        assert outcome.stderr_lines == (
            "error: the maximal chains need a table of 384000000 element ids, "
            "above the limit 8000000",
        )
        assert peak < 5_000_000

    def test_poset_over_the_element_limit_exits_2_before_any_mask(self, tmp_path):
        # An 80,000-element chain: its order masks alone would take 1.6 GB.
        # The element count is checked at the elements line, before any
        # relation is read.
        labels = [str(i) for i in range(1, 80_001)]
        lines = ["elements: " + " ".join(labels)]
        lines += [f"{a} < {b}" for a, b in zip(labels, labels[1:])]
        path = tmp_path / "chain80000.poset"
        path.write_text("\n".join(lines) + "\n")
        outcome, peak = traced_run(["mobius", str(path)])
        assert outcome.exit_code == 2 and not outcome.stdout_lines
        assert outcome.stderr_lines == (
            f"error: a poset of 80000 elements is above the limit {MAX_ELEMENTS}",
        )
        assert peak < 20_000_000

    @pytest.mark.parametrize("sep", [", ", " ,", " , "])
    def test_mobius_reads_commas_spaced_or_not(self, tmp_path, sep):
        path = tmp_path / "diamond.poset"
        path.write_text(f"elements: 0 a b 1\n0 < a{sep}0 < b{sep}a < 1{sep}b < 1\n")
        outcome = run(["mobius", str(path)])
        assert (outcome.exit_code, outcome.stdout_lines) == (0, ("mobius 1",))

    def test_malformed_poset(self, tmp_path):
        path = tmp_path / "bad.poset"
        path.write_text("elements: a; a < a")
        assert run(["mobius", str(path)]).exit_code == 2


class TestComplementationCommand:
    def test_verify_record(self, b3_file):
        outcome = run(["complementation", "verify", b3_file, "--z", "{1}"])
        assert outcome.exit_code == 0
        report = complementation.verify(
            BoundedPoset.from_poset(boolean_lattice(3)), "{1}"
        )
        assert outcome.stdout_lines == (
            "z {1}",
            "complement {2,3}",
            f"antichain {'true' if report.antichain else 'false'}",
            "removed_acyclic true",
            "wedge_match true",
            "verdict pass",
        )

    def test_verify_record_non_antichain(self, tmp_path):
        path = tmp_path / "pi4.poset"
        path.write_text(format_poset(partition_lattice(4)))
        outcome = run(["complementation", "verify", str(path), "--z", "(12)(34)"])
        assert outcome.exit_code == 0
        assert outcome.stdout_lines == (
            "z (12)(34)",
            "complement (1)(23)(4)",
            "complement (1)(24)(3)",
            "complement (13)(2)(4)",
            "complement (13)(24)",
            "complement (14)(2)(3)",
            "complement (14)(23)",
            "antichain false",
            "removed_acyclic true",
            "verdict pass",
        )

    def test_bad_z(self, b3_file):
        assert run(["complementation", "verify", b3_file, "--z", "nope"]).exit_code == 2


class TestCalcCommand:
    def test_partition(self):
        outcome = run(["calc", "partition", "--n", "4"])
        assert outcome.stdout_lines == ("wedge 6 x S^1",)
        assert outcome.exit_code == 0

    def test_matches_library(self):
        outcome = run(["calc", "oriented", "--n", "4"])
        result = spheres.oriented_grassmannian_type(4)
        assert outcome.stdout_lines == tuple(
            f"wedge {c} x S^{d}" for d, c in result.dims.items()
        )

    def test_grassmannian_flags(self):
        assert run(["calc", "grassmannian", "--n", "3", "--d", "2"]).stdout_lines == (
            "wedge 1 x S^7",
        )

    def test_exp_circle(self):
        assert run(["calc", "exp-circle", "--n", "2"]).stdout_lines == ("wedge 1 x S^3",)

    def test_bad_params(self):
        assert run(["calc", "grassmannian", "--n", "1"]).exit_code == 2


class TestInputBounds:
    """Each limit accepts its largest input and rejects the next with exit 2
    before doing any work."""

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (["calc", "partition", "--n"], spheres.PARTITION_MAX_N),
            (["calc", "oriented", "--n"], spheres.ORIENTED_MAX_N),
            (["config", "fuchs", "--n"], config.MAX_N),
            (["config", "exp2-betti", "--n"], config.MAX_N),
            (["config", "neighborly", "--n"], config.MAX_N),
            (["calc", "grassmannian", "--n"], spheres.ORIENTED_MAX_N),
            (["calc", "exp-circle", "--n"], spheres.ORIENTED_MAX_N),
        ],
    )
    def test_n_limit(self, argv, limit):
        assert run(argv + [str(limit)]).exit_code == 0
        over = run(argv + [str(limit + 1)])
        assert over.exit_code == 2
        assert over.stdout_lines == ()
        assert over.stderr_lines == (f"error: need n <= {limit}, got {limit + 1}",)

    @pytest.mark.parametrize("command", ["fuchs", "exp2-betti", "neighborly"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_config_tables_need_a_point(self, command, n):
        outcome = run(["config", command, "--n", str(n)])
        assert outcome.exit_code == 2
        assert outcome.stdout_lines == ()
        assert outcome.stderr_lines == ("error: need n >= 1",)

    def test_partition_at_limit(self):
        n = spheres.PARTITION_MAX_N
        assert run(["calc", "partition", "--n", str(n)]).stdout_lines == (
            f"wedge {factorial(n - 1)} x S^{n - 3}",
        )

    def test_circle_face_limit(self, monkeypatch):
        argv = ["config", "circle", "--n", "4", "--m", "18"]
        assert config.circle_face_count(4, 18) == 25536
        assert run(argv).exit_code == 0
        monkeypatch.setattr(config, "MAX_CIRCLE_FACES", 25535)
        outcome = run(argv)
        assert outcome.exit_code == 2
        assert outcome.stderr_lines == (
            "error: the sphere has 25536 faces, above the limit 25535",
        )

    @pytest.mark.parametrize("n,m", [(1, 100_001), (4, 28), (6, 40), (8, 18), (11, 26)])
    def test_circle_over_limit(self, n, m):
        outcome = run(["config", "circle", "--n", str(n), "--m", str(m)])
        assert outcome.exit_code == 2
        assert "above the limit" in outcome.stderr_lines[0]

    @pytest.mark.parametrize("n", [10, 10**9])
    def test_circle_large_n_refused_before_counting(self, monkeypatch, n):
        monkeypatch.setattr(config, "circle_face_count", None)
        outcome = run(["config", "circle", "--n", str(n), "--m", str(3 * n)])
        assert outcome.exit_code == 2
        assert outcome.stderr_lines == (
            f"error: the sphere has at least 4^{n} - 1 faces, above the limit 200000",
        )

    @pytest.mark.parametrize(
        "option,limit,past",
        [
            ("--n", grassmann.MAX_N, grassmann.MAX_N + 1),
            ("--n", 2, 1),
            ("--samples", 1, 0),
            ("--seed", 0, -1),
        ],
    )
    def test_grassmann_limits(self, option, limit, past):
        argv = {"--n": "3", "--samples": "1", "--seed": "0"}
        argv[option] = str(limit)
        flat = ["grassmann", "check"] + [x for pair in argv.items() for x in pair]
        assert run(flat).exit_code == 0
        flat[flat.index(option) + 1] = str(past)
        outcome = run(flat)
        assert outcome.exit_code == 2
        assert outcome.stdout_lines == ()
        assert outcome.stderr_lines[0].startswith("error: need ")

    def test_grassmann_work_limit(self, monkeypatch):
        argv = ["grassmann", "check", "--n", "3", "--seed", "0", "--samples"]
        monkeypatch.setattr(grassmann, "MAX_SAMPLE_ENTRIES", 5 * 3**2)
        assert run(argv + ["5"]).exit_code == 0
        over = run(argv + ["6"])
        assert over.exit_code == 2
        assert over.stdout_lines == ()
        assert over.stderr_lines == ("error: need samples * n^2 <= 45, got 6 * 3^2 = 54",)

    def test_grassmann_work_limit_value(self):
        # the benchmark's battery (n = 8, 2000 samples) stays far inside the limit
        assert 100 * 2000 * 8**2 < grassmann.MAX_SAMPLE_ENTRIES
        at_limit = grassmann.MAX_SAMPLE_ENTRIES // 100**2
        for samples in (at_limit + 1, 1_000_000):
            outcome = run(["grassmann", "check", "--n", "100", "--samples", str(samples)])
            assert outcome.exit_code == 2
            assert outcome.stderr_lines[0].startswith("error: need samples * n^2 <= ")

    def test_grassmann_limit_messages(self):
        argv = ["grassmann", "check", "--n", "3"]
        assert run(argv + ["--samples", "-3"]).stderr_lines == (
            "error: need samples >= 1, got -3",
        )
        assert run(argv + ["--seed", "-1"]).stderr_lines == ("error: need seed >= 0, got -1",)
        assert run(["grassmann", "check", "--n", "101"]).stderr_lines == (
            "error: need n <= 100, got 101",
        )


class TestConfigCommand:
    def test_exp2_betti(self):
        outcome = run(["config", "exp2-betti", "--n", "2"])
        assert outcome.stdout_lines == ("betti 5 1", "betti 4 1", "verdict not-sphere")
        assert outcome.exit_code == 0

    def test_exp2_betti_sphere_case(self):
        outcome = run(["config", "exp2-betti", "--n", "1"])
        assert outcome.stdout_lines == ("betti 2 1", "verdict sphere")

    def test_fuchs(self):
        outcome = run(["config", "fuchs", "--n", "3"])
        assert outcome.stdout_lines == ("dim 0 1", "dim 1 1", "dim 2 0")
        table = config.fuchs_table(3)
        assert all(
            line == f"dim {k} {table.dim(k)}"
            for k, line in enumerate(outcome.stdout_lines)
        )

    def test_circle(self):
        outcome = run(["config", "circle", "--n", "1", "--m", "5"])
        assert outcome.stdout_lines == (
            "betti 1 1",
            "pseudomanifold true",
            "verdict pass",
        )

    def test_neighborly(self):
        assert run(["config", "neighborly", "--n", "2"]).stdout_lines == ("bound 6",)


class TestGrassmannCommand:
    def test_record_matches_library(self):
        outcome = run(["grassmann", "check", "--n", "3", "--samples", "15", "--seed", "7"])
        report = grassmann.check_battery(3, 15, 7)
        assert outcome.exit_code == 0
        assert outcome.stdout_lines == (
            "samples 15",
            "failures 0",
            f"max_weight_dev {report.max_weight_dev:.3e}",
            f"max_angle_dev {report.max_angle_dev:.3e}",
            f"max_slice_dev {report.max_slice_dev:.3e}",
            f"reduced_support {report.reduced_support_count}",
            "verdict pass",
        )

    def test_deterministic(self):
        args = ["grassmann", "check", "--n", "4", "--samples", "10", "--seed", "3"]
        assert run(args) == run(args)

    def test_failures_give_exit_1(self, monkeypatch):
        monkeypatch.setattr(grassmann, "CHECK_TOL", 0.0)
        outcome = run(["grassmann", "check", "--n", "4", "--samples", "12", "--seed", "3"])
        assert outcome.exit_code == 1
        assert outcome.stdout_lines[:2] == ("samples 12", "failures 12")
        assert outcome.stdout_lines[-1] == "verdict fail"
        assert outcome.stderr_lines == ("FAILED",)


class TestDiagramCommand:
    def test_check(self, cylinder_file):
        outcome = run(["diagram", "check", cylinder_file])
        assert outcome.stdout_lines == (
            "valid true",
            "cylinder_match true",
            "verdict pass",
        )
        assert outcome.exit_code == 0

    def test_invalid_diagram_fails(self, tmp_path):
        path = tmp_path / "bad.pdiag"
        path.write_text(
            "base:\nelements: 0 1\n0 < 1\n"
            "fiber 0:\nelements: x y\nx < y\n"
            "fiber 1:\nelements: p q\np < q\n"
            "map 0 1: p->y, q->x\n"  # not monotone
        )
        outcome = run(["diagram", "check", str(path)])
        assert outcome.exit_code == 1
        assert outcome.stdout_lines[0] == "valid false"

    @pytest.mark.parametrize(
        "text, stdout, code",
        [
            (
                "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: x y\n"
                "fiber 1:\nelements: p\nmap 0 1: p->x\n",
                ("valid true", "cylinder_match true", "verdict pass"),
                0,
            ),
            (
                "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: x y\nx < y\n"
                "fiber 1:\nelements: p q\np < q\nmap 0 1: p->y, q->x\n",
                ("valid false", "verdict fail"),
                1,
            ),
            ("base:\nelements: 0\nfiber 0:\nelements: x\n", ("valid true", "verdict pass"), 0),
        ],
        ids=["cylinder", "invalid-cylinder", "one-point-base"],
    )
    def test_check_validates_once(self, tmp_path, monkeypatch, text, stdout, code):
        calls = []
        check = diagrams._check
        monkeypatch.setattr(diagrams, "_check", lambda D: calls.append(D) or check(D))
        path = tmp_path / "d.pdiag"
        path.write_text(text)
        outcome = run(["diagram", "check", str(path)])
        assert len(calls) == 1
        assert (outcome.stdout_lines, outcome.exit_code) == (stdout, code)

    def test_grothendieck_label_collision_exits_2(self, tmp_path):
        path = tmp_path / "collide.pdiag"
        path.write_text(
            "base:\nelements: b@c c\nfiber b@c:\nelements: a\nfiber c:\nelements: a@b\n"
        )
        outcome = run(["diagram", "grothendieck", str(path)])
        assert outcome.exit_code == 2 and not outcome.stdout_lines
        assert outcome.stderr_lines == (
            "error: pairs ('a', 'b@c') and ('a@b', 'c') both get the label 'a@b@c'",
        )

    @pytest.mark.parametrize("subcommand", ["check", "grothendieck"])
    def test_fiber_over_no_base_element_exits_2(self, tmp_path, subcommand):
        path = tmp_path / "extra.pdiag"
        path.write_text(
            "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\nfiber 1:\nelements: x\n"
            "fiber 2:\nelements: w\nmap 0 1: x->y\n"
        )
        outcome = run(["diagram", subcommand, str(path)])
        assert (outcome.exit_code, outcome.stdout_lines) == (2, ())
        assert outcome.stderr_lines == ("error: fiber for '2', which is not a base element",)

    @pytest.mark.parametrize(
        "fiber, message",
        [
            ("", "error: fiber '1': missing 'elements:' line"),
            ("elements: x\n0 < 1\n", "error: fiber '1': unknown element: '0'"),
        ],
        ids=["no-elements-line", "base-elements"],
    )
    def test_fiber_poset_error_names_the_fiber(self, tmp_path, fiber, message):
        path = tmp_path / "fiber.pdiag"
        path.write_text(
            "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\nfiber 1:\n"
            + fiber
            + "map 0 1: x->y\n"
        )
        outcome = run(["diagram", "check", str(path)])
        assert (outcome.exit_code, outcome.stdout_lines) == (2, ())
        assert outcome.stderr_lines == (message,)

    def test_map_lines_take_arrow_labels(self, tmp_path):
        path = tmp_path / "arrow.pdiag"
        path.write_text(
            "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\n"
            "fiber 1:\nelements: a->b\nmap 0 1: a->b->y\n"
        )
        outcome = run(["diagram", "check", str(path)])
        assert (outcome.stdout_lines, outcome.exit_code) == (
            ("valid true", "cylinder_match true", "verdict pass"),
            0,
        )

    def test_map_lines_take_comma_labels(self, tmp_path):
        path = tmp_path / "product.pdiag"
        path.write_text(
            "base:\nelements: lo hi\nlo < hi\n"
            "fiber lo:\nelements: (a,b) (a,c)\n(a,b) < (a,c)\n"
            "fiber hi:\nelements: (c,d) (c,e)\n(c,d) < (c,e)\n"
            "map lo hi: (c,d)->(a,b), (c,e)->(a,c)\n"
        )
        outcome = run(["diagram", "check", str(path)])
        assert (outcome.stdout_lines, outcome.exit_code) == (
            ("valid true", "cylinder_match true", "verdict pass"),
            0,
        )
        emitted = parse_poset("\n".join(run(["diagram", "grothendieck", str(path)]).stdout_lines))
        assert emitted.covers == {
            ("(a,b)@lo", "(a,c)@lo"),
            ("(a,b)@lo", "(c,d)@hi"),
            ("(a,c)@lo", "(c,e)@hi"),
            ("(c,d)@hi", "(c,e)@hi"),
        }

    @pytest.mark.parametrize(
        "fiber",
        [
            "elements: map x\nmap < x\nmap 0 1: map->y, x->y\n",
            "elements: fiber x:\nfiber < x:\nmap 0 1: fiber->y, x:->y\n",
        ],
        ids=["map", "fiber"],
    )
    def test_relation_naming_a_keyword_is_no_header(self, tmp_path, fiber):
        path = tmp_path / "keyword.pdiag"
        path.write_text("base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\nfiber 1:\n" + fiber)
        outcome = run(["diagram", "check", str(path)])
        assert (outcome.stdout_lines, outcome.exit_code) == (
            ("valid true", "cylinder_match true", "verdict pass"),
            0,
        )

    def test_grothendieck_emits_poset(self, cylinder_file):
        outcome = run(["diagram", "grothendieck", cylinder_file])
        emitted = parse_poset("\n".join(outcome.stdout_lines))
        assert emitted.lt("x@0", "p@1")


CYLINDER_HEAD = "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: x\nfiber 1:\nelements: p\n"
NON_LATTICE = (
    "elements: bot a b c d top\n"
    "bot < a, bot < b, a < c, a < d, b < c, b < d, c < top, d < top\n"
)
MOBIUS = ("mobius", "FILE")
CHECK = ("diagram", "check", "FILE")
GROTHENDIECK = ("diagram", "grothendieck", "FILE")


class TestFileRefusals:
    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (MOBIUS, "elements: a b\nelements: c\n", "multiple 'elements:' declarations"),
            (MOBIUS, "a < b\nelements: a b\n", "the 'elements:' line must come before relations"),
            (MOBIUS, "elements: a b\na b\n", "malformed relation statement: 'a b'"),
            (MOBIUS, "elements: a b\n< b\n", "malformed relation statement: '< b'"),
            (MOBIUS, "elements: a b\na <\n", "malformed relation statement: 'a <'"),
            (MOBIUS, "elements: a b c\na < b c\n", "malformed relation statement: 'a < b c'"),
            (MOBIUS, "elements: a b\na < ,\n", "unknown element: ''"),
            (MOBIUS, "# no elements\n", "missing 'elements:' line"),
            (
                CHECK,
                "base:\nelements: 0\nfiber 0:\nelements: x\nfiber 0:\nelements: y\n",
                "duplicate fiber block for '0'",
            ),
            (
                CHECK,
                CYLINDER_HEAD + "map 0 1: p->x\nmap 0 1: p->x\n",
                "duplicate map block for ('0', '1')",
            ),
            (CHECK, CYLINDER_HEAD + "map 0: p->x\n", "malformed map header: 'map 0: p->x'"),
            (
                CHECK,
                "base:\nelements: 0\nfiber 0:\nelements: x x\n",
                "fiber '0': duplicate element label: 'x'",
            ),
            (
                CHECK,
                CYLINDER_HEAD + "map 0 1: p->x\nmap 1 0: x->p\n",
                "map pair ('1', '0') is not a base relation",
            ),
            (
                GROTHENDIECK,
                CYLINDER_HEAD + "map 0 1: p->z\n",
                "invalid diagram: map 0<1: image 'z' not in fiber '0'",
            ),
            (
                GROTHENDIECK,
                CYLINDER_HEAD + "map 0 1: p->x, r->x\n",
                "invalid diagram: map 0<1: domain element 'r' not in fiber '1'",
            ),
            (
                ("complementation", "verify", "FILE", "--z", "c"),
                NON_LATTICE,
                "meet of 'd' and 'c' does not exist",
            ),
        ],
    )
    def test_exits_2_with_the_message(self, tmp_path, argv, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        outcome = run([str(path) if word == "FILE" else word for word in argv])
        assert (outcome.exit_code, outcome.stdout_lines) == (2, ())
        assert outcome.stderr_lines == (f"error: {message}",)

    def test_circle_needs_n_at_least_1(self):
        outcome = run(["config", "circle", "--n", "0", "--m", "5"])
        assert (outcome.exit_code, outcome.stderr_lines) == (2, ("error: need n >= 1",))


class TestUsage:
    def test_unknown_subcommand(self):
        outcome = run(["nonsense"])
        assert outcome.exit_code == 2

    def test_no_args(self):
        assert run([]).exit_code == 2

    def test_quiet_silences_summary(self):
        loud = run(["calc", "partition", "--n", "4"])
        quiet = run(["--quiet", "calc", "partition", "--n", "4"])
        assert loud.stderr_lines == ("ok",)
        assert quiet.stderr_lines == ()
        assert loud.stdout_lines == quiet.stdout_lines

    def test_quiet_does_not_carry_over(self):
        run(["--quiet", "calc", "partition", "--n", "4"])
        assert run(["calc", "partition", "--n", "4"]).stderr_lines == ("ok",)

    @pytest.mark.parametrize(
        "bad",
        [
            ["calc", "grassmannian", "--n", "3", "--d", "x"],
            ["calc", "grassmannian", "--d", "2"],
            ["--quiet", "calc", "nope"],
            ["calc", "grassmannian", "--n", "3", "--d", "2", "--bogus"],
        ],
    )
    def test_usage_error_leaves_no_state(self, bad):
        argv = ["calc", "grassmannian", "--n", "3"]
        lone = subprocess.run(
            [sys.executable, "-m", "ordertop", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=True,
        )
        assert run(bad).exit_code == 2
        after = run(argv)
        assert after.exit_code == 0
        assert after.stderr_lines == ("ok",)
        assert "\n".join(after.stdout_lines) + "\n" == lone.stdout

    @pytest.mark.parametrize("argv", [["--help"], ["grassmann", "check", "-h"]])
    def test_help_is_in_the_record(self, argv, capsys, monkeypatch):
        # argparse wraps help to $COLUMNS, so fix it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        outcome = run(argv)
        assert capsys.readouterr() == ("", "")
        assert outcome.exit_code == 0
        assert outcome.stderr_lines == ()
        assert outcome.stdout_lines[0].startswith(f"usage: ordertop {' '.join(argv[:-1])}")
        lone = subprocess.run(
            [sys.executable, "-m", "ordertop", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"},
            check=True,
        )
        assert "\n".join(outcome.stdout_lines) + "\n" == lone.stdout
        assert lone.stderr == ""
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (lone.stdout, "")

    def test_parser_is_built_once(self):
        run(["calc", "partition", "--n", "4"])
        built = cli._build_parser()
        run(["nonsense"])
        assert cli._build_parser() is built

    def test_outcome_is_a_record(self):
        outcome = run(["calc", "partition", "--n", "3"])
        assert isinstance(outcome, CommandOutcome)
