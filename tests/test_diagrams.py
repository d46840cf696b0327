import random
from itertools import product

import pytest

from randgen import random_two_chain_diagram
from ordertop.diagrams import (
    DiagramError,
    PosetDiagram,
    cylinder_check,
    diagram_flatten,
    grothendieck,
    parse_pdiag,
    validate,
)
from ordertop.posets import FinitePoset, PosetError, boolean_lattice, chain_poset

TWO_CHAIN = FinitePoset(["0", "1"], [("0", "1")])


def two_chain_diagram(lower, upper, mapping):
    return PosetDiagram(TWO_CHAIN, {"0": lower, "1": upper}, {("0", "1"): mapping})


class TestValidate:
    def test_constant_diagram(self):
        fiber = chain_poset(3)
        D = two_chain_diagram(fiber, fiber, {x: x for x in fiber})
        assert validate(D).passed

    def test_non_monotone_witnessed(self):
        lower = chain_poset(2)
        upper = chain_poset(2)
        D = two_chain_diagram(lower, upper, {"1": "2", "2": "1"})
        report = validate(D)
        assert not report.passed
        assert any("not monotone" in f for f in report.failures)

    def test_composition_mismatch_witnessed(self):
        base = chain_poset(3)
        fiber = FinitePoset(["a", "b"])
        maps = {
            ("1", "2"): {"a": "a", "b": "b"},
            ("2", "3"): {"a": "a", "b": "b"},
            ("1", "3"): {"a": "b", "b": "a"},  # disagrees with the composite
        }
        D = PosetDiagram(base, {q: fiber for q in base}, maps)
        report = validate(D)
        assert not report.passed
        assert any("mismatch" in f for f in report.failures)

    def test_partial_map_witnessed(self):
        D = two_chain_diagram(chain_poset(1), chain_poset(2), {"1": "1"})
        report = validate(D)
        assert any("no image" in f for f in report.failures)

    def test_missing_cover_map_rejected(self):
        with pytest.raises(DiagramError, match="missing connecting map"):
            PosetDiagram(TWO_CHAIN, {"0": chain_poset(1), "1": chain_poset(1)}, {})


class TestGrothendieck:
    def test_two_chain_singletons(self):
        D = two_chain_diagram(FinitePoset(["a"]), FinitePoset(["b"]), {"b": "a"})
        G = grothendieck(D)
        assert G.covers == {("a@0", "b@1")}

    def test_point_base_recovers_fiber(self):
        fiber = chain_poset(3)
        D = PosetDiagram(FinitePoset(["q"]), {"q": fiber}, {})
        G = grothendieck(D)
        assert sorted(G.covers) == [("1@q", "2@q"), ("2@q", "3@q")]

    def test_partial_cover_example(self):
        D = two_chain_diagram(FinitePoset(["x", "y"]), FinitePoset(["p"]), {"p": "x"})
        G = grothendieck(D)
        assert G.lt("x@0", "p@1")
        assert not G.comparable("y@0", "p@1")

    def test_invalid_diagram_rejected(self):
        D = two_chain_diagram(chain_poset(2), chain_poset(2), {"1": "2", "2": "1"})
        with pytest.raises(DiagramError, match="invalid"):
            grothendieck(D)

    @pytest.mark.parametrize("seed", range(8))
    def test_level_restriction_recovers_fiber(self, seed):
        D = random_two_chain_diagram(random.Random(seed))
        G = grothendieck(D)
        for q in D.base:
            fiber = D.fibers[q]
            level = G.subposet([f"{x}@{q}" for x in fiber])
            expected = FinitePoset(
                [f"{x}@{q}" for x in fiber],
                [(f"{a}@{q}", f"{b}@{q}") for a in fiber for b in fiber.upset(a)],
            )
            assert level == expected


@pytest.mark.parametrize("flatten", [grothendieck, diagram_flatten])
def test_pair_labels_that_collide_are_refused(flatten):
    base = FinitePoset(["b@c", "c"])
    D = PosetDiagram(base, {"b@c": FinitePoset(["a"]), "c": FinitePoset(["a@b"])}, {})
    match = r"pairs \('a', 'b@c'\) and \('a@b', 'c'\) both get the label 'a@b@c'"
    with pytest.raises(PosetError, match=match):
        flatten(D)

    @pytest.mark.parametrize("seed", range(8))
    def test_order_is_the_definition(self, seed):
        # (x, q) <= (y, q') exactly when q <= q' and x <= f(y) over q
        D = random_two_chain_diagram(random.Random(300 + seed))
        G = grothendieck(D)
        f = D.maps["lo", "hi"]
        pairs = [(x, q) for q in D.base for x in D.fibers[q]]
        for (x, q), (y, q2) in product(pairs, repeat=2):
            image = y if q == q2 else f[y] if (q, q2) == ("lo", "hi") else None
            expected = image is not None and D.fibers[q].leq(x, image)
            assert G.leq(f"{x}@{q}", f"{y}@{q2}") == expected


class TestFlatten:
    def test_point_base_is_antichain(self):
        D = PosetDiagram(FinitePoset(["q"]), {"q": chain_poset(3)}, {})
        F = diagram_flatten(D)
        assert not F.covers

    def test_two_chain(self):
        D = two_chain_diagram(FinitePoset(["a"]), FinitePoset(["b"]), {"b": "a"})
        assert diagram_flatten(D).covers == {("a@0", "b@1")}

    def test_shared_image(self):
        D = two_chain_diagram(
            FinitePoset(["a", "a'"]), FinitePoset(["b", "b'"]), {"b": "a", "b'": "a"}
        )
        F = diagram_flatten(D)
        assert F.lt("a@0", "b@1") and F.lt("a@0", "b'@1")
        assert not any(F.comparable("a'@0", x) for x in ("b@1", "b'@1", "a@0"))

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_grothendieck_on_antichain_fibers(self, seed):
        rng = random.Random(200 + seed)
        lower = FinitePoset([f"l{i}" for i in range(rng.randint(1, 4))])
        upper = FinitePoset([f"u{i}" for i in range(rng.randint(1, 4))])
        mapping = {u: rng.choice(lower.elements) for u in upper.elements}
        D = two_chain_diagram(lower, upper, mapping)
        assert diagram_flatten(D) == grothendieck(D)


def chain_base_diagram(long_map):
    """Over the 3-chain 1 < 2 < 3; the composite 1 < 3 sends e to b and f to a."""
    fibers = {
        "1": FinitePoset(["a", "b"], [("a", "b")]),
        "2": FinitePoset(["c", "d"]),
        "3": FinitePoset(["e", "f"]),
    }
    maps = {("1", "2"): {"c": "a", "d": "b"}, ("2", "3"): {"e": "d", "f": "c"}}
    if long_map:
        maps[("1", "3")] = {"e": "b", "f": "a"}
    return PosetDiagram(chain_poset(3), fibers, maps)


def square_base_diagram(long_map):
    """Over the Boolean square; both cover paths from {} to {1,2} send t to q."""
    fibers = {
        "{}": FinitePoset(["p", "q"], [("p", "q")]),
        "{1}": FinitePoset(["r"]),
        "{2}": FinitePoset(["s"]),
        "{1,2}": FinitePoset(["t"]),
    }
    maps = {
        ("{}", "{1}"): {"r": "q"},
        ("{}", "{2}"): {"s": "q"},
        ("{1}", "{1,2}"): {"t": "r"},
        ("{2}", "{1,2}"): {"t": "s"},
    }
    if long_map:
        maps[("{}", "{1,2}")] = {"t": "q"}
    return PosetDiagram(boolean_lattice(2), fibers, maps)


def poset_from(elements, relations):
    return FinitePoset(elements, [tuple(r.split("<")) for r in relations])


class TestLongRelations:
    """Bases with relations that are not covers, so connecting maps compose."""

    CHAIN_ELEMENTS = ["a@1", "b@1", "c@2", "d@2", "e@3", "f@3"]
    SQUARE_ELEMENTS = ["p@{}", "q@{}", "r@{1}", "s@{2}", "t@{1,2}"]

    @pytest.mark.parametrize("long_map", [False, True])
    def test_chain_base_grothendieck(self, long_map):
        D = chain_base_diagram(long_map)
        assert validate(D).passed
        expected = poset_from(
            self.CHAIN_ELEMENTS,
            ["a@1<b@1", "a@1<c@2", "b@1<d@2", "d@2<e@3", "c@2<f@3",
             "a@1<d@2", "a@1<e@3", "b@1<e@3", "a@1<f@3"],
        )
        assert grothendieck(D) == expected

    @pytest.mark.parametrize("long_map", [False, True])
    def test_chain_base_flatten(self, long_map):
        D = chain_base_diagram(long_map)
        expected = poset_from(
            self.CHAIN_ELEMENTS,
            ["a@1<c@2", "b@1<d@2", "d@2<e@3", "c@2<f@3", "b@1<e@3", "a@1<f@3"],
        )
        assert diagram_flatten(D) == expected

    @pytest.mark.parametrize("long_map", [False, True])
    def test_square_base_grothendieck(self, long_map):
        D = square_base_diagram(long_map)
        assert validate(D).passed
        expected = poset_from(
            self.SQUARE_ELEMENTS,
            ["p@{}<q@{}", "p@{}<r@{1}", "q@{}<r@{1}", "p@{}<s@{2}", "q@{}<s@{2}",
             "r@{1}<t@{1,2}", "s@{2}<t@{1,2}", "p@{}<t@{1,2}", "q@{}<t@{1,2}"],
        )
        assert grothendieck(D) == expected

    @pytest.mark.parametrize("long_map", [False, True])
    def test_square_base_flatten(self, long_map):
        D = square_base_diagram(long_map)
        expected = poset_from(
            self.SQUARE_ELEMENTS,
            ["q@{}<r@{1}", "q@{}<s@{2}", "r@{1}<t@{1,2}", "s@{2}<t@{1,2}", "q@{}<t@{1,2}"],
        )
        assert diagram_flatten(D) == expected

    def test_paths_disagree_on_square(self):
        D = square_base_diagram(False)
        D.fibers["{2}"] = FinitePoset(["s", "s'"])
        D.maps[("{}", "{2}")] = {"s": "q", "s'": "p"}
        D.maps[("{2}", "{1,2}")] = {"t": "s'"}
        assert any("mismatch" in f for f in validate(D).failures)
        with pytest.raises(DiagramError, match="mismatch"):
            diagram_flatten(D)


class TestCylinder:
    def test_collapse_two_points(self):
        D = two_chain_diagram(
            FinitePoset(["a", "b"]), FinitePoset(["p"]), {"p": "a"}
        )
        report = cylinder_check(D)
        assert report.lower_profile.betti == {0: 1}
        assert report.passed

    def test_cone_direction(self):
        D = two_chain_diagram(
            FinitePoset(["a"]), FinitePoset(["p", "q"]), {"p": "a", "q": "a"}
        )
        report = cylinder_check(D)
        assert report.lower_profile.is_acyclic
        assert report.passed

    def test_identity_cylinder(self):
        fiber = chain_poset(2)
        D = two_chain_diagram(fiber, fiber, {x: x for x in fiber})
        report = cylinder_check(D)
        assert report.passed

    def test_base_must_be_two_chain(self):
        D = PosetDiagram(FinitePoset(["q"]), {"q": chain_poset(1)}, {})
        with pytest.raises(DiagramError, match="chain"):
            cylinder_check(D)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_diagrams(self, seed):
        D = random_two_chain_diagram(random.Random(300 + seed))
        assert cylinder_check(D).passed


class TestPdiagFormat:
    GOOD = """
# cylinder over a two-chain
base:
elements: 0 1
0 < 1
fiber 0:
elements: x y
x < y
fiber 1:
elements: p
map 0 1: p->x
"""

    def test_parse(self):
        D = parse_pdiag(self.GOOD)
        assert validate(D).passed
        assert D.maps[("0", "1")] == {"p": "x"}
        assert D.fibers["0"].lt("x", "y")

    def test_missing_fiber(self):
        bad = self.GOOD.replace("fiber 1:\nelements: p\n", "")
        with pytest.raises(DiagramError, match="missing fiber|unknown"):
            parse_pdiag(bad)

    def test_fiber_over_no_base_element(self):
        with pytest.raises(DiagramError, match="fiber for '2', which is not a base element"):
            parse_pdiag(self.GOOD + "fiber 2:\nelements: w\n")
        with pytest.raises(DiagramError, match="not a base element"):
            PosetDiagram(FinitePoset(["q"]), {"q": chain_poset(1), "r": chain_poset(1)}, {})

    def test_missing_base(self):
        with pytest.raises(DiagramError, match="base"):
            parse_pdiag("fiber 0:\nelements: x\n")

    def test_bad_map_entry(self):
        with pytest.raises(DiagramError, match="map"):
            parse_pdiag(self.GOOD.replace("p->x", "p x"))

    def test_stray_line(self):
        with pytest.raises(DiagramError, match="outside"):
            parse_pdiag("elements: a\n" + self.GOOD)

    def test_fiber_poset_error_is_a_diagram_error(self):
        bad = self.GOOD.replace("elements: x y", "elements: x x")
        with pytest.raises(DiagramError, match="duplicate element label: 'x'"):
            parse_pdiag(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\nfiber 1:\nmap 0 1: x->y\n",
                "fiber '1': missing 'elements:' line",
            ),
            (
                "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\n"
                "fiber 1:\nelements: x\n0 < 1\nmap 0 1: x->y\n",
                "fiber '1': unknown element: '0'",
            ),
            ("base:\nelements: 0\n0 < x\nfiber 0:\nelements: y\n", "base: unknown element: 'x'"),
        ],
        ids=["fiber-without-elements", "fiber-naming-base-elements", "base"],
    )
    def test_poset_error_names_its_block(self, text, message):
        with pytest.raises(DiagramError) as info:
            parse_pdiag(text)
        assert str(info.value) == message

    ARROWS = "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\nfiber 1:\nelements: a->b\n"

    def test_map_entries_keep_declared_arrow_labels(self):
        D = parse_pdiag(self.ARROWS + "map 0 1: a->b->y\n")
        assert D.maps[("0", "1")] == {"a->b": "y"}
        assert validate(D).passed

    def test_undeclared_arrow_entry_splits_at_its_first_arrow(self):
        D = parse_pdiag(self.ARROWS + "map 0 1: a->b->z\n")
        assert D.maps[("0", "1")] == {"a": "b->z"}
        assert not validate(D).passed
        # only as many arrows as a declared label holds are tried, not every one
        D = parse_pdiag(self.ARROWS + "map 0 1: " + "a->" * 100_000 + "y\n")
        assert D.maps[("0", "1")] == {"a": "a->" * 99_999 + "y"}

    # fiber 1 relates elements named like the header keywords
    KEYWORDS = {
        "map": "elements: map x\nmap < x\nmap 0 1: map->y, x->y\n",
        "fiber": "elements: fiber x:\nfiber < x:\nmap 0 1: fiber->y, x:->y\n",
    }

    @pytest.mark.parametrize("word", sorted(KEYWORDS))
    def test_relation_naming_a_keyword_is_no_header(self, word):
        text = "base:\nelements: 0 1\n0 < 1\nfiber 0:\nelements: y\nfiber 1:\n"
        D = parse_pdiag(text + self.KEYWORDS[word])
        assert set(D.fibers) == {"0", "1"} and set(D.maps) == {("0", "1")}
        low, high = sorted(D.fibers["1"].elements)
        assert D.fibers["1"].covers == {(word, high if low == word else low)}
        assert validate(D).passed

    # fibers labelled like poset_product pairs, with commas inside labels
    PRODUCT = """
base:
elements: lo hi
lo < hi
fiber lo:
elements: (a,b) (a,c)
(a,b) < (a,c)
fiber hi:
elements: (c,d) (c,e)
(c,d) < (c,e)
map lo hi: (c,d)->(a,b), (c,e)->(a,c)
"""

    def test_map_entries_keep_declared_comma_labels(self):
        D = parse_pdiag(self.PRODUCT)
        assert D.maps[("lo", "hi")] == {"(c,d)": "(a,b)", "(c,e)": "(a,c)"}
        assert validate(D).passed

    def test_map_entries_split_on_commas_outside_declared_labels(self):
        D = parse_pdiag(self.PRODUCT.replace("(c,e)->(a,c)", "(c,e)->(a,c),, (c,d)->(a,b)"))
        assert D.maps[("lo", "hi")] == {"(c,d)": "(a,b)", "(c,e)": "(a,c)"}
        # an entry naming no declared pair ends at the next comma
        with pytest.raises(DiagramError, match=r"malformed map entry: '\(c'"):
            parse_pdiag(self.PRODUCT.replace("->(a,c)", "->(a,z)"))
