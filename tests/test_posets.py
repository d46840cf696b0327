import random
import re
import time
import tracemalloc
from itertools import combinations, product
from math import comb, factorial, prod

import numpy as np
import pytest

import oracles
from randgen import random_bounded_poset, random_closure_lattice, random_complex, random_poset
from ordertop import complexes, posets
from ordertop.posets import (
    BoundedPoset,
    FinitePoset,
    MeetJoinError,
    PosetError,
    boolean_lattice,
    chain_poset,
    exp_discrete_poset,
    face_poset,
    format_poset,
    generate,
    parse_poset,
    partition_lattice,
    poset_product,
)
from ordertop.complexes import SimplicialComplex
from ordertop.diagrams import DiagramError, parse_pdiag


def bounded(P):
    return BoundedPoset.from_poset(P)


def assert_order(P, objects, less):
    """P has exactly the labels of ``objects`` and is ordered by ``less``."""
    assert set(P.elements) == set(objects)
    for a, b in product(P.elements, repeat=2):
        assert P.lt(a, b) == less(objects[a], objects[b]), (a, b)


class TestParse:
    def test_two_element_chain(self):
        P = parse_poset("elements: a b; a < b")
        assert P.elements == ("a", "b")
        assert P.lt("a", "b")
        assert P.covers == {("a", "b")}

    def test_transitive_reduction_drops_implied_cover(self):
        P = parse_poset("elements: a b c; a < b, a < c, b < c")
        assert P.covers == {("a", "b"), ("b", "c")}
        assert P.lt("a", "c")

    def test_reflexive_relation_is_a_cycle(self):
        with pytest.raises(PosetError, match="cycle"):
            parse_poset("elements: a; a < a")

    def test_longer_cycle(self):
        with pytest.raises(PosetError, match="cycle"):
            parse_poset("elements: a b c; a < b; b < c; c < a")

    def test_cycle_message_names_an_element_on_the_cycle(self):
        # a is only reachable from the cycle b < c < b, so it lies on none
        with pytest.raises(PosetError, match=r"cycle in relations through '[bc]'"):
            parse_poset("elements: a b c; b < c; c < b; c < a")

    def test_duplicate_label(self):
        with pytest.raises(PosetError, match="duplicate"):
            FinitePoset(["a", "a"])

    def test_unknown_label_in_relation(self):
        with pytest.raises(PosetError, match="unknown"):
            parse_poset("elements: a b; a < z")

    @pytest.mark.parametrize("sep", [", ", " ,", " , "])
    def test_commas_separate_relations_spaced_or_not(self, sep):
        P = parse_poset(f"elements: a b c d\na < b{sep}c < d\n")
        assert P.covers == {("a", "b"), ("c", "d")}

    def test_comma_without_a_space_joins_the_labels(self):
        # "b,c" is read as one label, which is not declared
        with pytest.raises(PosetError, match="unknown element: 'b,c'"):
            parse_poset("elements: a b c d\na < b,c < d\n")

    @pytest.mark.parametrize(
        "relation", [("elements:x", "b"), ("b", "elements:x"), ("elements:", "b")]
    )
    def test_elements_prefixed_label_reads_back_on_either_side(self, relation):
        P = FinitePoset(set(relation), [relation])
        assert parse_poset(format_poset(P)) == P

    def test_declared_comma_label_next_to_a_relation(self):
        # the middle comma belongs to no relation and separates the two
        P = parse_poset("elements: a , b\na < , , , < b\n")
        assert P.covers == {("a", ","), (",", "b")}

    def test_roundtrip(self):
        P = boolean_lattice(3)
        assert parse_poset(format_poset(P)) == P

    def test_duplicate_is_refused_in_linear_time(self):
        labels = [f"x{i}" for i in range(posets.MAX_ELEMENTS - 1)]
        labels.append(labels[-1])  # the only repeat, last
        text = "elements: " + " ".join(labels)
        for refuse in (lambda: parse_poset(text), lambda: FinitePoset(labels)):
            start = time.perf_counter()
            with pytest.raises(PosetError, match=f"^duplicate element label: '{labels[-1]}'$"):
                refuse()
            assert time.perf_counter() - start < 0.2


# Labels of the fuzzed texts: commas inside and at the end of a label, a
# label of one comma, and one that starts with "elements:".
FUZZ_LABELS = ["a", "b", "c", "d", "e,", "f,g", ",", "elements:x"]
FUZZ_FAULTS = [
    "duplicate", "missing", "late", "twice", "size", "unknown", "self", "cycle", "malformed",
]
FUZZ_MALFORMED = ["a <", "< b", "a b", "a < b c", "<", "a < b ,, c"]
FUZZ_SEPARATORS = ["\n", "\r\n", "; ", ";", ", ", " ,", " , ", " "]
FUZZ_REFUSALS = [
    "malformed relation statement: ",
    "multiple 'elements:' declarations",
    "the 'elements:' line must come before relations",
    "missing 'elements:' line",
    "duplicate element label: ",
    "a poset of 7 elements is above the limit 6",
    "unknown element: ",
    "cycle in relations: ",
    "cycle in relations through ",
]


def fuzz_poset_text(rng: random.Random, faults: set[str]) -> str:
    """A ``.poset`` text over some of ``FUZZ_LABELS`` with the given faults
    planted, written with comments, blank lines and every separator."""
    pool = rng.sample(FUZZ_LABELS, rng.randint(1, 5))
    declared = list(pool)
    if "duplicate" in faults:
        declared.insert(rng.randrange(len(declared) + 1), rng.choice(pool))
    if "size" in faults:
        declared += [f"s{i}" for i in range(7 - len(declared))]
    rng.shuffle(declared)
    up = list(pool)  # the relations go up this order unless a cycle is planted
    rng.shuffle(up)
    relations = []
    for _ in range(rng.randint(0, 6)):
        chain = sorted(rng.sample(up, min(len(up), rng.choice([2, 2, 3]))), key=up.index)
        if len(chain) > 1:
            relations.append(" < ".join(chain))
    if relations and rng.random() < 0.3:
        relations.append(rng.choice(relations))  # a repeated relation
    planted = {
        "unknown": lambda: f"{rng.choice(pool)} < {rng.choice(['z', 'z,', 'b,c', '<'])}",
        "self": lambda: "{0} < {0}".format(rng.choice(pool)),
        "cycle": lambda: f"{up[-1]} < {up[0]}" if len(up) > 1 else f"{up[0]} < {up[0]}",
        "malformed": lambda: rng.choice(FUZZ_MALFORMED),
    }
    for fault, make in planted.items():
        if fault in faults:
            relations.insert(rng.randrange(len(relations) + 1), make())
    statements = list(relations)
    elements = "elements:" + rng.choice([" ", "  ", ""]) + " ".join(declared)
    if "missing" not in faults:
        where = rng.randint(1, len(statements)) if "late" in faults and statements else 0
        statements.insert(where, elements)
        if "twice" in faults:
            statements.insert(rng.randint(where + 1, len(statements)), elements)
    text = ""
    for i, stmt in enumerate(statements):
        if i:
            sep = rng.choice(FUZZ_SEPARATORS)
            if "elements:" in stmt or "elements:" in statements[i - 1]:
                sep = rng.choice(["\n", ";"])  # a comma would join it to a relation
            text += sep
        if rng.random() < 0.1:
            text += "# a comment; with < and elements: z\n"
        text += rng.choice(["", " ", "\t"]) + stmt
        if rng.random() < 0.1:
            text += " # trailing < comment"
        if rng.random() < 0.05:
            text += "\n\n"
    return text + rng.choice(["", "\n"])


def parse_outcome(parse, text):
    """The poset read from ``text``, or the type and message of its refusal."""
    try:
        return parse(text)
    except PosetError as err:
        return type(err), str(err)


class TestParseAgainstOracle:
    """The one-pass reader against the statement-list reader kept in
    ``oracles``: the same poset, or the same refusal."""

    def test_fuzzed_texts(self, monkeypatch):
        monkeypatch.setattr(posets, "MAX_ELEMENTS", 6)
        rng = random.Random(2027)
        seen, alone, combined, read = set(), set(), 0, 0
        for _ in range(400):
            faults = {f for f in FUZZ_FAULTS if rng.random() < 0.12}
            text = fuzz_poset_text(rng, faults)
            expected = parse_outcome(oracles.parse_poset_by_statements, text)
            got = parse_outcome(parse_poset, text)
            if isinstance(expected, tuple):
                assert got == expected, text
                message = expected[1]
                seen.add(next(p for p in FUZZ_REFUSALS if message.startswith(p)))
                pdiag = "base:\nelements: q\nfiber q:\n" + text
                with pytest.raises(DiagramError) as refused:
                    parse_pdiag(pdiag)
                assert str(refused.value) == f"fiber 'q': {message}", pdiag
            else:
                assert isinstance(got, FinitePoset), (text, got)
                assert got == expected and got.covers == expected.covers, text
                assert sorted(got.maximal_chains()) == sorted(expected.maximal_chains()), text
                read += 1
            if len(faults) == 1:
                alone |= faults
            combined += len(faults) > 1
        assert alone == set(FUZZ_FAULTS)
        assert combined >= 50
        assert seen == set(FUZZ_REFUSALS)
        assert read >= 100


class TestElementLimit:
    def test_limit_on_each_side(self, monkeypatch):
        monkeypatch.setattr(posets, "MAX_ELEMENTS", 5)
        assert len(chain_poset(5)) == 5
        with pytest.raises(PosetError, match="a poset of 6 elements is above the limit 5"):
            chain_poset(6)
        with pytest.raises(PosetError, match="a poset of 6 elements is above the limit 5"):
            parse_poset("elements: a b c d e f")

    @pytest.mark.parametrize(
        "build, count",
        [
            (lambda: boolean_lattice(14), 2**14),
            (lambda: exp_discrete_poset(40, 6), sum(comb(40, k) for k in range(1, 7))),
            (lambda: partition_lattice(10), oracles.bell_number(10)),
            (lambda: poset_product(chain_poset(101), chain_poset(100)), 10_100),
        ],
        ids=["boolean", "exp_discrete", "partition", "product"],
    )
    def test_generators_count_before_they_build(self, build, count):
        # the refusal comes before any element is built: exp_discrete(40, 6)
        # alone has 4,598,478
        tracemalloc.start()
        try:
            with pytest.raises(PosetError, match=f"a poset of {count} elements is above the limit"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize(
        "limit, admitted, refused, count",
        [
            (32, lambda: boolean_lattice(5), lambda: boolean_lattice(6), 64),
            (41, lambda: exp_discrete_poset(6, 3), lambda: exp_discrete_poset(6, 4), 56),
            (52, lambda: partition_lattice(5), lambda: partition_lattice(6), 203),
            (
                52,
                lambda: poset_product(chain_poset(4), chain_poset(13)),
                lambda: poset_product(chain_poset(53), chain_poset(1)),
                53,
            ),
        ],
        ids=["boolean", "exp_discrete", "partition", "product"],
    )
    def test_generator_counts_on_each_side(self, monkeypatch, limit, admitted, refused, count):
        monkeypatch.setattr(posets, "MAX_ELEMENTS", limit)
        assert len(admitted()) == limit
        with pytest.raises(PosetError, match=f"a poset of {count} elements is above the limit"):
            refused()

    REFUSED = [
        ("boolean", boolean_lattice, (14_285, 20_000, 10**5, 10**6)),
        ("partition", partition_lattice, (2_000, 3_000, 20_000, 10**6)),
        ("chain", chain_poset, (20_000, 10**6)),
        ("exp_discrete-1", lambda m: exp_discrete_poset(m, 1), (20_000, 10**6)),
        ("exp_discrete-2", lambda m: exp_discrete_poset(m, 2), (20_000, 10**6)),
        ("exp_discrete-half", lambda m: exp_discrete_poset(m, m // 2), (20_000, 10**6)),
        ("exp_discrete-all", lambda m: exp_discrete_poset(m, m), (20_000, 10**6)),
    ]

    @pytest.mark.parametrize(
        "build, n", [pytest.param(b, n, id=f"{name}-{n}") for name, b, ns in REFUSED for n in ns]
    )
    def test_any_argument_is_refused_quickly(self, build, n):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(PosetError, match="elements is above the limit 10000$"):
                build(n)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 64 * 1024

    def test_face_poset_is_refused_before_any_label(self):
        # 70,240 faces, counted before any label is made: the refusal costs
        # about what listing them does
        K = complexes.cyclic_polytope_boundary(40, 6)

        def measured(call):
            tracemalloc.start()
            try:
                start = time.perf_counter()
                call()
                elapsed = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return elapsed, peak

        def refuse():
            with pytest.raises(PosetError, match="a poset of 70240 elements is above the limit"):
                face_poset(K)

        listed, listed_peak = measured(K.faces_by_dim)
        refused, refused_peak = measured(refuse)
        assert refused < 3 * listed + 0.05 and refused_peak < 1.2 * listed_peak

    @pytest.mark.parametrize(
        "exact, bounded, count",
        [
            (lambda: chain_poset(25), lambda: chain_poset(26), 25),
            (lambda: boolean_lattice(4), lambda: boolean_lattice(5), 16),
            (lambda: exp_discrete_poset(6, 2), lambda: exp_discrete_poset(6, 3), 21),
            (lambda: partition_lattice(4), lambda: partition_lattice(5), 15),
        ],
        ids=["chain", "boolean", "exp_discrete", "partition"],
    )
    def test_counts_past_the_square_of_the_limit_are_not_named(
        self, monkeypatch, exact, bounded, count
    ):
        monkeypatch.setattr(posets, "MAX_ELEMENTS", 5)
        with pytest.raises(PosetError, match=f"^a poset of {count} elements is above the limit 5$"):
            exact()
        bound = "^a poset of more than 25 elements is above the limit 5$"
        with pytest.raises(PosetError, match=bound):
            bounded()

    def test_limit_admits_the_partition_lattice_8(self):
        assert posets.MAX_ELEMENTS >= oracles.bell_number(8) == 4140


class TestLabels:
    # A label is refused when it has whitespace, by the test
    # label.split() != [label]; it must refuse exactly the str.isspace
    # code points, wherever they sit in the label.
    SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]

    def test_every_whitespace_code_point_is_refused(self):
        for ch in self.SPACES:
            for label in (ch, "a" + ch, ch + "a", "a" + ch + "b", ch + ch):
                for check, error in ((posets._check_label, PosetError),
                                     (complexes._check_label, complexes.ComplexError)):
                    with pytest.raises(error, match="whitespace"):
                        check(label)

    def test_every_other_code_point_is_accepted(self):
        for c in range(0x110000):
            label = "a" + chr(c)
            if not label[1].isspace():
                if label[1] != "#":
                    assert complexes._check_label(label) == label
                if label[1] not in "<#;":
                    assert posets._check_label(label) == label

    @pytest.mark.parametrize("mark", ["#", ";"])
    def test_format_marks_are_refused(self, mark):
        # '#' starts a .poset comment and ';' ends a statement
        pattern = "may not contain '#' or ';'"
        for label in (mark, "a" + mark, mark + "a", "a" + mark + "b"):
            with pytest.raises(PosetError, match=pattern):
                posets._check_label(label)
            with pytest.raises(PosetError, match=pattern):
                FinitePoset(["x", label], [("x", label)])

    def test_face_poset_of_a_separator_label_refused(self):
        # a vertex label may hold ';', the label of its face may not
        K = SimplicialComplex([["u;v", "w"]])
        with pytest.raises(PosetError, match=r"may not contain '#' or ';'.*'\{u;v\}'"):
            face_poset(K)

    @pytest.mark.parametrize("label", ["", 1, None, ("a",)])
    def test_empty_or_non_string_refused(self, label):
        with pytest.raises(PosetError, match="must be a nonempty string"):
            FinitePoset(["a", label])

    @pytest.mark.parametrize(
        "relation",
        [(["a"], "b"), ("a", ["b"]), ("a",), ("a", "b", "c"), (), "ab", None, 1, ("a", 1)],
    )
    def test_relation_not_a_pair_of_labels_refused(self, relation):
        with pytest.raises(PosetError, match="a relation must be a pair of labels"):
            FinitePoset(["a", "b"], [relation])

    def test_relation_pairs_of_any_sequence_type(self):
        P = FinitePoset(["a", "b", "c"], [["a", "b"], iter(("b", "c"))])
        assert P.covers == {("a", "b"), ("b", "c")}

    @pytest.mark.parametrize("elements", ["abc", "a", ""])
    def test_string_as_elements_refused(self, elements):
        with pytest.raises(PosetError, match="elements must be a collection of labels"):
            FinitePoset(elements)

    def test_format_round_trip_of_punctuated_labels(self):
        labels = ["a,", ",b", "{x}", "(1)(2)", "e:f", "!", "c>d", "a=b"]
        P = FinitePoset(labels, [*zip(labels[:5], labels[1:5]), ("!", "c>d"), ("{x}", "a=b")])
        Q = parse_poset(format_poset(P))
        assert Q.elements == P.elements and Q.covers == P.covers


class TestGenerators:
    def test_partition_3_has_bell_3_elements(self):
        P = partition_lattice(3)
        assert len(P) == oracles.bell_number(3) == 5
        assert set(P.elements) == {"(1)(2)(3)", "(12)(3)", "(13)(2)", "(1)(23)", "(123)"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partition_sizes(self, n):
        assert len(partition_lattice(n)) == oracles.bell_number(n)

    def test_boolean_2_is_diamond(self):
        P = boolean_lattice(2)
        assert len(P) == 4
        assert len(P.covers) == 4
        B = bounded(P)
        assert B.bottom == "{}" and B.top == "{1,2}"

    def test_exp_discrete_3_1_is_antichain(self):
        P = exp_discrete_poset(3, 1)
        assert len(P) == 3
        assert not P.covers

    def test_chain(self):
        P = chain_poset(4)
        assert len(P.covers) == 3
        assert P.lt("1", "4")

    def test_face_poset(self):
        K = SimplicialComplex([["a", "b"], ["b", "c"]])
        P = face_poset(K)
        assert len(P) == 5
        assert P.lt("{a}", "{a,b}")

    def test_product(self):
        P = poset_product(chain_poset(2), chain_poset(2))
        assert len(P) == 4
        B = bounded(P)
        assert B.is_lattice()

    @pytest.mark.parametrize("seed", range(6))
    def test_product_order_is_componentwise(self, seed):
        rng = random.Random(800 + seed)
        P, Q = random_poset(rng, max_elements=5), random_poset(rng, max_elements=5)
        pairs = {f"({p},{q})": (p, q) for p in P for q in Q}
        assert_order(
            poset_product(P, Q),
            pairs,
            lambda a, b: a != b and P.leq(a[0], b[0]) and Q.leq(a[1], b[1]),
        )

    def test_product_labels_that_collide_are_refused(self):
        P = FinitePoset(["a,b", "a"], [("a,b", "a")])
        Q = FinitePoset(["c", "b,c"], [("c", "b,c")])
        match = r"pairs \('a', 'b,c'\) and \('a,b', 'c'\) both get the label '\(a,b,c\)'"
        with pytest.raises(PosetError, match=match):
            poset_product(P, Q)

    def test_face_labels_that_collide_are_refused(self):
        K = SimplicialComplex([["a,b"], ["a", "b"]])
        match = r"sets \('a,b',\) and \('a', 'b'\) both get the label '\{a,b\}'"
        with pytest.raises(PosetError, match=match):
            face_poset(K)

    def test_generate_dispatch(self):
        assert generate("boolean", 2) == boolean_lattice(2)
        assert generate("chain", 3) == chain_poset(3)
        assert generate("exp_discrete", 4, 2) == exp_discrete_poset(4, 2)
        K = SimplicialComplex([["a", "b"], ["b", "c"]])
        assert generate("face_poset", K) == face_poset(K)
        P = partition_lattice(3)
        assert generate("dual", P) == P.dual()
        with pytest.raises(PosetError, match="unknown generator"):
            generate("mystery", 1)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: chain_poset(-1), "chain length must be >= 0"),
            (lambda: boolean_lattice(-1), "boolean rank must be >= 0"),
            (lambda: exp_discrete_poset(3, 0), "need 1 <= n <= m, got n=0, m=3"),
            (lambda: exp_discrete_poset(2, 3), "need 1 <= n <= m, got n=3, m=2"),
            (lambda: partition_lattice(0), "partition lattice needs n >= 1"),
        ],
    )
    def test_generator_arguments_refused(self, make, message):
        with pytest.raises(PosetError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partition_order_is_refinement(self, n):
        assert_order(
            partition_lattice(n), oracles.set_partitions_by_label(n), oracles.strictly_refines
        )

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partition_covers_merge_two_blocks(self, n):
        parts = oracles.set_partitions_by_label(n).values()
        assert len(partition_lattice(n).covers) == sum(comb(len(p), 2) for p in parts)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_boolean_order_is_inclusion(self, n):
        sets = oracles.subset_family(range(1, n + 1), range(n + 1))
        assert_order(boolean_lattice(n), sets, lambda a, b: a < b)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_exp_discrete_order_is_inclusion(self, m):
        for n in range(1, m + 1):
            sets = oracles.subset_family(range(1, m + 1), range(1, n + 1))
            assert_order(exp_discrete_poset(m, n), sets, lambda a, b: a < b)

    @pytest.mark.parametrize("seed", range(10))
    def test_face_poset_order_is_inclusion(self, seed):
        K = random_complex(random.Random(700 + seed))
        faces = [f for fs in oracles.faces_of(K.facets).values() for f in fs]
        sets = {"{" + ",".join(f) + "}": frozenset(f) for f in faces}
        assert_order(face_poset(K), sets, lambda a, b: a < b)

    def test_partition_lattice_property(self):
        # meet and join total up to the 203-element lattice
        for n in (3, 4, 5, 6):
            assert bounded(partition_lattice(n)).is_lattice()


class TestTruncate:
    def test_boolean_3(self):
        T = bounded(boolean_lattice(3)).truncate()
        assert len(T) == 6
        assert all(lab not in T for lab in ("{}", "{1,2,3}"))

    def test_chain_3(self):
        assert bounded(chain_poset(3)).truncate().elements == ("2",)

    def test_boolean_1_empty(self):
        T = bounded(boolean_lattice(1)).truncate()
        assert len(T) == 0
        assert T.order_complex().is_empty


class TestInducedFromCovers:
    """A derived poset is built from its covers alone, and equals the one
    built from every relation it inherits."""

    @pytest.mark.parametrize(
        "lattice", [partition_lattice(5), boolean_lattice(4)], ids=["Pi5", "B4"]
    )
    def test_passes_exactly_the_covers(self, monkeypatch, lattice):
        B = bounded(lattice)
        y = sorted(lattice.elements, key=lambda e: (len(lattice.downset(e)), e))[len(lattice) // 2]
        passed = []
        original = FinitePoset._order

        def order(self, nexts):
            passed.append(sum(map(len, nexts)))
            original(self, nexts)

        monkeypatch.setattr(FinitePoset, "_order", order)
        derived = {
            "truncate": B.truncate,
            "remove": lambda: lattice.remove([y]),
            "below": lambda: lattice.below(y),
            "above": lambda: lattice.above(y),
        }
        for name, derive in derived.items():
            passed.clear()
            result = derive()
            assert passed == [len(result.covers)], name
            inherited = [(a, b) for a in result for b in lattice.upset(a) if b in result]
            assert result == FinitePoset(result.elements, inherited), name


def assert_same_poset(P, expected):
    assert P.elements == expected.elements
    assert (P._up, P._down, P._cover) == (expected._up, expected._down, expected._cover)


class TestIndexBuilders:
    """Each builder that hands integer covers to the order core gives the
    poset that the label constructor makes from the oracle's label pairs."""

    @staticmethod
    def induced(less, keep):
        kept = set(keep)
        return FinitePoset(kept, [(a, b) for a, b in less if a in kept and b in kept])

    def check_derived(self, P, rng):
        less = oracles.strict_closure(P.elements, P.covers)
        for _ in range(6):
            keep = [e for e in P.elements if rng.random() < 0.5]
            assert_same_poset(P.subposet(keep), self.induced(less, keep))
            dropped = set(P.elements) - set(keep)
            assert_same_poset(P.remove(keep), self.induced(less, dropped))
        for y in P.elements:
            lower = self.induced(less, [a for a, b in less if b == y])
            upper = self.induced(less, [b for a, b in less if a == y])
            assert_same_poset(P.below(y), lower)
            assert_same_poset(P.above(y), upper)
            cones = P.cones(y)
            assert_same_poset(cones[0], lower)
            assert_same_poset(cones[1], upper)

    @pytest.mark.parametrize("seed", range(30))
    def test_derived_posets_of_random_posets(self, seed):
        rng = random.Random(4000 + seed)
        self.check_derived(random_poset(rng, max_elements=12, max_height=5), rng)

    def test_removed_elements_stacked_between_kept_ones(self):
        # a, b and c are minimal; r1 < r2 and r3 are removed.  a reaches d
        # both directly and through r1 < r2, and reaches e only above x.
        rels = [("a", "r1"), ("b", "r1"), ("r1", "r2"), ("r2", "x"), ("r2", "d"), ("a", "d"),
                ("x", "r3"), ("r3", "e"), ("c", "r3"), ("c", "e")]
        P = FinitePoset({e for r in rels for e in r}, rels)
        less = oracles.strict_closure(P.elements, rels)
        result = P.remove(["r1", "r2", "r3"])
        assert_same_poset(result, self.induced(less, set(P.elements) - {"r1", "r2", "r3"}))
        assert result.covers == {("a", "x"), ("b", "x"), ("a", "d"), ("b", "d"), ("x", "e"),
                                 ("c", "e")}
        self.check_derived(P, random.Random(4100))

    @pytest.mark.parametrize("seed", range(20))
    def test_truncate(self, seed):
        B = random_bounded_poset(random.Random(4200 + seed))
        P = B.poset
        less = oracles.strict_closure(P.elements, P.covers)
        assert_same_poset(B.truncate(), self.induced(less, set(P.elements) - {"bot", "top"}))

    @pytest.mark.parametrize("seed", range(20))
    def test_dual_and_product(self, seed):
        rng = random.Random(4300 + seed)
        P, Q = random_poset(rng, max_elements=6), random_poset(rng, max_elements=6)
        less_p = oracles.strict_closure(P.elements, P.covers)
        less_q = oracles.strict_closure(Q.elements, Q.covers)
        assert_same_poset(P.dual(), FinitePoset(P.elements, [(b, a) for a, b in less_p]))
        leq_p = less_p | {(p, p) for p in P}
        leq_q = less_q | {(q, q) for q in Q}
        pairs = [
            (f"({p},{q})", f"({p2},{q2})")
            for (p, p2), (q, q2) in product(leq_p, leq_q)
            if p != p2 or q != q2
        ]
        labels = [f"({p},{q})" for p in P for q in Q]
        assert_same_poset(poset_product(P, Q), FinitePoset(labels, pairs))

    @staticmethod
    def inclusion(sets):
        pairs = [(a, b) for a, b in product(sets, repeat=2) if sets[a] < sets[b]]
        return FinitePoset(sets, pairs)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_boolean_lattice(self, n):
        sets = oracles.subset_family(range(1, n + 1), range(n + 1))
        assert_same_poset(boolean_lattice(n), self.inclusion(sets))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_exp_discrete_poset(self, m):
        for n in range(1, m + 1):
            sets = oracles.subset_family(range(1, m + 1), range(1, n + 1))
            assert_same_poset(exp_discrete_poset(m, n), self.inclusion(sets))

    @pytest.mark.parametrize("seed", range(10))
    def test_face_poset(self, seed):
        K = random_complex(random.Random(4400 + seed))
        faces = [f for fs in oracles.faces_of(K.facets).values() for f in fs]
        sets = {"{" + ",".join(f) + "}": frozenset(f) for f in faces}
        assert_same_poset(face_poset(K), self.inclusion(sets))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_partition_lattice(self, n):
        parts = oracles.set_partitions_by_label(n)
        pairs = [(a, b) for a, b in product(parts, repeat=2)
                 if oracles.strictly_refines(parts[a], parts[b])]
        assert_same_poset(partition_lattice(n), FinitePoset(parts, pairs))

    def test_chain_poset(self):
        labels = [str(i) for i in range(1, 13)]
        assert_same_poset(chain_poset(12), FinitePoset(labels, combinations(labels, 2)))


class TestBuildOrder:
    """``FinitePoset._from_ids`` takes its labels in any order: given them
    shuffled, with the successors renumbered to match, it builds the same
    poset as from the sorted labels, down to its chain table."""

    @staticmethod
    def check(P, rng):
        perm = rng.sample(range(len(P)), len(P))  # sorted index of each shuffled label
        position = {i: k for k, i in enumerate(perm)}
        labels = [P.elements[i] for i in perm]
        nexts = [rng.sample([position[j] for j in P._cover[i]], len(P._cover[i])) for i in perm]
        shuffled = FinitePoset._from_ids(labels, nexts)
        assert shuffled == P
        assert_same_poset(shuffled, P)
        table, expected = posets._chain_table(shuffled), posets._chain_table(P)
        assert table.vertices == expected.vertices
        assert table.boundary_rows.keys() == expected.boundary_rows.keys()
        for k, rows in expected.boundary_rows.items():
            assert np.array_equal(table.boundary_rows[k], rows), k

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("chain", (12,)),
            ("boolean", (4,)),
            ("exp_discrete", (6, 3)),
            ("partition", (5,)),
            ("face_poset", (random_complex(random.Random(4500)),)),
            ("product", (partition_lattice(3), chain_poset(11))),
            ("dual", (partition_lattice(4),)),
        ],
    )
    def test_generators(self, kind, params):
        self.check(generate(kind, *params), random.Random(kind))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_posets(self, seed):
        rng = random.Random(4600 + seed)
        self.check(random_poset(rng, max_elements=12, max_height=5), rng)


class TestMaximalChainBound:
    """The chains are counted before any is built, against the face-table
    limit; the total is the number of element ids in all of them."""

    def test_full_partition_lattice_7(self):
        assert len(partition_lattice(7).maximal_chains()) == 56_700

    @pytest.mark.parametrize("seed", range(6))
    def test_limit_is_the_exact_total(self, monkeypatch, seed):
        P = partition_lattice(4) if seed == 0 else random_poset(random.Random(900 + seed))
        chains = P.maximal_chains()
        total = sum(map(len, oracles.brute_maximal_chains(P.elements, P.lt)))
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", total)
        assert P.maximal_chains() == chains
        monkeypatch.setattr(complexes, "MAX_STACK_ENTRIES", total - 1)
        with pytest.raises(PosetError, match=f"table of {total} element ids, above the limit"):
            P.maximal_chains()


class TestBounds:
    def test_bounds_must_be_elements(self):
        with pytest.raises(PosetError, match="unknown element"):
            BoundedPoset(FinitePoset([]), "a", "b")
        with pytest.raises(PosetError, match="unknown element"):
            BoundedPoset(chain_poset(3), "1", "4")

    def test_element_outside_bounds_named(self):
        # "a" and "c" both lie outside [1, 3]; the lowest label is named
        P = FinitePoset(["1", "2", "3", "a", "c"], [("1", "2"), ("2", "3"), ("a", "2")])
        with pytest.raises(PosetError, match="element 'a' is not between the given bounds"):
            BoundedPoset(P, "1", "3")
        with pytest.raises(PosetError, match="element '3' is not between the given bounds"):
            BoundedPoset(chain_poset(3), "1", "2")

    def test_distinct_bounds(self):
        with pytest.raises(PosetError, match="distinct"):
            BoundedPoset(chain_poset(1), "1", "1")


def ordinal_sum_of_antichains(sizes):
    """bot < A_1 < ... < A_k < top, the layer A_i an antichain of sizes[i]
    elements and every element of a layer below every element of the next."""
    layers = [["bot"], *([f"l{i}.{j}" for j in range(a)] for i, a in enumerate(sizes)), ["top"]]
    rels = [(a, b) for lower, upper in zip(layers, layers[1:]) for a in lower for b in upper]
    return BoundedPoset(FinitePoset([e for layer in layers for e in layer], rels), "bot", "top")


def many_value_classes(atoms=1001, chain=1099, cheap=6800):
    """A 9,902-element bounded poset with 1,001 Mobius values, most of whose
    elements have at most 3 nonzero values below them.

    Over bot lie the atoms a0..; c<k> covers a0..a<k-1>, so mu(bot, c<k>) =
    k - 1 for k = 2..atoms.  A chain of zero values d0 < d1 < ... starts on
    a0, and ``cheap`` elements cover its last link; every second one covers a
    further atom as well.  The chain is long enough for the cheap elements to
    come after every c<k> in a linear extension by down-set size, so each of
    them meets all the value classes but only 2 or 3 nonzero values.
    """
    a = [f"a{i}" for i in range(atoms)]
    c = [f"c{k}" for k in range(2, atoms + 1)]
    d = [f"d{j}" for j in range(chain)]
    e = [f"e{i}" for i in range(cheap)]
    rels = [("bot", x) for x in a] + [(a[i], f"c{k}") for k in range(2, atoms + 1) for i in range(k)]
    rels += [(a[0], d[0]), *zip(d, d[1:])] + [(d[-1], x) for x in e]
    rels += [(a[1 + i % (atoms - 1)], x) for i, x in enumerate(e[1::2])]
    rels += [(x, "top") for x in a[1:] + c + e]
    return BoundedPoset(FinitePoset(["bot", "top", *a, *c, *d, *e], rels), "bot", "top")


def per_element_mobius(B):
    """mu(bottom, top) with every sum over w below z taken one w at a time."""
    P = B.poset
    ix, iy = P.elements.index(B.bottom), P.elements.index(B.top)
    mu, nonzero = {ix: 1}, 1 << ix
    for z in sorted(range(len(P)), key=lambda j: P._down[j].bit_count()):
        if z == ix:
            continue
        below, m = P._down[z] & nonzero, 0
        while below:
            low = below & -below
            m -= mu[low.bit_length() - 1]
            below ^= low
        if m:
            mu[z], nonzero = m, nonzero | 1 << z
    return mu.get(iy, 0)


def assert_every_interval_against_oracle(B):
    P = B.poset
    for x, y in product(P.elements, repeat=2):
        if not P.lt(x, y):
            assert B.mobius_pair(x, y) == (1 if x == y else 0)
            continue
        interval = [z for z in P.elements if P.leq(x, z) and P.leq(z, y)]
        assert B.mobius_pair(x, y) == oracles.brute_mobius(interval, P.leq), (x, y)


def best_time(f, repeat=3):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        value = f()
        times.append(time.perf_counter() - start)
    return value, min(times)


class TestUnknownLabels:
    @pytest.mark.parametrize("method", ["lt", "leq", "comparable"])
    @pytest.mark.parametrize("pair", [("nope", "nope"), ("nope", "1"), ("1", "nope")])
    def test_order_queries(self, method, pair):
        with pytest.raises(PosetError, match="unknown element: 'nope'"):
            getattr(chain_poset(2), method)(*pair)

    @pytest.mark.parametrize("method", ["meet", "join", "mobius_pair"])
    @pytest.mark.parametrize("pair", [("nope", "nope"), ("nope", "1"), ("1", "nope")])
    def test_bounded_queries(self, method, pair):
        with pytest.raises(PosetError, match="unknown element: 'nope'"):
            getattr(bounded(chain_poset(2)), method)(*pair)

    @pytest.mark.parametrize("method", ["upset", "downset", "below", "above", "cones"])
    def test_element_queries(self, method):
        with pytest.raises(PosetError, match="unknown element: 'nope'"):
            getattr(chain_poset(2), method)("nope")

    @pytest.mark.parametrize("method", ["subposet", "remove", "is_antichain"])
    def test_element_sets(self, method):
        with pytest.raises(PosetError, match="unknown element: 'nope'"):
            getattr(chain_poset(3), method)(["1", "nope"])

    @pytest.mark.parametrize("bounds", [("nope", "2"), ("1", "nope")])
    def test_bounds(self, bounds):
        with pytest.raises(PosetError, match="unknown element: 'nope'"):
            BoundedPoset(chain_poset(2), *bounds)

    def test_complements(self):
        with pytest.raises(PosetError, match="unknown element: 'nope'"):
            bounded(chain_poset(3)).complements("nope")


class TestMobius:
    def test_boolean_3(self):
        B = bounded(boolean_lattice(3))
        assert B.mobius() == -1
        # independent recursion over the same subset order
        labels = list(B.poset.elements)
        assert oracles.brute_mobius(labels, B.poset.leq) == -1

    def test_chain_3(self):
        assert bounded(chain_poset(3)).mobius() == 0

    def test_partition_4(self):
        assert bounded(partition_lattice(4)).mobius() == -6

    @pytest.mark.parametrize("seed", range(12))
    def test_random_against_oracle(self, seed):
        B = random_bounded_poset(random.Random(seed))
        assert B.mobius() == oracles.brute_mobius(list(B.poset.elements), B.poset.leq)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_interval_against_oracle(self, seed):
        assert_every_interval_against_oracle(random_bounded_poset(random.Random(50 + seed)))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_partition_lattice_closed_form(self, n):
        assert bounded(partition_lattice(n)).mobius() == (-1) ** (n - 1) * factorial(n - 1)

    def test_long_chain_needs_no_recursion(self):
        assert bounded(chain_poset(3000)).mobius() == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_every_interval_of_closure_lattices(self, seed):
        assert_every_interval_against_oracle(random_closure_lattice(random.Random(700 + seed)))

    @pytest.mark.parametrize("seed", range(4))
    def test_every_interval_of_larger_posets(self, seed):
        # up to 16 elements: more values, and more of them below each z, than
        # on the 10-element posets above
        B = random_bounded_poset(random.Random(750 + seed), max_inner=14)
        assert_every_interval_against_oracle(B)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_boolean_lattice_closed_form(self, n):
        assert bounded(boolean_lattice(n)).mobius() == (-1) ** n

    @pytest.mark.parametrize(
        "sizes", [(), (1,), (5,), (2, 2), (3, 1, 4), (4, 3, 5, 2), (7,) * 6, (100,) * 50]
    )
    def test_ordinal_sum_of_antichains_closed_form(self, sizes):
        # mu is the reduced Euler characteristic of a join of discrete sets
        expected = (-1) ** (len(sizes) - 1) * prod(a - 1 for a in sizes)
        assert ordinal_sum_of_antichains(sizes).mobius() == expected

    def test_many_value_classes_cost_no_more_than_the_per_element_sum(self):
        B = many_value_classes()
        assert len(B) == 9902
        # 1 - 1001 + (1 + ... + 1000) + 3,400 cheap elements with mu = 1
        expected = -(1 - 1001 + 1000 * 1001 // 2 + 3400)
        reference, per_element_s = best_time(lambda: per_element_mobius(B))
        mu, mobius_s = best_time(B.mobius)
        assert mu == reference == expected
        assert mobius_s < 2 * per_element_s, (mobius_s, per_element_s)


class TestComplements:
    def test_boolean_3(self):
        B = bounded(boolean_lattice(3))
        assert B.complements("{1}") == {"{2,3}"}

    def test_partition_3(self):
        B = bounded(partition_lattice(3))
        assert B.complements("(12)(3)") == {"(13)(2)", "(1)(23)"}

    def test_chain_middle_has_none(self):
        assert bounded(chain_poset(3)).complements("2") == frozenset()

    def test_bounds_rejected(self):
        B = bounded(boolean_lattice(3))
        with pytest.raises(PosetError):
            B.complements("{}")

    def test_missing_join_reported_with_witness(self):
        # two incomparable maximal elements above the antichain: joins fail
        P = FinitePoset(
            ["bot", "a", "b", "t1", "t2", "top"],
            [("bot", "a"), ("bot", "b"), ("a", "t1"), ("a", "t2"), ("b", "t1"),
             ("b", "t2"), ("t1", "top"), ("t2", "top")],
        )
        B = BoundedPoset(P, "bot", "top")
        with pytest.raises(MeetJoinError, match="join"):
            B.complements("a")

    def test_dual_invariance(self):
        for gen in (boolean_lattice(3), partition_lattice(4)):
            B = bounded(gen)
            D = bounded(gen.dual())
            for z in B.truncate():
                assert B.complements(z) == D.complements(z)

    def test_disjoint_from_bounds(self):
        for gen in (boolean_lattice(4), partition_lattice(4)):
            B = bounded(gen)
            for z in B.truncate():
                co = B.complements(z)
                assert B.bottom not in co and B.top not in co


class TestCrapoComplementation:
    """Crapo's complementation theorem (Arch. Math. 1968): for every z of a
    finite lattice, mu(0, 1) = sum of mu(0, x) mu(y, 1) over x <= y in Co(z).
    Checked without homology; an empty Co(z) forces mu(0, 1) = 0."""

    @pytest.mark.parametrize(
        "lattice",
        [
            generate("boolean", 3),
            generate("boolean", 4),
            generate("partition", 4),
            generate("partition", 5),
            generate("product", boolean_lattice(2), chain_poset(3)),
            generate("product", chain_poset(2), chain_poset(3)),
        ],
        ids=["B3", "B4", "Pi4", "Pi5", "B2xC3", "C2xC3"],
    )
    def test_every_inner_element(self, lattice):
        self.check(bounded(lattice))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_closure_systems(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(10):
            self.check(random_closure_lattice(rng))

    @staticmethod
    def check(B):
        lattice = B.poset
        whole = oracles.brute_mobius(list(lattice.elements), lattice.leq)
        for z in B.truncate():
            co = B.complements(z)
            total = sum(
                B.mobius_pair(B.bottom, x) * B.mobius_pair(y, B.top)
                for x, y in product(co, repeat=2)
                if lattice.leq(x, y)
            )
            assert total == whole, z


class TestAntichainsAndCones:
    def test_coatoms_are_antichain(self):
        P = boolean_lattice(3)
        assert P.is_antichain(["{1,2}", "{1,3}", "{2,3}"])

    def test_chain_ends_not_antichain(self):
        assert not chain_poset(3).is_antichain(["1", "3"])

    def test_singleton(self):
        assert chain_poset(3).is_antichain(["2"])

    def test_cones_boolean(self):
        T = bounded(boolean_lattice(3)).truncate()
        lower, upper = T.cones("{1,2}")
        assert set(lower.elements) == {"{1}", "{2}"} and not lower.covers
        assert len(upper) == 0

    def test_cones_chain(self):
        lower, upper = chain_poset(3).cones("2")
        assert lower.elements == ("1",) and upper.elements == ("3",)

    def test_cones_partition_atom(self):
        P = partition_lattice(4)
        lower, upper = P.cones("(12)(3)(4)")
        assert len(lower) == 1  # only the discrete partition refines an atom
        assert len(upper) == 4  # three proper coarsenings keep 1,2 together, plus the top


class TestOrderComplex:
    def test_chain_is_simplex(self):
        K = chain_poset(3).order_complex()
        assert K.facets == {frozenset(["1", "2", "3"])}

    def test_antichain_is_points(self):
        K = FinitePoset(["a", "b", "c"]).order_complex()
        assert K.face_counts() == {0: 3}

    def test_truncated_boolean_3_is_hexagon(self):
        K = bounded(boolean_lattice(3)).truncate().order_complex()
        assert K.face_counts() == {0: 6, 1: 6}

    def test_empty_poset(self):
        assert FinitePoset([]).order_complex().is_empty

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_has_same_order_complex(self, seed):
        P = random_poset(random.Random(seed))
        assert P.order_complex() == P.dual().order_complex()

    @pytest.mark.parametrize("seed", range(10))
    def test_faces_closed_under_subsets(self, seed):
        K = random_poset(random.Random(100 + seed)).order_complex()
        faces = [f for fs in K.faces_by_dim().values() for f in fs]
        for f in faces:
            for i in range(len(f)):
                assert K.has_face(f[:i] + f[i + 1:])


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_covers_irredundant(self, seed):
        P = random_poset(random.Random(200 + seed))
        for a, b in P.covers:
            between = P.upset(a) & P.downset(b)
            assert not between

    @pytest.mark.parametrize("seed", range(10))
    def test_order_is_transitive_closure(self, seed):
        P = random_poset(random.Random(300 + seed))
        # brute-force reachability over the cover graph
        for a in P:
            reach = set()
            frontier = [b for (x, b) in P.covers if x == a]
            while frontier:
                b = frontier.pop()
                if b not in reach:
                    reach.add(b)
                    frontier += [c for (x, c) in P.covers if x == b]
            assert reach == set(P.upset(a))


def shuffled_order(seed):
    """Labels and random relations going up a hidden linear order of shuffled
    labels, so the label order is not a linear extension: the lowest element
    of the hidden order is below the highest and sorts after it."""
    rng = random.Random(seed)
    n = rng.randint(2, 11)
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)
    if labels[0] < labels[-1]:
        labels[0], labels[-1] = labels[-1], labels[0]
    density = rng.choice((0.2, 0.4, 0.7))
    rels = [(labels[0], labels[-1])]
    rels += [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    rng.shuffle(rels)
    return labels, rels


class TestAgainstOracles:
    """Each order query against Warshall's closure of the same relations,
    given once and with every relation listed twice."""

    @pytest.fixture(
        params=[(seed, 1) for seed in range(40)] + [(seed, 2) for seed in range(40)],
        ids=[str(seed) for seed in range(40)] + [f"twice-{seed}" for seed in range(40)],
    )
    def case(self, request):
        seed, copies = request.param
        labels, rels = shuffled_order(1000 + seed)
        less = oracles.strict_closure(labels, rels)
        return FinitePoset(labels, rels * copies), sorted(labels), less

    def test_equals_closure_poset(self, case):
        P, labels, less = case
        assert P == FinitePoset(labels, less)
        assert repr(P) == repr(FinitePoset(labels, less))

    def test_maximal_chains(self, case):
        P, labels, less = case
        chains = P.maximal_chains()
        assert len(set(chains)) == len(chains)
        assert sorted(chains) == oracles.brute_maximal_chains(labels, lambda a, b: (a, b) in less)

    def test_covers(self, case):
        P, labels, less = case
        expected = {
            (a, b) for a, b in less if not any((a, c) in less and (c, b) in less for c in labels)
        }
        assert P.covers == expected

    def test_upset_and_downset(self, case):
        P, labels, less = case
        for a in labels:
            assert P.upset(a) == {b for b in labels if (a, b) in less}
            assert P.downset(a) == {b for b in labels if (b, a) in less}

    def test_dual(self, case):
        P, labels, less = case
        assert P.dual() == FinitePoset(labels, [(b, a) for a, b in less])

    def test_subposet(self, case):
        P, labels, less = case
        rng = random.Random(len(less))
        for _ in range(5):
            keep = [a for a in labels if rng.random() < 0.6]
            kept = set(keep)
            induced = [(a, b) for a, b in less if a in kept and b in kept]
            assert P.subposet(keep) == FinitePoset(keep, induced)
