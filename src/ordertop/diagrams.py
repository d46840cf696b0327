"""Diagrams of finite posets over a finite base poset.

A diagram assigns a fiber poset to each base element and a monotone
connecting map D_{q'} -> D_q to each base relation q <= q' (maps go down).
Two flattenings are provided: the pair construction whose order uses the
fiber order through the connecting maps, and the strict-equality flattening
where x precedes y exactly when the connecting map sends y to x.  They agree
when every fiber is an antichain but differ in general, and no equivalence
between them is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import HomologyProfile, reduced_homology
from .posets import FinitePoset, PosetError, label_items, parse_poset


class DiagramError(ValueError):
    """Structurally invalid diagram input."""


class PosetDiagram:
    """Base poset, fiber posets, and connecting maps for the base covers.

    ``maps[(q, q')]`` sends elements of the fiber over q' to the fiber over q
    and must be supplied for every cover q < q' of the base; maps for longer
    relations are composites.  ``validate`` checks identity, monotonicity and
    path-independence of composition.
    """

    def __init__(
        self,
        base: FinitePoset,
        fibers: dict[str, FinitePoset],
        maps: dict[tuple[str, str], dict[str, str]],
    ):
        self.base = base
        self.fibers = dict(fibers)
        self.maps = {pair: dict(m) for pair, m in maps.items()}
        for q in base:
            if q not in self.fibers:
                raise DiagramError(f"missing fiber for base element {q!r}")
        for q in self.fibers:
            if q not in base:
                raise DiagramError(f"fiber for {q!r}, which is not a base element")
        for q, q2 in self.maps:
            if not base.lt(q, q2):
                raise DiagramError(f"map pair ({q!r}, {q2!r}) is not a base relation")
        for a, b in base.covers:
            if (a, b) not in self.maps:
                raise DiagramError(f"missing connecting map for base cover {a!r} < {b!r}")


@dataclass(frozen=True)
class DiagramReport:
    """Validation verdict with one witness string per failure."""

    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _check(D: PosetDiagram) -> list[str]:
    """The failures of one pass over the maps.

    Each strict base relation gets its supplied map, or else the composite
    through its smallest intermediate element; every other composite must
    agree with the chosen map.  Relations come in order of interval size, so
    both halves of every composite through an intermediate element are
    chosen before it, and a cover, with no intermediate element, always has
    its supplied map (``PosetDiagram`` requires one).
    """
    failures: list[str] = []
    base = D.base
    for (q, q2), mapping in sorted(D.maps.items()):
        upper, lower = D.fibers[q2], D.fibers[q]
        for x in upper:
            if x not in mapping:
                failures.append(f"map {q}<{q2}: no image for {x!r}")
            elif mapping[x] not in lower:
                failures.append(f"map {q}<{q2}: image {mapping[x]!r} not in fiber {q!r}")
        for x in mapping:
            if x not in upper:
                failures.append(f"map {q}<{q2}: domain element {x!r} not in fiber {q2!r}")
    if failures:
        return failures

    for (q, q2), mapping in sorted(D.maps.items()):
        upper = D.fibers[q2]
        lower = D.fibers[q]
        for x in upper:
            for y in upper.upset(x):
                if not lower.leq(mapping[x], mapping[y]):
                    failures.append(
                        f"map {q}<{q2} is not monotone: {x!r} <= {y!r} but "
                        f"{mapping[x]!r} !<= {mapping[y]!r}"
                    )

    composite: dict[tuple[str, str], dict[str, str]] = {}
    pairs = sorted(
        ((a, b) for a in base for b in base.upset(a)),
        key=lambda p: (len(base.upset(p[0]) & base.downset(p[1])), p),
    )
    for a, b in pairs:
        via = sorted(base.upset(a) & base.downset(b))
        candidates = []
        if (a, b) in D.maps:
            candidates.append(("given", D.maps[(a, b)]))
        for w in via:
            lower, upper = composite[(a, w)], composite[(w, b)]
            candidates.append((w, {x: lower.get(upper.get(x)) for x in D.fibers[b]}))
        _, first = candidates[0]
        for name, other in candidates[1:]:
            if other != first:
                failures.append(
                    f"composition mismatch for {a!r} < {b!r}: path via {name!r} disagrees"
                )
        composite[(a, b)] = first
    return failures


def validate(D: PosetDiagram) -> DiagramReport:
    """Check identities, totality, codomains, monotonicity, and that all
    cover-path composites agree (plus any supplied long maps)."""
    return DiagramReport(tuple(_check(D)))


def _valid_pair_labels(D: PosetDiagram) -> dict[tuple[str, str], str]:
    """The label x@q of each fiber element x over each base element q of a
    valid diagram."""
    failures = _check(D)
    if failures:
        raise DiagramError("invalid diagram: " + "; ".join(failures[:3]))
    return label_items(((x, q) for q in D.base for x in D.fibers[q]), "{}@{}".format, "pairs")


def _cover_images(D: PosetDiagram, lab: dict[tuple[str, str], str]) -> list[tuple[str, str]]:
    """The relations (f(y), q) < (y, q') for every base cover q < q' and y
    over q', f its connecting map.  They generate the strict-equality
    flattening, and with the fibers' covers the Grothendieck order, because
    the composites along cover paths agree."""
    return [(lab[x, q], lab[y, q2]) for q, q2 in D.base.covers for y, x in D.maps[q, q2].items()]


def grothendieck(D: PosetDiagram) -> FinitePoset:
    """Poset on fiber-element/base-element pairs: (x, q) <= (y, q') when
    q <= q' and x lies below the image of y in the fiber over q."""
    lab = _valid_pair_labels(D)
    rels = [(lab[x, q], lab[y, q]) for q in D.base for x, y in D.fibers[q].covers]
    return FinitePoset(lab.values(), rels + _cover_images(D, lab))


def diagram_flatten(D: PosetDiagram) -> FinitePoset:
    """Strict-equality flattening: fibers count as antichains and x < y holds
    exactly when the connecting map sends y to x."""
    lab = _valid_pair_labels(D)
    return FinitePoset(lab.values(), _cover_images(D, lab))


@dataclass(frozen=True)
class CylinderReport:
    """Homology of the flattened total poset against the lower fiber."""

    lower_profile: HomologyProfile
    total_profile: HomologyProfile

    @property
    def passed(self) -> bool:
        return self.lower_profile == self.total_profile


def cylinder_check(D: PosetDiagram, coeff: str = "Z") -> CylinderReport:
    """Over a two-element chain the flattened poset is a mapping cylinder and
    retracts to the lower fiber, so the two homology profiles must agree."""
    base = D.base
    if len(base) != 2 or len(base.covers) != 1:
        raise DiagramError("cylinder check needs a two-element chain base")
    ((lo, _hi),) = base.covers
    total = grothendieck(D)
    return CylinderReport(
        lower_profile=reduced_homology(D.fibers[lo].order_complex(), coeff),
        total_profile=reduced_homology(total.order_complex(), coeff),
    )


# -- the .pdiag text format ----------------------------------------------------


def parse_pdiag(text: str) -> PosetDiagram:
    """Parse the ``.pdiag`` format.

    A ``base:`` block and one ``fiber <q>:`` block per base element, each in
    ``.poset`` syntax; one ``map <q> <q'>: x->y, ...`` line per base cover,
    where x is in the fiber over q' and y is its image in the fiber over q.
    A line holding ``<`` is a relation of the current block, never a header.
    """
    base_lines: list[str] | None = None
    fiber_lines: dict[str, list[str]] = {}
    map_bodies: dict[tuple[str, str], str] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        header = "" if "<" in stripped else stripped  # "map < x" is a relation
        if header == "base:":
            if base_lines is not None:
                raise DiagramError("duplicate base: block")
            current = base_lines = []
            continue
        if header.startswith("fiber ") and header.endswith(":"):
            q = stripped[len("fiber "):-1].strip()
            if q in fiber_lines:
                raise DiagramError(f"duplicate fiber block for {q!r}")
            current = fiber_lines.setdefault(q, [])
            continue
        if header.startswith("map "):
            head, _, body = stripped.partition(":")
            parts = head.split()
            if len(parts) != 3:
                raise DiagramError(f"malformed map header: {stripped!r}")
            key = (parts[1], parts[2])
            if key in map_bodies:
                raise DiagramError(f"duplicate map block for {key}")
            map_bodies[key] = body
            current = None
            continue
        if current is None:
            raise DiagramError(f"line outside any block: {stripped!r}")
        current.append(line)

    if not base_lines:
        raise DiagramError("missing base: block")

    def block(name: str, lines: list[str]) -> FinitePoset:
        try:
            return parse_poset("\n".join(lines))
        except PosetError as exc:
            raise DiagramError(f"{name}: {exc}") from exc

    base = block("base", base_lines)
    fibers = {q: block(f"fiber {q!r}", lines) for q, lines in fiber_lines.items()}
    maps = {
        (q, q2): _map_entries(body, fibers.get(q2, ()), fibers.get(q, ()))
        for (q, q2), body in map_bodies.items()
    }
    return PosetDiagram(base, fibers, maps)


def _map_entries(body: str, upper, lower) -> dict[str, str]:
    """The ``x->y, ...`` entries of a map body, x declared in ``upper`` and y
    in ``lower``.  Commas separate entries, except that a piece naming no
    declared pair is joined to the next pieces when they together name one,
    so labels declared with commas, like ``poset_product``'s, stay whole.
    An entry is split at its first arrow whose two sides name a declared
    pair, so labels declared with ``->`` stay whole too, and at its first
    arrow when none does."""

    # the left side of a declared pair holds no more arrows than a label of upper
    arrows = 1 + max((lab.count("->") for lab in upper), default=0)

    def splits(item: str) -> list[tuple[str, str]]:
        parts = item.split("->", arrows)  # "->" cannot overlap itself
        join = "->".join
        return [(join(parts[:i]).strip(), join(parts[i:]).strip()) for i in range(1, len(parts))]

    def names_pair(item: str) -> tuple[str, str] | None:
        return next(((x, y) for x, y in splits(item) if x in upper and y in lower), None)

    # an entry spans one piece more than the commas in its two labels
    reach = 1 + sum(max((lab.count(",") for lab in P), default=0) for P in (upper, lower))
    pieces = body.split(",")
    mapping: dict[str, str] = {}
    i = 0
    while i < len(pieces):
        joins = (",".join(pieces[i:e]) for e in range(i + 1, min(i + reach, len(pieces)) + 1))
        item = next((j for j in joins if names_pair(j)), pieces[i]).strip()
        i += item.count(",") + 1
        if item:
            pair = names_pair(item) or next(iter(splits(item)), None)
            if pair is None:
                raise DiagramError(f"malformed map entry: {item!r}")
            mapping[pair[0]] = pair[1]
    return mapping
