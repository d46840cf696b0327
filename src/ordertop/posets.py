"""Finite posets: parsing, generators, Mobius function, complements, order complexes.

Order data is kept over the canonical (lexicographic) element ordering and
computed in one topological pass over each element's successors: per
element, its strict up-set and down-set as index bitmasks and its covers as
an ascending tuple of indices.  Comparability queries, cone extraction and
brute-force meets/joins use the masks as sets; maximal chains, cover
listings and the derived posets walk the cover tuples.

Labels are made and checked once, at the edge, and one helper
(``_checked_labels``) checks a declared label list for both the public
constructor and the ``.poset`` reader.  Every poset, from either of those or
from a generator, a derived poset or a dual, is built by one order core
(``FinitePoset._from_ids``) from its labels in any order and integer
successor lists by position; it is the one place that sorts the labels and
renumbers the successors, and labels already sorted cost it one comparison
pass.  The public constructor and the ``.poset`` reader number the labels
as declared and map each relation's labels to those numbers once.  The
generators give covers only, in generation order: Pi_n from restricted
growth strings with array merges, the subset posets from their drop-one
covers, products from the factors' covers.  Induced subposets and duals are
read off the covers of the poset they come from.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations
from typing import Callable, Iterable, Iterator

import numpy as np

from . import complexes
from .complexes import FaceTable, SimplicialComplex

# Most elements a ``FinitePoset`` takes.  Its up-set and down-set masks grow
# as n^2/8 bytes each for a chain of n elements: an 80,000-element chain
# reached 1.72 GB, and 10,000 elements cost at most about 25 MB.  The full
# partition lattice Pi_8 has 4,140 elements.
MAX_ELEMENTS = 10_000


class PosetError(ValueError):
    """Malformed poset input: duplicate or unknown labels, cycles."""


class MeetJoinError(PosetError):
    """A required meet or join does not exist; the witness element is reported."""


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise PosetError(f"element label must be a nonempty string, got {label!r}")
    if label.split() != [label] or "<" in label:
        raise PosetError(f"element label may not contain whitespace or '<': {label!r}")
    if "#" in label or ";" in label:
        raise PosetError(f"element label may not contain '#' or ';' (.poset syntax): {label!r}")
    return label


def _counted() -> int:
    """The largest element count a refusal names exactly.  The generators
    stop counting past it, so that a refusal of any argument is quick and
    its message short."""
    return MAX_ELEMENTS**2


def _check_size(n: int) -> None:
    if n > MAX_ELEMENTS:
        shown = n if n <= _counted() else f"more than {_counted()}"
        raise PosetError(f"a poset of {shown} elements is above the limit {MAX_ELEMENTS}")


def _checked_labels(labels: list[str]) -> tuple[str, ...]:
    """The labels, each checked, in the given order; a label given twice is
    refused, naming the first in the given order that repeats."""
    for lab in labels:
        _check_label(lab)
    _check_size(len(labels))
    if len(set(labels)) != len(labels):
        counts = Counter(labels)
        dup = next(lab for lab in labels if counts[lab] > 1)
        raise PosetError(f"duplicate element label: {dup!r}")
    return tuple(labels)


class FinitePoset:
    """Immutable finite poset on string labels.

    Built from a collection of labels (a bare string is refused) and
    arbitrary strict relations, each a pair of labels, or inside this
    module from labels and successor index lists (``_from_ids``).  The
    constructor numbers the labels as given and hands over to ``_from_ids``,
    which sorts them into ``elements`` and ends in one topological pass
    (Kahn's order) over each element's distinct successors: from the top of
    that order down, each element's up-set is its successors together with
    their up-sets, and its covers are the successors that no other successor
    lies below (the transitive reduction); the down-sets then follow the
    covers upward.  Up-sets and down-sets are index bitmasks, covers
    ascending index tuples.  Cycles (including a < a) are rejected, naming
    an element on one.
    """

    __slots__ = ("elements", "_index", "_up", "_down", "_cover")

    def __init__(self, elements: Iterable[str], relations: Iterable[tuple[str, str]] = ()):
        if isinstance(elements, str):
            raise PosetError(f"elements must be a collection of labels, not a string: {elements!r}")
        labels = _checked_labels(list(elements))
        index = {lab: i for i, lab in enumerate(labels)}
        nexts: list[list[int]] = [[] for _ in labels]
        for rel in relations:
            try:
                a, b = rel
            except (TypeError, ValueError):
                a = b = None
            if isinstance(rel, str) or not (isinstance(a, str) and isinstance(b, str)):
                raise PosetError(f"a relation must be a pair of labels, got {rel!r}")
            if a not in index or b not in index:
                raise PosetError(f"unknown element: {a if a not in index else b!r}")
            if a == b:
                raise PosetError(f"cycle in relations: {a!r} < {a!r}")
            nexts[index[a]].append(index[b])
        built = self._from_ids(labels, [list(dict.fromkeys(js)) for js in nexts])  # no repeats
        for name in self.__slots__:
            setattr(self, name, getattr(built, name))

    @classmethod
    def _from_ids(cls, labels: Iterable[str], nexts: list[list[int]]) -> "FinitePoset":
        """The poset on ``labels``, distinct and checked, in any order, in
        which ``nexts[i]``, a list of its own, holds the distinct successors
        of ``labels[i]`` by position.  Every poset is built here, with no
        label pair.  This is the one place that sorts labels into
        ``elements`` and renumbers the successors to match, in the given
        lists; labels already sorted cost one comparison pass (the sort
        finds a single run) and no renumbering."""
        labels = tuple(labels)
        _check_size(len(labels))
        elements = tuple(sorted(labels))
        index = {lab: i for i, lab in enumerate(elements)}
        if elements != labels:
            rank = [index[lab] for lab in labels]
            ordered: list[list[int]] = [[]] * len(labels)
            for js, r in zip(nexts, rank):
                js[:] = map(rank.__getitem__, js)  # in place: the lists are not held twice
                ordered[r] = js
            nexts = ordered
        self = object.__new__(cls)
        self.elements = elements
        self._index = index
        self._order(nexts)
        return self

    def _order(self, nexts: list[list[int]]) -> None:
        """Set the up-sets, down-sets and covers from distinct successor lists."""
        n = len(nexts)
        indeg = [0] * n  # predecessors not yet placed in the order
        for js in nexts:
            for j in js:
                indeg[j] += 1
        # Kahn's order; the loop also visits the elements it appends.
        order = [i for i in range(n) if not indeg[i]]
        for i in order:
            for j in nexts[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) < n:
            # Every unplaced element has an unplaced predecessor, so n steps
            # back from any of them end on a cycle.
            pred = {j: i for i in range(n) if indeg[i] for j in nexts[i]}
            j = next(i for i in range(n) if indeg[i])
            for _ in range(n):
                j = pred[j]
            raise PosetError(f"cycle in relations through {self.elements[j]!r}")

        up = [0] * n
        cover: list[tuple[int, ...]] = [()] * n
        for i in reversed(order):
            above = succ = 0
            for j in nexts[i]:
                above |= up[j]
                succ |= 1 << j
            up[i] = succ | above
            cover[i] = tuple(sorted([j for j in nexts[i] if not above >> j & 1]))
        down = [0] * n
        for i in order:
            below = down[i] | 1 << i
            for j in cover[i]:
                down[j] |= below
        self._up = tuple(up)
        self._down = tuple(down)
        self._cover = tuple(cover)

    # -- basic queries ------------------------------------------------------

    def _idx(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise PosetError(f"unknown element: {label!r}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.elements, self._up))

    def __repr__(self) -> str:
        covers = sum(map(len, self._cover))
        return f"FinitePoset({len(self)} elements, {covers} covers)"

    def lt(self, a: str, b: str) -> bool:
        return bool(self._up[self._idx(a)] >> self._idx(b) & 1)

    def leq(self, a: str, b: str) -> bool:
        i, j = self._idx(a), self._idx(b)
        return i == j or bool(self._up[i] >> j & 1)

    def comparable(self, a: str, b: str) -> bool:
        return self.leq(a, b) or self.lt(b, a)

    @property
    def covers(self) -> frozenset[tuple[str, str]]:
        """Irredundant cover pairs (a, b): a < b with nothing in between."""
        E = self.elements
        return frozenset((E[i], E[j]) for i, cs in enumerate(self._cover) for j in cs)

    def upset(self, a: str) -> frozenset[str]:
        return frozenset(self.elements[j] for j in _bits(self._up[self._idx(a)]))

    def downset(self, a: str) -> frozenset[str]:
        return frozenset(self.elements[j] for j in _bits(self._down[self._idx(a)]))

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if not self._down[i])

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if not self._up[i])

    def _mask(self, labels: Iterable[str]) -> int:
        """The index bits of the given elements, each one known."""
        return sum(1 << i for i in {self._idx(lab) for lab in labels})

    def is_antichain(self, labels: Iterable[str]) -> bool:
        """True iff no two distinct members of the set are comparable."""
        mask = self._mask(labels)
        return not any(self._up[i] & mask for i in _bits(mask))

    # -- derived posets -----------------------------------------------------

    def _induced(self, keep: int) -> "FinitePoset":
        """Induced subposet on the index bits set in keep.

        From each kept element the walk goes up the covers, through removed
        elements only while a kept element lies above them, and stops at
        kept ones; the covers of the subposet are the minimal kept elements
        it reaches.
        """
        up, down, cover = self._up, self._down, self._cover
        idx = list(_bits(keep))
        new_id = dict(zip(idx, range(len(idx))))
        nexts = []
        for x in idx:
            found, passed = [], 0
            stack = [x]
            while stack:
                for y in cover[stack.pop()]:
                    if y in new_id:
                        found.append(y)
                    elif up[y] & keep and not passed >> y & 1:
                        passed |= 1 << y
                        stack.append(y)
            if passed:  # then some found elements may repeat or lie above others
                found = set(found)
                reached = sum(1 << z for z in found)
                found = [z for z in found if not down[z] & reached]
            nexts.append([new_id[z] for z in found])
        return FinitePoset._from_ids(tuple(self.elements[i] for i in idx), nexts)

    def subposet(self, labels: Iterable[str]) -> "FinitePoset":
        """Induced subposet on the given elements."""
        return self._induced(self._mask(labels))

    def below(self, y: str) -> "FinitePoset":
        return self._induced(self._down[self._idx(y)])

    def above(self, y: str) -> "FinitePoset":
        return self._induced(self._up[self._idx(y)])

    def cones(self, y: str) -> tuple["FinitePoset", "FinitePoset"]:
        """The open lower and upper cones at y, with the restricted order."""
        return self.below(y), self.above(y)

    def dual(self) -> "FinitePoset":
        nexts: list[list[int]] = [[] for _ in self.elements]
        for i, cs in enumerate(self._cover):
            for j in cs:
                nexts[j].append(i)
        return FinitePoset._from_ids(self.elements, nexts)

    def remove(self, labels: Iterable[str]) -> "FinitePoset":
        """Induced subposet without the given elements."""
        return self._induced((1 << len(self)) - 1 & ~self._mask(labels))

    # -- chains and the order complex --------------------------------------

    def maximal_chains(self) -> list[tuple[str, ...]]:
        """All maximal chains, as ascending label tuples, counted before any is built."""
        E, cover = self.elements, self._cover
        # per element, the maximal chains of its up-set and their total length
        chains, ids = [0] * len(E), [0] * len(E)
        for i in sorted(range(len(E)), key=lambda i: self._up[i].bit_count()):
            chains[i] = sum(chains[j] for j in cover[i]) or 1
            ids[i] = chains[i] + sum(ids[j] for j in cover[i])
        total = sum(ids[i] for i in range(len(E)) if not self._down[i])
        if total > complexes.MAX_STACK_ENTRIES:
            raise PosetError(
                f"the maximal chains need a table of {total} element ids, "
                f"above the limit {complexes.MAX_STACK_ENTRIES}"
            )
        out = []
        stack = [((e,), i) for i, e in enumerate(E) if not self._down[i]]
        while stack:
            chain, i = stack.pop()
            if not cover[i]:
                out.append(chain)
            else:
                stack.extend((chain + (E[j],), j) for j in cover[i])
        return out

    def order_complex(self) -> "OrderComplex":
        """Complex of all chains; facets are the maximal chains."""
        return OrderComplex(self)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OrderComplex(SimplicialComplex):
    """The order complex of a poset: its faces are the chains of ``poset``.

    It is the complex of the maximal chains, equal to the plain
    ``SimplicialComplex`` of those facets.  It overrides only its face
    table, read off the order of ``poset`` (``_chain_table``) instead of the
    facet labels; face counts and boundary matrices come from that table's
    rows from degree 0 up, as for any complex.
    """

    __slots__ = ("poset",)

    def __init__(self, poset: FinitePoset):
        SimplicialComplex.__init__(self, poset.maximal_chains())
        self.poset = poset

    def face_table(self) -> FaceTable:
        """The chains as integer arrays, ids numbered from the top of the poset down."""
        return _chain_table(self.poset)


def _chain_levels(P: FinitePoset) -> tuple[list[int], np.ndarray, np.ndarray, list[int]]:
    """P numbered from the top down, the strict down-sets in those ids, and
    the number of chains of each size, every count checked against the face
    table's limit before anything of its size is built.

    Returns ``(order, ptr, keys, counts)``.  ``order[i]`` is the index in
    ``P.elements`` of id i.  Ids go by strict up-set size, smallest first,
    ties in label order: a linear extension of the dual, so every chain
    ascends in ids from its top element down.  (On Pi_4 to Pi_7 and
    exp_discrete(8, 4) and (11, 4), under the generators' labels, this
    numbering makes every pivot of every coboundary apparent; numbering from
    the bottom up, larger up-sets first, leaves 18 of exp_discrete(11, 4)'s
    13,431 to the reduction loop.  The ties make it depend on the labels:
    relabelled at random, the proper part of Pi_6 leaves about 530 of its
    6,312 coboundary columns to the loop.)  The down-set of id a is
    ``keys[ptr[a]:ptr[a+1]] - a * n``, ascending: ``keys`` holds a * n + b
    for every pair b < a of P, sorted.  ``counts[k]`` is the number of
    k-chains (chains of k + 1 elements); ``complexes.MAX_STACK_ENTRIES``
    bounds (k + 1) * counts[k].
    """
    up, down = P._up, P._down
    n = len(up)
    pairs = sum(m.bit_count() for m in down)
    complexes._check_stack(2, 2 * pairs)
    order = sorted(range(n), key=lambda i: up[i].bit_count())
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n)
    degree = np.fromiter((down[i].bit_count() for i in order), np.int64, n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=ptr[1:])
    lower = np.fromiter((j for i in order for j in _bits(down[i])), np.int64, pairs)
    source = np.repeat(np.arange(n), degree)
    keys = source * n + new_id[lower]
    keys.sort()  # each down-set ascending; the sources already are
    lower = keys % n
    counts: list[int] = []
    ends = np.ones(n)  # per id, the chains of the current size that end there
    # Every sum is of counts already checked, so far below 2^53: exact.
    while total := int(ends.sum()):
        complexes._check_stack(len(counts) + 1, (len(counts) + 1) * total)
        counts.append(total)
        ends = np.bincount(lower, weights=ends[source], minlength=n)
    return order, ptr, keys, counts


def _chain_table(P: FinitePoset) -> FaceTable:
    """The face table of P's order complex, grown as a trie of chains.

    Ids are those of ``_chain_levels``, so a chain's row lists it from the
    top down.  Level k holds the k-chains in lexicographic order: each
    (k-1)-chain followed by its extensions by the down-set of its last
    element, ascending, so no level is sorted.  No chain is built as a row:
    a level keeps each chain's last element, and its first child and shift
    while the next two levels are built.  The extension of a chain x by v
    sits at ``searchsorted(keys, last[x] * n + v) + shift[x]``, where
    ``shift[x]`` is the position of x's first child less that of its last
    element's down-set in ``keys``.  In the boundary of a k-chain
    v_0, ..., v_k, column 0 (drop v_k) is its parent.  Column p >= 1 drops
    v_{k-p}: that is the parent's own column p - 1, a (k-2)-chain d,
    extended by v_k.  For p >= 2 the last element of d is v_{k-1}, so the
    face is d's first child plus the rank of v_k among the face's own
    siblings; for p = 1, d is the grandparent and one ``searchsorted`` finds
    it.
    """
    order, ptr, keys, counts = _chain_levels(P)
    n = len(order)
    vertices = tuple(P.elements[i] for i in order)
    boundary_rows: dict[int, np.ndarray] = {}
    degree = np.diff(ptr)
    lower = keys % n  # the lower element of each pair, by key
    last = np.arange(n)  # the last element of each chain of the level below
    below = None  # (last, first child, shift) of the level two down
    for k in range(1, len(counts)):
        child_count = degree[last]
        first_child = np.cumsum(child_count) - child_count
        shift = first_child - ptr[last]
        parent = np.repeat(np.arange(len(last)), child_count)
        face = np.arange(counts[k])
        added = lower[face - shift[parent]]
        rows = np.empty((counts[k], k + 1), dtype=np.int64)
        rows[:, 0] = parent
        if k == 1:
            rows[:, 1] = added
        else:
            upper = boundary_rows[k - 1][parent]
            grand_last, grand_first, grand_shift = below
            grand = upper[:, 0]
            rows[:, 1] = np.searchsorted(keys, grand_last[grand] * n + added) + grand_shift[grand]
            siblings = face - first_child[parent]
            rows[:, 2:] = grand_first[upper[:, 1:]] + siblings[:, None]
        boundary_rows[k] = rows
        below = (last, first_child, shift)
        last = added
    return FaceTable(vertices, boundary_rows)


class BoundedPoset:
    """A finite poset with distinguished bottom and top elements."""

    __slots__ = ("poset", "bottom", "top")

    def __init__(self, poset: FinitePoset, bottom: str, top: str):
        if bottom == top:
            raise PosetError("bottom and top must be distinct")
        b, t = poset._idx(bottom), poset._idx(top)
        between = (poset._up[b] | 1 << b) & (poset._down[t] | 1 << t)
        outside = ~between & ((1 << len(poset)) - 1)
        if outside:
            e = poset.elements[next(_bits(outside))]
            raise PosetError(f"element {e!r} is not between the given bounds")
        self.poset = poset
        self.bottom = bottom
        self.top = top

    @classmethod
    def from_poset(cls, poset: FinitePoset) -> "BoundedPoset":
        mins, maxs = poset.minimal_elements(), poset.maximal_elements()
        if len(mins) != 1 or len(maxs) != 1:
            raise PosetError("poset is not bounded: bottom or top is not unique")
        return cls(poset, mins[0], maxs[0])

    def __len__(self) -> int:
        return len(self.poset)

    def __repr__(self) -> str:
        return f"BoundedPoset({len(self.poset)} elements, {self.bottom!r}..{self.top!r})"

    def truncate(self) -> FinitePoset:
        """The proper part: everything strictly between bottom and top."""
        return self.poset.remove((self.bottom, self.top))

    # -- meets, joins, complements ------------------------------------------

    def meet(self, a: str, b: str) -> str | None:
        """Greatest lower bound by brute force; None when it does not exist."""
        P = self.poset
        ia, ib = P._idx(a), P._idx(b)
        common = (P._down[ia] | 1 << ia) & (P._down[ib] | 1 << ib)
        tops = [j for j in _bits(common) if not P._up[j] & common]
        return P.elements[tops[0]] if len(tops) == 1 else None

    def join(self, a: str, b: str) -> str | None:
        P = self.poset
        ia, ib = P._idx(a), P._idx(b)
        common = (P._up[ia] | 1 << ia) & (P._up[ib] | 1 << ib)
        bottoms = [j for j in _bits(common) if not P._down[j] & common]
        return P.elements[bottoms[0]] if len(bottoms) == 1 else None

    def is_lattice(self) -> bool:
        return all(
            self.meet(a, b) is not None and self.join(a, b) is not None
            for a, b in combinations(self.poset.elements, 2)
        )

    def complements(self, z: str) -> frozenset[str]:
        """All x in the proper part with x meet z = bottom and x join z = top.

        Meets and joins with z must exist for every x; a missing one raises
        MeetJoinError naming the witness.
        """
        if z in (self.bottom, self.top):
            raise PosetError("z must lie strictly between the bounds")
        self.poset._idx(z)
        out = []
        for x in self.poset.elements:
            if x in (self.bottom, self.top):
                continue
            m, j = self.meet(x, z), self.join(x, z)
            if m is None:
                raise MeetJoinError(f"meet of {x!r} and {z!r} does not exist")
            if j is None:
                raise MeetJoinError(f"join of {x!r} and {z!r} does not exist")
            if m == self.bottom and j == self.top:
                out.append(x)
        return frozenset(out)

    # -- Mobius function -----------------------------------------------------

    def mobius_pair(self, x: str, y: str) -> int:
        """mu(x, y).

        mu(x, z) = -sum(mu(x, w) for x <= w < z) is evaluated for every z of
        the interval [x, y] in a linear extension (by down-set size), without
        recursion.  Only the w with mu(x, w) != 0 count, and those met so far
        are kept in value classes: one bitmask per value v.  When there are
        fewer classes than such w below z, the sum is read as
        sum(v * popcount(below & class_v)); otherwise it adds mu(x, w) one w
        at a time.  So no z costs more than its per-element sum and one
        popcount, and the classes stay few where they matter: two on a
        Boolean lattice, at most one per layer on an ordinal sum of
        antichains.
        """
        P = self.poset
        ix, iy = P._idx(x), P._idx(y)
        if ix == iy:
            return 1
        if not P._up[ix] >> iy & 1:
            return 0
        interval = P._up[ix] & (P._down[iy] | 1 << iy)
        mu = {ix: 1}  # the z in [x, y] with mu(x, z) != 0 so far
        nonzero = 1 << ix
        classes = {1: nonzero}  # value v -> the z with mu(x, z) = v so far
        for z in sorted(_bits(interval), key=lambda j: P._down[j].bit_count()):
            below = P._down[z] & nonzero
            if len(classes) < below.bit_count():
                m = -sum(v * (below & zs).bit_count() for v, zs in classes.items())
            else:
                m = -sum(mu[w] for w in _bits(below))
            if m:
                mu[z] = m
                nonzero |= 1 << z
                classes[m] = classes.get(m, 0) | 1 << z
        return mu.get(iy, 0)

    def mobius(self) -> int:
        """The Mobius number mu(bottom, top)."""
        return self.mobius_pair(self.bottom, self.top)


# -- generators --------------------------------------------------------------


def chain_poset(k: int) -> FinitePoset:
    """Total order on k elements labeled 1..k."""
    if k < 0:
        raise PosetError("chain length must be >= 0")
    _check_size(k)
    nexts = [[i + 1] if i + 1 < k else [] for i in range(k)]
    return FinitePoset._from_ids([str(i) for i in range(1, k + 1)], nexts)


def _subset_poset(sets: Iterable[tuple]) -> FinitePoset:
    """Inclusion order on a family of sets, each a sorted tuple, from the
    covers b - {x} < b.

    The closure of those covers is the inclusion order when the family holds
    every set between any two of its members, as the down-closed and
    size-bounded families of the generators below do.
    """
    labels = label_items(sets, lambda *s: "{" + ",".join(map(str, s)) + "}", "sets")
    elements = [_check_label(lab) for lab in labels.values()]
    ids = dict(zip(labels, range(len(labels))))
    nexts: list[list[int]] = [[] for _ in elements]
    for b, i in ids.items():
        for x in range(len(b)):
            f = ids.get(b[:x] + b[x + 1 :])
            if f is not None:
                nexts[f].append(i)
    return FinitePoset._from_ids(elements, nexts)


def boolean_lattice(n: int) -> FinitePoset:
    """All subsets of {1..n}, including the empty set, ordered by inclusion."""
    if n < 0:
        raise PosetError("boolean rank must be >= 0")
    _check_size(2 ** min(n, _counted().bit_length()))
    return _subset_poset(c for k in range(n + 1) for c in combinations(range(1, n + 1), k))


def exp_discrete_poset(m: int, n: int) -> FinitePoset:
    """Nonempty subsets of {1..m} of cardinality at most n, by inclusion."""
    if not 1 <= n <= m:
        raise PosetError(f"need 1 <= n <= m, got n={n}, m={m}")
    total, term = 0, 1
    for k in range(1, n + 1):
        term = term * (m - k + 1) // k  # comb(m, k)
        total += term
        if total > _counted():
            break
    _check_size(total)
    return _subset_poset(c for k in range(1, n + 1) for c in combinations(range(1, m + 1), k))


def _bell(n: int) -> int:
    """The number of set partitions of {1..n}, n >= 1, or a number above
    ``_counted()`` when that is: the last entry of row n of the Bell
    triangle, each row starting with the last of the one before."""
    row = [1]
    for _ in range(n - 1):
        if row[-1] > _counted():
            break
        row = list(accumulate(row, initial=row[-1]))
    return row[-1]


_ITEM_CHARS = np.frombuffer(b"123456789abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)


def _growth_strings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The restricted growth strings of length n >= 1 as the rows of an int
    array, in lexicographic order, and each one's number of blocks.

    A set partition of {1..n} is the string s with s[i] the block of item
    i + 1, blocks numbered by their least item (Knuth, TAOCP 4A, 7.2.1.5):
    s[0] = 0 and each s[i] is at most 1 + max(s[:i]).
    """
    strings = np.zeros((1, 1), dtype=np.int64)
    top = np.zeros(1, dtype=np.int64)  # the largest entry of each string
    for _ in range(n - 1):
        count = top + 2  # the choices for the next entry
        first = np.cumsum(count) - count
        entry = np.arange(int(count.sum())) - np.repeat(first, count)
        strings = np.column_stack((np.repeat(strings, count, axis=0), entry))
        top = np.maximum(np.repeat(top, count), entry)
    return strings, top + 1


def _partition_labels(strings: np.ndarray) -> list[str]:
    """The ``(13)(2)`` label of each growth string: blocks by least item,
    each item one character."""
    count, n = strings.shape
    items = np.argsort(strings * n + np.arange(n), axis=1)  # grouped by block
    blocks = np.take_along_axis(strings, items, axis=1)
    opens = np.ones((count, n), dtype=bool)
    opens[:, 1:] = blocks[:, 1:] != blocks[:, :-1]
    closes = np.ones((count, n), dtype=bool)
    closes[:, :-1] = opens[:, 1:]
    chars = np.zeros((count, 3 * n + 1), dtype=np.uint8)  # 0 marks no character
    chars[:, 0:-1:3] = np.where(opens, ord("("), 0)
    chars[:, 1:-1:3] = _ITEM_CHARS[items]
    chars[:, 2:-1:3] = np.where(closes, ord(")"), 0)
    chars[:, -1] = ord(" ")
    return chars[chars != 0].tobytes().decode("ascii").split()


def partition_lattice(n: int) -> FinitePoset:
    """Partitions of {1..n} ordered by refinement; the discrete one is bottom.

    The covers merge two blocks of a partition: merging block b into block
    a < b of a growth string maps b to a and each later block c to c - 1, and
    the result is found among the strings by its base-n code.
    """
    if n < 1:
        raise PosetError("partition lattice needs n >= 1")
    _check_size(_bell(n))
    strings, blocks = _growth_strings(n)
    weight = n ** np.arange(n - 1, -1, -1)
    codes = strings @ weight  # ascending, as the strings are
    none = np.zeros(0, dtype=np.int64)
    src, tgt = [none], [none]  # the covers, by growth string
    for b in range(1, n):
        rows = np.flatnonzero(blocks > b)
        s = strings[rows]
        shifted = s - (s > b)
        for a in range(b):
            src.append(rows)
            tgt.append(np.searchsorted(codes, np.where(s == b, a, shifted) @ weight))
    src, tgt = np.concatenate(src), np.concatenate(tgt)
    succ = tgt[np.argsort(src, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(src, minlength=len(strings))).tolist()
    nexts = [succ[a:b] for a, b in zip([0, *ends], ends)]
    return FinitePoset._from_ids(_partition_labels(strings), nexts)


def face_poset(K: SimplicialComplex) -> FinitePoset:
    """Nonempty faces of a complex ordered by inclusion; the face count is
    checked before any label is made."""
    faces = K.faces_by_dim().values()
    _check_size(sum(map(len, faces)))
    return _subset_poset(f for fs in faces for f in fs)


def label_items(items: Iterable[tuple], label: Callable[..., str], kind: str) -> dict:
    """The label ``label(*item)`` of each tuple; two items with the same
    label are refused, naming both as ``kind``."""
    labels = {item: label(*item) for item in items}
    owner = {lab: item for item, lab in labels.items()}  # the last item with each label
    for item, lab in labels.items():
        if owner[lab] != item:
            raise PosetError(f"{kind} {item} and {owner[lab]} both get the label {lab!r}")
    return labels


def poset_product(P: FinitePoset, Q: FinitePoset) -> FinitePoset:
    """Componentwise order on pairs, labeled (p,q)."""
    _check_size(len(P) * len(Q))
    lab = label_items(((p, q) for p in P for q in Q), "({},{})".format, "pairs")
    m = len(Q)
    nexts = [
        [a * m + j for a in p_covers] + [i * m + b for b in q_covers]
        for i, p_covers in enumerate(P._cover)
        for j, q_covers in enumerate(Q._cover)
    ]
    return FinitePoset._from_ids(lab.values(), nexts)


def generate(kind: str, *params) -> FinitePoset:
    """Named generator dispatch: boolean, partition, chain, exp_discrete,
    face_poset, product, dual."""
    if kind == "boolean":
        return boolean_lattice(*params)
    if kind == "partition":
        return partition_lattice(*params)
    if kind == "chain":
        return chain_poset(*params)
    if kind == "exp_discrete":
        return exp_discrete_poset(*params)
    if kind == "face_poset":
        return face_poset(*params)
    if kind == "product":
        return poset_product(*params)
    if kind == "dual":
        (P,) = params
        return P.dual()
    raise PosetError(f"unknown generator kind: {kind!r}")


# -- the .poset text format ---------------------------------------------------


def parse_poset(text: str) -> FinitePoset:
    """Parse the ``.poset`` format.

    ``#`` starts a comment; one ``elements: a b c`` line declares the ground
    set, before any relation; each following statement ``a < b`` declares a
    relation, and a statement holding ``<`` is always a relation, even
    ``elements:x < b``.  Semicolons separate statements within a line;
    several relations may share a line, separated by a comma with whitespace
    on at least one side (``a < b, c < d``, ``a < b ,c < d`` or
    ``a < b , c < d``).  Labels contain no whitespace and no ``<``, which
    makes relation statements tokenizable; commas at the outer end of a
    label are stripped unless the label itself is declared with one, so
    ``a < b,c < d`` names the label ``b,c``.

    The text is read in one pass, and each label is mapped to its id once:
    the ``elements:`` labels are numbered as declared, each relation appends
    its upper id to the successor list of its lower one, and the labels and
    lists go to ``FinitePoset._from_ids``, which sorts them, so no label
    pair is kept.  A line of two declared labels around `` < ``, as
    ``format_poset`` writes it, is taken as it stands; any other goes
    through the tokenizer.  Refusals come in the order statement errors (in
    file order), a missing ``elements:`` line, a duplicate label, the first
    unknown label or ``a < a`` (in file order), and cycles: a label fault is
    kept until every statement has been read.
    """
    elements: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    nexts: list[list[int]] = []
    fault: PosetError | None = None

    def clean(token: str, side: str) -> str:
        while token not in index:
            if side == "right" and token.endswith(","):
                token = token[:-1]
            elif side == "left" and token.startswith(","):
                token = token[1:]
            else:
                break
        return token

    for line in text.splitlines():
        # A declared label holds no whitespace, '#' or ';', so a line of two
        # of them around " < " is that one relation.
        a, _, b = line.partition(" < ")
        ia, ib = index.get(a), index.get(b)
        if ia is not None and ib is not None and ia != ib:
            nexts[ia].append(ib)
            continue
        for stmt in line.split("#", 1)[0].split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if stmt.startswith("elements:") and "<" not in stmt:  # a relation may name "elements:x"
                if elements is not None:
                    raise PosetError("multiple 'elements:' declarations")
                labels = stmt[len("elements:"):].split()
                _check_size(len(labels))
                try:
                    elements = _checked_labels(labels)
                except PosetError as err:  # raised after the last statement: statement errors win
                    fault, elements = err, tuple(labels)
                index = {lab: i for i, lab in enumerate(elements)}
                nexts = [[] for _ in elements]
                continue
            if elements is None:
                raise PosetError("the 'elements:' line must come before relations")
            tokens = stmt.replace("<", " < ").split()
            positions = [i for i, t in enumerate(tokens) if t == "<"]
            if not positions:
                raise PosetError(f"malformed relation statement: {stmt!r}")
            used = set()
            for i in positions:
                if i == 0 or i + 1 >= len(tokens):
                    raise PosetError(f"malformed relation statement: {stmt!r}")
                used.update((i - 1, i, i + 1))
                a, b = clean(tokens[i - 1], "left"), clean(tokens[i + 1], "right")
                ia, ib = index.get(a), index.get(b)
                if ia is not None and ib is not None and ia != ib:
                    nexts[ia].append(ib)
                elif fault is None:
                    unknown = a if ia is None else b if ib is None else None
                    fault = PosetError(
                        f"cycle in relations: {a!r} < {a!r}"
                        if unknown is None
                        else f"unknown element: {unknown!r}"
                    )
            # a token of commas alone that belongs to no relation separates two relations
            if len(used) != len(tokens) and any(
                i not in used and t.strip(",") for i, t in enumerate(tokens)
            ):
                raise PosetError(f"malformed relation statement: {stmt!r}")
    if elements is None:
        raise PosetError("missing 'elements:' line")
    if fault is not None:
        raise fault
    return FinitePoset._from_ids(elements, [list(dict.fromkeys(js)) for js in nexts])


def format_poset(P: FinitePoset) -> str:
    lines = ["elements: " + " ".join(P.elements)]
    lines += [f"{a} < {b}" for a, b in sorted(P.covers)]
    return "\n".join(lines) + "\n"
