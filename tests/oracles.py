"""Independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
library under test: chain complexes assembled from label tuples with a
dict-based boundary-of-boundary check, dense Gaussian elimination over exact
fractions for Betti numbers, sympy for Smith normal forms, the evenness
filter over all subsets for cyclic polytopes, direct recursion for Mobius
numbers, Warshall's closure and chain enumeration for orders (every chain
grown one element at a time), the chain trie's element numbering from its
definition with integer bitmasks, exhaustive enumeration for counting problems,
pairwise inclusion and refinement tests for the generated orders, set
operations for complements in closure systems, the quadratic maximal-face
scan for facet normalization, the sphere calculus on fully expanded
multisets, the flag-map battery one matrix at a time, and the ``.poset``
reader that collects statements and label pairs before it builds.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import sympy
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf

from ordertop.posets import FinitePoset, PosetError, _check_size


def faces_of(facets):
    """All nonempty faces of a facet list, grouped by dimension, sorted."""
    seen = set()
    for facet in facets:
        fs = tuple(sorted(facet))
        for k in range(1, len(fs) + 1):
            seen.update(combinations(fs, k))
    grouped = {}
    for f in seen:
        grouped.setdefault(len(f) - 1, []).append(f)
    return {d: sorted(fs) for d, fs in grouped.items()}


def boundary_triples(facets):
    """The augmented chain complex assembled from label tuples: faces by
    ``faces_of`` and, per degree k, d_k as (n_rows, n_cols, triples) with
    sorted (row, col, value) triples, value (-1)^i for the face without
    vertex i."""
    faces = faces_of(facets)
    mats = {}
    if 0 in faces:
        mats[0] = (1, len(faces[0]), [(0, j, 1) for j in range(len(faces[0]))])
    for k in sorted(faces):
        if k == 0:
            continue
        index = {f: i for i, f in enumerate(faces[k - 1])}
        entries = []
        for j, face in enumerate(faces[k]):
            for i in range(len(face)):
                entries.append((index[face[:i] + face[i + 1:]], j, -1 if i % 2 else 1))
        mats[k] = (len(faces[k - 1]), len(faces[k]), sorted(entries))
    return faces, mats


def composes_to_zero(outer, inner):
    """True when outer @ inner == 0 for two triple lists, summed per cell of
    the product in a dict of Python integers."""
    outer_cols = {}
    for r, c, v in outer:
        outer_cols.setdefault(c, []).append((r, v))
    acc = {}
    for mid, c, v in inner:
        for r, w in outer_cols.get(mid, ()):
            acc[c, r] = acc.get((c, r), 0) + v * w
    return not any(acc.values())


def dense_boundaries(facets):
    """Augmented boundary matrices as dense lists, keyed by degree."""
    faces, triples = boundary_triples(facets)
    mats = {}
    for k, (n_rows, n_cols, entries) in triples.items():
        mat = [[0] * n_cols for _ in range(n_rows)]
        for r, c, v in entries:
            mat[r][c] = v
        mats[k] = mat
    return faces, mats


def cyclic_facets_by_evenness(m, d):
    """Facets of the boundary of the cyclic d-polytope on 1..m, as sets of
    ints, by testing Gale's evenness condition on every d-subset: any two
    vertices outside the subset are separated by an even number of its
    members."""
    facets = set()
    for S in combinations(range(1, m + 1), d):
        outside = [x for x in range(1, m + 1) if x not in S]
        if all(sum(1 for s in S if a < s < b) % 2 == 0 for a, b in zip(outside, outside[1:])):
            facets.add(frozenset(S))
    return facets


def rank_fraction(mat):
    """Rank by Gaussian elimination over exact rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    if not a or not a[0]:
        return 0
    rank = 0
    cols = len(a[0])
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        for i in range(len(a)):
            if i != row and a[i][col]:
                factor = a[i][col] / inv
                a[i] = [x - factor * y for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == len(a):
            break
    return rank


def rank_gf2(mat):
    return _rank_gf2_rows(sum((x & 1) << j for j, x in enumerate(row)) for row in mat)


def rank_gf2_entries(entries):
    """Rank over GF(2) of a matrix given as (row, col, value) triples, with
    duplicates summed."""
    rows = {}
    for r, c, v in entries:
        if v & 1:
            rows[r] = rows.get(r, 0) ^ (1 << c)
    return _rank_gf2_rows(rows.values())


def _rank_gf2_rows(rows):
    """Row elimination by lowest set bit over rows packed as integers."""
    pivots = {}
    rank = 0
    for vec in rows:
        while vec:
            low = vec & -vec
            if low not in pivots:
                pivots[low] = vec
                rank += 1
                break
            vec ^= pivots[low]
    return rank


def brute_betti(facets, coeff="Q"):
    """Reduced Betti numbers over Q or GF(2), degrees -1 and up, zeros omitted."""
    rank = rank_fraction if coeff == "Q" else rank_gf2
    faces, mats = dense_boundaries(facets)
    counts = {-1: 1}
    counts.update({d: len(fs) for d, fs in faces.items()})
    ranks = {k: rank(m) for k, m in mats.items()}
    top = max(counts)
    betti = {}
    for k in range(-1, top + 1):
        b = counts.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if b:
            betti[k] = b
    return betti


def sympy_invariant_factors(mat):
    """Invariant factors via sympy's Smith normal form, normalized into a
    divisibility chain."""
    from math import gcd

    m = sympy.Matrix(mat)
    if m.rows == 0 or m.cols == 0:
        return ()
    d = _sympy_snf(m, domain=sympy.ZZ)
    factors = [abs(int(d[i, i])) for i in range(min(d.rows, d.cols)) if d[i, i] != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return tuple(factors)


def sympy_homology(facets):
    """Reduced Betti numbers and torsion over Z from sympy's Smith normal
    forms of the dense boundaries, degrees -1 and up, zeros omitted."""
    faces, mats = dense_boundaries(facets)
    counts = {-1: 1}
    counts.update({d: len(fs) for d, fs in faces.items()})
    factors = {k: sympy_invariant_factors(m) for k, m in mats.items()}
    betti, torsion = {}, {}
    for k in range(-1, max(counts) + 1):
        b = counts.get(k, 0) - len(factors.get(k, ())) - len(factors.get(k + 1, ()))
        if b:
            betti[k] = b
        tors = tuple(f for f in factors.get(k + 1, ()) if f > 1)
        if tors:
            torsion[k] = tors
    return betti, torsion


def maximal_faces(faces):
    """The maximal nonempty faces of a face list, by the quadratic scan that
    tests every face against every kept larger one."""
    maximal = []
    for f in sorted({frozenset(f) for f in faces if f}, key=len, reverse=True):
        if not any(f < g for g in maximal):
            maximal.append(f)
    return frozenset(maximal)


def subset_family(ground, sizes):
    """Subsets of ``ground`` with a size in ``sizes``, keyed by their
    ``{a,b}`` label (members sorted as strings)."""
    ground = sorted(ground)
    return {
        "{" + ",".join(sorted(str(x) for x in c)) + "}": frozenset(str(x) for x in c)
        for k in sizes
        for c in combinations(ground, k)
    }


def set_partitions_by_label(n):
    """Set partitions of {1..n} (n <= 9) from restricted growth strings,
    keyed by their ``(12)(3)`` label, as frozensets of blocks."""
    out = {}

    def grow(word):
        if len(word) == n:
            blocks = {}
            for item, b in enumerate(word, start=1):
                blocks.setdefault(b, []).append(str(item))
            label = "".join("(" + "".join(blk) + ")" for blk in blocks.values())
            out[label] = frozenset(frozenset(blk) for blk in blocks.values())
            return
        for b in range(max(word, default=-1) + 2):
            grow(word + [b])

    grow([])
    return out


def parse_poset_by_statements(text):
    """The ``.poset`` reader as it stood before the one-pass reader: every
    statement collected first, then every relation as a label pair, then
    the label constructor ``FinitePoset(elements, relations)``, which
    checks the labels and maps each pair to ids."""
    statements = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                statements.append(stmt)
    elements = None
    declared = set()
    relations = []

    def clean(token, side):
        while token not in declared:
            if side == "right" and token.endswith(","):
                token = token[:-1]
            elif side == "left" and token.startswith(","):
                token = token[1:]
            else:
                break
        return token

    for stmt in statements:
        if stmt.startswith("elements:") and "<" not in stmt:
            if elements is not None:
                raise PosetError("multiple 'elements:' declarations")
            elements = stmt[len("elements:"):].split()
            _check_size(len(elements))
            declared = set(elements)
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
            relations.append((clean(tokens[i - 1], "left"), clean(tokens[i + 1], "right")))
        if len(used) != len(tokens) and any(
            i not in used and t.strip(",") for i, t in enumerate(tokens)
        ):
            raise PosetError(f"malformed relation statement: {stmt!r}")
    if elements is None:
        raise PosetError("missing 'elements:' line")
    return FinitePoset(elements, relations)


def strictly_refines(p, q):
    """p < q in the refinement order: p != q and each block of p lies in a block of q."""
    return p != q and all(any(b <= c for c in q) for b in p)


def strict_closure(elements, relations):
    """The strict order generated by a relation list, as a set of pairs, by
    Warshall's triple loop."""
    less = set(relations)
    for k in elements:
        for i in elements:
            for j in elements:
                if (i, k) in less and (k, j) in less:
                    less.add((i, j))
    return less


def brute_maximal_chains(elements, lt):
    """The maximal chains of a strict order given as a predicate, each an
    ascending tuple: every chain is grown one element at a time, and those to
    which no element can be added are kept."""

    def comparable(a, b):
        return lt(a, b) or lt(b, a)

    chains = [()]
    for e in elements:
        chains += [c + (e,) for c in chains if all(comparable(e, x) for x in c)]
    return sorted(
        tuple(sorted(c, key=lambda x: sum(lt(y, x) for y in c)))
        for c in chains
        if c and not any(e not in c and all(comparable(e, x) for x in c) for e in elements)
    )


def chain_numbering(elements, lt):
    """The elements of a strict order, given as a predicate, in the order of
    the chain trie's ids, by its definition read from the bottom up: by
    height (the longest chain below), then by the strict down-set as the
    integer sum of 2**position over the elements already placed, then by
    label descending; the ids are that order reversed."""
    height = {}

    def height_of(e):
        if e not in height:
            height[e] = max((1 + height_of(x) for x in elements if lt(x, e)), default=0)
        return height[e]

    position = {}
    for h in sorted({height_of(e) for e in elements}):
        layer = sorted((e for e in elements if height[e] == h), reverse=True)
        layer.sort(key=lambda e: sum(2 ** position[x] for x in elements if lt(x, e)))
        for e in layer:
            position[e] = len(position)
    return tuple(sorted(elements, key=position.__getitem__, reverse=True))


def brute_chains(elements, lt):
    """Every nonempty chain of a strict order given as a predicate, as a
    frozenset: the subsets are grown one element at a time, and a subset is
    kept while its members are pairwise comparable."""
    comparable = {(a, b) for a in elements for b in elements if lt(a, b) or lt(b, a)}
    chains = [()]
    for e in elements:
        chains += [c + (e,) for c in chains if all((e, x) in comparable for x in c)]
    return {frozenset(c) for c in chains[1:]}


def closure_complements(sets, z):
    """Complements of z in a closure system given as label -> set, with the
    empty and the ground set among them: the inner x disjoint from z whose
    union with z lies in no member but the ground set (the meet is the
    intersection and the join the smallest member containing the union)."""
    ground = max(sets.values(), key=len)
    inner = {x: s for x, s in sets.items() if s and s != ground}
    return frozenset(
        x
        for x, s in inner.items()
        if not s & sets[z] and not any(s | sets[z] <= t for t in inner.values())
    )


def brute_mobius(elements, leq):
    """mu(bottom, top) for a bounded order given as a comparison predicate."""
    bottom = next(e for e in elements if all(leq(e, x) for x in elements))
    top = next(e for e in elements if all(leq(x, e) for x in elements))
    mu = {}

    def value(y):
        if y not in mu:
            if y == bottom:
                mu[y] = 1
            else:
                mu[y] = -sum(value(z) for z in elements if leq(z, y) and z != y)
        return mu[y]

    return value(top)


def power_of_two_multisets(n, parts):
    """Exhaustive count of multisets of ``parts`` powers of two summing to n."""
    found = [0]

    def rec(remaining, left, max_power):
        if left == 0:
            if remaining == 0:
                found[0] += 1
            return
        power = 1
        while power <= min(remaining, max_power):
            rec(remaining - power, left - 1, power)
            power *= 2
        return

    rec(n, parts, 1 << max(n, 1).bit_length())
    return found[0]


def power_of_two_multiset_table(n_max):
    """``table[t][p]``: multisets of exactly p powers of two summing to t, for
    every t <= n_max, by the coin-by-coin knapsack count.  Each power c is
    added in turn, totals ascending so that c may repeat; a total t has at
    most t parts, which caps each row."""
    table = [[1]] + [[0] * (t + 1) for t in range(1, n_max + 1)]
    c = 1
    while c <= n_max:
        for t in range(c, n_max + 1):
            row, fewer = table[t], table[t - c]
            for p, count in enumerate(fewer, start=1):
                row[p] += count
        c *= 2
    return table


def bell_number(n):
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class MultisetCalcError(ValueError):
    """An operand outside the calculus, in the expanded model."""


def multiset_combine(operator, operands):
    """The wedge-of-spheres calculus with each form fully expanded: None is
    Empty and a sorted list holds one dimension per sphere ([] is Point).
    Raises MultisetCalcError where the calculus is undefined, suspend of
    other than one operand included."""

    def join(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return sorted(x + y + 1 for x in a for y in b)

    def smash(a, b):
        if a is None or b is None:
            raise MultisetCalcError("smash with the empty space")
        return sorted(x + y for x in a for y in b)

    if operator == "join":
        out = None
        for x in operands:
            out = join(out, x)
        return out
    if operator == "smash":
        if not operands:
            raise MultisetCalcError("smash of nothing")
        out = operands[0]
        for x in operands[1:]:
            out = smash(out, x)
        return out
    if operator == "suspend":
        if len(operands) != 1:
            raise MultisetCalcError("suspend takes one operand")
        return join([0], operands[0])
    if operator == "wedge":
        if any(x is None for x in operands):
            raise MultisetCalcError("wedge with the empty space")
        return sorted(d for x in operands for d in x)
    raise MultisetCalcError(f"unknown operator {operator!r}")


# -- the flag-map battery, one matrix at a time ------------------------------------
#
# The battery as a loop over single matrices, in plain numpy: the reference
# for the stacked core of ordertop.grassmann.  The arithmetic per matrix is
# the same, so reports must be equal, not only close.  Tuples stand in for the library's records:
# flag_point gives (support, weights, bases), orbit_check gives
# (support_match, weight_dev, angle_dev, reduced_support) and battery gives
# the BatteryReport fields in order.

FLAG_SYM_TOL = 1e-12
FLAG_WEIGHT_DROP = 1e-10


def _flag_symmetric(A):
    M = np.asarray(A, dtype=float)
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > FLAG_SYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return (M + M.T) / 2.0


def flag_point(A, weight_drop=FLAG_WEIGHT_DROP):
    M = _flag_symmetric(A)
    n = M.shape[0]
    lam, vecs = np.linalg.eigh(M)
    spread = float(lam[-1] - lam[0])
    scale = max(1.0, float(np.abs(lam).max()))
    if spread <= FLAG_SYM_TOL * scale:
        raise ValueError("map undefined: matrix is a multiple of the identity")
    stages = []
    for i in range(1, n):
        weight = float(lam[i] - lam[i - 1]) / spread
        if weight > weight_drop:
            stages.append((i, weight, vecs[:, :i].copy()))
    total = sum(w for _, w, _ in stages)
    return (
        tuple(i for i, _, _ in stages),
        [w / total for _, w, _ in stages],
        [basis for _, _, basis in stages],
    )


def flag_subspace_gap(U, V):
    resid = V - U @ (U.T @ V)
    return float(np.linalg.norm(resid, 2))


def orbit_check(A, alpha, beta, weight_drop=FLAG_WEIGHT_DROP):
    M = _flag_symmetric(A)
    n = M.shape[0]
    sa, wa, ba = flag_point(M, weight_drop)
    sb, wb, bb = flag_point(alpha * M + beta * np.eye(n), weight_drop)
    reduced = len(sa) < n - 1
    if sa != sb:
        return (False, float("inf"), float("inf"), reduced)
    weight_dev = max((abs(x - y) for x, y in zip(wa, wb)), default=0.0)
    angle_dev = max((flag_subspace_gap(U, V) for U, V in zip(ba, bb)), default=0.0)
    return (True, weight_dev, angle_dev, reduced)


def flag_slice(A):
    M = _flag_symmetric(A)
    n = M.shape[0]
    centered = M - (np.trace(M) / n) * np.eye(n)
    norm = float(np.linalg.norm(centered))
    if norm <= FLAG_SYM_TOL * max(1.0, float(np.linalg.norm(M))):
        raise ValueError("slice undefined: matrix is a multiple of the identity")
    return centered / norm


def battery_draws(n, samples, seed):
    """The battery's samples in order, as (A, alpha, beta)."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        raw = rng.standard_normal((n, n))
        A = (raw + raw.T) / 2.0
        alpha = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(-5.0, 5.0))
        yield A, alpha, beta


def battery(n, samples, seed, check_tol=1e-8, weight_drop=FLAG_WEIGHT_DROP):
    failures = reduced = 0
    max_weight = max_angle = max_slice = 0.0
    for A, alpha, beta in battery_draws(n, samples, seed):
        match, weight_dev, angle_dev, reduced_support = orbit_check(A, alpha, beta, weight_drop)
        slice_dev = float(
            np.abs(flag_slice(A) - flag_slice(alpha * A + beta * np.eye(n))).max()
        )
        max_weight = max(max_weight, weight_dev)
        max_angle = max(max_angle, angle_dev)
        max_slice = max(max_slice, slice_dev)
        reduced += reduced_support
        passed = match and weight_dev < check_tol and angle_dev < check_tol
        if not passed or slice_dev >= check_tol:
            failures += 1
    return (n, samples, failures, max_weight, max_angle, max_slice, reduced)
