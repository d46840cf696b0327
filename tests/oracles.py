"""Independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
library under test: dense Gaussian elimination over exact fractions for
Betti numbers, sympy for Smith normal forms, direct recursion for Mobius
numbers, and exhaustive enumeration for counting problems.
"""

from fractions import Fraction
from itertools import combinations

import sympy
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf


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


def dense_boundaries(facets):
    """Augmented boundary matrices as dense lists, keyed by degree."""
    faces = faces_of(facets)
    mats = {}
    if 0 in faces:
        mats[0] = [[1] * len(faces[0])]
    for k in sorted(faces):
        if k == 0:
            continue
        rows = {f: i for i, f in enumerate(faces[k - 1])}
        mat = [[0] * len(faces[k]) for _ in range(len(faces[k - 1]))]
        for j, face in enumerate(faces[k]):
            for i in range(len(face)):
                sub = face[:i] + face[i + 1:]
                mat[rows[sub]][j] = -1 if i % 2 else 1
        mats[k] = mat
    return faces, mats


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
    rows = [sum((x & 1) << j for j, x in enumerate(row)) for row in mat]
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


def bell_number(n):
    """Bell numbers by the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
