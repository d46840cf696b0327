"""Seeded workload inputs and their expected results.

This module never imports ordertop.  It writes the input files a workload
reads (relabelled ``.poset``, ``.cplx`` and ``.pdiag`` text) and computes
every expected value from closed forms or from its own small oracles, so a
wrong answer from the program cannot also be the reference it is checked
against.

A case is a JSON object with a ``name``, a ``kind`` that ``cases.py`` maps to
the ordertop calls it makes, the parameters of that kind, and ``expected``.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from math import comb, factorial
from pathlib import Path

WORKLOADS = ("exact-z", "structure-z2", "cli-mix")
SCALES = ("full", "smoke")

# Sizes per scale.  "full" is what the benchmark measures; "smoke" is the
# smallest input of every case, for the benchmark's own smoke test.
SIZES = {
    "full": {
        "exact_pi": (5, 6),
        "exact_exp": (8, 4),
        "exact_cyclic": ((11, 8), (14, 6)),
        "exact_boolean": 6,
        "exact_partition": 5,
        "antichain_size": 3,
        "z2_pi": 6,
        "z2_exp": ((11, 4),),
        "mobius_pi": 7,
        "cli_mobius_pi": 7,
        "cli_ordercomplex_pi": 6,
        "cli_boolean": 6,
        "cli_circle": (3, 12),
        "cli_exp2": 20,
        "cli_oriented": 20,
        "cli_partition": 11,
        "cli_grassmann": (8, 2000),
        "cli_diagram_boolean": 4,
    },
    "smoke": {
        "exact_pi": (4,),
        "exact_exp": (5, 2),
        "exact_cyclic": ((8, 4),),
        "exact_boolean": 4,
        "exact_partition": 4,
        "antichain_size": 2,
        "z2_pi": 4,
        "z2_exp": ((5, 2),),
        "mobius_pi": 4,
        "cli_mobius_pi": 4,
        "cli_ordercomplex_pi": 4,
        "cli_boolean": 3,
        "cli_circle": (1, 4),
        "cli_exp2": 3,
        "cli_oriented": 4,
        "cli_partition": 4,
        "cli_grassmann": (3, 10),
        "cli_diagram_boolean": 3,
    },
}

# A 6-vertex triangulation of the real projective plane.
RP2_FACETS = ("014", "015", "023", "024", "035", "123", "125", "134", "245", "345")

PLANTED = "planted-wrong-value"


# -- combinatorial oracles -----------------------------------------------------


def set_partitions(n: int) -> list[frozenset[frozenset[int]]]:
    parts: list[list[frozenset[int]]] = [[]]
    for item in range(n):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append(p[:i] + [p[i] | {item}] + p[i + 1:])
            nxt.append(p + [frozenset((item,))])
        parts = nxt
    return [frozenset(p) for p in parts]


def partition_covers(parts):
    """Cover pairs of the partition lattice: merge two blocks."""
    return [(p, (p - {a, b}) | {a | b}) for p in parts for a, b in combinations(p, 2)]


def subsets(n: int) -> list[frozenset[int]]:
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]


def subset_covers(sets, n: int):
    keep = set(sets)
    return [(s, s | {i}) for s in sets for i in range(n) if i not in s and s | {i} in keep]


def maximal_chains(elements, covers):
    up: dict = {e: [] for e in elements}
    has_lower = set()
    for a, b in covers:
        up[a].append(b)
        has_lower.add(b)
    chains = []
    stack = [[e] for e in elements if e not in has_lower]
    while stack:
        chain = stack.pop()
        nxt = up[chain[-1]]
        if not nxt:
            chains.append(chain)
        stack.extend(chain + [b] for b in nxt)
    return chains


def _refines(p, q) -> bool:
    return all(any(a <= b for b in q) for a in p)


def _partition_meet(p, q):
    return frozenset(a & b for a in p for b in q if a & b)


def _partition_join(p, q):
    blocks = [set(b) for b in p]
    for b in q:
        touching = [x for x in blocks if x & b]
        merged = set(b).union(*touching)
        blocks = [x for x in blocks if not x & b] + [merged]
    return frozenset(frozenset(b) for b in blocks)


def partition_complements(n: int, z):
    """Complements of z in the proper part of the partition lattice."""
    bottom = frozenset(frozenset((i,)) for i in range(n))
    top = frozenset((frozenset(range(n)),))
    return [
        x
        for x in set_partitions(n)
        if x not in (bottom, top)
        and _partition_meet(x, z) == bottom
        and _partition_join(x, z) == top
    ]


def is_partition_antichain(parts) -> bool:
    return not any(_refines(p, q) or _refines(q, p) for p, q in combinations(parts, 2))


def power_of_two_parts(total: int, parts: int) -> int:
    """Multisets of exactly ``parts`` powers of two summing to ``total``."""
    powers = [1 << k for k in range(total.bit_length())]
    # ways[s][j]: multisets of j parts drawn from the powers seen so far, sum s
    ways = [[0] * (parts + 1) for _ in range(total + 1)]
    ways[0][0] = 1
    for w in powers:
        for s in range(w, total + 1):
            for j in range(1, parts + 1):
                ways[s][j] += ways[s - w][j - 1]
    return ways[total][parts]


def exp2_betti_lines(n: int) -> list[str]:
    """Duality-predicted Betti table for at most n points on the 2-sphere."""
    table = {}
    for p in range(3 * n):
        k = 3 * n - p - 1
        rank = power_of_two_parts(n, n - k) if 0 <= k < n else 0
        if rank:
            table[p] = rank
    lines = [f"betti {p} {r}" for p, r in sorted(table.items(), reverse=True)]
    lines.append("verdict " + ("sphere" if len(table) == 1 else "not-sphere"))
    return lines


def facets_digest(facet_lines) -> str:
    """Order-free digest of a facet list: sorted facets of sorted labels."""
    canon = sorted(" ".join(sorted(line.split())) for line in facet_lines)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


# -- text writers --------------------------------------------------------------


def random_labels(keys, rng: random.Random) -> dict:
    codes = rng.sample(range(16**6), len(keys))
    return {k: f"v{c:06x}" for k, c in zip(keys, codes)}


def poset_text(labels: dict, covers, rng: random.Random) -> str:
    elements = list(labels.values())
    rng.shuffle(elements)
    rels = [f"{labels[a]} < {labels[b]}" for a, b in covers]
    rng.shuffle(rels)
    return "elements: " + " ".join(elements) + "\n" + "".join(r + "\n" for r in rels)


def rp2_text(rng: random.Random) -> str:
    labels = random_labels(range(6), rng)
    facets = [" ".join(labels[int(v)] for v in f) for f in RP2_FACETS]
    rng.shuffle(facets)
    return "".join(f + "\n" for f in facets)


def proper_boolean(n: int):
    """Proper part of the boolean lattice B_n and its covers."""
    sets = [s for s in subsets(n) if 0 < len(s) < n]
    return sets, subset_covers(sets, n)


def diagram_text(n: int, rng: random.Random) -> str:
    """Two-element base; both fibers are copies of the proper part of B_n and
    the connecting map is the isomorphism between them."""
    sets, covers = proper_boolean(n)
    base = random_labels(("lo", "hi"), rng)
    lower, upper = random_labels(sets, rng), random_labels(sets, rng)
    mapping = [f"{upper[s]}->{lower[s]}" for s in sets]
    rng.shuffle(mapping)
    return (
        f"base:\nelements: {base['lo']} {base['hi']}\n{base['lo']} < {base['hi']}\n"
        f"fiber {base['lo']}:\n{poset_text(lower, covers, rng)}"
        f"fiber {base['hi']}:\n{poset_text(upper, covers, rng)}"
        f"map {base['lo']} {base['hi']}: {', '.join(mapping)}\n"
    )


# -- workloads -----------------------------------------------------------------


def _profile(betti: dict, torsion: dict | None = None) -> dict:
    return {
        "betti": {str(k): v for k, v in sorted(betti.items())},
        "torsion": {str(k): list(v) for k, v in sorted((torsion or {}).items())},
    }


def _partition_sphere(n: int) -> dict:
    return _profile({n - 3: factorial(n - 1)})


def _boolean_file(n: int, rng: random.Random):
    sets = subsets(n)
    labels = random_labels(sets, rng)
    return labels, poset_text(labels, subset_covers(sets, n), rng)


def _partition_file(n: int, rng: random.Random):
    parts = set_partitions(n)
    labels = random_labels(parts, rng)
    return parts, labels, poset_text(labels, partition_covers(parts), rng)


def _exact_z(size: dict, rng: random.Random, files: dict) -> list[dict]:
    cases = [
        {
            "name": f"pi{n}.z",
            "kind": "poset_homology",
            "generator": ["partition", n],
            "truncate": True,
            "coeff": "z",
            "expected": _partition_sphere(n),
        }
        for n in size["exact_pi"]
    ]
    m, k = size["exact_exp"]
    cases.append(
        {
            "name": f"exp{m}_{k}.z",
            "kind": "poset_homology",
            "generator": ["exp_discrete", m, k],
            "truncate": False,
            "coeff": "z",
            "expected": _profile({k - 1: comb(m - 1, k)}),
        }
    )
    for m, d in size["exact_cyclic"]:
        cases.append(
            {
                "name": f"cyclic{m}_{d}.z",
                "kind": "cyclic_homology",
                "params": [m, d],
                "coeff": "z",
                "expected": _profile({d - 1: 1}),
            }
        )

    # Complementation: the seed picks z and relabels the lattice text.
    n = size["exact_boolean"]
    labels, files["boolean.poset"] = _boolean_file(n, rng)
    z = frozenset(rng.sample(range(n), n // 2))
    cases.append(
        {
            "name": f"b{n}.verify.z",
            "kind": "verify",
            "file": "boolean.poset",
            "z": labels[z],
            "coeff": "z",
            "expected": _verify_summary([labels[frozenset(range(n)) - z]], True),
        }
    )
    n = size["exact_partition"]
    _, plabels, files["partition.poset"] = _partition_file(n, rng)
    single = rng.randrange(n)
    z = frozenset((frozenset(set(range(n)) - {single}), frozenset((single,))))
    co = partition_complements(n, z)
    cases.append(
        {
            "name": f"pi{n}.verify.z",
            "kind": "verify",
            "file": "partition.poset",
            "z": plabels[z],
            "coeff": "z",
            "expected": _verify_summary(
                sorted(plabels[x] for x in co), is_partition_antichain(co)
            ),
        }
    )

    # Quotient against the antichain wedge: equal-size subsets form an
    # antichain, and each summand is the suspension of S^{k-2} * S^{n-k-2}.
    n = size["exact_boolean"]
    members = rng.sample([s for s in subsets(n) if len(s) == n // 2], size["antichain_size"])
    cases.append(
        {
            "name": f"b{n}.quotient_wedge.z",
            "kind": "quotient_wedge",
            "file": "boolean.poset",
            "antichain": sorted(labels[s] for s in members),
            "coeff": "z",
            "expected": {
                "passed": True,
                "applicable": True,
                "wedge": _profile({n - 2: len(members)}),
            },
        }
    )

    # Torsion: the only inputs whose residual reaches the dense SNF.
    files["rp2.cplx"] = rp2_text(rng)
    rp2 = _profile({}, {1: (2,)})
    cases += [
        {"name": "rp2.z", "kind": "cplx_homology", "file": "rp2.cplx",
         "transform": "none", "coeff": "z", "expected": rp2},
        {"name": "rp2.z2", "kind": "cplx_homology", "file": "rp2.cplx",
         "transform": "none", "coeff": "z2", "expected": _profile({1: 1, 2: 1})},
        {"name": "sd_rp2.z", "kind": "cplx_homology", "file": "rp2.cplx",
         "transform": "subdivide", "coeff": "z", "expected": rp2},
        {"name": "rp2_join_rp2.z", "kind": "cplx_homology", "file": "rp2.cplx",
         "transform": "join_self", "coeff": "z",
         "expected": _profile({}, {3: (2,), 4: (2,)})},
    ]
    return cases


def _verify_summary(complements, antichain: bool) -> dict:
    return {
        "complements": sorted(complements),
        "antichain": antichain,
        "removed_acyclic": True,
        "wedge_match": True if antichain else None,
        "passed": True,
    }


def _structure_z2(size: dict, rng: random.Random, files: dict) -> list[dict]:
    n = size["z2_pi"]
    mob = size["mobius_pi"]
    cases = [
        {
            "name": f"pi{n}.z2",
            "kind": "poset_homology",
            "generator": ["partition", n],
            "truncate": True,
            "coeff": "z2",
            "expected": _partition_sphere(n),
        }
    ]
    cases += [
        {
            "name": f"exp{m}_{k}.z2",
            "kind": "poset_homology",
            "generator": ["exp_discrete", m, k],
            "truncate": False,
            "coeff": "z2",
            "expected": _profile({k - 1: comb(m - 1, k)}),
        }
        for m, k in size["z2_exp"]
    ]
    cases.append(
        {
            "name": f"pi{mob}.mobius",
            "kind": "mobius",
            "generator": ["partition", mob],
            "expected": (-1) ** (mob - 1) * factorial(mob - 1),
        }
    )
    return cases


def _cli(name: str, argv: list, stdout, check: str = "lines") -> dict:
    """A cli.run case; every verdict must pass, so the exit code must be 0."""
    return {
        "name": name,
        "kind": "cli",
        "argv": argv,
        "check": check,
        "expected": {"exit": 0, "stdout": stdout},
    }


def _cli_mix(size: dict, rng: random.Random, files: dict) -> list[dict]:
    n = size["cli_mobius_pi"]
    _, _, files["mobius.poset"] = _partition_file(n, rng)
    cases = [_cli(f"mobius.pi{n}", ["mobius", "{mobius.poset}"],
                  [f"mobius {(-1) ** (n - 1) * factorial(n - 1)}"])]

    n = size["cli_ordercomplex_pi"]
    parts, labels, files["ordercomplex.poset"] = _partition_file(n, rng)
    chains = maximal_chains(parts, partition_covers(parts))
    lines = [" ".join(labels[p] for p in chain) for chain in chains]
    cases.append(_cli(f"ordercomplex.pi{n}", ["ordercomplex", "{ordercomplex.poset}"],
                      [len(lines), facets_digest(lines)], check="facets"))

    n = size["cli_boolean"]
    blabels, files["boolean.poset"] = _boolean_file(n, rng)
    z = frozenset(rng.sample(range(n), n // 2))
    zl, cl = blabels[z], blabels[frozenset(range(n)) - z]
    cases.append(_cli(
        f"complementation.b{n}.z2",
        ["complementation", "verify", "{boolean.poset}", "--z", zl, "--coeff", "z2"],
        [f"z {zl}", f"complement {cl}", "antichain true", "removed_acyclic true",
         "wedge_match true", "verdict pass"],
    ))

    n, m = size["cli_circle"]
    cases.append(_cli(f"config.circle{n}_{m}",
                      ["config", "circle", "--n", str(n), "--m", str(m)],
                      [f"betti {2 * n - 1} 1", "pseudomanifold true", "verdict pass"]))
    n = size["cli_exp2"]
    cases.append(_cli(f"config.exp2_betti{n}", ["config", "exp2-betti", "--n", str(n)],
                      exp2_betti_lines(n)))
    n = size["cli_oriented"]
    cases.append(_cli(f"calc.oriented{n}", ["calc", "oriented", "--n", str(n)],
                      [f"wedge {2 ** (n - 2)} x S^{comb(n, 2) + n - 2}"]))
    n = size["cli_partition"]
    cases.append(_cli(f"calc.partition{n}", ["calc", "partition", "--n", str(n)],
                      [f"wedge {factorial(n - 1)} x S^{n - 3}"]))
    n, samples = size["cli_grassmann"]
    cases.append(_cli(
        f"grassmann.n{n}",
        ["grassmann", "check", "--n", str(n), "--samples", str(samples),
         "--seed", str(rng.randrange(2**31))],
        [f"samples {samples}", "failures 0", "verdict pass"],
        check="verdicts",
    ))
    files["cylinder.pdiag"] = diagram_text(size["cli_diagram_boolean"], rng)
    cases.append(_cli("diagram.cylinder", ["diagram", "check", "{cylinder.pdiag}"],
                      ["valid true", "cylinder_match true", "verdict pass"]))
    return cases


_BUILDERS = {"exact-z": _exact_z, "structure-z2": _structure_z2, "cli-mix": _cli_mix}


def build(workload: str, scale: str, seed: int, directory: Path,
          plant_error: bool = False) -> Path:
    """Write the inputs of one workload run and its manifest; return the
    manifest path.  The same arguments always give the same files."""
    rng = random.Random(f"{workload}/{scale}/{seed}")
    files: dict[str, str] = {}
    cases = _BUILDERS[workload](SIZES[scale], rng, files)
    if plant_error:
        cases[0]["expected"] = PLANTED
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(
        {"workload": workload, "scale": scale, "seed": seed,
         "files": sorted(files), "cases": cases},
        indent=1,
    ))
    return manifest
