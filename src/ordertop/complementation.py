"""Complement-removal acyclicity and wedge decompositions of bounded posets.

For a bounded poset L with proper part L~ and Co(z) the set of complements
of z, two finite, checkable statements are exercised:

* removing Co(z) from L~ leaves a poset whose order complex is acyclic;
* when Co(z) is an antichain, the order complex of L~ has the homology of
  the wedge over y in Co(z) of suspensions of Delta(L~_{<y}) * Delta(L~_{>y})
  (Bjorner-Walker's homotopy complementation formula).

The elements comparable to y form the ordinal sum L~_{<y} + L~_{>y}, whose
order complex is the join of the two cones' complexes, that is, the link of
y in Delta(L~).  The reduced homology of a wedge of suspensions is the
direct sum of the summands' reduced homology one degree up, so the wedge
side is read from the links and no wedge is built (``wedge_side``).

The chains of an induced subposet are the chains of the poset inside it
(Wachs, *Poset topology: tools and applications*, 2007), so every complex
here is read off one chain trie of the poset (``posets._chain_table``): the
order complex of L~ minus Co(z) and each link are full subcomplexes of it
(``FaceTable.restrict``), and the quotient model of ``quotient_wedge_check``
is that table with a cone over one of them (``FaceTable.cone``).  No
subposet, label facet or ``SimplicialComplex`` is built.

``verify`` checks both statements on one Co(z) and one proper part, each
computed once per call.  Acyclicity is certified at the homology level only;
contractibility itself has no algorithmic certificate here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import FaceTable, fresh_label
from .homology import HomologyProfile, _divisor_chain, normalize_coeff, reduced_homology
from .posets import BoundedPoset, FinitePoset, PosetError, _chain_table


class AntichainError(PosetError):
    """The quotient wedge check requires an antichain."""


@dataclass(frozen=True)
class ComplementationReport:
    """Outcome of the complementation checks for one element z."""

    z: str
    complements: frozenset[str]
    antichain: bool
    coeff: str
    removed_acyclic: bool
    removed_profile: HomologyProfile
    left_profile: HomologyProfile | None = None
    right_profile: HomologyProfile | None = None
    wedge_match: bool | None = None

    @property
    def passed(self) -> bool:
        return self.removed_acyclic and self.wedge_match is not False


def _ids(table: FaceTable, labels: frozenset[str]) -> np.ndarray:
    """The bool array over the table's ids that marks the given labels."""
    return np.fromiter((v in labels for v in table.vertices), dtype=bool, count=len(table.vertices))


def _wedge_side(trunc: FinitePoset, table: FaceTable, antichain, coeff: str) -> HomologyProfile:
    """``wedge_side`` with each link read off ``table``, the chain trie of trunc."""
    betti: dict[int, int] = {}
    factors: dict[int, list[int]] = {}
    dim = -1
    for y in sorted(antichain):
        link = table.restrict(_ids(table, trunc.downset(y) | trunc.upset(y)))
        profile = reduced_homology(link, coeff)
        for k, b in profile.betti.items():
            betti[k + 1] = betti.get(k + 1, 0) + b
        for k, fs in profile.torsion.items():
            factors.setdefault(k + 1, []).extend(fs)
        dim = max(dim, profile.dim)
    torsion = {k: tuple(f for f in _divisor_chain(fs) if f > 1) for k, fs in factors.items()}
    return HomologyProfile(normalize_coeff(coeff), betti, torsion, dim + 1)


def wedge_side(trunc: FinitePoset, antichain: frozenset[str], coeff: str = "Z") -> HomologyProfile:
    """Reduced homology of the wedge over the antichain of the suspended links
    Sigma(Delta(trunc_{<y}) * Delta(trunc_{>y})).

    Each summand is the link of y, the full subcomplex of Delta(trunc) on
    the elements comparable to y, one degree up: Betti numbers add, torsion
    factors are brought to d1 | d2 | ... per degree.  A link with both cones
    empty is the empty complex, whose suspension is two points; no summands
    give a point.
    """
    return _wedge_side(trunc, _chain_table(trunc), antichain, coeff)


def verify(L: BoundedPoset, z: str, coeff: str = "Z") -> ComplementationReport:
    """Full report for one z: acyclicity always, wedge comparison when Co(z)
    is an antichain.  Every complex is read off one chain trie of L~."""
    co = L.complements(z)
    trunc = L.truncate()
    table = _chain_table(trunc)
    removed = reduced_homology(table.restrict(~_ids(table, co)), coeff)
    antichain = trunc.is_antichain(co)
    wedge_fields = {}
    if antichain:
        left = reduced_homology(table, coeff)
        right = _wedge_side(trunc, table, co, coeff)
        wedge_fields = dict(left_profile=left, right_profile=right, wedge_match=left == right)
    return ComplementationReport(
        z=z,
        complements=co,
        antichain=antichain,
        coeff=removed.coeff,
        removed_acyclic=removed.is_acyclic,
        removed_profile=removed,
        **wedge_fields,
    )


@dataclass(frozen=True)
class QuotientWedgeReport:
    """Homology of the collapsed-complement model against the antichain wedge."""

    antichain: tuple[str, ...]
    applicable: bool
    quotient_profile: HomologyProfile
    wedge_profile: HomologyProfile

    @property
    def passed(self) -> bool:
        return self.quotient_profile == self.wedge_profile


def quotient_wedge_check(P: FinitePoset, C, coeff: str = "Z") -> QuotientWedgeReport:
    """For an antichain C in P, compare the homology of Delta(P) with the
    subcomplex Delta(P minus C) collapsed against the wedge over C of
    suspended links (``wedge_side``).  The collapse is modelled by a cone
    over that subcomplex, attached to the chain trie of P, whose links give
    the wedge side.

    C empty is a documented degenerate case: the collapse is by everything,
    the wedge is a point, and both sides are acyclic; the report is marked
    not applicable.
    """
    C = frozenset(C)
    if not P.is_antichain(C):
        raise AntichainError(f"{sorted(C)} is not an antichain")
    table = _chain_table(P)
    quotient = table.cone(~_ids(table, C), fresh_label("q*", table.vertices))
    return QuotientWedgeReport(
        antichain=tuple(sorted(C)),
        applicable=bool(C),
        quotient_profile=reduced_homology(quotient, coeff),
        wedge_profile=_wedge_side(P, table, C, coeff),
    )
