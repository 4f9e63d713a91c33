"""Parabolic weights, zone classification and destabilizing subbundles.

Weights are (mu_i, eps_i) with 0 < eps_i < 1/2; only the eps enter any
verdict here.  A quasiparabolic structure on B = O + O(1) of parabolic
degree d = 1 is destabilized by a line subbundle L exactly when

    deg(L) + sum_{i in S(L)} eps_i - sum_{i not in S(L)} eps_i > 1/2,

S(L) the contact set; every verdict here reads this as one integer
`_score` above den, over the one denominator den of `Weights.cleared`.  Zones
are contact sets.  A structure in general position carries eight types
(deg, S), one for each even S of {1..4}, of degree 1 - |S|/2, and each
unstable zone, named by its S in `ZONE_CONTACT`, is where one of them
scores above den: A (the O(1)), C_ij (a line) and B (the section through
all four).  Zone S is zone A moved by elementary transformations at S,
and a type and its complement (-deg, the other poles) score opposite.

`find_destabilizer` scores the candidate types (degree, contact) that
`parabolic.candidate_types` and `parabolic.section_type` list on integers
and builds the coefficients of the one subbundle it returns; it imports
`parabolic` when it runs, so importing this module loads only `errors`
and `exact`.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional

from .errors import DegenerateInput, SpecialWeights
from .exact import (HALF, Rat, Value, over_common_denominator, parse_list, pick_sums, quotient,
                    rat_from_str, rat_to_str)

ZONE_A = "A"
ZONE_B = "B"
ZONE_STABLE = "Stable"


def czone(i: int, j: int) -> str:
    """Label of the pairwise unstable zone, indices 1-based, i < j."""
    i, j = min(i, j), max(i, j)
    if not (1 <= i < j <= 4):
        raise DegenerateInput("pair indices must be distinct in 1..4")
    return f"C{i}{j}"


# Each unstable zone by the contact set S of its destabilizer type, of degree 1 - |S|/2.
ZONE_CONTACT = {ZONE_A: frozenset(), ZONE_B: frozenset(range(1, 5)),
                **{czone(i, j): frozenset((i, j)) for i, j in combinations(range(1, 5), 2)}}
ALL_ZONE_LABELS = tuple(ZONE_CONTACT)  # in the order the verify suites walk them


def predicted_destabilizer_degree(zone: str) -> int:
    """1 - |S|/2 for the contact set S of an unstable zone's type."""
    if zone not in ZONE_CONTACT:
        raise DegenerateInput(f"no destabilizer prediction for zone {zone}")
    return 1 - len(ZONE_CONTACT[zone]) // 2


class Weights(Value):
    def __init__(self, mu: tuple, eps: tuple):
        if len(mu) != 4 or len(eps) != 4:
            raise DegenerateInput("weights carry four poles")
        for e in eps:
            if not (0 < e < HALF):
                raise SpecialWeights(f"eps = {e} outside (0, 1/2)")
        self.__dict__.update(mu=mu, eps=eps)

    @cached_property
    def cleared(self) -> tuple:
        """(nums, den) with eps_i = nums[i] / den, made once per value."""
        return over_common_denominator(self.eps)

    @classmethod
    def of_eps(cls, eps) -> "Weights":
        return cls(mu=(Fraction(0),) * 4, eps=tuple(Fraction(e) for e in eps))

    def to_json_dict(self):
        return {"eps": [rat_to_str(e) for e in self.eps],
                "mu": [rat_to_str(m) for m in self.mu]}

    @classmethod
    def from_json_dict(cls, d) -> "Weights":
        """Parse weights; malformed input raises DegenerateInput."""
        try:
            eps = parse_list(d["eps"], rat_from_str, "eps")
            mu = parse_list(d.get("mu", ["0/1"] * 4), rat_from_str, "mu")
        except (KeyError, TypeError, AttributeError) as exc:
            raise DegenerateInput(f"malformed weights: {exc!r}") from exc
        return cls(mu=mu, eps=eps)


def nonspecial_numerators(nums, den: int) -> bool:
    """All sixteen signed sums +-eps_1 +- ... +- eps_4 of eps_i = nums[i] / den,
    over any common denominator den > 0, avoid the half-integers.

    This is the nonspecial condition on weights (mu_i, eps_i): for the
    weight values alpha_i^{+-} = mu_i +- eps_i at parabolic degree 1 the
    interlacing alpha^- < alpha^+ < alpha^- + 1 is 0 < eps_i < 1/2, which
    `Weights` enforces, and the mu cancel from every shifted signed sum
    sum_i alpha_i^{s_i} + (1 - sum alpha)/2 = sum_i s_i eps_i + 1/2, which
    must avoid the integers.
    """
    # s/den is a half-integer iff 2s = 0 but s != 0 mod den
    return not any(2 * s % den == 0 and s % den != 0 for s in pick_sums((n, -n) for n in nums))


def classify_zone(w: Weights) -> str:
    """One of A, B, C{ij} or Stable; boundary weights raise SpecialWeights."""
    return classify_numerators(*w.cleared)


def _score(nums, den, total, degree: int, contact):
    """2 den times the parabolic degree of the type (degree, S), S 1-based,
    at eps_i = nums[i] / den and total = sum(nums), over any commutative
    ring: the type destabilizes above den and sits on a wall at den."""
    return 2 * (degree * den + 2 * sum(nums[i - 1] for i in contact) - total)


# A and the pair zones through pole 1, in the order their walls are reported
_SCANNED = [(zone, predicted_destabilizer_degree(zone), ZONE_CONTACT[zone])
            for zone in (ZONE_A, czone(1, 2), czone(1, 3), czone(1, 4))]
_ZONE_OF = {contact: zone for zone, contact in ZONE_CONTACT.items()}


def classify_numerators(nums, den: int) -> str:
    """`classify_zone` for eps_i = nums[i] / den, den > 0, on integers.  A
    type and its complement score opposite, so A, C12, C13 and C14 decide
    all eight: |score| = den is a wall, and in (0, 1/2)^4 at most one
    |score| is above den, naming the type or its complement."""
    total = sum(nums)
    verdict = ZONE_STABLE
    for zone, degree, contact in _SCANNED:
        score = _score(nums, den, total, degree, contact)
        if score == den or score == -den:
            if not contact:
                raise SpecialWeights(f"eps sum on a wall: {Fraction(total, den)}")
            i, j = sorted(contact)
            raise SpecialWeights(f"pair combination on a wall: eps_{i}+eps_{j}-rest = "
                                 f"{Fraction(score, 2 * den)}")
        if score > den:
            verdict = zone
        elif score < -den:
            verdict = _ZONE_OF[ZONE_CONTACT[ZONE_B] - contact]
    return verdict


def et_pair(w: Weights, i: int, j: int) -> Weights:
    """Elementary transformations at poles i != j (1-based):
    eps -> 1/2 - eps and mu -> mu - 1/2 at both poles."""
    if i == j or not {i, j} <= {1, 2, 3, 4}:
        raise DegenerateInput(f"et_pair needs two distinct pole indices in 1..4, got {i}, {j}")
    mu, eps = list(w.mu), list(w.eps)
    for k in (i - 1, j - 1):
        eps[k] = HALF - eps[k]
        mu[k] = mu[k] - HALF
    return Weights(mu=tuple(mu), eps=tuple(eps))


class Branch(Enum):
    ORIGIN_UNSTABLE = "origin_unstable"
    COLINEAR_UNSTABLE = "colinear_unstable"


def stable_subzone_branch(w: Weights, i: int) -> Branch:
    """Which of the two points over t_i is unstable, for stable-zone weights:
    the origin point (u_i = inf) iff the O(1) of type (1, {i}) scores above den."""
    if i not in (1, 2, 3, 4):
        raise DegenerateInput(f"pole index must be in 1..4, got {i}")
    nums, den = w.cleared
    if classify_numerators(nums, den) != ZONE_STABLE:
        raise SpecialWeights("branch question only makes sense in the stable zone")
    score = _score(nums, den, sum(nums), 1, (i,))
    if score == den:
        raise SpecialWeights(f"branch wall at pole {i}")
    return Branch.ORIGIN_UNSTABLE if score > den else Branch.COLINEAR_UNSTABLE


# ---------------------------------------------------------------------------
# Destabilizing subbundles
# ---------------------------------------------------------------------------

def parabolic_degree(sub: Subbundle, w: Weights) -> Rat:
    """deg L + sum_{i in S} eps_i - sum_{i not in S} eps_i: the `_score` of
    the type (deg L, S) over 2 den."""
    nums, den = w.cleared
    return quotient(_score(nums, den, sum(nums), sub.degree, sub.contact), 2 * den)


def find_destabilizer(qp: QuasiPar, w: Weights) -> Optional[Subbundle]:
    """The destabilizing subbundle of maximal parabolic degree, or None.

    Enumerates the saturated candidates' (degree, contact) types,
    `_score`s them over the common denominator of the eps and returns the
    maximizer when its parabolic degree exceeds 1/2.  A degree exactly 1/2
    anywhere means the weights sit on a wall: SpecialWeights.  Only the
    subbundle returned, or the one on the wall, gets its coefficients
    built (`subbundle_of`).

    The O(1) and the lines come from `parabolic.candidate_types`.  The
    section through all four directions (`parabolic.section_type`) is
    asked for last, and only when its type (-1, {1, 2, 3, 4}) scores at
    least den: that score is 2(total - den) whatever the structure, so
    this is sum eps >= 3/2, zone B or its wall.  Below den the section can
    neither sit on a wall nor be returned, as a returned maximizer scores
    above den, so its minors and resultant are not computed.
    """
    from .parabolic import candidate_types, section_type, subbundle_of
    nums, den = w.cleared
    total = sum(nums)
    cands = list(candidate_types(qp))
    if _score(nums, den, total, -1, ZONE_CONTACT[ZONE_B]) >= den:
        section = section_type(qp)
        if section is not None:
            cands.append(section)
    best = best_key = None
    for cand in cands:
        degree, contact, _ = cand
        score = _score(nums, den, total, degree, contact)
        if score == den:
            raise SpecialWeights(f"candidate of parabolic degree exactly 1/2: "
                                 f"{subbundle_of(*cand)}")
        key = (score, degree, tuple(sorted(contact)))
        if best_key is None or key > best_key:
            best, best_key = cand, key
    return subbundle_of(*best) if best_key[0] > den else None
