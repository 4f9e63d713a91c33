"""Parabolic weights, zone classification and destabilizing subbundles.

Weights are (mu_i, eps_i) with 0 < eps_i < 1/2; only the eps enter any
verdict here.  A quasiparabolic structure on B = O + O(1) of parabolic
degree d = 1 is destabilized by a line subbundle L exactly when

    deg(L) + sum_{i in S(L)} eps_i - sum_{i not in S(L)} eps_i > 1/2,

S(L) the contact set.  A candidate is the pair of polynomial sections
(s1, s2) spanning L (`Subbundle.sections`): (0, 1) for the unique O(1),
(1, v) for the degree-0 lines v of degree <= 1, and (v, w) for the
degree-(-1) map through all four directions, kept only when v and w share
no zero on P^1.  Contact sets and the shared-zero test run on integers
(`candidate_subbundles`): `parabolic._direction_point` clears each
direction to an integer point of P^2, and the cores that follow take any
commutative ring: the line through two points is their cross product,
the contact system's minors are signed 4x4 determinants, and the shared
zero is the `_resultant` of those minors.  Only the coefficients of the
lines and of (v, w) come back as `Fraction`s.  The weight space splits
into eight unstable zones (every structure unstable, with a predicted
destabilizer type) and the stable zone.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .errors import DegenerateInput, SpecialWeights
from .exact import (HALF, Rat, Value, is_inf, over_common_denominator, parse_list, pick_sums,
                    rat_from_str, rat_to_str)
from .parabolic import (QuasiPar, _conic_coefficients, _conic_minors, _direction_point, cross,
                        dot)

ZONE_A = "A"
ZONE_B = "B"
ZONE_STABLE = "Stable"


def czone(i: int, j: int) -> str:
    """Label of the pairwise unstable zone, indices 1-based, i < j."""
    i, j = min(i, j), max(i, j)
    if not (1 <= i < j <= 4):
        raise DegenerateInput("pair indices must be distinct in 1..4")
    return f"C{i}{j}"


# The eight unstable zones, in the order the verify suites walk them.
ALL_ZONE_LABELS = (ZONE_A, ZONE_B) + tuple(czone(i, j) for i, j in combinations(range(1, 5), 2))


class Weights(Value):
    def __init__(self, mu: tuple, eps: tuple):
        if len(mu) != 4 or len(eps) != 4:
            raise DegenerateInput("weights carry four poles")
        for e in eps:
            if not (0 < e < HALF):
                raise SpecialWeights(f"eps = {e} outside (0, 1/2)")
        self.__dict__.update(mu=mu, eps=eps)

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


def nonspecial_eps(eps) -> bool:
    """All sixteen signed sums +-eps_1 +- ... +- eps_4 avoid the half-integers.

    This is the nonspecial condition on weights (mu_i, eps_i): for the
    weight values alpha_i^{+-} = mu_i +- eps_i at parabolic degree 1 the
    interlacing alpha^- < alpha^+ < alpha^- + 1 is 0 < eps_i < 1/2, which
    `Weights` enforces, and the mu cancel from every shifted signed sum
    sum_i alpha_i^{s_i} + (1 - sum alpha)/2 = sum_i s_i eps_i + 1/2, which
    must avoid the integers.
    """
    nums, den = over_common_denominator(eps)
    # s/den is a half-integer iff 2s = 0 but s != 0 mod den
    return not any(2 * s % den == 0 and s % den != 0 for s in pick_sums((n, -n) for n in nums))


def classify_zone(w: Weights) -> str:
    """One of A, B, C{ij} or Stable; boundary weights raise SpecialWeights."""
    return classify_numerators(*over_common_denominator(w.eps))


def classify_numerators(nums, den: int) -> str:
    """`classify_zone` for eps_i = nums[i] / den, den > 0, on integers:
    eps sums and pair combinations x/den are compared with 1/2 and 3/2 as
    2x against den and 3 den."""
    total = sum(nums)
    if 2 * total == den or 2 * total == 3 * den:
        raise SpecialWeights(f"eps sum on a wall: {Fraction(total, den)}")
    combos = {}
    for i, j in combinations(range(4), 2):
        c = 2 * (nums[i] + nums[j]) - total  # eps_i + eps_j - (the other two)
        if 2 * c == den or 2 * c == -den:
            raise SpecialWeights(f"pair combination on a wall: eps_{i+1}+eps_{j+1}-rest = "
                                 f"{Fraction(c, den)}")
        combos[(i, j)] = c
    if 2 * total < den:
        return ZONE_A
    if 2 * total > 3 * den:
        return ZONE_B
    for (i, j), c in combos.items():
        if 2 * c > den:
            return czone(i + 1, j + 1)
    return ZONE_STABLE


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
    the origin point (u_i = inf) iff eps_j + eps_k + eps_l - eps_i < 1/2."""
    if i not in (1, 2, 3, 4):
        raise DegenerateInput(f"pole index must be in 1..4, got {i}")
    nums, den = over_common_denominator(w.eps)
    if classify_numerators(nums, den) != ZONE_STABLE:
        raise SpecialWeights("branch question only makes sense in the stable zone")
    rest = 2 * (sum(nums) - 2 * nums[i - 1])
    if rest == den:
        raise SpecialWeights(f"branch wall at pole {i}")
    return Branch.ORIGIN_UNSTABLE if rest < den else Branch.COLINEAR_UNSTABLE


# ---------------------------------------------------------------------------
# Destabilizing subbundles
# ---------------------------------------------------------------------------

class Subbundle(Value):
    """A saturated line subbundle of B recorded by its map data.

    degree 1: the canonical O(1), coefficients ().
    degree 0: map (1, v0 + v1 x), coefficients (v0, v1).
    degree -1: map (v, w), coefficients (v0, v1, w0, w1, w2).
    contact: the 1-based pole indices where the subbundle passes through
    the parabolic direction.
    """

    def __init__(self, degree: int, coefficients: tuple, contact: frozenset):
        self.__dict__.update(degree=degree, coefficients=coefficients, contact=contact)

    def sections(self):
        """The map L -> O + O(1) as polynomial sections (s1, s2), constant
        term first, s1 of O(-degree) and s2 of O(1 - degree): (0, 1) for
        the O(1), (1, v) at degree 0 and (v, w) at degree -1."""
        c = self.coefficients
        if self.degree == 1:
            return (0,), (1,)
        if self.degree == 0:
            return (1,), c
        if self.degree == -1:
            return c[:2], c[2:]
        raise DegenerateInput(f"unsupported subbundle degree {self.degree}")

    def to_json_dict(self):
        return {"degree": self.degree,
                "coefficients": [rat_to_str(c) for c in self.coefficients],
                "contact": sorted(self.contact)}


def parabolic_degree(sub: Subbundle, w: Weights) -> Rat:
    inside = sum(w.eps[i - 1] for i in sub.contact)
    outside = sum(w.eps) - inside
    return sub.degree + inside - outside


def candidate_subbundles(qp: QuasiPar):
    """All saturated candidates relevant for stability, deduplicated: the
    O(1), the lines (1, v) through two or more finite directions, and the
    degree-(-1) section (v, w) through all four directions.

    Contact sets are read off integer points.  The O(1) passes through the
    directions u_i = inf.  Each finite direction is an integer point P_i
    of P^2 (`parabolic._direction_point`); the line through P_i and P_j is
    their cross product L = `parabolic.cross`(P_i, P_j), the section
    v = (-L_z/L_y, -L_x/L_y), and its contact set {k : L . P_k = 0}.  Two
    distinct lines share at most one point, so a pair already in a listed
    contact set gives a listed line.

    (v, w) is dropped when v and w share a zero on P^1: v = 0, or
    w(-v0/v1) = 0, or v1 = w2 = 0 (a zero at infinity).  On the integer
    minors m0..m4 of `parabolic.conic_subbundle`, a multiple of
    (v0, v1, w0, w1, w2), all three cases are one test: their `_resultant`
    vanishes.  Minors that all vanish (no unique (v, w)) count as a
    shared zero.  The saturation of a dropped (v, w) is listed already.
    For v = 0 it is the O(1).  Otherwise v has one zero z, a direction
    u_i = inf can only sit at the pole z, and at the three or more other
    poles v(t_i) != 0 and (v, w) = v (1, w/v), so the degree-0 line w/v
    passes through their finite directions and the pair loop lists it.

    A kept (v, w) has contact {1, 2, 3, 4}.  It solves every row of its
    system: v(t_i) = 0 where u_i = inf, which is contact there, and
    w(t_i) = u_i v(t_i) where u_i is finite, which is contact unless
    v(t_i) = 0; but then w(t_i) = 0 too, a shared zero, and (v, w) was
    dropped.
    """
    cands = [Subbundle(1, (), frozenset(i + 1 for i in qp.infinite_indices()))]
    points = [(i + 1, _direction_point(tv, uv))
              for i, (tv, uv) in enumerate(zip(qp.poles, qp.u)) if not is_inf(uv)]
    for (i, pi), (j, pj) in combinations(points, 2):
        if any({i, j} <= c.contact for c in cands[1:]):
            continue
        lx, ly, lz = line = cross(pi, pj)
        contact = frozenset(k for k, pk in points if dot(line, pk) == 0)
        cands.append(Subbundle(0, (Fraction(-lz, ly), Fraction(-lx, ly)), contact))
    minors = _conic_minors(qp)
    if _resultant(minors) != 0:
        cands.append(Subbundle(-1, _conic_coefficients(minors), frozenset(range(1, 5))))
    return cands


def _resultant(minors):
    """m2 m1^2 - m3 m0 m1 + m4 m0^2, over any commutative ring: the
    resultant of v = m0 + m1 x and w = m2 + m3 x + m4 x^2 as sections of
    O(1) and O(2), w at the zero (-m0, m1) of v in homogeneous
    coordinates.  It vanishes iff v = 0 or v and w share a zero on P^1,
    at infinity when m1 = m4 = 0."""
    m0, m1, m2, m3, m4 = minors
    return m2 * m1 * m1 - m3 * m0 * m1 + m4 * m0 * m0


def find_destabilizer(qp: QuasiPar, w: Weights) -> Optional[Subbundle]:
    """The destabilizing subbundle of maximal parabolic degree, or None.

    Enumerates the saturated candidates, scores them against the weights
    and returns the maximizer when its score exceeds 1/2.  A score exactly
    1/2 anywhere means the weights sit on a wall: SpecialWeights.  With
    eps_i = nums[i] / L the parabolic degree of a candidate is s / (2L) for
    the integer score s = 2 (deg L + 2 inside - total), so each candidate
    is compared with 1/2 as s against L.
    """
    nums, den = over_common_denominator(w.eps)
    total = sum(nums)
    best = best_key = None
    for sub in candidate_subbundles(qp):
        score = 2 * (sub.degree * den + 2 * sum(nums[i - 1] for i in sub.contact) - total)
        if score == den:
            raise SpecialWeights(f"candidate of parabolic degree exactly 1/2: {sub}")
        key = (score, sub.degree, tuple(sorted(sub.contact)))
        if best_key is None or key > best_key:
            best, best_key = sub, key
    if best_key[0] > den:
        return best
    return None


PREDICTED_TYPE = {"A": 1, "B": -1}  # zone -> destabilizer degree; C-zones are degree 0


def predicted_destabilizer_degree(zone: str) -> int:
    if zone in PREDICTED_TYPE:
        return PREDICTED_TYPE[zone]
    if zone.startswith("C"):
        return 0
    raise DegenerateInput(f"no destabilizer prediction for zone {zone}")
