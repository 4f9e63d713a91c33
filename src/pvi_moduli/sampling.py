"""Seeded deterministic sampling of rational parameters.

Samplers produce small rationals (numerators and denominators bounded by
`bound`) and reject special parameters by resampling; rejection counts
are kept so reports can state them.  Same seed, same stream.

The exponent, state and weight samplers test candidates on integers and
make the `Fraction`s once, for the accepted draw: four eps or exponents
as numerators over one common denominator (the tests ask only about
ratios), and a state's t, q and Q as integer pairs.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .connection import KappaParams, PQState, generic_numerators
from .errors import SamplerExhausted
from .exact import HALF
from .parabolic import QuasiPar, in_general_position
from .stability import (ZONE_A, ZONE_CONTACT, ZONE_STABLE, Weights, classify_numerators,
                        nonspecial_numerators)

RETRY_LIMIT = 10000  # draws before a sampler gives up


def _zone_of(nums, den: int) -> Optional[str]:
    """The zone label of nonspecial eps_i = nums[i] / den in (0, 1/2), else
    None; every wall of `classify_numerators` is a signed eps sum at +-1/2
    or 3/2."""
    return classify_numerators(nums, den) if nonspecial_numerators(nums, den) else None


def _eps(nums, den: int) -> tuple:
    return tuple(Fraction(n, den) for n in nums)


def _over_lcm(draws) -> tuple:
    """(numerators, L): the drawn n/d as n (L / d) over L, the lcm of the d."""
    den = math.lcm(*(d for _, d in draws))
    return [n * (den // d) for n, d in draws], den


class RationalSampler:
    def __init__(self, seed: int, bound: int = 64):
        if bound < 2:
            raise ValueError(f"bound must be at least 2, got {bound}")
        self.rng = random.Random(seed)
        self.bound = bound
        self.rejections = 0

    def rat(self, nonzero: bool = False) -> Fraction:
        return Fraction(*self._pair(nonzero))

    def _pair(self, nonzero: bool = False) -> tuple:
        """(num, den) of the rational `rat` draws, den >= 1."""
        while True:
            num = self.rng.randint(-self.bound, self.bound)
            den = self.rng.randint(1, self.bound)
            if nonzero and num == 0:
                self.rejections += 1
                continue
            return num, den

    def _unit(self) -> tuple:
        """(num, den) of a rational num / den in (0, 1): 1 <= num <= den - 1."""
        den = self.rng.randint(2, self.bound)
        return self.rng.randint(1, den - 1), den

    def _half_unit_eps(self) -> tuple:
        """Four eps in (0, 1/2), eps_i = n_i / (2 d_i) with 1 <= n_i <= d_i - 1,
        as (numerators, denominator) over 2 lcm(d_i)."""
        draws = []
        for _ in range(4):
            d = self.rng.randint(3, 2 * self.bound)
            draws.append((self.rng.randint(1, d - 1), d))
        nums, den = _over_lcm(draws)
        return nums, 2 * den

    def retry(self, make, accept):
        for _ in range(RETRY_LIMIT):
            x = make()
            if accept(x):
                return x
            self.rejections += 1
        raise SamplerExhausted(f"sampler found no acceptable value in {RETRY_LIMIT} draws "
                               f"at bound {self.bound}; try a larger bound")

    # -- structured samples -------------------------------------------------

    def kappa(self) -> KappaParams:
        """Generic exponents, k0 != 0, tested as numerators over the lcm D
        of their denominators: k0 = 0 iff their sum is D.  At bound 2 each
        k_i is +-1/2 or +-3/2, so some signed sum is odd: it raises at once."""
        if self.bound == 2:
            raise SamplerExhausted("no generic exponents exist at bound 2, where every draw "
                                   "has an odd signed sum; try a larger bound")

        def make():
            draws = []
            for _ in range(4):
                den = self.rng.randint(2, self.bound)
                draws.append((self.rng.randint(-2 * den + 1, 2 * den - 1), den))
            return _over_lcm(draws)

        def accept(draw):
            nums, den = draw
            return generic_numerators(nums, den) and sum(nums) != den

        return KappaParams.generic_from_numerators(*self.retry(make, accept))

    def pq_state(self) -> PQState:
        """A state with q, and also Q = q + k0/p, away from the poles, so
        both normal-form gauges and the classifying map are defined, tested
        on integer pairs: t = a/b, q = c/d, p = e/f, Q = (c h e + g f d)/(d h e)
        for k0 = g/h."""
        kp = self.kappa()
        g, h = kp.k0.numerator, kp.k0.denominator

        def make():
            return (self._pair(), self._pair(), self._pair(nonzero=True))

        def accept(trip):
            (a, b), (c, d), (e, f) = trip
            if a in (0, b) or c in (0, d) or c * b == a * d:
                return False
            num, den = c * h * e + g * f * d, d * h * e
            return num not in (0, den) and num * b != a * den

        (a, b), (c, d), (e, f) = self.retry(make, accept)
        return PQState(t=Fraction(a, b), kappa=kp, q=Fraction(c, d), p=Fraction(e, f))

    def eps_nonspecial(self) -> tuple:
        return _eps(*self.retry(self._half_unit_eps, lambda c: _zone_of(*c) is not None))

    def weights_in_zone(self, zone: str) -> Weights:
        """Nonspecial weights with the requested zone label.

        An unstable zone is a contact set S (`stability.ZONE_CONTACT`):
        zone A is hit directly by scaling four parts of (0, 1) to a sum in
        (0, 1/2), and zone S is an A sample moved by `et_pair` at the poles
        of S, eps -> 1/2 - eps and mu -> -1/2 there, on its numerators.
        Stable is hit by rejection.
        """
        if zone in ZONE_CONTACT:
            def make():
                # part_i = a_i / d_i and target = b / (2 e) in (0, 1/2): over
                # D = lcm(d_i) and N = sum of the part numerators over D,
                # part_i * target / total = a_i (D / d_i) b / (2 e N)
                parts = [self._unit() for _ in range(4)]
                b, e = self._unit()
                scaled, _ = _over_lcm(parts)
                return [n * b for n in scaled], 2 * e * sum(scaled)

            nums, den = self.retry(make, lambda c: _zone_of(*c) == ZONE_A)
            moved = ZONE_CONTACT[zone]
        elif zone == ZONE_STABLE:
            nums, den = self.retry(self._half_unit_eps, lambda c: _zone_of(*c) == ZONE_STABLE)
            moved = frozenset()
        else:
            raise ValueError(f"unknown zone {zone}")
        zero = Fraction(0)
        return Weights(mu=tuple(-HALF if i in moved else zero for i in range(1, 5)),
                       eps=_eps([den // 2 - n if i in moved else n  # den is even
                                 for i, n in enumerate(nums, start=1)], den))

    def general_position_u(self, poles) -> tuple:
        """Finite parabolic coordinates with no three directions on one
        line (hence simple), the structures the zone claims are made for:
        a line through three directions would outscore the conic."""
        def make():
            return tuple(self.rat() for _ in range(4))

        def accept(u):
            return in_general_position(QuasiPar(poles=tuple(poles), u=u))

        return self.retry(make, accept)

