"""Seeded deterministic sampling of rational parameters.

Samplers produce small rationals (numerators and denominators bounded by
`bound`) and reject special parameters by resampling; rejection counts
are kept so reports can state them.  Same seed, same stream.

The weight samplers test each candidate on integers: its four eps are
numerators over one common denominator, which the nonspecial test and
the zone classifier read as they are (both ask only about the ratios),
and the `Fraction`s are made once, for the accepted draw.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .connection import KappaParams, PQState
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


class RationalSampler:
    def __init__(self, seed: int, bound: int = 64):
        if bound < 2:
            raise ValueError(f"bound must be at least 2, got {bound}")
        self.rng = random.Random(seed)
        self.bound = bound
        self.rejections = 0

    def rat(self, nonzero: bool = False) -> Fraction:
        while True:
            num = self.rng.randint(-self.bound, self.bound)
            den = self.rng.randint(1, self.bound)
            if nonzero and num == 0:
                self.rejections += 1
                continue
            return Fraction(num, den)

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
        den = math.lcm(*(d for _, d in draws))
        return [n * (den // d) for n, d in draws], 2 * den

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
        def make():
            ks = []
            for _ in range(4):
                den = self.rng.randint(2, self.bound)
                num = self.rng.randint(-2 * den + 1, 2 * den - 1)
                ks.append(Fraction(num, den))
            return KappaParams.from_k1234(*ks)

        def accept(kp):
            return kp.generic and kp.k0 != 0

        return self.retry(make, accept)

    def pq_state(self) -> PQState:
        """A state with q, and also Q = q + k0/p, away from the poles, so
        both normal-form gauges and the classifying map are defined."""
        kp = self.kappa()

        def make():
            return (self.rat(), self.rat(), self.rat(nonzero=True))

        def accept(trip):
            tv, q, p = trip
            if tv in (0, 1) or q in (0, 1, tv):
                return False
            return q + kp.k0 / p not in (0, 1, tv)

        tv, q, p = self.retry(make, accept)
        return PQState(t=tv, kappa=kp, q=q, p=p)

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
                big_d = math.lcm(*(d for _, d in parts))
                scaled = [a * (big_d // d) for a, d in parts]
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

