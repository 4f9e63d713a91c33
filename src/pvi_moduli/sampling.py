"""Seeded deterministic sampling of rational parameters.

Samplers produce small rationals (numerators and denominators bounded by
`bound`) and reject special parameters by resampling; rejection counts
are kept so reports can state them.  Same seed, same stream.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .connection import KappaParams, PQState
from .errors import SamplerExhausted
from .exact import HALF
from .parabolic import QuasiPar, in_general_position
from .stability import (ZONE_A, ZONE_CONTACT, ZONE_STABLE, Weights, classify_zone, et_pair,
                        nonspecial_eps)

RETRY_LIMIT = 10000  # draws before a sampler gives up


def _zone_of(eps) -> Optional[str]:
    """The zone label of nonspecial eps in (0, 1/2), else None; every wall
    of `classify_zone` is a signed eps sum at +-1/2 or 3/2."""
    return classify_zone(Weights.of_eps(eps)) if nonspecial_eps(eps) else None


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

    def rat_in_unit(self) -> Fraction:
        """A rational in (0, 1): 1 <= num <= den - 1."""
        den = self.rng.randint(2, self.bound)
        return Fraction(self.rng.randint(1, den - 1), den)

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
        def make():
            return tuple(self.rat_strictly_between_0_half() for _ in range(4))

        return self.retry(make, lambda eps: _zone_of(eps) is not None)

    def rat_strictly_between_0_half(self) -> Fraction:
        """A rational in (0, 1/2): num / (2 den) with 1 <= num <= den - 1."""
        den = self.rng.randint(3, 2 * self.bound)
        return Fraction(self.rng.randint(1, den - 1), 2 * den)

    def weights_in_zone(self, zone: str) -> Weights:
        """Nonspecial weights with the requested zone label.

        An unstable zone is a contact set S (`stability.ZONE_CONTACT`):
        zone A is hit directly by scaling, and zone S is an A sample moved
        by `et_pair` over the sorted S in pairs.  Stable is hit by rejection.
        """
        if zone in ZONE_CONTACT:
            def make():
                parts = [self.rat_in_unit() for _ in range(4)]
                total = sum(parts)
                target = self.rat_in_unit() * HALF  # in (0, 1/2)
                return tuple(p * target / total for p in parts)

            w = Weights.of_eps(self.retry(make, lambda eps: _zone_of(eps) == ZONE_A))
            poles = sorted(ZONE_CONTACT[zone])
            for i, j in zip(poles[::2], poles[1::2]):
                w = et_pair(w, i, j)
            return w
        if zone == ZONE_STABLE:
            eps = self.retry(lambda: tuple(self.rat_strictly_between_0_half()
                                           for _ in range(4)),
                             lambda eps: _zone_of(eps) == ZONE_STABLE)
            return Weights.of_eps(eps)
        raise ValueError(f"unknown zone {zone}")

    def general_position_u(self, poles) -> tuple:
        """Finite parabolic coordinates with no three directions on one
        line (hence simple), the structures the zone claims are made for:
        a line through three directions would outscore the conic."""
        def make():
            return tuple(self.rat() for _ in range(4))

        def accept(u):
            return in_general_position(QuasiPar(poles=tuple(poles), u=u))

        return self.retry(make, accept)

