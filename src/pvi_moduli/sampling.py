"""Seeded deterministic sampling of rational parameters.

Samplers produce small rationals (numerators and denominators bounded by
`bound`) and reject special parameters by resampling; rejection counts
are kept so reports can state them.  Same seed, same stream.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .connection import KappaParams, PQState, kappa_generic
from .errors import SamplerExhausted, SpecialWeights
from .mconv import ExponentData, nonspecial_exponents
from .stability import Weights, ZONE_STABLE, classify_zone, czone, et_pair, weights_nonspecial

HALF = Fraction(1, 2)


class RationalSampler:
    def __init__(self, seed: int, bound: int = 64):
        if bound < 2:
            raise ValueError("bound must be at least 2")
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

    def rat_in_unit(self, open_interval=True) -> Fraction:
        """A rational in (0, 1)."""
        while True:
            den = self.rng.randint(2, self.bound)
            num = self.rng.randint(1, den - 1)
            v = Fraction(num, den)
            if open_interval and (v == 0 or v == 1):
                self.rejections += 1
                continue
            return v

    def retry(self, make, accept, limit: int = 10000):
        for _ in range(limit):
            x = make()
            if accept(x):
                return x
            self.rejections += 1
        raise SamplerExhausted(f"sampler found no acceptable value in {limit} draws "
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
            return kappa_generic(kp) and kp.k0 != 0

        return self.retry(make, accept)

    def pq_state(self, t=None) -> PQState:
        """A state with q, and also Q = q + k0/p, away from the poles, so
        both normal-form gauges and the classifying map are defined."""
        kp = self.kappa()

        def make():
            tv = Fraction(t) if t is not None else self.rat()
            return (tv, self.rat(), self.rat(nonzero=True))

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

        def accept(eps):
            try:
                classify_zone(Weights.of_eps(eps))
            except SpecialWeights:
                return False
            return weights_nonspecial(Weights.of_eps(eps))

        return self.retry(make, accept)

    def rat_strictly_between_0_half(self) -> Fraction:
        while True:
            den = self.rng.randint(3, 2 * self.bound)
            num = self.rng.randint(1, den - 1)
            v = Fraction(num, 2 * den)
            if 0 < v < HALF:
                return v
            self.rejections += 1

    def weights_in_zone(self, zone: str) -> Weights:
        """Nonspecial weights with the requested zone label.

        Zone A is hit directly by scaling, B by reflecting an A sample,
        the pair zones by an elementary-transformation pair on an A
        sample, and Stable by rejection.
        """
        if zone == "A" or zone == "B" or zone.startswith("C"):
            def make():
                parts = [self.rat_in_unit() for _ in range(4)]
                total = sum(parts)
                target = self.rat_in_unit() * HALF  # in (0, 1/2)
                eps = tuple(p * target / total for p in parts)
                return eps

            def accept(eps):
                try:
                    w = Weights.of_eps(eps)
                except SpecialWeights:
                    return False
                if not weights_nonspecial(w):
                    return False
                try:
                    return classify_zone(w) == "A"
                except SpecialWeights:
                    return False

            eps = self.retry(make, accept)
            w = Weights.of_eps(eps)
            if zone == "A":
                return w
            if zone == "B":
                # reflect all four: eps -> 1/2 - eps via two et pairs
                return et_pair(et_pair(w, 1, 2), 3, 4)
            i, j = int(zone[1]), int(zone[2])
            return et_pair(w, i, j)
        if zone == ZONE_STABLE:
            def accept_stable(eps):
                try:
                    w = Weights.of_eps(eps)
                    return weights_nonspecial(w) and classify_zone(w) == ZONE_STABLE
                except SpecialWeights:
                    return False

            eps = self.retry(lambda: tuple(self.rat_strictly_between_0_half()
                                           for _ in range(4)), accept_stable)
            return Weights.of_eps(eps)
        raise ValueError(f"unknown zone {zone}")

    def exponent_data_in_zone(self, zone: str) -> ExponentData:
        def make():
            return ExponentData.of_eps(self.weights_in_zone(zone).eps)

        return self.retry(make, nonspecial_exponents)

    def simple_u(self, poles) -> tuple:
        """Finite parabolic coordinates forming a simple structure."""
        from .parabolic import QuasiPar, is_simple

        def make():
            return tuple(self.rat() for _ in range(4))

        def accept(u):
            return is_simple(QuasiPar(poles=tuple(poles), u=u))

        return self.retry(make, accept)


ALL_ZONE_LABELS = ("A", "B", czone(1, 2), czone(1, 3), czone(1, 4),
                   czone(2, 3), czone(2, 4), czone(3, 4))
