"""The integer-first weight samplers against the Fraction samplers they replaced.

`RationalSampler.weights_in_zone` and `eps_nonspecial` hold each
candidate as integer numerators over one denominator and build Fractions
only for the accepted draw.  The functions below are the former
samplers, kept as the reference: they draw the same `rng` integers as
Fractions, sum and scale them, test the nonspecial condition on Fraction
signed sums and classify through `Weights.of_eps`, and move a zone-A
sample into zone S with `et_pair`.  Over many seeds, every zone and
small and large bounds, both must return equal values, count the same
rejections and leave the generator in the same state, or fail alike.
"""
from fractions import Fraction as F
from itertools import product

import pytest

from pvi_moduli.errors import SamplerExhausted
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import (ALL_ZONE_LABELS, ZONE_A, ZONE_CONTACT, ZONE_STABLE, Weights,
                                  classify_zone, et_pair)

HALF = F(1, 2)
SEEDS = range(40)
BOUNDS = (2, 3, 14, 64)
DRAWS = 3  # consecutive draws from one sampler, so each starts where the last left the stream


def ref_nonspecial(eps):
    """No signed sum +-eps_1 +- ... +- eps_4 is a half-integer, on Fractions."""
    sums = (sum(s * e for s, e in zip(signs, eps)) for signs in product((1, -1), repeat=4))
    return not any((2 * s).denominator == 1 and s.denominator != 1 for s in sums)


def ref_zone_of(eps):
    return classify_zone(Weights.of_eps(eps)) if ref_nonspecial(eps) else None


def ref_rat_in_unit(rs):
    den = rs.rng.randint(2, rs.bound)
    return F(rs.rng.randint(1, den - 1), den)


def ref_rat_strictly_between_0_half(rs):
    den = rs.rng.randint(3, 2 * rs.bound)
    return F(rs.rng.randint(1, den - 1), 2 * den)


def ref_eps_nonspecial(rs):
    def make():
        return tuple(ref_rat_strictly_between_0_half(rs) for _ in range(4))

    return rs.retry(make, lambda eps: ref_zone_of(eps) is not None)


def ref_weights_in_zone(rs, zone):
    if zone in ZONE_CONTACT:
        def make():
            parts = [ref_rat_in_unit(rs) for _ in range(4)]
            total = sum(parts)
            target = ref_rat_in_unit(rs) * HALF
            return tuple(p * target / total for p in parts)

        w = Weights.of_eps(rs.retry(make, lambda eps: ref_zone_of(eps) == ZONE_A))
        poles = sorted(ZONE_CONTACT[zone])
        for i, j in zip(poles[::2], poles[1::2]):
            w = et_pair(w, i, j)
        return w
    if zone == ZONE_STABLE:
        eps = rs.retry(lambda: tuple(ref_rat_strictly_between_0_half(rs) for _ in range(4)),
                       lambda eps: ref_zone_of(eps) == ZONE_STABLE)
        return Weights.of_eps(eps)
    raise ValueError(f"unknown zone {zone}")


def run(draw, seed, bound):
    """DRAWS results of `draw` on a fresh sampler (an exhausted draw ends
    the run with its error), then the rejections and the generator state."""
    rs = RationalSampler(seed, bound)
    results = []
    try:
        for _ in range(DRAWS):
            results.append(draw(rs))
    except SamplerExhausted as exc:
        results.append(("exhausted", str(exc)))
    return results, rs.rejections, rs.rng.getstate()


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("zone", ALL_ZONE_LABELS + (ZONE_STABLE,))
def test_weights_in_zone_matches_the_fraction_sampler(zone, bound):
    for seed in SEEDS:
        new = run(lambda rs: rs.weights_in_zone(zone), seed, bound)
        assert new == run(lambda rs: ref_weights_in_zone(rs, zone), seed, bound), seed
        # Fractions, not integers that compare equal to them
        assert all(type(x) is F for w in new[0] if isinstance(w, Weights) for x in w.mu + w.eps)


@pytest.mark.parametrize("bound", BOUNDS)
def test_eps_nonspecial_matches_the_fraction_sampler(bound):
    for seed in SEEDS:
        new = run(lambda rs: rs.eps_nonspecial(), seed, bound)
        assert new == run(ref_eps_nonspecial, seed, bound), seed
        assert all(type(e) is F for eps in new[0] if eps[0] != "exhausted" for e in eps)
