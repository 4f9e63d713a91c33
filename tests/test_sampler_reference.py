"""The integer-first samplers against the Fraction samplers they replaced.

`RationalSampler.weights_in_zone` and `eps_nonspecial` hold each
candidate as integer numerators over one denominator and build Fractions
only for the accepted draw.  The functions below are the former
samplers, kept as the reference: they draw the same `rng` integers as
Fractions, sum and scale them, test the nonspecial condition on Fraction
signed sums and classify through `Weights.of_eps`, and move a zone-A
sample into zone S with `et_pair`.  Likewise `kappa` tests its exponents
as numerators over their lcm and `pq_state` its t, q and Q as integer
pairs; `ref_kappa` and `ref_pq_state` are the former Fraction versions,
which build each draw's `KappaParams` through `from_k1234` and ask
`kappa_generic`.  Over many seeds, every zone and small and large
bounds, both must return equal values, count the same rejections and
leave the generator in the same state, or fail alike.  At bound 2 every
kappa has an odd signed sum (each k_i is +-1/2 or +-3/2, and flipping one
sign moves the sum by an odd integer).  There the references exhaust
their draws, and `kappa` and `pq_state` raise at once, drawing nothing.
A reference draw there is one of 7^4 = 2,401 exponent tuples, and
`SHORT_LIMIT` draws per seed over the 40 seeds meet every one of them, so
the retry limit is lowered to that at bound 2 to keep tier-1 fast.
`ref_rat` is the former `rat`, whose nonzero draw rejected zero
numerators in a loop of its own; `rat` now rejects them through `retry`.
"""
import random
from fractions import Fraction as F
from itertools import product

import pytest

from pvi_moduli.connection import KappaParams, PQState, kappa_generic
from pvi_moduli import sampling
from pvi_moduli.errors import SamplerExhausted
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import (ALL_ZONE_LABELS, ZONE_A, ZONE_CONTACT, ZONE_STABLE, Weights,
                                  classify_zone, et_pair)

HALF = F(1, 2)
SEEDS = range(40)
BOUNDS = (2, 3, 14, 64)
DRAWS = 3  # consecutive draws from one sampler, so each starts where the last left the stream
SHORT_LIMIT = 500  # the retry limit of the kappa and state comparisons at bound 2


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


def ref_rat(rs, nonzero=False):
    while True:
        num = rs.rng.randint(-rs.bound, rs.bound)
        den = rs.rng.randint(1, rs.bound)
        if nonzero and num == 0:
            rs.rejections += 1
            continue
        return F(num, den)


def ref_kappa(rs):
    def make():
        ks = []
        for _ in range(4):
            den = rs.rng.randint(2, rs.bound)
            num = rs.rng.randint(-2 * den + 1, 2 * den - 1)
            ks.append(F(num, den))
        return KappaParams.from_k1234(*ks)

    def accept(kp):
        return kp.generic and kp.k0 != 0

    return rs.retry(make, accept)


def ref_pq_state(rs):
    kp = ref_kappa(rs)

    def make():
        return (ref_rat(rs), ref_rat(rs), ref_rat(rs, nonzero=True))

    def accept(trip):
        tv, q, p = trip
        if tv in (0, 1) or q in (0, 1, tv):
            return False
        return q + kp.k0 / p not in (0, 1, tv)

    tv, q, p = rs.retry(make, accept)
    return PQState(t=tv, kappa=kp, q=q, p=p)


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


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("nonzero", [False, True])
def test_rat_matches_the_fraction_sampler(bound, nonzero):
    for seed in SEEDS:
        new = run(lambda rs: rs.rat(nonzero), seed, bound)
        assert new == run(lambda rs: ref_rat(rs, nonzero), seed, bound), seed


def kappa_fields(kappa):
    return (kappa.k0, kappa.k1, kappa.k2, kappa.k3, kappa.k4)


NO_KAPPA = ("exhausted", "no generic exponents exist at bound 2, where every draw has an odd "
            "signed sum; try a larger bound")


@pytest.fixture
def exhausting(monkeypatch, bound):
    """At bound 2, where every kappa is special, a retry limit of
    SHORT_LIMIT: the text each reference gives up with."""
    if bound != 2:
        return None
    monkeypatch.setattr(sampling, "RETRY_LIMIT", SHORT_LIMIT)
    return ("exhausted", f"sampler found no acceptable value in {SHORT_LIMIT} draws at bound 2; "
            "try a larger bound")


def drew_nothing(seed):
    """What `run` gives for a sampler that raises `NO_KAPPA` at once."""
    return [NO_KAPPA], 0, random.Random(seed).getstate()


@pytest.mark.parametrize("bound", BOUNDS)
def test_kappa_matches_the_fraction_sampler(bound, exhausting):
    for seed in SEEDS:
        new, ref = run(lambda rs: rs.kappa(), seed, bound), run(ref_kappa, seed, bound)
        if exhausting:
            assert ref[0] == [exhausting] and new == drew_nothing(seed), seed
            continue
        assert new == ref, seed
        kappas = [k for k in new[0] if isinstance(k, KappaParams)]
        assert all(type(x) is F for k in kappas for x in kappa_fields(k))
        # the verdict it carries is the one `kappa_generic` gives
        assert all(k.generic is True and kappa_generic(k) for k in kappas)


@pytest.mark.parametrize("bound", BOUNDS)
def test_pq_state_matches_the_fraction_sampler(bound, exhausting):
    for seed in SEEDS:
        new, ref = run(lambda rs: rs.pq_state(), seed, bound), run(ref_pq_state, seed, bound)
        if exhausting:
            assert ref[0] == [exhausting] and new == drew_nothing(seed), seed
            continue
        assert new == ref, seed
        assert all(type(x) is F for s in new[0] if isinstance(s, PQState)
                   for x in (s.t, s.q, s.p) + kappa_fields(s.kappa))


@pytest.mark.parametrize("draw", [RationalSampler.kappa, RationalSampler.pq_state],
                         ids=["kappa", "pq_state"])
def test_no_kappa_at_bound_2_is_known_before_any_draw(draw):
    """At bound 2 the exponent draw raises SamplerExhausted at once: no
    draw, no rejection, the generator where it was."""
    rs = RationalSampler(seed=1, bound=2)
    state = rs.rng.getstate()
    with pytest.raises(SamplerExhausted, match="bound 2"):
        draw(rs)
    assert rs.rng.getstate() == state and rs.rejections == 0
