from fractions import Fraction as F
from itertools import combinations, product

import pytest

from pvi_moduli.errors import DegenerateInput, SpecialParameters, SpecialWeights
from pvi_moduli.exact import okamoto_s0
from pvi_moduli.mconv import (defect, mc_exponents, odd_degree_weights, parse_sigma,
                              zone_interchange_check)
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import ALL_ZONE_LABELS, ZONE_STABLE, Weights, classify_zone
from pvi_moduli.verify import defect_identity, interchange_identity, mc_identities

from records import failed, passes

HALF = F(1, 2)


def _mod1(x):
    return x - (x.numerator // x.denominator)


class TestDefect:
    def test_rank2_four_points(self):
        ((name, passed, _),) = defect_identity()
        assert passed, name

    def test_empty_multiplicities(self):
        assert defect(2, 4, (0, 0, 0, 0)) == 4

    def test_rank1_three_points(self):
        assert defect(1, 3, (1, 1, 1)) == -2


class TestExponentData:
    # middle convolution reads and returns Weights; odd degree is a
    # precondition of mc_exponents, checked before the sigma is parsed
    def test_degree_normalization_enforced(self):
        with pytest.raises(DegenerateInput, match="odd-degree"):
            mc_exponents(Weights.of_eps((F(1, 10),) * 4), sigma="bad")

    def test_of_eps(self):
        e = odd_degree_weights([F(1, 10)] * 4)
        assert _mod1(sum(e.mu)) == HALF
        assert classify_zone(e) == "A"

    def test_eps_range_enforced(self):
        with pytest.raises(SpecialWeights):
            odd_degree_weights([F(1, 2), F(1, 10), F(1, 10), F(1, 10)])


def _zone_a_failures(seed):
    """The failed records of the mc suite's zone-A claims, `mc_identities`,
    on 20 odd-degree zone-A weights drawn at `seed`."""
    rs = RationalSampler(seed=seed, bound=24)
    return [name for _ in range(20)
            for name in failed(mc_identities(odd_degree_weights(rs.weights_in_zone("A").eps)))]


class TestTransform:
    def test_uniform_tenth_all_plus(self):
        e = odd_degree_weights([F(1, 10)] * 4)
        out = mc_exponents(e, sigma="++++")
        assert out.eps == (F(3, 20),) * 4
        assert classify_zone(out) == "Stable"
        assert sum(out.eps) == 1 - sum(e.eps)

    # sum eps' = 1 - sum eps in (1/2, 1), and the pair combinations kept
    def test_sum_identity_on_zone_a(self):
        assert _zone_a_failures(seed=103) == []

    def test_pair_combination_preserved(self):
        assert _zone_a_failures(seed=107) == []

    def test_output_normalization(self):
        rs = RationalSampler(seed=109, bound=24)
        for zone in ALL_ZONE_LABELS:
            e = odd_degree_weights(rs.weights_in_zone(zone).eps)
            for signs in product("+-", repeat=4):
                out = mc_exponents(e, sigma="".join(signs))
                assert all(0 < ev < HALF for ev in out.eps)
                assert _mod1(sum(out.mu)) == HALF

    def test_twist_independence_of_zone(self):
        e = odd_degree_weights([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        assert passes(mc_identities(e))["zone of the image is twist-independent"]

    def test_default_choice_meets_product_constraint(self):
        # mc_exponents does not check its default twists: z4 absorbs the
        # product constraint for any mu and sigma, so passing the same z
        # explicitly is accepted and gives the same image
        rs = RationalSampler(seed=127, bound=24)
        for zone in list(ALL_ZONE_LABELS) + ["Stable"]:
            eps = rs.weights_in_zone(zone).eps
            mu = [rs.rat() for _ in range(3)]
            for e in (odd_degree_weights(eps), Weights(mu=(*mu, -HALF - sum(mu)), eps=eps)):
                for signs in product("+-", repeat=4):
                    sigma = "".join(signs)
                    chosen = sum(m + s * x for m, s, x in zip(e.mu, parse_sigma(sigma), e.eps))
                    z = (F(0), F(0), F(0), _mod1(-chosen))
                    assert mc_exponents(e, sigma, z) == mc_exponents(e, sigma)

    def test_bad_twist_rejected(self):
        e = odd_degree_weights([F(1, 10)] * 4)
        with pytest.raises(DegenerateInput):
            mc_exponents(e, z=(F(0),) * 4)

    def test_special_input_rejected(self):
        # signed sum 1/8+1/8+1/8+1/8 - 1/2 = 0: on a reflection wall
        e = Weights(mu=(F(0), F(0), F(0), F(-1, 2)), eps=(F(1, 8),) * 4)
        with pytest.raises(SpecialParameters):
            mc_exponents(e, sigma="++++")

    def test_minus_at_last_pole_computed_zone(self):
        # the one-sign-flipped convolver from the small-eps zone: the
        # computed image lies in the stable zone (recorded, not assumed)
        e = odd_degree_weights([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        assert passes(mc_identities(e))["zone A, minus-at-4: computed image zone is Stable"]


class TestInterchange:
    def test_every_unstable_zone_reaches_stable(self):
        rs = RationalSampler(seed=113, bound=24)
        for zone in ALL_ZONE_LABELS:
            e = rs.weights_in_zone(zone)
            ((name, passed, witness),) = interchange_identity(zone, e)
            assert passed, name
            assert witness["zones"]["++++"] == ZONE_STABLE
            assert zone_interchange_check(e)["input_zone"] == zone

    def test_stable_input_rejected(self):
        e = odd_degree_weights([F(6, 25), F(13, 50), F(27, 100), F(23, 100)])
        with pytest.raises(DegenerateInput):
            zone_interchange_check(e)

    def test_parse_sigma(self):
        assert parse_sigma("+-+-") == (1, -1, 1, -1)
        with pytest.raises(DegenerateInput):
            parse_sigma("++")


# Zone A is the open simplex {eps_i > 0, sum(eps) < 1/2}; its vertices are 0 and e_i/2.
ZONE_A_VERTICES = [(F(0),) * 4] + [tuple(HALF if j == i else F(0) for j in range(4))
                                   for i in range(4)]


def _single_flip_margins(eps):
    """s0 of kappa_sigma for sigma = +++- at eps, 2 k0 minus the image sum,
    and each affine margin the theorem below needs to be positive."""
    kappa = [2 * s * e for s, e in zip(parse_sigma("+++-"), eps)]
    k0 = HALF - sum(kappa) / 2
    image = okamoto_s0(k0, *kappa)[1:]
    out = [k / 2 for k in image]
    margins = {f"image_{i + 1} >= 0": k for i, k in enumerate(image)}
    margins.update({f"image_{i + 1} <= 1": 1 - k for i, k in enumerate(image)})
    margins.update({"sum(eps') > 1/2": sum(out) - HALF, "sum(eps') < 3/2": 3 * HALF - sum(out)})
    margins.update({f"eps'_{i + 1} + eps'_{j + 1} - rest < 1/2":
                    HALF - (2 * (out[i] + out[j]) - sum(out))
                    for i, j in combinations(range(4), 2)})
    margins.update({f"eps'_{i + 1} > 0": e for i, e in enumerate(out)})
    margins.update({f"eps'_{i + 1} < 1/2": HALF - e for i, e in enumerate(out)})
    return image, 2 * k0 - sum(image), margins


class TestSingleFlipOnZoneA:
    """`+++-` sends all of zone A into the stable zone: the refutation of
    criterion 10b as a theorem, in exact Q.  Each margin is affine in eps,
    so one that is >= 0 at every vertex and > 0 at the origin is > 0 on the
    open simplex, where every barycentric coordinate is positive.  There
    the image lies in (0, 1), so no floor moves, and 2 k0 - sum(image) = -1
    is odd, so no pole is flipped: eps' = okamoto_s0(kappa_sigma)/2."""

    def test_margins_hold_at_the_vertices_and_strictly_at_the_origin(self):
        for vertex in ZONE_A_VERTICES:
            _, parity, margins = _single_flip_margins(vertex)
            assert parity == -1
            assert [name for name, m in margins.items() if m < 0] == [], vertex
        _, _, at_origin = _single_flip_margins(ZONE_A_VERTICES[0])
        assert [name for name, m in at_origin.items() if m <= 0] == []

    def test_vertex_images(self):
        assert _single_flip_margins(ZONE_A_VERTICES[0])[0] == (HALF,) * 4
        assert _single_flip_margins(ZONE_A_VERTICES[4])[0] == (1, 1, 1, 0)

    def test_mc_exponents_is_half_the_image_inside_zone_a(self):
        eps = (F(1, 10), F(1, 12), F(1, 14), F(1, 16))
        out = mc_exponents(odd_degree_weights(eps), sigma="+++-")
        assert out.eps == tuple(k / 2 for k in _single_flip_margins(eps)[0])
