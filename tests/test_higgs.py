import time
from fractions import Fraction as F

import pytest

from pvi_moduli.connection import PPoint, PQState, Sheet
from pvi_moduli.errors import DegenerateInput, SpecialWeights
from pvi_moduli.exact import INF, Mat2
from pvi_moduli.higgs import (GRADED, THETA_ZERO, higgs_limit, representative,
                              theta_divisor, v_alpha_stable, v_alpha_unstable)
from pvi_moduli.parabolic import Subbundle, parabolic_from_connection, phi_map
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import ALL_ZONE_LABELS, Weights, classify_zone, find_destabilizer
from pvi_moduli.verify import (colinear_limit_identity, graded_limit_identity,
                               quotient_slope_identity, stable_limit_identities,
                               zone_a_limit_identities)

from records import failed
from shared import worked_state

ZONE_A_W = Weights.of_eps([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
STABLE_W = Weights.of_eps([F(6, 25), F(13, 50), F(27, 100), F(23, 100)])


def _failures(seed, bound, count, zones, identities):
    """The failed records of `identities(s, w)` over `count` draws per zone,
    each state s drawn before its weights w, as in the higgs suite."""
    rs = RationalSampler(seed=seed, bound=bound)
    return [name for zone in zones for _ in range(count)
            for name in failed(identities(rs.pq_state(), rs.weights_in_zone(zone)))]


class TestZoneA:
    def test_worked_limit(self):
        lim = higgs_limit(worked_state(), ZONE_A_W)
        assert lim.kind == GRADED
        assert lim.deg_l == 1 and lim.contact == frozenset()
        assert lim.divisor == (F(3),)
        assert lim.quotient_contact == frozenset({1, 2, 3, 4})

    # the higgs suite's zone-A claims (verify.zone_a_limit_identities)
    def test_divisor_is_apparent_singularity(self):
        assert _failures(43, 16, 12, ["A"], zone_a_limit_identities) == []

    def test_composition_with_fibration(self):
        assert _failures(47, 16, 8, ["A"], zone_a_limit_identities) == []

    def test_sheets_give_distinct_values(self):
        poles = (F(0), F(1), F(2), INF)
        plus = v_alpha_unstable(PPoint(base=F(0), sheet=Sheet.PLUS), poles)
        minus = v_alpha_unstable(PPoint(base=F(0), sheet=Sheet.MINUS), poles)
        assert plus != minus
        assert plus.contact == frozenset() and minus.contact == frozenset({1})

    def test_generic_point_direct(self):
        poles = (F(0), F(1), F(2), INF)
        lim = v_alpha_unstable(PPoint(base=F(3), sheet=Sheet.GENERIC), poles)
        assert lim.divisor == (F(3),) and lim.deg_l == 1


class TestUnstableZonesNeverThetaZero:
    def test_all_eight_zones(self):
        def identity(s, w):
            return graded_limit_identity(classify_zone(w), s, w)

        assert _failures(53, 14, 3, ALL_ZONE_LABELS, identity) == []


class TestStableZone:
    def test_theta_zero_for_generic_states(self):
        lim = higgs_limit(worked_state(), STABLE_W)
        assert lim.kind == THETA_ZERO

    def test_limit_depends_only_on_classifying_point(self):
        s1 = worked_state()
        big_q = s1.q + s1.kappa.k0 / s1.p
        q2 = F(7)
        s2 = PQState(t=s1.t, kappa=s1.kappa, q=q2, p=s1.kappa.k0 / (big_q - q2))
        assert s2.p != s1.p
        assert phi_map(parabolic_from_connection(s1)) == phi_map(parabolic_from_connection(s2))
        assert failed(stable_limit_identities(STABLE_W, s1, s2)) == []

    def test_matches_point_construction(self):
        # with s2 = s1 the limits agree trivially; the claim here is the point construction
        s = worked_state()
        assert failed(stable_limit_identities(STABLE_W, s, s)) == []

    def test_origin_unstable_branch(self):
        w = Weights.of_eps([F(2, 5), F(1, 5), F(1, 5), F(1, 5)])
        poles = (F(0), F(1), F(2), INF)
        lim = v_alpha_stable(PPoint(base=F(0), sheet=Sheet.MINUS), w, poles)
        assert lim.kind == GRADED
        assert lim.deg_l == 1 and lim.contact == frozenset({1}) and lim.divisor == (F(0),)
        # the other point over the same pole stays theta-zero
        other = v_alpha_stable(PPoint(base=F(0), sheet=Sheet.PLUS), w, poles)
        assert other.kind == THETA_ZERO

    def test_colinear_unstable_branch(self):
        w = Weights.of_eps([F(1, 20), F(9, 20), F(9, 20), F(9, 20)])
        poles = (F(0), F(1), F(2), INF)
        lim = v_alpha_stable(PPoint(base=F(0), sheet=Sheet.PLUS), w, poles)
        assert lim.kind == GRADED
        assert lim.deg_l == 0 and lim.contact == frozenset({2, 3, 4})
        assert lim.divisor == (F(1), F(2), INF)
        other = v_alpha_stable(PPoint(base=F(0), sheet=Sheet.MINUS), w, poles)
        assert other.kind == THETA_ZERO

    def test_branch_wall_rejected(self):
        w = Weights.of_eps([F(1, 4)] * 4)
        poles = (F(0), F(1), F(2), INF)
        with pytest.raises(SpecialWeights):
            v_alpha_stable(PPoint(base=F(0), sheet=Sheet.MINUS), w, poles)

    def test_colinear_locus_from_connection(self):
        # the higgs suite's colinear-unstable claim at the worked state
        w = Weights.of_eps([F(1, 20), F(9, 20), F(9, 20), F(9, 20)])
        assert failed(colinear_limit_identity(worked_state(), w)) == []


class TestThetaDivisor:
    def test_full_contact_divisor_has_five_points(self):
        # in the large-eps zone the destabilizer meets all four directions;
        # the Higgs field picks up the four poles plus one extra zero
        s = worked_state()
        w = Weights.of_eps([F(2, 5), F(5, 12), F(3, 7), F(9, 20)])
        qp = parabolic_from_connection(s)
        sub = find_destabilizer(qp, w)
        assert sub.degree == -1 and sub.contact == frozenset({1, 2, 3, 4})
        div = theta_divisor(s, sub)
        assert len(div) == 5
        for pole in (F(0), F(1), F(2), INF):
            assert pole in div

    @pytest.mark.parametrize("state, line, contact", [
        # worked state: the line -10 + x meets only the direction over 0
        (worked_state(), (F(-10), F(1)), {1}),
        # heights near 1e9: the verdict must come from degrees alone
        (PQState.make(t=F(1000000007, 999999937),
                      k1234=(F(123456791, 1000000009), F(-987654323, 1000000021),
                             F(555555557, 1000000033), F(222222227, 1000000087)),
                      q=F(-999999929, 1000000123), p=F(777777781, 1000000181)),
         (F(999999893, 1000000223), F(-888888901, 1000000241)), set()),
    ])
    def test_subbundle_destabilizing_for_no_weights_rejected(self, state, line, contact):
        # a degree-0 subbundle needs two contact poles to destabilize for
        # any weights; with fewer, a factor of degree >= 2 is left over
        sub = Subbundle(degree=0, coefficients=line, contact=frozenset(contact))
        start = time.perf_counter()
        with pytest.raises(DegenerateInput, match="destabilizes for no weights"):
            theta_divisor(state, sub)
        assert time.perf_counter() - start < 2.0

    def test_graded_quotient_slope(self):
        assert _failures(59, 14, 1, ALL_ZONE_LABELS, quotient_slope_identity) == []


class TestRepresentative:
    def test_roundtrip_generic(self):
        poles = (F(0), F(1), F(2), INF)
        pt = PPoint(base=F(61, 20), sheet=Sheet.GENERIC)
        qp = representative(pt, poles)
        assert phi_map(qp) == pt

    def test_roundtrip_sheets(self):
        poles = (F(0), F(1), F(2), INF)
        for base, sheet in ((F(0), Sheet.MINUS), (F(1), Sheet.PLUS),
                            (F(2), Sheet.MINUS), (INF, Sheet.PLUS), (INF, Sheet.MINUS)):
            pt = PPoint(base=base, sheet=sheet)
            assert phi_map(representative(pt, poles)) == pt

    @pytest.mark.parametrize("point, message", [
        (PPoint(base=F(3), sheet=Sheet.MINUS), "sheet labels only exist over the poles"),
        (PPoint(base=F(1), sheet=Sheet.GENERIC), "needs a plus or minus sheet"),
    ], ids=["sheet-off-the-poles", "generic-over-a-pole"])
    @pytest.mark.parametrize("construct", [
        lambda pt, poles: representative(pt, poles),
        lambda pt, poles: v_alpha_unstable(pt, poles),
        lambda pt, poles: v_alpha_stable(pt, STABLE_W, poles),
    ], ids=["representative", "v_alpha_unstable", "v_alpha_stable"])
    def test_bad_points_are_rejected(self, construct, point, message):
        with pytest.raises(DegenerateInput, match=message):
            construct(point, (F(0), F(1), F(2), INF))

    def test_json_shape(self):
        lim = higgs_limit(worked_state(), ZONE_A_W)
        d = lim.to_json_dict()
        assert d == {"kind": "graded", "degL": 1, "contact": [], "divisor": ["3/1"]}


class TestReadsThePoleData:
    @pytest.mark.parametrize("w", [ZONE_A_W, STABLE_W,
                                   Weights.of_eps([F(2, 5), F(5, 12), F(3, 7), F(9, 20)])],
                             ids=["zone A", "stable", "zone B"])
    def test_higgs_limit_builds_no_residue_matrix(self, monkeypatch, w):
        # the limit reads the state's pole data: no Mat2, normal form or eigen table
        built = []
        init = Mat2.__init__

        def counted(self, *entries):
            built.append(entries)
            init(self, *entries)

        monkeypatch.setattr(Mat2, "__init__", counted)
        s = worked_state()
        higgs_limit(s, w)
        assert built == []
        assert "pole_data" in vars(s) and not {"normal_form", "eigen_table"} & set(vars(s))
