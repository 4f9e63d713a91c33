from fractions import Fraction as F

import pytest

from pvi_moduli.connection import Sheet
from pvi_moduli.errors import DegenerateInput, NotSimple
from pvi_moduli.exact import INF
from pvi_moduli.parabolic import (AutElement, QuasiPar, act, in_general_position, is_simple,
                                  parabolic_from_connection, parabolic_structures, phi_map,
                                  q_map, q_map_parabolic)
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.verify import fibration_identities

from records import passes
from shared import worked_state

POLES = (F(0), F(1), F(2), INF)


def worked_qp():
    return QuasiPar(poles=POLES, u=(F(-10), F(-15), F(-30), F(1, 4)))


class TestAutAction:
    def test_identity(self):
        qp = worked_qp()
        assert act(AutElement(F(1), F(0), F(0)), qp) == qp

    def test_translation(self):
        qp = QuasiPar(poles=(F(0), F(1), F(2), F(5)), u=(F(0), F(0), F(0), F(1)))
        out = act(AutElement(F(1), F(3), F(7)), qp)
        assert out.u == (F(3), F(10), F(17), F(39))

    def test_infinity_fixed(self):
        qp = QuasiPar(poles=POLES, u=(INF, F(0), F(1), F(2)))
        out = act(AutElement(F(5), F(3), F(7)), qp)
        assert out.u[0] == INF

    def test_group_action(self):
        rs = RationalSampler(seed=5, bound=12)
        qp = QuasiPar(poles=POLES, u=rs.general_position_u(POLES))
        for _ in range(5):
            g = AutElement(rs.rat(nonzero=True), rs.rat(), rs.rat())
            h = AutElement(rs.rat(nonzero=True), rs.rat(), rs.rat())
            assert act(g.compose(h), qp) == act(g, act(h, qp))

    def test_scalars_act_trivially(self):
        # the scalar subgroup of the automorphisms is (1, 0, 0)
        qp = worked_qp()
        assert act(AutElement(F(1), F(0), F(0)), qp) == qp


class TestSimplicity:
    def test_two_infinite_directions(self):
        assert not is_simple(QuasiPar(poles=POLES, u=(INF, INF, F(0), F(0))))

    def test_three_interpolated_but_not_fourth(self):
        qp = QuasiPar(poles=(F(0), F(1), F(2), F(3)), u=(F(0), F(0), F(0), F(1)))
        assert is_simple(qp)

    def test_all_on_a_line(self):
        qp = QuasiPar(poles=(F(0), F(1), F(2), F(3)), u=(F(0), F(1), F(2), F(3)))
        assert not is_simple(qp)

    def test_simple_with_three_directions_on_a_line(self):
        # u1, u2, u3 lie on v = 3/2 - x; u4 = 1/3 is not its slope -1
        qp = QuasiPar(poles=(F(0), F(1), F(3), INF), u=(F(3, 2), F(1, 2), F(-3, 2), F(1, 3)))
        assert is_simple(qp) and not in_general_position(qp)

    @pytest.mark.parametrize("slot", range(4))
    def test_general_position_rejects_an_infinite_direction(self, slot):
        u = [F(0), F(1), F(3), F(7)]
        u[slot] = INF
        with pytest.raises(DegenerateInput, match="four finite directions"):
            in_general_position(QuasiPar(poles=POLES, u=tuple(u)))

    def test_line_through_infinity_chart(self):
        # u4 equals the leading coefficient of the interpolant: decomposable
        qp = QuasiPar(poles=POLES, u=(F(1), F(3), F(5), F(2)))
        assert not is_simple(qp)

    def test_aut_invariance(self):
        rs = RationalSampler(seed=7, bound=12)
        for _ in range(10):
            u = tuple(rs.rat() for _ in range(4))
            qp = QuasiPar(poles=POLES, u=u)
            g = AutElement(rs.rat(nonzero=True), rs.rat(), rs.rat())
            assert is_simple(qp) == is_simple(act(g, qp))


class TestQMap:
    def test_worked_value(self):
        assert q_map_parabolic(worked_qp()) == F(61, 20)

    def test_matches_subbundle_route(self):
        assert q_map(worked_qp()) == F(61, 20)

    def test_scaling_invariance(self):
        qp = worked_qp()
        out = act(AutElement(F(7, 3), F(0), F(0)), qp)
        assert q_map_parabolic(out) == q_map_parabolic(qp)

    def test_translation_invariance(self):
        rs = RationalSampler(seed=9, bound=12)
        qp = QuasiPar(poles=POLES, u=rs.general_position_u(POLES))
        q0 = q_map(qp)
        for _ in range(6):
            g = AutElement(F(1), rs.rat(), rs.rat())
            assert q_map(act(g, qp)) == q0

    def test_not_simple_rejected(self):
        # all four directions on the line 1 + 2x (leading coefficient at infinity)
        qp = QuasiPar(poles=POLES, u=(F(1), F(3), F(5), F(2)))
        with pytest.raises(NotSimple):
            q_map_parabolic(qp)


class TestPhiMap:
    def test_generic(self):
        pt = phi_map(worked_qp())
        assert pt.base == F(61, 20) and pt.sheet == Sheet.GENERIC

    def test_origin_branch(self):
        # direction at the first pole on the distinguished fiber
        qp = QuasiPar(poles=POLES, u=(INF, F(1), F(3), F(9)))
        pt = phi_map(qp)
        assert pt.base == F(0) and pt.sheet == Sheet.MINUS

    def test_colinear_branch(self):
        # directions 2, 3, 4 on one line, first one generic
        # line v = 1 + 2x: values 3 at t=1, 5 at t=2, leading coefficient 2
        qp = QuasiPar(poles=POLES, u=(F(17), F(3), F(5), F(2)))
        assert is_simple(qp)
        pt = phi_map(qp)
        assert pt.base == F(0) and pt.sheet == Sheet.PLUS

    def test_aut_invariance(self):
        rs = RationalSampler(seed=13, bound=10)
        qp = QuasiPar(poles=POLES, u=rs.general_position_u(POLES))
        pt = phi_map(qp)
        for _ in range(5):
            g = AutElement(rs.rat(nonzero=True), rs.rat(), rs.rat())
            assert phi_map(act(g, qp)) == pt

    def test_not_simple_rejected(self):
        with pytest.raises(NotSimple):
            phi_map(QuasiPar(poles=POLES, u=(INF, INF, F(0), F(0))))


class TestConicSubbundle:
    @staticmethod
    def closed_form_section(t, u1, u2, u3, u4):
        # the degree-(-1) map through all four directions, written out for
        # poles (0, 1, t, inf) with finite coordinates
        a = (t - 1) * u1 - t * u2 + u3
        b = t * (u2 - u3 + (t - 1) * u4)
        w2 = a * u4
        w1 = -(u1 * u2 - t * u1 * u3 + (t - 1) * u2 * u3
               + (t * t - 1) * u1 * u4 - t * t * u2 * u4 + u3 * u4)
        w0 = t * u1 * (u2 - u3 + (t - 1) * u4)
        return (b, a, w0, w1, w2)

    def test_matches_closed_form_up_to_scale(self):
        from pvi_moduli.parabolic import conic_subbundle
        rs = RationalSampler(seed=211, bound=20)
        for _ in range(15):
            t = rs.retry(lambda: rs.rat(), lambda x: x not in (0, 1))
            poles = (F(0), F(1), t, INF)
            u = rs.general_position_u(poles)
            (v, w) = conic_subbundle(QuasiPar(poles=poles, u=u))
            mine = list(v) + list(w)
            ref = self.closed_form_section(t, *u)
            assert any(x != 0 for x in mine) and any(x != 0 for x in ref)
            for i in range(5):
                for j in range(i + 1, 5):
                    assert mine[i] * ref[j] == mine[j] * ref[i]


class TestFromConnection:
    def test_worked_coordinates(self):
        qp = parabolic_from_connection(worked_state())
        assert qp.u == (F(-10), F(-15), F(-30), F(1, 4))

    def test_fibration_identity(self):
        s = worked_state()
        qp = parabolic_from_connection(s)
        assert q_map_parabolic(qp) == s.q + s.kappa.k0 / s.p == F(61, 20)

    def test_fibration_identity_random(self):
        rs = RationalSampler(seed=17, bound=16)
        for _ in range(15):
            records = passes(fibration_identities(rs.pq_state()))
            assert records["Q of the induced parabolic equals q + k0/p"]

    def test_plus_structure_gives_alternative_coordinate(self):
        rs = RationalSampler(seed=19, bound=16)
        for _ in range(10):
            s = rs.pq_state()
            assert parabolic_structures(s)[0] == parabolic_from_connection(s)
            assert passes(fibration_identities(s))["alternative structure computes Q'"]
