from fractions import Fraction as F

import pytest

from pvi_moduli.backlund import (SymState, WORD_SCHLESINGER, WORD_SHIFT_12, WORD_SHIFT_34,
                                 al_chart, apply_generator, apply_word, big_q_of,
                                 big_q_prime_of, check_relations, parse_word, q_of,
                                 schlesinger_composite_qp, symplectic_check,
                                 transversality_solve)
from pvi_moduli.connection import PQState
from pvi_moduli.errors import DegenerateInput, NoFiniteIntersection
from pvi_moduli.exact import INF
from pvi_moduli.sampling import RationalSampler


def worked_state():
    return SymState.make(t=F(2), k1234=(F(1, 8), F(1, 8), F(1, 8), F(1, 8)), q=F(3), p=F(5))


def random_state(rs: RationalSampler) -> SymState:
    s = rs.pq_state()
    return SymState(t=s.t, kappa=s.kappa, q=s.q, p=s.p)


class TestGenerators:
    def test_okamoto_involution_on_worked_state(self):
        out = apply_generator("s0", worked_state())
        assert out.kappa.all4 == (F(3, 8), F(3, 8), F(3, 8), F(3, 8))
        assert out.kappa.k0 == F(-1, 4)
        assert out.q == F(61, 20) and out.p == F(5)

    def test_s1_shifts_p_by_its_own_exponent(self):
        s = worked_state()
        out = apply_generator("s1", s)
        assert out.q == s.q
        assert out.p == s.p - s.kappa.k1 / s.q
        assert out.kappa.all4 == (-s.kappa.k1, s.kappa.k2, s.kappa.k3, s.kappa.k4)
        # the composite of all four switches produces the alternative
        # fibration denominator p - k1/q - k2/(q-1) - k3/(q-t)
        s4 = apply_word(("s1", "s2", "s3", "s4"), s)
        k = s.kappa
        assert s4.p == s.p - k.k1 / s.q - k.k2 / (s.q - 1) - k.k3 / (s.q - s.t)

    def test_s4_fixes_coordinates(self):
        s = worked_state()
        out = apply_generator("s4", s)
        assert (out.q, out.p) == (s.q, s.p)

    def test_pole_permutations_are_involutions(self):
        rs = RationalSampler(seed=61, bound=16)
        for name in ("r12_34", "r13_24", "r14_23"):
            s = random_state(rs)
            assert apply_word((name, name), s) == s

    def test_unknown_generator(self):
        with pytest.raises(DegenerateInput):
            apply_generator("s9", worked_state())


class TestWords:
    def test_empty_word_is_identity(self):
        s = worked_state()
        assert apply_word((), s) == s

    def test_s0_squared_is_identity(self):
        rs = RationalSampler(seed=67, bound=16)
        for _ in range(10):
            s = random_state(rs)
            assert apply_word(("s0", "s0"), s) == s

    def test_degenerate_step_reports_index(self):
        s = SymState.make(t=F(2), k1234=(F(1, 8),) * 4, q=F(3), p=F(1, 12))
        # s0 moves q to 3 + (1/4)(12) = 6; next r13_24 is fine; force a pole:
        bad = SymState.make(t=F(2), k1234=(F(1, 8),) * 4, q=F(1), p=F(5))
        with pytest.raises(DegenerateInput, match="step 1"):
            apply_word(("s4", "r13_24"), bad)

    def test_parse_word(self):
        assert parse_word("s0, s1 ,r12_34") == ("s0", "s1", "r12_34")


class TestRelations:
    def test_all_relations_on_samples(self):
        rs = RationalSampler(seed=71, bound=16)
        done = 0
        while done < 10:
            s = random_state(rs)
            try:
                results = check_relations(s)
            except DegenerateInput:
                continue
            assert all(holds for _, holds, _ in results), \
                [name for name, holds, _ in results if not holds]
            done += 1

    def test_commutation_example(self):
        s = worked_state()
        assert apply_word(("s1", "s2"), s) == apply_word(("s2", "s1"), s)

    def test_braid_example(self):
        s = worked_state()
        assert apply_word(("r12_34", "s1"), s) == apply_word(("s2", "r12_34"), s)


class TestComposites:
    def test_shift_words(self):
        rs = RationalSampler(seed=73, bound=16)
        for _ in range(8):
            s = random_state(rs)
            k = s.kappa
            out12 = apply_word(WORD_SHIFT_12, s)
            assert out12.kappa.all4 == (k.k1 + 1, k.k2 + 1, k.k3, k.k4)
            out34 = apply_word(WORD_SHIFT_34, s)
            assert out34.kappa.all4 == (k.k1, k.k2, k.k3 + 1, k.k4 + 1)

    def test_closed_form_equals_word(self):
        rs = RationalSampler(seed=79, bound=16)
        for _ in range(8):
            s = random_state(rs)
            assert schlesinger_composite_qp(s) == apply_word(WORD_SCHLESINGER, s)

    def test_kappa_action_of_composite(self):
        s = worked_state()
        out = schlesinger_composite_qp(s)
        assert out.kappa.all4 == (F(7, 8), F(7, 8), F(1, 8), F(1, 8))


class TestFibrations:
    def test_big_q_worked_value(self):
        assert big_q_of(worked_state()) == F(61, 20)

    def test_factorization_through_involution(self):
        rs = RationalSampler(seed=83, bound=16)
        for _ in range(10):
            s = random_state(rs)
            assert q_of(apply_generator("s0", s)) == big_q_of(s)
            assert big_q_of(apply_generator("s0", s)) == q_of(s)

    def test_alternative_coordinate_closed_form(self):
        s = worked_state()
        k = s.kappa
        closed = s.q + (1 - k.k0) / (s.p - k.k1 / s.q - k.k2 / (s.q - 1) - k.k3 / (s.q - s.t))
        assert big_q_prime_of(s) == closed

    def test_p_zero_rejected(self):
        s = SymState.make(t=F(2), k1234=(F(1, 8),) * 4, q=F(3), p=F(0))
        with pytest.raises(DegenerateInput):
            big_q_of(s)

    @pytest.mark.parametrize("formula", [
        lambda s: apply_generator("s4", s), lambda s: apply_word(("s0",), s),
        check_relations, schlesinger_composite_qp, q_of, big_q_of, symplectic_check,
    ])
    def test_infinite_q_rejected(self, formula):
        assert SymState is PQState
        s = PQState(t=F(2), kappa=worked_state().kappa, q=INF, p=F(5))
        with pytest.raises(DegenerateInput, match="q = inf"):
            formula(s)


class TestChart:
    def test_worked_chart(self):
        assert al_chart(worked_state()) == (F(3), F(61, 20))

    def test_involution_swaps_coordinates(self):
        rs = RationalSampler(seed=89, bound=16)
        for _ in range(10):
            s = random_state(rs)
            x, y = al_chart(s)
            assert al_chart(apply_generator("s0", s)) == (y, x)

    def test_blowup_slopes(self):
        # dy/dx through the distinguished points over the diagonal:
        # 1 + k0/k_i at the finite poles, k4/(k0 + k4) at infinity
        from pvi_moduli.exact import Dual
        s = worked_state()
        t, k = s.t, s.kappa
        data = ((F(0), t * k.k1, k.k1), (F(1), (1 - t) * k.k2, k.k2),
                (t, t * (t - 1) * k.k3, k.k3))
        for pole, ptil_plus, ki in data:
            qd = Dual.var(pole)
            ptil = ptil_plus + (qd - pole) * F(9, 4)   # any curve through the point
            y = qd + k.k0 * qd * (qd - 1) * (qd - t) / ptil
            assert y.val == pole and y.der == 1 + k.k0 / ki
        wd = Dual.var(F(0))                            # reciprocal chart at infinity
        ptil_inf = -k.k0 - k.k4 + wd * F(9, 4)
        y_inv = wd * ptil_inf / (ptil_inf + k.k0 * (1 - wd) * (1 - t * wd))
        assert y_inv.der == (k.k0 + k.k4) / k.k4       # so dy/dx = k4/(k0+k4)

    def test_slope_identities_on_random_states(self):
        from pvi_moduli.verify import _slope_identities
        rs = RationalSampler(seed=91, bound=16)
        for _ in range(10):
            assert _slope_identities(random_state(rs))


class TestSymplectic:
    def test_worked_numbers(self):
        s = worked_state()
        # jacobian determinant -k0/p^2 = -1/100, conformal factor p^2/k0 = 100
        assert s.kappa.k0 / s.p ** 2 == F(1, 100)
        assert symplectic_check(s)

    def test_random_states(self):
        rs = RationalSampler(seed=97, bound=16)
        for _ in range(15):
            assert symplectic_check(random_state(rs))

    def test_vanishing_k0_rejected(self):
        s = SymState.make(t=F(2), k1234=(F(1, 4), F(1, 4), F(1, 4), F(1, 4)), q=F(3), p=F(5))
        assert s.kappa.k0 == 0
        with pytest.raises(DegenerateInput):
            symplectic_check(s)


class TestTransversality:
    def test_worked_solution(self):
        assert transversality_solve(F(3), F(61, 20), F(1, 4)) == (F(3), F(5))

    def test_no_finite_intersection(self):
        with pytest.raises(NoFiniteIntersection):
            transversality_solve(F(3), F(3), F(1, 4))

    def test_unique_solution_on_random_pairs(self):
        rs = RationalSampler(seed=101, bound=20)
        for _ in range(20):
            l1, l2, k0 = rs.rat(), rs.rat(), rs.rat(nonzero=True)
            if l1 == l2:
                continue
            q, p = transversality_solve(l1, l2, k0)
            assert q == l1 and q + k0 / p == l2
            # the system is linear in (q, 1/p): one solution only
            assert p == k0 / (l2 - l1)
