from fractions import Fraction as F

import pytest

from pvi_moduli import backlund, verify
from pvi_moduli.backlund import (WORD_SHIFT_12, SymState, al_chart, apply_generator, apply_word,
                                 big_q_of, big_q_prime_of, check_relations, parse_word, q_of,
                                 schlesinger_composite_qp, symplectic_check,
                                 transversality_solve)
from pvi_moduli.connection import PQState
from pvi_moduli.errors import DegenerateInput, NoFiniteIntersection
from pvi_moduli.exact import INF

from records import failed, passes
from shared import worked_state


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

    def test_unknown_generator(self):
        with pytest.raises(DegenerateInput):
            apply_generator("s9", worked_state())


class TestWords:
    def test_empty_word_is_identity(self):
        s = worked_state()
        assert apply_word((), s) == s

    def test_degenerate_step_reports_index(self):
        s = SymState.make(t=F(2), k1234=(F(1, 8),) * 4, q=F(3), p=F(1, 12))
        # s0 moves q to 3 + (1/4)(12) = 6; next r13_24 is fine; force a pole:
        bad = SymState.make(t=F(2), k1234=(F(1, 8),) * 4, q=F(1), p=F(5))
        with pytest.raises(DegenerateInput, match="step 1"):
            apply_word(("s4", "r13_24"), bad)

    def test_parse_word(self):
        assert parse_word("s0, s1 ,r12_34") == ("s0", "s1", "r12_34")


class TestRelations:
    def test_commutation_example(self):
        s = worked_state()
        assert apply_word(("s1", "s2"), s) == apply_word(("s2", "s1"), s)

    def test_braid_example(self):
        s = worked_state()
        assert apply_word(("r12_34", "s1"), s) == apply_word(("s2", "r12_34"), s)

    def test_building_the_table_leaves_the_module_namespace_alone(self):
        s = worked_state()
        for name in ("r12_34", "r13_24", "r14_23"):
            assert backlund._r(name)(s) == backlund.GENERATORS[name](s)
        assert not {"_i", "_j", "_a", "_b", "_prs"} & set(vars(backlund))


class TestPrefixTable:
    def test_identities_make_each_prefix_once(self, monkeypatch):
        # the 68 prefixes of the relation words, then the 14 the shift and
        # Schlesinger words add; s0 and s0 s0 are relation prefixes already
        # (89 generator steps when each word was walked on its own)
        calls = []

        def counted(name, s):
            calls.append(name)
            return apply_generator(name, s)

        monkeypatch.setattr(backlund, "apply_generator", counted)
        s = SymState.make(t=F(2), k1234=(F(1, 8), F(1, 3), F(1, 5), F(1, 7)), q=F(3), p=F(5))
        assert failed(verify.backlund_identities(s)) == []
        assert len(calls) == 82

    def test_degenerate_word_step_is_the_one_apply_word_reports(self):
        # every relation holds here, but p vanishes after r12_34 s1 s2, so
        # the s0 at step 3 of the shift word has nothing to divide by
        s = SymState.make(t=F(2), k1234=(F(1, 8), F(1, 3), F(1, 5), F(1, 7)), q=F(3),
                          p=F(-587, 1680))
        assert all(holds for _, holds, _ in check_relations(s))
        message = r"word degenerates at step 3 \(s0\): s0 needs p != 0"
        with pytest.raises(DegenerateInput, match=message):
            apply_word(WORD_SHIFT_12, s)
        with pytest.raises(DegenerateInput, match=message):
            verify.backlund_identities(s)


class TestComposites:
    def test_kappa_action_of_composite(self):
        s = worked_state()
        out = schlesinger_composite_qp(s)
        assert out.kappa.all4 == (F(7, 8), F(7, 8), F(1, 8), F(1, 8))


class TestFibrations:
    def test_big_q_worked_value(self):
        assert big_q_of(worked_state()) == F(61, 20)

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

    def test_blowup_slopes(self):
        # dy/dx through the distinguished points over the diagonal:
        # 1 + k0/k_i at the finite poles, k4/(k0 + k4) at infinity
        records = passes(verify.backlund_identities(worked_state()))
        assert records["chart slopes at the diagonal points"]

class TestSymplectic:
    def test_worked_numbers(self):
        s = worked_state()
        # jacobian determinant -k0/p^2 = -1/100, conformal factor p^2/k0 = 100
        assert s.kappa.k0 / s.p ** 2 == F(1, 100)
        assert symplectic_check(s)

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
