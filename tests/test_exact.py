import copy
import pickle
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pvi_moduli.errors import DegenerateInput, NoSolution
from pvi_moduli.exact import (INF, Dual, Infinity, Mat2, is_inf, pick_sums, poly_add,
                              poly_deriv, poly_divmod, poly_mul, poly_trim, proj_from_str,
                              proj_to_str, rat_from_str, rat_to_str, solve_linear)

rationals = st.fractions(min_value=F(-10**6), max_value=F(10**6), max_denominator=10**4)
nonzero_rationals = rationals.filter(lambda x: x != 0)


class TestRat:
    def test_addition(self):
        assert F(1, 3) + F(1, 6) == F(1, 2)

    def test_canonical_form(self):
        x = F(2, 4)
        assert (x.numerator, x.denominator) == (1, 2)
        assert rat_to_str(F(-4, -8)) == "1/2"

    def test_division_by_zero(self):
        with pytest.raises(DegenerateInput):
            rat_from_str("1/0")
        with pytest.raises(ZeroDivisionError):
            F(1, 3) / F(0)

    @given(rationals, rationals, rationals)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_rationals)
    def test_inverses(self, a):
        assert a * (1 / a) == 1
        assert a + (-a) == 0

    def test_serialization_roundtrip(self):
        assert rat_from_str(rat_to_str(F(-22, 7))) == F(-22, 7)
        assert rat_to_str(F(5)) == "5/1"
        assert proj_to_str(INF) == "inf"
        assert is_inf(proj_from_str("inf"))
        assert proj_from_str("3/4") == F(3, 4)

    @pytest.mark.parametrize("text", ["1e5", "1e-10000000", "0.3", ".5", "1_000", "1/2_0",
                                      "\u0663/4", "\uff11/2", "1/-2", "1 / 2", "/3", "3/",
                                      "", "inf", "nan", "0x10"])
    def test_only_the_documented_grammar_parses(self, text):
        with pytest.raises(DegenerateInput, match="not a rational"):
            rat_from_str(text)

    @pytest.mark.parametrize("value", [5, None, F(1, 2)])
    def test_non_strings_are_rejected(self, value):
        with pytest.raises(DegenerateInput, match="not a rational"):
            rat_from_str(value)

    def test_signs_padding_and_unreduced_input(self):
        assert rat_from_str(" -22/7\n") == F(-22, 7)
        assert rat_from_str("+5") == F(5)
        assert rat_from_str("006/010") == F(3, 5)
        assert rat_from_str("-0/3") == 0

    @given(st.fractions())
    def test_round_trip(self, x):
        assert rat_from_str(rat_to_str(x)) == x
        assert rat_from_str(f"{x.numerator}") == x.numerator

    @given(st.lists(st.tuples(rationals, rationals), max_size=5))
    def test_pick_sums_takes_one_entry_of_each_pair(self, pairs):
        brute = [sum(choice) for choice in product(*pairs)]
        assert Counter(pick_sums(pairs)) == Counter(brute)


class TestInfinity:
    """`Infinity` has the default identity equality and hash, so every way
    of making a point at infinity has to give `INF` itself."""

    def test_constructor_returns_the_one_instance(self):
        assert Infinity() is INF

    @pytest.mark.parametrize("make", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_copies_are_inf(self, make):
        assert make(INF) is INF

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_inf(self, protocol):
        assert pickle.loads(pickle.dumps(INF, protocol=protocol)) is INF

    @pytest.mark.parametrize("protocol", [0, 1])
    def test_old_pickle_protocols_give_a_copy_no_check_calls_infinity(self, protocol):
        """Protocols 0 and 1 rebuild through `object.__new__`, which skips
        `Infinity.__new__`; equality and `is_inf` both compare identity, so
        they agree that the copy is not the point at infinity."""
        stray = pickle.loads(pickle.dumps(INF, protocol=protocol))
        assert stray is not INF and stray != INF and not is_inf(stray)
        assert is_inf(INF) and is_inf(Infinity())

    def test_equality_and_hash(self):
        assert INF == INF
        assert INF != F(0) and F(0) != INF and INF != 0
        points = {INF: "inf", F(0): "0"}
        assert points[Infinity()] == "inf" and points[proj_from_str("inf")] == "inf"


class TestSolveLinear:
    def test_identity(self):
        sol = solve_linear([[1, 0], [0, 1]], [1, 2])
        assert sol.rank == 2 and sol.particular == (F(1), F(2)) and sol.nullity == 0

    def test_two_point_interpolation_unique(self):
        # v0 + v1 t = u at two distinct nodes has a unique solution
        t1, t2, u1, u2 = F(2), F(5), F(7), F(-3)
        sol = solve_linear([[1, t1], [1, t2]], [u1, u2])
        assert sol.rank == 2 and sol.nullity == 0
        v0, v1 = sol.particular
        assert v0 + v1 * t1 == u1 and v0 + v1 * t2 == u2

    def test_contact_system_rank4(self):
        # w(t_i) = u_i v(t_i) at nodes (0, 1, 2) plus the leading-coefficient
        # condition at infinity: generic data gives rank 4, nullity 1
        ts, us = [F(0), F(1), F(2)], [F(3), F(-4), F(9)]
        rows = [[-u, -u * t, 1, t, t * t] for t, u in zip(ts, us)]
        rows.append([F(0), F(-5), F(0), F(0), F(1)])  # w2 = 5 v1
        sol = solve_linear(rows, [F(0)] * 4)
        assert sol.rank == 4 and sol.nullity == 1
        v = sol.nullspace[0]
        for row in rows:
            assert sum(a * x for a, x in zip(row, v)) == 0

    def test_inconsistent(self):
        with pytest.raises(NoSolution):
            solve_linear([[1, 1], [1, 1]], [0, 1])

    @given(st.lists(rationals, min_size=6, max_size=6))
    def test_substitution_identity(self, vals):
        rows = [vals[0:2], vals[2:4]]
        rhs = vals[4:6]
        try:
            sol = solve_linear(rows, rhs)
        except NoSolution:
            return
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, sol.particular)) == b
        for nv in sol.nullspace:
            for row in rows:
                assert sum(a * x for a, x in zip(row, nv)) == 0


class TestPolynomials:
    @given(st.lists(rationals, max_size=6), st.lists(rationals, min_size=1, max_size=4))
    def test_divmod_identity(self, f, g):
        if not poly_trim(g):
            with pytest.raises(DegenerateInput):
                poly_divmod(f, g)
            return
        quot, rem = poly_divmod(f, g)
        assert poly_trim(poly_add(poly_mul(quot, g), rem)) == poly_trim(f)
        assert len(rem) < len(poly_trim(g)) and rem == poly_trim(rem)

    def test_deriv(self):
        assert poly_deriv([F(5), F(1, 2), F(3), F(2)]) == [F(1, 2), F(6), F(6)]
        assert poly_deriv([F(5)]) == []


class TestDual:
    @given(rationals, rationals, rationals, rationals)
    def test_product_rule(self, a, da, b, db):
        x, y = Dual(a, da), Dual(b, db)
        assert (x * y).der == a * db + da * b

    @given(nonzero_rationals, rationals)
    def test_chain_rule_on_rational_function(self, a, da):
        # f(x) = (x^2 + 1) / x; f'(x) = 1 - 1/x^2
        x = Dual(a, da)
        f = (x * x + 1) / x
        assert f.der == (1 - F(1) / (a * a)) * da

    def test_delta_squared_zero(self):
        d = Dual(F(0), F(1))
        assert (d * d).val == 0 and (d * d).der == 0

    def test_division_value_zero(self):
        with pytest.raises(DegenerateInput):
            Dual.const(1) / Dual(F(0), F(1))


class TestMat2:
    def test_matvec_on_a_general_vector(self):
        # first entry not 1, so a21 * v[0] and a21 / v[0] differ
        m = Mat2(F(1, 2), F(-3), F(5, 7), F(2))
        assert m.matvec((F(3), F(-1, 4))) == (F(9, 4), F(23, 14))
