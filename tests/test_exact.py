import copy
import pickle
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pvi_moduli.connection import KappaParams, PQState, build_connection
from pvi_moduli.errors import DegenerateInput, NoSolution
from pvi_moduli.exact import (INF, Dual, Infinity, Mat2, Value, is_inf, pick_sums, poly_deriv,
                              proj_from_str, proj_to_str, rat_from_str, rat_to_str, solve_linear)
from pvi_moduli.lattice import DivClass
from pvi_moduli.stability import Weights

from shared import exact_or_moduli_error, matrix_at, matvec, rationals as heights, states

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
    of making a point at infinity has to give `INF` itself: `__new__`
    returns it, and `__reduce__` names it for copies and pickles."""

    def test_constructor_returns_the_one_instance(self):
        assert Infinity() is INF

    @pytest.mark.parametrize("make", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_copies_are_inf(self, make):
        assert make(INF) is INF

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_inf(self, protocol):
        """Every protocol, 0 and 1 included, loads the global `INF`."""
        assert pickle.loads(pickle.dumps(INF, protocol=protocol)) is INF

    def test_equality_and_hash(self):
        assert INF == INF
        assert INF != F(0) and F(0) != INF and INF != 0
        points = {INF: "inf", F(0): "0"}
        assert points[Infinity()] == "inf" and points[proj_from_str("inf")] == "inf"


class TestValue:
    """`Value` subclasses compare, hash and print by the parameters of their
    own `__init__`, and cannot be changed after construction."""

    class Pair(Value):
        def __init__(self, x, y):
            self.__dict__.update(x=x, y=y)

    class OtherPair(Value):
        def __init__(self, x, y):
            self.__dict__.update(x=x, y=y)

    @pytest.mark.parametrize("make", [
        lambda: Mat2(F(1, 2), F(-3), 0, 7),
        lambda: Dual(F(1, 2), 1),
        lambda: KappaParams.from_k1234(F(1, 3), F(1, 5), F(1, 7), F(1, 11)),
        lambda: DivClass((1, 0, -1, 0, 0, 2, 0, 0, 0, 0)),
        lambda: Weights.of_eps((F(1, 3), F(1, 5), F(1, 7), F(1, 11))),
    ], ids=["Mat2", "Dual", "KappaParams", "DivClass", "Weights"])
    def test_equal_fields_are_equal_with_equal_hashes(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b) and not a != b

    def test_fields_are_the_init_parameters(self):
        assert Mat2._fields == ("a11", "a12", "a21", "a22")
        assert PQState._fields == ("t", "kappa", "q", "p")

    def test_unequal_fields_or_classes_are_unequal(self):
        assert self.Pair(1, 2) != self.Pair(1, 3)
        assert self.Pair(1, 2) != self.OtherPair(1, 2)
        assert self.OtherPair(1, 2) != self.Pair(1, 2)
        assert self.Pair(1, 2) != (1, 2)

    def test_fields_cannot_be_assigned_or_deleted(self):
        m = Mat2(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            m.a11 = 5
        with pytest.raises(AttributeError):
            m.new_field = 5
        with pytest.raises(AttributeError):
            del m.a12
        assert m == Mat2(1, 2, 3, 4)

    def test_repr_names_every_field(self):
        assert repr(Dual(F(1, 2), 1)) == "Dual(val=Fraction(1, 2), der=1)"
        assert repr(self.Pair(INF, "a")) == "TestValue.Pair(x=inf, y='a')"

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy] + [
        lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)],
        ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)])
    def test_state_with_a_cached_normal_form_round_trips(self, copier):
        state = PQState.make(F(3), (F(1, 3), F(1, 5), F(1, 7), F(1, 11)), F(2, 3), F(5, 7))
        normal_form = state.normal_form
        got = copier(state)
        assert got == state and hash(got) == hash(state)
        assert got.normal_form == normal_form and got.kappa.generic == state.kappa.generic
        at_inf = PQState(t=F(3), kappa=state.kappa, q=INF, p=F(1))
        assert copier(at_inf).q is INF

    @pytest.mark.parametrize("make", [
        lambda: Mat2(1, 2, 3),
        lambda: Mat2(1, 2, 3, 4, 5),
        lambda: PQState(t=F(3), kappa=KappaParams.from_k1234(0, 0, 0, 0), q=F(1)),
        lambda: PQState(t=F(3), kappa=KappaParams.from_k1234(0, 0, 0, 0), q=F(1), p=F(1), r=0),
        lambda: DivClass(),
    ])
    def test_a_missing_or_extra_argument_is_a_type_error(self, make):
        with pytest.raises(TypeError):
            make()


class TestSolveLinear:
    def test_identity(self):
        sol = solve_linear([[1, 0], [0, 1]], [1, 2])
        assert sol.rank == 2 and sol.particular == (F(1), F(2)) and len(sol.nullspace) == 0

    def test_two_point_interpolation_unique(self):
        # v0 + v1 t = u at two distinct nodes has a unique solution
        t1, t2, u1, u2 = F(2), F(5), F(7), F(-3)
        sol = solve_linear([[1, t1], [1, t2]], [u1, u2])
        assert sol.rank == 2 and len(sol.nullspace) == 0
        v0, v1 = sol.particular
        assert v0 + v1 * t1 == u1 and v0 + v1 * t2 == u2

    def test_contact_system_rank4(self):
        # w(t_i) = u_i v(t_i) at nodes (0, 1, 2) plus the leading-coefficient
        # condition at infinity: generic data gives rank 4, nullity 1
        ts, us = [F(0), F(1), F(2)], [F(3), F(-4), F(9)]
        rows = [[-u, -u * t, 1, t, t * t] for t, u in zip(ts, us)]
        rows.append([F(0), F(-5), F(0), F(0), F(1)])  # w2 = 5 v1
        sol = solve_linear(rows, [F(0)] * 4)
        assert sol.rank == 4 and len(sol.nullspace) == 1
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
            Dual(1, 0) / Dual(F(0), F(1))


class TestMat2:
    def test_matvec_on_a_general_vector(self):
        # the tests' reference product; first entry not 1, so a21 * v[0]
        # and a21 / v[0] differ
        m = Mat2(F(1, 2), F(-3), F(5, 7), F(2))
        assert matvec(m, (F(3), F(-1, 4))) == (F(9, 4), F(23, 14))

    @given(states(), heights)
    def test_scale_and_add_stay_exact(self, s, x):
        # A(x), the residues scaled by 1/(x - t_i) and added (`matrix_at`),
        # holds no float
        exact_or_moduli_error(lambda: matrix_at(build_connection(s), x))
