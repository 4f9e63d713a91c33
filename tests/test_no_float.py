"""No float can appear: the formulas written against any field stay exact on Q.

The connection, Baecklund and `line_through` formulas and `Dual` compute
over whatever field their inputs live in and do not coerce.  Integer
literals may mix with field elements, but an int / int division would
silently give a float; when that float is dyadic it even serializes
correctly.  So every scalar of every result is checked to be an int or a
`Fraction` (or the point at infinity), for rational inputs of height up
to 2^64.  Each call either returns such a result or raises a ModuliError
(`shared.exact_or_moduli_error`).  That `Mat2.scale` and `Mat2.__add__`
stay exact is tested with the other `Mat2` tests, in tests/test_exact.py.
"""
import operator

from hypothesis import given, strategies as st

from pvi_moduli.backlund import ALPHABET, apply_word, transversality_solve
from pvi_moduli.connection import build_connection, build_connection_qp, eigen_table
from pvi_moduli.exact import INF, Dual
from pvi_moduli.parabolic import QuasiPar, line_through

from shared import exact_or_moduli_error, kappas, rationals, states


@given(states())
def test_build_connection(s):
    exact_or_moduli_error(lambda: build_connection(s))


@given(rationals, kappas, rationals, rationals)
def test_build_connection_qp(t, kappa, big_q, p):
    exact_or_moduli_error(lambda: build_connection_qp(t, kappa, big_q, p))


@given(states())
def test_eigen_table(s):
    exact_or_moduli_error(lambda: eigen_table(s))


@given(states(), st.lists(st.sampled_from(ALPHABET), max_size=8))
def test_apply_word(s, word):
    exact_or_moduli_error(lambda: apply_word(word, s))


@given(rationals, rationals, rationals)
def test_transversality_solve(l1, l2, k0):
    exact_or_moduli_error(lambda: transversality_solve(l1, l2, k0))


# a state's poles 0 and 1 are ints
@given(st.lists(st.one_of(rationals, st.integers(-3, 3)), min_size=3, max_size=4, unique=True),
       st.lists(rationals, min_size=4, max_size=4), st.permutations(range(4)),
       st.integers(2, 4), st.integers(0, 3))
def test_line_through(poles, u, order, n, at):
    if len(poles) == 3:
        poles.insert(at, INF)
    qp = QuasiPar(poles=tuple(poles), u=tuple(u))
    exact_or_moduli_error(lambda: line_through(qp, order[:n]))


operands = st.one_of(rationals, st.integers(-9, 9), rationals.map(lambda x: Dual(x, 0)),
                     rationals.map(Dual.var))
steps = st.tuples(st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
                  operands, st.booleans())


@given(rationals, st.lists(steps, max_size=8))
def test_dual_arithmetic(x, program):
    def run():
        d = Dual.var(x)
        for op, operand, reflected in program:
            d = op(operand, d) if reflected else op(d, operand)
        return d
    exact_or_moduli_error(run)
