"""Inputs that several test modules share: the worked state, the
Hypothesis strategies for rationals of small and of 64-bit height, and
`matvec`, the reference product the eigenvector tests check `Mat2`s with."""
from fractions import Fraction as F

from hypothesis import strategies as st

from pvi_moduli.connection import KappaParams, PQState

H = 2 ** 64

# small denominators hit integers, half-integers and walls; tall ones test height
tiny = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
small = st.builds(F, st.integers(-48, 48), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
tall = st.builds(F, st.integers(-H, H), st.integers(1, H))
rationals = st.one_of(tiny, small, tall)


def matvec(m, v) -> tuple:
    """The product of a `Mat2` with the column vector v, over any field."""
    return (m.a11 * v[0] + m.a12 * v[1], m.a21 * v[0] + m.a22 * v[1])


def worked_state():
    """t = 2, kappa = (1/4; 1/8, 1/8, 1/8, 1/8), q = 3, p = 5."""
    return PQState(t=F(2), kappa=KappaParams.from_strs(["1/4", "1/8", "1/8", "1/8", "1/8"]),
                   q=F(3), p=F(5))
