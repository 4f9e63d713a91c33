"""Inputs that several test modules share: the worked state, the
Hypothesis strategies for rationals of small and of 64-bit height and for
states on them, the check `exact_or_moduli_error` that a result holds no
float, and the references that several modules check the package against: `matvec`
for `Mat2` products, `matrix_at` and `cleared` for A(x) of a
`FourPoleConnection`, `candidate_subbundles` for the candidates of
`parabolic`, `parabolic_degree_by_sum` for `stability.parabolic_degree`
and `destabilizer_by_enumeration` for `stability.find_destabilizer`."""
from fractions import Fraction as F

from hypothesis import assume, strategies as st

from pvi_moduli.connection import KappaParams, PQState, lagrange_cleared
from pvi_moduli.errors import DegenerateInput, ModuliError, SpecialWeights
from pvi_moduli.exact import HALF, INF, Value, is_inf
from pvi_moduli.parabolic import candidate_types, section_type, subbundle_of

H = 2 ** 64

# small denominators hit integers, half-integers and walls; tall ones test height
tiny = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
small = st.builds(F, st.integers(-48, 48), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
tall = st.builds(F, st.integers(-H, H), st.integers(1, H))
rationals = st.one_of(tiny, small, tall)
kappas = st.builds(KappaParams.from_k1234, rationals, rationals, rationals, rationals)


@st.composite
def states(draw):
    t = draw(rationals)
    assume(t not in (0, 1))
    return PQState(t=t, kappa=draw(kappas), q=draw(st.one_of(rationals, st.just(INF))),
                   p=draw(rationals))


def scalars(obj):
    """The scalar leaves of a result: `Value` fields and tuple entries, recursively."""
    if isinstance(obj, Value):
        for name in obj._fields:
            yield from scalars(getattr(obj, name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from scalars(item)
    else:
        yield obj


def exact_or_moduli_error(call):
    """call() raises a ModuliError, or every scalar of its result is an
    int, a `Fraction`, None or the point at infinity: no float."""
    try:
        result = call()
    except ModuliError:
        return
    for x in scalars(result):
        assert x is None or is_inf(x) or isinstance(x, (int, F)), f"{type(x).__name__} {x!r}"


def matvec(m, v) -> tuple:
    """The product of a `Mat2` with the column vector v, over any field."""
    return (m.a11 * v[0] + m.a12 * v[1], m.a21 * v[0] + m.a22 * v[1])


def matrix_at(conn, x):
    """A(x) = A1/x + A2/(x-1) + A3/(x-t) + C of a `FourPoleConnection`, as
    a `Mat2`, at a point x off the poles."""
    if x in (0, 1, conn.t):
        raise DegenerateInput(f"A(x) has a pole at x = {x}")
    return (conn.a1.scale(1 / x) + conn.a2.scale(1 / (x - 1))
            + conn.a3.scale(1 / (x - conn.t)) + conn.c)


def cleared(conn, entry: str) -> tuple:
    """Coefficients, constant term first, of A(x)[entry] * x(x-1)(x-t) of
    a `FourPoleConnection`, entry one of "a11", "a12", "a21", "a22", by
    `connection.lagrange_cleared` on that entry of A1, A2, A3 and C."""
    return tuple(lagrange_cleared(conn.t, *(getattr(m, entry)
                                            for m in (conn.a1, conn.a2, conn.a3, conn.c))))


def worked_state():
    """t = 2, kappa = (1/4; 1/8, 1/8, 1/8, 1/8), q = 3, p = 5."""
    return PQState(t=F(2), kappa=KappaParams.from_strs(["1/4", "1/8", "1/8", "1/8", "1/8"]),
                   q=F(3), p=F(5))


def candidate_subbundles(qp):
    """All saturated candidates relevant for stability, deduplicated: the
    O(1), the lines (1, v) through two or more finite directions, and the
    degree-(-1) section (v, w) through all four directions unless it is
    dropped.  They are `parabolic.candidate_types` then
    `parabolic.section_type`, in that order, each built by `subbundle_of`."""
    cands = list(candidate_types(qp))
    section = section_type(qp)
    if section is not None:
        cands.append(section)
    return [subbundle_of(*cand) for cand in cands]


def parabolic_degree_by_sum(sub, w):
    """deg L + sum_{i in S} eps_i - sum_{i not in S} eps_i, S the contact
    set, summed on the Fraction eps: no common denominator, no `_score`."""
    inside = sum(w.eps[i - 1] for i in sub.contact)
    return sub.degree + inside - (sum(w.eps) - inside)


def destabilizer_by_enumeration(qp, w):
    """`find_destabilizer` by full enumeration: the (parabolic degree,
    degree, contact) maximizer over every candidate of
    `candidate_subbundles`, section included, if it exceeds 1/2, else
    None; (SpecialWeights, message), naming the first such candidate, when
    any candidate scores exactly 1/2.  The degree is
    `parabolic_degree_by_sum`, independent of the package's rule."""
    scored = [(parabolic_degree_by_sum(sub, w), sub.degree, tuple(sorted(sub.contact)), sub)
              for sub in candidate_subbundles(qp)]
    on_wall = [sub for score, _, _, sub in scored if score == HALF]
    if on_wall:
        return SpecialWeights, f"candidate of parabolic degree exactly 1/2: {on_wall[0]}"
    best = max(scored, key=lambda row: row[:3])
    return best[3] if best[0] > HALF else None
