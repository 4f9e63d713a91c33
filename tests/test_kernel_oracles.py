"""Oracles for the exact kernels that avoid general elimination or Fraction sums.

Each kernel is compared with the straightforward computation it replaces:
`line_through` with `solve_linear` on the interpolation rows,
`conic_subbundle` and the first direction of a Higgs representative off
the poles with `solve_linear` on their linear systems, the integer
contact sets of `candidate_subbundles` with the section values at the
poles, `in_general_position` (one cross product per triple) with
`line_through` on the four triples, `is_simple`, `q_map`, `phi_map` and
`representative` on integer points and conic minors with their former
versions (`line_through`, the five coefficients of `conic_subbundle` and
Horner's `section_value` at the pole), `theta_divisor` (closed-form entries
read from the state) with its Wronskian on Fraction polynomials of the
normal form's residues (`shared.cleared`), its W = q - x for
the O(1) with `_wronskian` of the sections (0, 1), `poly_divide_root` with the long division
`poly_divmod` below, `check_relations` with one
`apply_word` per side of each relation, the shift and Schlesinger words
read from its prefix table with one `apply_word` each,
`solve_linear` with sympy's reduced row echelon form, the four signed-sum
predicates with sums over `itertools.product`, the Baecklund generators'
closed-form k0 with `KappaParams.from_k1234`, `classify_zone` with the
written-out "pair minus the other two" combinations, the integer
convolution and zone labels of `mc_exponents`/`zone_interchange_check`
with their former Fraction formulas, and the integer scores of
`find_destabilizer` and `parabolic_degree` with the Fraction sum
`shared.parabolic_degree_by_sum`, and the residues of both
normal-form gauges and the eigen table, all written by one rule, with
the per-gauge formulas they replace.  Heights go up to 2^64.

The ring-generic cores inside the contact, conic and Higgs kernels (the
cross product, the contact rows, the signed minors and `det4`, the
shared-zero resultant and the Wronskian) are proved as polynomial
identities in tests/test_certificates.py, so they have no oracle here.
These oracles test what the cores leave to their shells: the clearing
to integer points, the rank and normalization of the contact system,
the candidates' order and contact sets, and the exact root division.
"""
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from pvi_moduli.backlund import (ALPHABET, RELATION_WORDS, WORD_SCHLESINGER, WORD_SHIFT_12,
                                 WORD_SHIFT_34, apply_generator, apply_word, check_relations,
                                 schlesinger_composite_qp, walk_prefixes)
from pvi_moduli.connection import (KappaParams, PPoint, PQState, ResidueVector, Sheet,
                                   build_connection, build_connection_qp, eigen_table,
                                   kappa_generic, kostov_generic)
from pvi_moduli.errors import (DegenerateInput, ModuliError, NoSolution, NormalFormDegenerate,
                               NotSimple, SpecialParameters, SpecialWeights)
from pvi_moduli.exact import (HALF, INF, Mat2, is_inf, over_common_denominator,
                              poly_add, poly_deriv, poly_divide_root, poly_mul, poly_trim,
                              solve_linear)
from pvi_moduli.higgs import (_cleared_normal_form, _frame, _pole_index, _wronskian, representative,
                              sorted_divisor, theta_divisor)
from pvi_moduli.mconv import (mc_exponents, nonspecial_exponents, odd_degree_weights, sigma_text,
                              zone_interchange_check)
from pvi_moduli import parabolic
from pvi_moduli.parabolic import (QuasiPar, Subbundle, conic_subbundle, in_general_position,
                                  is_simple, line_through, parabolic_structures, phi_map, q_map,
                                  section_value, subbundle_of)
from pvi_moduli.stability import (ZONE_A, ZONE_B, ZONE_STABLE, Branch, Weights, classify_zone,
                                  czone, et_pair, find_destabilizer, nonspecial_numerators,
                                  parabolic_degree, stable_subzone_branch)

from shared import (H, candidate_subbundles, cleared, destabilizer_by_enumeration,
                    parabolic_degree_by_sum, rationals, tiny, worked_state)

# non-integer exponents, so that few kappa are special
fractional = st.one_of(st.builds(F, st.integers(-48, 48), st.sampled_from([3, 5, 7, 8])),
                       st.builds(F, st.integers(-H, H), st.integers(2, H))).filter(
                           lambda v: v.denominator > 1)


@st.composite
def eps_values(draw):
    """A rational strictly between 0 and 1/2."""
    den = draw(st.one_of(st.sampled_from([3, 4, 6, 8, 12, 24]), st.integers(2, H)))
    return F(draw(st.integers(1, den - 1)), 2 * den)


class TestOverCommonDenominator:
    @given(st.lists(rationals, min_size=1, max_size=8))
    def test_numerators_over_lcm(self, values):
        nums, den = over_common_denominator(values)
        assert all(isinstance(n, int) for n in nums) and den >= 1
        assert [F(n, den) for n in nums] == values
        assert all(den % v.denominator == 0 for v in values)


# ---------------------------------------------------------------------------
# line_through
# ---------------------------------------------------------------------------

def _oracle_line(qp, indices):
    rows = [[F(0), F(1)] if is_inf(qp.poles[i]) else [F(1), qp.poles[i]] for i in indices]
    try:
        sol = solve_linear(rows, [qp.u[i] for i in indices])
    except NoSolution:
        return None
    return sol.particular


@st.composite
def line_problems(draw):
    poles = draw(st.lists(rationals, min_size=3, max_size=4, unique=True))
    if len(poles) == 3:
        poles.insert(draw(st.integers(0, 3)), INF)
    v0, v1 = draw(rationals), draw(rationals)
    u = [v1 if is_inf(tv) else v0 + v1 * tv for tv in poles]
    for i in draw(st.sets(st.integers(0, 3))):      # move some points off the line
        u[i] = draw(rationals)
    indices = draw(st.permutations(range(4)))[:draw(st.integers(2, 4))]
    return QuasiPar(poles=tuple(poles), u=tuple(u)), indices


class TestLineThrough:
    @given(line_problems())
    def test_matches_elimination(self, problem):
        qp, indices = problem
        assert line_through(qp, indices) == _oracle_line(qp, indices)

    def test_fitting_and_non_fitting_with_a_pole_at_infinity(self):
        qp = QuasiPar(poles=(F(0), F(1), F(2), INF), u=(F(1), F(3), F(5), F(2)))
        assert line_through(qp, [3, 0]) == (F(1), F(2))
        assert line_through(qp, [0, 1, 2, 3]) == (F(1), F(2))
        moved = QuasiPar(poles=qp.poles, u=(F(1), F(3), F(5), F(7)))
        assert line_through(moved, [0, 1, 2]) == (F(1), F(2))
        assert line_through(moved, [0, 1, 3]) is None

    @pytest.mark.parametrize("indices", [[], [0], [3]])
    def test_fewer_than_two_points_raise(self, indices):
        qp = QuasiPar(poles=(F(0), F(1), F(2), INF), u=(F(1), F(3), F(5), F(2)))
        with pytest.raises(DegenerateInput, match="at least two points"):
            line_through(qp, indices)


# ---------------------------------------------------------------------------
# conic_subbundle and the representative's chart solve
# ---------------------------------------------------------------------------

def _oracle_conic(qp):
    """The first nullspace basis vector of the contact system, from
    elimination; DegenerateInput when the nullity is not 1."""
    rows = []
    for tv, uv in zip(qp.poles, qp.u):
        if is_inf(tv):
            rows.append([F(0), F(1), F(0), F(0), F(0)] if is_inf(uv)
                        else [F(0), -uv, F(0), F(0), F(1)])
        elif is_inf(uv):
            rows.append([F(1), tv, F(0), F(0), F(0)])
        else:
            rows.append([-uv, -uv * tv, F(1), tv, tv * tv])
    sol = solve_linear(rows, [F(0)] * 4)
    if len(sol.nullspace) != 1:
        return DegenerateInput
    v0, v1, w0, w1, w2 = sol.nullspace[0]
    return ((v0, v1), (w0, w1, w2))


@st.composite
def contact_problems(draw):
    """Four distinct poles, possibly one at infinity in any slot, and 0-2
    infinite u.  The finite u start on a line (rank below 4) and some
    are moved off it."""
    poles = draw(st.lists(rationals, min_size=4, max_size=4, unique=True))
    if draw(st.booleans()):
        poles[draw(st.integers(0, 3))] = INF
    v0, v1 = draw(rationals), draw(rationals)
    u = [v1 if is_inf(tv) else v0 + v1 * tv for tv in poles]
    for i in draw(st.sets(st.integers(0, 3))):
        u[i] = draw(st.one_of(st.integers(-3, 3).map(F), rationals))
    for i in draw(st.sets(st.integers(0, 3), max_size=2)):
        u[i] = INF
    return QuasiPar(poles=tuple(poles), u=tuple(u))


class TestConicSubbundle:
    @given(contact_problems())
    def test_matches_the_elimination_basis_vector(self, qp):
        expected = _oracle_conic(qp)
        if expected is DegenerateInput:
            with pytest.raises(DegenerateInput):
                conic_subbundle(qp)
        else:
            assert conic_subbundle(qp) == expected

    @pytest.mark.parametrize("poles, u", [
        ((F(0), F(1), F(3), INF), (F(2), F(2), F(2), F(0))),
        ((INF, F(0), F(1), F(2)), (F(2), F(1), F(3), F(5))),
        ((F(0), INF, F(1), F(2)), (F(1), F(2), F(3), F(5))),
    ])
    def test_rank_below_four_is_rejected_by_both(self, poles, u):
        # the four directions lie on a line L, so (v, L v) solves for every v
        qp = QuasiPar(poles=poles, u=u)
        assert _oracle_conic(qp) is DegenerateInput
        with pytest.raises(DegenerateInput, match="rank below 4"):
            conic_subbundle(qp)


def _oracle_chart1(base, poles, frame):
    """u1 from elimination on the chart system for (w0, w1, w2, u1); None
    when the system is singular."""
    if is_inf(base):
        def vval(tv):
            return F(0) if is_inf(tv) else F(1)
        vlead = F(0)
    else:
        def vval(tv):
            return None if is_inf(tv) else tv - base
        vlead = F(1)
    rows, rhs = [], []
    for tv, uv in zip(poles[1:], frame[1:]):
        rows.append([F(0), F(0), F(1), F(0)] if is_inf(tv) else [F(1), tv, tv * tv, F(0)])
        rhs.append(uv * (vlead if is_inf(tv) else vval(tv)))
    t1 = poles[0]
    rows.append([F(0), F(0), F(1), -vlead] if is_inf(t1) else [F(1), t1, t1 * t1, -vval(t1)])
    rhs.append(F(0))
    try:
        sol = solve_linear(rows, rhs)
    except NoSolution:
        return None
    return None if sol.nullspace else sol.particular[3]


@st.composite
def chart_problems(draw):
    """A base point off the poles and four distinct poles, possibly one at
    infinity in any slot."""
    poles = draw(st.lists(rationals, min_size=4, max_size=4, unique=True))
    if draw(st.booleans()):
        poles[draw(st.integers(0, 3))] = INF
    base = draw(st.one_of(rationals, st.just(INF)).filter(lambda b: b not in poles))
    return base, tuple(poles)


class TestChartSolve:
    @given(chart_problems())
    def test_matches_the_particular_solution(self, problem):
        base, poles = problem
        qp = representative(PPoint(base, Sheet.GENERIC), poles)
        assert qp.u[0] == _oracle_chart1(base, poles, qp.u)

    def test_base_at_the_first_pole_is_singular(self):
        # so a point over a pole needs a sheet, and takes the sheet branches
        poles, frame = (F(2), F(0), F(1), INF), (F(0), F(1), F(2), F(3))
        assert _oracle_chart1(F(2), poles, frame) is None
        with pytest.raises(DegenerateInput, match="needs a plus or minus sheet"):
            representative(PPoint(F(2), Sheet.GENERIC), poles)


# ---------------------------------------------------------------------------
# Contact sets, general position and the Higgs Wronskian on integers
# ---------------------------------------------------------------------------

def _oracle_candidates(qp):
    """`candidate_subbundles` on field values: the lines from `line_through`,
    (v, w) from elimination, and each contact set from the values of the
    sections at the poles."""
    def with_contact(degree, coefficients):
        s1, s2 = Subbundle(degree, coefficients, frozenset()).sections()
        contact = set()
        for i, (tv, uv) in enumerate(zip(qp.poles, qp.u)):
            a = section_value(s1, tv, -degree)
            if a == 0:
                hit = is_inf(uv)
            else:
                hit = not is_inf(uv) and section_value(s2, tv, 1 - degree) == uv * a
            if hit:
                contact.add(i + 1)
        return Subbundle(degree=degree, coefficients=coefficients, contact=frozenset(contact))

    cands = [with_contact(1, ())]
    seen = set()
    for i, j in combinations([i for i in range(4) if not is_inf(qp.u[i])], 2):
        v = line_through(qp, [i, j])
        if v not in seen:
            seen.add(v)
            cands.append(with_contact(0, v))
    conic = _oracle_conic(qp)
    if conic is DegenerateInput:
        return cands
    (v0, v1), w = conic
    shared_zero = (v0 == 0 or w[2] == 0) if v1 == 0 else section_value(w, -v0 / v1, 2) == 0
    if not shared_zero:
        cands.append(with_contact(-1, (v0, v1) + w))
    return cands


@st.composite
def candidate_problems(draw):
    """Four distinct poles, possibly one at infinity in any slot, and
    directions on a line (v0, v1) with some moved off it and at most one
    at u = inf.  With one direction moved, the three left are colinear
    and (v, w) = (x - t_k)(1, v0 + v1 x) has a shared zero at the moved
    pole t_k (at infinity for a pole at infinity)."""
    poles = draw(st.lists(rationals, min_size=4, max_size=4, unique=True))
    if draw(st.booleans()):
        poles[draw(st.integers(0, 3))] = INF
    v0, v1 = draw(rationals), draw(rationals)
    u = [v1 if is_inf(tv) else v0 + v1 * tv for tv in poles]
    for i in draw(st.sets(st.integers(0, 3))):
        u[i] = draw(st.one_of(st.integers(-3, 3).map(F), rationals))
    if draw(st.booleans()):
        u[draw(st.integers(0, 3))] = INF
    return QuasiPar(poles=tuple(poles), u=tuple(u))


class TestCandidateSubbundles:
    @given(st.one_of(candidate_problems(), contact_problems()))
    def test_matches_the_section_values(self, qp):
        assert candidate_subbundles(qp) == _oracle_candidates(qp)

    @pytest.mark.parametrize("poles, u", [
        # three directions on u = x, the fourth moved: a shared zero at its pole
        ((F(0), F(1), F(3), INF), (F(0), F(1), F(5), F(1))),
        ((F(0), F(1), F(3), INF), (F(0), F(1), INF, F(1))),
        # the moved direction over the pole at infinity: a shared zero there
        ((F(0), F(1), F(3), INF), (F(0), F(1), F(3), F(7))),
        ((INF, F(2), F(-1, 2), F(5)), (INF, F(4), F(-1), F(10))),
    ])
    def test_shared_zeros_drop_the_degree_minus_one_section(self, poles, u):
        qp = QuasiPar(poles=poles, u=u)
        got = candidate_subbundles(qp)
        assert got == _oracle_candidates(qp)
        assert all(sub.degree != -1 for sub in got)
        assert any(sub.degree == 0 and len(sub.contact) == 3 for sub in got)

    def test_kept_section_meets_every_direction(self):
        qp = QuasiPar(poles=(F(0), F(1), F(3), INF), u=(F(2), INF, F(-1, 3), F(5)))
        got = candidate_subbundles(qp)
        assert got == _oracle_candidates(qp)
        assert got[-1].degree == -1 and got[-1].contact == frozenset({1, 2, 3, 4})


class TestGeneralPosition:
    @given(contact_problems())
    def test_matches_the_four_triples(self, qp):
        if qp.infinite_indices():
            with pytest.raises(DegenerateInput, match="four finite directions"):
                in_general_position(qp)
        else:
            assert in_general_position(qp) == all(
                line_through(qp, list(tr)) is None for tr in combinations(range(4), 3))


# ---------------------------------------------------------------------------
# The classifying map and the Higgs representative on integer points
# ---------------------------------------------------------------------------

def ref_is_simple(qp):
    """The former `is_simple`: the finite directions through `line_through`."""
    inf_idx = qp.infinite_indices()
    if len(inf_idx) > 1:
        return False
    finite = [i for i in range(4) if i not in inf_idx]
    return line_through(qp, finite) is None


def ref_q_map(qp):
    """The former `q_map`: -v0/v1 from all five coefficients of `conic_subbundle`."""
    (v0, v1), _ = conic_subbundle(qp)
    if v0 == 0 and v1 == 0:
        raise DegenerateInput("first component vanishes identically")
    if v1 == 0:
        return INF
    return -v0 / v1


def ref_representative(point, poles):
    """The former `representative`: `conic_subbundle` or `line_through`,
    evaluated at the pole by Horner's rule (`section_value`)."""
    poles = tuple(poles)
    idx = _pole_index(point, poles)
    frame = _frame(poles).u
    if idx is None:
        v, w = conic_subbundle(QuasiPar(poles=(point.base,) + poles[1:], u=(INF,) + frame[1:]))
        u = (section_value(w, poles[0], 2) / section_value(v, poles[0], 1),) + frame[1:]
    elif point.sheet == Sheet.MINUS:
        mod = list(frame)
        mod[idx] = INF
        u = tuple(mod)
    else:
        others = [j for j in range(4) if j != idx]
        v = line_through(QuasiPar(poles=poles, u=frame), others[:2])
        mod = list(frame)
        mod[others[2]] = section_value(v, poles[others[2]], 1)
        u = tuple(mod)
    return QuasiPar(poles=poles, u=u)


def _typed_outcome(f, *args):
    """f(*args) with the type of each scalar it holds, or the type and text
    of whatever it raises."""
    try:
        value = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    scalars = value.u if isinstance(value, QuasiPar) else (value,)
    return value, tuple(type(x) for x in scalars)


@st.composite
def representative_problems(draw):
    """Four distinct poles, possibly one at infinity in any slot, and a
    point: off the poles, including infinity, with or without a sheet
    label, or over a pole on either sheet or on none."""
    poles = draw(st.lists(rationals, min_size=4, max_size=4, unique=True))
    if draw(st.booleans()):
        poles[draw(st.integers(0, 3))] = INF
    if draw(st.booleans()):
        base = draw(st.one_of(rationals, st.just(INF)).filter(lambda b: b not in poles))
    else:
        base = poles[draw(st.integers(0, 3))]
    return PPoint(base, draw(st.sampled_from(list(Sheet)))), tuple(poles)


class TestClassifyingMap:
    """`is_simple`, `q_map` and `phi_map` on the points and minors, and the
    representative from the minors or a cross product, against the former
    Fraction versions: equal values of equal types, or the same error."""

    @given(st.one_of(contact_problems(), candidate_problems()))
    def test_is_simple_matches_line_through(self, qp):
        assert is_simple(qp) == ref_is_simple(qp)

    @given(st.one_of(contact_problems(), candidate_problems()))
    def test_q_map_matches_the_five_coefficients(self, qp):
        assert _typed_outcome(q_map, qp) == _typed_outcome(ref_q_map, qp)

    @pytest.mark.parametrize("poles, u, error", [
        # four colinear directions: rank below 4
        ((F(0), F(1), F(3), INF), (F(2), F(2), F(2), F(0)), "rank below 4"),
        ((INF, F(0), F(1), F(2)), (F(2), F(1), F(3), F(5)), "rank below 4"),
        # two fibers force v = 0, and w = x - 3 is the one solution
        ((F(0), F(1), F(3), INF), (INF, INF, F(5), F(7)), "first component"),
        ((INF, F(0), F(1), F(3)), (INF, F(1), INF, F(2)), "first component"),
    ])
    def test_q_map_errors_match(self, poles, u, error):
        qp = QuasiPar(poles=poles, u=u)
        outcome = _typed_outcome(q_map, qp)
        assert outcome[0] is DegenerateInput and error in outcome[1]
        assert outcome == _typed_outcome(ref_q_map, qp)

    @given(st.one_of(contact_problems(), candidate_problems()))
    def test_phi_map_matches(self, qp):
        def ref_phi_map(qp):
            if not ref_is_simple(qp):
                raise NotSimple("decomposable quasiparabolic structure")
            return PPoint.over(ref_q_map(qp), qp.poles, tuple(map(is_inf, qp.u)))

        assert _typed_outcome(phi_map, qp) == _typed_outcome(ref_phi_map, qp)

    @given(representative_problems())
    def test_representative_matches_the_section_values(self, problem):
        point, poles = problem
        got = _typed_outcome(representative, point, poles)
        assert got == _typed_outcome(ref_representative, point, poles)
        if isinstance(got[0], QuasiPar):
            assert phi_map(got[0]) == point


def poly_divmod(f, g) -> tuple:
    """(quotient, remainder) of f by a nonzero g, both trimmed: long division
    over the field of the coefficients."""
    g = poly_trim(g)
    if not g:
        raise DegenerateInput("polynomial division by zero")
    f = poly_trim(f)
    n = len(g) - 1
    quot = [0] * max(len(f) - n, 0)
    for k in range(len(f) - n - 1, -1, -1):
        c = f[k + n] if g[-1] == 1 else f[k + n] / g[-1]
        quot[k] = c
        for j in range(n):
            f[k + j] -= c * g[j]
    return quot, poly_trim(f[:n])


class TestPolyDivmod:
    @given(st.lists(rationals, max_size=6), st.lists(rationals, min_size=1, max_size=4))
    def test_divmod_identity(self, f, g):
        if not poly_trim(g):
            with pytest.raises(DegenerateInput):
                poly_divmod(f, g)
            return
        quot, rem = poly_divmod(f, g)
        assert poly_trim(poly_add(poly_mul(quot, g), rem)) == poly_trim(f)
        assert len(rem) < len(poly_trim(g)) and rem == poly_trim(rem)


def _oracle_theta(conn, sub):
    """`theta_divisor` on Fraction polynomials: the Wronskian cleared by
    x(x-1)(x-t), divided by the monic x - t_i at each finite contact pole."""
    t = conn.t
    s1, s2 = sub.sections()
    pi = [F(0), t, -(1 + t), F(1)]
    a11, a12, a21, a22 = (cleared(conn, entry) for entry in ("a11", "a12", "a21", "a22"))
    w = poly_trim(poly_add(
        poly_mul(pi, poly_add(poly_mul(s1, poly_deriv(s2)),
                              [-c for c in poly_mul(s2, poly_deriv(s1))])),
        poly_mul(s1, poly_add(poly_mul(a21, s1), poly_mul(a22, s2))),
        [-c for c in poly_mul(s2, poly_add(poly_mul(a11, s1), poly_mul(a12, s2)))],
    ))
    return _divisor_of(w, t, sub)


def _divisor_of(w, t, sub):
    """The zero divisor of the cleared Wronskian w, Fraction coefficients:
    the contact poles divided out as monic x - t_i, then the free root and
    the degree deficit at infinity, with `theta_divisor`'s error texts."""
    deficit = 3 - 2 * sub.degree - (len(w) - 1)
    roots = []
    for i in sorted(sub.contact):
        tv = (F(0), F(1), t, INF)[i - 1]
        if is_inf(tv):
            if deficit < 1:
                raise DegenerateInput(f"Higgs field fails to vanish at contact pole {i}")
            continue
        w, rem = poly_divmod(w, [-tv, F(1)])
        if rem:
            raise DegenerateInput(f"Higgs field fails to vanish at contact pole {i}")
        roots.append(tv)
    if len(w) > 2:
        raise DegenerateInput(f"degree-{sub.degree} subbundle with contact "
                              f"{sorted(sub.contact)} destabilizes for no weights")
    if len(w) == 2:
        roots.append(-w[0] / w[1])
    return sorted_divisor(roots + [INF] * deficit)


@st.composite
def higgs_states(draw):
    """(t, kappa, q, p) with q anywhere or next to a pole: within 1/n of
    0, 1 or t, or at height n, for n up to 2^64."""
    t = draw(rationals)
    assume(t not in (0, 1))
    near = st.builds(lambda pole, n, sign: pole + F(sign, n), st.sampled_from([F(0), F(1), t]),
                     st.integers(1, H), st.sampled_from([1, -1]))
    q = draw(st.one_of(rationals, near, st.integers(-H, H).map(F)))
    p = draw(rationals)
    assume(q not in (0, 1, t) and p != 0)
    return PQState(t=t, kappa=KappaParams.from_k1234(*(draw(fractional) for _ in range(4))),
                   q=q, p=p)


class TestThetaDivisor:
    @given(higgs_states(), st.sets(st.integers(1, 4)))
    def test_matches_the_fraction_wronskian(self, s, other_contact):
        """Every candidate of both structures, and each also with another
        contact set, so that non-roots are divided out too."""
        try:
            conn, structures = build_connection(s), parabolic_structures(s)
        except ModuliError:
            assume(False)
        for qp in structures:
            for sub in candidate_subbundles(qp):
                for probe in (sub, Subbundle(sub.degree, sub.coefficients,
                                             frozenset(other_contact))):
                    assert _outcome(theta_divisor, s, probe) == \
                        _outcome(_oracle_theta, conn, probe)


def _wronskian_theta(s, sub):
    """`theta_divisor` with W = `higgs._wronskian` of the sections and the
    closed-form entries of `higgs._cleared_normal_form`, at every degree:
    the route the O(1) took before its W was read off as q - x.  A state
    with no normal form raises what `_cleared_normal_form` raises."""
    pi, a11, a12, a21 = _cleared_normal_form(s)
    w = poly_trim(_wronskian(pi, a11, a12, a21, *sub.sections()))
    return _divisor_of([F(c) for c in w], s.t, sub)


GENERIC_K1234 = (F(1, 8),) * 4  # the worked state's exponents
# every contact set the O(1) can carry: none, one finite pole, or infinity
O1_CONTACTS = [frozenset(), *(frozenset({i}) for i in range(1, 5))]


class TestDegreeOneThetaDivisor:
    """For the O(1), `theta_divisor` takes W = q - x from the state instead
    of the Wronskian of its sections (0, 1); both give one divisor and the
    same errors."""

    @given(higgs_states())
    def test_matches_the_wronskian_of_its_sections(self, s):
        for contact in O1_CONTACTS:
            o1 = Subbundle(1, (), contact)
            assert _outcome(theta_divisor, s, o1) == _outcome(_wronskian_theta, s, o1)

    @pytest.mark.parametrize("contact", O1_CONTACTS, ids=lambda c: str(sorted(c)))
    def test_vanishes_at_q_and_at_no_contact_pole(self, contact):
        s = worked_state()  # q = 3
        o1 = Subbundle(1, (), contact)
        expected = (F(3),) if not contact else \
            (DegenerateInput, f"Higgs field fails to vanish at contact pole {min(contact)}")
        assert _outcome(theta_divisor, s, o1) == expected
        assert _outcome(_wronskian_theta, s, o1) == expected

    @pytest.mark.parametrize("q, k1234, error", [
        (F(0), GENERIC_K1234, NormalFormDegenerate),
        (F(1), GENERIC_K1234, NormalFormDegenerate),
        (F(2), GENERIC_K1234, NormalFormDegenerate),  # q = t
        (INF, GENERIC_K1234, NormalFormDegenerate),
        (F(3), (F(1), F(1, 3), F(1, 5), F(1, 7)), SpecialParameters),  # k1 = 1
        (F(3), (F(1, 2), F(1, 2), F(1, 3), F(2, 3)), SpecialParameters),  # k1+k2 = 1
    ])
    def test_unbuildable_states_raise_what_the_normal_form_raises(self, q, k1234, error):
        s = PQState(t=F(2), kappa=KappaParams.from_k1234(*k1234), q=q, p=F(5))
        for contact in O1_CONTACTS:
            o1 = Subbundle(1, (), contact)
            got = _outcome(theta_divisor, s, o1)
            assert got[0] is error
            assert got == _outcome(_wronskian_theta, s, o1)


class TestPolyDivideRoot:
    @given(st.lists(st.one_of(st.integers(-9, 9), st.integers(-H, H)), max_size=5),
           st.one_of(tiny, rationals), st.booleans())
    def test_matches_division_by_the_monic_factor(self, f, root, make_root):
        if make_root:  # f (b x - a) has the root a/b
            f = poly_mul(f, [-root.numerator, root.denominator])
        f = poly_trim(f)
        quot, rem = poly_divmod([F(c) for c in f], [-root, F(1)])
        got = poly_divide_root(f, root.numerator, root.denominator)
        if rem:
            assert got is None
        else:
            assert got == [c / root.denominator for c in quot]
            assert all(isinstance(c, int) for c in got)


# ---------------------------------------------------------------------------
# solve_linear
# ---------------------------------------------------------------------------

sparse_entries = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(1)), rationals)


@st.composite
def linear_systems(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(sparse_entries) for _ in range(n)] for _ in range(m)]
    rhs = [draw(sparse_entries) for _ in range(m)]
    if draw(st.booleans()) and m > 1:                # a dependent row
        c = draw(rationals)
        rows[-1] = [c * x for x in rows[0]]
        rhs[-1] = c * rhs[0] if draw(st.booleans()) else draw(rationals)
    return rows, rhs


class TestSolveLinearAgainstSympy:
    @settings(deadline=None)  # the first example pays for importing sympy
    @given(linear_systems())
    def test_matches_reduced_row_echelon_form(self, system):
        sympy = pytest.importorskip("sympy")
        rows, rhs = system
        n = len(rows[0])
        aug = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row + [b]]
                            for row, b in zip(rows, rhs)])
        red, pivots = aug.rref()
        red = [[F(int(red[i, j].p), int(red[i, j].q)) for j in range(n + 1)]
               for i in range(red.rows)]
        if n in pivots:
            with pytest.raises(NoSolution):
                solve_linear(rows, rhs)
            return
        sol = solve_linear(rows, rhs)
        assert sol.rank == len(pivots)
        part = [F(0)] * n
        for i, c in enumerate(pivots):
            part[c] = red[i][n]
        assert sol.particular == tuple(part)
        basis = []
        for fc in (c for c in range(n) if c not in pivots):
            v = [F(0)] * n
            v[fc] = F(1)
            for i, c in enumerate(pivots):
                v[c] = -red[i][fc]
            basis.append(tuple(v))
        assert sol.nullspace == tuple(basis)


# ---------------------------------------------------------------------------
# Signed-sum predicates
# ---------------------------------------------------------------------------

# eps in twelfths make signed sums hit the half-integers often
twelfths = st.builds(F, st.integers(1, 5), st.just(12))
nonzero = rationals.filter(lambda x: x != 0)


def _signed_sums(pairs):
    return [sum(choice) for choice in product(*pairs)]


class TestSignedSumPredicates:
    @given(st.lists(rationals, min_size=4, max_size=4))
    def test_kappa_generic(self, ks):
        kp = KappaParams.from_k1234(*ks)
        expected = (all(k.denominator != 1 for k in ks)
                    and not any(v.denominator == 1 and v.numerator % 2 == 1
                                for v in _signed_sums((k, -k) for k in ks)))
        assert kappa_generic(kp) == expected

    @given(st.lists(rationals, min_size=7, max_size=7), rationals, st.integers(-3, 3))
    def test_kostov_generic(self, vals, lam, degree):
        r_plus, r_minus = tuple(vals[:4]), tuple(vals[4:])
        r_minus += (-(sum(vals) + lam * degree),)
        r = ResidueVector(r_plus=r_plus, r_minus=r_minus, lam=lam, degree=degree)
        expected = all(v.denominator != 1 for v in _signed_sums(zip(r_plus, r_minus)))
        assert kostov_generic(r) == expected

    @given(st.lists(st.one_of(eps_values(), twelfths), min_size=4, max_size=4),
           st.lists(nonzero, min_size=4, max_size=4))
    def test_nonspecial_weights(self, eps, mu):
        # the definition on the weight values alpha_i^{+-} = mu_i +- eps_i at
        # parabolic degree 1: interlacing, and every signed sum shifted by
        # (1 - sum alpha)/2 avoids the integers
        lo = [m - e for m, e in zip(mu, eps)]
        hi = [m + e for m, e in zip(mu, eps)]
        shift = (1 - sum(lo) - sum(hi)) / 2
        expected = (all(a < b < a + 1 for a, b in zip(lo, hi))
                    and all((v + shift).denominator != 1 for v in _signed_sums(zip(lo, hi))))
        assert nonspecial_numerators(*over_common_denominator(eps)) == expected

    @given(st.lists(st.one_of(eps_values(), twelfths), min_size=4, max_size=4))
    def test_nonspecial_is_invariant_under_et_pairs(self, eps):
        w = Weights.of_eps(eps)
        for i, j in combinations(range(1, 5), 2):
            moved = et_pair(w, i, j)
            assert nonspecial_numerators(*moved.cleared) == nonspecial_numerators(*w.cleared)

    @given(st.lists(eps_values(), min_size=4, max_size=4))
    def test_nonspecial_exponents(self, eps):
        expected = all(v.denominator != 2 for v in _signed_sums((e, -e) for e in eps))
        assert nonspecial_exponents(odd_degree_weights(eps)) == expected


# ---------------------------------------------------------------------------
# Baecklund generators: closed-form k0
# ---------------------------------------------------------------------------

# the action of each generator on (k1, k2, k3, k4), as in the backlund docstring
K_ACTION = {
    "s0": lambda k, k0: tuple(ki + k0 for ki in k),
    "s1": lambda k, k0: (-k[0], k[1], k[2], k[3]),
    "s2": lambda k, k0: (k[0], -k[1], k[2], k[3]),
    "s3": lambda k, k0: (k[0], k[1], -k[2], k[3]),
    "s4": lambda k, k0: (k[0], k[1], k[2], -k[3]),
    "r12_34": lambda k, k0: (k[1], k[0], k[3], k[2]),
    "r13_24": lambda k, k0: (k[2], k[3], k[0], k[1]),
    "r14_23": lambda k, k0: (k[3], k[2], k[1], k[0]),
}


@st.composite
def states(draw):
    t, q, p = draw(rationals), draw(rationals), draw(rationals)
    assume(t not in (0, 1) and q not in (0, 1, t) and p != 0)
    return PQState(t=t, kappa=KappaParams.from_k1234(*(draw(rationals) for _ in range(4))),
                   q=q, p=p)


class TestGeneratorKappa:
    @given(states())
    def test_every_generator_matches_the_derived_k0(self, s):
        assert set(K_ACTION) == set(ALPHABET)
        for g in ALPHABET:
            out = apply_generator(g, s)
            assert out.kappa == KappaParams.from_k1234(*K_ACTION[g](s.kappa.all4, s.k0)), g

    @given(states())
    def test_schlesinger_composite_matches_the_derived_k0(self, s):
        k = s.kappa
        try:
            out = schlesinger_composite_qp(s)
        except DegenerateInput:
            assume(False)
        assert out.kappa == KappaParams.from_k1234(1 - k.k1, 1 - k.k2, k.k3, k.k4)

    def test_wrong_closed_form_is_rejected(self):
        # the generators' closed forms are proved to keep 2*k0 + k1 + ... + k4 = 1
        # (test_certificates); exponents off it are rejected where they come in
        kappa = ["1/4", "1/8", "1/8", "1/8", "1/4"]
        with pytest.raises(DegenerateInput, match="2\\*k0"):
            KappaParams.from_strs(kappa)
        with pytest.raises(DegenerateInput, match="2\\*k0"):
            PQState.from_json_dict({"t": "2/1", "kappa": kappa, "q": "3/1", "p": "5/1"})


# ---------------------------------------------------------------------------
# check_relations: each word prefix once
# ---------------------------------------------------------------------------

def _oracle_relations(s):
    out = []
    for name, left, right in RELATION_WORDS:
        lhs, rhs = apply_word(left, s), apply_word(right, s)
        witness = None if lhs == rhs else {"lhs": lhs, "rhs": rhs}
        out.append((name, lhs == rhs, witness))
    return out


@st.composite
def relation_samples(draw):
    """States on and off the loci where a generator degenerates: p = 0
    (s0), q at a pole 0, 1, t (s1-s3 and the permutations) and q = inf."""
    t = draw(rationals)
    assume(t not in (0, 1))
    q = draw(st.one_of(rationals, st.sampled_from([F(0), F(1), t, INF])))
    p = draw(st.one_of(rationals, st.just(F(0))))
    return PQState(t=t, kappa=KappaParams.from_k1234(*(draw(rationals) for _ in range(4))),
                   q=q, p=p)


class TestCheckRelations:
    @given(relation_samples())
    def test_matches_one_word_per_side(self, s):
        assert _outcome(check_relations, s) == _outcome(_oracle_relations, s)

    @pytest.mark.parametrize("q, p, message", [
        (F(3), F(0), "word degenerates at step 0 (s0): s0 needs p != 0"),
        (F(0), F(2), "word degenerates at step 0 (s1): s1 has a pole at q = 0"),
        (F(1), F(2), "word degenerates at step 0 (s2): s2 has a pole at q = 1"),
        (F(5), F(2), "word degenerates at step 0 (s3): s3 has a pole at q = 5"),
    ])
    def test_degenerate_samples_raise_the_same_message(self, q, p, message):
        s = PQState(t=F(5), kappa=KappaParams.from_k1234(F(1, 3), F(1, 5), F(1, 7), F(1, 11)),
                    q=q, p=p)
        assert _outcome(_oracle_relations, s) == (DegenerateInput, message)
        assert _outcome(check_relations, s) == (DegenerateInput, message)

    @given(relation_samples())
    def test_identity_words_extend_the_table_as_apply_word_walks_them(self, s):
        # the words verify.backlund_identities reads after the relations
        words = (WORD_SHIFT_12, WORD_SHIFT_34, WORD_SCHLESINGER, ("s0", "s0"))

        def from_the_table(s):
            states = {}
            check_relations(s, states)
            walk_prefixes(words, states)
            return [states[w] for w in words]

        def one_word_at_a_time(s):
            _oracle_relations(s)
            return [apply_word(w, s) for w in words]

        assert _outcome(from_the_table, s) == _outcome(one_word_at_a_time, s)


# ---------------------------------------------------------------------------
# classify_zone
# ---------------------------------------------------------------------------

def _ref_classify_zone(eps):
    """`classify_zone` written out: the eps sum and each pair minus the
    other two, raising SpecialWeights on a wall as the package does."""
    total = eps[0] + eps[1] + eps[2] + eps[3]
    if total in (HALF, 3 * HALF):
        raise SpecialWeights(f"eps sum on a wall: {total}")
    combos = {}
    for i, j in combinations(range(4), 2):
        k, l = (m for m in range(4) if m not in (i, j))
        c = eps[i] + eps[j] - eps[k] - eps[l]
        if c in (HALF, -HALF):
            raise SpecialWeights(f"pair combination on a wall: eps_{i+1}+eps_{j+1}-rest = {c}")
        combos[(i, j)] = c
    if total < HALF:
        return ZONE_A
    if total > 3 * HALF:
        return ZONE_B
    return next((czone(i + 1, j + 1) for (i, j), c in combos.items() if c > HALF), ZONE_STABLE)


class TestClassifyZone:
    @given(st.lists(eps_values(), min_size=4, max_size=4))
    def test_matches_pair_minus_rest(self, eps):
        assert _outcome(classify_zone, Weights.of_eps(eps)) == _outcome(_ref_classify_zone, eps)

    @given(st.lists(st.one_of(eps_values(), twelfths), min_size=4, max_size=4),
           st.integers(1, 4))
    def test_branch_matches_the_rest_sum(self, eps, i):
        w = Weights.of_eps(eps)
        rest = sum(eps) - 2 * eps[i - 1]
        if _outcome(_ref_classify_zone, eps) != ZONE_STABLE or rest == HALF:
            with pytest.raises(SpecialWeights):
                stable_subzone_branch(w, i)
        else:
            expected = Branch.ORIGIN_UNSTABLE if rest < HALF else Branch.COLINEAR_UNSTABLE
            assert stable_subzone_branch(w, i) == expected


# ---------------------------------------------------------------------------
# Middle convolution on integers
# ---------------------------------------------------------------------------

# The Fraction formulas the integer kernels replaced, kept as the reference.

def _ref_mod1(x):
    return x - (x.numerator // x.denominator)


def _ref_default_z(e, sg):
    """z1 = z2 = z3 = 0, z4 absorbing the product constraint."""
    chosen = sum(m + s * x for m, s, x in zip(e.mu, sg, e.eps))
    return (F(0), F(0), F(0), _ref_mod1(-chosen))


def _ref_convolve(e, sg, z):
    shifted = sum(s * ev for s, ev in zip(sg, e.eps)) - HALF
    mu_out, eps_out = [], []
    for i in range(4):
        y = _ref_mod1(shifted - 2 * sg[i] * e.eps[i])
        if y == 0:
            raise SpecialParameters("output eigenvalue gap vanishes")
        h = y - 1                             # representative in (-1, 0)
        eps_out.append(-h / 2)
        mu_out.append(_ref_mod1(z[i] + h / 2))
    total = _ref_mod1(sum(mu_out))
    if total != HALF:
        if total != 0:
            raise DegenerateInput(f"parity bookkeeping broke: sum mu' = {total}")
        eps_out[0] = HALF - eps_out[0]
        mu_out[0] = _ref_mod1(mu_out[0] + HALF)
    return Weights(mu=tuple(mu_out), eps=tuple(eps_out))


def _ref_interchange_zones(e):
    if _ref_classify_zone(e.eps) == ZONE_STABLE:
        raise DegenerateInput("input must lie in an unstable zone")
    if any(v.denominator == 2 for v in _signed_sums((x, -x) for x in e.eps)):
        raise SpecialParameters("signed eps sums hit a half-integer")
    return {sigma_text(sg): _ref_classify_zone(_ref_convolve(e, sg, _ref_default_z(e, sg)).eps)
            for sg in product((1, -1), repeat=4)}


def _outcome(f, *args):
    """f(*args), or the type and message of the ModuliError it raises."""
    try:
        return f(*args)
    except ModuliError as exc:
        return type(exc), str(exc)


@st.composite
def unstable_eps(draw):
    """Four eps in an unstable zone: a zone-A point (every eps_i <= 1/9)
    with an even set of poles sent to 1/2 - eps_i by elementary
    transformations, which reaches A, B and all six C_ij."""
    eps = []
    for _ in range(4):
        den = draw(st.one_of(st.integers(9, 40), st.integers(9, H)))
        eps.append(F(draw(st.integers(1, den // 9)), den))
    flipped = draw(st.sampled_from([()] + list(combinations(range(4), 2)) + [tuple(range(4))]))
    return [HALF - x if i in flipped else x for i, x in enumerate(eps)]


# sixths and twelfths put inputs on zone walls and reflection walls
walls = st.builds(F, st.integers(1, 2), st.just(6)) | twelfths
eps_lists = st.one_of(unstable_eps(), st.lists(walls, min_size=4, max_size=4),
                      st.lists(st.one_of(eps_values(), walls), min_size=4, max_size=4))


@st.composite
def exponent_data(draw):
    eps = draw(eps_lists)
    mu = draw(st.one_of(st.lists(rationals, min_size=3, max_size=3), st.just([F(0)] * 3)))
    return Weights(mu=(*mu, -HALF - sum(mu) + draw(st.integers(-2, 2))), eps=tuple(eps))


class TestIntegerConvolution:
    @given(exponent_data())
    def test_interchange_labels_match_the_fraction_formulas(self, e):
        expected = _outcome(_ref_interchange_zones, e)
        got = _outcome(zone_interchange_check, e)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got["zones"] == expected
            assert got["input_zone"] == _ref_classify_zone(e.eps)

    @given(exponent_data(), st.lists(rationals, min_size=3, max_size=3), st.integers(-2, 2))
    def test_transform_matches_the_fraction_formulas(self, e, z3, shift):
        special = any(v.denominator == 2 for v in _signed_sums((x, -x) for x in e.eps))
        for sg in product((1, -1), repeat=4):
            default = _ref_default_z(e, sg)
            twisted = (*z3, default[3] - sum(z3) + shift)
            for z, given in ((default, None), (twisted, twisted)):
                expected = ((SpecialParameters, "signed eps sums hit a half-integer") if special
                            else _outcome(_ref_convolve, e, sg, z))
                got = _outcome(mc_exponents, e, sigma_text(sg), given)
                assert got == expected
                if not isinstance(got, tuple):
                    assert _outcome(classify_zone, got) == \
                        _outcome(_ref_classify_zone, expected.eps)


# ---------------------------------------------------------------------------
# find_destabilizer's integer scores
# ---------------------------------------------------------------------------

@st.composite
def destabilizer_problems(draw):
    poles = draw(st.one_of(st.just([F(0), F(1), F(3)]),
                           st.lists(rationals, min_size=3, max_size=3, unique=True)))
    poles.insert(draw(st.integers(0, 3)), INF)
    # small coordinates put three or four points on a line
    u = [draw(st.one_of(st.integers(-3, 3).map(F), tiny, rationals)) for _ in range(4)]
    for i in draw(st.sets(st.integers(0, 3), max_size=2)):
        u[i] = INF
    mu = tuple(draw(st.lists(rationals, min_size=4, max_size=4)))
    return QuasiPar(poles=tuple(poles), u=tuple(u)), Weights(mu=mu, eps=tuple(draw(eps_lists)))


class TestDestabilizerScores:
    @given(destabilizer_problems())
    def test_matches_the_parabolic_degree_maximizer(self, problem):
        qp, w = problem
        assert _outcome(find_destabilizer, qp, w) == destabilizer_by_enumeration(qp, w)
        for sub in candidate_subbundles(qp):
            assert parabolic_degree(sub, w) == parabolic_degree_by_sum(sub, w)

    @given(destabilizer_problems())
    def test_builds_coefficients_only_for_the_candidate_it_names(self, problem):
        """The types are scored on integers; one `Subbundle` is built, for
        the destabilizer returned or the candidate a wall error names, and
        none when the structure is stable."""
        qp, w = problem
        built = []

        def counted(*cand):
            built.append(cand)
            return subbundle_of(*cand)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parabolic, "subbundle_of", counted)
            got = _outcome(find_destabilizer, qp, w)
        assert len(built) == (got is not None)


# ---------------------------------------------------------------------------
# Normal forms: one residue rule against the per-gauge formulas
# ---------------------------------------------------------------------------

def _oracle_connection_qp(t, k, big_q, p):
    """A1..A4 of the (Q, p) gauge as sums of scaled fixed matrices."""
    u = t * (big_q - 1) / (big_q - t)
    e12, m, n = Mat2(0, 1, 0, 0), Mat2(1, 1, -1, -1), Mat2(u, 1, -u * u, -u)
    a1 = e12.scale(k.k0 * (big_q - t) / t) + Mat2(k.k1 / 2, 0, 0, -k.k1 / 2)
    a2 = m.scale(-k.k0 * (big_q - t) / (t - 1)) + Mat2(k.k2 / 2, 0, -k.k2, -k.k2 / 2)
    a3 = n.scale(k.k0 * (big_q - t) / (t * (t - 1))) + Mat2(k.k3 / 2, 0, -k.k3 * u, -k.k3 / 2)
    g1 = a1 + e12.scale(-big_q * (big_q - t) / t).scale(p)
    g2 = a2 + m.scale((big_q - 1) * (big_q - t) / (t - 1)).scale(p)
    g3 = a3 + n.scale(-(big_q - t) * (big_q - t) / (t * (t - 1))).scale(p)
    return (g1, g2, g3, -(g1 + g2 + g3))


def _oracle_finite_rows(s):
    """The finite residues of the (q, p) gauge and their eigen-table rows,
    written with p~ = p P(q), d_i and p~ - d_i k_i."""
    pt = s.p * s.q * (s.q - 1) * (s.q - s.t)
    residues, rows = [], []
    for ki, ti, d in zip(s.kappa.finite, (0, 1, s.t), (s.t, 1 - s.t, s.t * (s.t - 1))):
        gap, shifted = s.q - ti, pt - d * ki
        residues.append(Mat2(ki / 2 - pt / d, -gap / d, pt * shifted / (d * gap), pt / d - ki / 2))
        rows.append(((ki / 2, (1, -pt / gap)), (-ki / 2, (1, -shifted / gap))))
    return residues, rows


@st.composite
def qp_gauge_problems(draw):
    """(t, kappa, Q, p) with generic kappa; mostly Q = t_i + k0/p, where
    q = Q - k0/p sits at a pole and the residue's (1,2) entry c_i is 0."""
    t = draw(rationals)
    assume(t not in (0, 1))
    kappa = KappaParams.from_k1234(*(draw(fractional) for _ in range(4)))
    p = draw(rationals)
    assume(p != 0 and kappa_generic(kappa))
    pole = draw(st.sampled_from([None, F(0), F(1), t]))
    big_q = draw(rationals) if pole is None else pole + kappa.k0 / p
    assume(big_q not in (0, 1, t))
    return t, kappa, big_q, p


class TestResidueRule:
    @given(qp_gauge_problems())
    def test_qp_gauge_matches_the_scaled_matrices(self, problem):
        conn = build_connection_qp(*problem)
        assert (conn.a1, conn.a2, conn.a3, conn.a4) == _oracle_connection_qp(*problem)
        assert conn.c == Mat2.zero()

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_qp_gauge_with_q_at_a_pole(self, i):
        t, kappa, p = F(3), KappaParams.from_k1234(F(1, 3), F(1, 5), F(1, 7), F(1, 8)), F(2)
        big_q = (0, 1, t)[i] + kappa.k0 / p
        conn = build_connection_qp(t, kappa, big_q, p)
        assert conn.finite_residues()[i].a12 == 0
        assert (conn.a1, conn.a2, conn.a3, conn.a4) == _oracle_connection_qp(t, kappa, big_q, p)

    @given(higgs_states())
    def test_pq_gauge_and_eigen_table_match_the_written_out_rows(self, s):
        assume(kappa_generic(s.kappa))
        residues, rows = _oracle_finite_rows(s)
        assert list(build_connection(s).finite_residues()) == residues
        assert eigen_table(s)[:3] == tuple(rows)
