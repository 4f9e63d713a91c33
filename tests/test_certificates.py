"""Certificates: the normal-form and symmetry identities proved over Q(t, k1..k4, q, p).

The package formulas compute over whatever field their inputs live in, so
running them unchanged on elements of sympy's rational function field
proves each identity as an identity of rational functions, not only at
sampled points.  Field elements are reduced canonical fractions, so `==`
is the identity test.  sympy is a test-only dependency.

The identities the connection and backlund suites sample at each state
are declared once, by `verify.connection_identities` and
`verify.backlund_identities`; both run here once on the symbolic STATE,
with one test per name they return.  They read the values made once per
state (the normal form, its eigen table and the table of word prefixes),
so it is those values that are proved.

The Fuchs relations are checked only where exponents come in
(`KappaParams.from_strs`); every map that makes new exponents is proved
here to keep them: each generator of `backlund.ALPHABET` and the
Schlesinger composite keep 2*k0 + k1 + ... + k4 = 1, `residues()` meets
sum(r+ + r-) + lam*degree = 0, and every elementary transformation keeps
that sum, over Q(r+, r-, lam).

The Higgs layer reads the normal form's entries in closed form from the
pole data (`higgs._cleared_normal_form`); each is proved equal to
`FourPoleConnection.cleared`, which sums the residue matrices, and the
structure `parabolic_from_connection` reads from the pole data is proved
to be the eigen table's.

The one rule `connection._residue(k, sigma, c)` that writes every finite
residue of both gauges is proved over Q(k, sigma, c): trace 0, determinant
-k^2/4, and eigenvectors (1, sigma) for k/2 and (1, sigma - k/c) for -k/2.

Each generator is also proved symplectic: det d(q', p')/d(q, p) = 1, the
partial derivatives taken with exact dual numbers over Q(t, kappa, q, p).
For the pole permutations this proves that p -> -w(wp + k0)/d_c is the
cotangent lift of q -> t_c + d_c/w.

The word printed in criterion 4b is proved to be WORD_SHIFT_34, so it
shifts (k3, k4), not the (k1, k2) the criterion states.

The middle convolution's exponents are proved, for each of the 16 sign
choices sigma, to be `exact.okamoto_s0` of the signed exponents, over
Q(eps1..eps4): the rule `mconv` and `backlund` share is the paper's
convolution exponent, and it lives in `exact`, so the convolution reads it
without loading the normal form.

The zone score `stability._score` is proved over Q(eps1..eps4) with
den = 1: it is 2 (d + sum_S eps - sum_rest eps) for every contact set S,
and a type and its complement (-d, the other poles) score opposite, the
identity the zone classifier's scan of four types relies on.

The contact, conic and Wronskian cores take coordinates in any
commutative ring, so they run here on polynomial-ring symbols, over
Z[t1..t4, u1..u4] and on generic entries: a conic row is the homogenized
contact condition z^2 (w(t) - u v(t)) and the u = inf row the homogenized
v(t); the signed minors of the contact system lie in its kernel; the
shared-zero polynomial is the resultant of v and w; (a x b) . c and
`det4` are the determinants; and on the normal form over
Q(t, kappa, q, p) the Wronskian vanishes at every finite contact pole.
"""
from functools import partial
from itertools import combinations, product

import pytest

sympy = pytest.importorskip("sympy")

from pvi_moduli import backlund as bk  # noqa: E402
from pvi_moduli import connection, verify  # noqa: E402
from pvi_moduli.connection import (KappaParams, PQState, ResidueVector,  # noqa: E402
                                   elementary_transform_residues)
from pvi_moduli.exact import Dual, det4, okamoto_s0, poly_mul, poly_trim  # noqa: E402
from pvi_moduli.higgs import _cleared_normal_form, _wronskian  # noqa: E402
from pvi_moduli.mconv import sigma_text  # noqa: E402
from pvi_moduli.parabolic import (_conic_row, _fiber_row, _resultant, _signed_minors,  # noqa: E402
                                  cross, dot, line_through, parabolic_from_connection,
                                  parabolic_structures, q_map_parabolic, section_value)
from pvi_moduli.stability import _score  # noqa: E402
from shared import matvec  # noqa: E402

K, t, k1, k2, k3, k4, q, p = sympy.field("t k1 k2 k3 k4 q p", sympy.QQ)
k0 = (1 - k1 - k2 - k3 - k4) / 2
STATE = PQState(t, KappaParams(k0, k1, k2, k3, k4), q, p)


def _generic(kappa):
    # kappa_generic reads .denominator, a statement about rational numbers;
    # a symbolic kappa is the generic point, where it holds.
    return True


@pytest.fixture(autouse=True)
def generic_kappa(monkeypatch):
    monkeypatch.setattr(connection, "kappa_generic", _generic)


with pytest.MonkeyPatch.context() as mp:
    mp.setattr(connection, "kappa_generic", _generic)
    CONNECTION = {name: passed for name, passed, _ in verify.connection_identities(STATE)}
    BACKLUND = {name: passed for name, passed, _ in verify.backlund_identities(STATE)}

RELATIONS = [name for name, _, _ in bk.RELATION_WORDS]


# ---------------------------------------------------------------------------
# The identities the connection and backlund suites sample
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(CONNECTION))
def test_connection_identity(name):
    assert CONNECTION[name]


def test_the_identities_read_the_values_made_once_for_the_state():
    made = vars(STATE)
    assert {"pole_data", "normal_form", "eigen_table"} <= set(made)
    assert connection.build_connection(STATE) is made["normal_form"]
    assert connection.eigen_table(STATE) is made["eigen_table"]


@pytest.mark.parametrize("name", RELATIONS)
def test_group_relation_is_an_identity(name):
    assert BACKLUND[f"relation {name}"]


@pytest.mark.parametrize("name", [n for n in BACKLUND if not n.startswith("relation ")])
def test_backlund_identity(name):
    assert BACKLUND[name]


# ---------------------------------------------------------------------------
# The one finite-residue rule of both gauges, over Q(k, sigma, c)
# ---------------------------------------------------------------------------

_, RK, RSIGMA, RC = sympy.field("k sigma c", sympy.QQ)
RESIDUE = connection._residue(RK, RSIGMA, RC)


def test_residue_is_trace_free_with_det_minus_k_squared_over_4():
    assert (RESIDUE.trace(), RESIDUE.det()) == (0, -RK ** 2 / 4)


@pytest.mark.parametrize("lam, slope", [(RK / 2, RSIGMA), (-RK / 2, RSIGMA - RK / RC)],
                         ids=["k/2 on (1, sigma)", "-k/2 on (1, sigma - k/c)"])
def test_residue_eigenvector(lam, slope):
    assert matvec(RESIDUE, (1, slope)) == (lam, lam * slope)


# ---------------------------------------------------------------------------
# The Higgs layer's closed-form entries, against the residues
# ---------------------------------------------------------------------------

PI, *ENTRIES = _cleared_normal_form(STATE)
CLEARED = dict(zip(("a11", "a12", "a21"), ENTRIES), a22=[-c for c in ENTRIES[0]])


@pytest.mark.parametrize("entry", ["a11", "a12", "a21", "a22"])
def test_closed_form_entry_is_the_normal_forms_cleared_entry(entry):
    """`higgs._cleared_normal_form` reads the pole data, not the residues:
    each entry, and a22 = -a11, equals `FourPoleConnection.cleared` of the
    normal form, which sums the residue matrices."""
    assert poly_trim(CLEARED[entry]) == poly_trim(STATE.normal_form.cleared(entry))


def test_closed_form_clears_by_the_polynomial_of_the_finite_poles():
    assert PI == poly_mul(poly_mul([0, 1], [-1, 1]), [-t, 1])


# ---------------------------------------------------------------------------
# The two fibrations
# ---------------------------------------------------------------------------

def test_transversality_solves_both_fibers():
    _, l1, l2, c0 = sympy.field("l1 l2 c0", sympy.QQ)
    q1, p1 = bk.transversality_solve(l1, l2, c0)
    assert (q1, q1 + c0 / p1) == (l1, l2)


def test_parabolic_structure_read_from_the_pole_data_is_the_eigen_tables():
    assert parabolic_from_connection(STATE) == parabolic_structures(STATE)[0]


def test_parabolic_coordinate_is_q_plus_k0_over_p():
    assert q_map_parabolic(parabolic_from_connection(STATE)) == q + k0 / p


def test_alternative_structure_computes_q_prime():
    assert q_map_parabolic(parabolic_structures(STATE)[1]) == bk.big_q_prime_of(STATE)


# ---------------------------------------------------------------------------
# Criterion 4b, refuted over Q(t, kappa, q, p)
# ---------------------------------------------------------------------------

def test_printed_criterion_4b_word_is_word_shift_34():
    """Criterion 4b prints the word below and claims it shifts (k1, k2) by
    +1.  It is WORD_SHIFT_34 letter for letter, whose shift of (k3, k4) by
    +1 `test_backlund_identity` proves, so the claim fails at every state
    where the word is defined, not only at the sample that
    tests/test_acceptance.py::test_criterion_04b_composite_word_as_printed
    asserts it on."""
    assert tuple("r12_34 s3 s4 s0 s1 s2 s0".split()) == bk.WORD_SHIFT_34


# ---------------------------------------------------------------------------
# Katz's middle convolution is Okamoto's s0, over Q(eps1..eps4)
# ---------------------------------------------------------------------------

E, *EPS = sympy.field("e1 e2 e3 e4", sympy.QQ)
E_HALF = E.one / 2


@pytest.mark.parametrize("sigma", list(product((1, -1), repeat=4)), ids=sigma_text)
def test_convolution_exponents_are_okamoto_s0_of_the_signed_exponents(sigma):
    """With kappa_sigma = (1/2 - sum_j sigma_j eps_j, 2 sigma_1 eps_1, ..,
    2 sigma_4 eps_4), which meets the Fuchs relation, okamoto_s0 gives -y_i
    for the convolution exponents y_i = -1/2 + sum_j sigma_j eps_j
    - 2 sigma_i eps_i that `mconv` reduces mod 1."""
    signed = sum(s * e for s, e in zip(sigma, EPS))
    image = okamoto_s0(E_HALF - signed, *(2 * s * e for s, e in zip(sigma, EPS)))
    y = [-E_HALF + signed - 2 * s * e for s, e in zip(sigma, EPS)]
    assert image[1:] == tuple(-yi for yi in y)


CONTACT_SETS = [frozenset(c) for r in range(5) for c in combinations(range(1, 5), r)]


@pytest.mark.parametrize("contact", CONTACT_SETS, ids=lambda c: "S=" + "".join(map(str, sorted(c))))
def test_zone_score_is_twice_the_parabolic_degree_and_odd_under_complement(contact):
    """Over one denominator den = 1, `_score` of the type (d, S) is
    2 (d + sum_S eps - sum_rest eps), and the complement type (-d, the
    other poles) has the opposite score, for d in {-1, 0, 1}."""
    total = sum(EPS)
    inside = sum(EPS[i - 1] for i in contact)
    rest = frozenset(range(1, 5)) - contact
    for d in (-1, 0, 1):
        score = _score(EPS, 1, total, d, contact)
        assert score == 2 * (d + inside - (total - inside))
        assert score == -_score(EPS, 1, total, -d, rest)


# ---------------------------------------------------------------------------
# Every generator keeps dq ^ dp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", bk.ALPHABET)
def test_generator_is_symplectic(name):
    by_q = bk.apply_generator(name, STATE.with_kappa(STATE.kappa, q=Dual.var(q), p=Dual.const(p)))
    by_p = bk.apply_generator(name, STATE.with_kappa(STATE.kappa, q=Dual.const(q), p=Dual.var(p)))
    assert by_q.q.der * by_p.p.der - by_p.q.der * by_q.p.der == 1


# ---------------------------------------------------------------------------
# The Fuchs relations
# ---------------------------------------------------------------------------

KAPPA_MAPS = {**{g: partial(bk.apply_generator, g) for g in bk.ALPHABET},
              "schlesinger_composite_qp": bk.schlesinger_composite_qp}


@pytest.mark.parametrize("name", list(KAPPA_MAPS))
def test_map_keeps_the_kappa_relation(name):
    k = KAPPA_MAPS[name](STATE).kappa
    assert 2 * k.k0 + k.k1 + k.k2 + k.k3 + k.k4 == 1


def fuchs_sum(r):
    return sum(r.r_plus) + sum(r.r_minus) + r.lam * r.degree


def test_residues_satisfy_the_fuchs_relation():
    assert fuchs_sum(STATE.kappa.residues()) == 0


_, *R = sympy.field("rp1 rp2 rp3 rp4 rm1 rm2 rm3 rm4 lam", sympy.QQ)


@pytest.mark.parametrize("degree", [1, 0, -1])
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_elementary_transform_keeps_the_fuchs_sum(i, degree):
    r = ResidueVector(r_plus=tuple(R[:4]), r_minus=tuple(R[4:8]), lam=R[8], degree=degree)
    assert fuchs_sum(elementary_transform_residues(r, i)) == fuchs_sum(r)


# ---------------------------------------------------------------------------
# The contact, conic and Wronskian cores, over Z[t1..t4, u1..u4]
# ---------------------------------------------------------------------------

_, *TU = sympy.ring("t1 t2 t3 t4 u1 u2 u3 u4", sympy.ZZ)
T, U = TU[:4], TU[4:]
_, X, Y, Z, *VW = sympy.field("x y z v0 v1 w0 w1 w2", sympy.QQ)


def dot3(row, coefficients):
    return sum(r * c for r, c in zip(row, coefficients))


def test_conic_row_is_the_homogenized_contact_condition():
    """A direction u over the pole t, as the point (x, y, z) with t = x/z
    and u = y/z, gives the row z^2 (w(t) - u v(t)), homogenized: at z = 1
    the condition w(t_i) = u_i v(t_i), and over a pole at infinity,
    (1, u, 0), the chart's leading coefficients w2 = u v1."""
    v0, v1, w0, w1, w2 = VW
    tv, uv = X / Z, Y / Z
    contact = Z ** 2 * (w0 + w1 * tv + w2 * tv ** 2 - uv * (v0 + v1 * tv))
    assert dot3(_conic_row((X, Y, Z)), VW) == contact


def test_fiber_row_is_the_homogenized_first_section():
    """u = inf over the pole (x, 0, z) asks v(t) = 0: the row is z v(x/z)."""
    v0, v1 = VW[:2]
    assert dot3(_fiber_row((X, 0, Z)), VW) == Z * (v0 + v1 * X / Z)


SYSTEMS = {
    "four finite directions": [_conic_row((T[i], U[i], 1)) for i in range(4)],
    "u1 = inf, pole 4 at infinity": [_fiber_row((T[0], 0, 1))]
    + [_conic_row((T[i], U[i], 1)) for i in (1, 2)] + [_conic_row((1, U[3], 0))],
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_signed_minors_lie_in_the_kernel(name):
    rows = SYSTEMS[name]
    minors = _signed_minors(rows)
    assert any(minors)
    assert [dot3(row, minors) for row in rows] == [0, 0, 0, 0]


def test_shared_zero_polynomial_is_the_resultant():
    """m2 m1^2 - m3 m0 m1 + m4 m0^2 is the resultant of v = m0 + m1 x and
    w = m2 + m3 x + m4 x^2, up to sign, as a polynomial in m0..m4."""
    m = sympy.symbols("m0:5")
    x = sympy.Symbol("x")
    res = sympy.resultant(m[0] + m[1] * x, m[2] + m[3] * x + m[4] * x ** 2, x)
    core = sympy.expand(_resultant(m))
    assert sympy.expand(res - core) == 0 or sympy.expand(res + core) == 0


def test_cross_product_dotted_with_a_third_point_is_the_determinant():
    a, b, c = (sympy.symbols(f"{n}0:3") for n in "abc")
    assert sympy.expand(dot(cross(a, b), c) - sympy.Matrix([a, b, c]).det()) == 0


def test_det4_is_the_determinant():
    rows = [[sympy.Symbol(f"a{i}{j}") for j in range(4)] for i in range(4)]
    assert sympy.expand(det4(rows) - sympy.Matrix(rows).det()) == 0


def _contact_sections(qp, conic):
    """(s1, s2, finite contact poles) for each degree-0 line through two
    directions and, when asked, for the degree-(-1) section through all
    four, from the signed minors of its rows over the field."""
    poles = (0, 1, t)
    for pair in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        yield (1,), line_through(qp, list(pair)), [poles[i] for i in pair if i < 3]
    if conic:
        rows = [_conic_row((tv, uv, 1)) for tv, uv in zip(poles, qp.u)]
        minors = _signed_minors(rows + [_conic_row((1, qp.u[3], 0))])
        yield minors[:2], minors[2:], list(poles)


@pytest.mark.parametrize("side", [0, 1], ids=["parabolic", "alternative"])
def test_wronskian_vanishes_at_every_finite_contact_pole(side):
    """On the normal form over Q(t, kappa, q, p), its entries in the
    closed form `theta_divisor` reads (proved equal to the residues' sums
    above), for each structure:
    every section through two of its directions, and on the parabolic
    structure the section through all four, has a Wronskian that vanishes
    at each finite pole it meets, as the direction there is an
    eigenvector of the residue.  (The alternative structure's section
    through all four takes about 10 s over this field, so it is left
    out.)  `theta_divisor` then divides these roots out with
    `poly_divide_root`, which cannot run here: it reads integer
    remainders with `divmod`, so it stays sampled
    (tests/test_kernel_oracles.py::TestThetaDivisor)."""
    qp = parabolic_structures(STATE)[side]
    for s1, s2, contact in _contact_sections(qp, conic=side == 0):
        w_poly = _wronskian(PI, *ENTRIES, s1, s2)
        assert any(w_poly)
        assert [section_value(w_poly, tv, len(w_poly) - 1) for tv in contact] \
            == [0] * len(contact)
