"""Certificates: the normal-form, symmetry and Higgs identities proved over Q(t, k1..k4, q, p).

The package formulas compute over whatever field their inputs live in, so
running them unchanged on elements of sympy's rational function field
proves each identity as an identity of rational functions, not only at
sampled points.  Field elements are reduced canonical fractions, so `==`
is the identity test.  sympy is a test-only dependency.  Only `exact`
tells Q from another field (`exact.is_rational`): the integrality
predicates hold at the generic point, values not in Q, so nothing here
is monkeypatched and the shipped code is what runs.

The identities the connection and backlund suites sample at each state
are declared once, by `verify.connection_identities` and
`verify.backlund_identities`; both run here once on the symbolic STATE,
with one test per name they return.  They read the values made once per
state (the normal form, its eigen table and the table of word prefixes),
so it is those values that are proved.  So do `fibration_identities` on
STATE and `transversality_identities` over Q(l1, l2, k0).

The Higgs declarations run unchanged on STATE, one test per record, at
one seeded weight per zone: `zone_a_limit_identities`,
`graded_limit_identity` in all eight unstable zones,
`quotient_slope_identity` in A, B and C12, `dictionary_identities` on
C12, C23, C14 and B, and `colinear_limit_identity`, whose state lies over
Q(t, kappa, q).  Each proves the generic state at that weight, not the
whole chamber; `stable_limit_identities` stays sampled.

The Fuchs relations are checked only where exponents come in
(`KappaParams.from_strs`); every map that makes new exponents is proved
here to keep them: each generator of `backlund.ALPHABET` and the
Schlesinger composite keep 2*k0 + k1 + ... + k4 = 1, `residues()` meets
sum(r+ + r-) + lam*degree = 0, and every elementary transformation keeps
that sum, over Q(r+, r-, lam).

The Higgs layer reads the normal form's entries in closed form from the
pole data (`higgs._cleared_normal_form`); each is proved equal to
`shared.cleared`, which sums the residue matrices, and the
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

The contact and conic cores take coordinates in any commutative ring,
so they run here on polynomial-ring symbols, over Z[t1..t4, u1..u4] and
on generic entries: a conic row is the homogenized contact condition
z^2 (w(t) - u v(t)) and the u = inf row the homogenized v(t); the signed
minors of the contact system lie in its kernel; the shared-zero
polynomial is the resultant of v and w; and (a x b) . c and `det4` are
the determinants.  On STATE, `theta_divisor` puts every contact pole of
each candidate subbundle in its divisor.
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
from pvi_moduli.higgs import _cleared_normal_form, theta_divisor  # noqa: E402
from pvi_moduli.mconv import sigma_text  # noqa: E402
from pvi_moduli.parabolic import (_conic_row, _fiber_row, _resultant, _signed_minors,  # noqa: E402
                                  candidate_types, cross, dot, parabolic_from_connection,
                                  parabolic_structures, q_map_parabolic, subbundle_of)
from pvi_moduli.sampling import RationalSampler  # noqa: E402
from pvi_moduli.stability import (ALL_ZONE_LABELS, ZONE_A, ZONE_B, ZONE_STABLE,  # noqa: E402
                                  Branch, _score, czone, stable_subzone_branch)
from records import passes  # noqa: E402
from shared import cleared, matvec  # noqa: E402

K, t, k1, k2, k3, k4, q, p = sympy.field("t k1 k2 k3 k4 q p", sympy.QQ)
k0 = (1 - k1 - k2 - k3 - k4) / 2
STATE = PQState(t, KappaParams(k0, k1, k2, k3, k4), q, p)

CONNECTION = passes(verify.connection_identities(STATE))
BACKLUND = passes(verify.backlund_identities(STATE))

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
    each entry, and a22 = -a11, equals the normal form's entry cleared
    by `shared.cleared`, which sums the residue matrices."""
    assert poly_trim(CLEARED[entry]) == poly_trim(cleared(STATE.normal_form, entry))


def test_closed_form_clears_by_the_polynomial_of_the_finite_poles():
    assert PI == poly_mul(poly_mul([0, 1], [-1, 1]), [-t, 1])


# ---------------------------------------------------------------------------
# The Higgs declarations, at one seeded weight per zone
# ---------------------------------------------------------------------------

SAMPLER = RationalSampler(seed=1)
WEIGHTS = {zone: SAMPLER.weights_in_zone(zone) for zone in ALL_ZONE_LABELS}
COLINEAR_WEIGHTS = SAMPLER.retry(
    lambda: SAMPLER.weights_in_zone(ZONE_STABLE),
    lambda w: stable_subzone_branch(w, 1) == Branch.COLINEAR_UNSTABLE)
DICTIONARY = [(czone(i, j), bk.pair_fibration_word(i, j)) for i, j in ((1, 2), (2, 3), (1, 4))]
DICTIONARY.append((ZONE_B, bk.full_flip_fibration_word()))
DICTIONARY_ZONES = [zone for zone, _ in DICTIONARY]
QUOTIENT_ZONES = (ZONE_A, ZONE_B, czone(1, 2))

ZONE_A_LIMIT = passes(verify.zone_a_limit_identities(STATE, WEIGHTS[ZONE_A]))
GRADED = passes([record for zone in ALL_ZONE_LABELS
                 for record in verify.graded_limit_identity(zone, STATE, WEIGHTS[zone])])
QUOTIENT = {zone: passed for zone in QUOTIENT_ZONES
            for _, passed, _ in verify.quotient_slope_identity(STATE, WEIGHTS[zone])}
DICTIONARY_RECORDS = verify.dictionary_identities(
    DICTIONARY_ZONES, STATE, [bk.apply_word(word, STATE).q for _, word in DICTIONARY],
    [WEIGHTS[zone] for zone in DICTIONARY_ZONES])
DICTIONARY_LIMITS = {zone: passed
                     for zone, (_, passed, _) in zip(DICTIONARY_ZONES, DICTIONARY_RECORDS)}
COLINEAR = passes(verify.colinear_limit_identity(STATE, COLINEAR_WEIGHTS))


@pytest.mark.parametrize("name", list(ZONE_A_LIMIT))
def test_zone_a_limit_identity(name):
    """`verify.zone_a_limit_identities` on STATE at one seeded zone-A
    weight: the limit's divisor is the apparent singularity q and the
    limit is the fibration composite.  The proof covers the generic state
    at that weight; the rest of the chamber needs the vertex margins of
    the 24 chambers (tests/test_chambers.py), which are open work."""
    assert ZONE_A_LIMIT[name]


@pytest.mark.parametrize("name", list(GRADED))
def test_graded_limit_identity(name):
    """`verify.graded_limit_identity` on STATE at one seeded weight in
    each unstable zone: the limit keeps a nonzero Higgs field.  The proof
    covers the generic state at that weight; the rest of the chamber
    needs the vertex margins of the 24 chambers, which are open work."""
    assert GRADED[name]


@pytest.mark.parametrize("zone", list(QUOTIENT))
def test_quotient_slope_identity(zone):
    """`verify.quotient_slope_identity` on STATE at one seeded weight in
    zones A, B and C12: the invariant quotient has slope below 1/2.  The
    proof covers the generic state at that weight; the rest of the
    chamber needs the vertex margins of the 24 chambers, which are open
    work."""
    assert QUOTIENT[zone]


@pytest.mark.parametrize("zone", list(DICTIONARY_LIMITS))
def test_dictionary_identity(zone):
    """`verify.dictionary_identities` on STATE at one seeded weight in
    each of C12, C23, C14 and B: the limit vanishes at the contact poles
    and at the q of the zone's symmetry word applied to STATE.  The proof
    covers the generic state at that weight; the rest of the chamber
    needs the vertex margins of the 24 chambers, which are open work."""
    assert DICTIONARY_LIMITS[zone]


@pytest.mark.parametrize("name", list(COLINEAR))
def test_colinear_limit_identity(name):
    """`verify.colinear_limit_identity` at one seeded stable weight on
    the colinear-unstable branch at pole 1: the state it makes from STATE,
    p = -k0/q, lies over Q(t, kappa, q), and its limit carries the three
    forced zeros.  The proof covers that generic state at that weight;
    the rest of the chamber needs the vertex margins of the 24 chambers,
    which are open work.  `stable_limit_identities` stays sampled."""
    assert COLINEAR[name]


# ---------------------------------------------------------------------------
# The two fibrations
# ---------------------------------------------------------------------------

FIBRATION = passes(verify.fibration_identities(STATE))
_, L1, L2, C0 = sympy.field("l1 l2 c0", sympy.QQ)
TRANSVERSALITY = {case: passed for case, l2 in (("l1 != l2", L2), ("l1 = l2", L1))
                  for _, passed, _ in verify.transversality_identities(L1, l2, C0)}


@pytest.mark.parametrize("name", list(FIBRATION))
def test_fibration_identity(name):
    """`verify.fibration_identities` on STATE: Q of the induced structure,
    by its closed form and by the conic, the alternative structure's Q',
    the residues' genericity (true at the generic point) and the four
    elementary transformations."""
    assert FIBRATION[name]


@pytest.mark.parametrize("case", list(TRANSVERSALITY))
def test_transversality_identity(case):
    """`verify.transversality_identities` over Q(l1, l2, k0): the fibers
    q = l1 and Q = l2 meet at one finite point, and for l2 = l1 only at
    infinity."""
    assert TRANSVERSALITY[case]


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
    by_q = bk.apply_generator(name, STATE.with_kappa(STATE.kappa, q=Dual.var(q), p=Dual(p, 0)))
    by_p = bk.apply_generator(name, STATE.with_kappa(STATE.kappa, q=Dual(q, 0), p=Dual.var(p)))
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
# The contact and conic cores over Z[t1..t4, u1..u4]; theta_divisor on STATE
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


@pytest.mark.parametrize("side", [0, 1], ids=["parabolic", "alternative"])
def test_wronskian_vanishes_at_every_finite_contact_pole(side):
    """`theta_divisor` run unchanged on the normal form over
    Q(t, kappa, q, p), for each candidate of each structure that
    `candidate_types` lists, built by `subbundle_of`: its divisor holds
    every contact pole.  At a finite one the Wronskian vanishes, as the
    direction there is an eigenvector of the residue, and
    `poly_divide_root` divides the root out over the field; at infinity
    the degree drops.  The section through all four (`section_type`) of
    the parabolic structure is zone B's destabilizer, whose divisor
    `test_dictionary_identity` proves to be the four poles and one free
    zero; the alternative structure's takes over a minute over this
    field, so it is left out."""
    qp = parabolic_structures(STATE)[side]
    for cand in candidate_types(qp):
        sub = subbundle_of(*cand)
        divisor = theta_divisor(STATE, sub)
        assert [pole for pole in (STATE.poles[i - 1] for i in sub.contact)
                if pole not in divisor] == []
