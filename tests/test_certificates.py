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
choices sigma, to be `connection.okamoto_s0` of the signed exponents, over
Q(eps1..eps4): the rule `mconv` and `backlund` share is the paper's
convolution exponent.
"""
from functools import partial
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")

from pvi_moduli import backlund as bk  # noqa: E402
from pvi_moduli import connection, verify  # noqa: E402
from pvi_moduli.connection import (KappaParams, PQState, ResidueVector,  # noqa: E402
                                   elementary_transform_residues)
from pvi_moduli.exact import Dual  # noqa: E402
from pvi_moduli.mconv import sigma_text  # noqa: E402
from pvi_moduli.parabolic import (parabolic_from_connection, parabolic_structures,  # noqa: E402
                                  q_map_parabolic)

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
    assert RESIDUE.matvec((1, slope)) == (lam, lam * slope)


# ---------------------------------------------------------------------------
# The two fibrations
# ---------------------------------------------------------------------------

def test_transversality_solves_both_fibers():
    _, l1, l2, c0 = sympy.field("l1 l2 c0", sympy.QQ)
    q1, p1 = bk.transversality_solve(l1, l2, c0)
    assert (q1, q1 + c0 / p1) == (l1, l2)


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
    image = connection.okamoto_s0(E_HALF - signed, *(2 * s * e for s, e in zip(sigma, EPS)))
    y = [-E_HALF + signed - 2 * s * e for s, e in zip(sigma, EPS)]
    assert image[1:] == tuple(-yi for yi in y)


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
