"""Certificates: the normal-form and symmetry identities proved over Q(t, k1..k4, q, p).

The package formulas compute over whatever field their inputs live in, so
running them unchanged on elements of sympy's rational function field
proves each identity as an identity of rational functions, not only at
sampled points.  Field elements are reduced canonical fractions, so `==`
is the identity test.  sympy is a test-only dependency.
"""
import pytest

sympy = pytest.importorskip("sympy")

from pvi_moduli import backlund as bk  # noqa: E402
from pvi_moduli import connection  # noqa: E402
from pvi_moduli.connection import (KappaParams, PQState, build_connection,  # noqa: E402
                                   build_connection_qp, eigen_table)
from pvi_moduli.exact import Mat2  # noqa: E402
from pvi_moduli.parabolic import parabolic_from_connection, q_map_parabolic  # noqa: E402

K, t, k1, k2, k3, k4, q, p = sympy.field("t k1 k2 k3 k4 q p", sympy.QQ)
k0 = (1 - k1 - k2 - k3 - k4) / 2
KAPPA = KappaParams(k0, k1, k2, k3, k4)
STATE = PQState(t, KAPPA, q, p)


@pytest.fixture(autouse=True)
def generic_kappa(monkeypatch):
    # kappa_generic reads .denominator, a statement about rational numbers;
    # a symbolic kappa is the generic point, where it holds.
    monkeypatch.setattr(connection, "kappa_generic", lambda kappa: True)


# ---------------------------------------------------------------------------
# The symmetry group
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def relations():
    return {name: holds for name, holds, _ in bk.check_relations(STATE)}


@pytest.mark.parametrize("name", [name for name, _, _ in bk.RELATION_WORDS])
def test_group_relation_is_an_identity(relations, name):
    assert relations[name]


def test_shift_words_act_on_kappa_by_integer_shifts():
    assert bk.apply_word(bk.WORD_SHIFT_12, STATE).kappa == KappaParams(k0 - 1, k1 + 1, k2 + 1, k3, k4)
    assert bk.apply_word(bk.WORD_SHIFT_34, STATE).kappa == KappaParams(k0 - 1, k1, k2, k3 + 1, k4 + 1)


def test_schlesinger_closed_form_equals_its_word():
    assert bk.schlesinger_composite_qp(STATE) == bk.apply_word(bk.WORD_SCHLESINGER, STATE)


def test_s0_swaps_the_two_fibration_coordinates():
    x, y = bk.al_chart(STATE)
    assert bk.al_chart(bk.apply_generator("s0", STATE)) == (y, x)


def test_chart_is_symplectic():
    assert bk.symplectic_check(STATE)


def test_transversality_solves_both_fibers():
    _, l1, l2, c0 = sympy.field("l1 l2 c0", sympy.QQ)
    q1, p1 = bk.transversality_solve(l1, l2, c0)
    assert (q1, q1 + c0 / p1) == (l1, l2)


# ---------------------------------------------------------------------------
# The two normal-form gauges
# ---------------------------------------------------------------------------

def _alt():
    return build_connection_qp(t, KAPPA, bk.big_q_of(STATE), p)


@pytest.mark.parametrize("gauge", ["pq", "alt"])
def test_finite_residues_apparent_singularity_and_p(gauge):
    conn = build_connection(STATE) if gauge == "pq" else _alt()
    for m, k in zip(conn.finite_residues(), (k1, k2, k3)):
        assert m.trace() == 0
        assert m.det() == -k * k / 4
    assert conn.apparent_singularity_base() == q
    assert conn.p_invariant() == p


def test_pq_gauge_residue_at_infinity():
    conn = build_connection(STATE)
    assert conn.a4 == conn.infinity_residue()
    assert conn.a4.det() == (1 - k4 * k4) / 4


def test_alt_gauge_residues_sum_to_zero():
    alt = _alt()
    assert alt.a1 + alt.a2 + alt.a3 + alt.a4 == Mat2.zero()
    assert alt.a4.det() == -(1 - k4) ** 2 / 4


def test_eigen_table_is_eigendata_with_gaps_kappa():
    conn = build_connection(STATE)
    mats = (conn.a1, conn.a2, conn.a3, conn.a4)
    for m, k, pairs in zip(mats, (k1, k2, k3, k4), eigen_table(STATE)):
        for r, v in pairs:
            assert m.matvec(v) == (r * v[0], r * v[1])
        (r_minus, _), (r_plus, _) = pairs
        assert r_minus - r_plus == k


# ---------------------------------------------------------------------------
# The two fibrations
# ---------------------------------------------------------------------------

def test_parabolic_coordinate_is_q_plus_k0_over_p():
    assert q_map_parabolic(parabolic_from_connection(STATE)) == q + k0 / p
