"""Certificates: the normal-form and symmetry identities proved over Q(t, k1..k4, q, p).

The package formulas compute over whatever field their inputs live in, so
running them unchanged on elements of sympy's rational function field
proves each identity as an identity of rational functions, not only at
sampled points.  Field elements are reduced canonical fractions, so `==`
is the identity test.  sympy is a test-only dependency.

The identities the connection and backlund suites sample at each state
are declared once, by `verify.connection_identities` and
`verify.backlund_identities`; both run here once on the symbolic STATE,
with one test per name they return.
"""
import pytest

sympy = pytest.importorskip("sympy")

from pvi_moduli import backlund as bk  # noqa: E402
from pvi_moduli import connection, verify  # noqa: E402
from pvi_moduli.connection import KappaParams, PQState  # noqa: E402
from pvi_moduli.parabolic import parabolic_from_connection, q_map_parabolic  # noqa: E402

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


@pytest.mark.parametrize("name", RELATIONS)
def test_group_relation_is_an_identity(name):
    assert BACKLUND[f"relation {name}"]


@pytest.mark.parametrize("name", [n for n in BACKLUND if not n.startswith("relation ")])
def test_backlund_identity(name):
    assert BACKLUND[name]


# ---------------------------------------------------------------------------
# The two fibrations
# ---------------------------------------------------------------------------

def test_transversality_solves_both_fibers():
    _, l1, l2, c0 = sympy.field("l1 l2 c0", sympy.QQ)
    q1, p1 = bk.transversality_solve(l1, l2, c0)
    assert (q1, q1 + c0 / p1) == (l1, l2)


def test_parabolic_coordinate_is_q_plus_k0_over_p():
    assert q_map_parabolic(parabolic_from_connection(STATE)) == q + k0 / p
