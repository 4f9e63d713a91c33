"""One case for each reachable branch that the rest of the suite never takes:
input checks of the public constructors and functions, and the rarely hit
answers of the normal-form and parabolic maps.
"""
from fractions import Fraction as F
from itertools import product

import pytest

from pvi_moduli import backlund as bk, higgs, lattice, parabolic as par
from pvi_moduli.connection import (FourPoleConnection, KappaParams, PPoint, PQState,
                                   ResidueVector, Sheet, build_connection_qp,
                                   elementary_transform_residues)
from pvi_moduli.errors import DegenerateInput, NormalFormDegenerate, NotSimple, SpecialWeights
from pvi_moduli.exact import INF, Mat2, is_inf, solve_linear
from pvi_moduli.mconv import mc_exponents, odd_degree_weights
from pvi_moduli.parabolic import Subbundle
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import Weights, czone, predicted_destabilizer_degree
from pvi_moduli.verify import run_suite

KAPPA = KappaParams.from_k1234(F(1, 4), F(1, 8), F(1, 8), F(1, 8))  # k0 = 3/16
POLES = (F(0), F(1), F(2), INF)
RESIDUES = ResidueVector(r_plus=(F(1, 8),) * 4, r_minus=(F(-1, 8),) * 4, lam=1, degree=1)


def connection(c12, *a12):
    """A hand-built connection whose (1, 2) entries are the a12 of A1..A3
    and of the constant part; every other entry is 0."""
    mats = [Mat2(0, x, 0, 0) for x in a12]
    return FourPoleConnection(t=F(2), kappa=KAPPA, a1=mats[0], a2=mats[1], a3=mats[2],
                              a4=Mat2.zero(), c=Mat2(0, c12, 0, 0))


RAISES = [
    # backlund
    (lambda: bk.pair_fibration_word(1, 1), DegenerateInput, "pair indices must be distinct"),
    (lambda: bk.schlesinger_composite_qp(PQState(t=F(2), kappa=KAPPA, q=F(3), p=F(0))),
     DegenerateInput, "composite needs p != 0"),
    # (q - t) p + k0 = 0 at q = 3, t = 2, p = -3/16
    (lambda: bk.schlesinger_composite_qp(PQState(t=F(2), kappa=KAPPA, q=F(3), p=F(-3, 16))),
     DegenerateInput, "composite denominator vanishes"),
    # connection
    (lambda: KappaParams.from_strs(["1/4", "1/8", "1/8"]), DegenerateInput, "4 or 5 entries"),
    (lambda: ResidueVector(r_plus=(F(0),) * 3, r_minus=(F(0),) * 3, lam=1, degree=1),
     DegenerateInput, "four poles"),
    (lambda: elementary_transform_residues(RESIDUES, 5), DegenerateInput,
     "pole index must be 1..4"),
    (lambda: PQState(t=F(0), kappa=KAPPA, q=F(3), p=F(5)), DegenerateInput, "avoid 0 and 1"),
    (lambda: connection(F(1), F(1), F(0), F(-1)).a12_numerator(), DegenerateInput,
     "constant part in the \\(1,2\\) entry"),
    (lambda: connection(F(0), F(1), F(1), F(1)).a12_numerator(), DegenerateInput,
     "residue at infinity"),
    (lambda: connection(F(0), F(0), F(0), F(0)).apparent_singularity_base(), DegenerateInput,
     "vanishes identically"),
    # q = Q - k0/p = 0 when p = k0/Q
    (lambda: build_connection_qp(F(2), KAPPA, F(3), F(1, 16)).p_invariant(),
     NormalFormDegenerate, "p-invariant needs q away from the poles"),
    # higgs
    (lambda: higgs.HiggsLimit(kind=higgs.THETA_ZERO), DegenerateInput, "needs a representative"),
    (lambda: higgs.HiggsLimit(kind=higgs.GRADED, deg_l=1), DegenerateInput,
     "needs degree, contact and divisor"),
    (lambda: higgs.HiggsLimit(kind="other"), DegenerateInput, "unknown limit kind"),
    (lambda: higgs.v_alpha_stable(PPoint(base=F(3), sheet=Sheet.GENERIC),
                                  Weights.of_eps([F(1, 10)] * 4), POLES),
     SpecialWeights, "stable-zone weights required"),
    # O(1) at q = 3, p = 5 has the Higgs divisor (3,): no zero at infinity
    (lambda: higgs.theta_divisor(PQState(t=F(2), kappa=KAPPA, q=F(3), p=F(5)),
                                 Subbundle(1, (), frozenset({4}))),
     DegenerateInput, "fails to vanish at contact pole 4"),
    # lattice
    (lambda: lattice.DivClass((1, 2)), DegenerateInput, "integer vector of length 10"),
    (lambda: lattice.E(5, "+"), DegenerateInput, "needs i in 1..4"),
    (lambda: lattice.L_sigma("++"), DegenerateInput, "L_sigma needs a pattern"),
    (lambda: lattice.L_sigma("+++++"), DegenerateInput, "pattern of exactly four"),
    # parabolic
    (lambda: par.QuasiPar(poles=POLES[:3], u=(F(0),) * 3), DegenerateInput,
     "four poles and four parabolic coordinates"),
    (lambda: par.QuasiPar(poles=(F(0), F(1), F(1), INF), u=(F(0),) * 4), DegenerateInput,
     "pairwise distinct"),
    (lambda: par.AutElement(a=F(0), b=F(1), c=F(1)), DegenerateInput, "needs a != 0"),
    (lambda: par.q_map_parabolic(par.QuasiPar(poles=(F(0), F(1), F(3), F(2)),
                                              u=(F(1), F(2), F(5), F(7)))),
     DegenerateInput, "closed form assumes poles"),
    # the numerator and denominator of the closed form vanish together only
    # on four colinear directions, which are not simple
    (lambda: par.q_map_parabolic(par.QuasiPar(poles=POLES, u=(F(0), F(1), F(2), F(1)))),
     NotSimple, "simple structures only"),
    # two fibers force v = m0 + m1 x = 0, while w = x - 2 is the one solution
    (lambda: par.q_map(par.QuasiPar(poles=POLES, u=(INF, INF, F(5), F(7)))),
     DegenerateInput, "first component vanishes identically"),
    # mconv
    (lambda: mc_exponents(odd_degree_weights([F(1, 10)] * 4), "++++", [F(0)] * 3),
     DegenerateInput, "four twist exponents required"),
    # other modules
    (lambda: RationalSampler(1, bound=1), ValueError, "bound must be at least 2"),
    (lambda: RationalSampler(1).weights_in_zone("Z"), ValueError, "unknown zone"),
    # zone labels are looked up in stability.ZONE_CONTACT, not parsed
    *[(lambda label=label: RationalSampler(1).weights_in_zone(label), ValueError,
       f"unknown zone {label}$") for label in ("C", "Cat", "C99", "C21")],
    *[(lambda label=label: predicted_destabilizer_degree(label), DegenerateInput,
       f"no destabilizer prediction for zone {label}$")
      for label in ("C", "Cat", "C99", "C21", "Stable")],
    (lambda: czone(2, 2), DegenerateInput, "pair indices must be distinct"),
    (lambda: Subbundle(5, (), frozenset()).sections(), DegenerateInput,
     "unsupported subbundle degree"),
    (lambda: predicted_destabilizer_degree("Z"), DegenerateInput, "no destabilizer prediction"),
    (lambda: run_suite("nope"), ValueError, "unknown suite 'nope'"),
    (lambda: solve_linear([], []), DegenerateInput, "empty system"),
]


@pytest.mark.parametrize("call, error, message", RAISES, ids=[m for _, _, m in RAISES])
def test_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_apparent_singularity_base_at_infinity():
    # A(1,2) x(x-1)(x-t) = r1 (x-1)(x-t) + r2 x(x-t) + r3 x(x-1) is the
    # constant 2 for (r1, r2, r3) = (1, -2, 1) and t = 2
    assert is_inf(connection(F(0), F(1), F(-2), F(1)).apparent_singularity_base())


def test_representative_off_the_poles_with_the_first_pole_at_infinity():
    # the section (v, w) = (6 - 2x, 6 + 3x - x^2) through the frame (1, 2, 4)
    # over (0, 1, 2) vanishes at the base 3; over t_1 = inf the direction is
    # w2/v1 = m4/m1 = 1/2, in the <e, x*f> chart
    poles, point = (INF, F(0), F(1), F(2)), PPoint(base=F(3), sheet=Sheet.GENERIC)
    qp = higgs.representative(point, poles)
    assert qp.u == (F(1, 2), F(1), F(2), F(4)) and par.phi_map(qp) == point


def test_quotient_contact_of_a_theta_zero_limit():
    qp = par.QuasiPar(poles=POLES, u=(F(1), F(2), F(5), F(7)))
    assert higgs.HiggsLimit(kind=higgs.THETA_ZERO, qp=qp).quotient_contact is None


SIGMAS = ["".join(p) for p in product("+-", repeat=4)]
OFF_SIGMA = {"C0": lattice.C0, "F": lattice.F, "C1": lattice.C1, "Y": lattice.Y,
             "Y_RED": lattice.Y_RED,
             **{f"E{i}{s}": lattice.E(i, s) for i in range(1, 5) for s in "+-"},
             **{f"L({sigma})+F": lattice.L_sigma(sigma) + lattice.F for sigma in SIGMAS}}


@pytest.mark.parametrize("d", OFF_SIGMA.values(), ids=OFF_SIGMA)
def test_sigma_label_of_a_class_off_the_sigma_family(d):
    assert lattice.sigma_label(d) is None


@pytest.mark.parametrize("sigma", SIGMAS)
def test_sigma_label_inverts_l_sigma(sigma):
    assert lattice.sigma_label(lattice.L_sigma(sigma)) == sigma


@pytest.mark.parametrize("u", [
    (INF, F(2), F(5), F(7)), (F(1), INF, F(5), F(7)), (F(1), F(2), INF, F(7)),
    (F(1), F(2), F(5), INF),
])
def test_q_map_parabolic_with_one_infinite_direction_is_q_map(u):
    # two routes: the closed form's pole and the conic through the directions
    qp = par.QuasiPar(poles=POLES, u=u)
    assert par.q_map_parabolic(qp) == qp.poles[u.index(INF)] == par.q_map(qp)


def test_q_map_parabolic_at_infinity():
    # u1, u2, u3 on the line v = x (slope 1), u4 off it: Q = inf
    qp = par.QuasiPar(poles=POLES, u=(F(0), F(1), F(2), F(3)))
    assert is_inf(par.q_map_parabolic(qp)) and is_inf(par.q_map(qp))
