"""Property tests at the entry points of the parabolic, stability and Higgs
layers, on inputs that sit on or near their degeneracy loci.

For any quasiparabolic structure, weights or state, `q_map`, `phi_map`,
`find_destabilizer`, `higgs_limit` and `theta_divisor` either give their
answer or raise a `ModuliError`; any other exception fails the test.  Inputs reach heights
of 2^64 and hit the loci on purpose: directions u_i = inf, three (or four)
colinear directions, a coordinate q at or next to a pole, p = 0 and weights
on a wall.
Where an answer exists it is also checked: the canonical representative of
a classifying point classifies back to that point, a destabilizer has
parabolic degree above 1/2, every degree -1 candidate is saturated, a
zero-Higgs-field limit keeps the classifying point of the structure it
came from, and a Higgs divisor has 3 - 2 deg(L) points.

`apply_word` either gives a state whose exponents keep 2*k0 + k1 + ... +
k4 = 1 and match the generator-by-generator oracle `K_ACTION`, or raises a
`ModuliError`.  The generators do not re-check that relation; it is proved
in tests/test_certificates.py, and this is the sampled net behind it.

`verify.connection_identities` either passes every normal-form identity
of both gauges or raises a `ModuliError`, on states whose exponents are
not integers (so that most of them build) with q at or next to a pole,
p = 0 and k0 = 0 among them.  Past the suites' height 64,
`verify.zone_label_identities` passes on nonspecial eps next to the walls,
`verify.mc_identities` on odd-degree zone-A weights, and
`verify.destabilizer_identities` on zone-A eps moved by `et_pair` into
each unstable zone, over structures in general position.

`mc_exponents` and `zone_interchange_check` either answer or raise a
`ModuliError` on eps on or next to the twelve walls of (0, 1/2)^4 (a
signed sum of the eps at a half-integer), with random and malformed
sigma and twists z that meet or break the product constraint.  Every eps'
of an answer lies in (0, 1/2), and the interchange report gives each of
the sixteen sigma one zone label, the one `mc_exponents` reaches with it.

Facts the package relies on without re-checking them at run time: a
simple structure with u_i = inf has Q = t_i, the answer of
`q_map_parabolic`, which `q_map` finds through the conic; a
structure that `phi_map` puts on a plus sheet has its other three
directions on one line; `mc_exponents` gives odd degree, sum(mu') =
-1/2 mod 1, for every nonspecial input and sigma; every unstable-zone
weight is nonspecial; and the sampler's zone label never raises on eps in
(0, 1/2).

The middle convolution is Okamoto's s0 on the signed exponents: for
nonspecial eps and any sigma, the eps' of `mc_exponents` are the
fractional parts of s0(2 sigma_1 eps_1, ..., 2 sigma_4 eps_4), halved, up
to the parity flip eps' -> 1/2 - eps' at the first pole.
"""
from fractions import Fraction as F
from itertools import product

from hypothesis import assume, example, given, settings, strategies as st

from pvi_moduli.backlund import ALPHABET, apply_generator, apply_word
from pvi_moduli.connection import KappaParams, PPoint, PQState, Sheet
from pvi_moduli.errors import ModuliError, NotSimple
from pvi_moduli.exact import HALF, INF, is_inf, over_common_denominator
from pvi_moduli.mconv import mc_exponents, odd_degree_weights, sigma_text, zone_interchange_check
from pvi_moduli.higgs import (THETA_ZERO, GradedLimit, ThetaZeroLimit, higgs_limit,
                              representative, sorted_divisor, theta_divisor)
from pvi_moduli.parabolic import (QuasiPar, Subbundle, in_general_position, is_simple,
                                  line_through, parabolic_from_connection, parabolic_structures,
                                  phi_map, q_map, q_map_parabolic)
from pvi_moduli.sampling import _zone_of
from pvi_moduli.stability import (ALL_ZONE_LABELS, ZONE_CONTACT, ZONE_STABLE, Weights,
                                  classify_zone, et_pair, find_destabilizer, nonspecial_numerators,
                                  parabolic_degree)
from pvi_moduli.verify import (connection_identities, destabilizer_identities, mc_identities,
                               zone_label_identities)
from records import failed
from shared import H, candidate_subbundles, tall, tiny
from test_kernel_oracles import K_ACTION  # the generators' action on kappa

rationals = st.one_of(tiny, tall)


def outcome(f, *args):
    """f(*args), or the ModuliError it raises; any other exception propagates."""
    try:
        return f(*args)
    except ModuliError as exc:
        return exc


@st.composite
def structures(draw):
    """Four distinct poles, possibly one at infinity in any slot, with the
    directions first put on a line and then partly moved off it (so three
    or four may stay colinear), and 0-4 of them at u = inf."""
    poles = draw(st.one_of(
        st.builds(lambda t: [F(0), F(1), t, INF], rationals.filter(lambda t: t not in (0, 1))),
        st.lists(rationals, min_size=4, max_size=4, unique=True)))
    if not any(is_inf(tv) for tv in poles) and draw(st.booleans()):
        poles[draw(st.integers(0, 3))] = INF
    v0, v1 = draw(rationals), draw(rationals)
    u = [v1 if is_inf(tv) else v0 + v1 * tv for tv in poles]
    for i in draw(st.sets(st.integers(0, 3), max_size=3)):
        u[i] = draw(st.one_of(st.integers(-3, 3).map(F), rationals))
    for i in draw(st.sets(st.integers(0, 3), max_size=4)):
        u[i] = INF
    return QuasiPar(poles=tuple(poles), u=tuple(u))


@st.composite
def weights(draw):
    """mu anywhere; eps in (0, 1/2), in twelfths often enough to land on walls."""
    def eps():
        den = draw(st.one_of(st.just(12), st.integers(2, H)))
        return F(draw(st.integers(1, den - 1)), 2 * den)
    return Weights(mu=tuple(draw(rationals) for _ in range(4)), eps=tuple(eps() for _ in range(4)))


@st.composite
def states(draw):
    """(t, kappa, q, p) with q often at a pole 0, 1, t or inf and p often 0."""
    t = draw(rationals)
    assume(t not in (0, 1))
    q = draw(st.one_of(rationals, st.sampled_from([F(0), F(1), t, INF])))
    p = draw(st.one_of(rationals, st.just(F(0))))
    return PQState(t=t, kappa=KappaParams.from_k1234(*(draw(rationals) for _ in range(4))),
                   q=q, p=p)


@given(structures())
def test_q_map_gives_a_point_or_a_moduli_error(qp):
    out = outcome(q_map, qp)
    assert isinstance(out, (ModuliError, F)) or is_inf(out)


@st.composite
def structures_with_one_infinite_direction(draw):
    """Poles (0, 1, t, inf) and u_i = inf in one slot i, the other three
    directions often on one line (not simple); returns (structure, i)."""
    poles = (F(0), F(1), draw(rationals.filter(lambda t: t not in (0, 1))), INF)
    if draw(st.booleans()):
        v0, v1 = draw(rationals), draw(rationals)
        u = [v1 if is_inf(tv) else v0 + v1 * tv for tv in poles]
    else:
        u = [draw(rationals) for _ in poles]
    i = draw(st.integers(0, 3))
    u[i] = INF
    return QuasiPar(poles=poles, u=tuple(u)), i


@given(structures_with_one_infinite_direction())
def test_q_map_parabolic_with_one_infinite_direction_is_its_pole(case):
    qp, i = case
    if not is_simple(qp):
        assert isinstance(outcome(q_map_parabolic, qp), NotSimple)
        return
    assert q_map_parabolic(qp) == qp.poles[i] == q_map(qp)


@given(structures())
def test_phi_map_is_inverted_by_the_canonical_representative(qp):
    point = outcome(phi_map, qp)
    if isinstance(point, ModuliError):
        return
    assert isinstance(point, PPoint)
    assert phi_map(representative(point, qp.poles)) == point


@given(structures())
@example(QuasiPar(poles=(F(0), F(1), F(2), INF), u=(F(5), F(1), F(2), F(1))))
def test_phi_map_plus_sheet_comes_with_three_colinear_directions(qp):
    # the only other way onto a pole than u_i = inf (the minus sheet)
    point = outcome(phi_map, qp)
    if isinstance(point, ModuliError) or point.sheet != Sheet.PLUS:
        return
    others = [j for j in range(4) if qp.poles[j] != point.base]
    assert len(others) == 3 and not any(is_inf(qp.u[j]) for j in others)
    assert line_through(qp, others) is not None


@given(structures(), weights())
def test_find_destabilizer_gives_a_destabilizer_or_a_moduli_error(qp, w):
    sub = outcome(find_destabilizer, qp, w)
    if sub is None or isinstance(sub, ModuliError):
        return
    assert isinstance(sub, Subbundle)
    assert parabolic_degree(sub, w) > HALF


@given(structures())
def test_degree_minus_one_candidates_are_saturated(qp):
    """v and w share no zero on P^1, infinity included: the resultant of
    v and w as binary forms of degrees 1 and 2 does not vanish."""
    for sub in candidate_subbundles(qp):
        if sub.degree == -1:
            v0, v1, w0, w1, w2 = sub.coefficients
            assert w0 * v1 * v1 - w1 * v0 * v1 + w2 * v0 * v0 != 0


@given(states(), weights())
def test_higgs_limit_gives_a_limit_or_a_moduli_error(s, w):
    limit = outcome(higgs_limit, s, w)
    if isinstance(limit, ModuliError):
        return
    assert isinstance(limit, (ThetaZeroLimit, GradedLimit))
    if limit.kind == THETA_ZERO:
        assert phi_map(limit.qp) == phi_map(parabolic_from_connection(s))


@st.composite
def states_near_a_pole(draw):
    """(t, kappa, q, p) with q within 1/n of 0, 1 or t, at height n (next
    to infinity) or at a pole, for n up to 2^64, and p sometimes 0.  The
    kappa are mostly not integers, so that most states are not special."""
    t = draw(rationals)
    assume(t not in (0, 1))
    near = st.builds(lambda pole, n, sign: pole + F(sign, n), st.sampled_from([F(0), F(1), t]),
                     st.integers(1, H), st.sampled_from([1, -1]))
    q = draw(st.one_of(near, st.integers(-H, H).map(F), st.sampled_from([F(0), F(1), t])))
    p = draw(st.one_of(rationals, st.just(F(0))))
    k = st.one_of(st.builds(F, st.integers(-48, 48), st.sampled_from([3, 5, 8])),
                  st.builds(F, st.integers(-H, H), st.integers(2, H)), rationals)
    return PQState(t=t, kappa=KappaParams.from_k1234(*(draw(k) for _ in range(4))), q=q, p=p)


@given(states_near_a_pole())
def test_theta_divisor_gives_a_divisor_or_a_moduli_error(s):
    structures = outcome(parabolic_structures, s)
    if isinstance(structures, ModuliError):
        return
    for qp in structures:
        for sub in candidate_subbundles(qp):
            div = outcome(theta_divisor, s, sub)
            if isinstance(div, ModuliError):
                continue
            assert all(is_inf(z) or isinstance(z, F) for z in div)
            assert div == sorted_divisor(div) and len(div) == 3 - 2 * sub.degree


@st.composite
def word_states(draw):
    """(t, kappa, q, p) with q at, or within 1/n of, 0, 1 or t for n up to
    2^64 (or at infinity), p sometimes 0 and k0 sometimes 0."""
    t = draw(rationals)
    assume(t not in (0, 1))
    poles = st.sampled_from([F(0), F(1), t])
    near = st.builds(lambda pole, n, sign: pole + F(sign, n), poles, st.integers(1, H),
                     st.sampled_from([1, -1]))
    q = draw(st.one_of(rationals, poles, near, st.just(INF)))
    p = draw(st.one_of(rationals, st.just(F(0))))
    k = [draw(rationals) for _ in range(3)]
    k.append(draw(st.one_of(rationals, st.just(1 - sum(k)))))  # the second puts k0 = 0
    return PQState(t=t, kappa=KappaParams.from_k1234(*k), q=q, p=p)


@given(st.lists(st.sampled_from(ALPHABET), max_size=8), word_states())
def test_apply_word_keeps_the_kappa_relation_or_raises_a_moduli_error(word, s):
    out = outcome(apply_word, word, s)
    if isinstance(out, ModuliError):
        return
    k = out.kappa
    assert 2 * k.k0 + k.k1 + k.k2 + k.k3 + k.k4 == 1
    expected = s.kappa
    for g in word:
        expected = KappaParams.from_k1234(*K_ACTION[g](expected.all4, expected.k0))
    assert k == expected


@st.composite
def connection_states(draw):
    """(t, kappa, q, p) with q at, or within 1/n of, 0, 1 or t for n up to
    2^64 (or at infinity), p sometimes 0, k0 sometimes 0 and k1..k3 never
    integers."""
    t = draw(rationals)
    assume(t not in (0, 1))
    poles = st.sampled_from([F(0), F(1), t])
    near = st.builds(lambda pole, n, sign: pole + F(sign, n), poles, st.integers(1, H),
                     st.sampled_from([1, -1]))
    q = draw(st.one_of(rationals, poles, near, st.just(INF)))
    p = draw(st.one_of(rationals, st.just(F(0))))
    fractional = st.one_of(st.builds(F, st.integers(-48, 48), st.sampled_from([3, 5, 8])),
                           st.builds(F, st.integers(-H, H), st.integers(2, H)),
                           ).filter(lambda k: k.denominator != 1)
    k = [draw(fractional) for _ in range(3)]
    k.append(draw(st.one_of(fractional, st.just(1 - sum(k)))))  # the second puts k0 = 0
    return PQState(t=t, kappa=KappaParams.from_k1234(*k), q=q, p=p)


@given(connection_states())
def test_connection_identities_hold_or_raise_a_moduli_error(s):
    out = outcome(connection_identities, s)
    if isinstance(out, ModuliError):
        return
    assert failed(out) == []


# the sign vectors of the signed sums, up to an overall sign, and the
# half-integers such a sum of four eps in (0, 1/2) can reach
SIGNS = [signs for signs in product((1, -1), repeat=4) if signs[0] == 1]
HALF_INTEGERS = (F(1, 2), F(-1, 2), F(3, 2), F(-3, 2))


def _frac(x):
    return x - (x.numerator // x.denominator)


@st.composite
def exponent_data(draw):
    """Weights whose eps lie in (0, 1/2), with heights up to 2^64, often
    on or within 1/n (n up to 2^64) of a wall; now and then one eps is
    pushed off (0, 1/2) or the mu break the odd degree sum(mu) = -1/2 mod 1
    that `mc_exponents` requires."""
    def eps():
        den = draw(st.one_of(st.just(12), st.integers(2, H)))
        return F(draw(st.integers(1, den - 1)), 2 * den)
    e = [eps() for _ in range(4)]
    if draw(st.integers(0, 3)):
        # solve a wall's equation for eps_k, where it has a root in (0, 1/2)
        signs, k = draw(st.sampled_from(SIGNS)), draw(st.integers(0, 3))
        rest = sum(s * x for j, (s, x) in enumerate(zip(signs, e)) if j != k)
        for h in HALF_INTEGERS:
            if 0 < signs[k] * (h - rest) < HALF:
                e[k] = signs[k] * (h - rest) + draw(st.one_of(
                    st.just(F(0)), st.builds(lambda n, sign: F(sign, n),
                                             st.integers(1, H), st.sampled_from([1, -1]))))
    if not draw(st.integers(0, 15)):
        e[draw(st.integers(0, 3))] = draw(st.sampled_from([F(0), HALF, F(-1, 4), F(3, 4)]))
    mu = [draw(rationals) for _ in range(3)]
    broken = draw(rationals) if not draw(st.integers(0, 15)) else F(draw(st.integers(-2, 2)))
    mu.append(-HALF - sum(mu) + broken)
    return outcome(Weights, tuple(mu), tuple(e))


sigmas = st.one_of(st.text("+-", min_size=4, max_size=4), st.text("+-0x ", max_size=6))


@settings(deadline=None)
@given(exponent_data(), sigmas, st.data())
def test_mc_exponents_give_exponents_or_a_moduli_error(e, sigma, data):
    assume(not isinstance(e, ModuliError))
    z = None
    if data.draw(st.booleans()):
        z = [data.draw(rationals) for _ in range(data.draw(st.sampled_from([3, 4, 4, 4, 5])))]
        if len(z) == 4 and len(sigma) == 4 and set(sigma) <= set("+-") and data.draw(st.booleans()):
            # meet the product constraint sum(z) = -sum(chosen exponents) mod 1
            chosen = sum(m + (1 if c == "+" else -1) * x for m, c, x in zip(e.mu, sigma, e.eps))
            z[3] = -chosen - sum(z[:3]) + data.draw(st.integers(-2, 2))
    out = outcome(mc_exponents, e, sigma, z)
    if isinstance(out, ModuliError):
        return
    assert all(0 < x < HALF for x in out.eps)
    report = outcome(zone_interchange_check, e)
    zone = outcome(classify_zone, out)
    if not isinstance(report, ModuliError) and not isinstance(zone, ModuliError):
        assert report["zones"][sigma] == zone


@settings(deadline=None)
@given(exponent_data())
def test_mc_exponents_keep_odd_degree_for_every_sigma(e):
    # no parity check inside `mc_exponents`: sum(mu') = -1/2 mod 1 and
    # 0 < eps' < 1/2 (the `Weights` constructor) hold on every nonspecial input
    if (isinstance(e, ModuliError) or not nonspecial_numerators(*e.cleared)
            or _frac(sum(e.mu)) != HALF):
        return
    for signs in product("+-", repeat=4):
        out = mc_exponents(e, "".join(signs))
        assert _frac(sum(out.mu)) == HALF
        assert all(0 < x < HALF for x in out.eps)


@settings(deadline=None)
@given(exponent_data())
def test_every_unstable_zone_weight_is_nonspecial(e):
    # what lets `zone_interchange_check` convolve without a nonspecial check
    if isinstance(e, ModuliError):
        return
    if outcome(classify_zone, e) in ALL_ZONE_LABELS:
        assert nonspecial_numerators(*e.cleared)


@settings(deadline=None)
@given(exponent_data())
def test_sampler_zone_label_never_raises_in_the_open_cube(e):
    if isinstance(e, ModuliError):
        return
    label = _zone_of(*e.cleared)
    assert label in (None, ZONE_STABLE, *ALL_ZONE_LABELS)
    assert (label is None) == (not nonspecial_numerators(*e.cleared))


@settings(deadline=None)
@given(exponent_data())
def test_zone_interchange_check_gives_a_zone_per_sigma_or_a_moduli_error(e):
    assume(not isinstance(e, ModuliError))
    report = outcome(zone_interchange_check, e)
    if isinstance(report, ModuliError):
        return
    every = ["".join(signs) for signs in product("+-", repeat=4)]
    assert sorted(report["zones"]) == sorted(every)
    assert set(report["zones"].values()) <= {ZONE_STABLE, *ALL_ZONE_LABELS}
    assert report["stable_sigmas"] == [sg for sg in every if report["zones"][sg] == ZONE_STABLE]
    assert report["found_stable"] == bool(report["stable_sigmas"])


@settings(deadline=None)
@given(st.lists(exponent_data(), min_size=1, max_size=4))
def test_zone_label_identities_hold_at_any_height(data):
    eps_samples = [e.eps for e in data if not isinstance(e, ModuliError)
                   and nonspecial_numerators(*e.cleared)]
    assume(eps_samples)
    assert failed(zone_label_identities(eps_samples)) == []


# eps_i = a_i / (2 (a_1 + ... + a_4 + b)), a_i, b >= 1: the open zone-A simplex, heights <= 2^64
zone_a_eps = st.builds(lambda a, b: tuple(F(x, 2 * (sum(a) + b)) for x in a),
                       st.lists(st.integers(1, H // 16), min_size=4, max_size=4),
                       st.integers(1, H // 4))


@settings(deadline=None)
@given(zone_a_eps)
def test_mc_identities_hold_at_any_height(eps):
    assert failed(mc_identities(odd_degree_weights(eps))) == []


@settings(deadline=None)
@given(zone_a_eps, st.tuples(*[rationals] * 4))
def test_destabilizer_identities_hold_at_any_height(eps, u):
    # directions over the zones suite's poles, no three on one line
    qp = QuasiPar(poles=(F(0), F(1), F(3), INF), u=u)
    assume(in_general_position(qp))
    for zone, contact in ZONE_CONTACT.items():
        # zone A -> the zone of contact S: et_pair at (i, j) = S, or at (1, 2) and (3, 4)
        w, poles = Weights.of_eps(eps), sorted(contact)
        for k in range(0, len(poles), 2):
            w = et_pair(w, *poles[k:k + 2])
        assert failed(destabilizer_identities(zone, w, qp)) == []


@st.composite
def small_eps(draw):
    den = draw(st.integers(3, 240))
    return F(draw(st.integers(1, (den - 1) // 2)), den)


@settings(deadline=None)
@given(st.lists(small_eps(), min_size=4, max_size=4),
       st.sampled_from(list(product((1, -1), repeat=4))))
@example([F(1, 10), F(1, 12), F(1, 14), F(1, 16)], (1, 1, 1, 1))  # no flip
@example([F(5, 19), F(3, 10), F(2, 7), F(1, 6)], (1, 1, 1, 1))    # flipped at pole 1
def test_middle_convolution_is_okamoto_s0_on_the_signed_exponents(eps, sigma):
    # kappa_sigma = (2 sigma_i eps_i) has k0 = 1/2 - sum sigma_j eps_j, and
    # s0 sends k_i to k_i + k0 = -y_i; eps'_i is the representative of -y_i
    # in (0, 1) halved, up to the parity flip eps' -> 1/2 - eps' at pole 1
    assume(nonspecial_numerators(*over_common_denominator(eps)))
    state = PQState(t=F(2), kappa=KappaParams.from_k1234(*(2 * s * e for s, e in zip(sigma, eps))),
                    q=F(3), p=F(1))
    s0 = apply_generator("s0", state).kappa.all4
    expected = [_frac(k) / 2 for k in s0]
    out = mc_exponents(odd_degree_weights(eps), sigma_text(sigma))
    assert list(out.eps[1:]) == expected[1:]
    assert out.eps[0] in (expected[0], HALF - expected[0])
