"""Named verification suites over seeded random samples.

Each suite returns a Report of Check records (name, passed, witness); a
failed check always carries the exact inputs of its first failing sample
and the values it compared.  Reports are deterministic functions of
(seed, samples, bound); each suite builds its Report first and draws from
its sampler; a Report rejects samples < 1, and its sampler bound < 2.

Every check is declared once, as a `*_identities` or `*_identity`
function of values already drawn that computes every value, then returns
its (name, passed, witness) records in report order.  The suites only
draw those values and record the declarations; the tests call the same
declarations on their own inputs.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from . import backlund as bk
from .connection import (PQState, apparent_singularity, build_connection, build_connection_qp,
                         eigen_table, elementary_transform_residues, finite_pole, kostov_generic,
                         nonresonant, pole_gap)
from .errors import ModuliError, NoFiniteIntersection, SamplerExhausted
from .exact import HALF, INF, Mat2, is_inf, over_common_denominator, to_json
from .higgs import GRADED, higgs_limit, sorted_divisor, v_alpha_stable, v_alpha_unstable
from .lattice import (C0, C1, F, L_sigma, Y, Y_RED, anticanonical_check,
                      enumerate_transversal, form_signature, intersect, sigma_label,
                      singular_fiber_decompositions)
from .mconv import defect, mc_exponents, odd_degree_weights, zone_interchange_check
from .parabolic import (QuasiPar, line_through, parabolic_from_connection,
                        parabolic_structures, phi_map, q_map, q_map_parabolic)
from .sampling import RationalSampler
from .stability import (ALL_ZONE_LABELS, Branch, Weights, ZONE_B, ZONE_CONTACT, ZONE_STABLE,
                        classify_zone, czone, et_pair, find_destabilizer, parabolic_degree,
                        predicted_destabilizer_degree, stable_subzone_branch)


class Check:
    def __init__(self, name: str, passed: bool, witness: Optional[dict] = None):
        self.name, self.passed, self.witness = name, passed, witness

    def to_json_dict(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = to_json(self.witness)
        return out


class Report:
    def __init__(self, suite: str, seed: int, samples: int, bound: int):
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        self.sampler = RationalSampler(seed, bound)
        self.suite, self.seed, self.samples, self.bound = suite, seed, samples, bound
        self.checks = []
        self._by_name = {}

    # the draws the suite's sampler rejected; settable, so a test can tamper with a report
    rejections = property(lambda self: self.sampler.rejections,
                          lambda self, count: setattr(self.sampler, "rejections", count))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, passed, witness: Optional[dict] = None) -> None:
        """Record one evaluation of the check `name`.  Names keep their
        first-seen order; a name passes only if every evaluation passed,
        and keeps the witness of its first failing evaluation."""
        passed = bool(passed)
        c = self._by_name.get(name)
        if c is None:
            c = self._by_name[name] = Check(name, passed, None if passed else witness)
            self.checks.append(c)
        elif c.passed and not passed:
            c.passed, c.witness = False, witness

    def record(self, records) -> None:
        """Record each (name, passed, witness) of a declaration, in order."""
        for name, passed, witness in records:
            self.check(name, passed, witness)

    def to_json_dict(self):
        return {"suite": self.suite, "seed": self.seed, "samples": self.samples,
                "bound": self.bound, "passed": self.passed,
                "rejections": self.rejections,
                "checks": [c.to_json_dict() for c in self.checks]}


def _draw(rs: RationalSampler, make):
    """`rs.retry` over `make`, a draw that computes every value of its
    sample; a ModuliError in those formulas counts as one rejection.  An
    exhausted inner sampler is not retried: it would only exhaust again."""
    def attempt():
        try:
            return make()
        except SamplerExhausted:
            raise
        except ModuliError:
            return None

    return rs.retry(attempt, lambda values: values is not None)


# ---------------------------------------------------------------------------
# Connection suite
# ---------------------------------------------------------------------------

def connection_identities(s: PQState) -> list:
    """The normal-form identities of both gauges at one state, as a list
    of (name, passed, witness) in report order.  Every value is computed
    before the list is returned; the formulas are field-generic."""
    k = s.kappa
    conn = build_connection(s)
    alt = build_connection_qp(s.t, k, bk.big_q_of(s), s.p)
    expected_dets = [-k.k1 ** 2 / 4, -k.k2 ** 2 / 4, -k.k3 ** 2 / 4]
    out = []
    for label, cn in (("pq", conn), ("alt", alt)):
        fin = cn.finite_residues()
        traces = [m.trace() for m in fin]
        out.append((f"{label}: trace A_i = 0 (i<=3)", traces == [0, 0, 0],
                    {"state": s, "traces": traces}))
        dets = [m.det() for m in fin]
        out.append((f"{label}: det A_i = -k_i^2/4 (i<=3)", dets == expected_dets,
                    {"state": s, "dets": dets}))
        base = cn.apparent_singularity_base()
        out.append((f"{label}: (1,2) entry vanishes exactly at q", base == s.q,
                    {"state": s, "zero": base}))
        recovered = cn.p_invariant()
        out.append((f"{label}: p recovered from A(2,2)|x=q", recovered == s.p,
                    {"state": s, "recovered": recovered}))

    # (q, p) gauge: residue at infinity and its eigenvalues
    residue = conn.infinity_residue()
    out.append(("pq: A4 equals the infinity residue of A(x)", conn.a4 == residue,
                {"state": s, "A4": conn.a4, "residue": residue}))
    det4 = conn.a4.det()
    out.append(("pq: det A4 = (1-k4^2)/4", det4 == (1 - k.k4 ** 2) / 4,
                {"state": s, "det": det4}))

    # alternate gauge: sum-zero shape
    ssum = alt.a1 + alt.a2 + alt.a3 + alt.a4
    out.append(("alt: A1 + A2 + A3 + A4 = 0", ssum == Mat2.zero(), {"state": s, "sum": ssum}))
    out.append(("alt: A4 lower triangular with diagonal {(1-k4)/2, (k4-1)/2}",
                alt.a4.a12 == 0 and {alt.a4.a11, alt.a4.a22} == {(1 - k.k4) / 2, (k.k4 - 1) / 2},
                {"state": s, "A4": alt.a4}))
    det4 = alt.a4.det()
    out.append(("alt: det A4 = -(1-k4)^2/4", det4 == -((1 - k.k4) ** 2) / 4,
                {"state": s, "det": det4}))

    # eigen table: A_i v = r v for all eight closed-form eigenvectors, each
    # v = (1, slope): A_i v is the first column plus slope times the second
    table = eigen_table(s)
    mats = (conn.a1, conn.a2, conn.a3, conn.a4)
    out.append(("eigenvector table satisfies A_i v = r v",
                all(one == 1 and (m.a11 + m.a12 * slope, m.a21 + m.a22 * slope)
                    == (lam, lam * slope)
                    for m, pairs in zip(mats, table) for lam, (one, slope) in pairs),
                {"state": s}))
    gaps = [table[i][0][0] - table[i][1][0] for i in range(4)]
    out.append(("eigenvalue gaps are k_i", gaps == [k.k1, k.k2, k.k3, k.k4],
                {"state": s, "gaps": gaps}))
    return out


def fibration_identities(s: PQState) -> list:
    """Q and Q' of the two induced parabolic structures, and the residues
    under elementary transformations."""
    k = s.kappa
    qp, qp_plus = parabolic_structures(s)
    big_q = q_map_parabolic(qp)
    conic = q_map(qp)
    q_plus = q_map(qp_plus)
    big_q_prime = bk.big_q_prime_of(s)
    out = [("Q of the induced parabolic equals q + k0/p", big_q == s.q + k.k0 / s.p,
            {"state": s, "Q": big_q}),
           ("conic route and closed form agree", conic == big_q,
            {"state": s, "conic": conic, "Q": big_q}),
           ("alternative structure computes Q'", q_plus == big_q_prime, {"state": s})]

    res = k.residues()
    out.append(("residues are Kostov-generic and non-resonant",
                kostov_generic(res) and nonresonant(res), {"state": s}))
    for i in (1, 2, 3, 4):
        tr = elementary_transform_residues(res, i)
        tr2 = elementary_transform_residues(tr, i)
        out.append((f"elementary transformation at pole {i} shifts residues",
                    tr.degree == res.degree - 1
                    and tr.r_plus[i - 1] == res.r_minus[i - 1]
                    and tr.r_minus[i - 1] == res.r_plus[i - 1] + res.lam
                    and tr2.r_plus[i - 1] == res.r_plus[i - 1] + res.lam
                    and tr2.r_minus[i - 1] == res.r_minus[i - 1] + res.lam,
                    {"state": s, "pole": i}))
    return out


def suite_connection(seed: int, samples: int, bound: int) -> Report:
    rep = Report(suite="connection", seed=seed, samples=samples, bound=bound)
    rs = rep.sampler

    def sample():
        s = rs.pq_state()
        return connection_identities(s) + fibration_identities(s)

    for _ in range(samples):
        rep.record(_draw(rs, sample))
    return rep


# ---------------------------------------------------------------------------
# Backlund suite
# ---------------------------------------------------------------------------

def backlund_identities(st: PQState) -> list:
    """The symmetry-group identities at one state, as a list of (name,
    passed, witness) in report order: the 30 group relations, the shift
    and Schlesinger words, the Okamoto involution s0 against the two
    fibrations, and the chart.  Every value is computed before the list
    is returned, so a degenerate state raises ModuliError and contributes
    nothing; the formulas are field-generic.  The words extend the prefix
    table of the relations, so each prefix is made once."""
    states = {}
    results = bk.check_relations(st, states)
    k = st.kappa
    closed = bk.schlesinger_composite_qp(st)
    bk.walk_prefixes((bk.WORD_SHIFT_12, bk.WORD_SHIFT_34, bk.WORD_SCHLESINGER, ("s0", "s0")),
                     states)
    shifted, shifted34, word = (states[w] for w in
                                (bk.WORD_SHIFT_12, bk.WORD_SHIFT_34, bk.WORD_SCHLESINGER))
    s0_image, s0s0 = states[("s0",)], states[("s0", "s0")]
    x, y = bk.al_chart(st)
    xs, ys = bk.al_chart(s0_image)
    sympl = bk.symplectic_check(st)
    slopes = _chart_slopes_hold(st)
    out = [(f"relation {name}", holds, {"state": st, "detail": detail})
           for name, holds, detail in results]
    out += [
        ("word [r12_34,s1,s2,s0,s3,s4,s0] shifts (k1,k2) by +1",
         shifted.kappa.all4 == (k.k1 + 1, k.k2 + 1, k.k3, k.k4),
         {"state": st, "kappa_out": shifted.kappa}),
        ("word [r12_34,s3,s4,s0,s1,s2,s0] shifts (k3,k4) by +1",
         shifted34.kappa.all4 == (k.k1, k.k2, k.k3 + 1, k.k4 + 1),
         {"state": st, "kappa_out": shifted34.kappa}),
        ("closed-form composite equals its generator word", closed == word,
         {"state": st, "closed": closed, "word": word}),
        ("composite sends (k1,k2) to (1-k1,1-k2)",
         closed.kappa.all4 == (1 - k.k1, 1 - k.k2, k.k3, k.k4),
         {"state": st, "kappa_out": closed.kappa}),
        ("s0 s0 = identity on full states", s0s0 == st, {"state": st, "s0s0": s0s0}),
        ("Q = q after s0", xs == y, {"state": st, "Q": y, "q_after": xs}),
        ("q = Q after s0", ys == x, {"state": st, "Q_after": ys}),
        ("symplectic identity k0 J/(x-y)^2 = -1", sympl, {"state": st}),
        ("s0 swaps the chart coordinates", (xs, ys) == (y, x),
         {"state": st, "chart": (x, y), "chart_after": (xs, ys)}),
        # blow-up slopes at the four diagonal points, by exact dual numbers
        ("chart slopes at the diagonal points", slopes, {"state": st}),
    ]
    return out


def transversality_identities(l1, l2, k0) -> list:
    """The fibers q = l1 and Q = q + k0/p = l2 meet at one finite point
    if l1 != l2, and only at infinity if l1 = l2."""
    witness = {"l1": l1, "l2": l2, "k0": k0}
    if l1 == l2:
        try:
            found = bk.transversality_solve(l1, l2, k0)
        except NoFiniteIntersection:
            found = None
        return [("equal fiber values meet only at infinity", found is None,
                 dict(witness, found=found))]
    q, p = bk.transversality_solve(l1, l2, k0)
    return [("fiber intersection solves uniquely with q = l1, Q = l2",
             q == l1 and q + k0 / p == l2, dict(witness, q=q, p=p))]


def suite_backlund(seed: int, samples: int, bound: int) -> Report:
    rep = Report(suite="backlund", seed=seed, samples=samples, bound=bound)
    rs = rep.sampler
    for _ in range(samples):
        rep.record(_draw(rs, lambda: backlund_identities(rs.pq_state())))
    for _ in range(samples):
        rep.record(transversality_identities(*rs.retry(
            lambda: (rs.rat(), rs.rat(), rs.rat(nonzero=True)), lambda v: v[0] != v[1])))
    lam = Fraction(3)
    rep.record(transversality_identities(lam, lam, Fraction(1, 4)))
    return rep


def _chart_slopes_hold(st: PQState) -> bool:
    """dy/dx at the four diagonal base points of the chart: 1 + k0/k_i at
    the finite poles t_i and k4/(k0+k4) at infinity, along the curves
    ptil = d_i k_i + c (q - t_i) through them, d_i = P'(t_i) (`finite_pole`).

    The chart is y = q + k0 P(q)/ptil, P = x(x-1)(x-t) = (x - t_i) P_i(x),
    P_i the product of the other two gaps.  On the dual point q = t_i + delta
    the factor x - t_i is delta itself, and delta times a dual keeps only
    its value: y = t_i + (1 + k0 P_i(t_i)/(d_i k_i)) delta, whatever the
    curve direction c.  At infinity the reciprocal chart is
    w ptil / (ptil + k0 (1 - w)(1 - t w)) on ptil = -k0 - k4 + c w, so at
    w = delta its slope is ptil(0) / (ptil(0) + k0)."""
    t, k = st.t, st.kappa
    for i, ki in zip((1, 2, 3), k.finite):
        ti, d = finite_pole(t, i)
        a, b = (pole_gap(ti, t, j) for j in (1, 2, 3) if j != i)
        if 1 + k.k0 * (a * b) / (d * ki) != 1 + k.k0 / ki:
            return False
    ptil = -k.k0 - k.k4
    return ptil / (ptil + k.k0) == (k.k0 + k.k4) / k.k4


# ---------------------------------------------------------------------------
# Lattice suite
# ---------------------------------------------------------------------------

def lattice_identities() -> list:
    """The 16 transversal fiber classes and the Picard-lattice relations."""
    found = enumerate_transversal(5)
    labels = [sigma_label(d) for d in found]
    sig = form_signature()
    value = intersect(C1 + F, Y_RED)  # the (a,b) = 0 candidate at n = 1
    out = [("exactly 16 transversal fiber classes", len(found) == 16, {"count": len(found)}),
           ("every class is C1 + F - sum E_i^sigma", None not in labels, {"labels": labels}),
           # unlabelled classes fail the record above; None does not sort with str
           ("the 16 sign patterns each occur once",
            len(labels) == 16 and sorted(lb for lb in labels if lb is not None)
            == sorted("".join(p) for p in product("+-", repeat=4)),
            {"labels": labels})]
    out += [("each class has L^2 = 0, L.F = 1, L.Y_red = 1",
             intersect(d, d) == 0 and intersect(d, F) == 1 and intersect(d, Y_RED) == 1,
             {"coefficients": d.coeffs}) for d in found]
    out += [("C1.C0 = 0", intersect(C1, C0) == 0, None),
            ("C1^2 = 2", intersect(C1, C1) == 2, None),
            ("F.L = 1 for the all-minus class", intersect(F, L_sigma("----")) == 1, None)]
    out += [(name, holds, None) for name, holds in singular_fiber_decompositions()]
    out += [("anticanonical class relations", anticanonical_check(), None),
            ("Y.Y = 0", intersect(Y, Y) == 0, None),
            ("intersection form has signature (1, 9)", sig == (1, 9, 0), {"signature": sig}),
            ("the contactless candidate fails Y_red = 1 (value 5)", value == 5,
             {"value": value})]
    return out


def suite_lattice(seed: int, samples: int, bound: int) -> Report:
    rep = Report(suite="lattice", seed=seed, samples=samples, bound=bound)
    rep.record(lattice_identities())
    return rep


# ---------------------------------------------------------------------------
# Zones suite (classification, et orbit, destabilizers vs oracle)
# ---------------------------------------------------------------------------

def _all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def oracle_destabilizer(qp: QuasiPar, w: Weights):
    """Brute-force stability oracle, independent of find_destabilizer.

    Enumerates all (degree, contact-set) pairs realizable by some line
    subbundle (realizability decided by exact rank conditions) and
    maximizes the nominal parabolic degree, scored on the integer
    numerators of the eps over one common denominator.  Returns
    (max_score, argmax_degree, argmax_contact).
    """
    inf_set = frozenset(i + 1 for i in range(4) if is_inf(qp.u[i]))
    entries = []
    for sub_s in _all_subsets(sorted(inf_set)):
        entries.append((1, frozenset(sub_s)))
    finite = [i for i in range(4) if (i + 1) not in inf_set]
    for sub_s in _all_subsets(finite):
        # two directions over distinct poles always lie on one line
        if len(sub_s) >= 3 and line_through(qp, list(sub_s)) is None:
            continue
        entries.append((0, frozenset(i + 1 for i in sub_s)))
    for sub_s in _all_subsets(range(4)):
        entries.append((-1, frozenset(i + 1 for i in sub_s)))
    # den * (deg + sum_{i in S} eps_i - sum_{i not in S} eps_i)
    nums, den = over_common_denominator(w.eps)
    total = sum(nums)
    best = None
    for deg, contact in entries:
        score = deg * den + 2 * sum(nums[i - 1] for i in contact) - total
        key = (score, deg, tuple(sorted(contact)))
        if best is None or key > best[0]:
            best = (key, deg, contact)
    (score, _, _), deg, contact = best
    return Fraction(score, den), deg, contact


def zone_label_identities(eps_samples) -> list:
    """Per nonspecial eps, at most one zone condition holds, and none
    exactly in the stable zone; then the labels seen over the sweep."""
    out, seen = [], set()
    for eps in eps_samples:
        z = classify_zone(Weights.of_eps(eps))
        seen.add(z)
        count = _zone_condition_count(eps)
        out.append(("every nonspecial sample gets exactly one zone label",
                    count <= 1 and (count == 0) == (z == ZONE_STABLE),
                    {"eps": eps, "zone": z, "conditions": count}))
    out.append(("zone labels form the 9-element set over the sweep",
                seen <= set(ALL_ZONE_LABELS) | {ZONE_STABLE}, {"seen": seen}))
    return out


def et_orbit_identities(w0: Weights) -> list:
    """The `et_pair` orbit of zone-A weights w0 visits 8 eps, one in each
    unstable zone, and `et_pair` is an involution."""
    orbit = {classify_zone(w0)}
    frontier = [w0]
    seen_eps = {w0.eps}
    while frontier:
        nxt = []
        for w in frontier:
            for i, j in combinations(range(1, 5), 2):
                w2 = et_pair(w, i, j)
                if w2.eps not in seen_eps:
                    seen_eps.add(w2.eps)
                    orbit.add(classify_zone(w2))
                    nxt.append(w2)
        frontier = nxt
    back = et_pair(et_pair(w0, 1, 3), 1, 3)
    return [("et-pair orbit of a zone-A sample covers all 8 unstable zones",
             orbit == set(ALL_ZONE_LABELS) and len(seen_eps) == 8,
             {"weights": w0, "orbit": orbit, "visited": len(seen_eps)}),
            ("et_pair is an involution on eps", back.eps == w0.eps,
             {"weights": w0, "back": back})]


def destabilizer_identities(zone: str, w: Weights, qp: QuasiPar) -> list:
    """On qp in general position, weights w in an unstable zone have a
    destabilizer of the zone's type, the brute-force oracle's maximizer."""
    sub = find_destabilizer(qp, w)
    score, deg, contact = oracle_destabilizer(qp, w)
    witness = {"weights": w, "parabolic": qp, "destabilizer": sub}
    return [(f"zone {zone}: destabilizer of the predicted type on all samples",
             sub is not None and sub.degree == predicted_destabilizer_degree(zone)
             and sub.contact == ZONE_CONTACT[zone], witness),
            (f"zone {zone}: verdict and maximizer match the brute-force oracle",
             sub is not None and score > HALF and score == parabolic_degree(sub, w)
             and deg == sub.degree and contact == sub.contact,
             dict(witness, oracle=(score, deg, contact)))]


def stable_destabilizer_identity(w: Weights, qp: QuasiPar) -> list:
    """`find_destabilizer` finds none exactly when the oracle's best
    score is below 1/2 (always, for stable w on qp in general position)."""
    sub = find_destabilizer(qp, w)
    score, _, _ = oracle_destabilizer(qp, w)
    return [("stable zone: generic samples stable and oracle agrees",
             (sub is None) == (score < HALF),
             {"weights": w, "parabolic": qp, "destabilizer": sub, "oracle_score": score})]


def mu_identity(w: Weights, w_mu: Weights, qp: QuasiPar) -> list:
    """Weights with the same eps get the same zone and destabilizer."""
    return [("zone label and destabilizer ignore mu",
             classify_zone(w) == classify_zone(w_mu)
             and find_destabilizer(qp, w) == find_destabilizer(qp, w_mu),
             {"weights": w_mu, "parabolic": qp})]


def suite_zones(seed: int, samples: int, bound: int) -> Report:
    rep = Report(suite="zones", seed=seed, samples=samples, bound=bound)
    rs = rep.sampler
    rep.record(zone_label_identities([rs.eps_nonspecial() for _ in range(samples)]))
    rep.record(et_orbit_identities(rs.weights_in_zone("A")))
    poles = (Fraction(0), Fraction(1), Fraction(3), INF)

    def structure():
        return QuasiPar(poles=poles, u=rs.general_position_u(poles))

    # each draw is a call's arguments, made left to right
    for zone in ALL_ZONE_LABELS:
        for _ in range(max(samples // 8, 3)):
            rep.record(destabilizer_identities(zone, rs.weights_in_zone(zone), structure()))
    for _ in range(max(samples // 4, 5)):
        rep.record(stable_destabilizer_identity(rs.weights_in_zone(ZONE_STABLE), structure()))
    w = rs.weights_in_zone("A")
    rep.record(mu_identity(w, Weights(mu=tuple(rs.rat() for _ in range(4)), eps=w.eps),
                           structure()))
    return rep


def _zone_condition_count(eps) -> int:
    total = sum(eps)
    count = 0
    if total < HALF:
        count += 1
    if total > Fraction(3, 2):
        count += 1
    for i, j in combinations(range(4), 2):
        if eps[i] + eps[j] - (total - eps[i] - eps[j]) > HALF:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Higgs suite
# ---------------------------------------------------------------------------

def zone_a_limit_identities(s: PQState, w: Weights) -> list:
    """At zone-A weights the scaling limit vanishes only at the apparent
    singularity q, and is the fibration composite."""
    lim = higgs_limit(s, w)
    composite = v_alpha_unstable(apparent_singularity(s), s.poles)
    witness = {"state": s, "weights": w, "limit": lim}
    return [("zone A: limit divisor is the apparent singularity",
             lim.kind == GRADED and lim.divisor == (s.q,) and lim.deg_l == 1, witness),
            ("zone A: limit equals the fibration composite", lim == composite, witness)]


def graded_limit_identity(zone: str, s: PQState, w: Weights) -> list:
    """In an unstable zone the scaling limit keeps a nonzero Higgs field."""
    lim = higgs_limit(s, w)
    return [(f"zone {zone}: the limit Higgs field never vanishes", lim.kind == GRADED,
             {"state": s, "weights": w, "limit": lim})]


def quotient_slope_identity(s: PQState, w: Weights) -> list:
    """A graded scaling limit is stable: E/L has slope below 1/2."""
    lim = higgs_limit(s, w)
    return [("graded limits: the invariant quotient has slope below 1/2",
             lim.kind == GRADED
             and 1 - lim.deg_l + sum(w.eps[i - 1] for i in lim.quotient_contact)
             - sum(w.eps[i - 1] for i in lim.contact) < HALF,
             {"state": s, "weights": w, "limit": lim})]


def colinear_limit_identity(s0: PQState, w: Weights) -> list:
    """p = -k0/q puts Q of s0 at the first pole with the other three
    directions colinear; on the colinear-unstable branch of the stable
    zone, the limit there carries the three forced zeros."""
    s = PQState(t=s0.t, kappa=s0.kappa, q=s0.q, p=-s0.kappa.k0 / s0.q)
    pt = phi_map(parabolic_from_connection(s))
    lim = higgs_limit(s, w)
    return [("stable zone: colinear-unstable limits carry the three forced zeros",
             pt.base == 0 and pt.sheet.value == "plus"
             and lim.kind == GRADED and lim.deg_l == 0
             and lim.contact == frozenset({2, 3, 4})
             and lim.divisor == sorted_divisor((1, s.t, INF))
             and lim == v_alpha_stable(pt, w, s.poles),
             {"state": s, "weights": w, "point": pt, "limit": lim})]


def stable_limit_identities(ws: Weights, s1: PQState, s2: PQState) -> list:
    """At stable weights ws the limit sees only the classifying point:
    s1 and s2 on one fiber of Q give the limit `v_alpha_stable` builds."""
    lim1 = higgs_limit(s1, ws)
    lim2 = higgs_limit(s2, ws)
    pt = phi_map(parabolic_from_connection(s1))
    point_limit = v_alpha_stable(pt, ws, s1.poles)
    return [("stable zone: limits agree for states with the same classifying point",
             lim1 == lim2, {"weights": ws, "states": (s1, s2), "limits": (lim1, lim2)}),
            ("stable zone: limit equals the point construction", lim1 == point_limit,
             {"weights": ws, "state": s1, "point": pt, "limit": lim1})]


def dictionary_identities(zones, s: PQState, composite_qs, weights) -> list:
    """The zone <-> fibration dictionary: in each pair or full-flip zone
    the limit vanishes at the contact poles and at the q of the zone's
    symmetry composite, {t_i, t_j, q o word} or {t_1, ..., t_4, q o word}."""
    limits = [higgs_limit(s, w) for w in weights]
    divisors = [sorted_divisor([s.poles[i - 1] for i in ZONE_CONTACT[zone]] + [composite_q])
                for zone, composite_q in zip(zones, composite_qs)]
    return [("pair/full-flip zones: limit free zero is the composite's q-coordinate",
             lim.divisor == divisor,
             {"state": s, "weights": w, "limit": lim, "composite_q": composite_q})
            for composite_q, w, lim, divisor in zip(composite_qs, weights, limits, divisors)]


def suite_higgs(seed: int, samples: int, bound: int) -> Report:
    rep = Report(suite="higgs", seed=seed, samples=samples, bound=bound)
    rs = rep.sampler

    # each draw is a call's arguments, made left to right: the state, then the weights
    for _ in range(samples):
        rep.record(zone_a_limit_identities(rs.pq_state(), rs.weights_in_zone("A")))
    for zone in ALL_ZONE_LABELS:
        for _ in range(max(samples // 8, 2)):
            rep.record(graded_limit_identity(zone, rs.pq_state(), rs.weights_in_zone(zone)))

    # stable zone: the limit only sees the classifying point, here the Q of s1
    for _ in range(max(samples // 2, 3)):
        ws = rs.weights_in_zone(ZONE_STABLE)
        s1 = rs.pq_state()
        big_q = bk.big_q_of(s1)
        q2 = rs.retry(lambda: rs.rat(),
                      lambda q: q not in (0, 1, s1.t, s1.q, big_q))
        p2 = bk.transversality_solve(q2, big_q, s1.kappa.k0)[1]
        rep.record(stable_limit_identities(ws, s1, PQState(t=s1.t, kappa=s1.kappa, q=q2, p=p2)))

    for _ in range(max(samples // 4, 3)):
        s0 = rs.pq_state()
        w = rs.retry(lambda: rs.weights_in_zone(ZONE_STABLE),
                     lambda wv: stable_subzone_branch(wv, 1) == Branch.COLINEAR_UNSTABLE)
        rep.record(colinear_limit_identity(s0, w))

    for zone in ("A", "B", czone(1, 2)):
        rep.record(quotient_slope_identity(rs.pq_state(), rs.weights_in_zone(zone)))

    # the zone <-> fibration dictionary, on three pair zones and zone B
    dictionary = [(czone(i, j), bk.pair_fibration_word(i, j)) for i, j in ((1, 2), (2, 3), (1, 4))]
    dictionary.append((ZONE_B, bk.full_flip_fibration_word()))
    zones = [zone for zone, _ in dictionary]

    def dictionary_sample():
        s = rs.pq_state()
        return s, [bk.apply_word(word, s).q for _, word in dictionary]

    for _ in range(max(samples // 8, 2)):
        s, composite_qs = _draw(rs, dictionary_sample)
        rep.record(dictionary_identities(zones, s, composite_qs,
                                         [rs.weights_in_zone(zone) for zone in zones]))
    return rep


# ---------------------------------------------------------------------------
# Middle-convolution suite
# ---------------------------------------------------------------------------

def mc_identities(e: Weights) -> list:
    """Okamoto's s0 as Katz's middle convolution sends odd-degree zone-A
    weights e into the stable zone, by sigma = ++++ (any twist) or +++-."""
    out = mc_exponents(e, sigma="++++")
    zone = classify_zone(out)
    total = sum(out.eps)
    wit = {"eps": e, "out": out}
    # z-independence of the zone
    z_alt = (Fraction(1, 3), Fraction(-2, 5), Fraction(4, 7),
             -(sum(e.mu) + sum(e.eps)) - Fraction(1, 3) + Fraction(2, 5) - Fraction(4, 7))
    out_alt = mc_exponents(e, z=z_alt)
    # the minus-at-last-pole choice: computed honestly; it lands stable
    out_bad = mc_exponents(e, sigma="+++-")
    zone_bad = classify_zone(out_bad)
    return [
        ("zone A, all-plus: sum eps' = 1 - sum eps", total == 1 - sum(e.eps), wit),
        ("zone A, all-plus: image lies in the stable zone", zone == ZONE_STABLE, wit),
        ("zone A, all-plus: 1/2 < sum eps' < 1", HALF < total < 1, wit),
        ("zone A, all-plus: pair combinations preserved",
         e.eps[0] + e.eps[1] - e.eps[2] - e.eps[3]
         == out.eps[0] + out.eps[1] - out.eps[2] - out.eps[3], wit),
        ("zone A, all-plus: all pair combinations below 1/2 in size",
         all(abs(out.eps[i] + out.eps[j] - (total - out.eps[i] - out.eps[j])) < HALF
             for i, j in combinations(range(4), 2)), wit),
        ("output eps' in (0,1/2), sum mu' odd-normalized", all(0 < ev < HALF for ev in out.eps),
         wit),
        ("zone of the image is twist-independent",
         classify_zone(out_alt) == zone and out_alt.eps == out.eps, dict(wit, out_alt=out_alt)),
        ("zone A, minus-at-4: computed image zone is Stable", zone_bad == ZONE_STABLE,
         {"eps": e, "out": out_bad, "zone": zone_bad}),
    ]


def interchange_identity(zone: str, e: Weights) -> list:
    """Some convolver choice moves unstable-zone weights e to the stable zone."""
    found = zone_interchange_check(e)
    return [(f"zone {zone}: some convolver choice reaches the stable zone",
             found["found_stable"], {"eps": e, "zones": found["zones"]})]


def defect_identity() -> list:
    """Katz's defect (n - 2) r - sum m is 0 for rank 2 on four points."""
    return [("defect (n-2)r - sum m vanishes for rank 2, four points",
             defect(2, 4, (1, 1, 1, 1)) == 0, None)]


def suite_mc(seed: int, samples: int, bound: int) -> Report:
    rep = Report(suite="mc", seed=seed, samples=samples, bound=bound)
    rs = rep.sampler
    for _ in range(samples):
        rep.record(mc_identities(odd_degree_weights(rs.weights_in_zone("A").eps)))
    for zone in ALL_ZONE_LABELS:
        for _ in range(max(samples // 8, 2)):
            rep.record(interchange_identity(zone, rs.weights_in_zone(zone)))
    rep.record(defect_identity())
    return rep


SUITES = {
    "connection": suite_connection,
    "backlund": suite_backlund,
    "lattice": suite_lattice,
    "zones": suite_zones,
    "higgs": suite_higgs,
    "mc": suite_mc,
}


def run_suite(name: str, seed: int = 1, samples: int = 50, bound: int = 64):
    if name == "all":
        return [fn(seed, samples, bound) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; options: all, {', '.join(SUITES)}")
    return [SUITES[name](seed, samples, bound)]
