"""Named verification suites over seeded random samples.

Each suite returns a list of Check records (name, passed, witness); a
failed check always carries the exact inputs and both sides of the
identity it tested.  Reports are deterministic functions of
(seed, samples, bound).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from . import backlund as bk
from .connection import (PQState, apparent_singularity, build_connection, build_connection_qp,
                         eigen_table, elementary_transform_residues, kostov_generic, nonresonant)
from .errors import NoFiniteIntersection
from .exact import INF, Dual, Mat2, is_inf, rat_to_str
from .higgs import GRADED, higgs_limit, v_alpha_stable, v_alpha_unstable
from .lattice import (C0, F, L_sigma, Y, Y_RED, anticanonical_check,
                      enumerate_transversal, form_signature, intersect, sigma_label,
                      singular_fiber_decompositions)
from .mconv import mc_exponents, zone_interchange_check
from .parabolic import (QuasiPar, line_through, parabolic_from_connection,
                        parabolic_from_connection_plus, phi_map, q_map, q_map_parabolic)
from .sampling import ALL_ZONE_LABELS, RationalSampler
from .stability import (Branch, Weights, ZONE_STABLE, classify_zone, czone, et_pair,
                        find_destabilizer, parabolic_degree, predicted_destabilizer_degree,
                        stable_subzone_branch)

HALF = Fraction(1, 2)


@dataclass
class Check:
    name: str
    passed: bool
    witness: Optional[dict] = None

    def to_json_dict(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    suite: str
    seed: int
    samples: int
    bound: int
    checks: list = field(default_factory=list)
    rejections: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self):
        return {"suite": self.suite, "seed": self.seed, "samples": self.samples,
                "bound": self.bound, "passed": self.passed,
                "rejections": self.rejections,
                "checks": [c.to_json_dict() for c in self.checks]}


def _check(checks, name, passed, witness=None):
    checks.append(Check(name=name, passed=bool(passed),
                        witness=None if passed else witness))


# ---------------------------------------------------------------------------
# Connection suite
# ---------------------------------------------------------------------------

def _mat_json(m: Mat2):
    return m.to_strs()


def suite_connection(seed: int, samples: int, bound: int) -> Report:
    rs = RationalSampler(seed, bound)
    checks = []
    for _ in range(samples):
        s = rs.pq_state()
        k = s.kappa
        witness_state = s.to_json_dict()
        conn = build_connection(s)
        alt = build_connection_qp(s.t, k, bk.big_q_of(s), s.p)

        for label, cn in (("pq", conn), ("alt", alt)):
            fin = cn.finite_residues()
            _check(checks, f"{label}: trace A_i = 0 (i<=3)",
                   all(m.trace() == 0 for m in fin),
                   {"state": witness_state, "traces": [rat_to_str(m.trace()) for m in fin]})
            want = [-k.k1 ** 2 / 4, -k.k2 ** 2 / 4, -k.k3 ** 2 / 4]
            _check(checks, f"{label}: det A_i = -k_i^2/4 (i<=3)",
                   [m.det() for m in fin] == want,
                   {"state": witness_state, "dets": [rat_to_str(m.det()) for m in fin]})
            base = cn.apparent_singularity_base()
            _check(checks, f"{label}: (1,2) entry vanishes exactly at q",
                   base == s.q, {"state": witness_state, "zero": rat_to_str(base)})
            _check(checks, f"{label}: p recovered from A(2,2)|x=q",
                   cn.p_invariant() == s.p,
                   {"state": witness_state, "recovered": rat_to_str(cn.p_invariant())})

        # (q, p) gauge: residue at infinity and its eigenvalues
        _check(checks, "pq: A4 equals the infinity residue of A(x)",
               conn.a4 == conn.infinity_residue(),
               {"state": witness_state, "A4": _mat_json(conn.a4),
                "residue": _mat_json(conn.infinity_residue())})
        _check(checks, "pq: det A4 = (1-k4^2)/4",
               conn.a4.det() == (1 - k.k4 ** 2) / 4,
               {"state": witness_state, "det": rat_to_str(conn.a4.det())})

        # alternate gauge: sum-zero shape
        ssum = alt.a1 + alt.a2 + alt.a3 + alt.a4
        _check(checks, "alt: A1 + A2 + A3 + A4 = 0", ssum == Mat2.zero(),
               {"state": witness_state, "sum": _mat_json(ssum)})
        _check(checks, "alt: A4 lower triangular with diagonal {(1-k4)/2, (k4-1)/2}",
               alt.a4.a12 == 0 and {alt.a4.a11, alt.a4.a22} == {(1 - k.k4) / 2, (k.k4 - 1) / 2},
               {"state": witness_state, "A4": _mat_json(alt.a4)})
        _check(checks, "alt: det A4 = -(1-k4)^2/4",
               alt.a4.det() == -((1 - k.k4) ** 2) / 4,
               {"state": witness_state, "det": rat_to_str(alt.a4.det())})

        # eigen table: A_i v = r v for all eight closed-form eigenvectors
        table = eigen_table(s)
        mats = (conn.a1, conn.a2, conn.a3, conn.a4)
        ok = True
        for i in range(4):
            for (lam, vec) in table[i]:
                got = mats[i].matvec(vec)
                if got != (lam * vec[0], lam * vec[1]):
                    ok = False
        _check(checks, "eigenvector table satisfies A_i v = r v", ok,
               {"state": witness_state})
        gaps = [table[i][0][0] - table[i][1][0] for i in range(4)]
        _check(checks, "eigenvalue gaps are k_i",
               gaps == [k.k1, k.k2, k.k3, k.k4],
               {"state": witness_state, "gaps": [rat_to_str(g) for g in gaps]})

        # fibration identities
        qp = parabolic_from_connection(s)
        big_q = q_map_parabolic(qp)
        _check(checks, "Q of the induced parabolic equals q + k0/p",
               big_q == s.q + k.k0 / s.p,
               {"state": witness_state, "Q": rat_to_str(big_q)})
        _check(checks, "conic route and closed form agree",
               q_map(qp) == big_q, {"state": witness_state})
        qp_plus = parabolic_from_connection_plus(s)
        _check(checks, "alternative structure computes Q'",
               q_map(qp_plus) == bk.big_q_prime_of(s),
               {"state": witness_state})

        # residue bookkeeping
        res = k.residues()
        _check(checks, "residues are Kostov-generic and non-resonant",
               kostov_generic(res) and nonresonant(res), {"state": witness_state})
        for i in (1, 2, 3, 4):
            tr = elementary_transform_residues(res, i)
            tr2 = elementary_transform_residues(tr, i)
            ok = (tr.degree == res.degree - 1
                  and tr.r_plus[i - 1] == res.r_minus[i - 1]
                  and tr.r_minus[i - 1] == res.r_plus[i - 1] + res.lam
                  and tr2.r_plus[i - 1] == res.r_plus[i - 1] + res.lam
                  and tr2.r_minus[i - 1] == res.r_minus[i - 1] + res.lam)
            _check(checks, f"elementary transformation at pole {i} shifts residues",
                   ok, {"state": witness_state, "pole": i})
    rep = Report(suite="connection", seed=seed, samples=samples, bound=bound,
                 checks=_dedup(checks), rejections=rs.rejections)
    return rep


def _dedup(checks):
    """Collapse repeated per-sample checks to one line per name (all must pass)."""
    order = []
    by_name = {}
    for c in checks:
        if c.name not in by_name:
            order.append(c.name)
            by_name[c.name] = c
        elif not c.passed and by_name[c.name].passed:
            by_name[c.name] = c
    return [by_name[n] for n in order]


# ---------------------------------------------------------------------------
# Backlund suite
# ---------------------------------------------------------------------------

def suite_backlund(seed: int, samples: int, bound: int) -> Report:
    rs = RationalSampler(seed, bound)
    checks = []
    done = 0
    while done < samples:
        st = rs.pq_state()
        try:
            results = bk.check_relations(st)
            k = st.kappa
            shifted = bk.apply_word(bk.WORD_SHIFT_12, st)
            shifted34 = bk.apply_word(bk.WORD_SHIFT_34, st)
            closed = bk.schlesinger_composite_qp(st)
            word = bk.apply_word(bk.WORD_SCHLESINGER, st)
            s0s0 = bk.apply_word(("s0", "s0"), st)
            qq = bk.big_q_of(st)
            q_after_s0 = bk.q_of(bk.apply_generator("s0", st))
            q_back = bk.big_q_of(bk.apply_generator("s0", st))
            sympl = bk.symplectic_check(st)
            x, y = bk.al_chart(st)
            xs, ys = bk.al_chart(bk.apply_generator("s0", st))
        except Exception:
            rs.rejections += 1
            continue
        witness = st.to_json_dict()
        for name, holds, wit in results:
            _check(checks, f"relation {name}", holds, {"state": witness, "detail": wit})
        _check(checks, "word [r12_34,s1,s2,s0,s3,s4,s0] shifts (k1,k2) by +1",
               shifted.kappa.all4 == (k.k1 + 1, k.k2 + 1, k.k3, k.k4),
               {"state": witness, "kappa_out": shifted.kappa.to_strs()})
        _check(checks, "word [r12_34,s3,s4,s0,s1,s2,s0] shifts (k3,k4) by +1",
               shifted34.kappa.all4 == (k.k1, k.k2, k.k3 + 1, k.k4 + 1),
               {"state": witness, "kappa_out": shifted34.kappa.to_strs()})
        _check(checks, "closed-form composite equals its generator word",
               closed == word,
               {"state": witness, "closed": closed.to_json_dict(), "word": word.to_json_dict()})
        _check(checks, "composite sends (k1,k2) to (1-k1,1-k2)",
               closed.kappa.all4 == (1 - k.k1, 1 - k.k2, k.k3, k.k4),
               {"state": witness, "kappa_out": closed.kappa.to_strs()})
        _check(checks, "s0 s0 = identity on full states", s0s0 == st, {"state": witness})
        _check(checks, "Q = q after s0", q_after_s0 == qq, {"state": witness})
        _check(checks, "q = Q after s0", q_back == st.q, {"state": witness})
        _check(checks, "symplectic identity k0 J/(x-y)^2 = -1", sympl, {"state": witness})
        _check(checks, "s0 swaps the chart coordinates", (xs, ys) == (y, x), {"state": witness})
        # blow-up slopes at the four diagonal points, by exact dual numbers
        slope_ok = _slope_identities(st)
        _check(checks, "chart slopes at the diagonal points", slope_ok, {"state": witness})
        done += 1

    # transversality
    n_pairs = 0
    while n_pairs < samples:
        l1, l2 = rs.rat(), rs.rat()
        k0 = rs.rat(nonzero=True)
        if l1 == l2:
            rs.rejections += 1
            continue
        q, p = bk.transversality_solve(l1, l2, k0)
        ok = (q == l1) and (q + k0 / p == l2)
        _check(checks, "fiber intersection solves uniquely with q = l1, Q = l2",
               ok, {"l1": rat_to_str(l1), "l2": rat_to_str(l2), "k0": rat_to_str(k0)})
        n_pairs += 1
    try:
        bk.transversality_solve(Fraction(3), Fraction(3), Fraction(1, 4))
        _check(checks, "equal fiber values meet only at infinity", False, {})
    except NoFiniteIntersection:
        _check(checks, "equal fiber values meet only at infinity", True)
    return Report(suite="backlund", seed=seed, samples=samples, bound=bound,
                  checks=_dedup(checks), rejections=rs.rejections)


def _slope_identities(st: PQState) -> bool:
    """dy/dx at the four diagonal base points of the chart: 1 + k0/k_i at
    the finite poles and k4/(k0+k4) at infinity, computed with duals."""
    t, k = st.t, st.kappa
    poles = (Fraction(0), Fraction(1), t)
    pts = (t * k.k1, (1 - t) * k.k2, t * (t - 1) * k.k3)
    c = Fraction(5, 7)  # arbitrary curve direction; the slope must not see it
    for pole, ptil_plus, ki in zip(poles, pts, (k.k1, k.k2, k.k3)):
        qd = Dual.var(pole)
        ptil = Dual.const(ptil_plus) + Dual(Fraction(0), Fraction(1)) * c  # ptil_plus + c (q - pole)
        y = qd + k.k0 * qd * (qd - 1) * (qd - t) / ptil
        if y.val != pole or y.der != 1 + k.k0 / ki:
            return False
    # pole at infinity, in the reciprocal chart
    wd = Dual.var(Fraction(0))
    ptil_inf = Dual.const(-k.k0 - k.k4) + wd * c
    y_inv = wd * ptil_inf / (ptil_inf + k.k0 * (1 - wd) * (1 - t * wd))
    return y_inv.val == 0 and y_inv.der == (k.k0 + k.k4) / k.k4


# ---------------------------------------------------------------------------
# Lattice suite
# ---------------------------------------------------------------------------

def suite_lattice(seed: int, samples: int, bound: int) -> Report:
    checks = []
    found = enumerate_transversal(5)
    _check(checks, "exactly 16 transversal fiber classes", len(found) == 16,
           {"count": len(found)})
    labels = [sigma_label(d) for d in found]
    _check(checks, "every class is C1 + F - sum E_i^sigma", None not in labels,
           {"labels": labels})
    _check(checks, "the 16 sign patterns each occur once",
           sorted(labels) == sorted("".join(p) for p in product("+-", repeat=4)),
           {"labels": labels})
    _check(checks, "each class has L^2 = 0, L.F = 1, L.Y_red = 1",
           all(intersect(d, d) == 0 and intersect(d, F) == 1 and intersect(d, Y_RED) == 1
               for d in found), {})
    _check(checks, "C1.C0 = 0", intersect(C0 + 2 * F, C0) == 0, {})
    _check(checks, "C1^2 = 2", intersect(C0 + 2 * F, C0 + 2 * F) == 2, {})
    _check(checks, "F.L = 1 for the all-minus class",
           intersect(F, L_sigma("----")) == 1, {})
    for name, holds in singular_fiber_decompositions():
        _check(checks, name, holds, {})
    _check(checks, "anticanonical class relations", anticanonical_check(), {})
    _check(checks, "Y.Y = 0", intersect(Y, Y) == 0, {})
    sig = form_signature()
    _check(checks, "intersection form has signature (1, 9)", sig == (1, 9, 0),
           {"signature": sig})
    base_with_n0 = C0 + 2 * F + F  # the (a,b) = 0 candidate at n = 1
    _check(checks, "the contactless candidate fails Y_red = 1 (value 5)",
           intersect(base_with_n0, Y_RED) == 5,
           {"value": intersect(base_with_n0, Y_RED)})
    return Report(suite="lattice", seed=seed, samples=samples, bound=bound, checks=checks)


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
    maximizes the nominal parabolic degree.  Returns
    (max_score, argmax_degree, argmax_contact).
    """
    inf_set = frozenset(i + 1 for i in range(4) if is_inf(qp.u[i]))
    entries = []
    for sub_s in _all_subsets(sorted(inf_set)):
        entries.append((1, frozenset(sub_s)))
    finite = [i for i in range(4) if (i + 1) not in inf_set]
    for sub_s in _all_subsets(finite):
        if len(sub_s) >= 2 and line_through(qp, list(sub_s)) is None:
            continue
        entries.append((0, frozenset(i + 1 for i in sub_s)))
    for sub_s in _all_subsets(range(4)):
        entries.append((-1, frozenset(i + 1 for i in sub_s)))
    best = None
    for deg, contact in entries:
        score = deg + sum(w.eps[i - 1] for i in contact) \
            - sum(w.eps[i - 1] for i in range(1, 5) if i not in contact)
        key = (score, deg, tuple(sorted(contact)))
        if best is None or key > best[0]:
            best = (key, deg, contact)
    (score, _, _), deg, contact = best
    return score, deg, contact


def suite_zones(seed: int, samples: int, bound: int) -> Report:
    rs = RationalSampler(seed, bound)
    checks = []

    # classification partitions nonspecial weights
    labels_seen = set()
    all_single = True
    for _ in range(samples):
        eps = rs.eps_nonspecial()
        w = Weights.of_eps(eps)
        z = classify_zone(w)
        labels_seen.add(z)
        count = _zone_condition_count(eps)
        if count > 1 or (count == 0) != (z == ZONE_STABLE):
            all_single = False
    _check(checks, "every nonspecial sample gets exactly one zone label", all_single, {})
    _check(checks, "zone labels form the 9-element set over the sweep",
           labels_seen <= set(ALL_ZONE_LABELS) | {ZONE_STABLE}, {"seen": sorted(labels_seen)})

    # et-pair orbit from zone A covers the eight unstable zones
    w0 = rs.weights_in_zone("A")
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
    _check(checks, "et-pair orbit of a zone-A sample covers all 8 unstable zones",
           orbit == set(ALL_ZONE_LABELS), {"orbit": sorted(orbit)})
    _check(checks, "et_pair is an involution on eps",
           et_pair(et_pair(w0, 1, 3), 1, 3).eps == w0.eps, {})

    # destabilizers per zone + oracle agreement
    poles = (Fraction(0), Fraction(1), Fraction(3), INF)
    for zone in ALL_ZONE_LABELS:
        ok_type = True
        ok_oracle = True
        for _ in range(max(samples // 8, 3)):
            w = rs.weights_in_zone(zone)
            u = rs.simple_u(poles)
            qp = QuasiPar(poles=poles, u=u)
            sub = find_destabilizer(qp, w)
            if sub is None:
                ok_type = False
                continue
            if sub.degree != predicted_destabilizer_degree(zone):
                ok_type = False
            if zone.startswith("C"):
                need = {int(zone[1]), int(zone[2])}
                if not need <= set(sub.contact):
                    ok_type = False
            score, deg, contact = oracle_destabilizer(qp, w)
            if not (score > HALF and score == parabolic_degree(sub, w)
                    and deg == sub.degree and contact == sub.contact):
                ok_oracle = False
        _check(checks, f"zone {zone}: destabilizer of the predicted type on all samples",
               ok_type, {"zone": zone})
        _check(checks, f"zone {zone}: verdict and maximizer match the brute-force oracle",
               ok_oracle, {"zone": zone})

    # stable zone: generic structures stable, oracle agrees
    ok_stable = True
    for _ in range(max(samples // 4, 5)):
        w = rs.weights_in_zone(ZONE_STABLE)
        u = rs.simple_u(poles)
        qp = QuasiPar(poles=poles, u=u)
        sub = find_destabilizer(qp, w)
        score, _, _ = oracle_destabilizer(qp, w)
        if (sub is None) != (score < HALF):
            ok_stable = False
    _check(checks, "stable zone: generic samples stable and oracle agrees", ok_stable, {})

    # mu never matters
    w = rs.weights_in_zone("A")
    w_mu = Weights(mu=tuple(rs.rat() for _ in range(4)), eps=w.eps)
    u = rs.simple_u(poles)
    qp = QuasiPar(poles=poles, u=u)
    _check(checks, "zone label and destabilizer ignore mu",
           classify_zone(w) == classify_zone(w_mu)
           and find_destabilizer(qp, w) == find_destabilizer(qp, w_mu), {})
    return Report(suite="zones", seed=seed, samples=samples, bound=bound,
                  checks=checks, rejections=rs.rejections)


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

def suite_higgs(seed: int, samples: int, bound: int) -> Report:
    rs = RationalSampler(seed, bound)
    checks = []

    for _ in range(samples):
        s = rs.pq_state()
        wa = rs.weights_in_zone("A")
        lim = higgs_limit(s, wa)
        point = apparent_singularity(s)
        _check(checks, "zone A: limit divisor is the apparent singularity",
               lim.kind == GRADED and lim.divisor == (s.q,) and lim.deg_l == 1,
               {"state": s.to_json_dict(), "limit": lim.to_json_dict()})
        _check(checks, "zone A: limit equals the fibration composite",
               lim == v_alpha_unstable(point, s.poles),
               {"state": s.to_json_dict()})

    # unstable zones never give a vanishing Higgs field
    for zone in ALL_ZONE_LABELS:
        ok = True
        for _ in range(max(samples // 8, 2)):
            s = rs.pq_state()
            w = rs.weights_in_zone(zone)
            lim = higgs_limit(s, w)
            if lim.kind != GRADED:
                ok = False
        _check(checks, f"zone {zone}: the limit Higgs field never vanishes", ok, {"zone": zone})

    # stable zone: the limit only sees the classifying point
    ok_dep = True
    ok_valpha = True
    for _ in range(max(samples // 2, 3)):
        ws = rs.weights_in_zone(ZONE_STABLE)
        s1 = rs.pq_state()
        k0 = s1.kappa.k0
        big_q = s1.q + k0 / s1.p
        q2 = rs.retry(lambda: rs.rat(),
                      lambda q: q not in (0, 1, s1.t, s1.q, big_q))
        s2 = PQState(t=s1.t, kappa=s1.kappa, q=q2, p=k0 / (big_q - q2))
        lim1 = higgs_limit(s1, ws)
        lim2 = higgs_limit(s2, ws)
        if lim1 != lim2:
            ok_dep = False
        pt = phi_map(parabolic_from_connection(s1))
        if lim1 != v_alpha_stable(pt, ws, s1.poles):
            ok_valpha = False
    _check(checks, "stable zone: limits agree for states with the same classifying point",
           ok_dep, {})
    _check(checks, "stable zone: limit equals the point construction", ok_valpha, {})

    # stable zone, colinear-unstable branch reached from a connection:
    # p = -k0/q puts Q at the first pole with the other three directions colinear
    ok_colinear = True
    tried = 0
    while tried < max(samples // 4, 3):
        s0 = rs.pq_state()
        k0 = s0.kappa.k0
        if s0.q == 0 or -k0 / s0.q == 0:
            rs.rejections += 1
            continue
        s = PQState(t=s0.t, kappa=s0.kappa, q=s0.q, p=-k0 / s0.q)
        w = rs.retry(lambda: rs.weights_in_zone(ZONE_STABLE),
                     lambda wv: stable_subzone_branch(wv, 1) == Branch.COLINEAR_UNSTABLE)
        qp = parabolic_from_connection(s)
        pt = phi_map(qp)
        if not (pt.base == 0 and pt.sheet.value == "plus"):
            ok_colinear = False
            tried += 1
            continue
        lim = higgs_limit(s, w)
        want_div = tuple(sorted((Fraction(1), s.t, INF), key=lambda z: (1, Fraction(0)) if is_inf(z) else (0, z)))
        if not (lim.kind == GRADED and lim.deg_l == 0
                and lim.contact == frozenset({2, 3, 4}) and lim.divisor == want_div):
            ok_colinear = False
        if lim != v_alpha_stable(pt, w, s.poles):
            ok_colinear = False
        tried += 1
    _check(checks, "stable zone: colinear-unstable limits carry the three forced zeros",
           ok_colinear, {})

    # graded limits are stable: the invariant subbundle E/L has slope < 1/2
    ok_slope = True
    for zone in ("A", "B", czone(1, 2)):
        s = rs.pq_state()
        w = rs.weights_in_zone(zone)
        lim = higgs_limit(s, w)
        if lim.kind != GRADED:
            ok_slope = False
            continue
        quot_deg = 1 - lim.deg_l
        score = quot_deg + sum(w.eps[i - 1] for i in lim.quotient_contact) \
            - sum(w.eps[i - 1] for i in lim.contact)
        if not score < HALF:
            ok_slope = False
    _check(checks, "graded limits: the invariant quotient has slope below 1/2", ok_slope, {})

    # the zone <-> fibration dictionary: the free zero of the limiting
    # Higgs field is the q-coordinate of the matching symmetry composite
    ok_dict = True
    for _ in range(max(samples // 8, 2)):
        s = rs.pq_state()
        pole_vals = (Fraction(0), Fraction(1), s.t)
        for i, j in ((1, 2), (2, 3), (1, 4)):
            lim = higgs_limit(s, rs.weights_in_zone(czone(i, j)))
            free = [z for z in lim.divisor if z not in pole_vals and not is_inf(z)]
            if free != [bk.apply_word(bk.pair_fibration_word(i, j), s).q]:
                ok_dict = False
        lim_b = higgs_limit(s, rs.weights_in_zone("B"))
        free_b = [z for z in lim_b.divisor if z not in pole_vals and not is_inf(z)]
        if free_b != [bk.apply_word(bk.full_flip_fibration_word(), s).q]:
            ok_dict = False
    _check(checks, "pair/full-flip zones: limit free zero is the composite's q-coordinate",
           ok_dict, {})
    return Report(suite="higgs", seed=seed, samples=samples, bound=bound,
                  checks=_dedup(checks), rejections=rs.rejections)


# ---------------------------------------------------------------------------
# Middle-convolution suite
# ---------------------------------------------------------------------------

def suite_mc(seed: int, samples: int, bound: int) -> Report:
    rs = RationalSampler(seed, bound)
    checks = []
    for _ in range(samples):
        e = rs.exponent_data_in_zone("A")
        out = mc_exponents(e, sigma="++++")
        wit = {"eps": e.to_json_dict(), "out": out.to_json_dict()}
        _check(checks, "zone A, all-plus: sum eps' = 1 - sum eps",
               sum(out.eps) == 1 - sum(e.eps), wit)
        _check(checks, "zone A, all-plus: image lies in the stable zone",
               out.zone() == ZONE_STABLE, wit)
        _check(checks, "zone A, all-plus: 1/2 < sum eps' < 1",
               HALF < sum(out.eps) < 1, wit)
        combo_in = e.eps[0] + e.eps[1] - e.eps[2] - e.eps[3]
        combo_out = out.eps[0] + out.eps[1] - out.eps[2] - out.eps[3]
        _check(checks, "zone A, all-plus: pair combinations preserved",
               combo_in == combo_out, wit)
        _check(checks, "zone A, all-plus: all pair combinations below 1/2 in size",
               all(abs(out.eps[i] + out.eps[j] - (sum(out.eps) - out.eps[i] - out.eps[j])) < HALF
                   for i, j in combinations(range(4), 2)), wit)
        _check(checks, "output eps' in (0,1/2), sum mu' odd-normalized",
               all(0 < ev < HALF for ev in out.eps), wit)
        # z-independence of the zone
        from .mconv import BetaChoice, _mod1
        z_alt = (Fraction(1, 3), Fraction(-2, 5), Fraction(4, 7),
                 _mod1(-(sum(e.mu) + sum(e.eps)) - Fraction(1, 3) + Fraction(2, 5) - Fraction(4, 7)))
        out_alt = mc_exponents(e, choice=BetaChoice(sigma=(1, 1, 1, 1), z=z_alt))
        _check(checks, "zone of the image is twist-independent",
               out_alt.zone() == out.zone() and out_alt.eps == out.eps, wit)
        # the minus-at-last-pole choice: computed honestly; it lands stable
        out_bad = mc_exponents(e, sigma="+++-")
        _check(checks, "zone A, minus-at-4: computed image zone is Stable",
               out_bad.zone() == ZONE_STABLE,
               {"eps": e.to_json_dict(), "out": out_bad.to_json_dict(),
                "zone": out_bad.zone()})

    for zone in ALL_ZONE_LABELS:
        oks = True
        for _ in range(max(samples // 8, 2)):
            e = rs.exponent_data_in_zone(zone)
            rep = zone_interchange_check(e)
            if not rep["found_stable"]:
                oks = False
        _check(checks, f"zone {zone}: some convolver choice reaches the stable zone",
               oks, {"zone": zone})

    _check(checks, "defect (n-2)r - sum m vanishes for rank 2, four points",
           all(Fraction((4 - 2) * 2 - m1 - m2 - m3 - m4) == 0
               for m1, m2, m3, m4 in [(1, 1, 1, 1)]), {})
    return Report(suite="mc", seed=seed, samples=samples, bound=bound,
                  checks=_dedup(checks), rejections=rs.rejections)


SUITES = {
    "connection": suite_connection,
    "backlund": suite_backlund,
    "lattice": suite_lattice,
    "zones": suite_zones,
    "higgs": suite_higgs,
    "mc": suite_mc,
}


def run_suite(name: str, seed: int = 1, samples: int = 50, bound: int = 64):
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if name == "all":
        return [fn(seed, samples, bound) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; options: all, {', '.join(SUITES)}")
    return [SUITES[name](seed, samples, bound)]
