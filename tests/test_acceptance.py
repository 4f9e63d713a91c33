"""Acceptance gate: every check is exact (zero tolerance).

One test per criterion; each prints a [PASS]/[FAIL] line.  Run with
`pytest tests/test_acceptance.py -v` (add -s to see the lines live).

Two checks marked *as stated* encode source claims that exact computation
refutes; they are intentionally kept in their original form and fail.
The verified corrected behavior is asserted in the main criterion tests,
and both discrepancies are spelled out in comments at the failing tests.
"""
from fractions import Fraction as F
from itertools import combinations, product

from pvi_moduli import backlund as bk
from pvi_moduli.connection import (PQState, apparent_singularity, build_connection,
                                   build_connection_qp, eigen_table)
from pvi_moduli.errors import NoFiniteIntersection, SpecialWeights
from pvi_moduli.exact import INF, Mat2
from pvi_moduli.higgs import GRADED, THETA_ZERO, higgs_limit, v_alpha_stable, v_alpha_unstable
from pvi_moduli.lattice import (C0, F as FIB, F_prime, Y, Y_RED, anticanonical_check,
                                enumerate_transversal, intersect, sigma_label,
                                singular_fiber_decompositions)
from pvi_moduli.mconv import ExponentData, mc_exponents, zone_interchange_check
from pvi_moduli.parabolic import QuasiPar, parabolic_from_connection, phi_map, q_map_parabolic
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import (ALL_ZONE_LABELS, Weights, ZONE_STABLE, classify_zone, et_pair,
                                  find_destabilizer, parabolic_degree,
                                  predicted_destabilizer_degree)
from pvi_moduli.verify import oracle_destabilizer

HALF = F(1, 2)
N_STATES = 100
N_BACKLUND = 50
N_ZONES = 1000
N_MC = 200


def _report(num, text, failures):
    tag = "PASS" if not failures else "FAIL"
    print(f"[{tag}] criterion {num}: {text}")
    assert not failures, f"criterion {num}: {len(failures)} failures, first: {failures[0]}"


def _states(seed, count):
    rs = RationalSampler(seed=seed, bound=64)
    return [rs.pq_state() for _ in range(count)], rs


def test_criterion_01_connection_normal_form():
    states, _ = _states(1, N_STATES)
    failures = []
    for s in states:
        k = s.kappa
        conn = build_connection(s)
        alt = build_connection_qp(s.t, k, s.q + k.k0 / s.p, s.p)
        for label, cn in (("pq", conn), ("alt", alt)):
            if not all(m.trace() == 0 for m in cn.finite_residues()):
                failures.append((label, "trace", s.to_json_dict()))
            if [m.det() for m in cn.finite_residues()] != \
                    [-k.k1 ** 2 / 4, -k.k2 ** 2 / 4, -k.k3 ** 2 / 4]:
                failures.append((label, "det", s.to_json_dict()))
            if cn.apparent_singularity_base() != s.q:
                failures.append((label, "a12 zero", s.to_json_dict()))
            if cn.p_invariant() != s.p:
                failures.append((label, "p from A(2,2)|x=q", s.to_json_dict()))
        # the matrix at infinity: sum-zero and the stated diagonal in the
        # alternate gauge (in the basis order <x f, e> its diagonal reads
        # ((1-k4)/2, (k4-1)/2) literally; det is -(1-k4)^2/4, not -k4^2/4)
        if alt.a1 + alt.a2 + alt.a3 + alt.a4 != Mat2.zero():
            failures.append(("alt", "sum zero", s.to_json_dict()))
        if alt.a4.a12 != 0 or {alt.a4.a11, alt.a4.a22} != {(1 - k.k4) / 2, (k.k4 - 1) / 2}:
            failures.append(("alt", "A4 diagonal", s.to_json_dict()))
        if alt.a4.det() != -((1 - k.k4) ** 2) / 4:
            failures.append(("alt", "A4 det", s.to_json_dict()))
        # (q, p) gauge: A4 is the residue at infinity; det (1-k4^2)/4
        if conn.a4 != conn.infinity_residue():
            failures.append(("pq", "A4 infinity residue", s.to_json_dict()))
        if conn.a4.det() != (1 - k.k4 ** 2) / 4:
            failures.append(("pq", "A4 det", s.to_json_dict()))
    _report(1, f"normal form invariants on {N_STATES} states", failures)


def test_criterion_02_eigen_structure():
    states, _ = _states(1, N_STATES)
    failures = []
    for s in states:
        conn = build_connection(s)
        mats = (conn.a1, conn.a2, conn.a3, conn.a4)
        table = eigen_table(s)
        for i in range(4):
            for lam, vec in table[i]:
                if mats[i].matvec(vec) != (lam * vec[0], lam * vec[1]):
                    failures.append((i + 1, s.to_json_dict()))
        gaps = [table[i][0][0] - table[i][1][0] for i in range(4)]
        if gaps != list(s.kappa.all4):
            failures.append(("gaps", s.to_json_dict()))
    _report(2, f"all eight eigenvector identities on {N_STATES} states", failures)


def test_criterion_03_fibration_identity():
    states, _ = _states(1, N_STATES)
    failures = []
    for s in states:
        k = s.kappa
        qp = parabolic_from_connection(s)
        if q_map_parabolic(qp) != s.q + k.k0 / s.p:
            failures.append(("Q formula", s.to_json_dict()))
        sym = bk.SymState(t=s.t, kappa=k, q=s.q, p=s.p)
        if bk.q_of(bk.apply_generator("s0", sym)) != bk.big_q_of(sym):
            failures.append(("Q = q o s0", s.to_json_dict()))
        if bk.big_q_of(bk.apply_generator("s0", sym)) != bk.q_of(sym):
            failures.append(("q = Q o s0", s.to_json_dict()))
    _report(3, f"parabolic coordinate is q + k0/p and factors through the involution "
               f"({N_STATES} states)", failures)


def _sym_states(seed, count):
    rs = RationalSampler(seed=seed, bound=64)
    out = []
    while len(out) < count:
        s = rs.pq_state()
        out.append(bk.SymState(t=s.t, kappa=s.kappa, q=s.q, p=s.p))
    return out, rs


def test_criterion_04_backlund_relations_and_composites():
    syms, _ = _sym_states(4, N_BACKLUND)
    failures = []
    for st in syms:
        try:
            rels = bk.check_relations(st)
        except Exception:
            continue
        for name, holds, witness in rels:
            if not holds:
                failures.append((name, witness))
        k = st.kappa
        if bk.apply_word(bk.WORD_SHIFT_12, st).kappa.all4 != (k.k1 + 1, k.k2 + 1, k.k3, k.k4):
            failures.append(("shift12", st.to_json_dict()))
        if bk.apply_word(bk.WORD_SHIFT_34, st).kappa.all4 != (k.k1, k.k2, k.k3 + 1, k.k4 + 1):
            failures.append(("shift34", st.to_json_dict()))
        closed = bk.schlesinger_composite_qp(st)
        if closed != bk.apply_word(bk.WORD_SCHLESINGER, st):
            failures.append(("closed form vs word", st.to_json_dict()))
        if closed.kappa.all4 != (1 - k.k1, 1 - k.k2, k.k3, k.k4):
            failures.append(("composite kappa action", st.to_json_dict()))
    _report(4, f"group relations and integer-shift composites on {N_BACKLUND} states",
            failures)


def test_criterion_04b_composite_word_as_printed():
    # As stated, the word r12_34 s3 s4 s0 s1 s2 s0 should shift kappa by
    # (+1, +1, 0, 0).  Exact computation gives (0, 0, +1, +1) under the
    # left-to-right convention (and (0, 0, -1, -1) right-to-left; no
    # reading yields the stated shift -- the s1 s2 and s3 s4 blocks are
    # interchanged in the printed word).  The corrected word is asserted
    # in criterion 4; this check keeps the original claim and fails.
    syms, _ = _sym_states(4, 1)
    st = syms[0]
    k = st.kappa
    out = bk.apply_word(("r12_34", "s3", "s4", "s0", "s1", "s2", "s0"), st)
    shift = tuple(str(a - b) for a, b in zip(out.kappa.all4, k.all4))
    print(f"[FAIL] criterion 4 (as stated): printed word gives kappa shift "
          f"({', '.join(shift)}), not (1, 1, 0, 0)")
    assert out.kappa.all4 == (k.k1 + 1, k.k2 + 1, k.k3, k.k4), \
        f"printed composite shifts (k3, k4), got {out.kappa.to_strs()}"


def test_criterion_05_transversality():
    rs = RationalSampler(seed=5, bound=64)
    failures = []
    done = 0
    while done < N_BACKLUND:
        l1, l2, k0 = rs.rat(), rs.rat(), rs.rat(nonzero=True)
        if l1 == l2:
            continue
        q, p = bk.transversality_solve(l1, l2, k0)
        # the system {q = l1, q + k0/p = l2} is linear in (q, 1/p):
        # the returned solution is forced, hence unique
        if not (q == l1 and q + k0 / p == l2 and p == k0 / (l2 - l1)):
            failures.append((str(l1), str(l2), str(k0)))
        done += 1
    try:
        bk.transversality_solve(F(2, 3), F(2, 3), F(1, 5))
        failures.append(("equal values accepted",))
    except NoFiniteIntersection:
        pass
    _report(5, f"one intersection point per generic fiber pair ({N_BACKLUND} pairs)",
            failures)


def test_criterion_06_symplectic_identity():
    syms, _ = _sym_states(6, N_BACKLUND)
    failures = []
    for st in syms:
        if st.kappa.k0 == 0 or st.p == 0:
            continue
        if not bk.symplectic_check(st):
            failures.append(st.to_json_dict())
    _report(6, f"k0 det J / (x-y)^2 = -1 on {N_BACKLUND} states", failures)


def test_criterion_07_lattice():
    failures = []
    found = enumerate_transversal(5)
    if len(found) != 16:
        failures.append(("count", len(found)))
    sigmas = sorted(filter(None, (sigma_label(d) for d in found)))
    if sigmas != sorted("".join(p) for p in product("+-", repeat=4)):
        failures.append(("labels", sigmas))
    for d in found:
        if not (intersect(d, d) == 0 and intersect(d, FIB) == 1 and intersect(d, Y_RED) == 1):
            failures.append(("numerical conditions", str(d)))
    for name, holds in singular_fiber_decompositions():
        if not holds:
            failures.append((name,))
    if not anticanonical_check():
        failures.append(("anticanonical",))
    if any(intersect(Y, F_prime(i)) != 0 for i in range(1, 5)) or intersect(Y, C0) != 0:
        failures.append(("Y products",))
    _report(7, "16 transversal classes, fiber decompositions, anticanonical relations",
            failures)


def test_criterion_08_zones():
    rs = RationalSampler(seed=8, bound=64)
    failures = []
    labels = set()
    for _ in range(N_ZONES):
        eps = rs.eps_nonspecial()
        total = sum(eps)
        conds = int(total < HALF) + int(total > F(3, 2))
        for i, j in combinations(range(4), 2):
            if eps[i] + eps[j] - (total - eps[i] - eps[j]) > HALF:
                conds += 1
        label = classify_zone(Weights.of_eps(eps))
        labels.add(label)
        if conds > 1 or (conds == 0) != (label == ZONE_STABLE):
            failures.append(("exclusivity", [str(e) for e in eps]))
    if not labels <= set(ALL_ZONE_LABELS) | {ZONE_STABLE}:
        failures.append(("labels", sorted(labels)))

    # orbit of the small-eps zone under pair moves
    w0 = rs.weights_in_zone("A")
    orbit, seen, frontier = {classify_zone(w0)}, {w0.eps}, [w0]
    while frontier:
        nxt = []
        for w in frontier:
            for i, j in combinations(range(1, 5), 2):
                w2 = et_pair(w, i, j)
                if w2.eps not in seen:
                    seen.add(w2.eps)
                    orbit.add(classify_zone(w2))
                    nxt.append(w2)
        frontier = nxt
    if orbit != set(ALL_ZONE_LABELS):
        failures.append(("orbit", sorted(orbit)))

    # destabilizers: predicted type per zone, verdicts against the oracle
    poles = (F(0), F(1), F(3), INF)
    for zone in ALL_ZONE_LABELS:
        for _ in range(12):
            w = rs.weights_in_zone(zone)
            qp = QuasiPar(poles=poles, u=rs.simple_u(poles))
            try:
                sub = find_destabilizer(qp, w)
            except SpecialWeights:
                continue
            if sub is None or sub.degree != predicted_destabilizer_degree(zone):
                failures.append((zone, "type", qp.to_json_dict()))
                continue
            if zone.startswith("C") and not {int(zone[1]), int(zone[2])} <= set(sub.contact):
                failures.append((zone, "contact", qp.to_json_dict()))
            score, deg, contact = oracle_destabilizer(qp, w)
            if not (score == parabolic_degree(sub, w) and deg == sub.degree
                    and contact == sub.contact and score > HALF):
                failures.append((zone, "oracle", qp.to_json_dict()))
    for _ in range(25):
        w = rs.weights_in_zone(ZONE_STABLE)
        qp = QuasiPar(poles=poles, u=rs.simple_u(poles))
        try:
            sub = find_destabilizer(qp, w)
        except SpecialWeights:
            continue
        score, _, _ = oracle_destabilizer(qp, w)
        if (sub is None) != (score < HALF):
            failures.append(("Stable", "oracle verdict", qp.to_json_dict()))
    _report(8, f"zone partition on {N_ZONES} samples, orbit transitivity, "
               f"destabilizer types vs oracle", failures)


def test_criterion_09_higgs_limits():
    rs = RationalSampler(seed=9, bound=64)
    failures = []
    for _ in range(40):
        s = rs.pq_state()
        w = rs.weights_in_zone("A")
        lim = higgs_limit(s, w)
        if not (lim.kind == GRADED and lim.divisor == (s.q,)):
            failures.append(("zone A divisor", s.to_json_dict()))
        if lim != v_alpha_unstable(apparent_singularity(s), s.poles):
            failures.append(("zone A composition", s.to_json_dict()))
    for _ in range(20):
        ws = rs.weights_in_zone(ZONE_STABLE)
        s1 = rs.pq_state()
        big_q = s1.q + s1.kappa.k0 / s1.p
        q2 = rs.retry(lambda: rs.rat(), lambda q: q not in (0, 1, s1.t, s1.q, big_q))
        s2 = PQState(t=s1.t, kappa=s1.kappa, q=q2, p=s1.kappa.k0 / (big_q - q2))
        lim1, lim2 = higgs_limit(s1, ws), higgs_limit(s2, ws)
        if lim1 != lim2:
            failures.append(("stable zone: p-independence", s1.to_json_dict()))
        pt = phi_map(parabolic_from_connection(s1))
        if lim1 != v_alpha_stable(pt, ws, s1.poles):
            failures.append(("stable zone: point construction", s1.to_json_dict()))
    for zone in ALL_ZONE_LABELS:
        for _ in range(4):
            s = rs.pq_state()
            lim = higgs_limit(s, rs.weights_in_zone(zone))
            if lim.kind == THETA_ZERO:
                failures.append((zone, "theta zero in unstable zone", s.to_json_dict()))
    _report(9, "limit = fibration point in the small-eps zone; stable-zone limits "
               "factor through the classifying map; no vanishing Higgs field when unstable",
            failures)


def test_criterion_10_middle_convolution():
    rs = RationalSampler(seed=10, bound=64)
    failures = []
    for _ in range(N_MC):
        e = rs.exponent_data_in_zone("A")
        out = mc_exponents(e, sigma="++++")
        if sum(out.eps) != 1 - sum(e.eps):
            failures.append(("sum identity", e.to_json_dict()))
        if out.zone() != ZONE_STABLE:
            failures.append(("all-plus image zone", e.to_json_dict()))
    for zone in ALL_ZONE_LABELS:
        for _ in range(4):
            e = rs.exponent_data_in_zone(zone)
            rep = zone_interchange_check(e)
            if not rep["found_stable"]:
                failures.append((zone, "no stable image found", e.to_json_dict()))
    _report(10, f"all-plus convolver: sum identity and stable image on {N_MC} samples; "
                f"exhaustive search succeeds from all 8 unstable zones", failures)


def test_criterion_10b_single_flip_convolver_as_stated():
    # As stated, flipping the convolver eigenvalue at the last pole keeps a
    # small-eps-zone input inside the unstable family.  The eigenvalue
    # calculus refutes this: the transformed gaps give
    # eps'_4 = 1/4 - (e1+e2+e3+e4)/2 and eps'_i = 1/4 + (e_i - e_j - e_k + e_4)/2,
    # which satisfy every stable-zone inequality whenever sum(eps) < 1/2;
    # enumerating all sixteen odd-degree labelings of the output pairs never
    # produces an unstable zone (labelings differ by pair transformations,
    # which preserve the stable/unstable distinction).  The computed zone is
    # asserted in test_mconv; this check keeps the original claim and fails.
    e = ExponentData.of_eps([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
    out = mc_exponents(e, sigma="+++-")
    print(f"[FAIL] criterion 10 (as stated): single-flip convolver image lands in "
          f"zone {out.zone()}, not an unstable zone")
    assert out.zone() != ZONE_STABLE, \
        f"single-flip image is stable: eps' = {[str(x) for x in out.eps]}"
