import collections
from fractions import Fraction as F

import pytest

from pvi_moduli import connection, sampling
from pvi_moduli.connection import (KappaParams, PPoint, PQState, ResidueVector, Sheet,
                                   apparent_singularity, build_connection,
                                   build_connection_qp, eigen_table,
                                   elementary_transform_residues, generic_numerators,
                                   kappa_generic, kostov_generic, nonresonant)
from pvi_moduli.errors import DegenerateInput, NormalFormDegenerate, SpecialParameters
from pvi_moduli.exact import INF
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.verify import connection_identities, run_suite

from records import passes
from shared import matrix_at, worked_state


class TestKappa:
    def test_affine_relation_enforced(self):
        # five parsed exponents off 2*k0 + k1 + ... + k4 = 1 are rejected
        # where they come in, on their own and inside a state file
        kappa = ["0/1", "1/2", "1/2", "1/2", "1/2"]
        with pytest.raises(DegenerateInput, match="2\\*k0"):
            KappaParams.from_strs(kappa)
        with pytest.raises(DegenerateInput, match="2\\*k0"):
            PQState.from_json_dict({"t": "2/1", "kappa": kappa, "q": "3/1", "p": "5/1"})

    def test_from_k1234_recomputes_k0(self):
        kp = KappaParams.from_k1234(F(1, 8), F(1, 8), F(1, 8), F(1, 8))
        assert kp.k0 == F(1, 4)

    def test_worked_residues_satisfy_fuchs(self):
        res = worked_state().kappa.residues()
        assert sum(res.r_plus) + sum(res.r_minus) + res.lam * res.degree == 0


class TestGenericity:
    def test_worked_kappa_is_kostov_generic(self):
        res = worked_state().kappa.residues()
        # the sixteen signed sums live in {-3/4, ..., -1/4}: none integral
        assert kostov_generic(res)

    def test_integer_signed_sum_fails(self):
        r = ResidueVector(r_plus=(F(-1, 4), F(-1, 4), F(-1, 4), F(-1, 4)),
                          r_minus=(F(1, 3), F(1, 3), F(1, 3), F(0)),
                          lam=F(0), degree=1)
        assert sum(r.r_plus) == -1
        assert not kostov_generic(r)

    def test_all_zero_fails(self):
        r = ResidueVector(r_plus=(F(0),) * 4, r_minus=(F(0),) * 4, lam=F(0), degree=1)
        assert not kostov_generic(r)

    def test_nonresonant_examples(self):
        assert nonresonant(KappaParams.from_k1234(F(1, 8), F(1, 8), F(1, 8), F(1, 8)).residues())
        res = KappaParams.from_k1234(F(1), F(1, 8), F(1, 8), F(1, 8)).residues()
        assert not nonresonant(res)
        res = KappaParams.from_k1234(F(3, 2), F(1, 8), F(1, 8), F(1, 8)).residues()
        assert nonresonant(res)

    def test_kappa_generic_rejects_odd_signed_sum(self):
        assert not kappa_generic(KappaParams.from_k1234(F(1, 2), F(1, 6), F(1, 6), F(1, 6)))
        assert not kappa_generic(KappaParams.from_k1234(F(2), F(1, 8), F(1, 8), F(1, 8)))

    def test_generic_is_kappa_generic_checked_once(self, monkeypatch):
        # the sampler's accept test on integer numerators and every normal
        # form built from a sampled kappa read one verdict: a seed-1
        # connection or higgs run runs the integer core of `kappa_generic`
        # once for each distinct (k1, k2, k3, k4)
        calls = collections.Counter()

        def counted(nums, den):
            calls[tuple(F(n, den) for n in nums)] += 1
            return generic_numerators(nums, den)

        monkeypatch.setattr(connection, "generic_numerators", counted)
        monkeypatch.setattr(sampling, "generic_numerators", counted)
        for suite, distinct in (("connection", 58), ("higgs", 175)):
            calls.clear()
            run_suite(suite, seed=1)
            assert len(calls) == distinct and set(calls.values()) == {1}
        calls.clear()
        kappa = KappaParams.from_k1234(F(1, 2), F(1, 6), F(1, 6), F(1, 6))
        assert kappa.generic is False and kappa.generic is False
        assert calls[kappa.all4] == 1


class TestOncePerState:
    def test_pole_data_computed_once_per_state(self, monkeypatch):
        # the normal form, its eigen table and both parabolic structures read
        # one (k_i, sigma_i, c_i) per state: a seed-1 connection or higgs run
        # computes it once for each PQState it builds on (150 and 361 times
        # when every reader recomputed it)
        states = []

        def counted(s):
            states.append(s)  # keeps each object alive, so ids stay distinct
            return finite_pole_data(s)

        finite_pole_data = connection._finite_pole_data
        monkeypatch.setattr(connection, "_finite_pole_data", counted)
        for suite, distinct in (("connection", 50), ("higgs", 169)):
            states.clear()
            run_suite(suite, seed=1)
            assert len(states) == len({id(s) for s in states}) == distinct

    def test_values_are_made_once_and_never_shared(self):
        s = worked_state()
        conn = build_connection(s)
        assert build_connection(s) is conn and eigen_table(s) is eigen_table(s)
        assert conn.cleared("a21") is conn.cleared("a21")
        # an equal state is another object, with values of its own
        twin = PQState(t=s.t, kappa=s.kappa, q=s.q, p=s.p)
        assert twin == s and build_connection(twin) == conn and build_connection(twin) is not conn


class TestBuild:
    def test_det_a1(self):
        conn = build_connection(worked_state())
        assert conn.a1.det() == F(-1, 256)

    def test_finite_residue_invariants(self):
        records = passes(connection_identities(worked_state()))
        assert records["pq: trace A_i = 0 (i<=3)"] and records["pq: det A_i = -k_i^2/4 (i<=3)"]

    def test_a22_at_q_and_p_recovery(self):
        s = worked_state()
        conn = build_connection(s)
        k = s.kappa
        a22 = matrix_at(conn, s.q).a22
        # the gauge-invariant value determines p through the exponent correction
        assert a22 == s.p - k.k1 / (2 * s.q) - k.k2 / (2 * (s.q - 1)) - k.k3 / (2 * (s.q - s.t))
        assert passes(connection_identities(s))["pq: p recovered from A(2,2)|x=q"]

    def test_a12_vanishes_exactly_at_q(self):
        s = worked_state()
        conn = build_connection(s)
        assert passes(connection_identities(s))["pq: (1,2) entry vanishes exactly at q"]
        for x in (F(7), F(-5, 3)):
            a = matrix_at(conn, x)
            assert a.a12 == (x - s.q) / (x * (x - 1) * (x - s.t))

    def test_a4_is_the_infinity_residue(self):
        records = passes(connection_identities(worked_state()))
        assert records["pq: A4 equals the infinity residue of A(x)"]
        assert records["pq: det A4 = (1-k4^2)/4"]
        assert build_connection(worked_state()).a4.trace() == -1

    def test_rejects_q_at_pole(self):
        s = worked_state()
        for bad_q in (F(0), F(1), F(2)):
            with pytest.raises(NormalFormDegenerate):
                build_connection(PQState(t=s.t, kappa=s.kappa, q=bad_q, p=s.p))
        with pytest.raises(NormalFormDegenerate):
            build_connection(PQState(t=s.t, kappa=s.kappa, q=INF, p=s.p))

    def test_rejects_special_kappa(self):
        # every entry point, and again once the verdict is cached on the value
        kappa = KappaParams.from_k1234(F(1), F(1, 8), F(1, 8), F(1, 8))
        s = PQState(t=F(2), kappa=kappa, q=F(3), p=F(5))
        for _ in range(2):
            for build in (build_connection, eigen_table,
                          lambda s: build_connection_qp(s.t, s.kappa, F(61, 20), s.p)):
                with pytest.raises(SpecialParameters, match="kappa parameters are special"):
                    build(s)


class TestAlternateGauge:
    def test_gauge_invariants_match(self):
        # the alternate gauge is built at Q = q + k0/p = 61/20
        s = worked_state()
        assert s.q + s.kappa.k0 / s.p == F(61, 20)
        records = passes(connection_identities(s))
        assert [name for name in ("alt: trace A_i = 0 (i<=3)", "alt: det A_i = -k_i^2/4 (i<=3)",
                                  "alt: (1,2) entry vanishes exactly at q",
                                  "alt: p recovered from A(2,2)|x=q") if not records[name]] == []

    def test_a12_normalization(self):
        s = worked_state()
        big_q = F(61, 20)
        alt = build_connection_qp(s.t, s.kappa, big_q, s.p)
        for x in (F(9), F(-1, 2)):
            a = matrix_at(alt, x)
            assert a.a12 == s.p * (big_q - s.t) * (x - s.q) / (x * (x - 1) * (x - s.t))

    def test_infinity_matrix_shape(self):
        records = passes(connection_identities(worked_state()))
        assert [name for name in ("alt: A1 + A2 + A3 + A4 = 0",
                                  "alt: A4 lower triangular with diagonal {(1-k4)/2, (k4-1)/2}",
                                  "alt: det A4 = -(1-k4)^2/4") if not records[name]] == []

    def test_rejects_big_q_at_pole(self):
        s = worked_state()
        with pytest.raises(NormalFormDegenerate):
            build_connection_qp(s.t, s.kappa, s.t, s.p)


class TestCleared:
    @pytest.mark.parametrize("gauge", ["pq", "qp"])
    def test_matches_the_matrix_times_the_pole_polynomial(self, gauge):
        # the (q, p) gauge has C(2,1) != 0, so its (2,1) entry carries the cubic term
        s = worked_state()
        conn = (build_connection(s) if gauge == "pq"
                else build_connection_qp(s.t, s.kappa, F(61, 20), s.p))
        assert (conn.c.a21 != 0) == (gauge == "pq")
        for x in (F(9), F(-1, 2), F(7, 3)):
            a = matrix_at(conn, x)
            for entry in ("a11", "a12", "a21", "a22"):
                value = sum(c * x ** k for k, c in enumerate(conn.cleared(entry)))
                assert value == getattr(a, entry) * x * (x - 1) * (x - s.t)


class TestEigenTable:
    def test_pole1_worked_values(self):
        table = eigen_table(worked_state())
        (rm, vm), _ = table[0]
        assert rm == F(1, 16) and vm == (F(1), F(-10))
        records = passes(connection_identities(worked_state()))
        assert records["eigenvector table satisfies A_i v = r v"]

    def test_pole4_eigenvectors(self):
        table = eigen_table(worked_state())
        (rm, vm), (rp, vp) = table[3]
        assert vm == (F(1), F(1, 4)) and vp == (F(1), F(3, 8))
        assert rm == F(1, 16) - F(1, 2) and rp == -F(1, 16) - F(1, 2)

    def test_eigenvalue_gaps(self):
        rs = RationalSampler(seed=11, bound=16)
        for _ in range(10):
            assert passes(connection_identities(rs.pq_state()))["eigenvalue gaps are k_i"]


class TestApparentSingularity:
    def test_generic(self):
        pt = apparent_singularity(worked_state())
        assert pt.base == F(3) and pt.sheet == Sheet.GENERIC

    def test_pole_is_the_plus_sheet(self):
        s = worked_state()
        at_pole = PQState(t=s.t, kappa=s.kappa, q=F(0), p=s.p)
        assert apparent_singularity(at_pole) == PPoint(base=F(0), sheet=Sheet.PLUS)


class TestElementaryTransform:
    def base(self):
        return ResidueVector(r_plus=(F(-1, 16), F(-1, 16), F(-1, 16), F(-9, 16)),
                             r_minus=(F(1, 16), F(1, 16), F(1, 16), F(-7, 16)),
                             lam=F(1), degree=1)

    def test_single_step(self):
        out = elementary_transform_residues(self.base(), 1)
        assert out.r_plus[0] == F(1, 16)
        assert out.r_minus[0] == F(15, 16)
        assert out.degree == 0

    def test_higgs_case_swaps(self):
        r = ResidueVector(r_plus=(F(-1, 16),) * 4, r_minus=(F(1, 16),) * 4, lam=F(0), degree=1)
        out = elementary_transform_residues(r, 2)
        assert out.r_plus[1] == F(1, 16) and out.r_minus[1] == F(-1, 16)

    def test_double_step_shifts_by_lambda(self):
        r = self.base()
        out = elementary_transform_residues(elementary_transform_residues(r, 3), 3)
        assert out.r_plus[2] == r.r_plus[2] + 1
        assert out.r_minus[2] == r.r_minus[2] + 1
        assert out.degree == r.degree - 2
        # each transformation keeps the Fuchs relation (proved in test_certificates)
        assert sum(out.r_plus) + sum(out.r_minus) + out.lam * out.degree == 0
