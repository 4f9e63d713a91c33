from fractions import Fraction as F
from itertools import combinations

import pytest

from pvi_moduli import parabolic, stability
from pvi_moduli.errors import DegenerateInput, SpecialWeights
from pvi_moduli.exact import INF, over_common_denominator
from pvi_moduli.mconv import mc_exponents, odd_degree_weights
from pvi_moduli.parabolic import QuasiPar, Subbundle, line_through
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import (ALL_ZONE_LABELS, ZONE_CONTACT, ZONE_STABLE, Branch, Weights,
                                  classify_zone, et_pair, find_destabilizer, nonspecial_numerators,
                                  parabolic_degree, stable_subzone_branch)
from pvi_moduli.verify import (destabilizer_identities, et_orbit_identities, mu_identity,
                               oracle_destabilizer, stable_destabilizer_identity,
                               zone_label_identities)

from records import failed
from shared import candidate_subbundles, destabilizer_by_enumeration
from test_chambers import CENTROIDS
from test_kernel_oracles import _outcome

POLES = (F(0), F(1), F(3), INF)
HALF = F(1, 2)
conic_minors = parabolic._conic_minors


class TestWeightsFromJson:
    def test_round_trip(self):
        w = Weights(mu=(F(1), F(-2, 3), F(0), F(5)), eps=(F(1, 10), F(1, 5), F(1, 4), F(1, 3)))
        assert Weights.from_json_dict(w.to_json_dict()) == w

    @pytest.mark.parametrize("payload", [
        {}, None, [], "eps", {"eps": 5}, {"eps": ["1/5"] * 4, "mu": 5},
        {"eps": ["1/5"] * 3}, {"eps": ["1/5", "1/5", "1/5", "x"]},
        {"eps": ["1/5"] * 4, "mu": "0000"}, {"eps": "1111"},
        {"eps": dict.fromkeys(["1/5", "1/6", "1/7", "1/8"], 0)},
    ])
    def test_malformed_weights_are_an_input_error(self, payload):
        with pytest.raises(DegenerateInput):
            Weights.from_json_dict(payload)


class TestClassify:
    def test_zone_a(self):
        assert classify_zone(Weights.of_eps([F(1, 10)] * 4)) == "A"

    def test_zone_b(self):
        assert classify_zone(Weights.of_eps([F(2, 5)] * 4)) == "B"

    def test_zone_c12(self):
        w = Weights.of_eps([F(9, 20), F(9, 20), F(1, 20), F(1, 20)])
        assert classify_zone(w) == "C12"

    def test_boundary_raises(self):
        with pytest.raises(SpecialWeights):
            classify_zone(Weights.of_eps([F(1, 8)] * 4))  # sum exactly 1/2
        with pytest.raises(SpecialWeights):
            classify_zone(Weights.of_eps([F(2, 5), F(2, 5), F(1, 5), F(1, 10)]))  # pair wall

    def test_stable(self):
        assert classify_zone(Weights.of_eps([F(6, 25), F(13, 50), F(27, 100), F(23, 100)])) == "Stable"
        assert classify_zone(Weights.of_eps([F(1, 4)] * 4)) == "Stable"

    def test_exclusive_labels(self):
        rs = RationalSampler(seed=23, bound=40)
        assert failed(zone_label_identities([rs.eps_nonspecial() for _ in range(200)])) == []


class TestEtPair:
    def test_a_to_c12(self):
        w = Weights.of_eps([F(1, 10)] * 4)
        out = et_pair(w, 1, 2)
        assert out.eps == (F(2, 5), F(2, 5), F(1, 10), F(1, 10))
        assert classify_zone(out) == "C12"

    def test_involution_on_eps(self):
        w = Weights.of_eps([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        assert et_pair(et_pair(w, 2, 4), 2, 4).eps == w.eps

    def test_unstable_family_preserved(self):
        rs = RationalSampler(seed=29, bound=30)
        for _ in range(40):
            eps = rs.eps_nonspecial()
            w = Weights.of_eps(eps)
            zone = classify_zone(w)
            for i, j in combinations(range(1, 5), 2):
                zone2 = classify_zone(et_pair(w, i, j))
                assert (zone == "Stable") == (zone2 == "Stable")

    def test_orbit_transitive_on_eight_zones(self):
        # 8 eps visited, the even sign flips, one in each unstable zone
        w = Weights.of_eps([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        assert failed(et_orbit_identities(w)) == []


class TestNonspecialWeights:
    def test_small_eps_with_zero_mu(self):
        w = Weights.of_eps([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        assert nonspecial_numerators(*w.cleared)

    def test_sum_half_is_special(self):
        assert not nonspecial_numerators(*over_common_denominator([F(1, 8)] * 4))

    def test_coincident_pair_is_special(self):
        # alpha^- = alpha^+ at pole 1 means eps_1 = 0, outside the weight range
        with pytest.raises(SpecialWeights):
            Weights.of_eps([F(0)] + [F(1, 10)] * 3)


class TestBranch:
    def test_boundary_raises(self):
        # eps = (1/4 + tiny perturbations) sits exactly on the branch wall
        w = Weights.of_eps([F(6, 25), F(13, 50), F(27, 100), F(23, 100)])
        assert classify_zone(w) == "Stable"
        wall = Weights.of_eps([F(1, 4)] * 4)
        assert sum(wall.eps) - 2 * wall.eps[0] == HALF
        with pytest.raises(SpecialWeights):
            stable_subzone_branch(wall, 1)

    def test_origin_unstable(self):
        w = Weights.of_eps([F(2, 5), F(1, 5), F(1, 5), F(1, 5)])
        assert classify_zone(w) == "Stable"
        assert stable_subzone_branch(w, 1) == Branch.ORIGIN_UNSTABLE

    def test_colinear_unstable(self):
        w = Weights.of_eps([F(1, 20), F(9, 20), F(9, 20), F(9, 20)])
        assert classify_zone(w) == "Stable"
        assert stable_subzone_branch(w, 1) == Branch.COLINEAR_UNSTABLE


class TestClearedOnce:
    @pytest.fixture
    def cleared(self, monkeypatch):
        """The values `stability.over_common_denominator` is called on."""
        seen = []
        clear = stability.over_common_denominator

        def counted(values):
            seen.append(tuple(values))
            return clear(values)

        monkeypatch.setattr(stability, "over_common_denominator", counted)
        return seen

    def test_zone_branch_and_destabilizer_clear_the_eps_once(self, cleared):
        w = Weights.of_eps([F(6, 25), F(13, 50), F(27, 100), F(23, 100)])
        qp = QuasiPar(poles=POLES, u=RationalSampler(seed=31, bound=14).general_position_u(POLES))
        assert classify_zone(w) == ZONE_STABLE
        assert stable_subzone_branch(w, 1) in Branch
        assert find_destabilizer(qp, w) is None
        assert cleared == [w.eps]

    def test_mc_exponents_clears_the_eps_once(self, cleared):
        # the nonspecial test reads the same integer eps as the convolution
        w = odd_degree_weights([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        out = mc_exponents(w)
        assert cleared == [w.eps]
        assert classify_zone(out) == ZONE_STABLE


class TestDestabilizer:
    def generic_qp(self, seed=31):
        rs = RationalSampler(seed=seed, bound=14)
        return QuasiPar(poles=POLES, u=rs.general_position_u(POLES))

    def test_wall_error_names_the_candidate_on_the_wall(self):
        # eps1 + eps2 - eps3 - eps4 = 1/2: the line through the first two
        # directions sits on a wall, and it is the first candidate there
        qp = self.generic_qp()
        w = Weights.of_eps([F(2, 5), F(3, 10), F(1, 10), F(1, 10)])
        line = next(sub for sub in candidate_subbundles(qp) if sub.contact == {1, 2})
        with pytest.raises(SpecialWeights) as exc:
            find_destabilizer(qp, w)
        assert str(exc.value) == f"candidate of parabolic degree exactly 1/2: {line}"

    def test_three_colinear_directions_outscore_the_conic(self):
        # zone B predicts the degree -1 conic, but a line through three
        # directions beats it by 1 - 2 eps of the fourth pole; the sampler
        # draws structures in general position for that reason
        qp = QuasiPar(poles=POLES, u=(F(3, 2), F(1, 2), F(-3, 2), F(1, 3)))
        w = Weights.of_eps([F(2, 5), F(9, 20), F(2, 5), F(9, 20)])
        assert classify_zone(w) == "B"
        sub = find_destabilizer(qp, w)
        assert (sub.degree, sub.contact) == (0, frozenset({1, 2, 3}))
        assert parabolic_degree(sub, w) == F(4, 5)

    def test_zone_a_gives_o1(self):
        w = Weights.of_eps([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        assert failed(destabilizer_identities("A", w, self.generic_qp())) == []

    def test_stable_zone_generic_none(self):
        w = Weights.of_eps([F(6, 25), F(13, 50), F(27, 100), F(23, 100)])
        ((_, passed, witness),) = stable_destabilizer_identity(w, self.generic_qp())
        assert passed and witness["destabilizer"] is None

    def test_triple_contact_found_with_adapted_weights(self):
        # directions 2, 3, 4 on the line v = 1 + 2x over poles (0, 1, 3, inf)
        qp = QuasiPar(poles=POLES, u=(F(100), F(3), F(7), F(2)))
        assert line_through(qp, [1, 2, 3]) == (F(1), F(2))
        w = Weights.of_eps([F(1, 5), F(27, 100), F(27, 100), F(27, 100)])
        sub = find_destabilizer(qp, w)
        assert sub is not None
        assert sub.degree == 0 and sub.contact == frozenset({2, 3, 4})
        score = parabolic_degree(sub, w)
        assert score == F(27, 100) * 3 - F(1, 5) and score > HALF

    def test_zone_b_gives_full_contact(self):
        w = Weights.of_eps([F(2, 5), F(5, 12), F(3, 7), F(9, 20)])
        assert classify_zone(w) == "B"
        assert failed(destabilizer_identities("B", w, self.generic_qp())) == []

    def test_czone_gives_pair(self):
        """All eight zones are contact sets: zone-A eps reflected to 1/2 - eps
        at the poles of S classify as the zone of S, and on a structure in
        general position its destabilizer has degree 1 - |S|/2 and contact
        exactly S."""
        eps = (F(1, 10), F(1, 12), F(1, 14), F(1, 16))
        for n, (zone, contact) in enumerate(ZONE_CONTACT.items()):
            w = Weights.of_eps([HALF - e if i in contact else e for i, e in enumerate(eps, 1)])
            assert classify_zone(w) == zone
            assert failed(destabilizer_identities(zone, w, self.generic_qp(seed=40 + n))) == []

    def test_mu_is_ignored(self):
        eps = (F(1, 10), F(1, 12), F(1, 14), F(1, 16))
        w2 = Weights(mu=(F(3), F(-1, 2), F(7, 5), F(0)), eps=eps)
        assert failed(mu_identity(Weights.of_eps(eps), w2, self.generic_qp())) == []

    def test_section_vanishing_at_infinity_saturates_to_its_line(self):
        # Directions 1, 2, 3 lie on the line x and u4 = 5 does not.  The
        # section (v, w) = (1, x) meets all four directions, but v1 = w2 = 0:
        # both entries vanish at infinity.  It is no degree -1 subbundle.
        # Its saturation is the line x, whose contact is {1, 2, 3}.
        qp = QuasiPar(poles=POLES, u=(F(0), F(1), F(3), F(5)))
        assert all(sub.degree != -1 for sub in candidate_subbundles(qp))
        w = Weights.of_eps([F(3, 8)] * 4)
        sub = find_destabilizer(qp, w)
        assert sub == Subbundle(degree=0, coefficients=(F(0), F(1)), contact=frozenset({1, 2, 3}))
        assert parabolic_degree(sub, w) == F(3, 4)

    def test_infinite_direction_contact(self):
        qp = QuasiPar(poles=POLES, u=(INF, F(1), F(3), F(9)))
        w = Weights.of_eps([F(1, 10), F(1, 12), F(1, 14), F(1, 16)])
        sub = find_destabilizer(qp, w)
        assert sub.degree == 1 and sub.contact == frozenset({1})


class TestOracleAgreement:
    def test_random_sweep(self):
        rs = RationalSampler(seed=37, bound=18)
        zones = list(ALL_ZONE_LABELS) + ["Stable"] * 3
        for k, zone in enumerate(zones * 4):
            w = rs.weights_in_zone(zone)
            if k % 3 == 0:
                # adversarial: force a colinear triple
                v = (rs.rat(), rs.rat(nonzero=True))
                u = [None] * 4
                u[0] = rs.rat()
                u[1] = v[0] + v[1] * POLES[1]
                u[2] = v[0] + v[1] * POLES[2]
                u[3] = v[1]
                qp = QuasiPar(poles=POLES, u=tuple(u))
            elif k % 3 == 1:
                u = list(rs.general_position_u(POLES))
                u[rs.rng.randrange(4)] = INF
                qp = QuasiPar(poles=POLES, u=tuple(u))
            else:
                qp = QuasiPar(poles=POLES, u=rs.general_position_u(POLES))
            try:
                if zone == ZONE_STABLE:
                    records = stable_destabilizer_identity(w, qp)
                else:
                    records = destabilizer_identities(zone, w, qp)
            except SpecialWeights:
                continue
            if k % 3 != 2:  # colinear and infinite directions may outscore the zone's type
                records = [r for r in records if "predicted type" not in r[0]]
            assert failed(records) == []
            sub = records[0][2]["destabilizer"]
            if zone == ZONE_STABLE and sub is not None:
                score, deg, contact = oracle_destabilizer(qp, w)
                assert score == parabolic_degree(sub, w)
                assert (deg, contact) == (sub.degree, sub.contact)

    def test_unique_violator(self):
        # when unstable, exactly one candidate crosses the threshold
        rs = RationalSampler(seed=41, bound=18)
        for zone in ALL_ZONE_LABELS:
            w = rs.weights_in_zone(zone)
            qp = QuasiPar(poles=POLES, u=rs.general_position_u(POLES))
            violators = [s for s in candidate_subbundles(qp)
                         if parabolic_degree(s, w) > HALF]
            assert len({(s.degree, s.contact) for s in violators}) == 1


class TestLazySection:
    """`find_destabilizer` asks `parabolic.section_type` for the section
    through all four directions only when its type scores at least den,
    i.e. sum eps >= 3/2.  It still returns what scoring every candidate
    returns, on every chamber of the eps cube and on the wall where only
    the section has parabolic degree 1/2."""

    STRUCTURES = {
        "general position": QuasiPar(
            poles=POLES, u=RationalSampler(seed=31, bound=14).general_position_u(POLES)),
        "directions 1, 2, 3 colinear": QuasiPar(poles=POLES, u=(F(3, 2), F(1, 2), F(-3, 2), F(1, 3))),
        "directions 2, 3, 4 colinear": QuasiPar(poles=POLES, u=(F(100), F(3), F(7), F(2))),
        "section vanishing at infinity": QuasiPar(poles=POLES, u=(F(0), F(1), F(3), F(5))),
        "all four colinear": QuasiPar(poles=POLES, u=(F(0), F(1), F(3), F(1))),
        "one direction at the pole": QuasiPar(poles=POLES, u=(INF, F(1), F(3), F(9))),
        "two directions at the poles": QuasiPar(poles=POLES, u=(F(2), INF, F(5), INF)),
    }
    # eps = x/2 at the centroid x of each chamber of tests/test_chambers.py
    CHAMBER_EPS = [tuple(x / 2 for x in centroid) for centroid in CENTROIDS]
    # sum eps = 3/2 and no other wall
    WALL_EPS = [(F(3, 8),) * 4, (F(2, 5), F(9, 20), F(2, 5), F(1, 4))]

    @pytest.fixture
    def minors(self, monkeypatch):
        """The structures whose conic minors `find_destabilizer` computes."""
        seen = []

        def counted(qp):
            seen.append(qp)
            return conic_minors(qp)

        monkeypatch.setattr(parabolic, "_conic_minors", counted)
        return seen

    @pytest.mark.parametrize("name", STRUCTURES)
    def test_matches_full_enumeration_on_every_chamber(self, name, minors):
        qp = self.STRUCTURES[name]
        assert len(self.CHAMBER_EPS) == 24
        for eps in self.CHAMBER_EPS:
            w = Weights.of_eps(eps)
            minors.clear()
            got = _outcome(find_destabilizer, qp, w)
            assert (minors == [qp]) == (sum(eps) > F(3, 2))
            assert got == destabilizer_by_enumeration(qp, w)

    @pytest.mark.parametrize("name", STRUCTURES)
    @pytest.mark.parametrize("eps", WALL_EPS, ids=lambda eps: ",".join(map(str, eps)))
    def test_sum_three_halves_is_the_sections_wall(self, name, eps, minors):
        qp, w = self.STRUCTURES[name], Weights.of_eps(eps)
        got = _outcome(find_destabilizer, qp, w)
        assert minors == [qp]
        assert got == destabilizer_by_enumeration(qp, w)
        section = candidate_subbundles(qp)[-1]
        if section.degree == -1:
            assert got == (SpecialWeights, f"candidate of parabolic degree exactly 1/2: {section}")
        else:  # dropped: its saturation is a listed line or the O(1)
            assert not isinstance(got, tuple)
