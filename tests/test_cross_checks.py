"""Cross-module identities tying the symmetry group, the stability zones
and the Higgs limits together.

Each unstable zone carries its own affine-line fibration, deduced from the
apparent-singularity coordinate by an even number of elementary
transformations.  The limit construction sees it: the free zero of the
limiting Higgs field (the one not forced at a contact pole) is exactly the
q-coordinate of the corresponding symmetry composite.
"""
from fractions import Fraction as F
from itertools import combinations

from pvi_moduli import backlund as bk
from pvi_moduli.exact import is_inf
from pvi_moduli.higgs import GRADED, higgs_limit
from pvi_moduli.sampling import RationalSampler
from pvi_moduli.stability import ZONE_B, czone
from pvi_moduli.verify import dictionary_identities


def free_zeros(limit, s):
    poles = (F(0), F(1), s.t)
    return [z for z in limit.divisor if z not in poles and not is_inf(z)]


def sym_of(s):
    return bk.SymState(t=s.t, kappa=s.kappa, q=s.q, p=s.p)


class TestZoneFibrationDictionary:
    def test_pair_zones(self):
        rs = RationalSampler(seed=151, bound=20)
        for trial in range(4):
            s = rs.pq_state()
            sym = sym_of(s)
            for i, j in combinations(range(1, 5), 2):
                w = rs.weights_in_zone(czone(i, j))
                moved = bk.apply_word(bk.pair_fibration_word(i, j), sym)
                ((name, passed, witness),) = dictionary_identities([czone(i, j)], s, [moved.q], [w])
                assert passed, name
                lim = witness["limit"]
                assert lim.kind == GRADED and lim.deg_l == 0
                assert lim.contact == frozenset({i, j})
                # the word realizes the elementary-transformation pair on
                # the exponents: k -> 1 - k exactly at poles i and j
                for idx, (kin, kout) in enumerate(zip(sym.kappa.all4, moved.kappa.all4), 1):
                    assert kout == (1 - kin if idx in (i, j) else kin)

    def test_full_flip_zone(self):
        rs = RationalSampler(seed=157, bound=20)
        for trial in range(4):
            s = rs.pq_state()
            sym = sym_of(s)
            w = rs.weights_in_zone(ZONE_B)
            moved = bk.apply_word(bk.full_flip_fibration_word(), sym)
            ((name, passed, witness),) = dictionary_identities([ZONE_B], s, [moved.q], [w])
            assert passed, name
            lim = witness["limit"]
            assert lim.kind == GRADED and lim.deg_l == -1
            assert lim.contact == frozenset({1, 2, 3, 4})

    def test_double_pair_words_agree(self):
        # (1,2)(3,4), (3,4)(1,2) and (1,3)(2,4) pairings compose to the
        # same birational transformation
        rs = RationalSampler(seed=163, bound=20)
        for _ in range(5):
            s = rs.pq_state()
            sym = sym_of(s)
            w_a = bk.apply_word(bk.pair_fibration_word(1, 2) + bk.pair_fibration_word(3, 4), sym)
            w_b = bk.apply_word(bk.pair_fibration_word(3, 4) + bk.pair_fibration_word(1, 2), sym)
            w_c = bk.apply_word(bk.pair_fibration_word(1, 3) + bk.pair_fibration_word(2, 4), sym)
            assert w_a == w_b == w_c

    def test_small_zone_uses_the_identity_word(self):
        rs = RationalSampler(seed=167, bound=20)
        s = rs.pq_state()
        lim = higgs_limit(s, rs.weights_in_zone("A"))
        assert free_zeros(lim, s) == [s.q]
