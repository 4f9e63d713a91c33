from itertools import product

import pytest

from pvi_moduli.errors import DegenerateInput
from pvi_moduli.lattice import (C0, C1, E, F, F_prime, L_sigma, Y, Y_RED, DivClass,
                                enumerate_transversal, E_prime_minus, intersect, sigma_label,
                                singular_fiber_decompositions)
from pvi_moduli.verify import lattice_identities

from records import passes

RECORDS = passes(lattice_identities())  # the lattice suite's records, by name


class TestForm:
    def test_basic_products(self):
        assert intersect(C0, C0) == -2
        assert intersect(F, F) == 0
        assert intersect(C0, F) == 1
        assert intersect(E(1, "+"), E(1, "+")) == -1
        assert intersect(E(1, "+"), E(1, "-")) == 0
        assert intersect(E(2, "+"), F) == 0

    def test_symmetry(self):
        vs = [C0, F, C1, Y, L_sigma("+-+-" )]
        for a in vs:
            for b in vs:
                assert intersect(a, b) == intersect(b, a)

    def test_signature(self):
        assert RECORDS["intersection form has signature (1, 9)"]

    def test_section_classes(self):
        assert RECORDS["C1.C0 = 0"] and RECORDS["C1^2 = 2"]


def reference_transversal(n_max):
    """The same search on `DivClass` objects, one class per candidate and
    per test class: the reference the integer-tuple search must match."""
    per_point = [(a, b) for a in range(2) for b in range(2) if 1 - a - b >= 0]
    out = []
    for n in range(min(n_max, 1) + 1):
        for choice in product(per_point, repeat=4):
            cand = C1 + n * F
            for i, (a, b) in enumerate(choice, start=1):
                cand = cand - a * E(i, "+") - b * E(i, "-")
            if intersect(cand, Y_RED) != 1:
                continue
            if intersect(cand, cand) != 0:
                continue
            if all(intersect(cand, F_prime(i)) >= 0
                   and intersect(cand, E(i, "+")) >= 0
                   and intersect(cand, E(i, "-")) >= 0 for i in range(1, 5)):
                out.append(cand)
    return out


class TestEnumeration:
    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_equals_the_divclass_search(self, n_max):
        assert enumerate_transversal(n_max) == reference_transversal(n_max)

    def test_builds_a_divclass_only_for_each_survivor(self, monkeypatch):
        # the test classes F'_i and Ei± are built once, at import, and
        # sigma_label reads a table; reference_transversal(5) builds 4,596
        built = 0
        init = DivClass.__init__

        def counted(self, coeffs):
            nonlocal built
            built += 1
            init(self, coeffs)

        monkeypatch.setattr(DivClass, "__init__", counted)
        found = enumerate_transversal(5)
        assert len(found) == 16 and built == 16
        assert None not in [sigma_label(d) for d in found]
        assert built == 16

    def test_exactly_sixteen(self):
        assert RECORDS["exactly 16 transversal fiber classes"]
        assert RECORDS["the 16 sign patterns each occur once"]

    def test_all_at_level_one(self):
        # every survivor is C1 + 1*F - ...: its product with C0 is 1
        for d in enumerate_transversal(5):
            assert intersect(d, C0) == 1

    def test_numerical_conditions(self):
        assert RECORDS["each class has L^2 = 0, L.F = 1, L.Y_red = 1"]
        for d in enumerate_transversal(3):
            for i in range(1, 5):
                assert intersect(d, F_prime(i)) >= 0
                assert intersect(d, E(i, "+")) >= 0
                assert intersect(d, E(i, "-")) >= 0

    def test_contactless_candidate_excluded(self):
        assert RECORDS["the contactless candidate fails Y_red = 1 (value 5)"]

    def test_bad_nmax(self):
        with pytest.raises(DegenerateInput):
            enumerate_transversal(0)


class TestDecompositions:
    def test_all_identities_hold(self):
        assert [name for name, _ in singular_fiber_decompositions() if not RECORDS[name]] == []

    def test_fiber_splitting_vector_identity(self):
        assert F - F_prime(1) - E(1, "+") - E(1, "-") == 0 * C0

    def test_exceptional_square(self):
        assert intersect(E_prime_minus(1), E_prime_minus(1)) == -1

    def test_parabolic_fiber_intersections(self):
        L = L_sigma("----")
        assert intersect(L, C0) == 1
        assert intersect(L, F) == 1
        for i in range(1, 5):
            assert intersect(L, E(i, "-")) == 1


class TestAnticanonical:
    def test_relations(self):
        assert RECORDS["anticanonical class relations"] and RECORDS["Y.Y = 0"]
        assert intersect(Y, C0) == 0
        assert intersect(Y, F_prime(2)) == 0
