"""An exact budget on the Fraction arithmetic of one full verify pass.

Wall time on a small shared host varies too much to gate on, but the
number of calls into the Fraction arithmetic operators is the same on
every run for a given seed, and it is what the pass costs: each call
reduces its result by a gcd.  `run_suite("all", seed=1, samples=50,
bound=64)` made 566,099 such calls before the kernels stopped repeating
work (re-derived k0 in every symmetry step, general elimination for a
line through two points, Fraction sums in the signed-sum tests), then
359,163, then 340,283 since default convolver choices are no longer
re-validated, 338,784 since the formulas stopped coercing their inputs
and literals to Fraction, and 233,409 since the zone classifier, the
destabilizer scores and the middle convolution run on integers over a
common denominator (mc suite 86,966 -> 8,706, higgs 96,539 -> 77,764,
zones 32,884 -> 24,544), and 188,779 since the contact subbundle and the
Higgs chart solve use integer 4x4 minors instead of `solve_linear` and
`check_relations` computes each of its 68 word prefixes once instead of
walking 112 generator steps (connection 41,030 -> 37,330, backlund
81,280 -> 57,480, zones 24,544 -> 22,205, higgs 77,764 -> 62,973),
181,380 since the Higgs representative reuses the contact subbundle
and the cleared connection entries no longer multiply by literal 0 and 1
coefficients, and 146,992 since the contact sets, general position, the
contact system's rows and the Higgs Wronskian run on integers over a
common denominator (zones 22,688 -> 15,768, higgs 57,111 -> 30,043,
connection 35,330 -> 34,930).

The same pass is also held to a budget of `Fraction.__new__` calls (every
arithmetic result and every explicit construction): 448,662 while the
formulas re-wrapped values that were already Fractions or ints, 419,089
since they no longer do, so a deleted coercion cannot quietly come back,
299,170 since the eps layer runs on integers, 226,920 since the
contact and chart systems and the relation prefixes do, 215,555
since the Higgs layer reuses the contact subbundle and the cleared
connection, and 179,137 since the contact sets and the Higgs Wronskian
run on integers.

Then the symmetry generators stopped re-checking 2*k0 + k1 + ... + k4 = 1
on every `KappaParams` they build, and `ResidueVector` stopped re-checking
its Fuchs sum: the relations are checked where exponents are parsed and
proved for every map in tests/test_certificates.py.  That took the pass
to 116,787 operations and 148,932 constructions (connection 34,930 ->
29,140, backlund 57,480 -> 34,690, higgs 30,043 -> 28,418).  Each suite
now has its own caps too, so an overrun names its suite.

Then the finite residues, their eigenvectors and the pole permutations
were written once, per pole, with d_i = prod_{j != i} (t_i - t_j): each
residue reads p~/d_i once and its (2,2) entry is minus its (1,1) entry.
That took the pass to 109,947 operations and 142,392 constructions
(connection 29,140 -> 27,640, backlund 34,690 -> 33,340, higgs 28,418 ->
24,428).

Then one rule, `_residue(k, sigma, c)`, wrote every finite residue of
both normal-form gauges from the k/2-eigenvector slope sigma and the
(1,2) entry c, and the eigen table read the same (k, sigma, c).  That took
the pass to 106,486 operations and 139,192 constructions (connection
27,640 -> 24,590, higgs 24,428 -> 24,017).

Then each value that several checks read was made once per sample: a
state's pole data, normal form and eigen table, and a connection's
cleared entries, once per object; the symmetry words' prefixes once per
state, in the relations' prefix table; and the brute-force zone oracle's
scores on integers over one common denominator.  That took the pass to
83,661 operations and 113,593 constructions (connection 24,590 -> 20,390,
backlund 33,340 -> 30,990, zones 15,768 -> 5,868, higgs 24,017 ->
17,642).

Then the middle convolution read and returned `Weights` instead of a
second (mu, eps) type, so its inputs are no longer converted and its
outputs no longer re-check their own parity: the pass went to 83,171
operations and 112,619 constructions (mc 8,706 -> 8,216 operations and
13,210 -> 12,236 constructions).

Then the checks that no input can fail were deleted: the Higgs
representative no longer runs `phi_map` on its own answer (the round
trip is a tested property), and `phi_map` no longer looks for the line
through the other three directions on the plus sheet.  The pass went to
82,586 operations and 111,584 constructions (higgs 17,642 -> 17,057
operations and 30,320 -> 29,285 constructions).

Then the mc suite's alternative twist stopped reducing its z4 mod 1,
which the product constraint does not need and `mc_exponents` does to
every output exponent anyway: the pass went to 82,536 operations and
111,534 constructions (mc 8,216 -> 8,166 operations and 12,236 ->
12,186 constructions).

Then each value was made once: the p-invariant read only the (2,2)
entries at q instead of building the whole matrix A(q), and the backlund
identities read Q, q o s0 and Q o s0 from the two chart readings they
already make instead of computing them again.  The pass went to 78,436
operations and 107,034 constructions (connection 20,390 -> 17,890 and
24,466 -> 21,966, backlund 30,990 -> 29,390 and 36,468 -> 34,468).

Then the weight sampler tested its candidates on integer numerators over
one denominator and built Fractions only for the accepted draw (moving a
zone-A draw into zone S on those numerators, not by `et_pair`); the
middle convolution put mu, the twists and the eps over one denominator;
and the operations with a zero operand, a +-1 factor or a +-1 divisor
were written out where the 0 or 1 is known by construction: the pole
t_1 = 0 in the symmetry generators and the normal form's gaps, the
(1, slope) eigenvectors, the chart slopes at the zero of P and the
symplectic chart's dx/dq = 1.  The pass went to 61,614 operations and
86,280 constructions (connection 17,890 -> 16,490 and 21,966 -> 20,566,
backlund 29,390 -> 23,840 and 34,468 -> 28,768, zones 5,868 -> 3,766
and 8,964 -> 6,037, higgs 17,057 -> 14,903 and 29,285 -> 25,458, mc
8,166 -> 2,550 and 12,186 -> 5,286).  Of its operations, 3,626 are such
trivial ones, against 13,218 before; they have a budget of their own.
Every budget here is the count of that pass plus less than 3%.
"""
from fractions import Fraction

from pvi_moduli.verify import SUITES

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
BUDGET = 63_460
CONSTRUCTION_BUDGET = 88_860
TRIVIAL_BUDGET = 3_730
# suite -> (operations, constructions)
SUITE_BUDGETS = {
    "connection": (16_980, 21_180),
    "backlund": (24_550, 29_630),
    "lattice": (66, 169),
    "zones": (3_870, 6_210),
    "higgs": (15_350, 26_220),
    "mc": (2_620, 5_440),
}
UNITS = (1, -1)


def trivial(name: str, a, b) -> bool:
    """A zero operand, a +-1 factor or a +-1 divisor: `a` is the Fraction
    whose operator `name` runs, `b` the other operand."""
    if a == 0 or b == 0:
        return True
    if name in ("__mul__", "__rmul__"):
        return a in UNITS or b in UNITS
    if name == "__truediv__":
        return b in UNITS
    return name == "__rtruediv__" and a in UNITS


def test_trivial_counts_zero_operands_unit_factors_and_unit_divisors():
    half, one = Fraction(1, 2), Fraction(1)
    assert trivial("__add__", half, 0) and trivial("__rsub__", Fraction(0), 3)
    assert trivial("__mul__", half, -1) and trivial("__rmul__", one, 3)
    assert trivial("__truediv__", half, one) and trivial("__rtruediv__", -one, 3)
    assert not trivial("__add__", one, 1) and not trivial("__sub__", half, -1)
    assert not trivial("__truediv__", one, 3) and not trivial("__rtruediv__", half, 1)
    assert not trivial("__mul__", half, 2)


def test_verify_all_stays_within_its_fraction_budget():
    count = constructions = trivial_count = 0
    originals = {name: Fraction.__dict__[name] for name in ARITHMETIC + ("__new__",)}
    new = Fraction.__new__

    def counted(name, op):
        def wrapper(a, b):
            nonlocal count, trivial_count
            count += 1
            trivial_count += trivial(name, a, b)
            return op(a, b)
        return wrapper

    def counted_new(cls, *args, **kwargs):
        nonlocal constructions
        constructions += 1
        return new(cls, *args, **kwargs)

    try:
        for name in ARITHMETIC:
            setattr(Fraction, name, counted(name, originals[name]))
        Fraction.__new__ = counted_new
        # the suites of run_suite("all", seed=1, samples=50, bound=64), one by one
        per_suite = {}
        for suite, fn in SUITES.items():
            before = (count, constructions)
            assert fn(1, 50, 64).passed, suite
            per_suite[suite] = (count - before[0], constructions - before[1])
    finally:
        for name, op in originals.items():
            setattr(Fraction, name, op)
    assert set(per_suite) == set(SUITE_BUDGETS)
    over = {suite: (used, SUITE_BUDGETS[suite]) for suite, used in per_suite.items()
            if any(u > b for u, b in zip(used, SUITE_BUDGETS[suite]))}
    assert not over, f"(operations, constructions) over budget: {over}"
    assert count <= BUDGET, f"{count} Fraction operations, budget {BUDGET}"
    assert constructions <= CONSTRUCTION_BUDGET, \
        f"{constructions} Fraction constructions, budget {CONSTRUCTION_BUDGET}"
    assert trivial_count <= TRIVIAL_BUDGET, \
        f"{trivial_count} trivial Fraction operations, budget {TRIVIAL_BUDGET}"
