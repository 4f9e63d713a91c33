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

Then the Higgs layer read each value once, from the state: the
quasiparabolic structure from the pole data instead of a whole eigen
table and a second structure, each structure's integer points once,
the destabilizer's (degree, contact) types scored on integers with
coefficients built for the returned subbundle alone, and the Wronskian's
entries in closed form instead of from the residue matrices of the
normal form.  The pass went to 57,054 operations and 76,834
constructions (zones 6,037 -> 5,085 constructions, higgs 14,903 ->
10,343 and 25,458 -> 16,964), of which 3,615 trivial operations.

Then the work whose answer the algebra already gives was skipped:
`find_destabilizer` computes the section's conic minors only when
sum eps >= 3/2, `theta_divisor` reads the O(1)'s W = q - x off the state
instead of building its Wronskian, `with_kappa` copies t without testing
it again, s1-s4 no longer build the pole tuple, `check_relations` walks a
prefix plan made once, and `connection_identities` builds its expected
determinants once.  The pass went to 54,909 operations and 74,104
constructions (connection 16,490 -> 16,340 and 20,566 -> 20,116, higgs
10,343 -> 8,348 and 16,964 -> 14,684), of which 3,613 trivial operations.

The comparisons do no gcd, but they are a large share of the calls:
the same pass also has a budget of `__eq__`, `__neg__`, `__lt__`, `__gt__`
and `__hash__` calls, each per suite and in the whole pass.  They were
35,809 / 9,152 / 3,482 / 3,124 / 424 before the change above and
26,091 / 8,717 / 3,482 / 3,124 / 424 after it (backlund 21,412 -> 12,462
equality tests, connection 6,409 -> 5,959, higgs 6,425 -> 6,107).  The
comparisons that `trivial` makes itself are not counted.

Then the classifying map and the state sampler worked on integers:
`is_simple` tests the integer points against one cross product instead
of `line_through`, `q_map` reads -m0/m1 off the conic minors instead of
all five Fraction coefficients, the Higgs representative reads its
direction off the same minors instead of Horner's rule on the
coefficients, and `RationalSampler.kappa` and `pq_state` test each draw on
integer numerators, building the Fractions once for the accepted one.
The pass went to 51,432 operations and 68,154 constructions (connection
16,340 -> 15,550 and 20,116 -> 18,600, backlund 23,840 -> 23,450 and
28,768 -> 28,152, higgs 8,348 -> 6,051 and 14,599 -> 10,866), of which
2,857 trivial operations (3,613), and its comparisons to 23,335 / 8,530 /
3,482 / 3,124 / 424 (connection 5,959 -> 5,250 equality tests, backlund
12,462 -> 12,003, higgs 6,107 -> 4,519).

Then each rule was written once, with Q read only at the edges: one
Lagrange rule over x(x-1)(x-t), `connection.lagrange_cleared`, serves
both `FourPoleConnection.cleared` and the Higgs layer's closed-form
entries, on r12 = r1 + r2 instead of 1 + t; the Higgs frame is a
structure with integer frame values whose cached points the
representative reuses; `theta_divisor` reads its contact roots back from
their integer points; and the lattice signature eliminates its Gram
matrix on integers.  The pass went to 51,007 operations and 67,124
constructions (connection 15,550 -> 15,350 and 18,600 -> 18,400, lattice
65 -> 0 and 165 -> 0, higgs 6,051 -> 5,891 and 10,866 -> 10,201), of
which 2,767 trivial operations (2,857).  Its comparisons went to 23,296 /
8,450 / 3,482 / 3,114 / 424: the symplectic check reads Q through
`big_q_of`, whose own p != 0 test adds 50 equality tests to backlund
(12,003 -> 12,053), while the lattice's 55 equality and 10 order tests
are on integers now and the Higgs layer's fell (4,519 -> 4,485 equality
tests, 1,738 -> 1,658 negations).  The comparison budgets were left as
they were.
Every budget here is the count of that pass plus less than 3%.
"""
from fractions import Fraction

from pvi_moduli.verify import SUITES

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
COMPARISONS = ("__eq__", "__neg__", "__lt__", "__gt__", "__hash__")
BUDGET = 52_500
CONSTRUCTION_BUDGET = 69_100
TRIVIAL_BUDGET = 2_845
# suite -> (operations, constructions)
SUITE_BUDGETS = {
    "connection": (15_800, 18_940),
    "backlund": (24_150, 28_990),
    "lattice": (0, 0),
    "zones": (3_870, 5_230),
    "higgs": (6_060, 10_500),
    "mc": (2_620, 5_440),
}
# the calls of each of COMPARISONS, in that order: in the whole pass and per suite
COMPARISON_BUDGET = (24_030, 8_780, 3_580, 3_210, 436)
SUITE_COMPARISON_BUDGETS = {
    "connection": (5_400, 2_365, 0, 0, 205),
    "backlund": (12_360, 4_320, 0, 0, 0),
    "lattice": (56, 0, 0, 10, 0),
    "zones": (1_240, 98, 735, 1_080, 230),
    "higgs": (4_650, 1_790, 1_004, 691, 0),
    "mc": (308, 201, 1_843, 1_432, 0),
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
    compared = dict.fromkeys(COMPARISONS, 0)
    counting = True  # off while `trivial` itself compares
    originals = {name: Fraction.__dict__[name] for name in ARITHMETIC + COMPARISONS + ("__new__",)}
    new = Fraction.__new__

    def counted(name, op):
        def wrapper(a, b):
            nonlocal count, trivial_count, counting
            count += 1
            counting = False
            try:
                trivial_count += trivial(name, a, b)
            finally:
                counting = True
            return op(a, b)
        return wrapper

    def counted_comparison(name, op):
        def wrapper(*args):
            compared[name] += counting
            return op(*args)
        return wrapper

    def counted_new(cls, *args, **kwargs):
        nonlocal constructions
        constructions += 1
        return new(cls, *args, **kwargs)

    def comparisons():
        return tuple(compared[name] for name in COMPARISONS)

    try:
        for name in ARITHMETIC:
            setattr(Fraction, name, counted(name, originals[name]))
        for name in COMPARISONS:
            setattr(Fraction, name, counted_comparison(name, originals[name]))
        Fraction.__new__ = counted_new
        # the suites of run_suite("all", seed=1, samples=50, bound=64), one by one
        per_suite, per_suite_compared = {}, {}
        for suite, fn in SUITES.items():
            before = (count, constructions)
            compared_before = comparisons()
            assert fn(1, 50, 64).passed, suite
            per_suite[suite] = (count - before[0], constructions - before[1])
            per_suite_compared[suite] = tuple(
                c - b for c, b in zip(comparisons(), compared_before))
    finally:
        for name, op in originals.items():
            setattr(Fraction, name, op)
    assert set(per_suite) == set(SUITE_BUDGETS) == set(SUITE_COMPARISON_BUDGETS)
    over = {suite: (used, SUITE_BUDGETS[suite]) for suite, used in per_suite.items()
            if any(u > b for u, b in zip(used, SUITE_BUDGETS[suite]))}
    assert not over, f"(operations, constructions) over budget: {over}"
    over = {suite: (used, SUITE_COMPARISON_BUDGETS[suite])
            for suite, used in per_suite_compared.items()
            if any(u > b for u, b in zip(used, SUITE_COMPARISON_BUDGETS[suite]))}
    assert not over, f"{COMPARISONS} calls over budget: {over}"
    assert count <= BUDGET, f"{count} Fraction operations, budget {BUDGET}"
    assert constructions <= CONSTRUCTION_BUDGET, \
        f"{constructions} Fraction constructions, budget {CONSTRUCTION_BUDGET}"
    assert trivial_count <= TRIVIAL_BUDGET, \
        f"{trivial_count} trivial Fraction operations, budget {TRIVIAL_BUDGET}"
    used = comparisons()
    assert all(u <= b for u, b in zip(used, COMPARISON_BUDGET)), \
        f"{COMPARISONS} calls {used}, budget {COMPARISON_BUDGET}"
