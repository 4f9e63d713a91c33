"""An exact budget on the Fraction arithmetic of one full verify pass.

Wall time on a small shared host varies too much to gate on, but the
number of calls into the Fraction operators is the same on every run for
a given seed, and it is what the pass costs.  Over the suites of
`run_suite("all", seed=1, samples=50, bound=64)`, one by one, this
counts:

* operations: calls of the arithmetic operators (`ARITHMETIC`), each of
  which reduces its result by a gcd; among them the trivial ones, with a
  zero operand, a +-1 factor or a +-1 divisor (`trivial`);
* constructions: calls of `Fraction.__new__`, every arithmetic result and
  every explicit construction;
* comparisons: calls of `__eq__`, `__neg__`, `__lt__`, `__gt__` and
  `__hash__` (`COMPARISONS`), which do no gcd but are a large share of the
  calls; those that `trivial` makes itself are not counted.

Each is capped in the whole pass, and operations, constructions and
comparisons in each suite too, so an overrun names its suite.  A cap is
the count of the pass when it was set plus less than 3%, and it is
lowered when a change lowers the count; CHANGES.md records each step.

Today the pass makes 50,581 operations (connection 15,350, backlund
23,450, lattice 0, zones 3,340, higgs 5,891, mc 2,550), of which 2,627
trivial, and 66,746 constructions (18,400, 28,152, 0, 4,707, 10,201,
5,286), and its comparisons are 23,296 / 8,450 / 3,482 / 3,114 / 424.
"""
from fractions import Fraction

from pvi_moduli.verify import SUITES

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
COMPARISONS = ("__eq__", "__neg__", "__lt__", "__gt__", "__hash__")
BUDGET = 52_050
CONSTRUCTION_BUDGET = 68_700
TRIVIAL_BUDGET = 2_700
# suite -> (operations, constructions)
SUITE_BUDGETS = {
    "connection": (15_800, 18_940),
    "backlund": (24_150, 28_990),
    "lattice": (0, 0),
    "zones": (3_440, 4_840),
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
