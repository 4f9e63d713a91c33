"""An exact budget on the Fraction arithmetic of one full verify pass.

Wall time on a small shared host varies too much to gate on, but the
number of calls into the Fraction arithmetic operators is the same on
every run for a given seed, and it is what the pass costs: each call
reduces its result by a gcd.  `run_suite("all", seed=1, samples=50,
bound=64)` made 566,099 such calls before the kernels stopped repeating
work (re-derived k0 in every symmetry step, general elimination for a
line through two points, Fraction sums in the signed-sum tests), then
359,163, and 340,283 since default convolver choices are no longer
re-validated.
"""
from fractions import Fraction

from pvi_moduli.verify import run_suite

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
BUDGET = 360_000


def test_verify_all_stays_within_its_fraction_budget():
    count = 0
    originals = {name: Fraction.__dict__[name] for name in ARITHMETIC}

    def counted(op):
        def wrapper(a, b):
            nonlocal count
            count += 1
            return op(a, b)
        return wrapper

    try:
        for name, op in originals.items():
            setattr(Fraction, name, counted(op))
        reports = run_suite("all", seed=1, samples=50, bound=64)
    finally:
        for name, op in originals.items():
            setattr(Fraction, name, op)
    assert all(r.passed for r in reports)
    assert count <= BUDGET, f"{count} Fraction operations, budget {BUDGET}"
