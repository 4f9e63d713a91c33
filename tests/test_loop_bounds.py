"""Every loop in `src/pvi_moduli` whose trip count depends on values has a
bound.  A `for` loop runs over a finite iterable; a `while` loop is
listed in `BOUNDED_WHILE` with what bounds it, so a new one fails here
until its bound is written down.  Rejection sampling goes through
`RationalSampler.retry`, a `for` loop of `RETRY_LIMIT` draws, and has no
`while` loop of its own."""
import ast
from pathlib import Path

import pytest

from pvi_moduli.errors import SamplerExhausted
from pvi_moduli.sampling import RETRY_LIMIT, RationalSampler

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pvi_moduli"

# "module.function" -> what bounds its while loop
BOUNDED_WHILE = {
    "exact.poly_trim": "pops one coefficient per pass: at most the list's length",
    "verify.et_orbit_identities": "adds each unseen eps once: the 8 weights of the orbit",
}


def while_loops():
    """("module.function", loop) for every while loop of the package, the
    function being the innermost one around it."""
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)]
        while todo:
            node, func = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            if isinstance(node, ast.While):
                yield f"{path.stem}.{func}", node
            todo.extend((child, func) for child in ast.iter_child_nodes(node))


def test_every_while_loop_is_listed_with_its_bound():
    assert sorted(name for name, _ in while_loops()) == sorted(BOUNDED_WHILE)


def test_no_while_true():
    assert not [name for name, loop in while_loops()
                if isinstance(loop.test, ast.Constant) and loop.test.value]


class ZeroNumerators:
    """An rng whose first `2 RETRY_LIMIT` draws are the least allowed
    value, 0 for a numerator and 1 for a denominator, and the largest
    after that: `RETRY_LIMIT` zero pairs, then a nonzero one."""

    def __init__(self):
        self.draws = 0

    def randint(self, lo, hi):
        self.draws += 1
        return max(lo, 0) if self.draws <= 2 * RETRY_LIMIT else hi


def test_a_nonzero_rational_gives_up_after_the_retry_limit():
    rs = RationalSampler(seed=1, bound=5)
    rs.rng = ZeroNumerators()
    with pytest.raises(SamplerExhausted,
                       match=f"^sampler found no acceptable value in {RETRY_LIMIT} draws "
                             "at bound 5; try a larger bound$"):
        rs.rat(nonzero=True)
    assert rs.rejections == RETRY_LIMIT and rs.rng.draws == 2 * RETRY_LIMIT
