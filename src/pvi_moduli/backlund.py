"""The group of birational symmetries acting on (kappa, q, p).

Generators: the four parabolic switches s1..s4, the three cross-ratio
preserving pole permutations r_(ij)(kl), and the extra Okamoto involution
s0.  On a state with k0 = (1 - k1 - k2 - k3 - k4)/2:

    s_i (i = 1, 2, 3): k_i -> -k_i, k0 -> k0 + k_i,  p -> p - k_i/(q - t_i)
    s_4:               k_4 -> -k_4, k0 -> k0 + k4,  (q, p) fixed
    s_0:               kappa -> okamoto_s0(kappa),  q -> q + k0/p
    r_(12)(34):  kappa -> (k2, k1, k4, k3),  q -> t(q-1)/(q-t),
                 p -> -(q-t)((q-t)p + k0)/(t(t-1))
    r_(13)(24):  kappa -> (k3, k4, k1, k2),  q -> (q-t)/(q-1),
                 p -> (q-1)((q-1)p + k0)/(t-1)
    r_(14)(23):  kappa -> (k4, k3, k2, k1),  q -> t/q,
                 p -> -q(qp + k0)/t

The p-shift of s_i uses the coefficient k_i: that is what makes each s_i
an involution, and it reproduces the parabolic switch exactly (the
composite s1 s2 s3 s4 sends p to p - k1/q - k2/(q-1) - k3/(q-t), the
denominator of the alternative parabolic coordinate Q').  s_4 is the
same rule at t_4 = oo, where there is no p-shift.

The permutations are one rule r_c: c = 3, 2, 1 is the finite pole swapped
with oo and the other two poles a, b are swapped.  kappa is permuted by
(c 4)(a b), so k0 is unchanged, and with w = q - t_c and d_c = P'(t_c)
(`finite_pole`), q -> t_c + d_c/w and p -> -w(wp + k0)/d_c, which keeps
dq ^ dp.  Each generator writes the new k0 in the closed form above
instead of re-deriving it from k1..k4, and keeps 2*k0 + k1 + ... + k4 = 1:
`KappaParams.from_strs` checks that relation on input, and
tests/test_certificates.py proves it is kept.

Words act left-to-right: apply_word([g, h], s) = h(g(s)).  States are
`PQState`s; every formula here needs a finite q and raises
DegenerateInput at q = inf.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Iterable, Optional, Sequence

from .connection import KappaParams, PQState, finite_pole, pole_gap
from .errors import DegenerateInput, NoFiniteIntersection
from .exact import Dual, Rat, is_inf, okamoto_s0

# The symmetry group acts on the same moduli-state type as every other
# layer; `SymState` is another name for it.
SymState = PQState


def q_of(s: PQState) -> Rat:
    """The apparent-singularity fibration coordinate q, which every
    symmetry formula needs finite."""
    if is_inf(s.q):
        raise DegenerateInput("the symmetry formulas act on finite q only, got q = inf")
    return s.q


def _s0(s: PQState) -> PQState:
    if s.p == 0:
        raise DegenerateInput("s0 needs p != 0")
    k = s.kappa
    return s.with_kappa(KappaParams(*okamoto_s0(k.k0, k.k1, k.k2, k.k3, k.k4)),
                        q=s.q + k.k0 / s.p)


def _s(i: int) -> Callable[[PQState], PQState]:
    def gen(s: PQState) -> PQState:
        pole = s.poles[i - 1]
        if s.q == pole:
            raise DegenerateInput(f"s{i} has a pole at q = {pole}")
        k = list(s.kappa.all4)
        ki = k[i - 1]
        k[i - 1] = -ki
        return s.with_kappa(KappaParams(s.k0 + ki, *k),
                            p=s.p if i == 4 else s.p - ki / pole_gap(s.q, s.t, i))
    return gen


# Each permutation generator and the two pole pairs it swaps.
_R_PAIRS = {"r12_34": ((1, 2), (3, 4)), "r13_24": ((1, 3), (2, 4)), "r14_23": ((1, 4), (2, 3))}
_R_FOR_PAIR = {frozenset(pair): r for r, pairs in _R_PAIRS.items() for pair in pairs}


def _r(name: str) -> Callable[[PQState], PQState]:
    # (a b), then (c 4): c is the finite pole swapped with infinity
    (a, b), (c, _) = sorted(_R_PAIRS[name], key=lambda pair: 4 in pair)

    def gen(s: PQState) -> PQState:
        tc, dc = finite_pole(s.t, c)
        if s.q == tc:
            raise DegenerateInput(f"{name} has a pole at q = {('0', '1', 't')[c - 1]}")
        k = [s.k0, *s.kappa.all4]
        k[a], k[b], k[c], k[4] = k[b], k[a], k[4], k[c]
        w = pole_gap(s.q, s.t, c)
        q = dc / w if c == 1 else tc + dc / w  # t_1 = 0
        return s.with_kappa(KappaParams(*k), q=q, p=-w * (w * s.p + s.k0) / dc)
    return gen


GENERATORS: Dict[str, Callable[[PQState], PQState]] = {
    "s0": _s0, **{f"s{i}": _s(i) for i in (1, 2, 3, 4)}, **{r: _r(r) for r in _R_PAIRS},
}
ALPHABET = tuple(GENERATORS)


def apply_generator(name: str, s: PQState) -> PQState:
    q_of(s)
    if name not in GENERATORS:
        raise DegenerateInput(f"unknown generator {name!r}; alphabet: {', '.join(ALPHABET)}")
    return GENERATORS[name](s)


def apply_word(word: Sequence[str], s: PQState) -> PQState:
    """Left-to-right composition; a degenerate step aborts with its index."""
    for step, name in enumerate(word):
        try:
            s = apply_generator(name, s)
        except DegenerateInput as exc:
            raise _degenerate_step(step, name, exc) from exc
    return s


def _degenerate_step(step: int, name: str, exc: DegenerateInput) -> DegenerateInput:
    return DegenerateInput(f"word degenerates at step {step} ({name}): {exc}")


def parse_word(text: str) -> tuple:
    """The generator names of a comma-separated word, each checked before any step is taken."""
    word = tuple(w.strip() for w in text.split(",") if w.strip())
    for step, name in enumerate(word):
        if name not in GENERATORS:
            raise DegenerateInput(f"unknown generator {name!r} at step {step}; "
                                  f"alphabet: {', '.join(ALPHABET)}")
    return word


# Composites realizing integer shifts of the exponents.  The pole
# permutation conjugates the parabolic switches, so the s1 s2 block must
# come before the first s0 to shift the first two exponents:
#   WORD_SHIFT_12: kappa -> (k1+1, k2+1, k3, k4)
#   WORD_SHIFT_34: kappa -> (k1, k2, k3+1, k4+1)
#   WORD_SCHLESINGER: kappa -> (1-k1, 1-k2, k3, k4), the closed form below.
WORD_SHIFT_12 = ("r12_34", "s1", "s2", "s0", "s3", "s4", "s0")
WORD_SHIFT_34 = ("r12_34", "s3", "s4", "s0", "s1", "s2", "s0")
WORD_SCHLESINGER = ("r12_34", "s0", "s3", "s4", "s0")

def pair_fibration_word(i: int, j: int) -> tuple:
    """The composite whose q-coordinate is the fibration attached to the
    pairwise unstable zone C(i, j).

    It acts on the exponents by k -> 1 - k at poles i and j (an
    elementary-transformation pair): [r, s0, s_k, s_l, s0] with (k, l)
    the complementary pair and r the permutation pairing (i j)(k l).
    The Higgs-limit zero divisor for C(i, j)-zone weights is
    {t_i, t_j, q o word}.
    """
    if i == j or not ({i, j} <= {1, 2, 3, 4}):
        raise DegenerateInput("pair indices must be distinct in 1..4")
    k, l = sorted({1, 2, 3, 4} - {i, j})
    return (_R_FOR_PAIR[frozenset({i, j})], "s0", f"s{k}", f"s{l}", "s0")


def full_flip_fibration_word() -> tuple:
    """A composite whose q-coordinate is the fibration attached to the
    all-contact unstable zone (degree -1 destabilizer).

    Any two complementary pair words compose to the same transformation;
    the (1,2)(3,4) pairing is used.  The Higgs-limit zero divisor for that
    zone is {t_1, t_2, t_3, t_4, q o word}.
    """
    return pair_fibration_word(1, 2) + pair_fibration_word(3, 4)


def schlesinger_composite_qp(s: PQState) -> PQState:
    """Closed form of the composite WORD_SCHLESINGER.

    kappa goes to (1-k1, 1-k2, k3, k4), so k0 goes to k0 + k1 + k2 - 1, and

        q' = t (q-1)(q-t) [p^2 + ((1-k1-k2)/(q-1) - k3/(q-t)) p
                           + k0(k0+k4)/((q-1)(q-t))] / D,
        p' = -D / (t(t-1) p),     D = ((q-t)p + k0 + k4)((q-t)p + k0).
    """
    k, t, q, p = s.kappa, s.t, q_of(s), s.p
    if p == 0 or q in (1, t):
        raise DegenerateInput("composite needs p != 0 and q away from 1, t")
    dd = ((q - t) * p + k.k0 + k.k4) * ((q - t) * p + k.k0)
    if dd == 0:
        raise DegenerateInput("composite denominator vanishes")
    num = p * p + ((1 - k.k1 - k.k2) / (q - 1) - k.k3 / (q - t)) * p \
        + k.k0 * (k.k0 + k.k4) / ((q - 1) * (q - t))
    q2 = t * (q - 1) * (q - t) * num / dd
    p2 = -dd / (t * (t - 1) * p)
    return s.with_kappa(KappaParams(k.k0 + k.k1 + k.k2 - 1, 1 - k.k1, 1 - k.k2, k.k3, k.k4),
                        q=q2, p=p2)


# ---------------------------------------------------------------------------
# Fibration coordinates
# ---------------------------------------------------------------------------

def big_q_of(s: PQState) -> Rat:
    """The parabolic fibration coordinate Q = q + k0/p."""
    if s.p == 0:
        raise DegenerateInput("Q needs p != 0")
    return q_of(s) + s.k0 / s.p


def big_q_prime_of(s: PQState) -> Rat:
    """The coordinate of the alternative parabolic structure:
    Q' = Q o s1 s2 s3 s4 = q + (1-k0)/(p - k1/q - k2/(q-1) - k3/(q-t))."""
    return big_q_of(apply_word(("s1", "s2", "s3", "s4"), s))


def al_chart(s: PQState):
    """(x, y) = (q, q + k0/p): the two fibration coordinates as a chart
    on P^1 x P^1; the Okamoto involution becomes (x, y) -> (y, x)."""
    return (q_of(s), big_q_of(s))


def symplectic_check(s: PQState) -> bool:
    """Exact check of k0 * det d(x,y)/d(q,p) / (x-y)^2 = -1 via dual numbers."""
    q_of(s)
    if s.p == 0 or s.k0 == 0:
        raise DegenerateInput("symplectic identity needs p != 0 and k0 != 0")
    k0 = s.k0
    # the chart is (x, y) = (q, q + k0/p): dx/dq = 1 and dx/dp = 0, so the
    # Jacobian determinant is dy/dp, read off y on p + delta
    y = s.q + k0 / Dual.var(s.p)
    # y - x = k0/p, nonzero after the checks above
    return k0 * y.der / ((y.val - s.q) ** 2) == -1


def transversality_solve(lambda1: Rat, lambda2: Rat, k0: Rat):
    """The unique solution of {q = lambda1, Q = lambda2}: p = k0/(l2 - l1).

    Equal fiber values only meet at infinity: NoFiniteIntersection.
    """
    if k0 == 0:
        raise DegenerateInput("k0 must be nonzero")
    if lambda1 == lambda2:
        raise NoFiniteIntersection("the two fibers meet only at infinity")
    return (lambda1, k0 / (lambda2 - lambda1))


# ---------------------------------------------------------------------------
# Relation report
# ---------------------------------------------------------------------------

# (name, left word, right word); comprehensions leave no loop variable in the module
RELATION_WORDS = [
    *((f"s{i}^2 = 1", (f"s{i}", f"s{i}"), ()) for i in range(5)),
    *((f"s{i} s{j} = s{j} s{i}", (f"s{i}", f"s{j}"), (f"s{j}", f"s{i}"))
      for i, j in combinations((1, 2, 3, 4), 2)),
    *((f"s0 s{i} s0 = s{i} s0 s{i}", ("s0", f"s{i}", "s0"), (f"s{i}", "s0", f"s{i}"))
      for i in (1, 2, 3, 4)),
    *((f"{r}^2 = 1", (r, r), ()) for r in _R_PAIRS),
    *((f"{r} s{a} = s{b} {r}", (r, f"s{a}"), (f"s{b}", r))
      for r, pairs in _R_PAIRS.items() for i, j in pairs for a, b in ((i, j), (j, i))),
]


def walk_prefixes(words: Iterable[tuple], states: dict) -> dict:
    """Fill `states`, a {word prefix: state} table holding at least the
    empty word, with every prefix of each word, each made once from the
    prefix before it.  Words are walked in order, each left to right, so a
    degenerate step raises what `apply_word` raises for that word: the same
    step index and generator name."""
    for word in words:
        for step, name in enumerate(word):
            prefix = word[:step + 1]
            if prefix not in states:
                try:
                    states[prefix] = apply_generator(name, states[prefix[:-1]])
                except DegenerateInput as exc:
                    raise _degenerate_step(step, name, exc) from exc
    return states


def check_relations(sample: PQState, states: Optional[dict] = None):
    """Evaluate every group relation on the sample; returns a list of
    (relation, holds, witness) with exact states in the witness.

    The 30 relations spell 112 generator steps but only 68 distinct word
    prefixes, so each prefix is made once by `walk_prefixes`.  `states`,
    if given, is the prefix table to fill, so that a caller can extend it
    with more words of the same sample.
    """
    states = {} if states is None else states
    states[()] = sample
    walk_prefixes((word for _, left, right in RELATION_WORDS for word in (left, right)), states)
    out = []
    for name, left, right in RELATION_WORDS:
        lhs, rhs = states[left], states[right]
        holds = (lhs == rhs)
        witness = None if holds else {"lhs": lhs, "rhs": rhs}
        out.append((name, holds, witness))
    return out
