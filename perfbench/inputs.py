"""Seeded inputs for the three workloads.

The benchmark makes every input from the workload seed with its own
random generator; the program only ever sees the generated values.
Outputs are recorded in ``expected.json`` for ``POOL`` input sets of
``verify-all`` and of ``cli-cold``, which pick their sets from the seed
modulo ``POOL``; ``orbit-tall`` checks itself and takes any seed.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

POOL = 16

# run_suite arguments of the north-star row: pvi verify --suite all --samples 50 --bound 64
SAMPLES = 50
BOUND = 64

# orbit-tall: 8 starting states whose entries have numerators and
# denominators of exactly ORBIT_BITS bits, each iterated ORBIT_STEPS times.
ORBIT_STATES = 8
ORBIT_BITS = 32
ORBIT_STEPS = 12
ORBIT_WARMUP_STEPS = 6   # steps per state in each set-up's warm-up

# Denominators of the cli-cold parameters.  Distinct primes make every
# signed sum of the four values a fraction with an odd denominator above 1,
# so kappa is generic, the weights are nonspecial and no zone wall is hit.
_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def verify_suite_seed(seed: int) -> int:
    """The run_suite seed of every verify-all pass: one of the POOL recorded
    seeds 1..POOL.  A pass makes nearly the same number of Fraction
    operations on each of them (795k to 800k)."""
    return 1 + (seed - 1) % POOL


def q_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _tall_rat(rng: random.Random, bits: int) -> Fraction:
    lo, hi = 1 << (bits - 1), (1 << bits) - 1
    while True:
        num, den = rng.randint(lo, hi), rng.randint(lo, hi)
        if num != den and gcd(num, den) == 1:
            return Fraction(rng.choice((1, -1)) * num, den)


def orbit_states(seed: int):
    """ORBIT_STATES tuples (t, (k1, k2, k3, k4), q, p) of tall rationals."""
    rng = random.Random(f"orbit-tall/{seed}")
    out = []
    while len(out) < ORBIT_STATES:
        t, q, p = (_tall_rat(rng, ORBIT_BITS) for _ in range(3))
        kappa = tuple(_tall_rat(rng, ORBIT_BITS) for _ in range(4))
        if t in (0, 1) or q in (0, 1, t):
            continue
        out.append((t, kappa, q, p))
    return out


def _small_rat(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))
        if v or not nonzero:
            return v


def _prime_fractions(rng: random.Random, upper: Fraction):
    """Four values n/p in (0, upper) over four distinct primes p >= 1/upper."""
    out = []
    for prime in rng.sample([p for p in _PRIMES if p * upper > 1], 4):
        top = -(-upper * prime // 1) - 1          # largest n with n/p < upper
        out.append(Fraction(rng.randint(1, int(top)), prime))
    return tuple(out)


def cli_inputs(index: int):
    """Files and argument lists of the cli-cold queries for one input set.

    Returns (files, queries): files maps a file name to its text, and each
    query is an argument list in which "{dir}" stands for the directory the
    files are written to.
    """
    rng = random.Random(f"cli-cold/{index}")
    kappa = tuple(Fraction(rng.choice([n for n in range(1 - 2 * p, 2 * p) if n % p]), p)
                  for p in rng.sample(_PRIMES, 4))
    k0 = (1 - sum(kappa)) / 2
    while True:
        t, q, p = _small_rat(rng), _small_rat(rng), _small_rat(rng, nonzero=True)
        if t in (0, 1) or q in (0, 1, t):
            continue
        if q + k0 / p not in (0, 1, t):
            break
    state = {"t": q_str(t), "kappa": [q_str(k) for k in kappa], "q": q_str(q), "p": q_str(p)}
    eps = _prime_fractions(rng, Fraction(1, 2))
    eps_a = _prime_fractions(rng, Fraction(1, 8))       # zone A: sum below 1/2
    eps_h = _prime_fractions(rng, Fraction(1, 2))
    i, j = sorted(rng.sample((1, 2, 3, 4), 2))
    sigma = "".join(rng.choice("+-") for _ in range(4))
    word = rng.choice(("r12_34,s1,s2,s0,s3,s4,s0", "s0,s1,r12_34", "s1,s2,s3,s4",
                       "r13_24,s0,s2,s0", "r14_23,s0,s3,s4,s0"))

    def eps_arg(values):
        return ",".join(q_str(v) for v in values)

    files = {"state.json": json.dumps(state, sort_keys=True) + "\n"}
    st = "{dir}/state.json"
    queries = [
        ["connection", "build", "--state", st],
        ["connection", "eigen", "--state", st],
        ["parabolic", "from-connection", "--state", st],
        ["zone", "classify", "--eps", eps_arg(eps)],
        ["zone", "etpair", "--eps", eps_arg(eps), "--i", str(i), "--j", str(j)],
        ["higgs", "limit", "--state", st, "--eps", eps_arg(eps_h)],
        ["symmetry", "apply", "--word", word, "--state", st],
        ["symmetry", "relations", "--state", st],
        ["lattice", "enumerate", "--nmax", "5"],
        ["mc", "transform", "--eps", eps_arg(eps_a), f"--sigma={sigma}"],
        ["mc", "interchange", "--eps", eps_arg(eps_a)],
        ["fibration", "Q", "--state", st],
    ]
    return files, queries
