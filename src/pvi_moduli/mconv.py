"""Middle-convolution exponent calculus for rank-2 data at four points.

All bookkeeping happens on rational rotation numbers (exponents mod 1) of
the local monodromy eigenvalues.  The convolution acts on `Weights`
(exponents mu_i ± eps_i, 0 < eps_i < 1/2) and returns `Weights`; odd
degree, sum(mu) = -1/2 mod 1, is a precondition of `mc_exponents`.
A convolver choice picks one eigenvalue per point (sign vector sigma) and
rank-1 twist exponents z_i with sum(z) = -sum of the chosen exponents.

The transformed eigenvalue pair at t_i is {z_i, z_i + y_i} with

    y_i = -1/2 + sum_j sigma_j eps_j - 2 sigma_i eps_i   (mod 1).

This is Okamoto's s0 on the signed exponents kappa_sigma = (k0, 2 sigma_1
eps_1, ..., 2 sigma_4 eps_4), k0 = 1/2 - sum_j sigma_j eps_j by the Fuchs
relation: y_i = -okamoto_s0(kappa_sigma)_i, proved over Q(eps_1..eps_4) in
tests/test_certificates.py.  So eps'_i = frac(okamoto_s0(kappa_sigma)_i)/2
lies in (0, 1/2) and mu'_i = z_i - eps'_i.  When the resulting sum(mu')
lands at 0 instead of -1/2 mod 1 (even degree), the earliest point is
flipped (eps' -> 1/2 - eps', mu' -> mu' + 1/2) to restore odd degree.
The zone of eps' is independent of the z_i and of any residual
relabeling, which changes eps' only by elementary-transformation pairs.
The eps' and the parity are computed on the integer eps `Weights.cleared`
holds; `mc_exponents` builds Fractions only for its result, and
`zone_interchange_check` classifies the integer eps'.  Only
`exact` and the eps layer of `stability` are read: no normal form loads.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import DegenerateInput, SpecialParameters
from .exact import HALF, Rat, okamoto_s0
from .stability import Weights, ZONE_STABLE, classify_numerators, nonspecial_eps


def _mod1(x: Rat) -> Rat:
    return x - (x.numerator // x.denominator)


def odd_degree_weights(eps) -> Weights:
    """Weights with these eps and mu = (0, 0, 0, -1/2): odd degree."""
    return Weights(mu=(Fraction(0),) * 3 + (-HALF,), eps=tuple(Fraction(e) for e in eps))


def parse_sigma(text: str):
    if len(text) != 4 or any(c not in "+-" for c in text):
        raise DegenerateInput("sigma must be four signs like '++-+'")
    return tuple(1 if c == "+" else -1 for c in text)


def sigma_text(sigma) -> str:
    return "".join("+" if s > 0 else "-" for s in sigma)


def nonspecial_exponents(w: Weights) -> bool:
    """All sixteen signed eps sums avoid the half-integers."""
    return nonspecial_eps(w.eps)


def defect(r: int, n: int, multiplicities) -> int:
    """(n - 2) r - sum of the convolver multiplicities."""
    return (n - 2) * r - sum(multiplicities)


def mc_exponents(w: Weights, sigma: str = "++++", z=None) -> Weights:
    """Exponent data of the middle convolution for the convolver choice
    `sigma` (text as `parse_sigma` reads it) with twist exponents `z`.

    The default twists are z1 = z2 = z3 = 0 with z4 absorbing the product
    constraint sum(z) = -sum(chosen exponents) mod 1; a given z must meet
    it.  The output eigen-exponent pair at t_i is {z_i, z_i + y_i}; see
    the module docstring for the (mu', eps') normalization.
    """
    if _mod1(sum(w.mu)) != HALF:
        raise DegenerateInput("odd-degree normalization needs sum(mu) = -1/2 mod 1")
    signs = parse_sigma(sigma)
    chosen = sum(w.mu[i] + signs[i] * w.eps[i] for i in range(4))
    if z is None:
        z = (Fraction(0), Fraction(0), Fraction(0), _mod1(-chosen))
    elif len(z) != 4:
        raise DegenerateInput("four twist exponents required")
    elif _mod1(sum(z) + chosen) != 0:
        raise DegenerateInput("twist exponents violate the product constraint")
    if not nonspecial_exponents(w):
        raise SpecialParameters("signed eps sums hit a half-integer")
    nums, den = w.cleared
    eps_out, flipped = _convolve(nums, den, signs)
    unit = 4 * den
    # z_i = mu'_i + eps'_i, and z_1 = mu'_1 - eps'_1 when the first pole was flipped
    sides = (1 if flipped else -1, -1, -1, -1)
    mu_out = tuple(_mod1(zi + Fraction(s * n, unit)) for zi, s, n in zip(z, sides, eps_out))
    return Weights(mu=mu_out, eps=tuple(Fraction(n, unit) for n in eps_out))


def _convolve(nums, den: int, sigma) -> tuple:
    """The eps' of the convolution of nonspecial eps_i = nums[i] / den.

    Returns (numerators of eps' over 2D, whether the first pole was
    flipped), D = 2 den.  kappa_sigma is held as integers over D, so
    eps'_i = frac(okamoto_s0(kappa_sigma)_i)/2 is the image numerator mod D
    over 2D, never 0 for nonspecial eps.  For every z that `mc_exponents`
    accepts, sum(mu') = k0 - sum(eps') mod 1, which is 0 (even degree:
    flip) or 1/2.
    """
    d = 2 * den
    kappa = [4 * s * n for s, n in zip(sigma, nums)]
    k0 = (d - sum(kappa)) // 2                   # the Fuchs relation over D
    eps_out = [k % d for k in okamoto_s0(k0, *kappa)[1:]]
    flipped = (2 * k0 - sum(eps_out)) % (2 * d) == 0
    if flipped:
        eps_out[0] = d - eps_out[0]
    return eps_out, flipped


def zone_interchange_check(w: Weights):
    """Search the sixteen convolver choices from an unstable-zone input.

    Returns a report dict: the input zone, the zone reached by every
    sigma, the subset of sigma reaching the stable zone, and the result
    of the all-plus choice.  The zone of an image does not depend on the
    twists z_i, so the images are classified from their integer eps'.  The
    mu are not read: the images are those of odd-degree weights with these eps.
    Unstable eps are nonspecial: zone A's signed sums lie in (-1/2, 1/2), and
    zone S (`stability.ZONE_CONTACT`) is A moved by `et_pair` at S, which keeps nonspecial.
    """
    nums, den = w.cleared
    zone_in = classify_numerators(nums, den)
    if zone_in == ZONE_STABLE:
        raise DegenerateInput("input must lie in an unstable zone")
    per_sigma = {sigma_text(signs): classify_numerators(_convolve(nums, den, signs)[0], 4 * den)
                 for signs in product((1, -1), repeat=4)}
    stable_sigmas = [sg for sg, label in per_sigma.items() if label == ZONE_STABLE]
    return {
        "input_zone": zone_in,
        "zones": per_sigma,
        "stable_sigmas": stable_sigmas,
        "all_plus_zone": per_sigma["++++"],
        "found_stable": bool(stable_sigmas),
    }

