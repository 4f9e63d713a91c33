"""Integer intersection theory on the rank-10 Picard lattice of the
8-point blow-up of the second Hirzebruch surface.

Basis: (C0, F, E1+, E1-, E2+, E2-, E3+, E3-, E4+, E4-) with
C0^2 = -2, F^2 = 0, C0.F = 1, (Ei±)^2 = -1 and all other products zero.
Derived classes: C1 = C0 + 2F, F'_i = F - Ei+ - Ei-, the anticanonical
class Y = 2C0 + F'_1 + ... + F'_4 and its reduction Y_red = C0 + sum F'_i.

`enumerate_transversal` lists the fiber classes of the affine-line
fibrations transversal to the |F| one; exactly the sixteen
C1 + F - sum_i Ei^{s_i}.  It searches at most 2 * 3^4 = 162 candidates,
whatever n_max is, as plain integer tuples under the one form `_form`,
and builds a `DivClass` only for each survivor.  `sigma_label` reads the
sign pattern from a 16-entry table built once from `L_sigma`.
"""
from __future__ import annotations

from itertools import product

from .errors import DegenerateInput
from .exact import Value

RANK = 10


class DivClass(Value):
    def __init__(self, coeffs: tuple):
        if len(coeffs) != RANK or not all(isinstance(c, int) for c in coeffs):
            raise DegenerateInput("a divisor class is an integer vector of length 10")
        self.__dict__["coeffs"] = coeffs

    def __add__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        return DivClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, n: int) -> "DivClass":
        return DivClass(tuple(n * a for a in self.coeffs))


def _basis(i: int) -> DivClass:
    return DivClass(tuple(1 if j == i else 0 for j in range(RANK)))


C0 = _basis(0)
F = _basis(1)


def E(i: int, sign: str) -> DivClass:
    """Exceptional class over the point b_i^sign, i in 1..4, sign '+'/'-'."""
    if i not in (1, 2, 3, 4) or sign not in ("+", "-"):
        raise DegenerateInput("E(i, sign) needs i in 1..4 and sign '+' or '-'")
    return _basis(2 + 2 * (i - 1) + (0 if sign == "+" else 1))


C1 = C0 + 2 * F


def F_prime(i: int) -> DivClass:
    return F - E(i, "+") - E(i, "-")


Y = 2 * C0 + F_prime(1) + F_prime(2) + F_prime(3) + F_prime(4)
Y_RED = C0 + F_prime(1) + F_prime(2) + F_prime(3) + F_prime(4)


def L_sigma(sigma) -> DivClass:
    """C1 + F - sum_i E_i^{sigma_i} for a sign pattern like '+-++'."""
    if len(sigma) != 4 or any(s not in ("+", "-") for s in sigma):
        raise DegenerateInput("L_sigma needs a pattern of exactly four '+'/'-' signs")
    out = C1 + F
    for i, s in enumerate(sigma, start=1):
        out = out - E(i, s)
    return out


def E_prime_minus(i: int) -> DivClass:
    """Proper transform of the section through the three b_j^- with j != i:
    C1 - sum_{j != i} Ej^-, a (-1)-class."""
    out = C1
    for j in range(1, 5):
        if j != i:
            out = out - E(j, "-")
    return out


def _form(a: tuple, b: tuple) -> int:
    """The intersection form on two coefficient tuples."""
    return (-2 * a[0] * b[0] + a[0] * b[1] + a[1] * b[0]
            - sum(x * y for x, y in zip(a[2:], b[2:])))


def intersect(d1: DivClass, d2: DivClass) -> int:
    return _form(d1.coeffs, d2.coeffs)


def form_signature():
    """(n_plus, n_minus, n_zero) of the form, by elimination of its Gram
    matrix on integers: row j -> |piv| row j - sign(piv) a[j][k] row k
    scales row j by |piv| > 0, so each pivot keeps its sign over Q: -2, 1,
    then -1 eight times, with no swap.  A zero pivot raises DegenerateInput."""
    basis = [_basis(i) for i in range(RANK)]
    a = [[intersect(x, y) for y in basis] for x in basis]
    pos = neg = 0
    for k in range(RANK):
        piv = a[k][k]
        if piv == 0:
            raise DegenerateInput(f"zero pivot at step {k} of the Gram elimination")
        if piv > 0:
            pos, sign = pos + 1, 1
        else:
            neg, sign = neg + 1, -1
        for j in range(k + 1, RANK):
            f = a[j][k]
            if f != 0:
                for m in range(k, RANK):
                    a[j][m] = sign * (piv * a[j][m] - f * a[k][m])
    return (pos, neg, 0)


# L'.F'_i >= 0 and L'.Ei± >= 0 for i = 1..4, as coefficient tuples
_NEF_TESTS = tuple(d.coeffs for i in range(1, 5)
                   for d in (F_prime(i), E(i, "+"), E(i, "-")))


def enumerate_transversal(n_max: int):
    """All classes L' = C1 + nF - sum a_i Ei+ - sum b_i Ei- with
    0 <= n <= n_max satisfying L'.F'_i >= 0, L'.Ei± >= 0, L'.Y_red = 1
    and L'^2 = 0.

    The per-point bound a_i, b_i in {0, 1} with a_i + b_i <= 1 is derived
    from the first two inequality families rather than assumed; the search
    space below is the survivor set of that derivation.  So there are at
    most 2 * 3^4 = 162 candidates (n <= min(n_max, 1)), whatever n_max is.
    Each is a plain tuple of 10 ints that runs every test above; a
    `DivClass` is built only for a survivor.
    """
    if n_max < 1:
        raise DegenerateInput("n_max must be at least 1")
    # L'.Ei+ = a_i >= 0 and L'.Ei- = b_i >= 0 bound the coefficients below;
    # L'.F'_i = 1 - a_i - b_i >= 0 then forces (a_i, b_i) in {(0,0),(1,0),(0,1)}.
    per_point = [(a, b) for a in range(2) for b in range(2) if 1 - a - b >= 0]
    # So m = sum(a_i + b_i) <= 4, and L'^2 = 2n + 2 - m = 0 forces n <= 1:
    # no n above 1 can contribute, whatever n_max is.
    y_red = Y_RED.coeffs
    out = []
    for n in range(min(n_max, 1) + 1):
        for choice in product(per_point, repeat=4):
            # C1 + nF - sum a_i Ei+ - sum b_i Ei-
            cand = (1, 2 + n) + tuple(-c for ab in choice for c in ab)
            if _form(cand, y_red) != 1:
                continue
            if _form(cand, cand) != 0:
                continue
            if all(_form(cand, t) >= 0 for t in _NEF_TESTS):
                out.append(DivClass(cand))
    return out


_SIGMA_OF = {L_sigma(sigma).coeffs: "".join(sigma) for sigma in product("+-", repeat=4)}


def sigma_label(d: DivClass):
    """Sign pattern of a class of the form C1 + F - sum Ei^{s_i}, else None."""
    return _SIGMA_OF.get(d.coeffs)


def singular_fiber_decompositions():
    """The reducible-fiber identities of the two fibrations, as exact
    vector identities; returns a list of (name, holds) pairs."""
    checks = []
    L = L_sigma("----")
    for i in range(1, 5):
        checks.append((f"F = F'_{i} + E{i}+ + E{i}-",
                       F == F_prime(i) + E(i, "+") + E(i, "-")))
    for i in range(1, 5):
        checks.append((f"L = F'_{i} + E'_{i}- + E{i}+",
                       L == F_prime(i) + E_prime_minus(i) + E(i, "+")))
        checks.append((f"(E'_{i}-)^2 = -1", intersect(E_prime_minus(i), E_prime_minus(i)) == -1))
    checks.append(("L.C0 = 1", intersect(L, C0) == 1))
    for i in range(1, 5):
        checks.append((f"L.E{i}- = 1", intersect(L, E(i, "-")) == 1))
    checks.append(("L.F = 1", intersect(L, F) == 1))
    return checks


def anticanonical_check() -> bool:
    """Y = 2C0 + 4F - sum Ei± as a vector, Y.C0 = Y.F'_i = 0 and Y^2 = 0."""
    expanded = 2 * C0 + 4 * F
    for i in range(1, 5):
        expanded = expanded - E(i, "+") - E(i, "-")
    return (Y == expanded and intersect(Y, C0) == 0
            and all(intersect(Y, F_prime(i)) == 0 for i in range(1, 5)) and intersect(Y, Y) == 0)
