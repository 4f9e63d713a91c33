"""Normal forms of rank-2 logarithmic connections with poles (0, 1, t, oo).

Conventions.  The underlying bundle is B = O + O(1) with frame <e, f>;
f spans O(1) and the residue matrix at infinity is written in the basis
<e, x*f>.  Local exponents are encoded by kappa = (k0, k1, k2, k3, k4)
with 2*k0 + k1 + k2 + k3 + k4 = 1.  The residue eigenvalue pairs are
(k_i/2, -k_i/2) at the finite poles and (k4/2 - 1/2, -k4/2 - 1/2) at
infinity (the -1/2 shift realizes degree 1).

Two explicit gauges of the same connection are provided.  In both, the
residue at a finite pole t_i is trace-free with eigenvalues +-k_i/2, so
one rule, `_residue(k_i, sigma_i, c_i)`, writes it from its (1,2) entry
c_i and the slope sigma_i of its k_i/2-eigenvector (1, sigma_i), the
parabolic direction; `eigen_table` reads the same three numbers.  With
P = x(x-1)(x-t) and d_i = P'(t_i) (`finite_pole`):

* `build_connection` -- the (q, p) chart.  A(1,2) = (x-q)/P(x), so
  c_i = -(q-t_i)/d_i, and sigma_i = -p P(q)/(q-t_i); the apparent
  singularity is x = q, and p is recovered from A(2,2)|_{x=q} by adding
  sum_i k_i/(2(q-t_i)) over the finite poles.  The residue at infinity
  has eigenvalues k4/2 - 1/2 and -k4/2 - 1/2.

* `build_connection_qp` -- the (Q, p) chart, with the parabolic slopes
  normalized to (0, -1, -u, 0), u = t(Q-1)/(Q-t): the usual (0, 1, u, 0)
  under the automorphism u -> -u, which leaves Q unchanged.  Here
  A(1,2) = p(Q-t)(x-q)/P(x) with q = Q - k0/p, the matrix at infinity is
  minus the sum of the three finite residues (lower triangular with
  diagonal ((k4-1)/2, (1-k4)/2)), and C = 0.

The (q, p) normal form is built once per state: a `PQState` makes its
pole data (k_i, sigma_i, c_i), its normal form and its eigen table the
first time they are asked for and keeps them on the object, and a
`FourPoleConnection` keeps each cleared entry it computes.  Nothing
outlives the object, and equal states built apart share nothing.  The
Higgs layer needs only the pole data: `parabolic.parabolic_from_connection`
reads the parabolic slopes from it and `higgs.theta_divisor` the cleared
entries, in closed form, so a Higgs limit builds no residue matrix.  The
normal form's own `cleared` entries are still summed from its residues,
which is what the connection suite's checks on them test.
Okamoto's s0 on the exponents is `exact.okamoto_s0`, read by `backlund`
and, without loading this module, by `mconv`.  The integrality
predicates hold at the generic point, values not in Q (`exact.is_rational`).
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import DegenerateInput, NormalFormDegenerate, SpecialParameters
from .exact import (HALF, INF, Mat2, ProjRat, Rat, Value, is_inf, is_rational,
                    over_common_denominator, parse_list, pick_sums, proj_from_str, proj_to_str,
                    rat_from_str, rat_to_str)


# ---------------------------------------------------------------------------
# Parameters and residues
# ---------------------------------------------------------------------------

class KappaParams(Value):
    """Exponents with 2*k0 + k1 + ... + k4 = 1, taken as given: `from_strs`
    and `from_k1234` are the checked entry points, and every symmetry
    generator keeps the relation (tests/test_certificates.py)."""

    def __init__(self, k0: Rat, k1: Rat, k2: Rat, k3: Rat, k4: Rat):
        self.__dict__.update(k0=k0, k1=k1, k2=k2, k3=k3, k4=k4)

    @classmethod
    def from_k1234(cls, k1, k2, k3, k4) -> "KappaParams":
        k1, k2, k3, k4 = map(Fraction, (k1, k2, k3, k4))
        return cls((1 - k1 - k2 - k3 - k4) / 2, k1, k2, k3, k4)

    @classmethod
    def generic_from_numerators(cls, nums, den: int) -> "KappaParams":
        """k_i = nums[i]/den and k0 = (1 - k1 - ... - k4)/2, for numerators
        that passed `generic_numerators`: `generic` is that verdict."""
        kappa = cls(Fraction(den - sum(nums), 2 * den), *(Fraction(n, den) for n in nums))
        kappa.__dict__["generic"] = True
        return kappa

    @property
    def finite(self):
        return (self.k1, self.k2, self.k3)

    @property
    def all4(self):
        return (self.k1, self.k2, self.k3, self.k4)

    def to_strs(self):
        return [rat_to_str(k) for k in (self.k0, self.k1, self.k2, self.k3, self.k4)]

    @classmethod
    def from_strs(cls, items) -> "KappaParams":
        vals = parse_list(items, rat_from_str, "kappa")
        if len(vals) == 4:
            return cls.from_k1234(*vals)
        if len(vals) != 5:
            raise DegenerateInput("kappa needs 4 or 5 entries")
        if 2 * vals[0] + sum(vals[1:]) != 1:
            raise DegenerateInput("kappa parameters must satisfy 2*k0 + k1 + ... + k4 = 1")
        return cls(*vals)

    @cached_property
    def generic(self) -> bool:
        """`kappa_generic` of these exponents, computed once per value."""
        return kappa_generic(self)

    def residues(self) -> "ResidueVector":
        """Residue eigenvalues of the degree-1 normal form (lambda = 1)."""
        r_minus = (self.k1 / 2, self.k2 / 2, self.k3 / 2, self.k4 / 2 - HALF)
        r_plus = (-self.k1 / 2, -self.k2 / 2, -self.k3 / 2, -self.k4 / 2 - HALF)
        return ResidueVector(r_plus=r_plus, r_minus=r_minus, lam=1, degree=1)


def kappa_generic(kappa: KappaParams) -> bool:
    """k_i not integers, and no signed sum +-k1+-k2+-k3+-k4 an odd integer
    (`generic_numerators`); True at the generic point, values not in Q."""
    return (not is_rational(*kappa.all4)
            or generic_numerators(*over_common_denominator(kappa.all4)))


def generic_numerators(nums, den: int) -> bool:
    """`kappa_generic` of k_i = nums[i]/den: no n_i a multiple of den, and
    no signed sum s with s/den odd, i.e. s = den mod 2*den."""
    if any(n % den == 0 for n in nums):
        return False
    return not any(s % (2 * den) == den for s in pick_sums((n, -n) for n in nums))


class ResidueVector(Value):
    """Residue eigenvalue data of a lambda-connection of fixed degree.

    r_minus[i] acts on the parabolic direction P_i, r_plus[i] on the
    quotient.  Taken as given; `KappaParams.residues` and
    `elementary_transform_residues` keep sum(r+ + r-) + lam*degree = 0.
    """

    def __init__(self, r_plus: tuple, r_minus: tuple, lam: Rat, degree: int):
        if len(r_plus) != 4 or len(r_minus) != 4:
            raise DegenerateInput("residue vectors carry four poles")
        self.__dict__.update(r_plus=r_plus, r_minus=r_minus, lam=lam, degree=degree)


def kostov_generic(r: ResidueVector) -> bool:
    """No signed sum r_1^{s1} + ... + r_4^{s4} is an integer; True at the
    generic point, values not in Q."""
    if not is_rational(*r.r_plus, *r.r_minus):
        return True
    nums, den = over_common_denominator(r.r_plus + r.r_minus)
    return all(s % den != 0 for s in pick_sums(zip(nums[:4], nums[4:])))


def nonresonant(r: ResidueVector) -> bool:
    """No eigenvalue gap r_i^+ - r_i^- is an integer; True at the generic
    point, values not in Q."""
    return not is_rational(*r.r_plus, *r.r_minus) or all(
        (rp - rm).denominator != 1 for rp, rm in zip(r.r_plus, r.r_minus))


def elementary_transform_residues(r: ResidueVector, i: int) -> ResidueVector:
    """Elementary transformation at pole i (1-based): swaps the eigenvalues
    and shifts the new parabolic one by lambda; degree drops by 1."""
    if i not in (1, 2, 3, 4):
        raise DegenerateInput("pole index must be 1..4")
    j = i - 1
    rp = list(r.r_plus)
    rm = list(r.r_minus)
    rp[j], rm[j] = r.r_minus[j], r.r_plus[j] + r.lam
    return ResidueVector(r_plus=tuple(rp), r_minus=tuple(rm), lam=r.lam, degree=r.degree - 1)


# ---------------------------------------------------------------------------
# States and connection matrices
# ---------------------------------------------------------------------------

class PQState(Value):
    """(t, kappa, q, p): a point of the moduli space in the (q, p) chart, q in P^1."""

    def __init__(self, t: Rat, kappa: KappaParams, q: ProjRat, p: Rat):
        if t in (0, 1):
            raise DegenerateInput("pole position t must avoid 0 and 1")
        self.__dict__.update(t=t, kappa=kappa, q=q, p=p)

    @classmethod
    def make(cls, t, k1234, q, p) -> "PQState":
        """A state from t, the four exponents k1..k4 (k0 derived), q and p."""
        return cls(t=Fraction(t), kappa=KappaParams.from_k1234(*k1234),
                   q=Fraction(q), p=Fraction(p))

    @property
    def k0(self) -> Rat:
        return self.kappa.k0

    def with_kappa(self, kappa: KappaParams, q=None, p=None) -> "PQState":
        """This state with new exponents and, if given, new q and p.  Its t
        is this state's, which passed the test of `__init__` already, so
        the new state is made without testing it again."""
        new = object.__new__(PQState)
        new.__dict__.update(t=self.t, kappa=kappa,
                            q=self.q if q is None else q,
                            p=self.p if p is None else p)
        return new

    @property
    def poles(self):
        return (0, 1, self.t, INF)

    @cached_property
    def pole_data(self) -> tuple:
        """`_finite_pole_data` of this state, computed once per state."""
        return _finite_pole_data(self)

    @cached_property
    def normal_form(self) -> "FourPoleConnection":
        """The (q, p) normal form, built once per state from `pole_data`.
        The residue at infinity (basis <e, x*f>), with eigenvectors (1, k0)
        and (1, k0 + k4), is `_residue(k4, k0, -1)` shifted by -1/2."""
        a1, a2, a3 = (_residue(*d) for d in self.pole_data)
        k = self.kappa
        k0, h4 = k.k0, k.k4 / 2
        e = k0 * (k0 + k.k4)
        return FourPoleConnection(t=self.t, kappa=k, a1=a1, a2=a2, a3=a3,
                                  a4=Mat2(k0 + h4 - HALF, -1, e, -k0 - h4 - HALF),
                                  c=Mat2(0, 0, -e, 0))

    @cached_property
    def eigen_table(self) -> tuple:
        """Closed-form eigenpairs of the residues of `normal_form`, made once
        per state from the same `pole_data`: see `eigen_table`."""
        rows = []
        for ki, sigma, c in self.pole_data:
            h = ki / 2
            rows.append(((h, (1, sigma)), (-h, (1, sigma - ki / c))))
        k = self.kappa
        h = k.k4 / 2
        rows.append(((h - HALF, (1, k.k0)), (-h - HALF, (1, k.k0 + k.k4))))
        return tuple(rows)

    def to_json_dict(self):
        return {"t": rat_to_str(self.t), "kappa": self.kappa.to_strs(),
                "q": proj_to_str(self.q), "p": rat_to_str(self.p)}

    @classmethod
    def from_json_dict(cls, d) -> "PQState":
        """Parse a state file; malformed input raises DegenerateInput."""
        try:
            return cls(t=rat_from_str(d["t"]), kappa=KappaParams.from_strs(d["kappa"]),
                       q=proj_from_str(d["q"]), p=rat_from_str(d["p"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise DegenerateInput(f"malformed state: {exc!r}") from exc


class Sheet(Enum):
    GENERIC = "generic"
    PLUS = "plus"
    MINUS = "minus"


class PPoint(Value):
    """A point of the non-separated line: a base point of P^1 plus, over a
    pole, the choice of one of the two glued copies."""

    def __init__(self, base: ProjRat, sheet: Sheet):
        self.__dict__.update(base=base, sheet=sheet)

    @classmethod
    def over(cls, base: ProjRat, poles, minus) -> "PPoint":
        """The point over `base` for both classifying maps: generic off the
        poles; over pole i the minus copy when minus[i], that is when the
        direction there is the O(1) fiber, else the plus copy."""
        idx = pole_index(base, poles)
        if idx is None:
            return cls(base=base, sheet=Sheet.GENERIC)
        return cls(base=base, sheet=Sheet.MINUS if minus[idx] else Sheet.PLUS)

    def to_json_dict(self):
        return {"base": proj_to_str(self.base), "sheet": self.sheet.value}


class FourPoleConnection(Value):
    """Residue matrices A1..A4 plus the constant part C of A(x).

    A(x) = A1/x + A2/(x-1) + A3/(x-t) + C, and A4 describes the pole at
    infinity in the basis <e, x*f> (see the module docstring for the two
    gauges this package constructs).
    """

    def __init__(self, t: Rat, kappa: KappaParams, a1: Mat2, a2: Mat2, a3: Mat2, a4: Mat2,
                 c: Mat2):
        self.__dict__.update(t=t, kappa=kappa, a1=a1, a2=a2, a3=a3, a4=a4, c=c)

    def finite_residues(self):
        return (self.a1, self.a2, self.a3)

    def cleared(self, entry: str) -> tuple:
        """Coefficients, constant term first, of the polynomial
        A(x)[entry] * x(x-1)(x-t), entry one of "a11", "a12", "a21", "a22",
        by `lagrange_cleared`; each entry is computed once per connection."""
        out = self._cleared.get(entry)
        if out is None:
            r1, r2, r3, c = (getattr(m, entry) for m in (self.a1, self.a2, self.a3, self.c))
            out = tuple(lagrange_cleared(self.t, r1, r2, r3, c))
            self._cleared[entry] = out
        return out

    @cached_property
    def _cleared(self) -> dict:
        """The entries `cleared` has computed for this connection."""
        return {}

    def a12_numerator(self):
        """Coefficients (n0, n1) of the linear polynomial
        A(1,2)(x) * x(x-1)(x-t) = n0 + n1*x."""
        if self.c.a12 != 0:
            raise DegenerateInput("constant part in the (1,2) entry: not logarithmic at infinity")
        n0, n1, n2 = self.cleared("a12")
        if n2 != 0:
            raise DegenerateInput("(1,2) entry has a residue at infinity")
        return (n0, n1)

    def apparent_singularity_base(self) -> ProjRat:
        """The unique zero of the (1,2) entry of A(x)."""
        n0, n1 = self.a12_numerator()
        if n1 == 0:
            if n0 == 0:
                raise DegenerateInput("(1,2) entry vanishes identically")
            return INF
        return -n0 / n1

    def p_invariant(self) -> Rat:
        """Recover p from A(2,2)|_{x=q}: sum_i (A_i[2,2] + k_i/2)/(q - t_i) + C[2,2]."""
        q = self.apparent_singularity_base()
        if is_inf(q) or q in (0, 1, self.t):
            raise NormalFormDegenerate("p-invariant needs q away from the poles")
        return sum(((m.a22 + ki / 2) / pole_gap(q, self.t, i) for i, m, ki in
                    zip((1, 2, 3), self.finite_residues(), self.kappa.finite)), self.c.a22)

    def infinity_residue(self) -> Mat2:
        """Residue of A(x)dx at x = infinity in the basis <e, x*f>.

        Entrywise: for the diagonal, minus the sum of the finite residues,
        with an extra -1 on the (2,2) entry from d(x)/x; the (1,2) entry is
        minus the x^{-2} coefficient of A(1,2); the (2,1) entry is -C(2,1).
        """
        s = self.a1 + self.a2 + self.a3
        _, n1 = self.a12_numerator()
        return Mat2(-s.a11, -n1, -self.c.a21, -s.a22 - 1)

    def to_json_dict(self):
        return {"t": rat_to_str(self.t), "kappa": self.kappa.to_strs(),
                "A1": self.a1.to_strs(), "A2": self.a2.to_strs(),
                "A3": self.a3.to_strs(), "A4": self.a4.to_strs(),
                "C": self.c.to_strs()}


def finite_pole(t: Rat, i: int):
    """(t_i, d_i) for the finite pole i = 1, 2, 3 of (0, 1, t), where
    d_i = P'(t_i) = prod_{j != i} (t_i - t_j) and P = x(x-1)(x-t)."""
    return (0, t) if i == 1 else (1, 1 - t) if i == 2 else (t, t * (t - 1))


def lagrange_cleared(t: Rat, r1, r2, r3, c=0) -> list:
    """Coefficients, constant term first, of r1 (x-1)(x-t) + r2 x(x-t)
    + r3 x(x-1) + c x(x-1)(x-t) over any field, the cubic term only for
    c nonzero: the one Lagrange rule, which `FourPoleConnection.cleared`
    and the Higgs layer's closed-form entries read."""
    r12 = r1 + r2
    out = [r1 * t, -r1 - r12 * t - r3, r12 + r3]
    if c != 0:
        ct = c * t
        out = [out[0], out[1] + ct, out[2] - c - ct, c]
    return out


def pole_gap(q, t: Rat, i: int):
    """q - t_i for the finite pole i = 1, 2, 3 of (0, 1, t): q itself at t_1 = 0."""
    return q if i == 1 else q - 1 if i == 2 else q - t


def _require_buildable(s: PQState):
    if is_inf(s.q) or s.q in (0, 1, s.t):
        raise NormalFormDegenerate(f"apparent singularity q = {s.q} sits at a pole")
    if not s.kappa.generic:
        raise SpecialParameters("kappa parameters are special")


def _residue(k: Rat, sigma: Rat, c: Rat) -> Mat2:
    """The trace-free residue with (1,2) entry c, eigenvalue k/2 on (1, sigma)
    and -k/2 on (1, sigma - k/c): [[a, c], [sigma(k - c sigma), -a]] with
    a = k/2 - c sigma.  Nothing is divided, so c = 0 is allowed."""
    c_sigma = c * sigma
    a11 = k / 2 - c_sigma
    return Mat2(a11, c, sigma * (k - c_sigma), -a11)


def _finite_pole_data(s: PQState):
    """(k_i, sigma_i, c_i) of the (q, p) normal form at each finite pole."""
    _require_buildable(s)
    gaps = [pole_gap(s.q, s.t, i) for i in (1, 2, 3)]
    pt = s.p * gaps[0] * gaps[1] * gaps[2]
    return tuple((ki, -pt / gap, -gap / finite_pole(s.t, i)[1])
                 for i, ki, gap in zip((1, 2, 3), s.kappa.finite, gaps))


def build_connection(s: PQState) -> FourPoleConnection:
    """The (q, p) normal form of `s`: `s.normal_form`, built once per state."""
    return s.normal_form


def build_connection_qp(t: Rat, kappa: KappaParams, big_q: Rat, p: Rat) -> FourPoleConnection:
    """The (Q, p) gauge: with g = Q - t, the slopes are sigma = (0, -1, -u),
    u = t(Q-1)/g, and c_i = g(k0 - p(Q - t_i))/d_i, which may vanish.  The
    slopes are (0, 1, u) under the automorphism u -> -u of B, which leaves
    `q_map_parabolic` unchanged."""
    if t in (0, 1):
        raise DegenerateInput("pole position t must avoid 0 and 1")
    if big_q in (0, 1, t):
        raise NormalFormDegenerate(f"parabolic coordinate Q = {big_q} sits at a pole")
    if not kappa.generic:
        raise SpecialParameters("kappa parameters are special")
    g = big_q - t
    slopes = (0, -1, -t * (big_q - 1) / g)
    poles = (finite_pole(t, i) for i in (1, 2, 3))
    a1, a2, a3 = (_residue(ki, sigma, g * (kappa.k0 - p * (big_q - ti)) / d)
                  for ki, sigma, (ti, d) in zip(kappa.finite, slopes, poles))
    return FourPoleConnection(t=t, kappa=kappa, a1=a1, a2=a2, a3=a3, a4=-(a1 + a2 + a3),
                              c=Mat2.zero())


def eigen_table(s: PQState):
    """Closed-form eigenpairs of the residue matrices of `build_connection`:
    `s.eigen_table`, made once per state.

    Returns, per pole, ((r_minus, v_minus), (r_plus, v_plus)); the v are
    written in the local frame (<e, f> at finite poles, <e, x*f> at
    infinity), so their slopes are the parabolic coordinates u_i.  The
    finite rows read the (k_i, sigma_i, c_i) that `_residue` reads.
    """
    return s.eigen_table


def pole_index(base: ProjRat, poles) -> Optional[int]:
    """The 0-based index of the pole at `base`, None off the poles."""
    return next((i for i, tv in enumerate(poles) if base == tv), None)


def apparent_singularity(s: PQState) -> PPoint:
    """The image of the state on the non-separated line: the point over q,
    on the plus copy over a pole (`PPoint.over` with no u_i = inf)."""
    return PPoint.over(s.q, s.poles, (False,) * 4)
