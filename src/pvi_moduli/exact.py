"""Exact scalar arithmetic, small exact linear algebra and polynomials.

Rational scalars are `fractions.Fraction` (reduced, positive denominator),
re-exported as `Rat`; points of P^1 are `Rat | Infinity`.  `Mat2` is a
2x2 matrix, `Dual` a dual number a + b*delta (delta^2 = 0) for exact
forward-mode derivatives, and polynomials are coefficient lists, constant
term first ([] is zero); the Higgs layer builds its Wronskian with them.
`okamoto_s0`, Okamoto's s0 on the exponents, lives here so that `backlund`
and `mconv` share it and the exponent calculus loads no normal form.
There is no polynomial gcd: a line subbundle is saturated when its two
sections share no zero on P^1, which `stability` tests directly.  These
kernels, the connection and Baecklund formulas and `line_through` never
coerce: they compute over the field of their inputs (Q, or rational
functions in the certificate tests).  Int literals may mix in, but every
`/` has a field element on one side.
`Fraction` is coerced only where numbers come in (parsers, `make`/`of_*`
constructors, the sampler, which tests each weight candidate on integer
numerators over one denominator and coerces once per accepted draw).
The predicates that read `.denominator` test integrality, a statement
about rational numbers, so they and the stability, Higgs and lattice
layers stay over Q.  Their small kernels run
on integers: `parabolic.direction_point` clears each pole and direction
to an integer point of P^2 (by `over_common_denominator`), general
position and the contact sets are one cross product, the contact system
is solved in closed form by `det4`, and the Higgs Wronskian is an integer
polynomial whose known roots `poly_divide_root` divides out.
The value types of every layer derive from `Value`: immutable objects
whose fields are the parameters of their own explicit `__init__`, equal
and hashed by those fields, and printed as `Name(field=value, ...)`.
`solve_linear`, plain textbook Gauss-Jordan elimination over Q, is called
by no package code: it is the reference the tests compare those closed
forms with, and the benchmark traces it as `exact.solve_linear`.
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Sequence, Union

from .errors import DegenerateInput, NoSolution

Rat = Fraction
HALF = Fraction(1, 2)


class Infinity:
    """The point at infinity of P^1, equal only to itself: `__new__` makes
    `INF` the only instance, and `__reduce__` names it, so every copy and
    every pickle protocol gives back `INF` itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return "INF"

    def __repr__(self):
        return "inf"


INF = Infinity()

ProjRat = Union[Rat, Infinity]


def is_inf(v: ProjRat) -> bool:
    return v is INF


# ASCII digits only: Fraction() would also take decimals, exponents (whose
# expansion takes time exponential in the length of "1e-10000000"),
# underscores and non-ASCII digits
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(s: str) -> Rat:
    """Parse "num/den" (or "num") with ASCII digits, surrounding whitespace
    ignored; anything else, or a zero denominator, is DegenerateInput."""
    m = _RATIONAL.fullmatch(s.strip()) if isinstance(s, str) else None
    if m is None or m[2] is not None and int(m[2]) == 0:
        raise DegenerateInput(f"not a rational: {s!r}")
    return Fraction(int(m[1]), int(m[2] or 1))


def rat_to_str(x: Rat) -> str:
    """Canonical serialization "num/den" with positive denominator."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def proj_from_str(s: str) -> ProjRat:
    s = s.strip()
    if s == "inf":
        return INF
    return rat_from_str(s)


def parse_list(items, parse, what: str) -> tuple:
    """`parse` applied to each entry of a JSON list; a string, an object or
    anything else that is not a list is DegenerateInput."""
    if not isinstance(items, list):
        raise DegenerateInput(f"{what} needs a list, not {type(items).__name__}")
    return tuple(parse(s) for s in items)


def proj_to_str(v: ProjRat) -> str:
    return "inf" if is_inf(v) else rat_to_str(v)


def to_json(value):
    """JSON form of an exact value, the one encoder of CLI payloads and
    check witnesses: rationals and infinity as "n/d" and "inf", matrices
    and exponent vectors by `to_strs`, other objects by `to_json_dict`,
    sets sorted; bools, ints, strings and None as they are."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction) or is_inf(value):
        return proj_to_str(value)
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(to_json(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if hasattr(value, "to_strs"):
        return value.to_strs()
    return value.to_json_dict()


def pick_sums(pairs) -> list:
    """The 2^n sums x_1 + ... + x_n that take one entry x_i of each of the
    n pairs (16 for four pairs), built by doubling with 2^(n+1) - 2
    additions instead of n - 1 for each sum."""
    sums = [0]
    for a, b in pairs:
        sums = [s + a for s in sums] + [s + b for s in sums]
    return sums


def okamoto_s0(k0, k1, k2, k3, k4) -> tuple:
    """Okamoto's s0 on the exponents: k_i -> k_i + k0, k0 -> -k0.  It is
    linear, so it reads any field, or integer numerators over a common
    denominator; it keeps 2*k0 + k1 + ... + k4."""
    return (-k0, k1 + k0, k2 + k0, k3 + k0, k4 + k0)


def over_common_denominator(values) -> tuple:
    """(numerators, L) with values[i] = numerators[i] / L, where L is the lcm
    of the denominators: sums and sign tests then run on integers, with no
    gcd per operation."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def det4(m) -> int:
    """Determinant of a 4x4 matrix over any commutative ring, by Laplace
    expansion of its top two rows against the complementary 2x2 minors of
    the bottom two."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


class Value:
    """An immutable value.  Its fields are the parameters of the subclass's
    own `__init__`, which stores them with `self.__dict__.update`; two
    values are equal when they have the same class and equal fields, the
    hash is that of the field values, and the repr reads
    `Name(field=value, ...)`.  `functools.cached_property` still works, as
    it writes to `__dict__` directly."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------------

class Mat2(Value):
    def __init__(self, a11: Rat, a12: Rat, a21: Rat, a22: Rat):
        self.__dict__.update(a11=a11, a12=a12, a21=a21, a22=a22)

    @classmethod
    def zero(cls) -> "Mat2":
        return cls(0, 0, 0, 0)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def scale(self, s) -> "Mat2":
        return Mat2(s * self.a11, s * self.a12, s * self.a21, s * self.a22)

    def matvec(self, v: Sequence[Rat]) -> tuple:
        return (self.a11 * v[0] + self.a12 * v[1],
                self.a21 * v[0] + self.a22 * v[1])

    def det(self) -> Rat:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> Rat:
        return self.a11 + self.a22

    def to_strs(self):
        return [[rat_to_str(self.a11), rat_to_str(self.a12)],
                [rat_to_str(self.a21), rat_to_str(self.a22)]]


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def poly_trim(p) -> list:
    """p as a list without trailing zero coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(*ps) -> list:
    out = []
    for p in ps:
        for i in range(min(len(out), len(p))):
            out[i] += p[i]
        out.extend(p[len(out):])
    return out


def poly_scale(c, p) -> list:
    return [c * a for a in p]


def poly_mul(f, g) -> list:
    if not f or not g:
        return []
    out = [f[0] * b for b in g]
    for i, a in enumerate(f[1:], start=1):
        for j in range(len(g) - 1):
            out[i + j] += a * g[j]
        out.append(a * g[-1])
    return out


def poly_deriv(p) -> list:
    return [i * p[i] for i in range(1, len(p))]


def poly_divide_root(f, a: int, b: int):
    """The quotient of an integer polynomial f by b x - a (b != 0), or None
    when a/b is not a root of f.  For coprime a and b the quotient has
    integer coefficients by Gauss's lemma, so every division is exact: a
    remainder on the way already shows that a/b is no root."""
    if not f:
        return []
    quot = [0] * (len(f) - 1)
    carry = f[-1]
    for k in range(len(f) - 2, -1, -1):
        quot[k], rem = divmod(carry, b)
        if rem:
            return None
        carry = f[k] + a * quot[k]
    return None if carry else quot


# ---------------------------------------------------------------------------
# Exact linear systems
# ---------------------------------------------------------------------------

class LinearSolution(Value):
    def __init__(self, rank: int, particular: tuple, nullspace: tuple):
        # particular: one exact solution; nullspace: a basis of the kernel
        self.__dict__.update(rank=rank, particular=particular, nullspace=nullspace)


def solve_linear(rows: Sequence[Sequence[Rat]], rhs: Sequence[Rat]) -> LinearSolution:
    """Exact Gauss-Jordan elimination over Q, on whole rows.

    Returns the rank, one particular solution and a nullspace basis.
    Raises NoSolution for an inconsistent system.  Each pivot is the first
    nonzero entry of its column at or below the current row, and the
    reduced row echelon form is unique, so the returned basis is
    reproducible.
    """
    m = len(rows)
    if m == 0:
        raise DegenerateInput("empty system")
    n = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    if any(row[n] != 0 for row in a[len(pivots):]):
        raise NoSolution("inconsistent linear system")
    part = [Fraction(0)] * n
    for row, c in zip(a, pivots):
        part[c] = row[n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, c in zip(a, pivots):
            v[c] = -row[fc]
        basis.append(tuple(v))
    return LinearSolution(rank=len(pivots), particular=tuple(part), nullspace=tuple(basis))


# ---------------------------------------------------------------------------
# Dual numbers (exact forward-mode differentiation)
# ---------------------------------------------------------------------------

class Dual(Value):
    """a + b*delta with delta^2 = 0, over Q."""

    def __init__(self, val: Rat, der: Rat):
        self.__dict__.update(val=val, der=der)

    @classmethod
    def var(cls, x) -> "Dual":
        return cls(x, 1)

    @classmethod
    def const(cls, x) -> "Dual":
        return cls(x, 0)

    @staticmethod
    def _lift(x) -> "Dual":
        if isinstance(x, Dual):
            return x
        return Dual(x, 0)

    def __add__(self, other):
        o = Dual._lift(other)
        return Dual(self.val + o.val, self.der + o.der)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.der)

    def __sub__(self, other):
        return self + (-Dual._lift(other))

    def __rsub__(self, other):
        return Dual._lift(other) + (-self)

    def __mul__(self, other):
        o = Dual._lift(other)
        return Dual(self.val * o.val, self.val * o.der + self.der * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Dual._lift(other)
        if o.val == 0:
            raise DegenerateInput("dual division by zero value")
        return Dual(self.val / o.val,
                    (self.der * o.val - self.val * o.der) / (o.val * o.val))

    def __rtruediv__(self, other):
        return Dual._lift(other) / self

    def __eq__(self, other):
        o = Dual._lift(other)
        return self.val == o.val and self.der == o.der

    __hash__ = Value.__hash__
