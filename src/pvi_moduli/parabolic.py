"""Quasiparabolic structures on B = O + O(1) over four marked points.

A structure is recorded by coordinates u_i: the parabolic direction over
t_i is e(t_i) + u_i f(t_i), with u_i = inf meaning the O(1) fiber.  Over a
pole at infinity the coordinate is taken in the basis <e, x*f> (so the
interpolation condition "u lies on the line v0 + v1 x" reads u = v1 there).

The automorphism group of B acts by u_i -> (b + c t_i + u_i)/a; the
module computes the action, simplicity, the degree-(-1) subbundle through
all four directions (equivalently the conic through the corresponding
points of P^2), the induced coordinate Q, and the classifying map to the
non-separated line.

It also lists the line subbundles that `stability` scores: the O(1) and
the degree-0 lines through two or more directions (`candidate_types`),
and the degree-(-1) section through all four (`section_type`).  Their
contact sets come from ring-generic cores on integer points.  Each
structure clears its poles and directions to those points once
(`QuasiPar.points`, by `direction_point`); the contact sets, general
position and the contact system all read them.  Each candidate comes as
its (degree, contact) type and an integer kernel (a line or the minors),
and `subbundle_of` builds the coefficients of one (`exact.quotient`), so
`stability.find_destabilizer` builds them only for the subbundle it
returns; over a field other than Q the points keep its elements.  The
structure of a connection is read from its state's pole data
(`parabolic_from_connection`), with no eigen table.

The classifying map reads the same points: `is_simple` tests them
against the cross product of the first two, and `q_map` is -m0/m1 on the
minors of the contact system (`conic_minors`), as is the direction
`higgs.representative` reads; `line_through` interpolates the values,
for `verify`'s brute-force destabilizer.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Sequence

from .connection import PPoint, PQState, eigen_table
from .errors import DegenerateInput, NotSimple
from .exact import (INF, ProjRat, Rat, Value, det4, is_inf, over_common_denominator, parse_list,
                    proj_from_str, proj_to_str, quotient, rat_to_str)


class QuasiPar(Value):
    def __init__(self, poles: tuple, u: tuple):
        # poles: four pairwise distinct points of P^1; u: four parabolic
        # coordinates (Rat or INF)
        if len(poles) != 4 or len(u) != 4:
            raise DegenerateInput("four poles and four parabolic coordinates required")
        for i in range(4):
            for j in range(i + 1, 4):
                if poles[i] == poles[j]:
                    raise DegenerateInput("pole positions must be pairwise distinct")
        self.__dict__.update(poles=poles, u=u)

    def infinite_indices(self):
        return tuple(i for i in range(4) if is_inf(self.u[i]))

    @cached_property
    def points(self) -> tuple:
        """The integer point of P^2 of each direction, `direction_point(t_i,
        u_i)`, or of the pole itself, `direction_point(t_i, 0)`, where
        u_i = inf; made once per value.  The contact sets, general position
        and the contact system read these."""
        return tuple(direction_point(tv, 0 if is_inf(uv) else uv)
                     for tv, uv in zip(self.poles, self.u))

    def to_json_dict(self):
        return {"t": [proj_to_str(tv) for tv in self.poles],
                "u": [proj_to_str(uv) for uv in self.u]}

    @classmethod
    def from_json_dict(cls, d) -> "QuasiPar":
        """Parse a parabolic file; malformed input raises DegenerateInput."""
        try:
            return cls(poles=parse_list(d["t"], proj_from_str, "t"),
                       u=parse_list(d["u"], proj_from_str, "u"))
        except (KeyError, TypeError, AttributeError) as exc:
            raise DegenerateInput(f"malformed quasiparabolic structure: {exc!r}") from exc


class AutElement(Value):
    """(a, b, c) acting by e -> a e + (b + c x) f, modulo scalars."""

    def __init__(self, a: Rat, b: Rat, c: Rat):
        if a == 0:
            raise DegenerateInput("automorphism needs a != 0")
        self.__dict__.update(a=a, b=b, c=c)

    def compose(self, other: "AutElement") -> "AutElement":
        """self * other, the element acting as self after other."""
        return AutElement(a=self.a * other.a,
                          b=self.b * other.a + other.b,
                          c=self.c * other.a + other.c)


def act(g: AutElement, qp: QuasiPar) -> QuasiPar:
    """u_i -> (b + c t_i + u_i)/a; at a pole at infinity, u -> (c + u)/a."""
    out = []
    for tv, uv in zip(qp.poles, qp.u):
        if is_inf(uv):
            out.append(INF)
        elif is_inf(tv):
            out.append((g.c + uv) / g.a)
        else:
            out.append((g.b + g.c * tv + uv) / g.a)
    return QuasiPar(poles=qp.poles, u=tuple(out))


def line_through(qp: QuasiPar, indices: Sequence[int]):
    """The degree-1 interpolant v with v(t_i) = u_i over the given indices,
    or None when no single line fits.  All u_i there must be finite.

    The poles are pairwise distinct, so the first two indices fix v (a pole
    at infinity fixes v1 = u there) and each further index only tests it.
    """
    if len(indices) < 2:
        raise DegenerateInput(f"a line needs at least two points, got {len(indices)}")
    (i, j), rest = indices[:2], indices[2:]
    poles, u = qp.poles, qp.u
    if is_inf(poles[j]):
        i, j = j, i
    tj = poles[j]
    if is_inf(poles[i]):
        v1 = u[i]
    else:
        v1 = (u[j] - u[i]) / (tj - poles[i])
    v = (u[j] - v1 * tj, v1)
    if any(section_value(v, poles[k], 1) != u[k] for k in rest):
        return None
    return v


def section_value(poly, pole: ProjRat, degree: int) -> Rat:
    """Value at a pole of a section of O(degree), a polynomial of degree
    <= degree given by its coefficients, constant term first: by Horner's
    rule at a finite pole, and at infinity the x^degree coefficient, the
    value in the chart of QuasiPar.  Sections of negative degree vanish."""
    if is_inf(pole):
        return poly[degree] if degree >= 0 else 0
    *rest, value = poly
    for c in reversed(rest):
        value = value * pole + c
    return value


def direction_point(pole: ProjRat, u: Rat) -> list:
    """A direction as an integer point of P^2: (t, u, 1) over a finite pole
    t and (1, u, 0) over a pole at infinity, scaled by a common
    denominator.  This is the one place where a pole or a direction over Q
    becomes integer coordinates, and the pole itself is
    `direction_point(t, 0)` = (x, 0, z), t = x/z.  The contact and conic
    cores take these homogeneous points and never read a denominator, and
    `higgs.theta_divisor` divides its Wronskian by b x - a for the point
    (a, 0, b) of each finite contact pole.
    Directions lie on one degree-1 section v0 + v1 x of O iff their
    points lie on the line v1 X - Y + v0 Z = 0; distinct poles keep the Y
    coefficient of a line through two of them nonzero."""
    return over_common_denominator((1, u, 0) if is_inf(pole) else (pole, u, 1))[0]


def cross(a, b) -> tuple:
    """The cross product a x b of two points of P^2, over any commutative
    ring: the line through them, which meets a third point c iff
    dot(a x b, c) = det(a, b, c) vanishes."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def dot(line, point):
    """line . point, zero iff the point lies on the line."""
    return line[0] * point[0] + line[1] * point[1] + line[2] * point[2]


def in_general_position(qp: QuasiPar) -> bool:
    """No three of the four directions lie on one degree-1 section of O:
    for no triple of their integer points P_i, P_j, P_k does
    (P_i x P_j) . P_k vanish.  All u_i must be finite (else
    DegenerateInput); four such directions are then also simple."""
    if qp.infinite_indices():
        raise DegenerateInput("general position needs four finite directions")
    return all(dot(cross(a, b), c) != 0 for a, b, c in combinations(qp.points, 3))


def is_simple(qp: QuasiPar) -> bool:
    """Indecomposability: at most one u_i = inf, and some finite direction
    off the degree-1 section of O through two others (their cross product)."""
    if len(qp.infinite_indices()) > 1:
        return False
    a, b, *rest = (pt for pt, uv in zip(qp.points, qp.u) if not is_inf(uv))
    line = cross(a, b)
    return any(dot(line, c) != 0 for c in rest)


def _conic_row(point) -> list:
    """The row of the contact system for a finite direction with integer
    point (x, y, z), over any commutative ring: its product with
    (v0, v1, w0, w1, w2) is z^2 (w(t) - u v(t)) at t = x/z, u = y/z,
    homogenized, and x^2 (w2 - u v1) over a pole at infinity (z = 0)."""
    x, y, z = point
    return [-y * z, -y * x, z * z, x * z, x * x]


def _fiber_row(pole_point) -> list:
    """The row for the direction u = inf over the pole (x, 0, z): its
    product with (v0, v1, w0, w1, w2) is z v(x/z), homogenized, so v
    vanishes at the pole (v1 = 0 for a pole at infinity)."""
    x, _, z = pole_point
    return [z, x, 0, 0, 0]


def _signed_minors(rows) -> list:
    """The five signed 4x4 minors of a 4x5 matrix over any commutative
    ring, (-1)^j times the minor without column j.  They lie in its
    kernel (a row times them is a 5x5 determinant with that row twice),
    and they span it when the rank is 4 and all vanish otherwise."""
    return [(-1) ** j * det4([r[:j] + r[j + 1:] for r in rows]) for j in range(5)]


def _conic_minors(qp: QuasiPar) -> list:
    """The signed minors m0..m4 of the contact system of `conic_subbundle`
    on the integer points `QuasiPar.points` of its poles and directions."""
    return _signed_minors([_fiber_row(pt) if is_inf(uv) else _conic_row(pt)
                           for pt, uv in zip(qp.points, qp.u)])


def conic_minors(qp: QuasiPar) -> list:
    """`_conic_minors`, a multiple of the (v, w) of `conic_subbundle`, or
    DegenerateInput when all vanish (rank below 4, no unique (v, w))."""
    minors = _conic_minors(qp)
    if not any(minors):
        raise DegenerateInput("contact system has rank below 4, expected nullity 1")
    return minors


def _conic_coefficients(minors) -> tuple:
    """(v0, v1, w0, w1, w2): the minors divided by the last nonzero one."""
    last = next(m for m in reversed(minors) if m)
    return tuple(quotient(m, last) for m in minors)


def conic_subbundle(qp: QuasiPar):
    """The degree-(-1) map (v, w) into B through all four directions.

    v = v0 + v1 x and w = w0 + w1 x + w2 x^2 solve w(t_i) = u_i v(t_i)
    (v(t_i) = 0 when u_i = inf; at a pole at infinity the leading
    coefficients w2 = u v1 are used).  With the rows written on integer
    points (`_conic_row`, `_fiber_row`), the kernel of this rank-4 system
    is spanned by the five signed 4x4 minors.  The vector is divided by
    its last nonzero entry: the free column of a nullity-1 system is the
    last column where the kernel is nonzero, so this is the
    reduced-row-echelon basis vector.  Raises DegenerateInput when every
    minor vanishes (rank below 4, so the solution is not unique up to
    scale)."""
    v0, v1, w0, w1, w2 = _conic_coefficients(conic_minors(qp))
    return ((v0, v1), (w0, w1, w2))


class Subbundle(Value):
    """A saturated line subbundle of B recorded by its map data.

    degree 1: the canonical O(1), coefficients ().
    degree 0: map (1, v0 + v1 x), coefficients (v0, v1).
    degree -1: map (v, w), coefficients (v0, v1, w0, w1, w2).
    contact: the 1-based pole indices where the subbundle passes through
    the parabolic direction.
    """

    def __init__(self, degree: int, coefficients: tuple, contact: frozenset):
        self.__dict__.update(degree=degree, coefficients=coefficients, contact=contact)

    def sections(self):
        """The map L -> O + O(1) as polynomial sections (s1, s2), constant
        term first, s1 of O(-degree) and s2 of O(1 - degree): (0, 1) for
        the O(1), (1, v) at degree 0 and (v, w) at degree -1."""
        c = self.coefficients
        if self.degree == 1:
            return (0,), (1,)
        if self.degree == 0:
            return (1,), c
        if self.degree == -1:
            return c[:2], c[2:]
        raise DegenerateInput(f"unsupported subbundle degree {self.degree}")

    def to_json_dict(self):
        return {"degree": self.degree,
                "coefficients": [rat_to_str(c) for c in self.coefficients],
                "contact": sorted(self.contact)}


def candidate_types(qp: QuasiPar):
    """The O(1) and the lines (1, v) through two or more finite directions,
    as (degree, contact, kernel) on integers: the kernel is () for the
    O(1) and the line L for a degree-0 line.  With `section_type` these
    are all the saturated candidates relevant for stability, deduplicated.
    `stability.find_destabilizer` scores the (degree, contact) types and
    builds one `Subbundle`.

    Contact sets are read off integer points.  The O(1) passes through the
    directions u_i = inf.  Each finite direction is an integer point P_i
    of P^2 (`QuasiPar.points`); the line through P_i and P_j is their
    cross product L = `cross`(P_i, P_j), the section
    v = (-L_z/L_y, -L_x/L_y), and its contact set {k : L . P_k = 0}.  Two
    distinct lines share at most one point, so a pair already in a listed
    contact set gives a listed line.
    """
    yield 1, frozenset(i + 1 for i in qp.infinite_indices()), ()
    points = [(i + 1, pt) for i, (pt, uv) in enumerate(zip(qp.points, qp.u)) if not is_inf(uv)]
    lines = []
    for (i, pi), (j, pj) in combinations(points, 2):
        if any({i, j} <= contact for contact in lines):
            continue
        line = cross(pi, pj)
        contact = frozenset(k for k, pk in points if dot(line, pk) == 0)
        lines.append(contact)
        yield 0, contact, line


def section_type(qp: QuasiPar):
    """The degree-(-1) section (v, w) through all four directions as
    (-1, {1, 2, 3, 4}, minors), the minors m0..m4 of `conic_subbundle` on
    integers, or None when it is dropped.  Its contact set is known before
    its minors are, so `stability.find_destabilizer` asks for it only when
    that type can destabilize or sit on a wall.

    (v, w) is dropped when v and w share a zero on P^1: v = 0, or
    w(-v0/v1) = 0, or v1 = w2 = 0 (a zero at infinity).  On the integer
    minors m0..m4, a multiple of (v0, v1, w0, w1, w2), all three cases are
    one test: their `_resultant` vanishes.  Minors that all vanish (no
    unique (v, w)) count as a shared zero.  The saturation of a dropped
    (v, w) is listed by `candidate_types` already.  For v = 0 it is the
    O(1).  Otherwise v has one zero z, a direction u_i = inf can only sit
    at the pole z, and at the three or more other poles v(t_i) != 0 and
    (v, w) = v (1, w/v), so the degree-0 line w/v passes through their
    finite directions and the pair loop lists it.

    A kept (v, w) has contact {1, 2, 3, 4}.  It solves every row of its
    system: v(t_i) = 0 where u_i = inf, which is contact there, and
    w(t_i) = u_i v(t_i) where u_i is finite, which is contact unless
    v(t_i) = 0; but then w(t_i) = 0 too, a shared zero, and (v, w) was
    dropped.
    """
    minors = _conic_minors(qp)
    return (-1, frozenset(range(1, 5)), minors) if _resultant(minors) != 0 else None


def subbundle_of(degree: int, contact: frozenset, kernel) -> Subbundle:
    """The `Subbundle` of a candidate of `candidate_types` or
    `section_type`, its coefficients by `exact.quotient`: (-L_z/L_y,
    -L_x/L_y) from a line L, and `_conic_coefficients` from the minors."""
    if degree == 0:
        lx, ly, lz = kernel
        return Subbundle(0, (quotient(-lz, ly), quotient(-lx, ly)), contact)
    if degree == -1:
        return Subbundle(-1, _conic_coefficients(kernel), contact)
    return Subbundle(degree, (), contact)


def _resultant(minors):
    """m2 m1^2 - m3 m0 m1 + m4 m0^2, over any commutative ring: the
    resultant of v = m0 + m1 x and w = m2 + m3 x + m4 x^2 as sections of
    O(1) and O(2), w at the zero (-m0, m1) of v in homogeneous
    coordinates.  It vanishes iff v = 0 or v and w share a zero on P^1,
    at infinity when m1 = m4 = 0."""
    m0, m1, m2, m3, m4 = minors
    return m2 * m1 * m1 - m3 * m0 * m1 + m4 * m0 * m0


def q_map(qp: QuasiPar) -> ProjRat:
    """The parabolic coordinate: the zero -m0/m1 of the first component
    m0 + m1 x of the degree-(-1) subbundle through the four directions
    (`conic_minors`), the tangent at the origin of the conic through them."""
    m0, m1, *_ = conic_minors(qp)
    if m1 == 0:
        if m0 == 0:
            raise DegenerateInput("first component vanishes identically")
        return INF
    return quotient(-m0, m1)


def q_map_parabolic(qp: QuasiPar) -> ProjRat:
    """Closed form of `q_map` for poles (0, 1, t, inf):

        Q = -t (u2 - u3 + (t-1) u4) / ((t-1) u1 - t u2 + u3),

    or Q = t_i when u_i = inf.  Never 0/0: den = 0 puts u1, u2, u3 on a
    line of slope v1, and then num = -t(t-1)(u4 - v1) is nonzero, as four
    directions on one line are not simple.  A simple structure has at most
    one u_i = inf, which forces v(t_i) = 0, so v = c(x - t_i) (v = c when
    t_i = inf); c = 0 would make w vanish at the other three poles, so
    w = 0: the kernel is one line, and its v vanishes only at t_i.
    """
    poles = qp.poles
    if not (poles[0] == 0 and poles[1] == 1 and is_inf(poles[3])) or is_inf(poles[2]):
        raise DegenerateInput("closed form assumes poles (0, 1, t, inf)")
    if not is_simple(qp):
        raise NotSimple("the parabolic coordinate is defined on simple structures only")
    if inf_idx := qp.infinite_indices():
        return poles[inf_idx[0]]
    t = poles[2]
    u1, u2, u3, u4 = qp.u
    num = -t * (u2 - u3 + (t - 1) * u4)
    den = (t - 1) * u1 - t * u2 + u3
    return INF if den == 0 else num / den


def phi_map(qp: QuasiPar) -> PPoint:
    """Classifying map to the non-separated line.

    Over a pole the structure lands on the minus copy when its own
    direction is the O(1) fiber (u_i = inf), else on the plus copy: the
    base t_i is the zero of v, so w(t_i) = u_i v(t_i) = 0, the section is
    (x - t_i)(c, w'), and the other three directions lie on the line w'/c.
    """
    if not is_simple(qp):
        raise NotSimple("decomposable quasiparabolic structure")
    return PPoint.over(q_map(qp), qp.poles, tuple(map(is_inf, qp.u)))


def parabolic_structures(s: PQState) -> tuple:
    """The two quasiparabolic structures of the (q, p) normal form, read
    from one eigen table: the slopes of the eigenvectors on the parabolic
    eigenvalues, then those on the other eigenvalues; u4 in the <e, x*f>
    chart."""
    table = eigen_table(s)
    return tuple(QuasiPar(poles=s.poles, u=tuple(table[i][side][1][1] for i in range(4)))
                 for side in (0, 1))


def parabolic_from_connection(s: PQState) -> QuasiPar:
    """The structure through the parabolic eigendirections, the first of
    `parabolic_structures`, read straight from `s.pole_data`: the slope
    sigma_i of the k_i/2-eigenvector at each finite pole, and k0 at
    infinity, the slope of the eigenvector (1, k0) in <e, x*f>."""
    return QuasiPar(poles=s.poles, u=tuple(sigma for _, sigma, _ in s.pole_data) + (s.k0,))
