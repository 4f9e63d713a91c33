"""Higgs limits of connections under the scaling action on the moduli space.

Scaling a connection to zero has a unique limit among alpha-stable
parabolic Higgs bundles.  When the underlying quasiparabolic bundle is
itself stable the limit keeps the bundle with zero Higgs field; otherwise
the limit is the graded object of the destabilizing subbundle L, with the
nonzero Higgs field induced by the connection.  The Higgs field is
recorded by its zero divisor plus the contact data of L, which determines
it up to the scalar automorphisms of the two summands.

For a limit computed from an actual connection, the zero divisor is the
root multiset of the exact "Wronskian" polynomial

    W * x(x-1)(x-t),
    W = s1 (s2' + A21 s1 + A22 s2) - s2 (s1' + A11 s1 + A12 s2)
      = A21 s1^2 - 2 A11 s1 s2 - A12 s2^2 + s1 s2' - s2 s1'   (A22 = -A11),

where (s1, s2) = `Subbundle.sections()` is the polynomial section
spanning L.  The cleared polynomial has degree 3 - 2 deg(L) and its roots
contain the contact poles of L (a zero at infinity shows as a drop in
degree).

`higgs_limit` reads each value once, from the state: the quasiparabolic
structure from the pole data (`parabolic_from_connection`), the
destabilizer from the integer types of `parabolic.candidate_types` (and
`section_type` when sum eps >= 3/2), with coefficients built for it
alone, and the entries of A times x(x-1)(x-t) in closed form from the
same pole data (`_cleared_normal_form`), or, for the O(1), W = q - x
from q alone.  No residue matrix, normal form or eigen table is built.
Over a field other than Q the same code runs on its elements.

No root search is ever needed.  L destabilizes for some weights only if
deg(L) + sum_{i in S} eps_i - sum_{i not in S} eps_i > 1/2 with every
eps_i < 1/2, S the contact set; that forces |S| >= 2 - 2 deg(L).  Once the
contact zeros are divided out, at most 3 - 2 deg(L) - |S| <= 1 zeros are
left: a linear factor, whose root is read off.  A larger leftover means
L destabilizes for no weights, which `theta_divisor` rejects.
"""
from __future__ import annotations

from .connection import PPoint, PQState, Sheet, lagrange_cleared, pole_index
from .errors import DegenerateInput, SpecialWeights
from .exact import (INF, Value, is_inf, is_rational, over_common_denominator, poly_add, poly_deriv,
                    poly_divide_root, poly_mul, poly_scale, poly_trim, proj_to_str, quotient)
from .parabolic import (QuasiPar, Subbundle, conic_minors, cross, direction_point,
                        in_general_position, parabolic_from_connection, phi_map)
from .stability import (Branch, Weights, ZONE_STABLE, classify_zone, find_destabilizer,
                        stable_subzone_branch)

THETA_ZERO = "theta_zero"
GRADED = "graded"


def sorted_divisor(points) -> tuple:
    """A divisor's points as a tuple: in Q ascending, then other field elements, then inf."""
    return tuple(sorted(points, key=lambda z: (2, 0) if is_inf(z) else (not is_rational(z), z)))


class ThetaZeroLimit(Value):
    """Zero Higgs field on a stable bundle, recorded by the normalized
    representative qp of its classifying point."""
    kind = THETA_ZERO

    def __init__(self, qp: QuasiPar):
        self.__dict__.update(qp=qp)

    def to_json_dict(self):
        return {"kind": self.kind, "u": self.qp.to_json_dict()["u"]}


class GradedLimit(Value):
    """The graded object of the destabilizer L: its degree, its contact
    poles (1-based) and the zero divisor of the induced Higgs field."""
    kind = GRADED

    def __init__(self, deg_l: int, contact: frozenset, divisor: tuple):
        self.__dict__.update(deg_l=deg_l, contact=contact, divisor=divisor)

    @property
    def quotient_contact(self) -> frozenset:
        """Poles where the parabolic direction lies in the quotient E/L."""
        return frozenset(range(1, 5)) - self.contact

    def to_json_dict(self):
        return {"kind": self.kind, "degL": self.deg_l, "contact": sorted(self.contact),
                "divisor": [proj_to_str(z) for z in self.divisor]}


# ---------------------------------------------------------------------------
# Canonical representatives of points of the non-separated line
# ---------------------------------------------------------------------------

def _frame(poles) -> QuasiPar:
    """The first structure on the poles with frame values (0, 1, a, b) and
    no three directions colinear, returned with the points it was tested on.

    For fixed poles each colinearity condition removes at most one a or,
    per a, at most one b, so the small grid always contains a frame.
    """
    for a in range(2, 20):
        for b in range(2, 20):
            frame = QuasiPar(poles=poles, u=(0, 1, a, b))
            if in_general_position(frame):
                return frame
    raise DegenerateInput("no frame found for these poles")


def _pole_index(point: PPoint, poles):
    """The 0-based index of the pole under the point, None off the poles.
    Sheet labels exist exactly over the poles: anything else raises."""
    idx = pole_index(point.base, poles)
    if idx is None and point.sheet != Sheet.GENERIC:
        raise DegenerateInput("sheet labels only exist over the poles")
    if idx is not None and point.sheet == Sheet.GENERIC:
        raise DegenerateInput("a point over a pole needs a plus or minus sheet")
    return idx


def representative(point: PPoint, poles) -> QuasiPar:
    """A canonical quasiparabolic structure mapping to the given point.

    Orbit coordinates are fixed by pinning three directions to a
    deterministic frame; that `phi_map` sends it back to the point is tested.
    Off the poles the first direction is w(t_1)/v(t_1) on the degree-(-1)
    section (v, w) through the other three whose v vanishes at the base
    (the direction u = inf there imposes exactly v(base) = 0): on its
    minors (`parabolic.conic_minors`) and the point (a, 0, b) of t_1,
    (b^2 m2 + a b m3 + a^2 m4) / (b (b m0 + a m1)), or m4/m1 at infinity.
    On the plus sheet the third direction lies on the cross product L of
    the other two: -(L_x a + L_z b) / (L_y b), or -L_x/L_y at infinity.
    """
    poles = tuple(poles)
    idx = _pole_index(point, poles)
    frame = _frame(poles)
    u = list(frame.u)
    if idx is None:
        m0, m1, m2, m3, m4 = conic_minors(
            QuasiPar(poles=(point.base,) + poles[1:], u=(INF,) + frame.u[1:]))
        a, _, b = direction_point(poles[0], 0)
        u[0] = (quotient(m4, m1) if is_inf(poles[0])
                else quotient(b * b * m2 + a * (b * m3 + a * m4), b * (b * m0 + a * m1)))
    elif point.sheet == Sheet.MINUS:
        u[idx] = INF
    else:
        i, j, k = (n for n in range(4) if n != idx)
        lx, ly, lz = cross(frame.points[i], frame.points[j])
        a, _, b = direction_point(poles[k], 0)
        u[k] = quotient(-lx, ly) if is_inf(poles[k]) else quotient(-(lx * a + lz * b), ly * b)
    return QuasiPar(poles=poles, u=tuple(u))


# ---------------------------------------------------------------------------
# Exact theta divisor
# ---------------------------------------------------------------------------

def _over_one_denominator(*polys) -> list:
    """The polynomials times one common denominator of all their
    coefficients: integer coefficient lists on Q."""
    nums = iter(over_common_denominator([c for p in polys for c in p])[0])
    return [[next(nums) for _ in p] for p in polys]


def _cleared_normal_form(s: PQState) -> tuple:
    """(P, a11, a12, a21): P = x(x-1)(x-t) and the entries of A(x) of the
    (q, p) normal form times P, coefficient lists, constant term first, in
    closed form from `s.pole_data`; a22 = -a11, as the residues are
    trace-free and C(2,2) = 0.

    The finite residue at t_i has (1,1) entry k_i/2 - c_i sigma_i, (1,2)
    entry c_i = -(q - t_i)/d_i and (2,1) entry sigma_i (k_i - c_i sigma_i),
    where c_i sigma_i = p P(q)/d_i (`connection`).  A quadratic f is
    sum_i f(t_i) P_i/d_i with P_i = P/(x - t_i) (`lagrange_cleared`), so

        a12 = x - q,
        a11 = sum_i (k_i/2) P_i - p P(q),
        a21 = sum_i sigma_i (k_i - c_i sigma_i) P_i - k0 (k0 + k4) P,

    the last term from C(2,1) = -k0 (k0 + k4); p P(q) = -q sigma_1, as
    sigma_1 = -p P(q)/q.  tests/test_certificates.py proves the four
    entries equal to those summed from the residues over Q(t, kappa, q, p)."""
    t, k, q = s.t, s.kappa, s.q
    a11 = lagrange_cleared(t, *(ki / 2 for ki in k.finite))
    a11[0] += s.pole_data[0][1] * q
    a21 = lagrange_cleared(t, *(sigma * (ki - c * sigma) for ki, sigma, c in s.pole_data),
                           -k.k0 * (k.k0 + k.k4))
    return [0, t, -1 - t, 1], a11, [-q, 1], a21


def _wronskian(pi, a11, a12, a21, s1, s2) -> list:
    """pi (s1 s2' - s2 s1') + a21 s1^2 - 2 a11 s1 s2 - a12 s2^2, over any
    commutative ring: the Wronskian W of the module docstring times pi,
    for the entries a = pi A of a trace-free connection cleared by pi.
    At a root t_i of pi it is det((s1, s2), a(t_i) (s1, s2)), so it
    vanishes at every pole where (s1, s2) is an eigenvector of the
    residue: at every finite contact pole."""
    return poly_add(
        poly_mul(pi, poly_add(poly_mul(s1, poly_deriv(s2)),
                              poly_scale(-1, poly_mul(s2, poly_deriv(s1))))),
        poly_mul(a21, poly_mul(s1, s1)),
        poly_scale(-2, poly_mul(a11, poly_mul(s1, s2))),
        poly_scale(-1, poly_mul(a12, poly_mul(s2, s2))),
    )


def theta_divisor(s: PQState, sub: Subbundle):
    """Zero divisor of the Higgs field induced on L -> (E/L) x Omega(log D).

    The Wronskian W is cleared by x(x-1)(x-t); any degree deficit against
    3 - 2 deg(L) counts as zeros at infinity.  Raises DegenerateInput when
    the field fails to vanish at a contact pole (at infinity: when there
    is no deficit), or when a quadratic or larger factor is left after the
    contact zeros, i.e. when L destabilizes for no weights (see the module
    docstring).

    W is `_wronskian` of x(x-1)(x-t), the entries of A cleared by it in
    closed form from the pole data (`_cleared_normal_form`) over one common
    denominator, and the sections over another, so on Q all are integers;
    that scales W by a nonzero constant, which moves no root.  A finite
    contact pole is divided out as the factor b x - a of its point
    (a, 0, b) = `parabolic.direction_point(t_i, 0)`, exactly on Z by
    Gauss's lemma, and its root is read back as `quotient(a, b)`.

    For the O(1), (s1, s2) = (0, 1) and W = -a12 = q - x: its Higgs field
    vanishes exactly at the apparent singularity q, the paper's statement
    for zone A.  W is q - x over one denominator, taken after
    `s.pole_data` is read, so that a state with no normal form raises what
    `_cleared_normal_form` raises.
    """
    if sub.degree == 1:
        s.pole_data  # raises on a state with no normal form
        (w_poly,) = _over_one_denominator((s.q, -1))
    else:
        pi, a11, a12, a21 = _over_one_denominator(*_cleared_normal_form(s))
        s1, s2 = _over_one_denominator(*sub.sections())
        w_poly = poly_trim(_wronskian(pi, a11, a12, a21, s1, s2))
    deficit = 3 - 2 * sub.degree - (len(w_poly) - 1)
    # Strict compatibility forces zeros at the finite contact poles; what
    # is left after dividing them out is at most linear (module docstring).
    roots, poles = [], s.poles
    for i in sorted(sub.contact):
        tv = poles[i - 1]
        if is_inf(tv):
            # the zero at infinity is one of the degree deficit's
            if deficit < 1:
                raise DegenerateInput(f"Higgs field fails to vanish at contact pole {i}")
            continue
        a, _, b = direction_point(tv, 0)
        w_poly = poly_divide_root(w_poly, a, b)
        if w_poly is None:
            raise DegenerateInput(f"Higgs field fails to vanish at contact pole {i}")
        roots.append(quotient(a, b))
    if len(w_poly) > 2:
        raise DegenerateInput(
            f"degree-{sub.degree} subbundle with contact {sorted(sub.contact)} "
            "destabilizes for no weights")
    if len(w_poly) == 2:
        roots.append(quotient(-w_poly[0], w_poly[1]))
    roots += [INF] * deficit
    return sorted_divisor(roots)


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------

def higgs_limit(s: PQState, w: Weights) -> ThetaZeroLimit | GradedLimit:
    """The limit of the rescaled connection, computed structurally.

    Stable underlying quasiparabolic bundle: the limit keeps it with zero
    Higgs field, recorded by the canonical orbit representative of its
    classifying point.  Unstable: the graded object of the destabilizer
    with the induced Higgs field's exact zero divisor.
    """
    qp = parabolic_from_connection(s)
    sub = find_destabilizer(qp, w)
    if sub is None:
        return ThetaZeroLimit(qp=representative(phi_map(qp), s.poles))
    div = theta_divisor(s, sub)
    return GradedLimit(deg_l=sub.degree, contact=sub.contact, divisor=div)


def v_alpha_unstable(point: PPoint, poles) -> GradedLimit:
    """The scaling-fixed stable Higgs bundle attached to a point of the
    non-separated line, for weights with eps sum below 1/2 (every structure
    unstable and the destabilizer is the O(1))."""
    idx = _pole_index(point, poles)
    contact = frozenset({idx + 1}) if point.sheet == Sheet.MINUS else frozenset()
    return GradedLimit(deg_l=1, contact=contact, divisor=(point.base,))


def v_alpha_stable(point: PPoint, w: Weights, poles) -> ThetaZeroLimit | GradedLimit:
    """The scaling-fixed stable Higgs bundle attached to a point of the
    non-separated line, for stable-zone weights."""
    if classify_zone(w) != ZONE_STABLE:
        raise SpecialWeights("stable-zone weights required")
    poles = tuple(poles)
    idx = _pole_index(point, poles)
    if idx is None:
        return ThetaZeroLimit(qp=representative(point, poles))
    branch = stable_subzone_branch(w, idx + 1)
    if point.sheet == Sheet.MINUS and branch == Branch.ORIGIN_UNSTABLE:
        return GradedLimit(deg_l=1, contact=frozenset({idx + 1}), divisor=(poles[idx],))
    if point.sheet == Sheet.PLUS and branch == Branch.COLINEAR_UNSTABLE:
        others = frozenset(j + 1 for j in range(4) if j != idx)
        return GradedLimit(deg_l=0, contact=others,
                           divisor=sorted_divisor(poles[j - 1] for j in others))
    return ThetaZeroLimit(qp=representative(point, poles))
