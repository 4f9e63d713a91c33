"""The zone labels proved on the 24 chambers of the eps cube, not on samples.

In x = 2 eps the open cube (0, 1/2)^4 of eps is (0, 1)^4, and the only
walls inside it are the signed sums s.x = c at an odd integer c (a signed
sum of the eps at a half-integer, the walls of `nonspecial_eps`).  There
are 12, and they are exactly the walls `stability._score` = den of the
12 destabilizer types: A, B, the six pairs and the four (1, {i}).  Every
zone condition is `_score` > den for one of these types, so it is a
half-space bounded by one of the 12 walls, and it is constant on each
chamber: each connected component of the cube minus the walls.

The walls and the 8 facets of the cube meet the closed cube in 17
vertices (the 16 corners and the centre), each solved by Cramer's rule
with `exact.det4`.  A nonempty chamber is open and convex, its closure is
the convex hull of the arrangement vertices it contains, and the centroid
of those vertices lies inside it.  So a sign vector on the 12 walls is a
chamber exactly when the centroid of its compatible vertices is strictly
inside the cube and strictly on its side of every wall; of the 4,096 sign
vectors, 24 are.  Every nonspecial eps lies in one of them.

Evaluated at the 24 centroids, `classify_zone` gives one chamber to each
unstable zone and 16 to the stable zone, every record of
`verify.zone_label_identities` passes, and at most one zone condition
holds.  Since each of these statements is constant on a chamber, this
proves the zone label claim for every nonspecial eps, not only for the
sampled ones.
"""
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product

from pvi_moduli.exact import det4
from pvi_moduli.stability import ZONE_CONTACT, ZONE_STABLE, Weights, _score, classify_zone
from pvi_moduli.verify import _zone_condition_count, zone_label_identities

from records import failed

UNITS = [tuple(int(i == j) for j in range(4)) for i in range(4)]


def canonical(coeffs, const):
    """The hyperplane coeffs.x = const, scaled to a first coefficient of +1."""
    scale = coeffs[0]
    assert all(a % scale == 0 for a in coeffs) and const % scale == 0
    return tuple(a // scale for a in coeffs), const // scale


# signed sums s.x at an odd integer strictly between their least and greatest value on the cube
WALLS = sorted((s, c) for s in product((1, -1), repeat=4) if s[0] == 1 for c in (-3, -1, 1, 3)
               if sum(min(a, 0) for a in s) < c < sum(max(a, 0) for a in s))
FACETS = [(u, c) for u in UNITS for c in (0, 1)]


def score_wall(degree, contact):
    """`_score` = den of the type (degree, contact) in x: with den = 2 and
    nums = x the score is affine in x, read off at 0 and the unit vectors."""
    base = _score((0,) * 4, 2, 0, degree, contact)
    return canonical(tuple(_score(u, 2, 1, degree, contact) - base for u in UNITS), 2 - base)


def solve(planes):
    """The one point of four hyperplanes, by Cramer's rule, or None."""
    rows = [a for a, _ in planes]
    d = det4(rows)
    if d == 0:
        return None
    return tuple(F(det4([a[:k] + (c,) + a[k + 1:] for a, c in planes]), d) for k in range(4))


def side(plane, x):
    a, c = plane
    return sum(ai * xi for ai, xi in zip(a, x)) - c


VERTICES = sorted({x for planes in combinations(WALLS + FACETS, 4)
                   if (x := solve(planes)) is not None and all(0 <= xi <= 1 for xi in x)})


def chamber_centroids():
    """The centroid of each chamber, as described in the module docstring.
    A sign vector is a bitmask of the walls it puts x on the positive side
    of, and a vertex is compatible when no wall has it strictly on the other side."""
    signs = [[side(w, v) for w in WALLS] for v in VERTICES]
    above = [sum(1 << k for k, s in enumerate(row) if s > 0) for row in signs]
    below = [sum(1 << k for k, s in enumerate(row) if s < 0) for row in signs]
    out = []
    for mask in range(1 << len(WALLS)):
        members = [v for v, up, down in zip(VERTICES, above, below)
                   if up & ~mask == 0 and down & mask == 0]
        if not members:
            continue
        centroid = tuple(sum(coord) / len(members) for coord in zip(*members))
        if all(0 < xi < 1 for xi in centroid) and all(
                (side(w, centroid) > 0) if mask >> k & 1 else (side(w, centroid) < 0)
                for k, w in enumerate(WALLS)):
            out.append(centroid)
    return out


CENTROIDS = chamber_centroids()
EPS = [tuple(xi / 2 for xi in x) for x in CENTROIDS]


def test_the_twelve_walls_are_the_walls_of_the_twelve_types():
    types = [(1 - len(S) // 2, S) for S in ZONE_CONTACT.values()] + [(1, {i}) for i in range(1, 5)]
    assert len(WALLS) == 12
    assert sorted(score_wall(d, S) for d, S in types) == WALLS


def test_the_arrangement_has_the_corners_and_the_centre_as_vertices():
    corners = {tuple(map(F, c)) for c in product((0, 1), repeat=4)}
    assert len(VERTICES) == 17
    assert set(VERTICES) == corners | {(F(1, 2),) * 4}


def test_the_walls_cut_the_cube_into_24_chambers():
    assert len(CENTROIDS) == 24


def test_each_unstable_zone_is_one_chamber_and_the_stable_zone_sixteen():
    zones = Counter(classify_zone(Weights.of_eps(eps)) for eps in EPS)
    assert zones == {**dict.fromkeys(ZONE_CONTACT, 1), ZONE_STABLE: 16}


def test_zone_labels_hold_on_every_chamber():
    assert failed(zone_label_identities(EPS)) == []
    assert max(_zone_condition_count(eps) for eps in EPS) <= 1
