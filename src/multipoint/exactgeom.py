"""Exact geometric primitives over the rationals.

Points are plain tuples (length 2 or 3) of rationals or of ints.  Predicates
never approximate: every routine returns an exact answer, and configurations
that are not in general position are reported as such (the ``DEGENERATE``
sentinel) rather than resolved arbitrarily.  Degeneracy is an ordinary
outcome here; callers decide whether it is a violation.

Certification scales each object by the common denominator of its
coordinates and runs the predicates on the integer numerators, which is
many times cheaper than rational arithmetic.  Since ``int / int`` is a
float, nothing here divides one int by another: a predicate tests a
parameter ``t = n / d`` by comparing ``n`` with ``d`` (``d`` made positive
first).  A hit is returned in ints too: a :class:`SegmentHit` of
:func:`seg_intersect` or :func:`segment_triangle_hit` holds its parameters
as numerators over one positive ``den`` and its point as a homogeneous
tuple.

The points that certification constructs and keeps are homogeneous, not
rational: a tuple of ints ``(X, Y, Z, W)``, or ``(X, Y, W)`` in a chart,
with ``W > 0`` and gcd 1, naming the point ``(X / W, Y / W, Z / W)`` of
the coordinates the predicate was given.  :func:`tri_tri_intersect`
returns the ends of its arc this way, and the pushoff builds its points
this way.  Lowest terms make the form unique, so two such points are equal
exactly when their tuples are, and the point reduced into the unit cube is
``(X % W, Y % W, Z % W, W)``.  :func:`lowest_terms` puts a tuple in this
form, and :func:`from_homogeneous` builds the rational point for a reader
that needs one.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

from .rational import rat, rfloor


# ---------------------------------------------------------------------------
# the error model
#
# An InputError is input the package refuses by name; the command line
# exits with status 2 on it.  A GenericityError is certified input that
# meets a probe non-transversally: the curve pushoff's epsilon budget ran
# out (the verifier reports an ERROR row), or a segment meets the mesh
# itself, with no translate, non-transversally
# (``surfaces3d.mesh_segment_hits``).  Any other exception is a bug.


class InputError(ValueError):
    """Input the package refuses; the message names what is wrong."""


class GeneralPositionError(InputError):
    """A multicurve or mesh is not in general position.

    ``cert`` is its certificate; the message lists the violation names.
    """

    def __init__(self, cert, message=None):
        if message is None:
            message = "general position violations: " + ", ".join(
                cert.violation_names
            )
        super().__init__(message)
        self.cert = cert


class GenericityError(RuntimeError):
    """Certified input met a probe non-transversally."""


def require_general_position(obj):
    """The certificate of a multicurve or mesh, which must be ok."""
    cert = obj.certify()
    if not cert.ok:
        raise GeneralPositionError(cert)
    return cert


def certified_parts(parts, sizes):
    """The parts of a union that already hold an ok certificate, each with
    the index of its first source (component or triangle) in the union;
    ``sizes`` are the parts' numbers of sources.  No part is certified
    here."""
    found = []
    offset = 0
    for part, size in zip(parts, sizes):
        if part._cert is not None and part._cert.ok:
            found.append((part, offset))
        offset += size
    return found


# ---------------------------------------------------------------------------
# vector helpers


def vsub(p, q):
    return tuple(map(operator.sub, p, q))


def vadd(p, q):
    return tuple(map(operator.add, p, q))


def vscale(s, p):
    return tuple(s * a for a in p)


def vdot(p, q):
    return sum(map(operator.mul, p, q))


def cross2(p, q):
    return p[0] * q[1] - p[1] * q[0]


def cross3(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def perp_left(d):
    """Rotate a 2D vector a quarter turn counterclockwise."""
    return (-d[1], d[0])


def common_denominator(points):
    """The least common multiple of the denominators of the coordinates."""
    # A list, not a generator: a tuple built from a generator grows by
    # resizing, and the freed tuple of each new length is kept on the
    # interpreter's tuple free list until a full garbage collection.
    return math.lcm(*[c.denominator for p in points for c in p])


def vlift(p, den):
    """``den * p`` as a tuple of ints; den is a common denominator of p."""
    return tuple(c.numerator * (den // c.denominator) for c in p)


def lowest_terms(*xs):
    """The ints in the ratio of ``xs`` (ints or rationals, the last one
    positive) with gcd 1: a homogeneous point, or a ``(num, den)`` pair."""
    try:
        g = math.gcd(*xs)
    except TypeError:  # rationals: clear their denominators first
        m = math.lcm(*[x.denominator for x in xs])
        xs = [x.numerator * (m // x.denominator) for x in xs]
        g = math.gcd(*xs)
    return tuple(x // g for x in xs)


def from_homogeneous(h):
    """The rational point of a homogeneous point ``(..., W)``."""
    w = h[-1]
    return tuple(rat(x, w) for x in h[:-1])


# ---------------------------------------------------------------------------
# degeneracy sentinel


class _Degenerate:
    """Contact exists but is not a single transverse interior crossing."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DEGENERATE"

    def __bool__(self):
        raise TypeError("compare against DEGENERATE by identity, not truthiness")


DEGENERATE = _Degenerate()


# ---------------------------------------------------------------------------
# segment intersection


@dataclass(frozen=True)
class SegmentHit:
    """The single meeting point of a segment ``a = (p, q)`` with a segment
    ``b`` or a triangle, in the numbers the predicate was given.

    The point is ``a(tn / den) = p + (tn / den) (q - p)`` with ``den > 0``,
    and, for a segment, also ``b(un / den)``; ``un`` is None for a
    triangle.  ``hp`` is the same point written homogeneous,
    ``(den p + tn (q - p), den)``, not reduced to lowest terms.
    """

    tn: object
    un: Optional[object]
    den: object
    hp: tuple


def collinear_overlap(a, b):
    """The common part of closed segments ``a`` and ``b`` on one line.

    Returns None when they are disjoint, else the end points ``(lo, hi)``
    of the shared interval (each an end point of a or b), equal when they
    share a single point.  Works in any dimension; the caller has checked
    that the segments are collinear.
    """
    p = a[0]
    d = vsub(a[1], p)
    if not any(d):
        d = vsub(b[1], b[0])
        if not any(d):  # both are points
            return (p, p) if p == b[0] else None
    ends = (*a, *b)
    at = [vdot(d, vsub(x, p)) for x in ends]  # positions along d
    a_lo, a_hi = (0, 1) if at[0] <= at[1] else (1, 0)
    b_lo, b_hi = (2, 3) if at[2] <= at[3] else (3, 2)
    lo = a_lo if at[a_lo] >= at[b_lo] else b_lo
    hi = a_hi if at[a_hi] <= at[b_hi] else b_hi
    if at[lo] > at[hi]:
        return None
    return ends[lo], ends[hi]


def seg_meeting(a, b):
    """The parameter step of :func:`seg_intersect` and :func:`seg_crossing`.

    Returns None when the closed 2D segments ``a`` and ``b`` are disjoint,
    ``DEGENERATE`` when they are collinear and meet, and otherwise
    ``(tn, un, den)`` with ``den > 0``: they meet in the single point
    ``a(tn / den) = b(un / den)``, with ``0 <= tn, un <= den``.
    """
    (px, py), (p1x, p1y) = a
    (qx, qy), (q1x, q1y) = b
    rx, ry = p1x - px, p1y - py
    sx, sy = q1x - qx, q1y - qy
    wx, wy = qx - px, qy - py
    den = rx * sy - ry * sx
    tn = wx * sy - wy * sx
    un = wx * ry - wy * rx
    if den == 0:
        if tn != 0 or un != 0:
            return None  # parallel, distinct supporting lines
        return None if collinear_overlap(a, b) is None else DEGENERATE
    if den < 0:
        den, tn, un = -den, -tn, -un
    if 0 <= tn <= den and 0 <= un <= den:
        return tn, un, den
    return None


def seg_intersect(a, b):
    """Intersect closed 2D segments ``a = (p0, p1)`` and ``b = (q0, q1)``.

    Returns None (disjoint), a :class:`SegmentHit` (single intersection
    point, with ``0 <= tn, un <= den`` for the parameters along each
    segment), or ``DEGENERATE`` for collinear overlap, including a
    single-point collinear touch.  Endpoint-to-interior contacts are
    reported as ordinary hits with ``tn`` or ``un`` equal to 0 or ``den``;
    callers classify them.
    """
    res = seg_meeting(a, b)
    if res is None or res is DEGENERATE:
        return res
    tn, un, den = res
    (px, py), (qx, qy) = a
    return SegmentHit(tn, un, den, (den * px + tn * (qx - px), den * py + tn * (qy - py), den))


def strict_crossing(h):
    """Whether a :func:`seg_intersect` hit is interior to both segments."""
    return h is not DEGENERATE and 0 < h.tn < h.den and 0 < h.un < h.den


def seg_crossing(a, b):
    """How closed 2D segments meet, without building the hit: None when
    they are disjoint, True for a single crossing interior to both, False
    for any other contact (an end point on the other segment, or collinear
    contact).  Equals ``strict_crossing(seg_intersect(a, b))`` whenever
    they meet, and makes no rational."""
    res = seg_meeting(a, b)
    if res is None:
        return None
    if res is DEGENERATE:
        return False
    tn, un, den = res
    return 0 < tn < den and 0 < un < den


def contact_only_at(a, b, w):
    """True when closed 2D segments meet in at most the single point w."""
    res = seg_meeting(a, b)
    if res is None:
        return True
    if res is DEGENERATE:
        return collinear_overlap(a, b) == (w, w)
    tn, _, den = res  # the meeting point is p + (tn / den) (q - p)
    (px, py), (qx, qy) = a
    return den * (w[0] - px) == tn * (qx - px) and den * (w[1] - py) == tn * (qy - py)


def segments_touch(a, b):
    """Whether the closed segments ``a`` and ``b`` of 3-space share a point."""
    (p, q), (r, s) = a, b
    d1, d2 = vsub(q, p), vsub(s, r)
    w = vsub(r, p)
    n = cross3(d1, d2)
    if not any(n):
        if any(cross3(w, d1)):
            return False
        return collinear_overlap(a, b) is not None
    if vdot(w, n) != 0:
        return False
    den = vdot(n, n)
    tn = vdot(cross3(w, d2), n)
    un = vdot(cross3(w, d1), n)
    if not (0 <= tn <= den and 0 <= un <= den):
        return False
    return vadd(vscale(den, p), vscale(tn, d1)) == vadd(vscale(den, r), vscale(un, d2))


# ---------------------------------------------------------------------------
# point-segment distance


def dist2_point_seg_parts(p, seg):
    """Squared distance from a 2D point to a closed 2D segment as
    ``(num, den)`` with ``den > 0``: ints for int points, and no division.

    With ``d`` the segment's direction and ``w`` the point less its start,
    a foot interior to the segment gives ``cross(w, d)^2 / |d|^2``, which
    is ``|w|^2 - (w.d)^2 / |d|^2`` by Lagrange's identity.
    """
    (ax, ay), (bx, by) = seg
    px, py = p
    dx, dy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    t = wx * dx + wy * dy
    if t <= 0:
        return wx * wx + wy * wy, 1
    dd = dx * dx + dy * dy
    if t >= dd:
        ex, ey = px - bx, py - by
        return ex * ex + ey * ey, 1
    c = wx * dy - wy * dx
    return c * c, dd


# ---------------------------------------------------------------------------
# union-find


class UnionFind:
    """Disjoint classes of the integers ``0 .. n - 1``."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


# ---------------------------------------------------------------------------
# the integer lattice of the 3-torus


def floor_vec(p):
    return (rfloor(p[0]), rfloor(p[1]), rfloor(p[2]))


def frac_vec(p):
    """The representative of p in the unit cube [0, 1)^3."""
    return vsub(p, floor_vec(p))


def bbox(points):
    """The smallest axis-parallel box ``(lo, hi)`` that holds the points."""
    dims = range(len(points[0]))
    return (
        tuple(min(p[k] for p in points) for k in dims),
        tuple(max(p[k] for p in points) for k in dims),
    )


def lattice_translates(amin, amax, bmin, bmax, den):
    """The integer vectors v, as a tuple, for which the closed box
    [bmin, bmax] + den * v meets the closed box [amin, amax], in the
    boxes' dimension.

    ``den`` is the common denominator the boxes were lifted by, or 1 for
    boxes given as rationals (``x // 1`` is the floor of a rational).
    """
    ranges = []
    for k in range(len(amin)):
        lo = -((bmax[k] - amin[k]) // den)
        hi = (amax[k] - bmin[k]) // den
        if lo > hi:
            return ()
        ranges.append(range(lo, hi + 1))
    # a list first, as in common_denominator: a tuple built from the
    # iterator is resized to its length
    return tuple(list(itertools.product(*ranges)))


# ---------------------------------------------------------------------------
# triangle-triangle intersection in 3-space


def tri_normal(tri):
    n = cross3(vsub(tri[1], tri[0]), vsub(tri[2], tri[0]))
    if not any(n):
        raise ValueError("degenerate triangle")
    return n


def coplanar(ta, na, tb, nb):
    """Whether triangles ``ta`` and ``tb``, with normals ``na`` and ``nb``,
    lie in one plane."""
    if any(cross3(na, nb)):
        return False
    return vdot(na, vsub(tb[0], ta[0])) == 0


@dataclass(frozen=True)
class PlaneChart:
    """Plane coordinates that drop the 3-space coordinate ``axis``.

    The chart :meth:`of` a normal drops its dominant coordinate, so it is
    one-to-one on every plane with that normal and keeps the parameter of
    each point along a segment: a :func:`seg_intersect` in the chart
    answers for the segments in 3-space, with the hit point in the chart.
    """

    axis: int

    @classmethod
    def of(cls, n):
        absn = [a if a >= 0 else -a for a in n]
        return cls(absn.index(max(absn)))

    def point(self, p):
        return tuple(c for k, c in enumerate(p) if k != self.axis)

    def points(self, ps):
        return tuple(self.point(p) for p in ps)


def coplanar_tri_relation(a, b, n):
    """Relation of two coplanar triangles: 'disjoint', 'touch' or 'overlap'.

    'touch' means the closed triangles meet but their interiors do not;
    'overlap' means the interiors intersect.  ``n`` is the normal of ``a``.
    """
    chart = PlaneChart.of(n)
    pa, pb = chart.points(a), chart.points(b)
    touched = False
    for poly in (pa, pb):
        for i in range(3):
            axis2 = perp_left(vsub(poly[(i + 1) % 3], poly[i]))
            ia = sorted(vdot(axis2, p) for p in pa)
            ib = sorted(vdot(axis2, p) for p in pb)
            if ia[2] < ib[0] or ib[2] < ia[0]:
                return "disjoint"
            if ia[2] == ib[0] or ib[2] == ia[0]:
                touched = True
    return "touch" if touched else "overlap"


def _inward_edge_normals(tri, n):
    """Yield ``(i, v_i, m_i)`` for each edge i of a triangle with normal
    ``n = tri_normal(tri)``.

    ``m_i = n x (v_{i+1} - v_i)`` lies in the plane and points into the
    triangle: ``m_i . (v_{i+2} - v_i) = |n|^2 > 0``.
    """
    for i in range(3):
        vi = tri[i]
        yield i, vi, cross3(n, vsub(tri[(i + 1) % 3], vi))


@dataclass(frozen=True)
class TriTriHit:
    """Open intersection arc of two triangles, with tagged endpoints.

    ``p`` and ``q`` are the segment endpoints as homogeneous points (see
    the module docstring), in lexicographic order of the points they name;
    each tag is ``(owner, edge_index)`` naming the triangle edge on which
    that endpoint lies (owner 'a' or 'b', edges ``(v_i, v_{i+1})``).
    """

    p: tuple
    q: tuple
    tag_p: tuple
    tag_q: tuple


def clip_line_to_tri(p0, u, tri, owner, w, n):
    """Clip the line ``p0 / w + t u`` (lying in the triangle's plane) to a
    triangle; ``w > 0`` lets a caller pass a rational base point as an
    integer vector and its denominator, and ``n`` is the triangle's normal.

    Returns ('miss',) or (kind, lo, lo_tag, lo_tie, hi, hi_tag, hi_tie),
    where the bounds of ``t`` are int pairs ``(num, den)``, ``den > 0``, in
    lowest terms.  The kind is 'edge' when the line runs along an edge of
    the triangle, the bounds being that edge's ends, and 'interval'
    otherwise.
    """
    # the parameters lo and hi are kept as (numerator, denominator > 0)
    lo = hi = None
    lo_tag = hi_tag = None
    lo_tie = hi_tie = False
    kind = "interval"
    nx, ny, nz = n
    px, py, pz = p0
    ux, uy, uz = u
    for i in range(3):
        # the inward edge normal m = n x (v_{i+1} - v_i) of
        # _inward_edge_normals, and c0 = w m . (p0 / w - v_i), c1 = w m . u
        vx, vy, vz = tri[i]
        wx, wy, wz = tri[(i + 1) % 3]
        ex, ey, ez = wx - vx, wy - vy, wz - vz
        mx, my, mz = ny * ez - nz * ey, nz * ex - nx * ez, nx * ey - ny * ex
        c0 = mx * (px - w * vx) + my * (py - w * vy) + mz * (pz - w * vz)
        c1 = w * (mx * ux + my * uy + mz * uz)
        if c1 == 0:
            if c0 < 0:
                return ("miss",)
            if c0 == 0:
                kind = "edge"  # the other two edges bound it
            continue
        if c1 > 0:  # t = -c0 / c1 is a lower bound
            if lo is None or -c0 * lo[1] > lo[0] * c1:
                lo, lo_tag, lo_tie = (-c0, c1), (owner, i), False
            elif -c0 * lo[1] == lo[0] * c1:
                lo_tie = True
        else:
            if hi is None or c0 * hi[1] < hi[0] * -c1:
                hi, hi_tag, hi_tie = (c0, -c1), (owner, i), False
            elif c0 * hi[1] == hi[0] * -c1:
                hi_tie = True
    if lo is None or hi is None:
        return ("miss",)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return ("miss",)
    return (kind, lowest_terms(*lo), lo_tag, lo_tie, lowest_terms(*hi), hi_tag, hi_tie)


def _plane_sides(tri, v, n):
    """``n . (p - v)`` for each vertex p of a triangle: the sides of the
    plane through v with normal n on which the vertices lie."""
    nx, ny, nz = n
    vx, vy, vz = v
    return [nx * (x - vx) + ny * (y - vy) + nz * (z - vz) for x, y, z in tri]


def _before(s, t):
    """Whether the parameter ``s = (num, den)`` is less than ``t``."""
    return s[0] * t[1] < t[0] * s[1]


def tri_tri_intersect(a, b, na, nb):
    """Intersect two triangles in 3-space.

    Returns None (disjoint), a :class:`TriTriHit` (a transverse crossing
    along an open arc), or ``DEGENERATE`` for every non-generic contact:
    coplanar touch or overlap, single-point contact, an arc endpoint at a
    triangle vertex, an arc along an edge, or an arc endpoint on the
    boundary of both triangles at once.  ``na`` and ``nb`` are the
    triangles' normals.
    """
    db = _plane_sides(a, b[0], nb)
    if min(db) > 0 or max(db) < 0:
        return None
    da = _plane_sides(b, a[0], na)
    if min(da) > 0 or max(da) < 0:
        return None
    if not any(db):
        rel = coplanar_tri_relation(a, b, na)
        return None if rel == "disjoint" else DEGENERATE
    u = cross3(na, nb)
    # non-coplanar with both sign tests inconclusive: planes meet in a line
    naa = vdot(na, na)
    nbb = vdot(nb, nb)
    nab = vdot(na, nb)
    wa = vdot(na, a[0])
    wb = vdot(nb, b[0])
    den = naa * nbb - nab * nab  # == |u|^2 > 0
    # den times the point of the line in the span of na and nb
    p0 = vadd(vscale(wa * nbb - wb * nab, na), vscale(wb * naa - wa * nab, nb))
    ra = clip_line_to_tri(p0, u, a, "a", den, na)
    rb = clip_line_to_tri(p0, u, b, "b", den, nb)
    if ra[0] == "miss" or rb[0] == "miss":
        return None
    kind_a, lo_a, lo_tag_a, lo_tie_a, hi_a, hi_tag_a, hi_tie_a = ra
    kind_b, lo_b, lo_tag_b, lo_tie_b, hi_b, hi_tag_b, hi_tie_b = rb
    # the bounds are in lowest terms, so equal parameters are equal pairs
    if lo_a == lo_b or hi_a == hi_b:
        return DEGENERATE  # arc endpoint on the boundary of both triangles
    if _before(lo_b, lo_a):
        flo, flo_tag, flo_tie = lo_a, lo_tag_a, lo_tie_a
    else:
        flo, flo_tag, flo_tie = lo_b, lo_tag_b, lo_tie_b
    if _before(hi_a, hi_b):
        fhi, fhi_tag, fhi_tie = hi_a, hi_tag_a, hi_tie_a
    else:
        fhi, fhi_tag, fhi_tie = hi_b, hi_tag_b, hi_tie_b
    if _before(fhi, flo):
        return None
    if flo == fhi or kind_a == "edge" or kind_b == "edge":
        return DEGENERATE  # a single point, or contact along an edge
    if flo_tie or fhi_tie:
        return DEGENERATE  # arc endpoint at a triangle vertex
    # the point p0 / den + (tn / td) u, over den * td
    p, q = (
        lowest_terms(*[td * c + den * tn * d for c, d in zip(p0, u)], den * td)
        for tn, td in (flo, fhi)
    )
    # q - p is a positive multiple of u, so p comes first when u does
    if u > (0, 0, 0):
        return TriTriHit(p, q, flo_tag, fhi_tag)
    return TriTriHit(q, p, fhi_tag, flo_tag)


def segment_triangle_hit(p, q, tri):
    """Strict transverse crossing of an open segment through a triangle interior.

    Returns a :class:`SegmentHit` (the point and its parameter along pq)
    for a crossing strictly interior to both the segment and the
    triangle, ``DEGENERATE`` for every other contact of the closed segment
    with the closed triangle (an end on the triangle, a segment in its
    plane meeting it, a crossing on an edge or vertex) and for a
    zero-length segment, and None when they do not meet.
    """
    if p == q:
        return DEGENERATE
    n = tri_normal(tri)
    d0 = vdot(n, vsub(p, tri[0]))
    d1 = vdot(n, vsub(q, tri[0]))
    if d0 == d1 == 0:
        # pq lies in the plane, and misses the triangle exactly when the
        # line of pq or of an edge has the other figure strictly outside
        m = cross3(n, vsub(q, p))
        sides = [vdot(m, vsub(v, p)) for v in tri]
        if min(sides) > 0 or max(sides) < 0:
            return None
        for _, vi, m in _inward_edge_normals(tri, n):
            if vdot(m, vsub(p, vi)) < 0 and vdot(m, vsub(q, vi)) < 0:
                return None
        return DEGENERATE
    if d0 > 0 and d1 > 0 or d0 < 0 and d1 < 0:
        return None
    # t = tn / td with td > 0; an end on the plane has t = 0 or 1
    tn, td = (d0, d0 - d1) if d0 > d1 else (-d0, d1 - d0)
    d = vsub(q, p)
    x = vadd(vscale(td, p), vscale(tn, d))  # td times the meeting point
    degenerate = d0 == 0 or d1 == 0
    for _, vi, m in _inward_edge_normals(tri, n):
        s = vdot(m, x) - td * vdot(m, vi)
        if s < 0:
            return None
        degenerate = degenerate or s == 0
    return DEGENERATE if degenerate else SegmentHit(tn, None, td, (*x, td))


def _positive_in_the_limit(c0, g):
    """Whether ``c0 + g . (e, e^2, e^3) > 0`` for every small enough
    ``e > 0``: the first nonzero of ``c0, g[0], g[1], g[2]`` decides."""
    if c0:
        return c0 > 0
    return next(c > 0 for c in g if c)


def segment_crosses_translate(p, q, tri, n):
    """Whether segment ``pq`` crosses ``tri + w``, ``w = (e, e^2, e^3)``,
    for every small enough ``e > 0``.

    ``n`` is a positive multiple of ``tri_normal(tri)``.  Every test is
    affine in ``w`` and is decided in the limit (Simulation of Simplicity,
    Edelsbrunner and Muecke 1990), so the answer is never degenerate:
    - a plane test ``n . (x - a - w)`` has ``-n != 0`` as its ``w`` term;
    - an edge test ``det(u, x + w - p, y + w - p)``, with ``u = q - p``, is
      ``det(u, x - p, y - p) + w . ((y - x) x u)``.  It vanishes for every
      ``w`` only when ``u`` is parallel to the edge, hence to the plane,
      and then the two plane tests are equal and have already answered.
    The segment crosses when its ends lie on opposite sides of the plane
    and the three edge tests agree.
    """
    a = tri[0]
    minus_n = (-n[0], -n[1], -n[2])
    p_above = _positive_in_the_limit(vdot(n, vsub(p, a)), minus_n)
    if p_above == _positive_in_the_limit(vdot(n, vsub(q, a)), minus_n):
        return False
    u = vsub(q, p)
    sides = {
        _positive_in_the_limit(
            vdot(u, cross3(vsub(x, p), vsub(y, p))), cross3(vsub(y, x), u)
        )
        for x, y in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
    }
    return len(sides) == 1


# ---------------------------------------------------------------------------
# affine charts


@dataclass(frozen=True)
class Transform2:
    """Affine map of the plane: (x, y) -> (a x + b y + e, c x + d y + f)."""

    a: object
    b: object
    c: object
    d: object
    e: object
    f: object

    def apply(self, p):
        x, y = p
        return (self.a * x + self.b * y + self.e, self.c * x + self.d * y + self.f)

    def det(self):
        return self.a * self.d - self.b * self.c

    def lift(self, den):
        """This map on the lifts ``den * p`` of chart points: the same
        linear part and the translation ``den * (e, f)``, with int
        coefficients.  Only a map with integer coefficients lifts."""
        coeffs = (self.a, self.b, self.c, self.d, self.e, self.f)
        if any(x.denominator != 1 for x in coeffs):
            raise ValueError("only a map with integer coefficients lifts")
        a, b, c, d, e, f = (x.numerator for x in coeffs)
        return Transform2(a, b, c, d, den * e, den * f)


# ---------------------------------------------------------------------------
# normal pushoff of a closed chain in unit-square charts
#
# A chain is given by the integer lifts D * p of its chart points, and its
# offset is built on them in homogeneous form, with no rational arithmetic.
# A constructed point is an int triple (X, Y, W), W > 0, in lowest terms:
# the lifted point (X / W, Y / W), i.e. the chart point (X / (W D), Y / (W D)).
# An offset line is a tuple (d, k, w, c): the lifted direction d, the
# offset k * perp_left(d) / w of its points, and c = w * cross2(d, p) for
# every lifted point p on it.

# Each chart is the closed unit square.  An edge name gives the axis and
# the value of the coordinate that is constant along that edge.
SQUARE_EDGES = {"E": (0, 1), "W": (0, 0), "N": (1, 1), "S": (1, 0)}


@dataclass(frozen=True)
class ChainPiece:
    """Straight sub-segment of a closed curve within one chart."""

    chart: object
    start: tuple
    end: tuple


@dataclass(frozen=True)
class ChainLink:
    """Joint between consecutive chain pieces.

    kind 'corner': both pieces share an endpoint in one chart.
    kind 'wrap': the first piece ends on the chart boundary edge
    ``out_edge`` and continues in the next chart under ``transform``, a
    map on lifts (:meth:`Transform2.lift`); ``sign`` is 1 when the
    transform reverses orientation.
    """

    kind: str
    transform: Optional[Transform2] = None
    sign: int = 0
    out_edge: Optional[str] = None


@dataclass(frozen=True)
class ClosedChain:
    """Closed curve as pieces joined cyclically; links[i] joins piece i to i+1.

    The end points of the pieces are the integer lifts ``den * p`` of
    chart points.
    """

    pieces: tuple
    links: tuple
    den: int


@dataclass(frozen=True)
class PushoffResult:
    """Offset copy of a chain: pieces, plus a closing jump when one-sided.

    Their end points are homogeneous triples ``(X, Y, W)`` over the
    chain's lifts: the chart point ``(X / (W * den), Y / (W * den))``.
    """

    pieces: tuple
    jump: Optional[ChainPiece]


class PushoffCollision(Exception):
    """The offset curve failed validation at this epsilon; retry smaller."""


def _reduced(x, y, w):
    """The homogeneous point (x, y, w), w != 0, with w > 0 in lowest terms."""
    if w < 0:
        x, y, w = -x, -y, -w
    g = math.gcd(x, y, w)
    return (x // g, y // g, w // g)


def _offset_line(piece, mult, den, en, ed):
    """The line of a lifted piece moved by ``mult * epsilon`` (epsilon =
    en / ed) along the L1-normalized left perpendicular of its direction:
    in the lifted frame, by ``mult * den * epsilon * perp_left(d) / |d|_1``."""
    d = vsub(piece.end, piece.start)
    norm = abs(d[0]) + abs(d[1])
    if norm == 0:
        raise PushoffCollision("pushoff-collision: zero-length piece")
    k = mult * den * en
    w = ed * norm
    return d, k, w, w * cross2(d, piece.start) + k * (d[0] * d[0] + d[1] * d[1])


def _moved(p, line):
    """The homogeneous point p moved by the offset of ``line``."""
    (dx, dy), k, w, _ = line
    x, y, pw = p
    return (x * w - pw * k * dy, y * w + pw * k * dx, pw * w)


def _miter(prev_line, next_line, corner):
    """Intersection of the two offset lines at a lifted corner point."""
    d1, _, w1, c1 = prev_line
    d2, _, w2, c2 = next_line
    det = cross2(d1, d2)
    if det == 0:
        if vdot(d1, d2) < 0:
            raise PushoffCollision("pushoff-collision: hairpin corner")
        return _reduced(*_moved(corner + (1,), prev_line))  # collinear continuation
    a, b = c1 * w2, c2 * w1
    return _reduced(a * d2[0] - b * d1[0], a * d2[1] - b * d1[1], w1 * w2 * det)


def _edge_crossing(line, edge, den):
    """Exit point of an offset line through a boundary edge of its chart."""
    axis, value = SQUARE_EDGES[edge]
    d, _, w, c = line
    if d[axis] == 0:
        raise PushoffCollision("pushoff-collision: offset parallel to exit edge")
    # the point of the line whose coordinate ``axis`` is value * den
    vw = value * den * w
    z = [vw * d[0], vw * d[1]]
    z[1 - axis] += c if axis == 0 else -c
    z = _reduced(z[0], z[1], w * d[axis])
    if not (0 < z[1 - axis] < den * z[2]):
        raise PushoffCollision("pushoff-collision: exit point left the open edge")
    return z


def _apply_lifted(t, p):
    """A map on lifts applied to a homogeneous point."""
    x, y, w = p
    return (t.a * x + t.b * y + t.e * w, t.c * x + t.d * y + t.f * w, w)


def _side_mults(links):
    """The side of each piece of a run joined by ``links``, 1 for the
    left: it flips across every orientation-reversing wrap."""
    mults = [1]
    for link in links:
        mults.append(-mults[-1] if link.kind == "wrap" and link.sign else mults[-1])
    return mults


def _validate_chain(chain):
    n = len(chain.pieces)
    if n != len(chain.links):
        raise ValueError("chain needs one link per piece")
    if n == 0:
        raise ValueError("empty chain")
    for i, link in enumerate(chain.links):
        cur = chain.pieces[i]
        nxt = chain.pieces[(i + 1) % n]
        if link.kind == "corner":
            if cur.chart != nxt.chart or cur.end != nxt.start:
                raise ValueError(f"chain discontinuity at corner link {i}")
        elif link.kind == "wrap":
            axis, value = SQUARE_EDGES[link.out_edge]
            if cur.end[axis] != value * chain.den:
                raise ValueError(f"wrap link {i} does not end on edge {link.out_edge}")
            if link.transform.apply(cur.end) != nxt.start:
                raise ValueError(f"chain discontinuity at wrap link {i}")
        else:
            raise ValueError(f"unknown link kind {link.kind!r}")


def _offset_run(pieces, links, mults, den, epsilon, first, last):
    """Offset an open run of lifted pieces; returns offset pieces.

    ``links`` has one entry per adjacent pair.  The first offset piece
    starts at the offset of the homogeneous point ``first`` and the last
    ends at the offset of ``last``; interior joints are mitered or wrapped.
    """
    en, ed = epsilon.numerator, epsilon.denominator
    lines = [_offset_line(p, m, den, en, ed) for p, m in zip(pieces, mults)]
    starts = [None] * len(pieces)
    ends = [None] * len(pieces)
    starts[0] = _reduced(*_moved(first, lines[0]))
    ends[-1] = _reduced(*_moved(last, lines[-1]))
    for i, link in enumerate(links):
        if link.kind == "corner":
            m = _miter(lines[i], lines[i + 1], pieces[i].end)
            x, y, w = m
            if not (0 < x < den * w and 0 < y < den * w):
                raise PushoffCollision("pushoff-collision: miter left the chart")
            ends[i] = m
            starts[i + 1] = m
        else:
            z = _edge_crossing(lines[i], link.out_edge, den)
            ends[i] = z
            starts[i + 1] = _apply_lifted(link.transform, z)
    out = []
    for piece, (d, _, _, _), s, e in zip(pieces, lines, starts, ends):
        if (e[0] * s[2] - s[0] * e[2]) * d[0] + (e[1] * s[2] - s[1] * e[2]) * d[1] <= 0:
            raise PushoffCollision("pushoff-collision: offset piece reversed")
        out.append(ChainPiece(piece.chart, s, e))
    return out


def pushoff_polyline(chain, epsilon):
    """Push a closed lifted chain off itself by ``epsilon`` to its left.

    The offset of each piece is epsilon times the L1-normalized left
    perpendicular of its direction, with the side flipping across
    orientation-reversing wrap links.  When the side flips an odd number
    of times around the chain the curve is one-sided: the result is an
    open offset arc anchored at the midpoint of the longest piece plus a
    closing ``jump`` across the curve at the anchor.  The offset points are
    homogeneous triples over the chain's lifts (see :class:`PushoffResult`).

    Shrinking the offset linearly to zero keeps every construction step
    valid, so the result is always freely homotopic -- in particular
    homologous -- to the input chain.  A self-crossing chain's offset
    necessarily crosses the chain near each double point; such crossings
    are legitimate and are NOT rejected here.  Callers that intersect the
    offset with other curves must check transversality of those contacts
    themselves.

    Raises :class:`PushoffCollision` whenever a construction step fails
    at this epsilon (a smaller epsilon eventually succeeds on curves in
    general position).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be a positive rational")
    _validate_chain(chain)
    n = len(chain.pieces)
    one_sided = _side_mults(chain.links)[-1] < 0
    if one_sided:
        # one-sided: anchor at the midpoint of the longest piece
        lengths = [sum(map(abs, vsub(p.end, p.start))) for p in chain.pieces]
        k = max(range(n), key=lambda i: (lengths[i], -i))
        anchor = chain.pieces[k]
        first = last = (anchor.start[0] + anchor.end[0], anchor.start[1] + anchor.end[1], 2)
    else:
        # two-sided: run once around and close the first piece on the last
        k = 0
        anchor = chain.pieces[0]
        first, last = anchor.start + (1,), anchor.end + (1,)
    pieces = [*chain.pieces[k:], *chain.pieces[:k], anchor]
    links = [*chain.links[k:], *chain.links[:k]]
    run = _offset_run(pieces, links, _side_mults(links), chain.den, epsilon, first, last)
    if one_sided:
        jump = ChainPiece(anchor.chart, run[-1].end, run[0].start)
        return PushoffResult(tuple(run), jump)
    closed = [ChainPiece(anchor.chart, run[-1].start, run[0].end)] + run[1:-1]
    return PushoffResult(tuple(closed), None)


__all__ = [
    "InputError",
    "GeneralPositionError",
    "GenericityError",
    "require_general_position",
    "certified_parts",
    "vsub",
    "vadd",
    "vscale",
    "vdot",
    "cross2",
    "cross3",
    "perp_left",
    "common_denominator",
    "vlift",
    "lowest_terms",
    "from_homogeneous",
    "DEGENERATE",
    "SegmentHit",
    "collinear_overlap",
    "seg_meeting",
    "seg_intersect",
    "strict_crossing",
    "seg_crossing",
    "contact_only_at",
    "segments_touch",
    "dist2_point_seg_parts",
    "floor_vec",
    "frac_vec",
    "UnionFind",
    "bbox",
    "lattice_translates",
    "tri_normal",
    "coplanar",
    "PlaneChart",
    "coplanar_tri_relation",
    "TriTriHit",
    "clip_line_to_tri",
    "tri_tri_intersect",
    "segment_triangle_hit",
    "segment_crosses_translate",
    "Transform2",
    "SQUARE_EDGES",
    "ChainPiece",
    "ChainLink",
    "ClosedChain",
    "PushoffResult",
    "PushoffCollision",
    "pushoff_polyline",
]
