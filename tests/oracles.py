"""Independent oracles used to cross-check library results.

Everything here is deliberately implemented by a different method than the
library code: segment relations via orientation predicates instead of
parameter solves, triangle membership via barycentric coordinates instead
of edge clipping, homology pairings via closed-form intersection matrices
instead of pushoffs.  Tests compare library output against these.
"""

from fractions import Fraction

from multipoint.rational import rat, ZERO
from multipoint.exactgeom import DEGENERATE, seg_intersect, vadd, vsub, vdot, cross2, cross3


def dist2(p, q):
    """Squared distance between two points of equal dimension."""
    d = vsub(p, q)
    return vdot(d, d)


def orient(p, q, r):
    """Sign of the signed area of the 2D triangle pqr."""
    v = cross2(vsub(q, p), vsub(r, p))
    return (v > 0) - (v < 0)


def point_on_segment_2d(p, seg):
    a, b = seg
    if orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def seg_relation_oracle(a, b):
    """Classify closed 2D segments by orientation predicates alone.

    Returns one of 'disjoint', 'point' (exactly one common point, either a
    proper crossing or an endpoint touch), 'collinear-point' (single common
    point lying on a shared supporting line), or 'overlap' (a common
    sub-segment of positive length).
    """
    a0, a1 = a
    b0, b1 = b
    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    if d1 == d2 == d3 == d4 == 0:
        # collinear (or one segment is a point on the other's line)
        axis = 0 if max(a0[0], a1[0], b0[0], b1[0]) != min(a0[0], a1[0], b0[0], b1[0]) else 1
        lo_a, hi_a = sorted((a0[axis], a1[axis]))
        lo_b, hi_b = sorted((b0[axis], b1[axis]))
        lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
        if lo > hi:
            return "disjoint"
        if lo == hi:
            return "collinear-point"
        return "overlap"
    if d1 * d2 < 0 and d3 * d4 < 0:
        return "point"
    for p, seg in ((a0, b), (a1, b), (b0, a), (b1, a)):
        if point_on_segment_2d(p, seg):
            return "point"
    return "disjoint"


def barycentric(x, tri):
    """Solve x = v0 + s (v1 - v0) + t (v2 - v0) for a point in the triangle plane.

    Returns (s, t) or None when x is off the plane.  Works in 2D and 3D.
    """
    v0, v1, v2 = tri
    u = vsub(v1, v0)
    v = vsub(v2, v0)
    w = vsub(x, v0)
    uu, uv, vv = vdot(u, u), vdot(u, v), vdot(v, v)
    wu, wv = vdot(w, u), vdot(w, v)
    den = uu * vv - uv * uv
    if den == 0:
        raise ValueError("degenerate triangle")
    s = (wu * vv - wv * uv) / den
    t = (wv * uu - wu * uv) / den
    # confirm x really is in the plane (exact reconstruction)
    recon = tuple(v0[k] + s * u[k] + t * v[k] for k in range(len(v0)))
    if recon != tuple(x):
        return None
    return s, t


def point_in_triangle(x, tri, strict=False):
    """Barycentric membership test, closed by default."""
    st = barycentric(x, tri)
    if st is None:
        return False
    s, t = st
    if strict:
        return s > 0 and t > 0 and s + t < 1
    return s >= 0 and t >= 0 and s + t <= 1


def on_plane(x, tri):
    n = cross3(vsub(tri[1], tri[0]), vsub(tri[2], tri[0]))
    return vdot(n, vsub(x, tri[0])) == 0


def sample_params(denoms=(1, 2, 3, 4, 5)):
    """All rationals p/q in [0, 1] with q in denoms."""
    vals = set()
    for q in denoms:
        for p in range(q + 1):
            vals.add(Fraction(p, q))
    return sorted(vals)


def feature_points(f, params):
    """Sample points of a point-or-segment feature at the given parameters."""
    if isinstance(f[0], tuple):
        a, b = f
        d = vsub(b, a)
        return [tuple(a[k] + rat(t.numerator, t.denominator) * d[k] for k in range(len(a))) for t in params]
    return [f]


def sampled_min_dist2(features, params=None):
    """Minimum squared distance over sampled point pairs of non-incident features.

    An upper bound for the true minimum separation, tight when the closest
    approach happens at a sampled parameter.
    """
    if params is None:
        params = sample_params()
    endpoint_sets = []
    for f in features:
        if isinstance(f[0], tuple):
            endpoint_sets.append({f[0], f[1]})
        else:
            endpoint_sets.append({f})
    best = None
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            if endpoint_sets[i] & endpoint_sets[j]:
                continue
            for p in feature_points(features[i], params):
                for q in feature_points(features[j], params):
                    d = dist2(p, q)
                    if best is None or d < best:
                        best = d
    return best


# ---------------------------------------------------------------------------
# homology pairing oracles for the torus and Klein bottle (added to as the
# corresponding modules appear)


def torus_pairing_matrix():
    """Mod-2 intersection matrix of the torus in the (horizontal, vertical) basis."""
    return ((0, 1), (1, 0))


def klein_pairing_matrix():
    """Mod-2 intersection matrix of the Klein bottle.

    Basis: a = the horizontal one-transit loop (orientation-reversing),
    b = the vertical loop.  a.a = 1, a.b = 1, b.b = 0.
    """
    return ((1, 1), (1, 0))


def pair_with_matrix(coords_c, coords_d, matrix):
    total = 0
    for i in range(2):
        for j in range(2):
            total ^= (coords_c[i] & coords_d[j] & matrix[i][j])
    return total


def direct_crossing_parity(curve_a, curve_b):
    """Parity of transverse crossings between two multicurves, counted
    piece by piece with no pushoff.  Returns None when any contact is not
    a strict interior crossing (the caller should pick other
    representatives and retry)."""
    ta = curve_a.pieces_by_square()
    tb = curve_b.pieces_by_square()
    count = 0
    for sq, ea in ta.items():
        for _, _, pa in ea:
            for _, _, pb in tb.get(sq, []):
                res = seg_intersect((pa.p0, pa.p1), (pb.p0, pb.p1))
                if res is None:
                    continue
                if res is DEGENERATE or not (0 < res.tn < res.den and 0 < res.un < res.den):
                    return None
                count += 1
    return count % 2


_PROBE_PARAMS = [rat(3, 7), rat(5, 11), rat(7, 13), rat(9, 17), rat(11, 19), rat(13, 23), rat(15, 29), rat(17, 31)]


def _vertical_loop(cx, c):
    from multipoint.curves2d import MultiCurve

    return MultiCurve.build(cx, [[(0, (c, rat(1, 4))), (0, (c, rat(5, 4)))]])


def _horizontal_loop(cx, c):
    from multipoint.curves2d import MultiCurve

    return MultiCurve.build(cx, [[(0, (rat(1, 4), c)), (0, (rat(5, 4), c))]])


def _klein_transit_loop(cx, x0, eta):
    from multipoint.curves2d import MultiCurve

    start = (x0, rat(1, 2) + eta)
    end = (x0 + 1, rat(1, 2) - eta)
    return MultiCurve.build(cx, [[(0, start), (0, end)]])


def torus_coords(curve, cx):
    """Mod-2 homology coordinates on the torus in the basis (horizontal
    loop, vertical loop), found by counting crossings with probe loops."""
    x1 = x2 = None
    for c in _PROBE_PARAMS:
        if x1 is None:
            x1 = direct_crossing_parity(curve, _vertical_loop(cx, c))
        if x2 is None:
            x2 = direct_crossing_parity(curve, _horizontal_loop(cx, c))
        if x1 is not None and x2 is not None:
            return (x1, x2)
    raise RuntimeError("no probe loop transverse to the curve")


def torus_pairing_oracle(curve_c, curve_d, cx):
    return pair_with_matrix(torus_coords(curve_c, cx), torus_coords(curve_d, cx), ((0, 1), (1, 0)))


def klein_coords(curve, cx):
    """Mod-2 homology coordinates on the Klein bottle in the basis
    (one-sided transit loop a, vertical loop b): (C.b, C.a + C.b)."""
    cb = ca = None
    etas = [rat(1, 19), rat(1, 23), rat(1, 29), rat(1, 31)]
    for i, c in enumerate(_PROBE_PARAMS):
        if cb is None:
            cb = direct_crossing_parity(curve, _vertical_loop(cx, c))
        if ca is None:
            ca = direct_crossing_parity(
                curve, _klein_transit_loop(cx, c, etas[i % len(etas)])
            )
        if cb is not None and ca is not None:
            return (cb, (ca + cb) % 2)
    raise RuntimeError("no probe loop transverse to the curve")


def klein_pairing_oracle(curve_c, curve_d, cx):
    xa, xb = klein_coords(curve_c, cx)
    ya, yb = klein_coords(curve_d, cx)
    return (xa & ya) ^ (xa & yb) ^ (xb & ya)


# --- closed chains in 3-space ---------------------------------------------


def develop_closed_chain(steps):
    """Connect consecutive 3-space segments into one path in the universal
    cover of the 3-torus.

    ``steps`` is a list of (start, end) pairs, each given in its own unit
    translate; consecutive points must agree modulo Z^3.  Returns the list
    of developed points (one more than steps); the first and last differ
    by the integer closure vector.
    """
    from multipoint.rational import rfloor

    dev = [steps[0][0]]
    for (p, q) in steps:
        off = tuple(a - b for a, b in zip(dev[-1], p))
        if any(c != rfloor(c) for c in off):
            raise AssertionError("chain steps do not connect modulo Z^3")
        dev.append(tuple(b + o for b, o in zip(q, off)))
    closure = tuple(a - b for a, b in zip(dev[-1], dev[0]))
    if any(c != rfloor(c) for c in closure):
        raise AssertionError("chain does not close modulo Z^3")
    return dev


def level_crossing_parity_3d(developed, axis):
    """Parity of crossings of a developed closed chain with the family of
    planes {x_axis = c + n}, for a generic probe level c."""
    from multipoint.rational import rfloor

    for c in _PROBE_PARAMS:
        count = 0
        ok = True
        for p, q in zip(developed, developed[1:]):
            lo, hi = sorted((p[axis] - c, q[axis] - c))
            if lo == rfloor(lo) or hi == rfloor(hi):
                ok = False
                break
            count += rfloor(hi) - rfloor(lo)
        if ok:
            return count % 2
    raise RuntimeError("no probe level transverse to the chain")


def _int_cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def plane_torus_is_primitive(u, v):
    """Whether integer vectors u, v span the full lattice of their plane."""
    import math

    n = _int_cross(u, v)
    return math.gcd(math.gcd(abs(n[0]), abs(n[1])), abs(n[2])) == 1


def plane_torus_h2(u, v):
    """Mod-2 homology class of the flat torus spanned by u and v: the
    parity of crossings with an axis line equals the matching component
    of the integer normal vector."""
    n = _int_cross(u, v)
    return tuple(abs(c) % 2 for c in n)


# --- rational references for the left-hand-side crossing counts -----------
#
# Both walks run on Fraction coordinates, with no common denominator: the
# library counts the same crossings on integer lifts.


def _rational_chain(curve, comp_idx):
    """A component's pieces ``(square, start, end)`` on its Fraction points
    and its links: None for a corner, ``(edge, transform, sign)`` for the
    wrap between the two pieces of a segment that crosses a gluing."""
    comp = curve.components[comp_idx]
    by_seg = {}
    for pc in comp.pieces:
        by_seg.setdefault(pc.seg, []).append(pc)
    pieces, links = [], []
    for seg, crossing in enumerate(comp.crossings):
        first, *rest = by_seg[seg]
        pieces.append((first.square, first.p0, first.p1))
        if crossing is not None:
            (second,) = rest
            _, _, _, transform, sign = curve.complex.glued(first.square, crossing.edge)
            links.append((crossing.edge, transform, sign))
            pieces.append((second.square, second.p0, second.p1))
        links.append(None)
    return pieces, links


_EDGE_AXIS = {"E": (0, 1), "W": (0, 0), "N": (1, 1), "S": (1, 0)}


def _rational_offset_run(pieces, links, mults, epsilon):
    """Offset pieces of an open run on Fraction points: piece i moves by
    ``mults[i] * epsilon`` along the L1-normalized left perpendicular of its
    direction, interior joints are mitered or wrapped, and the first
    start and last end are moved unresolved."""
    from multipoint.exactgeom import PushoffCollision, vadd

    offs = []
    for (_, a, b), m in zip(pieces, mults):
        d = vsub(b, a)
        norm = abs(d[0]) + abs(d[1])
        if norm == 0:
            raise PushoffCollision("zero-length piece")
        s = m * epsilon / norm
        offs.append((-s * d[1], s * d[0]))
    starts = [None] * len(pieces)
    ends = [None] * len(pieces)
    starts[0] = vadd(pieces[0][1], offs[0])
    ends[-1] = vadd(pieces[-1][2], offs[-1])
    for i, link in enumerate(links):
        (_, a1, b1), (_, a2, b2) = pieces[i], pieces[i + 1]
        d1 = vsub(b1, a1)
        p1 = vadd(a1, offs[i])
        if link is None:
            d2 = vsub(b2, a2)
            den = cross2(d1, d2)
            if den == 0:
                if vdot(d1, d2) < 0:
                    raise PushoffCollision("hairpin corner")
                m = vadd(b1, offs[i])
            else:
                t = cross2(vsub(vadd(a2, offs[i + 1]), p1), d2) / den
                m = (p1[0] + t * d1[0], p1[1] + t * d1[1])
            if not (0 < m[0] < 1 and 0 < m[1] < 1):
                raise PushoffCollision("miter left the chart")
            ends[i] = starts[i + 1] = m
        else:
            edge, transform, _ = link
            axis, value = _EDGE_AXIS[edge]
            if d1[axis] == 0:
                raise PushoffCollision("offset parallel to exit edge")
            t = (value - p1[axis]) / d1[axis]
            z = (p1[0] + t * d1[0], p1[1] + t * d1[1])
            if not (0 < z[1 - axis] < 1):
                raise PushoffCollision("exit point left the open edge")
            ends[i] = z
            starts[i + 1] = transform.apply(z)
    out = []
    for (square, a, b), s, e in zip(pieces, starts, ends):
        if vdot(vsub(e, s), vsub(b, a)) <= 0:
            raise PushoffCollision("offset piece reversed")
        out.append((square, s, e))
    return out


def pushoff_all_reference(curve, epsilon):
    """The left pushoff of every component at ``epsilon``, built on
    Fraction chart points: the offset pieces ``(square, start, end)`` in
    component order, each one-sided component followed by its closing
    jump.  Raises ``PushoffCollision`` when a construction step fails.

    A two-sided component is offset as one run around it, whose last
    piece's start closes the first piece; a one-sided one as a run from
    the midpoint of its longest piece (the first one on a tie) back to it,
    closed by a jump across the curve."""
    out = []
    for ci in range(len(curve.components)):
        pieces, links = _rational_chain(curve, ci)
        one_sided = sum(1 for link in links if link is not None and link[2]) % 2 == 1
        if not one_sided:
            k, run_pieces = 0, pieces + pieces[:1]
        else:
            lengths = [sum(abs(c) for c in vsub(b, a)) for _, a, b in pieces]
            k = max(range(len(pieces)), key=lambda i: (lengths[i], -i))
            square, a, b = pieces[k]
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            run_pieces = [(square, mid, b)] + pieces[k + 1:] + pieces[:k] + [(square, a, mid)]
        run_links = links[k:] + links[:k]
        mults = [1]
        for link in run_links:
            mults.append(-mults[-1] if link is not None and link[2] else mults[-1])
        run = _rational_offset_run(run_pieces, run_links, mults, epsilon)
        if one_sided:
            out.extend(run)
            out.append((run[0][0], run[-1][2], run[0][1]))
        else:
            out.append((run[0][0], run[-1][1], run[0][2]))
            out.extend(run[1:-1])
    return out


def dist2_point_seg_reference(p, seg):
    """Squared distance from a point to a closed segment, through the
    rational foot parameter clamped to [0, 1]."""
    a, b = seg
    d = vsub(b, a)
    dd = vdot(d, d)
    t = ZERO if dd == 0 else min(max(rat(vdot(vsub(p, a), d), dd), ZERO), rat(1))
    return dist2(p, tuple(a[k] + t * d[k] for k in range(len(a))))


def degeneracy_scale_sq_reference(segments):
    """The separation scale of a 2D segment family, on rationals: over the
    pairs that share no end point, the least distance from an end point of
    one to the other, or 0 for a pair that the orientation oracle finds
    collinear and meeting.  None when every pair shares an end point."""
    best = None
    for i in range(len(segments)):
        a = segments[i]
        for b in segments[i + 1:]:
            if set(a) & set(b):
                continue
            if seg_relation_oracle(a, b) in ("overlap", "collinear-point"):
                d = ZERO
            else:
                d = min(
                    dist2_point_seg_reference(a[0], b),
                    dist2_point_seg_reference(a[1], b),
                    dist2_point_seg_reference(b[0], a),
                    dist2_point_seg_reference(b[1], a),
                )
            if best is None or d < best:
                best = d
    return best


def _seg_hit_reference(a, b):
    """Closed 2D segments meeting by the rational parameter solve: None,
    DEGENERATE (collinear contact), or ``(point, ta, tb)`` as Fractions."""
    p, p1 = a
    q, q1 = b
    r, s, w = vsub(p1, p), vsub(q1, q), vsub(q, p)
    den = cross2(r, s)
    if den == 0:
        if cross2(w, s) != 0 or cross2(w, r) != 0:
            return None
        return None if seg_relation_oracle(a, b) == "disjoint" else DEGENERATE
    t = Fraction(cross2(w, s)) / den
    u = Fraction(cross2(w, r)) / den
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return None
    return tuple(x + t * d for x, d in zip(p, r)), t, u


def certify_curve_reference(curve):
    """The general-position certificate of a multicurve on Fraction
    coordinates, with every pair of pieces in a square tested and no part
    of a union reused.

    Returns ``(violations, double_points)``: the ``(name, detail)`` pairs
    in the library's order, and the double points as ``(square, point,
    branches)``, none when there is a violation.
    """
    from multipoint.rational import ONE, format_point

    violations = []
    for ci, comp in enumerate(curve.components):
        for si, (_, v) in enumerate(comp.vertices):
            if v[0] in (ZERO, ONE) or v[1] in (ZERO, ONE):
                violations.append(("vertex-on-edge", f"component {ci} vertex {si} at {format_point(v)}"))
        for piece in comp.pieces:
            if piece.p0 == piece.p1:
                violations.append(("zero-length-segment", f"component {ci} segment {piece.seg}"))

    def adjacent(comp, pa, pb):
        n = len(comp.vertices)
        return any(
            (x.seg + 1) % n == y.seg and x.t1 == 1 and y.t0 == 0 for x, y in ((pa, pb), (pb, pa))
        )

    hits = {}
    table = curve.pieces_by_square()
    for square in sorted(table):
        entries = table[square]
        for x, (ca, ia, pa) in enumerate(entries):
            for cb, ib, pb in entries[x + 1 :]:
                if ca == cb and ia == ib:
                    continue
                sa, sb = (pa.p0, pa.p1), (pb.p0, pb.p1)
                res = _seg_hit_reference(sa, sb)
                if res is None:
                    continue
                where = f"component {ca} segment {pa.seg} vs component {cb} segment {pb.seg} in square {square}"
                if ca == cb and adjacent(curve.components[ca], pa, pb):
                    if res is DEGENERATE:
                        if seg_relation_oracle(sa, sb) == "overlap":
                            violations.append(("degenerate-overlap", where))
                    elif res[0] not in (sa[0], sa[1]) or res[0] not in (sb[0], sb[1]):
                        violations.append(("tangency", where))
                    continue
                if res is DEGENERATE:
                    violations.append(("degenerate-overlap", where))
                elif 0 < res[1] < 1 and 0 < res[2] < 1:
                    point, ta, tb = res
                    ga = (ca, pa.seg, pa.t0 + ta * (pa.t1 - pa.t0))
                    gb = (cb, pb.seg, pb.t0 + tb * (pb.t1 - pb.t0))
                    hits.setdefault((square, point), []).append(tuple(sorted((ga, gb))))
                else:
                    violations.append(("tangency", where))

    doubles = []
    for (square, point), pairs in sorted(hits.items()):
        if len(pairs) > 1:
            violations.append(
                ("triple-point", f"{len(pairs)} branch pairs meet at {format_point(point)} in square {square}")
            )
        else:
            doubles.append((square, point, pairs[0]))
    return tuple(violations), ([] if violations else doubles)


def pairing_mod2_reference(curve_a, comp_a, curve_b, retry_budget=16):
    """The pushoff pairing of one component of ``curve_a`` with ``curve_b``,
    counted on Fraction coordinates with every piece of the component
    scanned against every offset piece.

    Returns ``(bit, epsilon)``, the epsilon being the one at which every
    contact was a strict crossing.
    """
    from multipoint.curves2d import initial_epsilon
    from multipoint.exactgeom import (
        GenericityError,
        PushoffCollision,
        require_general_position,
        strict_crossing,
    )

    require_general_position(curve_a)
    require_general_position(curve_b)
    # the separation scale of curve_b, on its rational pieces
    seps = [
        degeneracy_scale_sq_reference([(pc.p0, pc.p1) for _, _, pc in entries])
        for entries in curve_b.pieces_by_square().values()
    ]
    seps = [s for s in seps if s is not None]
    epsilon = initial_epsilon(min(seps) if seps else None)
    for _ in range(retry_budget):
        try:
            offsets = pushoff_all_reference(curve_b, epsilon)
        except PushoffCollision:
            epsilon = epsilon / 2
            continue
        count = 0
        for piece in curve_a.components[comp_a].pieces:
            for square, start, end in offsets:
                if square != piece.square:
                    continue
                res = seg_intersect((piece.p0, piece.p1), (start, end))
                if res is None:
                    continue
                if not strict_crossing(res):
                    count = None
                    break
                count += 1
            if count is None:
                break
        if count is not None:
            return count % 2, epsilon
        epsilon = epsilon / 2
    raise GenericityError("pushoff retry budget exhausted")


def segment_contacts_reference(mesh, segs, w=(0, 0, 0)):
    """Contacts of 3-space segments with every lift of the mesh translated
    by ``w``, on Fraction coordinates.

    Returns ``[(triangle, lattice translate, hit)]`` in the library's walk
    order, ``hit`` being a ``SegmentHit`` at the true contact point or
    ``DEGENERATE``.  The lattice translates come from ``math.ceil`` and
    ``math.floor`` of the box differences.
    """
    import itertools
    import math

    from multipoint.exactgeom import segment_triangle_hit, vadd

    out = []
    for p, q in segs:
        smin = tuple(map(min, p, q))
        smax = tuple(map(max, p, q))
        for t, tri in enumerate(mesh.triangles):
            tri = tuple(vadd(x, w) for x in tri)
            tmin = tuple(map(min, *tri))
            tmax = tuple(map(max, *tri))
            ranges = [
                range(math.ceil(smin[k] - tmax[k]), math.floor(smax[k] - tmin[k]) + 1)
                for k in range(3)
            ]
            for v in itertools.product(*ranges):
                h = segment_triangle_hit(p, q, tuple(vadd(x, v) for x in tri))
                if h is not None:
                    out.append((t, v, h))
    return out


def _halving_translates(d):
    """The translates ``(d, d^2, d^3)``, halving ``d`` 40 times."""
    for _ in range(40):
        yield (d, d * d, d * d * d)
        d = d / 2
    raise AssertionError("no generic translate")


def translate_parity_reference(mesh, segs):
    """``(parity, d)``: the parity of crossings of the segments with the
    mesh translated by ``(d, d^2, d^3)``, at the first ``d`` of 1/8, 1/16,
    ... at which every contact is transverse."""
    for w in _halving_translates(rat(1, 8)):
        hits = segment_contacts_reference(mesh, segs, w)
        if all(h is not DEGENERATE for _, _, h in hits):
            return len(hits) % 2, w[0]


def translate_crossing_reference(p, q, tri, d):
    """Whether segment ``pq`` crosses ``tri + (d, d^2, d^3)``, on Fraction
    coordinates, with ``d`` halved until the contact is transverse.

    It answers for every smaller translate too when ``d`` is below every
    positive root of the contact tests (polynomials in ``d``).
    """
    from multipoint.exactgeom import segment_triangle_hit, vadd

    for w in _halving_translates(d):
        h = segment_triangle_hit(p, q, tuple(vadd(x, w) for x in tri))
        if h is not DEGENERATE:
            return h is not None


# --- the Fraction tables of a mesh -----------------------------------------
#
# Mesh3 builds its edge matching, adjacency and charts on the integer lifts
# of its triangles.  This builds the same tables on Fraction coordinates.


def _find(parent, k):
    while parent[k] != k:
        k = parent[k]
    return k


def _shared_corners(mesh, m):
    """The corner pairs ``((t1, c1), (t2, c2))`` that one edge match
    identifies: the ends of its two edges that coincide once the second
    triangle is moved by the match's shift."""
    (t1, e1), (t2, e2) = m.slot_a, m.slot_b
    tri1, tri2 = mesh.triangles[t1], mesh.triangles[t2]
    pairs = []
    for c1 in (e1, (e1 + 1) % 3):
        (c2,) = [c for c in (e2, (e2 + 1) % 3) if vadd(tri2[c], m.rel_shift) == tri1[c1]]
        pairs.append(((t1, c1), (t2, c2)))
    return pairs


def mesh_vertex_classes(mesh):
    """The vertex classes of a mesh, each a sorted tuple of its corners
    ``(triangle, corner)``: the corners that its edge matches put at one
    point, joined by a union-find of this module's own."""
    parent = {(t, c): (t, c) for t in range(len(mesh.triangles)) for c in range(3)}
    for m in mesh.matches:
        for a, b in _shared_corners(mesh, m):
            parent[_find(parent, a)] = _find(parent, b)
    classes = {}
    for k in sorted(parent):
        classes.setdefault(_find(parent, k), []).append(k)
    return sorted(tuple(cls) for cls in classes.values())


def mesh_vertex_links(mesh):
    """``(class, cycles)`` per vertex class: the cycles of the walk that
    enters a corner through one of its two edges, leaves through the other
    and crosses that edge's match to the corner it identifies.  The
    corners around a vertex that is a disk form one cycle, which the walk
    goes round once in each direction."""
    across = {}
    for m in mesh.matches:
        for (t1, c1), (t2, c2) in _shared_corners(mesh, m):
            across[(t1, c1, m.slot_a[1])] = (t2, c2, m.slot_b[1])
            across[(t2, c2, m.slot_b[1])] = (t1, c1, m.slot_a[1])
    out = []
    for cls in mesh_vertex_classes(mesh):
        # a flag is a corner and the edge it is entered by: edge c or c - 1
        todo = {(t, c, e) for t, c in cls for e in (c, (c + 2) % 3)}
        cycles = []
        while todo:
            flag = start = min(todo)
            cycle = []
            while True:
                todo.discard(flag)
                t, c, e_in = flag
                cycle.append((t, c))
                e_out = c if e_in != c else (c + 2) % 3
                flag = across[(t, c, e_out)]
                if flag == start:
                    break
            cycles.append(tuple(cycle))
        out.append((cls, cycles))
    return out


def mesh_topology(mesh):
    """``(euler, orientable, components)`` of a mesh's source surface, read
    off its edge matches and vertex classes: the Euler characteristic is
    V - E + F, and a component is orientable when its triangles 2-colour
    so that each match's flip is the change of colour across it."""
    n = len(mesh.triangles)
    across = [[] for _ in range(n)]
    for m in mesh.matches:
        (a, _), (b, _) = m.slot_a, m.slot_b
        across[a].append((b, m.flip))
        across[b].append((a, m.flip))
    colour = [None] * n
    orientable, components = True, 0
    for start in range(n):
        if colour[start] is not None:
            continue
        components += 1
        colour[start] = 0
        stack = [start]
        while stack:
            t = stack.pop()
            for u, flip in across[t]:
                if colour[u] is None:
                    colour[u] = colour[t] ^ flip
                    stack.append(u)
                elif colour[u] != colour[t] ^ flip:
                    orientable = False
    euler = len(mesh_vertex_classes(mesh)) - len(mesh.matches) + n
    return euler, orientable, components


def mesh_tables_reference(mesh):
    """``(matches, edge_adj, vertex_adj, chart_axes)`` of a mesh, built on
    its Fraction vertices: an edge is keyed by its end points less the
    floor of its least end, ``edge_adj`` maps each pair of triangles to the
    shifts at which they share a matched edge, a corner translation is the
    floor of a Fraction difference, and a chart axis is the dominant
    coordinate of a Fraction normal.  The adjacencies hold the pairs of
    lifts ``i`` and ``j + v`` that certification crosses, ``i <= j`` and,
    for ``i == j``, ``v > 0``; corner lists are sets."""
    from multipoint.exactgeom import PlaneChart, floor_vec, tri_normal, vscale
    from multipoint.surfaces3d import EdgeMatch

    def crossed(t1, t2, v):
        return t1 < t2 or (t1 == t2 and v > (0, 0, 0))

    tris = mesh.triangles
    slots = {}
    for t, tri in enumerate(tris):
        for e in range(3):
            p, q = tri[e], tri[(e + 1) % 3]
            s = floor_vec(min(p, q))
            key = (vsub(p, s), vsub(q, s)) if p <= q else (vsub(q, s), vsub(p, s))
            slots.setdefault(key, []).append((t, e, s, 0 if p <= q else 1))
    matches = []
    for _, ((t1, e1, s1, o1), (t2, e2, s2, o2)) in sorted(slots.items()):
        matches.append(EdgeMatch((t1, e1), (t2, e2), vsub(s1, s2), int(o1 == o2)))
    edge_adj = {}
    for m in matches:
        (t1, _), (t2, _) = m.slot_a, m.slot_b
        for pair, v in (((t1, t2), m.rel_shift), ((t2, t1), vscale(-1, m.rel_shift))):
            if crossed(*pair, v):
                edge_adj.setdefault(pair, set()).add(v)
    vertex_adj = {}
    for cls in mesh_vertex_classes(mesh):
        for t1, c1 in cls:
            for t2, c2 in cls:
                if (t1, c1) == (t2, c2):
                    continue
                d = vsub(tris[t1][c1], tris[t2][c2])
                v = floor_vec(d)
                assert vsub(d, v) == (ZERO, ZERO, ZERO), "non-integer translation"
                if crossed(t1, t2, v):
                    vertex_adj.setdefault((t1, t2), {}).setdefault(v, set()).add((c1, c2))
    axes = [PlaneChart.of(tri_normal(tri)).axis for tri in tris]
    return tuple(matches), edge_adj, vertex_adj, axes


# --- square complexes ------------------------------------------------------
#
# SquareComplex.validate() checks that every edge slot is glued exactly
# once and that the squares are connected.  This verdict also counts the
# cycles of the walk around the corners, which must be two per vertex.

# each edge's two ends, first to last along its tangent, as corner points
_SQUARE_EDGE_ENDS = {"E": ((1, 0), (1, 1)), "W": ((0, 0), (0, 1)),
                     "N": ((0, 1), (1, 1)), "S": ((0, 0), (1, 0))}


def complex_verdict(num_squares, gluings):
    """``(ok, sorted violations)`` of a square complex with the gluings
    ``(square_a, edge_a, square_b, edge_b, flip)``, as
    :meth:`SquareComplex.validate` names them, plus
    ``vertex-link-mismatch`` when a valid complex has other than two
    cycles of the corner walk per vertex."""
    violations, other = [], {}
    for sa, ea, sb, eb, flip in gluings:
        if (sa, ea) == (sb, eb):
            violations.append(f"self-glued-edge {sa}.{ea}")
            continue
        for slot, far in (((sa, ea), (sb, eb, flip)), ((sb, eb), (sa, ea, flip))):
            if slot in other:
                violations.append(f"duplicate-edge-slot {slot[0]}.{slot[1]}")
            else:
                other[slot] = far
    slots = [(sq, ed) for sq in range(num_squares) for ed in "EWNS"]
    violations += [f"unglued-edge {sq}.{ed}" for sq, ed in slots if (sq, ed) not in other]
    parent = list(range(num_squares))
    for sa, _, sb, _, _ in gluings:
        parent[_find(parent, sa)] = _find(parent, sb)
    if len({_find(parent, sq) for sq in range(num_squares)}) != 1:
        violations.append("disconnected")
    if not violations:
        # the corners that the gluings put at one point
        corners = {(sq, p): (sq, p) for sq, ed in slots for p in _SQUARE_EDGE_ENDS[ed]}
        for (sq, ed), (osq, oed, flip) in other.items():
            ends, far = _SQUARE_EDGE_ENDS[ed], _SQUARE_EDGE_ENDS[oed]
            for a, b in zip(ends, far[::-1] if flip else far):
                corners[_find(corners, (sq, a))] = _find(corners, (osq, b))
        vertices = len({_find(corners, k) for k in corners})

        # a flag is a square, a corner and an edge at that corner; a step
        # crosses the edge and turns to the other edge at the far corner
        def step(flag):
            sq, corner, ed = flag
            osq, oed, flip = other[(sq, ed)]
            end = _SQUARE_EDGE_ENDS[ed].index(corner)
            corner2 = _SQUARE_EDGE_ENDS[oed][1 - end if flip else end]
            (ed2,) = [e for e in "EWNS" if e != oed and corner2 in _SQUARE_EDGE_ENDS[e]]
            return osq, corner2, ed2

        flags = {(sq, p, ed) for sq, ed in slots for p in _SQUARE_EDGE_ENDS[ed]}
        cycles = 0
        while flags:
            start = flag = flags.pop()
            while (flag := step(flag)) != start:
                flags.remove(flag)
            cycles += 1
        if cycles != 2 * vertices:
            violations.append("vertex-link-mismatch")
    return not violations, sorted(violations)


# --- the rational triangle-triangle intersection ---------------------------
#
# exactgeom.tri_tri_intersect compares its clip parameters as int pairs by
# cross-multiplication and returns homogeneous ends.  This is the same clip
# on Fraction parameters, returning rational ends.


def _clip_line_to_tri_reference(p0, u, tri, owner, w):
    """The clip of the line ``p0 / w + t u`` to a triangle in its plane,
    with the bounds of t as Fractions; the kind is 'edge' when the line
    runs along an edge."""
    from multipoint.exactgeom import tri_normal

    n = tri_normal(tri)
    lo = hi = None
    lo_tag = hi_tag = None
    lo_tie = hi_tie = False
    kind = "interval"
    for i in range(3):
        vi = tri[i]
        m = cross3(n, vsub(tri[(i + 1) % 3], vi))
        c0 = vdot(m, p0) - w * vdot(m, vi)
        c1 = w * vdot(m, u)
        if c1 == 0:
            if c0 < 0:
                return ("miss",)
            if c0 == 0:
                kind = "edge"
            continue
        t = Fraction(-c0) / c1
        if c1 > 0:
            if lo is None or t > lo:
                lo, lo_tag, lo_tie = t, (owner, i), False
            elif t == lo:
                lo_tie = True
        else:
            if hi is None or t < hi:
                hi, hi_tag, hi_tie = t, (owner, i), False
            elif t == hi:
                hi_tie = True
    if lo is None or hi is None or lo > hi:
        return ("miss",)
    return (kind, lo, lo_tag, lo_tie, hi, hi_tag, hi_tie)


def tri_tri_intersect_reference(a, b):
    """``tri_tri_intersect`` on Fraction parameters: None, DEGENERATE, or
    a ``TriTriHit`` whose ends are rational points."""
    from multipoint.exactgeom import TriTriHit, coplanar_tri_relation, tri_normal, vadd, vscale

    na, nb = tri_normal(a), tri_normal(b)
    db = [vdot(nb, vsub(p, b[0])) for p in a]
    if all(d > 0 for d in db) or all(d < 0 for d in db):
        return None
    da = [vdot(na, vsub(p, a[0])) for p in b]
    if all(d > 0 for d in da) or all(d < 0 for d in da):
        return None
    if all(d == 0 for d in db):
        return None if coplanar_tri_relation(a, b, na) == "disjoint" else DEGENERATE
    u = cross3(na, nb)
    naa, nbb, nab = vdot(na, na), vdot(nb, nb), vdot(na, nb)
    wa, wb = vdot(na, a[0]), vdot(nb, b[0])
    den = naa * nbb - nab * nab
    p0 = vadd(vscale(wa * nbb - wb * nab, na), vscale(wb * naa - wa * nab, nb))
    ra = _clip_line_to_tri_reference(p0, u, a, "a", den)
    rb = _clip_line_to_tri_reference(p0, u, b, "b", den)
    if ra[0] == "miss" or rb[0] == "miss":
        return None
    kind_a, lo_a, lo_tag_a, lo_tie_a, hi_a, hi_tag_a, hi_tie_a = ra
    kind_b, lo_b, lo_tag_b, lo_tie_b, hi_b, hi_tag_b, hi_tie_b = rb
    if lo_a == lo_b or hi_a == hi_b:
        return DEGENERATE
    flo, flo_tag, flo_tie = (lo_a, lo_tag_a, lo_tie_a) if lo_a > lo_b else (lo_b, lo_tag_b, lo_tie_b)
    fhi, fhi_tag, fhi_tie = (hi_a, hi_tag_a, hi_tie_a) if hi_a < hi_b else (hi_b, hi_tag_b, hi_tie_b)
    if flo > fhi:
        return None
    if flo == fhi or flo_tie or fhi_tie or "edge" in (kind_a, kind_b):
        return DEGENERATE
    base = vscale(Fraction(1, den), p0)
    p = vadd(base, vscale(flo, u))
    q = vadd(base, vscale(fhi, u))
    if p <= q:
        return TriTriHit(p, q, flo_tag, fhi_tag)
    return TriTriHit(q, p, fhi_tag, flo_tag)


def mu_r_reference(cls, r):
    """``(payload, structure)`` of ``bordism.mu_r(cls, r)`` for a curve or
    mesh class, with each sheet's record kept in a dict keyed by its value
    and the records sorted by item.

    A preimage circle that covers its double circle twice is both of its
    sheets, and the dict keeps one record for it.  Triple points carry no
    bits and give no structure.
    """
    from multipoint.curves2d import MultiCurve, double_points

    payload = cls.payload
    records = {}
    if isinstance(payload, MultiCurve):
        for dp in double_points(payload):
            for branch in dp.branches:
                records[branch] = cls.structure[branch[0]]
    elif r == 2:
        for dc in payload.double_curves():
            for pc in dc.preimages * (2 // len(dc.preimages)):
                records[(pc.arcs, pc.w1, pc.doubled)] = pc.w1
    else:
        for tp in payload.triple_points():
            for pre in tp.preimages:
                records[pre] = None
    items = sorted(records.items(), key=lambda record: record[0])
    structure = () if r == 3 else tuple(bits for _, bits in items)
    return tuple(item for item, _ in items), structure


# --- the walks of a double circle and of a cycle on a mesh -----------------
#
# Mesh3 reads a double circle's period as the sum of its segment vectors,
# and MeshCycle finds a cycle riding a chart boundary from the edges its
# walk crosses.  The references chain the period through lattice offsets,
# and intersect every cycle segment with the three edges of its triangle
# in the triangle's chart.


def circle_h1_reference(mesh, path):
    """The mod-2 class of a double circle, its segments chained end to
    start through lattice offsets."""
    from multipoint.exactgeom import vadd

    segments = mesh._segments
    start = end = None
    for si, forward in path:
        seg = segments[si]
        a, b = (seg.p, seg.q) if forward else (seg.q, seg.p)
        if start is None:
            start, offset = a, (ZERO, ZERO, ZERO)
        else:
            offset = vsub(end, a)
        end = vadd(b, offset)
    period = vsub(end, start)
    assert all(c.denominator == 1 for c in period), "non-integer period"
    return tuple(int(c) % 2 for c in period)


def mesh_cycle_reference(mesh, marks):
    """``(segments, crossed)`` of a cycle, walked as ``MeshCycle`` walks it
    and then checked segment by segment against the edges of its chart.
    Raises ``CycleError`` with ``MeshCycle``'s message, in its order."""
    from multipoint.exactgeom import vadd
    from multipoint.surfaces3d import CycleError, MeshCycle

    if not marks:
        raise CycleError("a cycle needs at least one mark")
    marks = tuple((int(t), rat(a), rat(b)) for t, a, b in marks)
    for t, _, _ in marks:
        if not 0 <= t < len(mesh.triangles):
            raise CycleError(f"mark names missing triangle {t}")
    if MeshCycle._zero_count(marks[0]) != 0:
        raise CycleError("a cycle must start at an interior mark")

    def point(mark):
        w = MeshCycle._weights(mark)
        tri = mesh.triangles[mark[0]]
        return tuple(sum(w[k] * tri[k][i] for k in range(3)) for i in range(3))

    segments, crossed = [], []
    cur_tri, cur_pt = marks[0][0], point(marks[0])
    for mark in marks[1:] + marks[:1]:
        zeros = MeshCycle._zero_count(mark)
        if zeros > 1:
            raise CycleError(f"mark passes through a vertex: {mark}")
        if mark[0] != cur_tri:
            raise CycleError(f"mark {mark} is not in the current chart {cur_tri}")
        x = point(mark)
        if x == cur_pt:
            raise CycleError("repeated cycle point")
        segments.append((cur_tri, cur_pt, x))
        if zeros == 0:
            cur_pt = x
            continue
        edge = (MeshCycle._weights(mark).index(ZERO) + 1) % 3
        mi, side = mesh._slot_of[(cur_tri, edge)]
        m = mesh.matches[mi]
        if side == 0:
            cur_tri, cur_pt = m.slot_b[0], vsub(x, m.rel_shift)
        else:
            cur_tri, cur_pt = m.slot_a[0], vadd(x, m.rel_shift)
        crossed.append(m)
    if cur_pt != point(marks[0]) or cur_tri != marks[0][0]:
        raise CycleError("cycle does not close up")
    for t, p, q in segments:
        tri = mesh.triangles[t]
        chart = mesh.chart(t)
        for i in range(3):
            h = seg_intersect(chart.points((p, q)), chart.points((tri[i], tri[(i + 1) % 3])))
            if h is None:
                continue
            if h is DEGENERATE:
                raise CycleError("cycle rides a chart boundary")
            if 0 < h.tn < h.den:
                raise CycleError("cycle leaves its chart between marks")
    return tuple(segments), tuple(crossed)
