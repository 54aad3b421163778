"""Exact geometry kernel: intersections, separation, charts, pushoffs."""

import dataclasses
import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multipoint.curves2d import degeneracy_scale_sq
from multipoint.rational import rat, ZERO, ONE
from multipoint.exactgeom import (
    DEGENERATE,
    ChainLink,
    ChainPiece,
    ClosedChain,
    PlaneChart,
    PushoffCollision,
    SegmentHit,
    Transform2,
    TriTriHit,
    clip_line_to_tri,
    collinear_overlap,
    contact_only_at,
    coplanar,
    coplanar_tri_relation,
    cross3,
    dist2_point_seg_parts,
    lattice_translates,
    lowest_terms,
    pushoff_polyline,
    seg_crossing,
    seg_intersect,
    segment_crosses_translate,
    segment_triangle_hit,
    segments_touch,
    strict_crossing,
    tri_normal,
    tri_tri_intersect,
    vadd,
    vlift,
    vscale,
    vsub,
)

import oracles
from helpers import (
    hit_params,
    hit_point,
    nondegenerate_triangle3,
    points2,
    points3,
    rationals,
    segments2,
)


# the triangle predicates with the normals that every program caller
# passes them, computed from the triangles given; wraps keeps the names,
# which name the cases of test_predicates_on_big_integers_are_exact


@functools.wraps(coplanar_tri_relation)
def _coplanar_relation(a, b):
    return coplanar_tri_relation(a, b, tri_normal(a))


@functools.wraps(clip_line_to_tri)
def _clip_line(p0, u, tri, owner):
    return clip_line_to_tri(p0, u, tri, owner, 1, tri_normal(tri))


@functools.wraps(tri_tri_intersect)
def _tri_tri(a, b):
    return tri_tri_intersect(a, b, tri_normal(a), tri_normal(b))


# ---------------------------------------------------------------------------
# seg_intersect


def test_seg_intersect_proper_crossing():
    a = ((rat(0), rat(0)), (rat(2, 3), rat(1)))
    b = ((rat(0), rat(1, 2)), (rat(1), rat(1, 2)))
    hit = seg_intersect(a, b)
    assert hit_point(hit) == (rat(1, 3), rat(1, 2))
    assert hit_params(hit) == (rat(1, 2), rat(1, 3))


def test_seg_intersect_disjoint_parallel():
    a = ((rat(0), rat(0)), (rat(1), rat(0)))
    b = ((rat(0), rat(1)), (rat(1), rat(1)))
    assert seg_intersect(a, b) is None


def test_seg_intersect_collinear_overlap_is_degenerate():
    a = ((rat(0), rat(0)), (rat(1), rat(1)))
    b = ((rat(1, 2), rat(1, 2)), (rat(2), rat(2)))
    assert seg_intersect(a, b) is DEGENERATE


def test_seg_intersect_collinear_endpoint_touch_is_degenerate():
    a = ((rat(0), rat(0)), (rat(1), rat(0)))
    b = ((rat(1), rat(0)), (rat(2), rat(0)))
    assert seg_intersect(a, b) is DEGENERATE


def test_seg_intersect_collinear_disjoint():
    a = ((rat(0), rat(0)), (rat(1), rat(0)))
    b = ((rat(3, 2), rat(0)), (rat(2), rat(0)))
    assert seg_intersect(a, b) is None


def test_seg_intersect_endpoint_on_interior_reports_parameter():
    a = ((rat(0), rat(0)), (rat(1), rat(0)))
    b = ((rat(1, 2), rat(0)), (rat(1, 2), rat(1)))
    hit = seg_intersect(a, b)
    assert hit_point(hit) == (rat(1, 2), rat(0))
    assert hit_params(hit) == (rat(1, 2), 0)


@settings(max_examples=300, deadline=None)
@given(segments2(), segments2())
def test_seg_intersect_matches_orientation_oracle(a, b):
    rel = oracles.seg_relation_oracle(a, b)
    res = seg_intersect(a, b)
    if rel == "disjoint":
        assert res is None
    elif rel == "point":
        assert isinstance(res, SegmentHit)
        # back-substitution: the reported point lies at the reported
        # parameters on both segments
        ta, tb = hit_params(res)
        assert 0 <= ta <= 1 and 0 <= tb <= 1
        assert hit_point(res) == vadd(a[0], vscale(ta, vsub(a[1], a[0])))
        assert hit_point(res) == vadd(b[0], vscale(tb, vsub(b[1], b[0])))
    else:  # 'collinear-point' or 'overlap'
        assert res is DEGENERATE


@settings(max_examples=150, deadline=None)
@given(segments2(), segments2())
def test_seg_intersect_is_symmetric(a, b):
    r1 = seg_intersect(a, b)
    r2 = seg_intersect(b, a)
    if r1 is None or r1 is DEGENERATE:
        assert r2 is r1
    else:
        assert hit_point(r2) == hit_point(r1) and hit_params(r2) == hit_params(r1)[::-1]


# ---------------------------------------------------------------------------
# collinear overlap, strict crossings and contacts


def _pt(*cs):
    return tuple(rat(c) for c in cs)


def test_collinear_overlap_interval_point_and_gap():
    a = (_pt(0, 0), _pt(2, 2))
    assert collinear_overlap(a, (_pt(3, 3), _pt(1, 1))) == (_pt(1, 1), _pt(2, 2))
    assert collinear_overlap(a, (_pt(2, 2), _pt(4, 4))) == (_pt(2, 2), _pt(2, 2))
    assert collinear_overlap(a, (_pt(3, 3), _pt(4, 4))) is None
    # a point segment takes the other segment's direction
    assert collinear_overlap((_pt(1, 1), _pt(1, 1)), a) == (_pt(1, 1), _pt(1, 1))
    assert collinear_overlap((_pt(1, 1), _pt(1, 1)), (_pt(1, 1), _pt(1, 1))) == (
        _pt(1, 1),
        _pt(1, 1),
    )
    # the same predicate answers in 3-space
    b3 = (_pt(0, 0, 0), _pt(2, 0, 2))
    assert collinear_overlap(b3, (_pt(1, 0, 1), _pt(5, 0, 5))) == (
        _pt(1, 0, 1),
        _pt(2, 0, 2),
    )


@st.composite
def collinear_pairs(draw):
    base = draw(points2(max_denominator=4))
    d = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (-1, 3)]))
    ts = [draw(rationals(max_denominator=4)) for _ in range(4)]
    p = [vadd(base, vscale(t, _pt(*d))) for t in ts]
    return (p[0], p[1]), (p[2], p[3])


@settings(max_examples=200, deadline=None)
@given(collinear_pairs())
def test_collinear_overlap_matches_orientation_oracle(pair):
    a, b = pair
    rel = oracles.seg_relation_oracle(a, b)
    ov = collinear_overlap(a, b)
    if rel == "disjoint":
        assert ov is None
        assert seg_intersect(a, b) is None
    else:
        lo, hi = ov
        assert (lo == hi) == (rel == "collinear-point")
        assert seg_intersect(a, b) is not None


def test_strict_crossing():
    a = (_pt(0, 0), _pt(1, 1))
    assert strict_crossing(seg_intersect(a, (_pt(0, 1), _pt(1, 0))))
    # an endpoint touch and a collinear overlap are not strict crossings
    assert not strict_crossing(seg_intersect(a, (_pt(1, 1), _pt(2, 0))))
    assert not strict_crossing(seg_intersect(a, (_pt(1, 1), _pt(2, 2))))


# small integer grids, where end points on the other segment, shared ends
# and collinear contacts are frequent
int_points2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
int_segments2 = st.tuples(int_points2, int_points2)


def _crossing_of_hit(h):
    """What :func:`seg_crossing` must answer, read from the hit."""
    return None if h is None else strict_crossing(h)


@settings(max_examples=400, deadline=None)
@given(int_segments2, int_segments2)
def test_seg_crossing_matches_seg_intersect(a, b):
    assert seg_crossing(a, b) == _crossing_of_hit(seg_intersect(a, b))


# a is (2, 0)-(2, 3) or its reverse, b is (0, 0)-(4, 0) or its reverse:
# the contact (2, 0) sits at one end of the first segment, in the interior
# of the second, so a(tn / den) = b(un / den) has tn or un at 0 or den
SEG_CROSSING_CASES = {
    "tn == 0": ((((2, 0), (2, 3)), ((0, 0), (4, 0))), False),
    "tn == den": ((((2, 3), (2, 0)), ((0, 0), (4, 0))), False),
    "un == 0": ((((0, 0), (4, 0)), ((2, 0), (2, 3))), False),
    "un == den": ((((0, 0), (4, 0)), ((2, 3), (2, 0))), False),
    "collinear single-point touch": ((((0, 0), (2, 0)), ((2, 0), (4, 0))), False),
    "collinear overlap": ((((0, 0), (2, 0)), ((1, 0), (4, 0))), False),
    "parallel disjoint": ((((0, 0), (2, 0)), ((0, 1), (2, 1))), None),
    "lines cross beyond an end": ((((0, 0), (1, 0)), ((2, -1), (2, 1))), None),
    "interior crossing": ((((0, 0), (2, 2)), ((0, 2), (2, 0))), True),
}


@pytest.mark.parametrize("name", SEG_CROSSING_CASES)
def test_seg_crossing_boundary_cases(name):
    (a, b), want = SEG_CROSSING_CASES[name]
    assert seg_crossing(a, b) is want
    assert seg_crossing(b, a) is want
    # strict_crossing reads the same boundary from the hit's parameters
    assert _crossing_of_hit(seg_intersect(a, b)) is want
    assert _crossing_of_hit(seg_intersect(b, a)) is want


def test_contact_only_at():
    w = _pt(1, 1)
    a = (_pt(0, 0), w)
    assert contact_only_at(a, (w, _pt(2, 0)), w)
    assert contact_only_at(a, (w, _pt(2, 2)), w)  # collinear, touching at w
    assert contact_only_at(a, (_pt(3, 0), _pt(3, 1)), w)  # disjoint
    assert not contact_only_at(a, (w, _pt(1, 2)), _pt(0, 0))
    assert not contact_only_at(a, (w, _pt(-1, -1)), w)  # collinear overlap
    assert not contact_only_at(a, (_pt(0, 1), _pt(1, 0)), w)  # crossing


def test_segments_touch_3d():
    a = (_pt(0, 0, 0), _pt(1, 1, 0))
    assert segments_touch(a, (_pt(0, 1, 0), _pt(1, 0, 0)))  # crossing
    assert not segments_touch(a, (_pt(0, 1, 1), _pt(1, 0, 1)))  # skew
    assert not segments_touch(a, (_pt(0, 1, 0), _pt(1, 2, 0)))  # parallel
    assert segments_touch(a, (_pt(1, 1, 0), _pt(2, 2, 0)))  # collinear touch
    assert not segments_touch(a, (_pt(2, 2, 0), _pt(3, 3, 0)))  # collinear gap
    assert segments_touch(a, (_pt(1, 1, 0), _pt(1, 1, 5)))  # endpoint contact


def test_coplanar_and_plane_chart():
    ta = (_pt(0, 0, 0), _pt(2, 0, 1), _pt(0, 2, 1))  # the plane z = (x + y) / 2
    tb = (_pt(2, 2, 2), _pt(4, 0, 2), _pt(4, 4, 4))
    tc = tuple(vadd(p, _pt(0, 0, 1)) for p in ta)
    td = (_pt(0, 0, 0), _pt(1, 0, 0), _pt(0, 1, 0))
    na = tri_normal(ta)
    assert coplanar(ta, na, tb, tri_normal(tb))
    assert not coplanar(ta, na, tc, tri_normal(tc))  # parallel planes
    assert not coplanar(ta, na, td, tri_normal(td))  # planes through one point
    chart = PlaneChart.of(na)
    assert chart.axis == 2 and chart.point(_pt(4, 5, 6)) == _pt(4, 5)
    hit = seg_intersect(chart.points((ta[0], _pt(2, 2, 2))), chart.points((ta[1], ta[2])))
    assert (hit_point(hit), *hit_params(hit)) == (_pt(1, 1), rat(1, 2), rat(1, 2))
    assert strict_crossing(hit)


# ---------------------------------------------------------------------------
# the error model


def test_one_error_hierarchy():
    from multipoint import bordism, curves2d, generate, scene, surfaces3d
    from multipoint.exactgeom import GenericityError, InputError

    assert curves2d.GeneralPositionError is surfaces3d.GeneralPositionError
    assert curves2d.require_general_position is surfaces3d.require_general_position
    for cls in (
        curves2d.GeneralPositionError,
        curves2d.CurveBuildError,
        surfaces3d.MeshBuildError,
        surfaces3d.CycleError,
        scene.SceneParseError,
        bordism.TransversalityError,
    ):
        assert issubclass(cls, InputError), cls
    assert issubclass(InputError, ValueError)
    assert not issubclass(GenericityError, InputError)
    with pytest.raises(InputError):
        generate.GeneratorConfig(components=(3, 1))
    # misuse of the API is a plain ValueError, not refused input
    with pytest.raises(ValueError) as info:
        bordism.psi_r(bordism.empty_class(), -1)
    assert not isinstance(info.value, InputError)


# ---------------------------------------------------------------------------
# separation scale of a segment family


def _meets(a, b):
    return oracles.seg_relation_oracle(a, b) != "disjoint"


@settings(max_examples=100, deadline=None)
@given(st.lists(segments2(max_denominator=8), min_size=2, max_size=4))
def test_degeneracy_scale_bounded_by_sampled_distances(feats):
    # a crossing pair's scale is its endpoint distance, not zero, so the
    # sampled bound holds only for families without meeting pairs
    assume(
        not any(
            _meets(a, b)
            for i, a in enumerate(feats)
            for b in feats[i + 1:]
            if not set(a) & set(b)
        )
    )
    sampled = oracles.sampled_min_dist2(feats)
    scale = degeneracy_scale_sq(feats)
    if sampled is None:
        assert scale is None
        return
    # the true minimum can only be smaller than any sampled distance, and
    # endpoint parameters are always sampled so equality is reachable
    assert scale is not None and 0 < scale <= sampled


@settings(max_examples=200, deadline=None)
@given(points2(max_denominator=4), segments2(max_denominator=4))
def test_dist2_point_seg_parts_matches_reference(p, seg):
    num, den = dist2_point_seg_parts(p, seg)
    assert den > 0
    assert rat(num, den) == oracles.dist2_point_seg_reference(p, seg)


@settings(max_examples=200, deadline=None)
@given(int_points2, int_segments2)
def test_dist2_point_seg_parts_stays_on_ints(p, seg):
    num, den = dist2_point_seg_parts(p, seg)
    assert type(num) is int and type(den) is int and den > 0
    assert rat(num, den) == oracles.dist2_point_seg_reference(p, seg)


# families on small grids: shared ends, collinear overlaps, single-point
# touches, T-contacts and zero-length pieces all occur
int_families = st.lists(int_segments2, min_size=2, max_size=5)
rational_families = st.lists(
    segments2(min_value=-1, max_value=1, max_denominator=2), min_size=2, max_size=5
)

SCALE_FAMILIES = {
    "shared end": [((0, 0), (2, 0)), ((2, 0), (2, 2))],
    "collinear overlap": [((0, 0), (2, 0)), ((1, 0), (3, 0))],
    "collinear single-point touch": [((0, 0), (2, 0)), ((2, 0), (3, 0)), ((0, 3), (1, 3))],
    "t-contact": [((0, 0), (4, 0)), ((2, 0), (2, 3))],
    "zero-length piece on a segment": [((0, 0), (4, 0)), ((1, 0), (1, 0))],
    "zero-length piece off a segment": [((0, 0), (4, 0)), ((1, 1), (1, 1))],
    "crossing": [((0, 0), (4, 4)), ((0, 3), (3, 0))],
    "disjoint": [((0, 0), (4, 1)), ((0, 3), (3, 5))],
}


@pytest.mark.parametrize("name", SCALE_FAMILIES)
def test_degeneracy_scale_matches_reference_on_hand_families(name):
    feats = SCALE_FAMILIES[name]
    assert degeneracy_scale_sq(feats) == oracles.degeneracy_scale_sq_reference(feats)


@settings(max_examples=300, deadline=None)
@given(int_families)
def test_degeneracy_scale_matches_reference_on_int_families(feats):
    scale = degeneracy_scale_sq(feats)
    assert scale == oracles.degeneracy_scale_sq_reference(feats)
    # the same family lifted by 6 has the scale times 36
    lifted = [tuple(vscale(6, p) for p in seg) for seg in feats]
    assert degeneracy_scale_sq(lifted) == (None if scale is None else 36 * scale)


@settings(max_examples=100, deadline=None)
@given(rational_families)
def test_degeneracy_scale_matches_reference_on_rational_families(feats):
    assert degeneracy_scale_sq(feats) == oracles.degeneracy_scale_sq_reference(feats)


# ---------------------------------------------------------------------------
# triangle-triangle intersection


TRI_A = ((rat(0), rat(0), rat(0)), (rat(4), rat(0), rat(0)), (rat(0), rat(4), rat(0)))
TRI_B = ((rat(1), rat(-1), rat(-2)), (rat(1), rat(3), rat(-1)), (rat(1), rat(0), rat(2)))


def _hit_ends(hit, den=1):
    """The ends of a TriTriHit as rational points, for triangles lifted by
    ``den``: a homogeneous end ``(X, Y, Z, W)`` is ``(X, Y, Z) / (W den)``."""
    return tuple(tuple(rat(c, e[3] * den) for c in e[:3]) for e in (hit.p, hit.q))


def test_tri_tri_transverse_arc():
    hit = _tri_tri(TRI_A, TRI_B)
    assert isinstance(hit, TriTriHit)
    p, q = _hit_ends(hit)
    assert p == (rat(1), rat(0), rat(0))
    assert q == (rat(1), rat(2), rat(0))
    assert hit.tag_p == ("a", 0)
    assert hit.tag_q == ("b", 1)
    # oracle: endpoints on both planes and inside both closed triangles,
    # midpoint strictly inside both
    for x in (p, q):
        assert oracles.on_plane(x, TRI_A) and oracles.on_plane(x, TRI_B)
        assert oracles.point_in_triangle(x, TRI_A)
        assert oracles.point_in_triangle(x, TRI_B)
    mid = vscale(rat(1, 2), vadd(p, q))
    assert oracles.point_in_triangle(mid, TRI_A, strict=True)
    assert oracles.point_in_triangle(mid, TRI_B, strict=True)


def test_tri_tri_disjoint_by_plane():
    far = tuple(vadd(p, (rat(0), rat(0), rat(5))) for p in TRI_A)
    assert _tri_tri(far, TRI_B) is None


def test_tri_tri_vertex_touch_is_degenerate():
    b = ((rat(1), rat(1), rat(0)), (rat(2), rat(1), rat(3)), (rat(1), rat(2), rat(3)))
    assert _tri_tri(TRI_A, b) is DEGENERATE


def test_tri_tri_coplanar_cases():
    shift = lambda t, v: tuple(vadd(p, v) for p in t)
    b_overlap = shift(TRI_A, (rat(1), rat(1), rat(0)))
    b_far = shift(TRI_A, (rat(10), rat(0), rat(0)))
    assert _tri_tri(TRI_A, b_overlap) is DEGENERATE
    assert _tri_tri(TRI_A, b_far) is None
    assert _coplanar_relation(TRI_A, b_overlap) == "overlap"
    assert _coplanar_relation(TRI_A, b_far) == "disjoint"
    # mirrored copy touching along the shared edge only
    b_touch = (
        (rat(0), rat(0), rat(0)),
        (rat(0), rat(4), rat(0)),
        (rat(-4), rat(0), rat(0)),
    )
    assert _coplanar_relation(TRI_A, b_touch) == "touch"
    assert _tri_tri(TRI_A, b_touch) is DEGENERATE


@settings(max_examples=150, deadline=None)
@given(nondegenerate_triangle3(max_denominator=4), nondegenerate_triangle3(max_denominator=4))
def test_tri_tri_symmetry_and_back_substitution(a, b):
    r_ab = _tri_tri(a, b)
    r_ba = _tri_tri(b, a)
    if r_ab is None or r_ab is DEGENERATE:
        assert r_ba is r_ab
        return
    assert isinstance(r_ba, TriTriHit)
    p, q = _hit_ends(r_ab)
    assert _hit_ends(r_ba) == (p, q)
    swap = {"a": "b", "b": "a"}
    assert r_ba.tag_p == (swap[r_ab.tag_p[0]], r_ab.tag_p[1])
    assert r_ba.tag_q == (swap[r_ab.tag_q[0]], r_ab.tag_q[1])
    for x in (p, q):
        assert oracles.on_plane(x, a) and oracles.on_plane(x, b)
        assert oracles.point_in_triangle(x, a)
        assert oracles.point_in_triangle(x, b)
    mid = vscale(rat(1, 2), vadd(p, q))
    assert oracles.point_in_triangle(mid, a, strict=True)
    assert oracles.point_in_triangle(mid, b, strict=True)


@settings(max_examples=60, deadline=None)
@given(
    nondegenerate_triangle3(max_denominator=4),
    nondegenerate_triangle3(max_denominator=4),
    points3(max_denominator=4),
)
def test_tri_tri_translation_invariance(a, b, v):
    shift = lambda t: tuple(vadd(p, v) for p in t)
    r = _tri_tri(a, b)
    rs = _tri_tri(shift(a), shift(b))
    if r is None or r is DEGENERATE:
        assert rs is r
    else:
        assert _hit_ends(rs) == tuple(vadd(e, v) for e in _hit_ends(r))


# triangles on a small integer grid, where shared vertices, coplanar pairs
# and tied clip parameters are frequent
int_points3 = st.tuples(*[st.integers(-4, 4)] * 3)


def _nondegenerate(t):
    return any(cross3(vsub(t[1], t[0]), vsub(t[2], t[0])))


int_triangles3 = st.tuples(int_points3, int_points3, int_points3).filter(_nondegenerate)


def _special_partner(a):
    """Triangles drawn to meet ``a`` at its special places: each vertex is
    a grid point, a vertex of ``a`` or a point of its plane at half-integer
    weights (on an edge line when a weight is 0).  Two plane points give an
    edge in a's plane, three a coplanar triangle."""
    a0, a1, a2 = a
    weight = st.sampled_from([rat(k, 2) for k in range(-2, 5)])
    in_plane = st.tuples(weight, weight).map(
        lambda w: vadd(a0, vadd(vscale(w[0], vsub(a1, a0)), vscale(w[1], vsub(a2, a0))))
    )
    vertex = st.one_of(int_points3, st.sampled_from(a), in_plane)
    return st.tuples(vertex, vertex, vertex).filter(_nondegenerate)


def _matches_reference(a, b):
    ref = oracles.tri_tri_intersect_reference(a, b)
    den = math.lcm(*[c.denominator for p in a + b for c in p])
    lifted = [tuple(vlift(p, den) for p in t) for t in (a, b)]
    for got, scale in ((_tri_tri(a, b), 1), (_tri_tri(*lifted), den)):
        if ref is None or ref is DEGENERATE:
            assert got is ref
        else:
            assert _hit_ends(got, scale) == (ref.p, ref.q)
            assert (got.tag_p, got.tag_q) == (ref.tag_p, ref.tag_q)


@settings(max_examples=200, deadline=None)
@given(int_triangles3.flatmap(lambda a: st.tuples(st.just(a), _special_partner(a))), int_triangles3)
def test_tri_tri_matches_rational_reference(pair, free):
    a, b = pair
    _matches_reference(a, b)
    _matches_reference(a, free)


@pytest.mark.parametrize(
    "b, want",
    [
        # a shared vertex, the other two off the plane on opposite sides
        (((0, 0, 0), (1, 1, 1), (1, 2, -1)), DEGENERATE),
        # an edge lying in a's plane, crossing a's interior
        (((1, -1, 0), (1, 3, 0), (1, 0, 2)), DEGENERATE),
        # coplanar overlap, and coplanar touch along an edge
        (((1, 1, 0), (5, 1, 0), (1, 5, 0)), DEGENERATE),
        (((0, 0, 0), (0, 4, 0), (-4, 0, 0)), DEGENERATE),
        # the lines of the two clips meet where both boundaries do: one point
        (((2, -1, -1), (2, 2, 2), (2, -1, 2)), DEGENERATE),
        # a transverse arc
        (((1, -1, -2), (1, 3, -1), (1, 0, 2)), "hit"),
        # an edge in a's plane, on the planes' common line: disjoint from
        # a, and touching a's edge at one point
        (((1, -1, 0), (1, -3, 0), (1, -2, 5)), None),
        (((1, 0, 0), (1, -3, 0), (1, -2, 5)), DEGENERATE),
    ],
)
def test_tri_tri_special_cases_match_rational_reference(b, want):
    b = tuple(_pt(*p) for p in b)
    ref = oracles.tri_tri_intersect_reference(TRI_A, b)
    got = _tri_tri(TRI_A, b)
    if want == "hit":
        assert _hit_ends(got) == (ref.p, ref.q)
    else:
        assert got is ref is want


# The lower triangles of two diagonal cells of a sheet folded along the
# column x = 5.  Their planes meet in the line x = 5, z = 27, which runs
# along an edge of the second and meets the first only at its vertex
# (5, 3, 27): the triangles are disjoint.
FOLD_A = ((0, 3, 24), (5, 3, 27), (0, 8, 24))
FOLD_B = ((5, 8, 27), (10, 8, 24), (5, 13, 27))


def test_a_line_along_an_edge_is_clipped_by_the_other_edges():
    n = tri_normal(FOLD_B)
    u = cross3(tri_normal(FOLD_A), n)
    assert u == (0, 750, 0)
    # the line (5, 750 t, 27) runs along edge 2, and edges 0 and 1 bound
    # it at that edge's ends y = 8 and y = 13
    kind, lo, lo_tag, _, hi, hi_tag, _ = clip_line_to_tri((5, 0, 27), u, FOLD_B, "b", 1, n)
    assert kind == "edge"
    assert (lo, hi) == (lowest_terms(8, 750), lowest_terms(13, 750))
    assert (lo_tag, hi_tag) == (("b", 0), ("b", 1))
    for a, b in ((FOLD_A, FOLD_B), (FOLD_B, FOLD_A)):
        assert _tri_tri(a, b) is None
        assert oracles.tri_tri_intersect_reference(a, b) is None


# ---------------------------------------------------------------------------
# segment-triangle crossing


def test_segment_triangle_strict_hit():
    p = (rat(1), rat(1), rat(-1))
    q = (rat(1), rat(1), rat(1))
    hit = segment_triangle_hit(p, q, TRI_A)
    assert hit_point(hit) == (rat(1), rat(1), rat(0))
    assert hit_params(hit) == (rat(1, 2), None)


def test_segment_triangle_misses():
    p = (rat(10), rat(10), rat(-1))
    q = (rat(10), rat(10), rat(1))
    assert segment_triangle_hit(p, q, TRI_A) is None
    # same side of the plane
    assert segment_triangle_hit(
        (rat(1), rat(1), rat(1)), (rat(1), rat(1), rat(2)), TRI_A
    ) is None


def test_segment_triangle_degenerate_contacts():
    # endpoint exactly on the plane
    assert segment_triangle_hit(
        (rat(1), rat(1), rat(0)), (rat(1), rat(1), rat(1)), TRI_A
    ) is DEGENERATE
    # crossing through an edge
    assert segment_triangle_hit(
        (rat(2), rat(0), rat(-1)), (rat(2), rat(0), rat(1)), TRI_A
    ) is DEGENERATE
    # crossing through a vertex
    assert segment_triangle_hit(
        (rat(0), rat(0), rat(-1)), (rat(0), rat(0), rat(1)), TRI_A
    ) is DEGENERATE
    # zero-length segment
    assert segment_triangle_hit(
        (rat(1), rat(1), rat(0)), (rat(1), rat(1), rat(0)), TRI_A
    ) is DEGENERATE


def test_segment_triangle_contacts_outside_the_triangle():
    tri = (_pt(0, 0, 0), _pt(1, 0, 0), _pt(0, 1, 0))
    # the plane crossing lies on edge 0's line, beyond the triangle
    assert segment_triangle_hit(_pt(2, 0, -1), _pt(2, 0, 1), tri) is None
    # an end on the plane, outside the triangle
    assert segment_triangle_hit(_pt(2, 2, 0), _pt(2, 2, 1), tri) is None
    # a segment in the plane, outside the triangle
    assert segment_triangle_hit(_pt(2, 2, 0), _pt(3, 2, 0), tri) is None


@settings(max_examples=150, deadline=None)
@given(points3(max_denominator=4), points3(max_denominator=4), nondegenerate_triangle3(max_denominator=4))
def test_segment_triangle_back_substitution(p, q, tri):
    hit = segment_triangle_hit(p, q, tri)
    if hit is None or hit is DEGENERATE:
        return
    ta, _ = hit_params(hit)
    assert 0 < ta < 1
    assert hit_point(hit) == vadd(p, vscale(ta, vsub(q, p)))
    assert oracles.on_plane(hit_point(hit), tri)
    assert oracles.point_in_triangle(hit_point(hit), tri, strict=True)


# ---------------------------------------------------------------------------
# segment against a triangle translated by (e, e^2, e^3), e -> 0+

# TRI_A moved by w lies in the plane z = e^3 and covers x >= e, y >= e^2,
# x + y <= 4 + e + e^2; TRI_C moved by w covers x <= e, y <= e^2,
# x + y >= -4 + e + e^2
TRI_C = (_pt(0, 0, 0), _pt(-4, 0, 0), _pt(0, -4, 0))

TRANSLATE_CASES = [
    # through an edge interior
    ("edge y = 0", (2, 0, -1), (2, 0, 1), TRI_A, False),
    ("edge x = 0", (0, 2, -1), (0, 2, 1), TRI_A, False),
    ("edge x + y = 4", (2, 2, -1), (2, 2, 1), TRI_A, True),
    ("edge x + y = 4, slanted", (3, 1, -1), (1, 3, 1), TRI_A, True),
    # through a vertex
    ("vertex, outside", (0, 0, -1), (0, 0, 1), TRI_A, False),
    ("vertex, inside", (0, 0, -1), (0, 0, 1), TRI_C, True),
    ("vertex, slanted, outside", (-1, -1, -1), (1, 1, 1), TRI_A, False),
    ("vertex, slanted, inside", (-1, -1, -1), (1, 1, 1), TRI_C, True),
    # an end point on the plane
    ("end inside, other above", (1, 1, 0), (1, 1, 1), TRI_A, True),
    ("end inside, other below", (1, 1, 0), (1, 1, -1), TRI_A, False),
    ("end on an edge, outside", (2, 0, 0), (2, 0, 1), TRI_A, False),
    ("end on an edge, inside", (2, 2, 0), (2, 2, 1), TRI_A, True),
    ("end on a vertex", (0, 0, 0), (1, 1, 1), TRI_C, True),
    # in the plane, or parallel to an edge
    ("in the plane", (1, 1, 0), (2, 1, 0), TRI_A, False),
    ("in the plane, across an edge", (-1, 1, 0), (1, 1, 0), TRI_A, False),
    ("along an edge", (1, 0, 0), (3, 0, 0), TRI_A, False),
    ("parallel to an edge", (1, 0, 1), (3, 0, 1), TRI_A, False),
]

# The contact tests of the cases here are polynomials in d, for the
# translate (d, d^2, d^3), with integer coefficients below 2^15 in absolute
# value; no positive root lies below 2^-15, so at d = 2^-16 the halving
# walk of oracles answers for every smaller translate.
LIMIT_D = rat(1, 2**16)


def _check_translate_crossing(p, q, tri, want=None):
    n = tri_normal(tri)
    got = segment_crosses_translate(p, q, tri, n)
    assert got == oracles.translate_crossing_reference(p, q, tri, LIMIT_D)
    if want is not None:
        assert got == want
    # the same for the reversed segment, a multiple of the normal, another
    # first vertex and the reversed triangle
    assert segment_crosses_translate(q, p, tri, n) == got
    assert segment_crosses_translate(p, q, tri, vscale(3, n)) == got
    assert segment_crosses_translate(p, q, tri[1:] + tri[:1], n) == got
    assert segment_crosses_translate(p, q, tri[::-1], vscale(-1, n)) == got


@pytest.mark.parametrize("case", TRANSLATE_CASES, ids=lambda c: c[0])
def test_segment_crosses_translate_hand_cases(case):
    _, p, q, tri, want = case
    _check_translate_crossing(_pt(*p), _pt(*q), tri, want)


small = st.integers(0, 2)
small_points3 = st.tuples(small, small, small)
small_triangles3 = st.tuples(small_points3, small_points3, small_points3).filter(
    lambda t: any(cross3(vsub(t[1], t[0]), vsub(t[2], t[0])))
)


@settings(max_examples=300, deadline=None)
@given(small_points3, small_points3, small_triangles3)
def test_segment_crosses_translate_on_a_small_grid(p, q, tri):
    # ends and corners on the grid {0, 1, 2}^3 tie often
    assume(p != q)
    _check_translate_crossing(p, q, tri)


@settings(max_examples=300, deadline=None)
@given(small_triangles3, st.integers(0, 5), st.tuples(*[st.integers(-2, 2)] * 3))
def test_segment_crosses_translate_through_the_boundary(tri, where, u):
    # the segment's midpoint is a corner or an edge midpoint of the
    # triangle (all doubled to stay on ints)
    assume(any(u))
    tri = tuple(vscale(2, x) for x in tri)
    i = where % 3
    b = tri[i] if where < 3 else vscale(rat(1, 2), vadd(tri[i], tri[(i + 1) % 3]))
    _check_translate_crossing(vsub(b, u), vadd(b, u), tri)


def test_translate_count_of_a_loop_through_a_triangle_edge():
    from multipoint.surfaces3d import Mesh3, coordinate_torus, crossings_mod2_with_generic_translate

    # a closed loop in the class e_3 with a vertex on the plane z = 1/4 of
    # the mesh, on the diagonal edge shared by its two triangles and then
    # on the mesh vertex: one crossing, whichever triangle takes it
    mesh = Mesh3(coordinate_torus(2, rat(1, 4)))
    start, turn = _pt(rat(1, 3), rat(1, 5), 0), _pt(rat(1, 5), rat(1, 3), rat(1, 2))
    for vertex in (_pt(rat(1, 2), rat(1, 2), rat(1, 4)), _pt(0, 0, rat(1, 4))):
        loop = [(start, vertex), (vertex, turn), (turn, vadd(start, _pt(0, 0, 1)))]
        assert crossings_mod2_with_generic_translate(mesh, loop) == 1
        assert oracles.translate_parity_reference(mesh, loop)[0] == 1


# ---------------------------------------------------------------------------
# the lattice box test


def _translates_brute_force(amin, amax, bmin, bmax, den):
    """The v in a window around both boxes for which [bmin, bmax] / den + v
    meets [amin, amax] / den, tested on rationals."""
    lo = [rat(c, den) for c in amin + bmin]
    hi = [rat(c, den) for c in amax + bmax]
    reach = int(max(abs(c) for c in lo + hi)) * 2 + 2
    return tuple(
        v
        for v in itertools.product(range(-reach, reach + 1), repeat=len(amin))
        if all(
            rat(bmin[k], den) + v[k] <= rat(amax[k], den)
            and rat(amin[k], den) <= rat(bmax[k], den) + v[k]
            for k in range(len(amin))
        )
    )


def test_lattice_translates_of_boxes_touching_at_a_face():
    # B + 3 (0, v1, v2) touches A at the face x = 0 and B + 3 (2, v1, v2)
    # at x = 3: closed boxes meet there
    a = ((0, 0, 0), (3, 3, 3))
    b = ((-3, 0, 0), (0, 3, 3))
    want = tuple(itertools.product(range(0, 3), range(-1, 2), range(-1, 2)))
    assert lattice_translates(*a, *b, 3) == want
    # one unit further apart, the faces no longer touch
    assert lattice_translates(*a, (-4, 0, 0), (-1, 3, 3), 3) == tuple(
        itertools.product(range(1, 3), range(-1, 2), range(-1, 2))
    )
    # a box narrower than den meets no translate of a point between lifts
    assert lattice_translates((1, 1, 1), (2, 2, 2), (0, 0, 0), (0, 0, 0), 3) == ()


@pytest.mark.parametrize("den", [1, 2, 3, 7, 12])
def test_lattice_translates_match_brute_force(den):
    # boxes in the 3-torus, then in a plane chart as ambient_class_h2 uses
    rng = random.Random(den)
    for dim in (3, 2):
        for _ in range(20):
            boxes = []
            for _ in range(2):
                lo = [rng.randint(-2 * den, den) for _ in range(dim)]
                boxes += [tuple(lo), tuple(c + rng.randint(0, den) for c in lo)]
            assert lattice_translates(*boxes, den) == _translates_brute_force(*boxes, den)


# ---------------------------------------------------------------------------
# integer inputs: certification runs the predicates on D-scaled coordinates

BIG = 3 * 2**60  # above 2**53, and a multiple of every denominator below


def _big(x):
    """BIG * x as ints, for a rational or nested tuples of them."""
    if isinstance(x, tuple):
        return tuple(_big(y) for y in x)
    if isinstance(x, str):
        return x
    q = BIG * x
    assert q.denominator == 1
    return q.numerator


def _down(p):
    """A point of the BIG-scaled input, scaled back."""
    return tuple(rat(c, BIG) for c in p)


def _hit_down(h, k):
    """A :class:`SegmentHit` on the BIG-scaled input, scaled back: its
    parameters and its point's weight are homogeneous of degree k in the
    input, and its point's coordinates of degree k + 1."""

    def down(x, degree):
        return None if x is None else rat(x, BIG**degree)

    point = tuple(down(c, k + 1) for c in h.hp[:-1])
    return SegmentHit(down(h.tn, k), down(h.un, k), down(h.den, k), (*point, down(h.hp[-1], k)))


def _floats(x):
    """Every float inside a result built of tuples and dataclasses."""
    if isinstance(x, float):
        return [x]
    if dataclasses.is_dataclass(x):
        x = dataclasses.astuple(x)
    if isinstance(x, tuple):
        return [f for y in x for f in _floats(y)]
    return []


W = _pt(rat(1, 3), rat(2, 3))
SHIFTED_B = tuple(vadd(p, _pt(rat(1, 3), rat(1, 4), rat(1, 2))) for p in TRI_B)


# predicate -> (rational arguments, its result on BIG-scaled arguments scaled back)
BIG_CASES = {
    seg_intersect: (
        ((_pt(0, 0), _pt(rat(2, 3), 1)), (_pt(0, rat(1, 2)), _pt(1, rat(1, 2)))),
        lambda h: _hit_down(h, 2),
    ),
    collinear_overlap: (
        ((_pt(0, 0), _pt(2, 1)), (_pt(4, 2), _pt(1, rat(1, 2)))),
        lambda r: tuple(_down(p) for p in r),
    ),
    seg_crossing: (
        ((_pt(0, 0), _pt(rat(2, 3), 1)), (_pt(0, rat(1, 2)), _pt(1, rat(1, 2)))),
        lambda r: r,
    ),
    contact_only_at: (((_pt(0, 0), W), (W, _pt(2, rat(1, 3))), W), lambda r: r),
    # a foot inside the segment: num scales by BIG^4 and den by BIG^2
    dist2_point_seg_parts: (
        (_pt(rat(1, 3), 1), (_pt(0, 0), _pt(2, rat(1, 2)))),
        lambda r: (rat(r[0], BIG**4), rat(r[1], BIG**2)),
    ),
    _clip_line: (
        (_pt(rat(1, 3), rat(1, 2), 0), _pt(1, rat(2, 3), 0), TRI_A, "a"),
        lambda r: r,
    ),
    # the ends scaled back, written homogeneous again
    _tri_tri: (
        (TRI_A, SHIFTED_B),
        lambda h: TriTriHit(*(lowest_terms(*e, 1) for e in _hit_ends(h, BIG)), h.tag_p, h.tag_q),
    ),
    _coplanar_relation: (
        (TRI_A, (_pt(1, 1, 0), _pt(5, 1, 0), _pt(1, 3, 0))),
        lambda r: r,
    ),
    segment_triangle_hit: (
        (_pt(rat(1, 3), 1, -1), _pt(rat(1, 2), rat(2, 3), rat(1, 2)), TRI_A),
        lambda h: _hit_down(h, 3),
    ),
    # through an edge of the triangle, decided by the translate's tie
    segment_crosses_translate: (
        (_pt(2, 2, -1), _pt(rat(3, 2), rat(5, 2), 1), TRI_A, tri_normal(TRI_A)),
        lambda r: r,
    ),
    # rational boxes with den = 1, whose BIG-scaled copy has den = BIG; the
    # boxes touch at the faces x = -1 and z = 1 of the first box
    lattice_translates: (
        (
            _pt(-1, rat(-1, 3), rat(-5, 2)),
            _pt(rat(1, 2), rat(7, 3), 1),
            _pt(rat(-3, 2), rat(2, 3), 0),
            _pt(0, 1, rat(1, 2)),
            1,
        ),
        lambda r: r,
    ),
}


@pytest.mark.parametrize("fn", list(BIG_CASES), ids=lambda fn: fn.__name__)
def test_predicates_on_big_integers_are_exact(fn):
    args, back = BIG_CASES[fn]
    want = fn(*args)
    got = fn(*_big(args))
    assert not _floats(got), got
    assert back(got) == want
    assert want is not None
    if isinstance(got, SegmentHit):
        # the hit's fields are ints, and the rationals built from them
        # are those of the rational input
        assert {type(c) for c in (got.tn, got.den, *got.hp)} == {int}
        assert got.un is None or type(got.un) is int
        assert (_down(hit_point(got)), *hit_params(got)) == (hit_point(want), *hit_params(want))


# ---------------------------------------------------------------------------
# affine charts


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=-2, max_value=2) for _ in range(6)]),
    points2(max_denominator=4),
    st.integers(min_value=1, max_value=12),
)
def test_transform_lift_acts_on_lifts(coeffs, p, den):
    t = Transform2(*map(rat, coeffs))
    lifted = t.lift(den)
    assert {type(c) for c in dataclasses.astuple(lifted)} == {int}
    assert lifted.apply(vscale(den, p)) == vscale(den, t.apply(p))
    with pytest.raises(ValueError):
        Transform2(rat(1, 2), ZERO, ZERO, ONE, ZERO, ZERO).lift(den)


# ---------------------------------------------------------------------------
# pushoff
#
# A chain is given by the integer lifts den * p of its chart points, and the
# offset points come back as homogeneous int triples (X, Y, W) over the
# lifts.  The expected values below are chart points (X / (W den), Y / (W den)).


def lift(p, den):
    q = vscale(den, p)
    assert all(c.denominator == 1 for c in q)
    return tuple(c.numerator for c in q)


def lifted_chain(den, vertices):
    """The closed corner chain through ``vertices``, on their lifts by den."""
    v = [lift(p, den) for p in vertices]
    pieces = tuple(ChainPiece("s", v[i], v[(i + 1) % len(v)]) for i in range(len(v)))
    return ClosedChain(pieces, tuple(ChainLink("corner") for _ in v), den)


def chart_point(p, den):
    x, y, w = p
    assert {type(c) for c in p} == {int} and w > 0
    return (rat(x, w * den), rat(y, w * den))


def chart_pieces(res, den):
    return [(chart_point(p.start, den), chart_point(p.end, den)) for p in res.pieces]


def square_loop_chain():
    return lifted_chain(
        4,
        [
            (rat(1, 4), rat(1, 4)),
            (rat(3, 4), rat(1, 4)),
            (rat(3, 4), rat(3, 4)),
            (rat(1, 4), rat(3, 4)),
        ],
    )


def test_pushoff_square_loop_left_is_concentric():
    eps = rat(1, 100)
    chain = square_loop_chain()
    res = pushoff_polyline(chain, epsilon=eps)
    assert res.jump is None
    lo, hi = rat(13, 50), rat(37, 50)
    expect = [
        ((lo, lo), (hi, lo)),
        ((hi, lo), (hi, hi)),
        ((hi, hi), (lo, hi)),
        ((lo, hi), (lo, lo)),
    ]
    assert chart_pieces(res, chain.den) == expect


def test_pushoff_oversized_epsilon_collides():
    with pytest.raises(PushoffCollision):
        pushoff_polyline(square_loop_chain(), epsilon=rat(1, 3))


def test_pushoff_miter_on_the_chart_edge_collides():
    # the clockwise triangle (1/8, 1/2), (1/2, 3/4), (1/2, 1/4), lifted by 8;
    # its left offset lies outside it, and the miter at the lifted vertex
    # (1, 4) moves toward the W edge as epsilon grows
    v = [(1, 4), (4, 6), (4, 2)]
    pieces = tuple(ChainPiece(0, v[i], v[(i + 1) % 3]) for i in range(3))
    chain = ClosedChain(pieces, tuple(ChainLink("corner") for _ in v), 8)
    # at 5/52 the miter at (1, 4) is the lifted point (0, 4): on the W edge
    with pytest.raises(PushoffCollision, match="miter left the chart"):
        pushoff_polyline(chain, epsilon=rat(5, 52))
    # a hair smaller, it is (1/1000, 4), just inside
    res = pushoff_polyline(chain, epsilon=rat(999, 10400))
    assert res.pieces[0].start == (1, 4000, 1000)


def test_pushoff_epsilon_precondition():
    for epsilon in (ZERO, rat(-1, 10)):
        with pytest.raises(ValueError, match="positive"):
            pushoff_polyline(square_loop_chain(), epsilon=epsilon)


def torus_horizontal_chain():
    # single horizontal loop through the E~W gluing of a torus square,
    # lifted by 2
    t = Transform2(ONE, ZERO, ZERO, ONE, rat(-1), ZERO).lift(2)
    pieces = (
        ChainPiece("s", (1, 1), (2, 1)),
        ChainPiece("s", (0, 1), (1, 1)),
    )
    links = (
        ChainLink("wrap", transform=t, sign=0, out_edge="E"),
        ChainLink("corner"),
    )
    return ClosedChain(pieces, links, 2)


def test_pushoff_torus_loop_two_sided():
    eps = rat(1, 100)
    res = pushoff_polyline(torus_horizontal_chain(), epsilon=eps)
    assert res.jump is None
    y = rat(1, 2) + eps
    assert chart_pieces(res, 2) == [
        ((rat(1, 2), y), (rat(1), y)),
        ((rat(0), y), (rat(1, 2), y)),
    ]


def klein_horizontal_chain():
    # same loop but through an orientation-reversing E~W gluing, lifted by 4
    t = Transform2(rat(1), rat(0), rat(0), rat(-1), rat(-1), rat(1)).lift(4)
    pieces = (
        ChainPiece("s", (1, 2), (4, 2)),
        ChainPiece("s", (0, 2), (1, 2)),
    )
    links = (
        ChainLink("wrap", transform=t, sign=1, out_edge="E"),
        ChainLink("corner"),
    )
    return ClosedChain(pieces, links, 4)


def test_pushoff_klein_loop_reconnects_with_jump():
    eps = rat(1, 100)
    res = pushoff_polyline(klein_horizontal_chain(), epsilon=eps)
    assert res.jump is not None
    up, down = rat(51, 100), rat(49, 100)
    assert chart_pieces(res, 4) == [
        ((rat(5, 8), up), (rat(1), up)),
        ((rat(0), down), (rat(1, 4), down)),
        ((rat(1, 4), down), (rat(5, 8), down)),
    ]
    jump = (chart_point(res.jump.start, 4), chart_point(res.jump.end, 4))
    assert jump == ((rat(5, 8), down), (rat(5, 8), up))


def test_pushoff_rejects_discontinuous_chain():
    pieces = (
        ChainPiece("s", (1, 1), (3, 1)),
        ChainPiece("s", (2, 3), (1, 1)),
    )
    links = (ChainLink("corner"), ChainLink("corner"))
    with pytest.raises(ValueError):
        pushoff_polyline(ClosedChain(pieces, links, 4), epsilon=rat(1, 100))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=12),
)
def test_pushoff_square_loops_stay_at_distance_epsilon(cx, cy):
    # axis-aligned loops make the L1-normalized offset an exact Euclidean
    # offset, so every offset piece lies at squared distance epsilon^2
    center = (rat(cx, 16), rat(cy, 16))
    half = rat(1, 8)
    if not (half < center[0] < 1 - half and half < center[1] < 1 - half):
        return
    v = [
        vadd(center, (-half, -half)),
        vadd(center, (half, -half)),
        vadd(center, (half, half)),
        vadd(center, (-half, half)),
    ]
    chain = lifted_chain(16, v)
    eps = rat(1, 64)
    res = pushoff_polyline(chain, epsilon=eps)
    for i, (start, end) in enumerate(chart_pieces(res, chain.den)):
        mid_o = vscale(rat(1, 2), vadd(v[i], v[(i + 1) % 4]))
        mid_p = vscale(rat(1, 2), vadd(start, end))
        assert oracles.dist2(mid_o, mid_p) == eps * eps
