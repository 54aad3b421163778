"""Multicurves: building, certification, double points, pairings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint.exactgeom import vscale
from multipoint.rational import rat
from multipoint.curves2d import (
    CurveBuildError,
    GeneralPositionError,
    MultiCurve,
    component_chain,
    double_points,
    herbert_lhs_r1,
    herbert_rhs_r1_parts,
    mu_count_r1,
    pairing_mod2,
)
import oracles
from helpers import genus2_complex, klein_complex, ordered_preimages, torus_complex

TORUS = torus_complex()
KLEIN = klein_complex()
GENUS2 = genus2_complex()


def curve(cx, *comps):
    return MultiCurve.build(cx, [[(sq, (rat(x), rat(y))) for sq, x, y in comp] for comp in comps])


FIG8 = [(0, "1/4", "1/4"), (0, "3/4", "3/4"), (0, "3/4", "1/4"), (0, "1/4", "3/4")]
HORIZ = [(0, "1/4", "1/2"), (0, "5/4", "1/2")]
VERT = [(0, "1/2", "1/4"), (0, "1/2", "5/4")]


def rq(s):
    if isinstance(s, str) and "/" in s:
        p, q = s.split("/")
        return rat(int(p), int(q))
    return rat(int(s))


def curve_str(cx, *comps):
    return MultiCurve.build(cx, [[(sq, (rq(x), rq(y))) for sq, x, y in comp] for comp in comps])


# ---------------------------------------------------------------------------
# building


def test_horizontal_loop_builds_with_one_wrap():
    c = curve_str(TORUS, HORIZ)
    comp = c.components[0]
    assert len(comp.vertices) == 1
    assert comp.vertices[0] == (0, (rat(1, 4), rat(1, 2)))
    crossing = comp.crossings[0]
    assert crossing.edge == "E"
    assert crossing.exit_point == (rat(1), rat(1, 2))
    assert crossing.entry_point == (rat(0), rat(1, 2))
    assert crossing.t == rat(3, 4)
    assert crossing.sign == 0
    assert [(p.p0, p.p1) for p in comp.pieces] == [
        ((rat(1, 4), rat(1, 2)), (rat(1), rat(1, 2))),
        ((rat(0), rat(1, 2)), (rat(1, 4), rat(1, 2))),
    ]


def test_klein_loop_crossing_sign():
    c = curve_str(KLEIN, HORIZ)
    comp = c.components[0]
    assert comp.crossings[0].sign == 1
    assert comp.two_sidedness() == 1
    assert curve_str(KLEIN, VERT).components[0].two_sidedness() == 0


def test_genus2_three_square_transit():
    c = curve_str(
        GENUS2,
        [(0, "1/2", "1/2"), (0, "3/2", "1/2"), (1, "3/2", "1/2"), (2, "3/2", "1/2")],
    )
    comp = c.components[0]
    assert len(comp.vertices) == 3
    assert [v[0] for v in comp.vertices] == [0, 1, 2]
    assert all(cr is not None and cr.sign == 0 for cr in comp.crossings)
    assert comp.two_sidedness() == 0


def test_corner_crossing_rejected():
    with pytest.raises(CurveBuildError, match="corner-crossing"):
        curve_str(TORUS, [(0, "1/2", "1/2"), (0, "3/2", "3/2")])


def test_double_wrap_rejected():
    with pytest.raises(CurveBuildError, match="more than one gluing"):
        curve_str(TORUS, [(0, "1/2", "1/2"), (0, "5/2", "1/2")])


def test_wrong_square_tag_rejected():
    with pytest.raises(CurveBuildError, match="square"):
        curve_str(GENUS2, [(0, "1/2", "1/2"), (1, "1/4", "1/4")])


def test_unclosed_component_rejected():
    with pytest.raises(CurveBuildError, match="began in square"):
        curve_str(GENUS2, [(0, "1/2", "1/2"), (0, "3/2", "1/2"), (1, "1/4", "1/4")])


# ---------------------------------------------------------------------------
# certification


def test_figure_eight_cert_and_double_point():
    c = curve_str(TORUS, FIG8)
    cert = c.certify()
    assert cert.ok
    assert c.min_sep_sq is not None and c.min_sep_sq > 0
    dps = double_points(c)
    assert len(dps) == 1
    dp = dps[0]
    assert dp.point == (rat(1, 2), rat(1, 2))
    assert dp.branches == ((0, 0, rat(1, 2)), (0, 2, rat(1, 2)))
    assert len(ordered_preimages(c)) == 2


def test_two_loops_double_point_parameters():
    c = curve_str(TORUS, HORIZ, VERT)
    dps = double_points(c)
    assert len(dps) == 1
    assert dps[0].point == (rat(1, 2), rat(1, 2))
    assert dps[0].branches == ((0, 0, rat(1, 4)), (1, 0, rat(1, 4)))


def test_vertex_on_edge_flagged():
    c = curve_str(TORUS, [(0, "1/2", "0"), (0, "3/4", "1/2"), (0, "1/4", "1/2")])
    cert = c.certify()
    assert "vertex-on-edge" in cert.violation_names


def test_zero_length_segment_flagged():
    c = curve_str(
        TORUS,
        [(0, "1/4", "1/4"), (0, "3/4", "1/4"), (0, "3/4", "1/4"), (0, "1/2", "3/4")],
    )
    assert "zero-length-segment" in c.certify().violation_names


def test_tangency_flagged():
    c = curve_str(
        TORUS,
        HORIZ,
        [(0, "1/2", "1/2"), (0, "3/4", "3/4"), (0, "1/4", "3/4")],
    )
    assert "tangency" in c.certify().violation_names


def test_degenerate_overlap_flagged_between_components():
    c = curve_str(
        TORUS,
        HORIZ,
        [(0, "1/4", "1/2"), (0, "3/4", "1/2"), (0, "1/2", "3/4")],
    )
    assert "degenerate-overlap" in c.certify().violation_names


def test_hairpin_cusp_flagged():
    c = curve_str(
        TORUS,
        [(0, "1/4", "1/4"), (0, "3/4", "3/4"), (0, "1/2", "1/2"), (0, "1/4", "3/4")],
    )
    assert "degenerate-overlap" in c.certify().violation_names


def test_triple_point_flagged():
    c = curve_str(
        TORUS,
        HORIZ,
        VERT,
        [(0, "1/4", "1/4"), (0, "3/4", "3/4"), (0, "5/8", "1/8")],
    )
    cert = c.certify()
    assert "triple-point" in cert.violation_names
    with pytest.raises(GeneralPositionError):
        double_points(c)


def test_violation_names_are_sorted_and_unique():
    c = curve_str(
        TORUS, [(0, "1/2", "0"), (0, "3/4", "1/2"), (0, "1/4", "1/2")], HORIZ
    )
    cert = c.certify()
    names = ["degenerate-overlap", "tangency", "vertex-on-edge"]
    assert len(cert.violations) > len(names)
    assert cert.violation_names == names
    with pytest.raises(GeneralPositionError, match=": " + ", ".join(names) + "$"):
        double_points(c)


def test_collinear_continuation_is_legal():
    # a vertex of angle pi subdividing a straight run is not a violation
    c = curve_str(
        TORUS,
        [(0, "1/4", "1/4"), (0, "1/2", "1/4"), (0, "3/4", "1/4"), (0, "1/2", "3/4")],
    )
    assert c.certify().ok


def test_wrapped_loop_collinear_through_vertex_is_legal():
    assert curve_str(TORUS, HORIZ).certify().ok


# ---------------------------------------------------------------------------
# pairings against the intersection-matrix oracles


def test_torus_pairings_match_matrix_oracle():
    h = curve_str(TORUS, HORIZ)
    v = curve_str(TORUS, VERT)
    stair = curve_str(TORUS, [(0, "1/2", "1/4"), (0, "9/8", "5/8"), (0, "1/2", "5/4")])
    # coordinates are written in the (horizontal, vertical) basis
    assert oracles.torus_coords(h, TORUS) == (1, 0)
    assert oracles.torus_coords(v, TORUS) == (0, 1)
    assert oracles.torus_coords(stair, TORUS) == (1, 1)
    for a in (h, v, stair):
        for b in (h, v, stair):
            expected = oracles.torus_pairing_oracle(a, b, TORUS)
            assert pairing_mod2(a, 0, b) == expected, (a, b)


def test_klein_pairings_match_matrix_oracle():
    core = curve_str(KLEIN, HORIZ)
    vert = curve_str(KLEIN, VERT)
    assert oracles.klein_coords(core, KLEIN) == (1, 0)
    assert oracles.klein_coords(vert, KLEIN) == (0, 1)
    for a in (core, vert):
        for b in (core, vert):
            expected = oracles.klein_pairing_oracle(a, b, KLEIN)
            assert pairing_mod2(a, 0, b) == expected, (a, b)
    # the one-sided core has odd self-pairing
    assert pairing_mod2(core, 0, core) == 1


def test_pairing_handles_touching_representatives():
    # the staircase starts exactly on the vertical loop; the pushoff still
    # computes the homological pairing
    stair = curve_str(TORUS, [(0, "1/2", "1/4"), (0, "9/8", "5/8"), (0, "1/2", "5/4")])
    v = curve_str(TORUS, VERT)
    assert pairing_mod2(stair, 0, v) == 1
    assert pairing_mod2(stair, 0, stair) == 0


# ---------------------------------------------------------------------------
# the identity at r = 1


def test_figure_eight_identity_row():
    c = curve_str(TORUS, FIG8)
    assert herbert_lhs_r1(c, 0) == 0
    assert herbert_rhs_r1_parts(c, 0) == (0, 0)  # two preimages on C, two-sided
    assert mu_count_r1(c, 0) == 2
    assert sum(herbert_rhs_r1_parts(c, 0)) % 2 == 0


def test_two_loops_identity_rows():
    c = curve_str(TORUS, HORIZ, VERT)
    for comp in (0, 1):
        assert herbert_lhs_r1(c, comp) == 1
        assert herbert_rhs_r1_parts(c, comp) == (1, 0)
        assert herbert_lhs_r1(c, comp) == sum(herbert_rhs_r1_parts(c, comp)) % 2


def test_klein_core_identity_row():
    c = curve_str(KLEIN, HORIZ)
    assert herbert_lhs_r1(c, 0) == 1
    assert herbert_rhs_r1_parts(c, 0) == (0, 1)
    assert herbert_lhs_r1(c, 0) == sum(herbert_rhs_r1_parts(c, 0)) % 2


def test_genus2_transit_identity_row():
    c = curve_str(
        GENUS2,
        [(0, "1/2", "1/2"), (0, "3/2", "1/2"), (1, "3/2", "1/2"), (2, "3/2", "1/2")],
    )
    assert herbert_lhs_r1(c, 0) == 0
    assert herbert_rhs_r1_parts(c, 0) == (0, 0)


# ---------------------------------------------------------------------------
# properties


@st.composite
def interior_polygon(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    pts = []
    for _ in range(n):
        x = draw(st.integers(min_value=1, max_value=15))
        y = draw(st.integers(min_value=1, max_value=15))
        pts.append((0, (rat(x, 16), rat(y, 16))))
    return pts


@settings(max_examples=120, deadline=None)
@given(interior_polygon())
def test_interior_polygons_satisfy_identity_when_certified(raw):
    c = MultiCurve.build(TORUS, [raw])
    cert = c.certify()
    if not cert.ok:
        return
    # a polygon inside one square bounds, so the pairing side vanishes, and
    # its preimage count is even while it is always two-sided
    assert herbert_lhs_r1(c, 0) == 0
    mu_bit, euler_bit = herbert_rhs_r1_parts(c, 0)
    assert euler_bit == 0
    assert mu_bit == 0


@settings(max_examples=80, deadline=None)
@given(interior_polygon(), st.integers(min_value=0, max_value=5))
def test_refining_a_segment_changes_nothing(raw, which):
    c = MultiCurve.build(TORUS, [raw])
    if not c.certify().ok:
        return
    n = len(raw)
    i = which % n
    a = raw[i][1]
    b = raw[(i + 1) % n][1]
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    refined_raw = raw[: i + 1] + [(0, mid)] + raw[i + 1 :]
    refined = MultiCurve.build(TORUS, [refined_raw])
    if not refined.certify().ok:
        return  # the midpoint can land on another branch
    assert [d.point for d in double_points(refined)] == [d.point for d in double_points(c)]
    assert herbert_lhs_r1(refined, 0) == herbert_lhs_r1(c, 0)
    assert sum(herbert_rhs_r1_parts(refined, 0)) % 2 == sum(herbert_rhs_r1_parts(c, 0)) % 2


def test_chain_roundtrip_matches_pieces():
    c = curve_str(TORUS, FIG8)
    # the chain holds the curve's lifts by its common denominator
    chain = component_chain(c, 0)
    assert chain.den == 4
    assert [(p.start, p.end) for p in chain.pieces] == [
        (vscale(4, p.p0), vscale(4, p.p1)) for p in c.components[0].pieces
    ]
    assert all(l.kind == "corner" for l in chain.links)
    h = curve_str(TORUS, HORIZ)
    chain_h = component_chain(h, 0)
    assert [l.kind for l in chain_h.links] == ["wrap", "corner"]
    # the wrap acts on lifts: the exit (1, 1/2) lifts to (4, 2) and lands on (0, 2)
    assert chain_h.den == 4 and chain_h.links[0].transform.apply((4, 2)) == (0, 2)


# ---------------------------------------------------------------------------
# unions certified from their parts


def _generated_curves(ambient, count):
    """Certified generated curves of one ambient, all on one complex."""
    from multipoint import generate

    curves = []
    for k in range(count):
        config = generate.GeneratorConfig(
            ambient=ambient,
            components=(1 + k % 2, 1 + k % 2),
            segments=(3 + k % 4, 3 + k % 4),
            seed=7 * k + 1,
        )
        raw = generate.generate(config).multicurve("c")
        complex_ = curves[0].complex if curves else raw.complex
        curves.append(MultiCurve(complex_, raw.components))
        assert curves[-1].certify().ok
    return curves


def _whole(a, b):
    return MultiCurve(a.complex, a.components + b.components)


@pytest.mark.parametrize("ambient", ["torus", "klein", "genus2"])
def test_union_certifies_like_the_whole_curve(ambient):
    curves = _generated_curves(ambient, 4)
    verdicts = set()
    for a in curves:
        for b in curves:  # both orders, and a curve with itself
            union, whole = a.union(b), _whole(a, b)
            cert = union.certify()
            assert cert == whole.certify()  # violations in order, double points
            assert union.lift() == whole.lift()
            assert union._parts == ()
            verdicts.add(cert.ok)
    assert verdicts == {True, False}


def _assert_refused_like_the_whole(a, b, name):
    assert a.certify().ok and b.certify().ok
    union = a.union(b)
    assert name in union.certify().violation_names
    assert union.certify() == _whole(a, b).certify()


def test_union_refuses_a_crossing_through_a_part_double_point():
    # the horizontal loop crosses both branches of the figure eight at its
    # double point (1/2, 1/2)
    fig8 = curve_str(TORUS, FIG8)
    loop = curve_str(TORUS, [(0, "1/8", "1/2"), (0, "9/8", "1/2")])
    _assert_refused_like_the_whole(fig8, loop, "triple-point")
    _assert_refused_like_the_whole(loop, fig8, "triple-point")


def test_union_refuses_a_tangency_across_its_parts():
    vertex_on_loop = curve_str(TORUS, [(0, "1/2", "1/2"), (0, "3/4", "3/4"), (0, "1/4", "3/4")])
    _assert_refused_like_the_whole(curve_str(TORUS, HORIZ), vertex_on_loop, "tangency")


def test_union_refuses_an_overlap_across_its_parts():
    along_loop = curve_str(TORUS, [(0, "1/4", "1/2"), (0, "3/4", "1/2"), (0, "1/2", "3/4")])
    _assert_refused_like_the_whole(curve_str(TORUS, HORIZ), along_loop, "degenerate-overlap")


def test_union_with_an_uncertified_or_rejected_part():
    fig8 = curve_str(TORUS, FIG8)
    assert fig8.certify().ok
    fresh = curve_str(TORUS, VERT)
    union = fig8.union(fresh)
    assert union.certify() == _whole(fig8, fresh).certify()
    assert fresh._cert is None  # a part is never certified by its union
    rejected = curve_str(TORUS, [(0, "1/2", "0"), (0, "3/4", "1/2"), (0, "1/4", "1/2")])
    assert not rejected.certify().ok
    for a, b in ((fig8, rejected), (rejected, fig8)):
        assert a.union(b).certify() == _whole(a, b).certify()


def test_cartan_check_crosses_only_pairs_across_its_parts(monkeypatch):
    import multipoint.curves2d as c2
    from multipoint.bordism import check_cartan, class_of_curve

    _, a, _, b = _generated_curves("torus", 4)  # two components each
    assert a.certify().double_points and b.certify().double_points
    assert _whole(a, b).certify().ok
    f, g = class_of_curve(a), class_of_curve(b)
    certified, crossed = [], []
    real_certify, real_intersect = c2._certify, c2.seg_intersect

    def counted_certify(curve):
        certified.append(curve)
        return real_certify(curve)

    def counted_intersect(sa, sb):
        crossed.append((sa, sb))
        return real_intersect(sa, sb)

    monkeypatch.setattr(c2, "_certify", counted_certify)
    monkeypatch.setattr(c2, "seg_intersect", counted_intersect)
    assert check_cartan(f, g, 2).ok
    assert [curve.components for curve in certified] == [a.components + b.components]
    on_a, on_b = a.pieces_by_square(), b.pieces_by_square()
    cross_pairs = sum(len(on_a[sq]) * len(on_b.get(sq, ())) for sq in on_a)
    assert cross_pairs > 0
    assert len(crossed) == cross_pairs
