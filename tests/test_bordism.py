"""Represented classes: monoid ops, products, pullbacks, psi/mu laws."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multipoint import bordism, curves2d, surfaces3d
from multipoint.bordism import (
    AMBIENT_T3,
    CURVES_IN_3TORUS,
    CURVES_IN_SURFACE,
    CURVES_ON_SOURCE_MESH,
    GENERICALLY_EMPTY,
    IDENTITY_UNIVERSE,
    POINTS_IN_3TORUS,
    POINTS_IN_SURFACE,
    POINTS_ON_SOURCE_CIRCLES,
    POINTS_ON_SOURCE_MESH,
    TransversalityError,
    add,
    check_cartan,
    check_mu_tower,
    check_naturality,
    class_of_curve,
    class_of_mesh,
    empty_class,
    identity_class,
    internal_product,
    mu_r,
    psi_r,
    pullback_class,
)
from multipoint.curves2d import MultiCurve
from multipoint.exactgeom import GeneralPositionError
from multipoint.generate import CURVE_AMBIENTS, TORI_AMBIENT, GeneratorConfig, generate
from multipoint.rational import rat
from multipoint.surfaces3d import Mesh3, coordinate_torus

import oracles
from helpers import diagonal_fold_sheet, klein_complex, torus_complex

TORUS = torus_complex()
KLEIN = klein_complex()
Q = rat(1, 4)

FIG8 = [(0, rat(1, 4), rat(1, 4)), (0, rat(3, 4), rat(3, 4)),
        (0, rat(3, 4), rat(1, 4)), (0, rat(1, 4), rat(3, 4))]
# a second figure-eight whose two diagonals cross the first one's vertical
# strand at x = 1/4 and nothing else
SMALL8 = [(0, rat(5, 32), rat(13, 32)), (0, rat(3, 8), rat(9, 16)),
          (0, rat(3, 8), rat(13, 32)), (0, rat(5, 32), rat(9, 16))]
HORIZ = [(0, rat(1, 4), rat(1, 2)), (0, rat(5, 4), rat(1, 2))]
VERT = [(0, rat(1, 2), rat(1, 4)), (0, rat(1, 2), rat(5, 4))]


def mk(cx, *comps):
    raw = [[(sq, (x, y)) for sq, x, y in c] for c in comps]
    return class_of_curve(MultiCurve.build(cx, raw))


def z_torus(offset=0):
    return coordinate_torus(2, Q, offset)


def y_torus(offset=rat(-1, 8)):
    return coordinate_torus(1, Q, offset)


def x_torus(offset=rat(-3, 16)):
    return coordinate_torus(0, Q, offset)


# --- construction and the monoid --------------------------------------------


def test_curve_class_certifies():
    f = mk(TORUS, FIG8)
    assert f.universe == CURVES_IN_SURFACE
    assert f.structure == (0,)
    with pytest.raises(curves2d.GeneralPositionError):
        mk(TORUS, FIG8, FIG8)


def test_mesh_class_certifies():
    m = class_of_mesh(Mesh3(z_torus()))
    assert m.universe == "surfaces-in-3-torus"
    with pytest.raises(surfaces3d.GeneralPositionError):
        class_of_mesh(Mesh3(z_torus() + z_torus(rat(-1, 8))))


def test_add_empty_is_identity():
    f = mk(TORUS, FIG8)
    assert add(f, empty_class()) is f
    assert add(empty_class(), f) is f
    assert add(empty_class(), empty_class()).is_empty


def test_add_curves_commutes():
    a = mk(TORUS, HORIZ)
    b = mk(TORUS, VERT)
    ab, ba = add(a, b), add(b, a)
    assert ab.universe == ba.universe == CURVES_IN_SURFACE
    # each component keeps its own bit, whichever operand comes first
    records = lambda cls: {
        (c.vertices, bit) for c, bit in zip(cls.payload.components, cls.structure)
    }
    assert records(ab) == records(ba)


def test_add_meshes():
    s = add(class_of_mesh(Mesh3(z_torus())), class_of_mesh(Mesh3(y_torus())))
    assert len(s.payload.triangles) == 4
    assert s.payload.certify().ok
    with pytest.raises(surfaces3d.GeneralPositionError):
        add(class_of_mesh(Mesh3(z_torus())), class_of_mesh(Mesh3(z_torus(rat(-1, 8)))))


def test_add_universe_and_ambient_mismatch():
    f = mk(TORUS, FIG8)
    with pytest.raises(ValueError, match="universe"):
        add(f, class_of_mesh(Mesh3(z_torus())))
    with pytest.raises(ValueError, match="ambient"):
        add(f, mk(KLEIN, FIG8))


def test_add_point_sets_require_disjointness():
    p = psi_r(mk(TORUS, FIG8), 2)
    q = psi_r(mk(TORUS, SMALL8), 2)
    merged = add(p, q)
    assert merged.universe == POINTS_IN_SURFACE
    assert len(merged.payload) == 2
    with pytest.raises(TransversalityError):
        add(p, p)


def test_add_points_keeps_each_points_bits():
    # the crossing of the Klein bottle's one-sided core HORIZ with VERT
    # carries bits (0, 1); the double point of SMALL8 carries (0, 0)
    a = internal_product(mk(KLEIN, HORIZ), mk(KLEIN, VERT))
    b = psi_r(mk(KLEIN, SMALL8), 2)
    ab, ba = add(a, b), add(b, a)
    assert (ab.payload, ab.structure) == (ba.payload, ba.structure)
    bits = dict(zip(ab.payload, ab.structure))
    assert bits[(0, (rat(1, 2), rat(1, 2)))] == (0, 1)
    assert bits[(0, (rat(17, 64), rat(31, 64)))] == (0, 0)


def test_add_circles_in_3torus():
    # circle (t, 1/4, 1/4) and circle (1/4, t, 3/8) are disjoint;
    # circle (1/4, t, 1/4) meets the first at the point (1/4, 1/4, 1/4)
    z, y, x = (class_of_mesh(Mesh3(t())) for t in (z_torus, y_torus, x_torus))
    a = internal_product(z, y)
    b = internal_product(
        class_of_mesh(Mesh3(coordinate_torus(2, rat(3, 8), rat(-1, 16)))),
        x,
    )
    touching = internal_product(z, x)
    merged = add(a, b)
    assert merged.universe == CURVES_IN_3TORUS
    assert len(merged.payload) == 2
    with pytest.raises(TransversalityError):
        add(a, touching)


# --- psi_r -------------------------------------------------------------------


def test_psi_0_and_1():
    f = mk(TORUS, FIG8)
    assert psi_r(f, 0).universe == IDENTITY_UNIVERSE
    assert psi_r(f, 1) is f
    with pytest.raises(ValueError):
        psi_r(f, -1)


def test_psi_2_of_figure_eight():
    p = psi_r(mk(TORUS, FIG8), 2)
    assert p.universe == POINTS_IN_SURFACE
    assert p.payload == ((0, (rat(1, 2), rat(1, 2))),)
    assert p.structure == ((0, 0),)


def test_psi_2_of_embedding_is_computed_empty():
    p = psi_r(mk(TORUS, HORIZ), 2)
    assert p.is_empty
    assert p.note == ""


def test_psi_out_of_range_is_generically_empty():
    f = mk(TORUS, FIG8)
    assert psi_r(f, 3).note == GENERICALLY_EMPTY
    m = class_of_mesh(Mesh3(z_torus() + y_torus() + x_torus()))
    assert psi_r(m, 4).note == GENERICALLY_EMPTY
    circles = psi_r(m, 2)
    assert psi_r(circles, 2).note == GENERICALLY_EMPTY


def test_psi_on_three_tori():
    m = class_of_mesh(Mesh3(z_torus() + y_torus() + x_torus()))
    circles = psi_r(m, 2)
    assert circles.universe == CURVES_IN_3TORUS
    assert sorted(h1 for _, h1 in circles.payload) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0),
    ]
    assert circles.structure == ((0, 0),) * 3
    points = psi_r(m, 3)
    assert points.universe == POINTS_IN_3TORUS
    assert points.payload == ((Q, Q, Q),)


# --- mu_r ---------------------------------------------------------------------


def test_mu_2_of_figure_eight():
    f = mk(TORUS, FIG8)
    m = mu_r(f, 2)
    assert m.universe == POINTS_ON_SOURCE_CIRCLES
    assert m.ambient is f.payload
    assert m.payload == ((0, 0, rat(1, 2)), (0, 2, rat(1, 2)))
    with pytest.raises(ValueError):
        mu_r(f, 1)


def test_mu_of_embedding_and_out_of_range():
    f = mk(TORUS, HORIZ)
    assert mu_r(f, 2).is_empty
    assert mu_r(f, 3).note == GENERICALLY_EMPTY


def test_mu_on_three_tori():
    m = class_of_mesh(Mesh3(z_torus() + y_torus() + x_torus()))
    circles = mu_r(m, 2)
    assert circles.universe == CURVES_ON_SOURCE_MESH
    assert len(circles.payload) == 6
    assert all(w1 == 0 and not doubled for _, w1, doubled in circles.payload)
    points = mu_r(m, 3)
    assert points.universe == POINTS_ON_SOURCE_MESH
    assert points.payload == (
        (0, (Q, Q, Q)), (2, (Q, Q, Q)), (4, (Q, Q, Q)),
    )


def test_mu_2_takes_a_doubled_preimage_circle_once(monkeypatch):
    # a preimage circle that covers its double circle twice is both of the
    # circle's sheets, and mu_2 marks it once
    m = class_of_mesh(Mesh3(z_torus() + y_torus()))
    real = Mesh3.double_curves

    def doubled(mesh):
        return tuple(
            replace(dc, preimages=(replace(dc.preimages[0], doubled=True),))
            for dc in real(mesh)
        )

    monkeypatch.setattr(Mesh3, "double_curves", doubled)
    circles = mu_r(m, 2)
    assert [rec[1:] for rec in circles.payload] == [(0, True)]
    assert circles.structure == (0,)


# --- internal product ----------------------------------------------------------


def test_product_identity_marker():
    f = mk(TORUS, FIG8)
    assert internal_product(identity_class(TORUS), f) is f
    assert internal_product(f, identity_class(TORUS)) is f


def test_product_of_crossing_loops():
    p = internal_product(mk(TORUS, HORIZ), mk(TORUS, VERT))
    assert p.universe == POINTS_IN_SURFACE
    assert p.payload == ((0, (rat(1, 2), rat(1, 2))),)
    assert p.structure == ((0, 0),)


def test_product_of_disjoint_loops_is_empty():
    other = [(0, rat(1, 4), rat(7, 8)), (0, rat(5, 4), rat(7, 8))]
    p = internal_product(mk(TORUS, HORIZ), mk(TORUS, other))
    assert p.is_empty


def test_product_of_two_tori_is_one_circle():
    p = internal_product(class_of_mesh(Mesh3(z_torus())), class_of_mesh(Mesh3(y_torus())))
    assert p.universe == CURVES_IN_3TORUS
    assert len(p.payload) == 1
    canonical, h1 = p.payload[0]
    assert h1 == (1, 0, 0)
    assert len(canonical) == 4
    assert p.structure == ((0, 0),)


def test_product_of_circles_with_mesh():
    f = class_of_mesh(Mesh3(x_torus() + y_torus()))
    circles = psi_r(f, 2)
    z = class_of_mesh(Mesh3(z_torus()))
    pts = internal_product(circles, z)
    assert pts.universe == POINTS_IN_3TORUS
    assert pts.payload == ((Q, Q, Q),)
    assert internal_product(z, circles).payload == pts.payload


def test_product_negative_dimension_is_empty():
    pts = psi_r(mk(TORUS, FIG8), 2)
    p = internal_product(pts, mk(TORUS, HORIZ))
    assert p.is_empty and p.note == GENERICALLY_EMPTY


def test_product_ambient_mismatch():
    with pytest.raises(ValueError):
        internal_product(mk(TORUS, FIG8), mk(KLEIN, HORIZ))
    with pytest.raises(ValueError):
        internal_product(mk(TORUS, FIG8), class_of_mesh(Mesh3(z_torus())))


# --- pullback -------------------------------------------------------------------


def test_pullback_of_crossing_loops():
    g, f = mk(TORUS, HORIZ), mk(TORUS, VERT)
    pb = pullback_class(g, f)
    assert pb.universe == POINTS_ON_SOURCE_CIRCLES
    assert pb.ambient is g.payload
    assert pb.payload == ((0, 0, rat(1, 4)),)
    assert pb.structure == (0,)


def test_pullback_of_torus_along_torus():
    g = class_of_mesh(Mesh3(z_torus()))
    f = class_of_mesh(Mesh3(y_torus()))
    pb = pullback_class(g, f)
    assert pb.universe == CURVES_ON_SOURCE_MESH
    assert len(pb.payload) == 1
    arcs, w1 = pb.payload[0]
    assert w1 == 0
    assert len(arcs) == 4
    assert all(tri in (0, 1) for tri, _, _ in arcs)
    assert pb.structure == (0,)


def test_pullback_of_circles_along_mesh():
    g = class_of_mesh(Mesh3(z_torus()))
    circles = psi_r(class_of_mesh(Mesh3(x_torus() + y_torus())), 2)
    pb = pullback_class(g, circles)
    assert pb.universe == POINTS_ON_SOURCE_MESH
    assert pb.payload == ((0, (Q, Q, Q)),)


def test_pullback_of_empty_and_along_empty():
    g = mk(TORUS, HORIZ)
    assert pullback_class(g, empty_class()).is_empty
    with pytest.raises(ValueError):
        pullback_class(empty_class(), g)


# --- naturality --------------------------------------------------------------------


def test_naturality_anchor():
    g = class_of_mesh(Mesh3(z_torus()))
    f = class_of_mesh(Mesh3(x_torus() + y_torus()))
    rep = check_naturality(g, f)
    assert rep.ok
    assert rep.lhs == rep.rhs == ((0, (Q, Q, Q)),)


def test_naturality_with_embedded_f():
    g = class_of_mesh(Mesh3(z_torus()))
    rep = check_naturality(g, class_of_mesh(Mesh3(x_torus())))
    assert rep.ok and rep.lhs == () and rep.rhs == ()
    rep2 = check_naturality(g, class_of_mesh(Mesh3(coordinate_torus(2, rat(3, 4)))))
    assert rep2.ok and rep2.lhs == ()


def test_laws_hold_where_a_double_segment_ends_on_a_plane_outside_a_triangle():
    # f's double segment ending at (3/8, 49/64, 17/32) has that end on the
    # plane of g's triangle 2, outside the triangle: no contact
    h = [[rat(49, 64), rat(49, 64)], [rat(11, 64), rat(29, 64)]]
    g = class_of_mesh(diagonal_fold_sheet(h))
    f = class_of_mesh(
        Mesh3(coordinate_torus(0, rat(3, 8), rat(3, 16)) + coordinate_torus(1, rat(49, 64), rat(-3, 64)))
    )
    rep = check_naturality(g, f)
    assert rep.ok and len(rep.lhs) == 1
    assert check_cartan(f, g, 3).ok


def test_naturality_requires_mesh_universe():
    with pytest.raises(ValueError):
        check_naturality(mk(TORUS, HORIZ), mk(TORUS, VERT))


# --- Cartan formula ----------------------------------------------------------------


def test_cartan_two_figure_eights():
    f, g = mk(TORUS, FIG8), mk(TORUS, SMALL8)
    rep = check_cartan(f, g, 2)
    assert rep.ok
    pieces = dict(rep.rhs)
    assert len(pieces["psi2(f)"]) == 1
    assert len(pieces["psi2(g)"]) == 1
    assert pieces["f.g"] == (
        (0, (rat(1, 4), rat(53, 112))),
        (0, (rat(1, 4), rat(111, 224))),
    )
    assert len(rep.lhs) == 4


def test_cartan_disjoint_embeddings():
    other = [(0, rat(1, 4), rat(7, 8)), (0, rat(5, 4), rat(7, 8))]
    rep = check_cartan(mk(TORUS, HORIZ), mk(TORUS, other), 2)
    assert rep.ok
    assert rep.lhs == ()
    assert all(piece == () for _, piece in rep.rhs)


def test_cartan_meshes_r2():
    f = class_of_mesh(Mesh3(z_torus() + y_torus()))
    g = class_of_mesh(Mesh3(x_torus()))
    rep = check_cartan(f, g, 2)
    assert rep.ok
    pieces = dict(rep.rhs)
    assert len(pieces["psi2(f)"]) == 1
    assert len(pieces["psi2(g)"]) == 0
    assert len(pieces["f.g"]) == 2
    assert len(rep.lhs) == 3


def test_cartan_meshes_r3():
    f = class_of_mesh(Mesh3(z_torus() + y_torus()))
    g = class_of_mesh(Mesh3(x_torus()))
    rep = check_cartan(f, g, 3)
    assert rep.ok
    pieces = dict(rep.rhs)
    assert pieces["psi2(f).g"] == ((Q, Q, Q),)
    assert pieces["psi3(f)"] == ()
    assert pieces["f.psi2(g)"] == ()
    assert pieces["psi3(g)"] == ()
    assert rep.lhs == ((Q, Q, Q),)


def _counted(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cartan_r2_certifies_one_union_of_curves(monkeypatch):
    f, g = mk(TORUS, FIG8), mk(TORUS, SMALL8)
    calls = _counted(monkeypatch, curves2d, "_certify")
    assert check_cartan(f, g, 2).ok
    assert len(calls) == 1


def test_cartan_r2_certifies_one_union_of_meshes(monkeypatch):
    f = class_of_mesh(Mesh3(z_torus() + y_torus()))
    g = class_of_mesh(Mesh3(x_torus()))
    calls = _counted(monkeypatch, Mesh3, "_enumerate_pairs")
    assert check_cartan(f, g, 2).ok
    assert len(calls) == 1


def test_cartan_reunion_sees_a_point_lost_doubled_or_misplaced(monkeypatch):
    # the f.g piece has no class of its own to equal, so only the reunion
    # of the pieces with the whole sees a fault in its split
    f, g = mk(TORUS, FIG8), mk(TORUS, SMALL8)
    assert check_cartan(f, g, 2).ok
    real = bordism._by_part
    faults = (
        lambda mixed: mixed[1:],
        lambda mixed: mixed + mixed[:1],
        lambda mixed: [(j, p, s) for (_, p, s), (j, _, _) in zip(mixed, mixed[::-1])],
    )
    for fault in faults:
        def split(points, n_first, r, fault=fault):
            parts = real(points, n_first, r)
            assert len(parts[1]) == 2
            parts[1] = fault(parts[1])
            return parts

        monkeypatch.setattr(bordism, "_by_part", split)
        assert not check_cartan(f, g, 2).ok


def test_cartan_rejects_unsupported_r(monkeypatch):
    # refused before any union is built or certified
    curves = (mk(TORUS, FIG8), mk(TORUS, SMALL8))
    meshes = (class_of_mesh(Mesh3(z_torus() + y_torus())), class_of_mesh(Mesh3(x_torus())))
    counted = [
        _counted(monkeypatch, Mesh3, "union"),
        _counted(monkeypatch, curves2d.MultiCurve, "union"),
        _counted(monkeypatch, Mesh3, "_enumerate_pairs"),
        _counted(monkeypatch, curves2d, "_certify"),
    ]
    for (f, g), r in [(curves, 1), (curves, 3), (meshes, 1), (meshes, 4)]:
        with pytest.raises(ValueError, match="support"):
            check_cartan(f, g, r)
    assert counted == [[], [], [], []]


def test_cartan_keeps_a_doubled_preimage_circle_on_its_part(monkeypatch):
    # one preimage circle covering its double circle twice is both of that
    # circle's sheets, so the circle belongs wholly to the part it lies on
    f = class_of_mesh(Mesh3(z_torus() + y_torus()))
    g = class_of_mesh(Mesh3(x_torus()))
    n_f = len(f.payload.triangles)
    real = Mesh3.double_curves

    def with_doubled_f_circle(mesh):
        curves = real(mesh)
        if len(mesh.triangles) == n_f:
            return curves
        out = []
        for dc in curves:
            first = dc.preimages[0]
            if all(pc.arcs[0][0] < n_f for pc in dc.preimages):
                dc = replace(dc, preimages=(replace(first, doubled=True),))
            out.append(dc)
        return tuple(out)

    monkeypatch.setattr(Mesh3, "double_curves", with_doubled_f_circle)
    rep = check_cartan(f, g, 2)
    assert rep.ok
    assert rep.detail == "r=2 split 1+0+2"
    product = internal_product(f, g)
    assert len(product.payload) == 2
    assert product.structure == ((0, 0), (0, 0))


# --- mu tower ----------------------------------------------------------------------


def test_mu_tower_three_tori():
    m = class_of_mesh(Mesh3(z_torus() + y_torus() + x_torus()))
    rep = check_mu_tower(m)
    assert rep.ok
    assert rep.lhs == rep.rhs == (
        (0, (Q, Q, Q)), (2, (Q, Q, Q)), (4, (Q, Q, Q)),
    )


def test_mu_tower_embedded():
    rep = check_mu_tower(class_of_mesh(Mesh3(z_torus())))
    assert rep.ok and rep.lhs == () and rep.rhs == ()


def test_mu_tower_guards():
    with pytest.raises(ValueError):
        check_mu_tower(mk(TORUS, FIG8))


def test_preimage_arc_contact_is_an_internal_fault():
    # the certificate of the mesh refuses contacts between double arcs, so
    # one between preimage arcs is a bug, not an input error (exit 2)
    mesh = Mesh3(z_torus())
    a, b, c = (rat(1, 8), rat(1, 8), Q), (rat(3, 8), rat(1, 8), Q), (Q, rat(1, 2), Q)
    mid = (Q, rat(1, 8), Q)
    touching = [(((0, a, b),), 0, False), (((0, b, c),), 0, False)]
    t_contact = [(((0, a, b),), 0, False), (((0, mid, c),), 0, False)]
    for records in (touching, t_contact):
        with pytest.raises(AssertionError):
            bordism._arc_crossings_on_source(mesh, records)


# --- the order and the items of every point and circle class ---------------------


def _unless_refused(op, *args):
    """``op(*args)``, or None when the package refuses the union it builds."""
    try:
        return op(*args)
    except (GeneralPositionError, surfaces3d.MeshBuildError):
        return None


def _check_classes(f, g, rs):
    """Check the point and circle classes read off f, g and their unions
    f ⊔ g, g ⊔ f and f ⊔ f (when certified), for each r in ``rs``: psi_r,
    mu_r, the products, the pullbacks and the Cartan pieces list their
    items sorted and once each, and mu_r equals its reference.  Returns the
    number of items checked."""
    pairs = ((f, g), (g, f), (f, f))
    payloads = []
    for cls in [f, g] + [_unless_refused(add, a, b) for a, b in pairs]:
        if cls is None:
            continue
        for r in rs:
            mu = mu_r(cls, r)
            assert (mu.payload, mu.structure) == oracles.mu_r_reference(cls, r)
            payloads += [psi_r(cls, r).payload, mu.payload]
    for a, b in pairs:
        for op in (internal_product, pullback_class):
            cls = _unless_refused(op, a, b)
            if cls is not None:
                payloads.append(cls.payload)
        for r in rs:
            report = _unless_refused(check_cartan, a, b, r)
            if report is not None:
                assert report.ok
                payloads += [piece for _, piece in report.rhs]
    for payload in payloads:
        assert payload == tuple(sorted(payload))
        assert len(set(payload)) == len(payload)
    return sum(map(len, payloads))


def test_classes_are_sorted_and_distinct_and_mu_matches_reference_on_curves():
    def curve(ambient, seed, shape):
        config = GeneratorConfig(ambient=ambient, seed=seed, components=shape)
        return class_of_curve(generate(config).multicurve("c"))

    items = 0
    for ambient in CURVE_AMBIENTS:
        small, large = (
            [curve(ambient, seed, shape) for seed in range(50)] for shape in ((1, 2), (2, 2))
        )
        for k, f in enumerate(small):
            g = large[(k + 1) % 50]  # the same seed would draw much the same curve
            items += _check_classes(f, g, (2,))
    assert items > 1000


def test_classes_are_sorted_and_distinct_and_mu_matches_reference_on_meshes():
    def mesh(sheets, seed):
        config = GeneratorConfig(
            universe="tori", ambient=TORI_AMBIENT, components=(sheets, sheets), seed=seed
        )
        return class_of_mesh(generate(config).mesh("f"))

    # about a third of the unions of neighbours certify; the rest are refused
    meshes = [mesh(1 + k % 3, k) for k in range(24)]
    items = 0
    for f, g in zip(meshes, meshes[1:]):
        items += _check_classes(f, g, (2, 3))
    assert items > 500


# --- randomized laws ----------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    st.integers(-8, 8), st.integers(-8, 8),
    st.integers(-8, 8), st.integers(-8, 8),
)
def test_product_is_symmetric_on_tori(za, zb, ya, yb):
    g = class_of_mesh(Mesh3(coordinate_torus(2, Q + rat(za, 64), rat(zb, 64))))
    h = class_of_mesh(Mesh3(coordinate_torus(1, Q + rat(ya, 64), rat(yb, 64))))
    try:
        ab = internal_product(g, h)
    except surfaces3d.GeneralPositionError:
        # aligned chart offsets are certified out; resample
        assume(False)
    ba = internal_product(h, g)
    assert ab.payload == ba.payload
    assert len(ab.payload) == 1
    assert ab.payload[0][1] == (1, 0, 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_cartan_on_separated_horizontals(na, nb):
    assume(na != nb)
    a = [(0, rat(1, 4), rat(na, 16)), (0, rat(5, 4), rat(na, 16))]
    b = [(0, rat(1, 8), rat(nb, 16) + rat(1, 32)),
         (0, rat(9, 8), rat(nb, 16) + rat(1, 32))]
    rep = check_cartan(mk(TORUS, a), mk(TORUS, b), 2)
    assert rep.ok and rep.lhs == ()
