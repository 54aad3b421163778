"""Meshes in the 3-torus: structure, double locus, triple points, identities."""

import dataclasses
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint.bordism import class_of_mesh, mu_r
from multipoint.rational import rat
from multipoint.scene import parse_scene
from multipoint.exactgeom import floor_vec, frac_vec, tri_normal, vadd, vscale, vsub
from multipoint.surfaces3d import (
    CycleError,
    GeneralPositionError,
    GenericityError,
    Mesh3,
    MeshBuildError,
    MeshCycle,
    ambient_class_h2,
    coordinate_torus,
    crossings_mod2_with_generic_translate,
    herbert_lhs_r1_cycle,
    herbert_lhs_r2,
    herbert_rhs_r1_cycle_parts,
    herbert_rhs_r2_parts,
    mesh_segment_hits,
    parallelogram_torus,
    vertex_adjacent_contact,
)

import oracles
from helpers import diagonal_fold_sheet, subdivide_mesh, z_sheet

Q = rat(1, 4)

# Flat coordinate tori at level 1/4 with staggered chart origins; the
# stagger keeps every chart-boundary crossing of the double locus away
# from all other special points.
TWO_TORI = Mesh3(coordinate_torus(2, Q) + coordinate_torus(1, Q, rat(-1, 8)))
THREE_TORI = Mesh3(
    coordinate_torus(2, Q)
    + coordinate_torus(1, Q, rat(-1, 8))
    + coordinate_torus(0, Q, rat(-3, 16))
)


# --- building ---------------------------------------------------------------


def test_single_torus_structure():
    for axis, expect_h2 in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
        m = Mesh3(coordinate_torus(axis, Q))
        assert oracles.mesh_topology(m) == (0, True, 1)
        assert len(oracles.mesh_vertex_classes(m)) == 1
        assert len(m.matches) == 3
        assert m.certify().ok
        assert m.double_segments() == ()
        assert m.double_curves() == ()
        assert len(m.triple_points()) == 0
        assert ambient_class_h2(m) == expect_h2


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshBuildError, match="degenerate-triangle"):
        Mesh3([((0, 0, 0), (1, 0, 0), (2, 0, 0))])


def test_open_mesh_rejected():
    with pytest.raises(MeshBuildError, match="edge-matching"):
        Mesh3([((0, 0, 0), (1, 0, 0), (0, 1, 0))])


def test_triple_shared_edge_rejected():
    tris = [
        ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (1, 0, 0), (0, -1, 1)),
    ]
    with pytest.raises(MeshBuildError, match="edge-matching"):
        Mesh3(tris)


def test_empty_mesh_rejected():
    with pytest.raises(MeshBuildError):
        Mesh3([])


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(*[st.integers(-2, 2)] * 3),
    st.tuples(*[st.integers(-2, 2)] * 3),
)
def test_flat_parallelogram_torus(u, v):
    n = oracles._int_cross(u, v)
    if n == (0, 0, 0):
        with pytest.raises(MeshBuildError):
            Mesh3(parallelogram_torus((0, 0, 0), u, v))
        return
    m = Mesh3(parallelogram_torus((rat(1, 7), rat(2, 11), rat(3, 13)), u, v))
    assert oracles.mesh_topology(m) == (0, True, 1)
    assert len(oracles.mesh_vertex_classes(m)) == 1
    cert = m.certify()
    if oracles.plane_torus_is_primitive(u, v):
        # spans the full lattice of its plane: an embedded flat torus
        assert cert.ok
        assert m.double_segments() == ()
        assert ambient_class_h2(m) == oracles.plane_torus_h2(u, v)
    else:
        # wraps onto a smaller flat torus: sheets coincide
        assert not cert.ok
        assert "coplanar-overlap" in cert.violation_names


# --- the two-tori anchor: one double circle, no triple points ---------------


def test_two_tori_anchor():
    m = TWO_TORI
    cert = m.certify()
    assert cert.ok and cert.violations == ()
    assert len(m.double_segments()) == 4
    curves = m.double_curves()
    assert len(curves) == 1
    dc = curves[0]
    assert dc.h1 == (1, 0, 0)
    assert len(dc.preimages) == 2
    for pc in dc.preimages:
        assert pc.w1 == 0
        assert not pc.doubled
        assert len(pc.arcs) == 4
    # the two preimage circles live on the two distinct source tori
    tri_sets = [sorted({a[0] for a in pc.arcs}) for pc in dc.preimages]
    assert sorted(tri_sets) == [[0, 1], [2, 3]]
    assert len(m.triple_points()) == 0
    assert ambient_class_h2(m) == (0, 1, 1)
    assert herbert_lhs_r2(m) == 0
    assert herbert_rhs_r2_parts(m) == (0, 0)
    assert herbert_lhs_r2(m) == sum(herbert_rhs_r2_parts(m)) % 2


def test_two_tori_double_circle_geometry():
    # the double circle is the line (t, 1/4, 1/4), broken where either
    # sheet crosses one of its chart boundaries: x in {0, 1/2, 3/4, 7/8}
    segs = TWO_TORI.double_segments()
    xs = set()
    for s in segs:
        assert s.p[1] == Q and s.p[2] == Q
        assert s.q[1] == Q and s.q[2] == Q
        xs.add(s.p[0] - rat(int(s.p[0] // 1)))
        xs.add(s.q[0] - rat(int(s.q[0] // 1)))
    assert xs == {rat(0), rat(1, 2), rat(3, 4), rat(7, 8)}


# --- the three-tori anchor: one triple point -------------------------------


def test_three_tori_anchor():
    m = THREE_TORI
    cert = m.certify()
    assert cert.ok and cert.violations == ()
    assert len(m.double_segments()) == 12
    curves = m.double_curves()
    assert sorted(dc.h1 for dc in curves) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for dc in curves:
        assert len(dc.preimages) == 2
        for pc in dc.preimages:
            assert pc.w1 == 0
            assert not pc.doubled
    tp = m.triple_points()
    assert len(tp) == 1
    point = tp.points[0]
    assert point.target == (Q, Q, Q)
    assert point.preimages == ((0, (Q, Q, Q)), (2, (Q, Q, Q)), (4, (Q, Q, Q)))
    assert mu_r(class_of_mesh(m), 3).payload == point.preimages  # the mu_3 records
    assert ambient_class_h2(m) == (1, 1, 1)
    assert herbert_lhs_r2(m) == 1
    assert herbert_rhs_r2_parts(m) == (1, 0)
    assert herbert_lhs_r2(m) == sum(herbert_rhs_r2_parts(m)) % 2


def test_double_curve_h1_against_crossing_oracle():
    for m in (TWO_TORI, THREE_TORI):
        segs = m.double_segments()
        for dc in m.double_curves():
            steps = [
                (segs[i].p, segs[i].q) if fwd else (segs[i].q, segs[i].p)
                for i, fwd in dc.path
            ]
            dev = oracles.develop_closed_chain(steps)
            for axis in range(3):
                assert oracles.level_crossing_parity_3d(dev, axis) == dc.h1[axis]


def test_preimage_arcs_cover_both_sheets():
    for m in (TWO_TORI, THREE_TORI):
        for dc in m.double_curves():
            n_arcs = sum(len(pc.arcs) for pc in dc.preimages)
            assert n_arcs == 2 * len(dc.path)


def test_translation_invariance_of_the_double_locus():
    # moving the whole scene by a fixed vector is an isometry of the
    # 3-torus: every extracted invariant must be unchanged
    t = (rat(5, 64), rat(-3, 32), rat(7, 128))
    moved = Mesh3(
        [tuple(tuple(c + d for c, d in zip(p, t)) for p in tri) for tri in THREE_TORI.triangles]
    )
    assert moved.certify().ok
    assert len(moved.double_segments()) == 12
    assert sorted(dc.h1 for dc in moved.double_curves()) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]
    tp = moved.triple_points()
    assert len(tp) == 1
    assert tp.points[0].target == tuple(q + d for q, d in zip((Q, Q, Q), t))
    assert ambient_class_h2(moved) == (1, 1, 1)
    assert herbert_lhs_r2(moved) == 1
    assert herbert_rhs_r2_parts(moved) == (1, 0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(-40, 40),
)
def test_translation_invariance_fuzz(a, b, c):
    t = (rat(a, 128), rat(b, 128), rat(c, 128))
    moved = Mesh3(
        [tuple(tuple(x + d for x, d in zip(p, t)) for p in tri) for tri in TWO_TORI.triangles]
    )
    assert moved.certify().ok
    curves = moved.double_curves()
    assert len(curves) == 1
    assert curves[0].h1 == (1, 0, 0)
    assert herbert_lhs_r2(moved) == sum(herbert_rhs_r2_parts(moved)) % 2 == 0


def test_subdivision_preserves_every_invariant():
    base = Mesh3(
        coordinate_torus(2, Q, rat(-1, 16))
        + coordinate_torus(1, Q, rat(-3, 32))
        + coordinate_torus(0, Q, rat(-1, 8))
    )
    fine = subdivide_mesh(base)
    assert len(fine.triangles) == 4 * len(base.triangles)
    for m in (base, fine):
        assert m.certify().ok
        euler, _, components = oracles.mesh_topology(m)
        assert euler == 0 and components == 3
        assert sorted(dc.h1 for dc in m.double_curves()) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]
        assert all(
            pc.w1 == 0 and not pc.doubled
            for dc in m.double_curves()
            for pc in dc.preimages
        )
        assert len(m.triple_points()) == 1
        assert ambient_class_h2(m) == (1, 1, 1)
        assert herbert_lhs_r2(m) == 1
        assert herbert_rhs_r2_parts(m) == (1, 0)
    assert (
        fine.triple_points().points[0].target
        == base.triple_points().points[0].target
    )


def test_embedding_identity_is_trivially_zero():
    m = Mesh3(coordinate_torus(2, Q))
    assert herbert_lhs_r2(m) == 0
    assert herbert_rhs_r2_parts(m) == (0, 0)


# --- cycles drawn on the source surface -------------------------------------


def cycle_marks():
    return [
        (0, rat(1, 16), rat(1, 16)),
        (0, 0, rat(1, 8)),
        (1, rat(3, 16), rat(3, 8)),
        (1, rat(1, 8), rat(7, 8)),
    ]


def test_cycle_assembly():
    cyc = MeshCycle(TWO_TORI, cycle_marks())
    assert len(cyc.segments) == 4
    assert len(cyc.crossed) == 2
    assert cyc.transport_bit() == 0
    # the walk starts and ends at the first mark's point
    assert cyc.segments[0][1] == (rat(1, 16), rat(1, 16), Q)
    assert cyc.segments[-1][2] == (rat(1, 16), rat(1, 16), Q)


def test_cycle_identity_anchor():
    # winds once around each coordinate of the z-torus source, crossing
    # the preimage of the double circle once
    cyc = MeshCycle(TWO_TORI, cycle_marks())
    lhs = herbert_lhs_r1_cycle(TWO_TORI, cyc)
    mu, transport = herbert_rhs_r1_cycle_parts(TWO_TORI, cyc)
    assert lhs == 1
    assert (mu, transport) == (1, 0)
    assert lhs == sum(herbert_rhs_r1_cycle_parts(TWO_TORI, cyc)) % 2


def test_contractible_cycle_identity():
    cyc = MeshCycle(
        TWO_TORI,
        [
            (0, rat(1, 16), rat(1, 16)),
            (0, rat(1, 8), rat(1, 16)),
            (0, rat(1, 8), rat(1, 8)),
        ],
    )
    assert cyc.crossed == ()
    assert herbert_lhs_r1_cycle(TWO_TORI, cyc) == 0
    assert herbert_rhs_r1_cycle_parts(TWO_TORI, cyc) == (0, 0)


def test_cycle_must_start_interior():
    with pytest.raises(CycleError, match="interior"):
        MeshCycle(TWO_TORI, [(0, 0, rat(1, 8)), (0, rat(1, 16), rat(1, 16))])


def test_cycle_mark_through_vertex_rejected():
    with pytest.raises(CycleError, match="vertex"):
        MeshCycle(TWO_TORI, [(0, rat(1, 16), rat(1, 16)), (0, 0, 0)])


def test_cycle_chart_mismatch_rejected():
    with pytest.raises(CycleError, match="chart"):
        MeshCycle(
            TWO_TORI,
            [(0, rat(1, 16), rat(1, 16)), (1, rat(1, 8), rat(3, 8))],
        )


def test_cycle_riding_a_chart_boundary_rejected():
    # after crossing into the neighbor chart the next mark sits on the
    # same edge, so the connecting segment runs along the boundary
    with pytest.raises(CycleError, match="boundary"):
        MeshCycle(
            TWO_TORI,
            [(0, rat(1, 16), rat(1, 16)), (0, 0, rat(1, 8)), (1, rat(1, 4), 0)],
        )


def test_cycle_repeated_point_rejected():
    with pytest.raises(CycleError, match="repeated"):
        MeshCycle(
            TWO_TORI,
            [(0, rat(1, 16), rat(1, 16)), (0, rat(1, 16), rat(1, 16))],
        )


def test_cycle_weights_out_of_range_rejected():
    with pytest.raises(CycleError):
        MeshCycle(TWO_TORI, [(0, rat(3, 4), rat(3, 4))])


def test_cycle_crossing_preimage_at_arc_break_rejected():
    # this cycle meets the double-locus preimage exactly where the arc is
    # split by a chart boundary of the other sheet: fine for the ambient
    # count, non-generic for the source-side count
    cyc = MeshCycle(
        TWO_TORI,
        [
            (0, rat(1, 16), rat(1, 16)),
            (0, 0, rat(1, 8)),
            (1, rat(1, 8), rat(3, 8)),
            (1, rat(1, 8), rat(7, 8)),
        ],
    )
    assert herbert_lhs_r1_cycle(TWO_TORI, cyc) == 1
    with pytest.raises(CycleError, match="cycle-tangency"):
        herbert_rhs_r1_cycle_parts(TWO_TORI, cyc)


EIGHTHS = [rat(k, 8) for k in range(1, 8)]


def _random_marks(rng, mesh):
    """A mark list that walks the mesh from an interior mark: interior
    marks, crossings of a random edge or of the edge the walk came in by,
    and now and then a mark that a cycle refuses."""
    n = len(mesh.triangles)

    def interior(t):
        a = rng.choice(EIGHTHS[:-1])
        return (t, a, rng.choice([b for b in EIGHTHS if a + b < 1]))

    def on_edge(t, e):
        s = rng.choice(EIGHTHS)
        return (t, s, 1 - s) if e == 1 else (t, 0, s) if e == 2 else (t, s, 0)

    start = rng.randrange(n)
    marks = [interior(start) if rng.random() < 0.95 else on_edge(start, rng.randrange(3))]
    t, entered = start, None
    steps = rng.randint(1, 8)
    while steps > 0 or (t != start and steps > -4):
        steps -= 1
        roll = rng.random() if steps >= 0 else 0.5
        if roll < 0.3:
            marks.append(interior(t))
            entered = None
            continue
        if roll < 0.95:
            e = entered[1] if roll < 0.45 and entered is not None else rng.randrange(3)
            marks.append(on_edge(t, e))
        else:
            marks.append(rng.choice([(t, 0, 0), interior(rng.randrange(n)), marks[-1]]))
            continue
        mi, side = mesh._slot_of[(t, e)]
        m = mesh.matches[mi]
        entered = m.slot_b if side == 0 else m.slot_a
        t = entered[0]
    return marks


def _outcome(build, mesh, marks):
    try:
        return build(mesh, marks)
    except CycleError as exc:
        return str(exc)


def test_cycle_rides_an_edge_exactly_when_it_leaves_by_the_edge_it_entered(generated_meshes):
    # MeshCycle refuses a riding cycle from the edges its walk crosses; the
    # reference intersects every segment with its triangle's edges
    rng = random.Random(24)
    outcomes = {}
    for mesh in generated_meshes:
        for _ in range(330):
            marks = _random_marks(rng, mesh)
            want = _outcome(oracles.mesh_cycle_reference, mesh, marks)
            cycle = _outcome(MeshCycle, mesh, marks)
            got = cycle if isinstance(cycle, str) else (cycle.segments, cycle.crossed)
            assert got == want, marks
            key = want.split(":")[0].split(" (")[0] if isinstance(want, str) else "assembled"
            outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes["assembled"] > 800
    assert outcomes["cycle rides a chart boundary"] > 800
    assert "cycle leaves its chart between marks" not in outcomes


DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture(scope="module")
def fuzz_tori_scenes():
    """The scenes of ``scripts/fuzz_campaign.py --universe tori``, seeds 0-99."""
    from multipoint.generate import TORI_AMBIENT, GeneratorConfig, generate

    return [
        generate(
            GeneratorConfig(
                universe="tori",
                ambient=TORI_AMBIENT,
                components=(2, 3),
                seed=seed,
                with_cycle=seed % 2 == 0,
            )
        )
        for seed in range(100)
    ]


def test_building_a_cycle_intersects_no_segments(monkeypatch, fuzz_tori_scenes):
    import multipoint.surfaces3d as s3

    scenes = [parse_scene((DOCS / "two-tori-cycle.scene").read_text(encoding="utf-8"))]
    scenes += fuzz_tori_scenes
    meshes = [scene.mesh("f") for scene in scenes]
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return None

    monkeypatch.setattr(s3, "seg_intersect", counted)
    built = [
        scene.mesh_cycle(name, mesh) for scene, mesh in zip(scenes, meshes) for name in scene.cycles
    ]
    assert len(built) == 51
    assert calls == []


def test_circle_period_is_the_sum_of_its_segment_vectors(fuzz_tori_scenes):
    meshes = [
        parse_scene((DOCS / name).read_text(encoding="utf-8")).mesh("f")
        for name in ("three-tori.scene", "two-tori-cycle.scene")
    ]
    meshes += [scene.mesh("f") for scene in fuzz_tori_scenes]
    meshes += [
        parse_scene(_bench_scene_text(seed, index)).mesh("f")
        for seed in range(3)
        for index in range(4)
    ]
    circles = 0
    for mesh in meshes:
        for dc in mesh.double_curves():
            assert dc.h1 == oracles.circle_h1_reference(mesh, dc.path)
            circles += 1
    assert circles > 300


# --- general-position violations --------------------------------------------


def test_coplanar_overlap_detected():
    m = Mesh3(coordinate_torus(2, Q) + coordinate_torus(2, Q, rat(-1, 8)))
    cert = m.certify()
    assert not cert.ok
    assert cert.violation_names == ["coplanar-overlap"]
    with pytest.raises(GeneralPositionError) as err:
        m.double_curves()
    assert err.value.cert is cert


def test_vertex_on_sheet_tangency_detected():
    # the y-torus chart corner (1/4, 1/4, 1/4) lies exactly on the z-torus
    m = Mesh3(coordinate_torus(2, Q) + coordinate_torus(1, Q, Q))
    cert = m.certify()
    assert not cert.ok
    assert "tangency" in cert.violation_names


def test_quadruple_point_detected():
    # a fourth sheet with normal (1, 1, 3) through the triple point of the
    # three-tori scene; every other contact of the slanted sheet is generic
    u, v = (1, -1, 0), (3, 0, -1)
    p0 = vsub(vsub((Q, Q, Q), vscale(rat(3, 7), u)), vscale(rat(2, 7), v))
    m = Mesh3(
        coordinate_torus(2, Q)
        + coordinate_torus(1, Q, rat(-1, 8))
        + coordinate_torus(0, Q, rat(-3, 16))
        + parallelogram_torus(p0, u, v)
    )
    cert = m.certify()
    assert not cert.ok
    assert cert.violation_names == ["quadruple-point"]
    assert len(cert.violations) == 1
    assert "12 crossing witnesses" in cert.violations[0][1]


def _contact(ta, tb, w):
    return vertex_adjacent_contact(ta, tb, w, tri_normal(ta), tri_normal(tb))


def test_vertex_contact_classifier():
    n = (rat(1, 2), rat(1, 2), rat(3, 4))
    t1 = (n, (rat(1, 2), Q, Q), (rat(1, 2), rat(3, 4), Q))
    t2 = (n, (Q, rat(1, 2), Q), (rat(3, 4), rat(1, 2), Q))
    assert _contact(t1, t2, n) == "vertex-contact"
    # two fins meeting only at the apex are legal
    u1 = (n, (rat(1, 2), Q, rat(7, 8)), (rat(1, 2), rat(3, 4), rat(7, 8)))
    assert _contact(t1, u1, n) is None
    # a coplanar bowtie meets only at the apex: also legal
    bow = (n, (rat(1, 2), Q, rat(5, 4)), (rat(1, 2), rat(3, 4), rat(5, 4)))
    assert _contact(t1, bow, n) is None
    # a coplanar fin containing the first one is not
    wide = (n, (rat(1, 2), rat(3, 16), Q), (rat(1, 2), rat(13, 16), Q))
    assert _contact(t1, wide, n) == "coplanar-overlap"
    # two cells of a sheet folded along the column x = 5, meeting at w:
    # the planes' common line runs along an edge of the second, which the
    # first meets only at w
    w = (5, 3, 27)
    fold_a, fold_b = ((0, 3, 24), w, (0, 8, 24)), (w, (10, 3, 24), (5, 8, 27))
    assert _contact(fold_a, fold_b, w) is None
    assert _contact(fold_b, fold_a, w) is None
    # a first triangle with an edge along the same line shares more than w
    along = (w, (0, 3, 24), (5, 6, 27))
    assert _contact(along, fold_b, w) == "vertex-contact"
    assert _contact(fold_b, along, w) == "vertex-contact"


THIRD, FIFTH = rat(1, 3), rat(1, 5)
ROWS = (FIFTH, FIFTH + THIRD, FIFTH + 2 * THIRD)


def test_folded_sheets_certify():
    # (columns, heights, rows) of sheets z = h(x, y) folded along columns;
    # all but the last are folded on the column x = 0, where the z axis
    # loop meets them on an edge and the tie-break of the translate's
    # edge tests decides its crossing
    sheets = [
        ((0, THIRD, 2 * THIRD), (0, rat(1, 8), 0), ROWS),
        ((0, THIRD, 2 * THIRD), (rat(3, 5), rat(4, 5), rat(3, 5)), ROWS),
        ((0, THIRD, 2 * THIRD), (rat(1, 7), rat(2, 7), rat(3, 7)), ROWS),
        ((0, THIRD, 2 * THIRD), (rat(1, 2), rat(5, 8), rat(1, 2)), (rat(1, 11), rat(5, 11), rat(8, 11))),
        ((0, rat(1, 4), rat(1, 2), rat(3, 4)), (0, rat(1, 16), 0, rat(1, 16)), (FIFTH, FIFTH + rat(1, 2))),
        ((rat(1, 9), rat(4, 9), rat(7, 9)), (rat(1, 8), rat(1, 4), 0), (rat(1, 7), rat(3, 7), rat(5, 7))),
    ]
    for xs, zs, ys in sheets:
        m = z_sheet(xs, zs, ys)
        assert m.certify().ok
        assert m.double_segments() == ()
        assert oracles.mesh_topology(m) == (0, True, 1)
        assert ambient_class_h2(m) == (0, 0, 1)


# --- generic-translate counting ---------------------------------------------


def test_mesh_segment_hits_strict():
    m = Mesh3(coordinate_torus(2, Q))
    hits = mesh_segment_hits(m, [((Q, Q, 0), (Q, Q, rat(1, 2)))])
    assert hits == [(0, (Q, Q, Q))]


def test_mesh_segment_hits_degenerate_raises():
    m = Mesh3(coordinate_torus(2, Q))
    # passes through the shared diagonal edge of the two charts
    with pytest.raises(GenericityError):
        mesh_segment_hits(
            m, [((rat(1, 2), rat(1, 2), 0), (rat(1, 2), rat(1, 2), rat(1, 2)))]
        )


def test_translate_count_on_a_chart_edge():
    m = Mesh3(coordinate_torus(2, Q))
    # the translate (1/8, 1/64, 1/512) drops this segment's crossing onto a
    # chart edge, so the halving walk takes the next one; the count in the
    # limit of small translates needs no retry
    seg = [((rat(1, 8), rat(1, 3), 0), (rat(1, 8), rat(1, 3), rat(1, 2)))]
    assert crossings_mod2_with_generic_translate(m, seg) == 1
    assert oracles.translate_parity_reference(m, seg) == (1, rat(1, 16))


def test_h2_of_meshes_on_the_axis_loops():
    # the axis loops from 0 to e_k start on a vertex of each mesh, and two
    # of them lie in the sheet of a coordinate torus at level 0
    planes = [
        ((1, 0, 0), (0, 1, 0)),
        ((1, 1, 0), (0, 1, 1)),
        ((1, 2, 0), (0, 1, -1)),
        ((2, 1, 1), (1, 1, 0)),
    ]
    for u, v in planes:
        assert oracles.plane_torus_is_primitive(u, v)
        m = Mesh3(parallelogram_torus((0, 0, 0), u, v))
        assert ambient_class_h2(m) == oracles.plane_torus_h2(u, v)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for axis in range(3):
        u, v = (e for k, e in enumerate(units) if k != axis)
        for level, offset in ((0, 0), (Q, rat(3, 7))):
            m = Mesh3(coordinate_torus(axis, level, offset))
            assert ambient_class_h2(m) == oracles.plane_torus_h2(u, v)


# --- determinism -------------------------------------------------------------


def test_extraction_is_deterministic():
    a = Mesh3(THREE_TORI.triangles)
    b = Mesh3(THREE_TORI.triangles)
    assert a.certify() == b.certify()
    assert a.double_segments() == b.double_segments()
    assert [dc.canonical for dc in a.double_curves()] == [
        dc.canonical for dc in b.double_curves()
    ]
    assert a.triple_points() == b.triple_points()


# ---------------------------------------------------------------------------
# metamorphic checks on a large scene of the benchmark


def _bench_scene_text(seed, index):
    """Scene text from ``bench/scenes.py``, loaded by path (bench/ is no package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("bench_scenes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scene_text(seed, index)


def _canon(p, q):
    p, q = min(p, q), max(p, q)
    s = floor_vec(p)
    return vsub(p, s), vsub(q, s)


def _summary(mesh, perm=(0, 1, 2)):
    """Certificate, double circles and triple points of a mesh, with every
    coordinate read through the axis permutation ``perm``."""

    def P(p):
        return tuple(p[k] for k in perm)

    cert = mesh.certify()
    circles = sorted(
        (
            sorted(_canon(P(p), P(q)) for p, q in dc.canonical),
            P(dc.h1),
            sorted(pc.w1 for pc in dc.preimages),
        )
        for dc in mesh.double_curves()
    )
    triples = sorted(P(t.target) for t in mesh.triple_points().points)
    return cert.ok, len(mesh.double_segments()), circles, triples


def _lhs_summary(mesh, other, perm=(0, 1, 2)):
    """The degree-2 LHS bit of a mesh and the hits of its double segments
    on another mesh, each hit given by its point modulo the lattice and
    the hit triangle's vertices relative to it, read through ``perm``."""

    def P(p):
        return tuple(p[k] for k in perm)

    segs = [(s.p, s.q) for s in mesh.double_segments()]
    hits = sorted(
        (frac_vec(P(x)), sorted(P(vsub(v, x)) for v in other.triangles[t]))
        for t, x in mesh_segment_hits(other, segs)
    )
    return herbert_lhs_r2(mesh), hits


def test_large_scene_is_invariant_under_translation_permutation_and_shuffle():
    mesh = parse_scene(_bench_scene_text(0, 3)).mesh("f")
    assert len(mesh.triangles) == 40
    # the double segments are counted against a translated copy of the mesh
    w = (rat(1, 8), rat(1, 64), rat(1, 512))
    other = Mesh3([[vadd(p, w) for p in t] for t in mesh.triangles])

    def remap(f):
        return (
            Mesh3([[f(p) for p in t] for t in mesh.triangles]),
            Mesh3([[f(p) for p in t] for t in other.triangles]),
        )

    base = _summary(mesh)
    assert base[0] and len(base[2]) > 10 and len(base[3]) > 10
    base_lhs = _lhs_summary(mesh, other)
    assert len(base_lhs[1]) > 10

    shift = (1, -2, 3)
    moved, moved_other = remap(lambda p: vadd(p, shift))
    assert _summary(moved) == base
    assert _lhs_summary(moved, moved_other) == base_lhs

    for perm in ((1, 2, 0), (1, 0, 2)):  # an even and an odd permutation
        permuted, permuted_other = remap(lambda p: tuple(p[k] for k in perm))
        inverse = tuple(perm.index(k) for k in range(3))
        assert _summary(permuted, inverse) == base
        assert _lhs_summary(permuted, permuted_other, inverse) == base_lhs

    order, other_order = list(mesh.triangles), list(other.triangles)
    random.Random(0).shuffle(order)
    random.Random(1).shuffle(other_order)
    assert _summary(Mesh3(order)) == base
    assert _lhs_summary(Mesh3(order), Mesh3(other_order)) == base_lhs


# ---------------------------------------------------------------------------
# certifying a union from its certified parts


@pytest.fixture(scope="module")
def generated_meshes():
    """Generated 1-, 2- and 3-sheet tori meshes, certified, with fixed seeds."""
    from multipoint import generate

    meshes = []
    for seed in (1, 2, 3):
        for sheets in (1, 2, 3):
            config = generate.GeneratorConfig(
                universe="tori",
                ambient=generate.TORI_AMBIENT,
                components=(sheets, sheets),
                seed=seed,
            )
            mesh = generate.generate(config).mesh("f")
            assert mesh.certify().ok
            meshes.append(mesh)
    return meshes


def _disjoint_pairs(meshes):
    """Pairs of meshes whose concatenation is a closed surface."""
    for a in meshes:
        for b in meshes:
            try:
                Mesh3(a.triangles + b.triangles)
            except MeshBuildError:
                continue
            yield a, b


def _certified_state(mesh):
    cert = mesh.certify()
    if not cert.ok:
        return cert, mesh._segments
    # the witnesses as a list, so that their order is compared too
    witnesses = list(mesh._witnesses.items())
    return (
        cert,
        mesh._segments,
        mesh._end_links,
        witnesses,
        mesh.double_curves(),
        mesh.triple_points(),
    )


def test_union_certifies_like_the_concatenated_mesh(generated_meshes):
    verdicts = set()
    for a, b in _disjoint_pairs(generated_meshes):
        union = a.union(b)
        assert union.triangles == a.triangles + b.triangles
        full = Mesh3(a.triangles + b.triangles)
        assert _certified_state(union) == _certified_state(full)
        verdicts.add(full.certify().ok)
    assert verdicts == {True, False}  # accepted and rejected unions both occur


# the tables of a mesh that its union reads or keeps, compared in order;
# adjacency lists are compared as sets below
_UNION_TABLES = (
    "triangles",
    "den",
    "_lifts",
    "_normals",
    "matches",
    "_slot_of",
)


def _as_sets(adjacency):
    return {pair: {v: set(x) for v, x in by_shift.items()} for pair, by_shift in adjacency.items()}


def test_union_is_built_from_its_parts_like_the_whole_mesh(generated_meshes):
    # a copy of one mesh on large prime denominators, each triangle moved by
    # its own lattice vector and every other one reversed, so that its
    # matches carry shifts and flips
    w = (rat(1, 1000003), rat(-7, 999983), rat(5, 1000033))
    moved = Mesh3(
        [vadd(vadd(p, w), (k, -2 * k, 3 - k % 2)) for p in tri[:: 1 - 2 * (k % 2)]]
        for k, tri in enumerate(generated_meshes[-1].triangles)
    )
    assert any(m.flip for m in moved.matches)
    meshes = generated_meshes + [moved]
    built = refused = 0
    for a in meshes:
        for b in meshes:
            try:
                whole = Mesh3(a.triangles + b.triangles)
            except MeshBuildError as e:
                # coinciding sheets: an edge of both parts
                with pytest.raises(MeshBuildError) as raised:
                    a.union(b)
                assert str(raised.value) == str(e)
                refused += 1
                continue
            union = a.union(b)
            for name in _UNION_TABLES:
                assert getattr(union, name) == getattr(whole, name), name
            assert oracles.mesh_vertex_classes(union) == oracles.mesh_vertex_classes(whole)
            assert _as_sets(union._vertex_adj) == _as_sets(whole._vertex_adj)
            assert _lift_tables(union) == oracles.mesh_tables_reference(union)
            built += 1
    assert built > 50 and refused > 10


def _count_predicate_calls(monkeypatch, mesh):
    """Calls of the pair predicates made while certifying ``mesh``."""
    import multipoint.surfaces3d as s3

    counts = dict.fromkeys(
        ("tri_tri_intersect", "vertex_adjacent_contact", "coplanar_tri_relation"), 0
    )
    for name in counts:
        real = getattr(s3, name)

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(s3, name, counted)
    mesh.certify()
    monkeypatch.undo()
    return counts


def test_union_runs_the_predicates_only_on_new_pairs(monkeypatch, generated_meshes):
    for a, b in list(_disjoint_pairs(generated_meshes))[:12]:
        part_a, part_b = Mesh3(a.triangles), Mesh3(b.triangles)
        calls_a = _count_predicate_calls(monkeypatch, part_a)
        calls_b = _count_predicate_calls(monkeypatch, part_b)
        full = _count_predicate_calls(monkeypatch, Mesh3(a.triangles + b.triangles))
        union = _count_predicate_calls(monkeypatch, part_a.union(part_b))
        assert union == {k: full[k] - calls_a[k] - calls_b[k] for k in full}
        assert sum(calls_a.values()) + sum(calls_b.values()) > 0


def test_union_tests_the_pairs_of_an_uncertified_part(monkeypatch, generated_meshes):
    a, b = next(_disjoint_pairs(generated_meshes[3:]))
    part_a, part_b = Mesh3(a.triangles), Mesh3(b.triangles)
    calls_b = _count_predicate_calls(monkeypatch, part_b)
    full_mesh = Mesh3(a.triangles + b.triangles)
    full = _count_predicate_calls(monkeypatch, full_mesh)
    union = part_a.union(part_b)
    assert _count_predicate_calls(monkeypatch, union) == {
        k: full[k] - calls_b[k] for k in full
    }
    assert part_a._cert is None  # the union does not certify its parts
    assert _certified_state(union) == _certified_state(full_mesh)


def test_union_tests_the_pairs_of_a_rejected_part(generated_meshes):
    unions = (a.union(b) for a, b in _disjoint_pairs(generated_meshes))
    rejected = next(u for u in unions if not u.certify().ok)
    for other in generated_meshes:
        try:
            full = Mesh3(rejected.triangles + other.triangles)
        except MeshBuildError:
            continue
        union = rejected.union(other)
        assert _certified_state(union) == _certified_state(full)
        assert not union.certify().ok
        return
    pytest.fail("no closed union with the rejected part")


def _union_of_certified_parts(a, b):
    """The union of fresh, certified meshes on the triangles a and b, and
    the whole mesh on a + b."""
    part_a, part_b = Mesh3(a), Mesh3(b)
    assert part_a.certify().ok and part_b.certify().ok
    return part_a.union(part_b), Mesh3(a + b)


def test_union_of_folded_parts_certifies_like_the_concatenated_mesh():
    # sheets folded along their cell diagonals at drawn heights, and sheets
    # folded along their columns, each with two coordinate tori at drawn
    # levels
    rng = random.Random(0)
    column_folds = [
        z_sheet((0, THIRD, 2 * THIRD), (rat(1, 7), rat(2, 7), rat(3, 7)), ROWS),
        z_sheet((rat(1, 9), rat(4, 9), rat(7, 9)), (rat(1, 8), rat(1, 4), 0), (rat(1, 7), rat(3, 7), rat(5, 7))),
    ]
    names = set()
    for k in range(100):
        if k % 4:
            heights = [[rat(rng.randrange(64), 64) for _ in range(2)] for _ in range(2)]
            sheet = diagonal_fold_sheet(heights)
        else:
            sheet = column_folds[k // 4 % 2]
        tori = coordinate_torus(
            0, rat(rng.randrange(64), 64), rat(rng.randrange(-8, 8), 64)
        ) + coordinate_torus(1, rat(rng.randrange(64), 64), rat(rng.randrange(-8, 8), 64))
        # the union reuses the certificate of each part that holds an ok one
        torus_pair = Mesh3(tori)
        sheet.certify()
        torus_pair.certify()
        union, full = sheet.union(torus_pair), Mesh3(sheet.triangles + tori)
        assert _certified_state(union) == _certified_state(full)
        names.add(tuple(full.certify().violation_names))
    # accepted unions, unions refused by their pairs, and unions refused
    # where their segment ends meet
    assert {(), ("tangency",), ("double-curve-branching", "tangency")} <= names


def test_union_refuses_a_cross_end_on_an_end_of_a_part():
    # the double line y = z = 1/4 of the two tori crosses the diagonal of
    # the z-torus at (3/4, 1/4, 1/4), an end of two of their segments; the
    # x-torus at level 3/4 crosses the z-torus along a line through that
    # point, and its segments end there too
    union, full = _union_of_certified_parts(
        TWO_TORI.triangles, coordinate_torus(0, rat(3, 4), rat(3, 16))
    )
    cert = union.certify()
    assert not cert.ok
    assert "double-curve-branching" in cert.violation_names
    assert ("double-curve-branching", "4 arc ends meet at (3/4, 1/4, 1/4)") in cert.violations
    assert _certified_state(union) == _certified_state(full)


def test_end_matching_checks_the_sheets_where_fresh_ends_meet():
    # one of the two tori's segments moved to another translate of its
    # second sheet: its ends still meet the same ends, but not on a sheet
    # of theirs
    segments = TWO_TORI.double_segments()
    for k, seg in enumerate(segments):
        for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            moved = list(segments)
            moved[k] = dataclasses.replace(seg, shift=vadd(seg.shift, unit))
            violations = []
            TWO_TORI._match_ends(moved, [True] * 4, violations)
            assert violations, (k, unit)
            for name, detail in violations:
                assert name == "double-curve-branching"
                assert detail.startswith("sheet mismatch where arcs meet at (")
            # ends taken from certified parts are linked unchecked
            violations = []
            links = TWO_TORI._match_ends(moved, [False] * 4, violations)
            assert violations == []
            assert links == TWO_TORI._end_links


def test_union_refuses_a_cross_witness_at_a_triple_point_of_a_part():
    # the slanted sheet of test_quadruple_point_detected, as the second part
    u, v = (1, -1, 0), (3, 0, -1)
    p0 = vsub(vsub((Q, Q, Q), vscale(rat(3, 7), u)), vscale(rat(2, 7), v))
    union, full = _union_of_certified_parts(THREE_TORI.triangles, parallelogram_torus(p0, u, v))
    cert = union.certify()
    assert cert.violation_names == ["quadruple-point"]
    assert len(cert.violations) == 1
    assert "12 crossing witnesses" in cert.violations[0][1]
    assert _certified_state(union) == _certified_state(full)


def test_certify_computes_no_normal(monkeypatch):
    # Mesh3 computes its triangles' normals when it is built, and every
    # predicate of certification takes them from it
    from multipoint import exactgeom, generate
    import multipoint.surfaces3d as s3

    config = generate.GeneratorConfig(
        universe="tori", ambient=generate.TORI_AMBIENT, components=(3, 3), seed=3
    )
    mesh = Mesh3(generate.generate(config).mesh("f").triangles)
    calls = []
    real = exactgeom.tri_normal

    def counted(tri):
        calls.append(tri)
        return real(tri)

    for module in (exactgeom, s3):
        monkeypatch.setattr(module, "tri_normal", counted)
    assert mesh.certify().ok
    assert mesh.double_segments()
    assert calls == []


# ---------------------------------------------------------------------------
# tables built on the integer lifts


def _folded_sheets():
    """Sheets folded along columns and cell diagonals, and their
    subdivisions."""
    folded = [
        z_sheet((0, THIRD, 2 * THIRD), (rat(3, 5), rat(4, 5), rat(3, 5)), ROWS),
        z_sheet((0, rat(1, 4), rat(1, 2), rat(3, 4)), (0, rat(1, 16), 0, rat(1, 16)), (FIFTH, FIFTH + rat(1, 2))),
        diagonal_fold_sheet([[rat(49, 64), rat(49, 64)], [rat(11, 64), rat(29, 64)]]),
        diagonal_fold_sheet([[0, rat(1, 2)], [rat(1, 4), rat(3, 4)]]),
    ]
    return folded + [subdivide_mesh(m) for m in folded]


def _lift_tables(mesh):
    # two corners shared at one shift are the ends of a shared edge
    edge_adj = {}
    for pair, by_shift in mesh._vertex_adj.items():
        shifts = {v for v, corners in by_shift.items() if len(corners) > 1}
        if shifts:
            edge_adj[pair] = shifts
    axes = [mesh.chart(t).axis for t in range(len(mesh.triangles))]
    return mesh.matches, edge_adj, _as_sets(mesh._vertex_adj), axes


def test_lift_built_tables_match_the_fraction_reference(generated_meshes):
    docs = Path(__file__).resolve().parent.parent / "docs"
    meshes = []
    for path in sorted(docs.glob("*.scene")):
        scene = parse_scene(path.read_text())
        meshes += [scene.mesh(d.name) for d in scene.verifies if d.name not in scene.curves]
    assert len(meshes) == 2
    meshes += generated_meshes
    meshes += [a.union(b) for a, b in list(_disjoint_pairs(generated_meshes))[:6]]
    meshes += _folded_sheets()
    # large prime denominators, and each triangle moved by its own lattice
    # vector, so that edges match across translates with nonzero shifts
    w = (rat(1, 1000003), rat(-7, 999983), rat(5, 1000033))
    meshes.append(
        Mesh3(
            [vadd(vadd(p, w), (k, -2 * k, 3 - k % 2)) for p in tri]
            for k, tri in enumerate(THREE_TORI.triangles)
        )
    )
    for mesh in meshes:
        assert _lift_tables(mesh) == oracles.mesh_tables_reference(mesh)
    moved = meshes[-1]
    assert moved.den == 16 * 1000003 * 999983 * 1000033
    assert any(any(v) for adj in moved._vertex_adj.values() for v in adj)
    assert any(any(m.rel_shift) for m in moved.matches)


def test_every_vertex_is_one_link_cycle(fuzz_tori_scenes):
    # Each corner lies on two edge slots and each slot is matched once, so
    # the walk around a vertex class goes round one cycle of all its
    # corners, once in each direction: every vertex is a disk.
    meshes = [
        parse_scene((DOCS / name).read_text(encoding="utf-8")).mesh("f")
        for name in ("three-tori.scene", "two-tori-cycle.scene")
    ]
    meshes += [scene.mesh("f") for scene in fuzz_tori_scenes]
    meshes += _folded_sheets()
    bench = [
        parse_scene(_bench_scene_text(seed, index)).mesh("f")
        for seed in range(2)
        for index in range(4)
    ]
    meshes += bench + [a.union(b) for a, b in zip(bench, bench[1:])]
    classes = 0
    for mesh in meshes:
        for cls, cycles in oracles.mesh_vertex_links(mesh):
            assert [sorted(c) for c in cycles] == [list(cls)] * 2
            classes += 1
    assert classes > 500
