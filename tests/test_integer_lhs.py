"""The left-hand-side crossing counts against their rational references.

``curves2d.pairing_mod2`` and the 3-torus contact walk behind
``crossings_mod2_with_generic_translate`` and ``mesh_segment_hits`` run on
integer lifts by one common denominator.  These tests compare them with
the Fraction walks kept in ``oracles`` and check that the predicates they
call receive only ints.  The translate count decides every contact in the
limit of small translates; its reference halves a rational translate until
every contact is transverse.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from helpers import hit_point, torus_complex
from multipoint import curves2d, herbert, surfaces3d
from multipoint.curves2d import MultiCurve, initial_epsilon, pairing_mod2
from multipoint.exactgeom import GenericityError, PushoffCollision, lowest_terms, vsub
from multipoint.generate import CURVE_AMBIENTS, TORI_AMBIENT, GeneratorConfig, generate
from multipoint.rational import rat
from multipoint.scene import parse_scene
from multipoint.surfaces3d import crossings_mod2_with_generic_translate, mesh_segment_hits

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# curves: the pushoff pairing


def _generated_curve(ambient, seed, components):
    config = GeneratorConfig(ambient=ambient, seed=seed, components=components)
    return generate(config).multicurve("c")


@pytest.mark.parametrize("ambient", CURVE_AMBIENTS)
def test_pairing_matches_rational_reference_on_generated_scenes(ambient):
    curves = [
        _generated_curve(ambient, seed, components)
        for seed in range(12)
        for components in ((1, 1), (2, 2))
    ]
    for a, b in zip(curves, curves[1:] + curves[:1]):
        for curve_b in (a, b):
            for i in range(len(a.components)):
                bit, _ = oracles.pairing_mod2_reference(a, i, curve_b)
                assert pairing_mod2(a, i, curve_b) == bit


def _chart_pieces(curve, epsilon):
    """Every component's offset pieces at ``epsilon``, jumps included, as
    ``(square, start, end)`` on chart points read back from the homogeneous
    triples: ``X / (W * D)``."""
    out = []
    for ci in range(len(curve.components)):
        chain = curves2d.component_chain(curve, ci)
        res = curves2d.pushoff_polyline(chain, epsilon=epsilon)
        for off in res.pieces + ((res.jump,) if res.jump else ()):
            start, end = (
                (rat(x, w * chain.den), rat(y, w * chain.den)) for x, y, w in (off.start, off.end)
            )
            out.append((off.chart, start, end))
    return out


@pytest.mark.parametrize("ambient", CURVE_AMBIENTS)
def test_pushoff_matches_rational_reference_at_every_epsilon_tried(monkeypatch, ambient):
    tried = []
    real = curves2d.pushoff_all

    def recorded(curve, epsilon):
        tried.append((curve, epsilon))
        return real(curve, epsilon)

    monkeypatch.setattr(curves2d, "pushoff_all", recorded)
    curves = [
        _generated_curve(ambient, seed, components)
        for seed in range(12)
        for components in ((1, 1), (2, 2))
    ]
    for a, b in zip(curves, curves[1:] + curves[:1]):
        for curve_b in (a, b):
            for i in range(len(a.components)):
                pairing_mod2(a, i, curve_b)
    assert len(tried) >= len(curves)
    collisions = 0
    for curve, epsilon in tried:
        try:
            want = oracles.pushoff_all_reference(curve, epsilon)
        except PushoffCollision:
            collisions += 1
            with pytest.raises(PushoffCollision):
                _chart_pieces(curve, epsilon)
            with pytest.raises(PushoffCollision):
                real(curve, epsilon)
            continue
        assert _chart_pieces(curve, epsilon) == want
        # the memo form: the lifts by D' grouped by square, in the same order
        den, by_square = real(curve, epsilon)
        assert den % curve.lift()[0] == 0
        grouped = {}
        for square, start, end in want:
            grouped.setdefault(square, []).append((start, end))
        assert {
            square: [tuple((rat(x, den), rat(y, den)) for x, y in off) for off in offs]
            for square, offs in by_square.items()
        } == grouped
    # the scenes push off at more than one epsilon, so both outcomes are met
    assert collisions


def test_pairing_matches_rational_reference_after_a_pushoff_retry():
    # the pushoff of this scene fails at the first epsilon and succeeds
    # after eight halvings
    curve = _generated_curve("torus", 22, (1, 1))
    bit, epsilon = oracles.pairing_mod2_reference(curve, 0, curve)
    assert epsilon == initial_epsilon(curve.min_sep_sq) / 256
    assert pairing_mod2(curve, 0, curve) == bit


def test_pairing_retries_after_a_collision_while_counting(monkeypatch):
    # b's pushoff at the first epsilon (1/16) is the line x = 7/16, which
    # passes through the vertex (7/16, 2/5) of a: the count must halve
    # epsilon once and count the single crossing with x = 15/32
    cx = torus_complex()
    b = MultiCurve.build(cx, [[(0, (rat(1, 2), rat(1, 4))), (0, (rat(1, 2), rat(5, 4)))]])
    a = MultiCurve.build(
        cx,
        [[(0, (rat(1, 4), rat(1, 3))), (0, (rat(7, 16), rat(2, 5))), (0, (rat(5, 4), rat(1, 3)))]],
    )
    first = initial_epsilon(b.min_sep_sq)
    assert first == rat(1, 16)
    assert pairing_mod2(a, 0, b) == 1
    assert set(b._pushoffs) == {first, first / 2}
    assert oracles.pairing_mod2_reference(a, 0, b) == (1, first / 2)
    monkeypatch.setattr(curves2d, "PUSHOFF_RETRIES", 1)
    with pytest.raises(GenericityError):
        pairing_mod2(a, 0, b)


# ---------------------------------------------------------------------------
# the 3-torus: crossings with a translated mesh


def _bench_scene_text(seed, index):
    """Scene text from ``bench/scenes.py``, loaded by path (bench/ is no package)."""
    spec = importlib.util.spec_from_file_location("bench_scenes", ROOT / "bench" / "scenes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scene_text(seed, index)


GENERATED = [(seed, sheets) for seed in range(1, 5) for sheets in (2, 3)]
TORI_CASES = (
    [f"gen{seed}-{sheets}" for seed, sheets in GENERATED]
    + ["two-tori-cycle"]
    + [f"bench{index}" for index in range(4)]
)


@pytest.fixture(scope="module")
def tori_cases():
    """Case name -> (mesh, segment lists) for generated 2-3-sheet scenes
    with a cycle, ``docs/two-tori-cycle.scene`` and the default-seed scenes
    of the ``tori-large`` workload."""
    cases = {}
    for seed, sheets in GENERATED:
        config = GeneratorConfig(
            universe="tori",
            ambient=TORI_AMBIENT,
            components=(sheets, sheets),
            seed=seed,
            with_cycle=True,
        )
        scene = generate(config)
        mesh = scene.mesh("f")
        seg_lists = [[(s.p, s.q) for s in mesh.double_segments()]]
        for name in scene.cycles:
            cycle = scene.mesh_cycle(name, mesh)
            seg_lists.append([(p, q) for (_, p, q) in cycle.segments])
        cases[f"gen{seed}-{sheets}"] = (mesh, seg_lists)
    scene = parse_scene((ROOT / "docs" / "two-tori-cycle.scene").read_text(encoding="utf-8"))
    mesh = scene.mesh("f")
    cycle = scene.mesh_cycle("g", mesh)
    cases["two-tori-cycle"] = (
        mesh,
        [[(s.p, s.q) for s in mesh.double_segments()], [(p, q) for (_, p, q) in cycle.segments]],
    )
    for index in range(4):
        mesh = parse_scene(_bench_scene_text(0, index)).mesh("f")
        cases[f"bench{index}"] = (mesh, [[(s.p, s.q) for s in mesh.double_segments()]])
    return cases


@pytest.mark.parametrize("name", TORI_CASES)
def test_translate_steps_match_rational_reference(tori_cases, name):
    mesh, seg_lists = tori_cases[name]
    assert mesh.certify().ok
    for segs in seg_lists:
        assert segs
        parity, _ = oracles.translate_parity_reference(mesh, segs)
        assert crossings_mod2_with_generic_translate(mesh, segs) == parity


def _fuzz_tori_mesh(seed):
    """The mesh of ``fuzz --universe tori`` at ``seed``."""
    config = GeneratorConfig(
        universe="tori",
        ambient=TORI_AMBIENT,
        components=(2, 3),
        seed=seed,
        with_cycle=seed % 2 == 0,
    )
    return generate(config).mesh("f")


@pytest.mark.parametrize("seed, halvings", [(36, 1), (71, 1), (81, 2)])
def test_r2_rows_whose_first_translates_touch_the_mesh(seed, halvings):
    # the halving walk meets a non-transverse contact at d = 1/8 (and at
    # 1/16 for seed 81); the count in the limit agrees with it
    mesh = _fuzz_tori_mesh(seed)
    segs = [(s.p, s.q) for s in mesh.double_segments()]
    assert oracles.translate_parity_reference(mesh, segs) == (1, rat(1, 8 * 2**halvings))
    (row,) = herbert.verify(mesh, scene_id="f").rows
    assert (row.r, row.lhs, row.verdict) == (2, 1, "PASS")


def test_r2_lhs_is_the_poincare_dual_pairing(tori_cases):
    # f*(n_2) is the double locus crossed with the surface: mod 2 the sum
    # over double circles D of h1(D) . h2(M)
    meshes = [mesh for mesh, _ in tori_cases.values()]
    meshes += [_fuzz_tori_mesh(seed) for seed in range(14)]
    ones = 0
    for mesh in meshes:
        h2 = surfaces3d.ambient_class_h2(mesh)
        dual = sum(a * b for dc in mesh.double_curves() for a, b in zip(dc.h1, h2)) % 2
        lhs = surfaces3d.herbert_lhs_r2(mesh)
        assert lhs == dual
        ones += lhs
    assert ones >= 5


@pytest.mark.parametrize("name", TORI_CASES)
def test_mesh_segment_hits_match_rational_reference(tori_cases, name):
    mesh, seg_lists = tori_cases[name]
    segs = seg_lists[0]
    # the double segments lie on the mesh
    with pytest.raises(GenericityError):
        mesh_segment_hits(mesh, segs)
    # moved off the mesh, they cross it (or not) at points both walks agree on
    w = (rat(1, 8), rat(1, 64), rat(1, 512))
    moved = [(vsub(p, w), vsub(q, w)) for p, q in segs]
    want = [
        (t, vsub(hit_point(h), v))
        for t, v, h in oracles.segment_contacts_reference(mesh, moved)
    ]
    assert mesh_segment_hits(mesh, moved) == want


# ---------------------------------------------------------------------------
# the predicates of both counts see only ints


def _scalars(x):
    """The coordinates inside nested tuples and lists of points."""
    if isinstance(x, (tuple, list)):
        return [c for y in x for c in _scalars(y)]
    return [x]


def test_lhs_predicates_receive_only_integers(monkeypatch):
    # curves2d.seg_intersect is certification's, seg_crossing the pushoff
    # count's and degeneracy_scale_sq the separation scale's;
    # segment_crosses_translate is the translate count's and
    # segment_triangle_hit that of mesh_segment_hits
    spied = (
        (curves2d, "seg_intersect"),
        (curves2d, "seg_crossing"),
        (curves2d, "degeneracy_scale_sq"),
        (surfaces3d, "segment_crosses_translate"),
        (surfaces3d, "segment_triangle_hit"),
    )
    coordinates = {name: [] for _, name in spied}

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            coordinates[name].extend(_scalars(args))
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in spied:
        spy(module, name)

    curve = _generated_curve("klein", 3, (2, 2))  # certified by the generator
    assert herbert.verify(curve, scene_id="c").all_pass
    scene = parse_scene((ROOT / "docs" / "two-tori-cycle.scene").read_text(encoding="utf-8"))
    mesh = scene.mesh("f")
    report = herbert.verify(mesh, targets={"g": scene.mesh_cycle("g", mesh)}, scene_id="f")
    assert report.all_pass and len(report.rows) == 2
    x, y = rat(1, 3), rat(1, 5)
    hits = mesh_segment_hits(mesh, [((x, y, 0), (x, y, rat(1, 2)))])
    assert hits == [(0, (x, y, rat(1, 4)))]

    for name, coords in coordinates.items():
        assert coords, name
        assert {type(c) for c in coords} == {int}, name


@pytest.fixture
def fraction_count(monkeypatch):
    """``count(fn, *args)``: the number of Fractions made while fn runs."""
    created = []
    counting = [False]
    original_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        if counting[0]:
            created.append(args)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", new)
    if "_from_coprime_ints" in vars(Fraction):  # Python 3.12+ arithmetic
        original_coprime = Fraction._from_coprime_ints

        def from_coprime_ints(cls, numerator, denominator):
            if counting[0]:
                created.append((numerator, denominator))
            return original_coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(from_coprime_ints))

    def count(fn, *args):
        created.clear()
        counting[0] = True
        try:
            fn(*args)
        finally:
            counting[0] = False
        return len(created)

    return count


def test_pushoff_construction_creates_no_fraction(fraction_count):
    curve = _generated_curve("klein", 3, (2, 2))
    epsilon = initial_epsilon(curve.min_sep_sq)  # certifies and lifts the curve
    # the counter sees the rational construction of the same pushoff
    assert fraction_count(oracles.pushoff_all_reference, curve, epsilon) > 0
    assert fraction_count(curves2d.pushoff_all, curve, epsilon) == 0


def test_separation_scale_and_crossing_count_create_no_fraction_per_pair(fraction_count):
    curve = _generated_curve("klein", 3, (2, 2))  # certified and lifted
    _, _, lifts, _ = curve.lift()
    assert len(lifts) == 1 and len(next(iter(lifts.values()))) > 2
    # the Fraction references make one or more per pair of pieces
    pieces = [
        [(pc.p0, pc.p1) for _, _, pc in entries]
        for entries in curve.pieces_by_square().values()
    ]
    assert fraction_count(lambda: [oracles.degeneracy_scale_sq_reference(f) for f in pieces]) > 10
    # min_sep_sq divides twice: the least distance of the square, in the
    # lifted frame, and the returned value, that one over D^2
    assert fraction_count(lambda: curve.min_sep_sq) == 2
    assert curve.min_sep_sq == min(map(oracles.degeneracy_scale_sq_reference, pieces))

    # the first pairing builds the pushoff at the first epsilon and counts
    # there; a second pairing makes only the epsilon
    assert pairing_mod2(curve, 0, curve) == oracles.pairing_mod2_reference(curve, 0, curve)[0]
    assert len(curve._pushoffs) == 1
    epsilon_only = fraction_count(initial_epsilon, curve.min_sep_sq)
    assert epsilon_only > 0
    assert fraction_count(pairing_mod2, curve, 0, curve) == epsilon_only


@pytest.mark.parametrize("ambient", CURVE_AMBIENTS)
def test_separation_scale_matches_rational_reference_on_generated_curves(ambient):
    for seed in range(12):
        curve = _generated_curve(ambient, seed, (2, 2))
        scales = [
            oracles.degeneracy_scale_sq_reference([(pc.p0, pc.p1) for _, _, pc in entries])
            for entries in curve.pieces_by_square().values()
        ]
        scales = [s for s in scales if s is not None]
        assert curve.min_sep_sq == (min(scales) if scales else None)


# ---------------------------------------------------------------------------
# curves: certification


def _certificate(curve):
    cert = curve.certify()
    assert cert.ok == (not cert.violations)
    for dp in cert.double_points:
        assert dp.key == lowest_terms(*dp.point, 1)
    return cert.violations, [(dp.square, dp.point, dp.branches) for dp in cert.double_points]


@pytest.mark.parametrize("ambient", CURVE_AMBIENTS)
def test_curve_certificate_matches_rational_reference(ambient):
    small, large = (
        [_generated_curve(ambient, seed, shape) for seed in range(50)] for shape in ((1, 2), (2, 2))
    )
    verdicts = []
    for k, f in enumerate(small):
        g = large[(k + 1) % 50]  # the same seed would draw much the same curve
        # the unions reuse their parts' double points; f with itself is refused
        for curve in (f, g, f.union(g), g.union(f), f.union(f)):
            want = oracles.certify_curve_reference(curve)
            assert _certificate(curve) == want
            verdicts.append(not want[0])
    assert 100 < sum(verdicts) < len(verdicts)


def test_curve_certification_creates_no_fraction_per_pair(fraction_count):
    # a double point is its point and its two branch parameters, built
    # once; a pair of pieces that does not cross makes none
    found = 0
    for ambient in CURVE_AMBIENTS:
        for seed in range(10):
            generated = _generated_curve(ambient, seed, (2, 2))
            fresh = MultiCurve(generated.complex, generated.components)
            fresh.lift()
            count = fraction_count(fresh.certify)
            assert fresh.certify().ok
            found += len(fresh.certify().double_points)
            assert count <= 4 * len(fresh.certify().double_points)
    assert found > 20


def test_curve_union_certification_makes_no_fraction_for_reused_double_points(fraction_count):
    from multipoint.bordism import class_of_curve

    reused = 0
    for seed in range(0, 12, 2):
        f, g = (
            class_of_curve(_generated_curve("torus", s, (2, 2))).payload for s in (seed, seed + 1)
        )
        union = f.union(g)  # as check_cartan builds it for r = 2
        union.lift()
        count = fraction_count(union.certify)
        if not union.certify().ok:
            continue
        parts = len(f.certify().double_points) + len(g.certify().double_points)
        assert count <= 4 * (len(union.certify().double_points) - parts)
        reused += parts
    assert reused > 10


@pytest.fixture
def fraction_calls(monkeypatch):
    """``calls(fn, *args)``: the names of the ``Fraction.__eq__``,
    ``__lt__`` and ``__hash__`` calls, and of the ``curves2d._segment_t``
    calls, made while fn runs."""
    seen = []
    counting = [False]

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            if counting[0]:
                seen.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    for name in ("__eq__", "__lt__", "__hash__"):
        counted(Fraction, name)
    counted(curves2d, "_segment_t")

    def calls(fn, *args):
        seen.clear()
        counting[0] = True
        try:
            fn(*args)
        finally:
            counting[0] = False
        return list(seen)

    return calls


def _bench_curve_pairs():
    """Class pairs shaped as the Cartan r=2 ops of the ``algebra`` bench:
    per ambient and seed, a curve of 1 or 2 components and one of 1 or 2
    on its complex, with 3 to 6 segments per component."""
    from multipoint.bordism import class_of_curve

    for ambient in CURVE_AMBIENTS:
        for seed in range(12):
            segments = (3 + seed % 4,) * 2
            f, g = (
                generate(
                    GeneratorConfig(
                        ambient=ambient, components=(comps,) * 2, segments=segments, seed=2 * seed + k
                    )
                ).multicurve("c")
                for k, comps in enumerate((1 + seed % 2, 1 + (seed // 2) % 2))
            )
            yield class_of_curve(f), class_of_curve(MultiCurve(f.complex, g.components))


def test_verify_on_a_curve_builds_no_branch_parameter(fraction_calls):
    # certification, the pairing and the preimage count read the components
    # of the double points; only explain prints their branch parameters
    generated = _generated_curve("klein", 3, (2, 2))
    curve = MultiCurve(generated.complex, generated.components)
    reports = []
    calls = fraction_calls(lambda: reports.append(herbert.verify(curve, scene_id="c")))
    assert reports[0].all_pass and curve.certify().double_points
    assert "_segment_t" not in calls
    assert "_segment_t" in fraction_calls(herbert.explain, reports[0], curve)


def test_cartan_check_compares_no_fraction_once_its_union_is_certified(monkeypatch, fraction_calls):
    from multipoint import bordism

    unions = {}
    real_union = MultiCurve.union
    monkeypatch.setattr(MultiCurve, "union", lambda a, b: unions[a, b])
    checked, sorts_seen = 0, 0
    for f, g in _bench_curve_pairs():
        for a, b in ((f, g), (g, f)):
            union = unions[a.payload, b.payload] = real_union(a.payload, b.payload)
            if not union.certify().ok:
                continue
            assert fraction_calls(bordism.check_cartan, a, b, 2) == []
            report = bordism.check_cartan(a, b, 2)
            assert report.ok
            checked += bool(report.lhs)
            # the counter sees the sort of the pieces by point that the check
            # no longer makes, where two points share a square
            reunion = sum((piece for _, piece in report.rhs), ())
            sorts_seen += bool(fraction_calls(sorted, reunion))
    assert checked > 20 and sorts_seen > 5


# ---------------------------------------------------------------------------
# the mesh path: certification and the arrangement of preimage arcs


def _generated_mesh(sheets, seed):
    config = GeneratorConfig(
        universe="tori", ambient=TORI_AMBIENT, components=(sheets, sheets), seed=seed
    )
    return generate(config).mesh("f")  # certified by the generator


def test_mesh_certification_creates_no_fraction(fraction_count):
    fresh = surfaces3d.Mesh3(_generated_mesh(3, 1).triangles)
    assert fraction_count(fresh.certify) == 0
    assert fresh.certify().ok and fresh._witnesses
    # a union of two certified meshes, with triple points inside a part and
    # across the parts
    a, b = _generated_mesh(2, 1), _generated_mesh(3, 4)
    union = a.union(b)
    assert fraction_count(union.certify) == 0
    assert union.certify().ok
    assert b._witnesses and len(union._witnesses) > len(a._witnesses) + len(b._witnesses)


def test_mesh_union_construction_creates_no_fraction(fraction_count):
    # the parts have different D, so the union scales the lifts of one
    a, b = _generated_mesh(2, 1), _generated_mesh(3, 4)
    assert a.den != b.den
    assert fraction_count(a.union, b) == 0
    assert fraction_count(surfaces3d.Mesh3, a.triangles + b.triangles) > 0


def test_arc_crossings_build_only_the_returned_points(fraction_count):
    from multipoint import bordism
    from multipoint.exactgeom import seg_intersect

    mesh = _generated_mesh(3, 1)
    records = bordism.mu_r(bordism.class_of_mesh(mesh), 2).payload
    crossings = bordism._arc_crossings_on_source(mesh, records)
    assert crossings
    # each crossing is one seg_intersect hit on ints and its point's three
    # coordinates; a miss or a skipped pair makes none
    per_hit = fraction_count(seg_intersect, ((0, 0), (2, 2)), ((0, 2), (2, 0)))
    count = fraction_count(bordism._arc_crossings_on_source, mesh, records)
    assert count == (per_hit + 3) * len(crossings)


def test_mu_2_of_a_mesh_hashes_no_fraction(fraction_calls):
    from multipoint import bordism

    circles = 0
    for sheets in (2, 3):
        for seed in range(4):
            f = bordism.class_of_mesh(_generated_mesh(sheets, seed))
            f.payload.double_curves()  # built and cached once per mesh
            assert "__hash__" not in fraction_calls(bordism.mu_r, f, 2)
            # the counter sees the value-keyed dedupe that mu_r no longer makes
            if f.payload.double_curves():
                assert "__hash__" in fraction_calls(oracles.mu_r_reference, f, 2)
            circles += len(bordism.mu_r(f, 2).payload)
    assert circles > 10
