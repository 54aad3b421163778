"""The identity verifier: reports, TSV format, explanations."""

import pytest

from multipoint import curves2d, herbert
from multipoint.curves2d import MultiCurve
from multipoint.herbert import HerbertReport, HerbertRow, explain, verify
from multipoint.generate import CURVE_AMBIENTS, GeneratorConfig, generate
from multipoint.rational import rat
from multipoint.surfaces3d import GeneralPositionError, Mesh3, MeshCycle, coordinate_torus
from multipoint.bordism import check_cartan, class_of_curve

from helpers import klein_complex, torus_complex

TORUS = torus_complex()
KLEIN = klein_complex()
Q = rat(1, 4)

FIG8 = [(0, rat(1, 4), rat(1, 4)), (0, rat(3, 4), rat(3, 4)),
        (0, rat(3, 4), rat(1, 4)), (0, rat(1, 4), rat(3, 4))]
HORIZ = [(0, rat(1, 4), rat(1, 2)), (0, rat(5, 4), rat(1, 2))]
VERT = [(0, rat(1, 2), rat(1, 4)), (0, rat(1, 2), rat(5, 4))]

CYCLE_MARKS = [(0, rat(1, 16), rat(1, 16)), (0, 0, rat(1, 8)),
               (1, rat(3, 16), rat(3, 8)), (1, rat(1, 8), rat(7, 8))]


def curve(*comps):
    return MultiCurve.build(TORUS, [[(sq, (x, y)) for sq, x, y in c] for c in comps])


def three_tori():
    return Mesh3(
        coordinate_torus(2, Q)
        + coordinate_torus(1, Q, rat(-1, 8))
        + coordinate_torus(0, Q, rat(-3, 16))
    )


def two_tori():
    return Mesh3(coordinate_torus(2, Q) + coordinate_torus(1, Q, rat(-1, 8)))


def test_figure_eight_report():
    rep = verify(curve(FIG8), scene_id="fig8")
    assert rep.all_pass
    assert rep.n_double == 1 and rep.n_triple == 0
    (row,) = rep.rows
    assert (row.target, row.r, row.lhs, row.mu, row.euler) == (
        "component[0]", 1, 0, 0, 0,
    )
    assert row.verdict == "PASS"


def test_two_loops_report():
    rep = verify(curve(HORIZ, VERT), scene_id="loops")
    assert rep.all_pass
    assert [(r.lhs, r.mu, r.euler) for r in rep.rows] == [(1, 1, 0), (1, 1, 0)]


def test_klein_core_report():
    core = MultiCurve.build(KLEIN, [[(sq, (x, y)) for sq, x, y in HORIZ]])
    rep = verify(core, scene_id="klein-core")
    assert rep.all_pass
    (row,) = rep.rows
    assert (row.lhs, row.mu, row.euler) == (1, 0, 1)


def test_three_tori_report_with_cycle():
    rep = verify(three_tori(), scene_id="tori3")
    assert rep.all_pass
    assert rep.n_double == 3 and rep.n_triple == 1
    (row,) = rep.rows
    assert (row.target, row.r, row.lhs, row.mu, row.euler) == ("[M]", 2, 1, 1, 0)

    mesh = two_tori()
    rep2 = verify(mesh, targets={"gamma": MeshCycle(mesh, CYCLE_MARKS)}, scene_id="tori2")
    assert rep2.all_pass
    assert [(r.target, r.r, r.lhs, r.mu, r.euler) for r in rep2.rows] == [
        ("[M]", 2, 0, 0, 0),
        ("gamma", 1, 1, 1, 0),
    ]


def test_verify_rejects_uncertified_scene():
    with pytest.raises(GeneralPositionError):
        verify(Mesh3(coordinate_torus(2, Q) + coordinate_torus(2, Q, rat(-1, 8))))


def test_separation_scale_is_computed_on_first_pairing_only(monkeypatch):
    calls = []
    real = curves2d.degeneracy_scale_sq

    def counted(segments):
        calls.append(len(segments))
        return real(segments)

    monkeypatch.setattr(curves2d, "degeneracy_scale_sq", counted)
    assert curve(HORIZ, VERT).certify().ok
    assert calls == []
    rep = verify(curve(HORIZ, VERT))
    assert rep.all_pass and len(rep.rows) == 2
    assert len(calls) == 1  # one square: one scale, read by both components
    calls.clear()
    assert check_cartan(class_of_curve(curve(HORIZ)), class_of_curve(curve(VERT)), 2).ok
    assert calls == []


# ---------------------------------------------------------------------------
# metamorphic checks on generated curves


def _reversed_marks(complex_, comp):
    """Marks that draw a component backwards: from vertex 0 through vertices
    n-1, ..., 1 back to vertex 0.  A segment that crossed a gluing ends at
    the image of its start vertex in the square it is now drawn from."""
    sq0, p0 = comp.vertices[0]
    marks = [(sq0, p0)]
    current = sq0
    for seg in reversed(range(len(comp.vertices))):
        square, point = comp.vertices[seg]
        crossing = comp.crossings[seg]
        if crossing is not None:
            point = complex_.glued(square, crossing.edge)[3].apply(point)
        marks.append((current, point))
        current = square
    return marks


@pytest.mark.parametrize("ambient", CURVE_AMBIENTS)
def test_curve_rows_follow_component_swap_and_reversal(ambient):
    # mod-2 classes do not see orientation: drawn backwards, each component
    # is pushed off to its other side, and every row stays the same
    for seed in range(20):
        config = GeneratorConfig(ambient=ambient, seed=seed, components=(2, 2))
        curve = generate(config).multicurve("c")
        rows = verify(curve).rows
        assert len(rows) == 2 and all(row.verdict == "PASS" for row in rows)
        swapped = verify(MultiCurve(curve.complex, curve.components[::-1])).rows
        assert [(r.lhs, r.mu, r.euler) for r in swapped] == [
            (r.lhs, r.mu, r.euler) for r in rows[::-1]
        ]
        backwards = MultiCurve.build(
            curve.complex, [_reversed_marks(curve.complex, comp) for comp in curve.components]
        )
        assert [len(c.pieces) for c in backwards.components] == [
            len(c.pieces) for c in curve.components
        ]
        assert verify(backwards).rows == rows


def test_curve_budget_exhaustion_is_error_row(monkeypatch):
    # exhaust the pairing's retry budget
    monkeypatch.setattr(curves2d, "PUSHOFF_RETRIES", 0)
    rep = verify(curve(FIG8))
    (row,) = rep.rows
    assert row.verdict == "ERROR"
    assert "budget exhausted" in row.diagnostics


def test_internal_error_in_curve_row_propagates(monkeypatch):
    def broken(*args):
        raise KeyError("internal bug")

    monkeypatch.setattr(herbert, "herbert_lhs_r1", broken)
    with pytest.raises(KeyError, match="internal bug"):
        verify(curve(FIG8))


def test_cycle_error_becomes_error_row():
    # the cycle assembles, and then meets the double-locus preimage
    # non-transversally
    mesh = two_tori()
    marks = [(0, rat(1, 16), rat(1, 16)), (0, 0, rat(1, 8)),
             (1, rat(1, 8), rat(3, 8)), (1, rat(1, 8), rat(7, 8))]
    rep = verify(mesh, targets={"gamma": MeshCycle(mesh, marks)}, scene_id="tori2")
    by_target = {r.target: r for r in rep.rows}
    assert by_target["[M]"].verdict == "PASS"
    assert by_target["gamma"].verdict == "ERROR"
    assert "cycle-tangency" in by_target["gamma"].diagnostics
    assert not rep.all_pass


def test_tsv_format_and_determinism():
    rep1 = verify(three_tori(), scene_id="tori3")
    rep2 = verify(three_tori(), scene_id="tori3")
    assert rep1.to_tsv() == rep2.to_tsv()
    lines = rep1.to_tsv().splitlines()
    assert lines[0] == "scene\tr\ttarget\tlhs\tmu\teuler\tverdict"
    assert lines[1] == "tori3\t2\t[M]\t1\t1\t0\tPASS"


def test_explain_names_the_double_point():
    scene = curve(FIG8)
    text = explain(verify(scene, scene_id="fig8"), scene)
    assert "1 double object(s)" in text
    assert "double point s0:(1/2, 1/2)" in text
    assert "(comp 0, seg 0, t=1/2)" in text
    assert "(comp 0, seg 2, t=1/2)" in text
    assert "ALL PASS" in text


def test_explain_empty_scene():
    scene = curve(HORIZ)
    text = explain(verify(scene, scene_id="loop"), scene)
    assert "no intersections: every identity instance is 0 = 0 + 0" in text


def test_explain_klein_core_loop_claims_only_mu_zero():
    # embedded but one-sided: the row reads 1 = 0 + 1, not 0 = 0 + 0
    scene = MultiCurve.build(KLEIN, [[(0, (rat(1, 4), rat(1, 2))), (0, (rat(5, 4), rat(1, 2)))]])
    text = explain(verify(scene, scene_id="c"), scene)
    assert "no intersections: mu is 0 on every row\n" in text
    assert "0 = 0 + 0" not in text
    assert "component[0] (r=1): lhs 1 = mu 0 + euler 1 (mod 2) [PASS]" in text


def test_explain_highlights_injected_failure():
    fake = HerbertReport(
        "synthetic",
        (HerbertRow("component[0]", 1, 1, 0, 0, "FAIL"),),
        0, 0,
    )
    text = explain(fake, curve(HORIZ))
    assert "MISMATCH" in text
    assert "NOT ALL ROWS PASS" in text


def test_explain_lists_mesh_geometry():
    scene = three_tori()
    fake = HerbertReport(
        "synthetic",
        (HerbertRow("[M]", 2, 1, 0, 0, "FAIL"),),
        3, 1,
    )
    text = explain(fake, scene)
    assert "MISMATCH" in text
    assert "t0:" in text
    assert "triple point (1/4, 1/4, 1/4)" in text
