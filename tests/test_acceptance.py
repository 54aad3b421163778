"""Acceptance gate: one end-to-end check per criterion, all exact arithmetic.

Each test prints a single ``[PASS]``/``[FAIL]`` line for its criterion
(visible with ``pytest -s``) and asserts the same condition, so the suite
doubles as a machine gate and a human checklist.
"""

import contextlib
import io
import time
from pathlib import Path

import pytest

import oracles
from helpers import ordered_preimages
from multipoint import herbert
from multipoint.bordism import (
    check_cartan,
    check_mu_tower,
    check_naturality,
    class_of_curve,
    class_of_mesh,
    mu_r,
    psi_r,
)
from multipoint.cli import main as cli_main
from multipoint.curves2d import (
    GeneralPositionError as CurveGeneralPositionError,
    MultiCurve,
    double_points,
    pairing_mod2,
)
from multipoint.generate import GeneratorConfig, generate
from multipoint.scene import parse_scene, print_scene
from multipoint.surfaces3d import GeneralPositionError as MeshGeneralPositionError

DOCS = Path(__file__).resolve().parent.parent / "docs"
AMBIENTS = ("torus", "klein", "genus2")


def _report(num, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def _scene(name):
    return parse_scene((DOCS / name).read_text())


def _tori_cfg(seed, components=(2, 3), with_cycle=False):
    return GeneratorConfig(
        universe="tori",
        ambient="t3-tori-catalog",
        components=components,
        seed=seed,
        with_cycle=with_cycle,
    )


def _row_triples(report):
    return [(row.lhs, row.mu, row.euler) for row in report.rows]


# --- criterion 1: anchor scenes ------------------------------------------------


def test_criterion_1_anchor_scenes():
    ok = True

    t = time.perf_counter()
    fig8 = _scene("figure-eight.scene").multicurve("c")
    rep = herbert.verify(fig8, scene_id="fig8")
    ok &= rep.all_pass and _row_triples(rep) == [(0, 0, 0)]
    ok &= len(double_points(fig8)) == 1
    ok &= len(ordered_preimages(fig8)) == 2
    ok &= time.perf_counter() - t < 1.0

    t = time.perf_counter()
    rep = herbert.verify(_scene("two-loops.scene").multicurve("c"), scene_id="hv")
    ok &= rep.all_pass and _row_triples(rep) == [(1, 1, 0), (1, 1, 0)]
    ok &= time.perf_counter() - t < 1.0

    t = time.perf_counter()
    rep = herbert.verify(_scene("klein-core.scene").multicurve("c"), scene_id="core")
    ok &= rep.all_pass and _row_triples(rep) == [(1, 0, 1)]
    ok &= time.perf_counter() - t < 1.0

    t = time.perf_counter()
    mesh = _scene("three-tori.scene").mesh("f")
    rep = herbert.verify(mesh, scene_id="tori3")
    ok &= rep.all_pass and _row_triples(rep) == [(1, 1, 0)]
    triples = mesh.triple_points()
    ok &= len(triples) == 1
    ok &= len(mesh.double_curves()) == 3
    ok &= all(len(set(point.preimages)) == 3 for point in triples)
    ok &= len(mu_r(class_of_mesh(mesh), 3).payload) == 3
    ok &= time.perf_counter() - t < 1.0

    _report(1, "anchor scenes, exact values, each under a second", ok)


# --- criterion 2: identity fuzz ------------------------------------------------


def test_criterion_2_identity_fuzz():
    t0 = time.perf_counter()
    ok = True
    for seed in range(500):
        scene = generate(GeneratorConfig(ambient=AMBIENTS[seed % 3], seed=seed))
        ok &= herbert.verify(scene.multicurve("c"), scene_id=f"c{seed}").all_pass
    for seed in range(100):
        scene = generate(_tori_cfg(seed, with_cycle=seed % 2 == 0))
        mesh = scene.mesh("f")
        targets = {n: scene.mesh_cycle(n, mesh) for n in scene.cycles}
        rep = herbert.verify(mesh, targets=targets or None, scene_id=f"t{seed}")
        ok &= rep.all_pass
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(2, f"identity on 500 curve + 100 tori scenes ({elapsed:.1f}s)", ok)


# --- criterion 3: algebraic laws -----------------------------------------------


def test_criterion_3_psi_laws():
    ok = True

    got, attempts = 0, 0
    while got < 50 and attempts < 300:
        f = class_of_mesh(generate(_tori_cfg(10_000 + attempts)).mesh("f"))
        g = class_of_mesh(
            generate(_tori_cfg(20_000 + attempts, components=(1, 2))).mesh("f")
        )
        attempts += 1
        try:
            ok &= check_naturality(g, f).ok
        except MeshGeneralPositionError:
            continue  # union not generic; certified rejection, next pair
        got += 1
    ok &= got == 50

    for seed in range(100):
        cfg = GeneratorConfig(
            ambient=AMBIENTS[seed % 3], seed=seed, embedded_only=True, components=(1, 3)
        )
        cls = class_of_curve(generate(cfg).multicurve("c"))
        ok &= psi_r(cls, 1) is cls
        ok &= all(psi_r(cls, r).is_empty for r in (2, 3, 4))
    for seed in range(5):
        cls = class_of_mesh(generate(_tori_cfg(seed)).mesh("f"))
        ok &= psi_r(cls, 1) is cls

    got, attempts = 0, 0
    while got < 100 and attempts < 500:
        ambient = AMBIENTS[attempts % 3]
        f = generate(GeneratorConfig(ambient=ambient, seed=30_000 + attempts))
        g = generate(GeneratorConfig(ambient=ambient, seed=40_000 + attempts))
        attempts += 1
        f_curve = f.multicurve("c")
        g_curve = MultiCurve(f_curve.complex, g.multicurve("c").components)
        try:
            ok &= check_cartan(class_of_curve(f_curve), class_of_curve(g_curve), 2).ok
        except CurveGeneralPositionError:
            continue
        got += 1
    ok &= got == 100

    got, attempts = 0, 0
    while got < 25 and attempts < 150:
        f = class_of_mesh(
            generate(_tori_cfg(50_000 + attempts, components=(1, 2))).mesh("f")
        )
        g = class_of_mesh(
            generate(_tori_cfg(60_000 + attempts, components=(1, 2))).mesh("f")
        )
        attempts += 1
        try:
            ok &= check_cartan(f, g, 3).ok
        except MeshGeneralPositionError:
            continue
        got += 1
    ok &= got == 25

    for seed in range(25):
        cls = class_of_mesh(generate(_tori_cfg(70_000 + seed)).mesh("f"))
        ok &= check_mu_tower(cls).ok

    _report(3, "naturality 50, psi on 100 embeddings, Cartan 100+25, mu-tower 25", ok)


# --- criterion 4: embedded pairing equals two-sidedness --------------------------


def test_criterion_4_embedded_euler():
    ok = True
    for seed in range(100):
        cfg = GeneratorConfig(
            ambient=AMBIENTS[seed % 3], seed=seed, embedded_only=True, components=(1, 3)
        )
        curve = generate(cfg).multicurve("c")
        ok &= curve.certify().double_points == ()
        for i, comp in enumerate(curve.components):
            ok &= pairing_mod2(curve, i, curve) == comp.two_sidedness()
    _report(4, "pairing equals two-sidedness on 100 embedded curves", ok)


# --- criterion 5: matrix oracle vs pushoff pairing --------------------------------


def test_criterion_5_matrix_oracle():
    ok, got = True, 0
    for trial in range(200):
        ambient = "torus" if trial % 2 == 0 else "klein"
        a = generate(GeneratorConfig(ambient=ambient, seed=80_000 + trial)).multicurve("c")
        b_raw = generate(GeneratorConfig(ambient=ambient, seed=90_000 + trial)).multicurve("c")
        b = MultiCurve(a.complex, b_raw.components)
        machine = 0
        for i in range(len(a.components)):
            machine ^= pairing_mod2(a, i, b)
        if ambient == "torus":
            oracle = oracles.torus_pairing_oracle(a, b, a.complex)
        else:
            oracle = oracles.klein_pairing_oracle(a, b, a.complex)
        ok &= machine == oracle
        got += 1
    ok &= got == 200
    _report(5, "pushoff pairing matches intersection-form oracle on 200 pairs", ok)


# --- criterion 6: degenerate fixtures are rejected ---------------------------------


_TORUS_HEAD = (
    "surface T\nsquares 1\nglue s0.E s0.W same\nglue s0.N s0.S same\n\n"
)

DEGENERATE_CURVES = {
    "tangency": _TORUS_HEAD
    + "curve c on T\npt s0 1/8 1/4\npt s0 9/8 1/4\n\n"
    + "curve c on T\npt s0 1/2 1/4\npt s0 3/4 5/8\npt s0 1/4 5/8\n",
    "triple-point": _TORUS_HEAD
    + "curve c on T\npt s0 1/4 1/2\npt s0 5/4 1/2\n\n"
    + "curve c on T\npt s0 1/2 1/4\npt s0 1/2 5/4\n\n"
    + "curve c on T\npt s0 1/4 1/4\npt s0 3/4 3/4\npt s0 1/4 3/4\n",
    "vertex-on-edge": _TORUS_HEAD
    + "curve c on T\npt s0 0 1/8\npt s0 3/4 1/4\npt s0 1/2 3/4\n",
}

COPLANAR_MESH = """\
immersion3 f
tri 0 0 1/4 1 0 1/4 0 1 1/4
tri 1 0 1/4 1 1 1/4 0 1 1/4
tri -1/8 -1/8 1/4 7/8 -1/8 1/4 -1/8 7/8 1/4
tri 7/8 -1/8 1/4 7/8 7/8 1/4 -1/8 7/8 1/4
"""


def test_criterion_6_degenerate_rejection():
    ok = True
    for name, text in DEGENERATE_CURVES.items():
        curve = parse_scene(text).multicurve("c")
        cert = curve.certify()
        ok &= not cert.ok and name in cert.violation_names
        with pytest.raises(CurveGeneralPositionError):
            herbert.verify(curve)  # no verdict for degenerate input

    mesh = parse_scene(COPLANAR_MESH).mesh("f")
    cert = mesh.certify()
    ok &= not cert.ok and "coplanar-overlap" in cert.violation_names
    with pytest.raises(MeshGeneralPositionError):
        herbert.verify(mesh)

    _report(6, "degenerate fixtures rejected by name, no verdict", ok)


# --- criterion 7: byte-identical machine reports -------------------------------------


def test_criterion_7_determinism(tmp_path):
    corpus = sorted(DOCS.glob("*.scene"))
    assert corpus, "anchor corpus missing"
    generated = tmp_path / "generated.scene"
    generated.write_text(print_scene(generate(GeneratorConfig(seed=13, components=(2, 2)))))
    ok = True
    for path in list(corpus) + [generated]:
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["verify", str(path), "--machine"])
            ok &= code == 0
            runs.append(buf.getvalue())
        ok &= runs[0] == runs[1] and runs[0].startswith("scene\t")
    _report(7, "repeated machine-format verify runs are byte-identical", ok)
