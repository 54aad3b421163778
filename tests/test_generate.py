"""Determinism, catalog coverage, and rejection behavior of the generator."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint import curves2d, herbert
from multipoint import generate as generate_mod
from multipoint.generate import GenerationError, GeneratorConfig, generate
from multipoint.scene import print_scene


# --- config validation --------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(universe="knots"),
        dict(universe="curves", ambient="t3-tori-catalog"),
        dict(universe="tori", ambient="torus"),
        dict(components=(0, 2)),
        dict(components=(3, 2)),
        dict(segments=(4, 1)),
        dict(seed=-1),
        dict(seed=2**64),
        dict(retry_budget=0),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GeneratorConfig(**kwargs)


def test_config_defaults_are_valid():
    cfg = GeneratorConfig()
    assert cfg.universe == "curves"
    assert cfg.ambient == "torus"
    assert cfg.retry_budget == 16


# --- determinism ---------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        GeneratorConfig(seed=7, ambient="genus2"),
        GeneratorConfig(seed=3, ambient="klein", components=(2, 3)),
        GeneratorConfig(seed=11, embedded_only=True),
        GeneratorConfig(
            universe="tori", ambient="t3-tori-catalog", seed=5, with_cycle=True
        ),
    ],
)
def test_same_seed_same_scene(cfg):
    assert print_scene(generate(cfg)) == print_scene(generate(cfg))


def test_different_seeds_differ_somewhere():
    texts = {
        print_scene(generate(GeneratorConfig(seed=s, components=(2, 2))))
        for s in range(8)
    }
    assert len(texts) > 1


# --- curve catalogs -------------------------------------------------------------


@pytest.mark.parametrize("ambient", ["torus", "klein", "genus2"])
def test_curve_scenes_certify_and_pass(ambient):
    for seed in range(12):
        scene = generate(GeneratorConfig(ambient=ambient, seed=seed))
        curve = scene.multicurve("c")
        assert curve.certify().ok
        assert herbert.verify(curve, scene_id=f"{ambient}{seed}").all_pass


@pytest.mark.parametrize("ambient", ["torus", "klein", "genus2"])
def test_embedded_scenes_have_no_double_points(ambient):
    for seed in range(12):
        scene = generate(
            GeneratorConfig(
                ambient=ambient, seed=seed, embedded_only=True, components=(1, 3)
            )
        )
        cert = scene.multicurve("c").certify()
        assert cert.ok
        assert cert.double_points == ()


def test_embedded_klein_catalog_includes_one_sided_loops():
    bits = set()
    for seed in range(40):
        scene = generate(
            GeneratorConfig(ambient="klein", seed=seed, embedded_only=True)
        )
        for comp in scene.multicurve("c").components:
            bits.add(comp.two_sidedness())
    assert bits == {0, 1}


def test_generated_curve_is_certified_once(monkeypatch):
    calls = []
    real = curves2d._certify

    def counted(curve):
        calls.append(curve)
        return real(curve)

    monkeypatch.setattr(curves2d, "_certify", counted)
    scene = generate(GeneratorConfig(components=(2, 2), seed=3))
    certified = len(calls)
    curve = scene.multicurve("c")
    assert curve is calls[-1]  # the object the generator accepted
    assert herbert.verify(curve, scene_id="c3").all_pass
    assert len(calls) == certified


def test_pairing_builds_each_pushoff_once(monkeypatch):
    calls = []
    real = curves2d.pushoff_all

    def counted(curve, epsilon):
        calls.append(epsilon)
        return real(curve, epsilon)

    monkeypatch.setattr(curves2d, "pushoff_all", counted)
    curve = generate(GeneratorConfig(components=(2, 2), seed=3)).multicurve("c")
    assert len(curve.components) == 2
    assert herbert.verify(curve, scene_id="c3").all_pass
    assert calls and len(calls) == len(set(calls))  # once per epsilon


def test_verify_directive_is_emitted():
    scene = generate(GeneratorConfig(seed=2))
    assert scene.verifies and scene.verifies[0].name == "c"


# --- 3-torus catalog -------------------------------------------------------------


def test_tori_scenes_certify_and_pass():
    for seed in range(10):
        cfg = GeneratorConfig(
            universe="tori",
            ambient="t3-tori-catalog",
            components=(2, 3),
            seed=seed,
            with_cycle=seed % 2 == 0,
        )
        scene = generate(cfg)
        mesh = scene.mesh("f")
        assert scene.mesh("f") is mesh
        assert mesh.certify().ok
        targets = {name: scene.mesh_cycle(name, mesh) for name in scene.cycles}
        report = herbert.verify(mesh, targets=targets or None, scene_id=f"t{seed}")
        assert report.all_pass
        if cfg.with_cycle:
            assert any(row.target == "g" for row in report.rows)


def test_tori_sheet_count_respects_range():
    for seed in range(6):
        scene = generate(
            GeneratorConfig(
                universe="tori", ambient="t3-tori-catalog", components=(3, 3), seed=seed
            )
        )
        # every catalog sheet contributes exactly two triangles
        assert len(scene.immersions["f"].triangles) == 6


# --- rejection sampling -----------------------------------------------------------


def test_budget_exhaustion_raises():
    # a two-segment polygon doubles back over itself, so every candidate
    # fails certification and the budget runs dry deterministically
    cfg = GeneratorConfig(segments=(2, 2), retry_budget=3, seed=1)
    with pytest.raises(GenerationError, match="retry budget exhausted"):
        generate(cfg)


def test_budget_message_reports_last_failure():
    cfg = GeneratorConfig(segments=(2, 2), retry_budget=1, seed=0)
    with pytest.raises(GenerationError, match="general position"):
        generate(cfg)


def test_rejected_candidates_are_freed_without_a_cyclic_collection(monkeypatch):
    # the first candidate of this seed is rejected; keeping the rejection
    # itself (not its message) would tie the candidate scene to the
    # generator's frame through the traceback until a cyclic collection
    rejected = []
    real = generate_mod._accept

    def accept(scene, config):
        try:
            return real(scene, config)
        except generate_mod._REJECTIONS as exc:
            rejected.append(type(exc))
            raise

    monkeypatch.setattr(generate_mod, "_accept", accept)
    cfg = GeneratorConfig(ambient="torus", components=(2, 2), seed=210)
    generate(cfg)  # warm the caches the first generation fills
    rejected.clear()
    gc.collect()
    gc.disable()
    try:
        generate(cfg)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert rejected
    assert garbage == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_any_seed_yields_certified_torus_scene(seed):
    scene = generate(GeneratorConfig(seed=seed))
    assert scene.multicurve("c").certify().ok
