"""Golden outputs of the bordism operations and law checks.

The inputs are generated curve and mesh pairs, stored as scene text next
to what every operation returned on them, so the pin does not move when
the generator changes.  ``tests/test_bordism_golden.py`` recomputes each
output and compares it with the stored one.

To pin a new output, add it to ``curve_outputs`` or ``mesh_outputs`` and
run

    PYTHONPATH=src python tests/bordism_golden.py --record

which adds the outputs that the stored cases lack.  It never changes a
stored output: if a recomputed one differs, it names it and writes
nothing.  Only without a stored file are the inputs generated.
"""

import argparse
import json
import sys
from pathlib import Path

from multipoint import bordism, generate
from multipoint.bordism import CheckReport, RepresentedClass
from multipoint.curves2d import MultiCurve
from multipoint.exactgeom import GenericityError
from multipoint.rational import Rat
from multipoint.scene import parse_scene, print_scene

GOLDEN = Path(__file__).with_name("data") / "bordism_golden.json"

CURVE_PAIRS = 12
MESH_PAIRS = 8


def encode(value):
    """A JSON-ready copy of an output; rationals become ``"p/q"`` strings."""
    if isinstance(value, CheckReport):
        return {
            "check": value.check,
            "ok": value.ok,
            "lhs": encode(value.lhs),
            "rhs": encode(value.rhs),
            "detail": value.detail,
        }
    if isinstance(value, RepresentedClass):
        return {
            "universe": value.universe,
            "note": value.note,
            "payload": encode(value.payload),
            "structure": encode(value.structure),
        }
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Rat):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _guarded(fn, *args):
    """An operation's encoded output, or the refusal it raised."""
    try:
        return encode(fn(*args))
    except (ValueError, GenericityError) as exc:
        return {"refused": type(exc).__name__, "message": str(exc)}


def curve_classes(case):
    f_curve = parse_scene(case["f"]).multicurve("c")
    g_raw = parse_scene(case["g"]).multicurve("c")
    g_curve = MultiCurve(f_curve.complex, g_raw.components)
    return bordism.class_of_curve(f_curve), bordism.class_of_curve(g_curve)


def mesh_classes(case):
    return tuple(
        bordism.class_of_mesh(parse_scene(case[role]).mesh("f"))
        for role in ("f", "g")
    )


def curve_outputs(f, g):
    return {
        "check_cartan(f, g, 2)": _guarded(bordism.check_cartan, f, g, 2),
        "check_cartan(g, f, 2)": _guarded(bordism.check_cartan, g, f, 2),
        "psi_r(f, 2)": _guarded(bordism.psi_r, f, 2),
        "psi_r(g, 2)": _guarded(bordism.psi_r, g, 2),
        "psi_r(f, 3)": _guarded(bordism.psi_r, f, 3),
        "mu_r(f, 2)": _guarded(bordism.mu_r, f, 2),
        "mu_r(g, 2)": _guarded(bordism.mu_r, g, 2),
        "mu_r(f, 3)": _guarded(bordism.mu_r, f, 3),
        "internal_product(f, g)": _guarded(bordism.internal_product, f, g),
        "internal_product(g, f)": _guarded(bordism.internal_product, g, f),
        "pullback_class(g, f)": _guarded(bordism.pullback_class, g, f),
        "pullback_class(f, g)": _guarded(bordism.pullback_class, f, g),
        "add(psi_r(f, 2), internal_product(f, g))": _guarded(
            lambda: bordism.add(
                bordism.psi_r(f, 2), bordism.internal_product(f, g)
            )
        ),
    }


def mesh_outputs(f, g):
    out = {
        "check_cartan(f, g, 2)": _guarded(bordism.check_cartan, f, g, 2),
        "check_cartan(f, g, 3)": _guarded(bordism.check_cartan, f, g, 3),
        "check_cartan(g, f, 3)": _guarded(bordism.check_cartan, g, f, 3),
        "check_naturality(g, f)": _guarded(bordism.check_naturality, g, f),
        "check_naturality(f, g)": _guarded(bordism.check_naturality, f, g),
        "check_mu_tower(f)": _guarded(bordism.check_mu_tower, f),
        "check_mu_tower(g)": _guarded(bordism.check_mu_tower, g),
        "psi_r(f, 2)": _guarded(bordism.psi_r, f, 2),
        "psi_r(f, 3)": _guarded(bordism.psi_r, f, 3),
        "psi_r(f, 4)": _guarded(bordism.psi_r, f, 4),
        "mu_r(f, 2)": _guarded(bordism.mu_r, f, 2),
        "mu_r(f, 3)": _guarded(bordism.mu_r, f, 3),
        "internal_product(f, g)": _guarded(bordism.internal_product, f, g),
        "internal_product(g, f)": _guarded(bordism.internal_product, g, f),
        "pullback_class(g, f)": _guarded(bordism.pullback_class, g, f),
        "pullback_class(f, g)": _guarded(bordism.pullback_class, f, g),
    }
    circles = bordism.psi_r(f, 2)
    out["internal_product(psi_r(f, 2), g)"] = _guarded(
        bordism.internal_product, circles, g
    )
    out["pullback_class(g, psi_r(f, 2))"] = _guarded(
        bordism.pullback_class, g, circles
    )
    out["add(psi_r(f, 2), psi_r(g, 2))"] = _guarded(
        lambda: bordism.add(circles, bordism.psi_r(g, 2))
    )
    return out


def outputs(case):
    if case["kind"] == "curves":
        return curve_outputs(*curve_classes(case))
    return mesh_outputs(*mesh_classes(case))


def _generated_text(configs):
    """The scene text of the first config in ``configs`` that generates."""
    for config in configs:
        try:
            return print_scene(generate.generate(config))
        except generate.GenerationError:
            continue
    raise RuntimeError("no config generated a scene")


def _curve_inputs(k):
    """Pair k cycles through the ambients, 1 or 2 components per side and
    3 to 6 segments per component."""
    ambient = generate.CURVE_AMBIENTS[k % 3]
    segments = 3 + (k // 3) % 4

    def text(comps, stream):
        return _generated_text(
            generate.GeneratorConfig(
                ambient=ambient,
                components=(comps, comps),
                segments=(segments, segments),
                seed=stream * 1000 + 10 * k + attempt,
            )
            for attempt in range(10)
        )

    f_comps, g_comps = 1 + k % 2, 1 + (k // 2) % 2
    return {"kind": "curves", "f": text(f_comps, 1), "g": text(g_comps, 2)}


def _mesh_text(sheets, seed):
    config = generate.GeneratorConfig(
        universe="tori",
        ambient=generate.TORI_AMBIENT,
        components=(sheets, sheets),
        seed=seed,
    )
    return print_scene(generate.generate(config))


def _mesh_cases():
    """MESH_PAIRS pairs whose union certifies, f with 3 or 2 sheets and g
    with 1 or 2, then the first generated pair whose union is refused."""
    cases, refused, seed = [], None, 3000
    while len(cases) < MESH_PAIRS or refused is None:
        k = len(cases)
        seed += 1
        try:
            case = {
                "kind": "meshes",
                "f": _mesh_text(3 - k % 2, seed),
                "g": _mesh_text(1 + (k // 2) % 2, seed + 500),
            }
        except generate.GenerationError:
            continue
        f, g = mesh_classes(case)
        try:
            bordism.add(f, g)
        except ValueError:
            if refused is None:
                refused = {"name": "meshes-refused", **case}
            continue
        if k < MESH_PAIRS:
            cases.append({"name": f"meshes-{k}", **case})
    return cases + [refused]


class ChangedOutputError(Exception):
    """A recomputed output differs from its stored value."""


def _generated_cases():
    cases = [{"name": f"curves-{k}", **_curve_inputs(k)} for k in range(CURVE_PAIRS)]
    return cases + _mesh_cases()


def record():
    """Add every output the stored cases lack; return how many were added.

    Raises :class:`ChangedOutputError`, writing nothing, if a stored output
    is recomputed to a different value.
    """
    cases = load() if GOLDEN.exists() else _generated_cases()
    added, changed = 0, []
    for case in cases:
        stored = case.setdefault("outputs", {})
        for name, value in outputs(case).items():
            if name not in stored:
                stored[name] = value
                added += 1
            elif stored[name] != value:
                changed.append(f"{case['name']}: {name}")
    if changed:
        raise ChangedOutputError(
            "stored outputs changed, nothing written:\n" + "\n".join(changed)
        )
    GOLDEN.parent.mkdir(exist_ok=True)
    # one case per line, so an added output diffs case by case
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in cases)
    GOLDEN.write_text('{"cases":[\n' + lines + "\n]}\n")
    return added


def load():
    return json.loads(GOLDEN.read_text())["cases"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        action="store_true",
        help="add the outputs the stored cases lack; never change a stored one",
    )
    args = parser.parse_args(argv)
    if not args.record:
        parser.error("nothing to do without --record")
    try:
        added = record()
    except ChangedOutputError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"added {added} outputs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
