"""Seeded random scene generation with certify-and-retry sampling.

Candidates are drawn from closed-form catalogs (polygon loops and wrapped
axis loops on the square-tiled presets; axis-aligned and integer-sheared
flat tori in the 3-torus), rendered to scene text, parsed back, and
accepted only when the built geometry certifies in general position.
Rejected candidates consume the retry budget, so ``generate`` is a pure
function of its config.

Catalog notes: the ``segments`` range sizes polygon components; wrapped
loops have fixed sizes (2-4 segments) and are only drawn when the range
admits at least 3 segments.  ``embedded_only`` restricts each scene to a
single pairwise-disjoint family (parallel wrapped loops at distinct
levels, disjoint convex triangles, or one kinked one-sided loop on the
Klein bottle) and additionally rejects any candidate with double points.
"""

import random
from dataclasses import dataclass

from .curves2d import CurveBuildError
from .exactgeom import GeneralPositionError, InputError, require_general_position
from .rational import format_rational, rat
from .scene import parse_scene
from .surfaces3d import (
    CycleError,
    MeshBuildError,
    coordinate_torus,
    herbert_rhs_r1_cycle_parts,
    parallelogram_torus,
)

CURVE_AMBIENTS = ("torus", "klein", "genus2")
TORI_AMBIENT = "t3-tori-catalog"


class GenerationError(RuntimeError):
    """No candidate certified within the retry budget."""


@dataclass(frozen=True)
class GeneratorConfig:
    universe: str = "curves"  # curves | tori
    ambient: str = "torus"  # torus | klein | genus2 | t3-tori-catalog
    components: tuple = (1, 2)  # curve components / 3-torus sheets
    segments: tuple = (3, 6)  # per polygon component
    seed: int = 0
    retry_budget: int = 16
    embedded_only: bool = False
    with_cycle: bool = False  # 3-torus scenes: add a small test cycle

    def __post_init__(self):
        if self.universe not in ("curves", "tori"):
            raise InputError(f"unknown universe {self.universe!r}")
        allowed = CURVE_AMBIENTS if self.universe == "curves" else (TORI_AMBIENT,)
        if self.ambient not in allowed:
            raise InputError(
                f"ambient {self.ambient!r} invalid for universe {self.universe!r}"
            )
        for lo, hi in (self.components, self.segments):
            if lo < 1 or hi < lo:
                raise InputError("ranges must be nonempty")
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must fit in 64 bits")
        if self.retry_budget < 1:
            raise InputError("retry budget must be at least 1")


def _q64(rng, lo=5, hi=59):
    """A random rational in (0, 1) with denominator dividing 64."""
    return rat(rng.randint(lo, hi), 64)


def _fmt(x):
    return format_rational(x)


def _pt(square, x, y):
    return f"pt s{square} {_fmt(x)} {_fmt(y)}"


# --- 2D component catalogs ---------------------------------------------------

_SURFACE_BLOCKS = {
    "torus": "surface S\nsquares 1\nglue s0.E s0.W same\nglue s0.N s0.S same",
    "klein": "surface S\nsquares 1\nglue s0.E s0.W flip\nglue s0.N s0.S same",
    "genus2": (
        "surface S\nsquares 4\n"
        "glue s0.E s1.W same\nglue s1.E s2.W same\nglue s2.E s0.W same\n"
        "glue s3.E s3.W same\nglue s0.N s3.S same\nglue s3.N s0.S same\n"
        "glue s1.N s1.S same\nglue s2.N s2.S same"
    ),
}


def _polygon_lines(rng, square, k):
    pts = []
    while len(pts) < k:
        p = (_q64(rng), _q64(rng))
        if p not in pts:
            pts.append(p)
    return [_pt(square, x, y) for x, y in pts]


def _kinked_loop_lines(rng, ambient, horizontal):
    """A once-wrapping loop with one free vertex (3 segments, square 0)."""
    x0, y0, x1, y1 = _q64(rng), _q64(rng), _q64(rng), _q64(rng)
    if horizontal:
        close_y = 1 - y0 if ambient == "klein" else y0
        return [_pt(0, x0, y0), _pt(0, x1, y1), _pt(0, x0 + 1, close_y)]
    return [_pt(0, x0, y0), _pt(0, x1, y1), _pt(0, x0, y0 + 1)]


def _genus2_loop_lines(rng, kind, level):
    """Straight loops on the four-square preset at a given level."""
    if kind == "transit":  # around the horizontal 0-1-2 handle chain
        return [
            _pt(0, rat(1, 8), level),
            _pt(0, rat(9, 8), level),
            _pt(1, rat(9, 8), level),
            _pt(2, rat(9, 8), level),
        ]
    if kind == "stack":  # through the vertically glued pair 0/3
        return [
            _pt(0, level, rat(1, 8)),
            _pt(0, level, rat(9, 8)),
            _pt(3, level, rat(9, 8)),
        ]
    square = {"vert1": 1, "vert2": 2}.get(kind)
    if square is not None:
        return [_pt(square, level, rat(1, 8)), _pt(square, level, rat(9, 8))]
    return [_pt(3, rat(1, 8), level), _pt(3, rat(9, 8), level)]  # horiz3


def _straight_loop_lines(square, horizontal, level):
    if horizontal:
        return [_pt(square, rat(1, 8), level), _pt(square, rat(9, 8), level)]
    return [_pt(square, level, rat(1, 8)), _pt(square, level, rat(9, 8))]


def _disjoint_triangle_lines(rng, n, n_squares):
    """Convex triangles confined to distinct cells of a 4x4 grid."""
    blocks = []
    cells = rng.sample([(i, j) for i in range(4) for j in range(4)], n)
    for i, j in cells:
        sq = rng.randrange(n_squares)
        cx = rat(1, 8) + rat(i, 4) + rat(rng.randint(-2, 2), 64)
        cy = rat(1, 8) + rat(j, 4) + rat(rng.randint(-2, 2), 64)
        r = rat(3, 64)
        pts = [(cx - r, cy - r), (cx + r, cy - r), (cx, cy + r)]
        blocks.append("\n".join(_pt(sq, x, y) for x, y in pts))
    return blocks


def _embedded_components(rng, ambient, n_comp):
    if ambient == "genus2":
        family = rng.choice(["vert1", "horiz3", "transit", "triangle"])
    elif ambient == "klein":
        family = rng.choice(["vert", "kink", "triangle"])
    else:
        family = rng.choice(["horiz", "vert", "triangle"])
    n_squares = 4 if ambient == "genus2" else 1
    if family == "triangle":
        return _disjoint_triangle_lines(rng, n_comp, n_squares)
    if family == "kink":  # one-sided; a single component
        return ["\n".join(_kinked_loop_lines(rng, "klein", horizontal=True))]
    levels = [rat(v, 64) for v in rng.sample(range(5, 59), n_comp)]
    if ambient == "genus2":
        return ["\n".join(_genus2_loop_lines(rng, family, lv)) for lv in levels]
    return [
        "\n".join(_straight_loop_lines(0, family == "horiz", lv)) for lv in levels
    ]


def _general_components(rng, config, n_comp):
    n_squares = 4 if config.ambient == "genus2" else 1
    loops_ok = config.segments[1] >= 3
    blocks = []
    for _ in range(n_comp):
        kind = rng.choice(["polygon", "loop", "loop"]) if loops_ok else "polygon"
        if kind == "polygon":
            k = rng.randint(*config.segments)
            blocks.append("\n".join(_polygon_lines(rng, rng.randrange(n_squares), k)))
        elif config.ambient == "genus2":
            style = rng.choice(["transit", "stack", "vert1", "vert2", "horiz3"])
            blocks.append("\n".join(_genus2_loop_lines(rng, style, _q64(rng))))
        else:
            blocks.append(
                "\n".join(
                    _kinked_loop_lines(rng, config.ambient, rng.random() < 0.5)
                )
            )
    return blocks


def _curve_scene_text(rng, config):
    n_comp = rng.randint(*config.components)
    if config.embedded_only:
        comps = _embedded_components(rng, config.ambient, n_comp)
    else:
        comps = _general_components(rng, config, n_comp)
    blocks = [_SURFACE_BLOCKS[config.ambient]]
    blocks.extend("curve c on S\n" + b for b in comps)
    blocks.append("verify c")
    return "\n\n".join(blocks) + "\n"


# --- 3-torus sheet catalog ---------------------------------------------------

_SHEARS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1))


def _sheet_triangles(rng):
    axis = rng.randrange(3)
    level = rat(rng.randint(1, 31), 32)
    offset = rat(rng.randint(-16, 16), 64)
    if rng.random() < 0.4:
        s1, s2 = rng.choice(_SHEARS)
        spans = [i for i in range(3) if i != axis]
        u, v, p0 = [0, 0, 0], [0, 0, 0], [0, 0, 0]
        u[spans[0]], u[axis] = 1, s1
        v[spans[1]], v[axis] = 1, s2
        p0[axis] = level
        p0[spans[0]] = offset
        p0[spans[1]] = rat(rng.randint(-16, 16), 64)
        return parallelogram_torus(tuple(p0), tuple(u), tuple(v))
    return coordinate_torus(axis, level, offset)


def _tori_scene_text(rng, config):
    n_sheets = rng.randint(*config.components)
    triangles = []
    for _ in range(n_sheets):
        triangles.extend(_sheet_triangles(rng))
    tri_lines = [
        "tri " + " ".join(_fmt(c) for p in tri for c in p) for tri in triangles
    ]
    blocks = ["immersion3 f\n" + "\n".join(tri_lines)]
    cycle_names = []
    if config.with_cycle:
        a, b = _q64(rng, 2, 8), _q64(rng, 2, 8)
        d1, d2 = rat(rng.randint(2, 6), 64), rat(rng.randint(2, 6), 64)
        marks = [
            f"mpt t0 {_fmt(a)} {_fmt(b)}",
            f"mpt t0 {_fmt(a + d1)} {_fmt(b)}",
            f"mpt t0 {_fmt(a)} {_fmt(b + d2)}",
        ]
        blocks.append("cycle g on f\n" + "\n".join(marks))
        cycle_names.append("g")
    blocks.append(" ".join(["verify", "f"] + cycle_names))
    return "\n\n".join(blocks) + "\n"


# --- driver ------------------------------------------------------------------

_REJECTIONS = (CurveBuildError, MeshBuildError, CycleError, GeneralPositionError)


def _accept(scene, config):
    for name in scene.curves:
        cert = require_general_position(scene.multicurve(name))
        if config.embedded_only and cert.double_points:
            raise GeneralPositionError(cert, "candidate is not embedded")
    for name in scene.immersions:
        mesh = scene.mesh(name)
        require_general_position(mesh)
        for cyc_name, decl in scene.cycles.items():
            if decl.immersion != name:
                continue
            cycle = scene.mesh_cycle(cyc_name, mesh)
            herbert_rhs_r1_cycle_parts(mesh, cycle)  # cycle must be generic too


def generate(config):
    """A certified random scene; a pure function of the config."""
    rng = random.Random(config.seed)
    last_error = None
    for _ in range(config.retry_budget):
        try:
            if config.universe == "curves":
                text = _curve_scene_text(rng, config)
            else:
                text = _tori_scene_text(rng, config)
            scene = parse_scene(text)
            _accept(scene, config)
            return scene
        except _REJECTIONS as exc:
            last_error = str(exc)  # not exc, whose traceback holds this frame
    raise GenerationError(
        f"generation retry budget exhausted ({config.retry_budget} candidates); "
        f"last failure: {last_error}"
    )


__all__ = [
    "CURVE_AMBIENTS",
    "GenerationError",
    "GeneratorConfig",
    "TORI_AMBIENT",
    "generate",
]
