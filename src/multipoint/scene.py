"""Line-oriented scene files: parsing, printing, and object building.

A scene file declares square-tiled surfaces, multicurves drawn on them,
triangulated immersions into the 3-torus, cycles on those meshes, and
verification requests.  One directive per line, tokens whitespace
separated, ``#`` starts a comment, rationals written ``p`` or ``p/q``.
Every referenced name must be defined on an earlier line.

    surface <name>
    squares <k>
    glue s<i>.<E|W|N|S> s<j>.<E|W|N|S> <same|flip>
    curve <name> on <surface>
    pt s<i> <x> <y>
    immersion3 <name>
    tri <9 rationals>
    cycle <name> on <immersion3>
    mpt t<i> <a> <b>
    verify <name> [cycles...]

A repeated ``curve`` stanza with the same name and surface appends a new
component to that multicurve.
"""

from dataclasses import dataclass, field

from .curves2d import MultiCurve
from .exactgeom import InputError
from .rational import format_rational, parse_rational
from .surface2d import EDGE_NAMES, SquareComplex
from .surfaces3d import Mesh3, MeshCycle


class SceneParseError(InputError):
    """A scene file failed to parse; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass
class SurfaceDecl:
    name: str
    num_squares: int = 0
    gluings: tuple = ()


@dataclass
class CurveDecl:
    name: str
    surface: str
    components: tuple = ()  # tuples of (square, (x, y)) marks


@dataclass
class ImmersionDecl:
    name: str
    triangles: tuple = ()


@dataclass
class CycleDecl:
    name: str
    immersion: str
    marks: tuple = ()  # (triangle, a, b) barycentric-edge marks


@dataclass
class VerifyDecl:
    name: str
    cycles: tuple = ()


@dataclass
class Scene:
    """A parsed scene file: declarations in order plus name lookups."""

    order: tuple = ()
    surfaces: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    immersions: dict = field(default_factory=dict)
    cycles: dict = field(default_factory=dict)
    verifies: tuple = ()
    # multicurves and meshes by name, built on first request: every caller
    # gets the one object, so its certificate is computed once
    _built: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other):
        return isinstance(other, Scene) and self.order == other.order

    # -- builders ------------------------------------------------------

    def complex(self, name):
        decl = self.surfaces[name]
        return SquareComplex(
            decl.num_squares,
            [(sa, ea, sb, eb, flip) for sa, ea, sb, eb, flip in decl.gluings],
        )

    def multicurve(self, name):
        decl = self.curves[name]
        if name not in self._built:
            self._built[name] = MultiCurve.build(
                self.complex(decl.surface), [list(c) for c in decl.components]
            )
        return self._built[name]

    def mesh(self, name):
        decl = self.immersions[name]
        if name not in self._built:
            self._built[name] = Mesh3(list(decl.triangles))
        return self._built[name]

    def mesh_cycle(self, name, mesh):
        return MeshCycle(mesh, list(self.cycles[name].marks))


def _rational(tok, line):
    try:
        return parse_rational(tok)
    except ValueError as exc:
        raise SceneParseError(line, str(exc)) from None


def _square_token(tok, line, prefix="s"):
    if not tok.startswith(prefix) or not tok[len(prefix):].isdecimal():
        raise SceneParseError(line, f"expected {prefix}<index>, got {tok!r}")
    return int(tok[len(prefix):])


def _edge_token(tok, line):
    sq, dot, edge = tok.partition(".")
    if not dot or edge not in EDGE_NAMES:
        raise SceneParseError(
            line, f"expected s<i>.<E|W|N|S>, got {tok!r}"
        )
    return _square_token(sq, line), edge


def parse_scene(text):
    """Parse a scene file, raising :class:`SceneParseError` on first error."""
    scene = Scene()
    order = []
    taken = set()  # names across curve/immersion/cycle namespaces
    current = None  # the declaration open for continuation directives

    def register(name, line):
        if name in taken:
            raise SceneParseError(line, f"duplicate name {name!r}")
        taken.add(name)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        head, args = tokens[0], tokens[1:]

        if head == "surface":
            if len(args) != 1:
                raise SceneParseError(line_no, "surface takes exactly a name")
            register(args[0], line_no)
            current = SurfaceDecl(args[0])
            scene.surfaces[args[0]] = current
            order.append(current)
        elif head == "squares":
            if not isinstance(current, SurfaceDecl):
                raise SceneParseError(line_no, "squares outside a surface stanza")
            if current.num_squares:
                raise SceneParseError(line_no, "squares already declared")
            if len(args) != 1 or not args[0].isdecimal() or int(args[0]) < 1:
                raise SceneParseError(line_no, "squares needs a positive count")
            current.num_squares = int(args[0])
        elif head == "glue":
            if not isinstance(current, SurfaceDecl):
                raise SceneParseError(line_no, "glue outside a surface stanza")
            if not current.num_squares:
                raise SceneParseError(line_no, "glue before squares")
            if len(args) != 3 or args[2] not in ("same", "flip"):
                raise SceneParseError(
                    line_no, "glue takes two edge slots and same|flip"
                )
            sa, ea = _edge_token(args[0], line_no)
            sb, eb = _edge_token(args[1], line_no)
            for sq in (sa, sb):
                if sq >= current.num_squares:
                    raise SceneParseError(
                        line_no, f"square index {sq} out of range"
                    )
            current.gluings += ((sa, ea, sb, eb, args[2] == "flip"),)
        elif head == "curve":
            if len(args) != 3 or args[1] != "on":
                raise SceneParseError(line_no, "usage: curve <name> on <surface>")
            name, surf = args[0], args[2]
            if surf not in scene.surfaces:
                raise SceneParseError(line_no, f"unknown surface {surf!r}")
            if name in scene.curves:
                decl = scene.curves[name]
                if decl.surface != surf:
                    raise SceneParseError(
                        line_no, f"curve {name!r} already lives on {decl.surface!r}"
                    )
            else:
                register(name, line_no)
                decl = CurveDecl(name, surf)
                scene.curves[name] = decl
            decl.components += ((),)
            current = decl
            order.append(("curve-stanza", decl, len(decl.components) - 1))
        elif head == "pt":
            if not (isinstance(current, CurveDecl) and current.components):
                raise SceneParseError(line_no, "pt outside a curve stanza")
            if len(args) != 3:
                raise SceneParseError(line_no, "usage: pt s<i> <x> <y>")
            sq = _square_token(args[0], line_no)
            surf = scene.surfaces[current.surface]
            if sq >= surf.num_squares:
                raise SceneParseError(line_no, f"square index {sq} out of range")
            x = _rational(args[1], line_no)
            y = _rational(args[2], line_no)
            comps = list(current.components)
            comps[-1] = comps[-1] + ((sq, (x, y)),)
            current.components = tuple(comps)
        elif head == "immersion3":
            if len(args) != 1:
                raise SceneParseError(line_no, "immersion3 takes exactly a name")
            register(args[0], line_no)
            current = ImmersionDecl(args[0])
            scene.immersions[args[0]] = current
            order.append(current)
        elif head == "tri":
            if not isinstance(current, ImmersionDecl):
                raise SceneParseError(line_no, "tri outside an immersion3 stanza")
            if len(args) != 9:
                raise SceneParseError(line_no, "tri takes 9 rationals")
            vals = [_rational(tok, line_no) for tok in args]
            current.triangles += (
                (tuple(vals[0:3]), tuple(vals[3:6]), tuple(vals[6:9])),
            )
        elif head == "cycle":
            if len(args) != 3 or args[1] != "on":
                raise SceneParseError(
                    line_no, "usage: cycle <name> on <immersion3>"
                )
            name, imm = args[0], args[2]
            if imm not in scene.immersions:
                raise SceneParseError(line_no, f"unknown immersion {imm!r}")
            register(name, line_no)
            current = CycleDecl(name, imm)
            scene.cycles[name] = current
            order.append(current)
        elif head == "mpt":
            if not isinstance(current, CycleDecl):
                raise SceneParseError(line_no, "mpt outside a cycle stanza")
            if len(args) != 3:
                raise SceneParseError(line_no, "usage: mpt t<i> <a> <b>")
            tri = _square_token(args[0], line_no, prefix="t")
            n_tris = len(scene.immersions[current.immersion].triangles)
            if tri >= n_tris:
                raise SceneParseError(line_no, f"triangle index {tri} out of range")
            a = _rational(args[1], line_no)
            b = _rational(args[2], line_no)
            current.marks += ((tri, a, b),)
        elif head == "verify":
            if not args:
                raise SceneParseError(line_no, "verify takes a scene name")
            name, cycs = args[0], tuple(args[1:])
            if name in scene.curves:
                if cycs:
                    raise SceneParseError(
                        line_no, "cycle targets apply to immersion3 scenes only"
                    )
            elif name in scene.immersions:
                for c in cycs:
                    if c not in scene.cycles:
                        raise SceneParseError(line_no, f"unknown cycle {c!r}")
                    if scene.cycles[c].immersion != name:
                        raise SceneParseError(
                            line_no, f"cycle {c!r} lives on another immersion"
                        )
            else:
                raise SceneParseError(line_no, f"unknown scene {name!r}")
            decl = VerifyDecl(name, cycs)
            scene.verifies += (decl,)
            order.append(decl)
            current = None
        else:
            raise SceneParseError(line_no, f"unknown directive {head!r}")

    scene.order = tuple(_freeze(entry) for entry in order)
    return scene


def _freeze(entry):
    if isinstance(entry, SurfaceDecl):
        return ("surface", entry.name, entry.num_squares, entry.gluings)
    if isinstance(entry, tuple) and entry[0] == "curve-stanza":
        decl, idx = entry[1], entry[2]
        return ("curve", decl.name, decl.surface, decl.components[idx])
    if isinstance(entry, ImmersionDecl):
        return ("immersion3", entry.name, entry.triangles)
    if isinstance(entry, CycleDecl):
        return ("cycle", entry.name, entry.immersion, entry.marks)
    if isinstance(entry, VerifyDecl):
        return ("verify", entry.name, entry.cycles)
    raise TypeError(entry)


def print_scene(scene):
    """Render a scene back to its canonical text form."""
    blocks = []
    for entry in scene.order:
        kind = entry[0]
        lines = []
        if kind == "surface":
            _, name, k, gluings = entry
            lines.append(f"surface {name}")
            lines.append(f"squares {k}")
            for sa, ea, sb, eb, flip in gluings:
                word = "flip" if flip else "same"
                lines.append(f"glue s{sa}.{ea} s{sb}.{eb} {word}")
        elif kind == "curve":
            _, name, surf, marks = entry
            lines.append(f"curve {name} on {surf}")
            for sq, (x, y) in marks:
                lines.append(
                    f"pt s{sq} {format_rational(x)} {format_rational(y)}"
                )
        elif kind == "immersion3":
            _, name, triangles = entry
            lines.append(f"immersion3 {name}")
            for tri in triangles:
                flat = " ".join(
                    format_rational(c) for p in tri for c in p
                )
                lines.append(f"tri {flat}")
        elif kind == "cycle":
            _, name, imm, marks = entry
            lines.append(f"cycle {name} on {imm}")
            for tri, a, b in marks:
                lines.append(
                    f"mpt t{tri} {format_rational(a)} {format_rational(b)}"
                )
        elif kind == "verify":
            _, name, cycs = entry
            lines.append(" ".join(("verify", name) + cycs))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


__all__ = [
    "CurveDecl",
    "CycleDecl",
    "ImmersionDecl",
    "Scene",
    "SceneParseError",
    "SurfaceDecl",
    "VerifyDecl",
    "parse_scene",
    "print_scene",
]
