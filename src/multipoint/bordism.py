"""Represented intersection classes and the multiple-point operations.

A :class:`RepresentedClass` is a concrete immersion together with its
normal-transport data, tagged by the universe it lives in.  Classes are
never quotiented: disjoint union, internal products, pullbacks, and the
multiple-point operations ``psi_r`` / ``mu_r`` all act on certified
representatives, and the algebraic laws relating them (naturality, the
Cartan formula, the mu-tower) are checked as exact equalities of point and
curve sets.
"""

from dataclasses import dataclass
from itertools import zip_longest

from .curves2d import DoublePoint, MultiCurve, double_points
from .exactgeom import (
    InputError,
    bbox,
    common_denominator,
    frac_vec,
    lattice_translates,
    require_general_position,
    seg_intersect,
    segments_touch,
    strict_crossing,
    vadd,
    vlift,
)
from .rational import rat
from .surfaces3d import Mesh3, mesh_segment_hits

# universe tags
CURVES_IN_SURFACE = "curves-in-surface"
POINTS_IN_SURFACE = "points-in-surface"
SURFACES_IN_3TORUS = "surfaces-in-3-torus"
CURVES_IN_3TORUS = "curves-in-3-torus"
POINTS_IN_3TORUS = "points-in-3-torus"
POINTS_ON_SOURCE_CIRCLES = "points-on-source-circles"
CURVES_ON_SOURCE_MESH = "curves-on-source-mesh"
POINTS_ON_SOURCE_MESH = "points-on-source-mesh"
IDENTITY_UNIVERSE = "identity"
EMPTY_UNIVERSE = "empty"

AMBIENT_T3 = "T3"

GENERICALLY_EMPTY = "generically-empty-guaranteed"

# (class dimension, ambient dimension) per geometric universe
_DIMS = {
    CURVES_IN_SURFACE: (1, 2),
    POINTS_IN_SURFACE: (0, 2),
    SURFACES_IN_3TORUS: (2, 3),
    CURVES_IN_3TORUS: (1, 3),
    POINTS_IN_3TORUS: (0, 3),
}


class TransversalityError(InputError):
    """Two representatives are not in general position with each other."""


@dataclass(frozen=True, eq=False)
class RepresentedClass:
    """A bordism class held as a concrete certified representative.

    ``payload`` is the geometric data (a :class:`MultiCurve`, a
    :class:`Mesh3`, or a sorted tuple of point or circle items),
    ``structure`` the normal-transport bits carried along with it (one
    entry per curve component, or one per item of a point or circle class
    that carries bits), and ``note`` an optional annotation (set when an
    operation is guaranteed empty by genericity rather than computed).
    """

    universe: str
    ambient: object
    payload: object
    structure: tuple = ()
    note: str = ""

    @property
    def is_empty(self):
        if self.universe == EMPTY_UNIVERSE:
            return True
        if self.universe == IDENTITY_UNIVERSE:
            return False
        p = self.payload
        if isinstance(p, MultiCurve):
            return len(p.components) == 0
        if isinstance(p, Mesh3):
            return False
        return len(p) == 0

    def __repr__(self):
        if self.universe == EMPTY_UNIVERSE:
            return "RepresentedClass(empty)"
        size = ""
        p = self.payload
        if isinstance(p, MultiCurve):
            size = f", {len(p.components)} components"
        elif isinstance(p, Mesh3):
            size = f", {len(p.triangles)} triangles"
        elif isinstance(p, tuple):
            size = f", {len(p)} items"
        return f"RepresentedClass({self.universe}{size})"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one algebraic-law check on concrete representatives."""

    check: str
    ok: bool
    lhs: tuple
    rhs: tuple
    detail: str = ""


# ---------------------------------------------------------------------------
# constructors


# the point classes whose items carry no normal-transport bits
_BITLESS = {POINTS_IN_3TORUS, POINTS_ON_SOURCE_MESH}


def _record_class(universe, ambient, records):
    """The point or circle class of ``(key, item, bits)`` records.

    The records are sorted by key, and each item keeps its own bits: the
    payload holds the items and the structure their bits, in one order.
    A curve double point's key is its position in its curve's certificate,
    whose order is the items' order (see ``_point_records``); every other
    record's key is its item.  A class in ``_BITLESS`` takes
    ``(key, item, None)`` records and keeps no structure.
    """
    records = sorted(records, key=lambda record: record[0])
    # lists first, as in exactgeom.common_denominator: a tuple built from a
    # generator is resized to its length
    structure = () if universe in _BITLESS else tuple([bits for _, _, bits in records])
    return RepresentedClass(
        universe, ambient, tuple([item for _, item, _ in records]), structure
    )


def class_of_curve(curve):
    """Wrap a certified multicurve on a square complex."""
    require_general_position(curve)
    structure = tuple(c.two_sidedness() for c in curve.components)
    return RepresentedClass(CURVES_IN_SURFACE, curve.complex, curve, structure)


def class_of_mesh(mesh):
    """Wrap a certified closed triangulated surface in the 3-torus."""
    require_general_position(mesh)
    return RepresentedClass(SURFACES_IN_3TORUS, AMBIENT_T3, mesh)


def empty_class(ambient=None, note=""):
    return RepresentedClass(EMPTY_UNIVERSE, ambient, (), (), note)


def identity_class(ambient=None):
    """The unit of the internal product (the identity immersion's class)."""
    return RepresentedClass(IDENTITY_UNIVERSE, ambient, ())


# ---------------------------------------------------------------------------
# contact of closed polylines in the 3-torus


def _circle_segments_disjoint(circ_a, circ_b):
    """Whether two canonical circles in the 3-torus avoid each other."""
    for (p, q) in circ_a:
        pbox = bbox((p, q))
        for (r, s) in circ_b:
            for v in lattice_translates(*pbox, *bbox((r, s)), 1):
                if segments_touch((p, q), (vadd(r, v), vadd(s, v))):
                    return False
    return True


# ---------------------------------------------------------------------------
# monoid structure


def _require_compatible(a, b):
    if a.universe != b.universe:
        raise ValueError(
            f"cannot combine universes {a.universe!r} and {b.universe!r}"
        )
    if a.ambient != b.ambient:
        raise ValueError("classes live over different ambients")


def add(a, b):
    """Disjoint union of representatives (the monoid sum of classes)."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    _require_compatible(a, b)
    if a.universe == CURVES_IN_SURFACE:
        return class_of_curve(a.payload.union(b.payload))
    if a.universe == SURFACES_IN_3TORUS:
        return class_of_mesh(a.payload.union(b.payload))
    if a.universe in (
        POINTS_IN_SURFACE,
        POINTS_IN_3TORUS,
        POINTS_ON_SOURCE_CIRCLES,
        POINTS_ON_SOURCE_MESH,
    ):
        merged = a.payload + b.payload
        if len(set(merged)) != len(merged):
            raise TransversalityError("point sets are not disjoint")
    elif a.universe == CURVES_IN_3TORUS:
        for ca in a.payload:
            for cb in b.payload:
                if not _circle_segments_disjoint(ca[0], cb[0]):
                    raise TransversalityError("circles in the 3-torus touch")
    else:
        raise ValueError(f"add not defined on universe {a.universe!r}")
    # the items of a class in _BITLESS have no structure and pair with None
    records = zip_longest(a.payload + b.payload, a.structure + b.structure)
    return _record_class(
        a.universe, a.ambient, [(item, item, bits) for item, bits in records]
    )


# ---------------------------------------------------------------------------
# r-fold points and their split between the parts of a union

# (universe, r) whose r-fold points a representative carries: the double
# points of curves, and the double circles and triple points of surfaces;
# each maps to the universes of psi_r, the points themselves, and of mu_r,
# the points with one sheet marked
_R_FOLD = {
    (CURVES_IN_SURFACE, 2): (POINTS_IN_SURFACE, POINTS_ON_SOURCE_CIRCLES),
    (SURFACES_IN_3TORUS, 2): (CURVES_IN_3TORUS, CURVES_ON_SOURCE_MESH),
    (SURFACES_IN_3TORUS, 3): (POINTS_IN_3TORUS, POINTS_ON_SOURCE_MESH),
}

# the pairs whose product and pullback are read off the double points of
# their union
_UNION_PAIRS = (
    (CURVES_IN_SURFACE, CURVES_IN_SURFACE),
    (SURFACES_IN_3TORUS, SURFACES_IN_3TORUS),
)


def _sheets(point, r):
    """The data of an r-fold point's sheets, in the order of its sources:
    a curve double point's branches ``(component, segment, t)``, the
    preimage circles of a double circle (a circle that covers it twice is
    both of its sheets), or the source points ``(triangle, point)`` of a
    triple point."""
    if isinstance(point, DoublePoint):
        return point.branches
    if r == 2:
        return point.preimages * (2 // len(point.preimages))
    return point.preimages


def _r_fold_points(payload, r):
    """Each r-fold point of a certified payload as ``(position, point,
    sources)``: its position in this list, and the sources (components or
    triangles) of its r sheets, as ints in the order of :func:`_sheets`.

    A curve's double points come in its certificate's order, by square,
    then x, then y, and their sources are read without building their
    branches.
    """
    if isinstance(payload, MultiCurve):
        points = [(dp, dp.components) for dp in double_points(payload)]
    elif r == 2:
        points = [
            (dc, tuple(pc.arcs[0][0] for pc in _sheets(dc, 2)))
            for dc in payload.double_curves()
        ]
    else:
        points = [
            (tp, tuple(pre[0] for pre in tp.preimages))
            for tp in payload.triple_points().points
        ]
    return [(i, point, sources) for i, (point, sources) in enumerate(points)]


def _part_size(cls):
    """The number of sources (components or triangles) of a class."""
    if isinstance(cls.payload, MultiCurve):
        return len(cls.payload.components)
    return len(cls.payload.triangles)


def _by_part(points, n_first, r):
    """The ``_r_fold_points`` entries of a union keyed by k, the number of
    their sheets on the first part (the sources numbered below
    ``n_first``).  Every k from 0 to r is a key, and each list keeps the
    union's order."""
    parts = {k: [] for k in range(r + 1)}
    for entry in points:
        parts[sum(source < n_first for source in entry[2])].append(entry)
    return parts


def _on_parts(point, sources, r, n_first):
    """The data of a point's sheets on the first part and on the second."""
    sheets = tuple(zip(sources, _sheets(point, r)))
    return (
        tuple(data for source, data in sheets if source < n_first),
        tuple(data for source, data in sheets if source >= n_first),
    )


def _point_records(cls, r, entries, bits):
    """The ``_record_class`` records of r-fold points, in entry order.

    ``entries`` are ``_r_fold_points`` entries of a payload whose sources
    include those of ``cls``; ``bits`` holds one structure bit per
    component of that payload.  A curve double point is recorded as
    ``(square, point)`` with the sorted bits of its two components, and
    keyed by its position, a double circle as ``(canonical, h1)`` with the
    sorted w1 of its preimage circles, and a triple point as its target,
    with no structure.
    """
    if cls.universe == CURVES_IN_SURFACE:
        return [
            (i, (dp.square, dp.point), tuple(sorted([bits[c] for c in dp.components])))
            for i, dp, _ in entries
        ]
    if r == 2:
        records = []
        for _, dc, _ in entries:
            item = (tuple(sorted(dc.canonical)), dc.h1)
            records.append((item, item, tuple(sorted(pc.w1 for pc in dc.preimages))))
        return records
    return [(tp.target, tp.target, None) for _, tp, _ in entries]


def _point_class(cls, r, entries, bits):
    """The class of ``psi_r``'s records of r-fold points (see
    :func:`_point_records`)."""
    universe = _R_FOLD[(cls.universe, r)][0]
    return _record_class(universe, cls.ambient, _point_records(cls, r, entries, bits))


# ---------------------------------------------------------------------------
# internal product


def _circle_hits(circles, mesh_cls):
    """The ``(triangle, point)`` hits of circles in the 3-torus on a mesh."""
    segs = [seg for (canonical, _) in circles.payload for seg in canonical]
    return mesh_segment_hits(mesh_cls.payload, segs)


def _product_circles_mesh(circles, mesh_cls):
    points = {frac_vec(point) for _, point in _circle_hits(circles, mesh_cls)}
    return _record_class(POINTS_IN_3TORUS, AMBIENT_T3, [(p, p, None) for p in points])


def internal_product(a, b):
    """Transverse intersection of two classes over the same ambient."""
    if a.universe == IDENTITY_UNIVERSE:
        return b
    if b.universe == IDENTITY_UNIVERSE:
        return a
    if a.is_empty or b.is_empty:
        return empty_class(a.ambient if not a.is_empty else b.ambient)
    _dims_a = _DIMS.get(a.universe)
    _dims_b = _DIMS.get(b.universe)
    if _dims_a is None or _dims_b is None:
        raise ValueError(
            f"internal product undefined on {a.universe!r} x {b.universe!r}"
        )
    if _dims_a[1] != _dims_b[1]:
        raise ValueError("classes live in ambients of different dimension")
    if a.ambient != b.ambient:
        raise ValueError("classes live over different ambients")
    if _dims_a[0] + _dims_b[0] - _dims_a[1] < 0:
        return empty_class(a.ambient, note=GENERICALLY_EMPTY)
    pair = (a.universe, b.universe)
    if pair in _UNION_PAIRS:
        # the double points of a ⊔ b with one sheet on each part
        union = a.payload.union(b.payload)
        mixed = _by_part(_r_fold_points(union, 2), _part_size(a), 2)[1]
        return _point_class(a, 2, mixed, a.structure + b.structure)
    if pair == (CURVES_IN_3TORUS, SURFACES_IN_3TORUS):
        return _product_circles_mesh(a, b)
    if pair == (SURFACES_IN_3TORUS, CURVES_IN_3TORUS):
        return _product_circles_mesh(b, a)
    raise ValueError(
        f"internal product undefined on {a.universe!r} x {b.universe!r}"
    )


# ---------------------------------------------------------------------------
# pullback along a transverse map


def pullback_class(g, f):
    """The fiber product of f along g, immersed in g's source."""
    if f.universe == IDENTITY_UNIVERSE or g.universe == IDENTITY_UNIVERSE:
        raise ValueError("pullback needs two geometric representatives")
    if f.is_empty:
        return empty_class(g.payload)
    if g.is_empty:
        raise ValueError("cannot pull back along the empty class")
    pair = (g.universe, f.universe)
    if pair in _UNION_PAIRS:
        if g.ambient != f.ambient:
            raise ValueError("classes live over different ambients")
        union = g.payload.union(f.payload)
        require_general_position(union)
        # each double point of g ⊔ f with one sheet on each part gives the
        # point of g's sheet, carrying the structure of f's sheet
        n_g = _part_size(g)
        mixed = _by_part(_r_fold_points(union, 2), n_g, 2)[1]
        sheets = [_on_parts(point, sources, 2, n_g) for _, point, sources in mixed]
        if g.universe == CURVES_IN_SURFACE:
            bits = g.structure + f.structure
            records = [(on_g, on_g, bits[on_f[0]]) for (on_g,), (on_f,) in sheets]
            return _record_class(POINTS_ON_SOURCE_CIRCLES, g.payload, records)
        records = []
        for (on_g,), (on_f,) in sheets:
            item = (on_g.arcs, on_g.w1)
            records.append((item, item, on_f.w1))
        return _record_class(CURVES_ON_SOURCE_MESH, g.payload, records)
    if pair == (SURFACES_IN_3TORUS, CURVES_IN_3TORUS):
        hits = set(_circle_hits(f, g))
        return _record_class(
            POINTS_ON_SOURCE_MESH, g.payload, [(hit, hit, None) for hit in hits]
        )
    raise ValueError(f"pullback undefined on {pair!r}")


# ---------------------------------------------------------------------------
# the multiple-point operations


def psi_r(f, r):
    """The r-fold self-intersection class of f, in f's ambient."""
    if r < 0:
        raise ValueError("psi_r needs r >= 0")
    if r == 0:
        return identity_class(f.ambient)
    if r == 1:
        return f
    if f.is_empty or f.universe == IDENTITY_UNIVERSE:
        return empty_class(f.ambient, note=GENERICALLY_EMPTY)
    if (f.universe, r) in _R_FOLD:
        return _point_class(f, r, _r_fold_points(f.payload, r), f.structure)
    # 0- and 1-dimensional classes in a higher-dimensional ambient never
    # self-intersect generically, and no r-fold point of a curve in a
    # surface or of a surface in the 3-torus has r above 2 or 3
    return empty_class(f.ambient, note=GENERICALLY_EMPTY)


def mu_r(f, r):
    """The r-fold class with a distinguished preimage, in f's source.

    Each sheet of an r-fold point is one record: a curve double point's
    branch ``(component, segment, t)`` with its component's bit, a preimage
    circle as ``(arcs, w1, doubled)`` with its w1, or a triple point's
    source point ``(triangle, point)``.  A preimage circle that covers its
    double circle twice is both sheets, one cached object listed twice,
    and gives one record: sheets are told apart by identity, since no two
    sheets of a certified payload are equal.
    """
    if r < 2:
        raise ValueError("mu_r needs r >= 2")
    if f.is_empty:
        return empty_class(None)
    universes = _R_FOLD.get((f.universe, r))
    if universes is None:
        return empty_class(f.payload, note=GENERICALLY_EMPTY)
    universe = universes[1]
    records = {}
    for _, point, sources in _r_fold_points(f.payload, r):
        for source, data in zip(sources, _sheets(point, r)):
            if universe == POINTS_ON_SOURCE_CIRCLES:
                records[id(data)] = (data, data, f.structure[source])
            elif universe == CURVES_ON_SOURCE_MESH:
                item = (data.arcs, data.w1, data.doubled)
                records[id(data)] = (item, item, data.w1)
            else:
                records[id(data)] = (data, data, None)
    return _record_class(universe, f.payload, records.values())


# ---------------------------------------------------------------------------
# law checks


def check_naturality(g, f):
    """Pulling back the double-point class commutes with pulling back f.

    Both sides are computed as exact point sets on g's source: the hits of
    f's double circles on g, against the double points of the fiber
    product of f along g.
    """
    if (g.universe, f.universe) != (SURFACES_IN_3TORUS, SURFACES_IN_3TORUS):
        raise ValueError("naturality check runs on two surfaces in the 3-torus")
    union = g.payload.union(f.payload)
    require_general_position(union)

    segs = [(s.p, s.q) for s in f.payload.double_segments()]
    lhs = sorted(set(mesh_segment_hits(g.payload, segs)))

    # triple points of g ⊔ f with one sheet on g, read on that sheet
    n_g = _part_size(g)
    mixed = _by_part(_r_fold_points(union, 3), n_g, 3)[1]
    rhs = sorted({_on_parts(point, sources, 3, n_g)[0][0] for _, point, sources in mixed})

    ok = lhs == rhs
    return CheckReport(
        "naturality",
        ok,
        tuple(lhs),
        tuple(rhs),
        f"{len(lhs)} pullback points of the double locus",
    )


# The r-fold points of f ⊔ g split by k, the number of their sheets on f.
# Per r, in report order: each k, its label, and the class its piece must
# equal.  The r = 2 piece f.g has no entry there: the product of f and g is
# read off this same union, so that piece is the product by definition.
_CARTAN_PIECES = {
    2: (
        (2, "psi2(f)", lambda f, g: psi_r(f, 2)),
        (0, "psi2(g)", lambda f, g: psi_r(g, 2)),
        (1, "f.g", None),
    ),
    3: (
        (3, "psi3(f)", lambda f, g: psi_r(f, 3)),
        (2, "psi2(f).g", lambda f, g: internal_product(psi_r(f, 2), g)),
        (1, "f.psi2(g)", lambda f, g: internal_product(f, psi_r(g, 2))),
        (0, "psi3(g)", lambda f, g: psi_r(g, 3)),
    ),
}


def check_cartan(f, g, r):
    """The r-fold points of a disjoint union split into indexed pieces."""
    if f.universe != g.universe:
        raise ValueError("Cartan check needs classes in one universe")
    if f.universe == CURVES_IN_SURFACE and r != 2:
        raise ValueError("curves in a surface support r = 2 only")
    if f.universe == SURFACES_IN_3TORUS and r not in (2, 3):
        raise ValueError("surfaces in the 3-torus support r = 2 and r = 3")
    if (f.universe, r) not in _R_FOLD:
        raise ValueError(f"Cartan check undefined on universe {f.universe!r}")
    union = f.payload.union(g.payload)
    require_general_position(union)
    bits = f.structure + g.structure
    points = _r_fold_points(union, r)
    parts = _by_part(points, _part_size(f), r)
    by_position = _point_records(f, r, points, bits)
    records = {k: _point_records(f, r, entries, bits) for k, entries in parts.items()}
    # the pieces fill each position of the union's list exactly once, each
    # with the whole's item at that position
    positions = [i for entries in parts.values() for i, _, _ in entries]
    items = [item for piece in records.values() for _, item, _ in piece]
    reunion = sorted(positions) == list(range(len(points))) and all(
        item == by_position[i][1] for i, item in zip(positions, items)
    )
    universe = _R_FOLD[(f.universe, r)][0]
    pieces = {k: _record_class(universe, f.ambient, rs).payload for k, rs in records.items()}
    whole = _record_class(universe, f.ambient, by_position).payload
    table = _CARTAN_PIECES[r]
    expected = {k: law(f, g).payload for k, _, law in table if law is not None}
    ok = reunion and all(pieces[k] == expected[k] for k in expected)
    return CheckReport(
        "cartan",
        ok,
        whole,
        tuple((label, pieces[k]) for k, label, _ in table),
        f"r={r} split " + "+".join(str(len(pieces[k])) for k, _, _ in table),
    )


def _arc_crossings_on_source(mesh, records):
    """Strict pairwise crossings of preimage arcs, grouped by source chart.

    ``records`` are ``(arcs, w1, doubled)`` circle payloads.  Consecutive
    arcs of one circle share an endpoint by construction and are skipped.
    The arcs hosted by one triangle meet in its chart, lifted to integers
    by the common denominator of their end points, and only a crossing's
    point is built as a rational.  The mesh is certified, and its
    certificate refuses every other non-transverse contact of double arcs,
    so one here is an internal fault and raises ``AssertionError``.
    """
    by_tri = {}
    for ci, (arcs, _, _) in enumerate(records):
        n = len(arcs)
        for ai, (tri, p, q) in enumerate(arcs):
            by_tri.setdefault(tri, []).append((p, q, ci, ai, n))
    crossings = set()
    for tri, here in by_tri.items():
        chart = mesh.chart(tri)
        den = common_denominator(e for p, q, _, _, _ in here for e in (p, q))
        ends = [(vlift(p, den), vlift(q, den)) for p, q, _, _, _ in here]
        flat = [chart.points(pq) for pq in ends]
        for i in range(len(here)):
            _, _, c1, a1, n1 = here[i]
            ends_i = set(ends[i])
            for j in range(i + 1, len(here)):
                _, _, c2, a2, _ = here[j]
                if not ends_i.isdisjoint(ends[j]):
                    if c1 == c2 and (a1 - a2) % n1 in (1, n1 - 1):
                        continue
                    raise AssertionError("preimage arcs touch at an endpoint")
                hit = seg_intersect(flat[i], flat[j])
                if hit is None:
                    continue
                if not strict_crossing(hit):
                    raise AssertionError("preimage arcs meet non-transversally")
                tn, td = hit.tn, hit.den
                a, b = ends[i]
                point = tuple(rat(td * x + tn * (y - x), td * den) for x, y in zip(a, b))
                crossings.add((tri, point))
    return crossings


def check_mu_tower(f):
    """Double points of the source preimage arrangement match mu_3: the
    tower step r = 2, the one represented here."""
    if f.universe != SURFACES_IN_3TORUS:
        raise ValueError("mu-tower check runs on surfaces in the 3-torus")
    mu2 = mu_r(f, 2)
    if mu2.is_empty:
        lhs = ()
    else:
        lhs = tuple(
            sorted(_arc_crossings_on_source(f.payload, mu2.payload))
        )
    rhs = mu_r(f, 3).payload
    return CheckReport(
        "mu-tower", lhs == rhs, lhs, rhs, f"{len(lhs)} arrangement double points"
    )


__all__ = [
    "AMBIENT_T3",
    "CURVES_IN_3TORUS",
    "CURVES_IN_SURFACE",
    "CURVES_ON_SOURCE_MESH",
    "CheckReport",
    "EMPTY_UNIVERSE",
    "GENERICALLY_EMPTY",
    "IDENTITY_UNIVERSE",
    "POINTS_IN_3TORUS",
    "POINTS_IN_SURFACE",
    "POINTS_ON_SOURCE_CIRCLES",
    "POINTS_ON_SOURCE_MESH",
    "RepresentedClass",
    "SURFACES_IN_3TORUS",
    "TransversalityError",
    "add",
    "check_cartan",
    "check_mu_tower",
    "check_naturality",
    "class_of_curve",
    "class_of_mesh",
    "empty_class",
    "identity_class",
    "internal_product",
    "mu_r",
    "psi_r",
    "pullback_class",
]
