"""Immersed multicurves on square complexes.

A component is entered as a cyclic list of points.  A point inside the
closed unit square is a vertex of the polygonal curve in the current
square.  A point strictly outside the square means the segment from the
previous vertex leaves the square: it must cross exactly one glued edge,
and the point's image under the gluing becomes the next vertex, in the
glued square.  A component closes up either with an explicit final wrap
landing on the first vertex, by repeating the first vertex, or with an
implicit straight closing segment.

Vertices are expected strictly inside squares and all crossings must be
generic; `certify` reports every violation by name instead of guessing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .rational import rat, ZERO, ONE, format_point
from .exactgeom import (
    DEGENERATE,
    SQUARE_EDGES,
    ChainLink,
    ChainPiece,
    ClosedChain,
    GeneralPositionError,
    GenericityError,
    InputError,
    PushoffCollision,
    certified_parts,
    collinear_overlap,
    common_denominator,
    dist2_point_seg_parts,
    from_homogeneous,
    lowest_terms,
    pushoff_polyline,
    require_general_position,
    seg_crossing,
    seg_intersect,
    strict_crossing,
    vadd,
    vlift,
    vscale,
    vsub,
)
from .surface2d import SquareComplex


class CurveBuildError(InputError):
    """The raw point list does not describe a curve on this complex."""


@dataclass(frozen=True)
class Crossing:
    """A segment's passage through a glued edge."""

    edge: str
    t: object  # parameter along the segment, in [0, 1)
    exit_point: tuple
    entry_square: int
    entry_point: tuple
    sign: int


@dataclass(frozen=True)
class Piece:
    """Maximal straight run of one segment within a single square."""

    square: int
    p0: tuple
    p1: tuple
    seg: int
    t0: object
    t1: object


@dataclass(frozen=True)
class Component:
    """A closed immersed curve: vertices, per-segment crossings, pieces.

    ``vertices[i]`` is (square, point); segment i runs from vertex i to
    vertex i+1 (mod n); ``crossings[i]`` is the segment's edge crossing or
    None; ``pieces`` lists each segment's one or two chart pieces in order.
    """

    vertices: tuple
    crossings: tuple
    pieces: tuple

    def two_sidedness(self) -> int:
        """1 when a neighborhood of the curve is a Moebius band."""
        bit = 0
        for c in self.crossings:
            if c is not None:
                bit ^= c.sign
        return bit


def _in_closed_square(p) -> bool:
    return 0 <= p[0] <= 1 and 0 <= p[1] <= 1


def _resolve_wrap(cx: SquareComplex, square: int, v, q):
    """First crossing of segment v->q out of the closed unit square."""
    d = vsub(q, v)
    best = None
    for edge, (axis, value) in SQUARE_EDGES.items():
        direction = 1 if value == 1 else -1
        if direction * d[axis] <= 0:
            continue
        t = (value - v[axis]) / d[axis]
        if 0 <= t <= 1 and (best is None or t < best[0]):
            best = (t, edge, axis, value)
    if best is None:
        raise CurveBuildError("segment endpoint is outside its square but never exits")
    t, edge, axis, value = best
    z = vadd(v, vscale(t, d))
    if not (0 < z[1 - axis] < 1):
        raise CurveBuildError(
            f"corner-crossing: segment exits square {square} through a corner"
        )
    other_sq, _, _, transform, sign = cx.glued(square, edge)
    return (
        Crossing(edge, t, z, other_sq, transform.apply(z), sign),
        other_sq,
        transform.apply(q),
    )


def _build_component(cx: SquareComplex, raw) -> Component:
    entries = [(sq, (rat(p[0]), rat(p[1]))) for sq, p in raw]
    if not entries:
        raise CurveBuildError("empty component")
    sq0, p0 = entries[0]
    if not _in_closed_square(p0):
        raise CurveBuildError("first point of a component must lie inside its square")
    vertices = [(sq0, p0)]
    crossings_by_seg = {}
    cur_sq = sq0
    for sq, q in entries[1:]:
        if sq != cur_sq:
            raise CurveBuildError(
                f"point is tagged with square {sq} but the curve is in square {cur_sq}"
            )
        v = vertices[-1][1]
        if _in_closed_square(q):
            vertices.append((cur_sq, q))
            continue
        crossing, new_sq, q_img = _resolve_wrap(cx, cur_sq, v, q)
        if not _in_closed_square(q_img):
            raise CurveBuildError("segment crosses more than one gluing")
        crossings_by_seg[len(vertices) - 1] = crossing
        vertices.append((new_sq, q_img))
        cur_sq = new_sq
    # closure: a final point that reproduces the first vertex is dropped (its
    # segment, wrapped or not, becomes the closing segment); otherwise an
    # implicit straight closing segment is added in the starting square
    if len(vertices) > 1 and vertices[-1] == vertices[0]:
        vertices.pop()
    elif cur_sq != sq0:
        raise CurveBuildError(
            f"component ends in square {cur_sq} but began in square {sq0}"
        )
    n = len(vertices)
    pieces = []
    crossings = []
    for i in range(n):
        sq_i, vi = vertices[i]
        sq_j, vj = vertices[(i + 1) % n]
        crossing = crossings_by_seg.get(i)
        crossings.append(crossing)
        if crossing is None:
            if sq_j != sq_i:
                raise CurveBuildError("segment endpoints lie in different squares")
            pieces.append(Piece(sq_i, vi, vj, i, ZERO, ONE))
        else:
            pieces.append(Piece(sq_i, vi, crossing.exit_point, i, ZERO, crossing.t))
            pieces.append(
                Piece(crossing.entry_square, crossing.entry_point, vj, i, crossing.t, ONE)
            )
    return Component(tuple(vertices), tuple(crossings), tuple(pieces))


@dataclass(frozen=True, eq=False, repr=False)
class DoublePoint:
    """A transverse self-intersection of the multicurve.

    ``key`` is the point in homogeneous lowest terms ``(X, Y, W)``, by
    which certification finds it again, and ``components`` the components
    of its two branches, as ints in ascending order.  The rational
    ``point`` and ``branches``, the two preimage parameters as (component,
    segment, t) triples in ascending order, are built on first read from
    ``origin``: the crossing ``(piece a, tn, piece b, un, den)`` that
    certification found, or the double point of a union's part that this
    one renumbers, whose own ``point`` and ``branches`` it reads.
    """

    square: int
    key: tuple
    components: tuple
    origin: object

    @functools.cached_property
    def point(self):
        if isinstance(self.origin, DoublePoint):
            return self.origin.point
        return from_homogeneous(self.key)

    @functools.cached_property
    def branches(self):
        if isinstance(self.origin, DoublePoint):
            offset = self.components[0] - self.origin.components[0]
            return tuple([(c + offset, s, t) for c, s, t in self.origin.branches])
        # the crossing's pieces are in (component, piece) order, and the
        # pieces of one segment in parameter order, so the branches ascend
        pa, tn, pb, un, den = self.origin
        ca, cb = self.components
        return ((ca, pa.seg, _segment_t(pa, tn, den)), (cb, pb.seg, _segment_t(pb, un, den)))

    def __eq__(self, other):
        if not isinstance(other, DoublePoint):
            return NotImplemented
        return (self.square, self.key, self.branches) == (other.square, other.key, other.branches)

    def __hash__(self):
        return hash((self.square, self.key, self.components))

    def __repr__(self):
        return (
            f"DoublePoint(square={self.square!r}, point={self.point!r}, "
            f"branches={self.branches!r}, key={self.key!r})"
        )


@dataclass(frozen=True)
class GeneralPositionCert2:
    ok: bool
    violations: tuple  # (name, detail) pairs
    double_points: tuple

    @property
    def violation_names(self):
        return sorted({name for name, _ in self.violations})


class MultiCurve:
    """An immersed multicurve on a square complex."""

    def __init__(self, complex_: SquareComplex, components):
        self.complex = complex_
        self.components = tuple(components)
        self._parts = ()
        self._cert = None
        self._lift = None
        self._pushoffs = {}  # epsilon -> pushoff_all(self, epsilon) or its error message

    @classmethod
    def build(cls, complex_: SquareComplex, raw_components):
        report = complex_.validate()
        if not report.ok:
            raise CurveBuildError(f"invalid complex: {report.violations}")
        return cls(complex_, [_build_component(complex_, raw) for raw in raw_components])

    def union(self, other: "MultiCurve") -> "MultiCurve":
        """The disjoint union of this multicurve and ``other``.

        Its lift is its parts' lifts, scaled to the least common multiple
        of their D.  When the union is certified, a part that holds an ok
        certificate gives it the double points of the pairs of pieces
        inside that part; only the pairs of pieces from different parts
        run the predicates.
        """
        if self.complex != other.complex:
            raise ValueError("curves live on different complexes")
        curve = MultiCurve(self.complex, self.components + other.components)
        curve._parts = (self, other)
        return curve

    def pieces_by_square(self):
        table = {}
        for ci, comp in enumerate(self.components):
            for pi, piece in enumerate(comp.pieces):
                table.setdefault(piece.square, []).append((ci, pi, piece))
        return table

    def lift(self):
        """``(D, table, lifts, comp_lifts)``, built once: the pieces by
        square, D the common denominator of their end points, per square
        the integer lifts ``(D * p0, D * p1)`` of its pieces in table
        order, and per component the same lifts in piece order.  A union
        scales its parts' lifts to D, the lcm of their D."""
        if self._lift is None:
            table = self.pieces_by_square()
            if self._parts:
                part_lifts = [part.lift() for part in self._parts]
                den = math.lcm(*[lift[0] for lift in part_lifts])
                comp_lifts = []
                for part_den, _, _, part_comps in part_lifts:
                    k = den // part_den
                    comp_lifts += part_comps if k == 1 else [
                        [(vscale(k, p), vscale(k, q)) for p, q in comp] for comp in part_comps
                    ]
            else:
                den = common_denominator(
                    p for comp in self.components for pc in comp.pieces for p in (pc.p0, pc.p1)
                )
                comp_lifts = [
                    [(vlift(pc.p0, den), vlift(pc.p1, den)) for pc in comp.pieces]
                    for comp in self.components
                ]
            lifts = {
                square: [comp_lifts[ci][pi] for ci, pi, _ in entries]
                for square, entries in table.items()
            }
            self._lift = (den, table, lifts, comp_lifts)
        return self._lift

    def certify(self) -> GeneralPositionCert2:
        if self._cert is None:
            self._cert = _certify(self)
            self._parts = ()  # no longer needed; do not keep the parts alive
        return self._cert

    @functools.cached_property
    def min_sep_sq(self):
        """The separation scale of the certified curve: the least
        :func:`degeneracy_scale_sq` over its squares, divided by D^2, or
        None when every pair of pieces shares an end.  Only the pushoff
        pairing reads it, so it is computed on first use."""
        require_general_position(self)
        den, _, lifts, _ = self.lift()
        seps = [s for s in map(degeneracy_scale_sq, lifts.values()) if s is not None]
        return rat(min(seps), den * den) if seps else None

    def pushoff(self, epsilon):
        """:func:`pushoff_all` of this curve at ``epsilon`` (its lifted
        offset pieces by square), built once per epsilon; raises its
        :class:`PushoffCollision` again on every call.

        A failure is kept as its message, not as the exception: a kept
        exception's traceback holds this curve's frames, and the cycle
        keeps the curve alive until a full garbage collection."""
        if epsilon not in self._pushoffs:
            try:
                self._pushoffs[epsilon] = pushoff_all(self, epsilon)
            except PushoffCollision as e:
                self._pushoffs[epsilon] = str(e)
        res = self._pushoffs[epsilon]
        if isinstance(res, str):
            raise PushoffCollision(res)
        return res


def _adjacent(comp: Component, pa: Piece, pb: Piece) -> bool:
    """Do these pieces of one component meet at a shared curve vertex?"""
    n = len(comp.vertices)
    for first, second in ((pa, pb), (pb, pa)):
        if (first.seg + 1) % n == second.seg and first.t1 == 1 and second.t0 == 0:
            return True
    return False


def degeneracy_scale_sq(segments):
    """Squared distance of a segment family from its nearest degeneracy.

    Pairs sharing an endpoint are skipped.  Every other pair contributes
    the smallest distance from either segment's endpoints to the other
    segment: for a transverse crossing, how far it is from becoming an
    endpoint contact; for disjoint segments, their distance; a collinear
    or endpoint contact has an endpoint on the other segment and gives 0.
    Returns None when every pair shares an endpoint; returns 0 exactly for
    non-generic contact.  The distances are compared as ``(num, den)`` by
    cross-multiplication, and only the least is divided.
    """
    best_num, best_den = None, 1
    for i in range(len(segments)):
        a = segments[i]
        a0, a1 = a
        for j in range(i + 1, len(segments)):
            b = segments[j]
            b0, b1 = b
            if a0 == b0 or a0 == b1 or a1 == b0 or a1 == b1:
                continue
            for num, den in (
                dist2_point_seg_parts(a0, b),
                dist2_point_seg_parts(a1, b),
                dist2_point_seg_parts(b0, a),
                dist2_point_seg_parts(b1, a),
            ):
                if best_num is None or num * best_den < best_num * den:
                    best_num, best_den = num, den
                    if num == 0:
                        return ZERO
    return None if best_num is None else rat(best_num, best_den)


def _segment_t(piece: Piece, tn, den):
    """The parameter along its segment of the point ``tn / den`` of a
    piece, built as one rational."""
    n0, d0 = piece.t0.numerator, piece.t0.denominator
    n1, d1 = piece.t1.numerator, piece.t1.denominator
    return rat(n0 * d1 * den + tn * (n1 * d0 - n0 * d1), d0 * d1 * den)


def _certify(curve: MultiCurve) -> GeneralPositionCert2:
    """Certify every vertex and every pair of pieces that meet in a square.

    The predicates run on the curve's integer lifts.  A crossing is keyed
    by its chart point in homogeneous lowest terms, which does not depend
    on the lift's D, and the double point it becomes builds its rational
    point and branch parameters on first read.

    In a union, the vertices and pairs inside a part that holds an ok
    certificate are skipped, and its double points are taken as they are,
    renumbered by the part's offset: the pieces, their adjacency and the
    predicates on their lifts are the part's own, scaled, so those
    vertices and pairs would add no violation and exactly these hits.  The
    violations, in order, are then the whole curve's: a crossing across
    the parts at a part's double point meets that point's key and is a
    ``triple-point`` with the same count.
    """
    parts = certified_parts(curve._parts, [len(p.components) for p in curve._parts])
    home = [None] * len(curve.components)
    # (square, key) -> the branch pairs met there: a part's double point
    # with its offset, or a new crossing (entry a, entry b, tn, un, den)
    hits = {}
    for k, (part, offset) in enumerate(parts):
        home[offset : offset + len(part.components)] = [k] * len(part.components)
        for dp in part._cert.double_points:
            hits.setdefault((dp.square, dp.key), []).append((dp, offset))

    violations = []
    for ci, comp in enumerate(curve.components):
        if home[ci] is not None:
            continue
        for si, (sq, v) in enumerate(comp.vertices):
            if v[0] in (ZERO, ONE) or v[1] in (ZERO, ONE):
                violations.append(
                    ("vertex-on-edge", f"component {ci} vertex {si} at {format_point(v)}")
                )
        for pi, piece in enumerate(comp.pieces):
            if piece.p0 == piece.p1:
                violations.append(
                    ("zero-length-segment", f"component {ci} segment {piece.seg}")
                )

    den, table, lifted, _ = curve.lift()
    for square in sorted(table):
        entries = table[square]
        segs = lifted[square]
        for x in range(len(entries)):
            ca, _, pa = entries[x]
            sa = segs[x]
            part = home[ca]
            for y in range(x + 1, len(entries)):
                cb, _, pb = entries[y]
                if part is not None and part == home[cb]:
                    continue
                adjacent = ca == cb and _adjacent(curve.components[ca], pa, pb)
                sb = segs[y]
                res = seg_intersect(sa, sb)
                if res is None:
                    continue
                where = (
                    f"component {ca} segment {pa.seg} vs "
                    f"component {cb} segment {pb.seg} in square {square}"
                )
                if adjacent:
                    if res is DEGENERATE:
                        lo, hi = collinear_overlap(sa, sb)
                        if lo != hi:
                            violations.append(("degenerate-overlap", where))
                        continue  # collinear continuation through the vertex
                    # the hit must be the shared end of sa
                    if res.tn != (res.den if sa[1] in sb else 0):
                        violations.append(("tangency", where))
                    continue
                if res is DEGENERATE:
                    violations.append(("degenerate-overlap", where))
                    continue
                if strict_crossing(res):
                    hx, hy, hw = res.hp
                    key = (square, lowest_terms(hx, hy, hw * den))
                    hits.setdefault(key, []).append((entries[x], entries[y], res.tn, res.un, res.den))
                else:
                    violations.append(("tangency", where))

    order = sorted(hits, key=functools.cmp_to_key(_chart_cmp))
    for key in order:
        pairs = hits[key]
        if len(pairs) > 1:
            point = format_point(from_homogeneous(key[1]))
            violations.append(
                ("triple-point", f"{len(pairs)} branch pairs meet at {point} in square {key[0]}")
            )
    if violations:
        return GeneralPositionCert2(False, tuple(violations), ())
    return GeneralPositionCert2(True, (), tuple([_double_point(key, hits[key][0]) for key in order]))


def _chart_cmp(a, b):
    """Order ``(square, (X, Y, W))`` keys by square, then by the point's
    x, then by its y, on ints."""
    if a[0] != b[0]:
        return a[0] - b[0]
    (xa, ya, wa), (xb, yb, wb) = a[1], b[1]
    return (xa * wb - xb * wa) or (ya * wb - yb * wa)


def _double_point(key, pair):
    """The double point of the one branch pair met at ``key``: a part's
    double point, renumbered by its offset, or a new crossing's."""
    square, hp = key
    if len(pair) == 2:
        dp, offset = pair
        if not offset:
            return dp
        ca, cb = dp.components
        return DoublePoint(square, hp, (ca + offset, cb + offset), dp)
    (ca, _, pa), (cb, _, pb), tn, un, den = pair
    return DoublePoint(square, hp, (ca, cb), (pa, tn, pb, un, den))


def double_points(curve: MultiCurve):
    """Transverse self-intersection points, sorted by (square, x, y)."""
    return require_general_position(curve).double_points


def component_chain(curve: MultiCurve, comp_idx: int) -> ClosedChain:
    """The component as a closed chain of its lifted chart pieces, for
    pushoffs: a segment's pieces are joined by a wrap, segments by corners."""
    den, _, _, comp_lifts = curve.lift()
    comp = curve.components[comp_idx]
    lifted = iter(zip(comp.pieces, comp_lifts[comp_idx]))
    pieces = []
    links = []
    for crossing in comp.crossings:
        a, (p0, p1) = next(lifted)
        pieces.append(ChainPiece(a.square, p0, p1))
        if crossing is not None:
            wrap = curve.complex.glued(a.square, crossing.edge)[3].lift(den)
            links.append(ChainLink("wrap", transform=wrap, sign=crossing.sign, out_edge=crossing.edge))
            b, (q0, q1) = next(lifted)
            pieces.append(ChainPiece(b.square, q0, q1))
        links.append(ChainLink("corner"))
    return ClosedChain(tuple(pieces), tuple(links), den)


def initial_epsilon(msq) -> object:
    """Starting offset scale below the separation bound (or a default)."""
    if msq is None or msq <= 0:
        return rat(1, 16)
    return min(rat(msq), ONE) / 4


def pushoff_all(curve: MultiCurve, epsilon):
    """Offset copies of every component at one epsilon, to the left.

    Returns ``(D', by_square)``: ``by_square`` maps a square to the integer
    lifts ``(D' * start, D' * end)`` of its offset pieces, including the
    reconnection jumps of one-sided components, and D' is a multiple of
    the curve's D.  Raises :class:`PushoffCollision` when any component
    fails at this epsilon.
    """
    offsets = []
    for ci in range(len(curve.components)):
        res = pushoff_polyline(component_chain(curve, ci), epsilon=epsilon)
        offsets.extend(res.pieces)
        if res.jump is not None:
            offsets.append(res.jump)
    # the homogeneous points (X, Y, W) over the curve's lifts share the
    # weight L, the lcm of their W: the lift by D' = D * L is X * (L / W)
    scale = math.lcm(*[p[2] for off in offsets for p in (off.start, off.end)])
    by_square = {}
    for off in offsets:
        (x0, y0, w0), (x1, y1, w1) = off.start, off.end
        k0, k1 = scale // w0, scale // w1
        by_square.setdefault(off.chart, []).append(((x0 * k0, y0 * k0), (x1 * k1, y1 * k1)))
    return curve.lift()[0] * scale, by_square


# how many times pairing_mod2 halves the pushoff's offset before it gives up
PUSHOFF_RETRIES = 16


def pairing_mod2(curve_a: MultiCurve, comp_a: int, curve_b: MultiCurve) -> int:
    """Mod-2 intersection number of one component of ``curve_a`` with the
    whole multicurve ``curve_b``, via a small normal pushoff of ``curve_b``.

    The offset starts below the separation scale of ``curve_b``.  Every
    contact between the component and the pushoff must be a strict
    transverse interior crossing; otherwise the offset is halved and the
    count retried.  The result is the homological pairing
    regardless of how the two original curves touch each other.  Raises
    :class:`GenericityError` after :data:`PUSHOFF_RETRIES` halvings.
    """
    if curve_a.complex != curve_b.complex:
        raise ValueError("curves live on different complexes")
    require_general_position(curve_a)
    epsilon = initial_epsilon(curve_b.min_sep_sq)  # certifies curve_b
    den_a, _, _, comp_lifts = curve_a.lift()
    comp = list(zip((pc.square for pc in curve_a.components[comp_a].pieces), comp_lifts[comp_a]))
    last_error = None
    for _ in range(PUSHOFF_RETRIES):
        try:
            # The crossings are counted on the integer lifts of the
            # component and the offset pieces by their common denominator:
            # the pushoff's D' when curve_a is curve_b.
            den_b, by_square = curve_b.pushoff(epsilon)
            den = math.lcm(den_a, den_b)
            ka, kb = den // den_a, den // den_b
            if kb != 1:
                by_square = {
                    square: [(vscale(kb, p), vscale(kb, q)) for p, q in offs]
                    for square, offs in by_square.items()
                }
            count = 0
            for square, (p0, p1) in comp:
                offs = by_square.get(square)
                if not offs:
                    continue
                seg = ((p0[0] * ka, p0[1] * ka), (p1[0] * ka, p1[1] * ka))
                for off in offs:
                    crossing = seg_crossing(seg, off)
                    if crossing is None:
                        continue
                    if not crossing:
                        raise PushoffCollision(
                            "pushoff-collision: non-transverse contact while counting"
                        )
                    count += 1
        except PushoffCollision as e:
            last_error = str(e)  # not e, whose traceback holds this frame
            epsilon = epsilon / 2
            continue
        return count % 2
    raise GenericityError(f"pushoff retry budget exhausted: {last_error}")


# ---------------------------------------------------------------------------
# the r = 1 identity on curves


def mu_count_r1(curve: MultiCurve, comp_idx: int) -> int:
    """Number of ordered double-point preimages whose first branch lies on
    the given component."""
    return sum(dp.components.count(comp_idx) for dp in double_points(curve))


def herbert_lhs_r1(curve: MultiCurve, comp_idx: int) -> int:
    """Pairing of the double-point class with one component of the curve."""
    return pairing_mod2(curve, comp_idx, curve)


def herbert_rhs_r1_parts(curve: MultiCurve, comp_idx: int):
    """(mu bit, euler bit): preimage count parity and one-sidedness."""
    mu_bit = mu_count_r1(curve, comp_idx) % 2
    euler_bit = curve.components[comp_idx].two_sidedness()
    return mu_bit, euler_bit


__all__ = [
    "CurveBuildError",
    "GeneralPositionError",
    "Crossing",
    "Piece",
    "Component",
    "DoublePoint",
    "GeneralPositionCert2",
    "MultiCurve",
    "degeneracy_scale_sq",
    "require_general_position",
    "double_points",
    "component_chain",
    "initial_epsilon",
    "pushoff_all",
    "pairing_mod2",
    "mu_count_r1",
    "herbert_lhs_r1",
    "herbert_rhs_r1_parts",
]
