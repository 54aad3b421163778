"""Triangulated closed surfaces mapped into the flat 3-torus.

A mesh is a soup of nondegenerate triangles with exact rational vertices in
R^3, read modulo the integer lattice.  The source surface is defined
implicitly: two triangle edges are the same source edge exactly when they
coincide in the 3-torus, i.e. when they agree after an integer translation.
Every edge must be shared by exactly two edge slots (a closed surface).
Each corner lies on two slots, so the corners around a vertex then form a
single cycle and the surface is a manifold.  Note the flavor of gluing this
supports: edge identifications are always pointwise-by-position,
so creases, folds and self-intersections are expressed by the geometry of
the soup itself.

The map to the 3-torus is the quotient of the inclusion.  Its double locus
is computed by intersecting all pairs of triangle lifts over the relevant
lattice translates; pairs that are adjacent in the source (sharing an edge
or a vertex) are allowed to meet exactly along the shared feature and
nothing more.  General-position certification reports violations by name:

``coplanar-overlap``
    two triangle lifts lie in one plane with overlapping interiors.
``vertex-contact``
    two lifts sharing a source vertex meet beyond the shared point.
``tangency``
    any other non-transverse contact: touching lifts, an intersection arc
    ending at a vertex or on the boundary of both triangles at once, or
    double arcs meeting a chart boundary or each other non-transversally.
``double-curve-branching``
    the endpoint matching of double arcs does not pair up two by two.
``quadruple-point``
    a point of the 3-torus where the witness count is not the exact three
    produced by a transverse triple point.

On a certified mesh the double locus is a disjoint union of circles.  Each
circle carries its mod-2 homology class in the 3-torus and its preimage:
either two circles on the source surface or one circle covering it twice.
Preimage circles record the orientation transport of the surface along
them (the ``w1`` bit), which is also the normal transport since the
3-torus is parallelizable.  Triple points carry their three source
preimage points.  These are the ingredients of the degree-2 double-point
identity: for a generic translate of the surface,

    crossings(double circles, translated surface)
        == #(triple points) + sum of w1 bits            (mod 2)

and of the degree-1 identity along a cycle C drawn on the source surface:

    crossings(C in the 3-torus, translated surface)
        == crossings(C, preimage circles on the surface)
           + orientation transport along C              (mod 2).

The translate is ``(e, e^2, e^3)`` in the limit ``e -> 0+``, which decides
every contact, so neither count retries or fails.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .rational import ONE, ZERO, format_point, rat, rfloor
from .exactgeom import (
    DEGENERATE,
    GeneralPositionError,
    GenericityError,
    InputError,
    PlaneChart,
    UnionFind,
    bbox,
    certified_parts,
    clip_line_to_tri,
    common_denominator,
    contact_only_at,
    coplanar,
    coplanar_tri_relation,
    cross3,
    from_homogeneous,
    lattice_translates,
    lowest_terms,
    require_general_position,
    seg_intersect,
    seg_meeting,
    segment_crosses_translate,
    segment_triangle_hit,
    strict_crossing,
    tri_normal,
    tri_tri_intersect,
    vadd,
    vlift,
    vscale,
    vsub,
)


class MeshBuildError(InputError):
    """The triangle soup does not describe a closed surface."""


class CycleError(InputError):
    """A cycle drawn on the source surface is malformed or non-generic."""


# ---------------------------------------------------------------------------
# small exact-vector helpers


def _point3(p):
    x, y, z = p
    return (rat(x), rat(y), rat(z))


def _shift_tri(tri, v):
    return (vadd(tri[0], v), vadd(tri[1], v), vadd(tri[2], v))


def _shift_homogeneous(h, v):
    """The homogeneous point h moved by the integer vector v; it stays in
    lowest terms."""
    x, y, z, w = h
    return (x + v[0] * w, y + v[1] * w, z + v[2] * w, w)


def _mod_lattice(h):
    """The homogeneous point h reduced into the unit cube [0, 1)^3."""
    x, y, z, w = h
    return (x % w, y % w, z % w, w)


def _scaled_homogeneous(h, scale):
    """``scale`` times the homogeneous point h, as ints; W divides scale."""
    x, y, z, w = h
    k = scale // w
    return (x * k, y * k, z * k)


def _floor_homogeneous(h):
    x, y, z, w = h
    return (x // w, y // w, z // w)


# ---------------------------------------------------------------------------
# structural records


@dataclass(frozen=True)
class EdgeMatch:
    """One source edge: a matched pair of triangle edge slots.

    ``slot_a``/``slot_b`` are ``(triangle, edge)`` with edge ``i`` running
    from vertex ``i`` to vertex ``i+1``.  The lift of ``slot_b``'s triangle
    translated by ``rel_shift`` shares the edge with ``slot_a``'s lift.
    ``flip`` is 1 when the two boundary cycles traverse the shared edge in
    the same direction, i.e. when the triangle orientations disagree
    across this edge.
    """

    slot_a: tuple
    slot_b: tuple
    rel_shift: tuple
    flip: int


@dataclass(frozen=True)
class DoubleSegment:
    """A straight piece of the double locus.

    Coordinates live in the frame of triangle ``tri_a``; the second sheet
    is the lift of ``tri_b`` translated by ``shift``.  The ends ``hp`` and
    ``hq`` are homogeneous int points ``(X, Y, Z, W)`` (see
    :mod:`exactgeom`) of the rational points ``p < q`` (lexicographically),
    which are built on first read.  Each tag ``("a"|"b", edge)`` names the
    triangle edge on which that endpoint lies.
    """

    tri_a: int
    tri_b: int
    shift: tuple
    hp: tuple
    hq: tuple
    tag_p: tuple
    tag_q: tuple

    @functools.cached_property
    def p(self):
        return from_homogeneous(self.hp)

    @functools.cached_property
    def q(self):
        return from_homogeneous(self.hq)


@dataclass(frozen=True)
class GeneralPositionCert3:
    ok: bool
    violations: tuple

    @property
    def violation_names(self):
        return sorted({name for name, _ in self.violations})


@dataclass(frozen=True)
class PreimageCircle:
    """One component of the double-locus preimage on the source surface.

    ``arcs`` is a cyclic tuple of ``(triangle, start, end)`` straight arcs
    in triangle-lift coordinates.  ``w1`` is the orientation transport of
    the surface around the circle (the XOR of the flips of the source
    edges it crosses) and ``doubled`` says whether this one circle covers
    its image circle twice.
    """

    arcs: tuple
    w1: int
    doubled: bool


@dataclass(frozen=True)
class DoubleCurve:
    """A circle of the double locus in the 3-torus.

    ``path`` lists ``(segment_index, forward)`` in traversal order,
    ``canonical`` is a translation-normalized frozenset of its segments
    used for exact comparisons, ``h1`` its mod-2 class in the homology of
    the 3-torus, and ``preimages`` the one or two circles lying over it
    on the source surface.
    """

    path: tuple
    canonical: frozenset
    h1: tuple
    preimages: tuple


@dataclass(frozen=True)
class TriplePoint:
    """A transverse triple point of the mapped surface.

    ``target`` is the point of the 3-torus (coordinates in [0, 1)) and
    ``preimages`` the three ``(triangle, point)`` source points over it.
    """

    target: tuple
    preimages: tuple


@dataclass(frozen=True)
class TriplePointSet:
    points: tuple

    def __len__(self):
        return len(self.points)


def _canon_segment(p, q, den=1):
    """The segment pq moved back by the floor of its least end, for
    points lifted by ``den`` (rationals with ``den = 1``)."""
    s = vscale(den, tuple(c // den for c in min(p, q)))
    return (vsub(p, s), vsub(q, s)) if p <= q else (vsub(q, s), vsub(p, s))


def _pair(i, j, v):
    """The detail of a violation of the pair of lifts i and j + v."""
    return f"triangles {i} and {j} + {v}"


def _report(name, found, violations):
    """Add the violations ``found`` at keyed points, as ``(key, text)``
    pairs, in the order of their points, each text ending in its point."""
    points = sorted((from_homogeneous(key), text) for key, text in found)
    violations.extend((name, f"{text} {format_point(point)}") for point, text in points)


def vertex_adjacent_contact(ta, tb, w, na, nb):
    """Classify the contact of two triangle lifts sharing the source vertex w.

    Returns None when they meet exactly in the point ``w``, otherwise the
    violation name (``"coplanar-overlap"`` or ``"vertex-contact"``).
    ``na`` and ``nb`` are the triangles' normals.
    """
    if coplanar(ta, na, tb, nb):
        if coplanar_tri_relation(ta, tb, na) == "overlap":
            return "coplanar-overlap"
        chart = PlaneChart.of(na)
        w2 = chart.point(w)
        pa, pb = chart.points(ta), chart.points(tb)
        for ea in range(3):
            for eb in range(3):
                sa = (pa[ea], pa[(ea + 1) % 3])
                sb = (pb[eb], pb[(eb + 1) % 3])
                if not contact_only_at(sa, sb, w2):
                    return "vertex-contact"
        return None
    u = cross3(na, nb)
    # the line through w, a point of both triangles, is never a miss; a
    # triangle with an edge along it meets the other only on that edge
    ra = clip_line_to_tri(w, u, ta, "a", 1, na)
    rb = clip_line_to_tri(w, u, tb, "b", 1, nb)
    # the larger lower and the smaller upper bound, as (num, den) pairs in
    # lowest terms, so that equal bounds are equal pairs
    (la, lb), (ha, hb) = (ra[1], rb[1]), (ra[4], rb[4])
    lo = la if la[0] * lb[1] >= lb[0] * la[1] else lb
    hi = ha if ha[0] * hb[1] <= hb[0] * ha[1] else hb
    if lo != hi:
        return "vertex-contact"
    return None


# ---------------------------------------------------------------------------
# the mesh


class Mesh3:
    """A closed triangulated surface mapped into the flat 3-torus."""

    def __init__(self, triangles):
        self.triangles = tuple(tuple(_point3(p) for p in tri) for tri in triangles)
        if not self.triangles:
            raise MeshBuildError("edge-matching: empty mesh")
        # The integer frame of the mesh: D, the common denominator of all
        # vertex coordinates, the lifts D * t of the triangles and their
        # normals.  Every table, chart and predicate reads these.
        self.den = common_denominator(p for t in self.triangles for p in t)
        self._lifts = tuple(
            tuple(vlift(p, self.den) for p in t) for t in self.triangles
        )
        normals = []
        for k, t in enumerate(self._lifts):
            try:
                normals.append(tri_normal(t))
            except ValueError:
                raise MeshBuildError(f"degenerate-triangle: triangle {k}")
        self._normals = tuple(normals)
        self._build_vertex_adjacency(self._build_matching())
        self._init_results(())

    def _init_results(self, parts):
        """No certificate yet, and nothing extracted from one."""
        self._parts = parts
        self._cert = None
        self._segments = None
        self._end_links = None
        self._witnesses = None
        self._curves = None
        self._triples = None

    # -- structure ---------------------------------------------------------

    def _floor(self, lifted):
        """The floor of the point whose lift is ``lifted``."""
        return tuple(c // self.den for c in lifted)

    def _build_matching(self):
        """Match the edge slots two by two; returns the vertex classes."""
        # edges are keyed on their lifts; scaling by D keeps the key order
        slots = {}
        for t, lift in enumerate(self._lifts):
            for e in range(3):
                p, q = lift[e], lift[(e + 1) % 3]
                key = _canon_segment(p, q, self.den)
                s = self._floor(min(p, q))
                slots.setdefault(key, []).append((t, e, s, 0 if p <= q else 1))
        matches = []
        slot_of = {}
        for key, entries in sorted(slots.items()):
            if len(entries) != 2:
                where = ", ".join(f"triangle {t} edge {e}" for t, e, _, _ in entries)
                raise MeshBuildError(
                    f"edge-matching: edge shared by {len(entries)} slots ({where})"
                )
            (t1, e1, s1, o1), (t2, e2, s2, o2) = entries
            m = EdgeMatch(
                slot_a=(t1, e1),
                slot_b=(t2, e2),
                rel_shift=vsub(s1, s2),
                flip=0 if o1 != o2 else 1,
            )
            slot_of[(t1, e1)] = (len(matches), 0)
            slot_of[(t2, e2)] = (len(matches), 1)
            matches.append(m)
        self.matches = tuple(matches)
        self._slot_of = slot_of

        # Vertex classes: the corners that the matches identify.  Each
        # corner lies on two edge slots and each slot is matched once, so
        # the corners of a class form one cycle around a disk.
        n = len(self.triangles)
        uf = UnionFind(3 * n)
        for m in self.matches:
            (t1, e1), (t2, e2) = m.slot_a, m.slot_b
            c1 = (e1, (e1 + 1) % 3)
            c2 = (e2, (e2 + 1) % 3)
            if m.flip:  # same traversal direction: start matches start
                pairs = ((c1[0], c2[0]), (c1[1], c2[1]))
            else:
                pairs = ((c1[0], c2[1]), (c1[1], c2[0]))
            for ca, cb in pairs:
                uf.union(3 * t1 + ca, 3 * t2 + cb)
        classes = {}
        for t in range(n):
            for c in range(3):
                classes.setdefault(uf.find(3 * t + c), []).append((t, c))
        return classes.values()

    def _build_vertex_adjacency(self, classes):
        """The corners shared by each pair of lifts that
        :meth:`_enumerate_pairs` crosses: triangles ``i <= j`` and, for
        ``i == j``, shifts ``v > 0``.  A match pairs the ends of one edge
        key, so identified corners differ by D times a lattice vector, and
        two corners of one nondegenerate triangle never coincide."""
        lifts, vertex_adj = self._lifts, {}
        for cls in classes:  # corners in (triangle, corner) order
            for k, (t1, c1) in enumerate(cls):
                for t2, c2 in cls[k + 1 :]:
                    v = self._floor(vsub(lifts[t1][c1], lifts[t2][c2]))
                    corners = (c1, c2)
                    if t1 == t2 and v < (0, 0, 0):
                        v, corners = vscale(-1, v), (c2, c1)
                    vertex_adj.setdefault((t1, t2), {}).setdefault(v, []).append(corners)
        self._vertex_adj = vertex_adj

    def __eq__(self, other):
        return isinstance(other, Mesh3) and self.triangles == other.triangles

    def __hash__(self):
        return hash(self.triangles)

    def union(self, other):
        """The disjoint union of this mesh and ``other``.

        It is built from its parts' tables: its lift D is the lcm of
        theirs, their lifts and normals are scaled to it, and their edge
        matches and vertex adjacency are renumbered.  An edge of
        both parts raises the :class:`MeshBuildError` of the whole mesh.

        When the union is certified, a part that holds an ok certificate
        gives it the double segments of the pairs of triangles inside that
        part and their triple-point witnesses; only the other pairs run the
        predicates, and only the pairs of arcs where one is theirs are
        crossed.  The union matches every segment end itself.
        """
        parts = (self, other)
        mesh = Mesh3.__new__(Mesh3)
        mesh.triangles = self.triangles + other.triangles
        mesh.den = den = math.lcm(self.den, other.den)
        lifts, normals = [], []
        for part in parts:
            k = den // part.den
            if k == 1:
                lifts += part._lifts
                normals += part._normals
            else:
                lifts += [tuple(vscale(k, p) for p in t) for t in part._lifts]
                normals += [vscale(k * k, n) for n in part._normals]
        mesh._lifts, mesh._normals = tuple(lifts), tuple(normals)
        # Tuples of more than a few items are built from lists, as in
        # common_denominator: the freed tuples of a generator's resizing
        # stay on the tuple free lists until a full garbage collection.
        offset = len(self.triangles)
        matches = self.matches + tuple([
            EdgeMatch((ta + offset, ea), (tb + offset, eb), m.rel_shift, m.flip)
            for m in other.matches
            for (ta, ea), (tb, eb) in [(m.slot_a, m.slot_b)]
        ])

        # The whole mesh numbers its matches in the order of their edge
        # keys, which scale with the lifts; a key of both parts is an edge
        # of four slots.
        def edge_key(m):
            t, e = m.slot_a
            return _canon_segment(lifts[t][e], lifts[t][(e + 1) % 3], den)

        keyed = sorted((edge_key(m), x) for x, m in enumerate(matches))
        for (key, x), (next_key, y) in zip(keyed, keyed[1:]):
            if key == next_key:
                where = ", ".join(
                    f"triangle {t} edge {e}"
                    for m in (matches[x], matches[y])
                    for t, e in (m.slot_a, m.slot_b)
                )
                raise MeshBuildError(f"edge-matching: edge shared by 4 slots ({where})")
        mesh.matches = tuple([matches[x] for _, x in keyed])
        mesh._slot_of = {}
        for mi, m in enumerate(mesh.matches):
            mesh._slot_of[m.slot_a] = (mi, 0)
            mesh._slot_of[m.slot_b] = (mi, 1)
        # only the keys name triangles: the corner pairs by shift are shared
        mesh._vertex_adj = dict(self._vertex_adj)
        for (t1, t2), by_shift in other._vertex_adj.items():
            mesh._vertex_adj[(t1 + offset, t2 + offset)] = by_shift
        mesh._init_results(parts)
        return mesh

    # -- pair enumeration and certification ---------------------------------

    def chart(self, t):
        """The :class:`PlaneChart` of triangle t's plane."""
        return PlaneChart.of(self._normals[t])

    def _enumerate_pairs(self, parts):
        """Certify every pair of triangle lifts.

        Returns the violations, the double segments and, per segment,
        whether it was found here (fresh) or taken from a certified part:
        a pair inside such a part takes that part's segments, in the order
        a full enumeration would list them.
        """
        # The predicates run on the integer lifts D * t of the triangles; a
        # lattice shift v becomes D * v, and an arc's ends are put over D.
        den, lifts, normals = self.den, self._lifts, self._normals
        boxes = [bbox(t) for t in lifts]
        n = len(self.triangles)
        home = [None] * n
        known = {}
        for k, (part, offset) in enumerate(parts):
            home[offset : offset + len(part.triangles)] = [k] * len(part.triangles)
            for s in part._segments:
                ij = (s.tri_a + offset, s.tri_b + offset)
                seg = DoubleSegment(*ij, s.shift, s.hp, s.hq, s.tag_p, s.tag_q)
                known.setdefault(ij, []).append(seg)
        violations = []
        segments = []
        is_fresh = []
        for i in range(n):
            ta, na = lifts[i], normals[i]
            for j in range(i, n):
                if home[i] is not None and home[i] == home[j]:
                    taken = known.get((i, j), ())
                    segments += taken
                    is_fresh += [False] * len(taken)
                    continue
                nb = normals[j]
                corners_at = self._vertex_adj.get((i, j), {})
                for v in lattice_translates(*boxes[i], *boxes[j], den):
                    if i == j and v <= (0, 0, 0):
                        continue
                    tb = _shift_tri(lifts[j], vscale(den, v))
                    # two corners shared at one shift are the ends of a
                    # shared edge: the segment between them is an edge of
                    # both lifts, and so of one edge key
                    shared = corners_at.get(v, ())
                    if len(shared) > 1:
                        if coplanar(ta, na, tb, nb):
                            if coplanar_tri_relation(ta, tb, na) == "overlap":
                                violations.append(("coplanar-overlap", _pair(i, j, v)))
                        continue
                    if shared:
                        verdict = vertex_adjacent_contact(ta, tb, ta[shared[0][0]], na, nb)
                        if verdict is not None:
                            violations.append((verdict, _pair(i, j, v)))
                        continue
                    if coplanar(ta, na, tb, nb):
                        rel = coplanar_tri_relation(ta, tb, na)
                        if rel == "overlap":
                            violations.append(("coplanar-overlap", _pair(i, j, v)))
                        elif rel == "touch":
                            violations.append(("tangency", _pair(i, j, v)))
                        continue
                    res = tri_tri_intersect(ta, tb, na, nb)
                    if res is None:
                        continue
                    if res is DEGENERATE:
                        violations.append(("tangency", _pair(i, j, v)))
                        continue
                    # the ends are homogeneous over the lifts: put them over D
                    p, q = (lowest_terms(x, y, z, w * den) for x, y, z, w in (res.p, res.q))
                    segments.append(DoubleSegment(i, j, v, p, q, res.tag_p, res.tag_q))
                    is_fresh.append(True)
        return violations, segments, is_fresh

    @staticmethod
    def _end_tag(seg, end):
        return seg.tag_p if end == 0 else seg.tag_q

    @staticmethod
    def _sheets_at(seg, end):
        """Canonical local sheets at a segment end: label -> (triangle, translate)."""
        u = _floor_homogeneous(seg.hp if end == 0 else seg.hq)
        return {
            "a": (seg.tri_a, vscale(-1, u)),
            "b": (seg.tri_b, vsub(seg.shift, u)),
        }

    def _match_ends(self, segments, is_fresh, violations):
        """Link the segment ends that meet in the 3-torus two by two.

        Every point where ends meet is keyed by its homogeneous form mod
        the lattice, and its two ends must share exactly one sheet.  Two
        ends taken from certified parts are linked unchecked: a part's key
        holds two of its own ends, so two such ends that meet alone belong
        to one part, which has checked them.  Returns the links.
        """
        groups = {}
        for si, seg in enumerate(segments):
            groups.setdefault(_mod_lattice(seg.hp), []).append((si, 0))
            groups.setdefault(_mod_lattice(seg.hq), []).append((si, 1))
        links = {}
        found = []
        for key, g in groups.items():
            if len(g) != 2:
                found.append((key, f"{len(g)} arc ends meet at"))
                continue
            (s1, e1), (s2, e2) = g
            if is_fresh[s1] or is_fresh[s2]:
                sh1 = set(self._sheets_at(segments[s1], e1).values())
                sh2 = set(self._sheets_at(segments[s2], e2).values())
                if len(sh1 & sh2) != 1:
                    found.append((key, "sheet mismatch where arcs meet at"))
                    continue
            links[(s1, e1)] = (s2, e2)
            links[(s2, e2)] = (s1, e1)
        _report("double-curve-branching", found, violations)
        return links

    def _collect_witnesses(self, segments, is_fresh, links, parts, violations):
        """The triple-point witnesses: a crossing of two double arcs hosted
        by one triangle, keyed by its point mod the lattice.

        A certified part's witnesses are renumbered, and only the pairs of
        arcs where at least one is a fresh segment are crossed.
        """
        busy = set()
        for seg, fresh in zip(segments, is_fresh):
            if fresh:
                busy.update((seg.tri_a, seg.tri_b))
        hosts = {}
        for si, seg in enumerate(segments):
            if seg.tri_a in busy:
                hosts.setdefault(seg.tri_a, []).append(
                    (seg.hp, seg.hq, (seg.tri_b, seg.shift), si)
                )
            if seg.tri_b in busy:
                back = vscale(-1, seg.shift)
                hosts.setdefault(seg.tri_b, []).append(
                    (
                        _shift_homogeneous(seg.hp, back),
                        _shift_homogeneous(seg.hq, back),
                        (seg.tri_a, back),
                        si,
                    )
                )
        witnesses = {}
        for t, entries in sorted(hosts.items()):
            # the arcs meet in their chart, on one integer scale: the least
            # common multiple of their ends' weights
            chart = self.chart(t)
            scale = math.lcm(*[e[3] for p, q, _, _ in entries for e in (p, q)])
            ends = [
                (_scaled_homogeneous(p, scale), _scaled_homogeneous(q, scale))
                for p, q, _, _ in entries
            ]
            flat = [chart.points(pq) for pq in ends]
            detail = f"double arcs in triangle {t}"
            for x in range(len(entries)):
                px, qx, ox, sx = entries[x]
                for y in range(x + 1, len(entries)):
                    py, qy, oy, sy = entries[y]
                    if ox == oy or not (is_fresh[sx] or is_fresh[sy]):
                        continue
                    # consecutive pieces of one double curve share an end
                    # inside this chart when the other sheet crosses its
                    # own chart boundary there; that contact is legitimate
                    shared = [e for e in (px, qx) if e in (py, qy)]
                    if len(shared) == 1:
                        ea = 0 if px == shared[0] else 1
                        eb = 0 if py == shared[0] else 1
                        if links.get((sx, ea)) == (sy, eb):
                            if not contact_only_at(flat[x], flat[y], flat[x][ea]):
                                violations.append(
                                    ("tangency", detail + " double back")
                                )
                            continue
                    res = seg_meeting(flat[x], flat[y])
                    if res is None:
                        continue
                    if res is DEGENERATE:
                        violations.append(("tangency", detail + " overlap"))
                        continue
                    tn, un, d = res
                    if not (0 < tn < d and 0 < un < d):
                        violations.append(
                            ("tangency", detail + " meet at a chart boundary")
                        )
                        continue
                    a, b = ends[x]
                    y3 = lowest_terms(*[d * c + tn * (e - c) for c, e in zip(a, b)], d * scale)
                    u = _floor_homogeneous(y3)
                    sheets = frozenset(
                        {
                            (t, vscale(-1, u)),
                            (ox[0], vsub(ox[1], u)),
                            (oy[0], vsub(oy[1], u)),
                        }
                    )
                    witnesses.setdefault(_mod_lattice(y3), []).append((t, y3, sheets))
        merged = {}
        for part, offset in parts:
            for key, ws in part._witnesses.items():
                merged.setdefault(key, []).extend(
                    (t + offset, y3, frozenset((s + offset, v) for s, v in sheets))
                    for t, y3, sheets in ws
                )
        for key, ws in witnesses.items():
            merged.setdefault(key, []).extend(ws)
        found = [
            (key, f"{len(ws)} crossing witnesses at")
            for key, ws in merged.items()
            if len(ws) != 3 or len({sh for _, _, sh in ws}) != 1
        ]
        _report("quadruple-point", found, violations)
        return dict(sorted(merged.items()))

    def certify(self):
        if self._cert is not None:
            return self._cert
        # Inside one part the vertex adjacency is the part's own,
        # since an edge shared across parts fails the union's edge matching,
        # and the exact predicates do not depend on D: what a certified part
        # found holds here, renumbered by the part's offset.
        parts = certified_parts(self._parts, [len(p.triangles) for p in self._parts])
        violations, segments, is_fresh = self._enumerate_pairs(parts)
        if not violations:
            links = self._match_ends(segments, is_fresh, violations)
            if violations:
                # where ends do not pair up, a part's links, and so its
                # witnesses, need not hold: cross every pair of arcs, as
                # the whole mesh does
                parts, is_fresh = [], [True] * len(segments)
            witnesses = self._collect_witnesses(segments, is_fresh, links, parts, violations)
        self._parts = ()  # no longer needed; do not keep the parts alive
        ok = not violations
        self._cert = GeneralPositionCert3(ok, tuple(violations))
        if ok:
            self._segments = tuple(segments)
            self._end_links = links
            self._witnesses = witnesses
        return self._cert

    # -- extraction ----------------------------------------------------------

    def double_segments(self):
        require_general_position(self)
        return self._segments

    def _trace_target_circles(self):
        segments = self._segments
        links = self._end_links
        circles = []
        entered = set()
        for s0 in range(len(segments)):
            if (s0, 0) in entered or (s0, 1) in entered:
                continue
            path = []
            cur, ent = s0, 0
            while True:
                path.append((cur, ent == 0))
                entered.add((cur, ent))
                cur, ent = links[(cur, 1 - ent)]
                if (cur, ent) == (s0, 0):
                    break
            circles.append(tuple(path))
        return circles

    def _circle_h1(self, path):
        # each segment starts at a lattice translate of the previous one's
        # end, so the circle's period is the sum of its segment vectors
        period = (ZERO, ZERO, ZERO)
        for si, forward in path:
            seg = self._segments[si]
            period = vadd(period, vsub(seg.q, seg.p) if forward else vsub(seg.p, seg.q))
        if any(c != rfloor(c) for c in period):
            raise AssertionError("double circle closes with non-integer period")
        return tuple(rfloor(c) % 2 for c in period)

    def _walk_preimage(self, path, start_label):
        segments = self._segments
        links = self._end_links
        arcs = []
        w1 = 0
        label = start_label
        laps = 0
        while True:
            for (si, forward) in path:
                seg = segments[si]
                a, b = (seg.p, seg.q) if forward else (seg.q, seg.p)
                if label == "a":
                    arcs.append((seg.tri_a, a, b))
                else:
                    arcs.append(
                        (seg.tri_b, vsub(a, seg.shift), vsub(b, seg.shift))
                    )
                exit_end = 1 if forward else 0
                nxt_si, nxt_end = links[(si, exit_end)]
                here = self._sheets_at(seg, exit_end)
                there = self._sheets_at(segments[nxt_si], nxt_end)
                common = set(here.values()) & set(there.values())
                mine = here[label]
                inv_there = {v: k for k, v in there.items()}
                if mine in common:
                    label = inv_there[mine]
                else:
                    owner, edge = self._end_tag(seg, exit_end)
                    if owner != label:
                        raise AssertionError(
                            "transitioning sheet does not own the boundary tag"
                        )
                    tri = seg.tri_a if owner == "a" else seg.tri_b
                    mi, _ = self._slot_of[(tri, edge)]
                    w1 ^= self.matches[mi].flip
                    other = next(v for v in there.values() if v not in common)
                    label = inv_there[other]
            laps += 1
            if label == start_label:
                return PreimageCircle(tuple(arcs), w1, laps == 2), laps
            if laps == 2:
                raise AssertionError("preimage walk did not close in two laps")

    def double_curves(self):
        require_general_position(self)
        if self._curves is not None:
            return self._curves
        curves = []
        for path in self._trace_target_circles():
            canonical = frozenset(
                _canon_segment(self._segments[si].p, self._segments[si].q)
                for si, _ in path
            )
            h1 = self._circle_h1(path)
            first, laps = self._walk_preimage(path, "a")
            if laps == 1:
                second, _ = self._walk_preimage(path, "b")
                preimages = (first, second)
            else:
                preimages = (first,)
            curves.append(DoubleCurve(tuple(path), canonical, h1, preimages))
        self._curves = tuple(curves)
        return self._curves

    def triple_points(self):
        require_general_position(self)
        if self._triples is not None:
            return self._triples
        points = []
        for key, ws in self._witnesses.items():
            preimages = tuple(sorted((t, from_homogeneous(y)) for t, y, _ in ws))
            points.append(TriplePoint(from_homogeneous(key), preimages))
        points.sort(key=lambda tp: tp.target)
        self._triples = TriplePointSet(tuple(points))
        return self._triples


# ---------------------------------------------------------------------------
# homology of the image


def ambient_class_h2(mesh):
    """Mod-2 class of the mapped surface in the homology of the 3-torus.

    Component ``k`` is the parity of crossings of the closed axis loop
    from 0 to ``e_k`` with a generic translate of the mesh, counted as
    the degree-2 LHS counts, so it is decided for every mesh.
    """
    return tuple(
        crossings_mod2_with_generic_translate(mesh, [((0, 0, 0), e)])
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )


# ---------------------------------------------------------------------------
# crossing counts against the mesh and a translated copy of it


def _segment_contacts(mesh, segs, translated=False):
    """The lifts of the mesh that a 3-space segment may touch.

    The mesh lifts and the segments are scaled to D, the common
    denominator of the mesh's own D and the segments.  Returns D and an
    iterator of ``(triangle, lattice translate, p, q, lift)`` on ints for
    each lattice translate of a lift whose box meets the box of segment
    ``pq``; the lift is D times the translated triangle.  With
    ``translated`` the boxes are those of the lifts moved by
    ``(e, e^2, e^3)``, ``e -> 0+``: a lift's box must start strictly
    before the segment's ends, which on ints is at most one less.
    """
    den = math.lcm(mesh.den, common_denominator(itertools.chain(*segs)))
    k = den // mesh.den
    tris = [tuple(vscale(k, p) for p in lift) for lift in mesh._lifts]
    boxes = [bbox(tri) for tri in tris]
    lifted = [(vlift(p, den), vlift(q, den)) for p, q in segs]

    def contacts():
        for p, q in lifted:
            smin, smax = bbox((p, q))
            if translated:
                smax = (smax[0] - 1, smax[1] - 1, smax[2] - 1)
            for t, (tri, (tmin, tmax)) in enumerate(zip(tris, boxes)):
                for v in lattice_translates(smin, smax, tmin, tmax, den):
                    yield t, v, p, q, _shift_tri(tri, vscale(den, v))

    return den, contacts()


def crossings_mod2_with_generic_translate(mesh, segs):
    """Parity of crossings of closed curves (given as segments) with a
    generic translate of the mesh.

    The translate is ``(e, e^2, e^3)`` in the limit ``e -> 0+``, which
    decides every contact (:func:`segment_crosses_translate`).  The parity
    is the mod-2 intersection number of the closed curves with the closed
    surface, the same for every transverse translate.
    """
    _, contacts = _segment_contacts(mesh, segs, translated=True)
    normals = mesh._normals  # scaling a lift by k > 0 scales its normal by k^2
    return sum(
        segment_crosses_translate(p, q, tri, normals[t]) for t, _, p, q, tri in contacts
    ) % 2


def mesh_segment_hits(mesh, segs):
    """Strict hits of 3-space segments on the mesh itself (no translate).

    Returns ``(triangle, point)`` pairs with the point written in the
    triangle's own lift frame.  Raises :class:`GenericityError` on any
    non-transverse contact.
    """
    hits = []
    den, contacts = _segment_contacts(mesh, segs)
    for t, v, p, q, tri in contacts:
        h = segment_triangle_hit(p, q, tri)
        if h is None:
            continue
        if h is DEGENERATE:
            raise GenericityError(f"non-transverse contact with triangle {t} + {v}")
        hits.append((t, vsub(from_homogeneous((*h.hp[:3], h.hp[3] * den)), v)))
    return hits


# ---------------------------------------------------------------------------
# the degree-2 identity


def herbert_lhs_r2(mesh):
    """Parity of crossings of the double circles with a generic translate
    of the mapped surface."""
    require_general_position(mesh)
    segs = [(s.p, s.q) for s in mesh.double_segments()]
    return crossings_mod2_with_generic_translate(mesh, segs)


def herbert_rhs_r2_parts(mesh):
    """(triple-point parity, orientation-transport parity over the
    double-locus preimage circles)."""
    triples = mesh.triple_points()
    curves = mesh.double_curves()
    w1_sum = sum(pc.w1 for dc in curves for pc in dc.preimages)
    return (len(triples) % 2, w1_sum % 2)


# ---------------------------------------------------------------------------
# cycles on the source surface and the degree-1 identity along them


class MeshCycle:
    """A closed polygonal cycle drawn on the source surface.

    The cycle is a list of marks ``(triangle, a, b)`` with barycentric
    reading ``(1 - a - b) V0 + a V1 + b V2``.  Interior marks have all
    three weights positive.  A crossing into the next chart is written as
    a mark with exactly one zero weight, placed on the edge being crossed
    and expressed in the chart being exited; the entry point in the next
    chart is implied by the edge identification.  The first mark must be
    interior, and consecutive marks must share a chart or be linked by an
    edge crossing.

    Every mark lies in its closed triangle, and a triangle is convex, so a
    segment between two marks leaves its chart only by running along an
    edge: exactly when the walk leaves a chart by the edge it entered it
    through, which is refused as riding a chart boundary.
    """

    def __init__(self, mesh, marks):
        if not marks:
            raise CycleError("a cycle needs at least one mark")
        self.mesh = mesh
        self.marks = tuple(
            (int(t), rat(a), rat(b)) for t, a, b in marks
        )
        for t, a, b in self.marks:
            if not 0 <= t < len(mesh.triangles):
                raise CycleError(f"mark names missing triangle {t}")
        if self._zero_count(self.marks[0]) != 0:
            raise CycleError("a cycle must start at an interior mark")
        self._assemble()

    @staticmethod
    def _weights(mark):
        _, a, b = mark
        return (ONE - a - b, a, b)

    @classmethod
    def _zero_count(cls, mark):
        w = cls._weights(mark)
        if any(c < 0 for c in w):
            raise CycleError(f"mark weights out of range: {mark}")
        return sum(1 for c in w if c == 0)

    def _mark_point(self, mark):
        t = mark[0]
        w = self._weights(mark)
        tri = self.mesh.triangles[t]
        return vadd(
            vadd(vscale(w[0], tri[0]), vscale(w[1], tri[1])),
            vscale(w[2], tri[2]),
        )

    def _assemble(self):
        mesh = self.mesh
        segments = []
        crossed = []
        cur_tri = self.marks[0][0]
        cur_pt = self._mark_point(self.marks[0])
        entered = None  # the (triangle, edge) slot the walk entered cur_tri by
        rides = False
        for mark in self.marks[1:] + (self.marks[0],):
            zeros = self._zero_count(mark)
            if zeros > 1:
                raise CycleError(f"mark passes through a vertex: {mark}")
            if mark[0] != cur_tri:
                raise CycleError(
                    f"mark {mark} is not in the current chart {cur_tri}"
                )
            x = self._mark_point(mark)
            if x == cur_pt:
                raise CycleError("repeated cycle point")
            segments.append((cur_tri, cur_pt, x))
            if zeros == 0:
                cur_pt = x
                entered = None
                continue
            w = self._weights(mark)
            zero_at = w.index(ZERO)
            slot = (cur_tri, (zero_at + 1) % 3)
            rides = rides or slot == entered
            mi, side = mesh._slot_of[slot]
            m = mesh.matches[mi]
            if side == 0:
                entered = m.slot_b
                cur_pt = vsub(x, m.rel_shift)
            else:
                entered = m.slot_a
                cur_pt = vadd(x, m.rel_shift)
            cur_tri = entered[0]
            crossed.append(m)
        if cur_pt != self._mark_point(self.marks[0]) or cur_tri != self.marks[0][0]:
            raise CycleError("cycle does not close up")
        if rides:
            raise CycleError("cycle rides a chart boundary")
        self.segments = tuple(segments)
        self.crossed = tuple(crossed)

    def transport_bit(self):
        """Orientation transport of the surface along the cycle."""
        bit = 0
        for m in self.crossed:
            bit ^= m.flip
        return bit


def herbert_lhs_r1_cycle(mesh, cycle):
    """Parity of crossings of the mapped cycle with a generic translate of
    the mapped surface."""
    require_general_position(mesh)
    segs = [(p, q) for (_, p, q) in cycle.segments]
    return crossings_mod2_with_generic_translate(mesh, segs)


def herbert_rhs_r1_cycle_parts(mesh, cycle):
    """(parity of crossings with the double-locus preimage, orientation
    transport along the cycle)."""
    curves = mesh.double_curves()
    count = 0
    for (t, p, q) in cycle.segments:
        chart = mesh.chart(t)
        for dc in curves:
            for pc in dc.preimages:
                for (at, ap, aq) in pc.arcs:
                    if at != t:
                        continue
                    h = seg_intersect(chart.points((p, q)), chart.points((ap, aq)))
                    if h is None:
                        continue
                    if not strict_crossing(h):
                        raise CycleError(
                            "cycle-tangency: cycle meets the double-locus "
                            "preimage non-transversally"
                        )
                    count += 1
    return (count % 2, cycle.transport_bit())


# ---------------------------------------------------------------------------
# builders


def parallelogram_torus(p0, u, v):
    """Two triangles tiling the parallelogram torus spanned by integer
    vectors ``u`` and ``v`` based at ``p0``, split along the diagonal
    from ``p0 + u`` to ``p0 + v``."""
    p0 = _point3(p0)
    a = vadd(p0, u)
    c = vadd(a, v)
    d = vadd(p0, v)
    return ((p0, a, d), (a, c, d))


def coordinate_torus(axis, level, offset=0):
    """The flat torus of all points with coordinate ``axis`` equal to
    ``level``, triangulated over a unit square starting at ``offset`` in
    both remaining coordinates."""
    level = rat(level)
    o = rat(offset)
    if axis == 2:
        p0, u, v = (o, o, level), (1, 0, 0), (0, 1, 0)
    elif axis == 1:
        p0, u, v = (o, level, o), (1, 0, 0), (0, 0, 1)
    elif axis == 0:
        p0, u, v = (level, o, o), (0, 1, 0), (0, 0, 1)
    else:
        raise ValueError(f"axis must be 0, 1 or 2, not {axis!r}")
    return parallelogram_torus(p0, u, v)


__all__ = [
    "MeshBuildError",
    "GeneralPositionError",
    "GenericityError",
    "CycleError",
    "EdgeMatch",
    "DoubleSegment",
    "GeneralPositionCert3",
    "PreimageCircle",
    "DoubleCurve",
    "TriplePoint",
    "TriplePointSet",
    "Mesh3",
    "vertex_adjacent_contact",
    "require_general_position",
    "ambient_class_h2",
    "crossings_mod2_with_generic_translate",
    "mesh_segment_hits",
    "herbert_lhs_r2",
    "herbert_rhs_r2_parts",
    "MeshCycle",
    "herbert_lhs_r1_cycle",
    "herbert_rhs_r1_cycle_parts",
    "parallelogram_torus",
    "coordinate_torus",
]
