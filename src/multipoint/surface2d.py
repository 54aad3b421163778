"""Closed surfaces glued from unit squares.

A complex is a set of unit squares with their boundary edges glued in
pairs by isometries.  Each edge of each square carries a frame (base
point, tangent along the edge, outward normal); the gluing transition is
the unique affine map sending one frame onto the other, reversed in the
outward direction, with an optional flip along the edge.  The linear part
is a signed permutation matrix, so transitions preserve the L1 norm, and
its determinant records whether the gluing preserves orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import rat
from .exactgeom import SQUARE_EDGES, InputError, Transform2, UnionFind

EDGE_NAMES = tuple(SQUARE_EDGES)

# edge frames: base point, tangent along the edge, outward normal
_FRAMES = {
    "E": ((1, 0), (0, 1), (1, 0)),
    "W": ((0, 0), (0, 1), (-1, 0)),
    "N": ((0, 1), (1, 0), (0, 1)),
    "S": ((0, 0), (1, 0), (0, -1)),
}

# square corners indexed 0..3; each is met by two edges
_CORNER_OF_EDGE_END = {
    ("E", 0): 1, ("E", 1): 2,
    ("W", 0): 0, ("W", 1): 3,
    ("N", 0): 3, ("N", 1): 2,
    ("S", 0): 0, ("S", 1): 1,
}
_EDGES_OF_CORNER = {0: ("W", "S"), 1: ("E", "S"), 2: ("E", "N"), 3: ("W", "N")}


def edge_transition(edge_a: str, edge_b: str, flip: bool) -> Transform2:
    """Affine gluing map from the chart containing ``edge_a`` onto the
    chart containing ``edge_b``."""
    base_a, tan_a, out_a = _FRAMES[edge_a]
    base_b, tan_b, out_b = _FRAMES[edge_b]
    p = (-out_b[0], -out_b[1])
    q = (-tan_b[0], -tan_b[1]) if flip else tan_b
    # linear part A with A out_a = p and A tan_a = q (frames are axis-aligned)
    a = p[0] * out_a[0] + q[0] * tan_a[0]
    b = p[0] * out_a[1] + q[0] * tan_a[1]
    c = p[1] * out_a[0] + q[1] * tan_a[0]
    d = p[1] * out_a[1] + q[1] * tan_a[1]
    bb = (base_b[0] + tan_b[0], base_b[1] + tan_b[1]) if flip else base_b
    e = bb[0] - (a * base_a[0] + b * base_a[1])
    f = bb[1] - (c * base_a[0] + d * base_a[1])
    return Transform2(rat(a), rat(b), rat(c), rat(d), rat(e), rat(f))


# the 32 gluing maps, one per (edge_a, edge_b, flip), built once
_TRANSITIONS = {
    (edge_a, edge_b, flip): edge_transition(edge_a, edge_b, flip)
    for edge_a in EDGE_NAMES
    for edge_b in EDGE_NAMES
    for flip in (False, True)
}


@dataclass(frozen=True)
class Gluing:
    """One identification of two distinct edge slots, possibly flipped."""

    square_a: int
    edge_a: str
    square_b: int
    edge_b: str
    flip: bool = False

    def normalized(self):
        if (self.square_a, self.edge_a) <= (self.square_b, self.edge_b):
            return self
        return Gluing(self.square_b, self.edge_b, self.square_a, self.edge_a, self.flip)


@dataclass(frozen=True)
class ComplexReport:
    ok: bool
    violations: tuple


class SquareComplex:
    """A closed surface built from ``num_squares`` unit squares."""

    def __init__(self, num_squares: int, gluings):
        if num_squares < 1:
            raise InputError("a complex needs at least one square")
        self.num_squares = num_squares
        glus = []
        for g in gluings:
            if not isinstance(g, Gluing):
                g = Gluing(*g)
            for sq, ed in ((g.square_a, g.edge_a), (g.square_b, g.edge_b)):
                if not (0 <= sq < num_squares):
                    raise InputError(f"square index {sq} out of range")
                if ed not in EDGE_NAMES:
                    raise InputError(f"unknown edge name {ed!r}")
            glus.append(g.normalized())
        self.gluings = tuple(sorted(glus, key=lambda g: (g.square_a, g.edge_a)))
        self._by_edge = {}
        self._build_report = None
        violations = []
        for g in self.gluings:
            if (g.square_a, g.edge_a) == (g.square_b, g.edge_b):
                violations.append(f"self-glued-edge {g.square_a}.{g.edge_a}")
                continue
            t_ab = _TRANSITIONS[(g.edge_a, g.edge_b, bool(g.flip))]
            t_ba = _TRANSITIONS[(g.edge_b, g.edge_a, bool(g.flip))]  # the inverse of t_ab
            sign = 1 if t_ab.det() < 0 else 0
            for (sq, ed, osq, oed, tr) in (
                (g.square_a, g.edge_a, g.square_b, g.edge_b, t_ab),
                (g.square_b, g.edge_b, g.square_a, g.edge_a, t_ba),
            ):
                if (sq, ed) in self._by_edge:
                    violations.append(f"duplicate-edge-slot {sq}.{ed}")
                else:
                    self._by_edge[(sq, ed)] = (osq, oed, g.flip, tr, sign)
        self._construction_violations = tuple(violations)

    # -- gluing lookups ----------------------------------------------------

    def glued(self, square: int, edge: str):
        """(other_square, other_edge, flip, transform, sign) across a slot."""
        return self._by_edge[(square, edge)]

    # -- validation ----------------------------------------------------------

    def validate(self) -> ComplexReport:
        if self._build_report is not None:
            return self._build_report
        violations = list(self._construction_violations)
        for sq in range(self.num_squares):
            for ed in EDGE_NAMES:
                if (sq, ed) not in self._by_edge:
                    violations.append(f"unglued-edge {sq}.{ed}")

        n = self.num_squares
        comp = UnionFind(n)
        for g in self.gluings:
            comp.union(g.square_a, g.square_b)
        if len({comp.find(sq) for sq in range(n)}) != 1:
            violations.append("disconnected")

        if not violations:
            # corner c of square sq is 4 * sq + c
            verts = UnionFind(4 * n)
            for g in self.gluings:
                for t in (0, 1):
                    t2 = 1 - t if g.flip else t
                    ca = _CORNER_OF_EDGE_END[(g.edge_a, t)]
                    cb = _CORNER_OF_EDGE_END[(g.edge_b, t2)]
                    verts.union(4 * g.square_a + ca, 4 * g.square_b + cb)
            vertex_count = len({verts.find(c) for c in range(4 * n)})
            if self._sigma_cycle_count() != 2 * vertex_count:
                violations.append("vertex-link-mismatch")

        self._build_report = ComplexReport(ok=not violations, violations=tuple(violations))
        return self._build_report

    def _sigma_step(self, flag):
        sq, corner, edge = flag
        osq, oed, flip, _, _ = self._by_edge[(sq, edge)]
        t = 0 if _CORNER_OF_EDGE_END[(edge, 0)] == corner else 1
        t2 = 1 - t if flip else t
        c2 = _CORNER_OF_EDGE_END[(oed, t2)]
        e2 = [e for e in _EDGES_OF_CORNER[c2] if e != oed][0]
        return (osq, c2, e2)

    def _sigma_cycle_count(self):
        """Cycles of the walk around vertices; two per vertex, one per direction."""
        todo = {
            (sq, c, e)
            for sq in range(self.num_squares)
            for c in range(4)
            for e in _EDGES_OF_CORNER[c]
        }
        cycles = 0
        while todo:
            start = todo.pop()
            cur = self._sigma_step(start)
            while cur != start:
                todo.remove(cur)
                cur = self._sigma_step(cur)
            cycles += 1
        return cycles

    # -- equality ------------------------------------------------------------

    def _key(self):
        return (self.num_squares, self.gluings)

    def __eq__(self, other):
        return isinstance(other, SquareComplex) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SquareComplex({self.num_squares}, {list(self.gluings)})"


__all__ = [
    "EDGE_NAMES",
    "edge_transition",
    "Gluing",
    "ComplexReport",
    "SquareComplex",
]
