"""Shared hypothesis strategies and small construction helpers for tests."""

from fractions import Fraction

from hypothesis import strategies as st

from multipoint.curves2d import double_points
from multipoint.exactgeom import from_homogeneous, vadd, vscale
from multipoint.rational import rat
from multipoint.surface2d import SquareComplex
from multipoint.surfaces3d import Mesh3


def to_rat(f: Fraction):
    return rat(f.numerator, f.denominator)


def hit_point(hit):
    """The rational point of a :class:`SegmentHit`."""
    return from_homogeneous(hit.hp)


def hit_params(hit):
    """The rational parameters of a :class:`SegmentHit` along its two
    segments; the second is None for a hit on a triangle."""
    return rat(hit.tn, hit.den), None if hit.un is None else rat(hit.un, hit.den)


def rationals(min_value=-2, max_value=2, max_denominator=16):
    return st.fractions(
        min_value=min_value, max_value=max_value, max_denominator=max_denominator
    ).map(to_rat)


def points2(**kw):
    return st.tuples(rationals(**kw), rationals(**kw))


def points3(**kw):
    return st.tuples(rationals(**kw), rationals(**kw), rationals(**kw))


def segments2(**kw):
    return st.tuples(points2(**kw), points2(**kw))


def nondegenerate_triangle3(**kw):
    from multipoint.exactgeom import cross3, vsub
    return (
        st.tuples(points3(**kw), points3(**kw), points3(**kw))
        .filter(lambda t: cross3(vsub(t[1], t[0]), vsub(t[2], t[0])) != (0, 0, 0))
    )


# -- fixtures --------------------------------------------------------------


def torus_complex():
    return SquareComplex(1, [(0, "E", 0, "W", False), (0, "N", 0, "S", False)])


def klein_complex():
    return SquareComplex(1, [(0, "E", 0, "W", True), (0, "N", 0, "S", False)])


def genus2_complex():
    """Four squares: 0,1,2 in a horizontal cycle, 3 stacked with 0.

    Squares 1 and 2 close vertically onto themselves; square 3 sits above
    square 0 and the pair closes vertically through each other, producing
    a genus-2 surface (Euler characteristic -2).
    """
    return SquareComplex(
        4,
        [
            (0, "E", 1, "W", False),
            (1, "E", 2, "W", False),
            (2, "E", 0, "W", False),
            (3, "E", 3, "W", False),
            (0, "N", 3, "S", False),
            (3, "N", 0, "S", False),
            (1, "N", 1, "S", False),
            (2, "N", 2, "S", False),
        ],
    )


def ordered_preimages(curve):
    """Both orderings of each double point's branch pair (closed under swap)."""
    out = []
    for dp in double_points(curve):
        b0, b1 = dp.branches
        out.append((dp, (b0, b1)))
        out.append((dp, (b1, b0)))
    return tuple(out)


def subdivide_mesh(mesh):
    """Midpoint quadrisection of every triangle; the result maps to the
    same surface of the 3-torus."""
    half = rat(1, 2)
    out = []
    for (a, b, c) in mesh.triangles:
        ab = vscale(half, vadd(a, b))
        bc = vscale(half, vadd(b, c))
        ca = vscale(half, vadd(c, a))
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return Mesh3(out)


def z_sheet(xs, zs, ys):
    """The torus ``z = h(x, y)`` in the 3-torus over the grid of columns
    ``xs`` and rows ``ys`` (each ascending, within one unit): h is
    ``zs[i]`` on column i and affine in x between columns, the last
    column joining the first one unit on.  Unequal heights fold the sheet
    along its columns."""
    n, m = len(xs), len(ys)

    def vertex(i, j):
        return (xs[i % n] + i // n, ys[j % m] + j // m, zs[i % n])

    triangles = []
    for i in range(n):
        for j in range(m):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            triangles += [(a, b, d), (b, c, d)]
    return Mesh3(triangles)


def diagonal_fold_sheet(h):
    """The torus ``z = h(x, y)`` in the 3-torus over 2 x 2 cells of side
    1/2, with height ``h[i][j]`` at the vertex ``(i/2, j/2)``: each cell is
    split along its diagonal from ``(i + 1, j)`` to ``(i, j + 1)``, so that
    unequal heights fold the sheet along grid lines and cell diagonals."""

    def vertex(i, j):
        return (rat(i, 2), rat(j, 2), h[i % 2][j % 2])

    triangles = []
    for i in range(2):
        for j in range(2):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            triangles += [(a, b, d), (b, c, d)]
    return Mesh3(triangles)
