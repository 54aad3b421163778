"""Scene text for the ``tori-large`` workload, built without the package.

Each scene is an ``immersion3`` of 5 to 8 flat sheets in the 3-torus.  A
sheet is a coordinate torus or an integer-sheared parallelogram torus; its
level and both offsets share one prime denominator near 1000, and no two
sheets of a scene share a prime.  Exact coincidences between sheets would
need two of these fractions to agree modulo 1, which distinct prime
denominators rule out, so every scene is in general position without a
certify-and-retry loop.  About half the sheets are midpoint-subdivided
once, which gives 22 to 40 triangles per scene.

The structure of scene ``i`` (sheet count ``n = 5 + i % 4``, axes
cycling over the three directions, every third sheet sheared in a
direction fixed by ``i``, every second sheet subdivided) depends only on
``i``; the seed picks the primes, levels, offsets and the first axis.  So every run
sees the same mix of scene sizes, and the text is a pure function of
``(seed, i)``.
"""

import random
from fractions import Fraction

PRIMES = tuple(
    p for p in range(900, 1100) if all(p % d for d in range(2, int(p**0.5) + 1))
)
SHEARS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1))
ROUND = 4  # scenes per round: one each of 5, 6, 7 and 8 sheets


def _fmt(x):
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _nonzero(rng, q):
    """A numerator in [-q/2, q/2) that is not a multiple of q."""
    while True:
        r = rng.randrange(-(q // 2), q // 2)
        if r:
            return r


def _sheet(rng, q, axis, shear):
    """The two triangles of one sheet, with denominators dividing q."""
    spans = [k for k in range(3) if k != axis]
    s1, s2 = shear
    u, v, p0 = [0, 0, 0], [0, 0, 0], [Fraction(0)] * 3
    u[spans[0]], u[axis] = 1, s1
    v[spans[1]], v[axis] = 1, s2
    p0[axis] = Fraction(rng.randrange(1, q), q)
    p0[spans[0]] = Fraction(_nonzero(rng, q), q)
    p0[spans[1]] = Fraction(_nonzero(rng, q), q)
    a = tuple(p0[k] + u[k] for k in range(3))
    c = tuple(a[k] + v[k] for k in range(3))
    d = tuple(p0[k] + v[k] for k in range(3))
    return [(tuple(p0), a, d), (a, c, d)]


def _midpoint(p, q):
    return tuple((x + y) / 2 for x, y in zip(p, q))


def _subdivide(triangles):
    out = []
    for a, b, c in triangles:
        ab, bc, ca = _midpoint(a, b), _midpoint(b, c), _midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return out


def scene_text(seed, index):
    """Scene ``index`` of the stream for ``seed``, as scene-file text."""
    rng = random.Random(f"tori-large/{seed}/{index}")
    n = 5 + index % ROUND
    primes = rng.sample(PRIMES, n)
    first_axis = rng.randrange(3)
    triangles = []
    for k in range(n):
        # every third sheet is sheared, in a direction fixed by (index, k)
        shear = SHEARS[(index + k) % len(SHEARS)] if k % 3 == 2 else (0, 0)
        tris = _sheet(rng, primes[k], (first_axis + k) % 3, shear)
        triangles.extend(_subdivide(tris) if k % 2 else tris)  # n // 2 subdivided
    lines = ["immersion3 f"]
    lines.extend(
        "tri " + " ".join(_fmt(c) for p in tri for c in p) for tri in triangles
    )
    return "\n".join(lines) + "\n\nverify f\n"
