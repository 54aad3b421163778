"""Square complexes: transitions and validation."""

import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import genus2_complex, klein_complex, torus_complex
from multipoint.rational import rat
from multipoint.surface2d import EDGE_NAMES, Gluing, SquareComplex, edge_transition

# frames used by the transition builder, restated for oracle checks
FRAME = {
    "E": ((rat(1), rat(0)), (rat(0), rat(1)), (rat(1), rat(0))),
    "W": ((rat(0), rat(0)), (rat(0), rat(1)), (rat(-1), rat(0))),
    "N": ((rat(0), rat(1)), (rat(1), rat(0)), (rat(0), rat(1))),
    "S": ((rat(0), rat(0)), (rat(1), rat(0)), (rat(0), rat(-1))),
}


def orientable(c):
    """Whether the squares 2-colour so that each gluing's orientation sign
    (1 when it reverses orientation) is the change of colour across it."""
    colour = {0: 0}
    stack = [0]
    while stack:
        sq = stack.pop()
        for ed in EDGE_NAMES:
            osq, _, _, _, sign = c.glued(sq, ed)
            if osq not in colour:
                colour[osq] = colour[sq] ^ sign
                stack.append(osq)
            elif colour[osq] != colour[sq] ^ sign:
                return False
    return True


def vertices_and_euler(c):
    """The vertex count and V - E + F of a valid complex: the corners of
    its squares identified across each gluing by the gluing's transition;
    n squares have 2n edges."""
    corners = [(sq, (rat(x), rat(y))) for sq in range(c.num_squares) for x in (0, 1) for y in (0, 1)]
    parent = {k: k for k in corners}

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for sq in range(c.num_squares):
        for ed in EDGE_NAMES:
            osq, _, _, tr, _ = c.glued(sq, ed)
            base, tan, _ = FRAME[ed]
            for p in (base, (base[0] + tan[0], base[1] + tan[1])):
                parent[find((sq, p))] = find((osq, tr.apply(p)))
    vertices = len({find(k) for k in corners})
    return vertices, vertices - c.num_squares


def test_transition_east_west_translation():
    t = edge_transition("E", "W", False)
    assert t.apply((rat(1), rat(1, 3))) == (rat(0), rat(1, 3))
    assert t.apply((rat(5, 4), rat(1, 2))) == (rat(1, 4), rat(1, 2))
    assert t.det() == 1


def test_transition_east_west_flip():
    t = edge_transition("E", "W", True)
    assert t.apply((rat(1), rat(1, 3))) == (rat(0), rat(2, 3))
    assert t.apply((rat(5, 4), rat(1, 2))) == (rat(1, 4), rat(1, 2))
    assert t.det() == -1


def test_transition_north_south_translation():
    t = edge_transition("N", "S", False)
    assert t.apply((rat(1, 3), rat(1))) == (rat(1, 3), rat(0))
    assert t.det() == 1


@settings(max_examples=64, deadline=None)
@given(
    st.sampled_from(EDGE_NAMES),
    st.sampled_from(EDGE_NAMES),
    st.booleans(),
)
def test_transition_frame_conditions(ea, eb, flip):
    t = edge_transition(ea, eb, flip)

    def linear(v):
        return (t.a * v[0] + t.b * v[1], t.c * v[0] + t.d * v[1])

    base_a, tan_a, out_a = FRAME[ea]
    base_b, tan_b, out_b = FRAME[eb]
    # edge maps onto edge with the right endpoint order
    end_a = (base_a[0] + tan_a[0], base_a[1] + tan_a[1])
    end_b = (base_b[0] + tan_b[0], base_b[1] + tan_b[1])
    if flip:
        assert t.apply(base_a) == end_b and t.apply(end_a) == base_b
    else:
        assert t.apply(base_a) == base_b and t.apply(end_a) == end_b
    # outward direction reverses
    assert linear(out_a) == (-out_b[0], -out_b[1])
    # linear part is a signed permutation: L1 norms preserved
    assert abs(t.det()) == 1
    for v in ((rat(1), rat(0)), (rat(0), rat(1))):
        img = linear(v)
        assert abs(img[0]) + abs(img[1]) == 1
    # the reverse transition with the same flip is the exact inverse
    back = edge_transition(eb, ea, flip)
    assert back.apply(t.apply((rat(1, 3), rat(1, 7)))) == (rat(1, 3), rat(1, 7))


def test_torus_classification():
    c = torus_complex()
    rep = c.validate()
    assert rep.ok
    assert vertices_and_euler(c) == (1, 0)
    assert orientable(c)


def test_klein_classification():
    c = klein_complex()
    rep = c.validate()
    assert rep.ok and vertices_and_euler(c)[1] == 0
    assert not orientable(c)


def test_projective_plane_classification():
    c = SquareComplex(1, [(0, "E", 0, "W", True), (0, "N", 0, "S", True)])
    rep = c.validate()
    assert rep.ok and vertices_and_euler(c) == (2, 1)
    assert not orientable(c)


def test_pillowcase_sphere():
    # two squares sewn pointwise along all four edges
    c = SquareComplex(
        2,
        [
            (0, "E", 1, "E", False),
            (0, "W", 1, "W", False),
            (0, "N", 1, "N", False),
            (0, "S", 1, "S", False),
        ],
    )
    rep = c.validate()
    assert rep.ok, rep.violations
    assert vertices_and_euler(c) == (4, 2)
    assert orientable(c)


def test_two_squares_all_flips_make_a_torus():
    # flipping every sewing rotates the top square half a turn: a flat torus
    c = SquareComplex(
        2,
        [
            (0, "E", 1, "E", True),
            (0, "W", 1, "W", True),
            (0, "N", 1, "N", True),
            (0, "S", 1, "S", True),
        ],
    )
    rep = c.validate()
    assert rep.ok and vertices_and_euler(c) == (2, 0)
    assert orientable(c)


def test_genus2_classification():
    c = genus2_complex()
    rep = c.validate()
    assert rep.ok, rep.violations
    assert vertices_and_euler(c) == (2, -2)
    assert orientable(c)


def test_unglued_edge_reported():
    c = SquareComplex(1, [(0, "E", 0, "W", False)])
    rep = c.validate()
    assert not rep.ok
    assert any(v.startswith("unglued-edge") for v in rep.violations)


def test_self_glued_edge_reported():
    c = SquareComplex(1, [(0, "E", 0, "E", False), (0, "N", 0, "S", False)])
    rep = c.validate()
    assert any(v.startswith("self-glued-edge") for v in rep.violations)


def test_duplicate_slot_reported():
    c = SquareComplex(
        1,
        [(0, "E", 0, "W", False), (0, "E", 0, "N", False), (0, "S", 0, "N", False)],
    )
    rep = c.validate()
    assert any(v.startswith("duplicate-edge-slot") for v in rep.violations)


def test_disconnected_reported():
    c = SquareComplex(
        2,
        [
            (0, "E", 0, "W", False),
            (0, "N", 0, "S", False),
            (1, "E", 1, "W", False),
            (1, "N", 1, "S", False),
        ],
    )
    rep = c.validate()
    assert not rep.ok
    assert "disconnected" in rep.violations


def test_orientation_characters():
    # the sign of a slot is 1 when its gluing reverses orientation
    torus = torus_complex()
    klein = klein_complex()
    assert torus.glued(0, "E")[4] == torus.glued(0, "N")[4] == 0
    assert klein.glued(0, "E")[4] == klein.glued(0, "W")[4] == 1
    assert klein.glued(0, "N")[4] == 0


def test_complex_equality_is_structural():
    a = torus_complex()
    b = SquareComplex(1, [Gluing(0, "W", 0, "E", False), Gluing(0, "S", 0, "N", False)])
    assert a == b  # gluing slots normalize to the same order
    assert a != klein_complex()


def _pairings(slots):
    """Every way to split ``slots`` into pairs."""
    if not slots:
        yield []
        return
    for k in range(1, len(slots)):
        for rest in _pairings(slots[1:k] + slots[k + 1 :]):
            yield [(slots[0], slots[k])] + rest


def every_closed_gluing(num_squares):
    """Every gluing of ``num_squares`` squares with each edge slot glued
    once: each pairing of the slots, with each choice of flips."""
    slots = [(sq, ed) for sq in range(num_squares) for ed in EDGE_NAMES]
    for pairs in _pairings(slots):
        for flips in itertools.product((False, True), repeat=len(pairs)):
            yield [(*a, *b, flip) for (a, b), flip in zip(pairs, flips)]


def random_gluing(rng):
    """A random gluing of 3-6 squares: a random pairing of the edge slots
    with random flips, then most often one fault: a gluing dropped, a slot
    glued twice (re-glued, or by an extra gluing) or a slot glued to
    itself."""
    n = rng.randint(3, 6)
    slots = [(sq, ed) for sq in range(n) for ed in EDGE_NAMES]
    rng.shuffle(slots)
    gluings = [(*slots[k], *slots[k + 1], rng.random() < 0.5) for k in range(0, len(slots), 2)]
    fault = rng.randrange(5)
    sq, ed, _, _, flip = gluings[-1]
    if fault == 1:
        gluings.pop()
    elif fault == 2:
        gluings[-1] = (sq, ed, *slots[0], flip)
    elif fault == 3:
        gluings.append((*slots[0], *slots[2], flip))
    elif fault == 4:
        gluings[-1] = (sq, ed, sq, ed, flip)
    return n, gluings


def test_validate_is_the_verdict_that_walks_the_vertex_links():
    # Gluing every edge slot exactly once makes every vertex a disk, so
    # validate() needs no walk around the corners: it equals the verdict
    # that still counts the walk's cycles, two per vertex.
    cases = [(n, g) for n in (1, 2) for g in every_closed_gluing(n)]
    assert len(cases) == 12 + 1680
    rng = random.Random(0)
    cases += [random_gluing(rng) for _ in range(2000)]
    names = Counter()
    for n, gluings in cases:
        rep = SquareComplex(n, gluings).validate()
        verdict = oracles.complex_verdict(n, gluings)
        assert (rep.ok, sorted(rep.violations)) == verdict, (n, gluings)
        names.update({v.split()[0] for v in verdict[1]} or {"ok"})
    assert set(names) == {
        "ok", "self-glued-edge", "duplicate-edge-slot", "unglued-edge", "disconnected"
    }
    assert names["ok"] > 1000 and names["duplicate-edge-slot"] > 500
