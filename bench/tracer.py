"""Spans around the package's layer-boundary functions, recorded from outside it.

:class:`Tracer` wraps each traced function and rebinds the wrapper in
*every* ``multipoint`` module that holds the original by name (for
example ``seg_intersect`` is bound separately in ``exactgeom``,
``curves2d``, ``surfaces3d`` and ``bordism``); methods are rebound on their
class.  The originals are restored when the ``installed()`` block exits.

Spans are kept in memory as parallel arrays (name, start, end, parent,
op) and written out once at the end.  A span's self time is its duration
minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute): a module-level function of ``module``.
FUNCTIONS = (
    ("generate.generate", "generate", "generate"),
    ("scene.parse_scene", "scene", "parse_scene"),
    ("rational.parse_rational", "rational", "parse_rational"),
    ("curves2d.pairing_mod2", "curves2d", "pairing_mod2"),
    ("curves2d.degeneracy_scale_sq", "curves2d", "degeneracy_scale_sq"),
    ("curves2d.pushoff_all", "curves2d", "pushoff_all"),
    ("exactgeom.seg_intersect", "exactgeom", "seg_intersect"),
    ("exactgeom.pushoff_polyline", "exactgeom", "pushoff_polyline"),
    ("exactgeom.tri_tri_intersect", "exactgeom", "tri_tri_intersect"),
    ("exactgeom.segment_triangle_hit", "exactgeom", "segment_triangle_hit"),
    ("exactgeom.coplanar_tri_relation", "exactgeom", "coplanar_tri_relation"),
    ("surfaces3d.vertex_adjacent_contact", "surfaces3d", "vertex_adjacent_contact"),
    ("surfaces3d.lhs", "surfaces3d", "herbert_lhs_r2"),
    ("surfaces3d.lhs", "surfaces3d", "herbert_lhs_r1_cycle"),
    ("surfaces3d.rhs", "surfaces3d", "herbert_rhs_r2_parts"),
    ("surfaces3d.rhs", "surfaces3d", "herbert_rhs_r1_cycle_parts"),
    ("bordism.check_naturality", "bordism", "check_naturality"),
    ("bordism.check_cartan", "bordism", "check_cartan"),
    ("bordism.check_mu_tower", "bordism", "check_mu_tower"),
    ("herbert.verify", "herbert", "verify"),
)

# (span name, module, class, method): rebound once, on the class.
METHODS = (
    ("scene.build", "scene", "Scene", "multicurve"),
    ("scene.build", "scene", "Scene", "mesh"),
    ("scene.build", "scene", "Scene", "mesh_cycle"),
    ("surface2d.validate", "surface2d", "SquareComplex", "validate"),
    ("curves2d.certify", "curves2d", "MultiCurve", "certify"),
    ("surfaces3d.Mesh3", "surfaces3d", "Mesh3", "__init__"),
    ("surfaces3d.certify", "surfaces3d", "Mesh3", "certify"),
    ("surfaces3d.extract", "surfaces3d", "Mesh3", "double_curves"),
    ("surfaces3d.extract", "surfaces3d", "Mesh3", "triple_points"),
)

OP_SPAN = "op"


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "multipoint" or name.startswith("multipoint."))
    ]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self._op = -1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextlib.contextmanager
    def op_span(self, op_index):
        """The root span of one op; every span inside it carries its index."""
        self._op = op_index
        idx = self._open(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function and method; restore on exit."""
        restore = []
        try:
            modules = _package_modules()
            by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
            for span, modname, attr in FUNCTIONS:
                original = getattr(by_short[modname], attr)
                wrapper = self.wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for span, modname, clsname, attr in METHODS:
                cls = getattr(by_short[modname], clsname)
                original = cls.__dict__[attr]
                restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(span, original))
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def totals(self):
        """``{span name: (calls, self_ns)}`` summed over every span."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - child_ns[i]
        return {k: (calls[k], self_ns[k]) for k in calls}

    def write(self, path):
        """Write every span as a TSV row: op, span id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )
