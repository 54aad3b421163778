"""Machine verification of Herbert's identity on concrete scenes.

For a self-transverse immersion f the identity states, with mod-2
coefficients, ``f* n_r = m_(r+1) + e . m_r`` — the pullback of the r-fold
point class equals the (r+1)-fold preimage class plus the Euler-class
correction.  This module evaluates both sides exactly on the scenes this
package can represent: multicurves on square-tiled surfaces (r = 1, one
row per component), triangulated surfaces in the 3-torus (r = 2 on the
fundamental class, r = 1 on user-supplied cycles) — and emits structured
pass/fail reports.
"""

from dataclasses import dataclass

from .curves2d import (
    MultiCurve,
    double_points,
    herbert_lhs_r1,
    herbert_rhs_r1_parts,
    mu_count_r1,
)
from .exactgeom import GenericityError, require_general_position
from .rational import format_point, format_rational
from .surfaces3d import (
    CycleError,
    Mesh3,
    herbert_lhs_r1_cycle,
    herbert_lhs_r2,
    herbert_rhs_r1_cycle_parts,
    herbert_rhs_r2_parts,
)

TSV_COLUMNS = ("scene", "r", "target", "lhs", "mu", "euler", "verdict")


@dataclass(frozen=True)
class HerbertRow:
    """One evaluation of the identity against one target cycle."""

    target: str
    r: int
    lhs: object  # bit, or None when the row errored
    mu: object
    euler: object
    verdict: str  # PASS | FAIL | ERROR
    diagnostics: str = ""


@dataclass(frozen=True)
class HerbertReport:
    scene: str
    rows: tuple
    n_double: int
    n_triple: int

    @property
    def all_pass(self):
        return all(row.verdict == "PASS" for row in self.rows)

    def to_tsv(self):
        """Machine format: a header, then one tab-separated line per row."""
        lines = ["\t".join(TSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                "\t".join(
                    (
                        self.scene,
                        str(row.r),
                        row.target,
                        "-" if row.lhs is None else str(row.lhs),
                        "-" if row.mu is None else str(row.mu),
                        "-" if row.euler is None else str(row.euler),
                        row.verdict,
                    )
                )
            )
        return "\n".join(lines) + "\n"


def _row(target, r, lhs, mu, euler, diagnostics=""):
    verdict = "PASS" if lhs == (mu + euler) % 2 else "FAIL"
    return HerbertRow(target, r, lhs, mu, euler, verdict, diagnostics)


def _error_row(target, r, exc):
    return HerbertRow(target, r, None, None, None, "ERROR", str(exc))


def _verify_curve(curve):
    require_general_position(curve)
    dps = double_points(curve)
    rows = []
    for i in range(len(curve.components)):
        target = f"component[{i}]"
        try:
            lhs = herbert_lhs_r1(curve, i)
            mu, euler = herbert_rhs_r1_parts(curve, i)
        except GenericityError as exc:
            rows.append(_error_row(target, 1, exc))
            continue
        diag = (
            f"{mu_count_r1(curve, i)} ordered preimages on this component "
            f"of the {len(dps)} double point(s); transport bit {euler}"
        )
        rows.append(_row(target, 1, lhs, mu, euler, diag))
    return rows, len(dps), 0


def _verify_mesh(mesh, targets):
    require_general_position(mesh)
    curves = mesh.double_curves()
    triples = mesh.triple_points()
    lhs = herbert_lhs_r2(mesh)
    mu, euler = herbert_rhs_r2_parts(mesh)
    diag = (
        f"{len(triples)} triple points; "
        f"{sum(len(dc.preimages) for dc in curves)} preimage circles "
        f"over {len(curves)} double circles"
    )
    rows = [_row("[M]", 2, lhs, mu, euler, diag)]
    for name, cyc in (targets or {}).items():
        try:
            lhs = herbert_lhs_r1_cycle(mesh, cyc)
            mu, euler = herbert_rhs_r1_cycle_parts(mesh, cyc)
        except CycleError as exc:
            rows.append(_error_row(name, 1, exc))
            continue
        diag = (
            f"cycle crosses the double-locus preimage {mu} time(s) mod 2; "
            f"transport bit {euler}"
        )
        rows.append(_row(name, 1, lhs, mu, euler, diag))
    return rows, len(curves), len(triples)


def verify(scene, targets=None, scene_id="scene"):
    """Evaluate every applicable instance of the identity on a scene.

    ``scene`` is a :class:`MultiCurve` or a :class:`Mesh3`.  For meshes,
    ``targets`` optionally maps cycle names to :class:`MeshCycle` objects.
    """
    if isinstance(scene, MultiCurve):
        rows, n_double, n_triple = _verify_curve(scene)
    elif isinstance(scene, Mesh3):
        rows, n_double, n_triple = _verify_mesh(scene, targets)
    else:
        raise TypeError(f"cannot verify scenes of type {type(scene).__name__}")
    return HerbertReport(scene_id, tuple(rows), n_double, n_triple)


def _geometry_lines(scene):
    lines = []
    if isinstance(scene, MultiCurve):
        for ci, comp in enumerate(scene.components):
            pts = " ".join(
                f"s{sq}:{format_point(p)}" for sq, p in comp.vertices
            )
            lines.append(f"component[{ci}]: {pts}")
        for dp in double_points(scene):
            branches = ", ".join(
                f"(comp {c}, seg {s}, t={format_rational(t)})"
                for c, s, t in dp.branches
            )
            lines.append(
                f"double point s{dp.square}:{format_point(dp.point)} "
                f"from {branches}"
            )
    elif isinstance(scene, Mesh3):
        for ti, tri in enumerate(scene.triangles):
            lines.append(
                f"t{ti}: " + " ".join(format_point(p) for p in tri)
            )
        for ci, dc in enumerate(scene.double_curves()):
            lines.append(
                f"double circle {ci}: h1={dc.h1}, "
                f"{len(dc.preimages)} preimage circle(s) with w1 bits "
                f"{[pc.w1 for pc in dc.preimages]}"
            )
        for tp in scene.triple_points().points:
            pre = ", ".join(f"t{t}:{format_point(p)}" for t, p in tp.preimages)
            lines.append(f"triple point {format_point(tp.target)} over {pre}")
    return lines


def explain(report, scene):
    """A human-readable derivation of every row of a report on ``scene``."""
    lines = [
        f"scene {report.scene}: {report.n_double} double object(s), "
        f"{report.n_triple} triple point(s)"
    ]
    if report.n_double == 0 and report.n_triple == 0:
        if all((row.lhs, row.mu, row.euler) == (0, 0, 0) for row in report.rows):
            lines.append("no intersections: every identity instance is 0 = 0 + 0")
        else:
            lines.append("no intersections: mu is 0 on every row")
    lines.extend(_geometry_lines(scene))
    for row in report.rows:
        if row.verdict == "ERROR":
            lines.append(
                f"{row.target} (r={row.r}): ERROR {row.diagnostics}"
            )
            continue
        status = "" if row.verdict == "PASS" else "  <-- MISMATCH"
        lines.append(
            f"{row.target} (r={row.r}): lhs {row.lhs} = mu {row.mu} "
            f"+ euler {row.euler} (mod 2) [{row.verdict}]{status}"
        )
        if row.diagnostics:
            lines.append(f"  {row.diagnostics}")
    verdict = "ALL PASS" if report.all_pass else "NOT ALL ROWS PASS"
    lines.append(verdict)
    return "\n".join(lines) + "\n"


__all__ = [
    "HerbertReport",
    "HerbertRow",
    "TSV_COLUMNS",
    "explain",
    "verify",
]
