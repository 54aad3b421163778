"""Correctness checks shared by every workload.

:func:`corpus_gate` runs ``multipoint verify <file> --machine`` over every
``docs/*.scene`` and checks the hand-derived anchor values of acceptance
criterion 1.  :func:`check_digest` compares the hash of a pass's output
with the value recorded in ``digests.json`` for the workload and seed.
"""

import contextlib
import io
import json
import time
from pathlib import Path

from multipoint import cli, scene

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# (lhs, mu, euler) per row, from the derivations in the scene files.
ANCHORS = {
    "figure-eight.scene": [(0, 0, 0)],
    "two-loops.scene": [(1, 1, 0), (1, 1, 0)],
    "klein-core.scene": [(1, 0, 1)],
    "three-tori.scene": [(1, 1, 0)],
}
THREE_TORI_DOUBLE_CURVES = 3
THREE_TORI_TRIPLE_POINTS = 1


class GateError(RuntimeError):
    """The program produced output that disagrees with a known answer."""


def _machine_rows(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", str(path), "--machine"])
    lines = buf.getvalue().splitlines()
    if code != 0 or not lines or not lines[0].startswith("scene\t"):
        raise GateError(f"{path.name}: verify --machine exited {code}")
    rows = [line.split("\t") for line in lines[1:]]
    if any(row[-1] != "PASS" for row in rows):
        raise GateError(f"{path.name}: not every row passes")
    return [tuple(int(x) for x in row[3:6]) for row in rows]


def corpus_gate(docs):
    """Check the corpus; return the wall time of the CLI pass in ms."""
    files = sorted(Path(docs).glob("*.scene"))
    if not set(ANCHORS) <= {f.name for f in files}:
        raise GateError(f"anchor scenes missing under {docs}")
    start = time.perf_counter()
    rows = {f.name: _machine_rows(f) for f in files}
    corpus_ms = (time.perf_counter() - start) * 1000.0
    for name, expected in ANCHORS.items():
        if rows[name] != expected:
            raise GateError(f"{name}: rows {rows[name]}, expected {expected}")
    mesh = scene.parse_scene((Path(docs) / "three-tori.scene").read_text()).mesh("f")
    counts = (len(mesh.double_curves()), len(mesh.triple_points()))
    if counts != (THREE_TORI_DOUBLE_CURVES, THREE_TORI_TRIPLE_POINTS):
        raise GateError(f"three-tori.scene: (double curves, triple points) = {counts}")
    return corpus_ms


def recorded_digest(workload, seed):
    """The recorded digest for this workload and seed, or None."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def check_digest(workload, seed, digest):
    """Raise :class:`GateError` when a recorded digest disagrees."""
    expected = recorded_digest(workload, seed)
    if expected is not None and expected != digest:
        raise GateError(
            f"{workload} seed {seed}: output digest {digest} "
            f"differs from the recorded {expected}"
        )
