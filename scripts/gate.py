#!/usr/bin/env python3
"""Run the standing gates on the working tree and on a reference commit.

The reference tree is unpacked with ``git archive REF`` into a temporary
directory.  Each gate runs on both trees, each with its own ``src`` on
PYTHONPATH and its own ``docs`` and ``scripts``, and their stdout bytes
and exit codes are compared:

- ``verify --machine`` and ``explain`` on every ``docs/*.scene``;
- ``scripts/fuzz_campaign.py --machine`` on curves (seeds 0-499, at the
  default shape and at ``--components 2 2``), tori (0-99) and laws (0-99).

Then the golden pin of the bordism outputs, ``tests/test_bordism_golden.py``,
runs on the working tree and prints ``correct`` or ``WRONG``.  Then
``bench/run.py --seconds 1`` runs on a copy of the working tree for
every workload at seeds 0-9, and its ``correct`` field is reported.

First the line count of ``src/multipoint`` (the newlines of its ``.py``
files, as ``wc -l`` counts them) is printed for REF and for the working
tree.  Then one line is printed per gate: ``same``, or ``DIFFERS`` with
the first differing line.  The exit code is 1 when any gate differs, the
golden pin fails or any bench run is not correct.  Nothing is written outside the
temporary directory.

Example:
    python3 scripts/gate.py HEAD~1
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CAMPAIGNS = (
    ["--count", "500"],
    ["--components", "2", "2", "--count", "500"],
    ["--universe", "tori", "--count", "100"],
    ["--universe", "laws", "--count", "100"],
)
WORKLOADS = ("curves-fuzz", "tori-large", "algebra", "tori-fuzz")
BENCH_SEEDS = range(10)


def run(tree, args):
    """``(exit code, stdout)`` of ``python args`` run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True
    )
    return done.returncode, done.stdout


def package_lines(tree):
    """The line count of the ``.py`` files of ``src/multipoint`` in ``tree``."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "multipoint").glob("*.py"))


def first_difference(ref, work):
    """The first differing line of two ``(exit code, stdout)`` results."""
    if ref[0] != work[0]:
        return f"exit {ref[0]} at REF, {work[0]} here"
    a, b = ref[1].splitlines(), work[1].splitlines()
    for n, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {n}: {x!r} at REF, {y!r} here"
    if len(a) == len(b):
        return "only the line ends differ"
    n = min(len(a), len(b)) + 1
    return f"line {n}: REF has {len(a)} lines, here {len(b)}"


def bench_correct(stdout):
    """Whether a bench run's last line is a result with ``"correct": true``."""
    try:
        return json.loads(stdout.splitlines()[-1])["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        return False


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="multipoint-gate-") as tmp:
        ref_tree = Path(tmp) / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True
        )
        if archive.returncode:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive.stdout, check=True)
        print(
            f"lines    src/multipoint: {package_lines(ref_tree)} at REF, "
            f"{package_lines(ROOT)} here"
        )

        gates = []
        for scene in sorted((ROOT / "docs").glob("*.scene")):
            path = f"docs/{scene.name}"
            gates.append(["-m", "multipoint", "verify", path, "--machine"])
            gates.append(["-m", "multipoint", "explain", path])
        gates += [["scripts/fuzz_campaign.py", "--machine", *c] for c in CAMPAIGNS]
        failed = False
        for args in gates:
            before, after = run(ref_tree, args), run(ROOT, args)
            name = " ".join(args[2:] if args[0] == "-m" else args)
            if before == after:
                print(f"same     {name}")
            else:
                print(f"DIFFERS  {name}: {first_difference(before, after)}")
                failed = True

        pin = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_bordism_golden.py"]
        pinned = run(ROOT, pin)[0] == 0
        print(f"{'correct' if pinned else 'WRONG':8s} pytest tests/test_bordism_golden.py")
        failed = failed or not pinned

        # the bench writes its results next to itself: run it on a copy
        work_tree = Path(tmp) / "work"
        skip = shutil.ignore_patterns("__pycache__", ".bench_out")
        for part in ("src", "bench", "docs"):
            shutil.copytree(ROOT / part, work_tree / part, ignore=skip)
        shutil.copy(ROOT / "BENCHMARK.json", work_tree)
        for workload in WORKLOADS:
            correct = 0
            for seed in BENCH_SEEDS:
                args = ["bench/run.py", "--workload", workload, "--seed", str(seed)]
                correct += bench_correct(run(work_tree, [*args, "--seconds", "1"])[1])
            print(
                f"{'correct' if correct == len(BENCH_SEEDS) else 'WRONG':8s} "
                f"bench/run.py --workload {workload} --seconds 1: "
                f"{correct} of {len(BENCH_SEEDS)} seeds correct"
            )
            failed = failed or correct != len(BENCH_SEEDS)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
