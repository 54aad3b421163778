#!/usr/bin/env python3
"""Self-tests of the benchmark, and the tool that records output digests.

    python3 bench/selftest.py                    # every check below
    python3 bench/selftest.py --record 0-9       # rewrite digests.json
    python3 bench/selftest.py --record 0-9 --workload algebra   # one workload

Checks:
  * the ``tori-large`` scene builder is a pure function of (seed, index),
    also across processes with different hash seeds;
  * every ``tori-large`` scene a default-seed run can use certifies;
  * the tracer rebinds each traced function in every module that holds
    it, and restores the originals afterwards;
  * two traced runs (separate processes) report identical ``calls``
    counts on every workload.
"""

import argparse
import json
import os
import subprocess
import sys

import run

gate, tracer, workloads = run._import_package()

import scenes  # noqa: E402
from multipoint import scene as scene_mod  # noqa: E402

DEFAULT_SEED = 0


def check_scene_builder_is_pure():
    for seed in (0, 1, 2**32 - 1):
        for index in (0, 1, 2, 3, 10**6):
            assert scenes.scene_text(seed, index) == scenes.scene_text(seed, index)
    assert scenes.scene_text(0, 0) != scenes.scene_text(1, 0)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scenes; "
        "print(scenes.scene_text(0, 5), end='')"
    )
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code, str(run.BENCH)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out == scenes.scene_text(0, 5), "scene text depends on the process"


def check_default_scenes_certify():
    wl = workloads.ToriLarge()
    wl.setup(DEFAULT_SEED)
    for k, text in enumerate(wl.texts + [wl.warmup_text]):
        mesh = scene_mod.parse_scene(text).mesh("f")
        cert = mesh.certify()
        assert cert.ok, f"default-seed scene {k} does not certify: {cert.violation_names}"
        n = len(mesh.triangles)
        assert 22 <= n <= 40, f"scene {k} has {n} triangles"


def check_rebinding():
    modules = tracer._package_modules()
    originals = {}
    for _, modname, attr in tracer.FUNCTIONS:
        mod = next(m for m in modules if m.__name__.endswith("." + modname))
        originals[(modname, attr)] = getattr(mod, attr)
    holders = {
        key: [(m, k) for m in modules for k, v in vars(m).items() if v is fn]
        for key, fn in originals.items()
    }
    assert len(holders[("exactgeom", "seg_intersect")]) >= 4
    tr = tracer.Tracer()
    with tr.installed():
        for key, places in holders.items():
            for mod, name in places:
                assert getattr(mod, name) is not originals[key], (key, mod.__name__)
    for key, places in holders.items():
        for mod, name in places:
            assert getattr(mod, name) is originals[key], (key, mod.__name__)


def _traced_calls(workload):
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}


def check_traced_calls_repeat():
    for name in sorted(workloads.WORKLOADS):
        first, second = _traced_calls(name), _traced_calls(name)
        assert first == second, f"{name}: calls differ between traced runs"
        print(f"  {name}: {len(first)} call counts repeat exactly")


def record_digests(seeds, names):
    """Recompute the output digests of the named workloads for the given seeds."""
    table = json.loads(gate.DIGESTS.read_text(encoding="utf-8"))
    for name in names:
        wl = workloads.WORKLOADS[name]()
        for seed in seeds:
            run.setup_pass(gate, wl, seed)
            tally, _ = run.run_pass(wl, range(wl.ops))
            if tally.failed:
                raise SystemExit(f"{name} seed {seed}: {tally.failed} ops failed")
            table.setdefault(name, {})[str(seed)] = tally.digest
            print(f"  {name} seed {seed}: {tally.digest}", flush=True)
    gate.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LO-HI", type=_seed_range,
                        help="rewrite digests.json for these seeds")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="with --record: only this workload (repeatable)")
    args = parser.parse_args(argv)
    if args.record is not None:
        record_digests(args.record, args.workload or sorted(workloads.WORKLOADS))
        return 0
    checks = [
        ("scene builder is pure", check_scene_builder_is_pure),
        ("default-seed tori-large scenes certify", check_default_scenes_certify),
        ("tracer rebinds every holder and restores", check_rebinding),
        ("traced call counts repeat", check_traced_calls_repeat),
    ]
    for label, check in checks:
        print(f"{label} ...", flush=True)
        check()
        print(f"{label}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
