#!/usr/bin/env python3
"""Run a seeded generate-and-verify campaign and print summary statistics.

With --machine every generated scene's TSV report goes to stdout (the
format of ``verify --machine``, byte-identical across runs) and the
summary goes to stderr, so two checkouts can be compared with diff, as
``scripts/verify_corpus.py --machine`` does for docs/.

Examples:
    python3 scripts/fuzz_campaign.py --count 200
    python3 scripts/fuzz_campaign.py --universe tori --count 50 --seed 7
    python3 scripts/fuzz_campaign.py --universe both --count 100 --histogram
    python3 scripts/fuzz_campaign.py --universe tori --count 100 --machine > tori.tsv
    python3 scripts/fuzz_campaign.py --components 2 2 --count 500 --machine > c22.tsv
"""

import argparse
import sys
import time
from collections import Counter

from multipoint import herbert
from multipoint.generate import (
    CURVE_AMBIENTS,
    GenerationError,
    GeneratorConfig,
    generate,
)


def curve_config(seed, components=(1, 2)):
    return GeneratorConfig(
        ambient=CURVE_AMBIENTS[seed % 3], seed=seed, components=components
    )


def tori_config(seed):
    return GeneratorConfig(
        universe="tori",
        ambient="t3-tori-catalog",
        components=(2, 3),
        seed=seed,
        with_cycle=seed % 2 == 0,
    )


def run_one(cfg):
    """(report, feature_count) for one generated scene."""
    scene = generate(cfg)
    if cfg.universe == "curves":
        curve = scene.multicurve("c")
        report = herbert.verify(curve, scene_id=f"seed{cfg.seed}")
        features = len(curve.certify().double_points)
    else:
        mesh = scene.mesh("f")
        targets = {n: scene.mesh_cycle(n, mesh) for n in scene.cycles}
        report = herbert.verify(
            mesh, targets=targets or None, scene_id=f"seed{cfg.seed}"
        )
        features = len(mesh.double_curves())
    return report, features


def campaign(universe, count, seed0, histogram, machine, components=(1, 2)):
    def curves(seed):
        return curve_config(seed, components)

    makers = {"curves": [curves], "tori": [tori_config]}.get(
        universe, [curves, tori_config]
    )
    out = sys.stderr if machine else sys.stdout
    failures = 0
    rows = 0
    feature_hist = Counter()
    t0 = time.perf_counter()
    for maker in makers:
        for i in range(count):
            cfg = maker(seed0 + i)
            try:
                report, features = run_one(cfg)
            except GenerationError as exc:
                print(f"seed {cfg.seed}: generation failed: {exc}")
                failures += 1
                continue
            if machine:
                sys.stdout.write(report.to_tsv())
            rows += len(report.rows)
            feature_hist[features] += 1
            if not report.all_pass:
                print(f"seed {cfg.seed} ({cfg.universe}): FAIL", file=out)
                failures += 1
    elapsed = time.perf_counter() - t0
    total = count * len(makers)
    print(
        f"{total - failures}/{total} scenes passed, {rows} identity rows, "
        f"{elapsed:.2f}s",
        file=out,
    )
    if histogram:
        kind = "double circles" if universe == "tori" else "double points"
        print(f"scenes by number of {kind}:", file=out)
        for k in sorted(feature_hist):
            print(f"  {k:3d}: {'#' * feature_hist[k]}", file=out)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--universe", choices=["curves", "tori", "both"], default="curves"
    )
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--components",
        nargs=2,
        type=int,
        default=(1, 2),
        metavar=("LO", "HI"),
        help="range of the number of components of a generated curve (default 1 2)",
    )
    parser.add_argument(
        "--histogram", action="store_true", help="print a feature-count histogram"
    )
    parser.add_argument(
        "--machine",
        action="store_true",
        help="print every scene's TSV report; the summary goes to stderr",
    )
    args = parser.parse_args(argv)
    failures = campaign(
        args.universe,
        args.count,
        args.seed,
        args.histogram,
        args.machine,
        tuple(args.components),
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
