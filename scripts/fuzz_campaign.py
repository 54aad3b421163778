#!/usr/bin/env python3
"""Run a seeded generate-and-verify campaign and print summary statistics.

With --machine every generated scene's TSV report goes to stdout (the
format of ``verify --machine``, byte-identical across runs) and the
summary goes to stderr, so two checkouts can be compared with diff, as
``scripts/verify_corpus.py --machine`` does for docs/.

``--universe laws`` runs the bordism law checks instead, on generated
classes of the shapes that the law checks of criterion 3 draw: per seed, a
1|2-sheet and a 2|3-sheet tori mesh (naturality, Cartan r=2 and r=3,
mu-tower on each) and a curve pair on one complex (Cartan r=2 in both
orders).  It also runs every other operation that builds a union, on the
mesh pair and on the curve pair: ``add``, ``internal_product`` and
``pullback_class``; and the multiple-point classes that the law checks
read: ``psi_r(·, 2)`` and ``mu_r(·, 2)`` of each curve, and ``mu_r(·, 2)``
and ``mu_r(·, 3)`` of each mesh.  With --machine it prints every check's
report in full (verdict, detail, both sides and the Cartan pieces,
rationals as p/q) and every class in full (universe, note, payload and
structure; a curve or mesh payload as the double points, double curves and
triple points of its certificate), one line per operation, or the
exception that refused it with its message.

Examples:
    python3 scripts/fuzz_campaign.py --count 200
    python3 scripts/fuzz_campaign.py --universe tori --count 50 --seed 7
    python3 scripts/fuzz_campaign.py --universe both --count 100 --histogram
    python3 scripts/fuzz_campaign.py --universe tori --count 100 --machine > tori.tsv
    python3 scripts/fuzz_campaign.py --components 2 2 --count 500 --machine > c22.tsv
    python3 scripts/fuzz_campaign.py --universe laws --count 100 --machine > laws.tsv
"""

import argparse
import sys
import time
from collections import Counter

from multipoint import bordism, curves2d, herbert, surfaces3d
from multipoint.generate import (
    CURVE_AMBIENTS,
    TORI_AMBIENT,
    GenerationError,
    GeneratorConfig,
    generate,
)
from multipoint.rational import Rat, format_rational


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


# the package's refusals of a law check's union: not generic, or two
# generated sheets that coincide so that an edge is shared by four triangles
LAW_REFUSALS = (
    curves2d.GeneralPositionError,
    surfaces3d.GeneralPositionError,
    surfaces3d.MeshBuildError,
)


def _text(x):
    """A value of a law report as text: tuples in order, sets sorted, and
    rationals as p/q."""
    if isinstance(x, Rat):
        return format_rational(x)
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(_text(y) for y in x) + ")"
    if isinstance(x, (set, frozenset)):
        return "{" + ", ".join(sorted(_text(y) for y in x)) + "}"
    return repr(x)


def _class_text(cls):
    """A represented class as text: universe, note, payload and structure."""
    payload = cls.payload
    if isinstance(payload, curves2d.MultiCurve):
        payload = [(dp.square, dp.point, dp.branches) for dp in curves2d.double_points(payload)]
    elif isinstance(payload, surfaces3d.Mesh3):
        curves = [
            (dc.canonical, dc.h1, [(pc.arcs, pc.w1, pc.doubled) for pc in dc.preimages])
            for dc in payload.double_curves()
        ]
        triples = [(tp.target, tp.preimages) for tp in payload.triple_points().points]
        payload = (curves, triples)
    return f"{cls.universe}\t{cls.note}\t{_text(payload)}\t{_text(cls.structure)}"


def law_classes(seed):
    """The generated classes of one seed: two meshes and a curve pair."""

    def mesh(sheets, k):
        config = GeneratorConfig(
            universe="tori",
            ambient=TORI_AMBIENT,
            components=(sheets, sheets),
            seed=2 * seed + k,
        )
        return bordism.class_of_mesh(generate(config).mesh("f"))

    def curve(comps, k):
        config = GeneratorConfig(
            ambient=CURVE_AMBIENTS[seed % 3],
            components=(comps, comps),
            segments=(3 + seed % 4, 3 + seed % 4),
            seed=2 * seed + k,
        )
        return generate(config).multicurve("c")

    small, large = mesh(1 + seed % 2, 0), mesh(2 + seed % 2, 1)
    f_curve = curve(1 + seed % 2, 0)
    g_curve = curves2d.MultiCurve(f_curve.complex, curve(1 + (seed // 2) % 2, 1).components)
    return small, large, bordism.class_of_curve(f_curve), bordism.class_of_curve(g_curve)


def law_campaign(count, seed0, machine):
    """Run the law checks on ``count`` seeds; returns the number of checks
    that did not hold and of seeds that could not be generated."""
    out = sys.stderr if machine else sys.stdout
    verdicts = Counter()
    failures = 0
    t0 = time.perf_counter()
    for seed in range(seed0, seed0 + count):
        try:
            small, large, f_curve, g_curve = law_classes(seed)
        except (GenerationError, *LAW_REFUSALS) as exc:
            print(f"seed {seed}: generation failed: {exc}", file=out)
            failures += 1
            continue
        checks = (
            ("naturality", bordism.check_naturality, (small, large)),
            ("cartan2", bordism.check_cartan, (small, large, 2)),
            ("cartan3", bordism.check_cartan, (small, large, 3)),
            ("mu-tower", bordism.check_mu_tower, (small,)),
            ("mu-tower", bordism.check_mu_tower, (large,)),
            ("cartan2-curves", bordism.check_cartan, (f_curve, g_curve, 2)),
            ("cartan2-curves-gf", bordism.check_cartan, (g_curve, f_curve, 2)),
            ("add", bordism.add, (small, large)),
            ("add-curves", bordism.add, (f_curve, g_curve)),
            ("internal_product", bordism.internal_product, (small, large)),
            ("internal_product-curves", bordism.internal_product, (f_curve, g_curve)),
            ("pullback_class", bordism.pullback_class, (small, large)),
            ("pullback_class-curves", bordism.pullback_class, (f_curve, g_curve)),
            ("psi2-curves-f", bordism.psi_r, (f_curve, 2)),
            ("psi2-curves-g", bordism.psi_r, (g_curve, 2)),
            ("mu2-curves-f", bordism.mu_r, (f_curve, 2)),
            ("mu2-curves-g", bordism.mu_r, (g_curve, 2)),
            ("mu2-small", bordism.mu_r, (small, 2)),
            ("mu3-small", bordism.mu_r, (small, 3)),
            ("mu2-large", bordism.mu_r, (large, 2)),
            ("mu3-large", bordism.mu_r, (large, 3)),
        )
        for kind, check, args in checks:
            try:
                report = check(*args)
            except LAW_REFUSALS as exc:
                verdicts["refused"] += 1
                if machine:
                    sys.stdout.write(f"{seed}\t{kind}\trefused\t{type(exc).__name__}: {exc}\n")
                continue
            if isinstance(report, bordism.RepresentedClass):
                verdicts["classes"] += 1
                if machine:
                    sys.stdout.write(f"{seed}\t{kind}\t{_class_text(report)}\n")
                continue
            verdicts[report.ok] += 1
            if machine:
                sys.stdout.write(
                    f"{seed}\t{kind}\t{report.ok}\t{report.detail}\t"
                    f"{_text(report.lhs)}\t{_text(report.rhs)}\n"
                )
            if not report.ok:
                print(f"seed {seed} ({kind}): law does not hold", file=out)
                failures += 1
    print(
        f"{verdicts[True]} checks held, {verdicts[False]} did not, "
        f"{verdicts['classes']} classes built, {verdicts['refused']} refused, "
        f"{time.perf_counter() - t0:.2f}s",
        file=out,
    )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--universe", choices=["curves", "tori", "both", "laws"], default="curves"
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
    if args.universe == "laws":
        return 1 if law_campaign(args.count, args.seed, args.machine) else 0
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
