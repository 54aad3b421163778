"""Command-line interface.

Subcommands:
  verify <file> [--machine]   check every ``verify`` directive in a scene file
  explain <file>              the same checks, as a worked human-readable report
  fuzz --universe U --count N --seed S    generate-and-verify random scenes
  gen [config flags]          print one generated scene to stdout

Exit status: 0 when every checked identity holds, 1 when any row fails
(or generation/fuzzing breaks down), 2 on input errors (missing or
unparsable files, scenes that fail general-position certification, bad
flag values), which arrive as an ``InputError`` or an ``OSError``; any
other exception is a bug and propagates.  The MULTIPOINT_SEED
environment variable, when set, overrides ``--seed`` for ``fuzz`` and
``gen``.
"""

import argparse
import os
import re
import sys

from . import herbert
from .exactgeom import InputError
from .generate import (
    CURVE_AMBIENTS,
    GenerationError,
    GeneratorConfig,
    TORI_AMBIENT,
    generate,
)
from .scene import parse_scene, print_scene

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _load_scene(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None
    return parse_scene(text)


def _reports_for(scene):
    """One verification report per ``verify`` directive, with its subject."""
    out = []
    for decl in scene.verifies:
        if decl.name in scene.curves:
            subject = scene.multicurve(decl.name)
            targets = None
        else:
            subject = scene.mesh(decl.name)
            targets = {c: scene.mesh_cycle(c, subject) for c in decl.cycles} or None
        report = herbert.verify(subject, targets=targets, scene_id=decl.name)
        out.append((report, subject))
    return out


def _cmd_verify(args):
    pairs = _reports_for(_load_scene(args.file))
    if not pairs:
        print("no verify directives in scene", file=sys.stderr)
        return EXIT_OK
    if args.machine:
        header, body = None, []
        for report, _ in pairs:
            lines = report.to_tsv().splitlines()
            header = lines[0]
            body.extend(lines[1:])
        print("\n".join([header] + body))
    else:
        for report, _ in pairs:
            for row in report.rows:
                print(
                    f"{report.scene}: target {row.target} (r={row.r}) "
                    f"lhs={row.lhs} mu={row.mu} euler={row.euler} {row.verdict}"
                )
        n = sum(len(r.rows) for r, _ in pairs)
        ok = all(r.all_pass for r, _ in pairs)
        print(f"{n} row(s): " + ("ALL PASS" if ok else "NOT ALL ROWS PASS"))
    return EXIT_OK if all(r.all_pass for r, _ in pairs) else EXIT_FAIL


def _cmd_explain(args):
    pairs = _reports_for(_load_scene(args.file))
    if not pairs:
        print("no verify directives in scene", file=sys.stderr)
        return EXIT_OK
    chunks = [herbert.explain(report, scene=subject) for report, subject in pairs]
    print("\n\n".join(chunks))
    return EXIT_OK if all(r.all_pass for r, _ in pairs) else EXIT_FAIL


def _fuzz_config(universe, seed, index):
    if universe == "curves":
        return GeneratorConfig(
            universe="curves",
            ambient=CURVE_AMBIENTS[(seed + index) % len(CURVE_AMBIENTS)],
            seed=seed + index,
        )
    return GeneratorConfig(
        universe="tori",
        ambient=TORI_AMBIENT,
        components=(2, 3),
        seed=seed + index,
        with_cycle=index % 2 == 0,
    )


def _cmd_fuzz(args):
    if args.count < 1:
        raise InputError("--count must be at least 1")
    seed = args.seed
    failures = 0
    for i in range(args.count):
        cfg = _fuzz_config(args.universe, seed, i)
        try:
            scene = generate(cfg)
        except GenerationError as exc:
            print(f"scene {i} (seed {cfg.seed}): GENERATION ERROR: {exc}")
            failures += 1
            continue
        pairs = _reports_for(scene)
        ok = all(report.all_pass for report, _ in pairs)
        if not ok:
            failures += 1
        label = "PASS" if ok else "FAIL"
        print(f"scene {i} (seed {cfg.seed}, {cfg.ambient}): {label}")
    print(f"{args.count - failures}/{args.count} scenes passed")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _cmd_gen(args):
    cfg = GeneratorConfig(
        universe=args.universe,
        ambient=args.ambient,
        components=(args.components[0], args.components[1]),
        segments=(args.segments[0], args.segments[1]),
        seed=args.seed,
        retry_budget=args.retry_budget,
        embedded_only=args.embedded_only,
        with_cycle=args.with_cycle,
    )
    try:
        sys.stdout.write(print_scene(generate(cfg)))
    except GenerationError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _env_seed(default):
    raw = os.environ.get("MULTIPOINT_SEED")
    if raw is None:
        return default
    if not re.fullmatch(r"\s*[+-]?\d+\s*", raw):
        raise InputError(f"MULTIPOINT_SEED must be an integer, not {raw!r}")
    return int(raw)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multipoint",
        description="extract and verify multiple-point data of immersed scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a scene file's directives")
    p_verify.add_argument("file")
    p_verify.add_argument(
        "--machine", action="store_true", help="emit a TSV report instead of prose"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_explain = sub.add_parser("explain", help="worked report for a scene file")
    p_explain.add_argument("file")
    p_explain.set_defaults(func=_cmd_explain)

    p_fuzz = sub.add_parser("fuzz", help="generate and verify random scenes")
    p_fuzz.add_argument(
        "--universe", choices=["curves", "tori"], default="curves"
    )
    p_fuzz.add_argument("--count", type=int, default=20)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_gen = sub.add_parser("gen", help="print one generated scene")
    p_gen.add_argument("--universe", choices=["curves", "tori"], default="curves")
    p_gen.add_argument(
        "--ambient",
        choices=list(CURVE_AMBIENTS) + [TORI_AMBIENT],
        default="torus",
    )
    p_gen.add_argument(
        "--components", type=int, nargs=2, default=[1, 2], metavar=("LO", "HI")
    )
    p_gen.add_argument(
        "--segments", type=int, nargs=2, default=[3, 6], metavar=("LO", "HI")
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--retry-budget", type=int, default=16)
    p_gen.add_argument("--embedded-only", action="store_true")
    p_gen.add_argument("--with-cycle", action="store_true")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = _env_seed(args.seed)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
