"""The benchmark's workloads.

A workload turns ``--seed`` into a list of ``ops`` ops.  ``setup`` builds
the inputs that exist before the first op; ``call`` is the op itself and
makes only package calls, so the runner can time it; ``judge`` checks the
op's output afterwards.  Ops come in rounds (one round holds every kind of
op in the workload's fixed proportions) and ``ops`` is a whole number of
rounds, so every run sees the same mix.

Package functions are reached through their modules at call time
(``generate.generate``, never a name imported from it), so the tracer's
rebinding sees every call.
"""

import traceback
from dataclasses import dataclass

from multipoint import bordism, curves2d, generate, herbert, scene, surfaces3d

import scenes

CURVE_AMBIENTS = ("torus", "klein", "genus2")
SETUP_REPEATS = 5  # set-up passes per run; setup_s is their median
STREAM = 2**20  # generator seeds per benchmark seed
WARMUP = 2**19  # offset of the warm-up stream inside a seed's range


def generator_seed(seed, index):
    """Warm-up ops (``index >= WARMUP``) are the same for every benchmark
    seed, so that set-up time does not vary with the seed's inputs."""
    if index >= WARMUP:
        seed = 0
    return seed * STREAM + index


@dataclass
class Outcome:
    """What one op produced, as the runner needs it."""

    digest_text: str
    rows: int = 0
    bad_rows: int = 0  # FAIL or ERROR rows
    wrong: str = ""  # non-empty: the op returned a wrong answer
    failed: str = ""  # non-empty: the op failed to produce an answer
    rejected: bool = False  # a law check whose union did not certify
    law_checks: int = 0
    generation_errors: int = 0


def _judge_report(report, exc):
    if exc is not None:
        return _failure(exc)
    rows = report.rows
    fails = [r for r in rows if r.verdict == "FAIL"]
    errors = [r for r in rows if r.verdict == "ERROR"]
    # the TSV holds only bits; the feature counts pin down the extraction too
    text = report.to_tsv() + f"# double {report.n_double} triple {report.n_triple}\n"
    out = Outcome(text, rows=len(rows), bad_rows=len(fails) + len(errors))
    if fails:
        out.wrong = f"{report.scene}: identity FAIL on {fails[0].target}"
    elif errors:
        out.failed = f"{report.scene}: ERROR row: {errors[0].diagnostics}"
    return out


def _failure(exc):
    kind = type(exc).__name__
    out = Outcome(f"failed\t{kind}\n", failed=f"{kind}: {exc}")
    if isinstance(exc, generate.GenerationError):
        out.generation_errors = 1
    else:
        traceback.print_exception(exc)
    return out


class CurvesFuzz:
    """``generate`` a curve scene, then ``herbert.verify`` it (criterion 2).

    Criterion 2 draws one or two components at random; here every scene
    has two, because one- and two-component ops differ in cost by about
    10x and a random mix moves the median from run to run.  Two-component
    scenes carry most of criterion 2's time (pairing per component).  A
    round holds torus and klein scenes twice and a genus2 scene once:
    two-component genus2 scenes cost about a third as much, and with equal
    shares the median would sit on the edge between the two groups.
    """

    name = "curves-fuzz"
    ROUND = ("torus", "klein", "torus", "klein", "genus2")
    round_size = len(ROUND)
    tail_pct = 90
    ops = 180  # per pass
    setup_repeats = SETUP_REPEATS

    def setup(self, seed):
        self.seed = seed
        self.warmup_indexes = range(WARMUP, WARMUP + self.round_size)

    def config(self, index):
        return generate.GeneratorConfig(
            ambient=self.ROUND[index % self.round_size],
            components=(2, 2),
            seed=generator_seed(self.seed, index),
        )

    def call(self, index):
        cfg = self.config(index)
        sc = generate.generate(cfg)
        return herbert.verify(sc.multicurve("c"), scene_id=f"c{cfg.seed}")

    def judge(self, result, exc):
        return _judge_report(result, exc)


class ToriFuzz(CurvesFuzz):
    """``generate`` a 3-torus scene, then verify it (criterion 2).

    A round holds two 2-sheet and two 3-sheet scenes, each once with and
    once without a test cycle: criterion 2's mix, with the sheet count
    fixed per op instead of drawn at random.
    """

    name = "tori-fuzz"
    ROUND = [(n, cycle) for n in (2, 3) for cycle in (True, False)]
    round_size = len(ROUND)
    tail_pct = 75
    ops = 40

    def config(self, index):
        sheets, cycle = self.ROUND[index % self.round_size]
        return generate.GeneratorConfig(
            universe="tori",
            ambient=generate.TORI_AMBIENT,
            components=(sheets, sheets),
            seed=generator_seed(self.seed, index),
            with_cycle=cycle,
        )

    def call(self, index):
        cfg = self.config(index)
        sc = generate.generate(cfg)
        mesh = sc.mesh("f")
        targets = {name: sc.mesh_cycle(name, mesh) for name in sc.cycles}
        return herbert.verify(mesh, targets=targets or None, scene_id=f"t{cfg.seed}")


class ToriLarge:
    """``parse_scene`` -> ``Scene.mesh`` -> ``herbert.verify`` on benchmark-built text."""

    name = "tori-large"
    round_size = scenes.ROUND
    tail_pct = 50
    setup_repeats = SETUP_REPEATS
    # one scene of each size: ops cost about a second, and a short pass
    # leaves room for several repeats of each op in a run
    ops = 4
    warmup_index = 10**6  # a 5-sheet scene outside the timed list

    def setup(self, seed):
        self.seed = seed
        self.texts = [scenes.scene_text(seed, i) for i in range(self.ops)]
        self.warmup_text = scenes.scene_text(seed, self.warmup_index)
        self.warmup_indexes = (self.warmup_index,)

    def call(self, index):
        if index == self.warmup_index:
            text = self.warmup_text
        else:
            text = self.texts[index]
        return self.verify_text(text, f"large{index}")

    @staticmethod
    def verify_text(text, scene_id):
        mesh = scene.parse_scene(text).mesh("f")
        return herbert.verify(mesh, scene_id=scene_id)

    def judge(self, result, exc):
        return _judge_report(result, exc)


class Algebra:
    """One law check of criterion 3 on classes built during set-up.

    A round holds one naturality check, four Cartan r=2 checks on curve
    pairs, one Cartan r=3 check on a mesh pair and two mu-tower checks.
    Criterion 3 runs naturality twice as often and mu-tower half as often;
    with its proportions the median op falls on the sparse upper tail of
    the Cartan r=2 costs, between the kinds, and moves with the seed.  With
    as many cheap ops (mu-tower) as heavy ones (naturality, Cartan r=3)
    around the four Cartan r=2 checks, the median falls on the middle of
    the Cartan r=2 costs.  Every Cartan r=2 op of a pass has its own curve
    pair, and the mesh pools pair up two families of generated meshes,
    alternately of 1 and 2 sheets and of 2 and 3 sheets (criterion 3 draws
    the same ranges at random); that gives many distinct naturality and
    Cartan r=3 pairs for few ``generate`` calls during set-up.  A union the
    package refuses (``GeneralPositionError``, or ``MeshBuildError`` when
    two generated sheets coincide) is a rejection, as in criterion 3, not a
    failure.
    """

    name = "algebra"
    KINDS = ("naturality", "cartan2", "mu-tower", "cartan2",
             "cartan3", "cartan2", "mu-tower", "cartan2")
    round_size = len(KINDS)
    MESHES = 8  # generated meshes per family; mesh pairs combine them
    tail_pct = 90
    ops = 192
    setup_repeats = 3  # a set-up pass generates 16 meshes and 192 curves
    # generator-seed offsets inside a benchmark seed's range, one per role
    ROLE = {"small": 0, "large": 1, "c2-f": 2, "c2-g": 3}
    # the package's refusals of a union: not generic, or (MeshBuildError)
    # two sheets that coincide so an edge is shared by four triangles
    REJECTIONS = (
        curves2d.GeneralPositionError,
        surfaces3d.GeneralPositionError,
        surfaces3d.MeshBuildError,
    )

    def setup(self, seed):
        self.seed = seed
        self._next = {role: 0 for role in self.ROLE}
        m = self.MESHES
        small = [self._mesh_class("small", 1 + k % 2) for k in range(m)]
        large = [self._mesh_class("large", 2 + k % 2) for k in range(m)]
        # pairs ordered so that the first few already use every mesh
        self.pool = {
            "naturality": [(small[i % m], large[(i + i // m) % m]) for i in range(m * m)],
            "cartan2": [self._curve_pair(k) for k in range(self.curve_pairs)],
            "cartan3": [(small[i], small[i + d]) for d in range(1, m) for i in range(m - d)],
            "mu-tower": [(f,) for pair in zip(large, small) for f in pair],
        }
        # fill the per-object caches that every later check reads
        for cls in small + large:
            cls.payload.double_curves()
            cls.payload.triple_points()
        for pair in self.pool["cartan2"]:
            for cls in pair:
                curves2d.double_points(cls.payload)
        self.warmup_indexes = range(self.round_size)

    @property
    def curve_pairs(self):
        """One curve pair per Cartan r=2 op of a pass."""
        return self.ops // self.round_size * self.KINDS.count("cartan2")

    def _generate(self, role, config):
        """The next scene of a role's stream; generation failures are skipped."""
        while True:
            k = self._next[role]
            self._next[role] += 1
            gseed = generator_seed(self.seed, self.ROLE[role] * 2**16 + k)
            try:
                return generate.generate(config(gseed))
            except generate.GenerationError:
                continue

    def _mesh_class(self, role, sheets):
        sc = self._generate(
            role,
            lambda s: generate.GeneratorConfig(
                universe="tori",
                ambient=generate.TORI_AMBIENT,
                components=(sheets, sheets),
                seed=s,
            ),
        )
        return bordism.class_of_mesh(sc.mesh("f"))

    def _curve_pair(self, k):
        """Curve pairs cycle through every ambient, (1|2, 1|2) components and
        3 to 6 segments per component, the ranges criterion 3 draws from.

        Drawn at random, these spread a Cartan r=2 check's cost from 1 to
        over 100 ms; cycled, every seed gets the same mix of sizes.
        """
        ambient = CURVE_AMBIENTS[k % 3]
        f_comps, g_comps = 1 + (k // 3) % 2, 1 + (k // 6) % 2
        segments = 3 + (k // 12) % 4

        def config(comps):
            return lambda s: generate.GeneratorConfig(
                ambient=ambient,
                components=(comps, comps),
                segments=(segments, segments),
                seed=s,
            )

        f_curve = self._generate("c2-f", config(f_comps)).multicurve("c")
        g_raw = self._generate("c2-g", config(g_comps)).multicurve("c")
        g_curve = curves2d.MultiCurve(f_curve.complex, g_raw.components)
        return (bordism.class_of_curve(f_curve), bordism.class_of_curve(g_curve))

    def call(self, index):
        kind = self.KINDS[index % self.round_size]
        per_round = self.KINDS.count(kind)
        slot = self.KINDS[: index % self.round_size].count(kind)
        entries = self.pool[kind]
        args = entries[((index // self.round_size) * per_round + slot) % len(entries)]
        if kind == "naturality":
            return kind, bordism.check_naturality(*args)
        if kind == "cartan2":
            return kind, bordism.check_cartan(*args, 2)
        if kind == "cartan3":
            return kind, bordism.check_cartan(*args, 3)
        return kind, bordism.check_mu_tower(*args)

    def judge(self, result, exc):
        if isinstance(exc, self.REJECTIONS):
            return Outcome(f"rejected\t{type(exc).__name__}\n", rejected=True, law_checks=1)
        if exc is not None:
            out = _failure(exc)
            out.law_checks = 1
            return out
        kind, report = result
        out = Outcome(f"{kind}\t{report.ok}\t{report.detail}\n", law_checks=1)
        if not report.ok:
            out.wrong = f"{kind} law check does not hold: {report.detail}"
        return out


WORKLOADS = {w.name: w for w in (CurvesFuzz, ToriFuzz, ToriLarge, Algebra)}
