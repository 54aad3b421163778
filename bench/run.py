#!/usr/bin/env python3
"""Benchmark for the multipoint package: one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload curves-fuzz --seed 0 --seconds 50 --trace 0

Workloads: curves-fuzz, tori-fuzz, tori-large, algebra (see
``workloads.py``).  One process, one client, a closed loop: the next op
starts when the previous one has been checked.

Before timing, a run passes the correctness gate (``verify --machine``
over ``docs/*.scene`` with the criterion-1 anchor values), builds the
workload's op list from ``--seed`` and warms up.  Set-up is repeated
``setup_repeats`` times (per workload); ``setup_s`` is the import time
plus the median pass.  Every op's output is checked as it completes; the
hash of the first pass's output must match ``digests.json`` where a digest
is recorded for the seed, and every repeat of an op must give the same
output.  A wrong answer aborts the run: it prints ``"correct": false`` with
no metrics and exits 1.

``--trace 0`` cycles over the op list in whole rounds until ``--seconds``
have passed and at least one pass is complete, and reports the end-to-end
metrics from each op's slowest repeat.  On a shared 2-core Xeon VM
(Python 3.11, no gmpy2) the machine runs most of the time at a contended
speed and in bursts, from a tenth of a second to several seconds long and
taking 0-40% of the time, up to 1.75x faster; CPU time equals wall time.
The share of fast bursts changes from minute to minute, so the fastest
repeat, the median and the mean of an op's times all move with it from run
to run, while the slowest repeat (the op at contended speed) repeats best.

``--trace 1`` runs an untraced, a traced and another untraced pass over
the same op list and reports per-layer metrics per op; the traced wall
time minus the faster untraced one is the tracing overhead, and the spans
are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DOCS = ROOT / "docs"
OUT = ROOT / ".bench_out"
EXIT_ERROR = 2
EXIT_WRONG = 1

class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def _import_package():
    if not (SRC / "multipoint" / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import multipoint.rational  # noqa: F401

    import gate
    import tracer
    import workloads

    return gate, tracer, workloads


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint():
    """Machine and code identity; results with different GMPY2 never compare."""
    import multipoint.rational

    sources = hashlib.sha256()
    for path in sorted((SRC / "multipoint").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": multipoint.rational.GMPY2,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
    }


class WrongAnswer(RuntimeError):
    """An op's output disagrees with the known answer."""


class Tally:
    """Counts, op times and outputs of one pass (or part of one) over the op list."""

    def __init__(self):
        self.outputs = []  # each op's output text, in op order
        self.times_ns = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.law_checks = 0
        self.rows = 0
        self.bad_rows = 0
        self.generation_errors = 0

    def record(self, outcome, elapsed_ns):
        self.times_ns.append(elapsed_ns)
        self.attempted += 1
        self.outputs.append(outcome.digest_text)
        self.rows += outcome.rows
        self.bad_rows += outcome.bad_rows
        self.rejected += outcome.rejected
        self.law_checks += outcome.law_checks
        self.generation_errors += outcome.generation_errors
        if outcome.failed:
            self.failed += 1
            print(f"op {self.attempted - 1} failed: {outcome.failed}", file=sys.stderr)
        if outcome.wrong:
            raise WrongAnswer(outcome.wrong)

    @property
    def digest(self):
        return hashlib.sha256("".join(self.outputs).encode("utf-8")).hexdigest()


def run_op(wl, index, tally, tracer=None):
    """Time one op, judge its output and record it in the tally."""
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            result, exc = wl.call(index), None
        else:
            with tracer.op_span(index):
                result, exc = wl.call(index), None
    except Exception as err:  # judged below: rejection, failure or bug
        result, exc = None, err
    elapsed = time.perf_counter_ns() - start
    tally.record(wl.judge(result, exc), elapsed)


def run_pass(wl, indexes, tracer=None):
    """Run the given ops once; returns the tally and the wall time."""
    tally = Tally()
    start = time.perf_counter()
    for index in indexes:
        run_op(wl, index, tally, tracer)
    return tally, time.perf_counter() - start


def run_timed(wl, seconds):
    """Whole rounds of the op list, cycling, until ``seconds`` have passed
    and at least one pass is complete; returns one tally per pass begun
    (the last may be partial) and the wall time."""
    tallies = []
    done = 0
    start = time.perf_counter()
    while done < wl.ops or time.perf_counter() - start < seconds:
        first = done % wl.ops
        if first == 0:
            tallies.append(Tally())
        for index in range(first, first + wl.round_size):
            run_op(wl, index, tallies[-1])
        done += wl.round_size
    return tallies, time.perf_counter() - start


def setup_pass(gate, wl, seed):
    """Gate, inputs and warm-up; returns (seconds, corpus ms)."""
    start = time.perf_counter()
    corpus_ms = gate.corpus_gate(DOCS)
    wl.setup(seed)
    run_pass(wl, wl.warmup_indexes)
    return time.perf_counter() - start, corpus_ms


def prepare(gate, wl, seed):
    """Repeat the set-up pass; the inputs of the last pass are kept."""
    setups = []
    for _ in range(wl.setup_repeats):
        seconds, corpus_ms = setup_pass(gate, wl, seed)
        setups.append(seconds)
    gc.collect()
    return setups, corpus_ms


def check_passes(gate, wl, seed, tallies):
    """Recorded digest of the first pass, and the same output from every
    repeat of an op."""
    gate.check_digest(wl.name, seed, tallies[0].digest)
    first = tallies[0].outputs
    if any(t.outputs != first[: len(t.outputs)] for t in tallies):
        raise gate.GateError("repeated passes over the same ops gave different output")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(gate, wl, args, import_s):
    """Each op's slowest repeat over the run; see the module docstring."""
    setups, corpus_ms = prepare(gate, wl, args.seed)
    tallies, wall = run_timed(wl, args.seconds)
    check_passes(gate, wl, args.seed, tallies)

    slowest = [max(ts) / 1e6 for ts in itertools.zip_longest(
        *(t.times_ns for t in tallies), fillvalue=0)]
    cut = statistics.quantiles(slowest, n=100, method="inclusive")[wl.tail_pct - 1]
    first = tallies[0]
    completed = first.attempted - first.failed  # per pass, as the times are per op
    attempted = sum(t.attempted for t in tallies)
    metrics = {
        "op_p50_ms": _metric(statistics.median(slowest), "ms"),
        "op_tail_ms": _metric(cut, "ms"),
        "ops_per_s": _metric(completed / (sum(slowest) / 1000.0), "1/s"),
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    details = {
        "ops": wl.ops,
        "ops_timed": attempted,
        "passes": attempted / wl.ops,
        "wall_s": wall,
        "timed_ops_per_s": (attempted - sum(t.failed for t in tallies)) / wall,
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": sum(1 for t in slowest if t > cut),
        "failed_frac": first.failed / first.attempted,
        "rejected": first.rejected,
        "import_s": import_s,
        "setup_passes_s": setups,
        "corpus_ms": corpus_ms,
        "digest": first.digest,
    }
    return tallies, metrics, details


def per_layer(gate, tracer_mod, wl, args):
    """Per-op layer metrics from a traced pass over the op list."""
    _, corpus_ms = prepare(gate, wl, args.seed)
    # untraced passes before and after the traced one, so that a drift in
    # machine speed does not read as tracing overhead in one direction
    before, before_wall = run_pass(wl, range(wl.ops))
    tr = tracer_mod.Tracer()
    with tr.installed():
        tally, traced_wall = run_pass(wl, range(wl.ops), tr)
    after, after_wall = run_pass(wl, range(wl.ops))
    check_passes(gate, wl, args.seed, [before, tally, after])
    plain_wall = min(before_wall, after_wall)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv"
    tr.write(spans_path)

    ops = tally.attempted
    values = {}
    for name, (calls, self_ns) in tr.totals().items():
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.self_ms"] = self_ns / 1e6 / ops
    values["generate.errors"] = tally.generation_errors / ops
    values["herbert.rows"] = tally.rows / ops
    values["herbert.bad_rows"] = tally.bad_rows / ops
    values["bordism.reject_frac"] = (
        tally.rejected / tally.law_checks if tally.law_checks else 0.0
    )
    values["cli.corpus_ms"] = corpus_ms
    values["trace.overhead_ms"] = (traced_wall - plain_wall) * 1000.0 / ops
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: _metric(values.get(m["name"], 0.0), m["unit"])
        for m in contract["per_layer"]
    }
    details = {
        "ops": ops,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "overhead_s": traced_wall - plain_wall,
        "spans": len(tr.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digest": tally.digest,
    }
    return [before, tally, after], metrics, details


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    try:
        gate, tracer_mod, workloads = _import_package()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    import_s = time.perf_counter() - T0
    args = parse_args(argv, workloads.WORKLOADS)
    wl = workloads.WORKLOADS[args.workload]()
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "fingerprint": fingerprint()}
    try:
        if args.trace:
            tallies, metrics, details = per_layer(gate, tracer_mod, wl, args)
        else:
            tallies, metrics, details = end_to_end(gate, wl, args, import_s)
    except (gate.GateError, WrongAnswer) as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return EXIT_WRONG
    info.update(details)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    result = {
        "correct": True,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(info, result=result), indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
