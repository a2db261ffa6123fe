"""difftan benchmark: one closed-loop client driving seeded queries.

    python3 benchmarks/run.py --workload torus-cf --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports difftan from ./src.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (spans go to benchmarks/out/).  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A wrong answer ends the run with "correct": false and exit 1.

Times are scaled to a nominal machine speed.  On the shared machine this
was tuned on, each CPU changed speed by up to 1.7x within seconds and
between minutes, for every program alike, which swamped differences
between commits.  So the run stays on one CPU, times a fixed reference
computation (Fraction and dict work) every quarter second of query time
and around each set-up and cold start, and multiplies each measured time
by REFERENCE_MS / (reference time then).  Raw figures and the reference
times go to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import types
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer, metric_names  # noqa: E402
from workloads import FAILED, OK, WORKLOADS  # noqa: E402

LAYERS = ("quad_field", "polynomials", "orbit_space", "torus", "functor_core", "spaces", "cli")
SETUP_REPEATS = 5
PREGENERATED_CYCLES = 8
COLD_STARTS = 16
COLD_TIMEOUT_S = 60
# Hard stop well inside the 180 s a run may take, whatever --seconds says.
MAX_LOOP_S = 120
LAYER_UNITS = {"calls": "calls/op", "self_ms": "ms/op", "term_products": "count/op",
               "distinct_ratio": "ratio"}
# Time of the reference computation on the nominal machine; it took 1.4 to
# 2.7 ms on the 2-CPU machine the benchmark was tuned on.
REFERENCE_MS = 2.0
REFERENCE_EVERY_S = 0.25


class WrongAnswer(Exception):
    """An answer the oracle rejects; ends the run."""

    attempted = 1
    failed = 0


def import_fresh():
    """Import difftan from ./src anew; the import is part of set-up."""
    for key in [k for k in sys.modules if k == "difftan" or k.startswith("difftan.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    package = importlib.import_module("difftan")
    if Path(package.__file__).resolve().parent != SRC / "difftan":
        raise ImportError(f"difftan imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"difftan.{name}") for name in LAYERS}
    )


def execute(query, mods):
    """Run one query; return (seconds, verdict)."""
    start = perf_counter()
    try:
        value, exc = query.run(mods), None
    except Exception as error:  # the query's check decides what this means
        value, exc = None, error
    elapsed = perf_counter() - start
    verdict = query.check(value, exc)
    if verdict not in (OK, FAILED):
        raise WrongAnswer(f"{query.cls}: {query.label[:160]}: {verdict}")
    return elapsed, verdict


def _reference_work():
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 1) * Fraction(i + 2, 3)
    table: dict = {}
    for i in range(2000):
        key = (i % 13, i % 7, i)
        table[key] = table.get(key, 0) + i * i
    return total, len(table)


def reference_ms() -> float:
    """Fastest of three runs of the reference computation, in ms."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        best = min(best, (perf_counter() - start) * 1000)
    return best


def timed_scaled(task):
    """Run task(); return (its time scaled to the nominal speed, raw time)."""
    before = reference_ms()
    start = perf_counter()
    task()
    raw = perf_counter() - start
    return raw * 2 * REFERENCE_MS / (before + reference_ms()), raw


class Run:
    """One benchmark run: set-up, the closed loop and what they measured.

    The repeated set-ups and the cold starts are spread evenly through the
    loop (their time is not loop time) rather than measured in one burst.
    Query times are kept raw with the index of the reference interval they
    fall in and scaled at the end by that interval's reference times.
    """

    def __init__(self, workload_cls, seed: int):
        self.workload_cls, self.seed = workload_cls, seed
        self.setup_s: list[tuple[float, float]] = []  # (scaled, raw)
        self.cold_ms: list[tuple[float, float]] = []
        self.raw = {False: array("d"), True: array("d")}
        self.interval = {False: array("i"), True: array("i")}
        self.references: list[float] = []
        self.query_time = self.since_reference = 0.0
        self.failed = 0
        self.workload = self.workload_cls(seed)
        self.cycles = [self.workload.cycle() for _ in range(PREGENERATED_CYCLES)]
        self.set_up()

    def set_up(self):
        """Import, generate the first cycles and warm up, timed together.

        Every repetition regenerates the same inputs; the loop keeps using
        the first stream and switches to the newly imported modules.
        """

        def task():
            self.mods = import_fresh()
            workload = self.workload_cls(self.seed)
            for _ in range(PREGENERATED_CYCLES):
                workload.cycle()
            for query in workload.warmup():
                execute(query, self.mods)

        self.setup_s.append(timed_scaled(task))

    def cold_start(self):
        """A fresh interpreter runs one CLI command of the workload."""
        argv = self.workload_cls.cold_argv
        code = "import sys; from difftan.cli import entry; sys.argv[0] = 'difftan'; entry()"
        env = dict(os.environ, PYTHONPATH=str(SRC))

        def task():
            proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
            if proc.returncode != 0:
                raise WrongAnswer(f"cold start {argv} exited {proc.returncode}: {proc.stderr[-300:]}")

        scaled, raw = timed_scaled(task)
        self.cold_ms.append((scaled * 1000, raw * 1000))

    def probes(self):
        """Known-defect queries: run once, outside the loop; (run, failed)."""
        verdicts = [execute(q, self.mods)[1] for q in self.workload.probes()]
        return len(verdicts), verdicts.count(FAILED)

    def side_tasks(self):
        """(share of the loop at which to run, task), in order."""
        tasks = [((k + 0.5) / COLD_STARTS, self.cold_start) for k in range(COLD_STARTS)]
        repeats = SETUP_REPEATS - 1
        tasks += [((k + 0.5) / repeats, self.set_up) for k in range(repeats)]
        return sorted(tasks, key=lambda task: task[0])

    def loop(self, seconds: float, tracer=None):
        """Closed loop over whole cycles; with a tracer, odd cycles are traced
        (at least one of each, so both throughputs exist)."""
        pending = [] if tracer else self.side_tasks()
        limit = min(seconds, MAX_LOOP_S)
        index = 0
        self.references.append(reference_ms())
        while True:
            while pending and pending[0][0] * limit <= self.query_time:
                pending.pop(0)[1]()
            if self.query_time >= limit and (tracer is None or index >= 2):
                break
            # Spent cycles are dropped, so memory does not grow with speed.
            queries = self.cycles.pop(0) if self.cycles else self.workload.cycle()
            self._cycle(queries, tracer if index % 2 else None)
            index += 1
        self.references.append(reference_ms())
        for _, task in pending:
            task()

    def _cycle(self, queries, tracer):
        if tracer:
            tracer.install()
        try:
            for query in queries:
                frame = tracer.begin_op() if tracer else None
                try:
                    elapsed, verdict = execute(query, self.mods)
                except WrongAnswer as exc:
                    exc.attempted, exc.failed = self.attempted + 1, self.failed
                    raise
                if tracer:
                    tracer.end_op(frame)
                self.raw[tracer is not None].append(elapsed)
                self.interval[tracer is not None].append(len(self.references) - 1)
                self.failed += verdict == FAILED
                self.query_time += elapsed
                self.since_reference += elapsed
                if self.since_reference >= REFERENCE_EVERY_S:
                    self.references.append(reference_ms())
                    self.since_reference = 0.0
        finally:
            if tracer:
                tracer.uninstall()

    @property
    def attempted(self) -> int:
        return len(self.raw[False]) + len(self.raw[True])

    def scaled(self, traced: bool) -> list[float]:
        """Query times in seconds at the nominal speed."""
        refs = self.references
        factors = [2 * REFERENCE_MS / (refs[k] + refs[k + 1]) for k in range(len(refs) - 1)]
        return [t * factors[k] for t, k in zip(self.raw[traced], self.interval[traced])]

    def end_to_end(self) -> dict:
        plain = self.scaled(False)
        centiles = statistics.quantiles([t * 1000 for t in plain], n=100)
        raw_ops = len(plain) / sum(self.raw[False])
        print(f"raw: ops_per_s {raw_ops:.4g}, setup_s {statistics.median(r for _, r in self.setup_s):.4g}, "
              f"cold_start_ms {statistics.median(r for _, r in self.cold_ms[1:]):.4g}; reference ms "
              f"median {statistics.median(self.references):.3f}, range {min(self.references):.3f}"
              f"-{max(self.references):.3f}", file=sys.stderr)
        return {
            "ops_per_s": (len(plain) / sum(plain), "1/s"),
            "latency_p50_ms": (centiles[49], "ms"),
            "latency_p90_ms": (centiles[89], "ms"),
            "setup_s": (statistics.median(s for s, _ in self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cold_start_ms": (statistics.median(s for s, _ in self.cold_ms[1:]), "ms"),
        }


def per_layer(run: Run, tracer: Tracer, probes_failed: int) -> dict:
    plain, traced = run.scaled(False), run.scaled(True)
    layer = tracer.metrics(len(traced))
    metrics = {name: (layer[name], LAYER_UNITS[name.rsplit(".", 1)[1]]) for name in metric_names()}
    metrics["trace.overhead_ratio"] = ((len(traced) / sum(traced)) / (len(plain) / sum(plain)), "ratio")
    metrics["bench.fail_ratio"] = (run.failed / run.attempted, "ratio")
    metrics["bench.known_defects_failed"] = (probes_failed, "count")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args) -> dict:
    run = Run(WORKLOADS[args.workload], args.seed)
    probes_run, probes_failed = run.probes()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare(run.mods)
    run.loop(args.seconds, tracer)
    print(f"{args.workload} seed {args.seed}: {run.attempted} queries, {run.failed} failed; "
          f"known-defect probes {probes_failed}/{probes_run} failed", file=sys.stderr)
    if tracer:
        metrics = per_layer(run, tracer, probes_failed)
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = run.end_to_end()
    return {
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); prints
    every metric as "<workload> <metric> <value> <unit>" on stderr and one
    JSON object keyed "<workload>.<metric>" last on stdout."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=COLD_TIMEOUT_S + 2 * MAX_LOOP_S)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:<11} {metric:<44} {entry['value']:>12.6g} {entry['unit']}", file=sys.stderr)
        if proc.returncode:
            break
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "difftan" / "__init__.py").is_file():
        print(f"error: no difftan sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": exc.failed, "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One CPU for the whole run, cold-start children included: the two CPUs
    # of the machine this was tuned on changed speed independently, and the
    # reference computation must run at the speed the measured work ran at.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
