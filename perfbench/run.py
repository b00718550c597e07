"""Benchmark of lagrange-forest: the tree route, the determinant route and the verify suites.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree-invert --seed 1 --seconds 30 --trace 0

One client in a closed loop: a single process and thread calls
``lagrange_forest.cli.main`` in-process, so interpreter start-up is not
measured. Ops run in rounds of one op per shape of the workload; a run
measures whole rounds until ``--seconds`` of op time have passed. Every op's
output is checked outside the timed region, and a failing op's document and
argv are saved under ``perfbench-out/failures`` for replay with
``PYTHONPATH=src python3 -m lagrange_forest.cli <argv>``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same loop
for half the time untraced, then replays the first round's ops once untraced
and once traced, and prints the per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
run's environment, the latency tail and the spans go to ``perfbench-out``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracing import MEMOISED, ROOT, Tracer, enum_cache_info
from workloads import CHECKS, REFERENCE_ORDER, WARMUP_ORDER, WORKLOADS, Op

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / "perfbench-out"
SETUP_REPEATS = 5
TAIL_SAMPLES = 10

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_LAYER_TIMES = (
    "series.exponential", "series.compose", "series.multiply",
    "combinat.set_partitions", "combinat.oracles",
    "inversion.tree_fixed_point", "inversion.fredholm", "inversion.det_query",
    "inversion.finite_matrix", "inversion.magic_sum", "inversion.round_trip",
    "inversion.univariate", "harness.run_suite", "cli.parse",
)
_LAYER_CALLS = (
    "series.exponential", "series.compose", "series.multiply",
    "combinat.set_partitions", "combinat.oracles",
    "inversion.tree_fixed_point", "inversion.fredholm", "inversion.det_query",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _LAYER_TIMES},
    **{f"{name}.calls": "count" for name in _LAYER_CALLS},
    "series.coeffs_out": "count",
    "combinat.enum_cache.hit_ratio": "1",
    "inversion.memo.hit_ratio": "1",
    "harness.checks": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_ratio": "1",
    "trace.library_share": "1",
}


class Runner:
    """Runs, times and checks ops against the currently imported package."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.check = CHECKS[workload.command]
        self.cli_main = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last_output_bytes = 0

    def import_package(self) -> None:
        """Drop every lagrange_forest module and import the package afresh."""
        for name in [m for m in sys.modules if m.split(".")[0] == "lagrange_forest"]:
            del sys.modules[name]
        importlib.import_module("lagrange_forest")
        self.cli_main = importlib.import_module("lagrange_forest.cli").main

    def execute(self, argv, tracer: Tracer | None = None, op_index: int = 0):
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    rc = self.cli_main(argv)
                else:
                    rc = tracer.run_op(op_index, self.cli_main, argv)
        except SystemExit as exc:  # argparse rejects argv
            rc = exc.code
        except Exception:  # an op that raises is a failed op; keep running the others
            rc, error = None, traceback.format_exc()
        return perf_counter() - start, rc, out.getvalue(), error or err.getvalue()

    def reference(self, op: Op) -> dict:
        """Coefficients of size <= REFERENCE_ORDER from the determinant route, once per document."""
        if op.reference is None:
            _, rc, out, error = self.execute(
                ["invert", str(op.path), "--det", "--order", str(REFERENCE_ORDER)]
            )
            ref = {"rc": rc, "error": error, "all_equal": None, "det": {}}
            if rc == 0:
                payload = json.loads(out)
                ref["all_equal"] = payload.get("all_equal")
                ref["det"] = {tuple(r["x"]): r["det"] for r in payload["coefficients"]}
            op.reference = ref
        return op.reference

    def run_checked(self, op: Op, tracer: Tracer | None = None, op_index: int = 0) -> float:
        elapsed, rc, out, error = self.execute(op.argv, tracer, op_index)
        self.check_output(op, rc, out, error)
        self.last_output_bytes = len(out.encode())
        return elapsed

    def check_output(self, op: Op, rc, out: str, error: str) -> None:
        self.attempted += 1
        try:
            problem = self.check(op, rc, out, self.reference)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem is not None:
            self.failed += 1
            self.save_failure(op, problem, error)

    def save_failure(self, op: Op, problem: str, error: str) -> None:
        where = OUT_DIR / "failures" / f"{self.workload.name}-seed{self.seed}-op{self.attempted}"
        where.mkdir(parents=True, exist_ok=True)
        argv = list(op.argv)
        if op.path is not None:
            shutil.copy(op.path, where / "document.json")
            argv[argv.index(str(op.path))] = str(where / "document.json")
        (where / "failure.json").write_text(
            json.dumps({"argv": argv, "shape": op.shape.label, "problem": problem, "stderr": error}, indent=2)
        )
        self.failures.append(f"{op.shape.label}: {problem} (saved in {where})")


def setup(runner: Runner, warmups: list[Op]) -> list[float]:
    """Fresh import plus the warm-up ops, SETUP_REPEATS times; the last import stays."""
    times, results = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        runner.import_package()
        for op in warmups:
            results.append((op, *runner.execute(op.argv)[1:]))
        times.append(perf_counter() - start)
    for result in results:  # checked outside the timed set-up
        runner.check_output(*result)
    return times


def timed_rounds(runner: Runner, rng: random.Random, work: Path, budget: float):
    """Whole rounds until ``budget`` seconds of op time; returns (rounds, latencies by round)."""
    rounds, latencies, spent = [], [], 0.0
    while not rounds or spent < budget:
        ops = runner.workload.ops(rng, work, f"round{len(rounds)}")
        times = [runner.run_checked(op) for op in ops]
        spent += sum(times)
        rounds.append(ops)
        latencies.append(times)
    return rounds, latencies


def percentile_tail(values: list[float]) -> dict:
    """The 90th percentile, and the highest percentile with TAIL_SAMPLES samples above it."""
    ordered = sorted(values)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1] if len(ordered) > 1 else ordered[0]
    tail = {"p90": p90, "samples": len(ordered), "samples_above_p90": sum(v > p90 for v in ordered)}
    if len(ordered) > TAIL_SAMPLES:
        tail["highest_percentile_with_10_above"] = 100 * (len(ordered) - TAIL_SAMPLES) / len(ordered)
        tail["value_at_that_percentile"] = ordered[len(ordered) - TAIL_SAMPLES - 1]
    return tail


def end_to_end_metrics(latencies, setup_times) -> tuple[dict, dict]:
    flat = [t for times in latencies for t in times]
    tail = percentile_tail(flat)
    values = {
        "ops_per_s": len(flat) / sum(flat),
        "op_p50_s": statistics.median(flat),
        "op_p90_s": tail["p90"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, tail


def per_layer_metrics(runner: Runner, first_round: list[Op]) -> tuple[dict, Tracer]:
    """One traced pass over the first round's ops, right after an untraced one."""
    untraced = [runner.run_checked(op) for op in first_round]
    tracer = Tracer()
    caches_before = enum_cache_info()
    traced, output_bytes = [], 0
    for index, op in enumerate(first_round):
        traced.append(runner.run_checked(op, tracer, index))
        output_bytes += runner.last_output_bytes
    caches_after = enum_cache_info()

    self_s = tracer.self_times()
    counts = tracer.counts
    values = {f"{name}.self_s": self_s.get(name, 0.0) for name in _LAYER_TIMES}
    values.update({f"{name}.calls": counts.get(f"{name}.calls", 0) for name in _LAYER_CALLS})
    hits = sum(caches_after[c][0] - caches_before[c][0] for c in caches_after)
    lookups = hits + sum(caches_after[c][1] - caches_before[c][1] for c in caches_after)
    memo_calls = sum(counts.get(f"{name}.calls", 0) for name in MEMOISED)
    memo_hits = sum(counts.get(f"{name}.memo_hits", 0) for name in MEMOISED)
    library = sum(t for name, t in self_s.items() if name.split(".")[0] in ("series", "combinat", "inversion"))
    values.update({
        "series.coeffs_out": counts.get("series.coeffs_out", 0),
        "combinat.enum_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "inversion.memo.hit_ratio": memo_hits / memo_calls if memo_calls else 0.0,
        "harness.checks": counts.get("harness.checks", 0),
        "cli.self_s": self_s.get(ROOT, 0.0),
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "trace.library_share": library / sum(traced),
    })
    return values, tracer


def environment(runner: Runner, args, warmups, setup_times, caches, rounds, tracer=None) -> dict:
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": runner.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pid": os.getpid(),
        "process": "one process and one thread per workload run, closed loop, one client",
        "shapes": [s.label for s in runner.workload.shapes],
        "rounds": rounds,
        "setup_warmup_ops": [[op.shape.label, WARMUP_ORDER, op.argv[:1] + op.argv[2:] if op.path else op.argv]
                             for op in warmups],
        "setup_repeats_s": setup_times,
        "enum_cache_info_at_start": caches,
        "failures": runner.failures,
    }
    if tracer is not None:
        env["missing_bindings"] = tracer.missing
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT_DIR / "src"
    if not (src / "lagrange_forest" / "__init__.py").is_file():
        print(f"error: no lagrange_forest package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    rng = random.Random(f"{workload.name}:{args.seed}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
        work = Path(tmp)
        warmups = workload.warmup_ops(work)
        setup_times = setup(runner, warmups)
        caches = enum_cache_info()
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds, latencies = timed_rounds(runner, rng, work, budget)
        tracer = None
        if args.trace:
            metrics, tracer = per_layer_metrics(runner, rounds[0])
            units, tail = PER_LAYER, None
        else:
            metrics, tail = end_to_end_metrics(latencies, setup_times)
            units = END_TO_END

    env = environment(runner, args, warmups, setup_times, caches, len(rounds), tracer)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "metrics": metrics, "latency_tail": tail,
              "fail_ratio": runner.failed / runner.attempted,
              "latencies_by_round": [[[op.shape.label, t] for op, t in zip(ops, times)]
                                     for ops, times in zip(rounds, latencies)]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(("op", "id", "parent", "name", "start", "end"), span))) + "\n")

    for name, unit in units.items():
        print(f"{workload.name} {name} = {metrics[name]:.6g} {unit}")
    print(f"{workload.name} fail_ratio = {runner.failed / runner.attempted:.6g} 1 "
          f"({runner.failed} of {runner.attempted} ops)")
    if tail is not None:
        print(f"{workload.name} latency samples = {tail['samples']}, above p90 = {tail['samples_above_p90']}"
              + (f", highest percentile with {TAIL_SAMPLES} above = "
                 f"p{tail['highest_percentile_with_10_above']:.1f} = {tail['value_at_that_percentile']:.6g} s"
                 if "value_at_that_percentile" in tail else ""))
    for line in runner.failures:
        print(f"FAILED {line}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
