"""Schema checks of the benchmark and of its JSON output; no wall-time gate.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNTS = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "B")]


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    return out


def assert_metrics(out, declared):
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_benchmark_json_follows_the_contract():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"] and doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in doc["workloads"]]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        names.append(m["name"])
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_untraced_output_schema():
    assert_metrics(result(bench("det-invert", 3, 0)), spec()["end_to_end"])


def test_traced_output_schema_and_counts_repeat():
    first, second = (result(bench("det-invert", 3, 1)) for _ in range(2))
    assert_metrics(first, spec()["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["inversion.fredholm.calls"]["value"] > 0


def test_tree_route_never_reaches_the_determinant():
    metrics = result(bench("tree-invert", 3, 1))["metrics"]
    assert metrics["inversion.fredholm.calls"]["value"] == 0
    assert metrics["inversion.det_query.calls"]["value"] == 0
    assert metrics["series.exponential.calls"]["value"] > 0


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import lagrange_forest.cli as cli

    before = {(m, a): getattr(sys.modules[f"lagrange_forest.{m}"], a) for _, m, a in tracing.BINDINGS}
    tracer = tracing.Tracer()
    assert tracer.run_op(0, cli.main, ["verify", "magic", "--d", "1", "--N", "2", "--trials", "1"]) == 0
    after = {(m, a): getattr(sys.modules[f"lagrange_forest.{m}"], a) for _, m, a in tracing.BINDINGS}
    assert before == after and not tracer.missing
    assert tracer.counts["inversion.fredholm.calls"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("det-invert", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

