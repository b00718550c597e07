"""Seeded inputs, op mixes and output checks of the three benchmark workloads.

Every input comes from the benchmark's own ``random.Random`` stream, never
from ``lagrange_forest.harness``, so a change to the package cannot change
what is measured. The program receives only document paths and flags.

Kernels are *dense* (every key of size 1..N carries a value for every pinned
color) or *sparse* (a fixed two-entry family). Values come from a pool
without zero, so a seed changes the rationals but never the support: the
work an op does, and so its time, depends on the seed only through the
size of the numbers. A round holds one op per shape; shapes of one
workload cost different amounts, and the round is built so that the
median and the 90th percentile of a run fall inside one shape's cluster of
latencies, not on the edge between two.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from typing import Callable

POOL = ("1", "-1", "1/2", "-1/2")
COLOR_NAMES = "abcdefgh"
REFERENCE_ORDER = 4
WARMUP_ORDER = 4


def _document(colors, order, entries) -> dict:
    groups: dict[int, list] = {}
    for q, xs, value in entries:
        groups.setdefault(len(xs), []).append({"q": q, "x": list(xs), "value": value})
    return {
        "colors": list(colors),
        "order": order,
        "kernels": [{"n": n, "entries": groups[n]} for n in sorted(groups)],
    }


def dense_document(rng: random.Random, d: int, order: int) -> dict:
    colors = COLOR_NAMES[:d]
    return _document(
        colors,
        order,
        [
            (q, key, rng.choice(POOL))
            for q in colors
            for n in range(1, order + 1)
            for key in combinations_with_replacement(colors, n)
        ],
    )


def sparse_document(rng: random.Random, order: int) -> dict:
    """Two colors and two kernel entries: a pinned at (b), b pinned at (a, b)."""
    return _document(
        "ab", order, [("a", ("b",), rng.choice(POOL)), ("b", ("a", "b"), rng.choice(POOL))]
    )


def single_entry_document(rng: random.Random, order: int) -> dict:
    """One color x with kernel c*z; the inverse of z*exp(-c*z) has coefficients c^(n-1)*n^(n-1)."""
    return _document("x", order, [("x", ("x",), rng.choice(POOL))])


@dataclass(frozen=True)
class Shape:
    """One kind of op in a round: a document shape or a verify invocation."""

    label: str
    order: int
    d: int
    build: Callable[[random.Random, int], dict] | None = None
    trials: int = 0  # verify ops only


@dataclass
class Op:
    shape: Shape
    argv: list[str]
    document: dict | None = None
    path: Path | None = None
    reference: dict | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "invert", "invert --det" or "verify all"
    shapes: tuple[Shape, ...]

    def ops(self, rng: random.Random, work: Path, tag: str) -> list[Op]:
        """One round: one op per shape, documents written under ``work``."""
        return self._ops(rng, work, tag, self.shapes, None)

    def warmup_ops(self, work: Path) -> list[Op]:
        """One op per distinct shape at order WARMUP_ORDER.

        The inputs come from a fixed stream, not from the workload seed, so
        set-up does the same work in every run.
        """
        shapes = tuple(dict.fromkeys(self.shapes))
        return self._ops(random.Random("warm-up"), work, "warmup", shapes, WARMUP_ORDER)

    def _ops(self, rng, work, tag, shapes, order_cap) -> list[Op]:
        out = []
        for index, shape in enumerate(shapes):
            order = shape.order if order_cap is None else min(order_cap, shape.order)
            if self.command == "verify all":
                seed = rng.randrange(2**31)
                argv = ["verify", "all", "--d", str(shape.d), "--N", str(order),
                        "--seed", str(seed), "--trials", str(shape.trials)]
                out.append(Op(shape, argv))
                continue
            document = shape.build(rng, order)
            path = work / f"{tag}-{index}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            argv = ["invert", str(path)] + (["--det"] if self.command == "invert --det" else [])
            out.append(Op(shape, argv, document, path))
        return out


def _dense(d, order):
    return Shape(f"dense d={d} N={order}", order, d, lambda rng, n: dense_document(rng, d, n))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree-invert",
            "invert",
            (
                _dense(2, 6),
                _dense(3, 6),
                _dense(2, 7),
                Shape("one-color single-entry N=9", 9, 1, single_entry_document),
                Shape("sparse two-entry d=2 N=8", 8, 2, sparse_document),
            ),
        ),
        Workload(
            "det-invert",
            "invert --det",
            (_dense(3, 5), _dense(2, 6), _dense(1, 7)),
        ),
        Workload(
            "verify-all",
            "verify all",
            (
                Shape("verify d=2 N=5 trials=1", 5, 2, trials=1),
                Shape("verify d=3 N=5 trials=1", 5, 3, trials=1),
                Shape("verify d=2 N=5 trials=1", 5, 2, trials=1),
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks; each returns None when the op's output is right, else a reason


def _coefficient_rows(out: str, op: Op) -> tuple[dict, str | None]:
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return {}, f"output is not JSON: {exc}"
    d, order = len(op.document["colors"]), op.document["order"]
    want_rows = comb(d + order, order) - 1
    rows = payload.get("coefficients", [])
    if len(rows) != want_rows:
        return payload, f"{len(rows)} coefficient rows, expected {want_rows}"
    return payload, None


def check_invert_tree(op: Op, rc, out: str, reference: Callable[[Op], dict]) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    payload, problem = _coefficient_rows(out, op)
    if problem:
        return problem
    rows = payload["coefficients"]
    if op.document["colors"] == ["x"]:
        c = Fraction(op.document["kernels"][0]["entries"][0]["value"])
        for row in rows:
            n = row["n"]
            if Fraction(row["tree"]) != c ** (n - 1) * n ** (n - 1):
                return f"tree coefficient at n={n} is {row['tree']}, closed form c^(n-1) n^(n-1) differs"
        return None
    ref = reference(op)
    if ref.get("rc") != 0 or ref.get("all_equal") is not True:
        return (f"reference 'invert --det --order {REFERENCE_ORDER}' gave exit code {ref.get('rc')}, "
                f"all_equal {ref.get('all_equal')}: {ref.get('error')}")
    for row in rows:
        if row["n"] <= REFERENCE_ORDER:
            want = ref["det"][tuple(row["x"])]
            if Fraction(row["tree"]) != Fraction(want):
                return f"tree coefficient at {row['x']} is {row['tree']}, determinant route gives {want}"
    return None


def check_invert_det(op: Op, rc, out: str, reference) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    payload, problem = _coefficient_rows(out, op)
    if problem:
        return problem
    if payload.get("all_equal") is not True:
        return "all_equal is not true"
    return None


def check_verify(op: Op, rc, out: str, reference) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if not lines:
        return "no output"
    bad = [line for line in lines if not line.startswith("PASS ")]
    return f"not PASS: {bad[0]}" if bad else None


CHECKS = {
    "invert": check_invert_tree,
    "invert --det": check_invert_det,
    "verify all": check_verify,
}
