"""Spans around the calls into each layer of ``lagrange_forest``.

The package's modules import each other with ``from .x import name``, so a
call goes through the *caller's* binding of a function. A layer is traced by
replacing those bindings with wrappers for the length of one op and putting
the originals back afterwards; patching only the defining module would see
nothing. Spans live in memory as (op, id, parent, name, start, end) and are
written out when the benchmark ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

#: (metric, module, attribute). A binding missing from the package is
#: skipped, so the benchmark keeps running when a later version renames an
#: internal function; the skip is recorded in the run's environment.
BINDINGS = (
    ("series.exponential", "inversion", "exponential"),
    ("series.exponential", "harness", "exponential"),
    ("series.compose", "inversion", "_compose_table"),  # the tree fixed point
    ("series.compose", "inversion", "compose_family"),
    ("series.compose", "inversion", "compose_measure"),
    ("series.compose", "harness", "compose_family"),
    ("series.multiply", "inversion", "multiply"),
    ("series.multiply", "series", "multiply"),  # the products inside compose_measure
    ("combinat.set_partitions", "series", "set_partitions_of"),
    ("combinat.oracles", "combinat", "exp_coefficient_via_maps"),  # harness calls combinat.<name>
    ("combinat.oracles", "combinat", "det_coefficient_via_crowns"),
    ("combinat.oracles", "combinat", "forest_coefficient"),
    ("combinat.oracles", "combinat", "tree_coefficient"),
    ("inversion.tree_fixed_point", "cli", "solve_tree_fixed_point"),
    ("inversion.tree_fixed_point", "harness", "solve_tree_fixed_point"),
    ("inversion.tree_fixed_point", "inversion", "solve_tree_fixed_point"),
    ("inversion.fredholm", "harness", "fredholm_determinant"),
    ("inversion.fredholm", "inversion", "fredholm_determinant"),
    ("inversion.det_query", "cli", "inverse_via_determinant"),
    ("inversion.det_query", "harness", "lagrange_good_coefficient"),
    ("inversion.finite_matrix", "harness", "finite_matrix_determinant"),
    ("inversion.magic_sum", "harness", "magic_sum"),
    ("inversion.round_trip", "harness", "round_trip_check"),
    ("inversion.univariate", "harness", "univariate_lagrange_check"),
    ("harness.run_suite", "cli", "run_suite"),
    ("cli.parse", "cli", "load_problem_document"),
)

#: Functions that keep a per-problem memo; their first argument is the problem.
MEMOISED = ("inversion.tree_fixed_point", "inversion.fredholm")

#: The enumeration caches of combinat.
ENUM_CACHES = ("_enriched_maps", "_rooted_trees", "_crowns")

ROOT = "cli"


def _entries(result) -> int:
    """Coefficient-table entries in a series result (dict, series or measure)."""
    if isinstance(result, dict):
        return len(result)
    table = getattr(result, "table", None)
    if table is not None:
        return len(table)
    members = getattr(result, "members", None)
    if members is not None:
        return sum(_entries(m) for m in members.values())
    return 0


def _report_checks(reports) -> int:
    total = 0
    for report in reports:
        params = dict(getattr(report, "params", ()))
        total += int(params.get("checks", 1))
    return total


def enum_cache_info() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each combinat enumeration cache that exists."""
    combinat = sys.modules["lagrange_forest.combinat"]
    out = {}
    for name in ENUM_CACHES:
        info = getattr(getattr(combinat, name, None), "cache_info", None)
        if info is not None:
            stats = info()
            out[name] = (stats.hits, stats.misses)
    return out


class Tracer:
    """Records spans and counts for the ops run while its bindings are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._problems: dict[str, dict[int, object]] = defaultdict(dict)
        self._next_id = 0
        self.op = 0

    def _record(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else (None, None)
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.op, span_id, parent[0], name, start, end))
        if parent[1] != name:  # a nested call of the same layer is not a new entry
            self.counts[f"{name}.calls"] += 1
            if name in MEMOISED and args:
                seen = self._problems[name]
                if id(args[0]) in seen:
                    self.counts[f"{name}.memo_hits"] += 1
                seen[id(args[0])] = args[0]  # held until the op ends, so ids stay unique
        if name.startswith("series."):
            self.counts["series.coeffs_out"] += _entries(result)
        elif name == "harness.run_suite":
            self.counts["harness.checks"] += _report_checks(result)
        return result

    def run_op(self, op: int, fn, *args):
        """Run one op under a root span with every binding wrapped."""
        self.op = op
        self._install()
        try:
            return self._record(ROOT, fn, args, {})
        finally:
            self._restore()
            self._problems.clear()

    def _install(self) -> None:
        for name, module_name, attr in BINDINGS:
            module = sys.modules.get(f"lagrange_forest.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue

            def wrapper(*args, _name=name, _fn=original, **kwargs):
                return self._record(_name, _fn, args, kwargs)

            self._installed.append((module, attr, original))
            setattr(module, attr, wrapper)

    def _restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            out[name] += end - start - child[span_id]
        return out
