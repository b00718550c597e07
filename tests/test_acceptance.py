"""Acceptance suite: one test per criterion, each printing a PASS line.

All identities are exact rational equalities (zero tolerance). Runtime
budgets are asserted against the wall clock; the margins are generous.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

from lagrange_forest import (
    ColorSet,
    EnrichedMap,
    SuiteConfig,
    enumerate_crowns,
    enumerate_enriched_maps,
    make_kernel_family,
    run_suite,
    set_partitions,
    solve_tree_fixed_point,
    tree_coefficient,
)


def _finish(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS - {detail} ({elapsed:.1f}s)")


def _run_green(name: str, configs) -> int:
    checks = 0
    for cfg in configs:
        for report in run_suite(name, cfg):
            assert report.passed, report.describe()
            checks += 1
    return checks


def test_criterion_1_cayley_tree_function():
    started = time.monotonic()
    colors = ColorSet(("a",))
    kernels = make_kernel_family(colors, 5, [("a", ("a",), 1)])
    solution = solve_tree_fixed_point(kernels)
    member = solution.tree_factors.members["a"]
    inverse = solution.inverse.evaluate()
    expected_trees = {1: 1, 2: 3, 3: 16, 4: 125, 5: 1296}
    for n in range(1, 6):
        key = ("a",) * n
        assert member.coefficient(key) == expected_trees[n]
        assert member.coefficient(key) == tree_coefficient(n, "a", key, kernels)
        assert inverse.coefficient(key) == n ** (n - 1)
    _finish(1, started, 10.0, "single-color tree counts (n+1)^(n-1), inverse n^(n-1)")


def test_criterion_2_determinant_formula_for_observables():
    started = time.monotonic()
    configs = [
        SuiteConfig(seed=101, colors=1, order=4, trials=6, max_tuple=4),
        SuiteConfig(seed=202, colors=2, order=4, trials=7, max_tuple=4),
        SuiteConfig(seed=303, colors=3, order=5, trials=7, max_tuple=4),
    ]
    trials = _run_green("lagrange-good", configs)
    assert trials >= 20
    _finish(2, started, 300.0, f"composition vs determinant formula, {trials} instances")


def test_criterion_3_cancellation_sums_vanish():
    started = time.monotonic()
    configs = [
        SuiteConfig(seed=111, colors=1, order=4, trials=6, max_tuple=5),
        SuiteConfig(seed=222, colors=2, order=4, trials=7, max_tuple=5),
        SuiteConfig(seed=333, colors=3, order=5, trials=7, max_tuple=5),
    ]
    trials = _run_green("magic", configs)
    assert trials >= 20
    _finish(3, started, 120.0, f"cancellation sums are exactly zero, {trials} instances")


def test_criterion_4_round_trips_are_identity():
    started = time.monotonic()
    configs = [
        SuiteConfig(seed=14, colors=1, order=5, trials=7),
        SuiteConfig(seed=24, colors=2, order=5, trials=7),
        SuiteConfig(seed=34, colors=3, order=4, trials=6),
    ]
    trials = _run_green("round-trip", configs)
    assert trials >= 20
    _finish(4, started, 120.0, f"both compositions equal the identity, {trials} instances")


def test_criterion_5_enumeration_oracles():
    started = time.monotonic()
    configs = [
        SuiteConfig(seed=15, colors=2, order=4, trials=6, max_tuple=4),
        SuiteConfig(seed=25, colors=3, order=4, trials=5, max_tuple=4),
    ]
    reports = 0
    instances = 0
    for cfg in configs:
        instances += cfg.trials
        for report in run_suite("species-oracles", cfg):
            assert report.passed, report.describe()
            reports += 1
    assert instances >= 10
    assert reports == instances * 3  # maps, crowns, and forest factorization
    _finish(5, started, 300.0, f"series vs enumeration oracles, {instances} instances")


def test_criterion_6_determinant_reduction():
    started = time.monotonic()
    configs = [
        SuiteConfig(seed=16, colors=1, order=4, trials=4),
        SuiteConfig(seed=26, colors=2, order=4, trials=4),
        SuiteConfig(seed=36, colors=3, order=4, trials=4),
    ]
    trials = _run_green("determinant-reduction", configs)
    _finish(
        6,
        started,
        60.0,
        f"finite-matrix reduction matches, stable under enlargement, {trials} trials",
    )


def test_criterion_7_univariate_three_way():
    started = time.monotonic()
    cfg = SuiteConfig(seed=17, colors=1, order=6, trials=10)
    trials = _run_green("univariate", [cfg])
    assert trials >= 10
    _finish(7, started, 30.0, f"classical one-variable formulas agree, {trials} instances")


def test_criterion_8_enumeration_goldens():
    started = time.monotonic()
    assert len(set_partitions(4)) == 15
    maps = enumerate_enriched_maps((1,), (0,))
    assert len(maps) == 2
    assert maps == [
        EnrichedMap((1,), (0,), (0,), ((0, ((1,),)),)),
        EnrichedMap((1,), (0,), (1,), ((1, ((1,),)),)),
    ]
    assert len(enumerate_crowns((1,))) == 1
    # determinism across repeated runs
    assert set_partitions(4) == set_partitions(4)
    assert enumerate_enriched_maps((1,), (0,)) == maps
    assert enumerate_crowns((1,)) == enumerate_crowns((1,))
    _finish(8, started, 10.0, "Bell(4)=15, 2 enriched maps, 1 crown, deterministic")
