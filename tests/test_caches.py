"""The package's caches: every one is bounded, and a verify trial shares them."""

import importlib
import pkgutil

import pytest

import lagrange_forest
from lagrange_forest import (
    enumerate_crowns,
    enumerate_enriched_maps,
    inversion,
    solve_tree_fixed_point,
)
from lagrange_forest.combinat import (
    _crowns,
    _enriched_maps,
    _rooted_trees,
    enumerate_rooted_trees,
)
from lagrange_forest.cli import dump_document, main
from lagrange_forest.harness import SuiteConfig, run_suite
from lagrange_forest.inversion import _query_tables


def test_invert_det_computes_one_determinant(tmp_path):
    size_one = [
        {"q": "a", "x": ["a"], "value": "1"},
        {"q": "b", "x": ["a"], "value": "1/2"},
    ]
    size_two = [{"q": "b", "x": ["a", "b"], "value": "-1"}]
    doc = {
        "colors": ["a", "b"],
        "order": 4,
        "kernels": [{"n": 1, "entries": size_one}, {"n": 2, "entries": size_two}],
    }
    config = tmp_path / "problem.json"
    config.write_text(dump_document(doc))
    _query_tables.cache_clear()
    assert main(["invert", str(config), "--det"]) == 0
    keys = 2 + 3 + 4 + 5  # non-empty keys of size <= 4 over two colors
    # the determinant is eliminated once, into the integer tables; every
    # query reads them twice, for the exponential and for the product
    info = _query_tables.cache_info()
    assert info.misses == 1
    assert info.hits == 2 * keys - 1


def test_verify_trial_computes_one_determinant(monkeypatch):
    # every suite of a trial receives the same family, so the three suites
    # that query the determinant route share one entry of the integer tables,
    # and they, species-oracles and determinant-reduction share one
    # elimination over all colors; the reduction's subset is eliminated apart
    eliminated = []
    original = inversion._determinant

    def counted(kernels, labels):
        eliminated.append(tuple(labels) == kernels.colors.names)
        return original(kernels, labels)

    monkeypatch.setattr(inversion, "_determinant", counted)
    _query_tables.cache_clear()
    run_suite("all", SuiteConfig(seed=3, colors=2, order=4, trials=2))
    assert _query_tables.cache_info().misses == 2
    assert eliminated.count(True) == 2  # one per trial
    assert eliminated.count(False) == 2


def test_verify_trial_solves_the_trial_family_once():
    # lagrange-good and round-trip share the trial family's solve; the
    # univariate suite solves its own one-color family
    solve_tree_fixed_point.cache_clear()
    run_suite("all", SuiteConfig(seed=1, colors=3, order=5, trials=1))
    info = solve_tree_fixed_point.cache_info()
    assert info.misses == 2
    assert info.hits >= 1


def test_every_cache_is_bounded():
    found = {}
    for module in pkgutil.iter_modules(lagrange_forest.__path__):
        loaded = importlib.import_module(f"lagrange_forest.{module.name}")
        for name, value in vars(loaded).items():
            if hasattr(value, "cache_parameters"):
                found[f"{module.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {
        "combinat._enriched_maps",
        "combinat._rooted_trees",
        "combinat._crowns",
        "combinat._tree_sum",
        "combinat._map_sum",
        "inversion.solve_tree_fixed_point",
        "inversion.fredholm_determinant",
        "inversion._box",
        "inversion._query_tables",
        "series._simplex",
    } <= set(found)
    assert all(maxsize is not None for maxsize in found.values()), found


@pytest.mark.parametrize(
    "enumerate_five",
    [
        lambda: enumerate_enriched_maps(range(1, 6)),
        lambda: enumerate_enriched_maps(range(1, 4), sinks=(4, 5)),
        lambda: enumerate_rooted_trees(range(1, 5)),
        lambda: enumerate_crowns(range(1, 6)),
    ],
    ids=["maps", "maps-with-sinks", "trees", "crowns"],
)
def test_public_enumerations_leave_the_oracle_caches_empty(enumerate_five):
    # a public enumeration is the caller's list; nothing of it stays resident
    for cache in (_enriched_maps, _rooted_trees, _crowns):
        cache.cache_clear()
    assert enumerate_five()
    assert [c.cache_info().currsize for c in (_enriched_maps, _rooted_trees, _crowns)] == [0, 0, 0]
