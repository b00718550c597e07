"""Harness determinism, random generators, and the mutation self-test."""

from fractions import Fraction

import pytest

import lagrange_forest.combinat
import lagrange_forest.harness
import lagrange_forest.inversion
from lagrange_forest import SuiteConfig, UnknownSuite, run_suite
from lagrange_forest.cli import main
from lagrange_forest.harness import random_kernel_family, random_series
from lagrange_forest.series import FamilySeries, all_keys, make_series, scale


def test_same_seed_gives_identical_families():
    cfg = SuiteConfig(seed=42, colors=3, order=3, trials=1)
    assert random_kernel_family(cfg) == random_kernel_family(cfg)
    assert random_series(cfg) == random_series(cfg)


def test_zero_pool_gives_zero_kernel(monkeypatch):
    monkeypatch.setattr(lagrange_forest.harness, "POOL", (Fraction(0),))
    cfg = SuiteConfig(seed=1, colors=2, order=3, trials=1)
    kernels = random_kernel_family(cfg)
    assert all(not member.table for member in kernels.members.values())
    reports = run_suite("magic", cfg)
    assert all(r.passed for r in reports)


def test_seed_variation_changes_some_entry():
    families = [
        random_kernel_family(SuiteConfig(seed=seed, colors=2, order=3, trials=1))
        for seed in range(5)
    ]
    assert any(f != families[0] for f in families[1:])


# every report line of one trial at the benchmark's verify shapes: a cache
# shared by the suites must not change which cases they check, or how many
PINNED_REPORTS = {
    2: [
        "PASS lagrange-good [trial=0, checks=14]",
        "PASS magic [trial=0, checks=14]",
        "PASS round-trip [trial=0, checks=84]",
        "PASS exp-vs-maps [trial=0, checks=30]",
        "PASS det-vs-crowns [trial=0, checks=10]",
        "PASS forest-factorization [trial=0, checks=120]",
        "PASS determinant-reduction [trial=0, checks=5, subset=('a',)]",
        "PASS univariate-inversion [trial=0, checks=10]",
    ],
    3: [
        "PASS lagrange-good [trial=0, checks=34]",
        "PASS magic [trial=0, checks=34]",
        "PASS round-trip [trial=0, checks=336]",
        "PASS exp-vs-maps [trial=0, checks=30]",
        "PASS det-vs-crowns [trial=0, checks=10]",
        "PASS forest-factorization [trial=0, checks=120]",
        "PASS determinant-reduction [trial=0, checks=20, subset=('a', 'c')]",
        "PASS univariate-inversion [trial=0, checks=10]",
    ],
}


@pytest.mark.parametrize("d", sorted(PINNED_REPORTS))
def test_verify_all_report_lines_are_pinned(d):
    reports = run_suite("all", SuiteConfig(seed=1, colors=d, order=5, trials=1))
    assert [r.describe() for r in reports] == PINNED_REPORTS[d]


def test_run_suite_is_deterministic():
    cfg = SuiteConfig(seed=9, colors=2, order=3, trials=2)
    assert run_suite("all", cfg) == run_suite("all", cfg)


def test_all_suites_pass_on_small_config():
    cfg = SuiteConfig(seed=0, colors=2, order=3, trials=3)
    reports = run_suite("all", cfg)
    identities = [
        "lagrange-good",
        "magic",
        "round-trip",
        "exp-vs-maps",
        "det-vs-crowns",
        "forest-factorization",
        "determinant-reduction",
        "univariate-inversion",
    ]
    # every trial yields the eight identities in order, each stamped with it
    assert [r.identity for r in reports] == identities * 3
    for i, report in enumerate(reports):
        assert report.params[0] == ("trial", str(i // 8))
        assert report.passed, report.describe()


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense", SuiteConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(colors=0)
    with pytest.raises(ValueError):
        SuiteConfig(order=0)
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)


def _flip_crown_oracle(monkeypatch):
    # flip the sign of the crown-side determinant oracle
    original = lagrange_forest.combinat.det_coefficient_via_crowns

    def corrupted(q_tuple, kernels):
        return -original(q_tuple, kernels)

    monkeypatch.setattr(lagrange_forest.combinat, "det_coefficient_via_crowns", corrupted)


class _Shifted:
    """A series whose every coefficient reads one too high."""

    def __init__(self, series):
        self.series = series

    def coefficient(self, key):
        return self.series.coefficient(key) + 1


def _plus_one(original):
    return lambda *args: original(*args) + 1


# (suite, module, binding, corruption, every FAIL line): each case corrupts
# one function an identity depends on, through the module attribute its
# caller reads
CORRUPTIONS = [
    ("lagrange-good", lagrange_forest.harness, "lagrange_good_coefficient", _plus_one,
     ["FAIL lagrange-good [trial=0] at (a): expected 0, got 1"]),
    ("magic", lagrange_forest.harness, "magic_sum", _plus_one,
     ["FAIL magic [trial=0] at (a): expected 0, got 1"]),
    ("round-trip", lagrange_forest.inversion, "forward_density",
     lambda original: lambda kernels: FamilySeries.constant(kernels.colors, kernels.order, 2),
     ["FAIL round-trip [trial=0, side=forward-after-inverse] at (a): expected 1, got 2"]),
    ("species-oracles", lagrange_forest.combinat, "exp_coefficient_via_maps", _plus_one,
     ["FAIL exp-vs-maps [trial=0, picked=()] at (b): expected 1, got 2",
      "FAIL forest-factorization [trial=0, split=((2, 3), (1,), ())] at (b, a, b):"
      " expected 0, got -1"]),
    ("species-oracles", lagrange_forest.combinat, "det_coefficient_via_crowns", _plus_one,
     ["FAIL det-vs-crowns [trial=0] at (b): expected 0, got 1"]),
    ("species-oracles", lagrange_forest.combinat, "forest_coefficient", _plus_one,
     ["FAIL forest-factorization [trial=0, split=((1,), (), ())] at (b): expected 1, got 2"]),
    ("species-oracles", lagrange_forest.combinat, "tree_coefficient", _plus_one,
     ["FAIL forest-factorization [trial=0, split=((1,), (), ())] at (b): expected 1, got 2"]),
    ("determinant-reduction", lagrange_forest.harness, "finite_matrix_determinant",
     lambda original: lambda *args: _Shifted(original(*args)),
     ["FAIL determinant-reduction [trial=0, subset=('b',)] at (b): expected 0, got 1"]),
    ("univariate", lagrange_forest.inversion, "compose_family",
     lambda original: lambda *args: scale(original(*args), 2),
     ["FAIL univariate-inversion [trial=0, formula=with-derivative] at (1):"
      " expected 2, got 1"]),
    # _reciprocal inverts the pivots of the determinant's elimination.
    # determinant-reduction cannot see its corruption, because both of its
    # sides run the same determinant routine; det-vs-crowns and lagrange-good
    # (and magic) do see it.
    ("all", lagrange_forest.inversion, "_reciprocal",
     lambda original: lambda p: scale(original(p), 2),
     ["FAIL lagrange-good [trial=0] at (a, a, b): expected 1, got -1",
      "FAIL magic [trial=0] at (a, a, b): expected 0, got -2",
      "FAIL det-vs-crowns [trial=0] at (b, a, b): expected 9/2, got 7/2"]),
]


@pytest.mark.parametrize(
    "suite, module, binding, corrupt, fail_lines",
    CORRUPTIONS,
    ids=[case[2] for case in CORRUPTIONS],
)
def test_corruption_gives_pinned_fail_report(
    monkeypatch, suite, module, binding, corrupt, fail_lines
):
    monkeypatch.setattr(module, binding, corrupt(getattr(module, binding)))
    reports = run_suite(suite, SuiteConfig(seed=0, colors=2, order=3, trials=1))
    assert [r.describe() for r in reports if not r.passed] == fail_lines


@pytest.mark.parametrize("d", [2, 3])
def test_determinant_reduction_draws_a_proper_subset(d):
    # over every color the reduction would compare the routine with itself
    for seed in range(6):
        cfg = SuiteConfig(seed=seed, colors=d, order=3, trials=1)
        for report in run_suite("determinant-reduction", cfg):
            assert dict(report.params)["subset"] != str(cfg.color_names)


def test_verify_sees_an_exponential_corrupted_at_size_n(monkeypatch, capsys):
    # the size-N coefficients of the tree factors and of exp(-A) reach the
    # round trip's densities
    original = lagrange_forest.inversion.exponential

    def corrupted(k, *keys):
        e = original(k, *keys)
        table = [
            (key, e.table.get(key, 0) + (len(key) == 5)) for key in all_keys(e.colors, e.order)
        ]
        return make_series(e.colors, e.order, table)

    monkeypatch.setattr(lagrange_forest.inversion, "exponential", corrupted)
    argv = ["verify", "all", "--d", "2", "--N", "5", "--trials", "2", "--seed", "1"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL round-trip") for line in lines)


def test_verify_checks_the_query_at_size_n(monkeypatch, capsys):
    # the pinned tuples of lagrange-good reach size --N: one wrong size-5
    # coefficient of the query exponential fails it, the round trip
    # (which never reads that exponential) passes
    original = lagrange_forest.inversion._box_exponential

    def corrupted(kernels, key):
        keys, numerators, den = original(kernels, key)
        if len(key) == 5:  # the key itself is the box's last entry
            numerators = numerators[:-1] + [numerators[-1] + den**5]
        return keys, numerators, den

    monkeypatch.setattr(lagrange_forest.inversion, "_box_exponential", corrupted)
    assert main(["verify", "all", "--d", "2", "--N", "5", "--trials", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL lagrange-good") for line in lines)
    assert "PASS round-trip (1 trials)" in lines


def test_verify_failure_prints_reproduce_line(monkeypatch, capsys):
    _flip_crown_oracle(monkeypatch)
    argv = ["verify", "species-oracles", "--seed", "4", "--d", "2", "--N", "3", "--trials", "2"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    fail = next(i for i, line in enumerate(lines) if line.startswith("FAIL det-vs-crowns"))
    assert "trial=" in lines[fail]
    reproduce = lines[fail + 1]
    command = "lagrange-forest verify species-oracles --seed 4 --d 2 --N 3 --trials 2"
    assert reproduce == f"reproduce: {command}"
    # the printed command reruns the failing run
    assert main(command.split()[1:]) == 1
    assert capsys.readouterr().out.splitlines() == lines
