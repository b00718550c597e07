"""Randomized identity suites with deterministic seeds and witness reporting.

Every suite draws kernel and observable coefficients from a small rational
pool, runs an exact identity over a full deterministic grid of pinned
tuples, and emits one :class:`IdentityReport` per trial and identity. A
failing report carries the first offending coefficient in size-then-lex
order.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable, Sequence

from . import combinat
from .errors import UnknownSuite
from .inversion import (
    _pinned_exponential,
    finite_matrix_determinant,
    fredholm_determinant,
    lagrange_good_coefficient,
    magic_sum,
    round_trip_check,
    solve_tree_fixed_point,
    univariate_lagrange_check,
)
from .reports import IdentityReport, report_fail, report_pass
from .series import (
    ColorSet,
    KernelFamily,
    TruncatedSeries,
    all_keys,
    compose_family,
    make_kernel_family,
    make_series,
)

#: The rationals every random coefficient is drawn from.
POOL = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1))


@dataclass(frozen=True)
class SuiteConfig:
    """Deterministic parameters for a suite run."""

    seed: int = 0
    colors: int = 2
    order: int = 4
    trials: int = 3
    max_tuple: int = 4

    def __post_init__(self) -> None:
        if self.colors < 1:
            raise ValueError("need at least one color")
        if self.colors > len(string.ascii_lowercase):
            raise ValueError("at most 26 colors are supported")
        if self.order < 1:
            raise ValueError("order must be at least one")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.max_tuple < 1:
            raise ValueError("max_tuple must be at least one")

    @property
    def color_names(self) -> tuple[str, ...]:
        return tuple(string.ascii_lowercase[: self.colors])


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def random_kernel_family(cfg: SuiteConfig) -> KernelFamily:
    """Kernel family with pool-valued coefficients; a pure function of the seed."""
    rng = random.Random(f"kernel:{cfg.seed}")
    names = cfg.color_names
    colors = ColorSet(names)
    entries = []
    for q in names:
        for size in range(1, cfg.order + 1):
            for key in combinations_with_replacement(names, size):
                value = rng.choice(POOL)
                if value:
                    entries.append((q, key, value))
    return make_kernel_family(colors, cfg.order, entries)


def random_series(cfg: SuiteConfig, label: str = "phi") -> TruncatedSeries:
    """Pool-valued scalar series, drawn from a stream independent of the kernels."""
    rng = random.Random(f"{label}:{cfg.seed}")
    colors = ColorSet(cfg.color_names)
    entries = []
    for key in all_keys(colors, cfg.order):
        value = rng.choice(POOL)
        if value:
            entries.append((key, value))
    return make_series(colors, cfg.order, entries)


def _with_trial(report: IdentityReport, trial: int) -> IdentityReport:
    return IdentityReport(
        report.identity,
        (("trial", str(trial)),) + report.params,
        report.status,
        report.witness,
    )


def _pinned_tuples(cfg: SuiteConfig) -> Iterable[tuple[str, ...]]:
    names = cfg.color_names
    for n in range(1, min(cfg.max_tuple, cfg.order) + 1):
        yield from combinations_with_replacement(names, n)


def _suite_lagrange_good(
    cfg: SuiteConfig, trial: int, kernels: KernelFamily
) -> list[IdentityReport]:
    phi = random_series(cfg)
    composed = compose_family(phi, solve_tree_fixed_point(kernels).tree_factors)
    checks = 0
    for q_tuple in _pinned_tuples(cfg):
        want = composed.coefficient(q_tuple)
        got = lagrange_good_coefficient(kernels, phi, q_tuple)
        checks += 1
        if want != got:
            return [report_fail("lagrange-good", q_tuple, want, got, trial=trial)]
    return [report_pass("lagrange-good", trial=trial, checks=checks)]


def _suite_magic(
    cfg: SuiteConfig, trial: int, kernels: KernelFamily
) -> list[IdentityReport]:
    checks = 0
    for q_tuple in _pinned_tuples(cfg):
        value = magic_sum(kernels, q_tuple)
        checks += 1
        if value:
            return [report_fail("magic", q_tuple, 0, value, trial=trial)]
    return [report_pass("magic", trial=trial, checks=checks)]


def _suite_round_trip(
    cfg: SuiteConfig, trial: int, kernels: KernelFamily
) -> list[IdentityReport]:
    return [_with_trial(round_trip_check(kernels), trial)]


def _suite_species(
    cfg: SuiteConfig, trial: int, kernels: KernelFamily
) -> list[IdentityReport]:
    rng = random.Random(f"species:{cfg.seed}")
    names = cfg.color_names
    fredholm = fredholm_determinant(kernels)
    cap = min(cfg.max_tuple, 4, cfg.order)
    reports = []

    exp_fail = det_fail = forest_fail = None
    exp_checks = det_checks = forest_checks = 0
    for n in range(1, cap + 1):
        q_tuple = tuple(rng.choice(names) for _ in range(n))
        positions = tuple(range(1, n + 1))
        exp_series = _pinned_exponential(kernels, q_tuple, n)

        for size in range(n + 1):
            for picked in combinations(positions, size):
                want = exp_series.coefficient(tuple(q_tuple[i - 1] for i in picked))
                got = combinat.exp_coefficient_via_maps(q_tuple, picked, kernels)
                exp_checks += 1
                if want != got and exp_fail is None:
                    exp_fail = (q_tuple, picked, want, got)

        for k in range(1, n + 1):
            prefix = q_tuple[:k]
            want = fredholm.coefficient(prefix)
            got = combinat.det_coefficient_via_crowns(prefix, kernels)
            det_checks += 1
            if want != got and det_fail is None:
                det_fail = (prefix, want, got)

        for split in _three_way_splits(positions):
            roots, domain, rest = split
            lhs = combinat.exp_coefficient_via_maps(q_tuple, domain, kernels)
            rhs = Fraction(0)
            for r1 in range(len(domain) + 1):
                for part_one in combinations(domain, r1):
                    part_two = tuple(i for i in domain if i not in part_one)
                    rhs += _forest_side(
                        q_tuple, roots, part_one, kernels
                    ) * _exp_side(q_tuple, rest, part_two, kernels)
            forest_checks += 1
            if lhs != rhs and forest_fail is None:
                forest_fail = (q_tuple, split, lhs, rhs)

    if exp_fail is None:
        reports.append(report_pass("exp-vs-maps", trial=trial, checks=exp_checks))
    else:
        q_tuple, picked, want, got = exp_fail
        reports.append(
            report_fail(
                "exp-vs-maps", q_tuple, want, got, trial=trial, picked=picked
            )
        )
    if det_fail is None:
        reports.append(report_pass("det-vs-crowns", trial=trial, checks=det_checks))
    else:
        prefix, want, got = det_fail
        reports.append(report_fail("det-vs-crowns", prefix, want, got, trial=trial))
    if forest_fail is None:
        reports.append(
            report_pass("forest-factorization", trial=trial, checks=forest_checks)
        )
    else:
        q_tuple, split, lhs, rhs = forest_fail
        reports.append(
            report_fail(
                "forest-factorization", q_tuple, lhs, rhs, trial=trial, split=split
            )
        )
    return reports


def _three_way_splits(positions: Sequence[int]):
    """All ordered splits of positions into (roots, domain, sinks)."""
    n = len(positions)
    for code in range(3**n):
        roots, domain, rest = [], [], []
        c = code
        for p in positions:
            bucket = c % 3
            c //= 3
            (roots, domain, rest)[bucket].append(p)
        yield tuple(roots), tuple(domain), tuple(rest)


def _forest_side(
    q_tuple: Sequence[str],
    roots: Sequence[int],
    extra: Sequence[int],
    kernels: KernelFamily,
) -> Fraction:
    support = tuple(sorted((*roots, *extra)))
    sub_tuple = tuple(q_tuple[i - 1] for i in support)
    rebased_roots = tuple(support.index(i) + 1 for i in roots)
    return combinat.forest_coefficient(sub_tuple, rebased_roots, kernels)


def _exp_side(
    q_tuple: Sequence[str],
    sinks: Sequence[int],
    domain: Sequence[int],
    kernels: KernelFamily,
) -> Fraction:
    support = tuple(sorted((*sinks, *domain)))
    sub_tuple = tuple(q_tuple[i - 1] for i in support)
    rebased = tuple(support.index(i) + 1 for i in domain)
    return combinat.exp_coefficient_via_maps(sub_tuple, rebased, kernels)


def _suite_determinant_reduction(
    cfg: SuiteConfig, trial: int, kernels: KernelFamily
) -> list[IdentityReport]:
    rng = random.Random(f"detred:{cfg.seed}")
    names = cfg.color_names
    subset = tuple(sorted(rng.sample(names, rng.randint(1, len(names)))))
    fredholm = fredholm_determinant(kernels)
    small = finite_matrix_determinant(kernels, subset)
    checks = 0
    for n in range(1, cfg.order + 1):
        for key in combinations_with_replacement(subset, n):
            want = fredholm.coefficient(key)
            got = small.coefficient(key)
            checks += 1
            if want != got:
                return [
                    report_fail(
                        "determinant-reduction",
                        key,
                        want,
                        got,
                        trial=trial,
                        subset=subset,
                    )
                ]
    return [
        report_pass(
            "determinant-reduction", trial=trial, checks=checks, subset=subset
        )
    ]


def _suite_univariate(
    cfg: SuiteConfig, trial: int, kernels: KernelFamily
) -> list[IdentityReport]:
    # draws its own one-color kernel; the trial's family is not used
    rng = random.Random(f"univariate:{cfg.seed}")
    kernel_coeffs = [rng.choice(POOL) for _ in range(cfg.order)]
    outer_coeffs = [rng.choice(POOL) for _ in range(cfg.order + 1)]
    return [_with_trial(univariate_lagrange_check(kernel_coeffs, outer_coeffs, cfg.order), trial)]


_SUITES: dict[
    str, Callable[[SuiteConfig, int, KernelFamily], list[IdentityReport]]
] = {
    "lagrange-good": _suite_lagrange_good,
    "magic": _suite_magic,
    "round-trip": _suite_round_trip,
    "species-oracles": _suite_species,
    "determinant-reduction": _suite_determinant_reduction,
    "univariate": _suite_univariate,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, cfg: SuiteConfig) -> list[IdentityReport]:
    """Run one suite (or all of them) and return reports in trial order.

    Each trial draws one kernel family and hands it to every suite, so the
    suites of a trial share its Fredholm determinant and tree sums.
    """
    if name == "all":
        runners = list(_SUITES.values())
    elif name in _SUITES:
        runners = [_SUITES[name]]
    else:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    reports: list[IdentityReport] = []
    for trial in range(cfg.trials):
        trial_cfg = replace(cfg, seed=_trial_seed(cfg.seed, trial))
        kernels = random_kernel_family(trial_cfg)
        for runner in runners:
            reports.extend(runner(trial_cfg, trial, kernels))
    return reports
