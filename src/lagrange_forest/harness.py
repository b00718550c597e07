"""Randomized identity suites with deterministic seeds and witness reporting.

Every suite draws kernel and observable coefficients from a small rational
pool and turns each identity into a stream of ``(location, expected, got)``
cases over a deterministic grid of pinned tuples, which
:func:`~lagrange_forest.reports.first_mismatch` reduces to one
:class:`IdentityReport`: PASS with the number of checks, or FAIL at the
first offending case in size-then-lex order. :func:`run_suite` stamps each
report with its trial.
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
    _box_exponential,
    finite_matrix_determinant,
    fredholm_determinant,
    lagrange_good_coefficient,
    magic_sum,
    round_trip_check,
    solve_tree_fixed_point,
    univariate_lagrange_check,
)
from .reports import IdentityReport, first_mismatch
from .series import (
    ColorSet,
    FamilySeries,
    TruncatedSeries,
    all_keys,
    canonical_key,
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


def random_kernel_family(cfg: SuiteConfig) -> FamilySeries:
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


def _pinned_tuples(cfg: SuiteConfig) -> Iterable[tuple[str, ...]]:
    names = cfg.color_names
    for n in range(1, min(cfg.max_tuple, cfg.order) + 1):
        yield from combinations_with_replacement(names, n)


def _suite_lagrange_good(cfg: SuiteConfig, kernels: FamilySeries) -> list[IdentityReport]:
    phi = random_series(cfg)
    composed = compose_family(phi, solve_tree_fixed_point(kernels).tree_factors)
    cases = (
        (q, composed.coefficient(q), lagrange_good_coefficient(kernels, phi, q))
        for q in _pinned_tuples(cfg)
    )
    return [first_mismatch("lagrange-good", cases)]


def _suite_magic(cfg: SuiteConfig, kernels: FamilySeries) -> list[IdentityReport]:
    cases = ((q, 0, magic_sum(kernels, q)) for q in _pinned_tuples(cfg))
    return [first_mismatch("magic", cases)]


def _suite_round_trip(cfg: SuiteConfig, kernels: FamilySeries) -> list[IdentityReport]:
    return [round_trip_check(kernels)]


def _suite_species(cfg: SuiteConfig, kernels: FamilySeries) -> list[IdentityReport]:
    rng = random.Random(f"species:{cfg.seed}")
    cap = min(cfg.max_tuple, 4, cfg.order)
    q_tuples = [tuple(rng.choice(cfg.color_names) for _ in range(n)) for n in range(1, cap + 1)]
    prefixes = [q_tuple[:k] for q_tuple in q_tuples for k in range(1, len(q_tuple) + 1)]
    fredholm = fredholm_determinant(kernels)
    det_cases = (
        (p, fredholm.coefficient(p), combinat.det_coefficient_via_crowns(p, kernels))
        for p in prefixes
    )
    return [
        first_mismatch("exp-vs-maps", _exp_cases(q_tuples, kernels)),
        first_mismatch("det-vs-crowns", det_cases),
        first_mismatch("forest-factorization", _forest_cases(q_tuples, kernels)),
    ]


def _exp_cases(q_tuples: list[tuple[str, ...]], kernels: FamilySeries):
    for q_tuple in q_tuples:
        n = len(q_tuple)
        keys, _, numerators, den = _box_exponential(kernels, canonical_key(q_tuple))
        exp_at = {s: Fraction(v, den ** len(s)) for s, v in zip(keys, numerators)}
        for size in range(n + 1):
            for picked in combinations(range(1, n + 1), size):
                want = exp_at[canonical_key(q_tuple[i - 1] for i in picked)]
                got = combinat.exp_coefficient_via_maps(q_tuple, picked, kernels)
                yield q_tuple, want, got, {"picked": picked}


def _forest_cases(q_tuples: list[tuple[str, ...]], kernels: FamilySeries):
    """Maps on a domain factor into forests on the roots times maps into the rest."""
    for q_tuple in q_tuples:
        for split in _three_way_splits(tuple(range(1, len(q_tuple) + 1))):
            roots, domain, rest = split
            lhs = combinat.exp_coefficient_via_maps(q_tuple, domain, kernels)
            rhs = Fraction(0)
            for r1 in range(len(domain) + 1):
                for part_one in combinations(domain, r1):
                    part_two = tuple(i for i in domain if i not in part_one)
                    rhs += combinat.forest_coefficient(
                        *_rebase(q_tuple, part_one, roots), kernels
                    ) * combinat.exp_coefficient_via_maps(
                        *_rebase(q_tuple, rest, part_two), kernels
                    )
            yield q_tuple, lhs, rhs, {"split": split}


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


def _rebase(
    q_tuple: Sequence[str], others: Sequence[int], picked: Sequence[int]
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The sub-tuple on ``others`` and ``picked``, and where ``picked`` lands in it."""
    support = tuple(sorted((*others, *picked)))
    return (
        tuple(q_tuple[i - 1] for i in support),
        tuple(support.index(i) + 1 for i in picked),
    )


def _suite_determinant_reduction(
    cfg: SuiteConfig, kernels: FamilySeries
) -> list[IdentityReport]:
    rng = random.Random(f"detred:{cfg.seed}")
    names = cfg.color_names
    # a proper subset, so that the reduction compares two different matrices;
    # at d = 1 the only choice is the one color and the check is trivial
    size = rng.randint(1, max(1, len(names) - 1))
    subset = tuple(sorted(rng.sample(names, size)))
    fredholm = fredholm_determinant(kernels)
    small = finite_matrix_determinant(kernels, subset)
    cases = (
        (key, fredholm.coefficient(key), small.coefficient(key))
        for n in range(1, cfg.order + 1)
        for key in combinations_with_replacement(subset, n)
    )
    return [first_mismatch("determinant-reduction", cases, subset=subset)]


def _suite_univariate(cfg: SuiteConfig, kernels: FamilySeries) -> list[IdentityReport]:
    # draws its own one-color kernel; the trial's family is not used
    rng = random.Random(f"univariate:{cfg.seed}")
    kernel_coeffs = [rng.choice(POOL) for _ in range(cfg.order)]
    outer_coeffs = [rng.choice(POOL) for _ in range(cfg.order + 1)]
    return [univariate_lagrange_check(kernel_coeffs, outer_coeffs, cfg.order)]


_SUITES: dict[str, Callable[[SuiteConfig, FamilySeries], list[IdentityReport]]] = {
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

    Each trial draws one kernel family and hands it to every suite, so they
    share what is cached on it: the Fredholm determinant and its integer
    tables, the tree solution and the tree and map sums.
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
        stamp = (("trial", str(trial)),)
        for runner in runners:
            reports.extend(
                replace(report, params=stamp + report.params)
                for report in runner(trial_cfg, kernels)
            )
    return reports
