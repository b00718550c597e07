"""Randomized identity suites, the identity checks and their reports.

An identity check is a stream of cases ``(location, expected, got)``, each
optionally followed by a dict of the case's parameters. :func:`first_mismatch`
reduces it to one :class:`IdentityReport`: PASS with the number of checks, or
FAIL at the first case whose sides differ, which is its witness. Each suite
draws kernel and observable coefficients from a small rational pool and
streams its cases over a deterministic grid of pinned tuples, size then lex.
Besides the two routes against each other and against the enumeration
oracles, the checks are the round trip of the forward and inverse series and
the classical single-variable inversion against a reference of its own.
:func:`run_suite` stamps each report with its trial.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial
from typing import Callable, Iterable, Sequence

from . import combinat
from .errors import UnknownSuite
from .inversion import (
    _box_exponential,
    finite_matrix_determinant,
    forward_density,
    fredholm_determinant,
    lagrange_good_coefficient,
    magic_sum,
    solve_tree_fixed_point,
)
from .series import (
    ColorSet,
    FamilySeries,
    TruncatedSeries,
    all_keys,
    canonical_key,
    compose_family,
    compose_measure,
    make_kernel_family,
    make_series,
)


@dataclass(frozen=True)
class Witness:
    """First failing coefficient of an identity check."""

    location: tuple[str, ...]
    expected: str
    got: str


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: tuple[tuple[str, str], ...]
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        status = "PASS" if self.passed else "FAIL"
        head = f"{status} {self.identity}" + (f" [{params}]" if params else "")
        if self.witness is None:
            return head
        w = self.witness
        return (
            f"{head} at {'(' + ', '.join(w.location) + ')'}: "
            f"expected {w.expected}, got {w.got}"
        )


def first_mismatch(
    identity: str, cases: Iterable[tuple], **params: object
) -> IdentityReport:
    """Check ``(location, expected, got[, case_params])`` cases in order.

    Stops at the first case whose sides differ and reports it, with
    ``params`` followed by that case's own parameters. Otherwise passes
    with ``checks`` (the number of cases) followed by ``params``.
    """
    checks = 0
    for location, expected, got, *case_params in cases:
        if expected != got:
            params = {**params, **dict(*case_params)}
            witness = Witness(tuple(location), str(expected), str(got))
            break
        checks += 1
    else:
        params, witness = {"checks": checks, **params}, None
    return IdentityReport(identity, tuple((k, str(v)) for k, v in params.items()), witness)


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


def round_trip_check(kernels: FamilySeries) -> IdentityReport:
    """Both compositions of the forward and inverse series must be the identity.

    Each composition of the densities exp(-A) and T (the tree factors) must
    be one at the empty key and zero at every other key up to the order.
    """
    tree_factors = solve_tree_fixed_point(kernels).tree_factors
    forward = forward_density(kernels)
    sides = (
        ("forward-after-inverse", compose_measure(forward, tree_factors)),
        ("inverse-after-forward", compose_measure(tree_factors, forward)),
    )
    cases = (
        ((q, *key), int(not key), composed.value(q, key), {"side": side})
        for side, composed in sides
        for q in kernels.colors.sorted_names
        for key in all_keys(kernels.colors, kernels.order)
    )
    return first_mismatch("round-trip", cases)


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


# ---------------------------------------------------------------------------
# classical single-variable inversion
#
# Plain univariate arithmetic in the monomial convention, kept separate from
# the colored machinery on purpose: the three-way check below compares the
# colored tree route against two contour-integral style formulas evaluated
# with this independent code.


def _u_mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _u_deriv(a: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(k) * a[k] for k in range(1, len(a))] or [Fraction(0)]


def _u_exp(a: Sequence[Fraction], order: int) -> list[Fraction]:
    if a[0]:
        raise ValueError("exponential needs a vanishing constant term")
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            ak = a[k] if k < len(a) else Fraction(0)
            acc += k * ak * out[n - k]
        out[n] = acc / n
    return out


UNIVARIATE_COLOR = "x"


def univariate_kernels(kernel_coeffs: Sequence) -> FamilySeries:
    """Single-color kernel family with values taken from a coefficient list.

    ``kernel_coeffs[i]`` is the size-(i+1) kernel coefficient in the
    exponential convention.
    """
    colors = ColorSet((UNIVARIATE_COLOR,))
    order = len(kernel_coeffs)
    entries = [
        (UNIVARIATE_COLOR, (UNIVARIATE_COLOR,) * (i + 1), value)
        for i, value in enumerate(kernel_coeffs)
    ]
    return make_kernel_family(colors, order, entries)


def univariate_lagrange_check(
    kernel_coeffs: Sequence, outer_coeffs: Sequence, order: int
) -> IdentityReport:
    """Three-way check of classical Lagrange inversion for one variable.

    The coefficient of the composed observable in the inverse variable is
    computed (a) through the colored tree solution, (b) as the order-n
    monomial coefficient of f(z) rho'(z) / (rho(z)/z)**(n+1), and (c) as
    1/n times the order-(n-1) coefficient of f'(z) / (rho(z)/z)**n, where
    rho(z) = z exp(-A(z)). All three must agree exactly for n = 1..order:
    each n gives one case per formula, (b) then (c), expected (a).

    ``kernel_coeffs`` and ``outer_coeffs`` use the exponential convention
    (entry m is m! times the monomial coefficient); ``outer_coeffs`` starts
    at the constant term.
    """
    if order < 1:
        raise ValueError("the check order must be at least one")
    kernel_coeffs = [Fraction(v) for v in kernel_coeffs]
    outer_coeffs = [Fraction(v) for v in outer_coeffs]
    # kernel sizes above the check order cannot influence checked coefficients
    kernel_padded = (
        kernel_coeffs + [Fraction(0)] * max(0, order - len(kernel_coeffs))
    )[:order]
    kernels = univariate_kernels(kernel_padded)
    colors = kernels.colors
    x = UNIVARIATE_COLOR

    phi = make_series(
        colors,
        order,
        [((x,) * m, outer_coeffs[m]) for m in range(min(len(outer_coeffs), order + 1))],
    )
    solution = solve_tree_fixed_point(kernels)
    composed = compose_family(phi, solution.tree_factors)

    # independent monomial-side data
    a_mono = [Fraction(0)] + [v / factorial(m) for m, v in enumerate(kernel_padded, start=1)]
    f_mono = [v / factorial(m) for m, v in enumerate(outer_coeffs[: order + 1])]
    rho = [Fraction(0)] + _u_exp([-v for v in a_mono], order)  # z exp(-A)
    rho_prime = _u_deriv(rho)
    f_prime = _u_deriv(f_mono)

    def cases():
        # (z/rho)^k = exp(kA), as rho = z exp(-A)
        for n in range(1, order + 1):
            via_trees = composed.coefficient((x,) * n) / factorial(n)
            with_derivative = _u_mul(
                _u_mul(f_mono, rho_prime, n), _u_exp([(n + 1) * v for v in a_mono], n), n
            )[n]
            yield (str(n),), via_trees, with_derivative, {"formula": "with-derivative"}
            without_derivative = (
                _u_mul(f_prime, _u_exp([n * v for v in a_mono], n - 1), n - 1)[n - 1] / n
            )
            yield (str(n),), via_trees, without_derivative, {"formula": "without-derivative"}

    return first_mismatch("univariate-inversion", cases())


def _suite_univariate(cfg: SuiteConfig, kernels: FamilySeries) -> list[IdentityReport]:
    # draws its own one-color kernel; the trial's family is not used
    rng = random.Random(f"univariate:{cfg.seed}")
    kernel_coeffs = [rng.choice(POOL) for _ in range(cfg.order)]
    outer_coeffs = [rng.choice(POOL) for _ in range(cfg.order + 1)]
    return [univariate_lagrange_check(kernel_coeffs, outer_coeffs, cfg.order)]


# ---------------------------------------------------------------------------
# running the suites


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
