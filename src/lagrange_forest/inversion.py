"""Inversion of colored power series of the form z times exp(-A).

Two independent routes to the inverse live here. The tree route solves the
fixed-point equation whose solution generates weighted rooted trees, and
lifts it to the inverse measure series. The determinant route expresses
coefficients of any composed observable through a truncated Fredholm
determinant det(Id - L), the signed sum over the crowns that are the cycles
of L. One elimination on L computes it, and its reduction to a finite
matrix over a color subset, in integers graded by D^|s| (D an lcm of
denominators); each query runs the series' exponential loop in such
integers on its key's sub-multisets. The cancellation between the two
routes can be checked exactly.

Every function takes the kernel family itself, a
:class:`~lagrange_forest.series.FamilySeries` whose member at q is the
kernel pinned at q. What several queries or suites read again for one
family (its kernels and Fredholm determinant in integers, and the tree
solution) sits in bounded ``lru_cache``s keyed on the family's identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import factorial, lcm
from typing import Iterable, Sequence

from .errors import ColorSetMismatch, EmptySubset, KeyTooLarge, OrderMismatch
from .reports import IdentityReport, first_mismatch
from .series import (
    ColorSet,
    FamilySeries,
    Key,
    TruncatedSeries,
    _Monomials,
    _atom,
    _compose_table,
    _graded,
    _product,
    _recur,
    _split_table,
    all_keys,
    canonical_key,
    compose_family,
    compose_measure,
    constant_series,
    exponential,
    indicator_series,
    make_kernel_family,
    make_series,
    radon_lift,
    scale,
    variational_derivative,
)


@dataclass(frozen=True)
class TreeSolution:
    """Per-color tree generating functions and the inverse measure series.

    ``tree_factors`` solves the fixed-point equation order by order; its
    coefficient at a key equals the enumeration-side tree coefficient and
    it is the inverse's density. ``inverse`` is its radon lift: the atoms.
    """

    tree_factors: FamilySeries
    inverse: FamilySeries


def forward_density(kernels: FamilySeries) -> FamilySeries:
    """Density of the measure series being inverted: q -> exp(-kernel at q)."""
    members = {
        q: exponential(scale(kernels.members[q], -1)) for q in kernels.colors.names
    }
    return FamilySeries(kernels.colors, kernels.order, members)


@lru_cache(maxsize=4)
def solve_tree_fixed_point(kernels: FamilySeries) -> TreeSolution:
    """Solve T_q = exp(kernel at q, substituted with T times the base measure).

    Iterates from the constant-one family; after step s the members are
    exact to order s, because a coefficient of size s on the left only
    consumes coefficients of size below s on the right. The number of steps
    therefore equals the truncation order. The result is cached on the
    family's identity, so the suites of one verify trial share one solve.
    """
    colors, order = kernels.colors, kernels.order
    current = FamilySeries.constant(colors, order, 1)
    for step in range(1, order + 1):
        monomials = _Monomials(current, step)  # shared by every color
        members = {}
        for q in colors.names:
            exponent = TruncatedSeries(
                colors,
                order,
                _compose_table(kernels.members[q], monomials),
            )
            members[q] = exponential(exponent)
        current = FamilySeries(colors, order, members)
    return TreeSolution(tree_factors=current, inverse=radon_lift(current))


def _determinant(kernels: FamilySeries, labels: Sequence[str]) -> TruncatedSeries:
    """det(Id - L) for the matrix L indexed by ``labels``.

    Entry (q, q') of L is the atom at q of the kernel at q differentiated
    at q'; cycles of L are crowns, and the determinant is their signed sum.
    Elimination runs on L itself, graded by D^|s| on the simplex of its
    entries' colors (:func:`_graded`), in about d^3 / 3 scatter products
    (_product) for d labels: below pivot k, L_ij += L_ik (1 - L_kk)^-1 L_kj,
    and det(Id - L) = prod_k (1 - L_kk). L has no constant terms: no
    pivoting, and each pivot inverse is _recur over all splits.
    """
    entries = []  # row q' holds column q' of L: the transpose, same determinant
    for qp in labels:
        pinned = {q: variational_derivative(kernels.members[q], (qp,)).table for q in labels}
        entries += (_atom(q, t, kernels.colors, kernels.order).table for q, t in pinned.items())
    keys, (_, splits, _, forward), den, flat = _graded(entries, kernels.order)
    matrix = [flat[i : i + len(labels)] for i in range(0, len(flat), len(labels))]
    for k, pivot_row in enumerate(matrix):
        rows = [row for row in matrix[k + 1 :] if any(row[k])]
        inverse = _recur(pivot_row[k], splits) if rows else None
        columns = [j for j in range(k + 1, len(matrix)) if any(pivot_row[j])]
        for row in rows:
            factor = _product(row[k], inverse, forward)
            for j in columns:
                row[j] = [x + y for x, y in zip(row[j], _product(factor, pivot_row[j], forward))]
    pivots = ([(t == 0) - x for t, x in enumerate(row[k])] for k, row in enumerate(matrix))
    det = reduce(lambda p, q: _product(p, q, forward), pivots)  # prod_k (1 - L_kk)
    table = {s: Fraction(v, den ** len(s)) for s, v in zip(keys, det) if v}
    return TruncatedSeries(kernels.colors, kernels.order, table)


@lru_cache(maxsize=4)
def fredholm_determinant(kernels: FamilySeries) -> TruncatedSeries:
    """Truncated Fredholm determinant of the derivative-kernel operator.

    Over a finite color set this is det(Id - L) for the derivative-kernel
    matrix L indexed by all colors. Its coefficient at a key is the signed
    sum over assemblies of crowns on the key's positions, each assembly
    signed by its number of crowns. The constant term is one. It is cached
    on the family's identity, so :func:`_determinant` eliminates once per
    family for the queries' integer tables and the suites of a trial alike.
    """
    return _determinant(kernels, kernels.colors.names)


def finite_matrix_determinant(
    kernels: FamilySeries, subset: Iterable[str]
) -> TruncatedSeries:
    """Determinant of the finite matrix indexed by a set of colors Q.

    Entry (q, q') is the Kronecker delta minus the atom series at q times
    the kernel at q differentiated at q'. Coefficients at tuples whose
    colors lie inside Q agree with the Fredholm determinant, and enlarging Q
    leaves them unchanged; over all colors the two are the same series. It
    runs the Fredholm determinant's elimination on the rows of Q.
    """
    labels = tuple(dict.fromkeys(subset))
    if not labels:
        raise EmptySubset("the pinned color set must be non-empty")
    kernels.colors.require(labels)
    return _determinant(kernels, labels)


@lru_cache(maxsize=256)
def _box(counts: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[list], list[list]]:
    """The sub-multisets of a key with these color counts, and their splits.

    Points are count vectors s <= counts, the last color fastest (a mixed-radix
    box), so a point's sub-multisets come first. Callers pass the counts
    largest first, so keys of one shape share a box.
    """
    points = list(product(*(range(n + 1) for n in counts)))
    return (points, *_split_table(points))


@lru_cache(maxsize=4)
def _query_tables(kernels: FamilySeries) -> tuple[int, dict, dict]:
    """D, the Fredholm determinant and the kernels in integers, once per family.

    With D the lcm of the kernels' denominators, A_q[s] D^|s| and det[s] D^|s|
    are integers: :func:`_determinant` grades by the lcm of L's denominators,
    which divides D. det is read through :func:`fredholm_determinant`'s cache.
    """
    den = lcm(*(v.denominator for m in kernels.members.values() for v in m.table.values()))
    det, *scaled = (
        {s: int(v * den ** len(s)) for s, v in m.table.items()}
        for m in (fredholm_determinant(kernels), *kernels.members.values())
    )
    return den, det, dict(zip(kernels.members, scaled))


def _box_exponential(kernels: FamilySeries, key: Key) -> tuple[list[Key], list, list[int], int]:
    """exp of the sum of the kernels pinned at the colors of ``key``, on its box.

    The first-block recurrence runs over the key's prod_c (n_c + 1)
    sub-multisets alone. Returns them in box order, their splits, the
    coefficients there times D^|s| (integers), and D (see :func:`_query_tables`).
    """
    colors = sorted(set(key), key=lambda c: (-key.count(c), c))
    counts = tuple(map(key.count, colors))
    points, splits, first_splits = _box(counts)
    keys = [canonical_key(c for c, m in zip(colors, s) for _ in range(m)) for s in points]
    den, _, scaled = _query_tables(kernels)
    summed = [sum(n * scaled[c].get(s, 0) for c, n in zip(colors, counts)) for s in keys]
    return keys, splits, _recur(summed, first_splits), den


def _query(kernels: FamilySeries, key: Key, phi: TruncatedSeries) -> Fraction:
    """[x^key] phi times the pinned exponential times det(Id - L), in integers.

    A split sum over the key's box of phi, where non-zero, times the split
    sum of the other two factors, each graded by D^|s|, over D^|key| and
    phi's own denominator.
    """
    keys, splits, exp, den = _box_exponential(kernels, key)
    _, det, _ = _query_tables(kernels)
    det = [det.get(s, 0) for s in keys]
    phi_den = lcm(*(phi.table.get(s, 0).denominator for s in keys))
    phi_num = [int(phi.table.get(s, 0) * phi_den * den ** len(s)) for s in keys]
    total = sum(
        w * phi_num[a] * sum(u * exp[x] * det[y] for x, y, u, _ in splits[b])
        for a, b, w, _ in splits[-1] if phi_num[a]
    )
    return Fraction(total, den ** len(key) * phi_den)


def _pinned_key(kernels: FamilySeries, q_tuple: Sequence[str]) -> tuple[str, ...]:
    """The canonical key of a pinned tuple, checked against the family."""
    n = len(q_tuple)
    if n < 1:
        raise ValueError("the pinned tuple must be non-empty")
    if n > kernels.order:
        raise KeyTooLarge(f"tuple of size {n} exceeds order {kernels.order}")
    kernels.colors.require(q_tuple)
    return canonical_key(q_tuple)


def lagrange_good_coefficient(
    kernels: FamilySeries, phi: TruncatedSeries, q_tuple: Sequence[str]
) -> Fraction:
    """Coefficient of the composed observable, via the determinant formula.

    Returns the coefficient at ``q_tuple`` of phi times the exponential of
    the kernels pinned at the tuple's colors times the Fredholm determinant,
    read on the tuple's sub-multisets alone: no product is formed.
    """
    key = _pinned_key(kernels, q_tuple)
    if phi.colors != kernels.colors:
        raise ColorSetMismatch(f"{phi.colors.names} vs {kernels.colors.names}")
    if phi.order < len(key):
        raise OrderMismatch(f"phi of order {phi.order} read at size {len(key)}")
    return _query(kernels, key, phi)


def magic_sum(kernels: FamilySeries, q_tuple: Sequence[str]) -> Fraction:
    """The cancellation sum behind the determinant formula; must be zero.

    Splits the tuple's positions into a subset fed to the pinned exponential
    and a complement fed to the Fredholm determinant, and sums the products
    of the corresponding coefficients over all splits: the coefficient of
    their product at the tuple, read as by :func:`lagrange_good_coefficient`.
    """
    key = _pinned_key(kernels, q_tuple)
    return _query(kernels, key, constant_series(kernels.colors, len(key), 1))


def inverse_via_determinant(
    kernels: FamilySeries, subset: Iterable[str], q_tuple: Sequence[str]
) -> Fraction:
    """Coefficient of the inverse measure on a color subset, determinant route."""
    phi = indicator_series(kernels.colors, kernels.order, subset)
    return lagrange_good_coefficient(kernels, phi, q_tuple)


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


def _u_recip(a: Sequence[Fraction], order: int) -> list[Fraction]:
    if not a[0]:
        raise ValueError("reciprocal needs a non-zero constant term")
    out = [Fraction(0)] * (order + 1)
    out[0] = 1 / a[0]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            ak = a[k] if k < len(a) else Fraction(0)
            acc += ak * out[n - k]
        out[n] = -acc / a[0]
    return out


def _u_pow(a: Sequence[Fraction], exponent: int, order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for _ in range(exponent):
        out = _u_mul(out, a, order)
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
    a_mono = [Fraction(0)] * (order + 2)
    for m, value in enumerate(kernel_padded, start=1):
        if m <= order + 1:
            a_mono[m] = value / factorial(m)
    f_mono = [Fraction(0)] * (order + 1)
    for m, value in enumerate(outer_coeffs):
        if m <= order:
            f_mono[m] = value / factorial(m)
    base = _u_exp([-v for v in a_mono], order + 1)  # rho(z)/z
    rho = [Fraction(0)] + base[: order + 1]
    rho_prime = _u_deriv(rho)
    f_prime = _u_deriv(f_mono)

    def cases():
        for n in range(1, order + 1):
            via_trees = composed.coefficient((x,) * n) / factorial(n)
            with_derivative = _u_mul(
                _u_mul(f_mono, rho_prime, n), _u_recip(_u_pow(base, n + 1, n), n), n
            )[n]
            yield (str(n),), via_trees, with_derivative, {"formula": "with-derivative"}
            without_derivative = (
                _u_mul(f_prime, _u_recip(_u_pow(base, n, n - 1), n - 1), n - 1)[n - 1]
                / n
            )
            yield (str(n),), via_trees, without_derivative, {"formula": "without-derivative"}

    return first_mismatch("univariate-inversion", cases())
