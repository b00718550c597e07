"""Inversion of colored power series of the form z times exp(-A).

Two independent routes to the inverse live here. The tree route solves the
fixed-point equation whose solution generates weighted rooted trees, and
lifts it to the inverse measure series. The determinant route expresses
coefficients of any composed observable through a truncated Fredholm
determinant det(Id - L), the signed sum over the crowns that are the cycles
of L. One routine computes it, and its reduction to a finite matrix over a
color subset, by elimination over the series ring; each query runs its own
exponential, in integers on its key's sub-multisets. The cancellation
between the two routes can be checked exactly.

Every function takes the kernel family itself, a
:class:`~lagrange_forest.series.FamilySeries` whose member at q is the
kernel pinned at q. What several queries or suites read again for one
family (the Fredholm determinant, also in integers, and the tree solution)
sits in bounded ``lru_cache``s keyed on the family's identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import comb, factorial, lcm, prod
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
    _reciprocal,
    add,
    all_keys,
    canonical_key,
    compose_family,
    compose_measure,
    constant_series,
    exponential,
    indicator_series,
    make_kernel_family,
    make_series,
    multiply,
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
    """det(Id - L) for the matrix L indexed by ``labels``, by elimination.

    Entry (q, q') of L is the atom at q of the kernel at q differentiated
    at q', built for the labels only. Cycles of L are crowns, and the
    determinant is their signed sum; the crown oracles check it in that
    reading. Every entry of L has a vanishing constant term, so Gaussian
    elimination on Id - L over the truncated-series ring needs no pivoting:
    every pivot, Schur complements included, has constant term one. The
    determinant is the product of the pivots, about d^3 / 3 products and
    d - 1 reciprocals for d labels, whatever the order.
    """
    colors, order = kernels.colors, kernels.order
    size = len(labels)
    matrix = []  # row q' holds column q' of Id - L: the transpose, same determinant
    for j, qp in enumerate(labels):
        pinned = {q: variational_derivative(kernels.members[q], (qp,)) for q in labels}
        matrix.append([scale(_atom(q, pinned[q].table, colors, order), -1) for q in labels])
        matrix[j][j] = add(constant_series(colors, order, 1), matrix[j][j])
    for k in range(size):
        rows = [i for i in range(k + 1, size) if matrix[i][k].table]
        minus_inverse = scale(_reciprocal(matrix[k][k]), -1) if rows else None
        for i in rows:
            factor = multiply(matrix[i][k], minus_inverse)
            for j in range(k + 1, size):
                if matrix[k][j].table:
                    matrix[i][j] = add(matrix[i][j], multiply(factor, matrix[k][j]))
    return reduce(multiply, (matrix[k][k] for k in range(size)))


@lru_cache(maxsize=4)
def fredholm_determinant(kernels: FamilySeries) -> TruncatedSeries:
    """Truncated Fredholm determinant of the derivative-kernel operator.

    Over a finite color set this is det(Id - L) for the derivative-kernel
    matrix L indexed by all colors. Its coefficient at a key is the signed
    sum over assemblies of crowns on the key's positions, each assembly
    signed by its number of crowns. The constant term is one. The result is
    cached on the family's identity, so every query on one family shares it.
    """
    return _determinant(kernels, kernels.colors.names)


def finite_matrix_determinant(
    kernels: FamilySeries, subset: Iterable[str]
) -> TruncatedSeries:
    """Determinant of the finite matrix indexed by a set of colors Q.

    Entry (q, q') is the Kronecker delta minus the atom series at q times
    the kernel at q differentiated at q'. Coefficients at tuples whose
    colors lie inside Q agree with the Fredholm determinant, and enlarging Q
    leaves them unchanged; over all colors the two are the same series.
    """
    labels = tuple(dict.fromkeys(subset))
    if not labels:
        raise EmptySubset("the pinned color set must be non-empty")
    kernels.colors.require(labels)
    return _determinant(kernels, labels)


@lru_cache(maxsize=256)
def _box(counts: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[list], list[list]]:
    """The sub-multisets of a key with these color counts, as a mixed-radix box.

    Points are count vectors s <= counts, the last color fastest, so a point's
    sub-multisets come first. Each lists its splits (S, s - S) as index pairs
    weighted prod_c C(s_c, S_c) and, for the exponential, those where S holds
    its first position, with C(s_c0 - 1, S_c0 - 1) for its first color c0.
    Callers pass the counts largest first, so keys of one shape share a box.
    """
    points = list(product(*(range(n + 1) for n in counts)))
    index = {s: t for t, s in enumerate(points)}
    splits, first_splits = [], []
    for s in points:
        splits.append([
            (index[part], index[tuple(m - p for m, p in zip(s, part))], prod(map(comb, s, part)))
            for part in product(*(range(m + 1) for m in s))
        ])
        c0 = next((c for c, m in enumerate(s) if m), 0)
        # C(s_c0 - 1, S_c0 - 1) = C(s_c0, S_c0) S_c0 / s_c0
        first_splits.append(
            [(a, b, w * points[a][c0] // s[c0]) for a, b, w in splits[-1] if points[a][c0]]
        )
    return points, splits, first_splits


@lru_cache(maxsize=4)
def _query_tables(kernels: FamilySeries) -> tuple[int, dict, dict, int]:
    """The kernels and the Fredholm determinant in integers, once per family.

    The kernel pinned at q holds A_q[s] D^|s| at s, D the lcm of the kernels'
    denominators; the determinant holds its numerators over their lcm.
    """
    den = lcm(*(v.denominator for m in kernels.members.values() for v in m.table.values()))
    scaled = {
        q: {s: int(v * den ** len(s)) for s, v in m.table.items()}
        for q, m in kernels.members.items()
    }
    det = fredholm_determinant(kernels).table
    det_den = lcm(*(v.denominator for v in det.values()))
    return den, scaled, {s: int(v * det_den) for s, v in det.items()}, det_den


def _box_exponential(kernels: FamilySeries, key: Key) -> tuple[list[Key], list[int], int]:
    """exp of the sum of the kernels pinned at the colors of ``key``, on its box.

    The first-block recurrence runs over the key's prod_c (n_c + 1)
    sub-multisets alone. Returns them in box order, the coefficients there
    times D^|s| (integers), and D (see :func:`_query_tables`).
    """
    colors = sorted(set(key), key=lambda c: (-key.count(c), c))
    counts = tuple(map(key.count, colors))
    points, _, first_splits = _box(counts)
    keys = [canonical_key(c for c, m in zip(colors, s) for _ in range(m)) for s in points]
    den, scaled, _, _ = _query_tables(kernels)
    summed = [sum(n * scaled[c].get(s, 0) for c, n in zip(colors, counts)) for s in keys]
    exp = [1]
    for pairs in first_splits[1:]:
        exp.append(sum(w * summed[a] * exp[b] for a, b, w in pairs))
    return keys, exp, den


def _query(kernels: FamilySeries, key: Key, phi: TruncatedSeries) -> Fraction:
    """[x^key] phi times the pinned exponential times det(Id - L), in integers.

    A split sum over the key's box of phi, where non-zero, times the split
    sum of the other two factors, over D^|key| and the other denominators.
    """
    keys, exp, den = _box_exponential(kernels, key)
    _, splits, _ = _box(tuple(sorted(map(key.count, set(key)), reverse=True)))
    _, _, det, det_den = _query_tables(kernels)
    det = [det.get(s, 0) for s in keys]
    exp = [e * den ** (len(key) - len(s)) for e, s in zip(exp, keys)]
    phi_den = lcm(*(phi.table.get(s, 0).denominator for s in keys))
    phi_num = [int(phi.table.get(s, 0) * phi_den) for s in keys]
    total = sum(
        w * phi_num[a] * sum(u * exp[x] * det[y] for x, y, u in splits[b])
        for a, b, w in splits[-1] if phi_num[a]
    )
    return Fraction(total, den ** len(key) * det_den * phi_den)


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
