"""Inversion of colored power series of the form z times exp(-A).

The forward measure's density exp(-A) and two independent routes to the
inverse live here. The tree route solves the fixed-point equation whose
solution generates weighted rooted trees, and lifts it to the inverse
measure series. The determinant route expresses coefficients of any
composed observable through a truncated Fredholm determinant det(Id - L),
the signed sum over the crowns that are the cycles of L. One elimination
on L computes it, and its reduction to a finite matrix over a color
subset, in integers graded by D^|s| (D an lcm of denominators); each query
runs the series' exponential loop in such integers on its key's
sub-multisets. The cancellation sum between the two routes is exact; the
checks that compare the routes live in :mod:`~lagrange_forest.harness`.

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
from math import lcm
from typing import Iterable, Sequence

from .errors import ColorSetMismatch, EmptySubset, KeyTooLarge, OrderMismatch
from .series import (
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
    canonical_key,
    constant_series,
    exponential,
    indicator_series,
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
        monomials = _Monomials(current, step, kernels.members.values())
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
