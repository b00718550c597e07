"""Exact truncated power series over a finite color set.

A scalar series is stored as a sparse table mapping canonical coefficient
keys (sorted tuples of color labels) to non-zero rationals; the table holds
the symmetric-function values of the coefficients, so a key stands for every
permutation of its colors. Every operation builds its table in that normal
form, and the series takes the table as it is. All operations truncate
silently at the series order, which is sound because a coefficient of a
given size never depends on larger coefficients of the inputs.

Function-valued series are families with one member series per color. A
kernel family is such a family, with vanishing constant terms, and a
measure-valued series is one too: its member at a color is the atom at
that color, the radon lift of its density. Compositions of measures work
on the densities and lift only where atoms are read.

Every kernel works on the count vectors of size <= order over the colors
its inputs carry (_simplex, cached once per shape and read in all_keys
order), so its cost follows the number of those colors and the order, not
the non-zero entries. Split tables list how a point splits into two, with
the binomial weight w of its position subsets. _graded lays rational tables
there as integer vectors graded by D^|s| (D an lcm of denominators), which
one scatter product, sum w p[a] q[b], multiplies for multiply, the
composition's monomials and the determinant's elimination. One loop, E[t] =
sum w K[a] E[b], gives exp(K) over the first-block splits and (1 - K)^-1,
the elimination's pivot inverse, over all splits. Composition with a
measure sums g_J prod_q W_q^(J_q) / J_q! over g's keys J, W being the atoms
of the substituted measure, with one rational built per output key. No
kernel enumerates set partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, lcm, prod
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    ColorSetMismatch,
    DuplicateKey,
    KeyTooLarge,
    NonzeroConstantTerm,
    OrderMismatch,
    TooManyPins,
    UnknownColor,
)

Key = tuple[str, ...]
RationalLike = Union[Fraction, int, str]


def canonical_key(colors: Iterable[str]) -> Key:
    """Sorted tuple form of a color multiset; labels sort lexicographically."""
    return tuple(sorted(colors))


@dataclass(frozen=True)
class ColorSet:
    """A finite set of distinct, non-empty color labels."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = tuple(self.names)
        if not names:
            raise ValueError("a color set needs at least one color")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate color labels in {names}")
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"color labels must be non-empty strings, got {name!r}")
        object.__setattr__(self, "names", names)

    @property
    def d(self) -> int:
        return len(self.names)

    def __contains__(self, label: object) -> bool:
        return label in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    @property
    def sorted_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.names))

    def require(self, labels: Iterable[str]) -> None:
        for label in labels:
            if label not in self.names:
                raise UnknownColor(f"color {label!r} is not in {self.names}")


def all_keys(colors: ColorSet, max_size: int) -> Iterator[Key]:
    """Every canonical key of size 0..max_size, ordered by size then lexicographically."""
    for n in range(max_size + 1):
        yield from combinations_with_replacement(colors.sorted_names, n)


@dataclass(frozen=True)
class TruncatedSeries:
    """Scalar formal power series truncated at ``order``.

    ``table`` maps canonical keys of size <= order to non-zero ``Fraction``
    values; absent keys mean a zero coefficient. The table is handed over,
    not copied or normalised: its producer builds it in that form, and only
    a key above the order is rejected. Instances are immutable; build them
    through :func:`make_series` or the arithmetic operations.
    """

    colors: ColorSet
    order: int
    table: dict[Key, Fraction]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be non-negative")
        for key in self.table:
            if len(key) > self.order:
                raise ValueError(f"internal error: key {key} exceeds order {self.order}")

    @property
    def f0(self) -> Fraction:
        return self.table.get((), Fraction(0))

    def coefficient(self, q_tuple: Sequence[str]) -> Fraction:
        """Coefficient at a color tuple; invariant under permutations."""
        if len(q_tuple) > self.order:
            raise KeyTooLarge(
                f"tuple of size {len(q_tuple)} exceeds order {self.order}"
            )
        self.colors.require(q_tuple)
        return self.table.get(canonical_key(q_tuple), Fraction(0))


def make_series(
    colors: ColorSet,
    order: int,
    entries: Iterable[tuple[Sequence[str], RationalLike]] = (),
) -> TruncatedSeries:
    """Build a series from (color tuple, value) pairs given in any color order."""
    table: dict[Key, Fraction] = {}
    for raw_key, raw_value in entries:
        colors.require(raw_key)
        if len(raw_key) > order:
            raise KeyTooLarge(f"key {tuple(raw_key)} exceeds order {order}")
        key = canonical_key(raw_key)
        if key in table:
            raise DuplicateKey(f"duplicate canonical key {key}")
        table[key] = Fraction(raw_value)
    return TruncatedSeries(colors, order, {key: v for key, v in table.items() if v})


def zero_series(colors: ColorSet, order: int) -> TruncatedSeries:
    return TruncatedSeries(colors, order, {})


def constant_series(colors: ColorSet, order: int, value: RationalLike) -> TruncatedSeries:
    return make_series(colors, order, [((), value)])


def indicator_series(
    colors: ColorSet, order: int, subset: Iterable[str]
) -> TruncatedSeries:
    """The series measuring a color subset B: first-order coefficient one on B."""
    labels = tuple(dict.fromkeys(subset))
    colors.require(labels)
    if order < 1:
        return zero_series(colors, order)
    return TruncatedSeries(colors, order, {(c,): Fraction(1) for c in labels})


def _check_pair(k: TruncatedSeries | FamilySeries, g: TruncatedSeries | FamilySeries) -> None:
    if k.colors != g.colors:
        raise ColorSetMismatch(f"{k.colors.names} vs {g.colors.names}")
    if k.order != g.order:
        raise OrderMismatch(f"order {k.order} vs {g.order}")


def add(k: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    _check_pair(k, g)
    table = dict(k.table)
    for key, value in g.table.items():
        table[key] = table.get(key, Fraction(0)) + value
    return TruncatedSeries(k.colors, k.order, {key: v for key, v in table.items() if v})


def scale(k: TruncatedSeries, factor: RationalLike) -> TruncatedSeries:
    factor = Fraction(factor)
    return TruncatedSeries(
        k.colors, k.order, {key: factor * v for key, v in k.table.items()} if factor else {}
    )


def _split_table(points: Sequence[tuple[int, ...]]) -> tuple[list[list], list[list]]:
    """The splits of every point of a down-closed list of count vectors.

    The points come sub-multisets first, the empty one first. Point t, with
    points[t] = s, has splits (a, b, w, t) for points[a] = S, points[b] = s - S
    and w = prod_c C(s_c, S_c), the number of position subsets of a key
    counted by s whose colors S counts; its first-block splits count only the
    subsets holding the first position: C(s_c0 - 1, S_c0 - 1) prod_{c != c0}
    C(s_c, S_c).
    """
    index = {s: t for t, s in enumerate(points)}
    splits, first_splits = [], []
    for t, s in enumerate(points):
        splits.append([
            (index[part], index[tuple(m - p for m, p in zip(s, part))],
             prod(map(comb, s, part)), t)
            for part in product(*(range(m + 1) for m in s))
        ])
        c0 = next((c for c, m in enumerate(s) if m), None)
        # C(s_c0 - 1, S_c0 - 1) = C(s_c0, S_c0) S_c0 / s_c0
        first_splits.append([
            (a, b, w * points[a][c0] // s[c0], t)
            for a, b, w, _ in splits[-1] if c0 is not None and points[a][c0]
        ])
    return splits, first_splits


@lru_cache(maxsize=8)
def _simplex(d: int, max_size: int) -> tuple[list[tuple[int, ...]], list, list, list]:
    # the count vectors of size <= max_size over d colors, in all_keys order,
    # their split tables, and the forward splits of each point a: the splits
    # (a, b, w, t) of the points t, in point order, the same tuples. Point
    # counts by size are prefixes, so the tables serve every truncation.
    points = [
        tuple(map(combo.count, range(d)))
        for n in range(max_size + 1)
        for combo in combinations_with_replacement(range(d), n)
    ]
    splits, first_splits = _split_table(points)
    forward = [[] for _ in points]
    for pairs in splits:
        for split in pairs:
            forward[split[0]].append(split)
    return points, splits, first_splits, forward


@lru_cache(maxsize=8)
def _keys(support: tuple[str, ...], max_size: int) -> list[Key]:
    # the canonical key of each point of _simplex over the sorted colors support
    points = _simplex(len(support), max_size)[0]
    return [tuple(c for c, m in zip(support, s) for _ in range(m)) for s in points]


def _recur(values: Sequence, splits: list[list]) -> list:
    # out[0] = 1, out[t] = sum w values[a] out[b] over point t's splits, for
    # values[0] = 0 (the split b = t is never read): exp(values) over the
    # first-block splits, and (1 - values)^-1 (out = 1 + values out) over all
    out = [1]
    for pairs in splits[1:]:
        out.append(sum(w * values[a] * out[b] for a, b, w, _ in pairs if values[a]))
    return out


def _product(p: Sequence, q: Sequence, forward: list[list]) -> list:
    # out[t] = sum w p[a] q[b] over the splits (a, b, w, t) of the first
    # len(p) points: each non-zero p[a] is scattered along a's forward splits
    # up to the truncation
    limit = len(p)
    out = [0] * limit
    for a, x in enumerate(p):
        if x:
            for _, b, w, t in forward[a]:
                if t >= limit:
                    break
                out[t] += w * x * q[b]
    return out


def _graded(
    tables: Sequence[dict[Key, Fraction]], order: int, shift: int = 0
) -> tuple[list[Key], tuple, int, list[list[int]]]:
    # rational tables laid onto the simplex of the colors they carry: its
    # keys and _simplex tables, D (the lcm of the tables' denominators) and
    # each table as an integer vector, its value at s times D^(|s| + shift);
    # a product of two vectors graded by D^|s| is too, as D^|S| D^|s-S| = D^|s|
    support = tuple(sorted({c for table in tables for key in table for c in key}))
    keys = _keys(support, order)
    den = lcm(*(v.denominator for table in tables for v in table.values()))
    powers = [den ** (n + shift) for n in range(order + 1)]
    vectors = [[int(t.get(key, 0) * powers[len(key)]) for key in keys] for t in tables]
    return keys, _simplex(len(support), order), den, vectors


def multiply(k: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Product series: each coefficient is a sum over splits of its key.

    The coefficient at a tuple is the sum, over all subsets J of the tuple's
    positions, of K at the J-part times G at the complement. It is computed
    in integers on the points of the factors' colors (:func:`_graded`): with
    D the lcm of their denominators, each factor at s times D^(|s| + 1) is an
    integer (the constant terms need the extra D), the product of two such is
    graded by D^(|s| + 2), and each non-zero sum becomes a rational once.
    """
    _check_pair(k, g)
    keys, (*_, forward), den, (p, q) = _graded((k.table, g.table), k.order, shift=1)
    out = _product(p, q, forward)
    table = {key: Fraction(v, den ** (len(key) + 2)) for key, v in zip(keys, out) if v}
    return TruncatedSeries(k.colors, k.order, table)


def exponential(k: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series with vanishing constant term.

    The coefficient at a tuple is the sum over set partitions of its
    positions of the product of K over the blocks; the constant term is one.
    Splitting off the block S that holds the first position gives E[key] =
    sum w K[S] E[key - S] over the key's first-block splits (_split_table).
    """
    if k.f0:
        raise NonzeroConstantTerm("exponential needs a vanishing constant term")
    support = tuple(sorted({c for key in k.table for c in key}))
    keys = _keys(support, k.order)
    out = _recur([k.table.get(key, 0) for key in keys], _simplex(len(support), k.order)[2])
    out[0] = Fraction(1)
    return TruncatedSeries(k.colors, k.order, {key: v for key, v in zip(keys, out) if v})


def variational_derivative(k: TruncatedSeries, pins: Sequence[str]) -> TruncatedSeries:
    """Pin colors: the result's coefficient at x is K's coefficient at pins + x.

    The result is truncated at ``order - len(pins)``; its constant term is
    K's coefficient at the pinned tuple itself.
    """
    if len(pins) > k.order:
        raise TooManyPins(f"cannot pin {len(pins)} colors at order {k.order}")
    k.colors.require(pins)
    new_order = k.order - len(pins)
    out: dict[Key, Fraction] = {}
    for key, value in k.table.items():
        rest = list(key)  # sorted, and removing entries keeps it sorted
        try:
            for pin in pins:
                rest.remove(pin)
        except ValueError:  # a pin not in the key
            continue
        out[tuple(rest)] = value  # of size <= order - len(pins), as the key fits the order
    return TruncatedSeries(k.colors, new_order, out)


# ---------------------------------------------------------------------------
# function-valued and measure-valued series


@dataclass(frozen=True, eq=False)
class FamilySeries:
    """One scalar series per color: a function-valued series, finitely many colors.

    A kernel family is one with vanishing constant terms, ``members[q]``
    being the kernel pinned at q. A measure-valued series is one too, stored
    as its atoms: ``members[q]`` is the atom at q, and :meth:`evaluate` sums
    the atoms over a subset. A family hashes by identity, so the package's
    caches (the Fredholm determinant and its integer tables, the tree
    solution, the tree and map sums of :mod:`combinat`) key on the object:
    build it once and do not mutate its members afterwards.
    Equality compares the colors, the order and the members.
    """

    colors: ColorSet
    order: int
    members: dict[str, TruncatedSeries]

    __hash__ = object.__hash__

    def __post_init__(self) -> None:
        if set(self.members) != set(self.colors.names):
            raise ValueError("family needs exactly one member per color")
        for member in self.members.values():
            if member.colors != self.colors:
                raise ColorSetMismatch("family member over a different color set")
            if member.order != self.order:
                raise OrderMismatch("family member with a different order")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FamilySeries):
            return NotImplemented
        return (
            self.colors == other.colors
            and self.order == other.order
            and self.members == other.members
        )

    @classmethod
    def constant(
        cls, colors: ColorSet, order: int, value: RationalLike = 1
    ) -> FamilySeries:
        return cls(
            colors,
            order,
            {name: constant_series(colors, order, value) for name in colors.names},
        )

    def value(self, q: str, xs: Sequence[str]) -> Fraction:
        """Member at q, read at the color multiset xs."""
        return self.members[q].table.get(canonical_key(xs), Fraction(0))

    def evaluate(self, subset: Iterable[str] | None = None) -> TruncatedSeries:
        """Sum of the members over a color subset (the whole set by default).

        For a measure stored as its atoms, this is the measure of the subset.
        """
        labels = tuple(self.colors.names) if subset is None else tuple(subset)
        self.colors.require(labels)
        total = zero_series(self.colors, self.order)
        for label in dict.fromkeys(labels):
            total = add(total, self.members[label])
        return total


def _atom(
    q: str, table: dict[Key, Fraction], colors: ColorSet, order: int
) -> TruncatedSeries:
    # The atom at q of a density whose member at q has this table: each key
    # gains one copy of q, weighted by the multiplicity of q in it. Distinct
    # keys stay distinct.
    lifted = {
        canonical_key((*key, q)): v * (key.count(q) + 1)
        for key, v in table.items()
        if len(key) < order
    }
    return TruncatedSeries(colors, order, lifted)


def radon_lift(family: FamilySeries) -> FamilySeries:
    """Multiply a function-valued series by the base measure.

    The result is the measure stored as its atoms. The atom at q collects,
    from each key containing q, the family member at q evaluated with one
    copy of q removed, weighted by the multiplicity of q in the key; density
    coefficients of size ``order`` land past the order and are dropped. The
    total mass, ``radon_lift(family).evaluate()``, is the integral of the
    family against the base measure.
    """
    colors, order = family.colors, family.order
    members = {q: _atom(q, family.members[q].table, colors, order) for q in colors.names}
    return FamilySeries(colors, order, members)


class _Monomials(dict):
    """Products prod_q W_q^(J_q) / J_q! by key J, for W the radon lift of a family.

    W is lifted only at the colors that the keys of the ``outer`` series read,
    the only atoms their compositions look up. Each entry is an integer vector
    over the points of size <= ``max_size`` of the family-order simplex on the
    atoms' colors, graded by D^|s| (D the lcm of the atoms' denominators,
    :func:`_graded`). It is built on first lookup, as its prefix's vector times
    the atom at its last color q, divided by J_q, which is exact. A table serves
    every composition of the outer series with this family and truncation.
    """

    def __init__(
        self, family: FamilySeries, max_size: int, outer: Iterable[TruncatedSeries]
    ) -> None:
        reads = sorted({c for g in outer for key in g.table for c in key})
        atoms = {q: _atom(q, family.members[q].table, family.colors, family.order) for q in reads}
        keys, (points, *_, self.forward), self.den, vectors = _graded(
            [atom.table for atom in atoms.values()], family.order
        )
        self.max_size = max_size
        self.keys = keys[: comb(max_size + len(points[0]), max_size)]  # |s| <= max_size
        self.atoms = dict(zip(atoms, vectors))  # read only below the truncation
        super().__init__({(): [1] + [0] * (len(self.keys) - 1)})

    def __missing__(self, key: Key) -> list[int]:
        color = key[-1]
        share = key.count(color)  # J_q
        vector = _product(self[key[:-1]], self.atoms[color], self.forward)
        self[key] = entry = [v // share for v in vector]
        return entry


def _compose_table(g: TruncatedSeries, monomials: _Monomials) -> dict[Key, Fraction]:
    # sum_J g_J prod_q W_q^(J_q) / J_q!, up to size monomials.max_size: each
    # g_J is scaled to one common denominator, the graded monomial vectors are
    # summed in integers, and each output key becomes a rational once
    terms = [
        (gv, monomials[key])
        for key, gv in g.table.items()
        if key and len(key) <= monomials.max_size
    ]
    den = lcm(*(gv.denominator for gv, _ in terms))
    sums = [0] * len(monomials.keys)
    for gv, vector in terms:
        factor = gv.numerator * (den // gv.denominator)
        for t, m in enumerate(vector):
            if m:
                sums[t] += factor * m
    out = {(): g.f0} if g.f0 else {}
    out.update(
        (key, Fraction(v, den * monomials.den ** len(key)))
        for key, v in zip(monomials.keys, sums) if v
    )
    return out


def compose_family(g: TruncatedSeries, family: FamilySeries) -> TruncatedSeries:
    """Substitute the measure "family times base measure" into the series g.

    A coefficient at a key is a sum over non-empty position subsets J and
    distributions of the remaining positions into shares, one share per
    element of J: g contributes its coefficient at the J-colors, and each
    J-position contributes its family member at that position's share. The
    constant term stays g's constant term. With W_q the atom at q of the
    radon lift of the family, this is sum_J g_J prod_q W_q^(J_q) / J_q!, and
    each monomial costs one product along the prefixes of its key.
    """
    _check_pair(g, family)
    table = _compose_table(g, _Monomials(family, g.order, (g,)))
    return TruncatedSeries(g.colors, g.order, table)


def compose_measure(density: FamilySeries, family: FamilySeries) -> FamilySeries:
    """Compose two measure-valued series, given and returned as densities.

    Substituting K = F times the base measure (F is ``family``) into G times
    the base measure (G is ``density``) gives the density q -> (G_q composed
    with K) times F_q, exact up to the order. The compositions share one
    table of F's monomials, as the tree fixed point does.
    """
    _check_pair(density, family)
    colors, order = density.colors, density.order
    monomials = _Monomials(family, order, density.members.values())
    members = {
        q: multiply(
            TruncatedSeries(colors, order, _compose_table(density.members[q], monomials)),
            family.members[q],
        )
        for q in colors.names
    }
    return FamilySeries(colors, order, members)


# ---------------------------------------------------------------------------
# kernel families


def make_kernel_family(
    colors: ColorSet,
    order: int,
    entries: Iterable[tuple[str, Sequence[str], RationalLike]] = (),
) -> FamilySeries:
    """Build a kernel family from (pinned color, key tuple, value) triples.

    The result is a :class:`FamilySeries` whose member at q is the kernel
    pinned at q, a series over keys of size 1..order built by
    :func:`make_series` from the entries pinned at q, which checks their keys
    and values as for any series. Size-zero keys are forbidden: the constant
    coefficient of every pinned series vanishes by construction.
    """
    if order < 1:
        raise ValueError("a kernel family needs order >= 1")
    grouped: dict[str, list] = {name: [] for name in colors.names}
    for q, raw_key, raw_value in entries:
        colors.require((q,))
        if len(raw_key) == 0:
            raise NonzeroConstantTerm(
                "kernel families have no constant coefficients; size-0 keys are forbidden"
            )
        grouped[q].append((raw_key, raw_value))
    members = {q: make_series(colors, order, pairs) for q, pairs in grouped.items()}
    return FamilySeries(colors, order, members)
