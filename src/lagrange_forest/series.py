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

Every kernel is polynomial in the number of keys: a product convolves the
monomial coefficients f[key] / prod_c n_c! in integers, over the pairs of
keys whose sizes fit the order; the exponential and the reciprocal recur
over the sub-multisets S of a key, E[key] = sum_S weight(S) K[S] E[key - S];
and composition with a measure sums g_J prod_q W_q^(J_q) / J_q! over g's
keys J, W being the atoms of the substituted measure. No kernel enumerates
set partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import comb, factorial, lcm
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

    def support_colors(self) -> tuple[str, ...]:
        return tuple(sorted({c for key in self.table for c in key}))


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


def _check_pair(k: TruncatedSeries, g: TruncatedSeries) -> None:
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


def _factorial_weight(key: Key) -> int:
    # prod_c n_c! over the colors c of a canonical key
    weight = 1
    for _, run in groupby(key):
        weight *= factorial(len(tuple(run)))
    return weight


def _monomial_rows(
    table: dict[Key, Fraction], max_size: int
) -> tuple[list[tuple[Key, int]], int]:
    # Integer rows (key, m) and one denominator D with m / (D * max_size!) the
    # monomial coefficient value / prod_c n_c!; rows are sorted by key size.
    rows = sorted(
        (item for item in table.items() if len(item[0]) <= max_size),
        key=lambda item: len(item[0]),
    )
    den = lcm(*(value.denominator for _, value in rows))
    top = factorial(max_size)
    scaled = [
        (key, value.numerator * (den // value.denominator) * (top // _factorial_weight(key)))
        for key, value in rows
    ]
    return scaled, den


def _convolve(
    a: tuple[list[tuple[Key, int]], int],
    b: tuple[list[tuple[Key, int]], int],
    max_size: int,
) -> dict[Key, Fraction]:
    # Convolution of monomial rows in integers: only the pairs whose sizes
    # fit max_size are visited, and each sum is turned back into a
    # symmetric-function value once.
    rows_a, den_a = a
    rows_b, den_b = b
    sums: dict[Key, int] = {}
    for key_a, na in rows_a:
        room = max_size - len(key_a)
        for key_b, nb in rows_b:
            if len(key_b) > room:
                break
            merged = tuple(sorted(key_a + key_b))
            sums[merged] = sums.get(merged, 0) + na * nb
    den = den_a * den_b * factorial(max_size) ** 2
    return {
        key: Fraction(num * _factorial_weight(key), den)
        for key, num in sums.items()
        if num
    }


def multiply(k: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Product series: each coefficient is a sum over splits of its key.

    The coefficient at a tuple is the sum, over all subsets J of the tuple's
    positions, of K at the J-part times G at the complement. In monomial
    coefficients (the value divided by prod_c n_c!, n_c counting color c in
    the key) this is a plain convolution with no binomial multiplicities. It
    is computed in integers: each table is scaled to one common denominator
    and by order! / prod_c n_c!, only pairs of keys whose sizes fit the
    order are visited, and each sum becomes a rational once.
    """
    _check_pair(k, g)
    rows = (_monomial_rows(k.table, k.order), _monomial_rows(g.table, k.order))
    return TruncatedSeries(k.colors, k.order, _convolve(*rows, k.order))


def _splits(key: Key) -> Iterator[tuple[Key, Key, int]]:
    # Every sub-multiset S of a canonical key, with its complement and the
    # number prod_c C(n_c, s_c) of position subsets realizing S.
    runs = [(color, len(tuple(run))) for color, run in groupby(key)]
    for sizes in product(*(range(m + 1) for _, m in runs)):
        part: Key = ()
        rest: Key = ()
        weight = 1
        for (color, m), s in zip(runs, sizes):
            part += (color,) * s
            rest += (color,) * (m - s)
            weight *= comb(m, s)
        yield part, rest, weight


def exponential(k: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series with vanishing constant term.

    The coefficient at a tuple is the sum over set partitions of its
    positions of the product of K over the blocks; the constant term is one.
    It is computed by splitting off the block S that holds the key's first
    position: E[key] = sum_S C(n_c0 - 1, s_c0 - 1) prod_{c != c0} C(n_c, s_c)
    K[S] E[key - S], over the sub-multisets S of the key containing its first
    color c0, where n and s count the colors of the key and of S.
    """
    if k.f0:
        raise NonzeroConstantTerm("exponential needs a vanishing constant term")
    support = k.support_colors()
    out: dict[Key, Fraction] = {(): Fraction(1)}
    for n in range(1, k.order + 1):
        for key in combinations_with_replacement(support, n):
            total = Fraction(0)
            # the blocks holding the first position are that position plus
            # any sub-multiset of the other positions
            for part, rest, weight in _splits(key[1:]):
                value = k.table.get(key[:1] + part)
                if value is not None and rest in out:
                    total += weight * value * out[rest]
            if total:
                out[key] = total
    return TruncatedSeries(k.colors, k.order, out)


def _reciprocal(p: TruncatedSeries) -> TruncatedSeries:
    """Reciprocal of a series with constant term one (the split recurrence).

    R[key] = -sum_S prod_c C(n_c, s_c) p[S] R[key - S] over the non-empty
    sub-multisets S of a key, n and s counting the colors of the key and of S.
    """
    support = p.support_colors()
    out: dict[Key, Fraction] = {(): Fraction(1)}
    for n in range(1, p.order + 1):
        for key in combinations_with_replacement(support, n):
            total = Fraction(0)
            for part, rest, weight in _splits(key):
                value = p.table.get(part)
                if part and value is not None and rest in out:
                    total += weight * value * out[rest]
            if total:
                out[key] = -total
    return TruncatedSeries(p.colors, p.order, out)


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


def _check_family(g: TruncatedSeries | FamilySeries, family: FamilySeries) -> None:
    if g.colors != family.colors:
        raise ColorSetMismatch("series and family over different color sets")
    if g.order != family.order:
        raise OrderMismatch("series and family with different orders")


class _Monomials(dict):
    """Products prod_q W_q^(J_q) / J_q! by key J, for W the radon lift of a family.

    Each entry is built on first lookup, by one product along the key's
    prefixes, and truncated at ``max_size``; the atoms' integer rows are
    derived once per table. A table can be shared by every composition with
    the same family and truncation.
    """

    def __init__(self, family: FamilySeries, max_size: int) -> None:
        super().__init__({(): {(): Fraction(1)}})
        self.max_size = max_size
        self.atom_rows = {
            q: _monomial_rows(atom.table, max_size)
            for q, atom in radon_lift(family).members.items()
        }

    def __missing__(self, key: Key) -> dict[Key, Fraction]:
        color = key[-1]
        share = Fraction(1, key.count(color))
        prefix_rows = _monomial_rows(self[key[:-1]], self.max_size)
        table = {
            merged: value * share
            for merged, value in _convolve(
                prefix_rows, self.atom_rows[color], self.max_size
            ).items()
        }
        self[key] = table
        return table


def _compose_table(g: TruncatedSeries, monomials: _Monomials) -> dict[Key, Fraction]:
    # sum_J g_J prod_q W_q^(J_q) / J_q!, up to size monomials.max_size
    out: dict[Key, Fraction] = {}
    if g.f0:
        out[()] = g.f0
    for key, gv in g.table.items():
        if key and len(key) <= monomials.max_size:
            for merged, value in monomials[key].items():
                out[merged] = out.get(merged, Fraction(0)) + gv * value
    return {key: v for key, v in out.items() if v}


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
    _check_family(g, family)
    table = _compose_table(g, _Monomials(family, g.order))
    return TruncatedSeries(g.colors, g.order, table)


def compose_measure(density: FamilySeries, family: FamilySeries) -> FamilySeries:
    """Compose two measure-valued series, given and returned as densities.

    Substituting K = F times the base measure (F is ``family``) into G times
    the base measure (G is ``density``) gives the density q -> (G_q composed
    with K) times F_q, exact up to the order. The compositions share one
    table of F's monomials, as the tree fixed point does.
    """
    _check_family(density, family)
    colors, order = density.colors, density.order
    monomials = _Monomials(family, order)  # shared by every color
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
    pinned at q, a series over keys of size 1..order. Size-zero keys are
    forbidden: the constant coefficient of every pinned series vanishes by
    construction.
    """
    if order < 1:
        raise ValueError("a kernel family needs order >= 1")
    tables: dict[str, dict[Key, Fraction]] = {name: {} for name in colors.names}
    for q, raw_key, raw_value in entries:
        colors.require((q,))
        colors.require(raw_key)
        if len(raw_key) == 0:
            raise NonzeroConstantTerm(
                "kernel families have no constant coefficients; size-0 keys are forbidden"
            )
        if len(raw_key) > order:
            raise KeyTooLarge(f"key {tuple(raw_key)} exceeds order {order}")
        key = canonical_key(raw_key)
        if key in tables[q]:
            raise DuplicateKey(f"duplicate kernel key {key} for color {q!r}")
        value = Fraction(raw_value)
        if value:
            tables[q][key] = value
    members = {q: TruncatedSeries(colors, order, table) for q, table in tables.items()}
    return FamilySeries(colors, order, members)
