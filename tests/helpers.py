"""Independent oracles and small builders shared by the test modules.

Everything here is deliberately written from scratch against the defining
formulas (subset sums, set partitions, Bell recurrence, raw product
enumeration, Leibniz expansions, walks of a map's digraph) so the package
under test never checks itself against its own code paths.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product

from lagrange_forest.combinat import EnrichedMap
from lagrange_forest.series import ColorSet, TruncatedSeries, all_keys, make_series, multiply

POOL = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))

# mixed denominators, a zero, and one value above 2**64
PRODUCT_POOL = (
    Fraction(1, 3),
    Fraction(-2, 7),
    Fraction(5, 12),
    Fraction(0),
    Fraction(5 * 2**64 + 1, 3),
)


def series_from(colors: ColorSet, order: int, table: dict) -> TruncatedSeries:
    return make_series(colors, order, table.items())


def bell_number(n: int) -> int:
    """Bell number via the Bell-triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def product_oracle(k: TruncatedSeries, g: TruncatedSeries, key: tuple) -> Fraction:
    """Product coefficient by the literal subset-sum formula."""
    n = len(key)
    total = Fraction(0)
    for size in range(n + 1):
        for chosen in combinations(range(n), size):
            left = k.coefficient(tuple(key[p] for p in chosen))
            right = g.coefficient(tuple(key[p] for p in range(n) if p not in chosen))
            total += left * right
    return total


def folded_product_coefficient(factors, key: tuple) -> Fraction:
    """Coefficient at key of the full truncated product of the factors.

    Folds the factors with ``multiply`` and reads one coefficient of the
    result: the reading that a direct split sum over the key replaces.
    """
    return reduce(multiply, factors).coefficient(key)


def enriched_count_oracle(n_vertices: int, sinks: tuple) -> int:
    """Independent count of enriched maps: sum over raw maps of Bell products."""
    universe = list(range(1, n_vertices + 1)) + list(sinks)
    total = 0
    for targets in product(universe, repeat=n_vertices):
        fibers = Counter(targets)
        weight = 1
        for size in fibers.values():
            weight *= bell_number(size)
        total += weight
    return total


def multiply_many(factors) -> TruncatedSeries:
    """Product of several series, computed directly via ordered partitions.

    For every coefficient key, positions are distributed over the factors in
    all possible ways (empty shares allowed): a second, independent route to
    the iterated binary product.
    """
    if not factors:
        raise ValueError("multiply_many needs at least one factor")
    first = factors[0]
    out = {}
    for key in all_keys(first.colors, first.order):
        n = len(key)
        total = Fraction(0)
        for assignment in product(range(len(factors)), repeat=n):
            term = Fraction(1)
            for idx, factor in enumerate(factors):
                term *= factor.coefficient(
                    tuple(key[p] for p in range(n) if assignment[p] == idx)
                )
            total += term
        if total:
            out[key] = total
    return TruncatedSeries(first.colors, first.order, out)


def _partitions(items: tuple):
    """Set partitions of ``items``.

    The first item either forms a block of its own or joins one block of a
    partition of the remaining items.
    """
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in _partitions(rest):
        yield [(head,), *partition]
        for i, block in enumerate(partition):
            yield [*partition[:i], (head, *block), *partition[i + 1 :]]


def exponential_oracle(k: TruncatedSeries, key: tuple) -> Fraction:
    """Coefficient of exp(K) at key: a sum over set partitions of its positions.

    Each partition contributes the product of K over its blocks.
    """
    total = Fraction(0)
    for partition in _partitions(tuple(range(len(key)))):
        term = Fraction(1)
        for block in partition:
            term *= k.coefficient(tuple(key[p] for p in block))
        total += term
    return total


def compose_oracle(g: TruncatedSeries, family, key: tuple) -> Fraction:
    """Coefficient of g composed with "family times base measure", from the definition.

    Sums over non-empty position subsets J, with the remaining positions
    distributed over J in all possible ways: g at the J-colors times, for
    each J-position, its family member at its share. The constant term is
    g's constant term.
    """
    n = len(key)
    if n == 0:
        return g.coefficient(())
    total = Fraction(0)
    positions = range(n)
    for size in range(1, n + 1):
        for chosen in combinations(positions, size):
            gv = g.coefficient(tuple(key[p] for p in chosen))
            if not gv:
                continue
            rest = [p for p in positions if p not in chosen]
            for assignment in product(range(size), repeat=len(rest)):
                term = gv
                for slot, j in enumerate(chosen):
                    share = tuple(
                        key[p] for p, owner in zip(rest, assignment) if owner == slot
                    )
                    term *= family.members[key[j]].coefficient(share)
                total += term
    return total


def _permutation_sign(sigma: tuple) -> int:
    """(-1) to the number of positions minus the number of cycles."""
    seen = set()
    cycles = 0
    for start in range(len(sigma)):
        if start in seen:
            continue
        cycles += 1
        at = start
        while at not in seen:
            seen.add(at)
            at = sigma[at]
    return -1 if (len(sigma) - cycles) % 2 else 1


def fredholm_oracle(kernels, key: tuple) -> Fraction:
    """Fredholm determinant coefficient by the position-subset expansion.

    Sums, over non-empty position subsets P with sign (-1)**len(P), the
    Leibniz expansion of the derivative-kernel matrix pinned at the
    P-colors: entry (i, j) is the kernel pinned at the j-th P-color,
    evaluated at the i-th P-color plus the share of the remaining positions
    handed to row i, summed over every way of handing them out.
    """
    n = len(key)
    total = Fraction(0)
    for r in range(1, n + 1):
        for chosen in combinations(range(n), r):
            pinned = [key[p] for p in chosen]
            rest = [key[p] for p in range(n) if p not in chosen]
            minor = Fraction(0)
            for sigma in permutations(range(r)):
                for assignment in product(range(r), repeat=len(rest)):
                    term = Fraction(_permutation_sign(sigma))
                    for row in range(r):
                        share = [c for c, owner in zip(rest, assignment) if owner == row]
                        term *= kernels.value(pinned[sigma[row]], [pinned[row], *share])
                    minor += term
            total += (-1) ** r * minor
    return total


def connected_components(m: EnrichedMap) -> list[EnrichedMap]:
    """Split an enriched map into its weakly connected components."""
    neighbours = {v: set() for v in m.vertices}
    for v, t in zip(m.domain, m.targets):
        neighbours[v].add(t)
        neighbours[t].add(v)
    unvisited = set(m.vertices)
    components = []
    while unvisited:
        component = {min(unvisited)}
        frontier = list(component)
        while frontier:
            for w in neighbours[frontier.pop()]:
                if w not in component:
                    component.add(w)
                    frontier.append(w)
        unvisited -= component
        domain = tuple(v for v in m.domain if v in component)
        components.append(
            EnrichedMap(
                domain,
                tuple(s for s in m.sinks if s in component),
                tuple(m.mapping[v] for v in domain),
                tuple((v, p) for v, p in m.blocks if v in component),
            )
        )
    return components


def _cycles(m: EnrichedMap) -> list[frozenset]:
    """The cycles of the map's functional digraph, each as a vertex set."""
    f = m.mapping
    cycles = set()
    for start in m.domain:
        path = [start]
        while path[-1] in f and f[path[-1]] not in path:
            path.append(f[path[-1]])
        if path[-1] in f:  # the walk closed a cycle at f[path[-1]]
            cycles.add(frozenset(path[path.index(f[path[-1]]) :]))
    return list(cycles)


def is_cycle_rooted_tree(m: EnrichedMap) -> bool:
    """Connected with exactly one cycle; such a graph has no sinks."""
    return not m.sinks and len(connected_components(m)) == 1 and len(_cycles(m)) == 1


def is_crown(m: EnrichedMap) -> bool:
    """Image is a single cycle and every base fiber carries one block."""
    base = set(m.targets)
    return (
        not m.sinks
        and bool(m.domain)
        and _cycles(m) == [frozenset(base)]
        and all(len(parts) == 1 for _, parts in m.blocks)
    )
