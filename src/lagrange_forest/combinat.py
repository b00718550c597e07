"""Brute-force enumeration of enriched maps, trees, crowns, and forests.

Everything in this module is exhaustive enumeration with exact rational
weights. It is deliberately independent of the series algebra in
:mod:`lagrange_forest.series` so that the two sides can cross-check each
other coefficient by coefficient.

Vertex labels are integers. Enumerations are emitted in a fixed canonical
order: lexicographic on the map's target vector, then on the fiber
partitions (restricted-growth order per fiber).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import BlockTooLarge, SizeCapExceeded

if TYPE_CHECKING:
    from .series import FamilySeries

#: Most vertices (domain plus sinks) or elements an enumeration accepts. The
#: number of enriched maps grows super-exponentially with the vertex count:
#: 268,098 on six vertices, 6,593,839 on seven.
MAX_ENUMERATION = 6

Coloring = Mapping[int, str]


def _check_cap(size: int, at_least: bool = False) -> None:
    if size > MAX_ENUMERATION:
        count = f"at least {size}" if at_least else str(size)
        raise SizeCapExceeded(
            f"enumeration over {count} vertices exceeds the cap of {MAX_ENUMERATION}"
        )


def _vertices(items: Iterable[int], taken: int = 0) -> tuple[int, ...]:
    # The distinct items, sorted. Reading stops with a refusal as soon as
    # they and ``taken`` other vertices pass the cap, so a large input is
    # never held.
    seen: set[int] = set()
    for item in items:
        seen.add(item)
        _check_cap(taken + len(seen), at_least=True)
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# set partitions


def set_partitions_of(items: Iterable) -> list[tuple[tuple, ...]]:
    """All set partitions of ``items`` into non-empty blocks.

    Partitions are emitted in restricted-growth order; within a partition,
    blocks are ordered by their first element and keep the input order of
    ``items``. The empty collection has exactly one (empty) partition.
    """
    elements = list(items)
    n = len(elements)
    if n == 0:
        return [()]
    out: list[tuple[tuple, ...]] = []
    codes = [0] * n

    def extend(i: int, top: int) -> None:
        if i == n:
            blocks: dict[int, list] = {}
            for element, code in zip(elements, codes):
                blocks.setdefault(code, []).append(element)
            out.append(tuple(tuple(blocks[c]) for c in sorted(blocks)))
            return
        for code in range(top + 2):
            codes[i] = code
            extend(i + 1, max(top, code))

    extend(0, -1)
    return out


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of ``{1, ..., n}``; the count is the Bell number.

    Raises :class:`SizeCapExceeded` when ``n`` is above ``MAX_ENUMERATION``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    _check_cap(n)
    return set_partitions_of(range(1, n + 1))


# ---------------------------------------------------------------------------
# enriched maps


@dataclass(frozen=True)
class EnrichedMap:
    """A partial endofunction together with a set partition of every fiber.

    ``targets[i]`` is the image of ``domain[i]``; sinks have no outgoing
    edge. ``blocks`` lists, for every vertex with a non-empty fiber, the
    partition of that fiber into non-empty blocks. All components are stored
    in canonical (sorted) form, so instances are hashable value objects.
    """

    domain: tuple[int, ...]
    sinks: tuple[int, ...]
    targets: tuple[int, ...]
    blocks: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.domain + self.sinks))

    @property
    def mapping(self) -> dict[int, int]:
        return dict(zip(self.domain, self.targets))

    def render(self) -> str:
        """Canonical single-line description, used by the CLI listings."""
        if self.domain:
            arrows = " ".join(f"{v}->{t}" for v, t in zip(self.domain, self.targets))
        else:
            arrows = "(empty)"
        parts = " ".join(
            f"P({v})={{{'|'.join(','.join(map(str, b)) for b in p)}}}"
            for v, p in self.blocks
        )
        return f"{arrows} ; {parts}" if parts else arrows


def _iter_maps(domain: tuple[int, ...], sinks: tuple[int, ...]) -> Iterator[EnrichedMap]:
    universe = tuple(sorted(domain + sinks))
    for targets in product(universe, repeat=len(domain)):
        fibers: dict[int, list[int]] = {}
        for v, t in zip(domain, targets):
            fibers.setdefault(t, []).append(v)
        occupied = [v for v in universe if v in fibers]
        choices = [
            [(v, parts) for parts in set_partitions_of(fibers[v])] for v in occupied
        ]
        for combo in product(*choices):
            yield EnrichedMap(domain, sinks, targets, tuple(combo))


# The oracles share these caches; the public enumerations build fresh lists, so
# a large enumeration is freed when its caller drops it.
@lru_cache(maxsize=256)
def _enriched_maps(domain: tuple[int, ...], sinks: tuple[int, ...]) -> tuple[EnrichedMap, ...]:
    return tuple(_iter_maps(domain, sinks))


def enumerate_enriched_maps(domain: Iterable[int], sinks: Iterable[int] = ()) -> list[EnrichedMap]:
    """All enriched maps with the given domain and sink set.

    Returns the empty list for an empty domain. Raises
    :class:`SizeCapExceeded` when ``len(domain) + len(sinks)`` is above
    ``MAX_ENUMERATION``.
    """
    dom = _vertices(domain)
    if not dom:
        return []
    snk = _vertices(sinks, len(dom))
    if set(dom) & set(snk):
        raise ValueError("domain and sinks must be disjoint")
    return list(_iter_maps(dom, snk))


# ---------------------------------------------------------------------------
# weights


def map_weight(m: EnrichedMap, coloring: Coloring, kernels: "FamilySeries") -> Fraction:
    """Product over fiber blocks of the kernel value at the block's colors.

    ``coloring`` must assign a color to every vertex, domain and sinks
    alike. An enriched map without any blocks has weight one.
    """
    for v in m.vertices:
        if v not in coloring:
            raise ValueError(f"coloring misses vertex {v}")
    weight = Fraction(1)
    for v, parts in m.blocks:
        pinned = coloring[v]
        for block in parts:
            if len(block) > kernels.order:
                raise BlockTooLarge(
                    f"fiber block of size {len(block)} exceeds order {kernels.order}"
                )
            weight *= kernels.value(pinned, tuple(coloring[w] for w in block))
            if not weight:
                return weight
    return weight


# ---------------------------------------------------------------------------
# rooted trees


def _cycle_vertices(m: EnrichedMap) -> set[int]:
    f = m.mapping
    on_cycle: set[int] = set()
    for start in m.domain:
        cur = start
        for _ in range(len(m.domain)):
            if cur not in f:  # reached a sink
                break
            cur = f[cur]
            if cur == start:
                on_cycle.add(start)
                break
    return on_cycle


def is_vertex_rooted_tree(m: EnrichedMap) -> bool:
    """Acyclic with a unique sink, the root; every path then ends there."""
    return len(m.sinks) == 1 and not _cycle_vertices(m)


@lru_cache(maxsize=256)
def _rooted_trees(domain: tuple[int, ...], sink: int) -> tuple[EnrichedMap, ...]:
    return tuple(
        m for m in _enriched_maps(domain, (sink,)) if is_vertex_rooted_tree(m)
    )


def enumerate_rooted_trees(domain: Iterable[int], sink: int = 0) -> list[EnrichedMap]:
    """All enriched maps on ``domain`` plus one sink that are vertex-rooted trees."""
    dom = _vertices(domain, 1)
    if sink in dom:
        raise ValueError("sink must not belong to the domain")
    if not dom:
        return []
    return [m for m in _iter_maps(dom, (sink,)) if is_vertex_rooted_tree(m)]


def tree_coefficient(
    n: int,
    root_color: str,
    leaf_colors: Sequence[str],
    kernels: "FamilySeries",
) -> Fraction:
    """Sum of weights over all enriched rooted trees on ``n`` labelled vertices.

    The root is a ghost carrying ``root_color``; vertex ``i`` carries
    ``leaf_colors[i-1]``. By convention the empty tree (``n == 0``) has
    coefficient one. Sums are cached on the leaf multiset and the family's
    identity.
    """
    if len(leaf_colors) != n:
        raise ValueError("leaf_colors must have length n")
    if n > kernels.order:
        raise ValueError(f"n={n} exceeds the kernel family's order {kernels.order}")
    if n == 0:
        return Fraction(1)
    _check_cap(n + 1)
    return _tree_sum(root_color, tuple(sorted(leaf_colors)), kernels)


@lru_cache(maxsize=256)
def _tree_sum(root_color: str, leaves: tuple[str, ...], kernels: "FamilySeries") -> Fraction:
    coloring = {0: root_color, **dict(enumerate(leaves, start=1))}
    total = Fraction(0)
    for tree in _rooted_trees(tuple(range(1, len(leaves) + 1)), 0):
        total += map_weight(tree, coloring, kernels)
    return total


# ---------------------------------------------------------------------------
# crowns


def _iter_crowns(domain: tuple[int, ...]) -> Iterator[EnrichedMap]:
    n = len(domain)
    for base_size in range(1, n + 1):
        for base in combinations(domain, base_size):
            rest = tuple(v for v in domain if v not in base)
            anchor, others = base[0], base[1:]
            for arrangement in permutations(others):
                cycle = (anchor,) + arrangement
                f = {cycle[i]: cycle[(i + 1) % base_size] for i in range(base_size)}
                for attach in product(base, repeat=len(rest)):
                    full = dict(f)
                    full.update(zip(rest, attach))
                    fibers: dict[int, list[int]] = {}
                    for v in domain:
                        fibers.setdefault(full[v], []).append(v)
                    blocks = tuple(
                        (v, (tuple(fibers[v]),)) for v in domain if v in fibers
                    )
                    yield EnrichedMap(domain, (), tuple(full[v] for v in domain), blocks)


@lru_cache(maxsize=256)
def _crowns(domain: tuple[int, ...]) -> tuple[EnrichedMap, ...]:
    return tuple(_iter_crowns(domain))


def enumerate_crowns(domain: Iterable[int]) -> list[EnrichedMap]:
    """All crowns on ``domain``: a base cycle with vertices hanging off it.

    Every vertex maps into the base, the base is a single cycle, and each
    base vertex's fiber forms one block. Distinct successor functions count
    separately, so a base of size m contributes (m-1)! cyclic arrangements.
    """
    dom = _vertices(domain)
    if not dom:
        raise ValueError("crowns need a non-empty vertex set")
    return list(_iter_crowns(dom))


# ---------------------------------------------------------------------------
# coefficient oracles used to cross-check the series side


def exp_coefficient_via_maps(
    q_tuple: Sequence[str],
    picked: Iterable[int],
    kernels: "FamilySeries",
) -> Fraction:
    """Coefficient of the pinned exponential, summed over enriched maps.

    ``picked`` selects positions I of ``q_tuple`` (1-based). The value is
    the sum of weights over all enriched maps with domain I and the other
    positions as sinks, colored by ``q_tuple``. For empty I the value is
    one (the exponential's constant term). Relabelling vertices permutes
    the maps, so the sum depends only on the colors of I and of the sinks;
    it is cached on those two multisets and the family's identity, and each
    distinct sum is enumerated map by map.
    """
    n = len(q_tuple)
    chosen = tuple(sorted(set(picked)))
    if any(i < 1 or i > n for i in chosen):
        raise ValueError("picked positions must lie in 1..n")
    if not chosen:
        return Fraction(1)
    _check_cap(n)
    domain_colors = tuple(sorted(q_tuple[i - 1] for i in chosen))
    sink_colors = tuple(
        sorted(q_tuple[i - 1] for i in range(1, n + 1) if i not in chosen)
    )
    return _map_sum(domain_colors, sink_colors, kernels)


@lru_cache(maxsize=256)
def _map_sum(
    domain_colors: tuple[str, ...], sink_colors: tuple[str, ...], kernels: "FamilySeries"
) -> Fraction:
    # vertices 1..k form the domain and k+1..n the sinks, colored in order
    k, n = len(domain_colors), len(domain_colors) + len(sink_colors)
    coloring = dict(enumerate(domain_colors + sink_colors, start=1))
    total = Fraction(0)
    for m in _enriched_maps(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1))):
        total += map_weight(m, coloring, kernels)
    return total


def det_coefficient_via_crowns(q_tuple: Sequence[str], kernels: "FamilySeries") -> Fraction:
    """Determinant coefficient as a signed sum over assemblies of crowns.

    Partitions the positions 1..k into groups, places a crown on each group,
    and weights an assembly of s crowns by (-1)**s.
    """
    k = len(q_tuple)
    if k < 1:
        raise ValueError("need at least one pinned color")
    _check_cap(k)
    coloring = {i: q_tuple[i - 1] for i in range(1, k + 1)}
    total = Fraction(0)
    for partition in set_partitions_of(range(1, k + 1)):
        term = Fraction(1)
        for group in partition:
            group_sum = Fraction(0)
            for crown in _crowns(group):
                group_sum += map_weight(crown, coloring, kernels)
            term *= group_sum
            if not term:
                break
        total += term * (-1) ** len(partition)
    return total


def forest_coefficient(
    q_tuple: Sequence[str],
    roots: Iterable[int],
    kernels: "FamilySeries",
) -> Fraction:
    """Sum over forests of rooted trees with the given root positions.

    ``roots`` selects positions L of ``q_tuple`` (1-based). The remaining
    positions are distributed over the roots in every possible way (empty
    shares allowed) and each root contributes a tree coefficient; an empty
    share contributes the factor one.
    """
    n = len(q_tuple)
    root_positions = tuple(sorted(set(roots)))
    if any(i < 1 or i > n for i in root_positions):
        raise ValueError("root positions must lie in 1..n")
    rest = tuple(i for i in range(1, n + 1) if i not in root_positions)
    if not root_positions:
        return Fraction(1) if not rest else Fraction(0)
    total = Fraction(0)
    for assignment in product(range(len(root_positions)), repeat=len(rest)):
        shares: dict[int, list[int]] = {}
        for pos, owner in zip(rest, assignment):
            shares.setdefault(owner, []).append(pos)
        term = Fraction(1)
        for idx, root in enumerate(root_positions):
            members = shares.get(idx, [])
            term *= tree_coefficient(
                len(members),
                q_tuple[root - 1],
                tuple(q_tuple[p - 1] for p in members),
                kernels,
            )
            if not term:
                break
        total += term
    return total
