"""Enumeration of partitions, enriched maps, trees, and crowns, with weights."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from helpers import (
    POOL,
    bell_number,
    connected_components,
    enriched_count_oracle,
    is_crown,
    is_cycle_rooted_tree,
)
from lagrange_forest import (
    BlockTooLarge,
    ColorSet,
    EnrichedMap,
    SizeCapExceeded,
    enumerate_crowns,
    enumerate_enriched_maps,
    make_kernel_family,
    set_partitions,
    tree_coefficient,
)
from lagrange_forest.combinat import (
    MAX_ENUMERATION,
    det_coefficient_via_crowns,
    enumerate_rooted_trees,
    exp_coefficient_via_maps,
    forest_coefficient,
    is_vertex_rooted_tree,
    map_weight,
)

A = ColorSet(("a",))
AB = ColorSet(("a", "b"))


def cayley_kernel(order: int):
    # single color, size-1 coefficient 1, everything else 0
    return make_kernel_family(A, order, [("a", ("a",), 1)])


# ---------------------------------------------------------------------------
# set partitions


def test_set_partitions_small():
    assert set_partitions(0) == [()]
    assert set_partitions(2) == [((1, 2),), ((1,), (2,))]


def test_set_partitions_counts_match_bell_recurrence():
    for n in range(7):
        assert len(set_partitions(n)) == bell_number(n)


def test_set_partitions_are_partitions():
    for partition in set_partitions(4):
        elements = [x for block in partition for x in block]
        assert all(block for block in partition)
        assert sorted(elements) == [1, 2, 3, 4]
        assert len(set(elements)) == 4


def test_set_partitions_negative():
    with pytest.raises(ValueError):
        set_partitions(-1)


# ---------------------------------------------------------------------------
# enriched maps


def test_enriched_maps_single_vertex_single_sink():
    maps = enumerate_enriched_maps((1,), (0,))
    expected = [
        EnrichedMap((1,), (0,), (0,), ((0, ((1,),)),)),
        EnrichedMap((1,), (0,), (1,), ((1, ((1,),)),)),
    ]
    assert maps == expected


def test_enriched_maps_empty_domain():
    assert enumerate_enriched_maps((), (0,)) == []


def test_enriched_maps_two_vertices_no_sink():
    maps = enumerate_enriched_maps((1, 2))
    # independent count: sum over raw maps of the Bell number of each fiber
    assert enriched_count_oracle(2, ()) == 6
    assert len(maps) == 6
    assert len(set(maps)) == 6


@pytest.mark.parametrize("n,sinks", [(1, ()), (2, (0,)), (3, ()), (3, (0,)), (4, ())])
def test_enriched_maps_exhaustive_counts(n, sinks):
    maps = enumerate_enriched_maps(range(1, n + 1), sinks)
    assert len(maps) == enriched_count_oracle(n, sinks)
    assert len(set(maps)) == len(maps)


def test_enriched_maps_guards():
    with pytest.raises(ValueError):
        enumerate_enriched_maps((1, 2), (2,))
    with pytest.raises(SizeCapExceeded):
        enumerate_enriched_maps(range(1, 9), (0, -1))
    # the cap counts domain and sinks together, and admits exactly MAX_ENUMERATION
    with pytest.raises(SizeCapExceeded):
        enumerate_enriched_maps(range(1, MAX_ENUMERATION), (0, -1))
    assert enumerate_crowns(range(1, MAX_ENUMERATION + 1))
    with pytest.raises(SizeCapExceeded):
        enumerate_crowns(range(1, MAX_ENUMERATION + 2))


@pytest.mark.parametrize(
    "enumerate_",
    [
        lambda: enumerate_enriched_maps((1, 2), range(0, -200_000, -1)),
        lambda: enumerate_rooted_trees(range(1, 200_001)),
        lambda: enumerate_crowns(range(1, 200_001)),
    ],
    ids=["maps", "trees", "crowns"],
)
def test_enumerations_refuse_before_reading_the_whole_input(enumerate_):
    # a set or sorted tuple of the whole input would allocate megabytes first
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="exceeds the cap of 6"):
            enumerate_()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumeration_is_deterministic():
    first = enumerate_enriched_maps((1, 2), (0,))
    second = enumerate_enriched_maps((1, 2), (0,))
    assert first == second


# ---------------------------------------------------------------------------
# structure of enriched maps, against the oracles in helpers


def test_components_without_sinks_are_cycle_rooted():
    for n in (1, 2, 3):
        for m in enumerate_enriched_maps(range(1, n + 1)):
            for component in connected_components(m):
                assert is_cycle_rooted_tree(component)
                assert not is_vertex_rooted_tree(component)


def test_connected_maps_with_one_sink_split_into_tree_or_cycle():
    for n in (1, 2, 3):
        for m in enumerate_enriched_maps(range(1, n + 1), (0,)):
            # a component ends in a sink or a cycle, so with one sink "no
            # cycle" is the same as "connected"
            assert is_vertex_rooted_tree(m) == (len(connected_components(m)) == 1)
            for component in connected_components(m):
                if component.sinks:
                    assert is_vertex_rooted_tree(component)
                    assert not is_cycle_rooted_tree(component)
                else:
                    assert is_cycle_rooted_tree(component)
                    assert not is_vertex_rooted_tree(component)


def test_classify_loop_is_crown():
    loop = EnrichedMap((1,), (), (1,), ((1, ((1,),)),))
    assert is_crown(loop)
    assert is_cycle_rooted_tree(loop)


def test_classify_general_map():
    # two disjoint loops: neither a tree nor a crown, but two crowns
    m = EnrichedMap((1, 2), (), (1, 2), ((1, ((1,),)), (2, ((2,),))))
    assert not is_crown(m)
    assert not is_cycle_rooted_tree(m)
    assert not is_vertex_rooted_tree(m)
    assert all(is_crown(component) for component in connected_components(m))


# ---------------------------------------------------------------------------
# weights


def test_weight_of_single_loop():
    kernels = make_kernel_family(A, 2, [("a", ("a",), "3/7")])
    loop = EnrichedMap((1,), (), (1,), ((1, ((1,),)),))
    assert map_weight(loop, {1: "a"}, kernels) == Fraction(3, 7)


def test_weight_of_branching_structure():
    # root 0 with children 1..6 partitioned {1,2,3}|{4,5}|{6}; vertex 4 with
    # children 7..10 partitioned {7,8,9}|{10}; vertex 5 with children 11..13
    # partitioned {11,12}|{13}: seven blocks, seven kernel factors.
    colors = ColorSet(tuple(f"c{i}" for i in range(14)))
    primes = {
        ("c0", ("c1", "c2", "c3")): 2,
        ("c0", ("c4", "c5")): 3,
        ("c0", ("c6",)): 5,
        ("c4", ("c7", "c8", "c9")): 7,
        ("c4", ("c10",)): 11,
        ("c5", ("c11", "c12")): 13,
        ("c5", ("c13",)): 17,
    }
    kernels = make_kernel_family(
        colors, 3, [(q, key, v) for (q, key), v in primes.items()]
    )
    targets = tuple([0] * 6 + [4] * 4 + [5] * 3)
    blocks = (
        (0, ((1, 2, 3), (4, 5), (6,))),
        (4, ((7, 8, 9), (10,))),
        (5, ((11, 12), (13,))),
    )
    structure = EnrichedMap(tuple(range(1, 14)), (0,), targets, blocks)
    assert is_vertex_rooted_tree(structure)
    coloring = {i: f"c{i}" for i in range(14)}
    assert map_weight(structure, coloring, kernels) == 2 * 3 * 5 * 7 * 11 * 13 * 17


def test_weight_vanishes_on_singleton_block_without_first_order_kernel():
    kernels = make_kernel_family(AB, 2, [("a", ("a", "b"), 1)])
    chain = EnrichedMap((1,), (0,), (0,), ((0, ((1,),)),))
    assert map_weight(chain, {0: "a", 1: "b"}, kernels) == 0


def test_weight_block_too_large():
    kernels = make_kernel_family(A, 1, [("a", ("a",), 1)])
    star = EnrichedMap((1, 2), (0,), (0, 0), ((0, ((1, 2),)),))
    with pytest.raises(BlockTooLarge):
        map_weight(star, {0: "a", 1: "a", 2: "a"}, kernels)


def test_weight_requires_total_coloring():
    loop = EnrichedMap((1,), (), (1,), ((1, ((1,),)),))
    kernels = make_kernel_family(A, 1, [("a", ("a",), 1)])
    with pytest.raises(ValueError):
        map_weight(loop, {}, kernels)


def test_weight_label_relabelling_invariance():
    kernels = make_kernel_family(
        AB,
        3,
        [("a", ("a",), 2), ("a", ("a", "b"), 3), ("b", ("b",), 5), ("b", ("a", "a", "b"), 7)],
    )
    relabel = {1: 4, 2: 7, 3: 9, 0: 5}
    for m in enumerate_enriched_maps((1, 2, 3)):
        coloring = {1: "a", 2: "b", 3: "a"}
        moved = EnrichedMap(
            tuple(sorted(relabel[v] for v in m.domain)),
            (),
            tuple(
                relabel[m.mapping[v]]
                for v in sorted(m.domain, key=lambda v: relabel[v])
            ),
            tuple(
                sorted(
                    (
                        relabel[v],
                        tuple(
                            sorted(
                                (tuple(sorted(relabel[x] for x in block)) for block in parts),
                                key=min,
                            )
                        ),
                    )
                    for v, parts in m.blocks
                )
            ),
        )
        moved_coloring = {relabel[v]: c for v, c in coloring.items()}
        assert map_weight(m, coloring, kernels) == map_weight(
            moved, moved_coloring, kernels
        )


# ---------------------------------------------------------------------------
# rooted trees


def test_single_vertex_tree():
    trees = enumerate_rooted_trees((1,))
    assert trees == [EnrichedMap((1,), (0,), (0,), ((0, ((1,),)),))]
    assert enumerate_rooted_trees(()) == []


def test_underlying_tree_counts_follow_cayley():
    for n in (1, 2, 3, 4):
        trees = enumerate_rooted_trees(range(1, n + 1))
        underlying = {m.targets for m in trees}
        assert len(underlying) == (n + 1) ** (n - 1)


def test_tree_coefficient_single_vertex():
    kernels = make_kernel_family(AB, 1, [("a", ("b",), "2/3")])
    assert tree_coefficient(1, "a", ("b",), kernels) == Fraction(2, 3)


def test_tree_coefficients_cayley():
    kernels = cayley_kernel(4)
    for n in range(1, 5):
        assert tree_coefficient(n, "a", ("a",) * n, kernels) == (n + 1) ** (n - 1)


def test_tree_coefficient_zero_kernel():
    kernels = make_kernel_family(A, 3, [])
    for n in range(1, 4):
        assert tree_coefficient(n, "a", ("a",) * n, kernels) == 0
    assert tree_coefficient(0, "a", (), kernels) == 1


def test_tree_coefficient_leaf_symmetry():
    # computed via the raw weight sum so memoization cannot mask asymmetry
    kernels = make_kernel_family(
        AB,
        3,
        [
            ("a", ("a",), 1),
            ("a", ("b",), 2),
            ("b", ("a",), 3),
            ("b", ("b",), "1/2"),
            ("a", ("a", "b"), 5),
            ("b", ("a", "b"), "-1/3"),
        ],
    )

    def direct(leaves):
        coloring = {0: "a", **{i: c for i, c in enumerate(leaves, start=1)}}
        return sum(
            map_weight(tree, coloring, kernels)
            for tree in enumerate_rooted_trees(range(1, 4))
        )

    base = direct(("a", "b", "b"))
    assert direct(("b", "a", "b")) == base
    assert direct(("b", "b", "a")) == base
    assert tree_coefficient(3, "a", ("b", "a", "b"), kernels) == base


# ---------------------------------------------------------------------------
# crowns


def test_single_vertex_crown_is_loop():
    crowns = enumerate_crowns((1,))
    assert crowns == [EnrichedMap((1,), (), (1,), ((1, ((1,),)),))]


def test_two_vertex_crowns():
    crowns = enumerate_crowns((1, 2))
    expected = {
        EnrichedMap((1, 2), (), (2, 1), ((1, ((2,),)), (2, ((1,),)))),
        EnrichedMap((1, 2), (), (1, 1), ((1, ((1, 2),)),)),
        EnrichedMap((1, 2), (), (2, 2), ((2, ((1, 2),)),)),
    }
    assert len(crowns) == 3
    assert set(crowns) == expected


def test_crown_count_three_vertices():
    # bases of size m: C(3,m) (m-1)! m^(3-m) -> 3 + 6 + 2
    assert len(enumerate_crowns((1, 2, 3))) == 11


def test_crowns_are_exactly_the_crown_classified_maps():
    for n in (1, 2, 3):
        domain = tuple(range(1, n + 1))
        from_filter = {m for m in enumerate_enriched_maps(domain) if is_crown(m)}
        direct = set(enumerate_crowns(domain))
        assert direct == from_filter
        assert direct <= set(enumerate_enriched_maps(domain))


def test_crowns_empty_domain():
    with pytest.raises(ValueError):
        enumerate_crowns(())


# ---------------------------------------------------------------------------
# coefficient oracles


def test_exp_coefficient_single_loop():
    kernels = make_kernel_family(AB, 2, [("a", ("a",), "4/9")])
    assert exp_coefficient_via_maps(("a",), (1,), kernels) == Fraction(4, 9)


def test_exp_coefficient_empty_selection_is_one():
    kernels = make_kernel_family(AB, 2, [("a", ("a",), 1)])
    assert exp_coefficient_via_maps(("a", "b"), (), kernels) == 1


def _direct_map_sum(q_tuple, picked, kernels):
    # every enriched map with domain picked and the other positions as sinks
    if not picked:
        return Fraction(1)
    positions = range(1, len(q_tuple) + 1)
    sinks = [i for i in positions if i not in picked]
    coloring = {i: q_tuple[i - 1] for i in positions}
    return sum(
        (map_weight(m, coloring, kernels) for m in enumerate_enriched_maps(picked, sinks)),
        Fraction(0),
    )


@pytest.mark.parametrize("d", [2, 3])
def test_exp_coefficient_matches_direct_map_sums(d):
    # the oracle keeps one sum per pair of domain and sink color multisets;
    # each must equal the map-by-map sum for the tuple it is asked about
    rng = random.Random(f"maps:{d}")
    colors = ColorSet(tuple("abc"[:d]))
    entries = [
        (q, key, rng.choice(POOL))
        for q in colors.names
        for n in range(1, 6)
        for key in combinations_with_replacement(colors.names, n)
    ]
    kernels = make_kernel_family(colors, 5, entries)
    # tuples of one size share domain multisets with different sinks
    for n in (1, 2, 3, 4) * 3 + (5,):
        q_tuple = tuple(rng.choice(colors.names) for _ in range(n))
        order = list(range(n))
        rng.shuffle(order)
        permuted = tuple(q_tuple[i] for i in order)
        moved = {i + 1: order.index(i) + 1 for i in range(n)}  # old position -> new
        for size in range(n + 1):
            for picked in combinations(range(1, n + 1), size):
                want = _direct_map_sum(q_tuple, picked, kernels)
                assert exp_coefficient_via_maps(q_tuple, picked, kernels) == want
                moved_picked = [moved[i] for i in picked]
                assert exp_coefficient_via_maps(permuted, moved_picked, kernels) == want


def test_det_coefficient_single_color():
    kernels = make_kernel_family(AB, 2, [("b", ("b",), "5/2")])
    assert det_coefficient_via_crowns(("b",), kernels) == Fraction(-5, 2)


def test_det_coefficient_zero_kernel():
    kernels = make_kernel_family(AB, 3, [])
    for k in (1, 2, 3):
        assert det_coefficient_via_crowns(("a",) * k, kernels) == 0


def test_forest_coefficient_conventions():
    kernels = cayley_kernel(4)
    q = ("a", "a", "a")
    assert forest_coefficient(q, (1, 2, 3), kernels) == 1
    assert forest_coefficient(q, (2,), kernels) == tree_coefficient(
        2, "a", ("a", "a"), kernels
    )
    assert forest_coefficient(q, (), kernels) == 0
    assert forest_coefficient((), (), kernels) == 1
