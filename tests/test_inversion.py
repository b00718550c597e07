"""Tree fixed point, determinant formulas, cancellation, and round trips."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import factorial

import pytest

import lagrange_forest.series
from lagrange_forest import (
    ColorSet,
    EmptySubset,
    SuiteConfig,
    fredholm_determinant,
    inverse_via_determinant,
    make_kernel_family,
    solve_tree_fixed_point,
    tree_coefficient,
)
from lagrange_forest.combinat import det_coefficient_via_crowns
from lagrange_forest.harness import (
    random_kernel_family,
    random_series,
    round_trip_check,
    univariate_kernels,
    univariate_lagrange_check,
)
from lagrange_forest.inversion import (
    _box_exponential,
    finite_matrix_determinant,
    forward_density,
    lagrange_good_coefficient,
    magic_sum,
)
from lagrange_forest.series import (
    FamilySeries,
    add,
    all_keys,
    compose_family,
    constant_series,
    exponential,
    indicator_series,
    make_series,
    radon_lift,
    variational_derivative,
)

from helpers import (
    QUERY_POOL,
    closed_form_inverse,
    exponential_oracle,
    folded_product_coefficient,
    fredholm_oracle,
    series_from,
)

A = ColorSet(("a",))
AB = ColorSet(("a", "b"))


def cayley_kernels(order: int) -> FamilySeries:
    return make_kernel_family(A, order, [("a", ("a",), 1)])


def zero_kernels(colors: ColorSet, order: int) -> FamilySeries:
    return make_kernel_family(colors, order, [])


def random_kernels(seed: int, colors: int = 2, order: int = 4) -> FamilySeries:
    cfg = SuiteConfig(seed=seed, colors=colors, order=order, trials=1)
    return random_kernel_family(cfg)


def _query_family(d: int, order: int, sparse: bool) -> FamilySeries:
    # dense: a QUERY_POOL value at every key of size 1..order for every
    # pinned color; sparse: every third entry
    rng = random.Random(f"down-set:{d}:{order}")
    colors = ColorSet(tuple("abcd"[:d]))
    entries = [
        (q, key, rng.choice(QUERY_POOL))
        for q in colors.names
        for key in all_keys(colors, order)
        if key
    ]
    return make_kernel_family(colors, order, entries[::3] if sparse else entries)


# ---------------------------------------------------------------------------
# forward measure


def test_forward_measure_of_zero_kernel_is_base_measure():
    kernels = zero_kernels(AB, 3)
    assert radon_lift(forward_density(kernels)) == radon_lift(FamilySeries.constant(AB, 3, 1))


def test_forward_measure_single_color_values():
    kernels = cayley_kernels(4)
    member = radon_lift(forward_density(kernels)).members["a"]
    # density exp(-z): atom coefficients n * (-1)**(n-1)
    assert member.coefficient(("a",)) == 1
    assert member.coefficient(("a", "a")) == -2
    assert member.coefficient(("a", "a", "a")) == 3


def test_forward_measure_sign_flip():
    kernels = make_kernel_family(AB, 3, [("a", ("b",), 2), ("b", ("a", "b"), "1/2")])
    flipped = make_kernel_family(AB, 3, [("a", ("b",), -2), ("b", ("a", "b"), "-1/2")])
    positive_density = FamilySeries(
        AB, 3, {q: exponential(kernels.members[q]) for q in AB}
    )
    assert radon_lift(forward_density(flipped)) == radon_lift(positive_density)


# ---------------------------------------------------------------------------
# tree fixed point


def test_tree_solution_of_zero_kernel():
    kernels = zero_kernels(AB, 3)
    solution = solve_tree_fixed_point(kernels)
    assert solution.tree_factors == FamilySeries.constant(AB, 3, 1)
    assert solution.inverse == radon_lift(FamilySeries.constant(AB, 3, 1))


def test_tree_solution_cayley_counts():
    kernels = cayley_kernels(5)
    member = solve_tree_fixed_point(kernels).tree_factors.members["a"]
    for n in range(6):
        assert member.coefficient(("a",) * n) == (n + 1) ** (n - 1) if n else 1
    inverse = solve_tree_fixed_point(kernels).inverse.evaluate()
    for n in range(1, 6):
        assert inverse.coefficient(("a",) * n) == n ** (n - 1)


def test_tree_solution_matches_enumeration_entrywise():
    kernels = random_kernels(seed=21, colors=2, order=4)
    factors = solve_tree_fixed_point(kernels).tree_factors
    for q in AB:
        member = factors.members[q]
        for key in all_keys(AB, 4):
            assert member.coefficient(key) == tree_coefficient(
                len(key), q, key, kernels
            )


def test_tree_solution_satisfies_fixed_point_equation():
    kernels = random_kernels(seed=8, colors=2, order=4)
    factors = solve_tree_fixed_point(kernels).tree_factors
    for q in AB:
        exponent = compose_family(kernels.members[q], factors)
        assert exponential(exponent) == factors.members[q]


def test_tree_solve_lays_out_only_the_colors_its_kernels_read(monkeypatch):
    # nine colors, and keys that read a and b only: each T_q is a series in
    # z_a and z_b, so the solve lifts the atoms at a and b alone and lays out
    # the two-color simplex, not one over the nine colors
    nine = ColorSet(tuple("abcdefghi"))
    entries = [("a", ("b",), "1/2"), ("b", ("a", "b"), "-1"), ("e", ("a",), "2"),
               ("i", ("a", "a", "b"), "1/3")]
    kernels = make_kernel_family(nine, 6, entries)
    sizes = []
    simplex = lagrange_forest.series._simplex
    monkeypatch.setattr(
        lagrange_forest.series, "_simplex", lambda d, n: sizes.append(d) or simplex(d, n)
    )
    inverse = solve_tree_fixed_point(kernels).inverse
    assert sizes and max(sizes) == 2
    monkeypatch.undo()
    for key in [("a",), ("a", "b"), ("a", "e"), ("a", "b", "i"), ("a", "a", "b", "e", "i")]:
        for subset in ("a", "e", "ai"):
            want = inverse.evaluate(subset).coefficient(key)
            assert inverse_via_determinant(kernels, subset, key) == want, (subset, key)


def test_sparse_size_one_family_over_six_colors_matches_the_closed_form():
    # kernels of size one over six colors, of which a, b and c are read and
    # d, e and f are only pinned: both routes against code sharing nothing
    # with the package
    colors = ColorSet(tuple("abcdef"))
    a = {q: {c: Fraction(0) for c in colors} for q in colors}
    for q, c, value in [("a", "b", "2/3"), ("b", "a", "-1/2"), ("b", "c", "1"),
                        ("c", "c", "-1/3"), ("d", "a", "3/2"), ("f", "b", "1")]:
        a[q][c] = Fraction(value)
    entries = [(q, (c,), v) for q, row in a.items() for c, v in row.items() if v]
    kernels = make_kernel_family(colors, 4, entries)
    subset = tuple("abcde")
    inverse = solve_tree_fixed_point(kernels).inverse.evaluate(subset)
    for key in all_keys(colors, 4):
        if key:
            want = closed_form_inverse(a, subset, key)
            assert inverse.coefficient(key) == want, key
            assert inverse_via_determinant(kernels, subset, key) == want, key


# ---------------------------------------------------------------------------
# determinants


def test_fredholm_of_zero_kernel_is_one():
    kernels = zero_kernels(AB, 3)
    assert fredholm_determinant(kernels) == constant_series(AB, 3, 1)


def test_fredholm_first_order_coefficient():
    kernels = make_kernel_family(
        AB, 3, [("a", ("a",), "2/3"), ("b", ("b",), 4), ("a", ("a", "b"), 1)]
    )
    det = fredholm_determinant(kernels)
    assert det.coefficient(("a",)) == Fraction(-2, 3)
    assert det.coefficient(("b",)) == -4


def test_fredholm_cayley_is_one_minus_z():
    det = fredholm_determinant(cayley_kernels(5))
    assert det.coefficient(()) == 1
    assert det.coefficient(("a",)) == -1
    for n in range(2, 6):
        assert det.coefficient(("a",) * n) == 0


def test_fredholm_matches_crown_oracle():
    kernels = random_kernels(seed=13, colors=2, order=4)
    det = fredholm_determinant(kernels)
    for key in all_keys(AB, 4):
        if key:
            assert det.coefficient(key) == det_coefficient_via_crowns(
                key, kernels
            )


# A sparse family with zero diagonal kernels, whose L has an all-zero column
# (no kernel depends on d), so the elimination skips rows with a zero entry
# below the pivot, zero entries of a pivot row and the inverse of a pivot
# with nothing below it. L[c, b] = 0 while L[c, a] and L[a, b] are not, so
# that zero entry of Id - L fills in before it is eliminated.
SPARSE_KERNELS = make_kernel_family(
    ColorSet(("a", "b", "c", "d")),
    4,
    [
        ("a", ("b",), 1),
        ("a", ("b", "b"), "1/2"),
        ("b", ("c",), -1),
        ("b", ("a", "c"), 2),
        ("c", ("a",), 3),
        ("c", ("a", "a"), "-1/3"),
        ("d", ("b", "c"), "1/2"),
    ],
)


@pytest.mark.parametrize(
    "kernels",
    [
        pytest.param(random_kernels(seed=2, colors=1, order=6), id="1-6"),
        pytest.param(random_kernels(seed=2, colors=2, order=5), id="2-5"),
        pytest.param(random_kernels(seed=2, colors=3, order=4), id="3-4"),
        pytest.param(random_kernels(seed=2, colors=4, order=4), id="4-4"),
        pytest.param(SPARSE_KERNELS, id="sparse-4-4"),
        # QUERY_POOL values: kernel denominators 1, 2, 3, 5 and 7, whose
        # lcm is none of them, and a value above 2**64
        *(
            pytest.param(_query_family(d, order, sparse), id=f"query-{d}-{order}" + "-sparse" * sparse)
            for sparse in (False, True)
            for d, order in [(1, 5), (2, 5), (3, 4)]
        ),
    ],
)
def test_fredholm_matches_subset_expansion_oracle(kernels):
    det = fredholm_determinant(kernels)
    for key in all_keys(kernels.colors, kernels.order):
        if key:
            assert det.coefficient(key) == fredholm_oracle(kernels, key)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_finite_matrix_on_a_proper_subset_matches_the_full_determinant(sparse):
    # the matrix indexed by a and c alone, over QUERY_POOL values; at keys
    # inside {a, c} it reads the full determinant, whose oracle is the
    # subset expansion
    kernels = _query_family(3, 3, sparse)
    small = finite_matrix_determinant(kernels, ("c", "a"))
    for n in range(1, 4):
        for key in combinations_with_replacement(("a", "c"), n):
            assert small.coefficient(key) == fredholm_oracle(kernels, key), key


def test_determinant_lays_out_only_the_colors_its_entries_carry(monkeypatch):
    # eight colors, of which a and b carry the kernel entries: both
    # determinants eliminate on the two-color simplex, not on one over the
    # labels, which at this order would hold 735,471 splits
    kernels = make_kernel_family(
        ColorSet(tuple("abcdefgh")), 8, [("a", ("b",), "1/2"), ("b", ("a", "b"), "-1")]
    )
    sizes = []
    simplex = lagrange_forest.series._simplex
    monkeypatch.setattr(
        lagrange_forest.series, "_simplex", lambda d, n: sizes.append(d) or simplex(d, n)
    )
    det = fredholm_determinant(kernels)
    assert finite_matrix_determinant(kernels, "abc") == det
    assert sizes and max(sizes) == 2
    for key in [("a",), ("a", "b"), ("a", "b", "b"), ("a", "a", "b"), ("a", "c")]:
        assert det.coefficient(key) == fredholm_oracle(kernels, key), key


def test_finite_matrix_trivial_cases():
    assert finite_matrix_determinant(zero_kernels(AB, 3), ("a",)) == constant_series(
        AB, 3, 1
    )
    kernels = cayley_kernels(3)
    det = finite_matrix_determinant(kernels, ("a",))
    assert det.coefficient(("a",)) == -1


def test_finite_matrix_agrees_with_fredholm_and_is_stable_under_enlargement():
    kernels = random_kernels(seed=17, colors=3, order=3)
    fred = fredholm_determinant(kernels)
    small = finite_matrix_determinant(kernels, ("a", "c"))
    large = finite_matrix_determinant(kernels, ("a", "b", "c"))
    for n in range(1, 4):
        for key in combinations_with_replacement(("a", "c"), n):
            assert small.coefficient(key) == fred.coefficient(key)
            assert large.coefficient(key) == fredholm_oracle(kernels, key)


def test_finite_matrix_empty_subset():
    with pytest.raises(EmptySubset):
        finite_matrix_determinant(cayley_kernels(2), ())


def test_pinned_determinants_and_derivative_kernel():
    kernels = random_kernels(seed=3, colors=2, order=3)
    fred = fredholm_determinant(kernels)
    assert finite_matrix_determinant(kernels, ("b", "a", "b")) == fred
    # derivative kernel constant term is the size-1 kernel value
    for p in AB:
        for q in AB:
            derivative = variational_derivative(kernels.members[q], (p,))
            assert derivative.f0 == kernels.value(q, (p,))
    pinned = finite_matrix_determinant(kernels, ("a",))
    for key in all_keys(AB, 3):
        if key and set(key) <= {"a"}:
            assert pinned.coefficient(key) == fred.coefficient(key)


# ---------------------------------------------------------------------------
# determinant formula for composed observables


def test_lagrange_good_constant_observable_vanishes():
    kernels = random_kernels(seed=5, colors=2, order=4)
    phi = constant_series(AB, 4, 1)
    for key in all_keys(AB, 4):
        if key:
            assert lagrange_good_coefficient(kernels, phi, key) == 0


def test_lagrange_good_zero_kernel_returns_observable_coefficient():
    kernels = zero_kernels(AB, 4)
    cfg = SuiteConfig(seed=2, colors=2, order=4, trials=1)
    phi = random_series(cfg)
    for key in all_keys(AB, 4):
        if key:
            assert lagrange_good_coefficient(kernels, phi, key) == phi.coefficient(key)


def test_lagrange_good_cayley_tree_function():
    kernels = cayley_kernels(5)
    phi = indicator_series(A, 5, ("a",))
    for n in range(1, 6):
        assert lagrange_good_coefficient(kernels, phi, ("a",) * n) == n ** (n - 1)


def test_lagrange_good_rejects_empty_tuple():
    with pytest.raises(ValueError):
        lagrange_good_coefficient(cayley_kernels(3), constant_series(A, 3, 1), ())


# ---------------------------------------------------------------------------
# cancellation


def test_magic_sum_first_order_cancellation():
    kernels = make_kernel_family(AB, 2, [("a", ("a",), "7/3")])
    # first-order: pinned exponential contributes the kernel value, the
    # determinant its negative
    assert magic_sum(kernels, ("a",)) == 0


def test_magic_sum_zero_kernel():
    kernels = zero_kernels(AB, 3)
    for key in all_keys(AB, 3):
        if key:
            assert magic_sum(kernels, key) == 0


def test_magic_sum_random_instances():
    for seed in range(4):
        kernels = random_kernels(seed=seed, colors=2, order=4)
        for key in all_keys(AB, 4):
            if key:
                assert magic_sum(kernels, key) == 0


# phi over denominators of its own
PHI_POOL = tuple(map(Fraction, ("1/11", "-4/13", "6/17", "0", "-1")))
QUERY_SHAPES = [(1, 7), (2, 6), (3, 5), (4, 4)]


@pytest.mark.parametrize(
    "d,order,sparse",
    [
        pytest.param(d, order, sparse, id=f"{d}-{order}" + "-sparse" * sparse)
        for sparse in (False, True)
        for d, order in QUERY_SHAPES
    ],
)
def test_split_sum_reads_match_folded_products(d, order, sparse):
    # both queries read one coefficient of a product by a split sum over the
    # key's box, in integers over one common denominator; the full products,
    # folded with multiply, must give the same value at every key
    kernels = _query_family(d, order, sparse)
    colors = kernels.colors
    rng = random.Random(f"split:{d}")
    phi = series_from(
        colors, order, {key: rng.choice(PHI_POOL) for key in all_keys(colors, order)}
    )
    det = fredholm_determinant(kernels)
    for key in all_keys(colors, order):
        if not key:
            continue
        pinned_exp = exponential(reduce(add, (kernels.members[q] for q in key)))
        want = folded_product_coefficient((phi, pinned_exp, det), key)
        assert lagrange_good_coefficient(kernels, phi, key) == want, key
        assert magic_sum(kernels, key) == folded_product_coefficient((pinned_exp, det), key), key


# ---------------------------------------------------------------------------
# inverse coefficients


def test_inverse_via_determinant_first_order():
    kernels = random_kernels(seed=30, colors=2, order=3)
    assert inverse_via_determinant(kernels, ("a",), ("a",)) == 1
    assert inverse_via_determinant(kernels, ("b",), ("a",)) == 0


def test_inverse_via_determinant_outside_subset_vanishes():
    kernels = random_kernels(seed=31, colors=2, order=3)
    for n in range(1, 4):
        assert inverse_via_determinant(kernels, ("b",), ("a",) * n) == 0


def test_inverse_via_determinant_cayley():
    kernels = cayley_kernels(5)
    for n in range(1, 6):
        assert inverse_via_determinant(kernels, ("a",), ("a",) * n) == n ** (n - 1)


def test_inverse_via_determinant_matches_tree_formula():
    kernels = random_kernels(seed=33, colors=2, order=4)
    subset = ("a",)
    for key in all_keys(AB, 4):
        if not key:
            continue
        tree_value = Fraction(0)
        for r, root in enumerate(key):
            if root in subset:
                rest = key[:r] + key[r + 1 :]
                tree_value += tree_coefficient(len(rest), root, rest, kernels)
        assert inverse_via_determinant(kernels, subset, key) == tree_value


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_zero_kernel():
    assert round_trip_check(zero_kernels(AB, 3)).passed


def test_round_trip_cayley_order_six():
    report = round_trip_check(cayley_kernels(6))
    assert report.passed, report.describe()


def test_round_trip_random_instances():
    for seed in (1, 2, 3):
        report = round_trip_check(random_kernels(seed=seed, colors=2, order=4))
        assert report.passed, report.describe()


# ---------------------------------------------------------------------------
# univariate three-way check


def test_univariate_tree_function_values():
    kernels = univariate_kernels([1, 0, 0, 0, 0])
    solution = solve_tree_fixed_point(kernels)
    colors = kernels.colors
    phi = make_series(colors, 5, [(("x",), 1)])
    composed = compose_family(phi, solution.tree_factors)
    for n in range(1, 6):
        assert composed.coefficient(("x",) * n) / factorial(n) == Fraction(
            n ** (n - 1), factorial(n)
        )


def test_univariate_zero_kernel_is_identity_composition():
    report = univariate_lagrange_check([0, 0, 0], [1, 2, 3, "1/2"], 3)
    assert report.passed, report.describe()


def test_univariate_check_random():
    report = univariate_lagrange_check(["1/2", -1, 0, 1], [0, 1, "1/3", 2, -1], 4)
    assert report.passed, report.describe()


# ---------------------------------------------------------------------------
# the per-key query exponential, built on the key's down-set


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("d,order", [(1, 7), (2, 6), (3, 5), (4, 4)])
def test_query_exponential_lives_on_the_down_set(d, order, sparse):
    kernels = _query_family(d, order, sparse)
    colors = kernels.colors
    for key in all_keys(colors, order):
        if not key:
            continue
        down_set = {
            tuple(sorted(sub)) for r in range(len(key) + 1) for sub in combinations(key, r)
        }
        summed = reduce(add, (kernels.members[q] for q in key))
        keys, _, numerators, den = _box_exponential(kernels, key)
        assert len(keys) == len(down_set) and set(keys) == down_set, key
        pinned = {s: Fraction(v, den ** len(s)) for s, v in zip(keys, numerators)}
        restricted = series_from(
            colors, len(key), {s: summed.table[s] for s in down_set if s in summed.table}
        )
        full = exponential(restricted).table
        assert pinned == {s: full.get(s, Fraction(0)) for s in down_set}, key
        for s in down_set:
            assert pinned[s] == exponential_oracle(summed, s), (key, s)


# ---------------------------------------------------------------------------
# scale regressions (no wall-time assertions)


def test_tree_route_matches_determinant_route_dense_order_nine():
    # dense d=2 kernel at order 9; the determinant route is queried up to size 4
    rng = random.Random("dense-d2-n9")
    entries = [
        (q, key, rng.choice(("1", "-1", "1/2", "-1/2", "2")))
        for q in AB.names
        for key in all_keys(AB, 9)
        if key
    ]
    kernels = make_kernel_family(AB, 9, entries)
    inverse = solve_tree_fixed_point(kernels).inverse
    for subset in (("a", "b"), ("b",)):
        tree = inverse.evaluate(subset)
        for key in all_keys(AB, 4):
            if key:
                assert tree.coefficient(key) == inverse_via_determinant(
                    kernels, subset, key
                ), (subset, key)
