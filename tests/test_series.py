"""Core series algebra: constructors, operations, and algebraic laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    POOL,
    PRODUCT_POOL,
    compose_oracle,
    exponential_oracle,
    multiply_many,
    product_oracle,
    series_from,
)
from lagrange_forest import (
    ColorSet,
    ColorSetMismatch,
    DuplicateKey,
    KeyTooLarge,
    NonzeroConstantTerm,
    OrderMismatch,
    TooManyPins,
    UnknownColor,
    fredholm_determinant,
    make_kernel_family,
    solve_tree_fixed_point,
)
from lagrange_forest.harness import SuiteConfig, random_series
from lagrange_forest.series import (
    FamilySeries,
    TruncatedSeries,
    _reciprocal,
    add,
    all_keys,
    compose_family,
    compose_measure,
    constant_series,
    exponential,
    indicator_series,
    make_series,
    multiply,
    radon_lift,
    scale,
    variational_derivative,
    zero_series,
)

A = ColorSet(("a",))
AB = ColorSet(("a", "b"))


def truncate(k: TruncatedSeries, order: int) -> TruncatedSeries:
    return TruncatedSeries(
        k.colors, order, {key: v for key, v in k.table.items() if len(key) <= order}
    )


# ---------------------------------------------------------------------------
# color sets and constructors


def test_color_set_invariants():
    assert AB.d == 2
    assert "a" in AB and "c" not in AB
    with pytest.raises(ValueError):
        ColorSet(())
    with pytest.raises(ValueError):
        ColorSet(("a", "a"))
    with pytest.raises(ValueError):
        ColorSet(("a", ""))


def test_make_series_zero():
    k = make_series(A, 2, [])
    assert k.coefficient(()) == 0
    assert k.coefficient(("a",)) == 0
    assert k.coefficient(("a", "a")) == 0


def test_make_series_single_variable():
    k = make_series(A, 2, [(("a",), 1)])
    assert k.coefficient(("a",)) == 1
    assert k.f0 == 0


def test_make_series_canonicalizes_keys():
    k = make_series(AB, 2, [(("b", "a"), "1/2")])
    assert ("a", "b") in k.table
    assert k.coefficient(("b", "a")) == Fraction(1, 2)
    assert k.coefficient(("a", "b")) == Fraction(1, 2)


def test_make_series_errors():
    with pytest.raises(DuplicateKey):
        make_series(AB, 2, [(("a", "b"), 1), (("b", "a"), 2)])
    with pytest.raises(UnknownColor):
        make_series(AB, 2, [(("c",), 1)])
    with pytest.raises(KeyTooLarge):
        make_series(AB, 2, [(("a", "a", "a"), 1)])


def test_zero_coefficients_are_stripped():
    k = make_series(AB, 2, [(("a",), 0), (("b",), 1)])
    assert ("a",) not in k.table
    assert k.coefficient(("a",)) == 0


# ---------------------------------------------------------------------------
# linear structure


def test_add_identity_and_inverse():
    k = make_series(AB, 3, [(("a",), 2), (("a", "b"), "1/3")])
    assert add(k, zero_series(AB, 3)) == k
    assert add(k, scale(k, -1)) == zero_series(AB, 3)


def test_add_values():
    k = make_series(A, 2, [(("a",), 1)])
    g = make_series(A, 2, [(("a",), "1/2")])
    assert add(k, g).coefficient(("a",)) == Fraction(3, 2)


def test_add_mismatch_errors():
    with pytest.raises(OrderMismatch):
        add(zero_series(A, 2), zero_series(A, 3))
    with pytest.raises(ColorSetMismatch):
        add(zero_series(A, 2), zero_series(AB, 2))


# ---------------------------------------------------------------------------
# products


def test_multiply_constant_one_is_identity():
    g = make_series(AB, 3, [((), 4), (("a",), 1), (("a", "b", "b"), "-2/7")])
    assert multiply(constant_series(AB, 3, 1), g) == g


def test_multiply_first_order_formula():
    k = make_series(A, 2, [((), 2), (("a",), 3)])
    g = make_series(A, 2, [((), 5), (("a",), 7)])
    # (KG)_1(x) = K_0 G_1(x) + K_1(x) G_0
    assert multiply(k, g).coefficient(("a",)) == 2 * 7 + 3 * 5


def test_multiply_square_of_single_variable():
    z = make_series(A, 2, [(("a",), 1)])
    # subset-sum oracle: two singleton subsets of {1,2} contribute 1 each
    assert product_oracle(z, z, ("a", "a")) == 2
    assert multiply(z, z).coefficient(("a", "a")) == 2


def test_multiply_matches_subset_sum_oracle_everywhere():
    k = make_series(AB, 3, [((), 1), (("a",), 2), (("a", "b"), "1/2"), (("b", "b", "b"), -1)])
    g = make_series(AB, 3, [((), "1/3"), (("b",), 5), (("a", "a"), 3)])
    kg = multiply(k, g)
    for key in all_keys(AB, 3):
        assert kg.coefficient(key) == product_oracle(k, g, key)


def test_multiply_many_single_and_constant():
    k = make_series(AB, 2, [(("a",), 1), (("b", "b"), 2)])
    assert multiply_many([k]) == k
    one = constant_series(AB, 2, 1)
    assert multiply_many([one, one, one]) == one


def test_multiply_many_three_single_variables():
    z = make_series(A, 3, [(("a",), 1)])
    # ordered partitions of three positions into three singletons: 3! = 6
    assert multiply_many([z, z, z]).coefficient(("a", "a", "a")) == 6


def test_multiply_many_equals_folded_multiply():
    k = make_series(AB, 3, [((), 1), (("a",), -1), (("a", "b"), 2)])
    g = make_series(AB, 3, [(("b",), "1/2"), (("a", "a"), 1)])
    h = make_series(AB, 3, [((), 2), (("b", "b"), 3)])
    folded = multiply(multiply(k, g), h)
    assert multiply_many([k, g, h]) == folded


def test_multiply_many_empty_input():
    with pytest.raises(ValueError):
        multiply_many([])


# ---------------------------------------------------------------------------
# exponential


def test_exponential_of_zero():
    assert exponential(zero_series(AB, 3)) == constant_series(AB, 3, 1)


def test_exponential_second_order_formula():
    k = make_series(AB, 2, [(("a",), 2), (("b",), 3), (("a", "b"), 5)])
    e = exponential(k)
    # the two partitions of a pair: one block, or two singletons
    assert e.coefficient(("a", "b")) == 5 + 2 * 3


def test_exponential_of_single_variable():
    z = make_series(A, 5, [(("a",), 1)])
    e = exponential(z)
    # only the all-singletons partition survives, so every coefficient is 1
    for n in range(6):
        assert e.coefficient(("a",) * n) == 1


def test_exponential_requires_zero_constant():
    with pytest.raises(NonzeroConstantTerm):
        exponential(constant_series(A, 2, 1))


def test_exponential_homomorphism_seeded():
    for seed in range(3):
        cfg = SuiteConfig(seed=seed, colors=2, order=4, trials=1)
        k = random_series(cfg, "homo-k")
        g = random_series(cfg, "homo-g")
        k = TruncatedSeries(k.colors, 4, {key: v for key, v in k.table.items() if key})
        g = TruncatedSeries(g.colors, 4, {key: v for key, v in g.table.items() if key})
        assert exponential(add(k, g)) == multiply(exponential(k), exponential(g))


# ---------------------------------------------------------------------------
# variational derivative and coefficient extraction


def test_derivative_of_constant_is_zero():
    assert variational_derivative(constant_series(AB, 3, 7), ("a",)) == zero_series(AB, 2)


def test_derivative_of_measure_indicator():
    z_on_b = indicator_series(AB, 2, ("a", "b"))
    d = variational_derivative(z_on_b, ("a",))
    assert d == constant_series(AB, 1, 1)


def test_derivative_order_zero_term_is_pinned_coefficient():
    k = make_series(AB, 3, [(("a", "a", "b"), "5/3")])
    assert variational_derivative(k, ("a", "b", "a")).f0 == Fraction(5, 3)


def test_derivative_leibniz_rule_seeded():
    for seed in range(3):
        cfg = SuiteConfig(seed=seed, colors=2, order=4, trials=1)
        k = random_series(cfg, "leib-k")
        g = random_series(cfg, "leib-g")
        for pin in ("a", "b"):
            left = variational_derivative(multiply(k, g), (pin,))
            right = add(
                multiply(variational_derivative(k, (pin,)), truncate(g, 3)),
                multiply(truncate(k, 3), variational_derivative(g, (pin,))),
            )
            assert left == right


def test_too_many_pins():
    with pytest.raises(TooManyPins):
        variational_derivative(zero_series(A, 2), ("a", "a", "a"))


def test_coefficient_at_basics():
    k = make_series(AB, 3, [((), "2/3"), (("a", "b", "b"), 4)])
    assert k.coefficient(()) == Fraction(2, 3)
    assert k.coefficient(("b", "a", "b")) == 4
    with pytest.raises(KeyTooLarge):
        k.coefficient(("a",) * 4)


@settings(max_examples=40, deadline=None)
@given(st.permutations(["a", "b", "b", "a"]))
def test_coefficient_permutation_invariance(perm):
    k = make_series(AB, 4, [(("a", "a", "b", "b"), "7/5")])
    assert k.coefficient(tuple(perm)) == Fraction(7, 5)


# ---------------------------------------------------------------------------
# families, integration, measures


def family_from(colors, order, tables):
    return FamilySeries(
        colors, order, {q: series_from(colors, order, t) for q, t in tables.items()}
    )


def test_integrate_constant_family():
    fam = FamilySeries.constant(AB, 3, 1)
    result = radon_lift(fam).evaluate()
    assert result.coefficient(("a",)) == 1
    assert result.coefficient(("b",)) == 1
    assert result.coefficient(("a", "b")) == 0
    assert result.f0 == 0


def test_integrate_zero_family():
    fam = FamilySeries.constant(AB, 3, 0)
    assert radon_lift(fam).evaluate() == zero_series(AB, 3)


def test_integrate_single_variable_family():
    fam = family_from(A, 2, {"a": {("a",): 1}})
    # two choices of the integrated position
    assert radon_lift(fam).evaluate().coefficient(("a", "a")) == 2


def test_radon_lift_of_constant_family_is_base_measure():
    lifted = radon_lift(FamilySeries.constant(AB, 2, 1))
    assert lifted.members["a"] == make_series(AB, 2, [(("a",), 1)])
    assert lifted.members["b"] == make_series(AB, 2, [(("b",), 1)])


def test_radon_lift_of_zero_family():
    lifted = radon_lift(FamilySeries.constant(AB, 2, 0))
    assert lifted.members["a"] == zero_series(AB, 2)
    assert lifted.members["b"] == zero_series(AB, 2)


def test_radon_lift_evaluation_matches_integrate():
    for seed in range(3):
        cfg = SuiteConfig(seed=seed, colors=2, order=4, trials=1)
        fam = FamilySeries(
            AB,
            4,
            {"a": random_series(cfg, "rad-a"), "b": random_series(cfg, "rad-b")},
        )
        lifted = radon_lift(fam)
        assert lifted.evaluate() == add(lifted.members["a"], lifted.members["b"])
        # the lift's total mass is the integral; check it against the definition:
        # the family member pinned at each position, at the remaining positions
        integrated, total = lifted.evaluate(), indicator_series(AB, 4, AB.names)
        for key in all_keys(AB, 4):
            assert integrated.coefficient(key) == compose_oracle(total, fam, key)


def test_kernel_family_is_a_family_series_with_identity_hash():
    entries = [("a", ("b",), "1/2"), ("b", ("a", "b"), -1), ("b", ("a",), 0)]
    first, second = (make_kernel_family(AB, 3, entries) for _ in range(2))
    assert type(first) is FamilySeries
    assert first == second and first is not second
    assert len({first, second}) == 2  # hashed by identity, not by value
    assert first.members["a"] == make_series(AB, 3, [(("b",), "1/2")])
    assert first.value("b", ("b", "a")) == -1
    assert first.value("a", ("a",)) == 0
    # the caches key on the object: one miss per family object
    fredholm_determinant.cache_clear()
    for kernels in (first, first, second, first):
        fredholm_determinant(kernels)
    info = fredholm_determinant.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_measure_evaluate_on_subsets():
    lifted = radon_lift(FamilySeries.constant(AB, 2, 1))
    assert lifted.evaluate(("a",)) == lifted.members["a"]
    assert lifted.evaluate(("a", "b")) == add(lifted.members["a"], lifted.members["b"])


# ---------------------------------------------------------------------------
# compositions


def test_compose_family_with_unit_family_is_identity():
    g = make_series(AB, 3, [((), 2), (("a",), 1), (("a", "b", "b"), "-3/4")])
    assert compose_family(g, FamilySeries.constant(AB, 3, 1)) == g


def test_compose_family_with_full_indicator_is_integrate():
    cfg = SuiteConfig(seed=9, colors=2, order=3, trials=1)
    fam = FamilySeries(
        AB, 3, {"a": random_series(cfg, "cf-a"), "b": random_series(cfg, "cf-b")}
    )
    g = indicator_series(AB, 3, ("a", "b"))
    assert compose_family(g, fam) == radon_lift(fam).evaluate()


def test_compose_family_pure_second_order():
    g = make_series(AB, 3, [(("a", "b"), 5)])
    composed = compose_family(g, FamilySeries.constant(AB, 3, 1))
    assert composed.coefficient(("a", "b")) == 5
    assert composed.coefficient(("a", "a")) == 0


def test_compose_measure_with_unit_density_returns_substituted_measure():
    cfg = SuiteConfig(seed=4, colors=2, order=3, trials=1)
    fam = FamilySeries(
        AB, 3, {"a": random_series(cfg, "cm-a"), "b": random_series(cfg, "cm-b")}
    )
    assert compose_measure(FamilySeries.constant(AB, 3, 1), fam) == fam


def test_compose_measure_with_unit_argument_is_identity():
    cfg = SuiteConfig(seed=5, colors=2, order=3, trials=1)
    density = FamilySeries(
        AB, 3, {"a": random_series(cfg, "cmg-a"), "b": random_series(cfg, "cmg-b")}
    )
    assert compose_measure(density, FamilySeries.constant(AB, 3, 1)) == density


def test_compose_measure_matches_definition_oracle():
    for seed in range(3):
        cfg = SuiteConfig(seed=seed, colors=2, order=3, trials=1)
        density = FamilySeries(
            AB, 3, {"a": random_series(cfg, "do-ga"), "b": random_series(cfg, "do-gb")}
        )
        fam = FamilySeries(
            AB, 3, {"a": random_series(cfg, "do-fa"), "b": random_series(cfg, "do-fb")}
        )
        # the atoms of the composed measure, against the definition on gamma's atoms
        composed, gamma = radon_lift(compose_measure(density, fam)), radon_lift(density)
        for q in AB:
            for key in all_keys(AB, 3):
                assert composed.members[q].coefficient(key) == compose_oracle(
                    gamma.members[q], fam, key
                )


# ---------------------------------------------------------------------------
# relabelling


def test_relabelling_invariance():
    mapping = {"a": "x", "b": "y"}
    k = make_series(AB, 3, [(("a",), 2), (("a", "b"), "1/2"), (("b", "b", "b"), -1)])
    g = make_series(AB, 3, [((), 1), (("b",), 3)])

    def relabel(series):
        return make_series(
            ColorSet(("x", "y")),
            series.order,
            [(tuple(mapping[c] for c in key), v) for key, v in series.table.items()],
        )

    assert relabel(multiply(k, g)) == multiply(relabel(k), relabel(g))
    assert relabel(exponential(k)) == exponential(relabel(k))


def test_multiply_laws_at_full_scale():
    cfg = SuiteConfig(seed=77, colors=3, order=5, trials=1)
    k = random_series(cfg, "law-k")
    g = random_series(cfg, "law-g")
    h = random_series(cfg, "law-h")
    assert multiply(k, g) == multiply(g, k)
    assert multiply(multiply(k, g), h) == multiply(k, multiply(g, h))


def test_kernel_family_constructor_invariants():
    with pytest.raises(NonzeroConstantTerm):
        make_kernel_family(AB, 2, [("a", (), 1)])
    with pytest.raises(DuplicateKey):
        make_kernel_family(AB, 2, [("a", ("a", "b"), 1), ("a", ("b", "a"), 2)])
    with pytest.raises(UnknownColor):
        make_kernel_family(AB, 2, [("c", ("a",), 1)])
    with pytest.raises(KeyTooLarge):
        make_kernel_family(AB, 2, [("a", ("a",) * 3, 1)])
    with pytest.raises(ValueError):
        make_kernel_family(AB, 0, [])


# ---------------------------------------------------------------------------
# degenerate shapes


def test_order_zero_series_are_legal():
    k = constant_series(AB, 0, 5)
    g = constant_series(AB, 0, "1/5")
    assert multiply(k, g) == constant_series(AB, 0, 1)
    assert exponential(zero_series(AB, 0)) == constant_series(AB, 0, 1)


# ---------------------------------------------------------------------------
# hypothesis property checks

COLOR_SETS = (A, AB)


@st.composite
def series_triple(draw):
    colors = draw(st.sampled_from(COLOR_SETS))
    order = draw(st.integers(min_value=0, max_value=3))
    keys = list(all_keys(colors, order))
    out = []
    for _ in range(3):
        values = draw(
            st.lists(st.sampled_from(POOL), min_size=len(keys), max_size=len(keys))
        )
        out.append(make_series(colors, order, zip(keys, values)))
    return out


@settings(max_examples=40, deadline=None)
@given(series_triple())
def test_multiply_commutative_associative(triple):
    k, g, h = triple
    assert multiply(k, g) == multiply(g, k)
    assert multiply(multiply(k, g), h) == multiply(k, multiply(g, h))


@settings(max_examples=25, deadline=None)
@given(series_triple())
def test_multiply_many_is_fold(triple):
    k, g, h = triple
    assert multiply_many([k, g, h]) == multiply(multiply(k, g), h)


@settings(max_examples=25, deadline=None)
@given(series_triple())
def test_exponential_homomorphism(triple):
    k, g, _ = triple
    k = TruncatedSeries(k.colors, k.order, {key: v for key, v in k.table.items() if key})
    g = TruncatedSeries(g.colors, g.order, {key: v for key, v in g.table.items() if key})
    assert exponential(add(k, g)) == multiply(exponential(k), exponential(g))


@settings(max_examples=25, deadline=None)
@given(series_triple())
def test_leibniz_property(triple):
    k, g, _ = triple
    if k.order == 0:
        return
    pin = k.colors.names[0]
    left = variational_derivative(multiply(k, g), (pin,))
    right = add(
        multiply(variational_derivative(k, (pin,)), truncate(g, g.order - 1)),
        multiply(truncate(k, k.order - 1), variational_derivative(g, (pin,))),
    )
    assert left == right


# ---------------------------------------------------------------------------
# exact checks against the definitions, at key sizes up to 8

ORACLE_GRID = [(1, 8), (2, 6), (3, 5)]


def random_dense_series(d: int, order: int, seed: str, constant: bool = True):
    rng = random.Random(seed)
    colors = ColorSet(tuple("abc"[:d]))
    table = {key: rng.choice(POOL) for key in all_keys(colors, order) if key or constant}
    return series_from(colors, order, table)


@pytest.mark.parametrize("d,order", ORACLE_GRID)
def test_multiply_matches_subset_sum_oracle_on_mixed_denominators(d, order):
    rng = random.Random(f"mul:{d}")
    colors = ColorSet(tuple("abc"[:d]))
    k, g = (
        series_from(
            colors, order, {key: rng.choice(PRODUCT_POOL) for key in all_keys(colors, order)}
        )
        for _ in range(2)
    )
    # exp(K) exp(-K) = 1: every key but the empty one cancels to zero
    exp_k = exponential(series_from(colors, order, {key: v for key, v in k.table.items() if key}))
    exp_minus_k = exponential(
        series_from(colors, order, {key: -v for key, v in k.table.items() if key})
    )
    for left, right in [(k, g), (g, k), (exp_k, exp_minus_k)]:
        product = multiply(left, right)
        for key in all_keys(colors, order):
            assert product.coefficient(key) == product_oracle(left, right, key), key
    assert multiply(exp_k, exp_minus_k) == constant_series(colors, order, 1)


@pytest.mark.parametrize("d,order", ORACLE_GRID)
def test_exponential_matches_partition_oracle(d, order):
    k = random_dense_series(d, order, f"exp:{d}", constant=False)
    e = exponential(k)
    for key in all_keys(k.colors, order):
        assert e.coefficient(key) == exponential_oracle(k, key), key


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("d,order", [(1, 7), (2, 6), (3, 5)])
def test_reciprocal_times_series_is_one(d, order, sparse):
    p = random_dense_series(d, order, f"recip:{d}", constant=False)
    if sparse:
        p = series_from(p.colors, order, dict(list(p.table.items())[::4]))
    p = add(constant_series(p.colors, order, 1), p)
    assert multiply(p, _reciprocal(p)) == constant_series(p.colors, order, 1)


@pytest.mark.parametrize("d,order", ORACLE_GRID)
def test_compose_family_matches_assignment_oracle(d, order):
    g = random_dense_series(d, order, f"cf-g:{d}")
    colors = g.colors
    fam = FamilySeries(
        colors,
        order,
        {q: random_dense_series(d, order, f"cf-{q}:{d}") for q in colors.names},
    )
    composed = compose_family(g, fam)
    for key in all_keys(colors, order):
        assert composed.coefficient(key) == compose_oracle(g, fam, key), key


# ---------------------------------------------------------------------------
# the normal form: a series takes its table as built, so every producer must
# hand over sorted keys of size <= order and non-zero Fraction values

NORMAL_POOL = PRODUCT_POOL + (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


@st.composite
def producer_inputs(draw):
    colors = draw(st.sampled_from(COLOR_SETS))
    order = draw(st.integers(min_value=1, max_value=3))
    keys = list(all_keys(colors, order))

    def table():
        values = st.lists(st.sampled_from(NORMAL_POOL), min_size=len(keys), max_size=len(keys))
        return dict(zip(keys, draw(values)))

    family = {q: table() for q in colors.names}
    return colors, order, table(), table(), family, draw(st.sampled_from(NORMAL_POOL))


def assert_normal(series):
    for key, value in series.table.items():
        assert list(key) == sorted(key) and len(key) <= series.order, key
        assert type(value) is Fraction and value, (key, value)


@settings(max_examples=60, deadline=None)
@given(producer_inputs())
# one color: k * g, exp(k) and the composition of k cancel at (a) or (a, a)
@example((A, 2, {(): 1, ("a",): 1, ("a", "a"): -1}, {(): 1, ("a",): -1, ("a", "a"): 0},
          {"a": {(): 1, ("a",): Fraction(1, 2), ("a", "a"): 0}}, 0))
# two colors: 1/(1 + k) cancels at (a, a), the atom at a of x_b lands on (b, a)
@example((AB, 2, {("a",): 1, ("a", "a"): 2, ("a", "b"): Fraction(1, 3)}, {(): Fraction(-2, 7)},
          {"a": {("b",): 1}, "b": {(): 1, ("a", "b"): 0}}, Fraction(5, 12)))
def test_every_producer_returns_a_normal_table(inputs):
    colors, order, k_table, g_table, family_tables, value = inputs
    # keys reversed: make_series must sort them
    k = make_series(colors, order, [(key[::-1], v) for key, v in k_table.items()])
    g = make_series(colors, order, g_table.items())
    k0 = make_series(colors, order, [(key, v) for key, v in k_table.items() if key])
    family = FamilySeries(
        colors, order, {q: make_series(colors, order, t.items()) for q, t in family_tables.items()}
    )
    kernels = make_kernel_family(
        colors,
        order,
        [(q, key[::-1], v) for q, t in family_tables.items() for key, v in t.items() if key],
    )
    solution = solve_tree_fixed_point(kernels)
    produced = [
        k,
        g,
        constant_series(colors, order, value),
        constant_series(colors, order, 0),
        indicator_series(colors, order, colors.names),
        zero_series(colors, order),
        add(k, g),
        add(k, scale(k, -1)),
        scale(k, value),
        scale(k, 0),
        multiply(k, g),
        exponential(k0),
        _reciprocal(add(constant_series(colors, order, 1), k0)),
        variational_derivative(k, colors.names[-1:]),
        compose_family(k, family),
        fredholm_determinant(kernels),
        *radon_lift(family).members.values(),
        *compose_measure(family, family).members.values(),
        *kernels.members.values(),
        *solution.tree_factors.members.values(),
        *solution.inverse.members.values(),
    ]
    for series in produced:
        assert_normal(series)
