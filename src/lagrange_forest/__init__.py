"""Exact calculus of truncated power series over a finite color set.

The package inverts measure-valued series of the form "base measure times
exp(-kernel)" in two independent ways, through a tree-generating fixed
point and through a truncated Fredholm determinant formula, and verifies
their agreement plus the underlying cancellation identities by brute-force
enumeration of enriched maps, trees, and crowns.
"""

from .combinat import (
    EnrichedMap,
    StructureClass,
    classify,
    connected_components,
    det_coefficient_via_crowns,
    enumerate_crowns,
    enumerate_enriched_maps,
    enumerate_rooted_trees,
    exp_coefficient_via_maps,
    forest_coefficient,
    map_weight,
    set_partitions,
    set_partitions_of,
    tree_coefficient,
)
from .errors import (
    BlockTooLarge,
    ColorSetMismatch,
    DuplicateKey,
    EmptySubset,
    KeyTooLarge,
    LagrangeForestError,
    NonzeroConstantTerm,
    OrderMismatch,
    SizeCapExceeded,
    TooManyPins,
    UnknownColor,
    UnknownSuite,
)
from .harness import SuiteConfig, random_kernel_family, random_series, run_suite
from .inversion import (
    TreeSolution,
    finite_matrix_determinant,
    forward_measure,
    fredholm_determinant,
    identity_measure,
    inverse_via_determinant,
    lagrange_good_coefficient,
    magic_sum,
    round_trip_check,
    solve_tree_fixed_point,
    univariate_lagrange_check,
)
from .reports import IdentityReport, Witness
from .series import (
    ColorSet,
    FamilySeries,
    KernelFamily,
    MeasureSeries,
    TruncatedSeries,
    add,
    all_keys,
    canonical_key,
    compose_family,
    compose_measure,
    compose_univariate,
    constant_series,
    exponential,
    indicator_series,
    integrate,
    make_kernel_family,
    make_series,
    multiply,
    radon_lift,
    restrict,
    scale,
    variational_derivative,
    zero_series,
)

__version__ = "0.1.0"
