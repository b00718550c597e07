"""Exact calculus of truncated power series over a finite color set.

The package inverts measure-valued series of the form "base measure times
exp(-kernel)" in two independent ways, through a tree-generating fixed
point and through a truncated Fredholm determinant formula, and verifies
their agreement plus the underlying cancellation identities by brute-force
enumeration of enriched maps, trees, and crowns.

``__all__`` is the public surface: the names the README documents, the
enumeration and suite entry points, and the error classes. Everything else
is importable from its submodule.
"""

from .combinat import (
    EnrichedMap,
    enumerate_crowns,
    enumerate_enriched_maps,
    set_partitions,
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
from .harness import SuiteConfig, run_suite
from .inversion import (
    fredholm_determinant,
    inverse_via_determinant,
    solve_tree_fixed_point,
)
from .series import ColorSet, make_kernel_family

__all__ = [
    # the README's library sketch
    "ColorSet", "make_kernel_family", "solve_tree_fixed_point",
    "fredholm_determinant", "inverse_via_determinant",
    # enumeration and verification entry points
    "EnrichedMap", "enumerate_crowns", "enumerate_enriched_maps", "set_partitions",
    "tree_coefficient", "SuiteConfig", "run_suite",
    # errors
    "LagrangeForestError", "UnknownColor", "DuplicateKey", "KeyTooLarge",
    "OrderMismatch", "ColorSetMismatch", "NonzeroConstantTerm", "TooManyPins",
    "BlockTooLarge", "EmptySubset", "SizeCapExceeded", "UnknownSuite",
]

__version__ = "0.1.0"
