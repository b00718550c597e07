"""Exception types shared across the package."""


class LagrangeForestError(Exception):
    """Base class for all package-specific errors."""


class UnknownColor(LagrangeForestError):
    """A color label does not belong to the color set in use."""


class DuplicateKey(LagrangeForestError):
    """Two entries canonicalize to the same coefficient key."""


class KeyTooLarge(LagrangeForestError):
    """A coefficient key exceeds the truncation order."""


class OrderMismatch(LagrangeForestError):
    """Operands were built with different truncation orders."""


class ColorSetMismatch(LagrangeForestError):
    """Operands were built over different color sets."""


class NonzeroConstantTerm(LagrangeForestError):
    """The constant coefficient must vanish for this operation."""


class TooManyPins(LagrangeForestError):
    """More colors pinned than the truncation order allows."""


class BlockTooLarge(LagrangeForestError):
    """A partition block is larger than the kernel family's order."""


class EmptySubset(LagrangeForestError):
    """A non-empty color subset is required."""


class SizeCapExceeded(LagrangeForestError):
    """Requested enumeration is above the configured size cap."""


class UnknownSuite(LagrangeForestError):
    """No verification suite is registered under the given name."""
