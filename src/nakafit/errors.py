"""Exception types shared across the package."""


class NakafitError(Exception):
    """Base class for all estimation and segmentation failures."""


class DegenerateBlockError(NakafitError):
    """Raised when a sample block carries no shape information (delta ~ 0)."""


class NoConvergenceError(NakafitError):
    """Raised when the safeguarded root solver exhausts its iteration budget."""


class OutOfRangeError(NakafitError):
    """Raised when an input lies outside an approximation's valid domain."""


class NoBlocksError(NakafitError):
    """Raised when finalizing a block-recursive state that saw no usable blocks."""
