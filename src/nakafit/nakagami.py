"""Nakagami-m distribution in the (shape m, spread sigma) parameterization.

The density over x > 0 is

    f(x) = 2 / (Gamma(m) sigma^m) * x^(2m-1) * exp(-x^2 / sigma)

so x^2 ~ Gamma(shape=m, scale=sigma) and the conventional spread is
Omega = E[x^2] = m * sigma.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import OutOfRangeError, _float_array, _integer, _positive

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class NakagamiParams:
    """Shape m and spread sigma (= Omega / m), both strictly positive."""

    m: float
    sigma: float

    def __post_init__(self):
        for name in ("m", "sigma"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))

    @property
    def omega(self):
        """Conventional spread Omega = E[x^2] = m * sigma."""
        return self.m * self.sigma

    @classmethod
    def from_omega(cls, m, omega):
        return cls(m=m, sigma=_positive(omega, "omega") / _positive(m, "m"))


_BAD_ENTRY = "sample block entries must be finite and > 0"


def as_block(values):
    """Validate a sample block: non-empty, all entries finite and > 0.

    Returns the entries as a 1-D float64 ndarray, a block of any shape
    flattened in C order (a copy only where conversion or flattening needs
    one). The entries are checked in one min/max pass: NaN propagates
    through both reductions and -0.0 is not above 0.0, so `0 < min` and
    `max < inf` reject NaN, +-inf, zeros of either sign and negatives alike.
    """
    block, _ = _positive_block(values)
    if not np.maximum.reduce(block) < math.inf:
        raise ValueError(_BAD_ENTRY)
    return block


def _positive_block(values):
    """`as_block` without its `max < inf` check: the block and its minimum,
    a float above 0. Only +inf entries pass here that `as_block` refuses;
    a caller whose sums come out finite has none and may skip the check."""
    block = _float_array(values, "sample block")
    if block.ndim != 1:
        block = block.reshape(-1)
    if block.size == 0:
        raise ValueError("sample block must be non-empty")
    low = float(np.minimum.reduce(block))
    if not 0.0 < low:
        raise ValueError(_BAD_ENTRY)
    return block, low


def log_pdf(params, x):
    """Log-density ln f(x) at x > 0; accepts a scalar or an ndarray.

    Where the density underflows the result is -inf. Where its terms
    overflow against each other (inf - inf, as at m = 1e308, sigma =
    1e-308), it raises OutOfRangeError.
    """
    arr = _float_array(x, "x")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("x must be finite and > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (
            _LN2
            - specfun.log_gamma(params.m)
            - params.m * math.log(params.sigma)
            + (2.0 * params.m - 1.0) * np.log(arr)
            - arr * arr / params.sigma
        )
    if np.isnan(out).any():
        raise OutOfRangeError(f"ln f(x) at m={params.m!r}, sigma={params.sigma!r} is not a number")
    return float(out) if arr.ndim == 0 else out


_SEED_RULE = "seed must be an integer >= 0, a sequence of them, a SeedSequence or a Generator"


def sample(params, n, seed):
    """Draw n i.i.d. Nakagami samples: sqrt of Gamma(m, scale=sigma) variates.

    The Gamma variates come from numpy's `Generator.standard_gamma`.
    `seed` may be anything numpy's default_rng accepts but a bool, or an
    existing Generator (consumed in place, for callers managing their own
    streams).
    Raises OutOfRangeError when a draw is not a positive finite float: at
    m ~ 0.01 some variates underflow to 0, and near the float limit of
    Omega some overflow to inf.
    """
    n = _integer(n, "n", 1)
    if isinstance(seed, bool):
        raise ValueError(f"{_SEED_RULE}, got {seed}")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:  # numpy's message names no argument
        raise ValueError(f"{_SEED_RULE}: {exc}") from None
    x = _draw(params, n, rng)
    if not 0.0 < x.min() <= x.max() < math.inf:
        raise OutOfRangeError(
            f"a draw at m={params.m!r}, sigma={params.sigma!r} is not a positive finite float"
        )
    return x


def _draw(params, size, rng):
    """sqrt(sigma * g) for an array of Gamma(m) variates g of the given size
    from `rng`'s `standard_gamma`, computed in place. numpy fills the array
    from the stream in C order, so one draw of shape (k, ...) holds the k
    draws of shape (...) that k calls in a row would give. A variate that
    underflows to 0 or overflows to inf is left for the caller to refuse."""
    x = rng.standard_gamma(params.m, size)
    with np.errstate(over="ignore"):
        np.multiply(x, params.sigma, out=x)
        np.sqrt(x, out=x)
    return x
