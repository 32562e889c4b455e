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

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class NakagamiParams:
    """Shape m and spread sigma (= Omega / m), both strictly positive."""

    m: float
    sigma: float

    def __post_init__(self):
        for name in ("m", "sigma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, name, float(v))

    @property
    def omega(self):
        """Conventional spread Omega = E[x^2] = m * sigma."""
        return self.m * self.sigma

    @classmethod
    def from_omega(cls, m, omega):
        return cls(m=m, sigma=omega / m)


def as_block(values):
    """Validate a sample block: 1-D, non-empty, all entries finite and > 0.

    Returns a float64 ndarray (copy only if conversion is needed).
    """
    block = np.asarray(values, dtype=float)
    if block.ndim != 1:
        block = block.reshape(-1)
    if block.size == 0:
        raise ValueError("sample block must be non-empty")
    if not np.all(np.isfinite(block)) or np.any(block <= 0.0):
        raise ValueError("sample block entries must be finite and > 0")
    return block


def log_pdf(params, x):
    """Log-density ln f(x) at x > 0; accepts a scalar or an ndarray."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("x must be finite and > 0")
    out = (
        _LN2
        - specfun.log_gamma(params.m)
        - params.m * math.log(params.sigma)
        + (2.0 * params.m - 1.0) * np.log(arr)
        - arr * arr / params.sigma
    )
    return float(out) if arr.ndim == 0 else out


def pdf(params, x):
    """Density f(x) at x > 0."""
    return np.exp(log_pdf(params, x))


def block_log_likelihood(params, block):
    """Sum of log_pdf over every sample in the block (i.i.d. joint log-density)."""
    return float(np.sum(log_pdf(params, as_block(block))))


def _gamma_variates(rng, shape, n):
    """n standard-scale Gamma(shape) draws via the Marsaglia-Tsang method.

    Shapes below 1 use the boost g(a) = g(a+1) * U^(1/a). Rejection is
    batched; the fill order is sequential, so output is deterministic for
    a given generator state.
    """
    if shape < 1.0:
        g = _gamma_variates(rng, shape + 1.0, n)
        u = 1.0 - rng.random(n)  # (0, 1]: keeps the boost strictly positive
        return g * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.standard_normal(todo)
        u = rng.random(todo)
        v = (1.0 + c * z) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (v > 0.0) & (np.log(u) < 0.5 * z * z + d - d * v + d * np.log(v))
        kept = d * v[accept]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return out


def sample(params, n, seed):
    """Draw n i.i.d. Nakagami samples: sqrt of Gamma(m, scale=sigma) variates.

    `seed` may be anything numpy's default_rng accepts, or an existing
    Generator (consumed in place, for callers managing their own streams).
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return np.sqrt(params.sigma * _gamma_variates(rng, params.m, n))


def analytic_moment(params, k):
    """Exact even moment E[x^k] = sigma^j * m (m+1) ... (m+j-1) with j = k/2.

    Supported for k in {2, 4, 6}.
    """
    if k not in (2, 4, 6):
        raise ValueError(f"k must be one of 2, 4, 6; got {k!r}")
    j = k // 2
    rising = 1.0
    for i in range(j):
        rising *= params.m + i
    return params.sigma**j * rising
