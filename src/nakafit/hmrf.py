"""Hidden-Markov-random-field image segmentation with pluggable likelihoods.

A label field over the pixel grid is scored by the posterior energy

    U(x) = -sum_i ln f(y_i | theta_{x_i}) + beta * sum_{<a,b>} [x_a != x_b]

where <a,b> ranges over 4-neighbor pairs, each counted once. Labels start
from 1-D k-means on the intensities and are refined by iterated
conditional modes (ICM, checkerboard order: pixels with even i + j, then
those with odd i + j), alternating with per-class parameter re-estimation:
sample mean/variance for the Gaussian likelihood, exact ML on all of a
class's pixels for the Nakagami likelihood.
`segment` runs at most _MAX_SWEEPS sweeps per round and _MAX_OUTER rounds,
stops early once parameters move by less than _PARAM_TOL, and lifts zero
pixels by _ZERO_SHIFT times the peak for the Nakagami likelihood.
"""

import math
from dataclasses import astuple, dataclass, replace
from enum import Enum
from itertools import islice

import numpy as np

from .errors import NakafitError
from .estimators import compute_stats, estimate_ml
from .nakagami import NakagamiParams, log_pdf

# Classes whose pixels give delta at or below this are treated as flat
# (quantized images produce near-constant regions whose implied shape is
# unphysical).
_SEG_DELTA_MIN = 1e-9

# Fallbacks for classes that cannot be fitted at initialization: a variance
# floor for the Gaussian, a concentrated high-shape spike for the Nakagami.
_VAR_FLOOR = 1e-12
_DEGENERATE_M = 1e4

_KMEANS_MAX_ITER = 100

_MAX_SWEEPS = 3
_MAX_OUTER = 100
_PARAM_TOL = 1e-5
_ZERO_SHIFT = 1e-6


class Likelihood(Enum):
    GAUSSIAN = "gaussian"
    NAKAGAMI = "nakagami"


@dataclass(frozen=True)
class GaussianParams:
    mu: float
    var: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.var) and self.var > 0):
            raise ValueError(f"bad Gaussian parameters ({self.mu!r}, {self.var!r})")


@dataclass(frozen=True)
class SegModel:
    """Class count, likelihood family, per-class parameters, and MRF weight.

    class_params entries may be None before the first parameter update;
    `starved` lists classes whose parameters were frozen (too few pixels,
    or a degenerate fit) in the most recent update.
    """

    n_classes: int
    likelihood: Likelihood
    class_params: tuple
    beta: float = 1.0
    starved: tuple = ()

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if len(self.class_params) != self.n_classes:
            raise ValueError("class_params must have one entry per class")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError("beta must be a finite non-negative real")

    @classmethod
    def empty(cls, n_classes, likelihood, beta=1.0):
        return cls(
            n_classes=n_classes,
            likelihood=likelihood,
            class_params=(None,) * n_classes,
            beta=beta,
        )


@dataclass(frozen=True)
class SegmentResult:
    labels: np.ndarray
    model: SegModel
    trace: tuple  # (step, phase, energy) rows; phases "params" and "icm"
    sweeps: int


def _as_image(image):
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    if not np.all(np.isfinite(img)) or np.any(img < 0.0):
        raise ValueError("pixel intensities must be finite and >= 0")
    return img


def _as_labels(labels, shape, n_classes):
    lab = np.asarray(labels)
    if lab.shape != shape:
        raise ValueError(f"label field shape {lab.shape} != image shape {shape}")
    if not np.all(np.isfinite(lab)) or np.any(lab != np.round(lab)):
        raise ValueError("labels must be finite integers")
    if lab.min() < 0 or lab.max() >= n_classes:
        raise ValueError("labels must lie in [0, n_classes)")
    return lab.astype(np.intp)


def kmeans_init(image, n_classes, seed):
    """1-D k-means on the intensities; classes are ordered by center value."""
    img = _as_image(image)
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    vals = img.ravel()
    distinct = np.unique(vals)
    if distinct.size < n_classes:
        raise ValueError(
            f"image has {distinct.size} distinct intensities, fewer than {n_classes} classes"
        )
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.choice(distinct, size=n_classes, replace=False))
    assign = np.argmin(np.abs(vals[:, None] - centers[None, :]), axis=1)
    for _ in range(_KMEANS_MAX_ITER):
        new_centers = centers.copy()
        for j in range(n_classes):
            members = vals[assign == j]
            if members.size:
                new_centers[j] = members.mean()
            else:
                # re-seed an empty cluster at the worst-represented point
                new_centers[j] = vals[np.argmax(np.abs(vals - centers[assign]))]
        new_assign = np.argmin(np.abs(vals[:, None] - new_centers[None, :]), axis=1)
        moved = not np.array_equal(new_centers, centers)
        centers, assign = new_centers, new_assign
        if not moved:
            break
    order = np.argsort(centers, kind="stable")
    rank = np.empty(n_classes, dtype=np.intp)
    rank[order] = np.arange(n_classes)
    return rank[assign].reshape(img.shape)


def _nll_table(img, model):
    """Per-pixel, per-class negative log-likelihood, shape (H, W, K)."""
    out = np.empty(img.shape + (model.n_classes,))
    for k, p in enumerate(model.class_params):
        if p is None:
            raise ValueError(f"class {k} has no parameters; run update_params first")
        if model.likelihood is Likelihood.GAUSSIAN:
            out[:, :, k] = 0.5 * math.log(2.0 * math.pi * p.var) + (img - p.mu) ** 2 / (
                2.0 * p.var
            )
        else:
            out[:, :, k] = -log_pdf(p, img)
    return out


def _energy_given_table(nll, labels, beta):
    data = float(np.take_along_axis(nll, labels[:, :, None], axis=2).sum())
    pairs = (labels[:, 1:] != labels[:, :-1]).sum() + (labels[1:, :] != labels[:-1, :]).sum()
    return data + beta * int(pairs)


def total_energy(image, labels, model):
    """Posterior energy of a labeling; each 4-neighbor pair counted once."""
    img = _as_image(image)
    lab = _as_labels(labels, img.shape, model.n_classes)
    return _energy_given_table(_nll_table(img, model), lab, model.beta)


def _icm_sweeps(nll, labels, beta):
    """Checkerboard ICM sweeps over the (H, W, K) table `nll`, one per step.

    A sweep relabels the pixels with even i + j, then those with odd i + j.
    Pixels of one color are never 4-neighbors, so each half-sweep is an
    exact coordinate-descent step (Besag's coding scheme) and the energy
    never rises. A pixel's neighbor count is the same for every class, so
    its best class is argmin over k of nll_k - beta * (neighbors labeled k);
    ties go to the lowest class index. Yields a new label field and the
    number of pixels whose label changed; `labels` is never mutated.
    """
    classes = np.arange(nll.shape[2])
    odd = np.indices(labels.shape).sum(axis=0) % 2 == 1
    lab = labels
    while True:
        start = lab
        for color in (~odd, odd):
            onehot = lab[:, :, None] == classes
            agree = np.zeros(nll.shape)
            agree[1:] += onehot[:-1]
            agree[:-1] += onehot[1:]
            agree[:, 1:] += onehot[:, :-1]
            agree[:, :-1] += onehot[:, 1:]
            lab = np.where(color, np.argmin(nll - beta * agree, axis=2), lab)
        yield lab, int(np.count_nonzero(lab != start))


def icm_sweep(image, labels, model):
    """One checkerboard ICM sweep (both colors); returns (new label field,
    number of changed pixels).

    The total energy never increases across a sweep.
    """
    img = _as_image(image)
    lab = _as_labels(labels, img.shape, model.n_classes)
    return next(_icm_sweeps(_nll_table(img, model), lab, model.beta))


def _fit_class(px, likelihood):
    """Fit one class from its hard-assigned pixels; None if degenerate.

    The Nakagami fit is exact ML on all of the class pixels at once:
    splitting a class into small fixed chunks would inject the solver's
    small-sample bias (~ +3m/L per chunk) into the class shape, which
    over-peaks the density enough to derail the segmentation on shape-only
    contrasts.
    """
    if px.size < 2:
        return None
    if likelihood is Likelihood.GAUSSIAN:
        var = float(px.var(ddof=1))
        if var <= 0.0:
            return None
        return GaussianParams(mu=float(px.mean()), var=var)
    stats = compute_stats(px)
    if stats.delta <= _SEG_DELTA_MIN:
        return None
    try:
        est = estimate_ml(stats)
    except NakafitError:
        return None
    return NakagamiParams(m=est.m_hat, sigma=est.sigma_hat)


def _bootstrap_class(px, likelihood):
    """Fallback parameters for a class that cannot be fitted at startup."""
    if px.size == 0:
        raise ValueError("a class has no pixels at initialization")
    if likelihood is Likelihood.GAUSSIAN:
        var = float(px.var(ddof=1)) if px.size > 1 else 0.0
        return GaussianParams(mu=float(px.mean()), var=max(var, _VAR_FLOOR))
    mean_x2 = float((px * px).mean())
    return NakagamiParams(m=_DEGENERATE_M, sigma=mean_x2 / _DEGENERATE_M)


def update_params(image, labels, model):
    """Re-estimate per-class parameters from the hard assignment.

    Classes with fewer than 2 pixels or a degenerate fit keep their previous
    parameters and are reported in the returned model's `starved` field
    (bootstrapped if they never had parameters).
    """
    img = _as_image(image)
    lab = _as_labels(labels, img.shape, model.n_classes)
    if model.likelihood is Likelihood.NAKAGAMI and np.any(img <= 0.0):
        raise ValueError("Nakagami likelihood requires strictly positive pixels")
    new_params = []
    starved = []
    for k in range(model.n_classes):
        px = img[lab == k]
        fitted = _fit_class(px, model.likelihood)
        if fitted is None:
            starved.append(k)
            prev = model.class_params[k]
            fitted = prev if prev is not None else _bootstrap_class(px, model.likelihood)
        new_params.append(fitted)
    return replace(model, class_params=tuple(new_params), starved=tuple(starved))


def _param_vector(model):
    return np.ravel([astuple(p) for p in model.class_params])


def segment(image, n_classes, likelihood, *, beta=1.0, seed=0):
    """Full pipeline: k-means init, then alternate parameter updates and ICM.

    Each outer round refits the class parameters and runs at most
    _MAX_SWEEPS ICM sweeps; keeping the sweep budget small lets labels and
    parameters co-evolve instead of freezing early around the
    initialization. The loop stops once a round changes no pixel and moves
    the parameters by less than _PARAM_TOL (relative), or after _MAX_OUTER
    rounds.

    For the Nakagami likelihood, images containing zeros are shifted up by
    _ZERO_SHIFT * max intensity to restore positive support. Returns labels,
    the fitted model, the (step, phase, energy) trace, and the number of
    ICM sweeps executed.
    """
    img = _as_image(image)
    if likelihood is Likelihood.NAKAGAMI and img.min() <= 0.0:
        peak = img.max()
        if peak <= 0.0:
            raise ValueError("cannot use the Nakagami likelihood on an all-zero image")
        img = img + _ZERO_SHIFT * peak
    labels = kmeans_init(img, n_classes, seed)
    model = SegModel.empty(n_classes, likelihood, beta=beta)
    trace = []
    step = 0
    sweeps = 0
    prev_vec = None
    for _ in range(_MAX_OUTER):
        model = update_params(img, labels, model)
        nll = _nll_table(img, model)
        trace.append((step, "params", _energy_given_table(nll, labels, model.beta)))
        step += 1
        vec = _param_vector(model)
        params_stable = prev_vec is not None and np.max(
            np.abs(vec - prev_vec) / np.maximum(np.abs(prev_vec), 1e-300)
        ) < _PARAM_TOL
        prev_vec = vec
        round_changed = 0
        for labels, changed in islice(_icm_sweeps(nll, labels, model.beta), _MAX_SWEEPS):
            round_changed += changed
            sweeps += 1
            trace.append((step, "icm", _energy_given_table(nll, labels, model.beta)))
            step += 1
            if changed == 0:
                break
        if round_changed == 0 and params_stable:
            break
    return SegmentResult(labels=labels, model=model, trace=tuple(trace), sweeps=sweeps)
