"""Hidden-Markov-random-field image segmentation with pluggable likelihoods.

A label field over the pixel grid is scored by the posterior energy

    U(x) = -sum_i ln f(y_i | theta_{x_i}) + beta * sum_{<a,b>} [x_a != x_b]

where <a,b> ranges over 4-neighbor pairs, each counted once. Labels start
from 1-D k-means on the distinct intensities weighted by their pixel
counts, and are refined by iterated conditional modes (ICM) on one `_Icm`,
alternating with per-class parameter re-estimation: sample mean/variance
for the Gaussian likelihood, exact ML on all of a class's pixels for the
Nakagami likelihood.

The class rule (`_fit_class`): a class is fitted when, for the
Gaussian, its n - 1 variance is above 0, or, for the Nakagami, its delta
is above _SEG_DELTA_MIN and `estimate_ml` raises no NakafitError. A class
of one pixel is never fitted: its variance is 0, and its delta is 0 to
within the rounding of one ln x^2. A class that is not fitted is starved
and keeps its parameters from the last refit; at the first refit, which
has none, it falls back to the Gaussian of its mean and variance
_VAR_FLOOR (1e-12), or to the Nakagami spike at m = _DEGENERATE_M with
its mean square (spread _SIGMA_MIN where that spike's spread
underflows). A class with no pixels keeps its parameters, and is refused
at the first refit.

`segment` computes what no round changes once per call: the image's
np.unique, whose distinct intensities are the only values each class
cost is evaluated at, and x^2 and ln x^2 of each distinct intensity.
The image is read as a histogram per class, the count of the class's
pixels at each distinct intensity, which the `_Icm` counts once and its
sweeps keep current at the pixels they relabel. After each refit
`segment` evaluates the (K, D) class-cost table, `_class_costs` at the D
distinct intensities, and hands it to the `_Icm`'s energy and sweep; the
`_Icm`, built once as `_Icm(labels, inverse, n_classes)` from the k-means
field and the inverse index, sees only costs. Refit and energy both read
the one histogram: the energy's data term is the histogram dotted with
the table. Each round runs one dense checkerboard sweep, which gathers
its costs from that table; the number of sweeps is the number of rounds.
The tests hold the energy of a histogram counted from the whole field,
the exact sum of every pixel's own-class cost, the one-hot argmin sweep
and the per-pixel class fit as references. Images must be >= 0 with
peak^2 * pixel count finite; the Nakagami likelihood also needs every
square positive. A cost that overflows is +inf.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NakafitError, _float_array, _integer, _positive, _real, _shown
from .estimators import _stats_of_sums, estimate_ml
from .nakagami import NakagamiParams, log_pdf

# Classes whose pixels give delta at or below this are treated as flat
# (quantized images produce near-constant regions whose implied shape is
# unphysical).
_SEG_DELTA_MIN = 1e-9

# Fallbacks for classes that cannot be fitted at the first refit: a tiny
# variance for the Gaussian, a concentrated high-shape spike for the Nakagami.
_VAR_FLOOR = 1e-12
_DEGENERATE_M = 1e4
# the smallest positive float: the spike's spread when mean(x^2) / _DEGENERATE_M underflows
_SIGMA_MIN = math.ulp(0.0)

_KMEANS_MAX_ITER = 100

_MAX_OUTER = 100
_ZERO_SHIFT = 1e-6


class Likelihood(Enum):
    GAUSSIAN = "gaussian"
    NAKAGAMI = "nakagami"


@dataclass(frozen=True)
class GaussianParams:
    mu: float
    var: float

    def __post_init__(self):
        if not _real(self.mu):
            raise ValueError(f"mu must be a finite real, got {_shown(self.mu)}")
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "var", _positive(self.var, "var"))


@dataclass(frozen=True)
class SegmentResult:
    """The final label field, each class's fitted parameters, the classes
    whose parameters the last refit froze (too few pixels, or a degenerate
    fit), the trace and the number of ICM sweeps run, one per round."""

    labels: np.ndarray
    class_params: tuple
    starved: tuple
    trace: tuple  # (step, phase, energy) rows; phases "params" and "icm"
    sweeps: int


def _as_image(image):
    img = _float_array(image, "image")
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    # the squares and their sum then stay finite in every fit, distance and table
    peak = float(img.max())
    if not (img.min() >= 0.0 and math.isfinite(peak * peak * img.size)):
        raise ValueError("pixel intensities must be >= 0 with a finite sum of squares")
    return img


def _kmeans(distinct, inverse, counts, n_classes, seed):
    """1-D k-means on a flat image given as its np.unique: the distinct
    intensities, the inverse index and the counts; returns the flat labels,
    classes ordered by center value. Runs on the count-weighted distinct
    intensities: assignments are per distinct value (nearest center, ties
    to the lower index) and reach the pixels once, at the end.
    """
    if distinct.size < n_classes:
        raise ValueError(
            f"image has {distinct.size} distinct intensities, "
            f"fewer than {_shown(n_classes)} classes"
        )
    mass = counts * distinct
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.choice(distinct, size=n_classes, replace=False))
    assign = np.abs(np.subtract.outer(distinct, centers)).argmin(axis=1)
    for _ in range(_KMEANS_MAX_ITER):
        sizes = np.bincount(assign, weights=counts, minlength=n_classes)
        sums = np.bincount(assign, weights=mass, minlength=n_classes)
        new_centers = np.divide(sums, sizes, out=centers.copy(), where=sizes > 0)
        if not sizes.all():
            # re-seed empty clusters at the first worst-represented pixel
            worst = np.argmax(np.abs(distinct - centers[assign])[inverse])
            new_centers[sizes == 0] = distinct[inverse[worst]]
        new_assign = np.abs(np.subtract.outer(distinct, new_centers)).argmin(axis=1)
        moved = not np.array_equal(new_centers, centers)
        centers, assign = new_centers, new_assign
        if not moved:
            break
    order = np.argsort(centers, kind="stable")
    rank = np.empty(n_classes, dtype=np.intp)
    rank[order] = np.arange(n_classes)
    return rank[assign][inverse]


def _class_costs(values, likelihood, class_params):
    """Negative log-likelihood of every value under every class, shape (K,) + values.shape."""
    out = np.empty((len(class_params),) + values.shape)
    # a pixel far outside a narrow class costs +inf there: the overflow is the answer
    with np.errstate(over="ignore"):
        for k, p in enumerate(class_params):
            if likelihood is Likelihood.GAUSSIAN:
                out[k] = 0.5 * math.log(2.0 * math.pi * p.var) + (values - p.mu) ** 2 / (
                    2.0 * p.var
                )
            else:
                out[k] = -log_pdf(p, values)
    return out


def _argmin_classes(costs, best, arg, better, marked):
    """Set `arg` to np.argmin over the class axis of the cost arrays that
    `costs` yields in class order, keeping their running minimum in `best`.

    A strictly lower cost wins, so ties, +inf ties included, keep the lower
    class: np.argmin's rule on costs that hold no NaN. Every cost `segment`
    scores is finite or +inf.
    """
    for k, cost in enumerate(costs):
        if k == 0:
            np.copyto(best, cost)
            arg.fill(0)
            continue
        np.less(cost, best, out=better)
        np.minimum(best, cost, out=best)
        # into the given buffers: np.copyto(arg, k, where=better) and fresh
        # np.where temporaries both measured slower per segment image
        np.multiply(better, k, out=marked)
        np.maximum(arg, marked, out=arg)  # arg < k: takes k where better


class _Icm:
    """ICM over a class-cost table, with its class histogram and unlike
    pair count kept current; `segment` runs every stage on one. It sees
    only costs, never a likelihood.

    `_Icm(labels, inverse, n_classes)` takes the starting (H, W) label field
    and the image's np.unique inverse index in the same shape, which maps
    each pixel to its column of every cost table. `energy` and `sweep` take
    the (K, D) table of each class's cost at each of the D distinct
    intensities; no copy of it is kept. The field lives in raster order in
    a (H+2, W+2) frame with a -1 border, where a cell is on the border when
    its label is -1. Beside the field it keeps `counts`, the (K, D)
    histogram of each class's pixels at each distinct intensity, and
    `pairs`, the count of unlike 4-neighbor pairs. `_refit` reads counts,
    and the energy is counts dotted with the table plus beta * pairs. The
    constructor counts both in full; every sweep updates both at the pixels
    it relabels. Every buffer is allocated once and reused by each round:
    fresh (H, W) temporaries cost more in page faults than the arithmetic
    done on them.

    A sweep relabels the pixels with even i + j, then those with odd i + j.
    Pixels of one color are never 4-neighbors, so each half-sweep is an
    exact coordinate-descent step (Besag's coding scheme) and the energy
    never rises. A pixel's neighbor count is the same for every class, so
    its best class is argmin over k of nll_k - beta * (neighbors labeled k),
    ties going to the lower class (`_argmin_classes`).

    `sweep` scores every pixel, one color and class at a time, in
    contiguous memory on a checkerboard-packed copy of the field, each
    color's labels in a -1 frame of their own. Color c, row i, slot q is
    pixel (i, 2q + (i + c) % 2), so a color's rows are ceil(W/2) slots
    long; a slot past the end of a row of odd width lies on the frame and
    is never relabelled. The constructor fills the copy once from the
    raster frame, and every half-sweep writes its relabels to both, so the
    two never differ between half-sweeps. A class's costs are gathered from
    its table row at the color's slots; its int8 neighbor counts are sums
    of shifted slices: up and down are the other color's same slot, left
    and right its slots q - 1 and q or q and q + 1, by the row's parity.
    """

    def __init__(self, labels, inverse, n_classes):
        height, width = labels.shape
        slots = (width + 1) // 2  # per packed row
        inverse = inverse.reshape(-1)
        self.framed = np.full((height + 2, width + 2), -1, dtype=np.intp)
        self.inner = self.framed[1:-1, 1:-1]
        # the frame's cells by flat index; a pixel's 4 neighbors are these steps away
        self.cells = self.framed.reshape(-1)
        self.steps = np.array([-(width + 2), -1, 1, width + 2])
        # the raster index i * W + j of each color's slots, then their frame
        # cells and intensity indices; a slot past the end of a row falls on
        # the row's right border and reads the next pixel's intensity
        color, row, slot = np.ogrid[:2, :height, :slots]
        raster = 2 * slot + (row + color) % 2 + row * width
        self.slot_cells = (raster + 2 * row + width + 3).reshape(2, -1)
        self.slot_levels = np.take(inverse, raster, mode="clip")
        self.inner[...] = labels
        self.packed = np.full((2, height + 2, slots + 2), -1, dtype=np.min_scalar_type(-n_classes))
        self.packed[:, 1:-1, 1:-1] = self.cells[self.slot_cells].reshape(2, height, slots)
        self.same = np.empty(self.packed.shape[1:], dtype=bool)
        flags = self.same.view(np.int8)
        self.up, self.down = flags[:-2, 1:-1], flags[2:, 1:-1]
        # sides[:, s] sums the other color's slots s - 1 and s: a row of one
        # color whose first pixel is in column p has the left and right
        # neighbors of its slot q at the other color's slots q - 1 + p and q + p
        self.flags, self.sides = flags, np.empty((height + 2, slots + 1), dtype=np.int8)
        self.agree = np.empty((height, slots), dtype=np.int8)
        # per color: its rows of parity 0, then 1, and the sums they add
        self.rows = [((self.agree[c::2], self.sides[1 + c:height + 1:2, :-1]),
                      (self.agree[1 - c::2], self.sides[2 - c:height + 1:2, 1:])) for c in (0, 1)]
        self.cost, self.scaled, self.best = (np.empty((height, slots)) for _ in range(3))
        self.better = np.empty((height, slots), dtype=bool)
        self.arg = np.empty((height, slots), dtype=np.intp)
        self.marked = np.empty((height, slots), dtype=np.intp)
        # the running minimum's buffers, in `_argmin_classes` order
        self.work = (self.best, self.arg, self.better, self.marked)
        self.pairs = (np.count_nonzero(labels[1:] != labels[:-1])
                      + np.count_nonzero(labels[:, 1:] != labels[:, :-1]))
        n_distinct = int(inverse.max()) + 1
        self.counts = np.bincount(labels.reshape(-1) * n_distinct + inverse,
                                  minlength=n_classes * n_distinct).reshape(n_classes, n_distinct)

    def energy(self, table, beta):
        """Posterior energy of the current field under the (K, D) class-cost
        table `table`, whose column d is the cost of the image's distinct
        intensity d: counts dotted with the table, plus beta * pairs. Only
        the entries whose class holds a pixel there are summed, so a +inf
        cost of an empty entry adds nothing instead of 0 * inf = NaN."""
        held = self.counts > 0
        return float(self.counts[held] @ table[held]) + beta * self.pairs

    def sweep(self, table, beta):
        """One checkerboard sweep of the current field under the (K, D)
        class-cost table `table`; returns the number of pixels it changed.
        Each half-sweep updates the histogram and the pair count at the
        pixels it relabels."""
        beta = float(beta)  # an int beta would keep beta * agree in int8
        width = self.inner.shape[1]
        changed = 0
        for color in (0, 1):
            _argmin_classes(self._dense_costs(table, color, beta), *self.work)
            inside = self.packed[color, 1:-1, 1:-1]
            np.not_equal(self.arg, inside, out=self.better)
            if width % 2:
                self.better[1 - color::2, -1] = False  # the slots past the end of a row
            np.copyto(inside, self.arg, where=self.better)
            slots = np.flatnonzero(self.better)
            self._relabel(self.slot_cells[color][slots], self.slot_levels[color].reshape(-1)[slots],
                          self.arg.reshape(-1)[slots])
            changed += slots.size
        return changed

    def _dense_costs(self, table, color, beta):
        """Yield each class's (H, ceil(W/2)) cost of color `color`'s slots,
        nll_k - beta * (neighbors labeled k): the class's row of `table`
        gathered at the slots' intensities, less beta times the same-label
        neighbors counted in the other color's packed labels as an int8 sum
        of shifted slices."""
        for k, costs in enumerate(table):
            np.equal(self.packed[1 - color], k, out=self.same)
            np.add(self.up, self.down, out=self.agree)
            np.add(self.flags[:, :-1], self.flags[:, 1:], out=self.sides)
            for rows, sides in self.rows[color]:
                rows += sides
            np.multiply(self.agree, beta, out=self.scaled)
            np.take(costs, self.slot_levels[color], out=self.cost, mode="clip")
            np.subtract(self.cost, self.scaled, out=self.cost)
            yield self.cost

    def _relabel(self, cells, levels, new):
        """Give the frame cells `cells`, all of one color, at distinct
        intensities `levels`, the labels `new` in the frame, and update the
        pair count and the histogram there."""
        old = self.cells[cells]
        around = self.cells[cells + self.steps[:, None]]
        # neighbors keep their labels within a half-sweep; the -1 border cancels
        self.pairs += int(np.count_nonzero(around != new)) - int(np.count_nonzero(around != old))
        np.subtract.at(self.counts, (old, levels), 1)
        np.add.at(self.counts, (new, levels), 1)
        self.cells[cells] = new


def _fit_class(row, columns, likelihood, prev):
    """One class's parameters and whether it is starved, by the class rule
    in the module docstring, from its histogram `row`, the count of its
    pixels at each distinct intensity, `columns`, what the fit reads at each
    distinct intensity (see `segment`), and `prev`, its parameters from the
    last refit (None at the first).

    The Nakagami fit is exact ML on all of the class pixels at once:
    splitting a class into small fixed chunks would inject the solver's
    small-sample bias (~ +3m/L per chunk) into the class shape, which
    over-peaks the density enough to derail the segmentation on shape-only
    contrasts.
    """
    n = int(np.add.reduce(row))
    if n == 0:
        if prev is None:
            raise ValueError("a class has no pixels at initialization")
        return prev, True
    sums = [float(np.add.reduce(row * column)) for column in columns]
    if likelihood is Likelihood.GAUSSIAN:
        mu = sums[0] / n
        dev = columns[0] - mu
        var = float(np.add.reduce(row * (dev * dev))) / max(n - 1, 1)
        if var > 0.0:
            return GaussianParams(mu=mu, var=var), False
        fallback = GaussianParams(mu=mu, var=_VAR_FLOOR)
    else:
        stats = _stats_of_sums(n, *sums)
        if stats.delta > _SEG_DELTA_MIN:
            try:
                est = estimate_ml(stats)
            except NakafitError:
                pass
            else:
                return NakagamiParams(m=est.m_hat, sigma=est.sigma_hat), False
        sigma = stats.mean_x2 / _DEGENERATE_M
        # squares so close to 0 that the spike's spread underflows: the
        # narrowest spike whose spread is positive, with the same mean square
        fallback = (NakagamiParams(m=_DEGENERATE_M, sigma=sigma) if sigma > 0.0
                    else NakagamiParams(m=stats.mean_x2 / _SIGMA_MIN, sigma=_SIGMA_MIN))
    return (fallback if prev is None else prev), True


def _refit(counts, columns, likelihood, class_params):
    """Re-estimate per-class parameters from the (K, D) histogram `counts`,
    whose row k counts class k's pixels at each of the D distinct
    intensities, and `columns` from `segment`; returns the new parameters
    and the starved classes (see `_fit_class`)."""
    params, starved = zip(*(_fit_class(row, columns, likelihood, prev)
                            for row, prev in zip(counts, class_params)))
    return params, tuple(k for k, flag in enumerate(starved) if flag)


def segment(image, n_classes, likelihood, *, beta=1.0, seed=0):
    """Full pipeline: k-means init, then alternate parameter updates and ICM.

    Each outer round refits the class parameters, evaluates their cost
    table and runs one ICM sweep, so labels and parameters co-evolve instead of
    freezing early around the initialization. The loop stops after the
    first round whose sweep changes no pixel, or after _MAX_OUTER rounds:
    the next round would refit the same parameters from the same labels and
    repeat that round exactly.

    For the Nakagami likelihood, images containing zeros are shifted up by
    _ZERO_SHIFT * max intensity to restore positive support. Returns a
    `SegmentResult`: the labels, each class's parameters and the classes
    the last refit starved, the (step, phase, energy) trace, and the
    number of ICM sweeps executed, which is the number of rounds.

    The arguments are checked in this order, each refusal a ValueError
    naming its argument: likelihood (a `Likelihood` member), the image
    (2-D, non-empty, >= 0 with peak^2 * pixel count finite), n_classes (an
    integer >= 2), seed (an integer >= 0), beta (a finite non-negative
    real, not a bool), then beta times the image's 4-neighbor pair count,
    which must be finite. The image is refused after these for the
    Nakagami likelihood when it is all zero or a lifted square is 0, and
    for fewer distinct intensities than n_classes.
    """
    if not isinstance(likelihood, Likelihood):
        raise ValueError(f"likelihood must be a Likelihood member, got {likelihood!r}")
    img = _as_image(image)
    # no upper bound: _kmeans refuses more classes than distinct intensities
    n_classes = _integer(n_classes, "n_classes", 2, math.inf)
    seed = _integer(seed, "seed", 0, math.inf)
    if not _real(beta, 0.0):
        raise ValueError(f"beta must be a finite non-negative real, got {_shown(beta)}")
    # beta * (H(W-1) + (H-1)W pairs) bounds the energy's pair term and ICM's beta * agree
    pairs = 2 * img.size - sum(img.shape)
    if not math.isfinite(float(beta) * pairs):
        raise ValueError(
            f"beta={_shown(beta)} times the image's 4-neighbor pair count is not finite"
        )
    if likelihood is Likelihood.NAKAGAMI and img.min() <= 0.0:
        peak = img.max()
        if peak <= 0.0:
            raise ValueError("cannot use the Nakagami likelihood on an all-zero image")
        # the lift can take peak^2 * pixel count past the float range
        img = _as_image(img + _ZERO_SHIFT * peak)
    # one np.unique serves k-means, the class fits and the ICM's cost gathers:
    # fit inputs and class costs are evaluated once per distinct intensity
    distinct, inverse, counts = np.unique(img.reshape(-1), return_inverse=True, return_counts=True)
    labels = _kmeans(distinct, inverse, counts, n_classes, seed)
    if likelihood is Likelihood.NAKAGAMI and not float(distinct[0]) ** 2 > 0.0:
        raise ValueError("Nakagami likelihood requires pixels whose squares are positive")
    # what a class fit reads at each distinct intensity: the intensity for the
    # Gaussian likelihood, x^2 and ln x^2 for the Nakagami likelihood
    x2 = distinct * distinct
    columns = (distinct,) if likelihood is Likelihood.GAUSSIAN else (x2, np.log(x2))
    icm = _Icm(labels.reshape(img.shape), inverse.reshape(img.shape), n_classes)
    class_params = (None,) * n_classes
    trace = []
    for _ in range(_MAX_OUTER):
        class_params, starved = _refit(icm.counts, columns, likelihood, class_params)
        table = _class_costs(distinct, likelihood, class_params)
        trace.append((len(trace), "params", icm.energy(table, beta)))
        changed = icm.sweep(table, beta)
        trace.append((len(trace), "icm", icm.energy(table, beta)))
        if changed == 0:
            break
    return SegmentResult(
        labels=icm.inner.copy(),
        class_params=class_params,
        starved=starved,
        trace=tuple(trace),
        sweeps=len(trace) // 2,
    )
