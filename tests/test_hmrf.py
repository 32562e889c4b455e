import importlib.util
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakafit import estimators, hmrf, pgm
from nakafit import GaussianParams, Likelihood, NakagamiParams, sample, segment


def gaussian_model(params, beta=1.0):
    """A (likelihood, class params, beta) triple, as the helpers below take."""
    return Likelihood.GAUSSIAN, tuple(params), beta


def two_region_image(seed, m_low=1.0, m_high=8.0, size=64):
    half = size // 2
    left = sample(NakagamiParams.from_omega(m_low, 1.0), size * half, seed=[seed, 0])
    right = sample(NakagamiParams.from_omega(m_high, 1.0), size * half, seed=[seed, 1])
    img = np.hstack([left.reshape(size, half), right.reshape(size, half)])
    truth = np.zeros((size, size), dtype=int)
    truth[:, half:] = 1
    return img, truth


def accuracy(labels, truth):
    a = float(np.mean(labels == truth))
    return max(a, 1.0 - a)


def histogram_energy(table, labels, inverse, beta):
    """Posterior energy of `labels` from the (K, D) cost table `table`: the
    (K, D) histogram of each class's pixels at each column, counted from the
    whole field through the index `inverse`, dotted with the table where it
    is non-zero, plus beta times the unlike 4-neighbor pairs."""
    n_distinct = table.shape[1]
    counts = np.bincount(labels.reshape(-1) * n_distinct + inverse.reshape(-1),
                         minlength=table.size).reshape(table.shape)
    held = counts > 0
    pairs = np.count_nonzero(labels[:, 1:] != labels[:, :-1]) + np.count_nonzero(
        labels[1:, :] != labels[:-1, :]
    )
    return float(counts[held] @ table[held]) + beta * pairs


def icm_sweeps(costs, labels, beta, n):
    """`n` of `hmrf._Icm`'s sweeps from `labels` over the (K, H, W) cost table
    `costs`, given to it as a (K, H * W) table through the identity index."""
    n_classes = costs.shape[0]
    icm = hmrf._Icm(labels, np.arange(labels.size).reshape(labels.shape), n_classes)
    for _ in range(n):
        changed = icm.sweep(costs.reshape(n_classes, -1), beta)
        yield icm.inner.copy(), changed


def scored_icm(img, labels, likelihood, params):
    """An `hmrf._Icm` holding `labels` on `img`, and the table `segment`
    hands it: the class costs at the distinct intensities of `img`."""
    distinct, inverse = np.unique(img.reshape(-1), return_inverse=True)
    icm = hmrf._Icm(labels, inverse.reshape(img.shape), len(params))
    return icm, hmrf._class_costs(distinct, likelihood, params)


def total_energy(img, labels, model):
    """Posterior energy of the label field `labels` on `img` under the
    (likelihood, params, beta) triple `model`."""
    likelihood, params, beta = model
    icm, table = scored_icm(img, labels, likelihood, params)
    return icm.energy(table, beta)


def icm_sweep(img, labels, model):
    """One checkerboard sweep from `labels` under the (likelihood, params,
    beta) triple `model`: (new label field, pixels changed)."""
    likelihood, params, beta = model
    icm, table = scored_icm(img, labels, likelihood, params)
    changed = icm.sweep(table, beta)
    return icm.inner.copy(), changed


def kmeans_init(img, n_classes, seed):
    """`hmrf._kmeans` on the 2-D image `img`; labels in the image's shape."""
    unique = np.unique(img.reshape(-1), return_inverse=True, return_counts=True)
    return hmrf._kmeans(*unique, n_classes, seed).reshape(img.shape)


def update_params(img, labels, likelihood, params):
    """`hmrf._refit` of `params` from the label field `labels` on `img`, with
    the fit inputs `segment` computes: (new params, starved classes)."""
    distinct, inverse = np.unique(img.reshape(-1), return_inverse=True)
    counts = np.bincount(labels.reshape(-1) * distinct.size + inverse,
                         minlength=len(params) * distinct.size)
    x2 = distinct * distinct
    columns = (distinct,) if likelihood is Likelihood.GAUSSIAN else (x2, np.log(x2))
    return hmrf._refit(counts.reshape(len(params), -1), columns, likelihood, params)


# --- k-means -----------------------------------------------------------------


def test_kmeans_separated_clusters():
    img = np.array([[0.0, 0.0], [10.0, 10.0]])
    labels = kmeans_init(img, 2, seed=0)
    assert np.array_equal(labels, np.array([[0, 0], [1, 1]]))


def test_kmeans_rejects_constant_image():
    for likelihood in Likelihood:
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            segment(np.ones((4, 4)), 2, likelihood, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    img = rng.uniform(0.0, 1.0, (16, 16))
    a = kmeans_init(img, 3, seed=9)
    b = kmeans_init(img, 3, seed=9)
    assert np.array_equal(a, b)


def test_kmeans_labels_ordered_by_center():
    rng = np.random.default_rng(4)
    img = np.concatenate([rng.normal(1.0, 0.05, 50), rng.normal(5.0, 0.05, 50)])
    labels = kmeans_init(np.abs(img).reshape(10, 10), 2, seed=1).ravel()
    assert labels[:50].mean() < 0.2  # low-intensity cluster is class 0
    assert labels[50:].mean() > 0.8


def kmeans_reference(img, n_classes, seed):
    """Per-pixel k-means: every pixel measured against every center.

    Returns the labels and the number of empty-cluster re-seeds."""
    vals = img.ravel()
    distinct = np.unique(vals)
    rng = np.random.default_rng(seed)
    centers = np.sort(rng.choice(distinct, size=n_classes, replace=False))
    assign = np.argmin(np.abs(vals[:, None] - centers[None, :]), axis=1)
    reseeds = 0
    for _ in range(hmrf._KMEANS_MAX_ITER):
        new_centers = centers.copy()
        for j in range(n_classes):
            members = vals[assign == j]
            if members.size:
                new_centers[j] = members.mean()
            else:
                reseeds += 1
                new_centers[j] = vals[np.argmax(np.abs(vals - centers[assign]))]
        new_assign = np.argmin(np.abs(vals[:, None] - new_centers[None, :]), axis=1)
        moved = not np.array_equal(new_centers, centers)
        centers, assign = new_centers, new_assign
        if not moved:
            break
    order = np.argsort(centers, kind="stable")
    rank = np.empty(n_classes, dtype=np.intp)
    rank[order] = np.arange(n_classes)
    return rank[assign].reshape(img.shape), reseeds


@pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 7, 123, 256])
def test_kmeans_matches_per_pixel_reference(n_classes, seed):
    # 8-bit intensities with zeros lifted as `segment` lifts them for the
    # Nakagami likelihood: few distinct values, many pixels each. Seed 256
    # is an unlifted image holding every one of the 256 levels: its class
    # sums are integers, exact in any summation order, so count-weighted
    # and per-pixel centers are the same floats even at a midpoint tie.
    rng = np.random.default_rng([seed, n_classes])
    if seed == 256:
        img = rng.permutation(np.arange(40 * 37) % 256).reshape(40, 37).astype(float)
    else:
        img = np.rint(85.0 * np.sqrt(rng.gamma(1.0 + 3 * (seed % 2), 0.5, (40, 37))))
        img = np.clip(img, 0.0, 255.0)
        img[rng.random(img.shape) < 0.05] = 0.0
        img = img + hmrf._ZERO_SHIFT * img.max()
    want, _ = kmeans_reference(img, n_classes, seed)
    assert np.array_equal(kmeans_init(img, n_classes, seed), want)


def test_kmeans_empty_cluster_reseed_matches_reference():
    img = np.repeat([41.0, 109.0, 125.0, 167.0, 171.0, 211.0], [3, 10, 5, 5, 8, 5]).reshape(4, 9)
    want, reseeds = kmeans_reference(img, 4, seed=2)
    assert reseeds > 0
    assert np.array_equal(kmeans_init(img, 4, seed=2), want)


@pytest.mark.parametrize("descending", [True, False])
def test_kmeans_reseed_tie_goes_to_first_pixel_in_raster_order(descending):
    # a cluster empties while 19 and 81 are equally far from their centers:
    # the re-seed takes whichever comes first in raster order
    img = np.repeat([19.0, 39.0, 40.0, 60.0, 61.0, 81.0], [1, 3, 1, 1, 3, 1])
    img = (img[::-1] if descending else img).reshape(2, 5)
    want, reseeds = kmeans_reference(img, 3, seed=8)
    assert reseeds > 0
    assert np.array_equal(kmeans_init(img, 3, seed=8), want)


# --- pair potential and energy ----------------------------------------------


def test_total_energy_uniform_image():
    # two identical unit-variance classes at mu=1: each pixel contributes
    # 0.5 log(2 pi), no disagreeing pair
    img = np.array([[1.0, 1.0]])
    model = gaussian_model([GaussianParams(1.0, 1.0)] * 2, beta=1.0)
    u = total_energy(img, np.array([[0, 0]]), model)
    assert u == pytest.approx(math.log(2.0 * math.pi), rel=1e-12)
    # one disagreeing pair adds exactly beta
    u2 = total_energy(img, np.array([[0, 1]]), model)
    assert u2 - u == pytest.approx(1.0, rel=1e-12)


def test_total_energy_counts_each_pair_once():
    rng = np.random.default_rng(0)
    img = np.full((6, 5), 2.0)
    model = gaussian_model([GaussianParams(2.0, 1.0)] * 2, beta=0.7)
    constant = np.zeros((6, 5), dtype=int)
    checker = np.indices((6, 5)).sum(axis=0) % 2
    n_pairs = 6 * 4 + 5 * 5  # horizontal + vertical neighbor pairs
    diff = total_energy(img, checker, model) - total_energy(img, constant, model)
    assert diff == pytest.approx(0.7 * n_pairs, rel=1e-12)


@pytest.mark.parametrize("quantized", [False, True], ids=["float", "8bit"])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_total_energy_equals_a_bincount_histogram_energy(likelihood, quantized):
    # the 8-bit image repeats each intensity at many pixels, whose costs are
    # evaluated once; the reference counts the histogram with np.bincount
    # through np.unique's inverse index and dots it with the same table
    rng = np.random.default_rng(31)
    img = rng.gamma(2.0, 1.0, (61, 43)) + 0.01
    if quantized:
        img = np.clip(np.rint(40.0 * img), 1.0, 255.0) / 40.0
    if likelihood is Likelihood.GAUSSIAN:
        params = [GaussianParams(1.0, 0.5), GaussianParams(2.0, 1.5), GaussianParams(4.0, 3.0)]
    else:
        params = [NakagamiParams(0.8, 1.0), NakagamiParams(2.0, 4.0), NakagamiParams(9.0, 16.0)]
    model = (likelihood, tuple(params), 0.3)
    labels = rng.integers(0, 3, img.shape)
    distinct, inverse = np.unique(img.reshape(-1), return_inverse=True)
    table = hmrf._class_costs(distinct, likelihood, tuple(params))
    assert total_energy(img, labels, model) == histogram_energy(table, labels, inverse, 0.3)


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_energy_leaves_out_inf_costs_where_a_class_holds_no_pixel(likelihood, n_classes, tmp_path):
    # the golden fixture's inf_costs image: classes fitted to the pixels near
    # 1e-160 are so narrow that the pixels near 300 cost +inf under them.
    # Those entries of the table meet a histogram count of 0, and 0 * inf is
    # NaN, with a warning, unless the energy leaves them out.
    spec = importlib.util.spec_from_file_location(
        "cli_outputs", pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "inf_costs.txt"
    path.write_bytes(tool.LITERAL["inputs/inf_costs.txt"])
    img = pgm.read_image(str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = segment(img, n_classes, likelihood, seed=1)
    distinct, inverse = np.unique(img.reshape(-1), return_inverse=True)  # no zero: no lift
    table = hmrf._class_costs(distinct, likelihood, result.class_params)
    counts = np.bincount(result.labels.reshape(-1) * distinct.size + inverse,
                         minlength=table.size).reshape(table.shape)
    assert np.count_nonzero(np.isposinf(table) & (counts == 0)) >= 1
    assert all(math.isfinite(energy) for _, _, energy in result.trace)


# --- ICM ----------------------------------------------------------------------


def test_icm_fixed_point():
    img = np.array([[1.0, 1.0], [5.0, 5.0]])
    model = gaussian_model([GaussianParams(1.0, 0.1), GaussianParams(5.0, 0.1)])
    labels = np.array([[0, 0], [1, 1]])
    out, changed = icm_sweep(img, labels, model)
    assert changed == 0
    assert np.array_equal(out, labels)


def test_icm_flips_salt_noise_pixel():
    # equal class likelihoods everywhere: only the prior acts, so the lone
    # dissenting pixel joins its neighborhood
    img = np.full((5, 5), 1.0)
    model = gaussian_model([GaussianParams(1.0, 1.0)] * 2)
    labels = np.zeros((5, 5), dtype=int)
    labels[2, 2] = 1
    out, changed = icm_sweep(img, labels, model)
    assert changed == 1
    assert np.all(out == 0)


def test_icm_never_increases_energy():
    rng = np.random.default_rng(42)
    for case in range(100):
        img = np.abs(rng.normal(2.0, 1.0, (8, 8))) + 0.1
        k = int(rng.integers(2, 4))
        params = [
            GaussianParams(float(rng.uniform(0.5, 3.5)), float(rng.uniform(0.2, 2.0)))
            for _ in range(k)
        ]
        model = gaussian_model(params, beta=float(rng.uniform(0.0, 2.0)))
        labels = rng.integers(0, k, (8, 8))
        before = total_energy(img, labels, model)
        out, _ = icm_sweep(img, labels, model)
        after = total_energy(img, out, model)
        assert after <= before + 1e-9


def test_icm_label_permutation_equivariance():
    rng = np.random.default_rng(7)
    img = np.abs(rng.normal(2.0, 1.0, (10, 10))) + 0.1
    params = [GaussianParams(1.0, 0.5), GaussianParams(2.5, 0.8), GaussianParams(4.0, 0.3)]
    labels = rng.integers(0, 3, (10, 10))
    perm = np.array([2, 0, 1])
    model = gaussian_model(params)
    permuted_model = gaussian_model([params[i] for i in np.argsort(perm)])
    out, changed = icm_sweep(img, labels, model)
    out_p, changed_p = icm_sweep(img, perm[labels], permuted_model)
    assert changed == changed_p
    assert np.array_equal(perm[out], out_p)
    assert total_energy(img, out, model) == pytest.approx(
        total_energy(img, out_p, permuted_model), rel=1e-12
    )


def checkerboard_reference(nll, labels, beta):
    """Scalar ICM sweep over the (K, H, W) table `nll`: pixels with even
    i + j first, then odd; each pixel takes the lowest-index class
    minimizing nll + beta * disagreeing neighbors."""
    n_classes, height, width = nll.shape
    lab = labels.tolist()
    changed = 0
    for parity in (0, 1):
        for i in range(height):
            for j in range(width):
                if (i + j) % 2 != parity:
                    continue
                neigh = [
                    lab[a][b]
                    for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                    if 0 <= a < height and 0 <= b < width
                ]
                costs = [
                    float(nll[k, i, j]) + beta * sum(n != k for n in neigh)
                    for k in range(n_classes)
                ]
                best = costs.index(min(costs))
                if best != lab[i][j]:
                    lab[i][j] = best
                    changed += 1
    return np.array(lab), changed


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (7, 1), (2, 2), (5, 6), (9, 4)], ids=lambda s: "%dx%d" % s
)
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
def test_icm_sweep_matches_scalar_checkerboard_reference(shape, n_classes, beta):
    # multiples of 0.5 make every cost exact, so ties are real ties and the
    # lowest-index rule is what decides them
    rng = np.random.default_rng([shape[0], shape[1], n_classes, int(2 * beta)])
    for _ in range(10):
        nll = 0.5 * rng.integers(0, 6, (n_classes,) + shape)
        labels = rng.integers(0, n_classes, shape)
        before = labels.copy()
        out, changed = next(icm_sweeps(nll, labels, beta, 1))
        want, want_changed = checkerboard_reference(nll, labels, beta)
        assert np.array_equal(out, want)
        assert changed == want_changed
        assert np.array_equal(labels, before)


def argmin_sweep_reference(nll, labels, beta):
    """One checkerboard sweep over the (K, H, W) table `nll` as one-hot
    neighbor counts and np.argmin over the class axis of nll - beta * agree,
    per half-sweep."""
    classes = np.arange(nll.shape[0])[:, None, None]
    odd = np.indices(labels.shape).sum(axis=0) % 2 == 1
    lab = labels
    for color in (~odd, odd):
        onehot = lab == classes
        agree = np.zeros(nll.shape)
        agree[:, 1:] += onehot[:, :-1]
        agree[:, :-1] += onehot[:, 1:]
        agree[:, :, 1:] += onehot[:, :, :-1]
        agree[:, :, :-1] += onehot[:, :, 1:]
        lab = np.where(color, np.argmin(nll - beta * agree, axis=0), lab)
    return lab, int(np.count_nonzero(lab != labels))


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 7), (7, 1), (33, 17), (37, 23), (2, 3), (3, 2), (6, 5), (5, 8), (16, 16)],
    ids=lambda s: "%dx%d" % s,
)
@pytest.mark.parametrize("n_classes", [2, 3, 5])
@pytest.mark.parametrize("table", ["finite", "nonfinite"])
def test_icm_kernel_matches_argmin_reference(shape, n_classes, table):
    # random float costs leave ties to chance; the non-finite tables mix in
    # +-inf, whose ties keep the lower class, and on the finite tables beta =
    # 1e308 makes beta * agree overflow, so costs reach -inf. No input makes a
    # cost NaN (+inf beside an overflowing beta * agree): `segment` scores
    # none (`test_segment_class_costs_are_never_nan`).
    rng = np.random.default_rng([shape[0], shape[1], n_classes, table == "finite"])
    for beta in (0.0, 0.7, 3.0, 1e308) if table == "finite" else (0.0, 0.7, 3.0):
        nll = rng.normal(0.0, 2.0, (n_classes,) + shape)
        if table == "nonfinite":
            pick = rng.random(nll.shape)
            nll[pick < 0.15] = np.inf
            nll[(pick >= 0.15) & (pick < 0.25)] = -np.inf
        labels = rng.integers(0, n_classes, shape)
        before = labels.copy()
        want = labels
        with np.errstate(over="ignore"):  # both formulas warn alike
            for got, changed in icm_sweeps(nll, labels, beta, 6):
                want, want_changed = argmin_sweep_reference(nll, want, beta)
                assert np.array_equal(got, want)
                assert changed == want_changed
        assert np.array_equal(labels, before)


@pytest.mark.parametrize("width", [7, 8], ids=["odd_width", "even_width"])
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_icm_histogram_equals_a_bincount_after_every_sweep(likelihood, n_classes, width):
    # the sweeps update the (K, D) histogram that `_refit` reads at the
    # pixels they relabel; a bincount of the whole field is the reference.
    # Few levels on many pixels, so each column of the histogram counts many.
    rng = np.random.default_rng([n_classes, width])
    img = np.rint(8.0 * np.sqrt(rng.gamma(2.0, 0.5, (11, width)))) + 1.0
    distinct, inverse = np.unique(img.reshape(-1), return_inverse=True)
    labels = rng.integers(0, n_classes, img.shape)
    params, _ = update_params(img, labels, likelihood, (None,) * n_classes)
    icm, table = scored_icm(img, labels, likelihood, params)

    def bincount():
        keys = icm.inner.reshape(-1) * distinct.size + inverse
        return np.bincount(keys, minlength=n_classes * distinct.size).reshape(n_classes, -1)

    assert np.array_equal(icm.counts, bincount())
    moved = 0
    for _ in range(6):
        changed = icm.sweep(table, 1.0)
        assert np.array_equal(icm.counts, bincount())
        moved += changed
    assert moved > 0


@pytest.mark.parametrize("shape", [(9, 7), (7, 8), (1, 9)], ids=["9x7", "7x8", "1x9"])
def test_icm_rounds_on_one_icm_equal_a_fresh_icm_per_round(shape):
    # `segment` runs every round on one `_Icm`, with a new table each round;
    # each round's sweeps must equal those of an `_Icm` built from the labels
    # the round starts from, and every energy that of a histogram counted
    # from the whole field
    rng = np.random.default_rng(list(shape))
    labels = rng.integers(0, 3, shape)
    tables = [rng.uniform(0.0, 2.0, (3, *shape)) for _ in range(3)]
    inverse = np.arange(labels.size)
    icm = hmrf._Icm(labels, inverse.reshape(shape), 3)
    moved = 0
    for costs in tables:
        table = costs.reshape(3, -1)
        assert icm.energy(table, 0.7) == histogram_energy(table, labels, inverse, 0.7)
        for want, want_changed in icm_sweeps(costs, labels, 0.7, 3):
            changed = icm.sweep(table, 0.7)
            assert np.array_equal(icm.inner, want)
            assert changed == want_changed
            assert icm.energy(table, 0.7) == histogram_energy(table, want, inverse, 0.7)
            moved += changed
        labels = want
    assert moved > 0


# --- parameter updates ---------------------------------------------------------


def test_update_params_gaussian_sample_moments():
    img = np.array([[1.0, 1.0, 7.0], [3.0, 3.0, 9.0]])
    labels = np.array([[0, 0, 1], [0, 0, 1]])
    params, starved = update_params(img, labels, Likelihood.GAUSSIAN, (None, None))
    p = params[0]
    assert p.mu == pytest.approx(2.0, rel=1e-14)
    assert p.var == pytest.approx(4.0 / 3.0, rel=1e-14)  # n-1 divisor
    assert starved == ()


def test_update_params_freezes_starved_class():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    labels = np.zeros((2, 2), dtype=int)
    prev = (GaussianParams(1.0, 1.0), GaussianParams(9.0, 2.0))
    params, starved = update_params(img, labels, Likelihood.GAUSSIAN, prev)
    assert params[1] == GaussianParams(9.0, 2.0)
    assert starved == (1,)


def test_update_params_nakagami_recovers_shape():
    px = sample(NakagamiParams.from_omega(4.0, 1.0), 500, seed=88)
    img = px.reshape(20, 25)
    labels = np.zeros((20, 25), dtype=int)
    labels[:, -1] = 1  # give class 1 a sliver so both classes exist
    params, _ = update_params(img, labels, Likelihood.NAKAGAMI, (None, None))
    assert params[0].m == pytest.approx(4.0, rel=0.25)


def test_update_params_nakagami_constant_class_is_starved():
    img = np.full((4, 8), 2.5)
    img[:, 4:] = np.abs(np.random.default_rng(1).normal(5.0, 1.0, (4, 4))) + 0.5
    labels = np.zeros((4, 8), dtype=int)
    labels[:, 4:] = 1
    params, starved = update_params(img, labels, Likelihood.NAKAGAMI, (None, None))
    assert 0 in starved
    # bootstrap: concentrated spike with omega = mean of x^2
    p = params[0]
    assert p.m * p.sigma == pytest.approx(2.5**2, rel=1e-12)


def refit_rows(likelihood, values, row, prev):
    """`hmrf._refit` of two classes given as histogram rows: class 0 has
    `row[d]` pixels at the intensity `values[d]`, class 1 one pixel each at
    3 and 5, which always fit. Returns (new params, starved classes)."""
    distinct = np.array([*values, 3.0, 5.0])
    counts = np.array([[*row, 0, 0], [0] * len(values) + [1, 1]])
    x2 = distinct * distinct
    columns = (distinct,) if likelihood is Likelihood.GAUSSIAN else (x2, np.log(x2))
    return hmrf._refit(counts, columns, likelihood, prev)


def ml_fit(values):
    """The exact-ML parameters of the block `values`."""
    est = estimators.estimate_ml(estimators.compute_stats(np.array(values)))
    return NakagamiParams(m=est.m_hat, sigma=est.sigma_hat)


def spike(values):
    """The fallback spike at m = 1e4 with the mean square of `values`."""
    mean_x2 = sum(v * v for v in values) / len(values)
    return NakagamiParams(m=hmrf._DEGENERATE_M, sigma=mean_x2 / hmrf._DEGENERATE_M)


TINY = 2.0**-528  # its square, 2^-1056, is subnormal

# (likelihood, class 0's distinct intensities, its histogram row, its
# parameters at the first refit or None where that refuses, whether starved)
FIT_BRANCHES = {
    "gaussian-empty": (Likelihood.GAUSSIAN, [1.0, 2.0, 4.0], [0, 0, 0], None, True),
    "gaussian-one-pixel":
        (Likelihood.GAUSSIAN, [1.0, 2.0, 4.0], [0, 1, 0], GaussianParams(2.0, 1e-12), True),
    "gaussian-zero-variance":
        (Likelihood.GAUSSIAN, [1.0, 2.0, 4.0], [0, 3, 0], GaussianParams(2.0, 1e-12), True),
    "gaussian-fit":
        (Likelihood.GAUSSIAN, [1.0, 2.0, 4.0], [1, 1, 0], GaussianParams(1.5, 0.5), False),
    "nakagami-empty": (Likelihood.NAKAGAMI, [1.0, 2.0, 4.0], [0, 0, 0], None, True),
    "nakagami-one-pixel":
        (Likelihood.NAKAGAMI, [1.0, 2.0, 4.0], [0, 1, 0], spike([2.0]), True),
    "nakagami-constant":
        (Likelihood.NAKAGAMI, [1.0, 2.0, 4.0], [0, 3, 0], spike([2.0] * 3), True),
    # delta = 4.66e-10: above the solver's 1e-12, at or below _SEG_DELTA_MIN
    "nakagami-flat": (Likelihood.NAKAGAMI, [1.0, 1.0 + 2.0**-15], [1, 1],
                      spike([1.0, 1.0 + 2.0**-15]), True),
    # delta = 1.2e-7 gives m_hat = 4.2e6, and mean(x^2) / m_hat underflows:
    # estimate_ml raises OutOfRangeError, while the spike's spread is positive
    "nakagami-ml-fails": (Likelihood.NAKAGAMI, [TINY, TINY * (1.0 + 2.0**-11)], [1, 1],
                          spike([TINY, TINY * (1.0 + 2.0**-11)]), True),
    "nakagami-fit":
        (Likelihood.NAKAGAMI, [1.0, 2.0, 4.0], [1, 1, 1], ml_fit([1.0, 2.0, 4.0]), False),
    # mean(x^2) / 1e4 underflows: the spike keeps the mean square at spread 2^-1074
    "nakagami-sigma-min-spike": (Likelihood.NAKAGAMI, [1.5e-161], [2],
                                 NakagamiParams(m=1.5e-161**2 / 2.0**-1074, sigma=2.0**-1074),
                                 True),
}

PREV = {
    Likelihood.GAUSSIAN: (GaussianParams(7.0, 3.0), GaussianParams(4.0, 1.0)),
    Likelihood.NAKAGAMI: (NakagamiParams(2.0, 0.5), NakagamiParams(3.0, 1.0)),
}


@pytest.mark.parametrize("has_prev", [False, True], ids=["first-refit", "with-prev"])
@pytest.mark.parametrize("branch", FIT_BRANCHES)
def test_refit_fits_keeps_or_falls_back_by_the_class_rule(branch, has_prev):
    likelihood, values, row, fresh, starved = FIT_BRANCHES[branch]
    prev = PREV[likelihood] if has_prev else (None, None)
    if fresh is None and not has_prev:
        with pytest.raises(ValueError, match="^a class has no pixels at initialization$"):
            refit_rows(likelihood, values, row, prev)
        return
    params, got_starved = refit_rows(likelihood, values, row, prev)
    assert params[0] == (prev[0] if starved and has_prev else fresh)
    assert got_starved == ((0,) if starved else ())


def refit_reference(img, labels, likelihood):
    """Per-pixel class fits: each class's intensities, or their x^2 and
    ln x^2, gathered in raster order and summed with np.add.reduce."""
    params = []
    for k in range(labels.max() + 1):
        px = img.reshape(-1).take(np.flatnonzero(labels == k))
        if likelihood is Likelihood.GAUSSIAN:
            params.append(GaussianParams(mu=float(px.mean()), var=float(px.var(ddof=1))))
            continue
        x2 = px * px
        stats = estimators._stats_of_sums(
            px.size, float(np.add.reduce(x2)), float(np.add.reduce(np.log(x2)))
        )
        est = estimators.estimate_ml(stats)
        params.append(NakagamiParams(m=est.m_hat, sigma=est.sigma_hat))
    return tuple(params)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_classes", [2, 3, 4])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
@pytest.mark.parametrize("pixels", ["8bit", "float"])
def test_refit_matches_per_pixel_reference(pixels, likelihood, n_classes, seed):
    # 8-bit images repeat each intensity many times; float images hold
    # almost every value once, so their class sums run over as many terms.
    # A count times a value rounds differently from that many additions, so
    # only sums of integers are equal in both orders: on 8-bit images the
    # Gaussian mean is exact, while var, m and sigma can move in the last
    # bits (up to 2e-14 relative in these cells).
    rng = np.random.default_rng([seed, n_classes])
    img = np.sqrt(rng.gamma(1.0 + seed, 1.0 / (1.0 + seed), (40, 37)))
    if pixels == "8bit":
        img = np.clip(np.rint(85.0 * img), 1.0, 255.0)
    labels = rng.integers(0, n_classes, img.shape)
    params, starved = update_params(img, labels, likelihood, (None,) * n_classes)
    want = refit_reference(img, labels, likelihood)
    assert starved == ()
    for got, ref in zip(params, want):
        for a, b in zip(vars(got).values(), vars(ref).values()):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)
        if pixels == "8bit" and likelihood is Likelihood.GAUSSIAN:
            assert got.mu == ref.mu


# --- end-to-end -----------------------------------------------------------------


@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_noiseless_two_level_image(likelihood):
    img = np.full((8, 8), 1.0)
    img[:, 4:] = 6.0
    truth = (img > 3.0).astype(int)
    result = segment(img, 2, likelihood, seed=0)
    assert accuracy(result.labels, truth) == 1.0


def test_segment_two_region_nakagami_beats_gaussian():
    img, truth = two_region_image(seed=0)
    rn = segment(img, 2, Likelihood.NAKAGAMI, seed=0)
    rg = segment(img, 2, Likelihood.GAUSSIAN, seed=0)
    acc_n = accuracy(rn.labels, truth)
    acc_g = accuracy(rg.labels, truth)
    assert acc_n >= 0.90
    assert acc_n >= acc_g


def test_segment_energy_trace_non_increasing_within_icm():
    img, _ = two_region_image(seed=2)
    result = segment(img, 2, Likelihood.NAKAGAMI, seed=2)
    prev = None
    for _, phase, energy in result.trace:
        if phase == "icm" and prev is not None:
            assert energy <= prev + 1e-9
        prev = energy if phase == "icm" else None


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_stops_at_the_first_round_that_relabels_nothing(likelihood, n_classes, beta):
    img, _ = two_region_image(seed=4, size=32)
    result = segment(img, n_classes, likelihood, beta=beta, seed=4)
    _, changed = icm_sweep(img, result.labels, (likelihood, result.class_params, beta))
    assert changed == 0
    # a repeated final round would refit the same parameters and redo the same sweep
    rows = [row[1:] for row in result.trace]
    assert rows[-2:] != rows[-4:-2]


@pytest.mark.parametrize("shape, flat_band", [((24, 24), False), ((23, 17), False),
                                              ((24, 24), True)],
                         ids=["24x24", "23x17", "24x24_flat_band"])
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_trace_energies_equal_a_bincount_histogram_energy(
    likelihood, n_classes, shape, flat_band
):
    # segment keeps the histogram and pair count up to date at the
    # relabelled pixels only; a replay of its rounds sweeps on per-pixel
    # costs and recomputes every energy from a histogram of the whole field
    rng = np.random.default_rng([*shape, n_classes])
    height, width = shape
    x = np.hstack([np.sqrt(rng.gamma(1.0, 1.0, (height, width // 2))),
                   np.sqrt(rng.gamma(8.0, 1.0 / 8.0, (height, width - width // 2)))])
    img = np.clip(np.rint(85.0 * x), 1.0, 255.0)
    if flat_band:
        img[:, :5] = 1000.0  # a constant class: starved, so bootstrapped, then kept
    result = segment(img, n_classes, likelihood, beta=1.0, seed=5)
    distinct, inverse = np.unique(img.reshape(-1), return_inverse=True)
    labels = kmeans_init(img, n_classes, 5)
    params = (None,) * n_classes
    want = []
    starved = set()
    for _ in range(hmrf._MAX_OUTER):
        params, round_starved = update_params(img, labels, likelihood, params)
        starved.update(round_starved)
        costs = hmrf._class_costs(img, likelihood, params)
        table = hmrf._class_costs(distinct, likelihood, params)
        want.append(histogram_energy(table, labels, inverse, 1.0))
        [(labels, changed)] = icm_sweeps(costs, labels, 1.0, 1)
        want.append(histogram_energy(table, labels, inverse, 1.0))
        if changed == 0:
            break
    assert [energy for _, _, energy in result.trace] == want
    assert np.array_equal(result.labels, labels)
    assert result.class_params == params
    assert result.starved == round_starved
    if flat_band:
        assert starved == {n_classes - 1}


def test_segment_beta_zero_is_pixelwise_ml():
    img, _ = two_region_image(seed=5, size=16)
    result = segment(img, 2, Likelihood.NAKAGAMI, beta=0.0, seed=5)
    costs = hmrf._class_costs(img, Likelihood.NAKAGAMI, result.class_params)
    assert np.array_equal(result.labels, np.argmin(costs, axis=0))


@pytest.mark.parametrize("n_classes", [-1, 0, 1])
@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_rejects_fewer_than_two_classes(likelihood, n_classes):
    with pytest.raises(ValueError, match="n_classes must be >= 2"):
        segment(np.arange(1.0, 17.0).reshape(4, 4), n_classes, likelihood, seed=0)


@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_rejects_beta_that_overflows_the_pair_term(likelihood):
    # a 4x4 image has 24 neighbor pairs: 24 * 7e306 is finite, 24 * 1e307 is not
    img = np.arange(1.0, 17.0).reshape(4, 4)
    for beta in (1e307, 1e308):
        with pytest.raises(ValueError, match="beta"):
            segment(img, 2, likelihood, beta=beta, seed=0)
    result = segment(img, 2, likelihood, beta=7e306, seed=0)
    assert all(math.isfinite(energy) for _, _, energy in result.trace)


NARROW_LOW_CLASS = [[1e-160, 2e-160], [300.0, 300.0]]


@pytest.mark.parametrize(
    "img, likelihood, n_classes, beta",
    [
        # a narrow class far from the other pixels: their costs there overflow to +inf
        (NARROW_LOW_CLASS, Likelihood.GAUSSIAN, 2, 1.0),
        (NARROW_LOW_CLASS, Likelihood.NAKAGAMI, 2, 1.0),
        ([[1.0, 1.0000000000000002], [1e140, 1e140]], Likelihood.GAUSSIAN, 2, 1.0),
        # a class variance grows ~1e400-fold between two rounds
        ([[7.753049982879734e99, 0.0, 3.195664094758842e-301, 8.598029806695014e-11]],
         Likelihood.GAUSSIAN, 3, 1e300),
    ],
)
def test_segment_saturates_overflowing_costs_without_warnings(img, likelihood, n_classes, beta):
    result = segment(np.array(img), n_classes, likelihood, beta=beta, seed=0)
    assert all(math.isfinite(energy) for _, _, energy in result.trace)


@st.composite
def images_at_the_float_limit(draw):
    """A small image whose peak^2 * pixel count is near the largest float,
    its other pixels 0 or a random mantissa at one of a few binary exponents
    down to the subnormal range; and a beta up to twice the pair-count
    limit, which `segment` refuses past the limit."""
    height, width = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    size = height * width
    peak = math.sqrt(sys.float_info.max / size) * draw(st.floats(0.5, 0.999))
    levels = draw(st.lists(st.integers(-1074, math.frexp(peak)[1]), min_size=1, max_size=3))
    pixel = st.just(0.0) | st.builds(math.ldexp, st.floats(0.5, 1.0), st.sampled_from(levels))
    values = draw(st.lists(pixel, min_size=size, max_size=size))
    img = np.array([min(value, peak) for value in values])
    img[draw(st.integers(0, size - 1))] = peak
    pairs = 2 * size - height - width
    beta = draw(st.just(0.0) | st.floats(0.0, 10.0)
                | st.floats(0.0, 2.0).map(lambda f: f * (sys.float_info.max / pairs)))
    return img.reshape(height, width), beta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(image_beta=images_at_the_float_limit(),
       likelihood=st.sampled_from(list(Likelihood)), n_classes=st.sampled_from([2, 3]))
def test_segment_class_costs_are_never_nan(image_beta, likelihood, n_classes):
    # `_argmin_classes` takes a strictly lower cost and keeps the lower class
    # on a tie, which is np.argmin's rule only while no cost is NaN: every
    # cost `segment` scores must be a number or +inf, at the float limits too
    img, beta = image_beta
    argmin = hmrf._argmin_classes

    def checked(costs, *args):
        def each():
            for cost in costs:
                assert not np.isnan(cost).any()
                yield cost
        return argmin(each(), *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hmrf, "_argmin_classes", checked)
        try:
            segment(img, n_classes, likelihood, beta=beta, seed=0)
        except ValueError:  # beta past the limit, squares that underflow, too few intensities
            pass


@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_rejects_squares_beyond_the_float_range(likelihood):
    # 1e154^2 * 4 pixels overflows; 1e-170^2 underflows to 0 under ln x^2
    with pytest.raises(ValueError, match="sum of squares"):
        segment(np.array([[1.0, 1e154], [2.0, 3.0]]), 2, likelihood, seed=0)
    tiny = np.array([[1e-170, 1.0], [2.0, 3.0]])
    if likelihood is Likelihood.NAKAGAMI:
        with pytest.raises(ValueError, match="squares are positive"):
            segment(tiny, 2, likelihood, seed=0)
    else:
        assert segment(tiny, 2, likelihood, seed=0).labels[0, 0] == 0


def test_segment_bootstraps_a_constant_class_whose_squares_are_subnormal():
    # mean(x^2) = 2.25e-322: the spike's spread mean(x^2) / 1e4 underflows to 0,
    # so the bootstrap keeps the mean square at the smallest positive spread
    img = np.array([[1.5e-161] * 4] * 2 + [[5.0] * 4, [5.0, 5.0, 5.0, 6.0]])
    result = segment(img, 2, Likelihood.NAKAGAMI, seed=0)
    assert np.array_equal(result.labels, [[0] * 4] * 2 + [[1] * 4] * 2)
    p = result.class_params[0]
    assert result.starved == (0,)
    assert p.sigma == math.ulp(0.0) and p.m * p.sigma == 1.5e-161**2
    assert all(math.isfinite(energy) for _, _, energy in result.trace)


@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
@pytest.mark.parametrize("shape", [(2, 2, 2), (4,), (0, 3), (3, 0)], ids=["3-D", "1-D", "0x3", "3x0"])
def test_segment_refuses_an_image_that_is_empty_or_not_2d(likelihood, shape):
    image = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    with pytest.raises(ValueError, match="^image must be a non-empty 2-D array$"):
        segment(image, 2, likelihood, seed=0)


def test_segment_rejects_all_zero_image_for_nakagami():
    with pytest.raises(ValueError):
        segment(np.zeros((6, 6)), 2, Likelihood.NAKAGAMI, seed=0)


def test_segment_shifts_zero_pixels_for_nakagami():
    rng = np.random.default_rng(12)
    img = np.abs(rng.normal(3.0, 1.0, (12, 12)))
    img[0, 0] = 0.0
    img[6, 6] = 0.0
    result = segment(img, 2, Likelihood.NAKAGAMI, seed=3)
    assert result.labels.shape == (12, 12)


def test_segment_deterministic():
    img, _ = two_region_image(seed=8, size=24)
    a = segment(img, 2, Likelihood.NAKAGAMI, seed=1)
    b = segment(img, 2, Likelihood.NAKAGAMI, seed=1)
    assert np.array_equal(a.labels, b.labels)
    assert a.trace == b.trace


@pytest.mark.parametrize("likelihood", [Likelihood.GAUSSIAN, Likelihood.NAKAGAMI])
def test_segment_validation(likelihood):
    img = np.arange(1.0, 17.0).reshape(4, 4)
    with pytest.raises(ValueError, match="n_classes must be >= 2"):
        segment(img, 1, likelihood, seed=0)
    with pytest.raises(ValueError, match="beta must be a finite non-negative real"):
        segment(img, 2, likelihood, beta=-1.0, seed=0)
    for beta in (math.inf, math.nan):
        with pytest.raises(ValueError):
            segment(img, 2, likelihood, beta=beta, seed=0)
    # the class count is checked before beta
    with pytest.raises(ValueError, match="n_classes"):
        segment(img, 1, likelihood, beta=-1.0, seed=0)
