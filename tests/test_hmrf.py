import math

import numpy as np
import pytest

from nakafit import hmrf
from nakafit import (
    GaussianParams,
    Likelihood,
    NakagamiParams,
    SegModel,
    icm_sweep,
    kmeans_init,
    sample,
    segment,
    total_energy,
    update_params,
)


def gaussian_model(params, beta=1.0):
    return SegModel(
        n_classes=len(params), likelihood=Likelihood.GAUSSIAN,
        class_params=tuple(params), beta=beta,
    )


def nakagami_model(params, beta=1.0):
    return SegModel(
        n_classes=len(params), likelihood=Likelihood.NAKAGAMI,
        class_params=tuple(params), beta=beta,
    )


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


# --- k-means -----------------------------------------------------------------


def test_kmeans_separated_clusters():
    img = np.array([[0.0, 0.0], [10.0, 10.0]])
    labels = kmeans_init(img, 2, seed=0)
    assert np.array_equal(labels, np.array([[0, 0], [1, 1]]))


def test_kmeans_rejects_constant_image():
    with pytest.raises(ValueError):
        kmeans_init(np.ones((4, 4)), 2, seed=0)


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


def test_total_energy_rejects_zero_pixel_for_nakagami():
    model = nakagami_model([NakagamiParams(1.0, 1.0)] * 2)
    with pytest.raises(ValueError):
        total_energy(np.array([[0.0, 1.0]]), np.array([[0, 0]]), model)


@pytest.mark.parametrize("entry", [total_energy, icm_sweep, update_params])
def test_labels_must_be_finite_integers(entry):
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = gaussian_model([GaussianParams(1.0, 1.0), GaussianParams(4.0, 1.0)])
    for bad in (np.nan, np.inf, 0.7):
        with pytest.raises(ValueError, match="finite integers"):
            entry(img, np.array([[0.0, bad], [1.0, 1.0]]), model)
    # integer-valued floats are labels like any other
    as_float = entry(img, np.array([[0.0, 0.0], [1.0, 1.0]]), model)
    as_int = entry(img, np.array([[0, 0], [1, 1]]), model)
    if entry is icm_sweep:
        assert np.array_equal(as_float[0], as_int[0]) and as_float[1] == as_int[1]
    else:
        assert as_float == as_int


def test_total_energy_shape_mismatch():
    model = gaussian_model([GaussianParams(0.0, 1.0)] * 2)
    with pytest.raises(ValueError):
        total_energy(np.ones((2, 2)), np.zeros((3, 3), dtype=int), model)


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
    """Scalar ICM sweep: pixels with even i + j first, then odd; each pixel
    takes the lowest-index class minimizing nll + beta * disagreeing neighbors."""
    height, width, n_classes = nll.shape
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
                    float(nll[i, j, k]) + beta * sum(n != k for n in neigh)
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
def test_icm_sweep_matches_scalar_checkerboard_reference(monkeypatch, shape, n_classes, beta):
    # multiples of 0.5 make every cost exact, so ties are real ties and the
    # lowest-index rule is what decides them
    rng = np.random.default_rng([shape[0], shape[1], n_classes, int(2 * beta)])
    img = np.ones(shape)
    model = gaussian_model([GaussianParams(1.0, 1.0)] * n_classes, beta=beta)
    for _ in range(10):
        nll = 0.5 * rng.integers(0, 6, shape + (n_classes,))
        labels = rng.integers(0, n_classes, shape)
        before = labels.copy()
        monkeypatch.setattr(hmrf, "_nll_table", lambda img, model: nll)
        out, changed = icm_sweep(img, labels, model)
        want, want_changed = checkerboard_reference(nll, labels, beta)
        assert np.array_equal(out, want)
        assert changed == want_changed
        assert np.array_equal(labels, before)


# --- parameter updates ---------------------------------------------------------


def test_update_params_gaussian_sample_moments():
    img = np.array([[1.0, 1.0, 7.0], [3.0, 3.0, 9.0]])
    labels = np.array([[0, 0, 1], [0, 0, 1]])
    model = SegModel.empty(2, Likelihood.GAUSSIAN)
    out = update_params(img, labels, model)
    p = out.class_params[0]
    assert p.mu == pytest.approx(2.0, rel=1e-14)
    assert p.var == pytest.approx(4.0 / 3.0, rel=1e-14)  # n-1 divisor
    assert out.starved == ()


def test_update_params_freezes_starved_class():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    labels = np.zeros((2, 2), dtype=int)
    prev = gaussian_model([GaussianParams(1.0, 1.0), GaussianParams(9.0, 2.0)])
    out = update_params(img, labels, prev)
    assert out.class_params[1] == GaussianParams(9.0, 2.0)
    assert out.starved == (1,)


def test_update_params_nakagami_recovers_shape():
    px = sample(NakagamiParams.from_omega(4.0, 1.0), 500, seed=88)
    img = px.reshape(20, 25)
    labels = np.zeros((20, 25), dtype=int)
    labels[:, -1] = 1  # give class 1 a sliver so both classes exist
    model = SegModel.empty(2, Likelihood.NAKAGAMI)
    out = update_params(img, labels, model)
    assert out.class_params[0].m == pytest.approx(4.0, rel=0.25)


def test_update_params_nakagami_constant_class_is_starved():
    img = np.full((4, 8), 2.5)
    img[:, 4:] = np.abs(np.random.default_rng(1).normal(5.0, 1.0, (4, 4))) + 0.5
    labels = np.zeros((4, 8), dtype=int)
    labels[:, 4:] = 1
    model = SegModel.empty(2, Likelihood.NAKAGAMI)
    out = update_params(img, labels, model)
    assert 0 in out.starved
    # bootstrap: concentrated spike with omega = mean of x^2
    p = out.class_params[0]
    assert p.m * p.sigma == pytest.approx(2.5**2, rel=1e-12)


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


def test_segment_beta_zero_is_pixelwise_ml():
    img, _ = two_region_image(seed=5, size=16)
    result = segment(img, 2, Likelihood.NAKAGAMI, beta=0.0, seed=5)
    from nakafit.hmrf import _nll_table

    nll = _nll_table(img, result.model)
    assert np.array_equal(result.labels, np.argmin(nll, axis=2))


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


def test_segmodel_validation():
    with pytest.raises(ValueError):
        SegModel(1, Likelihood.GAUSSIAN, (GaussianParams(0, 1),))
    with pytest.raises(ValueError):
        SegModel(2, Likelihood.GAUSSIAN, (GaussianParams(0, 1),) * 2, beta=-1.0)
    with pytest.raises(ValueError):
        SegModel(2, Likelihood.GAUSSIAN, (GaussianParams(0, 1),))
