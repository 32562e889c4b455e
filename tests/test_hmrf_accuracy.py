"""Planted-region accuracy of `segment`, and an exact K = 2 oracle for its energy.

Each image is side-by-side vertical bands of Nakagami pixels, one band per
planted class. Four contrast types, on 192x192 float images at two seeds
each, K = 2 or 3 as the bands:

    shape_1_8     m = 1 | 8 at Omega = 1
    spread_1_3    Omega = 1 | 3 at m = 2
    shape_1_4_16  m = 1 | 4 | 16 at Omega = 1
    mixed         (m, Omega) = (1, 1) | (1, 3) | (8, 1)

and the `segment_256` benchmark recipe (`Segment256` in
benchmarks/workloads.py): 256x256, m = 1 | 8, round(85 x) clipped to 8
bits, its first four images at workload seed 1 with their k-means seeds.
Every image runs under both likelihoods at beta 1.

Accuracy is the share of pixels labelled as planted, maximised over the
relabellings of the classes. Its floors were fixed before the suite first
ran; a miss is a finding to report, not a reason to re-seed.

Every final energy is also checked against the exact sum of each pixel's
own-class cost (`math.fsum`), on these images and an odd 23x17 field.

For K = 2 the exact minimum of `segment`'s energy at its final class
parameters is a minimum s-t cut (Greig, Porteous & Seheult, JRSS B 1989),
found here by `scipy.sparse.csgraph.maximum_flow` on capacities scaled to
integers. ICM cannot end below that minimum, so no final energy may lie
below the cut's energy less the scaling's rounding bound.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from nakafit import Likelihood, hmrf, segment

BETA = 1.0
SIZE = 192
# each contrast's bands as (m, Omega), left to right
CONTRASTS = {
    "shape_1_8": ((1.0, 1.0), (8.0, 1.0)),
    "spread_1_3": ((2.0, 1.0), (2.0, 3.0)),
    "shape_1_4_16": ((1.0, 1.0), (4.0, 1.0), (16.0, 1.0)),
    "mixed": ((1.0, 1.0), (1.0, 3.0), (8.0, 1.0)),
}
# accuracy floors per (image kind, likelihood), fixed before the first run
FLOORS = {
    ("shape_1_8", "nakagami"): 0.93, ("shape_1_8", "gaussian"): 0.70,
    ("spread_1_3", "nakagami"): 0.90, ("spread_1_3", "gaussian"): 0.75,
    ("shape_1_4_16", "nakagami"): 0.45, ("shape_1_4_16", "gaussian"): 0.40,
    ("mixed", "nakagami"): 0.45, ("mixed", "gaussian"): 0.40,
    ("recipe", "nakagami"): 0.90, ("recipe", "gaussian"): 0.70,
}
CASES = [(kind, seed) for kind in CONTRASTS for seed in (1, 2)] + [("recipe", k) for k in range(4)]


def planted(kind, seed):
    """(image, planted labels, K, k-means seed) of one suite image."""
    if kind == "recipe":  # Segment256.prepare at workload seed 1, image `seed`
        rng = np.random.default_rng([1, 256, seed])
        x = np.hstack([np.sqrt(rng.gamma(1.0, 1.0, size=(256, 128))),
                       np.sqrt(rng.gamma(8.0, 1.0 / 8.0, size=(256, 128)))])
        img = np.clip(np.rint(85.0 * x), 0, 255).astype(np.uint8).astype(float)
        return img, np.repeat([[0, 1]], 128, axis=1).repeat(256, axis=0), 2, 16 + seed
    bands = CONTRASTS[kind]
    rng = np.random.default_rng([seed, SIZE, len(bands)])
    widths = [part.size for part in np.array_split(np.arange(SIZE), len(bands))]
    img = np.hstack([np.sqrt(rng.gamma(m, omega / m, size=(SIZE, w)))
                     for (m, omega), w in zip(bands, widths)])
    truth = np.repeat(np.arange(len(bands)), widths)[None, :].repeat(SIZE, axis=0)
    return img, truth, len(bands), seed


def accuracy(labels, truth, n_classes):
    """The share of pixels labelled as planted, at the best relabelling."""
    return max(float(np.mean(np.array(perm)[labels] == truth))
               for perm in itertools.permutations(range(n_classes)))


def scored(img, likelihood):
    """The image as `segment` scores it: lifted by _ZERO_SHIFT * peak for
    the Nakagami likelihood where it holds a zero."""
    if likelihood is Likelihood.NAKAGAMI and img.min() <= 0.0:
        return img + hmrf._ZERO_SHIFT * img.max()
    return img


def class_costs(img, likelihood, params):
    """(K, H, W) costs of every pixel under every class, on the image as
    `segment` scores it."""
    return hmrf._class_costs(scored(img, likelihood), likelihood, params)


def unlike_pairs(labels):
    return (np.count_nonzero(labels[:, 1:] != labels[:, :-1])
            + np.count_nonzero(labels[1:] != labels[:-1]))


def field_energy(costs, labels, beta):
    """Posterior energy of `labels`: each pixel's own-class cost summed in
    raster order, plus beta times the unlike 4-neighbor pairs."""
    flat = costs.reshape(costs.shape[0], -1)
    return float(flat[labels.reshape(-1), np.arange(labels.size)].sum()) + beta * unlike_pairs(labels)


def histogram_energy(img, likelihood, params, labels, beta):
    """Posterior energy of `labels` as a histogram: the (K, D) count of each
    class's pixels at each distinct intensity of the scored image, from
    np.bincount of the whole field, dotted with the class costs at those
    intensities where it is non-zero, plus beta times the unlike pairs."""
    distinct, inverse = np.unique(scored(img, likelihood).reshape(-1), return_inverse=True)
    table = hmrf._class_costs(distinct, likelihood, params)
    counts = np.bincount(labels.reshape(-1) * distinct.size + inverse,
                         minlength=table.size).reshape(table.shape)
    held = counts > 0
    return float(counts[held] @ table[held]) + beta * unlike_pairs(labels)


def exact_energy(img, likelihood, params, labels, beta):
    """Posterior energy of `labels` with every pixel's own-class cost summed
    exactly by math.fsum, plus beta times the unlike pairs."""
    costs = class_costs(img, likelihood, params)
    own = np.take_along_axis(costs, labels[None], axis=0)
    return math.fsum(own.ravel().tolist()) + beta * unlike_pairs(labels)


def min_cut(costs, beta):
    """The labelling that minimises the K = 2 energy over the (2, H, W) cost
    table `costs` at integer-scaled capacities, and the bound on how far its
    energy can lie above the true minimum.

    Pixel i hangs from the source by c_i(1) - low_i, paid when the cut puts
    it on the sink side (label 1), and from the sink by c_i(0) - low_i, with
    low_i the smaller of the two; each 4-neighbor pair is joined both ways
    by beta. Every capacity is rounded after scaling by `scale`, chosen so
    that no flow exceeds the int32 range. A labelling's cut then differs
    from its energy, less the sum of low_i, by at most 0.5 / scale per
    pixel and per unlike pair, so the cut's labelling lies at most
    (pixels + pairs) / scale above the minimum energy. The rounded cut's
    capacity is checked against the flow value, which max-flow min-cut
    makes equal."""
    height, width = costs.shape[1:]
    n = height * width
    cost0, cost1 = costs.reshape(2, n)
    low = np.minimum(cost0, cost1)
    index = np.arange(n).reshape(height, width)
    left = np.concatenate([index[:, :-1].ravel(), index[:-1].ravel()])
    right = np.concatenate([index[:, 1:].ravel(), index[1:].ravel()])
    source, sink = n, n + 1
    tails = np.concatenate([np.full(n, source), np.arange(n), left, right])
    heads = np.concatenate([np.arange(n), np.full(n, sink), right, left])
    weights = np.concatenate([cost1 - low, cost0 - low, np.full(2 * left.size, beta)])
    assert np.isfinite(weights).all()
    scale = (2**31 - 1 - weights.size) / weights.sum()
    capacity = np.rint(weights * scale).astype(np.int32)
    graph = csr_array((capacity, (tails, heads)), shape=(n + 2, n + 2))
    result = maximum_flow(graph, source, sink)
    # residual capacity: what is left of each edge, and the reverse of each flow
    residual = csr_array((graph - result.flow) > 0)
    reached = breadth_first_order(residual, source, return_predecessors=False)
    on_source = np.zeros(n + 2, dtype=bool)
    on_source[reached] = True
    assert not on_source[sink]
    crossing = on_source[tails] & ~on_source[heads]
    assert int(capacity[crossing].sum(dtype=np.int64)) == result.flow_value
    labels = np.where(on_source[:n], 0, 1).reshape(height, width)
    return labels, (n + left.size) / scale


def run_case(kind, seed, likelihood):
    """`segment` on one suite image, with what the tests and the recorded
    tables read: (result, accuracy, K = 2 oracle or None). The oracle is
    (final energy, cut energy, bound, cut accuracy)."""
    img, truth, n_classes, kmeans_seed = planted(kind, seed)
    result = segment(img, n_classes, likelihood, beta=BETA, seed=kmeans_seed)
    acc = accuracy(result.labels, truth, n_classes)
    if n_classes != 2:
        return result, acc, None
    costs = class_costs(img, likelihood, result.class_params)
    energy = result.trace[-1][2]
    # the histogram and pair count are segment's
    assert energy == histogram_energy(img, likelihood, result.class_params, result.labels, BETA)
    cut, bound = min_cut(costs, BETA)
    return result, acc, (energy, field_energy(costs, cut, BETA), bound, accuracy(cut, truth, 2))


@pytest.mark.parametrize("likelihood", list(Likelihood), ids=lambda lik: lik.value)
@pytest.mark.parametrize("kind, seed", CASES, ids=[f"{kind}_{seed}" for kind, seed in CASES])
def test_segment_accuracy_floor_and_min_cut_bound(kind, seed, likelihood):
    result, acc, oracle = run_case(kind, seed, likelihood)
    assert acc >= FLOORS[kind, likelihood.value]
    assert sum(phase == "params" for _, phase, _ in result.trace) < hmrf._MAX_OUTER
    if oracle is not None:
        energy, cut_energy, bound, _ = oracle
        assert energy >= cut_energy - bound
        # and the cut is a minimum: it is not above ICM's labelling either
        assert cut_energy <= energy + bound


# the largest relative distance of a final energy from its exact sum, fixed
# before the first run
ENERGY_RTOL = 1e-13
FSUM_CASES = ([("recipe", k) for k in range(4)] + [("shape_1_8", seed) for seed in (1, 2)]
              + [("odd_23x17", k) for k in (2, 3)])


@pytest.mark.parametrize("likelihood", list(Likelihood), ids=lambda lik: lik.value)
@pytest.mark.parametrize("kind, seed", FSUM_CASES,
                         ids=[f"{kind}_{seed}" for kind, seed in FSUM_CASES])
def test_segment_final_energy_is_the_exact_sum_of_its_costs(kind, seed, likelihood):
    # the energy dots the class histogram with the cost table, so its data
    # term is summed in no pixel order; it must still agree with the exact
    # sum of every pixel's own-class cost
    if kind == "odd_23x17":  # two bands on a field of odd height and width, K = seed
        rng = np.random.default_rng([23, 17, seed])
        img = np.hstack([np.sqrt(rng.gamma(1.0, 1.0, (23, 8))),
                         np.sqrt(rng.gamma(8.0, 1.0 / 8.0, (23, 9)))])
        n_classes, kmeans_seed = seed, seed
    else:
        img, _, n_classes, kmeans_seed = planted(kind, seed)
    result = segment(img, n_classes, likelihood, beta=BETA, seed=kmeans_seed)
    exact = exact_energy(img, likelihood, result.class_params, result.labels, BETA)
    assert math.isfinite(exact)
    assert abs(result.trace[-1][2] - exact) <= ENERGY_RTOL * abs(exact)


def test_min_cut_finds_the_minimum_of_a_small_energy():
    # every labelling of a 3x4 field, scored exactly; costs at multiples of
    # 1/8 make the scaled capacities near-exact
    rng = np.random.default_rng(34)
    costs = rng.integers(0, 24, (2, 3, 4)) / 8.0
    fields = (np.array(bits).reshape(3, 4) for bits in itertools.product((0, 1), repeat=12))
    best = min(field_energy(costs, labels, 0.75) for labels in fields)
    labels, bound = min_cut(costs, 0.75)
    assert bound < 1e-6
    assert field_energy(costs, labels, 0.75) <= best + bound
