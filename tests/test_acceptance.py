"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; a pytest failure on any test is the corresponding FAIL signal.
"""

import math
import statistics
import time

import numpy as np

from nakafit import (
    BenchConfig,
    BlockEstimatorState,
    EstimatorKind,
    Likelihood,
    NakagamiParams,
    compute_stats,
    crlb,
    crlb_modified,
    digamma,
    estimate_ml,
    finalize,
    ingest_block,
    log_gamma,
    run_bench,
    sample,
    segment,
    trigamma,
)
from nakafit.cli import main as cli_main

EULER_GAMMA = 0.5772156649015329


def test_criterion_1_special_functions():
    t0 = time.perf_counter()
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-10
    assert abs(trigamma(1.0) - math.pi**2 / 6.0) < 1e-10
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-10
    assert abs(trigamma(0.5) - math.pi**2 / 2.0) < 1e-10
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-10
    for x in np.geomspace(0.01, 100.0, 100):
        x = float(x)
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) < 1e-10
    h = 1e-5
    for x in np.geomspace(0.1, 50.0, 50):
        x = float(x)
        assert abs((log_gamma(x + h) - log_gamma(x - h)) / (2 * h) - digamma(x)) < 1e-6
        assert abs((digamma(x + h) - digamma(x - h)) / (2 * h) - trigamma(x)) < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: special-function values and properties ({elapsed:.2f}s < 1s)")


def test_criterion_2_ml_residual_on_random_blocks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        m = float(rng.uniform(0.5, 16.0))
        length = int(rng.integers(10, 201))
        block = sample(NakagamiParams.from_omega(m, 1.0), length, rng)
        stats = compute_stats(block)
        est = estimate_ml(stats)
        assert abs(math.log(est.m_hat) - digamma(est.m_hat) - stats.delta) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2: ML residual < 1e-10 on 10^4 random blocks ({elapsed:.2f}s < 5s)")


def test_criterion_3_bound_values_and_ordering():
    t0 = time.perf_counter()
    # closed forms: psi'(1) = pi^2/6 and psi(3/2) - psi(1) = 2 - 2 ln 2
    assert abs(crlb(1.0, 150) - 1.0 / (150.0 * (math.pi**2 / 6.0 - 1.0))) < 1e-12
    assert abs(crlb(1.0, 150) - 0.0103369) < 1e-6
    crlb_mod_oracle = 1.0 / (150.0 * (3.0 - 4.0 * math.log(2.0)))  # = 0.0293154620
    assert abs(crlb_modified(1.0, 150) - crlb_mod_oracle) < 1e-6
    assert abs(crlb_modified(1.0, 150) - 0.0293154620) < 1e-6
    for m in np.geomspace(0.1, 50.0, 60):
        m = float(m)
        assert crlb_modified(m, 150) >= crlb(m, 150)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 3: bound values and modified >= CRLB ordering ({elapsed:.2f}s < 1s)")


def test_criterion_4_sandwich_claim():
    t0 = time.perf_counter()
    cfg = BenchConfig(
        m_grid=(1.0, 2.0, 4.0), omega=1.0, block_size=30, num_blocks=5,
        trials=2000, estimators=(EstimatorKind.EXACT_ML,), base_seed=0,
    )
    for row in run_bench(cfg).rows:
        lo = 0.85 * crlb(row.m_true, 150)
        hi = 1.15 * crlb(row.m_true, 30)
        assert lo <= row.variance <= hi, (row.m_true, row.variance, lo, hi)
        assert row.failures == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 4: 30x5 variance between whole-window and single-block CRLB ({elapsed:.2f}s < 60s)")


def test_criterion_5_ordering_claims_20x7():
    t0 = time.perf_counter()
    cfg = BenchConfig(
        m_grid=(1.0, 2.0, 4.0), omega=1.0, block_size=20, num_blocks=7,
        trials=2000,
        estimators=(
            EstimatorKind.EXACT_ML,
            EstimatorKind.CHENG_BEAULIEU_1,
            EstimatorKind.GREENWOOD_DURAND,
            EstimatorKind.MOMENT_BASED,
        ),
        base_seed=0,
    )
    variances = {}
    for row in run_bench(cfg).rows:
        variances[(row.m_true, row.estimator)] = row.variance
    for m in (1.0, 2.0, 4.0):
        ml = variances[(m, EstimatorKind.EXACT_ML)]
        assert ml <= 1.05 * variances[(m, EstimatorKind.CHENG_BEAULIEU_1)], m
        assert ml <= 1.05 * variances[(m, EstimatorKind.GREENWOOD_DURAND)], m
        assert ml <= 1.05 * variances[(m, EstimatorKind.MOMENT_BASED)], m
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 5: 20x7 ML variance <= competitors within 5% slack ({elapsed:.2f}s < 60s)")


def test_criterion_6_modified_bound_tracking():
    t0 = time.perf_counter()
    cfg = BenchConfig(
        m_grid=(0.5, 1.0, 2.0, 4.0, 8.0), omega=1.0, block_size=150, num_blocks=1,
        trials=2000, estimators=(EstimatorKind.EXACT_ML,), base_seed=0,
    )
    for row in run_bench(cfg).rows:
        lo = 0.8 * crlb(row.m_true, 150)
        hi = 1.5 * crlb_modified(row.m_true, 150)
        assert lo <= row.variance <= hi, (row.m_true, row.variance, lo, hi)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 6: single-block variance tracks [CRLB, 1.5 CRLB'] ({elapsed:.2f}s < 30s)")


def test_criterion_7_learning_curve():
    t0 = time.perf_counter()
    p = NakagamiParams.from_omega(2.0, 1.0)
    variances = []
    for n_blocks in range(1, 6):
        finals = []
        for trial in range(2000):
            data = sample(p, 30 * n_blocks, seed=[77, n_blocks, trial])
            state = BlockEstimatorState(method=EstimatorKind.EXACT_ML)
            for block in data.reshape(n_blocks, 30):
                state = ingest_block(state, block)
            finals.append(finalize(state).m_hat)
        variances.append(statistics.variance(finals))
    for prev, cur in zip(variances, variances[1:]):
        assert cur <= 1.05 * prev, variances
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 7: variance non-increasing over N=1..5 blocks ({elapsed:.2f}s < 30s)")


def test_criterion_8_segmentation():
    t0 = time.perf_counter()
    nak_acc, gau_acc = [], []
    for seed in range(10):
        left = sample(NakagamiParams.from_omega(1.0, 1.0), 64 * 32, seed=[seed, 0])
        right = sample(NakagamiParams.from_omega(8.0, 1.0), 64 * 32, seed=[seed, 1])
        img = np.hstack([left.reshape(64, 32), right.reshape(64, 32)])
        truth = np.zeros((64, 64), dtype=int)
        truth[:, 32:] = 1
        for lik, sink in ((Likelihood.NAKAGAMI, nak_acc), (Likelihood.GAUSSIAN, gau_acc)):
            result = segment(img, 2, lik, seed=seed)
            a = float(np.mean(result.labels == truth))
            sink.append(max(a, 1.0 - a))
            prev = None
            for _, phase, energy in result.trace:
                if phase == "icm" and prev is not None:
                    assert energy <= prev + 1e-9
                prev = energy if phase == "icm" else None
    mean_nak = statistics.fmean(nak_acc)
    mean_gau = statistics.fmean(gau_acc)
    assert mean_nak >= 0.90, (mean_nak, nak_acc)
    assert mean_nak >= mean_gau, (mean_nak, mean_gau)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"PASS criterion 8: Nakagami-HMRF mean accuracy {mean_nak:.3f} >= 0.90 and >= "
        f"Gaussian {mean_gau:.3f}; traces monotone ({elapsed:.2f}s < 30s)"
    )


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    bench_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"bench_{tag}.csv"
        code = cli_main([
            "bench", "--m-grid", "1,2", "--trials", "200", "--block-size", "30",
            "--num-blocks", "5", "--base-seed", "11", "--out", str(out),
        ])
        assert code == 0
        bench_outs.append(out.read_bytes())
    assert bench_outs[0] == bench_outs[1]

    from nakafit import pgm

    rng_img = sample(NakagamiParams.from_omega(2.0, 1.0), 32 * 32, seed=5).reshape(32, 32)
    img_path = tmp_path / "img.pgm"
    pgm.write_pgm(img_path, np.clip(rng_img / rng_img.max() * 255.0, 0, 255))
    seg_outs = []
    for tag in ("a", "b"):
        base = tmp_path / f"lab_{tag}"
        trace = tmp_path / f"trace_{tag}.csv"
        code = cli_main([
            "segment", "--in", str(img_path), "--k", "2", "--likelihood", "nakagami",
            "--seed", "3", "--out-labels", str(base), "--out-trace", str(trace),
        ])
        assert code == 0
        seg_outs.append(
            (tmp_path / f"lab_{tag}.pgm").read_bytes()
            + (tmp_path / f"lab_{tag}.txt").read_bytes()
            + trace.read_bytes()
        )
    assert seg_outs[0] == seg_outs[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 9: bench and segment byte-identical across reruns ({elapsed:.2f}s < 60s)")
