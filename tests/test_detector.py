"""Detector statistics, thresholds, and Monte Carlo estimators."""

import numpy as np
import pytest
from scipy.stats import binomtest

from wavedet import (
    Calibration,
    DetectionCurve,
    LinearDetector,
    NoiseModel,
    RNG_ID,
    amplitude,
    analytic_stats,
    calibrate_max_coeff,
    estimate_pd,
    max_coeff_baseline,
    optimum_a,
    qfunc,
    qfunc_inv,
    realized_pfa_mc,
    statistic,
    sweep_curve,
    threshold_for_pfa_analytic,
    threshold_for_pfa_mc,
)
from wavedet import detector, pipeline
from wavedet.detector import _empirical_upper_quantile
from wavedet.rng import CHUNK

# frozen high-precision values of the Gaussian upper-tail quantile
QINV_ORACLE = {
    1e-3: 3.0902323061678135,
    1e-6: 4.7534243088228989,
    0.01: 2.3263478740408411,
    0.3: 0.52440051270804078,
    0.5: 0.0,
}


def test_qfunc_known_values():
    assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)
    assert qfunc(1.0) == pytest.approx(0.15865525393145705, abs=1e-15)
    assert qfunc(3.0902323061678132) == pytest.approx(1e-3, rel=1e-12)
    assert qfunc(40.0) >= 0.0


def test_qfunc_inv_against_oracle():
    for p, z in QINV_ORACLE.items():
        assert qfunc_inv(p) == pytest.approx(z, abs=1e-9)


def test_qfunc_roundtrip():
    for p in [1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9]:
        assert qfunc(qfunc_inv(p)) == pytest.approx(p, rel=1e-8)
    with pytest.raises(ValueError):
        qfunc_inv(0.0)
    with pytest.raises(ValueError):
        qfunc_inv(1.0)


def test_analytic_stats_hand_case(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-3, noise)
    st = analytic_stats(d, det.a, -3.0, noise, det.v_threshold)
    # matched filter: mean shift is amplitude * template steady norm,
    # statistic spread is sigma_n (a has unit norm)
    tnorm = float(np.linalg.norm(pipe34.details_of(pulse256).steady_values()))
    amp = 10.0 ** (-3.0 / 20.0)
    assert st.sigma_v == pytest.approx(1.0, rel=1e-12)
    assert st.eta_h1 == pytest.approx(amp * tnorm, rel=1e-12)
    assert st.pfa == pytest.approx(1e-3, rel=1e-6)
    assert st.pd == pytest.approx(
        qfunc(det.v_threshold - amp * tnorm), rel=1e-12
    )


def test_threshold_analytic_formula(pipe34, noise):
    a = np.zeros(pipe34.layout.total_length)
    a[pipe34.layout.steady_mask()] = 0.5
    vt = threshold_for_pfa_analytic(a, pipe34.layout, noise, 1e-3)
    sigma_v = np.linalg.norm(a[pipe34.layout.steady_mask()])
    assert vt == pytest.approx(sigma_v * QINV_ORACLE[1e-3], rel=1e-9)


def test_statistic_is_steady_inner_product(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-3, noise)
    v = statistic(d, det)
    expected = float(np.dot(det.steady_a(), d.steady_values()))
    assert v == pytest.approx(expected, abs=1e-12)


def test_steady_gathers_are_read_only_mask_gathers(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-3, noise)
    mask = pipe34.layout.steady_mask()
    for got, full in ((d.steady_values(), d.values), (det.steady_a(), det.a)):
        assert got.tobytes() == full[mask].tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    # gathered once per object, not once per call
    assert d.steady_values() is d.steady_values()
    assert det.steady_a() is det.steady_a()
    assert statistic(d, det) == float(det.a[mask] @ d.values[mask])


def test_statistic_rejects_wrong_layout(db5, pulse256, noise):
    from wavedet import FeaturePipe

    pipe3 = FeaturePipe.for_scales(256, db5, (3,))
    pipe4 = FeaturePipe.for_scales(256, db5, (4,))
    det = optimum_a(pipe3.details_of(pulse256), 1e-3, noise)
    with pytest.raises(ValueError):
        statistic(pipe4.details_of(pulse256), det)


def test_empirical_quantile_hand_values():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    # k = ceil((1 - pfa) n): conservative (higher) order statistic
    assert _empirical_upper_quantile(v, 0.1) == 9.0
    assert _empirical_upper_quantile(v, 0.25) == 8.0
    assert _empirical_upper_quantile(v, 0.05) == 10.0


def test_mc_threshold_tracks_analytic(pipe34, noise):
    a = np.zeros(pipe34.layout.total_length)
    mask = pipe34.layout.steady_mask()
    a[mask] = np.random.default_rng(0).standard_normal(mask.sum())
    vt_an = threshold_for_pfa_analytic(a, pipe34.layout, noise, 0.01)
    vt_mc = threshold_for_pfa_mc(a, pipe34, noise, 0.01, 50_000, seed=3)
    sigma_v = np.linalg.norm(a[mask])
    # quantile sampling error at p=0.01 with 5e4 trials is ~0.02 sigma_v
    assert abs(vt_mc - vt_an) < 0.1 * sigma_v


def test_mc_threshold_requires_enough_trials(pipe34, noise):
    a = np.zeros(pipe34.layout.total_length)
    a[pipe34.layout.steady_mask()] = 1.0
    with pytest.raises(ValueError):
        threshold_for_pfa_mc(a, pipe34, noise, 1e-3, 1000, seed=0)


def test_estimate_pd_matches_analytic(pipe34, pulse256, noise):
    # each point's count is Binomial(trials, Pd) however the points are
    # correlated, so an exact two-sided test per point at level 1e-4 / 3
    # fails a correct estimator with probability at most 1e-4 (Bonferroni)
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-2, noise)
    grid, trials = (-12.0, -9.0, -6.0), 20_000
    points = estimate_pd(det, pulse256, grid, noise, trials, 17, pipe34)
    assert len(points) == len(grid)
    for snr, (pd_hat, se) in zip(grid, points):
        st = analytic_stats(d, det.a, snr, noise, det.v_threshold)
        assert 0.05 < st.pd < 0.95
        assert se == pytest.approx(np.sqrt(pd_hat * (1 - pd_hat) / trials))
        assert binomtest(round(pd_hat * trials), trials, st.pd).pvalue > 1e-4 / len(grid)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_curve_point_does_not_depend_on_the_rest_of_the_grid(
        pipe34, pulse256, noise, monkeypatch, workers):
    dets = (optimum_a(pipe34.details_of(pulse256), 1e-2, noise),
            calibrate_max_coeff(pipe34, noise, 1e-2, 20_000, seed=3))
    grid, trials = (-12.0, -10.0, -8.0, -6.0, -4.0), CHUNK + 700
    want = [estimate_pd(det, pulse256, grid, noise, trials, 41, pipe34) for det in dets]
    monkeypatch.setattr(pipeline, "_worker_count", lambda: workers)
    for det, full in zip(dets, want):
        for sub in ((-8.0,), (-12.0, -4.0), (-10.0, -8.0, -6.0)):
            got = estimate_pd(det, pulse256, sub, noise, trials, 41, pipe34)
            assert got == [full[grid.index(s)] for s in sub], (det.detector_id, sub)


def test_a_linear_detectors_curve_is_non_decreasing(pipe34, pulse256, noise):
    # 41 points 0.1 dB apart: on a fresh draw per point, neighbouring
    # estimates 2,000 trials each cross almost surely; on one shared draw a
    # trial's statistic grows with the amplitude, so no count can fall
    det = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    curve = sweep_curve(det, pulse256, np.linspace(-12.0, -8.0, 41), noise, 2000, 5, pipe34)
    pd = curve.pd_values()
    assert 0.0 < pd[0] < pd[-1] < 1.0
    assert np.all(np.diff(pd) >= 0.0), pd


def test_estimate_pd_counts_hits_on_noise_features_plus_the_scaled_pulse(
        pipe34, pulse256, noise):
    grid, trials, seed = (-10.0, -7.0, -4.0), CHUNK + 300, 23
    mu = pipe34.details_of(pulse256).steady_values()
    F = pipe34.noise_steady(noise, trials, seed, path=detector._CURVE_PATH)
    amps = amplitude(np.array(grid), noise)
    det_opt = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    det_max = calibrate_max_coeff(pipe34, noise, 1e-2, 20_000, seed=3)
    got_opt = estimate_pd(det_opt, pulse256, grid, noise, trials, seed, pipe34)
    got_max = estimate_pd(det_max, pulse256, grid, noise, trials, seed, pipe34)
    for k, X in enumerate(F + amp * mu for amp in amps):
        v_max = np.max(np.abs(X), axis=1)
        assert got_max[k][0] == np.count_nonzero(v_max > det_max.v_threshold) / trials
        # BLAS may round X @ a otherwise than the stream; ties may go either way
        v = X @ det_opt.steady_a()
        ties = np.abs(v - det_opt.v_threshold) <= 1e-9
        clear_hits = np.count_nonzero((v > det_opt.v_threshold) & ~ties)
        assert clear_hits <= got_opt[k][0] * trials <= clear_hits + np.count_nonzero(ties)
        assert 0 < clear_hits < trials


def test_a_curve_swept_at_its_calibration_seed_draws_other_noise(pipe34, pulse256, noise):
    # at -300 dB the pulse vanishes; scored on its own calibration noise, a
    # threshold at the ceil((1 - pfa) n)-th order statistic would count
    # n - ceil((1 - pfa) n) exceedances, give or take one that rounding
    # moves.  On fresh noise the count is Binomial(n, pfa), whose largest
    # pmf value is below 0.041 here, so it lands within one of that with
    # probability below 0.123 per seed, and at all six seeds below 4e-6
    n, pfa = 10_000, 0.01
    reused = n - int(np.ceil((1.0 - pfa) * n))
    a = optimum_a(pipe34.details_of(pulse256), pfa, noise).a
    near = []
    for seed in range(5, 11):
        vt = threshold_for_pfa_mc(a, pipe34, noise, pfa, n, seed)
        dets = (calibrate_max_coeff(pipe34, noise, pfa, n, seed),
                LinearDetector(a=a, layout=pipe34.layout, v_threshold=vt, target_pfa=pfa,
                               calibration=Calibration("monte_carlo", n, seed)))
        for det in dets:
            (pd, _), = estimate_pd(det, pulse256, (-300.0,), noise, n, seed, pipe34)
            near.append(abs(round(pd * n) - reused) <= 1)
    assert not all(near), near


def test_realized_pfa_shares_one_stream(pipe34, noise):
    mask = pipe34.layout.steady_mask()
    g = np.random.default_rng(5)
    dets = []
    for i in range(2):
        a = np.zeros(pipe34.layout.total_length)
        a[mask] = g.standard_normal(mask.sum())
        vt = threshold_for_pfa_analytic(a, pipe34.layout, noise, 0.02)
        dets.append(
            LinearDetector(
                a=a, layout=pipe34.layout, v_threshold=vt, target_pfa=0.02,
                calibration=Calibration("analytic"), detector_id=f"t{i}",
            )
        )
    res = realized_pfa_mc(dets, noise, 40_000, seed=8, pipe=pipe34)
    assert len(res) == 2
    for pfa_hat, se in res:
        assert abs(pfa_hat - 0.02) < 4 * se


def test_max_coeff_detector(pipe34, pulse256, noise):
    det = calibrate_max_coeff(pipe34, noise, 0.02, 20_000, seed=2)
    assert det.detector_id == "baseline-d3_4"
    assert det.calibration.method == "monte_carlo"
    d = pipe34.details_of(pulse256)
    v = np.max(np.abs(d.steady_values()))
    assert max_coeff_baseline(d, det.v_threshold) == (v > det.v_threshold)
    (pfa_hat, se) = realized_pfa_mc([det], noise, 40_000, seed=21, pipe=pipe34)[0]
    assert abs(pfa_hat - 0.02) < 5 * se


def test_sweep_curve_is_deterministic(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-2, noise)
    grid = (-12.0, -9.0, -6.0)
    c1 = sweep_curve(det, pulse256, grid, noise, 2000, 31, pipe34)
    c2 = sweep_curve(det, pulse256, grid, noise, 2000, 31, pipe34)
    assert c1.points == c2.points
    np.testing.assert_array_equal(c1.snr_grid(), grid)
    assert c1.detector_id == det.detector_id
    # pd grows with snr for a sane detector
    assert c1.pd_values()[0] < c1.pd_values()[-1]


def test_detection_curve_validation():
    with pytest.raises(ValueError):
        DetectionCurve(
            pfa=0.01, points=((0.0, 0.5, 0.0), (-1.0, 0.6, 0.0)),
            detector_id="x", trials_per_point=10, seed=0,
        )
    for point in ((0.0, 1.5, 0.0), (np.nan, 0.5, 0.0), (0.0, 0.5, np.inf)):
        with pytest.raises(ValueError):
            DetectionCurve(
                pfa=0.01, points=(point,), detector_id="x", trials_per_point=10, seed=0,
            )
    for trials, seed in ((-1, 0), (10, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            DetectionCurve(
                pfa=0.01, points=((0.0, 0.5, 0.0),), detector_id="x",
                trials_per_point=trials, seed=seed,
            )


def test_linear_detector_validation(pipe34, noise):
    a = np.zeros(pipe34.layout.total_length)
    with pytest.raises(ValueError):
        LinearDetector(
            a=a, layout=pipe34.layout, v_threshold=1.0, target_pfa=1e-3,
            calibration=Calibration("analytic"), detector_id="zero",
        )
    with pytest.raises(ValueError):
        Calibration("monte_carlo")
    with pytest.raises(ValueError):
        Calibration("bogus")
    # a Monte Carlo calibration records the generator it drew from
    assert Calibration("monte_carlo", 1000, 5).rng_id == RNG_ID
    assert Calibration("monte_carlo", 1000, 5, "other/v0").rng_id == "other/v0"
    assert Calibration("analytic").rng_id is None


def test_sweep_curve_rejects_a_non_finite_snr(pipe34, pulse256, noise):
    det = optimum_a(pipe34.details_of(pulse256), 1e-2, noise)
    with pytest.raises(ValueError, match="finite"):
        sweep_curve(det, pulse256, [np.nan], noise, 500, 31, pipe34)
