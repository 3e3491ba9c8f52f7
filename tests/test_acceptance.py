"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``[criterion k] PASS/FAIL`` line with the measured
margin, then asserts.  Heavy artifacts (trained models, Monte Carlo curves)
are built once in module fixtures and shared, keeping the whole suite within
a laptop-scale run.
"""

import numpy as np
import pytest

from wavedet import (
    Calibration,
    FeaturePipe,
    LinearDetector,
    NoiseModel,
    RNG_ID,
    amplitude,
    analytic_stats,
    build_training_set,
    calibrate_bias,
    calibrate_max_coeff,
    count_ops,
    db_filters,
    derive_seed,
    make_chirp,
    make_observation,
    optimum_a,
    parse_family,
    pyramid_batch,
    qfunc_inv,
    realized_pfa_mc,
    statistic,
    sweep_curve,
    threshold_for_pfa_mc,
    train,
)
from oracles import kkt_violation, numerical_optimum_a, stage_matrix
from wavedet.rng import substream
from wavedet.svm import TrainingSet
from wavedet.wavelet import ScaleLayout

ROOT = 2024
PFA = 1e-3
N = 1024
GRID = tuple(float(s) for s in range(-15, 1))
SINGLES = ((3,), (4,), (5,), (6,))
MULTI = (3, 4, 5, 6)
CAL_TRIALS = 200_000
CURVE_TRIALS = 10_000


def report(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")


def label(scales) -> str:
    return "_".join(str(s) for s in scales)


@pytest.fixture(scope="module")
def filters():
    return parse_family("db5")


@pytest.fixture(scope="module")
def noise():
    return NoiseModel(sigma_n=1.0)


@pytest.fixture(scope="module")
def pulse():
    # Downward sweep: the low bands are visited late, inside the steady
    # windows of the deep scales, so scales 3-5 all carry real energy and
    # the concatenated feature vector is strictly stronger than any single
    # scale.  An upward sweep parks the low-band energy in the transient
    # region that the steady range cuts off.
    return make_chirp(N, f_start=0.1, f_end=0.008)


@pytest.fixture(scope="module")
def pipes(filters):
    sets = SINGLES + ((4, 5, 6), MULTI)
    return {b: FeaturePipe.for_scales(N, filters, b) for b in sets}


@pytest.fixture(scope="module")
def optimum(pipes, pulse, noise):
    out = {}
    for b, pipe in pipes.items():
        d = pipe.details_of(pulse)
        out[b] = optimum_a(d, PFA, noise)
    return out


@pytest.fixture(scope="module")
def theory(pipes, pulse, noise, optimum):
    """Closed-form Pd over the SNR grid for every scale set."""
    out = {}
    for b, pipe in pipes.items():
        d = pipe.details_of(pulse)
        det = optimum[b]
        out[b] = np.array(
            [analytic_stats(d, det.a, s, noise, det.v_threshold).pd for s in GRID]
        )
    return out


@pytest.fixture(scope="module")
def svm(pipes, pulse, noise, filters):
    """Trained and Pfa-calibrated SVM detector per scale set."""
    out = {}
    for i, b in enumerate(SINGLES + (MULTI,)):
        ts = build_training_set(
            pulse, b, filters, noise, 2000, 2000, (GRID[0], GRID[-1]),
            seed=derive_seed(ROOT, 1, i),
        )
        model = train(ts, 1.0, 10.0)
        assert model.converged, f"SMO did not converge for scales {b}"
        det = calibrate_bias(
            model, noise, pipes[b], PFA, CAL_TRIALS, seed=derive_seed(ROOT, 2, i)
        )
        out[b] = (model, det)
    return out


@pytest.fixture(scope="module")
def svm_curves(svm, pipes, pulse, noise):
    out = {}
    for i, (b, (_, det)) in enumerate(svm.items()):
        out[b] = sweep_curve(
            det, pulse, GRID, noise, CURVE_TRIALS,
            seed=derive_seed(ROOT, 3, i), pipe=pipes[b],
        )
    return out


def curve_se(curve, floor_from=None):
    """Pointwise stderr with a floor for saturated estimates."""
    n = curve.trials_per_point
    se = np.maximum(curve.stderr_values(), 1.0 / n)
    if floor_from is not None:
        se = np.maximum(se, np.sqrt(np.clip(floor_from * (1 - floor_from), 0, None) / n))
    return se


# -- criterion 1: orthonormal transform ------------------------------------


def test_c1_orthonormal_transform_suite():
    worst_parseval = 0.0
    for order in range(1, 11):
        fb = db_filters(order)
        for log_n in range(6, 13):  # 64 .. 4096
            n = 2**log_n
            x = substream(derive_seed(ROOT, 10, order, log_n)).standard_normal((1, n))
            approx, details = pyramid_batch(x, fb, log_n)
            total = np.sum(approx**2) + sum(np.sum(d**2) for d in details)
            worst_parseval = max(worst_parseval, abs(total - np.sum(x**2)))

    worst_oracle = 0.0
    for order in (1, 2, 3, 5, 8, 10):
        fb = db_filters(order)
        for n in (8, 16, 32):
            x = substream(derive_seed(ROOT, 11, order, n)).standard_normal((2, n))
            cur = x
            approx, details = pyramid_batch(x, fb, 3)
            for lvl in range(3):
                m = cur.shape[1]
                H, G = stage_matrix(fb.h, m), stage_matrix(fb.g, m)
                worst_oracle = max(
                    worst_oracle, float(np.max(np.abs(details[lvl] - cur @ G.T)))
                )
                cur = cur @ H.T
            worst_oracle = max(worst_oracle, float(np.max(np.abs(approx - cur))))

    passed = worst_parseval <= 1e-9 and worst_oracle <= 1e-10
    report(1, passed,
           f"Parseval worst {worst_parseval:.2e} (<=1e-9), "
           f"matrix oracle worst {worst_oracle:.2e} (<=1e-10)")
    assert worst_parseval <= 1e-9
    assert worst_oracle <= 1e-10


# -- criterion 2: noise statistics ------------------------------------------


def test_c2_noise_statistics(pipes, pulse, noise):
    trials = 10_000
    pipe = pipes[(4,)]
    F = pipe.noise_steady(noise, trials, seed=derive_seed(ROOT, 20))
    m = F.size
    var_coeff = float(np.mean(F**2))
    bound_coeff = 3.0 * np.sqrt(2.0 / m)

    t = pipe.details_of(pulse).steady_values()
    v = F @ t
    var_stat = float(np.mean(v**2))
    sigma_v2 = float(np.dot(t, t))
    bound_stat = 3.0 * np.sqrt(2.0 / trials)

    ok_coeff = abs(var_coeff - 1.0) <= bound_coeff
    ok_stat = abs(var_stat / sigma_v2 - 1.0) <= bound_stat
    passed = ok_coeff and ok_stat
    report(2, passed,
           f"coeff var {var_coeff:.5f} (|dev| {abs(var_coeff-1):.2e} <= {bound_coeff:.2e}), "
           f"statistic var ratio {var_stat/sigma_v2:.5f} "
           f"(|dev| {abs(var_stat/sigma_v2-1):.2e} <= {bound_stat:.2e})")
    assert ok_coeff
    assert ok_stat


# -- criterion 3: threshold correctness at the design Pfa -------------------


def test_c3_threshold_correctness(pipes, noise, optimum, svm):
    z = qfunc_inv(PFA)
    err_z = abs(z - 3.0902)
    ok_z = err_z <= 1e-4

    det_opt = optimum[MULTI]
    sigma_v = noise.sigma_n * float(np.linalg.norm(det_opt.steady_a()))
    err_vt = abs(det_opt.v_threshold - sigma_v * z)
    ok_vt = err_vt <= 1e-12

    _, det_svm = svm[MULTI]
    res = realized_pfa_mc(
        [det_opt, det_svm], noise, 1_000_000,
        seed=derive_seed(ROOT, 30), pipe=pipes[MULTI],
    )
    ok_pfa = all(0.5e-3 <= p <= 2e-3 for p, _ in res)
    passed = ok_z and ok_vt and ok_pfa
    report(3, passed,
           f"Qinv(1e-3)={z:.6f} (err {err_z:.1e} <= 1e-4), "
           f"V_T err {err_vt:.1e}, realized Pfa "
           f"optimum={res[0][0]:.2e} svm={res[1][0]:.2e} in [5e-4, 2e-3]")
    assert ok_z
    assert ok_vt
    assert ok_pfa


# -- criterion 4: matched-filter ceiling -------------------------------------


def test_c4_matched_filter_ceiling(pipes, pulse, noise, optimum):
    pipe = pipes[MULTI]
    d = pipe.details_of(pulse)
    det = optimum[MULTI]
    pd_opt = np.array(
        [analytic_stats(d, det.a, s, noise, det.v_threshold).pd for s in GRID]
    )

    mask = pipe.layout.steady_mask()
    g = substream(derive_seed(ROOT, 40))
    z = qfunc_inv(PFA)
    worst_excess = -np.inf
    for _ in range(100):
        a = np.zeros(pipe.layout.total_length)
        a[mask] = g.standard_normal(int(mask.sum()))
        a[mask] /= np.linalg.norm(a[mask])
        vt = noise.sigma_n * z
        pd_a = np.array([analytic_stats(d, a, s, noise, vt).pd for s in GRID])
        worst_excess = max(worst_excess, float(np.max(pd_a - pd_opt)))
    ok_ceiling = worst_excess <= 1e-12

    a_num = numerical_optimum_a(d, tol=1e-12, seed=derive_seed(ROOT, 41))
    cosine = float(np.dot(a_num, det.a))
    ok_cosine = cosine >= 1.0 - 1e-6
    passed = ok_ceiling and ok_cosine
    report(4, passed,
           f"100 random weightings: worst Pd excess {worst_excess:.2e} (<=1e-12); "
           f"numerical maximizer cosine 1-{1.0-cosine:.2e} (>=1-1e-6)")
    assert ok_ceiling
    assert ok_cosine


# -- criterion 5: single-scale SVM tracks theory ------------------------------


def test_c5_single_scale_svm_tracks_theory(pipes, theory, svm_curves):
    worst_z = -np.inf
    for b in SINGLES:
        th = theory[b]
        curve = svm_curves[b]
        se = curve_se(curve, floor_from=th)
        worst_z = max(worst_z, float(np.max((curve.pd_values() - th) / se)))
    ok_ceiling = worst_z <= 3.0

    dims = {b: pipes[b].layout.steady_length for b in SINGLES}
    lowest_two = sorted(SINGLES, key=lambda b: dims[b])[:2]
    window = [i for i, s in enumerate(GRID) if -10.0 <= s <= 0.0]
    worst_gap = 0.0
    for b in lowest_two:
        diff = np.abs(svm_curves[b].pd_values() - theory[b])
        worst_gap = max(worst_gap, float(np.max(diff[window])))
    ok_gap = worst_gap <= 0.05
    passed = ok_ceiling and ok_gap
    report(5, passed,
           f"below-theory margin: max z {worst_z:.2f} (<=3); "
           f"scales {sorted(dims[b] for b in lowest_two)}-dim tracks theory "
           f"within {worst_gap:.4f} (<=0.05) on [-10, 0] dB")
    assert ok_ceiling
    assert ok_gap


# -- criterion 6: multi-scale beats single scale ------------------------------


def test_c6_multi_scale_gains(theory, svm_curves):
    t_multi = theory[MULTI]
    t_mid = theory[(4, 5, 6)]
    t_single = theory[(4,)]
    ok_chain = bool(
        np.all(t_multi >= t_mid - 1e-12) and np.all(t_mid >= t_single - 1e-12)
    )

    multi = svm_curves[MULTI]
    pd_multi = multi.pd_values()
    se_multi = curve_se(multi)
    worst = np.inf
    for b in SINGLES:
        single = svm_curves[b]
        se_comb = np.sqrt(se_multi**2 + curve_se(single) ** 2)
        margin = (pd_multi - single.pd_values()) / se_comb
        worst = min(worst, float(np.min(margin)))
    ok_svm = worst >= -3.0
    passed = ok_chain and ok_svm
    report(6, passed,
           f"theory chain {{3,4,5,6}} >= {{4,5,6}} >= {{4}} holds: {ok_chain}; "
           f"multi-scale SVM vs best single: min margin z {worst:.2f} (>=-3)")
    assert ok_chain
    assert ok_svm


# -- criterion 7: optimum dominates the max-coefficient baseline --------------


def test_c7_baseline_dominance(pipes, pulse, noise, optimum):
    pipe = pipes[MULTI]
    det_opt = optimum[MULTI]
    cal_seed = derive_seed(ROOT, 70)
    vt_mc = threshold_for_pfa_mc(det_opt.a, pipe, noise, PFA, CAL_TRIALS, cal_seed)
    det_opt_mc = LinearDetector(
        a=det_opt.a, layout=det_opt.layout, v_threshold=vt_mc, target_pfa=PFA,
        calibration=Calibration(
            "monte_carlo", trials=CAL_TRIALS, seed=cal_seed, rng_id=RNG_ID
        ),
        detector_id="optimum-mc",
    )
    det_base = calibrate_max_coeff(pipe, noise, PFA, CAL_TRIALS, cal_seed)

    curve_seed = derive_seed(ROOT, 71)
    c_opt = sweep_curve(det_opt_mc, pulse, GRID, noise, CURVE_TRIALS, curve_seed, pipe)
    c_base = sweep_curve(det_base, pulse, GRID, noise, CURVE_TRIALS, curve_seed, pipe)
    se_comb = np.sqrt(curve_se(c_opt) ** 2 + curve_se(c_base) ** 2)
    margin = (c_opt.pd_values() - c_base.pd_values()) / se_comb
    worst = float(np.min(margin))
    passed = worst >= -3.0
    report(7, passed,
           f"optimum vs max-|coeff| baseline at matched Pfa: "
           f"min margin z {worst:.2f} (>=-3) across {len(GRID)} SNR points")
    assert passed


# -- criterion 8: linear complexity -------------------------------------------


def test_c8_linear_complexity(filters, noise):
    lengths = [2**k for k in range(8, 15)]
    costs = []
    for n in lengths:
        pulse_n = make_chirp(n)
        pipe = FeaturePipe.for_scales(n, filters, (4,))
        det = optimum_a(pipe.details_of(pulse_n), PFA, noise)
        obs = make_observation(pulse_n, -5.0, noise, seed=derive_seed(ROOT, 80, n))
        with count_ops() as ops:
            d = pipe.details_of(obs)
            statistic(d, det)
        costs.append(ops.madds)

    slope, intercept = np.polyfit(lengths, costs, 1)
    fit = slope * np.asarray(lengths, dtype=float) + intercept
    ratio = float(np.max(np.maximum(costs / fit, fit / costs)))
    passed = slope > 0 and ratio <= 1.3
    report(8, passed,
           f"madds across N=2^8..2^14 fit {slope:.2f}*N{intercept:+.0f}, "
           f"worst point/fit ratio {ratio:.4f} (<=1.3)")
    assert passed


# -- criterion 9: SMO against a dense QP oracle --------------------------------


def project_box_hyperplane(v, y, box):
    """Euclidean projection onto {0 <= a <= box, y @ a = 0} by bisection."""
    brk = float(np.max(np.abs(v)) + np.max(box) + 1.0)
    lo, hi = -brk, brk
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float(y @ np.clip(v - mid * y, 0.0, box)) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi) * y, 0.0, box)


def pg_dual_oracle(K, y, box, tol=1e-10, max_iters=200_000):
    """Projected gradient ascent on the SVM dual, run to a tight fixed point."""
    Ky = K * np.outer(y, y)
    lam = float(np.linalg.eigvalsh(Ky)[-1])
    step = 1.0 / max(lam, 1e-12)
    a = np.zeros(len(y))
    for _ in range(max_iters):
        grad = 1.0 - Ky @ a
        new = project_box_hyperplane(a + step * grad, y, box)
        delta = float(np.max(np.abs(new - a)))
        a = new
        if delta <= tol:
            break
    return float(np.sum(a) - 0.5 * a @ Ky @ a), a


def test_c9_smo_against_qp_oracle():
    layout = ScaleLayout((1,), 16, 5)
    worst_gap = 0.0
    worst_kkt = 0.0
    tol = 1e-8
    for case in range(25):
        g = substream(derive_seed(ROOT, 90, case))
        X = g.standard_normal((10, 3))
        y = np.array([1.0] * 5 + [-1.0] * 5)
        g.shuffle(y)
        c_plus = float(g.choice([0.3, 1.0, 3.0]))
        c_minus = float(g.choice([0.3, 1.0, 3.0]))

        ts = TrainingSet(X=X, y=y, layout=layout)
        model = train(ts, c_plus, c_minus, kkt_tolerance=tol, max_passes=100_000)
        assert model.converged, f"case {case}: SMO hit the pass limit"

        box = np.where(y > 0, c_plus, c_minus)
        obj_pg, _ = pg_dual_oracle(X @ X.T, y, box)
        worst_gap = max(worst_gap, abs(model.dual_objective - obj_pg))
        worst_kkt = max(worst_kkt, kkt_violation(model, X))

    passed = worst_gap <= 1e-6 and worst_kkt <= tol
    report(9, passed,
           f"25 random problems: worst |dual - oracle| {worst_gap:.2e} (<=1e-6), "
           f"worst KKT violation {worst_kkt:.2e} (<={tol})")
    assert worst_gap <= 1e-6
    assert worst_kkt <= tol
