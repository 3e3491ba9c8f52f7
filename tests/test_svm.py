"""SMO solver and training pipeline tests.

The two-pattern problems have closed-form solutions worked out by hand,
which pins the box clipping, the bias midpoint rule, and the update
algebra. Larger random problems are cross-checked against a dense
projected-gradient oracle in the acceptance suite.
"""

import numpy as np
import pytest

from wavedet import (
    FeaturePipe,
    NoiseModel,
    amplitude,
    build_training_set,
    calibrate_bias,
    decision,
    realized_pfa_mc,
    statistic,
    train,
    tune_c_for_pfa,
)
from oracles import dense_steady, kkt_violation, reference_smo
from wavedet import svm as svm_module
from wavedet.rng import normal, substream, uniform
from wavedet.svm import TrainingSet, SvmModel
from wavedet.wavelet import ScaleLayout


def tiny_set(X, y, layout):
    return TrainingSet(
        X=np.asarray(X, dtype=float),
        y=np.asarray(y, dtype=float),
        layout=layout,
        snr_range=(-15.0, 0.0),
    )


@pytest.fixture
def layout2(pipe34):
    # only steady_length matters for the solver; reuse a real layout when
    # the feature dimension matches, otherwise build tiny sets manually
    return pipe34.layout


def test_two_separable_points(pipe34):
    # +1 at (2, 0, ...), -1 at (-2, 0, ...): margin plane x1 = 0,
    # alpha = 2 / ||x1 - x2||^2 = 0.125, w = (0.5, 0, ...), b = 0
    dim = pipe34.layout.steady_length
    X = np.zeros((2, dim))
    X[0, 0] = 2.0
    X[1, 0] = -2.0
    ts = tiny_set(X, [1.0, -1.0], pipe34.layout)
    model = train(ts, 10.0, 10.0, kkt_tolerance=1e-10)
    assert model.converged
    np.testing.assert_allclose(model.alphas, [0.125, 0.125], atol=1e-12)
    np.testing.assert_allclose(model.w[0], 0.5, atol=1e-12)
    np.testing.assert_allclose(model.w[1:], 0.0, atol=1e-12)
    assert abs(model.b) < 1e-12
    assert model.support_count == 2
    # dual identity for the linear kernel
    assert model.dual_objective == pytest.approx(
        np.sum(model.alphas) - 0.5 * np.dot(model.w, model.w), abs=1e-12
    )


def test_two_points_hit_the_box(pipe34):
    # same geometry but tiny C: both multipliers clip at their bounds
    dim = pipe34.layout.steady_length
    X = np.zeros((2, dim))
    X[0, 0] = 0.1
    X[1, 0] = -0.1
    ts = tiny_set(X, [1.0, -1.0], pipe34.layout)
    model = train(ts, 0.5, 0.5, kkt_tolerance=1e-10, max_passes=100)
    np.testing.assert_allclose(model.alphas, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(model.w[0], 0.1, atol=1e-12)
    assert abs(model.b) < 1e-12


def test_identical_patterns_take_the_whole_step(pipe34):
    # one pattern labelled both ways: eta = 0, so the objective is linear in
    # the step and t goes to the bound C+ = 0.5; then F_i = F_j = -1 closes
    # the violation, giving b = -1 and w = 0.5 x - 0.5 x = 0
    dim = pipe34.layout.steady_length
    X = np.zeros((2, dim))
    X[:, 0], X[:, 3] = 0.7, -1.3
    ts = tiny_set(X, [1.0, -1.0], pipe34.layout)
    model = train(ts, 0.5, 2.0, kkt_tolerance=1e-10)
    assert model.converged and model.n_passes == 1
    np.testing.assert_array_equal(model.alphas, [0.5, 0.5])
    np.testing.assert_array_equal(model.w, 0.0)
    assert model.b == -1.0
    assert model.support_count == 2


def test_a_rounding_residue_snaps_onto_its_bound():
    # three patterns in R^3, one positive, C = 3: a free step moves beta_0 and
    # beta_1 by 0.654..., a clipped step takes beta_0 to 3 and beta_2 to
    # -(3 - 0.654...), and the last step moves beta_1 up to 0 against beta_2
    # down to -3.  The two step limits differ in their last bits, so beta_1
    # lands 2.2e-16 from 0 unless it is snapped onto the bound.
    layout = ScaleLayout((1,), 16, 5)
    X = [[-0.07, 1.25, -0.61], [-0.42, 1.98, 0.94], [-0.3, 0.8, -0.09]]
    ts = tiny_set(X, [1.0, -1.0, -1.0], layout)
    model = train(ts, 3.0, 3.0, kkt_tolerance=1e-8)
    assert model.converged
    np.testing.assert_array_equal(model.alphas, [3.0, 0.0, 3.0])
    assert model.support_count == 2


def test_asymmetric_box_respected(pipe34):
    dim = pipe34.layout.steady_length
    g = np.random.default_rng(2)
    X = g.standard_normal((30, dim)) * 0.1
    y = np.where(np.arange(30) < 15, 1.0, -1.0)
    X[y > 0, 0] += 0.05
    X[y < 0, 0] -= 0.05
    ts = tiny_set(X, y, pipe34.layout)
    model = train(ts, 0.3, 2.0, kkt_tolerance=1e-6)
    assert np.all(model.alphas[y > 0] <= 0.3 + 1e-12)
    assert np.all(model.alphas[y < 0] <= 2.0 + 1e-12)
    assert np.all(model.alphas >= -1e-12)
    assert abs(np.dot(model.alphas, y)) <= 1e-6 + 1e-12
    assert model.c_plus == 0.3 and model.c_minus == 2.0
    # bound membership is exact: each alpha sits on 0 or C, or clearly inside
    a, box = model.alphas, np.where(y > 0, 0.3, 2.0)
    inside = (a >= 1e-12 * box) & (a <= box * (1.0 - 1e-12))
    assert np.all((a == 0.0) | (a == box) | inside)
    assert 0 < np.count_nonzero(inside) < 30
    assert not np.any(np.signbit(a))


def test_objective_history_is_monotone(pipe34):
    dim = pipe34.layout.steady_length
    g = np.random.default_rng(5)
    X = g.standard_normal((60, dim))
    y = np.sign(X[:, 0] + 0.3 * g.standard_normal(60))
    y[y == 0] = 1.0
    ts = tiny_set(X, y, pipe34.layout)
    model = train(ts, 1.0, 1.0)
    hist = np.asarray(model.objective_history)
    assert hist.size == model.n_passes
    assert np.all(np.diff(hist) >= -1e-9)
    assert model.dual_objective == pytest.approx(hist[-1])


def test_kkt_violation_reflects_convergence(pipe34):
    dim = pipe34.layout.steady_length
    g = np.random.default_rng(9)
    X = g.standard_normal((40, dim))
    y = np.where(g.standard_normal(40) > 0, 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    ts = tiny_set(X, y, pipe34.layout)
    model = train(ts, 1.0, 1.0, kkt_tolerance=1e-4)
    assert model.converged
    assert kkt_violation(model, ts.X) <= 1e-4


def test_training_set_structure(pulse256, db5, noise):
    ts = build_training_set(
        pulse256, (3, 4), db5, noise, 50, 70, (-12.0, -2.0), seed=123
    )
    assert ts.n_patterns == 120
    assert ts.X.shape == (120, 28)
    np.testing.assert_array_equal(ts.y[:50], 1.0)
    np.testing.assert_array_equal(ts.y[50:], -1.0)
    assert ts.snr_range == (-12.0, -2.0)
    # reproducible
    ts2 = build_training_set(
        pulse256, (3, 4), db5, noise, 50, 70, (-12.0, -2.0), seed=123
    )
    np.testing.assert_array_equal(ts.X, ts2.X)


def test_positives_are_noise_patterns_plus_scaled_pulse_details(pulse256, pipe34, db5, noise):
    # the pyramid is linear, so a positive is the noise pattern on the
    # positives' path plus A_i mu, as a Pd curve scores F + A mu
    ts = build_training_set(pulse256, (3, 4), db5, noise, 300, 40, (-12.0, 0.0), seed=9)
    snrs = uniform(substream(9, (svm_module._PATH_SNR,)), 300, -12.0, 0.0)
    mu = pipe34.details_of(pulse256).steady_values()
    want = pipe34.noise_steady(noise, 300, 9, (svm_module._PATH_POS,))
    want += amplitude(snrs, noise)[:, None] * mu
    np.testing.assert_array_equal(ts.X[:300], want)
    np.testing.assert_array_equal(ts.X[300:],
                                  pipe34.noise_steady(noise, 40, 9, (svm_module._PATH_NEG,)))


def test_positives_match_the_dense_oracle_on_time_domain_observations(pulse256, db5):
    # the same noise samples with each trial's pulse added before the
    # transform, run through dense stage matrices instead of the pyramid
    model = NoiseModel(sigma_n=1.3)
    ts = build_training_set(pulse256, (3, 4), db5, model, 200, 20, (-15.0, 5.0), seed=4)
    snrs = uniform(substream(4, (svm_module._PATH_SNR,)), 200, -15.0, 5.0)
    X = normal(substream(4, (svm_module._PATH_POS, 0)), (200, 256), model.sigma_n)
    X += amplitude(snrs, model)[:, None] * pulse256.samples
    np.testing.assert_allclose(ts.X[:200], dense_steady(X, db5, ts.layout), rtol=0, atol=1e-12)


def test_decision_matches_detector_statistic(pulse256, pipe34, db5, noise):
    ts = build_training_set(
        pulse256, (3, 4), db5, noise, 80, 80, (-12.0, 0.0), seed=3
    )
    model = train(ts, 1.0, 10.0)
    det = calibrate_bias(model, noise, pipe34, 0.01, 20_000, seed=14)
    d = pipe34.details_of(pulse256)
    v_direct = decision(model, d) - model.b
    v_det = statistic(d, det)
    assert v_direct == pytest.approx(v_det, abs=1e-12)
    np.testing.assert_array_equal(det.a, model.layout.embed(model.w))
    assert det.calibration.method == "monte_carlo"
    assert det.detector_id == "svm-d3_4"


def test_calibrated_bias_hits_target_pfa(pulse256, pipe34, db5, noise):
    ts = build_training_set(
        pulse256, (3, 4), db5, noise, 80, 80, (-12.0, 0.0), seed=3
    )
    model = train(ts, 1.0, 10.0)
    det = calibrate_bias(model, noise, pipe34, 0.02, 30_000, seed=15)
    (pfa_hat, se) = realized_pfa_mc([det], noise, 30_000, seed=77, pipe=pipe34)[0]
    assert abs(pfa_hat - 0.02) < 5 * se


def test_tune_c_picks_an_admissible_point(pulse256, pipe34, db5, noise):
    ts = build_training_set(
        pulse256, (3, 4), db5, noise, 100, 100, (-12.0, 0.0), seed=6
    )
    model, det = tune_c_for_pfa(
        ts, noise, pipe34, 0.01, ((0.5, 5.0), (1.0, 10.0)), 20_000, 8, pulse256
    )
    assert (model.c_plus, model.c_minus) in {(0.5, 5.0), (1.0, 10.0)}
    assert det.target_pfa == 0.01


def test_tune_c_rejects_a_pipe_on_another_layout(monkeypatch, pulse256, db5, noise):
    ts = build_training_set(
        pulse256, (3, 4), db5, noise, 20, 20, (-12.0, 0.0), seed=6
    )
    fits = []
    monkeypatch.setattr(svm_module, "train", lambda *a, **k: fits.append(a))
    pipe3 = FeaturePipe.for_scales(256, db5, (3,))
    with pytest.raises(ValueError, match="layout"):
        tune_c_for_pfa(ts, noise, pipe3, 0.01, ((1.0, 10.0),), 20_000, 8, pulse256)
    assert fits == []


def test_train_input_validation(pipe34):
    dim = pipe34.layout.steady_length
    X = np.zeros((2, dim))
    X[0, 0], X[1, 0] = 1.0, -1.0
    ts = tiny_set(X, [1.0, -1.0], pipe34.layout)
    with pytest.raises(ValueError):
        train(ts, 0.0, 1.0)
    with pytest.raises(ValueError):
        train(ts, 1.0, 1.0, max_passes=0)
    with pytest.raises(ValueError):
        tiny_set(X, [1.0, 1.0], pipe34.layout)  # one class only
    for shape in ((2, 3), (3, 3), (4,)):
        with pytest.raises(ValueError, match="gram"):
            train(ts, 1.0, 1.0, gram=np.zeros(shape))


def test_model_validation(pipe34):
    with pytest.raises(ValueError):
        SvmModel(
            alphas=np.array([2.0, 0.5]),
            y=np.array([1.0, -1.0]),
            w=np.zeros(pipe34.layout.steady_length),
            b=0.0,
            c_plus=1.0,
            c_minus=1.0,
            kkt_tolerance=1e-3,
            converged=True,
            n_passes=1,
            objective_history=(1.0,),
            layout=pipe34.layout,
        )


@pytest.mark.parametrize("snr_range", [(-5.0, np.inf), (-np.inf, 0.0), (np.nan, 0.0)])
def test_build_training_set_rejects_a_non_finite_snr_range(pulse256, db5, noise, snr_range):
    with pytest.raises(ValueError, match="snr_range"):
        build_training_set(pulse256, (3, 4), db5, noise, 20, 20, snr_range, seed=3)


def test_build_training_set_rejects_a_reversed_snr_range_before_drawing(
    monkeypatch, pulse256, db5, noise
):
    draws = []
    monkeypatch.setattr(svm_module, "substream", lambda *a: draws.append(a))
    with pytest.raises(ValueError, match="snr_range"):
        build_training_set(pulse256, (3, 4), db5, noise, 20, 20, (0.0, -6.0), seed=3)
    assert draws == []


@pytest.mark.parametrize("bad", ["nan-pattern", "inf-pattern", "reversed-snr", "nan-snr"])
def test_training_set_rejects_non_finite_patterns_and_a_bad_snr_range(pipe34, bad):
    X = np.ones((2, pipe34.layout.steady_length))
    snr_range = (-6.0, 0.0)
    if bad == "nan-pattern":
        X[1, 3] = np.nan
    elif bad == "inf-pattern":
        X[0, 0] = -np.inf
    elif bad == "reversed-snr":
        snr_range = (0.0, -6.0)
    else:
        snr_range = (np.nan, 0.0)
    with pytest.raises(ValueError, match="finite"):
        TrainingSet(X=X, y=[1, -1], layout=pipe34.layout, snr_range=snr_range)


def _reference_case(name, pipe34, pulse256, db5, noise):
    """(training set, c_plus, c_minus, kkt_tolerance, max_passes) for one case."""
    g = np.random.default_rng(sum(map(ord, name)))
    tiny = ScaleLayout((1,), 16, 5)  # 3 features
    if name.startswith("random"):
        n, layout = (60, tiny) if name == "random-small" else (300, pipe34.layout)
        X = g.standard_normal((n, layout.steady_length))
        y = np.where(X[:, 0] + g.standard_normal(n) > 0, 1.0, -1.0)
        return tiny_set(X, y, layout), 1.0, 1.0, 1e-8, 10_000
    if name == "c-plus-ne-c-minus":
        ts = build_training_set(pulse256, (3, 4), db5, noise, 100, 100, (-12.0, 0.0), seed=3)
        return ts, 0.3, 10.0, 1e-4, 10_000
    if name == "eta-not-positive":
        X = np.zeros((4, pipe34.layout.steady_length))
        X[:, 0] = [0.7, 0.7, -0.4, 0.9]
        X[:2, 3] = -1.3
        return tiny_set(X, [1.0, -1.0, -1.0, 1.0], pipe34.layout), 0.5, 2.0, 1e-10, 10_000
    if name == "snapped-residue":
        X = [[-0.07, 1.25, -0.61], [-0.42, 1.98, 0.94], [-0.3, 0.8, -0.09]]
        return tiny_set(X, [1.0, -1.0, -1.0], tiny), 3.0, 3.0, 1e-8, 10_000
    # pass-limit: a hard problem stopped after two passes
    X = g.standard_normal((120, pipe34.layout.steady_length))
    y = np.where(g.standard_normal(120) > 0, 1.0, -1.0)
    return tiny_set(X, y, pipe34.layout), 10.0, 100.0, 1e-12, 2


@pytest.mark.parametrize("case", [
    "random-small", "random-large", "c-plus-ne-c-minus", "eta-not-positive",
    "snapped-residue", "pass-limit",
])
def test_train_matches_the_frozen_reference_loop(case, pipe34, pulse256, db5, noise):
    # the allocation-free step must take the reference's arithmetic step for
    # step, so every output is byte-identical with or without a shared gram
    ts, c_plus, c_minus, tol, max_passes = _reference_case(case, pipe34, pulse256, db5, noise)
    beta, b, converged, n_passes, history = reference_smo(
        ts.X, ts.y, c_plus, c_minus, tol, max_passes
    )
    for gram in (None, ts.X @ ts.X.T):
        m = train(ts, c_plus, c_minus, tol, max_passes, gram=gram)
        assert m.alphas.tobytes() == np.abs(beta).tobytes()
        assert m.w.tobytes() == (ts.X.T @ beta).tobytes()
        assert np.float64(m.b).tobytes() == np.float64(b).tobytes()
        assert (m.converged, m.n_passes) == (converged, n_passes)
        assert np.asarray(m.objective_history).tobytes() == np.asarray(history).tobytes()
    if case == "pass-limit":
        assert not converged and n_passes == 2
    else:
        assert converged
    if case == "snapped-residue":
        np.testing.assert_array_equal(m.alphas, [3.0, 0.0, 3.0])
    if case == "c-plus-ne-c-minus":
        assert np.any(m.alphas == 0.3)  # some positive multiplier sits on its box


def test_tune_c_shares_one_gram_matrix_across_grid_points(
    monkeypatch, pulse256, pipe34, db5, noise
):
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    grams, cs, real_train = [], [], svm_module.train

    def spy(*args, **kwargs):
        grams.append(kwargs.get("gram"))
        cs.append(args[1:3])
        return real_train(*args, **kwargs)

    monkeypatch.setattr(svm_module, "train", spy)
    grid = ((0.5, 5.0), (1.0, 10.0), (2.0, 20.0))
    tune_c_for_pfa(ts, noise, pipe34, 0.05, grid, 4000, 8, pulse256)
    assert cs == list(grid)  # one fit per grid point, in grid order
    assert grams[0] is not None and all(g is grams[0] for g in grams)
    np.testing.assert_array_equal(grams[0], ts.X @ ts.X.T)


def test_tune_c_scores_every_grid_point_on_shared_noise(monkeypatch, pulse256, pipe34, db5, noise):
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    pfa_calls, validations = [], []
    real_pfa, real_pd = svm_module.realized_pfa_mc, svm_module.estimate_pd

    def pfa_spy(dets, *args):
        pfa_calls.append(list(dets))
        return real_pfa(dets, *args)

    def pd_spy(det, pulse, grid, model, trials, seed, pipe):
        validations.append((det, list(grid), seed))
        return real_pd(det, pulse, grid, model, trials, seed, pipe)

    monkeypatch.setattr(svm_module, "realized_pfa_mc", pfa_spy)
    monkeypatch.setattr(svm_module, "estimate_pd", pd_spy)
    grid = ((0.5, 5.0), (1.0, 10.0), (2.0, 20.0))
    _, det = tune_c_for_pfa(ts, noise, pipe34, 0.05, grid, 4000, 8, pulse256)
    # one realized-Pfa draw scores the calibrated detector of every grid point
    assert len(pfa_calls) == 1 and len(pfa_calls[0]) == len(grid)
    assert len({d.calibration.seed for d in pfa_calls[0]}) == len(grid)
    # each admissible point is validated once, over the whole SNR grid, all
    # on one seed, and the winner is one of them
    assert len(validations) >= 2
    order = [[d is e for e in pfa_calls[0]].index(True) for d, _, _ in validations]
    assert order == sorted(set(order))
    assert all(g == list(np.arange(-12.0, 0.5, 1.0)) for _, g, _ in validations)
    assert len({seed for _, _, seed in validations}) == 1
    assert any(d is det for d, _, _ in validations)
