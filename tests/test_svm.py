"""SMO solver and training pipeline tests.

The two-pattern problems have closed-form solutions worked out by hand,
which pins the box clipping, the bias midpoint rule, and the update
algebra. Larger random problems are cross-checked against a dense
projected-gradient oracle in the acceptance suite.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import wavedet
from wavedet import (
    FeaturePipe,
    NoiseModel,
    amplitude,
    analytic_stats,
    build_training_set,
    calibrate_bias,
    decision,
    make_chirp,
    realized_pfa_mc,
    statistic,
    threshold_for_pfa_analytic,
    train,
    tune_c_for_pfa,
)
from oracles import dense_steady, kkt_violation, reference_smo
from wavedet import svm as svm_module
from wavedet.rng import derive_seed, normal, substream, uniform
from wavedet.svm import TrainingSet, SvmModel
from wavedet.wavelet import ScaleLayout


def tiny_set(X, y, layout):
    return TrainingSet(
        X=np.asarray(X, dtype=float),
        y=np.asarray(y, dtype=float),
        layout=layout,
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


def test_tune_c_returns_a_grid_point_calibrated_at_the_target_pfa(pulse256, pipe34, db5, noise):
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
    for store in ([], [None], [None] * 3):
        with pytest.raises(ValueError, match="rows must hold 2 entries"):
            train(ts, 1.0, 1.0, rows=store)


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
def test_training_set_rejects_non_finite_patterns_and_a_bad_snr_range(
    pipe34, pulse256, db5, noise, bad
):
    # a TrainingSet checks its patterns; only its builder takes an SNR range
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
        if bad.endswith("pattern"):
            TrainingSet(X=X, y=[1, -1], layout=pipe34.layout)
        else:
            build_training_set(pulse256, (3, 4), db5, noise, 20, 20, snr_range, seed=3)


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
    # step and build the rows its steps use, so every output is
    # byte-identical whether the row store starts empty or full
    ts, c_plus, c_minus, tol, max_passes = _reference_case(case, pipe34, pulse256, db5, noise)
    beta, w, b, converged, n_passes, history, built = reference_smo(
        ts.X, ts.y, c_plus, c_minus, tol, max_passes
    )
    empty = [None] * ts.n_patterns
    for rows in (None, empty, [np.einsum("ij,j->i", ts.X, x) for x in ts.X]):
        m = train(ts, c_plus, c_minus, tol, max_passes, rows=rows)
        assert m.alphas.tobytes() == np.abs(beta).tobytes()
        assert m.w.tobytes() == w.tobytes()
        assert np.float64(m.b).tobytes() == np.float64(b).tobytes()
        assert (m.converged, m.n_passes) == (converged, n_passes)
        assert np.asarray(m.objective_history).tobytes() == np.asarray(history).tobytes()
    assert _built(empty) == built
    if case == "pass-limit":
        assert not converged and n_passes == 2
    else:
        assert converged
    if case == "snapped-residue":
        np.testing.assert_array_equal(m.alphas, [3.0, 0.0, 3.0])
    if case == "c-plus-ne-c-minus":
        assert np.any(m.alphas == 0.3)  # some positive multiplier sits on its box


def _built(rows):
    """Indices of the rows a store holds."""
    return {k for k, r in enumerate(rows) if r is not None}


def test_a_one_pass_fit_builds_only_the_rows_its_steps_use(pulse256, db5, noise):
    # at high SNR the classes separate and the fit converges in one pass;
    # its steps revisit few patterns, so most rows are never built
    ts = build_training_set(pulse256, (3, 4), db5, noise, 300, 300, (5.0, 15.0), seed=11)
    rows = [None] * ts.n_patterns
    m = train(ts, 1.0, 1.0, rows=rows)
    *_, converged, n_passes, _history, built = reference_smo(ts.X, ts.y, 1.0, 1.0, 1e-3, 10_000)
    assert m.converged and m.n_passes == 1 and (converged, n_passes) == (True, 1)
    assert _built(rows) == built
    assert len(built) <= ts.n_patterns // 10
    for k in built:
        assert rows[k].tobytes() == np.einsum("ij,j->i", ts.X, ts.X[k]).tobytes()


def test_tune_c_shares_one_gram_matrix_across_grid_points(
    monkeypatch, pulse256, pipe34, db5, noise
):
    # the shared Gram matrix is a row store: the rows of K = X X^T that the
    # fits have built so far, None where no step has picked the pattern yet
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    stores, cs, real_train = [], [], svm_module.train

    def spy(*args, **kwargs):
        stores.append(kwargs.get("rows"))
        cs.append(args[1:3])
        return real_train(*args, **kwargs)

    monkeypatch.setattr(svm_module, "train", spy)
    grid = ((0.5, 5.0), (1.0, 10.0), (2.0, 20.0))
    tune_c_for_pfa(ts, noise, pipe34, 0.05, grid, 4000, 8, pulse256)
    assert cs == list(grid)  # one fit per grid point, in grid order
    assert isinstance(stores[0], list) and len(stores[0]) == ts.n_patterns
    assert all(rows is stores[0] for rows in stores)
    assert _built(stores[0])
    for k in _built(stores[0]):
        assert stores[0][k].tobytes() == np.einsum("ij,j->i", ts.X, ts.X[k]).tobytes()


# the shapes of the MINI run, stream_detect's set, the reference sets and
# the largest study set
_GRAM_SHAPES = [(500, 28), (600, 200), (2000, 6), (2000, 22), (2000, 54), (2000, 82),
                (2000, 118), (2000, 200), (5000, 224)]

# those, the README's wavedet train, and an odd set whose gemv OpenBLAS
# splits unevenly over its threads
_BLAS_SHAPES = [*_GRAM_SHAPES, (4000, 194), (4001, 194)]

# one fit per shape on two shifted Gaussian classes, at most two passes;
# prints, per shape, a digest of its alphas, w and history, a digest of
# every Gram row it built, whether each such row is the fixed-order product
# of X and that pattern byte for byte, and the largest gap of the rows to
# OpenBLAS's X @ X.T relative to the tolerance rtol=1e-12, atol=1e-10
_FIT_DIGESTS = """
import hashlib, json, sys
import numpy as np
from wavedet.svm import TrainingSet, train
from wavedet.wavelet import ScaleLayout
out = {}
for n, d in json.loads(sys.argv[1]):
    y = np.where(np.arange(n) < n // 2, 1, -1)
    X = np.random.default_rng(n + d).standard_normal((n, d))
    X[:, 0] += 2.0 * y
    N = 1 << (2 * d + 2).bit_length()  # scale 1 keeps N/2 - L steady coefficients
    ts = TrainingSet(X=X, y=y, layout=ScaleLayout((1,), N, N // 2 - d))
    rows = [None] * n
    m = train(ts, 0.1, 0.1, max_passes=2, rows=rows)
    fit = hashlib.sha256(m.alphas.tobytes() + m.w.tobytes() + repr(m.objective_history).encode())
    gram, exact, gap = hashlib.sha256(), True, 0.0
    for k, r in enumerate(rows):
        if r is not None:
            gram.update(k.to_bytes(4, "little") + r.tobytes())
            exact &= r.tobytes() == np.einsum("ij,j->i", X, X[k]).tobytes()
            blas = X @ X[k]
            gap = max(gap, float(np.max(np.abs(r - blas) / (1e-10 + 1e-12 * np.abs(blas)))))
    out[f"{n}-{d}"] = {"fit": fit.hexdigest(), "gram": gram.hexdigest(),
                       "built": sum(r is not None for r in rows), "exact": exact, "gap": gap}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fit_digests_by_blas_threads():
    """Each shape's fit and Gram row digests from one fresh process per OpenBLAS thread count."""
    # the fresh interpreters import the same package as this one
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavedet.__file__)))
    out = {}
    for threads in ("1", "2", "4"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _FIT_DIGESTS, json.dumps(_BLAS_SHAPES)],
                             capture_output=True, text=True, check=True, env=env, timeout=300)
        out[threads] = json.loads(run.stdout)
    return out


def _by_threads(fit_digests_by_blas_threads, n, d):
    # OpenBLAS caps its pool at the usable CPUs, so a host with fewer than
    # four checks fewer distinct thread counts
    return {threads: by_shape[f"{n}-{d}"] for threads, by_shape in
            fit_digests_by_blas_threads.items()}


@pytest.mark.parametrize("n, d", _BLAS_SHAPES)
def test_a_fit_and_its_rows_do_not_depend_on_the_blas_thread_count(
    fit_digests_by_blas_threads, n, d
):
    runs = _by_threads(fit_digests_by_blas_threads, n, d)
    assert len({(r["fit"], r["gram"]) for r in runs.values()}) == 1, runs


@pytest.mark.parametrize("n, d", _GRAM_SHAPES)
def test_gram_is_x_xt_byte_for_byte_on_any_worker_count(fit_digests_by_blas_threads, n, d):
    # each Gram row a fit builds is the fixed-order product X X[k], to the
    # byte, whatever the number of OpenBLAS workers in the process
    runs = _by_threads(fit_digests_by_blas_threads, n, d)
    for threads, run in runs.items():
        assert run["built"] > 0 and run["exact"], f"{threads} threads"
        assert run["gap"] <= 1.0, f"{threads} threads"
    assert len({run["gram"] for run in runs.values()}) == 1, runs


def test_gram_of_an_odd_set_does_not_depend_on_the_worker_count(fit_digests_by_blas_threads):
    # at odd n OpenBLAS's threaded X @ X.T may move an entry by an ulp, but
    # the Gram rows a fit builds keep their bytes at every worker count
    runs = _by_threads(fit_digests_by_blas_threads, 4001, 194)
    for threads, run in runs.items():
        assert run["built"] > 0 and run["exact"], f"{threads} threads"
        assert run["gap"] <= 1.0, f"{threads} threads"
    assert len({run["gram"] for run in runs.values()}) == 1, runs


# the winner is the middle point: c_g is about 1.63, 2.00 and 1.69 on this set
_TUNE_GRID = ((0.1, 1.0), (1.0, 1.0), (10.0, 10.0))


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_a_fit_in_the_tuner_has_the_bytes_of_the_same_fit_trained_alone(
    monkeypatch, pulse256, pipe34, db5, noise, order
):
    # the grid points share one row store, so every fit after the first
    # starts on rows that others built; its bytes must not depend on them
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    grid = _TUNE_GRID if order == "forward" else _TUNE_GRID[::-1]
    fits, held, real_train = [], [], svm_module.train

    def spy(ts, c_plus, c_minus, **kwargs):
        held.append(len(_built(kwargs["rows"])))
        fits.append(real_train(ts, c_plus, c_minus, **kwargs))
        return fits[-1]

    monkeypatch.setattr(svm_module, "train", spy)
    tune_c_for_pfa(ts, noise, pipe34, 0.05, grid, 4000, 8, pulse256)
    monkeypatch.undo()
    assert held[0] == 0 and all(h > 0 for h in held[1:])
    for fit, (c_plus, c_minus) in zip(fits, grid, strict=True):
        alone = train(ts, c_plus, c_minus)
        assert fit.alphas.tobytes() == alone.alphas.tobytes()
        assert fit.w.tobytes() == alone.w.tobytes()
        assert np.float64(fit.b).tobytes() == np.float64(alone.b).tobytes()
        assert (fit.n_passes, fit.objective_history) == (alone.n_passes, alone.objective_history)


def _tune_spied(monkeypatch, ts, grid, pipe, noise, pulse, seed=8):
    """Run the tuner with train and calibrate_bias recorded."""
    fits, cals = [], []
    real_train, real_cal = svm_module.train, svm_module.calibrate_bias

    def train_spy(*args, **kwargs):
        fits.append(real_train(*args, **kwargs))
        return fits[-1]

    def cal_spy(*args):
        cals.append(args)
        return real_cal(*args)

    monkeypatch.setattr(svm_module, "train", train_spy)
    monkeypatch.setattr(svm_module, "calibrate_bias", cal_spy)
    model, det = tune_c_for_pfa(ts, noise, pipe, 0.05, grid, 4000, seed, pulse)
    return model, det, fits, cals


def test_tune_c_calibrates_only_the_grid_point_of_largest_deflection(
    monkeypatch, pulse256, pipe34, db5, noise
):
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    model, det, fits, cals = _tune_spied(monkeypatch, ts, _TUNE_GRID, pipe34, noise, pulse256)
    mu = pipe34.details_of(pulse256).steady_values()
    c = [m.w @ mu / np.linalg.norm(m.w) for m in fits]
    gi = int(np.argmax(c))
    assert gi == 1 and len(set(c)) == 3
    assert len(cals) == 1 and cals[0][0] is fits[gi] and model is fits[gi]
    assert cals[0][1:] == (noise, pipe34, 0.05, 4000, derive_seed(8, gi, 0))
    fresh = calibrate_bias(fits[gi], noise, pipe34, 0.05, 4000, derive_seed(8, gi, 0))
    assert det.a.tobytes() == fresh.a.tobytes()
    assert (det.v_threshold, det.target_pfa, det.calibration, det.detector_id) == (
        fresh.v_threshold, fresh.target_pfa, fresh.calibration, fresh.detector_id)


def test_deflection_orders_fits_as_their_exact_mean_pd(pulse256, pipe34, db5, noise):
    # with the closed-form threshold for the target Pfa, a fit's Pd at every
    # SNR is Q(Qinv(pfa) - A c / sigma_n): the score ranks the fits exactly
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    details = pipe34.details_of(pulse256)
    grid = (*_TUNE_GRID, (0.5, 5.0), (2.0, 20.0))
    c, mean_pd = [], []
    for cp, cm in grid:
        m = train(ts, cp, cm)
        a = m.layout.embed(m.w)
        vt = threshold_for_pfa_analytic(a, pipe34.layout, noise, 0.05)
        pds = [analytic_stats(details, a, snr, noise, vt).pd for snr in np.arange(-12.0, 0.5)]
        c.append(svm_module._deflection(m, details.steady_values()))
        mean_pd.append(np.mean(pds))
    assert len(set(c)) == len(grid)
    assert np.argsort(c).tolist() == np.argsort(mean_pd).tolist()


def test_tune_c_resolves_identical_grid_points_to_the_first(
    monkeypatch, pulse256, pipe34, db5, noise
):
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    grid = ((0.1, 1.0), (1.0, 1.0), (1.0, 1.0))
    model, det, fits, cals = _tune_spied(monkeypatch, ts, grid, pipe34, noise, pulse256)
    assert fits[1].w.tobytes() == fits[2].w.tobytes()
    assert len(cals) == 1 and model is fits[1]
    assert det.calibration.seed == derive_seed(8, 1, 0)


def test_tune_c_rejects_a_fit_with_zero_weights(monkeypatch, pulse256, pipe34, db5, noise):
    ts = build_training_set(pulse256, (3, 4), db5, noise, 60, 60, (-12.0, 0.0), seed=6)
    real_train, cals = svm_module.train, []

    def zero_w_at_one_one(ts, c_plus, c_minus, **kwargs):
        m = real_train(ts, c_plus, c_minus, **kwargs)
        return replace(m, w=np.zeros_like(m.w)) if (c_plus, c_minus) == (1.0, 1.0) else m

    monkeypatch.setattr(svm_module, "train", zero_w_at_one_one)
    monkeypatch.setattr(svm_module, "calibrate_bias", lambda *a: cals.append(a))
    with pytest.raises(ValueError, match=r"\(1\.0, 1\.0\) has w = 0"):
        tune_c_for_pfa(ts, noise, pipe34, 0.05, _TUNE_GRID, 4000, 8, pulse256)
    assert cals == []


def test_tune_c_rejects_a_pulse_of_another_length_before_training(
    monkeypatch, pulse256, pipe34, db5, noise
):
    ts = build_training_set(pulse256, (3, 4), db5, noise, 20, 20, (-12.0, 0.0), seed=6)
    fits = []
    monkeypatch.setattr(svm_module, "train", lambda *a, **k: fits.append(a))
    with pytest.raises(ValueError, match="pulse length 128 does not match the pipe's signal "
                                         "length 256"):
        tune_c_for_pfa(ts, noise, pipe34, 0.01, ((1.0, 10.0),), 20_000, 8, make_chirp(128))
    assert fits == []
