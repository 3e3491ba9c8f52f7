"""Fast tests of the benchmark itself: the oracle, tiny workloads, and
that its checks catch a wrong answer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import oracle  # noqa: E402
import workloads as W  # noqa: E402

R2 = math.sqrt(2.0)

TINY_PD = W.PdCurveSize(length=256, family="db2", scales=(2, 3), pfa=0.02,
                        snr_grid=(-10.0, -5.0, 0.0), cal_trials=5000,
                        trials_per_point=512, pfa_check_trials=4096)
TINY_STUDY = W.StudySize(length=128, family="db2", scale_sets=((1,), (1, 2)),
                         snr_min=-3.0, trials_per_point=100, n_per_class=100,
                         pfa_check_trials=4000)
TINY_STREAM = W.StreamSize(length=256, family="db2", scales=(2, 3), cal_trials=2048,
                           n_per_class=100, observations=256)


def test_haar_filters_and_pyramid_by_hand():
    h, g = oracle.daubechies(1)
    np.testing.assert_allclose(h, [1 / R2, 1 / R2], atol=1e-15)
    np.testing.assert_allclose(g, [1 / R2, -1 / R2], atol=1e-15)
    # out[k] = f0 x[2k] + f1 x[2k - 1 mod 4]
    d1, d2 = oracle.details(np.array([1.0, 2.0, 3.0, 4.0]), h, g, 2)
    np.testing.assert_allclose(d1[0], [(1 - 4) / R2, (3 - 2) / R2], atol=1e-15)
    np.testing.assert_allclose(d2[0], [0.0], atol=1e-15)  # approximation [5/r2, 5/r2]


def test_db2_filter_closed_form():
    h, _ = oracle.daubechies(2)
    s3 = math.sqrt(3.0)
    want = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * R2)
    np.testing.assert_allclose(h, want, atol=1e-14)


def test_closed_form_pd_and_binomial_test():
    # Pfa = 0.5 puts the threshold at 0; a unit deflection gives Q(-1)
    assert oracle.pd_optimum(0.0, np.array([1.0]), 0.5) == pytest.approx(0.8413447460685429)
    assert oracle.binomial_consistent(500, 1000, 0.5)
    assert not oracle.binomial_consistent(600, 1000, 0.5)
    assert oracle.binomial_consistent(4095, 4096, 1 - 1e-5)  # one miss near Pd = 1


def test_svm_primal_matches_brute_force_over_b():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    w = rng.normal(size=4)
    f, c = X @ w, np.where(y > 0, 0.5, 3.0)
    brute = min(np.maximum(0.0, 1.0 - y * (f + b)) @ c for b in y - f) + 0.5 * w @ w
    assert oracle.svm_primal(X, y, w, 0.5, 3.0) == pytest.approx(brute, rel=1e-12)


def _run(wl):
    wl.setup()
    calls = wl.round()
    assert calls and all(c.seconds > 0 for c in calls)
    return wl


def test_pd_curve_tiny_passes_then_catches_a_perturbed_pd():
    wl = _run(W.PdCurve(3, TINY_PD))
    assert wl.check() == []
    vt, opt, base = wl.curves[0]
    snr, pd, se = opt[1]
    wl.curves[0] = (vt, (opt[0], (snr, pd - 0.3 if pd > 0.5 else pd + 0.3, se), opt[2]), base)
    assert any("closed form" in p for p in wl.check())


def test_study_tiny_passes_then_catches_a_lowered_threshold(tmp_path):
    wl = _run(W.Study(3, TINY_STUDY, str(tmp_path)))
    assert wl.check() == []
    assert len(wl.fit_summary) == 4 and all(gap < TINY_STUDY.gap_tol
                                            for *_, gap in wl.fit_summary)
    report = wl.reports[0]
    label = report.labels[0]
    det = report.svm_detectors[label]
    sigma_v = float(np.linalg.norm(det.steady_a()))
    report.svm_detectors[label] = dataclasses.replace(
        det, v_threshold=det.v_threshold - 0.5 * sigma_v)
    assert any("realized Pfa" in p for p in wl.check())


def test_stream_tiny_passes_then_catches_a_flipped_decision(tmp_path):
    wl = _run(W.StreamDetect(3, TINY_STREAM, str(tmp_path)))
    assert wl.check() == []
    wl.decisions[0][7, 2] = not wl.decisions[0][7, 2]
    assert any("svm.decision disagrees" in p for p in wl.check())


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pd_curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
