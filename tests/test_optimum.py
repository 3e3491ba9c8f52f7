"""Closed-form detector weights and the independent numerical maximizer."""

import numpy as np
import pytest

from wavedet import (
    FeaturePipe,
    NoiseModel,
    analytic_stats,
    make_chirp,
    optimum_a,
    parse_family,
)
from oracles import numerical_optimum_a


def test_optimum_is_normalized_template(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-3, noise)
    s = d.steady_values()
    mask = pipe34.layout.steady_mask()
    np.testing.assert_allclose(det.a[mask], s / np.linalg.norm(s), atol=1e-14)
    # transient positions carry no weight
    assert np.all(det.a[~mask] == 0.0)
    assert det.detector_id == "optimum-d3_4"
    assert det.calibration.method == "analytic"


def test_optimum_beats_random_weights(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-3, noise)
    pd_opt = analytic_stats(d, det.a, -6.0, noise, det.v_threshold).pd
    g = np.random.default_rng(7)
    mask = pipe34.layout.steady_mask()
    for _ in range(20):
        a = np.zeros(pipe34.layout.total_length)
        a[mask] = g.standard_normal(mask.sum())
        a /= np.linalg.norm(a)
        vt = noise.sigma_n * np.linalg.norm(a[mask]) * 3.0902323061678135
        pd = analytic_stats(d, a, -6.0, noise, vt).pd
        assert pd <= pd_opt + 1e-12


def test_brute_force_grid_agrees_in_two_dims(noise):
    # haar at scale 2 on a 16-sample pulse leaves exactly two boundary-free
    # coefficients, so the whole weight space is a circle we can scan
    filters = parse_family("haar")
    pulse = make_chirp(16, 0.1, 0.35)
    pipe = FeaturePipe.for_scales(16, filters, (2,))
    d = pipe.details_of(pulse)
    s = d.steady_values()
    assert s.shape == (2,)
    assert np.linalg.norm(s) > 0.05

    det = optimum_a(d, 1e-2, noise)
    pd_opt = analytic_stats(d, det.a, -2.0, noise, det.v_threshold).pd

    mask = pipe.layout.steady_mask()
    best_pd, best_theta = -1.0, None
    for theta in np.deg2rad(np.arange(0.0, 360.0)):
        a = np.zeros(pipe.layout.total_length)
        a[mask] = [np.cos(theta), np.sin(theta)]
        vt = noise.sigma_n * 3.0902323061678135
        pd = analytic_stats(d, a, -2.0, noise, vt).pd
        if pd > best_pd:
            best_pd, best_theta = pd, theta
    assert best_pd <= pd_opt + 1e-12
    # winning grid angle lies within one degree of the template direction
    t_theta = np.arctan2(s[1], s[0]) % (2 * np.pi)
    diff = np.abs(best_theta - t_theta)
    assert min(diff, 2 * np.pi - diff) < np.deg2rad(1.0)


def test_numerical_maximizer_recovers_closed_form(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    det = optimum_a(d, 1e-3, noise)
    a_num = numerical_optimum_a(d, tol=1e-12, seed=3)
    assert a_num.shape == det.a.shape
    assert np.linalg.norm(a_num) == pytest.approx(1.0, abs=1e-9)
    cosine = float(np.dot(a_num, det.a))
    assert cosine >= 1.0 - 1e-9


def test_numerical_maximizer_seeds_agree(pipe34, pulse256, noise):
    d = pipe34.details_of(pulse256)
    a1 = numerical_optimum_a(d, seed=0)
    a2 = numerical_optimum_a(d, seed=99)
    np.testing.assert_allclose(a1, a2, atol=1e-6)


def test_optimum_requires_steady_energy(db5, noise):
    # a pulse living entirely in the top octave has no energy at scale 5
    x = np.zeros(256)
    x[::2] = 1.0
    x[1::2] = -1.0
    x /= np.sqrt(np.mean(x**2))
    from wavedet.signals import Hypothesis, SampledSignal

    pulse = SampledSignal(samples=x, hypothesis=Hypothesis.TEMPLATE)
    pipe = FeaturePipe.for_scales(256, db5, (5,))
    d = pipe.details_of(pulse)
    if np.linalg.norm(d.steady_values()) < 1e-9:
        with pytest.raises(ValueError):
            optimum_a(d, 1e-3, noise)
    else:
        pytest.skip("pulse leaks measurable energy into scale 5")
