import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wavedet import (
    Hypothesis,
    NoiseModel,
    amplitude,
    make_chirp,
    make_noise,
    make_observation,
)
from wavedet.signals import SampledSignal


def test_chirp_has_unit_power(pulse256):
    power = float(np.mean(pulse256.samples**2))
    assert abs(power - 1.0) < 1e-12
    assert pulse256.hypothesis is Hypothesis.TEMPLATE
    assert pulse256.snr_db is None


def test_chirp_sweeps_the_requested_band():
    sig = make_chirp(4096, 0.05, 0.45)
    x = sig.samples
    # instantaneous frequency estimated from zero-crossing spacing should
    # grow from around the start frequency to around the end frequency
    crossings = np.nonzero(np.diff(np.signbit(x)))[0]
    early = crossings[crossings < 400]
    late = crossings[crossings > 3700]
    f_early = 0.5 / np.mean(np.diff(early))
    f_late = 0.5 / np.mean(np.diff(late))
    assert 0.03 < f_early < 0.09
    assert 0.40 < f_late < 0.50


@pytest.mark.parametrize("f_start, f_end", [(0.05, 0.45), (0.45, 0.05), (0.1, 0.2),
                                             (0.001, 0.499)])
def test_chirp_matches_scipy_bytes(f_start, f_end):
    from scipy.signal import chirp

    for log_n in range(3, 17):
        n = 2**log_n
        t = np.arange(n, dtype=np.float64)
        x = chirp(t, f0=f_start, t1=float(n - 1), f1=f_end, method="linear")
        x = x / math.sqrt(float(np.mean(x * x)))
        assert make_chirp(n, f_start, f_end).samples.tobytes() == x.tobytes()


def test_import_leaves_scipy_signal_unloaded():
    import wavedet

    # the fresh interpreter imports the same package as this one
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavedet.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, wavedet; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_chirp_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        make_chirp(256, 0.0, 0.45)
    with pytest.raises(ValueError):
        make_chirp(256, 0.05, 0.5)
    with pytest.raises(ValueError):
        make_chirp(256, 0.2, 0.2)


def test_length_must_be_power_of_two():
    with pytest.raises(ValueError):
        make_chirp(100)
    with pytest.raises(ValueError):
        make_noise(12, NoiseModel(), 0)


def test_amplitude_formula():
    model = NoiseModel(sigma_n=2.0)
    # 10^(snr/20) * sigma^2
    assert amplitude(0.0, model) == pytest.approx(4.0)
    assert amplitude(-20.0, model) == pytest.approx(0.4)
    np.testing.assert_allclose(
        amplitude(np.array([0.0, -20.0]), model), [4.0, 0.4]
    )


def test_observation_is_scaled_template_plus_noise(pulse256):
    model = NoiseModel(sigma_n=0.5)
    obs = make_observation(pulse256, -6.0, model, seed=42)
    n = make_noise(256, model, seed=42)
    a = amplitude(-6.0, model)
    np.testing.assert_allclose(
        obs.samples, a * pulse256.samples + n.samples, rtol=0, atol=0
    )
    assert obs.hypothesis is Hypothesis.OBSERVATION
    assert obs.snr_db == -6.0
    assert obs.seed == 42


def test_noise_std_matches_model():
    model = NoiseModel(sigma_n=3.0)
    x = np.concatenate(
        [make_noise(1024, model, seed=s).samples for s in range(64)]
    )
    assert abs(x.std() - 3.0) < 0.02


def test_observation_requires_template(pulse256):
    model = NoiseModel()
    obs = make_observation(pulse256, -3.0, model, seed=1)
    with pytest.raises(ValueError):
        make_observation(obs, -3.0, model, seed=2)


def test_signal_arrays_are_immutable(pulse256):
    with pytest.raises(ValueError):
        pulse256.samples[0] = 99.0


def test_template_validation_rejects_wrong_power():
    x = np.ones(16) * 2.0
    with pytest.raises(ValueError):
        SampledSignal(samples=x, hypothesis=Hypothesis.TEMPLATE)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma_n=0.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma_n=-1.0)


@pytest.mark.parametrize("snr_db", [np.inf, -np.inf, np.nan, 1e4])
def test_observation_rejects_a_non_finite_snr_or_amplitude(pulse256, noise, snr_db):
    # 1e4 dB is finite but its amplitude overflows
    with pytest.raises(ValueError, match="snr_db"):
        make_observation(pulse256, snr_db, noise, seed=1)
    with pytest.raises(ValueError, match="snr_db"):
        amplitude(np.array([0.0, snr_db]), noise)
