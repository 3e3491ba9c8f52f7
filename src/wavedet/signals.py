"""Pulse, noise, and pulse-plus-noise signal generation.

The detection problem is binary: under the null hypothesis the observation
is white Gaussian noise, under the alternative it is the known unit-power
pulse template scaled by an SNR-dependent amplitude plus the same noise.
The amplitude convention is

    A = 10**(snr_db / 20) * sigma_n**2

i.e. the noise standard deviation enters squared.  With the default
sigma_n = 1 this reduces to the usual dB amplitude ratio; see the module
notes in the repository for why the squared form is kept as-is.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import normal, substream
from .wavelet import _require_pow2

_POWER_TOL = 1e-12


class Hypothesis(enum.Enum):
    """Which branch of the detection model a signal realises."""

    TEMPLATE = "template"        # the known, deterministic unit-power pulse
    NOISE = "noise"              # H0: noise only
    OBSERVATION = "observation"  # H1: scaled pulse + noise


@dataclass(frozen=True)
class NoiseModel:
    """White Gaussian noise with standard deviation ``sigma_n``."""

    sigma_n: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_n) and self.sigma_n > 0):
            raise ValueError(f"sigma_n must be positive and finite, got {self.sigma_n}")


@dataclass(frozen=True)
class SampledSignal:
    """A fixed-length real sample vector plus generation metadata.

    ``samples`` always has power-of-two length.  ``snr_db`` is present only
    for observations; ``seed`` only for stochastic signals.
    """

    samples: np.ndarray
    hypothesis: Hypothesis
    snr_db: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.samples, dtype=np.float64)
        _require_pow2(x.shape[0] if x.ndim == 1 else -1)
        if not np.isfinite(x).all():
            raise ValueError("samples must be finite")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)
        if self.hypothesis is Hypothesis.TEMPLATE:
            p = float(np.mean(x * x))
            if abs(p - 1.0) > _POWER_TOL:
                raise ValueError(f"template power {p!r} deviates from 1 by more than {_POWER_TOL}")
            if self.snr_db is not None:
                raise ValueError("a template carries no SNR")
        if self.hypothesis is Hypothesis.OBSERVATION and self.snr_db is None:
            raise ValueError("an observation requires snr_db")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")

    @property
    def length(self) -> int:
        return int(self.samples.shape[0])


def amplitude(snr_db, model: NoiseModel) -> np.ndarray:
    """Pulse amplitude A = 10**(snr_db/20) * sigma_n**2, elementwise for arrays.

    Every SNR becomes an amplitude here, so this is where a non-finite SNR,
    or one whose amplitude overflows, is rejected.
    """
    snr = np.asarray(snr_db, dtype=np.float64)
    # numpy squares a huge sigma_n to inf, where a Python float raises OverflowError
    with np.errstate(over="ignore"):
        amp = 10.0 ** (snr / 20.0) * np.float64(model.sigma_n) ** 2
    if not (np.isfinite(snr).all() and np.isfinite(amp).all()):
        got = f", got {float(snr)}" if snr.ndim == 0 else ""
        raise ValueError(f"snr_db must be finite with a finite amplitude{got}")
    return amp


def _check_band(f_start: float, f_end: float) -> None:
    """Chirp endpoints strictly inside (0, 0.5) cycles/sample, and distinct."""
    for name, f in (("f_start", f_start), ("f_end", f_end)):
        if not (0.0 < f < 0.5):
            raise ValueError(f"{name} must lie in (0, 0.5), got {f}")
    if f_start == f_end:
        raise ValueError("f_start and f_end must differ (degenerate sweep)")


def make_chirp(length: int, f_start: float = 0.05, f_end: float = 0.45) -> SampledSignal:
    """Unit-power linear chirp sweeping f_start -> f_end (cycles/sample).

    The instantaneous normalized frequency moves linearly from ``f_start``
    at the first sample to ``f_end`` at the last; the result is rescaled to
    unit empirical power.  Endpoints must lie strictly inside (0, 0.5) and
    differ, so the sweep is non-degenerate and alias-free.
    """
    _require_pow2(length)
    _check_band(f_start, f_end)
    t = np.arange(length, dtype=np.float64)
    # scipy.signal.chirp's linear phase, written out so that importing the
    # package does not load scipy.signal
    f0, f1 = float(f_start), float(f_end)
    beta = (f1 - f0) / float(length - 1)
    x = np.cos(2 * np.pi * (f0 * t + 0.5 * beta * t * t))
    x = x / math.sqrt(float(np.mean(x * x)))
    return SampledSignal(samples=x, hypothesis=Hypothesis.TEMPLATE)


def make_noise(length: int, model: NoiseModel, seed: int) -> SampledSignal:
    """White Gaussian noise realisation; bit-identical for identical inputs."""
    _require_pow2(length)
    x = normal(substream(seed), length, model.sigma_n)
    return SampledSignal(samples=x, hypothesis=Hypothesis.NOISE, seed=int(seed))


def make_observation(
    pulse: SampledSignal, snr_db: float, model: NoiseModel, seed: int
) -> SampledSignal:
    """Scaled pulse plus noise: A * template + n, with A = amplitude(snr_db)."""
    if pulse.hypothesis is not Hypothesis.TEMPLATE:
        raise ValueError("make_observation requires a pulse template input")
    n = normal(substream(seed), pulse.length, model.sigma_n)
    x = amplitude(snr_db, model) * pulse.samples + n
    return SampledSignal(
        samples=x, hypothesis=Hypothesis.OBSERVATION, snr_db=float(snr_db), seed=int(seed)
    )
