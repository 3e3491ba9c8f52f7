"""Linear detection statistic, thresholds, and Monte Carlo performance.

The statistic is v = sum over steady indices of a[k] * d[k], declared a
detection when v exceeds the threshold strictly (ties are "no detection").
Under noise-only input v is zero-mean Gaussian with standard deviation
sigma_v = sigma_n * ||a_steady||, because the periodic orthonormal filter
bank maps white noise to white coefficients; under pulse-plus-noise the
mean shifts by amplitude(snr) * <a, d_template> over the same index set.
Both the analytic model built on that fact and seeded Monte Carlo
estimators are provided, plus the max-absolute-coefficient baseline.  The
baseline's threshold has a closed form under the same model, Pfa = 1 -
(1 - 2 Q(t / sigma_n))^d over d steady coefficients, but it is calibrated
by Monte Carlo by choice.  The pyramid is linear, so a Monte Carlo Pd
curve draws noise features F once, on a path of its own, and scores every
SNR point on F + A mu (common random numbers): each point is still
Binomial(trials, Pd), but the points are correlated, and a linear
detector's curve is non-decreasing in SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc, ndtri

from .pipeline import FeaturePipe
from .rng import RNG_ID
from .signals import Hypothesis, NoiseModel, SampledSignal, amplitude
from .wavelet import DetailCoefficients, ScaleLayout, _detector_id, tally_madds

__all__ = [
    "qfunc",
    "qfunc_inv",
    "Calibration",
    "LinearDetector",
    "MaxCoeffDetector",
    "DetectorStats",
    "DetectionCurve",
    "statistic",
    "analytic_stats",
    "threshold_for_pfa_analytic",
    "threshold_for_pfa_mc",
    "estimate_pd",
    "realized_pfa_mc",
    "max_coeff_baseline",
    "calibrate_max_coeff",
    "sweep_curve",
    "snr_grid",
]

_SQRT2 = math.sqrt(2.0)

# a Pd curve's noise path: never a threshold's calibration noise (path ())
# nor a training set's (paths (0,), (1,), (2,)) at the same seed
_CURVE_PATH = (3,)


def qfunc(x: float) -> float:
    """Standard normal upper-tail probability Q(x) = P(Z > x)."""
    return 0.5 * float(erfc(float(x) / _SQRT2))


def qfunc_inv(p: float) -> float:
    """Inverse of qfunc: the x with Q(x) = p, i.e. -Phi^-1(p)."""
    _check_pfa(p, "tail probability")
    return -float(ndtri(p))


@dataclass(frozen=True)
class Calibration:
    """How a threshold was set: closed form, or an empirical quantile."""

    method: str  # "analytic" | "monte_carlo"
    trials: int | None = None
    seed: int | None = None
    rng_id: str | None = None

    def __post_init__(self) -> None:
        if self.method not in ("analytic", "monte_carlo"):
            raise ValueError(f"unknown calibration method {self.method!r}")
        if self.method == "monte_carlo" and (self.trials is None or self.seed is None):
            raise ValueError("monte_carlo calibration must record trials and seed")
        # a quantile records the generator it was drawn from, unless a file names its own
        if self.method == "monte_carlo" and self.rng_id is None:
            object.__setattr__(self, "rng_id", RNG_ID)


def _check_pfa(p: float, name: str = "target_pfa") -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {p}")


def _check_trials(trials: int, name: str = "trials") -> None:
    """The fewest Monte Carlo trials that any per-point estimate may use."""
    if trials < 100:
        raise ValueError(f"{name} must be at least 100, got {trials}")


def _check_snr_grid(snrs: Sequence[float]) -> None:
    """An SNR grid must be non-empty, finite and strictly increasing."""
    if not snrs or not all(math.isfinite(s) for s in snrs):
        raise ValueError("snr grid must be non-empty and finite")
    if any(b <= a for a, b in zip(snrs, snrs[1:])):
        raise ValueError("snr grid must be strictly increasing")


def snr_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """lo, lo + step, ... up to hi inclusive (within 1e-9 of a step)."""
    for name, v in (("snr_min", lo), ("snr_max", hi), ("snr_step", step)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if not lo < hi:
        raise ValueError(f"snr_min {lo} must be below snr_max {hi}")
    if step <= 0:
        raise ValueError(f"snr_step must be positive, got {step}")
    k = int(math.floor((hi - lo) / step + 1e-9))
    return tuple(lo + i * step for i in range(k + 1))


def _check_steady_nonempty(layout: ScaleLayout) -> None:
    if layout.steady_length == 0:
        raise ValueError("layout has no steady coefficients at any retained scale")


def _check_detector(det: LinearDetector | MaxCoeffDetector) -> None:
    """The checks both detector kinds share: Pfa, threshold and steady range."""
    _check_pfa(det.target_pfa)
    if not math.isfinite(det.v_threshold):
        raise ValueError("v_threshold must be finite")
    _check_steady_nonempty(det.layout)


@dataclass(frozen=True)
class LinearDetector:
    """Coefficient vector a (full layout length) plus threshold and Pfa."""

    a: np.ndarray
    layout: ScaleLayout
    v_threshold: float
    target_pfa: float
    calibration: Calibration
    detector_id: str = "linear"

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64).copy()
        steady = self.layout.gather(a)
        _check_detector(self)
        if not np.any(steady):
            raise ValueError("a must have a non-zero entry within the steady ranges")
        for arr in (a, steady):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_steady_a", steady)

    def steady_a(self) -> np.ndarray:
        """Read-only weights at the steady indices, gathered at construction."""
        return self._steady_a


@dataclass(frozen=True)
class MaxCoeffDetector:
    """Baseline: declare a pulse when max |d[k]| over steady indices > V_T."""

    layout: ScaleLayout
    v_threshold: float
    target_pfa: float
    calibration: Calibration
    detector_id: str = "max-coeff"

    def __post_init__(self) -> None:
        _check_detector(self)
        if self.calibration.method != "monte_carlo":
            raise ValueError("the max-coefficient baseline is calibrated only by Monte Carlo")


@dataclass(frozen=True)
class DetectorStats:
    """Analytic Gaussian performance of a linear detector at one SNR."""

    eta_h1: float
    sigma_v: float
    pfa: float
    pd: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta_h1) and math.isfinite(self.sigma_v)):
            raise ValueError("eta_h1 and sigma_v must be finite")
        if self.sigma_v <= 0:
            raise ValueError("sigma_v must be positive")
        for name, p in (("pfa", self.pfa), ("pd", self.pd)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class DetectionCurve:
    """Ordered (snr_db, pd, stderr) points at a fixed target Pfa."""

    pfa: float
    points: tuple[tuple[float, float, float], ...]
    detector_id: str
    trials_per_point: int
    seed: int
    rng_id: str = RNG_ID

    def __post_init__(self) -> None:
        _check_pfa(self.pfa, "pfa")
        pts = tuple((float(s), float(p), float(e)) for s, p, e in self.points)
        _check_snr_grid([s for s, _, _ in pts])
        if any(not 0.0 <= p <= 1.0 for _, p, _ in pts):
            raise ValueError("pd values must lie in [0, 1]")
        if not all(math.isfinite(e) for _, _, e in pts):
            raise ValueError("stderr values must be finite")
        if self.trials_per_point < 0 or self.seed < 0:
            raise ValueError("trials_per_point and seed must be non-negative")
        object.__setattr__(self, "points", pts)

    def snr_grid(self) -> np.ndarray:
        return np.array([s for s, _, _ in self.points])

    def pd_values(self) -> np.ndarray:
        return np.array([p for _, p, _ in self.points])

    def stderr_values(self) -> np.ndarray:
        return np.array([e for _, _, e in self.points])


# ---------------------------------------------------------------------------
# Statistics.

def _require_layout(what: str, layout: ScaleLayout, det_layout: ScaleLayout) -> None:
    if layout != det_layout:
        raise ValueError(f"{what} layout {layout} does not match detector layout {det_layout}")


def statistic(d: DetailCoefficients, det: LinearDetector) -> float:
    """Inner product of a and d over the steady ranges."""
    _require_layout("coefficient", d.layout, det.layout)
    tally_madds(det.layout.steady_length)
    return float(det.steady_a() @ d.steady_values())


def _max_abs(F: np.ndarray) -> np.ndarray:
    """Largest |feature| of each row, or of a 1-d vector."""
    return np.max(np.abs(F), axis=-1)


def _steady_stat_fn(det: LinearDetector | MaxCoeffDetector) -> Callable[[np.ndarray], np.ndarray]:
    """Map steady-feature rows to statistic values for either detector kind."""
    if isinstance(det, LinearDetector):
        a = det.steady_a()
        return lambda F: F @ a
    return _max_abs


def _sigma_v(a_steady: np.ndarray, model: NoiseModel) -> float:
    """Noise spread sigma_n * ||a_steady|| of the linear statistic."""
    sigma_v = model.sigma_n * float(np.linalg.norm(a_steady))
    if sigma_v == 0.0:
        raise ValueError("a is zero on every steady index")
    return sigma_v


def analytic_stats(
    pulse_details: DetailCoefficients,
    a: np.ndarray,
    snr_db: float,
    model: NoiseModel,
    v_threshold: float,
) -> DetectorStats:
    """Gaussian-model mean, spread, Pfa, and Pd of the linear statistic.

    The H1 mean is amplitude(snr_db) times the steady-range inner product
    of a with the template's details; the spread is sigma_n * ||a_steady||
    under both hypotheses.
    """
    a_s = pulse_details.layout.gather(a)
    sigma_v = _sigma_v(a_s, model)
    eta = float(amplitude(snr_db, model)) * float(a_s @ pulse_details.steady_values())
    return DetectorStats(
        eta_h1=eta,
        sigma_v=sigma_v,
        pfa=qfunc(v_threshold / sigma_v),
        pd=qfunc((v_threshold - eta) / sigma_v),
    )


def threshold_for_pfa_analytic(
    a: np.ndarray, layout: ScaleLayout, model: NoiseModel, target_pfa: float
) -> float:
    """Closed-form V_T = sigma_v * Qinv(target_pfa) for the linear statistic."""
    _check_pfa(target_pfa)
    return _sigma_v(layout.gather(a), model) * qfunc_inv(target_pfa)


def _empirical_upper_quantile(v: np.ndarray, target_pfa: float) -> float:
    """The ceil((1-pfa)*n)-th order statistic (higher interpolation)."""
    n = v.shape[0]
    k = int(math.ceil((1.0 - target_pfa) * n))
    k = min(max(k, 1), n)
    return float(np.partition(v, k - 1)[k - 1])


def _check_mc_quantile_args(target_pfa: float, trials: int) -> None:
    _check_pfa(target_pfa)
    if trials * target_pfa < 100:
        raise ValueError(
            f"trials * target_pfa = {trials * target_pfa:g} < 100; "
            "the quantile would be too uncertain"
        )


def _noise_quantile(
    pipe: FeaturePipe, stat: Callable, model: NoiseModel, target_pfa: float, trials: int, seed: int
) -> float:
    """Empirical (1 - pfa) quantile of ``stat`` over seeded noise realisations."""
    _check_mc_quantile_args(target_pfa, trials)
    return _empirical_upper_quantile(pipe.noise_steady(model, trials, seed, stat=stat), target_pfa)


def threshold_for_pfa_mc(
    a: np.ndarray,
    pipe: FeaturePipe,
    model: NoiseModel,
    target_pfa: float,
    trials: int,
    seed: int,
) -> float:
    """Empirical (1 - pfa) quantile of v over seeded noise realisations."""
    a_s = pipe.layout.gather(a)
    return _noise_quantile(pipe, lambda F: F @ a_s, model, target_pfa, trials, seed)


def _rate(hits: int, trials: int) -> tuple[float, float]:
    """A Monte Carlo proportion and its binomial standard error."""
    p = hits / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


def _template_mu(pulse: SampledSignal, pipe: FeaturePipe) -> np.ndarray:
    """mu, the steady details of a pulse template on ``pipe``.

    The Pd curves, the training positives and the tuner's score all use mu,
    and this is where their pulse is checked: it must be a template of the
    pipe's signal length."""
    if pulse.hypothesis is not Hypothesis.TEMPLATE:
        raise ValueError("expected a pulse template")
    if pulse.length != pipe.length:
        raise ValueError(
            f"pulse length {pulse.length} does not match the pipe's signal length {pipe.length}"
        )
    return pipe.details_of(pulse).steady_values()


def estimate_pd(
    det: LinearDetector | MaxCoeffDetector,
    pulse: SampledSignal,
    snr_grid: Sequence[float],
    model: NoiseModel,
    trials: int,
    seed: int,
    pipe: FeaturePipe,
) -> list[tuple[float, float]]:
    """Monte Carlo (Pd, stderr) at each SNR of a grid, all from one noise draw.

    Pd counts trials with v > V_T on F + A_k mu: noise features on the curve's
    path plus the pulse's steady details at each amplitude, so a point
    depends only on (seed, SNR, trials), not on the rest of the grid."""
    grid = [float(s) for s in snr_grid]
    _check_snr_grid(grid)
    _check_trials(trials)
    _require_layout("pipe", pipe.layout, det.layout)
    shifts = amplitude(np.array(grid), model)[:, None] * _template_mu(pulse, pipe)
    fn = _steady_stat_fn(det)
    V = pipe.noise_steady(model, trials, seed, _CURVE_PATH,
                          stat=lambda F: np.column_stack([fn(F + s) for s in shifts]))
    return [_rate(h, trials) for h in np.count_nonzero(V > det.v_threshold, axis=0).tolist()]


def realized_pfa_mc(
    dets: Sequence[LinearDetector | MaxCoeffDetector],
    model: NoiseModel,
    trials: int,
    seed: int,
    pipe: FeaturePipe,
) -> list[tuple[float, float]]:
    """Empirical Pfa of several same-layout detectors on one noise stream.

    Sharing the stream keeps the estimates paired.  Nothing in the package
    calls it; it stays for bench/tracer.py until ROADMAP item 9
    deletes it.
    """
    _check_trials(trials)
    for det in dets:
        _require_layout("pipe", pipe.layout, det.layout)
    fns = [_steady_stat_fn(det) for det in dets]
    V = pipe.noise_steady(model, trials, seed, stat=lambda F: np.column_stack([f(F) for f in fns]))
    hits = np.count_nonzero(V > [det.v_threshold for det in dets], axis=0)
    return [_rate(h, trials) for h in hits.tolist()]


def max_coeff_baseline(d: DetailCoefficients, v_threshold: float) -> bool:
    """True iff the largest steady-range |coefficient| exceeds the threshold."""
    _check_steady_nonempty(d.layout)
    return bool(_max_abs(d.steady_values()) > v_threshold)


def calibrate_max_coeff(
    pipe: FeaturePipe,
    model: NoiseModel,
    target_pfa: float,
    trials: int,
    seed: int,
) -> MaxCoeffDetector:
    """Monte Carlo threshold for the baseline at the requested Pfa."""
    _check_steady_nonempty(pipe.layout)
    vt = _noise_quantile(pipe, _max_abs, model, target_pfa, trials, seed)
    return MaxCoeffDetector(
        layout=pipe.layout,
        v_threshold=vt,
        target_pfa=float(target_pfa),
        calibration=Calibration("monte_carlo", trials=int(trials), seed=int(seed)),
        detector_id=_detector_id("baseline", pipe.layout.scales),
    )


def sweep_curve(
    det: LinearDetector | MaxCoeffDetector,
    pulse: SampledSignal,
    snr_grid: Sequence[float],
    model: NoiseModel,
    trials: int,
    seed: int,
    pipe: FeaturePipe,
) -> DetectionCurve:
    """The Pd curve of ``det`` over ``snr_grid``: one estimate_pd call, one noise draw."""
    points = estimate_pd(det, pulse, snr_grid, model, trials, seed, pipe)
    return DetectionCurve(
        pfa=det.target_pfa,
        points=tuple((snr, *pt) for snr, pt in zip(snr_grid, points)),
        detector_id=det.detector_id,
        trials_per_point=int(trials),
        seed=int(seed),
    )
