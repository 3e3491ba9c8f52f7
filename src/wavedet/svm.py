"""Soft-margin linear SVM on wavelet-domain patterns.

The dual problem

    maximise   sum_i alpha_i - 1/2 sum_ij alpha_i y_i alpha_j y_j <x_i, x_j>
    subject to 0 <= alpha_i <= C(y_i),   sum_i alpha_i y_i = 0

is solved by sequential minimal optimisation in beta = alpha * y, which
lies in [0, C+] for a positive pattern and in [-C-, 0] for a negative one.
Each step picks the pair with the largest Karush-Kuhn-Tucker violation:
maximal F_i over I_up = {beta < ub} against minimal F_j over
I_low = {beta > lb}, F_i = y_i - sum_k beta_k K_ik, and solves the
two-variable subproblem beta_i += t, beta_j -= t in closed form.  The
index sets are kept as two penalty arrays (0 inside the set, -inf or
+inf outside) that each step updates at i and j, so a step allocates no
array; the Gram matrix K_ik = <x_i, x_k> is built once per training set
and shared by every C grid point of the tuner.
Per-class box bounds C+ / C- implement the asymmetric penalty used to
price false positives above misses.

The trained bias is never deployed directly: deployment replaces it with a
Monte Carlo threshold hitting the requested false-alarm probability, since
the hinge loss alone does not pin the operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import (
    Calibration,
    LinearDetector,
    _require_layout,
    estimate_pd,
    realized_pfa_mc,
    snr_grid,
    threshold_for_pfa_mc,
)
from .pipeline import FeaturePipe
from .rng import derive_seed, substream, uniform
from .signals import Hypothesis, NoiseModel, SampledSignal, amplitude
from .wavelet import DetailCoefficients, ScaleLayout, WaveletFilterPair, _detector_id

__all__ = [
    "TrainingSet",
    "SvmModel",
    "build_training_set",
    "train",
    "decision",
    "calibrate_bias",
    "tune_c_for_pfa",
]

# substream purposes within a training-set seed
_PATH_SNR, _PATH_POS, _PATH_NEG = 0, 1, 2

_BOUND_SNAP = 1e-12  # relative snap of beta onto 0 and its box bound

# tune_c_for_pfa: admissible realized Pfa lies within this factor of the
# target, and validation Pd comes from this many trials, shared by every SNR
_PFA_SLACK = 2.0
_VAL_TRIALS = 500


def _snr_range(snr_range: tuple[float, float]) -> tuple[float, float]:
    """``snr_range`` as floats, rejected unless finite with lo <= hi."""
    lo, hi = float(snr_range[0]), float(snr_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"snr_range must be finite with lo <= hi, got {snr_range}")
    return lo, hi


@dataclass(frozen=True)
class TrainingSet:
    """Labelled steady-range detail patterns: +1 pulse+noise, -1 noise.

    It holds only what train and tune_c_for_pfa read; the pipe and noise
    model that drew the patterns stay with the caller.
    """

    X: np.ndarray              # (n, dim) patterns, one per row
    y: np.ndarray              # (n,) labels in {+1, -1}
    layout: ScaleLayout
    snr_range: tuple[float, float]

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64).copy()
        y = np.asarray(self.y, dtype=np.int8).copy()
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, dim) with one label per row")
        if X.shape[1] != self.layout.steady_length:
            raise ValueError("pattern dimension does not match the layout's steady length")
        if not np.all(np.isfinite(X)):
            raise ValueError("patterns must be finite")
        if not set(np.unique(y)) <= {-1, 1}:
            raise ValueError("labels must be +1 or -1")
        n_pos = int(np.sum(y == 1))
        if n_pos == 0 or n_pos == y.shape[0]:
            raise ValueError("both classes must be non-empty")
        for arr in (X, y):
            arr.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "snr_range", _snr_range(self.snr_range))

    @property
    def n_patterns(self) -> int:
        return int(self.X.shape[0])


# the fit fields that a trained detector's .det header records, in order;
# experiment check reads back these and no others
_FIT_FIELDS = ("c_plus", "c_minus", "kkt_tolerance", "converged", "support_count", "n_passes",
               "dual_objective")


@dataclass(frozen=True)
class SvmModel:
    """Dual solution plus the recovered primal weight vector and bias."""

    alphas: np.ndarray
    y: np.ndarray
    w: np.ndarray              # steady-range weights, length = layout.steady_length
    b: float
    c_plus: float
    c_minus: float
    kkt_tolerance: float
    converged: bool
    n_passes: int
    objective_history: tuple[float, ...]
    layout: ScaleLayout

    def __post_init__(self) -> None:
        alphas = np.asarray(self.alphas, dtype=np.float64).copy()
        y = np.asarray(self.y, dtype=np.int8).copy()
        w = np.asarray(self.w, dtype=np.float64).copy()
        if alphas.shape != y.shape or alphas.ndim != 1:
            raise ValueError("alphas and y must be equal-length vectors")
        box = np.where(y == 1, self.c_plus, self.c_minus)
        if np.any(alphas < -1e-12) or np.any(alphas - box > 1e-12 * np.maximum(box, 1.0)):
            raise ValueError("alphas violate their per-class box constraints")
        balance = float(alphas @ y)
        if abs(balance) > self.kkt_tolerance:
            raise ValueError(f"sum alpha_i y_i = {balance!r} exceeds the KKT tolerance")
        if w.shape != (self.layout.steady_length,):
            raise ValueError("w length does not match the layout's steady length")
        for arr in (alphas, y, w):
            arr.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)

    @property
    def dual_objective(self) -> float:
        return self.objective_history[-1]

    @property
    def support_count(self) -> int:
        return int(np.count_nonzero(self.alphas > 0))

    def fit_fields(self) -> dict[str, str]:
        """The fit as a .det header records it, keyed by _FIT_FIELDS."""
        return dict(zip(_FIT_FIELDS, (
            repr(self.c_plus), repr(self.c_minus), repr(self.kkt_tolerance), str(self.converged),
            str(self.support_count), str(self.n_passes), repr(self.dual_objective)), strict=True))


def build_training_set(
    pulse: SampledSignal,
    scales: Sequence[int],
    filters: WaveletFilterPair,
    model: NoiseModel,
    n_pos: int,
    n_neg: int,
    snr_range: tuple[float, float],
    seed: int,
) -> TrainingSet:
    """Steady-range d_B patterns: n_pos observations with SNR uniform over
    ``snr_range`` and n_neg pure-noise realisations, positives first.

    The pyramid is linear, so a positive is a noise pattern on its own path
    plus A_i mu, the pulse's steady details scaled by its amplitude, as in
    ``estimate_pd``."""
    if n_pos < 1 or n_neg < 1:
        raise ValueError("both classes need at least one pattern")
    lo, hi = _snr_range(snr_range)
    if pulse.hypothesis is not Hypothesis.TEMPLATE:
        raise ValueError("build_training_set requires a pulse template")
    pipe = FeaturePipe.for_scales(pulse.length, filters, scales)
    snrs = uniform(substream(seed, (_PATH_SNR,)), n_pos, lo, hi)
    mu = pipe.details_of(pulse).steady_values()
    pos = pipe.noise_steady(model, n_pos, seed, (_PATH_POS,))
    pos += amplitude(snrs, model)[:, None] * mu
    neg = pipe.noise_steady(model, n_neg, seed, path=(_PATH_NEG,))
    X = np.concatenate([pos, neg], axis=0)
    y = np.concatenate([np.ones(n_pos, dtype=np.int8), -np.ones(n_neg, dtype=np.int8)])
    return TrainingSet(
        X=X,
        y=y,
        layout=pipe.layout,
        snr_range=(lo, hi),
    )


def _check_smo_args(c_plus: float, c_minus: float, kkt_tolerance: float, max_passes: int) -> None:
    """Reject box bounds, tolerance or pass budget that train cannot use."""
    for name, v in (("c_plus", c_plus), ("c_minus", c_minus), ("kkt_tolerance", kkt_tolerance)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, got {max_passes}")


def train(
    ts: TrainingSet,
    c_plus: float,
    c_minus: float,
    kkt_tolerance: float = 1e-3,
    max_passes: int = 10_000,
    gram: np.ndarray | None = None,
) -> SvmModel:
    """Maximal-violating-pair SMO in beta = alpha * y on the Gram matrix.

    Each step moves beta_i up and beta_j down by the same t, clipped to
    min(ub_i - beta_i, beta_j - lb_j), then snaps both onto 0 or their
    bound when within a relative 1e-12 of it, so that the index sets stay
    exact.  One pass is up to n such steps; after each pass the margin
    cache is recomputed from scratch (drift control) and the exact dual
    objective is appended to the history.  Convergence is declared when the
    largest violation m - M falls to ``kkt_tolerance`` or below; if the
    pass budget runs out first the model is returned with
    ``converged=False``.  The model's alphas are |beta|.

    ``gram`` is ``ts.X @ ts.X.T``, passed by a caller that trains several
    times on one set (``tune_c_for_pfa``); when None, train builds it.
    A step allocates no array: the pair is the argmax of F + up_pen and
    the argmin of F + low_pen, where up_pen is 0 on I_up and -inf
    elsewhere, low_pen is 0 on I_low and +inf elsewhere, and both change
    at i and j only.
    """
    _check_smo_args(c_plus, c_minus, kkt_tolerance, max_passes)
    X = ts.X
    n = ts.n_patterns
    if gram is not None and gram.shape != (n, n):
        raise ValueError(f"gram must be ({n}, {n}) for this training set, got {gram.shape}")
    K = X @ X.T if gram is None else gram
    y = ts.y.astype(np.float64)
    pos = ts.y == 1
    box_a = np.where(pos, float(c_plus), float(c_minus))
    # Python-float copies for the per-step scalar arithmetic
    box = box_a.tolist()
    ub = np.where(pos, box_a, 0.0).tolist()
    lb = np.where(pos, 0.0, -box_a).tolist()
    diag = K.diagonal().tolist()
    beta = np.zeros(n)
    up_pen = np.where(pos, 0.0, -np.inf)  # beta = 0 lies below ub only if positive
    low_pen = np.where(pos, np.inf, 0.0)
    F = np.empty(n)
    buf = np.empty(n)
    f = np.zeros(n)  # f_i = sum_k beta_k K_ik, maintained incrementally
    history: list[float] = []
    converged = False
    n_passes = 0
    m = m_low = 0.0
    for _pass in range(int(max_passes)):
        n_passes = _pass + 1
        for _step in range(n):
            np.subtract(y, f, out=F)
            # F + 0.0 == F inside a set and -inf / +inf outside it
            i = int(np.add(F, up_pen, out=buf).argmax())
            j = int(np.add(F, low_pen, out=buf).argmin())
            m, m_low = F.item(i), F.item(j)
            if m - m_low <= kkt_tolerance:
                converged = True
                break
            t_hi = min(ub[i] - beta.item(i), beta.item(j) - lb[j])
            eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
            if eta > 0.0:
                t = min((m - m_low) / eta, t_hi)
            else:
                t = t_hi  # identical patterns: objective is linear in t
            for k, bk in ((i, beta.item(i) + t), (j, beta.item(j) - t)):
                # keep bound membership exact so the KKT index sets stay crisp
                if abs(bk) < _BOUND_SNAP * box[k]:
                    bk = 0.0
                elif abs(bk) > box[k] * (1.0 - _BOUND_SNAP):
                    bk = ub[k] if bk > 0.0 else lb[k]
                beta[k] = bk
                up_pen[k] = 0.0 if bk < ub[k] else -np.inf
                low_pen[k] = 0.0 if bk > lb[k] else np.inf
            # rows, not strided columns: K is symmetric
            f += np.multiply(np.subtract(K[i], K[j], out=buf), t, out=buf)
        # exact refresh closes any incremental drift
        f = K @ beta
        history.append(float(np.sum(np.abs(beta)) - 0.5 * beta @ f))
        if converged:
            break
    return SvmModel(
        alphas=np.abs(beta),
        y=ts.y,
        w=X.T @ beta,
        b=0.5 * (m + m_low),
        c_plus=float(c_plus),
        c_minus=float(c_minus),
        kkt_tolerance=float(kkt_tolerance),
        converged=converged,
        n_passes=n_passes,
        objective_history=tuple(history),
        layout=ts.layout,
    )


def decision(model: SvmModel, d: DetailCoefficients) -> float:
    """f(x) = <w, x> + b on the steady-range features of ``d``."""
    _require_layout("coefficient", d.layout, model.layout)
    return float(model.w @ d.steady_values() + model.b)


def calibrate_bias(
    model: SvmModel,
    noise: NoiseModel,
    pipe: FeaturePipe,
    target_pfa: float,
    trials: int,
    seed: int,
) -> LinearDetector:
    """Freeze the direction w; replace b with a Monte Carlo threshold.

    The returned detector uses a = w (embedded in the full layout) and the
    empirical (1 - pfa) quantile of w-projected noise as its threshold.
    """
    _require_layout("pipe", pipe.layout, model.layout)
    a = model.layout.embed(model.w)
    vt = threshold_for_pfa_mc(a, pipe, noise, target_pfa, trials, seed)
    return LinearDetector(
        a=a,
        layout=model.layout,
        v_threshold=vt,
        target_pfa=float(target_pfa),
        calibration=Calibration("monte_carlo", trials=int(trials), seed=int(seed)),
        detector_id=_detector_id("svm", model.layout.scales),
    )


def tune_c_for_pfa(
    ts: TrainingSet,
    noise: NoiseModel,
    pipe: FeaturePipe,
    target_pfa: float,
    c_grid: Sequence[tuple[float, float]],
    validation_noise_trials: int,
    seed: int,
    pulse: SampledSignal,
    kkt_tolerance: float = 1e-3,
    max_passes: int = 10_000,
) -> tuple[SvmModel, LinearDetector]:
    """Train and calibrate every grid point, keep the best admissible model.

    Admissible means the realized false-alarm rate, on one noise set shared
    by every point, lies within a factor of 2 of the target; among those
    the highest mean validation Pd over the training SNR grid wins (first
    on ties), every point validated on the same noise.  ``noise`` and
    ``pipe`` must be the ones that drew ``ts``; a pipe on another layout is
    rejected before any training.  Fully deterministic given (ts, pipe,
    noise, pulse, seed).
    """
    grid = [(float(cp), float(cm)) for cp, cm in c_grid]
    if not grid:
        raise ValueError("c_grid must be non-empty")
    _require_layout("pipe", pipe.layout, ts.layout)
    val_grid = snr_grid(*ts.snr_range, 1.0)
    gram = ts.X @ ts.X.T  # shared by every grid point, freed on return
    models = [train(ts, cp, cm, kkt_tolerance=kkt_tolerance, max_passes=max_passes, gram=gram)
              for cp, cm in grid]
    dets = [calibrate_bias(m, noise, pipe, target_pfa, validation_noise_trials,
                           derive_seed(seed, gi, 0)) for gi, m in enumerate(models)]
    pfas = realized_pfa_mc(dets, noise, validation_noise_trials, derive_seed(seed, 1), pipe)
    best: tuple[float, SvmModel, LinearDetector] | None = None
    for svm_model, det, (pfa_hat, _) in zip(models, dets, pfas):
        if not target_pfa / _PFA_SLACK <= pfa_hat <= target_pfa * _PFA_SLACK:
            continue
        pds = estimate_pd(det, pulse, val_grid, noise, _VAL_TRIALS, derive_seed(seed, 2), pipe)
        mean_pd = sum(pd for pd, _ in pds) / len(val_grid)
        if best is None or mean_pd > best[0]:
            best = (mean_pd, svm_model, det)
    if best is None:
        raise RuntimeError(
            f"no (c_plus, c_minus) grid point achieved a realized Pfa within "
            f"{_PFA_SLACK}x of {target_pfa}"
        )
    return best[1], best[2]
