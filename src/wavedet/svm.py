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
index sets are kept as two label arrays (y inside the set, -inf or +inf
outside) that each step updates at i and j.  No n x n Gram matrix
is built: kernel row K_i = X x_i is computed the first time a step picks
i and kept in a row store, a list of n entries that are None until built,
which the tuner shares across its C grid points.  A fit touches few rows
(122 to 130 of 5,000 in each fit of the bench study), so memory is about
(rows touched) x n, not n x n, and a step allocates only the rows it
builds.
Per-class box bounds C+ / C- implement the asymmetric penalty used to
price false positives above misses.

The trained bias is never deployed directly: deployment replaces it with a
Monte Carlo threshold hitting the requested false-alarm probability, since
the hinge loss alone does not pin the operating point.  So only w's
direction matters, and the tuner chooses C by it alone, the Neyman-Pearson
criterion for tuning an SVM (Davenport, Baraniuk & Scott, IEEE TPAMI
2010).  Under white noise of spread sigma_n the statistic <w, x> is
Gaussian with spread sigma_n ||w|| under both hypotheses, so with its
threshold set for Pfa alpha its Pd at amplitude A is
Q(Qinv(alpha) - A <w, mu> / (sigma_n ||w||)) (Kay 1998, ch. 4).  The
deflection per unit norm <w, mu> / ||w|| thus orders the fits exactly, at
every SNR and every alpha, without a noise draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pipeline
from .detector import (
    Calibration,
    LinearDetector,
    _require_layout,
    _template_mu,
    threshold_for_pfa_mc,
)
from .pipeline import FeaturePipe
from .rng import derive_seed, substream, uniform
from .signals import NoiseModel, SampledSignal, amplitude
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


@dataclass(frozen=True)
class TrainingSet:
    """Labelled steady-range detail patterns: +1 pulse+noise, -1 noise.

    It holds only what train and tune_c_for_pfa read; the pipe and noise
    model that drew the patterns stay with the caller.
    """

    X: np.ndarray              # (n, dim) patterns, one per row
    y: np.ndarray              # (n,) labels in {+1, -1}
    layout: ScaleLayout

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
    lo, hi = float(snr_range[0]), float(snr_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"snr_range must be finite with lo <= hi, got {snr_range}")
    pipe = FeaturePipe.for_scales(pulse.length, filters, scales)
    mu = _template_mu(pulse, pipe)
    snrs = uniform(substream(seed, (_PATH_SNR,)), n_pos, lo, hi)
    # the two noise draws, one pattern-sized array between them, die in the
    # concatenation, so at most two such arrays are alive at once: the
    # draws and X, then X and the TrainingSet's copy
    X = np.concatenate([pipe.noise_steady(model, n_pos, seed, (_PATH_POS,)),
                        pipe.noise_steady(model, n_neg, seed, (_PATH_NEG,))], axis=0)
    X[:n_pos] += amplitude(snrs, model)[:, None] * mu
    y = np.concatenate([np.ones(n_pos, dtype=np.int8), -np.ones(n_neg, dtype=np.int8)])
    return TrainingSet(X=X, y=y, layout=pipe.layout)


def _check_smo_args(c_plus: float, c_minus: float, kkt_tolerance: float, max_passes: int) -> None:
    """Reject box bounds, tolerance or pass budget that train cannot use."""
    for name, v in (("c_plus", c_plus), ("c_minus", c_minus), ("kkt_tolerance", kkt_tolerance)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, got {max_passes}")


def _matvec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X @ v with each entry summed by NumPy's own loop, not by BLAS.

    OpenBLAS splits a large gemv's rows over its threads, and where a
    thread's share is not a multiple of four rows its kernel rounds some
    entries differently: ``X @ v`` at n = 4001 to 4006 (d = 194) has other
    bits on one thread than on two.  This product's bits depend only on X
    and v.
    """
    return np.einsum("ij,j->i", X, v)


def train(
    ts: TrainingSet,
    c_plus: float,
    c_minus: float,
    kkt_tolerance: float = 1e-3,
    max_passes: int = 10_000,
    rows: list[np.ndarray | None] | None = None,
) -> SvmModel:
    """Maximal-violating-pair SMO in beta = alpha * y on kernel rows built on demand.

    Each step moves beta_i up and beta_j down by the same t, clipped to
    min(ub_i - beta_i, beta_j - lb_j), then snaps both onto 0 or their
    bound when within a relative 1e-12 of it, so that the index sets stay
    exact.  One pass is up to n such steps; after each pass the margin
    cache is recomputed from scratch (drift control) and the exact dual
    objective is appended to the history.  Convergence is declared when the
    largest violation m - M falls to ``kkt_tolerance`` or below; if the
    pass budget runs out first the model is returned with
    ``converged=False``.  The model's alphas are |beta|.

    Kernel row K_i is ``_matvec(X, X[i])``, computed the first time a step
    picks i and kept in ``rows``, a list of n entries that are None until
    built.  Every row comes from that one call, never from a product of
    several rows, so its bits and the fit's do not depend on which rows
    were built before; a caller that trains several times on one set
    (``tune_c_for_pfa``) passes one store to every fit, and when None
    train starts an empty one.  eta reads K_ii, K_jj and K_ij from rows i
    and j.  The per-pass refresh sums w = sum_k beta_k x_k in index order
    (``np.einsum``; the gemv ``X.T @ beta`` would split the sum over BLAS
    threads) and sets f = _matvec(X, w); the model's w is the last
    pass's.  So no product here follows the BLAS thread count.

    Apart from building a row, a step allocates no array, and it picks
    its pair in two passes over n: the argmax of y_up - f and the argmin of
    y_low - f, where y_up is y on I_up and -inf elsewhere, y_low is y on
    I_low and +inf elsewhere, and both change at i and j only.  Since
    y + 0.0 == y and +-inf - f == (y - f) +- inf, this is the pair that
    maximises and minimises F = y - f over the two sets.

    The fit holds one of ``pipeline``'s CPU slots from start to end, so a
    fit and the Monte Carlo block workers beside it never ask for more
    CPUs than the process may run on.
    """
    _check_smo_args(c_plus, c_minus, kkt_tolerance, max_passes)
    X = ts.X
    n = ts.n_patterns
    if rows is None:
        rows = [None] * n
    elif len(rows) != n:
        raise ValueError(f"rows must hold {n} entries for this training set, got {len(rows)}")
    pos = ts.y == 1
    box_a = np.where(pos, float(c_plus), float(c_minus))
    # Python-float copies for the per-step scalar arithmetic
    yl = ts.y.astype(np.float64).tolist()
    box = box_a.tolist()
    ub = np.where(pos, box_a, 0.0).tolist()
    lb = np.where(pos, 0.0, -box_a).tolist()
    beta = np.zeros(n)
    # y inside I_up (I_low), -inf (+inf) outside; beta = 0 lies below ub only if positive
    y_up = np.where(pos, 1.0, -np.inf)
    y_low = np.where(pos, np.inf, -1.0)
    buf = np.empty(n)
    f = np.zeros(n)  # f_i = sum_k beta_k K_ik, maintained incrementally
    history: list[float] = []
    converged = False
    n_passes = 0
    m = m_low = 0.0
    with pipeline._slots:  # one CPU slot for the whole fit
        for _pass in range(int(max_passes)):
            n_passes = _pass + 1
            for _step in range(n):
                i = int(np.subtract(y_up, f, out=buf).argmax())
                j = int(np.subtract(y_low, f, out=buf).argmin())
                m, m_low = yl[i] - f.item(i), yl[j] - f.item(j)
                if m - m_low <= kkt_tolerance:
                    converged = True
                    break
                K_i, K_j = rows[i], rows[j]
                if K_i is None:
                    K_i = rows[i] = _matvec(X, X[i])
                if K_j is None:
                    K_j = rows[j] = _matvec(X, X[j])
                t_hi = min(ub[i] - beta.item(i), beta.item(j) - lb[j])
                eta = K_i.item(i) + K_j.item(j) - 2.0 * K_i.item(j)
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
                    y_up[k] = yl[k] if bk < ub[k] else -np.inf
                    y_low[k] = yl[k] if bk > lb[k] else np.inf
                f += np.multiply(np.subtract(K_i, K_j, out=buf), t, out=buf)
            # exact refresh closes any incremental drift
            w = np.einsum("i,ij->j", beta, X)
            f = _matvec(X, w)
            history.append(float(np.sum(np.abs(beta)) - 0.5 * beta @ f))
            if converged:
                break
    return SvmModel(
        alphas=np.abs(beta),
        y=ts.y,
        w=w,
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


def _deflection(model: SvmModel, mu: np.ndarray) -> float:
    """<w, mu> / ||w||, the tuner's score; a fit with w = 0 is rejected."""
    norm = float(np.linalg.norm(model.w))
    if norm == 0.0:
        raise ValueError(f"the fit at (c_plus, c_minus) = ({model.c_plus}, {model.c_minus}) "
                         "has w = 0 and detects nothing")
    return float(model.w @ mu) / norm


def tune_c_for_pfa(
    ts: TrainingSet,
    noise: NoiseModel,
    pipe: FeaturePipe,
    target_pfa: float,
    c_grid: Sequence[tuple[float, float]],
    cal_trials: int,
    seed: int,
    pulse: SampledSignal,
    kkt_tolerance: float = 1e-3,
    max_passes: int = 10_000,
) -> tuple[SvmModel, LinearDetector]:
    """Train every grid point; calibrate and return the one of largest deflection.

    Grid point g scores c_g = <w_g, mu> / ||w_g||, mu being the pulse's
    steady details.  With its threshold set for Pfa alpha, fit g's Pd at
    amplitude A is exactly Q(Qinv(alpha) - A c_g / sigma_n), so c_g ranks
    the grid points at every SNR and every alpha, with no noise draw.  The
    first maximum wins, so ties go to the earlier grid point, and only it
    is calibrated, by ``calibrate_bias`` on ``cal_trials`` trials at
    ``derive_seed(seed, g, 0)``.  A fit whose w is zero detects nothing and
    is rejected.  ``noise`` and ``pipe`` must be the ones that drew ``ts``;
    a pipe on another layout, or a pulse that is not a template of the
    pipe's signal length, is rejected before any training.  Fully
    deterministic given (ts, pipe, noise, pulse, seed).
    """
    grid = [(float(cp), float(cm)) for cp, cm in c_grid]
    if not grid:
        raise ValueError("c_grid must be non-empty")
    _require_layout("pipe", pipe.layout, ts.layout)
    mu = _template_mu(pulse, pipe)
    rows: list[np.ndarray | None] = [None] * ts.n_patterns  # shared by every grid point
    models = [train(ts, cp, cm, kkt_tolerance=kkt_tolerance, max_passes=max_passes, rows=rows)
              for cp, cm in grid]
    gi = int(np.argmax([_deflection(m, mu) for m in models]))  # the first maximum
    det = calibrate_bias(models[gi], noise, pipe, target_pfa, cal_trials, derive_seed(seed, gi, 0))
    return models[gi], det
