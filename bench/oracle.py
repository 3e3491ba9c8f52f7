"""Reference computations the benchmark checks the program against.

Nothing here imports ``wavedet``.  Each function is written from the
mathematical definition the package documents:

* Daubechies analysis filters by spectral factorisation of the half-band
  polynomial, and the quadrature-mirror high-pass g[n] = (-1)^n h[L-1-n];
* one pyramid stage as circular convolution followed by keep-even
  decimation, out[b, k] = sum_j f[j] * x[b, (2k - j) mod M], evaluated
  with ``np.roll`` rather than windowed views;
* steady-state coefficients: indices at or beyond the filter length L in
  each retained detail vector;
* the closed-form Pd of the optimum (matched) detector,
  Pd = Q(Q^-1(Pfa) - A * ||s_steady|| / sigma), with A = 10^(snr/20) * sigma^2;
* the primal objective of the class-weighted soft-margin SVM, for a
  duality-gap check of a dual solution.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.stats import binom, norm

# two-sided tail mass of a 4-sigma normal deviation; used as the rejection
# level of every exact binomial test so that "within 4 stderr" keeps its
# meaning near Pd = 0 or 1, where the normal approximation breaks down
P_4SIGMA = 2.0 * float(norm.sf(4.0))


def daubechies(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-phase Daubechies low-pass h and its mirror high-pass g."""
    p = int(order)
    if p < 1:
        raise ValueError("order must be >= 1")
    # P(y) = sum_k C(p-1+k, k) y^k with y = sin^2(w/2) = (2 - z - 1/z) / 4
    coeffs = [math.comb(p - 1 + k, k) for k in range(p)]
    poly = np.array([1.0])
    for _ in range(p):
        poly = np.convolve(poly, [1.0, 1.0])
    for y in np.roots(coeffs[::-1]) if p > 1 else ():
        z = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
        poly = np.convolve(poly, [1.0, -z[np.argmin(np.abs(z))]])
    h = np.real(poly)
    h = h * math.sqrt(2.0) / h.sum()
    L = h.shape[0]
    g = np.array([(-1.0) ** n * h[L - 1 - n] for n in range(L)])
    return h, g


def filter_down(X: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Circular convolution with f, keeping even output indices."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.zeros_like(X)
    for j, fj in enumerate(f):
        # np.roll(X, j)[:, n] == X[:, (n - j) mod M]
        out += fj * np.roll(X, j, axis=1)
    return out[:, ::2]


def details(X: np.ndarray, h: np.ndarray, g: np.ndarray, max_level: int) -> list[np.ndarray]:
    """Detail vectors d_1 .. d_max_level of each row of X."""
    approx = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = []
    for _ in range(int(max_level)):
        out.append(filter_down(approx, g))
        approx = filter_down(approx, h)
    return out


def steady_features(X: np.ndarray, h: np.ndarray, g: np.ndarray, scales: Sequence[int]) -> np.ndarray:
    """Concatenated steady-range detail coefficients (index >= L) of each row."""
    L = h.shape[0]
    dets = details(X, h, g, max(scales))
    return np.concatenate([dets[s - 1][:, min(L, dets[s - 1].shape[1]):] for s in scales], axis=1)


def pd_optimum(snr_db, s_steady: np.ndarray, pfa: float, sigma: float = 1.0) -> np.ndarray:
    """Closed-form Pd of the matched detector at a fixed Pfa."""
    amp = 10.0 ** (np.asarray(snr_db, dtype=np.float64) / 20.0) * sigma**2
    return norm.sf(norm.isf(pfa) - amp * float(np.linalg.norm(s_steady)) / sigma)


def binomial_consistent(hits: int, trials: int, p: float) -> bool:
    """Exact two-sided test: hits ~ Binomial(trials, p) at the 4-sigma level."""
    if p <= 0.0:
        return hits == 0
    if p >= 1.0:
        return hits == trials
    tail = min(float(binom.cdf(hits, trials, p)), float(binom.sf(hits - 1, trials, p)))
    return 2.0 * tail >= P_4SIGMA


def rate_z(hits: int, trials: int, p: float, cal_trials: int | None = None) -> float:
    """Deviation of a realized rate from p in standard errors.

    When the threshold behind the rate was itself set from ``cal_trials``
    Monte Carlo samples, that quantile's sampling error is added to the
    variance (it moves the realized rate by the same binomial amount).
    """
    var = p * (1.0 - p) / trials
    if cal_trials:
        var += p * (1.0 - p) / cal_trials
    return (hits / trials - p) / math.sqrt(var)


def svm_primal(X: np.ndarray, y: np.ndarray, w: np.ndarray, c_plus: float, c_minus: float) -> float:
    """min over b of 1/2 ||w||^2 + sum_i C(y_i) * max(0, 1 - y_i (w.x_i + b)).

    The hinge sum is convex and piecewise linear in b with breakpoints
    t_i = y_i - w.x_i; its minimum sits at the first breakpoint where the
    slope to the right turns non-negative.
    """
    y = np.asarray(y, dtype=np.float64)
    c = np.where(y > 0, c_plus, c_minus)
    f = X @ w
    t = y - f
    order = np.argsort(t, kind="stable")
    ts, ys, cs = t[order], y[order], c[order]
    # slope right of ts[k]: + (negatives at or left of it) - (positives right of it)
    neg_left = np.cumsum(np.where(ys < 0, cs, 0.0))
    pos_right = np.sum(np.where(ys > 0, cs, 0.0)) - np.cumsum(np.where(ys > 0, cs, 0.0))
    k = int(np.argmax(neg_left - pos_right >= 0.0))
    b = ts[k]
    hinge = float(np.maximum(0.0, 1.0 - y * (f + b)) @ c)
    return 0.5 * float(w @ w) + hinge


def svm_dual(X: np.ndarray, y: np.ndarray, alphas: np.ndarray) -> float:
    """sum_i alpha_i - 1/2 || sum_i alpha_i y_i x_i ||^2."""
    v = X.T @ (alphas * np.asarray(y, dtype=np.float64))
    return float(np.sum(alphas) - 0.5 * v @ v)
