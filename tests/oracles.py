"""Test-only oracles: independent re-derivations the package is checked against."""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from wavedet.rng import normal, substream


def numerical_optimum_a(pulse_details, tol=1e-9, max_iters=500, seed=0):
    """Gradient ascent of the deflection <a, s> on the unit sphere.

    Starts from a random unit vector, follows the sphere-tangent gradient
    of <a, s> with renormalisation each step, and stops when the relative
    objective change drops below ``tol``.  A start trapped at the antipodal
    stationary point (negative deflection, zero gradient) is retried from
    the next substream.  Returns a full-layout unit vector like optimum_a.
    """
    layout = pulse_details.layout
    mask = layout.steady_mask()
    s = pulse_details.values[mask]
    nrm = float(np.linalg.norm(s))
    if nrm == 0.0:
        raise ValueError("template has no energy on the steady ranges of these scales")
    for attempt in range(8):
        rng = substream(seed, (attempt,))
        a = normal(rng, s.shape[0])
        a /= np.linalg.norm(a)
        obj = float(a @ s)
        converged = False
        for _ in range(int(max_iters)):
            grad = s - obj * a  # tangent component of the objective gradient
            a = a + grad / nrm
            a /= np.linalg.norm(a)
            new_obj = float(a @ s)
            if abs(new_obj - obj) <= tol * max(abs(new_obj), 1e-30):
                obj = new_obj
                converged = True
                break
            obj = new_obj
        if converged and obj > 0.0:
            out = np.zeros(layout.total_length)
            out[mask] = a
            return out
    raise RuntimeError(f"deflection ascent failed to converge within {max_iters} iterations")


def kkt_violation(model, X):
    """Largest remaining violation m - M of the SVM dual optimality conditions.

    With beta = alpha * y and F_i = y_i - sum_k beta_k <x_i, x_k>, index i
    can raise beta_i unless it sits on the bound in that direction (I_up),
    and lower it unless it sits on the other bound (I_low).
    """
    y = model.y.astype(np.float64)
    F = y - (X @ X.T) @ (model.alphas * y)
    box = np.where(model.y == 1, model.c_plus, model.c_minus)
    at_zero, at_box = model.alphas <= 0.0, model.alphas >= box
    pos = model.y == 1
    i_up = np.where(pos, ~at_box, ~at_zero)
    i_low = np.where(pos, ~at_zero, ~at_box)
    return float(np.max(F[i_up]) - np.min(F[i_low]))


def reference_smo(X, y, c_plus, c_minus, kkt_tolerance, max_passes):
    """The SMO loop as it stood before its steps stopped allocating.

    Frozen as written then: K is built per fit, the index sets are fresh
    ``np.where`` masks each step and the margin update forms
    ``t * (K[i] - K[j])`` as temporaries.  ``wavedet.svm.train`` must give
    the same bytes.  Returns (beta, b, converged, n_passes, history).
    """
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    pos = y == 1
    box = np.where(pos, float(c_plus), float(c_minus))
    ub = np.where(pos, box, 0.0)
    lb = np.where(pos, 0.0, -box)
    K = X @ X.T
    beta = np.zeros(n)
    f = np.zeros(n)
    history = []
    converged = False
    n_passes = 0
    m = m_low = 0.0
    for _pass in range(int(max_passes)):
        n_passes = _pass + 1
        for _step in range(n):
            F = y - f
            i = int(np.argmax(np.where(beta < ub, F, -np.inf)))
            j = int(np.argmin(np.where(beta > lb, F, np.inf)))
            m, m_low = float(F[i]), float(F[j])
            if m - m_low <= kkt_tolerance:
                converged = True
                break
            t_hi = min(float(ub[i] - beta[i]), float(beta[j] - lb[j]))
            eta = float(K[i, i] + K[j, j] - 2.0 * K[i, j])
            if eta > 0.0:
                t = min((m - m_low) / eta, t_hi)
            else:
                t = t_hi
            beta[i] += t
            beta[j] -= t
            for k in (i, j):
                if abs(beta[k]) < 1e-12 * box[k]:
                    beta[k] = 0.0
                elif abs(beta[k]) > box[k] * (1.0 - 1e-12):
                    beta[k] = ub[k] if pos[k] else lb[k]
            f += t * (K[i] - K[j])
        f = K @ beta
        history.append(float(np.sum(np.abs(beta)) - 0.5 * beta @ f))
        if converged:
            break
    return beta, 0.5 * (m + m_low), converged, n_passes, tuple(history)


def stage_matrix(f, n):
    """Dense operator for circular convolution + dyadic downsampling."""
    H = np.zeros((n // 2, n))
    for k in range(n // 2):
        for j, c in enumerate(f):
            H[k, (2 * k - j) % n] += c
    return H


def dense_steady(X, filters, layout):
    """Steady-range details of each row of X in ``layout``, by dense stage matrices."""
    cur = np.asarray(X, dtype=np.float64)
    details = []
    for _ in range(max(layout.scales)):
        n = cur.shape[1]
        details.append(cur @ stage_matrix(filters.g, n).T)
        cur = cur @ stage_matrix(filters.h, n).T
    full = np.concatenate([details[s - 1] for s in layout.scales], axis=1)
    return full[:, layout.steady_mask()]


def _reference_filter_down(X, f):
    """One pyramid stage as it stood before its window view dropped ``as_strided``.

    Frozen as written then: the view comes from ``as_strided`` and the filter
    is reversed at every stage.
    """
    B, M = X.shape
    L = f.shape[0]
    if L - 1 <= M:
        prefix = X[:, M - (L - 1):]
    else:
        prefix = X[:, np.arange(M - (L - 1), M) % M]
    Xp = np.concatenate([prefix, X], axis=1)
    row, col = Xp.strides
    windows = as_strided(Xp, shape=(B, M // 2, L), strides=(row, 2 * col, col),
                         writeable=False)
    return windows @ np.ascontiguousarray(f[::-1])


def reference_pyramid(X, filters, max_level, min_level=1):
    """``wavedet.wavelet.pyramid_batch`` built from the frozen stage; it must
    give the same bytes.  Returns (approximation, [d_min .. d_max])."""
    approx = np.asarray(X, dtype=np.float64)
    details = []
    for level in range(1, max_level + 1):
        if level >= min_level:
            details.append(_reference_filter_down(approx, filters.g))
        approx = _reference_filter_down(approx, filters.h)
    return approx, details
