"""Theoretical-limit detector coefficients.

At fixed Pfa the detection probability of the linear statistic is monotone
in the deflection <a, s> / ||a|| taken over the steady indices, where s is
the template's detail vector.  By Cauchy-Schwarz the maximiser is a
proportional to s on the steady ranges, i.e. a matched filter in the
wavelet domain; the SNR only scales the achieved deflection and never
moves the argmax.  A projected gradient ascent of the same objective is
provided as an independent numerical cross-check.
"""

from __future__ import annotations

import numpy as np

from .detector import Calibration, LinearDetector, threshold_for_pfa_analytic
from .rng import normal, substream
from .signals import NoiseModel
from .wavelet import DetailCoefficients


def optimum_a(
    pulse_details: DetailCoefficients,
    target_pfa: float,
    model: NoiseModel,
    detector_id: str | None = None,
) -> LinearDetector:
    """Deflection-maximising unit-norm coefficients with analytic threshold."""
    if not 0.0 < target_pfa < 1.0:
        raise ValueError(f"target_pfa must lie in (0, 1), got {target_pfa}")
    layout = pulse_details.layout
    mask = layout.steady_mask()
    s = pulse_details.values[mask]
    nrm = float(np.linalg.norm(s))
    if nrm == 0.0:
        raise ValueError("template has no energy on the steady ranges of these scales")
    a = np.zeros(layout.total_length)
    a[mask] = s / nrm
    vt = threshold_for_pfa_analytic(a, layout, model, target_pfa)
    if detector_id is None:
        detector_id = "optimum-" + "_".join(str(s_) for s_ in layout.scales)
    return LinearDetector(
        a=a,
        layout=layout,
        v_threshold=vt,
        target_pfa=float(target_pfa),
        calibration=Calibration("analytic"),
        detector_id=detector_id,
    )


def numerical_optimum_a(
    pulse_details: DetailCoefficients,
    tol: float = 1e-9,
    max_iters: int = 500,
    seed: int = 0,
) -> np.ndarray:
    """Gradient ascent of the deflection on the unit sphere (test oracle).

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
