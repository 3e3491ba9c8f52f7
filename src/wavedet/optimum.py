"""Theoretical-limit detector coefficients.

At fixed Pfa the detection probability of the linear statistic is monotone
in the deflection <a, s> / ||a|| taken over the steady indices, where s is
the template's detail vector.  By Cauchy-Schwarz the maximiser is a
proportional to s on the steady ranges, i.e. a matched filter in the
wavelet domain; the SNR only scales the achieved deflection and never
moves the argmax.
"""

from __future__ import annotations

import numpy as np

from .detector import Calibration, LinearDetector, threshold_for_pfa_analytic
from .signals import NoiseModel
from .wavelet import DetailCoefficients, _detector_id


def optimum_a(
    pulse_details: DetailCoefficients,
    target_pfa: float,
    model: NoiseModel,
) -> LinearDetector:
    """Deflection-maximising unit-norm coefficients with analytic threshold."""
    layout = pulse_details.layout
    s = pulse_details.steady_values()
    nrm = float(np.linalg.norm(s))
    if nrm == 0.0:
        raise ValueError("template has no energy on the steady ranges of these scales")
    a = layout.embed(s / nrm)
    vt = threshold_for_pfa_analytic(a, layout, model, target_pfa)
    return LinearDetector(
        a=a,
        layout=layout,
        v_threshold=vt,
        target_pfa=float(target_pfa),
        calibration=Calibration("analytic"),
        detector_id=_detector_id("optimum", layout.scales),
    )
