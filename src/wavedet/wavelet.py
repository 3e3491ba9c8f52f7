"""Orthonormal Daubechies filter banks and the dyadic pyramid decomposition.

The transform is the classic two-filter subband scheme: at each level the
running approximation is circularly convolved with the low-pass filter
and its high-pass quadrature mirror and decimated by two (even-indexed
outputs kept), producing the next approximation and that level's detail vector.
Periodic extension keeps the filter bank exactly orthogonal at every even
input length, so Parseval holds to rounding error and white noise maps to
white coefficients.

Callers that need only the details from some level upward pass
``min_level``: below it the pyramid runs the low-pass filter alone, since
the high-pass outputs of those levels feed nothing.

Each stage prepends the L - 1 periodic samples that the first windows reach
back to, giving a fresh (batch, M + L - 1) array, and reads the M/2
length-L windows that start at the even columns through an explicit strided
view.  Window k covers padded columns 2k .. 2k + L - 1, so the last one
(k = M/2 - 1) ends at column M + L - 3, inside the padded row.

A ScaleLayout derives each scale's ``steady_start`` from the filter
length L: a level's coefficients below L count as boundary-affected, so
detectors restrict their sums to indices at or beyond it and
boundary-affected coefficients never enter a detection statistic.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = [
    "WaveletFilterPair",
    "ScaleLayout",
    "DetailCoefficients",
    "db_filters",
    "pyramid_batch",
    "count_ops",
]

# Low-pass analysis coefficients for Daubechies orders 1..10, generated by
# spectral factorization of the order-p binomial half-band polynomial at
# 60-digit working precision and rounded to 17 significant digits.  Each
# row sums to sqrt(2) and has unit energy.
_DB_LOWPASS: dict[int, tuple[float, ...]] = {
    1: (0.70710678118654752, 0.70710678118654752),
    2: (0.48296291314453414, 0.83651630373780791, 0.22414386804201338,
        -0.12940952255126038),
    3: (0.33267055295008262, 0.80689150931109258, 0.45987750211849157,
        -0.13501102001025459, -0.085441273882026662, 0.035226291885709537),
    4: (0.2303778133088965, 0.71484657055291565, 0.63088076792985891,
        -0.027983769416859854, -0.18703481171909308, 0.030841381835560764,
        0.0328830116668852, -0.010597401785069032),
    5: (0.16010239797419291, 0.60382926979718967, 0.72430852843777293,
        0.13842814590132073, -0.24229488706638203, -0.032244869584638375,
        0.077571493840045714, -0.0062414902127982743, -0.012580751999081999,
        0.0033357252854737713),
    6: (0.11154074335010946, 0.49462389039845309, 0.75113390802109535,
        0.31525035170919763, -0.22626469396543982, -0.12976686756726194,
        0.097501605587323049, 0.027522865530305729, -0.03158203931748603,
        0.00055384220116149614, 0.0047772575109455106, -0.0010773010853084796),
    7: (0.077852054085009179, 0.39653931948191731, 0.72913209084623512,
        0.46978228740519312, -0.14390600392856498, -0.22403618499387498,
        0.071309219266830265, 0.080612609151083072, -0.038029936935014414,
        -0.016574541630666881, 0.012550998556099841, 0.00042957797292136652,
        -0.0018016407040474909, 0.00035371379997452025),
    8: (0.05441584224310401, 0.31287159091429997, 0.67563073629728981,
        0.58535468365420671, -0.015829105256349306, -0.28401554296154693,
        0.00047248457391328277, 0.12874742662047846, -0.017369301001807546,
        -0.044088253930794752, 0.013981027917398282, 0.0087460940474057767,
        -0.0048703529934515743, -0.00039174037337694705, 0.00067544940645056937,
        -0.00011747678412476953),
    9: (0.038077947363878347, 0.24383467461259035, 0.60482312369011111,
        0.65728807805130054, 0.13319738582500758, -0.29327378327917491,
        -0.096840783222976461, 0.14854074933810638, 0.030725681479333379,
        -0.067632829061329974, 0.00025094711483145196, 0.022361662123679097,
        -0.0047232047577513973, -0.0042815036824634298, 0.0018476468830562265,
        0.00023038576352319597, -0.00025196318894271014, 3.9347320316271599e-05),
    10: (0.026670057900555554, 0.18817680007769149, 0.52720118893172559,
         0.68845903945360357, 0.28117234366057746, -0.24984642432731538,
         -0.19594627437737704, 0.12736934033579326, 0.093057364603572351,
         -0.071394147166397087, -0.029457536821875813, 0.033212674059341002,
         0.0036065535669561697, -0.010733175483330575, 0.0013953517470529012,
         0.0019924052951850561, -0.00068585669495971163, -0.00011646685512928545,
         9.3588670320069591e-05, -1.3264202894521245e-05),
}

_ENERGY_TOL = 1e-12
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class WaveletFilterPair:
    """Orthonormal analysis pair of even length L, given by its low-pass filter h.

    The high-pass filter g[n] = (-1)^n * h[L-1-n] is derived: h's quadrature mirror.
    """

    h: np.ndarray
    g: np.ndarray = field(init=False)
    family_name: str

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=np.float64).copy()
        L = h.shape[0] if h.ndim == 1 else 0
        if L < 2 or L % 2:
            raise ValueError(f"h must be a 1-D filter of even length >= 2, got shape {h.shape}")
        e = float(h @ h)
        if abs(e - 1.0) > _ENERGY_TOL:
            raise ValueError(f"h energy {e!r} deviates from 1 beyond {_ENERGY_TOL}")
        for k in range(1, L // 2):
            dot = float(h[: L - 2 * k] @ h[2 * k:])
            if abs(dot) > _ORTHO_TOL:
                raise ValueError(f"h fails shift-{2 * k} orthonormality: {dot!r}")
        g = np.where(np.arange(L) % 2 == 0, 1.0, -1.0) * h[::-1]
        for name, f in (("h", h), ("g", g)):
            f.flags.writeable = False
            object.__setattr__(self, name, f)

    @property
    def length(self) -> int:
        return int(self.h.shape[0])

    # built on first use rather than in __post_init__, so that parse_family,
    # which every ExperimentConfig calls, does not pay for it
    @cached_property
    def _reversed(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only contiguous (h[::-1], g[::-1]): the taps in the order a window meets them."""
        out = tuple(np.ascontiguousarray(f[::-1]) for f in (self.h, self.g))
        for f in out:
            f.flags.writeable = False
        return out


def db_filters(order: int) -> WaveletFilterPair:
    """Standard Daubechies analysis pair of length L = 2 * order; order 1 is Haar."""
    if order not in _DB_LOWPASS:
        raise ValueError(f"unsupported Daubechies order {order}; supported: 1..10")
    return WaveletFilterPair(h=np.array(_DB_LOWPASS[order], dtype=np.float64),
                             family_name=f"db{order}")


def parse_family(name: str) -> WaveletFilterPair:
    """Filter pair from a family name such as "db5" or "haar"."""
    s = name.strip().lower()
    if s == "haar":
        return db_filters(1)
    # ASCII digits only: int() would also take other scripts' digits, which
    # a config file's ASCII hash cannot encode
    order = s[2:]
    if s.startswith("db") and order.isascii() and order.isdigit():
        if int(order) in _DB_LOWPASS:
            return db_filters(int(order))
    raise ValueError(f"unknown wavelet family {name!r}")


def _set_label(scales: tuple[int, ...]) -> str:
    """The one name of a scale set in file names and detector ids: (3, 4) -> "d3_4"."""
    return "d" + "_".join(str(s) for s in scales)


def _detector_id(kind: str, scales: tuple[int, ...]) -> str:
    """The one id rule of a detector or curve: ("svm", (3, 4)) -> "svm-d3_4"."""
    return f"{kind}-{_set_label(scales)}"


def _check_scales(scales: tuple[int, ...], length: int) -> None:
    """The one scale-range rule: distinct levels 1 .. log2(length), at least one."""
    if not scales or len(set(scales)) != len(scales):
        raise ValueError(f"scale set {scales} must be non-empty, with no duplicate scale")
    for s in scales:
        if not 1 <= s < length.bit_length():
            raise ValueError(f"scale {s} out of range for length {length}")


@dataclass(frozen=True)
class ScaleLayout:
    """Shape of a (possibly concatenated) detail vector, derived from three numbers.

    ``scales`` lists the levels in storage order.  Segment k holds level
    scales[k] of a ``source_length``-sample signal, ``source_length >>
    scales[k]`` coefficients, of which those below ``min(filter_length,
    segment length)`` count as boundary-affected.  Segment lengths and
    steady starts are never given, so no layout can admit a
    boundary-affected coefficient into its steady ranges.
    """

    scales: tuple[int, ...]
    source_length: int
    filter_length: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "scales", tuple(int(s) for s in self.scales))
        _require_pow2(self.source_length)
        _check_scales(self.scales, self.source_length)
        if self.filter_length < 1:
            raise ValueError(f"filter_length must be positive, got {self.filter_length}")

    # the derived shape sits on every per-observation path, so it is cached
    # in the instance dict; fields are frozen

    @cached_property
    def seg_lengths(self) -> tuple[int, ...]:
        return tuple(self.source_length >> s for s in self.scales)

    @cached_property
    def steady_starts(self) -> tuple[int, ...]:
        return tuple(min(self.filter_length, m) for m in self.seg_lengths)

    @property
    def total_length(self) -> int:
        return sum(self.seg_lengths)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for m in self.seg_lengths:
            out.append(acc)
            acc += m
        return tuple(out)

    def steady_slices(self) -> tuple[slice, ...]:
        """Absolute slices of the steady range of each segment."""
        return tuple(
            slice(off + t, off + m)
            for off, m, t in zip(self.offsets, self.seg_lengths, self.steady_starts)
        )

    @cached_property
    def _steady_mask(self) -> np.ndarray:
        mask = np.zeros(self.total_length, dtype=bool)
        for sl in self.steady_slices():
            mask[sl] = True
        mask.flags.writeable = False
        return mask

    def steady_mask(self) -> np.ndarray:
        """Read-only boolean mask of the steady indices, built once per layout."""
        return self._steady_mask

    @cached_property
    def steady_length(self) -> int:
        return sum(m - t for m, t in zip(self.seg_lengths, self.steady_starts))

    def gather(self, full: np.ndarray) -> np.ndarray:
        """The entries of a full-layout vector at the steady indices."""
        full = np.asarray(full, dtype=np.float64)
        if full.shape != (self.total_length,):
            raise ValueError(f"vector of shape {full.shape} does not match layout total "
                             f"{self.total_length}")
        return full[self._steady_mask]

    def embed(self, steady: np.ndarray) -> np.ndarray:
        """A full-layout vector holding ``steady`` at the steady indices, zeros elsewhere."""
        steady = np.asarray(steady, dtype=np.float64)
        if steady.shape != (self.steady_length,):
            raise ValueError(f"vector of shape {steady.shape} is not the layout's steady length")
        full = np.zeros(self.total_length)
        full[self._steady_mask] = steady
        return full


@dataclass(frozen=True)
class DetailCoefficients:
    """Detail coefficient values arranged according to a ScaleLayout."""

    values: np.ndarray
    layout: ScaleLayout

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64).copy()
        # every detector of an observation reads the steady values, so they
        # are gathered once, here
        steady = self.layout.gather(v)
        for arr in (v, steady):
            arr.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_steady", steady)

    def segment(self, scale: int) -> np.ndarray:
        k = self.layout.scales.index(scale)
        off = self.layout.offsets[k]
        return self.values[off : off + self.layout.seg_lengths[k]]

    def steady_values(self) -> np.ndarray:
        """Read-only values at the steady indices, gathered at construction."""
        return self._steady


# ---------------------------------------------------------------------------
# Operation counting.  When a counter is active, the pyramid and the
# detector statistic tally the multiply-add count implied by their actual
# loop extents; used to check the linear-in-length complexity contract.
# Monte Carlo block workers run in copies of the caller's context, so they
# add to the caller's counter concurrently.

class OpCounter:
    def __init__(self) -> None:
        self.madds = 0
        self._lock = threading.Lock()

    def add(self, n: int) -> None:
        with self._lock:
            self.madds += n


_ACTIVE_COUNTER: contextvars.ContextVar[OpCounter | None] = contextvars.ContextVar(
    "wavedet_op_counter", default=None
)


@contextlib.contextmanager
def count_ops() -> Iterator[OpCounter]:
    counter = OpCounter()
    token = _ACTIVE_COUNTER.set(counter)
    try:
        yield counter
    finally:
        _ACTIVE_COUNTER.reset(token)


def tally_madds(n: int) -> None:
    counter = _ACTIVE_COUNTER.get()
    if counter is not None:
        counter.add(int(n))


# ---------------------------------------------------------------------------
# The pyramid engine.

def _require_pow2(n: int) -> None:
    """The one power-of-two rule for signal lengths, which the pyramid needs."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"signal length must be a power of two >= 2, got {n}")


def _filter_down(X: np.ndarray, f_rev: np.ndarray) -> np.ndarray:
    """Circular convolution with f followed by keep-even decimation.

    X is (batch, M) with M even and f_rev is f reversed, contiguous; output
    is (batch, M//2) where out[b, k] = sum_j f[j] * X[b, (2k - j) mod M].
    """
    B, M = X.shape
    L = f_rev.shape[0]
    if M % 2:
        raise ValueError(f"cannot decimate odd length {M}")
    # periodic prefix of L-1 columns; modular indexing handles L - 1 > M
    if L - 1 <= M:
        prefix = X[:, M - (L - 1):]
    else:
        prefix = X[:, np.arange(M - (L - 1), M) % M]
    Xp = np.concatenate([prefix, X], axis=1)
    # window k reads Xp[:, 2k : 2k + L]; the last (k = M/2 - 1) ends at
    # column M + L - 3 of the M + L - 1 that Xp holds.  The ndarray
    # constructor rejects a view that would overrun Xp's buffer.
    row, col = Xp.strides
    windows = np.ndarray((B, M // 2, L), Xp.dtype, Xp, 0, (row, 2 * col, col))
    tally_madds(B * (M // 2) * L)
    return windows @ f_rev


def pyramid_batch(
    X: np.ndarray, filters: WaveletFilterPair, max_level: int, min_level: int = 1
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Decompose a batch of rows; returns (approximation, [d_min .. d_max]).

    Levels below ``min_level`` run only the low-pass filter, so their
    details are neither computed nor returned.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("pyramid_batch expects a 2-D batch")
    n = X.shape[1]
    _require_pow2(n)
    levels = int(max_level)
    if not 1 <= levels <= n.bit_length() - 1:
        raise ValueError(f"max_level {max_level} out of range for length {n}")
    lowest = int(min_level)
    if not 1 <= lowest <= levels:
        raise ValueError(f"min_level {min_level} out of range 1..{levels}")
    h_rev, g_rev = filters._reversed
    approx = X
    details: list[np.ndarray] = []
    for level in range(1, levels + 1):
        if level >= lowest:
            details.append(_filter_down(approx, g_rev))
        approx = _filter_down(approx, h_rev)
    return approx, details
