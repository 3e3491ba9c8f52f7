"""Batched signal-to-feature pipeline and the one Monte Carlo stream.

A FeaturePipe fixes the (signal length, filter pair, scale layout) triple
and turns raw sample batches into concatenated detail vectors or their
steady-range restrictions.  Monte Carlo streams are chunked: trial t
always lands in chunk t // CHUNK with substream path (*path, chunk), so the
realisation of trial t depends only on (seed, path, t), never on how many
trials a caller asked for or in what order chunks were evaluated.

``noise_steady`` and ``obs_steady`` are the only streams.  They apply a
caller's row statistic (F @ a, max |F|, by default the features) to each
whole chunk's column-major steady features and return its values in trial
order.  BLAS picks its kernel, and so its rounding, from the operand's
shape: F @ a over a one-row block rounds differently from the same row in
its chunk.  Chunk bounds are fixed by CHUNK, so whole-chunk values are
reproducible; per-block values would also depend on BLOCK_SAMPLES.

Within a chunk, rows are drawn and transformed in blocks of about 1 MB of
samples, so that a block's signal, padded rows and filter outputs stay in
the L2 cache.  Successive draws from one substream continue it, so the
blocks realise exactly the rows a single whole-chunk draw would.

The calling thread draws each block's integers from the chunk's substream,
in order; ``Generator.integers`` holds the GIL, so it gains nothing from
threads.  A pool of one worker per usable CPU does the rest of each block
(inverse CDF, signal, pyramid), which releases the GIL, into the block's
rows of the chunk.  At most one block per worker is in flight.  Once every
block of a chunk has settled, the calling thread re-raises the first
worker error, or applies the statistic to the whole chunk, so the values
do not depend on which thread transformed which block.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import chunk_bounds, normal_from_ints, normal_ints, substream
from .signals import Hypothesis, NoiseModel, SampledSignal, amplitude
from .wavelet import DetailCoefficients, ScaleLayout, WaveletFilterPair, pyramid_batch

# samples per block of a Monte Carlo chunk: 2^17 float64 values are 1 MB
BLOCK_SAMPLES = 2**17

_pool: tuple[ThreadPoolExecutor, int] | None = None
_pool_lock = threading.Lock()


def _block_pool() -> tuple[ThreadPoolExecutor, int]:
    """The block workers and their number, one per usable CPU, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            if hasattr(os, "sched_getaffinity"):
                size = len(os.sched_getaffinity(0))
            else:
                size = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(size, thread_name_prefix="wavedet-block"), size
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the executor but none of its threads, so work
    # submitted to it would never run; the child starts its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def layout_for_scales(
    length: int, filters: WaveletFilterPair, scales: Sequence[int]
) -> ScaleLayout:
    """Layout of the concatenated detail vector for ``scales`` of a 2^N signal.

    Scale i has 2^(N-i) coefficients.  Its steady_start is the filter length
    L, clamped to the segment length when the scale is too deep to have any
    steady coefficients (such a scale cannot back a detector, but its values
    still satisfy Parseval).
    """
    n = int(length)
    if n < 2 or n & (n - 1):
        raise ValueError(f"signal length must be a power of two >= 2, got {length}")
    N = n.bit_length() - 1
    if not scales:
        raise ValueError("scale set must be non-empty")
    if any(not 1 <= int(s) <= N for s in scales):
        raise ValueError(f"scales {tuple(scales)} out of range for length {n}")
    lengths = tuple(2 ** (N - int(s)) for s in scales)
    starts = tuple(min(filters.length, m) for m in lengths)
    return ScaleLayout(scales=tuple(int(s) for s in scales), seg_lengths=lengths,
                       steady_starts=starts)


@dataclass(frozen=True)
class FeaturePipe:
    """Signal length + filter pair + detail layout, with batch transforms."""

    length: int
    filters: WaveletFilterPair
    layout: ScaleLayout

    def __post_init__(self) -> None:
        if self.layout.source_length != self.length:
            raise ValueError(
                f"layout implies source length {self.layout.source_length}, "
                f"pipe declares {self.length}"
            )

    @classmethod
    def for_scales(
        cls, length: int, filters: WaveletFilterPair, scales: Sequence[int]
    ) -> "FeaturePipe":
        return cls(length=int(length), filters=filters,
                   layout=layout_for_scales(length, filters, scales))

    @property
    def steady_dim(self) -> int:
        return self.layout.steady_length

    def transform_batch(self, X: np.ndarray) -> np.ndarray:
        """Concatenated detail values, one row per input row."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.length:
            raise ValueError(
                f"expected a (batch, {self.length}) array, got {X.shape}"
            )
        lowest = min(self.layout.scales)
        _, dets = pyramid_batch(X, self.filters, max(self.layout.scales), lowest)
        return np.concatenate([dets[s - lowest] for s in self.layout.scales], axis=1)

    def steady_batch(self, X: np.ndarray) -> np.ndarray:
        """Steady-range detail features, one row per input row."""
        return self.transform_batch(X)[:, self.layout.steady_mask()]

    def details_of(self, x: SampledSignal | np.ndarray) -> DetailCoefficients:
        """Detail vector of one signal arranged in this pipe's layout."""
        samples = x.samples if isinstance(x, SampledSignal) else np.asarray(x)
        return DetailCoefficients(self.transform_batch(samples[None, :])[0], self.layout)

    # -- chunked Monte Carlo streams -------------------------------------------

    def _stream(
        self,
        model: NoiseModel,
        trials: int,
        seed: int,
        path: Sequence[int],
        add_signal: Callable[[np.ndarray, int, int], None] | None,
        stat: Callable[[np.ndarray], np.ndarray] | None,
    ) -> np.ndarray:
        """``stat`` of each chunk's features, drawn and transformed in blocks.

        ``add_signal(X, lo, hi)`` adds the signal part of trials lo..hi-1 to
        their noise rows X in place, or is None for noise-only trials.
        """
        stat = stat or (lambda F: F)
        # the statistic of an empty chunk fixes the shape and type of the values
        v = stat(np.empty((0, self.steady_dim), order="F"))
        out = np.empty((int(trials), *v.shape[1:]), dtype=v.dtype, order="F")
        rows = max(1, BLOCK_SAMPLES // self.length)
        pool, size = _block_pool()
        for c, start, stop in chunk_bounds(int(trials)):
            rng = substream(seed, (*path, c))
            # column-major like steady_batch's masked result, so that a
            # statistic such as F @ a runs the same BLAS kernel and rounds the same
            F = np.empty((stop - start, self.steady_dim), order="F")
            blocks: list[Future] = []
            try:
                for i in range(0, stop - start, rows):
                    U = normal_ints(rng, (min(rows, stop - start - i), self.length))
                    # at most `size` blocks in flight; submit nothing after a failure
                    if len(blocks) >= size and blocks[-size].exception() is not None:
                        break
                    # each block runs in its own copy of the caller's context,
                    # so that count_ops and other context state reach it
                    blocks.append(pool.submit(contextvars.copy_context().run, self._block,
                                              F[i:i + U.shape[0]], U, model.sigma_n,
                                              add_signal, start + i))
            finally:
                wait(blocks)
            for b in blocks:
                b.result()
            out[start:stop] = stat(F)
        return out

    def _block(
        self,
        F: np.ndarray,
        U: np.ndarray,
        sigma: float,
        add_signal: Callable[[np.ndarray, int, int], None] | None,
        lo: int,
    ) -> None:
        """Steady features of the trials lo.. drawn as ``U``, written into their rows ``F``."""
        X = normal_from_ints(U, sigma)
        if add_signal is not None:
            add_signal(X, lo, lo + X.shape[0])
        F[...] = self.steady_batch(X)

    def noise_steady(
        self,
        model: NoiseModel,
        trials: int,
        seed: int,
        path: Sequence[int] = (),
        stat: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Noise-only trials: ``stat`` of each trial's steady features (default: the features)."""
        return self._stream(model, trials, seed, path, None, stat)

    def obs_steady(
        self,
        pulse: SampledSignal,
        snr_db,
        model: NoiseModel,
        trials: int,
        seed: int,
        path: Sequence[int] = (),
        stat: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Pulse-plus-noise trials: ``stat`` of each trial's steady features.

        ``snr_db`` is a scalar applied to every trial or a length-``trials``
        vector giving each trial its own SNR.
        """
        if pulse.hypothesis is not Hypothesis.TEMPLATE:
            raise ValueError("expected a pulse template")
        snr = np.asarray(snr_db, dtype=np.float64)
        per_trial = snr.ndim == 1
        if per_trial and snr.shape[0] != trials:
            raise ValueError("per-trial snr vector length must equal trials")
        amps = amplitude(snr, model)

        def add_pulse(X: np.ndarray, lo: int, hi: int) -> None:
            a = amps[lo:hi, None] if per_trial else float(amps)
            X += a * pulse.samples

        return self._stream(model, trials, seed, path, add_pulse, stat)
