"""Batched signal-to-feature pipeline and the one Monte Carlo stream.

A FeaturePipe fixes a filter pair and a scale layout built for the pair's
filter length, which implies the signal length, and turns raw sample
batches into concatenated detail vectors or their steady-range
restrictions.  Monte Carlo streams are chunked: trial t always lands in
chunk t // CHUNK with substream path (*path, chunk), so the realisation of
trial t depends only on (seed, path, t), never on how many trials a caller
asked for or in what order chunks were evaluated.

``noise_steady`` and ``obs_steady`` are the only streams.  They apply a
caller's row statistic (F @ a, max |F|, by default the features) to each
block's column-major steady features and return its values in trial
order.  BLAS picks its kernel, and so its rounding, from the operand's
shape: F @ a over a one-row array rounds differently from the same row in
a larger one.  So a short block is padded with zero rows to the full block
shape before the statistic sees it, and the padding's values are dropped.
The value of trial t then depends only on (seed, path, t), CHUNK and
BLOCK_SAMPLES, never on how many trials a caller asked for.

Within a chunk, rows are drawn and transformed in blocks of about 1 MB of
samples, so that a block's signal, padded rows and filter outputs stay in
the L2 cache.  Successive draws from one substream continue it, so the
blocks realise exactly the rows a single whole-chunk draw would.

Each stream starts its own workers, at most one per usable CPU, and joins
them before it returns or raises.  They share one queue of every block of
the call, in draw order.  A worker takes the next block and draws its
integers from the chunk's substream under one lock: ``Generator.integers``
releases the GIL, but a generator's lock serialises its draws, and each
block must continue the substream where the previous block left it.
Outside the lock it does the rest of the block (inverse CDF, signal,
pyramid, statistic) and writes the block's values into their rows of the
result.  The calling thread draws and applies nothing; it waits for the
workers.

A worker may draw a block of the next chunk while the current chunk's last
blocks are transformed, but runs its pyramid only once every block of the
chunk before has its values.  So the first error, in a block's pyramid or
in its statistic, stops the stream before any block of a later chunk is
transformed; every block in flight settles, and the stream re-raises that
error.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import CHUNK, chunk_bounds, normal_from_ints, normal_ints, substream
from .signals import Hypothesis, NoiseModel, SampledSignal, amplitude
from .wavelet import DetailCoefficients, ScaleLayout, WaveletFilterPair, pyramid_batch

# samples per block of a Monte Carlo chunk: 2^17 float64 values are 1 MB
BLOCK_SAMPLES = 2**17


def _worker_count() -> int:
    """Block workers per stream: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class FeaturePipe:
    """Filter pair + a layout built for its filter length, with batch transforms.

    The layout fixes the signal length, and its steady ranges exclude every
    coefficient that the filters' boundary reaches.
    """

    filters: WaveletFilterPair
    layout: ScaleLayout

    def __post_init__(self) -> None:
        if self.layout.filter_length != self.filters.length:
            raise ValueError(f"layout built for filter length {self.layout.filter_length}, "
                             f"but {self.filters.family_name} has length {self.filters.length}")

    @classmethod
    def for_scales(
        cls, length: int, filters: WaveletFilterPair, scales: Sequence[int]
    ) -> "FeaturePipe":
        return cls(filters=filters, layout=ScaleLayout(scales, length, filters.length))

    @property
    def length(self) -> int:
        return self.layout.source_length

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
        """``stat`` of each block's features, drawn and transformed in blocks.

        ``add_signal(X, lo, hi)`` adds the signal part of trials lo..hi-1 to
        their noise rows X in place, or is None for noise-only trials.
        """
        stat = stat or (lambda F: F)
        width = self.layout.steady_length
        # the statistic of an empty block fixes the shape and type of the values
        v = stat(np.empty((0, width), order="F"))
        out = np.empty((int(trials), *v.shape[1:]), dtype=v.dtype, order="F")
        chunks = chunk_bounds(int(trials))
        if not chunks:
            return out
        # rows of a full block, which never spans two chunks
        rows = min(CHUNK, max(1, BLOCK_SAMPLES // self.length))
        pending = [-(-(stop - start) // rows) for _, start, stop in chunks]
        # every block of the call, (chunk, first trial, offset, rows), in draw order
        blocks = ((c, start, i, min(rows, stop - start - i))
                  for c, start, stop in chunks for i in range(0, stop - start, rows))
        draws = threading.Lock()  # one substream is continued block by block
        state = threading.Condition()  # guards pending and stopped
        stopped = False
        rng = None

        def work() -> None:
            nonlocal rng, stopped
            try:
                while not stopped:
                    with draws:
                        c, start, i, m = next(blocks, (None,) * 4)
                        if c is None:
                            return
                        if i == 0:
                            rng = substream(seed, (*path, c))
                        U = normal_ints(rng, (m, self.length))
                    X = normal_from_ints(U, model.sigma_n)
                    if add_signal is not None:
                        add_signal(X, start + i, start + i + m)
                    # the pyramid waits until every block of the chunk before
                    # has its values, so that a failed block stops all later chunks
                    with state:
                        while not stopped and c and pending[c - 1]:
                            state.wait()
                        if stopped:
                            return
                    F = self.steady_batch(X)
                    if m < rows:
                        # zero rows pad a short block to the full block shape,
                        # column-major like a full block's features, so that a
                        # statistic such as F @ a runs the same BLAS kernel,
                        # and rounds the same, on every block
                        padded = np.zeros((rows, width), order="F")
                        padded[:m] = F
                        F = padded
                    out[start + i:start + i + m] = stat(F)[:m]
                    with state:
                        pending[c] -= 1
                        if not pending[c]:
                            state.notify_all()
            except BaseException:
                with state:
                    stopped = True
                    state.notify_all()
                raise

        workers = min(_worker_count(), sum(pending))
        with ThreadPoolExecutor(workers, thread_name_prefix="wavedet-block") as pool:
            # each worker runs in its own copy of the caller's context, so
            # that count_ops and other context state reach it
            futures = [pool.submit(contextvars.copy_context().run, work) for _ in range(workers)]
            try:
                for f in futures:
                    f.result()
            finally:
                # leaving the with block joins every worker, so an error
                # leaves the stream only once every block has settled
                with state:
                    stopped = True
                    state.notify_all()
        return out

    def noise_steady(
        self,
        model: NoiseModel,
        trials: int,
        seed: int,
        path: Sequence[int] = (),
        stat: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Noise-only trials: ``stat`` of each trial's steady features (default: the features).

        ``stat`` must be a pure row-wise function that may run on several
        threads at once.  It sees one block at a time, padded with zero rows
        to the full block shape, so its values depend on BLOCK_SAMPLES as
        the features depend on CHUNK, but not on ``trials``.
        """
        return self._stream(model, trials, seed, path, None, stat)

    def obs_steady(
        self,
        pulse: SampledSignal,
        snr_db: np.ndarray,
        model: NoiseModel,
        trials: int,
        seed: int,
        path: Sequence[int] = (),
        stat: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray:
        """Pulse-plus-noise trials: ``stat`` of each trial's steady features.

        ``snr_db`` is a length-``trials`` vector giving each trial its own
        SNR.  ``stat`` is applied as in ``noise_steady``.
        """
        if pulse.hypothesis is not Hypothesis.TEMPLATE:
            raise ValueError("expected a pulse template")
        if pulse.length != self.length:
            raise ValueError(f"pulse length {pulse.length} does not match the pipe's "
                             f"signal length {self.length}")
        amps = amplitude(snr_db, model)
        if amps.shape != (trials,):
            raise ValueError("snr_db must hold one SNR per trial")

        def add_pulse(X: np.ndarray, lo: int, hi: int) -> None:
            X += amps[lo:hi, None] * pulse.samples

        return self._stream(model, trials, seed, path, add_pulse, stat)
