"""Batched signal-to-feature pipeline and the one Monte Carlo stream.

A FeaturePipe fixes a filter pair and a scale layout built for the pair's
filter length, which implies the signal length, and turns raw sample
batches into concatenated detail vectors or their steady-range
restrictions.  The Monte Carlo stream is chunked: trial t always lands in
chunk t // CHUNK with substream path (*path, chunk), so the realisation of
trial t depends only on (seed, path, t), never on how many trials a caller
asked for or in what order chunks were evaluated.

``noise_steady`` is the only stream.  It applies a caller's row statistic
(F @ a, max |F|, by default the features) to each block's column-major
steady features and returns its values in trial order.  Pulse-plus-noise
trials need no stream of their own: the pyramid is linear, so a caller
adds A * mu, the pulse's steady details scaled by its amplitude, to the
noise features F.  BLAS picks its kernel, and so its rounding, from the
operand's shape: F @ a over a one-row array rounds differently from the
same row in a larger one.  So a short block is padded with zero rows to
the full block shape before the statistic sees it, and the padding's
values are dropped.  The value of trial t then depends only on (seed,
path, t), CHUNK and BLOCK_SAMPLES, never on how many trials a caller asked
for.

The stream runs one chunk at a time on its own workers, at most one per
usable CPU, and joins them before it returns or raises.  A worker takes the
chunk's next block and draws its integers from the chunk's substream under
one lock: ``Generator.integers`` releases the GIL, but a generator's lock
serialises its draws, and each block must continue the substream where the
previous block left it.  Outside the lock it does the rest of the block
(inverse CDF, pyramid, statistic) and writes the block's values into their
rows of the result.  Every block of a chunk settles before the next chunk
is drawn, so the first error, in a block's pyramid or in its statistic,
leaves the stream before any block of a later chunk is transformed.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .rng import CHUNK, chunk_bounds, normal_from_ints, normal_ints, substream
from .signals import NoiseModel, SampledSignal
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

    # -- the chunked Monte Carlo stream ----------------------------------------

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
        stat = stat or (lambda F: F)
        width = self.layout.steady_length
        # the statistic of an empty block fixes the shape and type of the values
        v = stat(np.empty((0, width), order="F"))
        out = np.empty((int(trials), *v.shape[1:]), dtype=v.dtype, order="F")
        # rows of a full block, which never spans two chunks
        rows = min(CHUNK, max(1, BLOCK_SAMPLES // self.length))
        draws = threading.Lock()  # one substream is continued block by block

        def work(rng: np.random.Generator, starts: Iterator[int], stop: int) -> None:
            while True:
                with draws:
                    i = next(starts, None)
                    if i is None:
                        return
                    m = min(rows, stop - i)
                    U = normal_ints(rng, (m, self.length))
                # X stays bound until the next block: freeing it at once cost a
                # worker 12-25% more CPU, most likely in the allocator
                X = normal_from_ints(U, model.sigma_n)
                F = self.steady_batch(X)
                if m < rows:
                    # zero rows pad a short block to the full block shape,
                    # column-major like a full block's features, so that a
                    # statistic such as F @ a runs the same BLAS kernel,
                    # and rounds the same, on every block
                    padded = np.zeros((rows, width), order="F")
                    padded[:m] = F
                    F = padded
                out[i:i + m] = stat(F)[:m]

        workers = _worker_count()
        with ThreadPoolExecutor(workers, thread_name_prefix="wavedet-block") as pool:
            for c, start, stop in chunk_bounds(int(trials)):
                rng = substream(seed, (*path, c))
                starts = iter(range(start, stop, rows))
                # each worker runs in its own copy of the caller's context, so
                # that count_ops and other context state reach it
                futures = [pool.submit(contextvars.copy_context().run, work, rng, starts, stop)
                           for _ in range(min(workers, -(-(stop - start) // rows)))]
                # every block of the chunk settles before the next chunk is
                # drawn: a worker's error leaves the loop here, and leaving
                # the with block joins the chunk's other workers
                for f in futures:
                    f.result()
        return out
