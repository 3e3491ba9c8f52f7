"""Reproducible random number generation.

All stochastic code in the package draws from counter-based Philox streams
addressed by a ``(seed, path)`` pair, where ``path`` is a tuple of small
non-negative integers naming the purpose of the stream (calibration,
detection trials, training patterns, ...) and, for chunked Monte Carlo
loops, the chunk index.  Because substream identity is derived from indices
rather than from generation order, results are independent of chunk size
scheduling and identical to a sequential run.

Gaussian variates are produced by the inverse-CDF method: a 53-bit uniform
integer is mapped through the standard normal quantile function.  This
makes each variate a pure function of its uniform draw (no rejection, no
cached spare), which keeps streams stable under vectorised generation.
The largest magnitude representable this way is about 8.13 standard
deviations; the probability mass beyond that point (~5e-16) is far below
every tolerance used in this package.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.special import ndtri

# Identity string recorded in output artifacts so that files state which
# generator/sampling scheme produced them.
RNG_ID = "philox4x64/invcdf53/v1"

# Monte Carlo work is split into fixed-size blocks of trials; block b of a
# loop uses substream path + (b,).  Changing this constant changes every
# Monte Carlo stream, so it is part of the reproducibility contract.
CHUNK = 4096

_TWO53 = float(1 << 53)


def substream(seed: int, path: Iterable[int] = ()) -> np.random.Generator:
    """Return the Philox generator for stream ``path`` under ``seed``."""
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Hash ``(seed, path)`` into a fresh root seed for a sub-task."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def normal_ints(rng: np.random.Generator, shape) -> np.ndarray:
    """The 53-bit uniform integers behind ``normal``: the stage that advances ``rng``."""
    return rng.integers(1, 1 << 53, size=shape)


def normal_from_ints(u: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Map ``normal_ints`` draws to N(0, sigma^2) variates through the inverse CDF.

    A pure function of ``u``: it reads no generator, so it may run on any
    thread once the integers are drawn.
    """
    z = ndtri(u * (1.0 / _TWO53))
    if sigma != 1.0:
        z *= sigma
    return z


def normal(rng: np.random.Generator, shape, sigma: float = 1.0) -> np.ndarray:
    """Draw N(0, sigma^2) variates via the inverse CDF of 53-bit uniforms."""
    return normal_from_ints(normal_ints(rng, shape), sigma)


def uniform(rng: np.random.Generator, shape, lo: float, hi: float) -> np.ndarray:
    """Draw uniforms on [lo, hi) from the same 53-bit integer stream."""
    u = rng.integers(0, 1 << 53, size=shape) * (1.0 / _TWO53)
    return lo + (hi - lo) * u


def chunk_bounds(trials: int) -> list[tuple[int, int, int]]:
    """Split ``trials`` into (chunk_index, start, stop) blocks of CHUNK."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    out = []
    for c in range(0, (trials + CHUNK - 1) // CHUNK):
        start = c * CHUNK
        out.append((c, start, min(start + CHUNK, trials)))
    return out
