"""Reproducibility contract: substreams, seed derivation, Gaussian draws."""

import numpy as np
import pytest

from wavedet.rng import CHUNK, RNG_ID, chunk_bounds, derive_seed, normal, substream, uniform


def test_rng_id_is_pinned():
    assert RNG_ID == "philox4x64/invcdf53/v1"


def test_substream_is_deterministic():
    a = normal(substream(7, (1, 2)), (100,))
    b = normal(substream(7, (1, 2)), (100,))
    np.testing.assert_array_equal(a, b)


def test_substreams_differ_across_paths():
    base = normal(substream(7), (64,))
    for path in [(0,), (1,), (0, 0), (7, 3)]:
        other = normal(substream(7, path), (64,))
        assert not np.array_equal(base, other)


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(123, 4, 5)
    assert s1 == derive_seed(123, 4, 5)
    assert s1 != derive_seed(123, 4, 6)
    assert s1 != derive_seed(124, 4, 5)
    assert 0 <= s1 < 2**63


def test_normal_moments():
    x = normal(substream(0), (200_000,), sigma=2.0)
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 2.0) < 0.01
    # inverse-CDF draws never produce non-finite values
    assert np.isfinite(x).all()


def test_normal_is_symmetric_under_sign_count():
    x = normal(substream(3), (100_000,))
    frac = (x > 0).mean()
    assert abs(frac - 0.5) < 0.01


def test_uniform_bounds():
    u = uniform(substream(5), (50_000,), -3.0, 2.0)
    assert u.min() >= -3.0
    assert u.max() <= 2.0
    assert abs(u.mean() + 0.5) < 0.05


def test_chunk_bounds_partition_trials():
    for trials in [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]:
        bounds = chunk_bounds(trials)
        assert bounds[0][1] == 0
        assert bounds[-1][2] == trials
        for (c0, s0, e0), (c1, s1, e1) in zip(bounds, bounds[1:]):
            assert e0 == s1
            assert c1 == c0 + 1
        assert all(e - s <= CHUNK for _, s, e in bounds)


def test_chunking_does_not_change_the_stream():
    # trial i always lands in chunk i // CHUNK, so a longer run extends
    # a shorter one sample for sample
    seed = 99

    def draws(trials):
        out = np.empty(trials)
        for c, s, e in chunk_bounds(trials):
            out[s:e] = normal(substream(seed, (c,)), (e - s,))
        return out

    short = draws(CHUNK + 100)
    long = draws(2 * CHUNK)
    np.testing.assert_array_equal(short, long[: CHUNK + 100])


def test_successive_draws_continue_one_stream():
    # blocked Monte Carlo draws a chunk's rows in several calls on one
    # substream; they must equal the rows of a single call
    m = 24
    g = substream(13, (4, 2))
    first = normal(g, (5, m), sigma=1.5)
    second = normal(g, (11, m), sigma=1.5)
    whole = normal(substream(13, (4, 2)), (16, m), sigma=1.5)
    np.testing.assert_array_equal(np.concatenate([first, second]), whole)


def test_rejects_bad_paths():
    with pytest.raises(ValueError):
        substream(1, (-1,))
    with pytest.raises(ValueError):
        derive_seed(-5)
