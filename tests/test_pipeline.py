import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wavedet import FeaturePipe, NoiseModel, amplitude, layout_for_scales, make_chirp, pipeline
from wavedet.pipeline import BLOCK_SAMPLES
from wavedet.rng import CHUNK, chunk_bounds, normal, substream


def test_layout_for_scales(db5):
    layout = layout_for_scales(256, db5, (3, 4))
    assert layout.scales == (3, 4)
    assert layout.seg_lengths == (32, 16)
    assert layout.steady_starts == (10, 10)
    assert layout.source_length == 256
    with pytest.raises(ValueError):
        layout_for_scales(256, db5, (9,))
    with pytest.raises(ValueError):
        layout_for_scales(250, db5, (3,))


def test_details_of_matches_transform_batch(pipe34, rng):
    x = rng.standard_normal((5, 256))
    F = pipe34.transform_batch(x)
    for i in range(5):
        d = pipe34.details_of(x[i])
        np.testing.assert_array_equal(d.values, F[i])
        assert d.layout == pipe34.layout


def test_steady_batch_selects_mask(pipe34, rng):
    x = rng.standard_normal((4, 256))
    F = pipe34.transform_batch(x)
    S = pipe34.steady_batch(x)
    np.testing.assert_array_equal(S, F[:, pipe34.layout.steady_mask()])
    assert pipe34.steady_dim == S.shape[1] == 28


def test_noise_stream_is_chunk_invariant(pipe34, noise):
    # the same trial indices produce the same rows regardless of how many
    # trials are materialized in one call
    full = pipe34.noise_steady(noise, CHUNK + 50, seed=9)
    head = pipe34.noise_steady(noise, 30, seed=9)
    np.testing.assert_array_equal(full[:30], head)

    # the statistic sees each whole chunk once, and its values land in trial order
    sizes = []

    def first_feature(F):
        sizes.append(F.shape[0])
        return F[:, 0]

    v = pipe34.noise_steady(noise, CHUNK + 50, seed=9, stat=first_feature)
    assert [n for n in sizes if n] == [CHUNK, 50]
    np.testing.assert_array_equal(v, full[:, 0])


def test_block_and_chunk_seams_keep_every_trial(pipe34, pulse256):
    # at length 256 a chunk is transformed in 8 blocks of 512 rows; the
    # streams must equal whole-chunk draws and transforms, trial for trial
    assert CHUNK // (BLOCK_SAMPLES // 256) == 8
    model = NoiseModel(sigma_n=1.7)
    trials = CHUNK + 300
    snr = np.linspace(-12.0, 2.0, trials)
    mask = pipe34.layout.steady_mask()
    noise_ref, obs_ref = [], []
    for c, start, stop in chunk_bounds(trials):
        X = normal(substream(21, (5, c)), (stop - start, 256), model.sigma_n)
        noise_ref.append(pipe34.transform_batch(X)[:, mask])
        X = normal(substream(22, (c,)), (stop - start, 256), model.sigma_n)
        X += amplitude(snr[start:stop], model)[:, None] * pulse256.samples
        obs_ref.append(pipe34.transform_batch(X)[:, mask])
    np.testing.assert_array_equal(
        pipe34.noise_steady(model, trials, seed=21, path=(5,)), np.concatenate(noise_ref))
    np.testing.assert_array_equal(
        pipe34.obs_steady(pulse256, snr, model, trials, seed=22), np.concatenate(obs_ref))
    # detectors project each chunk with F @ a; the chunks must also share
    # the reference's memory layout, or BLAS sums the products in another order
    a = np.random.default_rng(3).standard_normal(pipe34.steady_dim)
    np.testing.assert_array_equal(
        pipe34.noise_steady(model, trials, seed=21, path=(5,), stat=lambda F: F @ a),
        np.concatenate([ref @ a for ref in noise_ref]))


def test_statistic_sees_whole_chunks(pipe34):
    # 4609 trials: the second chunk's 513 rows are transformed as blocks of
    # 512 and 1, and BLAS rounds F @ a over a one-row block differently from
    # the same row inside its chunk; with this a the last value differs by
    # an ulp on x86-64 OpenBLAS, so a statistic applied per block fails here
    trials = CHUNK + BLOCK_SAMPLES // 256 + 1
    a = np.random.default_rng(0).standard_normal(pipe34.steady_dim)
    ref = [pipe34.steady_batch(normal(substream(5, (c,)), (stop - start, 256)))
           for c, start, stop in chunk_bounds(trials)]
    np.testing.assert_array_equal(
        pipe34.noise_steady(NoiseModel(), trials, seed=5, stat=lambda F: F @ a),
        np.concatenate([F @ a for F in ref]))


@pytest.mark.parametrize("workers", [1, 3])
def test_streams_do_not_depend_on_the_worker_count(pipe34, pulse256, monkeypatch, workers):
    model = NoiseModel(sigma_n=1.3)
    trials = CHUNK + 700
    a = np.random.default_rng(4).standard_normal(pipe34.steady_dim)

    def streams():
        return (pipe34.noise_steady(model, trials, seed=7, stat=lambda F: F @ a),
                pipe34.obs_steady(pulse256, np.linspace(-9.0, 0.0, trials), model, trials,
                                  seed=8))

    want = streams()
    with ThreadPoolExecutor(workers) as pool:
        monkeypatch.setattr(pipeline, "_pool", (pool, workers))
        got = streams()
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_workers(pipe34, noise):
    # the child inherits the block pool but not its threads; a stream that
    # submitted to it would wait forever
    want = pipe34.noise_steady(noise, 2000, seed=3)
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = np.array_equal(pipe34.noise_steady(noise, 2000, seed=3), want)
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_a_failing_block_stops_the_stream(pipe34, noise, monkeypatch):
    # at length 256 a chunk is 8 blocks; the third raises while its
    # neighbours are still being transformed
    lock = threading.Lock()
    state = {"calls": 0, "running": 0}
    steady_batch = FeaturePipe.steady_batch

    def flaky(self, X):
        with lock:
            state["calls"] += 1
            state["running"] += 1
            call = state["calls"]
        try:
            time.sleep(0.02)
            if call == 3:
                raise RuntimeError("block failed")
            return steady_batch(self, X)
        finally:
            with lock:
                state["running"] -= 1

    monkeypatch.setattr(FeaturePipe, "steady_batch", flaky)
    with pytest.raises(RuntimeError, match="block failed"):
        pipe34.noise_steady(noise, 2 * CHUNK, seed=1)
    # every block had settled before the error left the stream, and no
    # block of the second chunk was started
    assert state["running"] == 0
    assert 3 <= state["calls"] <= CHUNK // (BLOCK_SAMPLES // 256)


def test_obs_stream_scalar_and_vector_snr(pipe34, pulse256, noise):
    scalar = pipe34.obs_steady(pulse256, -5.0, noise, 8, seed=4)
    vector = pipe34.obs_steady(
        pulse256, np.full(8, -5.0), noise, 8, seed=4
    )
    np.testing.assert_array_equal(scalar, vector)
    with pytest.raises(ValueError):
        pipe34.obs_steady(pulse256, np.zeros(7), noise, 8, seed=4)


def test_obs_equals_noise_plus_scaled_template(pipe34, pulse256, noise):
    # the transform is linear, so features superpose exactly up to rounding
    obs = pipe34.obs_steady(pulse256, 0.0, noise, 16, seed=11)
    noi = pipe34.noise_steady(noise, 16, seed=11)
    tmpl = pipe34.details_of(pulse256).steady_values()
    np.testing.assert_allclose(obs, noi + tmpl, rtol=0, atol=1e-12)


def test_pipe_rejects_mismatched_layout(db5):
    layout = layout_for_scales(128, db5, (2,))
    with pytest.raises(ValueError):
        FeaturePipe(256, db5, layout)


def test_pipe_rejects_wrong_length_input(pipe34):
    with pytest.raises(ValueError):
        pipe34.transform_batch(np.zeros((2, 128)))


def test_pipe_rejects_wrong_template_length(pipe34, noise):
    short = make_chirp(128)
    with pytest.raises(ValueError):
        pipe34.details_of(short)
    with pytest.raises(ValueError):
        pipe34.obs_steady(short, 0.0, noise, 8, seed=1)
