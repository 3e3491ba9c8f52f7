import itertools
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavedet import (FeaturePipe, NoiseModel, ScaleLayout, estimate_pd, make_chirp, optimum_a,
                     parse_family, pipeline, svm)
from wavedet.pipeline import BLOCK_SAMPLES
from wavedet.rng import CHUNK, chunk_bounds, normal, substream


def test_scale_layout_derives_lengths_and_starts(db5):
    layout = FeaturePipe.for_scales(256, db5, (3, 4)).layout
    assert layout == ScaleLayout((3, 4), 256, db5.length)
    assert layout.seg_lengths == (32, 16)
    assert layout.steady_starts == (10, 10)
    assert layout.source_length == 256
    with pytest.raises(ValueError):
        FeaturePipe.for_scales(256, db5, (9,))
    with pytest.raises(ValueError):
        FeaturePipe.for_scales(250, db5, (3,))


def test_pipe_rejects_a_layout_for_another_filter_length(db5):
    # a db2 layout starts its steady ranges at 4, but db5 reaches 10 samples
    # back, so 6 boundary-affected coefficients per scale would enter a statistic
    db2_layout = ScaleLayout((3, 4), 256, parse_family("db2").length)
    with pytest.raises(ValueError, match="filter length 4"):
        FeaturePipe(db5, db2_layout)


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
    assert pipe34.layout.steady_length == S.shape[1] == 28


def test_noise_stream_is_chunk_invariant(pipe34, noise):
    # the same trial indices produce the same rows regardless of how many
    # trials are materialized in one call
    full = pipe34.noise_steady(noise, CHUNK + 50, seed=9)
    head = pipe34.noise_steady(noise, 30, seed=9)
    np.testing.assert_array_equal(full[:30], head)

    # the statistic sees each of the 9 blocks once, as a column-major array
    # of the full block shape, and its values land in trial order
    seen = []

    def first_feature(F):
        seen.append((F.shape, F.flags.f_contiguous))
        return F[:, 0]

    v = pipe34.noise_steady(noise, CHUNK + 50, seed=9, stat=first_feature)
    block = (BLOCK_SAMPLES // 256, pipe34.layout.steady_length)
    assert [s for s in seen if s[0][0]] == [(block, True)] * 9
    np.testing.assert_array_equal(v, full[:, 0])


def test_block_and_chunk_seams_keep_every_trial(pipe34):
    # at length 256 a chunk is transformed in 8 blocks of 512 rows; the
    # stream must equal whole-chunk draws and transforms, trial for trial
    assert CHUNK // (BLOCK_SAMPLES // 256) == 8
    model = NoiseModel(sigma_n=1.7)
    trials = CHUNK + 300
    mask = pipe34.layout.steady_mask()
    noise_ref = []
    for c, start, stop in chunk_bounds(trials):
        X = normal(substream(21, (5, c)), (stop - start, 256), model.sigma_n)
        noise_ref.append(pipe34.transform_batch(X)[:, mask])
    np.testing.assert_array_equal(
        pipe34.noise_steady(model, trials, seed=21, path=(5,)), np.concatenate(noise_ref))
    # detectors project each chunk with F @ a; the chunks must also share
    # the reference's memory layout, or BLAS sums the products in another order
    a = np.random.default_rng(3).standard_normal(pipe34.layout.steady_length)
    np.testing.assert_array_equal(
        pipe34.noise_steady(model, trials, seed=21, path=(5,), stat=lambda F: F @ a),
        np.concatenate([ref @ a for ref in noise_ref]))


def test_statistic_sees_whole_chunks(pipe34):
    # 4609 trials: the second chunk's 513 rows are transformed as blocks of
    # 512 and 1, and BLAS rounds F @ a over a one-row array differently from
    # the same row inside a larger one; with this a the last value differs
    # by an ulp on x86-64 OpenBLAS unless the one-row block is padded to the
    # full block shape before the statistic sees it
    trials = CHUNK + BLOCK_SAMPLES // 256 + 1
    a = np.random.default_rng(0).standard_normal(pipe34.layout.steady_length)
    ref = [pipe34.steady_batch(normal(substream(5, (c,)), (stop - start, 256)))
           for c, start, stop in chunk_bounds(trials)]
    np.testing.assert_array_equal(
        pipe34.noise_steady(NoiseModel(), trials, seed=5, stat=lambda F: F @ a),
        np.concatenate([F @ a for F in ref]))


@pytest.mark.parametrize("workers", [1, 3, 9])
def test_streams_do_not_depend_on_the_worker_count(pipe34, monkeypatch, workers):
    model = NoiseModel(sigma_n=1.3)
    trials = CHUNK + 700
    a = np.random.default_rng(4).standard_normal(pipe34.layout.steady_length)

    def streams():
        return (pipe34.noise_steady(model, trials, seed=7, stat=lambda F: F @ a),
                pipe34.noise_steady(model, trials, seed=8))

    want = streams()
    monkeypatch.setattr(pipeline, "_worker_count", lambda: workers)
    got = streams()
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@st.composite
def _stream_cases(draw):
    # trial counts one below, at and one above a block or chunk seam
    length = draw(st.sampled_from([64, 256]))
    rows = BLOCK_SAMPLES // length
    trials = draw(st.integers(1, 2 * CHUNK // rows + 1)) * rows + draw(st.integers(-1, 1))
    return length, trials, draw(st.sampled_from(["dot", "max", "features"]))


@settings(max_examples=10, deadline=None)
@given(case=_stream_cases())
def test_streams_are_byte_identical_for_one_to_four_workers(db5, case):
    length, trials, kind = case
    pipe = FeaturePipe.for_scales(length, db5, (1, 2) if length == 64 else (3, 4))
    a = np.random.default_rng(length).standard_normal(pipe.layout.steady_length)
    stat = {"dot": lambda F: F @ a, "max": lambda F: np.abs(F).max(axis=1),
            "features": None}[kind]
    model = NoiseModel(sigma_n=0.8)

    got = []
    for workers in range(1, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_worker_count", lambda: workers)
            got.append(pipe.noise_steady(model, trials, seed=11, path=(2,), stat=stat).tobytes())
    assert all(g == got[0] for g in got[1:])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_workers(pipe34, noise):
    # a forked child inherits no thread of its parent; its streams must
    # start workers of their own rather than wait on the parent's
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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_streams_while_a_parent_thread_holds_every_slot(pipe34, noise):
    # a thread of the parent holds every CPU slot when the process forks;
    # that thread does not exist in the child, which must get slots of its own
    want = pipe34.noise_steady(noise, 2000, seed=3)
    slots, count = pipeline._slots, pipeline._worker_count()
    held, release = threading.Event(), threading.Event()

    def hold():
        for _ in range(count):
            slots.acquire()
        held.set()
        release.wait(120)
        for _ in range(count):
            slots.release()

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(60)
        with warnings.catch_warnings():
            # Python 3.12 and later warn that a fork with live threads may deadlock
            warnings.simplefilter("ignore", DeprecationWarning)
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
    finally:
        release.set()
        holder.join(60)
    assert not holder.is_alive()
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_fits_and_blocks_never_outnumber_the_cpu_slots(db5, noise, monkeypatch):
    # an SMO fit runs on another thread while a stream's chunk of 32 blocks
    # (length 1024) is transformed; each block and each kernel row of the
    # fit sleeps while it holds its slot, so that any excess would show.
    # Without the slots, the fit and every block worker compute at once
    pipe = FeaturePipe.for_scales(1024, db5, (3, 4))
    lock = threading.Lock()
    state = {"now": 0, "most": 0}
    fitting = threading.Event()

    def busy(fn):
        def run(*args):
            with lock:
                state["now"] += 1
                state["most"] = max(state["most"], state["now"])
            try:
                time.sleep(0.01)
                return fn(*args)
            finally:
                with lock:
                    state["now"] -= 1
        return run

    def row(X, v):
        fitting.set()
        return matvec(X, v)

    matvec = busy(svm._matvec)
    monkeypatch.setattr(FeaturePipe, "steady_batch", busy(FeaturePipe.steady_batch))
    monkeypatch.setattr(svm, "_matvec", row)
    X = np.random.default_rng(6).standard_normal((60, pipe.layout.steady_length))
    ts = svm.TrainingSet(X=X + np.repeat([[0.3], [-0.3]], 30, axis=0), y=np.repeat([1, -1], 30),
                         layout=pipe.layout)
    fit = threading.Thread(target=svm.train, args=(ts, 1.0, 1.0))
    fit.start()
    try:
        assert fitting.wait(60)
        pipe.noise_steady(noise, CHUNK, seed=4)
    finally:
        fit.join(120)
    assert not fit.is_alive()
    assert 1 <= state["most"] <= pipeline._worker_count()


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
    assert not _block_workers()


@pytest.mark.parametrize("workers", [2, 9])
def test_no_later_chunk_is_transformed_after_a_failing_block(pipe34, noise, monkeypatch,
                                                             workers):
    # at length 256 a chunk is 8 blocks; the third fails only after the
    # others are done.  The stream joins each chunk's workers before it
    # draws the next chunk, so no block of the second chunk is drawn or
    # transformed, with two workers or with nine asked for, of which the
    # stream starts eight, one per block of the chunk
    monkeypatch.setattr(pipeline, "_worker_count", lambda: workers)
    counter = itertools.count(1)
    steady_batch = FeaturePipe.steady_batch

    def flaky(self, X):
        call = next(counter)
        time.sleep(0.3 if call == 3 else 0.02)
        if call == 3:
            raise RuntimeError("block failed")
        return steady_batch(self, X)

    monkeypatch.setattr(FeaturePipe, "steady_batch", flaky)
    with pytest.raises(RuntimeError, match="block failed"):
        pipe34.noise_steady(noise, 2 * CHUNK, seed=1)
    assert next(counter) - 1 <= CHUNK // (BLOCK_SAMPLES // 256)
    assert not _block_workers()


@pytest.mark.parametrize("length, scales", [(256, (3, 4)), (1024, (3, 4, 5, 6))])
def test_a_statistic_does_not_depend_on_the_trial_count(db5, length, scales):
    # the values of the first n trials are those of a longer call, where n
    # ends a call after a few rows of a block, at a block or chunk seam or
    # inside a later block; a statistic applied to whole chunks rounds F @ a
    # by the chunk's row count, and fails here for the short calls
    pipe = FeaturePipe.for_scales(length, db5, scales)
    a = np.random.default_rng(length).standard_normal(pipe.layout.steady_length)
    model = NoiseModel(sigma_n=1.1)
    rows, longest = BLOCK_SAMPLES // length, 2 * CHUNK

    def stream(n):
        return pipe.noise_steady(model, n, seed=31, stat=lambda F: F @ a)

    want = stream(longest)
    for n in (1, 2, 7, rows - 1, rows + 1, 1000, CHUNK - 1, CHUNK + 1, CHUNK + rows + 1,
              longest - 1):
        np.testing.assert_array_equal(stream(n), want[:n], err_msg=f"{n} trials")


def test_a_failing_statistic_stops_the_stream(pipe34, noise, monkeypatch):
    # the statistic fails slowly on every block of the first chunk; no block
    # of the second chunk may be transformed meanwhile, and every worker has
    # stopped when the error leaves the stream
    monkeypatch.setattr(pipeline, "_worker_count", lambda: 2)
    counter = itertools.count(1)
    steady_batch = FeaturePipe.steady_batch

    def counted(self, X):
        next(counter)
        return steady_batch(self, X)

    def slow_failure(F):
        if not len(F):
            return F[:, 0]
        time.sleep(0.2)
        raise RuntimeError("statistic failed")

    monkeypatch.setattr(FeaturePipe, "steady_batch", counted)
    with pytest.raises(RuntimeError, match="statistic failed"):
        pipe34.noise_steady(noise, 2 * CHUNK, seed=1, stat=slow_failure)
    assert next(counter) - 1 <= CHUNK // (BLOCK_SAMPLES // 256)
    assert not _block_workers()


def test_two_threads_streaming_at_once_get_the_values_of_sequential_calls(
        pipe34, noise, monkeypatch):
    # more block workers than cores and a short switch interval, so that the
    # two streams' workers interleave often
    monkeypatch.setattr(pipeline, "_worker_count", lambda: 3)
    a = np.random.default_rng(5).standard_normal(pipe34.layout.steady_length)
    trials = CHUNK + 700
    calls = (lambda: pipe34.noise_steady(noise, trials, seed=13, stat=lambda F: F @ a),
             lambda: pipe34.noise_steady(noise, trials, seed=14))
    want = [call() for call in calls]
    got = [None, None]

    def run(k):
        got[k] = calls[k]()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _block_workers():
    return [t.name for t in threading.enumerate() if t.name.startswith("wavedet-block")]


def test_no_block_worker_outlives_its_stream(pipe34, noise):
    # 2000 trials at length 256 are 4 blocks, enough to start up to 4 workers
    pipe34.noise_steady(noise, 2000, seed=2)
    assert not _block_workers()


def test_pipe_rejects_wrong_length_input(pipe34):
    with pytest.raises(ValueError):
        pipe34.transform_batch(np.zeros((2, 128)))


def test_pipe_rejects_wrong_template_length(pipe34, pulse256, noise):
    short = make_chirp(128)
    with pytest.raises(ValueError):
        pipe34.details_of(short)
    # a Pd estimate adds the pulse's details to the pipe's noise features
    det = optimum_a(pipe34.details_of(pulse256), 0.01, noise)
    with pytest.raises(ValueError, match="pulse length 128 does not match the pipe's signal "
                                         "length 256"):
        estimate_pd(det, short, [-5.0], noise, 100, 1, pipe34)
