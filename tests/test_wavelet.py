"""Filter bank and pyramid transform tests.

The key oracle here is ``oracles.stage_matrix``, a dense-matrix form of one circularly
extended filter-and-downsample stage, built independently of the batched
sliding-window code path.  Orthogonality and energy preservation are then
checked as properties across families and lengths.
"""

import contextvars
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavedet import (
    DetailCoefficients,
    ExperimentConfig,
    FeaturePipe,
    Hypothesis,
    NoiseModel,
    SampledSignal,
    ScaleLayout,
    count_ops,
    db_filters,
    parse_family,
    pyramid_batch,
)
from oracles import reference_pyramid, stage_matrix
from wavedet.rng import CHUNK
from wavedet.wavelet import WaveletFilterPair, tally_madds


# -- filter tables -------------------------------------------------------


def test_haar_is_db1():
    f = parse_family("haar")
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(f.h, [r, r], atol=1e-15)
    np.testing.assert_allclose(f.g, [r, -r], atol=1e-15)


def test_db2_matches_published_values():
    f = db_filters(2)
    expected = [
        0.48296291314453414,
        0.83651630373780791,
        0.22414386804201338,
        -0.12940952255126038,
    ]
    np.testing.assert_allclose(f.h, expected, rtol=0, atol=1e-16)


@pytest.mark.parametrize("order", range(1, 11))
def test_db_filter_invariants(order):
    f = db_filters(order)
    assert f.length == 2 * order
    assert abs(np.dot(f.h, f.h) - 1.0) < 1e-12
    assert abs(np.dot(f.g, f.g) - 1.0) < 1e-12
    assert abs(np.sum(f.h) - np.sqrt(2.0)) < 1e-10
    assert abs(np.sum(f.g)) < 1e-10
    # quadrature mirror: g[n] = (-1)^n h[L-1-n]
    L = f.length
    signs = (-1.0) ** np.arange(L)
    np.testing.assert_allclose(f.g, signs * f.h[::-1], atol=1e-16)
    # shift orthonormality at every even lag
    for lag in range(2, L, 2):
        assert abs(np.dot(f.h[:-lag], f.h[lag:])) < 1e-10
        assert abs(np.dot(f.g[:-lag], f.g[lag:])) < 1e-10


def test_parse_family_errors():
    with pytest.raises(ValueError):
        parse_family("db11")
    with pytest.raises(ValueError):
        parse_family("sym4")
    with pytest.raises(ValueError):
        db_filters(0)


def test_filter_pair_rejects_non_orthonormal():
    bad = np.array([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        WaveletFilterPair(h=bad, family_name="bad")


def test_power_of_two_rule_has_one_message(db5):
    errors = []
    for build in (
        lambda: SampledSignal(samples=np.zeros(100), hypothesis=Hypothesis.NOISE),
        lambda: ScaleLayout((1,), 100, db5.length),
        lambda: pyramid_batch(np.zeros((1, 100)), db5, 1),
        lambda: ExperimentConfig(length=100),
    ):
        with pytest.raises(ValueError) as e:
            build()
        errors.append(str(e.value))
    assert errors == ["signal length must be a power of two >= 2, got 100"] * 4


# -- transform vs dense matrix oracle ------------------------------------


@pytest.mark.parametrize("order", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_single_stage_matches_matrix_oracle(order, n, rng):
    f = db_filters(order)
    H = stage_matrix(f.h, n)
    G = stage_matrix(f.g, n)
    x = rng.standard_normal((3, n))
    approx, details = pyramid_batch(x, f, 1)
    np.testing.assert_allclose(approx, x @ H.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(details[0], x @ G.T, rtol=0, atol=1e-10)


def test_multilevel_matches_repeated_matrix_application(rng):
    f = db_filters(5)
    x = rng.standard_normal((2, 32))
    approx, details = pyramid_batch(x, f, 3)
    cur = x
    for lvl in range(3):
        n = cur.shape[1]
        H, G = stage_matrix(f.h, n), stage_matrix(f.g, n)
        np.testing.assert_allclose(details[lvl], cur @ G.T, rtol=0, atol=1e-10)
        cur = cur @ H.T
    np.testing.assert_allclose(approx, cur, rtol=0, atol=1e-10)


@pytest.mark.parametrize("order", range(1, 11))
@pytest.mark.parametrize("n, max_level, min_level", [
    (16, 4, 1),     # db10's L - 1 = 19 reaches round the 16-sample rows
    (256, 5, 3),
    (1024, 6, 3),   # the benchmarks' scales 3..6
])
def test_pyramid_matches_the_frozen_strided_stage(order, n, max_level, min_level, rng):
    """The window view must round exactly as the as_strided one did."""
    f = db_filters(order)
    for batch in (1, 7, 128):
        x = rng.standard_normal((batch, n))
        got_a, got_d = pyramid_batch(x, f, max_level, min_level)
        ref_a, ref_d = reference_pyramid(x, f, max_level, min_level)
        assert len(got_d) == len(ref_d) == max_level - min_level + 1
        for got, ref in zip([got_a, *got_d], [ref_a, *ref_d]):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_stage_matrix_rows_are_orthonormal():
    # the stacked analysis operator [H; G] is orthogonal for every even
    # length, including lengths shorter than the filter
    for order in (1, 2, 5, 10):
        f = db_filters(order)
        for n in (4, 8, 16, 64):
            T = np.vstack([stage_matrix(f.h, n), stage_matrix(f.g, n)])
            np.testing.assert_allclose(T @ T.T, np.eye(n), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=10),
    log_n=st.integers(min_value=3, max_value=10),
    levels=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_parseval_property(order, log_n, levels, seed):
    n = 2**log_n
    levels = min(levels, log_n)
    f = db_filters(order)
    x = np.random.default_rng(seed).standard_normal((1, n))
    approx, details = pyramid_batch(x, f, levels)
    total = np.sum(approx**2) + sum(np.sum(d**2) for d in details)
    assert abs(total - np.sum(x**2)) < 1e-9


def test_perfect_reconstruction_via_adjoint(rng):
    # orthogonality makes the adjoint the inverse: x = H^T a + G^T d
    f = db_filters(4)
    x = rng.standard_normal(64)
    approx, details = pyramid_batch(x[None], f, 1)
    H, G = stage_matrix(f.h, 64), stage_matrix(f.g, 64)
    back = H.T @ approx[0] + G.T @ details[0][0]
    np.testing.assert_allclose(back, x, atol=1e-12)


# -- layouts and detail containers ----------------------------------------


def test_layout_shapes_and_steady_starts(db5):
    x = np.zeros(256)
    x[0] = 1.0
    layout = ScaleLayout((1, 2, 3, 4), 256, db5.length)
    d = FeaturePipe(db5, layout).details_of(x)
    assert d.layout == layout
    assert [d.segment(s).size for s in (1, 2, 3, 4)] == [128, 64, 32, 16]
    assert layout.steady_starts == tuple(min(db5.length, m) for m in layout.seg_lengths)


def test_steady_start_clamped_at_deep_levels(db5):
    # level 6 of a 256-sample signal has 4 coefficients, fewer than the
    # filter length, so nothing is boundary-free there
    d6 = FeaturePipe.for_scales(256, db5, (6,)).details_of(np.ones(256) * 0.0625)
    assert d6.values.size == 4
    assert d6.layout.steady_starts == (4,)
    assert d6.steady_values().size == 0


def test_scale_subset_segments_match_pyramid(db5, rng):
    x = rng.standard_normal(128)
    _, levels = pyramid_batch(x[None, :], db5, 4)
    d = FeaturePipe.for_scales(128, db5, (4, 2)).details_of(x)
    assert d.layout.scales == (4, 2)
    assert d.layout.seg_lengths == (8, 32)
    np.testing.assert_array_equal(d.values, np.concatenate([levels[3][0], levels[1][0]]))
    np.testing.assert_array_equal(d.segment(2), levels[1][0])
    np.testing.assert_array_equal(d.segment(4), levels[3][0])
    with pytest.raises(ValueError):
        d.segment(3)
    with pytest.raises(ValueError):
        ScaleLayout((8,), 128, db5.length)


def test_scale_layout_validation():
    for scales, n, L, message in (
        ((1, 1), 16, 2, "no duplicate scale"),
        ((), 16, 2, "must be non-empty"),
        ((0,), 16, 2, "scale 0 out of range"),
        ((5,), 16, 2, "scale 5 out of range"),
        ((1,), 12, 2, "power of two"),
        ((1,), 16, 0, "filter_length"),
    ):
        with pytest.raises(ValueError, match=message):
            ScaleLayout(scales, n, L)


def test_steady_mask_matches_slices():
    layout = ScaleLayout((2, 3), 64, 4)
    assert layout.seg_lengths == (16, 8) and layout.steady_starts == (4, 4)
    mask = layout.steady_mask()
    assert mask.sum() == layout.steady_length == 16
    picked = np.zeros(24, dtype=bool)
    for s, sl in zip(layout.scales, layout.steady_slices()):
        picked[sl] = True
    np.testing.assert_array_equal(mask, picked)
    # the mask is built once per layout and shared, so nobody may edit it
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = True
    np.testing.assert_array_equal(layout.steady_mask(), mask)
    # gather and embed map between full-layout and steady vectors
    steady = np.arange(1.0, 17.0)
    full = layout.embed(steady)
    assert full.shape == (24,)
    np.testing.assert_array_equal(full[~mask], 0.0)
    np.testing.assert_array_equal(layout.gather(full), steady)
    with pytest.raises(ValueError, match="shape"):
        layout.gather(steady)
    with pytest.raises(ValueError, match="shape"):
        layout.embed(full)


def test_detail_segment_lookup(details34):
    d = details34
    assert d.segment(3).size == 32
    assert d.segment(4).size == 16
    with pytest.raises(ValueError):
        d.segment(5)


# -- operation counting ----------------------------------------------------


def test_op_counter_counts_filter_madds(db5, rng):
    x = rng.standard_normal((4, 64))
    with count_ops() as ops:
        pyramid_batch(x, db5, 2)
    # level 1: both filters over 64 samples, level 2: both over 32,
    # batch of 4, L=10 multiply-adds per output sample
    expected = 4 * ((64 // 2) * 10 * 2 + (32 // 2) * 10 * 2)
    assert ops.madds == expected


def test_op_counter_nests_and_resets(db5):
    # an inner counter shadows the outer one for its scope
    x = np.ones((1, 32))
    with count_ops() as outer:
        pyramid_batch(x, db5, 1)
        with count_ops() as inner:
            pyramid_batch(x, db5, 1)
        pyramid_batch(x, db5, 1)
    assert inner.madds == (32 // 2) * 10 * 2
    assert outer.madds == 2 * inner.madds


def test_min_level_runs_only_needed_filters(db5, rng):
    x = rng.standard_normal((3, 128))
    approx, full = pyramid_batch(x, db5, 4)
    with count_ops() as ops:
        lean_approx, lean = pyramid_batch(x, db5, 4, min_level=3)
    assert len(lean) == 2
    for got, want in zip(lean, full[2:]):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(lean_approx, approx)
    # low-pass only at levels 1 and 2 (inputs of 128 and 64 samples), both
    # filters at levels 3 and 4 (inputs of 32 and 16), L = 10
    assert ops.madds == 3 * 10 * (64 + 32 + 2 * 16 + 2 * 8)
    for bad in (0, 5):
        with pytest.raises(ValueError):
            pyramid_batch(x, db5, 4, min_level=bad)


@pytest.mark.parametrize("length, scales, madds", [
    # the Pd-curve benchmark's pipe: 5,120 + 2,560 low-pass at levels 1-2,
    # then 2,560 + 1,280 + 640 + 320 for both filters at levels 3-6
    (1024, (3, 4, 5, 6), 12_480),
    (256, (4, 3), 1_280 + 640 + 640 + 320),
    (256, (1,), 2 * 1_280),
])
def test_steady_batch_cost_per_trial(db5, length, scales, madds):
    pipe = FeaturePipe.for_scales(length, db5, scales)
    with count_ops() as ops:
        pipe.steady_batch(np.zeros((4, length)))
    assert ops.madds == 4 * madds


def test_count_ops_sees_the_monte_carlo_blocks(db5):
    # the blocks run on worker threads; the caller's counter still gets
    # every trial's multiply-adds, as pinned for this pipe above
    pipe = FeaturePipe.for_scales(256, db5, (4, 3))
    with count_ops() as ops:
        pipe.noise_steady(NoiseModel(), CHUNK + 300, seed=2)
    assert ops.madds == (CHUNK + 300) * (1_280 + 640 + 640 + 320)


def test_op_counter_keeps_concurrent_tallies():
    # more threads than cores, switching often: an unlocked += loses updates
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with count_ops() as ops:
            threads = [threading.Thread(target=contextvars.copy_context().run,
                                        args=(lambda: [tally_madds(1) for _ in range(20_000)],))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert ops.madds == 8 * 20_000
