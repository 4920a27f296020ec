"""Tensor kernel tests: closed-form cases, independent oracles, gradient checks."""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitoscope import lanes
from mitoscope import tensor_core as tc


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)
# ---------------------------------------------------------------------------

def conv2d_naive(x, kernel, bias):
    """Six-nested-loop same-padded cross-correlation reference."""
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((c_out, h, w))
    for co in range(c_out):
        for ci in range(c_in):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            ii, jj = i + u - ph, j + v - pw
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += x[ci, ii, jj] * kernel[co, ci, u, v]
                    out[co, i, j] += acc
        out[co] += bias[co]
    return out


def maxpool_naive(x, window):
    c, h, w = x.shape
    out = np.zeros((c, h // window, w // window))
    for ci in range(c):
        for i in range(h // window):
            for j in range(w // window):
                out[ci, i, j] = x[ci, i * window:(i + 1) * window,
                                  j * window:(j + 1) * window].max()
    return out


def weighted_sum_loss(weights):
    """Scalar-valued wrapper used to gradient-check tensor-valued ops."""
    def wrap(fwd):
        def loss(*inputs):
            out = fwd(*inputs)
            return float((out * weights).sum())
        return loss
    return wrap


# ---------------------------------------------------------------------------
# conv2d_same
# ---------------------------------------------------------------------------

class TestConv2dSame:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (3, 6, 7))
        k = np.zeros((3, 3, 3, 3))
        for c in range(3):
            k[c, c, 1, 1] = 1.0
        out, _ = tc.conv2d_same(x, k, np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_constant_input_overlap_counts(self):
        v = 0.7
        x = np.full((1, 8, 8), v)
        k = np.ones((1, 1, 5, 5))
        out, _ = tc.conv2d_same(x, k, np.zeros(1))
        assert out[0, 4, 4] == pytest.approx(25 * v, abs=1e-12)
        assert out[0, 0, 0] == pytest.approx(9 * v, abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 4))
        k = rng.normal(size=(2, 1, 3, 3))
        b = rng.normal(size=2)
        out, _ = tc.conv2d_same(x, k, b)
        np.testing.assert_allclose(out, conv2d_naive(x, k, b), atol=1e-12)

    def test_matches_naive_loop_multichannel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 5, 6))
        k = rng.normal(size=(2, 3, 5, 3))
        b = rng.normal(size=2)
        out, _ = tc.conv2d_same(x, k, b)
        np.testing.assert_allclose(out, conv2d_naive(x, k, b), atol=1e-12)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="input channels"):
            tc.conv2d_same(np.zeros((2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            tc.conv2d_same(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(3)
        _, trace = tc.conv2d_same(rng.normal(size=(2, 4, 4)),
                                  rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2))
        dx, dk, db = tc.conv2d_same_backward(trace, np.zeros((2, 4, 4)))
        assert not dx.any() and not dk.any() and not db.any()

    def test_backward_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        _, trace = tc.conv2d_same(x, k, np.zeros(1))
        g = rng.normal(size=(1, 5, 5))
        dx, _, _ = tc.conv2d_same_backward(trace, g)
        np.testing.assert_array_equal(dx, g)

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        w = rng.normal(size=(3, 4, 5))
        _, trace = tc.conv2d_same(x, k, b)
        dx, dk, db = tc.conv2d_same_backward(trace, w)

        @weighted_sum_loss(w)
        def loss(x_, k_, b_):
            return tc.conv2d_same(x_, k_, b_)[0]

        err = tc.finite_diff_check(loss, [x, k, b], [dx, dk, db])
        assert err <= 1e-6


@pytest.mark.parametrize("x_shape, k_shape", [
    ((2, 6, 7), (3, 2, 5, 3)),   # kh != kw
    ((2, 5, 6), (2, 2, 1, 5)),
    ((2, 6, 5), (2, 2, 5, 1)),
    ((3, 4, 5), (2, 3, 1, 1)),   # 1x1
    ((2, 9, 4), (2, 2, 5, 5)),   # H != W
    ((2, 3, 8), (1, 2, 3, 3)),
    ((1, 3, 2), (2, 1, 5, 5)),   # frame narrower than the kernel
    ((1, 1, 1), (1, 1, 3, 5)),
    ((16, 6, 5), (16, 16, 5, 5)),   # Winograd
    ((17, 9, 4), (16, 17, 5, 5)),   # Winograd, H and W not multiples of 4
    ((16, 3, 3), (18, 16, 5, 5)),   # Winograd, frame smaller than one tile
])
def test_conv_edge_shapes(x_shape, k_shape):
    rng = np.random.default_rng(sum(x_shape) * 31 + sum(k_shape))
    x = rng.normal(size=x_shape)
    k = rng.normal(size=k_shape)
    b = rng.normal(size=k_shape[0])
    w = rng.normal(size=(k_shape[0],) + x_shape[1:])
    out, trace = tc.conv2d_same(x, k, b)
    np.testing.assert_allclose(out, conv2d_naive(x, k, b), atol=1e-12)
    dx, dk, db = tc.conv2d_same_backward(trace, w)
    assert dx.shape == x.shape and dk.shape == k.shape and db.shape == b.shape

    @weighted_sum_loss(w)
    def loss(x_, k_, b_):
        return tc.conv2d_same(x_, k_, b_)[0]

    # the loss is linear in each argument, so a large step is exact; on the
    # Winograd shapes it keeps the forward's rounding out of the quotient
    step = 1e-2 if tc._winograd_eligible(k_shape) else 1e-5
    assert tc.finite_diff_check(loss, [x, k, b], [dx, dk, db], step=step) <= 1e-6


# ---------------------------------------------------------------------------
# conv2d_same: Winograd F(4x4,5x5) against explicit im2col
# ---------------------------------------------------------------------------

def im2col_columns(x, kh, kw):
    """Columns [C*kh*kw, H*W] of the same-padded input, rows in (c, i, j) order."""
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), ((kh - 1) // 2,) * 2, ((kw - 1) // 2,) * 2))
    cols = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return cols.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, h * w)


def conv2d_im2col(x, kernel, bias):
    c_out, _, kh, kw = kernel.shape
    out = kernel.reshape(c_out, -1) @ im2col_columns(x, kh, kw)
    out += bias[:, None]
    return out.reshape((c_out,) + x.shape[1:])


def conv2d_im2col_backward(x, kernel, upstream):
    """(d_x, d_kernel, d_bias) by explicit im2col and col2im."""
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    up = upstream.reshape(c_out, -1)
    d_kernel = (up @ im2col_columns(x, kh, kw).T).reshape(kernel.shape)
    d_cols = (kernel.reshape(c_out, -1).T @ up).reshape(c_in, kh, kw, h, w)
    d_xp = np.zeros((c_in, h + kh - 1, w + kw - 1))
    for i in range(kh):
        for j in range(kw):
            d_xp[:, i:i + h, j:j + w] += d_cols[:, i, j]
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    return d_xp[:, ph:ph + h, pw:pw + w], d_kernel, upstream.sum(axis=(1, 2))


def max_relative(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("c_in, c_out, h, w", [
    (16, 16, 12, 12),
    (32, 128, 16, 16),
    (64, 128, 64, 64),
    (48, 32, 10, 7),    # H, W not multiples of 4
    (16, 16, 3, 2),     # frame smaller than one tile
    (16, 20, 5, 9),
])
def test_winograd_matches_im2col(c_in, c_out, h, w):
    rng = np.random.default_rng(c_in * 1000 + c_out + h + w)
    x = rng.normal(size=(c_in, h, w))
    k = rng.normal(scale=0.1, size=(c_out, c_in, 5, 5))
    b = rng.normal(size=c_out)
    up = rng.normal(size=(c_out, h, w))
    out, trace = tc.conv2d_same(x, k, b)
    assert max_relative(out, conv2d_im2col(x, k, b)) <= 1e-12
    for got, ref in zip(tc.conv2d_same_backward(trace, up), conv2d_im2col_backward(x, k, up)):
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert max_relative(got, ref) <= 1e-12


def conv_shapes(s, n):
    """(C_in, C_out, k) of every conv2d_same call of a model with S=s hidden
    channels and n event classes: the ConvLSTM input and state convs, the
    output convs of both models and the 1x1 event projection."""
    return [(1, 4 * s, 5), (s, 4 * s, 5), (2 * s, 4 * s, 5), (s + n, s, 5), (s, s, 5),
            (s, n, 1), (s, 1, 1)]


# the acceptance configs (S=6 and S=4, n=4), the paper's 1->4S input convs,
# and the 11x11 disc of post-processing: all but the 2S->4S shapes stay on
# im2col. The ConvLSTM layers convolve [x; h_prev] in one call, (C+S)->4S:
# at desk scale 7->24 and 5->16 stay on im2col and the merges' 12->16 and
# 18->24 cross the rule; the paper's 33->128 and 96->128 run Winograd.
WINOGRAD_SHAPES = [(32, 128, 5), (64, 128, 5), (48, 32, 5), (32, 32, 5), (16, 16, 5),
                   (18, 24, 5), (33, 128, 5), (96, 128, 5), (8, 16, 5), (12, 16, 5),
                   (12, 24, 5)]
DIRECT_SHAPES = sorted(set(conv_shapes(6, 4) + conv_shapes(4, 4)
                           + [(1, 128, 5), (32, 16, 1), (32, 1, 1), (1, 1, 11)]
                           + [(7, 24, 5), (5, 16, 5)]) - set(WINOGRAD_SHAPES))


@pytest.mark.parametrize("c_in, c_out, k", DIRECT_SHAPES + WINOGRAD_SHAPES)
def test_conv_path_follows_channel_rule(c_in, c_out, k):
    rng = np.random.default_rng(c_in * 100 + c_out + k)
    x = rng.normal(size=(c_in, 64, 64))
    kernel = rng.normal(size=(c_out, c_in, k, k))
    b = rng.normal(size=c_out)
    up = rng.normal(size=(c_out, 64, 64))
    out, trace = tc.conv2d_same(x, kernel, b)
    d_x = tc.conv2d_same_backward(trace, up)[0]
    ref_out = conv2d_im2col(x, kernel, b)
    ref_dx = conv2d_im2col_backward(x, kernel, up)[0]
    direct = (c_in, c_out, k) in DIRECT_SHAPES
    assert np.array_equal(out, ref_out) == direct
    assert np.array_equal(d_x, ref_dx) == direct


def test_winograd_transforms_give_1d_correlation():
    a_t, g, b_t = tc._winograd_transforms()
    assert a_t.shape == (4, 8) and g.shape == (8, 5) and b_t.shape == (8, 8)
    rng = np.random.default_rng(41)
    for _ in range(20):
        taps, d = rng.normal(size=5), rng.normal(size=8)
        y = a_t @ ((g @ taps) * (b_t @ d))
        np.testing.assert_allclose(y, np.correlate(d, taps, "valid"), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# conv2d_same: Winograd stages in two halves on the two lanes
# ---------------------------------------------------------------------------

# odd channel halves, ragged and sub-tile frames, and the paper's two
# recurrent convs
HALVES_SHAPES = [((16, 6, 5), 16), ((17, 9, 4), 16), ((16, 3, 3), 18),
                 ((33, 64, 64), 128), ((96, 64, 64), 128)]


def winograd_conv(x_shape, c_out):
    """(x, kernel, bias, upstream) of a seeded Winograd conv."""
    rng = np.random.default_rng(sum(x_shape) * 7 + c_out)
    x = rng.normal(size=x_shape)
    k = rng.normal(scale=0.1, size=(c_out, x_shape[0], 5, 5))
    assert tc._winograd_eligible(k.shape)
    return x, k, rng.normal(size=c_out), rng.normal(size=(c_out,) + x_shape[1:])


def conv_outputs(x, k, b, up):
    """Output, d_x, d_kernel and d_bias of one conv and its backward."""
    out, trace = tc.conv2d_same(x, k, b)
    return (out, *tc.conv2d_same_backward(trace, up))


def whole_stages(stage, *halves):
    """Each stage once over its whole range, as one GEMM per transform."""
    stage(*(slice(first.start, second.stop) for first, second in halves))


def record_halves(monkeypatch):
    """Per input array, the threads its Winograd input transforms ran on."""
    threads = {}
    real = tc._winograd_input

    def record(x, chans, v):
        threads.setdefault(id(x), set()).add(threading.get_ident())
        return real(x, chans, v)

    monkeypatch.setattr(tc, "_winograd_input", record)
    return threads


class TestWinogradHalves:
    @pytest.fixture(params=[True, False], ids=["lanes", "one-lane"])
    def two_lanes(self, request, monkeypatch):
        monkeypatch.setattr(lanes, "two_lanes", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("x_shape, c_out", HALVES_SHAPES)
    def test_bit_equal_to_one_lane(self, x_shape, c_out, two_lanes, monkeypatch):
        conv = winograd_conv(x_shape, c_out)
        got = conv_outputs(*conv)
        monkeypatch.setattr(lanes, "two_lanes", lambda: False)
        for a, b in zip(got, conv_outputs(*conv)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("x_shape, c_out", HALVES_SHAPES)
    def test_bit_equal_to_whole_stages(self, x_shape, c_out, two_lanes, monkeypatch):
        # the halves cut every GEMM where the whole GEMM's blocks meet, so
        # they round as one GEMM per stage does
        conv = winograd_conv(x_shape, c_out)
        got = conv_outputs(*conv)
        monkeypatch.setattr(tc, "_in_halves", whole_stages)
        for a, b in zip(got, conv_outputs(*conv)):
            np.testing.assert_array_equal(a, b)

    def test_halves_run_on_both_lanes_outside_a_lane(self, two_lanes, monkeypatch):
        threads = record_halves(monkeypatch)
        x, k, b, up = winograd_conv((33, 16, 16), 128)
        conv_outputs(x, k, b, up)
        caller = threading.get_ident()
        assert caller in threads[id(x)]
        assert len(threads[id(x)]) == (2 if two_lanes else 1)

    def test_halves_stay_on_their_lane(self, two_lanes, monkeypatch):
        threads = record_halves(monkeypatch)
        first = winograd_conv((33, 16, 16), 128)
        second = winograd_conv((32, 16, 16), 128)
        lanes.both(lambda: conv_outputs(*first), lambda: conv_outputs(*second))
        caller = {threading.get_ident()}
        assert threads[id(first[0])] == caller
        assert len(threads[id(second[0])]) == 1
        assert (threads[id(second[0])] != caller) == two_lanes

    def test_helper_half_error_waits_for_caller_half(self, two_lanes, monkeypatch):
        finished = []
        real = tc._winograd_input

        def transform(x, chans, v):
            if chans.start > 0:  # the second half, the helper's when lanes run
                raise RuntimeError("second half failed")
            time.sleep(0.2)
            real(x, chans, v)
            finished.append(True)

        monkeypatch.setattr(tc, "_winograd_input", transform)
        x, k, b, _ = winograd_conv((16, 8, 8), 16)
        with pytest.raises(RuntimeError, match="second half failed"):
            tc.conv2d_same(x, k, b)
        assert finished == [True]


# ---------------------------------------------------------------------------
# maxpool2d
# ---------------------------------------------------------------------------

class TestMaxPool2d:
    def test_unique_max_and_routing(self):
        x = np.zeros((1, 8, 8))
        x[0, 3, 5] = 2.0
        out, trace = tc.maxpool2d(x, 8)
        assert out[0, 0, 0] == 2.0
        dx = tc.maxpool2d_backward(trace, np.array([[[1.5]]]))
        assert dx[0, 3, 5] == 1.5
        assert dx.sum() == 1.5

    def test_tie_routes_to_first(self):
        x = np.full((1, 4, 4), 0.3)
        out, trace = tc.maxpool2d(x, 4)
        assert out[0, 0, 0] == 0.3
        dx = tc.maxpool2d_backward(trace, np.ones((1, 1, 1)))
        assert dx[0, 0, 0] == 1.0
        assert dx.sum() == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 16, 16))
        out, _ = tc.maxpool2d(x, 8)
        np.testing.assert_array_equal(out, maxpool_naive(x, 8))

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            tc.maxpool2d(np.zeros((1, 6, 8)), 4)

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(2, 2, 2))
        _, trace = tc.maxpool2d(x, 2)
        dx = tc.maxpool2d_backward(trace, w)

        @weighted_sum_loss(w)
        def loss(x_):
            return tc.maxpool2d(x_, 2)[0]

        err = tc.finite_diff_check(loss, [x], [dx])
        assert err <= 1e-6


# ---------------------------------------------------------------------------
# channel softmax / winner-take-all
# ---------------------------------------------------------------------------

class TestChannelSoftmax:
    def test_uniform_logits(self):
        x = np.ones((4, 1, 1))
        out, _ = tc.channel_softmax(x)
        np.testing.assert_allclose(out[:, 0, 0], 0.25)

    def test_closed_form(self):
        x = np.array([0.0, math.log(3.0)]).reshape(2, 1, 1)
        out, _ = tc.channel_softmax(x)
        np.testing.assert_allclose(out[:, 0, 0], [0.25, 0.75], atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        x = rng.normal(scale=5, size=(7, 3, 4))
        out, _ = tc.channel_softmax(x)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2, 2))
        w = rng.normal(size=(3, 2, 2))
        out, trace = tc.channel_softmax(x)
        dx = tc.channel_softmax_backward(trace, w)

        @weighted_sum_loss(w)
        def loss(x_):
            return tc.channel_softmax(x_)[0]

        err = tc.finite_diff_check(loss, [x], [dx])
        assert err <= 1e-6


class TestChannelWta:
    def test_tie_picks_lowest_channel(self):
        x = np.full((4, 1, 1), 0.25)
        out, _ = tc.channel_wta(x)
        np.testing.assert_array_equal(out[:, 0, 0], [0.25, 0, 0, 0])

    def test_definition(self):
        x = np.array([0.1, 0.7, 0.2]).reshape(3, 1, 1)
        out, _ = tc.channel_wta(x)
        np.testing.assert_array_equal(out[:, 0, 0], [0, 0.7, 0])

    def test_one_nonzero_per_position(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 4, 6))
        out, _ = tc.channel_wta(x)
        assert ((out != 0).sum(axis=0) == 1).all()
        np.testing.assert_array_equal(out.max(axis=0), x.max(axis=0))

    def test_backward_routes_winner_only(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 2, 2))
        w = rng.normal(size=(3, 2, 2))
        out, trace = tc.channel_wta(x)
        dx = tc.channel_wta_backward(trace, w)

        @weighted_sum_loss(w)
        def loss(x_):
            return tc.channel_wta(x_)[0]

        mask = tc.wta_safe_mask(x)
        assert mask.all()  # seeded values are far from ties
        err = tc.finite_diff_check(loss, [x], [dx], masks=[mask])
        assert err <= 1e-6

    def test_safe_mask_flags_ties(self):
        x = np.array([[[1.0]], [[1.0 + 5e-5]], [[-3.0]]])
        mask = tc.wta_safe_mask(x, tol=1e-4)
        assert not mask.any()


# ---------------------------------------------------------------------------
# upsample
# ---------------------------------------------------------------------------

class TestUpsample:
    def test_replication(self):
        out = tc.upsample_nn(np.full((1, 1, 1), 3.0), 8)
        assert out.shape == (1, 8, 8)
        np.testing.assert_array_equal(out, 3.0)

    def test_pool_of_upsample_is_identity(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, (3, 2, 2))
        up = tc.upsample_nn(x, 8)
        down, _ = tc.maxpool2d(up, 8)
        np.testing.assert_array_equal(down, x)

    def test_backward_block_sum(self):
        d = tc.upsample_nn_backward(np.ones((1, 8, 8)), 8)
        np.testing.assert_array_equal(d, np.full((1, 1, 1), 64.0))


# ---------------------------------------------------------------------------
# pointwise ops
# ---------------------------------------------------------------------------

class TestPointwise:
    def test_closed_forms(self):
        assert tc.sigmoid(np.zeros(1))[0] == 0.5
        assert tc.tanh_act(np.zeros(1))[0] == 0.0

    def test_sigmoid_extremes_stable(self):
        out = tc.sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_bits_match_two_branch_formula(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 5e-324, -5e-324,
                            2.2e-308, -2.2e-308, 1e-300, -1e-300, np.nan, -np.nan])
        payload_nans = np.array([0x7FF8000000000001, 0xFFF8000000000123],
                                dtype=np.uint64).view(np.float64)
        rng = np.random.default_rng(18)
        sweep = rng.normal(size=(4, 33, 35)) * rng.choice([1e-3, 1.0, 40.0], size=(4, 33, 35))
        # the tiled copy runs numpy's vectorized loops, not only their tails
        for x in (special, payload_nans, np.tile(special, 9), sweep):
            np.testing.assert_array_equal(tc.sigmoid(x).view(np.uint64),
                                          two_branch(x).view(np.uint64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="spatial"):
            tc.concat_channels(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)))

    def test_all_pointwise_backwards(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 3))
        y = rng.normal(size=(2, 3, 3))
        w = rng.normal(size=(2, 3, 3))
        w2 = rng.normal(size=(4, 3, 3))

        s = tc.sigmoid(x)

        @weighted_sum_loss(w)
        def sig_loss(x_):
            return tc.sigmoid(x_)

        assert tc.finite_diff_check(sig_loss, [x], [tc.sigmoid_backward(s, w)]) <= 1e-6

        t = tc.tanh_act(x)

        @weighted_sum_loss(w)
        def tanh_loss(x_):
            return tc.tanh_act(x_)

        assert tc.finite_diff_check(tanh_loss, [x], [tc.tanh_backward(t, w)]) <= 1e-6

        da, db = tc.concat_channels_backward(w2, 2)

        @weighted_sum_loss(w2)
        def cat_loss(a_, b_):
            return tc.concat_channels(a_, b_)

        assert tc.finite_diff_check(cat_loss, [x, y], [da, db]) <= 1e-6


# ---------------------------------------------------------------------------
# bce loss
# ---------------------------------------------------------------------------

class TestBceLoss:
    def test_half_prediction(self):
        loss, _ = tc.bce_loss(np.full((3, 3), 0.5), np.ones((3, 3)))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        p = np.array([tc.BCE_EPS, 1.0 - tc.BCE_EPS])
        loss, _ = tc.bce_loss(p, p)
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(16)
        pred = rng.uniform(0.05, 0.95, (4, 4))
        target = rng.uniform(0, 1, (4, 4))
        _, d = tc.bce_loss(pred, target)

        def loss(p_):
            return tc.bce_loss(p_, target)[0]

        err = tc.finite_diff_check(loss, [pred], [d])
        assert err <= 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            tc.bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# checker policies
# ---------------------------------------------------------------------------

class TestFiniteDiffCheck:
    def test_subsamples_large_inputs_deterministically(self):
        x = np.zeros(20_000)
        calls = []

        def loss(x_):
            calls.append(1)
            return float(x_.sum())

        err = tc.finite_diff_check(loss, [x], [np.ones_like(x)], max_coords=50)
        assert err <= 1e-9
        assert len(calls) == 100  # 50 coords, two evals each

    def test_strided_view_matches_contiguous_copy(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, 6, 3))
        view = base[1:, ::2]  # strided: probed and restored through the base
        w = rng.normal(size=view.shape)
        before = base.copy()

        def loss(x_):
            return float((np.sin(x_) * w).sum())

        grad = np.cos(view) * w * (1.0 + 1e-4)  # a deliberate, known error
        on_view = tc.finite_diff_check(loss, [view], [grad], max_coords=20)
        on_copy = tc.finite_diff_check(loss, [view.copy()], [grad], max_coords=20)
        assert not view.flags.c_contiguous
        assert on_view == on_copy and on_view > 5e-5
        assert base.tobytes() == before.tobytes()

    def test_wta_tie_point_skipped(self):
        x = np.array([[[1.0]], [[1.0]]])  # exact tie: kink
        w = np.array([[[0.3]], [[0.9]]])
        out, trace = tc.channel_wta(x)
        dx = tc.channel_wta_backward(trace, w)

        @weighted_sum_loss(w)
        def loss(x_):
            return tc.channel_wta(x_)[0]

        mask = tc.wta_safe_mask(x)
        assert not mask.any()
        err = tc.finite_diff_check(loss, [x], [dx], masks=[mask])
        assert err == 0.0  # nothing checked at the kink


# ---------------------------------------------------------------------------
# invariants (property-based)
# ---------------------------------------------------------------------------

arrays3 = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda h: st.integers(1, 3).flatmap(
            lambda w: st.lists(
                st.floats(-10, 10, allow_nan=False), min_size=n * h * w,
                max_size=n * h * w).map(
                    lambda v: np.array(v).reshape(n, h, w)))))


@settings(max_examples=60, deadline=None)
@given(arrays3)
def test_softmax_sums_to_one_property(x):
    out, _ = tc.channel_softmax(x)
    np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(arrays3)
def test_wta_exactly_one_nonzero_property(x):
    out, _ = tc.channel_wta(x)
    nonzero = (out != 0).sum(axis=0)
    maxed = x.max(axis=0)
    # a zero-valued winner is indistinguishable from the zeros it beat
    assert ((nonzero == 1) | (maxed == 0)).all()
    np.testing.assert_array_equal(out.sum(axis=0), maxed)


@settings(max_examples=60, deadline=None)
@given(arrays3, st.integers(1, 3))
def test_pool_upsample_identity_property(x, f):
    up = tc.upsample_nn(x, f)
    down, _ = tc.maxpool2d(up, f)
    np.testing.assert_array_equal(down, x)


def test_ops_pure_and_deterministic():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 4, 4))
    k = rng.normal(size=(2, 2, 3, 3))
    b = rng.normal(size=2)
    a1, _ = tc.conv2d_same(x, k, b)
    a2, _ = tc.conv2d_same(x, k, b)
    assert (a1 == a2).all()
    s1, _ = tc.channel_softmax(x)
    s2, _ = tc.channel_softmax(x)
    assert (s1 == s2).all()
