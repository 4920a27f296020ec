"""Tensor kernel tests: closed-form cases, independent oracles, gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    assert tc.finite_diff_check(loss, [x, k, b], [dx, dk, db]) <= 1e-6


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
