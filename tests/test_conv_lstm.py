"""ConvLSTM tests: scalar oracle, chaining, BPTT gradient checks, init stats."""

import math

import numpy as np
import pytest

from mitoscope import conv_lstm as cl
from mitoscope import tensor_core as tc


# ---------------------------------------------------------------------------
# independent scalar peephole LSTM oracle (plain-float arithmetic)
# ---------------------------------------------------------------------------

def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def scalar_lstm_step(w, x, h, c):
    """w is a dict of 15 scalars mirroring one 1x1 ConvLSTM cell."""
    i = _sig(w["w_xi"] * x + w["w_hi"] * h + w["w_ci"] * c + w["b_i"])
    f = _sig(w["w_xf"] * x + w["w_hf"] * h + w["w_cf"] * c + w["b_f"])
    c_new = f * c + i * math.tanh(w["w_xc"] * x + w["w_hc"] * h + w["b_c"])
    o = _sig(w["w_xo"] * x + w["w_ho"] * h + w["w_co"] * c_new + w["b_o"])
    h_new = o * math.tanh(c_new)
    return h_new, c_new


def scalar_params(w):
    """Wrap the 15 scalars as a 1x1-spatial, 1x1-kernel ConvLstmParams."""
    def stacked(*names):
        return np.array([w[name] for name in names])

    return cl.ConvLstmParams(
        stacked("w_xi", "w_xf", "w_xc", "w_xo").reshape(4, 1, 1, 1),
        stacked("w_hi", "w_hf", "w_hc", "w_ho").reshape(4, 1, 1, 1),
        stacked("b_i", "b_f", "b_c", "b_o"),
        stacked("w_ci", "w_cf", "w_co").reshape(3, 1, 1, 1),
    )


SCALAR_KEYS = ("w_xi", "w_xf", "w_xc", "w_xo", "w_hi", "w_hf", "w_hc", "w_ho",
               "w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o")


def random_scalar_weights(rng):
    return {k: float(rng.uniform(-1, 1)) for k in SCALAR_KEYS}


def gate(p, name):
    """The per-gate view of ``p`` stored under a checkpoint name."""
    return dict(p.named_arrays())[name]


def tiny_params(rng, c_in=2, s=2, h=4, w=4, k=5):
    p = cl.init_params(c_in, s, h, w, kernel_size=k, seed=rng)
    # gradient-check peepholes too: give them nonzero values
    p.peep[:] = rng.uniform(-0.3, 0.3, p.peep.shape)
    p.b[:] = rng.uniform(-0.2, 0.2, p.b.shape)
    return p


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

class TestStep:
    def test_all_zero_params(self):
        p = cl.init_params(1, 2, 4, 4, seed=0)
        for name, arr in p.named_arrays():
            arr[:] = 0.0
        state, trace = cl.step(p, np.random.default_rng(0).uniform(0, 1, (1, 4, 4)),
                               cl.zero_state(2, 4, 4))
        np.testing.assert_array_equal(trace.i, 0.5)
        np.testing.assert_array_equal(trace.f, 0.5)
        np.testing.assert_array_equal(trace.o, 0.5)
        np.testing.assert_array_equal(state.c, 0.0)
        np.testing.assert_array_equal(state.h, 0.0)

    def test_large_candidate_bias(self):
        p = cl.init_params(1, 1, 3, 3, seed=0)
        for name, arr in p.named_arrays():
            arr[:] = 0.0
        gate(p, "b_c")[:] = 10.0
        state, _ = cl.step(p, np.zeros((1, 3, 3)), cl.zero_state(1, 3, 3))
        expect_c = 0.5 * math.tanh(10.0)
        expect_h = 0.5 * math.tanh(expect_c)
        np.testing.assert_allclose(state.c, expect_c, atol=1e-12)
        np.testing.assert_allclose(state.h, expect_h, atol=1e-12)
        assert state.h[0, 0, 0] == pytest.approx(0.2311, abs=2e-4)

    def test_matches_scalar_oracle_100_steps(self):
        rng = np.random.default_rng(42)
        w = random_scalar_weights(rng)
        p = scalar_params(w)
        h = c = 0.0
        state = cl.zero_state(1, 1, 1)
        for _ in range(100):
            x = float(rng.uniform(-1, 1))
            h, c = scalar_lstm_step(w, x, h, c)
            state, _ = cl.step(p, np.array(x).reshape(1, 1, 1), state)
            assert abs(state.h[0, 0, 0] - h) <= 1e-12
            assert abs(state.c[0, 0, 0] - c) <= 1e-12

    def test_gate_and_hidden_ranges(self):
        rng = np.random.default_rng(1)
        p = tiny_params(rng)
        state = cl.zero_state(2, 4, 4)
        for _ in range(5):
            state, trace = cl.step(p, rng.uniform(-2, 2, (2, 4, 4)), state)
            for gate in (trace.i, trace.f, trace.o):
                assert ((gate > 0) & (gate < 1)).all()
            assert ((state.h > -1) & (state.h < 1)).all()

    def test_memory_retention(self):
        # forget gate saturated open, input gate irrelevant (candidate zero)
        p = cl.init_params(1, 2, 4, 4, seed=0)
        for name, arr in p.named_arrays():
            arr[:] = 0.0
        gate(p, "b_f")[:] = 50.0
        gate(p, "b_i")[:] = -50.0
        rng = np.random.default_rng(2)
        c0 = rng.normal(size=(2, 4, 4))
        state = cl.CellState(np.zeros((2, 4, 4)), c0.copy())
        for _ in range(20):
            state, _ = cl.step(p, rng.normal(size=(1, 4, 4)), state)
        np.testing.assert_array_equal(state.c, c0)

    def test_shape_mismatch_rejected(self):
        p = cl.init_params(1, 2, 4, 4, seed=0)
        with pytest.raises(ValueError, match="input shape"):
            cl.step(p, np.zeros((3, 4, 4)), cl.zero_state(2, 4, 4))
        with pytest.raises(ValueError, match="previous state"):
            cl.step(p, np.zeros((1, 4, 4)), cl.zero_state(3, 4, 4))


# ---------------------------------------------------------------------------
# unroll
# ---------------------------------------------------------------------------

class TestUnroll:
    def test_length_one_equals_step(self):
        rng = np.random.default_rng(3)
        p = tiny_params(rng, c_in=1)
        x = rng.uniform(0, 1, (1, 4, 4))
        init = cl.zero_state(2, 4, 4)
        run = cl.unroll(p, [x], init)
        direct, _ = cl.step(p, x, init)
        np.testing.assert_array_equal(run.final.h, direct.h)
        np.testing.assert_array_equal(run.final.c, direct.c)

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(4)
        p = tiny_params(rng, c_in=1)
        a = rng.uniform(0, 1, (1, 4, 4))
        b = rng.uniform(0, 1, (1, 4, 4))
        xs = [a, b, a]
        init = cl.zero_state(2, 4, 4)
        fwd = cl.unroll(p, xs, init)
        bwd = cl.unroll(p, xs, init, reverse=True)
        np.testing.assert_array_equal(fwd.final.h, bwd.final.h)
        np.testing.assert_array_equal(fwd.final.c, bwd.final.c)

    def test_forward_matches_manual_chain(self):
        rng = np.random.default_rng(5)
        p = tiny_params(rng, c_in=1)
        xs = [rng.uniform(0, 1, (1, 4, 4)) for _ in range(3)]
        init = cl.zero_state(2, 4, 4)
        run = cl.unroll(p, xs, init)
        state = init
        for t, x in enumerate(xs):
            state, _ = cl.step(p, x, state)
            np.testing.assert_array_equal(run.states[t].h, state.h)
            np.testing.assert_array_equal(run.states[t].c, state.c)

    def test_reverse_is_forward_on_reversed_inputs(self):
        rng = np.random.default_rng(6)
        p = tiny_params(rng, c_in=1)
        xs = [rng.uniform(0, 1, (1, 4, 4)) for _ in range(4)]
        init = cl.zero_state(2, 4, 4)
        rev = cl.unroll(p, xs, init, reverse=True)
        fwd_on_reversed = cl.unroll(p, xs[::-1], init)
        for t in range(4):
            np.testing.assert_array_equal(rev.states[t].h,
                                          fwd_on_reversed.states[3 - t].h)

    def test_empty_rejected(self):
        p = cl.init_params(1, 2, 4, 4, seed=0)
        with pytest.raises(ValueError, match="empty"):
            cl.unroll(p, [], cl.zero_state(2, 4, 4))


# ---------------------------------------------------------------------------
# bptt
# ---------------------------------------------------------------------------

def unroll_loss(p, xs, init, weights, d_c_w=None, reverse=False):
    """Scalar objective: weighted sum of all per-step hidden states (plus an
    optional weighted final cell term) for gradient checking."""
    run = cl.unroll(p, xs, init, reverse=reverse)
    val = sum(float((run.states[t].h * weights[t]).sum()) for t in range(len(xs)))
    if d_c_w is not None:
        val += float((run.final.c * d_c_w).sum())
    return val


def params_from_vectors(template, arrays):
    out = template.zeros_like()
    for (name, dst), src in zip(out.named_arrays(), arrays):
        dst[:] = src
    return out


class TestBptt:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(7)
        p = tiny_params(rng, c_in=1)
        xs = [rng.uniform(0, 1, (1, 4, 4)) for _ in range(3)]
        run = cl.unroll(p, xs, cl.zero_state(2, 4, 4))
        grads, d_inputs, d_init = cl.bptt(p, run, [np.zeros((2, 4, 4))] * 3)
        for name, arr in grads.named_arrays():
            assert not arr.any(), name
        for d in d_inputs:
            assert not d.any()
        assert not d_init.h.any() and not d_init.c.any()

    def test_single_step_scalar_analytic_gradient(self):
        # compare against finite differences of the scalar oracle itself
        rng = np.random.default_rng(8)
        w = random_scalar_weights(rng)
        p = scalar_params(w)
        x = 0.37
        init = cl.CellState(np.array(0.21).reshape(1, 1, 1),
                            np.array(-0.4).reshape(1, 1, 1))
        run = cl.unroll(p, [np.array(x).reshape(1, 1, 1)], init)
        grads, d_inputs, d_init = cl.bptt(p, run, [np.ones((1, 1, 1))])

        eps = 1e-7
        for key in SCALAR_KEYS:
            wp = dict(w)
            wp[key] = w[key] + eps
            hp, _ = scalar_lstm_step(wp, x, 0.21, -0.4)
            wm = dict(w)
            wm[key] = w[key] - eps
            hm, _ = scalar_lstm_step(wm, x, 0.21, -0.4)
            numeric = (hp - hm) / (2 * eps)
            analytic = dict(grads.named_arrays())[key].item()
            assert abs(analytic - numeric) <= 1e-7, key
        hp, _ = scalar_lstm_step(w, x + eps, 0.21, -0.4)
        hm, _ = scalar_lstm_step(w, x - eps, 0.21, -0.4)
        assert abs(d_inputs[0].item() - (hp - hm) / (2 * eps)) <= 1e-7
        hp, _ = scalar_lstm_step(w, x, 0.21 + eps, -0.4)
        hm, _ = scalar_lstm_step(w, x, 0.21 - eps, -0.4)
        assert abs(d_init.h.item() - (hp - hm) / (2 * eps)) <= 1e-7

    @pytest.mark.parametrize("reverse", [False, True])
    def test_three_step_finite_difference(self, reverse):
        rng = np.random.default_rng(9)
        p = tiny_params(rng)
        xs = [rng.uniform(-1, 1, (2, 4, 4)) for _ in range(3)]
        init = cl.CellState(rng.uniform(-0.5, 0.5, (2, 4, 4)),
                            rng.uniform(-0.5, 0.5, (2, 4, 4)))
        weights = [rng.normal(size=(2, 4, 4)) for _ in range(3)]
        dc_w = rng.normal(size=(2, 4, 4))

        run = cl.unroll(p, xs, init, reverse=reverse)
        grads, d_inputs, d_init = cl.bptt(p, run, weights, d_c_final=dc_w)

        names = [n for n, _ in p.named_arrays()]
        arrays = [a for _, a in p.named_arrays()]
        analytic = [dict(grads.named_arrays())[n] for n in names]

        def loss(*arrs):
            q = params_from_vectors(p, arrs)
            return unroll_loss(q, xs, init, weights, d_c_w=dc_w, reverse=reverse)

        err = tc.finite_diff_check(loss, arrays, analytic)
        assert err <= 1e-5

        # inputs and initial state too
        def loss_x(*xs_flat):
            return unroll_loss(p, list(xs_flat), init, weights, d_c_w=dc_w, reverse=reverse)

        err = tc.finite_diff_check(loss_x, xs, d_inputs)
        assert err <= 1e-5

        def loss_init(h0, c0):
            return unroll_loss(p, xs, cl.CellState(h0, c0), weights, d_c_w=dc_w,
                               reverse=reverse)

        err = tc.finite_diff_check(loss_init, [init.h, init.c], [d_init.h, d_init.c])
        assert err <= 1e-5

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        p = tiny_params(rng, c_in=1)
        run = cl.unroll(p, [rng.uniform(0, 1, (1, 4, 4))] * 2, cl.zero_state(2, 4, 4))
        with pytest.raises(ValueError, match="length"):
            cl.bptt(p, run, [None])

    @pytest.mark.parametrize("d_hidden, d_c_final, message", [
        ([None, np.ones((1, 8, 8)), None], None, r"d_hidden\[1\] has shape \(1, 8, 8\)"),
        ([np.ones(8), None, None], None, r"d_hidden\[0\] has shape \(8,\)"),
        ([None] * 3, 1.0, r"d_c_final has shape \(\)"),
    ], ids=["broadcast-channels", "broadcast-row", "scalar-d_c_final"])
    def test_upstream_shape_rejected(self, d_hidden, d_c_final, message):
        # each of these broadcasts against [S,H,W] and would give wrong gradients
        rng = np.random.default_rng(11)
        p = tiny_params(rng, c_in=1, s=3, h=8, w=8)
        run = cl.unroll(p, [rng.uniform(0, 1, (1, 8, 8)) for _ in range(3)],
                        cl.zero_state(3, 8, 8))
        with pytest.raises(ValueError, match=message + r", expected \(3, 8, 8\)"):
            cl.bptt(p, run, d_hidden, d_c_final=d_c_final)
        assert all(tr is not None for tr in run.traces)  # rejected before any step

    def test_consumes_the_unroll(self):
        rng = np.random.default_rng(12)
        p = tiny_params(rng, c_in=1)
        xs = [rng.uniform(0, 1, (1, 4, 4)) for _ in range(3)]
        run = cl.unroll(p, xs, cl.zero_state(2, 4, 4))
        final = run.final
        cl.bptt(p, run, [np.ones((2, 4, 4))] * 3)
        assert run.traces == [None] * 3 and run.states == [None] * 3
        assert run.final is final
        with pytest.raises(ValueError, match="holds no traces"):
            cl.bptt(p, run, [np.ones((2, 4, 4))] * 3)

    def test_unroll_without_traces(self):
        rng = np.random.default_rng(13)
        p = tiny_params(rng, c_in=1)
        xs = [rng.uniform(0, 1, (1, 4, 4)) for _ in range(3)]
        kept = cl.unroll(p, xs, cl.zero_state(2, 4, 4), reverse=True)
        bare = cl.unroll(p, xs, cl.zero_state(2, 4, 4), reverse=True, keep=False)
        assert bare.traces is None
        for a, b in zip(kept.states, bare.states):
            np.testing.assert_array_equal(a.h, b.h)
            np.testing.assert_array_equal(a.c, b.c)
        with pytest.raises(ValueError, match="holds no traces"):
            cl.bptt(p, bare, [None] * 3)


# ---------------------------------------------------------------------------
# fused step against a two-convolution reference
# ---------------------------------------------------------------------------

def two_conv_unroll(p, xs, init):
    """Forward steps with separate input and state convolutions, z = z_x + z_h."""
    s = p.state_channels
    w_ci, w_cf, w_co = p.peep
    state, saved = init, []
    for x in xs:
        z = tc.conv2d_same(x, p.w_x, p.b)[0] + tc.conv2d_same(state.h, p.w_h, np.zeros(4 * s))[0]
        i = tc.sigmoid(z[:s] + w_ci * state.c)
        f = tc.sigmoid(z[s:2 * s] + w_cf * state.c)
        g = np.tanh(z[2 * s:3 * s])
        c = f * state.c + i * g
        o = tc.sigmoid(z[3 * s:] + w_co * c)
        saved.append((x, state, i, f, g, o, c))
        state = cl.CellState(o * np.tanh(c), c)
    return state, saved


def two_conv_bptt(p, saved, d_hidden):
    """BPTT through ``two_conv_unroll``, each convolution reversed on its own."""
    grads = p.zeros_like()
    w_ci, w_cf, w_co = p.peep
    d_h_next = d_c = np.zeros_like(saved[0][1].h)
    d_xs = []
    for (x, prev, i, f, g, o, c), up in zip(reversed(saved), reversed(d_hidden)):
        d_h = up + d_h_next
        tanh_c = np.tanh(c)
        d_zo = d_h * tanh_c * o * (1.0 - o)
        d_c = d_c + d_h * o * (1.0 - tanh_c ** 2) + d_zo * w_co
        d_zi = d_c * g * i * (1.0 - i)
        d_zf = d_c * prev.c * f * (1.0 - f)
        d_zg = d_c * i * (1.0 - g * g)
        grads.peep += np.stack([d_zi * prev.c, d_zf * prev.c, d_zo * c])
        d_z = np.concatenate([d_zi, d_zf, d_zg, d_zo])
        d_x, d_wx, d_b = tc.conv2d_same_backward(tc.conv2d_same(x, p.w_x, p.b)[1], d_z)
        d_h_next, d_wh, _ = tc.conv2d_same_backward(
            tc.conv2d_same(prev.h, p.w_h, p.b)[1], d_z)
        grads.w_x += d_wx
        grads.w_h += d_wh
        grads.b += d_b
        d_c = d_c * f + d_zi * w_ci + d_zf * w_cf
        d_xs.insert(0, d_x)
    return grads, d_xs, cl.CellState(d_h_next, d_c)


def relative(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


# fused C+S -> 4S: 5 -> 16 and 7 -> 24 stay on im2col, 18 -> 24 and 33 -> 128
# run Winograd while their two-conv halves (12 -> 24, 1 -> 128) do not
@pytest.mark.parametrize("c_in, s, size", [(1, 4, 9), (1, 6, 8), (12, 6, 8), (1, 32, 8)])
def test_fused_step_matches_two_conv_reference(c_in, s, size):
    rng = np.random.default_rng(c_in * 100 + s)
    p = tiny_params(rng, c_in=c_in, s=s, h=size, w=size)
    xs = [rng.uniform(-1, 1, (c_in, size, size)) for _ in range(3)]
    init = cl.CellState(rng.uniform(-0.5, 0.5, (s, size, size)),
                        rng.uniform(-0.5, 0.5, (s, size, size)))
    d_hidden = [rng.normal(size=(s, size, size)) for _ in range(3)]

    run = cl.unroll(p, xs, init)
    ref_final, saved = two_conv_unroll(p, xs, init)
    assert relative(run.final.h, ref_final.h) <= 1e-12
    assert relative(run.final.c, ref_final.c) <= 1e-12

    grads, d_xs, d_init = cl.bptt(p, run, d_hidden)
    ref_grads, ref_d_xs, ref_d_init = two_conv_bptt(p, saved, d_hidden)
    for (name, got), (_, ref) in zip(grads.named_arrays(), ref_grads.named_arrays()):
        assert relative(got, ref) <= 1e-12, name
    for got, ref in zip(d_xs + [d_init.h, d_init.c], ref_d_xs + [ref_d_init.h, ref_d_init.c]):
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert relative(got, ref) <= 1e-12


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

class TestInit:
    def test_xavier_bound_closed_form(self):
        b = cl.xavier_bound(32, 32, 5, 5)
        assert b == pytest.approx(math.sqrt(6.0 / 1600.0), abs=1e-15)
        assert b == pytest.approx(0.06124, abs=5e-6)
        p = cl.init_params(32, 32, 8, 8, seed=0)
        for name in ("w_xi", "w_xf", "w_xc", "w_xo", "w_hi", "w_hf", "w_hc", "w_ho"):
            arr = dict(p.named_arrays())[name]
            assert (np.abs(arr) <= b).all()

    def test_deterministic_per_seed(self):
        a = cl.init_params(2, 3, 4, 4, seed=123)
        b = cl.init_params(2, 3, 4, 4, seed=123)
        for (n1, x), (n2, y) in zip(a.named_arrays(), b.named_arrays()):
            assert (x == y).all()
        c = cl.init_params(2, 3, 4, 4, seed=124)
        assert (a.w_x != c.w_x).any()

    def test_zero_biases_and_peepholes(self):
        p = cl.init_params(2, 3, 4, 4, seed=0)
        for name in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o"):
            assert not dict(p.named_arrays())[name].any()

    def test_named_arrays_are_views_of_stored_layout(self):
        p = cl.init_params(2, 3, 4, 4, seed=0)
        views = dict(p.named_arrays())
        views["w_ci"][:] = 1.5
        np.testing.assert_array_equal(p.peep[0], 1.5)
        assert all(v.flags.c_contiguous for v in views.values())
        assert sum(v.size for v in views.values()) == sum(
            a.size for a in (p.w_x, p.w_h, p.b, p.peep))

    def test_uniform_variance(self):
        # kernel with >= 1e5 samples: 50 * 80 * 25 = 100k per gate kernel
        p = cl.init_params(80, 50, 2, 2, seed=7)
        bound = cl.xavier_bound(80, 50, 5, 5)
        var = gate(p, "w_xi").var()
        assert var == pytest.approx(bound ** 2 / 3.0, rel=0.05)
