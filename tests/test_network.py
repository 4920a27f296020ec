"""Branched network tests: composition oracles, event-head structure,
end-to-end gradients at a tiny configuration, checkpoint round-trips."""

import math
import multiprocessing
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from mitoscope import conv_lstm as cl
from mitoscope import lanes
from mitoscope import network as net
from mitoscope import tensor_core as tc
from conftest import perturb_model, random_frames, tiny_config

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"


def zero_model(model):
    for _, arr in model.named_params():
        arr[:] = 0.0
    return model


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

class TestEncode:
    def test_zero_network_zero_state(self):
        model = zero_model(net.init_unsupervised(tiny_config(), seed=0))
        frames = random_frames(np.random.default_rng(0), 2, 8)
        state = net.encode(model, frames)
        assert not state.h.any() and not state.c.any()

    def test_hidden_bounded(self, tiny_unsup_model):
        frames = random_frames(np.random.default_rng(1), 2, 8)
        state = net.encode(tiny_unsup_model, frames)
        assert ((state.h > -1) & (state.h < 1)).all()

    def test_matches_direct_unroll(self, tiny_unsup_model):
        frames = random_frames(np.random.default_rng(2), 2, 8)
        state = net.encode(tiny_unsup_model, frames)
        run = cl.unroll(tiny_unsup_model.encoder, frames, cl.zero_state(2, 8, 8))
        np.testing.assert_array_equal(state.h, run.final.h)
        np.testing.assert_array_equal(state.c, run.final.c)

    def test_wrong_length_rejected(self, tiny_unsup_model):
        with pytest.raises(ValueError, match="expected 2 frames"):
            net.encode(tiny_unsup_model, random_frames(np.random.default_rng(3), 4, 8))


# ---------------------------------------------------------------------------
# event head
# ---------------------------------------------------------------------------

class TestEventHead:
    def test_zero_hidden_uniform_tie(self):
        n, s = 4, 3
        y = net.event_head(np.zeros((s, 16, 16)), np.zeros((n, s, 1, 1)),
                           np.zeros(n), grid_factor=8)
        np.testing.assert_array_equal(y[0], 0.25)
        assert not y[1:].any()

    def test_crafted_block_prefers_channel(self):
        s = n = 4
        proj_w = np.zeros((n, s, 1, 1))
        for c in range(n):
            proj_w[c, c, 0, 0] = 1.0
        hidden = np.zeros((s, 16, 16))
        hidden[3, 2, 10] = 0.9  # block (0,1) favors channel 3
        y = net.event_head(hidden, proj_w, np.zeros(n), grid_factor=8)
        assert (y[3, 0:8, 8:16] > 0).all()
        assert y[3].sum() == pytest.approx(y[3, 0:8, 8:16].sum())
        # the remaining blocks fall back to the channel-0 tie winner
        assert (y[0, 0:8, 0:8] > 0).all()

    def test_structural_invariants_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            hidden = rng.normal(size=(3, 16, 16))
            proj_w = rng.normal(size=(5, 3, 1, 1))
            proj_b = rng.normal(size=5)
            y = net.event_head(hidden, proj_w, proj_b, grid_factor=8)
            assert net.event_map_ok(y, 8)

    def test_softmax_sums_inside_head(self):
        rng = np.random.default_rng(5)
        hidden = rng.normal(size=(3, 16, 16))
        z, _ = tc.conv2d_same(hidden, rng.normal(size=(4, 3, 1, 1)), rng.normal(size=4))
        pooled, _ = tc.maxpool2d(z, 8)
        soft, _ = tc.channel_softmax(pooled)
        np.testing.assert_allclose(soft.sum(axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# detect_events
# ---------------------------------------------------------------------------

class TestDetectEvents:
    def test_zero_model_uniform_maps(self):
        model = zero_model(net.init_unsupervised(tiny_config(), seed=0))
        frames = random_frames(np.random.default_rng(6), 3, 8)
        maps = net.detect_events(model, frames)
        assert len(maps) == 3
        for y in maps:
            np.testing.assert_array_equal(y[0], 0.5)  # 1/n with n=2
            assert not y[1].any()

    def test_output_length_contract(self, tiny_unsup_model):
        frames = random_frames(np.random.default_rng(7), 3, 8)
        assert len(net.detect_events(tiny_unsup_model, frames)) == 3
        with pytest.raises(ValueError, match="expected 3 frames"):
            net.detect_events(tiny_unsup_model, frames[:2])

    def test_time_reversal_swaps_reader_roles(self, tiny_unsup_model):
        # with shared reader weights, reversing time channel-swaps and
        # reverses the concatenated features
        model = tiny_unsup_model
        model.event_bwd = model.event_fwd
        frames = random_frames(np.random.default_rng(8), 3, 8)
        feats, _, _ = net._bidirectional_features(model.event_fwd, model.event_bwd, frames)
        feats_rev, _, _ = net._bidirectional_features(model.event_fwd, model.event_bwd,
                                                      frames[::-1])
        s = model.config.hidden_channels
        for t in range(3):
            swapped = np.concatenate([feats[2 - t][s:], feats[2 - t][:s]], axis=0)
            np.testing.assert_allclose(feats_rev[t], swapped, atol=1e-12)

    def test_invariants_hold(self, tiny_unsup_model):
        frames = random_frames(np.random.default_rng(9), 3, 8)
        for y in net.detect_events(tiny_unsup_model, frames):
            assert net.event_map_ok(y, 8)


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

class TestReconstruct:
    def test_zero_model_outputs_half(self):
        model = zero_model(net.init_unsupervised(tiny_config(), seed=0))
        events = [np.zeros((2, 8, 8))] * 3
        frames = net.reconstruct(model, cl.zero_state(2, 8, 8), events)
        for f in frames:
            np.testing.assert_array_equal(f, 0.5)

    def test_outputs_in_unit_interval(self, tiny_unsup_model):
        rng = np.random.default_rng(10)
        events = [rng.uniform(0, 1, (2, 8, 8)) for _ in range(3)]
        state = cl.CellState(rng.uniform(-0.5, 0.5, (2, 8, 8)),
                             rng.uniform(-0.5, 0.5, (2, 8, 8)))
        for f in net.reconstruct(tiny_unsup_model, state, events):
            assert ((f > 0) & (f < 1)).all()

    def test_matches_manual_composition(self, tiny_unsup_model):
        model = tiny_unsup_model
        rng = np.random.default_rng(11)
        events = [rng.uniform(0, 1, (2, 8, 8)) for _ in range(3)]
        state = cl.CellState(rng.uniform(-0.5, 0.5, (2, 8, 8)),
                             rng.uniform(-0.5, 0.5, (2, 8, 8)))
        frames = net.reconstruct(model, state, events)

        run = cl.unroll(model.decoder, [np.zeros((1, 8, 8))] * 3, state)
        for t in range(3):
            merged = np.concatenate([run.states[t].h, events[t]], axis=0)
            a, _ = tc.conv2d_same(merged, model.recon_w, model.recon_b)
            b, _ = tc.conv2d_same(np.tanh(a), model.out_w, model.out_b)
            np.testing.assert_allclose(frames[t], tc.sigmoid(b), atol=1e-14)


# ---------------------------------------------------------------------------
# unsupervised forward / backward
# ---------------------------------------------------------------------------

class TestUnsupervised:
    def test_zero_model_half_targets_ln2(self):
        model = zero_model(net.init_unsupervised(tiny_config(), seed=0))
        frames = [np.full((1, 8, 8), 0.5)] * 5
        out = net.forward_unsupervised(model, frames)
        assert out.loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_loss_nonnegative(self, tiny_unsup_model):
        frames = random_frames(np.random.default_rng(12), 5, 8)
        out = net.forward_unsupervised(tiny_unsup_model, frames)
        assert out.loss >= 0.0
        for f in out.frames:
            assert ((f > 0) & (f < 1)).all()
        for y in out.events:
            assert net.event_map_ok(y, 8)

    def test_length_mismatch_rejected(self, tiny_unsup_model):
        with pytest.raises(ValueError, match="expected 5 frames"):
            net.forward_unsupervised(tiny_unsup_model,
                                     random_frames(np.random.default_rng(13), 4, 8))

    def test_backward_deterministic(self, tiny_unsup_model):
        frames = random_frames(np.random.default_rng(14), 5, 8)
        g1 = net.backward_unsupervised(tiny_unsup_model,
                                       net.forward_unsupervised(tiny_unsup_model, frames))
        g2 = net.backward_unsupervised(tiny_unsup_model,
                                       net.forward_unsupervised(tiny_unsup_model, frames))
        for (n1, a), (n2, b) in zip(g1.named_params(), g2.named_params()):
            assert (a == b).all(), n1

    def test_gradients_near_minimum_are_small(self):
        # prediction equals target at 0.5 everywhere: loss is stationary in
        # the output bias direction
        model = zero_model(net.init_unsupervised(tiny_config(), seed=0))
        frames = [np.full((1, 8, 8), 0.5)] * 5
        out = net.forward_unsupervised(model, frames)
        grads = net.backward_unsupervised(model, out)
        assert abs(grads.out_b[0]) <= 1e-12

    def test_gradient_check_subsampled(self, tiny_unsup_model):
        model = tiny_unsup_model
        frames = random_frames(np.random.default_rng(15), 5, 8)
        out = net.forward_unsupervised(model, frames)
        assert _head_margins_safe(out)
        grads = dict(net.backward_unsupervised(model, out).named_params())
        names = [n for n, _ in model.named_params()]
        arrays = [a for _, a in model.named_params()]

        def loss(*_):
            return net.forward_unsupervised(model, frames).loss

        err = tc.finite_diff_check(loss, arrays, [grads[n] for n in names],
                                   step=1e-4, max_coords=6, seed=3)
        assert err <= 1e-4


def _head_margins_safe(out, tol=1e-3):
    """Pool and winner races must be clearly decided or finite differences
    would step across a kink."""
    for ht in out.trace.head_traces:
        z = ht.pool
        # recompute per-block top-2 gap from the stored argmax is awkward;
        # check the winner margin on the softmax output instead
        soft = ht.softmax.out
        if soft.shape[0] >= 2:
            top2 = np.sort(soft, axis=0)[-2:]
            if ((top2[1] - top2[0]) <= tol).any():
                return False
    return True


# ---------------------------------------------------------------------------
# supervised variant
# ---------------------------------------------------------------------------

class TestSupervised:
    def test_zero_model_ln2_loss(self):
        model = zero_model(net.init_supervised(tiny_config(), seed=0))
        frames = random_frames(np.random.default_rng(16), 3, 8)
        targets = [np.full((1, 8, 8), 0.1)] * 3
        out = net.forward_supervised(model, frames, targets)
        for m in out.maps:
            np.testing.assert_array_equal(m, 0.5)
        assert out.loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_maps_in_unit_interval(self, tiny_sup_model):
        frames = random_frames(np.random.default_rng(17), 3, 8)
        maps = net.supervised_maps(tiny_sup_model, frames)
        for m in maps:
            assert ((m > 0) & (m < 1)).all()

    def test_length_mismatch_rejected(self, tiny_sup_model):
        frames = random_frames(np.random.default_rng(18), 3, 8)
        with pytest.raises(ValueError, match="targets"):
            net.forward_supervised(tiny_sup_model, frames, [np.zeros((1, 8, 8))] * 2)

    def test_gradient_check_subsampled(self, tiny_sup_model):
        model = tiny_sup_model
        rng = np.random.default_rng(19)
        frames = random_frames(rng, 3, 8)
        targets = net.build_supervised_target([(1, 4, 4)], 8, 3)
        out = net.forward_supervised(model, frames, targets)
        grads = dict(net.backward_supervised(model, out).named_params())
        names = [n for n, _ in model.named_params()]
        arrays = [a for _, a in model.named_params()]

        def loss(*_):
            return net.forward_supervised(model, frames, targets).loss

        err = tc.finite_diff_check(loss, arrays, [grads[n] for n in names],
                                   step=1e-4, max_coords=6, seed=4)
        assert err <= 1e-4


# ---------------------------------------------------------------------------
# supervised targets
# ---------------------------------------------------------------------------

class TestBuildSupervisedTarget:
    def test_no_annotations(self):
        maps = net.build_supervised_target([], 64, 4)
        assert len(maps) == 4
        for m in maps:
            np.testing.assert_array_equal(m, 0.1)

    def test_square_geometry(self):
        maps = net.build_supervised_target([(0, 32, 32)], 64, 1)
        m = maps[0]
        assert m[0, 32, 32] == 1.0
        assert m[0, 40, 32] == 0.6  # 8 rows below: in the ring, outside the core
        assert m[0, 32, 40] == 0.6
        assert m[0, 35, 32] == 1.0  # core reaches +/-3
        assert m[0, 36, 32] == 0.6
        assert m[0, 0, 0] == 0.1

    def test_corner_clipped(self):
        maps = net.build_supervised_target([(0, 0, 0)], 64, 1)
        m = maps[0]
        assert m[0, 0, 0] == 1.0
        assert m.shape == (1, 64, 64)
        assert m[0, 30, 30] == 0.1

    def test_overlap_resolved_by_max(self):
        maps = net.build_supervised_target([(0, 20, 20), (0, 24, 20)], 64, 1)
        m = maps[0]
        assert m[0, 20, 22] == 1.0  # inside both cores

    def test_out_of_frame_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            net.build_supervised_target([(0, 70, 2)], 64, 1)


# ---------------------------------------------------------------------------
# two lanes, consumed traces, trace-free detect
# ---------------------------------------------------------------------------

def _serial(first, second):
    """Reference for ``lanes.both``: the two parts one after the other."""
    return first(), second()


# S=4 at a tiny configuration; S=32 at the paper's sequence lengths and
# class count, where the merge (96->128), encoder, readers and decoder
# (33->128) and the recon conv (48->32 or 32->32) run Winograd
BIT_EQUAL_CONFIGS = {4: tiny_config(frame_size=16, hidden_channels=4, event_classes=4),
                     32: net.NetworkConfig(frame_size=32, hidden_channels=32, event_classes=16)}


def _all_outputs(s):
    """Losses, maps and every gradient of a whole sample of both models,
    plus the detect maps."""
    cfg = BIT_EQUAL_CONFIGS[s]
    rng = np.random.default_rng(s)
    m, context = cfg.frame_size, cfg.encoder_len
    frames = random_frames(rng, context + cfg.target_len, m)
    model = perturb_model(net.init_unsupervised(cfg, seed=s), rng)
    smodel = perturb_model(net.init_supervised(cfg, seed=s + 1), rng)
    targets = net.build_supervised_target([(1, 5, 9)], m, cfg.target_len)
    out = net.forward_unsupervised(model, frames)
    sout = net.forward_supervised(smodel, frames[context:], targets)
    arrays = [out.loss, *out.frames, *out.events, sout.loss, *sout.maps,
              *net.detect_events(model, frames[context:]),
              *net.supervised_maps(smodel, frames[context:])]
    arrays += [g for _, g in net.backward_unsupervised(model, out).named_params()]
    arrays += [g for _, g in net.backward_supervised(smodel, sout).named_params()]
    return arrays


def _detect_tiny():
    model = net.init_unsupervised(tiny_config(), seed=0)
    return len(net.detect_events(model, random_frames(np.random.default_rng(0), 3, 8)))


def _reader_threads(model, monkeypatch):
    """The thread each event-branch layer's unroll and bptt ran on, over one
    unsupervised forward and backward."""
    threads = {}
    for name in ("unroll", "bptt"):
        real = getattr(cl, name)

        def record(params, *args, _real=real, _name=name, **kwargs):
            threads[_name, id(params)] = threading.get_ident()
            return _real(params, *args, **kwargs)

        monkeypatch.setattr(cl, name, record)
    out = net.forward_unsupervised(model, random_frames(np.random.default_rng(30), 5, 8))
    net.backward_unsupervised(model, out)
    return threads


class TestLaneChoice:
    @pytest.mark.parametrize("blas_threads", ["1", "cores"])
    def test_lanes_need_cores_for_both_lanes_blas_threads(self, blas_threads):
        cores = len(os.sched_getaffinity(0))
        n = cores if blas_threads == "cores" else 1
        src = str(Path(net.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = ("from mitoscope import lanes; "
                 "print(lanes.openblas_threads() is not None, lanes.two_lanes())")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        if out[0] == "False":
            pytest.skip("numpy carries no OpenBLAS of its own")
        assert out[1] == str(2 * n <= cores)

    def test_one_lane_runs_on_the_caller(self, tiny_unsup_model, monkeypatch):
        monkeypatch.setattr(lanes, "two_lanes", lambda: False)
        threads = _reader_threads(tiny_unsup_model, monkeypatch)
        assert set(threads.values()) == {threading.get_ident()}


class TestTwoLanes:
    @pytest.fixture(autouse=True)
    def two_lanes(self, monkeypatch):
        # whatever the BLAS thread count of the machine running the tests
        monkeypatch.setattr(lanes, "two_lanes", lambda: True)

    @pytest.mark.parametrize("s", [4, 32])
    def test_bit_equal_to_serial(self, s, monkeypatch):
        on_lanes = _all_outputs(s)
        monkeypatch.setattr(lanes, "both", _serial)
        serial = _all_outputs(s)
        assert len(on_lanes) == len(serial)
        for a, b in zip(on_lanes, serial):
            np.testing.assert_array_equal(a, b)

    def test_backward_reader_runs_on_the_helper(self, tiny_unsup_model, monkeypatch):
        model = tiny_unsup_model
        threads = _reader_threads(model, monkeypatch)
        caller = threading.get_ident()
        for name in ("unroll", "bptt"):
            assert threads[name, id(model.event_fwd)] == caller
            assert threads[name, id(model.event_merge)] == caller
            assert threads[name, id(model.event_bwd)] != caller

    def test_helper_error_reaches_caller(self, tiny_sup_model, monkeypatch):
        model = tiny_sup_model
        frames = random_frames(np.random.default_rng(31), 3, 8)
        targets = net.build_supervised_target([(1, 4, 4)], 8, 3)
        expected = net.backward_supervised(model, net.forward_supervised(model, frames, targets))
        real = cl.bptt

        def failing(params, *args, **kwargs):
            if params is model.event_bwd:
                raise RuntimeError("bptt failed on event_bwd")
            return real(params, *args, **kwargs)

        monkeypatch.setattr(cl, "bptt", failing)
        out = net.forward_supervised(model, frames, targets)
        with pytest.raises(RuntimeError, match="event_bwd"):
            net.backward_supervised(model, out)
        monkeypatch.setattr(cl, "bptt", real)
        grads = net.backward_supervised(model, net.forward_supervised(model, frames, targets))
        for (name, a), (_, b) in zip(grads.named_params(), expected.named_params()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_caller_error_waits_for_helper(self):
        finished = []

        def slow():
            time.sleep(0.2)
            finished.append(True)

        def failing():
            raise RuntimeError("first lane failed")

        with pytest.raises(RuntimeError, match="first lane failed"):
            lanes.both(failing, slow)
        assert finished == [True]

    def test_one_helper_thread_for_every_call(self):
        # a new thread per call could take a new malloc arena each time
        helpers = {lanes.both(lambda: None, threading.get_ident)[1] for _ in range(5)}
        assert len(helpers) == 1 and threading.get_ident() not in helpers

    def test_forked_child_starts_its_own_helper(self, tiny_unsup_model):
        # the parent's helper thread does not exist in a forked child: a
        # child that reused its executor would queue work nobody runs
        net.detect_events(tiny_unsup_model, random_frames(np.random.default_rng(35), 3, 8))
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_detect_tiny).get(timeout=60) == 3

    def test_backward_consumes_trace(self, tiny_unsup_model, tiny_sup_model):
        frames = random_frames(np.random.default_rng(32), 5, 8)
        out = net.forward_unsupervised(tiny_unsup_model, frames)
        net.backward_unsupervised(tiny_unsup_model, out)
        assert out.trace is None
        with pytest.raises(ValueError, match="forward trace missing"):
            net.backward_unsupervised(tiny_unsup_model, out)
        targets = net.build_supervised_target([(1, 4, 4)], 8, 3)
        sout = net.forward_supervised(tiny_sup_model, frames[2:], targets)
        net.backward_supervised(tiny_sup_model, sout)
        assert sout.trace is None
        with pytest.raises(ValueError, match="forward trace missing"):
            net.backward_supervised(tiny_sup_model, sout)


# ---------------------------------------------------------------------------
# detect windows two at a time
# ---------------------------------------------------------------------------

def _load_fixture(kind):
    return net.load_checkpoint(FIXTURES / f"{kind}.ckpt")


class TestWindowMaps:
    @pytest.fixture(autouse=True, params=[True, False], ids=["lanes", "one-lane"])
    def lanes(self, request, monkeypatch):
        monkeypatch.setattr(lanes, "two_lanes", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("count", [1, 4, 5])
    def test_maps_in_window_order(self, tiny_unsup_model, tiny_sup_model, count):
        rng = np.random.default_rng(40)
        windows = [random_frames(rng, 3, 8) for _ in range(count)]
        for model, maps_of in ((tiny_unsup_model, net.detect_events),
                               (tiny_sup_model, net.supervised_maps)):
            got = list(net.window_maps(model, iter(windows)))
            assert len(got) == count
            for maps, frames in zip(got, windows):
                for a, b in zip(maps, maps_of(model, frames)):
                    np.testing.assert_array_equal(a, b)

    def test_forward_only_maps_equal_traced_forward(self, tiny_unsup_model, tiny_sup_model):
        frames = random_frames(np.random.default_rng(41), 5, 8)
        out = net.forward_unsupervised(tiny_unsup_model, frames)
        targets = net.build_supervised_target([(1, 4, 4)], 8, 3)
        sout = net.forward_supervised(tiny_sup_model, frames[2:], targets)
        (events,) = net.window_maps(tiny_unsup_model, [frames[2:]])
        (maps,) = net.window_maps(tiny_sup_model, [frames[2:]])
        for a, b in zip(events + maps, out.events + sout.maps):
            np.testing.assert_array_equal(a, b)

    def test_readers_run_on_their_windows_thread(self, tiny_unsup_model, lanes,
                                                 monkeypatch):
        model = tiny_unsup_model
        rng = np.random.default_rng(42)
        windows = [random_frames(rng, 3, 8) for _ in range(3)]
        readers = {id(model.event_fwd): "fwd", id(model.event_bwd): "bwd"}
        threads = {}  # (window, reader) -> threads of its unrolls
        real = cl.unroll

        def record(params, xs, *args, **kwargs):
            if id(params) in readers:
                window = next(i for i, w in enumerate(windows)
                              if any(x is f for x in xs for f in w))
                threads.setdefault((window, readers[id(params)]), set()).add(
                    threading.get_ident())
            return real(params, xs, *args, **kwargs)

        monkeypatch.setattr(cl, "unroll", record)
        list(net.window_maps(model, windows))
        caller = {threading.get_ident()}
        assert len(threads) == 6 and all(len(t) == 1 for t in threads.values())
        if not lanes:
            assert set.union(*threads.values()) == caller
            return
        # a pair: each window on its own lane, both of its readers in turn
        assert threads[0, "fwd"] == threads[0, "bwd"] == caller
        assert threads[1, "fwd"] == threads[1, "bwd"] != caller
        # the odd window out runs alone, its readers on two lanes
        assert threads[2, "fwd"] == caller != threads[2, "bwd"]

    def test_helper_window_error_waits_for_caller_window(self, tiny_unsup_model,
                                                         monkeypatch):
        rng = np.random.default_rng(43)
        windows = [random_frames(rng, 3, 8) for _ in range(2)]
        finished = []
        real = net.detect_events

        def detect(model, frames):
            if frames is windows[1]:
                raise RuntimeError("second window failed")
            time.sleep(0.2)
            maps = real(model, frames)
            finished.append(True)
            return maps

        monkeypatch.setattr(net, "detect_events", detect)
        with pytest.raises(RuntimeError, match="second window failed"):
            list(net.window_maps(tiny_unsup_model, windows))
        assert finished == [True]

    @pytest.mark.parametrize("kind", ["sup", "unsup"])
    def test_two_desk_windows_peak(self, kind, lanes):
        # traced peak of two 64x64 desk windows (sup S=6 / unsup S=4): about
        # 22 / 28 MiB on two lanes and 11 / 15 MiB on one; 43 / 44 and
        # 22 / 23 MiB when each window keeps its readers' runs through the
        # merge and every merged state through the head or output convs
        model = _load_fixture(kind)
        rng = np.random.default_rng(44)
        frames = random_frames(rng, 10, 64)
        windows = [frames, list(frames)]
        list(net.window_maps(model, windows))  # first-call allocations out of the peak
        tracemalloc.start()
        try:
            for _ in net.window_maps(model, windows):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 32 if lanes else 18
        assert peak < bound * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


PAPER = net.NetworkConfig(hidden_channels=32, event_classes=16)  # 64x64 frames


def test_paper_scale_backward_peak():
    # traced peak from the forward's end through the backward: 380 MiB when
    # the backward drops each trace as it goes, 479 MiB when all stay alive
    model = net.init_unsupervised(PAPER, seed=0)
    frames = random_frames(np.random.default_rng(33), 15, 64)
    tracemalloc.start()
    try:
        out = net.forward_unsupervised(model, frames)
        tracemalloc.reset_peak()
        net.backward_unsupervised(model, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 430 * 2 ** 20, f"traced peak {peak / 2 ** 20:.0f} MiB"


def test_paper_scale_detect_keeps_no_step_trace(monkeypatch):
    # traced peak 61-69 MiB with one-frame unrolls that keep no cell
    # states, 123 MiB with whole unrolls' states, 239 MiB with step traces
    model = net.init_unsupervised(PAPER, seed=0)
    frames = random_frames(np.random.default_rng(34), 10, 64)
    traces, held = [], []  # weak references to every step trace made
    real_step, real_head = cl.step, net.event_head

    def step(*args, **kwargs):
        state, trace = real_step(*args, **kwargs)
        traces.append(weakref.ref(trace))
        return state, trace

    def head(*args, **kwargs):
        # the event head runs on each merged state as the merge makes it
        held.append(sum(ref() is not None for ref in traces))
        return real_head(*args, **kwargs)

    monkeypatch.setattr(cl, "step", step)
    monkeypatch.setattr(net, "event_head", head)
    tracemalloc.start()
    try:
        net.detect_events(model, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held == [0] * 10
    assert peak < 100 * 2 ** 20, f"traced peak {peak / 2 ** 20:.0f} MiB"


# ---------------------------------------------------------------------------
# symmetric-model flip equivariance
# ---------------------------------------------------------------------------

def _symmetrize(model):
    for name, arr in model.named_params():
        if arr.ndim == 4:
            arr[:] = 0.5 * (arr + arr[:, :, :, ::-1])
        elif arr.ndim == 3:
            arr[:] = 0.5 * (arr + arr[:, :, ::-1])
    return model


def test_horizontal_flip_equivariance():
    cfg = tiny_config(frame_size=16, target_len=3)
    rng = np.random.default_rng(20)
    model = _symmetrize(perturb_model(net.init_unsupervised(cfg, seed=21), rng))
    frames = random_frames(rng, 3, 16)
    maps = net.detect_events(model, frames)
    maps_flipped = net.detect_events(model, [f[:, :, ::-1].copy() for f in frames])
    for y, yf in zip(maps, maps_flipped):
        np.testing.assert_allclose(yf, y[:, :, ::-1], atol=1e-9)
        np.testing.assert_array_equal(yf > 0, (y > 0)[:, :, ::-1])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def blob_offset(data: bytes) -> int:
    """Offset of the first blob's name-length field."""
    return data.index(b"\n\n") + 2


def rank_offset(data: bytes) -> int:
    """Offset of the first blob's rank field in ``sup.ckpt``, whose first
    blob is ``event_fwd.w_xi``."""
    return blob_offset(data) + 4 + len(b"event_fwd.w_xi")


def set_u32(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + value.to_bytes(4, "little") + data[offset + 4:]


class TestCheckpoint:
    def test_roundtrip_unsupervised(self, tiny_unsup_model, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(tiny_unsup_model, path)
        loaded = net.load_checkpoint(path)
        assert loaded.config == tiny_unsup_model.config
        for (n1, a), (n2, b) in zip(tiny_unsup_model.named_params(), loaded.named_params()):
            assert n1 == n2
            assert (a == b).all(), n1

    def test_roundtrip_supervised(self, tiny_sup_model, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(tiny_sup_model, path)
        loaded = net.load_checkpoint(path)
        assert loaded.kind == "supervised"
        for (n1, a), (n2, b) in zip(tiny_sup_model.named_params(), loaded.named_params()):
            assert (a == b).all(), n1

    def test_save_is_byte_deterministic(self, tiny_unsup_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        net.save_checkpoint(tiny_unsup_model, p1)
        net.save_checkpoint(tiny_unsup_model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(net.CheckpointError, match="not a checkpoint"):
            net.load_checkpoint(path)

    def test_committed_checkpoints_resave_identically(self, tmp_path):
        committed = sorted(FIXTURES.glob("*.ckpt"))
        assert committed
        for path in committed:
            out = tmp_path / path.name
            net.save_checkpoint(net.load_checkpoint(path), out)
            assert out.read_bytes() == path.read_bytes(), path.name

    def test_unterminated_header_line_rejected(self, tmp_path):
        path = tmp_path / "noline.ckpt"
        path.write_bytes(net.CHECKPOINT_MAGIC + b"k" * (1 << 20))
        with pytest.raises(net.CheckpointError, match="noline.ckpt"):
            net.load_checkpoint(path)

    def test_non_utf8_header_line_rejected(self, tmp_path):
        path = tmp_path / "badhead.ckpt"
        path.write_bytes(net.CHECKPOINT_MAGIC + b"\xff\xfe=1\n\n")
        with pytest.raises(net.CheckpointError, match="badhead.ckpt"):
            net.load_checkpoint(path)

    def test_non_utf8_blob_name_rejected(self, tiny_sup_model, tmp_path):
        path = tmp_path / "badname.ckpt"
        net.save_checkpoint(tiny_sup_model, path)
        data = bytearray(path.read_bytes())
        start = data.index(b"\n\n") + 2
        name_len = int.from_bytes(data[start:start + 4], "little")
        data[start + 4:start + 4 + name_len] = b"\xff" * name_len
        path.write_bytes(bytes(data))
        with pytest.raises(net.CheckpointError, match="badname.ckpt.*blob name"):
            net.load_checkpoint(path)

    def test_truncated_blob(self, tiny_sup_model, tmp_path):
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(tiny_sup_model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(net.CheckpointError, match="truncated blob"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d[:-4], "truncated blob: output_conv.b"),
        (lambda d: d.replace(b"kind=supervised", b"kind=supervisee"),
         "unknown checkpoint kind: 'supervisee'"),
        (lambda d: d.replace(b"kind=", b"garbage\nkind="), "malformed config line: 'garbage'"),
        (lambda d: d.replace(b"kind=", b"bogus=1\nkind="), "unknown config keys: ['bogus']"),
        (lambda d: d.replace(b"frame_size=64", b"frame_size=6x"), "bad config: "),
        (lambda d: d.replace(b"event_fwd.w_xi", b"event_fwd.w_xz"),
         "unexpected blob 'event_fwd.w_xz' for kind supervised"),
        (lambda d: set_u32(d, rank_offset(d) + 4, 7),
         "blob 'event_fwd.w_xi': shape (7, 1, 5, 5) does not match expected (6, 1, 5, 5)"),
        (lambda d: d[:d.rindex(b"output_conv.b") - 4], "missing blobs: ['output_conv.b']"),
        (lambda d: set_u32(d, blob_offset(d), 0xFFFFFFF0),
         "blob name length 4294967280 exceeds the longest expected name"),
        (lambda d: set_u32(d, rank_offset(d), 0x3FFFFFFF),
         "blob 'event_fwd.w_xi': rank 1073741823 does not match expected 4"),
        # the last blob, output_conv.b of shape (1,), again with 123.0
        (lambda d: d + d[d.rindex(b"output_conv.b") - 4:-8] + struct.pack("<d", 123.0),
         "duplicate blob 'output_conv.b'"),
        (lambda d: d.replace(b"grid_factor=8", b"grid_factor=0"),
         "bad config: grid_factor must be >= 1, got 0"),
        (lambda d: d.replace(b"hidden_channels=6", b"hidden_channels=-6"),
         "bad config: hidden_channels must be >= 1, got -6"),
        (lambda d: d.replace(b"frame_size=64", b"frame_size=0"),
         "bad config: frame_size must be >= 1, got 0"),
        (lambda d: d.replace(b"conv_kernel=5", b"conv_kernel=-1"),
         "bad config: conv_kernel must be >= 1, got -1"),
    ], ids=["truncated", "kind", "malformed", "unknown-key", "bad-config", "unexpected",
            "shape", "missing", "name-length", "rank", "duplicate", "grid-factor-0",
            "hidden-negative", "frame-size-0", "kernel-negative"])
    def test_edited_fixture_error_names_file(self, tmp_path, edit, message):
        path = tmp_path / "edited.ckpt"
        path.write_bytes(edit((FIXTURES / "sup.ckpt").read_bytes()))
        with pytest.raises(net.CheckpointError) as info:
            net.load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_class_count_mismatch_names_blob(self, tmp_path):
        model = net.init_unsupervised(tiny_config(event_classes=4), seed=0)
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(model, path)
        with pytest.raises(net.CheckpointError, match="event_proj.w"):
            net.load_checkpoint(path, expect=tiny_config(event_classes=2))
