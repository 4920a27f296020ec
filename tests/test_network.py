"""Branched network tests: composition oracles, event-head structure,
end-to-end gradients at a tiny configuration, checkpoint round-trips."""

import math
from pathlib import Path

import numpy as np
import pytest

from mitoscope import conv_lstm as cl
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
        maps, _, _ = net.supervised_maps(tiny_sup_model, frames)
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

    def test_class_count_mismatch_names_blob(self, tmp_path):
        model = net.init_unsupervised(tiny_config(event_classes=4), seed=0)
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(model, path)
        with pytest.raises(net.CheckpointError, match="event_proj.w"):
            net.load_checkpoint(path, expect=tiny_config(event_classes=2))
