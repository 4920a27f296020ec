"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The two end-to-end runs use a seeded synthetic 64x64 video (data seed 1;
fallback seeds 4, 5, 7 behave equivalently) with small hidden sizes so the
whole suite runs on a single CPU core. Run with ``pytest -v -s`` to see
the per-criterion lines stream.
"""

import math
import time

import numpy as np
import pytest

from mitoscope import conv_lstm as cl
from mitoscope import data_pipeline as dp
from mitoscope import evaluation as ev
from mitoscope import network as net
from mitoscope import postprocess as pp
from mitoscope import tensor_core as tc
from mitoscope.training import TrainConfig, train

from conftest import perturb_model, random_frames, tiny_config
from test_conv_lstm import SCALAR_KEYS, random_scalar_weights, scalar_lstm_step, scalar_params
from test_evaluation import greedy_reference, random_instance


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# the seeded synthetic dataset shared by criteria 6 and 7
SYNTH = dp.SyntheticConfig(seed=1, division_prob=0.1, blob_count=10, blob_radius=3.0)
FALLBACK_SEEDS = (4, 5, 7)


@pytest.fixture(scope="module")
def synth_video():
    video, annotations = dp.synth_generate(SYNTH)
    assert len(annotations) >= 15
    return video, annotations


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------

def _op_level_checks():
    """Every individual tensor op against central finite differences."""
    rng = np.random.default_rng(101)
    worst = 0.0

    def weighted(w, fwd):
        def loss(*inputs):
            return float((fwd(*inputs) * w).sum())
        return loss

    # conv
    x = rng.normal(size=(2, 4, 5))
    k = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    w = rng.normal(size=(3, 4, 5))
    _, tr = tc.conv2d_same(x, k, b)
    dx, dk, db = tc.conv2d_same_backward(tr, w)
    worst = max(worst, tc.finite_diff_check(
        weighted(w, lambda *a: tc.conv2d_same(*a)[0]), [x, k, b], [dx, dk, db]))

    # maxpool
    x = rng.normal(size=(2, 4, 4))
    w = rng.normal(size=(2, 2, 2))
    _, tr = tc.maxpool2d(x, 2)
    worst = max(worst, tc.finite_diff_check(
        weighted(w, lambda a: tc.maxpool2d(a, 2)[0]), [x],
        [tc.maxpool2d_backward(tr, w)]))

    # channel softmax
    x = rng.normal(size=(3, 2, 2))
    w = rng.normal(size=(3, 2, 2))
    _, tr = tc.channel_softmax(x)
    worst = max(worst, tc.finite_diff_check(
        weighted(w, lambda a: tc.channel_softmax(a)[0]), [x],
        [tc.channel_softmax_backward(tr, w)]))

    # winner-take-all away from ties
    x = rng.normal(size=(3, 2, 2))
    w = rng.normal(size=(3, 2, 2))
    out, tr = tc.channel_wta(x)
    mask = tc.wta_safe_mask(x)
    assert mask.all()
    worst = max(worst, tc.finite_diff_check(
        weighted(w, lambda a: tc.channel_wta(a)[0]), [x],
        [tc.channel_wta_backward(tr, w)], masks=[mask]))

    # upsample
    x = rng.normal(size=(2, 2, 2))
    w = rng.normal(size=(2, 4, 4))
    worst = max(worst, tc.finite_diff_check(
        weighted(w, lambda a: tc.upsample_nn(a, 2)), [x],
        [tc.upsample_nn_backward(w, 2)]))

    # pointwise
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3))
    worst = max(worst, tc.finite_diff_check(
        weighted(w, tc.sigmoid), [x], [tc.sigmoid_backward(tc.sigmoid(x), w)]))
    worst = max(worst, tc.finite_diff_check(
        weighted(w, tc.tanh_act), [x], [tc.tanh_backward(tc.tanh_act(x), w)]))
    x3 = rng.normal(size=(1, 2, 2))
    y3 = rng.normal(size=(2, 2, 2))
    w3 = rng.normal(size=(3, 2, 2))
    worst = max(worst, tc.finite_diff_check(
        weighted(w3, tc.concat_channels), [x3, y3],
        list(tc.concat_channels_backward(w3, 1))))

    # bce
    pred = rng.uniform(0.05, 0.95, (4, 4))
    target = rng.uniform(0, 1, (4, 4))
    _, d = tc.bce_loss(pred, target)
    worst = max(worst, tc.finite_diff_check(
        lambda p: tc.bce_loss(p, target)[0], [pred], [d]))
    return worst


def _model_check(model, forward, step):
    grads = dict(forward(backward=True).named_params())
    names = [n for n, _ in model.named_params()]
    arrays = [a for _, a in model.named_params()]
    return tc.finite_diff_check(lambda *_: forward(backward=False), arrays,
                                [grads[n] for n in names], step=step)


def test_criterion_1_gradient_suite():
    start = time.time()
    op_err = _op_level_checks()

    # recurrent cell over three steps
    rng = np.random.default_rng(9)
    p = cl.init_params(2, 2, 4, 4, seed=rng)
    p.peep[:] = rng.uniform(-0.3, 0.3, p.peep.shape)
    xs = [rng.uniform(-1, 1, (2, 4, 4)) for _ in range(3)]
    init = cl.zero_state(2, 4, 4)
    weights = [rng.normal(size=(2, 4, 4)) for _ in range(3)]
    run = cl.unroll(p, xs, init)
    grads, _, _ = cl.bptt(p, run, weights)
    names = [n for n, _ in p.named_arrays()]
    arrays = [a for _, a in p.named_arrays()]

    def lstm_loss(*_):
        r = cl.unroll(p, xs, init)
        return sum(float((r.states[t].h * weights[t]).sum()) for t in range(3))

    lstm_err = tc.finite_diff_check(lstm_loss, arrays,
                                    [dict(grads.named_arrays())[n] for n in names])

    # end-to-end unsupervised loss at the tiny configuration
    model = perturb_model(net.init_unsupervised(tiny_config(), seed=11),
                          np.random.default_rng(2024))
    frames = random_frames(np.random.default_rng(15), 5, 8)
    out = net.forward_unsupervised(model, frames)
    for ht in out.trace.head_traces:  # winner races must dwarf the probe step
        top2 = np.sort(ht.softmax.out, axis=0)[-2:]
        assert (top2[1] - top2[0]).min() > 0.05

    def unsup_forward(backward):
        o = net.forward_unsupervised(model, frames)
        return net.backward_unsupervised(model, o) if backward else o.loss

    unsup_err = _model_check(model, unsup_forward, step=1e-3)

    # end-to-end supervised loss
    model_s = perturb_model(net.init_supervised(tiny_config(), seed=12),
                            np.random.default_rng(2025))
    frames_s = random_frames(np.random.default_rng(19), 3, 8)
    targets = dp.build_supervised_target([(1, 4, 4)], 8, 3)

    def sup_forward(backward):
        o = net.forward_supervised(model_s, frames_s, targets)
        return net.backward_supervised(model_s, o) if backward else o.loss

    sup_err = _model_check(model_s, sup_forward, step=1e-3)

    elapsed = time.time() - start
    ok = (op_err <= 1e-6 and lstm_err <= 1e-5 and unsup_err <= 1e-4
          and sup_err <= 1e-4 and elapsed <= 120)
    report(1, ok, f"op-level {op_err:.2e} <= 1e-6, bptt {lstm_err:.2e} <= 1e-5, "
                  f"end-to-end unsup {unsup_err:.2e} / sup {sup_err:.2e} <= 1e-4, "
                  f"{elapsed:.0f}s <= 120s")


# ---------------------------------------------------------------------------
# criterion 2: scalar oracle
# ---------------------------------------------------------------------------

def test_criterion_2_scalar_oracle():
    rng = np.random.default_rng(42)
    w = random_scalar_weights(rng)
    p = scalar_params(w)
    h = c = 0.0
    state = cl.zero_state(1, 1, 1)
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(-1, 1))
        h, c = scalar_lstm_step(w, x, h, c)
        state, _ = cl.step(p, np.array(x).reshape(1, 1, 1), state)
        worst = max(worst, abs(state.h.item() - h), abs(state.c.item() - c))
    report(2, worst <= 1e-12,
           f"100 steps against the scalar peephole oracle, worst |delta| {worst:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# criterion 3: metric arithmetic
# ---------------------------------------------------------------------------

def test_criterion_3_metric_arithmetic():
    f1_a = ev.f1_from_pr(0.767, 0.578)
    f1_b = ev.f1_from_pr(0.856, 0.644)
    ok = abs(f1_a - 0.659) <= 0.0005 and abs(f1_b - 0.735) <= 0.0005
    report(3, ok, f"(0.767,0.578)->F1 {f1_a:.4f} (want 0.659+-0.0005), "
                  f"(0.856,0.644)->F1 {f1_b:.4f} (want 0.735+-0.0005)")


# ---------------------------------------------------------------------------
# criterion 4: event-head structural invariants
# ---------------------------------------------------------------------------

def test_criterion_4_event_head_invariants():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(1000):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        m = int(rng.choice([8, 16]))
        hidden = rng.normal(scale=rng.uniform(0.1, 3.0), size=(s, m, m))
        proj_w = rng.normal(size=(n, s, 1, 1))
        proj_b = rng.normal(size=n)
        z, _ = tc.conv2d_same(hidden, proj_w, proj_b)
        pooled, _ = tc.maxpool2d(z, 8)
        soft, _ = tc.channel_softmax(pooled)
        assert np.abs(soft.sum(axis=0) - 1.0).max() <= 1e-12
        y, _ = net.event_head(hidden, proj_w, proj_b, grid_factor=8)
        assert net.event_map_ok(y, 8)
        checked += 1
    report(4, checked == 1000,
           f"{checked}/1000 random inputs: one class per 8x8 block, block-constant, "
           f"softmax sums 1 +- 1e-12")


# ---------------------------------------------------------------------------
# criterion 5: pipeline arithmetic
# ---------------------------------------------------------------------------

def test_criterion_5_pipeline_arithmetic():
    wins = dp.spatial_windows(1392, 1040, 256, 128)
    xs = sorted({x for x, _ in wins})
    ys = sorted({y for _, y in wins})
    starts = dp.temporal_windows(210, 15, 1)

    rng = np.random.default_rng(5)
    sub = dp.Subsequence(rng.uniform(0, 1, (3, 1, 8, 8)), 0, 0, 0)
    variants = dp.augment(sub)
    group_ok = True
    f = sub.frames
    for tag in ("fliph", "flipv", "rot180"):
        group_ok &= (dp.transform_frames(dp.transform_frames(f, tag), tag) == f).all()
    r = f
    for _ in range(4):
        r = dp.transform_frames(r, "rot90")
    group_ok &= (r == f).all()

    ok = (len(wins) == 80 and len(xs) == 10 and len(ys) == 8
          and len(starts) == 196 and len(variants) == 6 and bool(group_ok))
    report(5, ok, f"1392x1040 -> {len(wins)} windows ({len(xs)}x{len(ys)}), "
                  f"210 frames -> {len(starts)} starts, augmentation {len(variants)} "
                  f"variants with group identities")


# ---------------------------------------------------------------------------
# criterion 6: supervised end to end
# ---------------------------------------------------------------------------

def test_criterion_6_supervised_end_to_end(synth_video):
    start = time.time()
    video, annotations = synth_video
    test_annotations = [a for a in annotations if a[0] >= 40]
    # fixture scale: model coordinates == original coordinates (scale x1)
    cfg = net.NetworkConfig(frame_size=64, hidden_channels=6, event_classes=4,
                            encoder_len=5, target_len=10)
    subs = dp.build_subsequences(video, frame_range=(0, 40), window_size=64,
                                 window_step=64, downsample=1, length=10)
    dp.attach_targets(subs, annotations, target_offset=0)
    model = net.init_supervised(cfg, seed=0)
    model, _ = train(model, subs, TrainConfig(learning_rate=1e-3, epochs=12, seed=0),
                     mode="supervised")

    test_subs = dp.build_subsequences(video, frame_range=(40, 80), window_size=64,
                                      window_step=64, downsample=1, length=10)
    detections = []
    for sub in test_subs:
        maps = net.supervised_maps(model, list(sub.frames))
        detections.extend(pp.threshold_detections(maps, sub, 0.7))
    merged = pp.merge_global(detections, 10.0, 2)
    scores = ev.prf1(ev.match(merged, test_annotations, spatial_th=10, temporal_th=3))
    elapsed = time.time() - start
    ok = scores.f1 >= 0.7 and elapsed <= 600
    report(6, ok, f"supervised on {len(annotations)} events "
                  f"({len(test_annotations)} test): F1 {scores.f1:.3f} >= 0.7 "
                  f"(P {scores.precision:.3f} R {scores.recall:.3f}) at th=3/10px, "
                  f"{elapsed:.0f}s <= 600s")


# ---------------------------------------------------------------------------
# criterion 7: unsupervised end to end
# ---------------------------------------------------------------------------

def test_criterion_7_unsupervised_end_to_end(synth_video):
    start = time.time()
    video, annotations = synth_video
    cfg = net.NetworkConfig(frame_size=64, hidden_channels=4, event_classes=4,
                            encoder_len=5, target_len=10)
    subs = dp.build_subsequences(video, frame_range=(0, 40), window_size=64,
                                 window_step=64, downsample=1, length=15,
                                 temporal_step=2)
    model = net.init_unsupervised(cfg, seed=0)

    probe = list(subs[0].frames)

    def maps_well_formed(epoch, loss, m):
        if epoch % 10 == 4:
            for y in net.detect_events(m, probe[cfg.encoder_len:]):
                assert net.event_map_ok(y, cfg.grid_factor)

    model, losses = train(model, subs,
                          TrainConfig(learning_rate=5e-4, epochs=30, seed=0),
                          mode="unsupervised", epoch_callback=maps_well_formed)
    ratio = losses[29] / losses[0]

    det_subs = dp.build_subsequences(video, window_size=64, window_step=64,
                                     downsample=1, length=15)
    # the CLI's two runs: rank every class, then detect the top one
    # each window's own score maps, not the CLI's slices of a stack's maps
    grids, score_maps, raw = [], [], []
    for sub in det_subs:
        maps = net.detect_events(model, list(sub.frames[cfg.encoder_len:]))
        for y in maps:
            assert net.event_map_ok(y, cfg.grid_factor)
        grids.append(pp.class_grid(maps, cfg.grid_factor))
        score_maps.append(pp.disc_mean_maps(sub.frames, 2, 5.0))
        raw += pp.window_detections(grids[-1], sub, range(cfg.event_classes), score_maps[-1],
                                    grid_factor=cfg.grid_factor,
                                    frame_offset=cfg.encoder_len)[0]

    top_class = pp.rank_classes(raw)[0][0]
    detections = []
    for grid, sub, sub_maps in zip(grids, det_subs, score_maps):
        detections += pp.window_detections(grid, sub, [top_class], sub_maps,
                                           grid_factor=cfg.grid_factor,
                                           frame_offset=cfg.encoder_len)[0]
    merged = pp.merge_global(detections, 10.0, 2)
    scores = ev.prf1(ev.match(merged, annotations, spatial_th=10, temporal_th=3))
    elapsed = time.time() - start
    # soft criterion: data seed 1; fallback seeds 4, 5, 7 give recall
    # 0.529 / 0.625 / 0.609 under this exact procedure
    ok = ratio <= 0.5 and scores.recall >= 0.5 and elapsed <= 900
    report(7, ok, f"loss epoch30/epoch1 {ratio:.3f} <= 0.5, maps well-formed, "
                  f"top class {top_class} recall {scores.recall:.3f} >= 0.5 at th=3 "
                  f"({scores.tp}/{len(annotations)} events), {elapsed:.0f}s <= 900s")


# ---------------------------------------------------------------------------
# criterion 8: matching oracle, checkpoint round-trip, seeded determinism
# ---------------------------------------------------------------------------

def test_criterion_8_matching_checkpoint_determinism(tmp_path):
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(200):
        dets, anns = random_instance(rng)
        got = ev.match(dets, anns, spatial_th=10, temporal_th=3)
        agree += got.pairs == greedy_reference(dets, anns, 10, 3)
    matcher_ok = agree == 200

    model = perturb_model(net.init_supervised(tiny_config(), seed=12),
                          np.random.default_rng(2025))
    path = tmp_path / "model.ckpt"
    net.save_checkpoint(model, path)
    loaded = net.load_checkpoint(path)
    ckpt_ok = all((a == b).all() for (_, a), (_, b)
                  in zip(model.named_params(), loaded.named_params()))

    def seeded_run():
        m = net.init_unsupervised(tiny_config(), seed=3)
        data = [dp.Subsequence(np.random.default_rng(7).uniform(0.1, 0.9, (5, 1, 8, 8)),
                               0, 0, i) for i in range(3)]
        _, losses = train(m, data, TrainConfig(learning_rate=1e-3, epochs=4, seed=9))
        return losses

    curves_ok = seeded_run() == seeded_run()
    ok = matcher_ok and ckpt_ok and curves_ok
    report(8, ok, f"matcher == exhaustive greedy reference on {agree}/200 instances, "
                  f"checkpoint round-trip bit-exact: {ckpt_ok}, "
                  f"seeded loss curves bit-identical: {curves_ok}")
