"""Optimizer and training-loop tests: hand-evaluated update values,
determinism, accumulator invariants, loss decrease on a tiny run."""

import numpy as np
import pytest

from mitoscope import network as net
from mitoscope import training as tr
from mitoscope.data_pipeline import Subsequence
from conftest import perturb_model, tiny_config


def single_param(value):
    return {"w": np.array([float(value)])}


class TestRmspropStep:
    def test_zero_gradient_decays_accumulator_only(self):
        params = single_param(0.7)
        opt = tr.OptState.for_params(params.items())
        opt.acc["w"][:] = 1.0
        tr.rmsprop_step(params, single_param(0.0), opt, tr.TrainConfig(seed=0))
        assert params["w"][0] == 0.7
        assert opt.acc["w"][0] == pytest.approx(0.9)

    def test_first_step_hand_value(self):
        # a = 0.1 * 1^2 = 0.1; delta = -1e-3 / (sqrt(0.1) + 1e-8) = -3.1623e-3
        params = single_param(0.0)
        opt = tr.OptState.for_params(params.items())
        cfg = tr.TrainConfig(learning_rate=1e-3, decay_rate=0.9, epsilon=1e-8, seed=0)
        tr.rmsprop_step(params, single_param(1.0), opt, cfg)
        assert opt.acc["w"][0] == pytest.approx(0.1, abs=1e-15)
        assert params["w"][0] == pytest.approx(-3.1623e-3, abs=1e-6)

    def test_constant_gradient_step_approaches_lr(self):
        # as a -> g^2 the step magnitude tends to lr * sign(g)
        params = single_param(0.0)
        opt = tr.OptState.for_params(params.items())
        cfg = tr.TrainConfig(learning_rate=1e-3, seed=0)
        prev = 0.0
        for _ in range(400):
            prev = params["w"][0]
            tr.rmsprop_step(params, single_param(2.0), opt, cfg)
        assert prev - params["w"][0] == pytest.approx(1e-3, rel=1e-3)

    def test_accumulator_nonnegative(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=8)}
        opt = tr.OptState.for_params(params.items())
        cfg = tr.TrainConfig(seed=0)
        for _ in range(50):
            tr.rmsprop_step(params, {"w": rng.normal(scale=3, size=8)}, opt, cfg)
            assert (opt.acc["w"] >= 0).all()

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        opt = tr.OptState.for_params(params.items())
        with pytest.raises(ValueError, match="shape"):
            tr.rmsprop_step(params, {"w": np.zeros(4)}, opt, tr.TrainConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="decay_rate"):
            tr.TrainConfig(decay_rate=1.5)
        with pytest.raises(ValueError, match="learning_rate"):
            tr.TrainConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("name, value", [
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", float("nan")),
        ("epsilon", 0.0), ("epsilon", -1e-8), ("epochs", 0), ("epochs", -3),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", float("-inf"))])
    def test_corrupting_setting_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            tr.TrainConfig(**{name: value})


class TestClip:
    def test_norm_and_scaling(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert tr.grad_norm(grads) == pytest.approx(5.0)
        tr.clip_gradients(grads, 2.5)
        assert tr.grad_norm(grads) == pytest.approx(2.5)
        tr.clip_gradients(grads, 10.0)  # below the cap: untouched
        assert tr.grad_norm(grads) == pytest.approx(2.5)

    def test_nonpositive_bound_rejected(self):
        # a negative bound would return [-0.6, -0.8] and climb the loss
        grads = {"a": np.array([3.0, 4.0])}
        for bound in (-1.0, 0.0):
            with pytest.raises(ValueError, match="max_norm"):
                tr.clip_gradients(grads, bound)
        np.testing.assert_array_equal(grads["a"], [3.0, 4.0])


def tiny_dataset(seed, count=4, length=5):
    rng = np.random.default_rng(seed)
    return [Subsequence(rng.uniform(0.1, 0.9, (length, 1, 8, 8)), 0, 0, i)
            for i in range(count)]


class TestTrain:
    def test_zero_learning_rate_no_change(self):
        model = perturb_model(net.init_unsupervised(tiny_config(), seed=1),
                              np.random.default_rng(1))
        before = {n: a.copy() for n, a in model.named_params()}
        cfg = tr.TrainConfig(learning_rate=0.0, epochs=3, seed=0)
        tr.train(model, tiny_dataset(2), cfg, mode="unsupervised")
        for n, a in model.named_params():
            assert (a == before[n]).all(), n

    def test_loss_decreases_on_tiny_run(self):
        model = net.init_unsupervised(tiny_config(), seed=3)
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=12, seed=5)
        _, losses = tr.train(model, tiny_dataset(4), cfg, mode="unsupervised")
        assert len(losses) == 12
        assert losses[-1] < losses[0]

    def test_deterministic_loss_curves(self):
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=4, seed=9)
        results = []
        for _ in range(2):
            model = net.init_unsupervised(tiny_config(), seed=3)
            _, losses = tr.train(model, tiny_dataset(4), cfg, mode="unsupervised")
            results.append(losses)
        assert results[0] == results[1]

    def test_supervised_mode_uses_trailing_frames(self):
        model = net.init_supervised(tiny_config(), seed=4)
        subs = tiny_dataset(6, count=3, length=5)  # encoder 2 + target 3
        for sub in subs:
            sub.targets = net.build_supervised_target([(1, 4, 4)], 8, 3)
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=2, seed=0)
        _, losses = tr.train(model, subs, cfg, mode="supervised")
        assert len(losses) == 2

    def test_supervised_requires_targets(self):
        model = net.init_supervised(tiny_config(), seed=4)
        cfg = tr.TrainConfig(epochs=1, seed=0)
        with pytest.raises(ValueError, match="targets"):
            tr.train(model, tiny_dataset(7, count=2), cfg, mode="supervised")

    def test_empty_dataset_rejected(self):
        model = net.init_unsupervised(tiny_config(), seed=3)
        with pytest.raises(ValueError, match="empty"):
            tr.train(model, [], tr.TrainConfig(seed=0))

    def test_batch_accumulation_runs(self):
        model = net.init_unsupervised(tiny_config(), seed=3)
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=2, seed=0, batch_size=2)
        _, losses = tr.train(model, tiny_dataset(4), cfg)
        assert len(losses) == 2


class TestNonFiniteGuard:
    def test_nan_input_frame_stops_before_update(self):
        model = net.init_unsupervised(tiny_config(), seed=3)
        data = tiny_dataset(4)
        data[2].frames[1, 0, 3, 4] = np.nan
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=2, seed=5)
        with pytest.raises(ValueError,
                           match=r"non-finite gradient of \S+ \(\d+ parameters non-finite\) "
                                 r"at epoch 0, sample 2"):
            tr.train(model, data, cfg, mode="unsupervised")
        for name, arr in model.named_params():
            assert np.isfinite(arr).all(), name

    def test_nan_weight_stops_before_update(self):
        model = net.init_unsupervised(tiny_config(), seed=3)
        dict(model.named_params())["recon_conv.w"][0, 0, 2, 2] = np.nan
        before = {n: a.copy() for n, a in model.named_params()}
        cfg = tr.TrainConfig(learning_rate=1e-3, epochs=1, seed=5)
        first = np.random.default_rng(cfg.seed).permutation(4)[0]
        with pytest.raises(ValueError) as info:
            tr.train(model, tiny_dataset(4), cfg, mode="unsupervised")
        msg = str(info.value)
        assert msg.endswith(f"at epoch 0, sample {first}")
        assert msg.split("gradient of ")[1].split()[0] in before
        for name, arr in model.named_params():
            np.testing.assert_array_equal(arr, before[name], err_msg=name)
