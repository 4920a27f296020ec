"""RMSProp training loop over windowed subsequences.

The optimizer keeps one running mean-square accumulator per parameter:

    a <- rho * a + (1 - rho) * g^2
    theta <- theta - lr * g / (sqrt(a) + eps)

Training is a deterministic function of (initial model, dataset order,
seed, config); per-epoch shuffling uses a generator seeded from the run
seed. The event branch's two readers may run on two threads, each whole on
one, and outside them each Winograd convolution may run its halves on the
same two threads (``lanes``); no part sums in another order on either
thread, so results are bit-identical whatever the thread timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import network as net

__all__ = ["TrainConfig", "OptState", "rmsprop_step", "train", "clip_gradients",
           "grad_norm"]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    decay_rate: float = 0.9
    epsilon: float = 1e-8
    epochs: int = 100
    seed: int = 0
    clip_norm: float | None = None
    batch_size: int = 1

    def __post_init__(self):
        if not (0.0 < self.decay_rate < 1.0):
            raise ValueError(f"decay_rate must be in (0,1), got {self.decay_rate}")
        # zero is allowed so a null update can be expressed; a NaN or infinite
        # rate would turn every weight into NaN on the first step
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        # a negative bound would flip every clipped gradient
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be > 0 when set, got {self.clip_norm}")


@dataclass
class OptState:
    acc: dict = field(default_factory=dict)  # name -> running mean square

    @classmethod
    def for_params(cls, named_params) -> "OptState":
        return cls({name: np.zeros_like(arr) for name, arr in named_params})


def rmsprop_step(params: dict, grads: dict, opt: OptState, cfg: TrainConfig) -> None:
    """One in-place update over name-aligned parameter and gradient dicts."""
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(
                f"rmsprop_step: gradient shape {g.shape} != parameter shape "
                f"{theta.shape} for {name}")
        a = opt.acc[name]
        a *= cfg.decay_rate
        a += (1.0 - cfg.decay_rate) * g * g
        theta -= cfg.learning_rate * g / (np.sqrt(a) + cfg.epsilon)


def grad_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def clip_gradients(grads: dict, max_norm: float) -> None:
    """Scale all gradients so the global L2 norm is at most ``max_norm``."""
    if not max_norm > 0.0:
        raise ValueError(f"clip_gradients: max_norm must be > 0, got {max_norm}")
    norm = grad_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale


def _sample_loss_and_grads(model, sub, mode):
    if mode == "unsupervised":
        out = net.forward_unsupervised(model, list(sub.frames))
        return out.loss, net.backward_unsupervised(model, out)
    if mode == "supervised":
        if sub.targets is None:
            raise ValueError("supervised training needs targets on every subsequence")
        frames = list(sub.frames)
        target_len = model.config.target_len
        if len(frames) > target_len:
            frames = frames[-target_len:]  # tail of a full-length subsequence
        out = net.forward_supervised(model, frames, sub.targets)
        return out.loss, net.backward_supervised(model, out)
    raise ValueError(f"unknown training mode: {mode!r}")


def train(model, dataset, cfg: TrainConfig, mode: str = "unsupervised",
          epoch_callback=None):
    """Optimize ``model`` in place over the dataset.

    Per epoch: seeded shuffle, forward + backward per sample, one RMSProp
    update per ``batch_size`` samples (gradients averaged). Returns the
    model and the list of mean per-epoch losses. A non-finite loss or
    gradient raises ``ValueError`` naming the parameter, the epoch and the
    dataset index of the sample, before any weight is updated with it.
    """
    if len(dataset) == 0:
        raise ValueError("train: dataset is empty")
    params = dict(model.named_params())
    opt = OptState.for_params(params.items())
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        total = 0.0
        pending = None
        pending_count = 0
        for pos, idx in enumerate(order):
            loss, grads = _sample_loss_and_grads(model, dataset[idx], mode)
            gdict = dict(grads.named_params())
            # one reduction per sample; the per-parameter scan runs only when
            # it is not finite (NaN/inf, or a squared norm that overflowed)
            if not math.isfinite(loss + grad_norm(gdict)):
                bad = [name for name, g in gdict.items() if not np.isfinite(g).all()]
                if bad or not math.isfinite(loss):
                    what = (f"gradient of {bad[0]} ({len(bad)} parameters non-finite)"
                            if bad else f"loss {loss!r}")
                    raise ValueError(
                        f"train: non-finite {what} at epoch {epoch}, sample {idx}")
            total += loss
            if pending is None:
                pending = gdict
                pending_count = 1
            else:
                for name in pending:
                    pending[name] += gdict[name]
                pending_count += 1
            if pending_count == cfg.batch_size or pos == len(order) - 1:
                if pending_count > 1:
                    for g in pending.values():
                        g /= pending_count
                if cfg.clip_norm is not None:
                    clip_gradients(pending, cfg.clip_norm)
                rmsprop_step(params, pending, opt, cfg)
                pending = None
                pending_count = 0
        losses.append(total / len(dataset))
        if epoch_callback is not None:
            epoch_callback(epoch, losses[-1], model)
    return model, losses
