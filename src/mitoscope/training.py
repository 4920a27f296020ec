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
from dataclasses import dataclass

import numpy as np

from . import network as net
from .data_pipeline import check_fields

__all__ = ["TrainConfig", "rmsprop_step", "train", "grad_norm"]

DECAY_RATE, EPSILON = 0.9, 1e-8  # rho and eps of the update above


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        # zero is allowed so a null update can be expressed; a NaN or infinite
        # rate would turn every weight into NaN on the first step
        check_fields(self, {"learning_rate": (lambda v: math.isfinite(v) and v >= 0.0,
                                              "finite and >= 0"),
                            "epochs": (lambda v: v >= 1, ">= 1")})


def rmsprop_step(params: dict, grads: dict, acc: dict, cfg: TrainConfig) -> None:
    """One in-place update over name-aligned parameter, gradient and
    running mean-square accumulator dicts."""
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(
                f"rmsprop_step: gradient shape {g.shape} != parameter shape "
                f"{theta.shape} for {name}")
        a = acc[name]
        a *= DECAY_RATE
        a += (1.0 - DECAY_RATE) * g * g
        theta -= cfg.learning_rate * g / (np.sqrt(a) + EPSILON)


def grad_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def _sample_loss_and_grads(model, sub):
    if model.kind == "unsupervised":
        out = net.forward_unsupervised(model, list(sub.frames))
        return out.loss, net.backward_unsupervised(model, out)
    if sub.targets is None:
        raise ValueError("supervised training needs targets on every subsequence")
    frames = list(sub.frames)
    target_len = model.config.target_len
    if len(frames) > target_len:
        frames = frames[-target_len:]  # tail of a full-length subsequence
    out = net.forward_supervised(model, frames, sub.targets)
    return out.loss, net.backward_supervised(model, out)


def train(model, dataset, cfg: TrainConfig, mode: str = "unsupervised",
          epoch_callback=None):
    """Optimize ``model`` in place over the dataset.

    Per epoch: seeded shuffle, then forward, backward and one RMSProp update
    per sample. ``mode`` must be the model's kind. Returns the model and the
    list of mean per-epoch losses. A non-finite loss or gradient raises
    ``ValueError`` naming the parameter, the epoch and the dataset index of
    the sample, before any weight is updated with it.
    """
    if mode != model.kind:
        raise ValueError(f"train: mode {mode!r} does not match the {model.kind} model")
    if len(dataset) == 0:
        raise ValueError("train: dataset is empty")
    params = dict(model.named_params())
    acc = {name: np.zeros_like(arr) for name, arr in params.items()}
    rng = np.random.default_rng(cfg.seed)
    losses = []
    for epoch in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            loss, grads = _sample_loss_and_grads(model, dataset[idx])
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
            rmsprop_step(params, gdict, acc, cfg)
        losses.append(total / len(dataset))
        if epoch_callback is not None:
            epoch_callback(epoch, losses[-1], model)
    return model, losses
