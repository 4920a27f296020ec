"""Dense float64 tensor kernels with hand-derived gradients.

Tensors are plain numpy float64 arrays in row-major order. Every kernel
is a pure function: identical inputs give bit-identical outputs and no
internal state is kept. Ops whose backward needs saved forward state
return an opaque trace object alongside the output; hand the trace plus
the upstream gradient to the matching ``*_backward`` function.

``conv2d_same`` and its backward share one wide-row layout. The input is
zero-padded once to [C, H+2ph+1, W+2pw] and its rows are flattened, with
row length Wp = W+2pw. Kernel offset (i,j) then reads the contiguous run
xf[:, i*Wp+j : i*Wp+j+H*Wp], so im2col is one block copy per offset and
col2im one contiguous add per offset; the extra zero row keeps the last
offset's run in bounds. The GEMMs run on H*Wp columns: the forward crops
the Wp-W extra columns of each output row, and the backward zero-fills
them in its upstream. ``Conv2dTrace`` keeps only the input and the kernel,
and the backward pads and recomputes the columns: keeping the columns
would hold C_in*kH*kW*H*Wp floats per call until the backward pass, about
330 MB per desk-scale unsupervised sample and 2.3 GB per paper-scale one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BCE_EPS",
    "conv2d_same",
    "conv2d_same_backward",
    "maxpool2d",
    "maxpool2d_backward",
    "channel_softmax",
    "channel_softmax_backward",
    "channel_wta",
    "channel_wta_backward",
    "wta_safe_mask",
    "upsample_nn",
    "upsample_nn_backward",
    "sigmoid",
    "sigmoid_backward",
    "tanh_act",
    "tanh_backward",
    "concat_channels",
    "concat_channels_backward",
    "bce_loss",
    "finite_diff_check",
]

BCE_EPS = 1e-7


def _as64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def _check_same_shape(op: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: operand shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@dataclass
class Conv2dTrace:
    x: np.ndarray
    kernel: np.ndarray


def _pad_wide(x: np.ndarray, ph: int, pw: int) -> tuple[np.ndarray, int]:
    """[C,H,W] zero-padded to [C,H+2ph+1,Wp] with rows flattened, and Wp."""
    c, h, w = x.shape
    wp = w + 2 * pw
    xp = np.zeros((c, h + 2 * ph + 1, wp))
    xp[:, ph:ph + h, pw:pw + w] = x
    return xp.reshape(c, -1), wp


def _im2col_wide(xf: np.ndarray, kh: int, kw: int, h: int, wp: int) -> np.ndarray:
    """Columns [C*kh*kw, H*Wp] of a ``_pad_wide`` input."""
    c, n = xf.shape[0], h * wp
    cols = np.empty((c, kh, kw, n))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xf[:, i * wp + j:i * wp + j + n]
    return cols.reshape(c * kh * kw, n)


def conv2d_same(x, kernel, bias) -> tuple[np.ndarray, Conv2dTrace]:
    """Same-padded cross-correlation of [C_in,H,W] with [C_out,C_in,kH,kW].

    Zero padding of (k-1)/2 keeps the spatial dims; kernel dims must be odd.
    """
    x = _as64(x)
    kernel = _as64(kernel)
    bias = _as64(bias)
    if x.ndim != 3:
        raise ValueError(f"conv2d_same: input must be [C,H,W], got {x.ndim} dims")
    if kernel.ndim != 4:
        raise ValueError(f"conv2d_same: kernel must be [C_out,C_in,kH,kW], got {kernel.ndim} dims")
    c_out, c_in, kh, kw = kernel.shape
    if c_in != x.shape[0]:
        raise ValueError(
            f"conv2d_same: kernel input channels {c_in} != input channels {x.shape[0]}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d_same: kernel size {kh}x{kw} must be odd")
    if bias.shape != (c_out,):
        raise ValueError(
            f"conv2d_same: bias shape {bias.shape} != output channels ({c_out},)")
    _, h, w = x.shape
    xf, wp = _pad_wide(x, (kh - 1) // 2, (kw - 1) // 2)
    wide = kernel.reshape(c_out, -1) @ _im2col_wide(xf, kh, kw, h, wp)
    wide += bias[:, None]
    out = np.ascontiguousarray(wide.reshape(c_out, h, wp)[:, :, :w])
    return out, Conv2dTrace(x, kernel)


def conv2d_same_backward(trace: Conv2dTrace, upstream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv2d_same wrt (input, kernel, bias)."""
    x, kernel = trace.x, trace.kernel
    upstream = _as64(upstream)
    c_out, c_in, kh, kw = kernel.shape
    _, h, w = x.shape
    if upstream.shape != (c_out, h, w):
        raise ValueError(
            f"conv2d_same_backward: upstream shape {upstream.shape} != output shape {(c_out, h, w)}")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xf, wp = _pad_wide(x, ph, pw)
    n = h * wp
    up = np.zeros((c_out, h, wp))
    up[:, :, :w] = upstream
    up = up.reshape(c_out, n)
    d_kernel = (up @ _im2col_wide(xf, kh, kw, h, wp).T).reshape(kernel.shape)
    d_bias = upstream.sum(axis=(1, 2))
    d_cols = (kernel.reshape(c_out, -1).T @ up).reshape(c_in, kh, kw, n)
    d_xf = np.zeros_like(xf)
    for i in range(kh):
        for j in range(kw):
            d_xf[:, i * wp + j:i * wp + j + n] += d_cols[:, i, j]
    d_x = np.ascontiguousarray(d_xf.reshape(c_in, -1, wp)[:, ph:ph + h, pw:pw + w])
    return d_x, d_kernel, d_bias


# ---------------------------------------------------------------------------
# pooling / upsampling
# ---------------------------------------------------------------------------

@dataclass
class MaxPoolTrace:
    argmax: np.ndarray  # flat index inside each window block, row-major
    in_shape: tuple
    window: int


def maxpool2d(x, window: int) -> tuple[np.ndarray, MaxPoolTrace]:
    """Non-overlapping window max over [C,H,W]; ties go to the first element
    of the block in row-major order."""
    x = _as64(x)
    c, h, w = x.shape
    if h % window != 0:
        raise ValueError(f"maxpool2d: height {h} not divisible by window {window}")
    if w % window != 0:
        raise ValueError(f"maxpool2d: width {w} not divisible by window {window}")
    hb, wb = h // window, w // window
    blocks = x.reshape(c, hb, window, wb, window).transpose(0, 1, 3, 2, 4)
    blocks = blocks.reshape(c, hb, wb, window * window)
    idx = blocks.argmax(axis=3)
    out = np.take_along_axis(blocks, idx[..., None], axis=3)[..., 0]
    return np.ascontiguousarray(out), MaxPoolTrace(idx, x.shape, window)


def maxpool2d_backward(trace: MaxPoolTrace, upstream) -> np.ndarray:
    upstream = _as64(upstream)
    c, hb, wb = trace.argmax.shape
    if upstream.shape != (c, hb, wb):
        raise ValueError(
            f"maxpool2d_backward: upstream shape {upstream.shape} != pooled shape {(c, hb, wb)}")
    win = trace.window
    d_blocks = np.zeros((c, hb, wb, win * win))
    np.put_along_axis(d_blocks, trace.argmax[..., None], upstream[..., None], axis=3)
    d_x = d_blocks.reshape(c, hb, wb, win, win).transpose(0, 1, 3, 2, 4)
    return np.ascontiguousarray(d_x.reshape(trace.in_shape))


def upsample_nn(x, factor: int) -> np.ndarray:
    """Nearest-neighbor block replication of [C,Hg,Wg] by an integer factor."""
    x = _as64(x)
    if factor < 1:
        raise ValueError(f"upsample_nn: factor must be >= 1, got {factor}")
    return np.repeat(np.repeat(x, factor, axis=1), factor, axis=2)


def upsample_nn_backward(upstream, factor: int) -> np.ndarray:
    upstream = _as64(upstream)
    c, h, w = upstream.shape
    if h % factor != 0 or w % factor != 0:
        raise ValueError(
            f"upsample_nn_backward: upstream dims {h}x{w} not divisible by factor {factor}")
    return upstream.reshape(c, h // factor, factor, w // factor, factor).sum(axis=(2, 4))


# ---------------------------------------------------------------------------
# class-axis softmax and winner-take-all
# ---------------------------------------------------------------------------

@dataclass
class SoftmaxTrace:
    out: np.ndarray


def channel_softmax(x) -> tuple[np.ndarray, SoftmaxTrace]:
    """Softmax over the channel axis of [n,Hg,Wg], numerically shifted by the max."""
    x = _as64(x)
    e = np.exp(x - x.max(axis=0, keepdims=True))
    out = e / e.sum(axis=0, keepdims=True)
    return out, SoftmaxTrace(out)


def channel_softmax_backward(trace: SoftmaxTrace, upstream) -> np.ndarray:
    y = trace.out
    upstream = _as64(upstream)
    if upstream.shape != y.shape:
        raise ValueError(
            f"channel_softmax_backward: upstream shape {upstream.shape} != output shape {y.shape}")
    dot = (upstream * y).sum(axis=0, keepdims=True)
    return y * (upstream - dot)


@dataclass
class WtaTrace:
    winner: np.ndarray  # [Hg,Wg] channel index
    n: int


def channel_wta(x) -> tuple[np.ndarray, WtaTrace]:
    """Winner-take-all over channels: the per-position max keeps its value,
    everything else becomes zero. Ties go to the lowest channel index."""
    x = _as64(x)
    winner = x.argmax(axis=0)
    out = np.zeros_like(x)
    np.put_along_axis(out, winner[None], np.take_along_axis(x, winner[None], axis=0), axis=0)
    return out, WtaTrace(winner, x.shape[0])


def channel_wta_backward(trace: WtaTrace, upstream) -> np.ndarray:
    upstream = _as64(upstream)
    d_x = np.zeros_like(upstream)
    np.put_along_axis(
        d_x, trace.winner[None], np.take_along_axis(upstream, trace.winner[None], axis=0), axis=0)
    return d_x


def wta_safe_mask(x, tol: float = 1e-4) -> np.ndarray:
    """Boolean mask of coordinates safe for finite differences: positions
    where the channel race is closer than ``tol`` are excluded entirely."""
    x = _as64(x)
    if x.shape[0] < 2:
        return np.ones_like(x, dtype=bool)
    top2 = np.sort(x, axis=0)[-2:]
    ok = (top2[1] - top2[0]) > tol
    return np.broadcast_to(ok[None], x.shape).copy()


# ---------------------------------------------------------------------------
# pointwise ops
# ---------------------------------------------------------------------------

def sigmoid(x) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-x) for x >= 0 and
    e^x/(1+e^x) below, both from e = exp(min(x, -x)) = exp(-|x|). np.minimum
    returns a NaN operand itself, so a NaN keeps its sign and payload."""
    x = _as64(x)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(out, upstream) -> np.ndarray:
    return _as64(upstream) * out * (1.0 - out)


def tanh_act(x) -> np.ndarray:
    return np.tanh(_as64(x))


def tanh_backward(out, upstream) -> np.ndarray:
    return _as64(upstream) * (1.0 - out * out)


def concat_channels(a, b) -> np.ndarray:
    a, b = _as64(a), _as64(b)
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(
            f"concat_channels: spatial dims {a.shape[1:]} and {b.shape[1:]} differ")
    return np.concatenate([a, b], axis=0)


def concat_channels_backward(upstream, first_channels: int) -> tuple[np.ndarray, np.ndarray]:
    upstream = _as64(upstream)
    return upstream[:first_channels].copy(), upstream[first_channels:].copy()


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def bce_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over all elements, with the prediction
    clamped to [BCE_EPS, 1-BCE_EPS] before the log. Returns (loss, dLoss/dPred);
    the gradient is zero where the clamp is active."""
    pred, target = _as64(pred), _as64(target)
    _check_same_shape("bce_loss", pred, target)
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(np.mean(-(target * np.log(p) + (1.0 - target) * np.log1p(-p))))
    d = (p - target) / (p * (1.0 - p)) / p.size
    d[(pred < BCE_EPS) | (pred > 1.0 - BCE_EPS)] = 0.0
    return loss, d


# ---------------------------------------------------------------------------
# finite-difference checker
# ---------------------------------------------------------------------------

def finite_diff_check(fn, inputs, analytic, step: float = 1e-5,
                      max_coords: int = 10_000, seed: int = 0, masks=None) -> float:
    """Central-difference check of analytic gradients against ``fn``.

    ``fn(*inputs)`` must return a scalar; ``analytic`` holds one gradient
    array per input. Inputs are perturbed in place and restored exactly.
    Arrays larger than ``max_coords`` are probed on a seeded random subset
    of coordinates. ``masks`` (optional, same structure as inputs) marks
    coordinates to check; use it to skip non-differentiable tie points.

    Returns the max relative error |a-n| / max(|a|, |n|, 1e-8).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for pos, (arr, grad) in enumerate(zip(inputs, analytic)):
        if not arr.flags.c_contiguous:
            raise ValueError(f"finite_diff_check: input {pos} must be C-contiguous")
        flat = arr.reshape(-1)
        g_flat = np.asarray(grad).reshape(-1)
        m_flat = None if masks is None or masks[pos] is None else np.asarray(masks[pos]).reshape(-1)
        if flat.size > max_coords:
            coords = np.sort(rng.choice(flat.size, size=max_coords, replace=False))
        else:
            coords = range(flat.size)
        for i in coords:
            if m_flat is not None and not m_flat[i]:
                continue
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn(*inputs))
            flat[i] = orig - step
            f_minus = float(fn(*inputs))
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(g_flat[i] - numeric) / max(abs(g_flat[i]), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
