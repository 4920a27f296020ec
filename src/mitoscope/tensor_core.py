"""Dense float64 tensor kernels with hand-derived gradients.

Tensors are plain numpy float64 arrays in row-major order. Every kernel
is a pure function as its callers see it: identical inputs give
bit-identical outputs and no internal state is kept. A Winograd
convolution called outside a lane (``lanes``) may run half of each of its
stages on the helper thread; the halves write disjoint parts of arrays the
call allocated and sum nothing in another order, so the result is
bit-identical whether they run at once or in turn. Ops whose backward
needs saved forward state return an opaque trace object alongside the
output; hand the trace plus the upstream gradient to the matching
``*_backward`` function.

``conv2d_same`` and its backward take one of two paths, chosen from the
kernel shape alone: Winograd minimal filtering F(4x4,5x5) for a 5x5 kernel
with at least 16 input and 16 output channels, and wide-row im2col for
every other shape. Both keep only the input and the kernel in
``Conv2dTrace``, and the backward recomputes what it needs from them:
keeping im2col columns would hold C_in*kH*kW*H*Wp floats per call until
the backward pass, about 330 MB per desk-scale unsupervised sample and
2.3 GB per paper-scale one.

Wide-row im2col: the input is zero-padded once to [C, H+2ph+1, W+2pw] and
its rows are flattened, with row length Wp = W+2pw. Kernel offset (i,j)
then reads the contiguous run xf[:, i*Wp+j : i*Wp+j+H*Wp], so im2col is one
block copy per offset and col2im one contiguous add per offset; the extra
zero row keeps the last offset's run in bounds. The GEMMs run on H*Wp
columns: the forward crops the Wp-W extra columns of each output row, and
the backward zero-fills them in its upstream.

Winograd (Lavin & Gray, arXiv:1509.09308): the input, zero-padded to
[C, 4*ceil(H/4)+4, 4*ceil(W/4)+4], is cut into 8x8 tiles at stride 4, and
each 4x4 output tile is A^T [(G g G^T) * (B^T d B)] A. Per tile and channel
pair that is 64 multiplies in place of the direct path's 400; the 2-D
transforms are the Kronecker squares of the 1-D ones, applied to all tiles
as one GEMM each, and the 64 elementwise products over channels are 64
GEMMs. The backward applies the adjoint of each stage. Outputs differ
from im2col by rounding only (relative 1e-14 on the paper's shapes).

Why the rule sits at 16 channels: the transforms cost O(C*H*W) per call
against the GEMMs' O(C_in*C_out*H*W), so the gain grows with the channel
counts. Timed per call at 64x64 on one BLAS thread and one lane
(``tools/conv_paths.py``, ``BENCH_conv_paths.json``), Winograd forward plus
backward is 2.7x slower at 1->16, about even at 4->16 and 6->24, 1.5x
faster at 16->16 and 2.6x at 64->128. Its forward alone loses on 4->16,
6->24, 8->16 and 8->32; from 12->12 up both passes win on every shape
measured. Its halves on two lanes take forward plus backward from 47.4 to
25.1 ms at 33->128, from 102.3 to 53.4 ms at 96->128 and from 9.9 to 7.1 ms
at 18->24. A ConvLSTM layer convolves [x; h_prev] in one call,
(C+S)->4S (see ``conv_lstm``). At S=32, the paper's scale, its 33->128 and
96->128 take Winograd, as do the 48->32 and 32->32 output convs; of the
model's convs only the 1x1 ones stay on im2col. At desk scale the fused
5->16, 7->24 and 12->16 and every output conv stay on im2col; the S=6
event merge's 18->24 takes Winograd, 1.5x faster than im2col on one lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import lanes

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


# Winograd F(4x4,5x5): 4x4 output tiles from 8x8 input tiles at stride 4.
# The threshold is explained in the module notes.
_WINOGRAD_MIN_CHANNELS = 16


def _winograd_transforms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact 1-D Cook-Toom transforms A^T [4,8], G [8,5], B^T [8,8] for the
    points 0, +-1, +-2, +-1/2 and infinity, such that the correlation
    y_i = sum_k g_k d_(i+k), i < 4, equals A^T [(G g) * (B^T d)].

    With M(x) the product of (x - p) over the seven finite points and
    f_j = M'(p_j): row j of G is the powers of p_j over f_j, row j of B^T
    the coefficients of M(x)/(x - p_j), and the rows for infinity pick the
    leading coefficient."""
    pts = [Fraction(p) for p in (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))]

    def poly(roots):  # coefficients, lowest degree first
        coef = [Fraction(1)]
        for p in roots:
            coef = [a - p * b for a, b in zip([Fraction(0)] + coef, coef + [Fraction(0)])]
        return coef

    a_t = [[p ** i for p in pts] + [Fraction(int(i == 3))] for i in range(4)]
    g, b_t = [], []
    for j, p in enumerate(pts):
        others = pts[:j] + pts[j + 1:]
        f = Fraction(1)
        for q in others:
            f *= p - q
        g.append([p ** k / f for k in range(5)])
        b_t.append(poly(others) + [Fraction(0)])
    g.append([Fraction(int(k == 4)) for k in range(5)])
    b_t.append(poly(pts))
    return tuple(np.array(m, dtype=object).astype(np.float64) for m in (a_t, g, b_t))


# The 2-D transforms act on row-major flattened tiles, vec(T X T^T) =
# kron(T, T) vec(X): K_A [16,64], K_G [64,25], K_B [64,64]. Every product
# of two float entries rounds to the float of the exact rational product.
_K_A, _K_G, _K_B = (np.kron(m, m) for m in _winograd_transforms())


def _winograd_eligible(kernel_shape) -> bool:
    c_out, c_in, kh, kw = kernel_shape
    return kh == kw == 5 and min(c_in, c_out) >= _WINOGRAD_MIN_CHANNELS


def _tile_counts(h: int, w: int) -> tuple[int, int]:
    return -(-h // 4), -(-w // 4)


# OpenBLAS computes the last rows or columns of a GEMM, when fewer than its
# kernel width, with other kernels that round differently. A GEMM cut into
# halves at a multiple of 8 rows or columns keeps every element in the same
# kind of block as the whole GEMM, so each half rounds as the whole did
# (Haswell kernels; a 64x64 frame cuts at multiples of 256 columns).
_SPLIT = 8
_FREQ_HALVES = (slice(0, 32), slice(32, 64))


def _channel_halves(c: int, size: int) -> tuple[slice, slice]:
    """``c`` channels of ``size`` GEMM rows or columns each, cut near the
    middle at a multiple of ``_SPLIT`` rows or columns."""
    step = _SPLIT // math.gcd(_SPLIT, size)
    mid = step * ((c + step) // (2 * step))
    return slice(0, mid), slice(mid, c)


def _in_halves(stage, *halves) -> None:
    """``stage`` on the first of each pair of ``halves`` and on the second,
    on the two lanes."""
    first, second = zip(*halves)
    lanes.both(lambda: stage(*first), lambda: stage(*second))


def _cols(a: np.ndarray, chans: slice) -> np.ndarray:
    """Channels ``chans`` of a C-contiguous [R, C, n] array as the column
    block [R, len*n] of its 2-D view, without a copy."""
    n = a.shape[2]
    return a.reshape(a.shape[0], -1)[:, chans.start * n:chans.stop * n]


def _winograd_input(x: np.ndarray, chans: slice, v: np.ndarray) -> None:
    """Transformed tiles of channels ``chans`` of a [C,H,W] input, into
    those channels of V [64, C, nty*ntx]."""
    _, h, w = x.shape
    nty, ntx = _tile_counts(h, w)
    xp = np.zeros((chans.stop - chans.start, 4 * nty + 4, 4 * ntx + 4))
    xp[:, 2:2 + h, 2:2 + w] = x[chans]
    s0, s1, s2 = xp.strides
    tiles = as_strided(xp, (8, 8, xp.shape[0], nty, ntx), (s1, s2, s0, 4 * s1, 4 * s2),
                       writeable=False)
    np.matmul(_K_B, tiles.reshape(64, -1), out=_cols(v, chans))


def _winograd_kernel(kernel: np.ndarray, freqs: slice) -> np.ndarray:
    """Frequencies ``freqs`` of the transformed kernel U [64, C_out, C_in]."""
    c_out, c_in = kernel.shape[:2]
    return (_K_G[freqs] @ kernel.reshape(c_out * c_in, 25).T).reshape(-1, c_out, c_in)


def _winograd_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Each stage runs as two halves on the two lanes, writing disjoint
    parts of one array: the input transform by input channels, the kernel
    transform and the 64 GEMMs by frequencies, the output transform by
    output channels."""
    c_in, h, w = x.shape
    c_out = kernel.shape[0]
    nty, ntx = _tile_counts(h, w)
    nt = nty * ntx
    v = np.empty((64, c_in, nt))
    _in_halves(lambda ci: _winograd_input(x, ci, v), _channel_halves(c_in, nt))
    m = np.empty((64, c_out, nt))

    def products(f):
        np.matmul(_winograd_kernel(kernel, f), v[f], out=m[f])

    _in_halves(products, _FREQ_HALVES)
    del v  # the output transform does not read it
    out = np.empty((c_out, nty, 4, ntx, 4))

    def output(co):
        y = (_K_A @ _cols(m, co)).reshape(4, 4, -1, nty, ntx)
        np.add(y.transpose(2, 3, 0, 4, 1), bias[co, None, None, None, None], out=out[co])

    _in_halves(output, _channel_halves(c_out, nt))
    out = out.reshape(c_out, 4 * nty, 4 * ntx)
    return out if out.shape[1:] == (h, w) else np.ascontiguousarray(out[:, :h, :w])


def _winograd_backward(x: np.ndarray, kernel: np.ndarray,
                       upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_x, d_kernel) by the adjoint of each stage of ``_winograd_forward``,
    each again as two halves on the two lanes: the input transform and the
    upstream's output-transform adjoint by channels, the GEMMs by
    frequencies, then the input-transform adjoint by input channels beside
    the kernel-transform adjoint by output channels."""
    c_in, h, w = x.shape
    c_out = kernel.shape[0]
    nty, ntx = _tile_counts(h, w)
    nt = nty * ntx
    v = np.empty((64, c_in, nt))
    d_m = np.empty((64, c_out, nt))

    def transforms(ci, co):
        _winograd_input(x, ci, v)
        grid = np.zeros((co.stop - co.start, nty, 4, ntx, 4))
        grid.reshape(-1, 4 * nty, 4 * ntx)[:, :h, :w] = upstream[co]
        d_y = np.ascontiguousarray(grid.transpose(2, 4, 0, 1, 3)).reshape(16, -1)
        np.matmul(_K_A.T, d_y, out=_cols(d_m, co))

    _in_halves(transforms, _channel_halves(c_in, nt), _channel_halves(c_out, nt))
    d_u = np.empty((64, c_out, c_in))
    d_v = np.empty((64, c_in, nt))

    def products(f):
        np.matmul(d_m[f], v[f].transpose(0, 2, 1), out=d_u[f])
        np.matmul(_winograd_kernel(kernel, f).transpose(0, 2, 1), d_m[f], out=d_v[f])

    _in_halves(products, _FREQ_HALVES)
    del v, d_m  # the adjoints read neither; freed, they keep the peak down
    d_x = np.empty((c_in, h, w))
    d_kernel = np.empty(kernel.shape)

    def adjoints(ci, co):
        n = ci.stop - ci.start
        d_tiles = (_K_B.T @ _cols(d_v, ci)).reshape(2, 4, 2, 4, n, nty, ntx)
        # quadrant (qy,qx) of tile (ty,tx) lands on 4x4 block (ty+qy, tx+qx)
        # of the padded input, held as [row phase, col phase, C, block row,
        # block col] so that each of the four adds runs over contiguous rows
        # of blocks
        d_pad = np.zeros((4, 4, n, nty + 1, ntx + 1))
        for qy in (0, 1):
            for qx in (0, 1):
                d_pad[:, :, :, qy:qy + nty, qx:qx + ntx] += d_tiles[qy, :, qx]
        d_pad = d_pad.transpose(2, 3, 0, 4, 1).reshape(n, 4 * nty + 4, 4 * ntx + 4)
        d_x[ci] = d_pad[:, 2:2 + h, 2:2 + w]
        np.matmul(_cols(d_u, co).T, _K_G,
                  out=d_kernel.reshape(-1, 25)[co.start * c_in:co.stop * c_in])

    _in_halves(adjoints, _channel_halves(c_in, nt), _channel_halves(c_out, c_in))
    return d_x, d_kernel


def conv2d_same(x, kernel, bias) -> tuple[np.ndarray, Conv2dTrace]:
    """Same-padded cross-correlation of [C_in,H,W] with [C_out,C_in,kH,kW].

    Zero padding of (k-1)/2 keeps the spatial dims; kernel dims must be odd.
    A 5x5 kernel with C_in and C_out both at least 16 runs Winograd
    F(4x4,5x5), every other shape wide-row im2col (see the module notes).
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
    if _winograd_eligible(kernel.shape):
        return _winograd_forward(x, kernel, bias), Conv2dTrace(x, kernel)
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
    d_bias = upstream.sum(axis=(1, 2))
    if _winograd_eligible(kernel.shape):
        return (*_winograd_backward(x, kernel, upstream), d_bias)
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xf, wp = _pad_wide(x, ph, pw)
    n = h * wp
    up = np.zeros((c_out, h, wp))
    up[:, :, :w] = upstream
    up = up.reshape(c_out, n)
    d_kernel = (up @ _im2col_wide(xf, kh, kw, h, wp).T).reshape(kernel.shape)
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
    e^x/(1+e^x) below, both from e = exp(min(x, -x)) = exp(-|x|). The
    numerator max(e, x >= 0) is 1 or e, as e <= 1. np.minimum and
    np.maximum return a NaN operand itself, so a NaN keeps its sign and
    payload."""
    x = _as64(x)
    e = np.exp(np.minimum(x, -x))
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


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
    array per input. Inputs are perturbed in place, through ``arr.flat`` so
    that strided views write through, and restored exactly.
    Arrays larger than ``max_coords`` are probed on a seeded random subset
    of coordinates. ``masks`` (optional, same structure as inputs) marks
    coordinates to check; use it to skip non-differentiable tie points.

    Returns the max relative error |a-n| / max(|a|, |n|, 1e-8).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for pos, (arr, grad) in enumerate(zip(inputs, analytic)):
        flat = arr.flat
        g_flat = np.asarray(grad).reshape(-1)
        m_flat = None if masks is None or masks[pos] is None else np.asarray(masks[pos]).reshape(-1)
        if arr.size > max_coords:
            coords = np.sort(rng.choice(arr.size, size=max_coords, replace=False))
        else:
            coords = range(arr.size)
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
