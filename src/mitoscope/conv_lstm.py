"""Peephole convolutional LSTM: single step, sequence unrolling, and
backpropagation through time.

Gate recurrences (all convolutions same-padded, peepholes elementwise):

    i = sigmoid(W_xi * x + W_hi * h_prev + W_ci . c_prev + b_i)
    f = sigmoid(W_xf * x + W_hf * h_prev + W_cf . c_prev + b_f)
    c = f . c_prev + i . tanh(W_xc * x + W_hc * h_prev + b_c)
    o = sigmoid(W_xo * x + W_ho * h_prev + W_co . c + b_o)
    h = o . tanh(c)

Note the output gate peeks at the NEW cell state. Peephole weights are
per-element tensors over [S,H,W].

Weights are stored stacked, as the two gate convolutions consume them:
the input and state kernels of the four gates (order i, f, c, o) form one
[4S,C,k,k] and one [4S,S,k,k] kernel, the biases one [4S] vector, and the
three peepholes (i, f, o) one [3,S,H,W] array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .tensor_core import (
    conv2d_same,
    conv2d_same_backward,
    sigmoid,
    tanh_act,
)

__all__ = [
    "CellState",
    "ConvLstmParams",
    "StepTrace",
    "UnrollResult",
    "step",
    "unroll",
    "bptt",
    "init_params",
    "zero_state",
    "xavier_bound",
]


@dataclass
class CellState:
    h: np.ndarray  # [S,H,W], elementwise in (-1,1)
    c: np.ndarray  # [S,H,W]


@dataclass
class ConvLstmParams:
    """All weights of one layer in the stacked layout the kernels consume,
    gates in the order i, f, c (candidate), o: input kernels ``w_x``
    [4S,C_in,k,k], state kernels ``w_h`` [4S,S,k,k], biases ``b`` [4S] and
    peepholes ``peep`` [3,S,H,W] of gates i, f, o."""
    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray
    peep: np.ndarray

    @property
    def state_channels(self) -> int:
        return self.w_h.shape[1]

    @property
    def in_channels(self) -> int:
        return self.w_x.shape[1]

    def named_arrays(self):
        """The 15 per-gate arrays under their checkpoint names, in checkpoint
        order (w_xi..w_xo, w_hi..w_ho, w_ci, w_cf, w_co, b_i..b_o). Each is
        a C-contiguous view: writing through it changes the layer."""
        s = self.state_channels
        for prefix, stacked in (("w_x", self.w_x), ("w_h", self.w_h)):
            for g, gate in enumerate("ifco"):
                yield prefix + gate, stacked[g * s:(g + 1) * s]
        for g, gate in enumerate("ifo"):
            yield "w_c" + gate, self.peep[g]
        for g, gate in enumerate("ifco"):
            yield "b_" + gate, self.b[g * s:(g + 1) * s]

    def zeros_like(self) -> "ConvLstmParams":
        return ConvLstmParams(*(np.zeros_like(getattr(self, f.name)) for f in fields(self)))


@dataclass
class StepTrace:
    prev: CellState
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray  # tanh candidate
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    conv_x: object
    conv_h: object


@dataclass
class UnrollResult:
    states: list  # CellState per step, in forward time order
    final: CellState  # state after the last processed step
    traces: list  # StepTrace per step, in iteration order
    reverse: bool


def zero_state(state_channels: int, height: int, width: int) -> CellState:
    shape = (state_channels, height, width)
    return CellState(np.zeros(shape), np.zeros(shape))


def step(params: ConvLstmParams, x: np.ndarray, prev: CellState) -> tuple[CellState, StepTrace]:
    """One recurrence step. Returns the new state and the trace backward needs."""
    s = params.state_channels
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] != params.in_channels:
        raise ValueError(
            f"step: input shape {x.shape} incompatible with kernel input channels "
            f"{params.in_channels}")
    if prev.h.shape != (s,) + x.shape[1:]:
        raise ValueError(
            f"step: previous state shape {prev.h.shape} != expected {(s,) + x.shape[1:]}")
    if params.peep.shape[1:] != prev.c.shape:
        raise ValueError(
            f"step: peephole shape {params.peep.shape[1:]} != state shape {prev.c.shape}")

    # biases ride on the input convolution
    z_x, conv_x = conv2d_same(x, params.w_x, params.b)
    z_h, conv_h = conv2d_same(prev.h, params.w_h, np.zeros(4 * s))
    z = z_x + z_h

    w_ci, w_cf, w_co = params.peep
    i = sigmoid(z[:s] + w_ci * prev.c)
    f = sigmoid(z[s:2 * s] + w_cf * prev.c)
    g = tanh_act(z[2 * s:3 * s])
    c = f * prev.c + i * g
    o = sigmoid(z[3 * s:] + w_co * c)
    tc = tanh_act(c)
    h = o * tc
    return CellState(h, c), StepTrace(prev, i, f, g, o, c, tc, conv_x, conv_h)


def _step_backward(params: ConvLstmParams, tr: StepTrace, d_h: np.ndarray,
                   d_c_in: np.ndarray, grads: ConvLstmParams):
    """Reverse one step. Accumulates parameter gradients into ``grads`` and
    returns (d_x, d_h_prev, d_c_prev).

    The output gate reads the new cell state, so its pre-activation gradient
    feeds back into d_c before the forget/input/candidate split.
    """
    i, f, g, o = tr.i, tr.f, tr.g, tr.o
    tc = tr.tanh_c
    w_ci, w_cf, w_co = params.peep

    d_o = d_h * tc
    d_zo = d_o * o * (1.0 - o)
    d_c = d_c_in + d_h * o * (1.0 - tc * tc) + d_zo * w_co
    grads.peep[2] += d_zo * tr.c

    d_i = d_c * g
    d_f = d_c * tr.prev.c
    d_g = d_c * i
    d_c_prev = d_c * f

    d_zi = d_i * i * (1.0 - i)
    d_zf = d_f * f * (1.0 - f)
    d_zg = d_g * (1.0 - g * g)
    grads.peep[0] += d_zi * tr.prev.c
    grads.peep[1] += d_zf * tr.prev.c
    d_c_prev += d_zi * w_ci + d_zf * w_cf

    d_z = np.concatenate([d_zi, d_zf, d_zg, d_zo], axis=0)
    d_x, d_wx, d_b = conv2d_same_backward(tr.conv_x, d_z)
    d_h_prev, d_wh, _ = conv2d_same_backward(tr.conv_h, d_z)
    grads.w_x += d_wx
    grads.w_h += d_wh
    grads.b += d_b
    return d_x, d_h_prev, d_c_prev


def unroll(params: ConvLstmParams, xs, init: CellState, reverse: bool = False) -> UnrollResult:
    """Iterate ``step`` over a frame sequence. With ``reverse`` the sequence
    is consumed from the last frame to the first; the returned per-step
    states are re-aligned to forward time order either way."""
    n = len(xs)
    if n == 0:
        raise ValueError("unroll: cannot unroll an empty sequence")
    order = range(n - 1, -1, -1) if reverse else range(n)
    state = init
    states: list = [None] * n
    traces = []
    for t in order:
        state, tr = step(params, xs[t], state)
        states[t] = state
        traces.append(tr)
    return UnrollResult(states, state, traces, reverse)


def bptt(params: ConvLstmParams, run: UnrollResult, d_hidden,
         d_c_final: np.ndarray | None = None):
    """Backpropagation through time over an unroll.

    ``d_hidden`` holds one upstream gradient per forward-time step (None
    entries mean zero); ``d_c_final`` is an optional extra gradient on the
    final cell state. Returns (param grads, d_inputs in forward order,
    gradient on the initial state).
    """
    n = len(run.traces)
    if len(d_hidden) != n:
        raise ValueError(f"bptt: upstream length {len(d_hidden)} != unroll length {n}")
    grads = params.zeros_like()
    shape = run.final.h.shape
    d_h_next = np.zeros(shape)
    d_c_next = np.zeros(shape) if d_c_final is None else np.asarray(d_c_final, dtype=np.float64)
    d_inputs: list = [None] * n
    for j in range(n - 1, -1, -1):
        t = n - 1 - j if run.reverse else j
        d_h = d_h_next if d_hidden[t] is None else d_hidden[t] + d_h_next
        d_x, d_h_next, d_c_next = _step_backward(params, run.traces[j], d_h, d_c_next, grads)
        d_inputs[t] = d_x
    return grads, d_inputs, CellState(d_h_next, d_c_next)


def xavier_bound(c_in: int, c_out: int, kh: int, kw: int) -> float:
    """Uniform initialization bound sqrt(6 / (fan_in + fan_out)) with
    fan = channels * kernel area."""
    return math.sqrt(6.0 / ((c_in + c_out) * kh * kw))


def init_params(in_channels: int, state_channels: int, height: int, width: int,
                kernel_size: int = 5, seed=0) -> ConvLstmParams:
    """Draw kernels uniform in the Xavier bound; peepholes and biases start
    at zero. ``seed`` may be an int or a numpy Generator; the draw order is
    fixed so results are deterministic."""
    rng = np.random.default_rng(seed)
    k, s = kernel_size, state_channels
    bx = xavier_bound(in_channels, s, k, k)
    bh = xavier_bound(s, s, k, k)
    return ConvLstmParams(
        rng.uniform(-bx, bx, size=(4 * s, in_channels, k, k)),
        rng.uniform(-bh, bh, size=(4 * s, s, k, k)),
        np.zeros(4 * s),
        np.zeros((3, s, height, width)),
    )
