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

A step runs the four gates' ``W_x * x + W_h * h_prev`` as one convolution of
[x; h_prev] with the kernel [W_x | W_h], which ``ConvLstmParams`` stores as
one array; the per-gate arrays under their checkpoint names are views of it.

``unroll`` runs a layer first frame first and keeps one ``StepTrace`` per
step for ``bptt``; a layer that reads backward in time is given its frames
reversed (``network``). ``bptt`` consumes the unroll: it drops each step's
trace and state once that step is reversed, so a second ``bptt`` on the
same unroll is an error. Neither shares state between calls, so two layers
may run on two threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .tensor_core import (
    Conv2dTrace,
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
    """All weights of one layer in the layout the step consumes, gates in
    the order i, f, c (candidate), o: the fused kernel ``w`` [4S,C_in+S,k,k]
    that convolves [x; h_prev], biases ``b`` [4S] and peepholes ``peep``
    [3,S,H,W] of gates i, f, o."""
    w: np.ndarray
    b: np.ndarray
    peep: np.ndarray

    @property
    def state_channels(self) -> int:
        return self.peep.shape[1]

    @property
    def in_channels(self) -> int:
        return self.w.shape[1] - self.state_channels

    def named_arrays(self):
        """The 15 per-gate arrays under their checkpoint names, in checkpoint
        order (w_xi..w_xo, w_hi..w_ho, w_ci, w_cf, w_co, b_i..b_o). Each is
        a view: writing through it changes the layer. The ``w_x*`` and
        ``w_h*`` views are strided."""
        s, c_in = self.state_channels, self.in_channels
        for prefix, cols in (("w_x", slice(None, c_in)), ("w_h", slice(c_in, None))):
            for g, gate in enumerate("ifco"):
                yield prefix + gate, self.w[g * s:(g + 1) * s, cols]
        for g, gate in enumerate("ifo"):
            yield "w_c" + gate, self.peep[g]
        for g, gate in enumerate("ifco"):
            yield "b_" + gate, self.b[g * s:(g + 1) * s]

    def zeros_like(self) -> "ConvLstmParams":
        return ConvLstmParams(*(np.zeros_like(getattr(self, f.name)) for f in fields(self)))


@dataclass
class StepTrace:
    prev: CellState
    x: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray  # tanh candidate
    o: np.ndarray
    c: np.ndarray


@dataclass
class UnrollResult:
    states: list  # CellState per step
    final: CellState  # state after the last step
    traces: list  # StepTrace per step; None once reversed


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
    z, _ = conv2d_same(np.concatenate([x, prev.h]), params.w, params.b)

    w_ci, w_cf, w_co = params.peep
    i = sigmoid(z[:s] + w_ci * prev.c)
    f = sigmoid(z[s:2 * s] + w_cf * prev.c)
    g = tanh_act(z[2 * s:3 * s])
    c = f * prev.c + i * g
    o = sigmoid(z[3 * s:] + w_co * c)
    h = o * tanh_act(c)
    return CellState(h, c), StepTrace(prev, x, i, f, g, o, c)


def _step_backward(params: ConvLstmParams, tr: StepTrace, d_h: np.ndarray,
                   d_c_in: np.ndarray, grads: ConvLstmParams):
    """Reverse one step. Accumulates parameter gradients into ``grads`` and
    returns (d_x, d_h_prev, d_c_prev).

    The output gate reads the new cell state, so its pre-activation gradient
    feeds back into d_c before the forget/input/candidate split.
    """
    i, f, g, o = tr.i, tr.f, tr.g, tr.o
    tc = tanh_act(tr.c)
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
    conv = Conv2dTrace(np.concatenate([tr.x, tr.prev.h]), params.w)
    d_in, d_k, d_b = conv2d_same_backward(conv, d_z)
    c_in = params.in_channels
    grads.w += d_k
    grads.b += d_b
    return d_in[:c_in], d_in[c_in:], d_c_prev


def unroll(params: ConvLstmParams, xs, init: CellState) -> UnrollResult:
    """Iterate ``step`` over a frame sequence, first frame first."""
    if len(xs) == 0:
        raise ValueError("unroll: cannot unroll an empty sequence")
    state = init
    states, traces = [], []
    for x in xs:
        state, tr = step(params, x, state)
        states.append(state)
        traces.append(tr)
    return UnrollResult(states, state, traces)


def bptt(params: ConvLstmParams, run: UnrollResult, d_hidden,
         d_c_final: np.ndarray | None = None):
    """Backpropagation through time over an unroll.

    ``d_hidden`` holds one upstream gradient per step (None entries mean
    zero); ``d_c_final`` is an optional extra gradient on the final cell
    state. Both must have the state's shape [S,H,W]. Returns (param grads,
    d_inputs per step, gradient on the initial state).

    Consumes ``run``: each step's trace and state are dropped once that step
    is reversed.
    """
    if any(tr is None for tr in run.traces):
        raise ValueError("bptt: the unroll was consumed by an earlier bptt")
    n = len(run.traces)
    if len(d_hidden) != n:
        raise ValueError(f"bptt: upstream length {len(d_hidden)} != unroll length {n}")
    shape = run.final.h.shape
    for t, d in enumerate(d_hidden):
        if d is not None and np.shape(d) != shape:
            raise ValueError(f"bptt: d_hidden[{t}] has shape {np.shape(d)}, expected {shape}")
    if d_c_final is not None and np.shape(d_c_final) != shape:
        raise ValueError(f"bptt: d_c_final has shape {np.shape(d_c_final)}, expected {shape}")
    grads = params.zeros_like()
    d_h_next = np.zeros(shape)
    d_c_next = np.zeros(shape) if d_c_final is None else np.asarray(d_c_final, dtype=np.float64)
    d_inputs: list = [None] * n
    for t in range(n - 1, -1, -1):
        d_h = d_h_next if d_hidden[t] is None else d_hidden[t] + d_h_next
        d_x, d_h_next, d_c_next = _step_backward(params, run.traces[t], d_h,
                                                 d_c_next, grads)
        run.traces[t] = run.states[t] = None
        d_inputs[t] = d_x.copy()  # a view would pin the whole [C+S,H,W] gradient
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
    w_x = rng.uniform(-bx, bx, size=(4 * s, in_channels, k, k))
    w_h = rng.uniform(-bh, bh, size=(4 * s, s, k, k))
    return ConvLstmParams(
        np.concatenate([w_x, w_h], axis=1),
        np.zeros(4 * s),
        np.zeros((3, s, height, width)),
    )
