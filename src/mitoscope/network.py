"""The branched recurrent network: an encoder that compresses context
frames, a bidirectional event branch that classifies spatio-temporal events
into per-block classes, and a decoder that reconstructs the target frames
from both. Also the supervised variant (event branch + output convolutions,
no event head), which trains on the target maps of
``data_pipeline.attach_targets``, and the binary checkpoint format. Each
piece has one entry point: ``forward_unsupervised`` runs the encoder and
decoder itself, and ``event_head`` returns its map with the trace its
backward reads (``detect_events`` drops the trace).

Event maps are [n,M,M] float arrays: block-constant per grid cell, exactly
one active class per cell, values in (0,1]. The event branch's backward
reader is a plain ConvLSTM run on the target frames reversed; what it
returns is reversed back to forward time before the merge reads it.

Work that shares nothing runs on the two lanes of ``lanes``, the caller and
a helper thread; ``lanes`` decides whether they run at once or one after
the other. In training the two lanes take the event branch's two readers,
whose unrolls, and later their BPTTs, share nothing until the merge. In
``detect`` (``window_maps``) they take two whole windows. Inside a lane
everything runs in turn, so no more than two lanes run at once; outside
one, each Winograd convolution (the merge, encoder, decoder and output
convs at paper scale) runs its stages as two halves on the lanes
(``tensor_core``). Each part does the same operations in the same order on
either thread, so results are bit-identical either way.

A backward pass consumes its output's trace, dropping each part once it is
reversed. The forward passes of ``detect`` (``detect_events``,
``supervised_maps``) keep no step trace and no cell state past its step:
each layer unrolls one frame at a time, the readers keep only their hidden
states, each step's merge features are built as the merge reads them, and
the event head or output convolutions run on each merged state as it comes.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import conv_lstm as cl
from . import lanes
from . import tensor_core as tc
from .data_pipeline import check_fields

__all__ = [
    "NetworkConfig",
    "BranchedModel",
    "SupervisedModel",
    "ReconOutput",
    "SupervisedOutput",
    "CheckpointError",
    "init_unsupervised",
    "init_supervised",
    "event_head",
    "detect_events",
    "forward_unsupervised",
    "backward_unsupervised",
    "supervised_maps",
    "window_maps",
    "forward_supervised",
    "backward_supervised",
    "event_map_ok",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class NetworkConfig:
    frame_size: int = 64
    hidden_channels: int = 32
    event_classes: int = 16
    encoder_len: int = 5
    target_len: int = 10
    grid_factor: int = 8
    conv_kernel: int = 5
    cnn1_kernel: int = 5

    def __post_init__(self):
        check_fields(self, {f.name: (lambda v: v >= 1, ">= 1") for f in fields(self)})
        if self.frame_size % self.grid_factor != 0:
            raise ValueError(
                f"frame_size {self.frame_size} not divisible by grid_factor {self.grid_factor}")
        if self.conv_kernel % 2 == 0 or self.cnn1_kernel % 2 == 0:
            raise ValueError("kernel sizes must be odd")


# checkpoint blob names of the plain conv arrays
_BLOB_NAMES = {"event_proj_w": "event_proj.w", "event_proj_b": "event_proj.b",
               "recon_w": "recon_conv.w", "recon_b": "recon_conv.b",
               "out_w": "output_conv.w", "out_b": "output_conv.b"}


class _ParamContainer:
    """Parameters of either model, in field order: the recurrent layers,
    then the plain conv arrays. Field order is the checkpoint blob order."""

    def named_params(self):
        for f in fields(self)[1:]:  # skip config
            value = getattr(self, f.name)
            if isinstance(value, cl.ConvLstmParams):
                for name, arr in value.named_arrays():
                    yield f"{f.name}.{name}", arr
            else:
                yield _BLOB_NAMES[f.name], value


@dataclass
class BranchedModel(_ParamContainer):
    """Parameters of the full unsupervised network."""
    config: NetworkConfig
    encoder: cl.ConvLstmParams
    event_fwd: cl.ConvLstmParams
    event_bwd: cl.ConvLstmParams
    event_merge: cl.ConvLstmParams
    decoder: cl.ConvLstmParams
    event_proj_w: np.ndarray  # [n,S,1,1]
    event_proj_b: np.ndarray  # [n]
    recon_w: np.ndarray  # [S, S+n, k, k]
    recon_b: np.ndarray  # [S]
    out_w: np.ndarray  # [1, S, 1, 1]
    out_b: np.ndarray  # [1]

    kind = "unsupervised"


@dataclass
class SupervisedModel(_ParamContainer):
    """Event branch plus output convolutions; no event head, no decoder."""
    config: NetworkConfig
    event_fwd: cl.ConvLstmParams
    event_bwd: cl.ConvLstmParams
    event_merge: cl.ConvLstmParams
    recon_w: np.ndarray  # [S, S, k, k]
    recon_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    kind = "supervised"


def _xavier_kernel(rng, c_out, c_in, k):
    bound = cl.xavier_bound(c_in, c_out, k, k)
    return rng.uniform(-bound, bound, size=(c_out, c_in, k, k))


def init_unsupervised(config: NetworkConfig, seed=0) -> BranchedModel:
    rng = np.random.default_rng(seed)
    m, s, n = config.frame_size, config.hidden_channels, config.event_classes
    k = config.conv_kernel
    return BranchedModel(
        config,
        encoder=cl.init_params(1, s, m, m, k, rng),
        event_fwd=cl.init_params(1, s, m, m, k, rng),
        event_bwd=cl.init_params(1, s, m, m, k, rng),
        event_merge=cl.init_params(2 * s, s, m, m, k, rng),
        event_proj_w=_xavier_kernel(rng, n, s, 1),
        event_proj_b=np.zeros(n),
        decoder=cl.init_params(1, s, m, m, k, rng),
        recon_w=_xavier_kernel(rng, s, s + n, config.cnn1_kernel),
        recon_b=np.zeros(s),
        out_w=_xavier_kernel(rng, 1, s, 1),
        out_b=np.zeros(1),
    )


def init_supervised(config: NetworkConfig, seed=0) -> SupervisedModel:
    rng = np.random.default_rng(seed)
    m, s = config.frame_size, config.hidden_channels
    k = config.conv_kernel
    return SupervisedModel(
        config,
        event_fwd=cl.init_params(1, s, m, m, k, rng),
        event_bwd=cl.init_params(1, s, m, m, k, rng),
        event_merge=cl.init_params(2 * s, s, m, m, k, rng),
        recon_w=_xavier_kernel(rng, s, s, config.cnn1_kernel),
        recon_b=np.zeros(s),
        out_w=_xavier_kernel(rng, 1, s, 1),
        out_b=np.zeros(1),
    )


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def _check_frames(frames, expected_len: int, m: int, what: str):
    if len(frames) != expected_len:
        raise ValueError(f"{what}: expected {expected_len} frames, got {len(frames)}")
    for t, fr in enumerate(frames):
        if np.shape(fr) != (1, m, m):
            raise ValueError(
                f"{what}: frame {t} has shape {np.shape(fr)}, expected {(1, m, m)}")


@dataclass
class _HeadTrace:
    conv: object
    pool: object
    softmax: object
    wta: object
    factor: int


def event_head(hidden, proj_w, proj_b, grid_factor: int = 8):
    """Project hidden channels to class logits, pool to the event grid,
    softmax across classes, keep only the winner, and replicate back up.
    Returns the event map and the trace its backward reads."""
    z, t_conv = tc.conv2d_same(hidden, proj_w, proj_b)
    pooled, t_pool = tc.maxpool2d(z, grid_factor)
    soft, t_soft = tc.channel_softmax(pooled)
    wta, t_wta = tc.channel_wta(soft)
    y = tc.upsample_nn(wta, grid_factor)
    return y, _HeadTrace(t_conv, t_pool, t_soft, t_wta, grid_factor)


def _event_head_backward(trace: _HeadTrace, d_y):
    d_wta = tc.upsample_nn_backward(d_y, trace.factor)
    d_soft = tc.channel_wta_backward(trace.wta, d_wta)
    d_pool = tc.channel_softmax_backward(trace.softmax, d_soft)
    d_z = tc.maxpool2d_backward(trace.pool, d_pool)
    return tc.conv2d_same_backward(trace.conv, d_z)


@dataclass
class _EventBranchTrace:
    fwd_run: cl.UnrollResult
    bwd_run: cl.UnrollResult
    merge_run: cl.UnrollResult


def _bidirectional_features(fwd_params, bwd_params, frames):
    """Unrolls over the target frames and over the reversed frames, run at
    once; the backward reader's hidden states are re-aligned to forward time
    and channel-concatenated with the forward reader's per step."""
    s = fwd_params.state_channels
    h = frames[0].shape[1]
    w = frames[0].shape[2]
    run_f, run_b = lanes.both(
        lambda: cl.unroll(fwd_params, frames, cl.zero_state(s, h, w)),
        lambda: cl.unroll(bwd_params, frames[::-1], cl.zero_state(s, h, w)))
    feats = [tc.concat_channels(f.h, b.h) for f, b in zip(run_f.states, run_b.states[::-1])]
    return feats, run_f, run_b


def _event_branch(model, frames):
    """The merged event-branch unroll, with the traces of every layer."""
    feats, run_f, run_b = _bidirectional_features(model.event_fwd, model.event_bwd, frames)
    s = model.event_fwd.state_channels
    m = frames[0].shape[1]
    merge_run = cl.unroll(model.event_merge, feats, cl.zero_state(s, m, m))
    return merge_run, _EventBranchTrace(run_f, run_b, merge_run)


def _event_branch_backward(model, trace: _EventBranchTrace, d_hidden):
    """BPTT through merge, then split the per-step feature gradients back
    into the forward and backward readers, which run at once; the backward
    reader's share is reversed to its own step order. Consumes the trace.
    Returns the gradients of (event_fwd, event_bwd, event_merge)."""
    g_merge, d_feats, _ = cl.bptt(model.event_merge, trace.merge_run, d_hidden)
    d_fwd_h, d_bwd_h = [], []
    for d in d_feats:
        a, b = tc.concat_channels_backward(d, model.event_fwd.state_channels)
        d_fwd_h.append(a)
        d_bwd_h.append(b)
    g_fwd, g_bwd = lanes.both(lambda: cl.bptt(model.event_fwd, trace.fwd_run, d_fwd_h)[0],
                              lambda: cl.bptt(model.event_bwd, trace.bwd_run, d_bwd_h[::-1])[0])
    return g_fwd, g_bwd, g_merge


def _reader_hiddens(params, frames):
    """One reader's hidden states, forward only. It unrolls one frame at a
    time, so no cell state outlives the next step."""
    state = cl.zero_state(params.state_channels, *frames[0].shape[1:])
    hiddens = []
    for x in frames:
        state = cl.unroll(params, [x], state).final
        hiddens.append(state.h)
    return hiddens


def _merged_hiddens(model, frames):
    """The event branch forward only: yield the merge layer's hidden state
    step by step. Each step's features are built as the merge reads them,
    and no reader or merge state outlives what reads it."""
    fwd, bwd = lanes.both(lambda: _reader_hiddens(model.event_fwd, frames),
                          lambda: _reader_hiddens(model.event_bwd, frames[::-1])[::-1])
    state = cl.zero_state(model.event_merge.state_channels, *frames[0].shape[1:])
    for t in range(len(frames)):
        x = tc.concat_channels(fwd[t], bwd[t])
        fwd[t] = bwd[t] = None
        state = cl.unroll(model.event_merge, [x], state).final
        yield state.h


def detect_events(model: BranchedModel, frames) -> list:
    """Per-frame event maps for a target sequence: bidirectional reading,
    a merging recurrence, then the event head on every hidden state."""
    cfg = model.config
    _check_frames(frames, cfg.target_len, cfg.frame_size, "detect_events")
    return [event_head(h, model.event_proj_w, model.event_proj_b, cfg.grid_factor)[0]
            for h in _merged_hiddens(model, frames)]


@dataclass
class _DecodeStep:
    conv1: object
    tanh_out: np.ndarray
    conv2: object
    sig_out: np.ndarray


def _output_conv(model, x):
    """The two output convolutions (recon conv, tanh, 1x1 conv, sigmoid) on
    one step's features. Returns the map and its trace."""
    a, t_conv1 = tc.conv2d_same(x, model.recon_w, model.recon_b)
    ta = tc.tanh_act(a)
    b, t_conv2 = tc.conv2d_same(ta, model.out_w, model.out_b)
    out = tc.sigmoid(b)
    return out, _DecodeStep(t_conv1, ta, t_conv2, out)


def _output_convs(model, features):
    """``_output_conv`` on each step's features: the per-step maps and
    their traces."""
    maps, steps = [], []
    for x in features:
        out, st = _output_conv(model, x)
        maps.append(out)
        steps.append(st)
    return maps, steps


def _decode_traced(model: BranchedModel, enc_state: cl.CellState, events):
    """Unroll the decoder from the encoder state over zero input frames,
    fusing each hidden state with its event map through the two output
    convolutions."""
    m = model.config.frame_size
    zeros_frame = np.zeros((1, m, m))
    run = cl.unroll(model.decoder, [zeros_frame] * len(events), enc_state)
    frames_out, steps = _output_convs(
        model, (tc.concat_channels(st.h, y) for st, y in zip(run.states, events)))
    return frames_out, run, steps


# ---------------------------------------------------------------------------
# unsupervised forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _UnsupTrace:
    enc_run: cl.UnrollResult
    branch: _EventBranchTrace
    head_traces: list
    dec_run: cl.UnrollResult
    dec_steps: list
    d_pred: list  # per-frame gradient of the loss wrt the reconstruction


@dataclass
class ReconOutput:
    frames: list  # reconstructed target frames, each [1,M,M] in (0,1)
    events: list  # per-frame event maps [n,M,M]
    loss: float
    trace: _UnsupTrace = field(repr=False, default=None)


def forward_unsupervised(model: BranchedModel, frames) -> ReconOutput:
    """Split the input into context + target, run all three branches, and
    score the reconstruction with mean binary cross-entropy."""
    cfg = model.config
    total = cfg.encoder_len + cfg.target_len
    _check_frames(frames, total, cfg.frame_size, "forward_unsupervised")
    context = list(frames[:cfg.encoder_len])
    target = list(frames[cfg.encoder_len:])

    m = cfg.frame_size
    enc_run = cl.unroll(model.encoder, context, cl.zero_state(cfg.hidden_channels, m, m))
    merge_run, branch = _event_branch(model, target)
    events, head_traces = [], []
    for st in merge_run.states:
        y, ht = event_head(st.h, model.event_proj_w, model.event_proj_b, cfg.grid_factor)
        events.append(y)
        head_traces.append(ht)

    recon, dec_run, dec_steps = _decode_traced(model, enc_run.final, events)

    pred = np.stack(recon)
    truth = np.stack([np.asarray(f, dtype=np.float64) for f in target])
    loss, d_pred = tc.bce_loss(pred, truth)
    trace = _UnsupTrace(enc_run, branch, head_traces, dec_run, dec_steps,
                        [d_pred[t] for t in range(len(target))])
    return ReconOutput(recon, events, loss, trace)


def _decode_backward(model, trace_steps, d_frames):
    """Backward through the per-step output convolutions. Returns the conv
    parameter gradients (recon_w, recon_b, out_w, out_b) and a generator of
    per-step gradients on the features the convolutions read. Each step is
    reversed as its gradient is drawn, adding its share to the parameter
    gradients, so they are complete once the generator is drained and only
    one step's feature gradient is built at a time."""
    d_convs = tuple(np.zeros_like(a) for a in (model.recon_w, model.recon_b,
                                               model.out_w, model.out_b))

    def steps():
        for st, d_frame in zip(trace_steps, d_frames):
            d_b = tc.sigmoid_backward(st.sig_out, d_frame)
            d_ta, dw2, db2 = tc.conv2d_same_backward(st.conv2, d_b)
            d_a = tc.tanh_backward(st.tanh_out, d_ta)
            d_merged, dw1, db1 = tc.conv2d_same_backward(st.conv1, d_a)
            for acc, g in zip(d_convs, (dw1, db1, dw2, db2)):
                acc += g
            yield d_merged
    return d_convs, steps()


def backward_unsupervised(model: BranchedModel, out: ReconOutput) -> BranchedModel:
    """Reverse-mode gradients of the reconstruction loss for every
    parameter. Winner-take-all and max-pooling route gradients through
    their winners only. Consumes ``out.trace``."""
    tr, out.trace = out.trace, None
    if tr is None:
        raise ValueError("backward_unsupervised: forward trace missing")
    d_convs, d_features = _decode_backward(model, tr.dec_steps, tr.d_pred)
    s = model.config.hidden_channels
    d_hidden, d_events = zip(*(tc.concat_channels_backward(d, s) for d in d_features))
    tr.dec_steps = None

    # decoder BPTT; its initial-state gradient flows into the encoder
    g_dec, _, d_enc_state = cl.bptt(model.decoder, tr.dec_run, d_hidden)
    enc_d_hidden: list = [None] * model.config.encoder_len
    enc_d_hidden[-1] = d_enc_state.h
    g_enc, _, _ = cl.bptt(model.encoder, tr.enc_run, enc_d_hidden,
                          d_c_final=d_enc_state.c)

    # event path: head backward, then the bidirectional branch
    d_proj_w = np.zeros_like(model.event_proj_w)
    d_proj_b = np.zeros_like(model.event_proj_b)
    d_merge_hidden = []
    for ht, d_y in zip(tr.head_traces, d_events):
        d_h, d_pw, d_pb = _event_head_backward(ht, d_y)
        d_proj_w += d_pw
        d_proj_b += d_pb
        d_merge_hidden.append(d_h)
    tr.head_traces = None
    g_branch = _event_branch_backward(model, tr.branch, d_merge_hidden)
    return BranchedModel(model.config, g_enc, *g_branch, g_dec, d_proj_w, d_proj_b,
                         *d_convs)


# ---------------------------------------------------------------------------
# supervised variant
# ---------------------------------------------------------------------------

@dataclass
class _SupTrace:
    branch: _EventBranchTrace
    steps: list
    d_pred: list


@dataclass
class SupervisedOutput:
    maps: list  # per-frame response maps [1,M,M]
    loss: float
    trace: _SupTrace = field(repr=False, default=None)


def supervised_maps(model: SupervisedModel, frames) -> list:
    """Per-frame response maps of the supervised variant (no loss, no
    trace)."""
    cfg = model.config
    _check_frames(frames, cfg.target_len, cfg.frame_size, "supervised_maps")
    return [_output_conv(model, h)[0] for h in _merged_hiddens(model, frames)]


def window_maps(model, windows):
    """Yield the maps of each window in window order: ``supervised_maps``
    of a supervised model's windows, ``detect_events`` of an unsupervised
    model's target frames. Windows run in pairs through ``lanes.both``, the
    second of each pair on the helper thread where there are two lanes; an
    error in either reaches the caller once both have finished."""
    def maps_of(frames):  # looked up per call, so a rebound function is seen
        if model.kind == "supervised":
            return supervised_maps(model, frames)
        return detect_events(model, frames)

    windows = iter(windows)
    for first in windows:
        second = next(windows, None)
        if second is None:
            yield maps_of(first)
        else:
            yield from lanes.both(lambda: maps_of(first), lambda: maps_of(second))


def forward_supervised(model: SupervisedModel, frames, targets) -> SupervisedOutput:
    cfg = model.config
    _check_frames(frames, cfg.target_len, cfg.frame_size, "forward_supervised")
    merge_run, branch = _event_branch(model, frames)
    maps, steps = _output_convs(model, (st.h for st in merge_run.states))
    if len(targets) != len(maps):
        raise ValueError(
            f"forward_supervised: {len(targets)} targets for {len(maps)} frames")
    pred = np.stack(maps)
    truth = np.stack([np.asarray(t, dtype=np.float64) for t in targets])
    if truth.shape != pred.shape:
        raise ValueError(
            f"forward_supervised: target shape {truth.shape} != map shape {pred.shape}")
    loss, d_pred = tc.bce_loss(pred, truth)
    trace = _SupTrace(branch, steps, [d_pred[t] for t in range(len(maps))])
    return SupervisedOutput(maps, loss, trace)


def backward_supervised(model: SupervisedModel, out: SupervisedOutput) -> SupervisedModel:
    """Gradients of the supervised loss for every parameter. Consumes
    ``out.trace``."""
    tr, out.trace = out.trace, None
    if tr is None:
        raise ValueError("backward_supervised: forward trace missing")
    d_convs, d_features = _decode_backward(model, tr.steps, tr.d_pred)
    d_hidden = list(d_features)
    tr.steps = None
    return SupervisedModel(model.config,
                           *_event_branch_backward(model, tr.branch, d_hidden), *d_convs)


def event_map_ok(y: np.ndarray, grid_factor: int) -> bool:
    """Structural check: block-constant channels, exactly one active class
    per grid cell, active values in (0, 1]."""
    n, m, m2 = y.shape
    if m != m2 or m % grid_factor != 0:
        return False
    g = m // grid_factor
    blocks = y.reshape(n, g, grid_factor, g, grid_factor)
    if (blocks.max(axis=(2, 4)) != blocks.min(axis=(2, 4))).any():
        return False
    per_block = blocks[:, :, 0, :, 0]
    active = per_block != 0
    if (active.sum(axis=0) != 1).any():
        return False
    vals = per_block[active]
    return bool(((vals > 0) & (vals <= 1)).all())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MSCOPE1\n"
_HEADER_LINE_MAX = 1024  # bytes per config header line, newline included


class CheckpointError(ValueError):
    pass


def save_checkpoint(model, path):
    """Binary layout: magic line, key=value config lines, a blank line, then
    one blob per parameter (u32 name length, name, u32 ndim, u32 dims,
    little-endian float64 data)."""
    cfg = asdict(model.config)
    cfg["kind"] = model.kind
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for key in sorted(cfg):
            fh.write(f"{key}={cfg[key]}\n".encode())
        fh.write(b"\n")
        for name, arr in model.named_params():
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated blob: {what}")
    return data


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not UTF-8: {raw[:64]!r}") from exc


def load_checkpoint(path):
    """Rebuild a model from a checkpoint file. Every ``CheckpointError``
    names the file."""
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh)
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc


def _read_checkpoint(fh):
    magic = fh.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    cfg_items: dict = {}
    while True:
        line = fh.readline(_HEADER_LINE_MAX)
        if not line.endswith(b"\n"):
            raise CheckpointError(f"config header line unterminated "
                                  f"or longer than {_HEADER_LINE_MAX} bytes")
        text = _decode(line, "config header line").rstrip("\n")
        if not text:
            break
        if "=" not in text:
            raise CheckpointError(f"malformed config line: {text!r}")
        key, value = text.split("=", 1)
        if key in cfg_items:
            raise CheckpointError(f"duplicate config key '{key}'")
        cfg_items[key] = value

    kind = cfg_items.pop("kind", None)
    if kind not in ("unsupervised", "supervised"):
        raise CheckpointError(f"unknown checkpoint kind: {kind!r}")
    known = asdict(NetworkConfig())
    unknown = set(cfg_items) - set(known)
    if unknown:
        raise CheckpointError(f"unknown config keys: {sorted(unknown)}")
    try:
        config = NetworkConfig(**{k: int(v) for k, v in cfg_items.items()})
    except ValueError as exc:
        raise CheckpointError(f"bad config: {exc}") from exc

    init = init_unsupervised if kind == "unsupervised" else init_supervised
    try:
        model = init(config, seed=0)
    except MemoryError as exc:
        raise CheckpointError(f"{kind} model of {config} does not fit in memory: "
                              f"{exc}") from None
    expected = dict(model.named_params())
    # name length and rank come from the file: bound both before reading
    # what they size
    longest = max(len(name.encode()) for name in expected)
    seen = set()
    while True:
        head = fh.read(4)
        if not head:
            break
        if len(head) != 4:
            raise CheckpointError("truncated blob: name length")
        (name_len,) = struct.unpack("<I", head)
        if name_len > longest:
            raise CheckpointError(f"blob name length {name_len} exceeds the longest "
                                  f"expected name ({longest} bytes)")
        name = _decode(_read_exact(fh, name_len, "blob name"), "blob name")
        if name not in expected:
            raise CheckpointError(f"unexpected blob '{name}' for kind {kind}")
        if name in seen:
            raise CheckpointError(f"duplicate blob '{name}'")
        want = expected[name].shape
        (ndim,) = struct.unpack("<I", _read_exact(fh, 4, f"{name} rank"))
        if ndim != len(want):
            raise CheckpointError(
                f"blob '{name}': rank {ndim} does not match expected {len(want)}")
        shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, f"{name} shape"))
        if tuple(shape) != want:
            raise CheckpointError(
                f"blob '{name}': shape {tuple(shape)} does not match expected {want}")
        count = int(np.prod(shape)) if shape else 1
        raw = _read_exact(fh, count * 8, name)
        expected[name][:] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise CheckpointError(f"missing blobs: {sorted(missing)}")
    return model
