"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps every public module-level function of each
``mitoscope`` layer and rebinds the wrapper wherever the original is bound
inside the package (the module itself, ``from x import y`` sites and the
package namespace). Nothing in the package changes on disk. A span is
(function id, start, end, parent span index, hook info); spans stay in a
list until ``per_layer_metrics`` folds them into the per-layer figures.

The harness's own calls into the package (model init, scoring, output
checks) run inside ``untraced()``: they make no layer spans, only one
``harness`` span, which no layer owns and which counts as unattributed.

Counts that come from shapes (GFLOP, im2col bytes, dataset bytes,
candidate pairs) are computed, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("tensor_core", "conv_lstm", "network", "training", "data_pipeline",
          "postprocess", "evaluation", "cli")
LSTM_LAYERS = ("encoder", "event_fwd", "event_bwd", "event_merge", "decoder")
POINTWISE = ("sigmoid", "sigmoid_backward", "tanh_act", "tanh_backward")
HEAD_OPS = ("maxpool2d", "maxpool2d_backward", "channel_softmax",
            "channel_softmax_backward", "channel_wta", "channel_wta_backward",
            "upsample_nn", "upsample_nn_backward")
NET_FORWARD = ("forward_unsupervised", "forward_supervised", "detect_events",
               "supervised_maps", "encode", "event_head", "reconstruct")
NET_BACKWARD = ("backward_unsupervised", "backward_supervised")
HARNESS = 0  # function id of the ``harness`` spans

_installed = None  # the Tracer whose wrappers are bound, if any


@contextlib.contextmanager
def untraced():
    """Run harness code without layer spans. While a tracer is installed,
    the block is recorded as one ``harness`` span under the current span,
    so it leaves that span's self time and no layer's figures."""
    tracer = _installed
    if tracer is None or tracer._paused:  # only the outermost block is a span
        yield
        return
    stack = tracer._stack
    parent = stack[-1] if stack else -1
    tracer._paused += 1
    start = perf_counter()
    try:
        yield
    finally:
        end = perf_counter()
        tracer._paused -= 1
        tracer.spans.append((HARNESS, start, end, parent, None))


def plain_arrays(obj):
    """Arrays an object holds as plain attributes, lists of arrays included.
    Properties are never evaluated, so a lazy dataset is not materialized."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            yield from (v for v in value if isinstance(v, np.ndarray))


def held_bytes(arrays) -> int:
    """Bytes of the distinct buffers behind ``arrays``; views count once,
    at their root buffer."""
    seen = set()
    total = 0
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        if id(arr) not in seen:
            seen.add(id(arr))
            total += arr.nbytes
    return total


def rebind(pairs) -> list:
    """Bind each replacement wherever its original function is bound inside
    the ``mitoscope`` package: module attributes, ``from x import y`` sites
    and the package namespace. ``pairs`` holds (original, replacement);
    returns the patches for ``unbind``."""
    by_id = {id(orig): (orig, repl) for orig, repl in pairs}
    patches = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "mitoscope" or modname.startswith("mitoscope.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patches.append((mod, attr, obj))
    return patches


def unbind(patches) -> None:
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


def _conv_key(x_shape, k_shape):
    """(cin, cout, k, H, W) plus the leading batch size of a conv call."""
    cout, cin, kh, _ = k_shape
    h, w = x_shape[-2:]
    batch = int(np.prod(x_shape[:-3])) if len(x_shape) > 3 else 1
    return (cin, cout, kh, h, w), batch


def _conv_flop(key, batch) -> float:
    cin, cout, k, h, w = key
    return 2.0 * batch * cout * cin * k * k * h * w


class Tracer:
    def __init__(self):
        self.names: list = ["harness"]  # function id -> "layer.function"
        self.spans: list = []
        self.layer_of: dict = {}  # id(ConvLstmParams) -> layer name
        self._stack: list = []
        self._paused = 0  # > 0 inside untraced()
        self._patches: list = []  # (namespace, attribute, original)
        self._hooks = {
            "tensor_core.conv2d_same": self._conv_hook,
            "tensor_core.conv2d_same_backward": self._conv_backward_hook,
            "conv_lstm.unroll": self._lstm_hook,
            "conv_lstm.bptt": self._lstm_hook,
            "data_pipeline.build_subsequences": lambda a, k, r: (
                len(r), held_bytes(x for sub in r for x in plain_arrays(sub))),
            "data_pipeline.attach_targets": lambda a, k, r: (
                0, held_bytes(t for sub in a[0] for t in vars(sub).get("targets") or [])),
            "postprocess.group_activations": lambda a, k, r: len(r),
            "postprocess.locate_centroid": lambda a, k, r: r is None,
            "postprocess.merge_global": lambda a, k, r: (len(a[0]), len(r)),
            "evaluation.match": lambda a, k, r: len(a[0]) * len(a[1]),
        }
        # calls whose first argument is a model: its recurrent layers are
        # registered before the call so unroll/bptt spans resolve by identity
        self._takes_model = {"training.train"} | {
            f"network.{f}" for f in NET_FORWARD + NET_BACKWARD if f != "event_head"}

    # -- hooks: cheap, run after the span's end time is taken ---------------

    def _register(self, model) -> None:
        for layer in LSTM_LAYERS:
            params = getattr(model, layer, None)
            if params is not None:
                self.layer_of[id(params)] = layer

    def _lstm_hook(self, args, kwargs, result):
        return self.layer_of.get(id(args[0]), "other")

    @staticmethod
    def _conv_hook(args, kwargs, result):
        return _conv_key(np.shape(args[0]), np.shape(args[1]))

    @staticmethod
    def _conv_backward_hook(args, kwargs, result):
        trace = args[0]
        return _conv_key(np.shape(trace.x), np.shape(trace.kernel))

    # -- installation --------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        hook = self._hooks.get(qualname)
        register = self._register if qualname in self._takes_model else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if register is not None and args:
                register(args[0])
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (fid, start, end, parent, None)
            if hook is not None:
                spans[idx] = (fid, start, end, parent, hook(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        wrappers = []
        for layer in LAYERS:
            mod = importlib.import_module(f"mitoscope.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers.append((obj, self._wrap(f"{layer}.{name}", obj)))
        self._patches = rebind(wrappers)
        global _installed
        _installed = self

    def uninstall(self) -> None:
        global _installed
        _installed = None
        unbind(self._patches)
        self._patches = []

    def mark(self) -> int:
        return len(self.spans)


def _scope_totals(names, spans, lo, hi):
    """Per-function totals over spans[lo:hi]: duration, self time, calls,
    hook payloads and the time under root spans other than ``harness``."""
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    child = defaultdict(float)
    for fid, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    roots = 0.0
    for i in range(lo, hi):
        fid, start, end, parent, info = spans[i]
        name = names[fid]
        d = end - start
        dur[name] += d
        self_t[name] += d - child[i]
        calls[name] += 1
        if info is not None:
            infos[name].append(info)
        if parent < lo and fid != HARNESS:
            roots += d
    return dur, self_t, calls, infos, roots


def _nested_in(names, spans, i, group) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if names[spans[parent][0]] in group:
            return True
        parent = spans[parent][3]
    return False


def _scope_metrics(tracer: Tracer, lo: int, hi: int) -> tuple[dict, dict]:
    names, spans = tracer.names, tracer.spans
    dur, self_t, calls, infos, roots = _scope_totals(names, spans, lo, hi)
    ms = lambda name: 1e3 * dur.get(name, 0.0)  # noqa: E731

    def layer_self(layer):
        return 1e3 * sum(v for k, v in self_t.items() if k.startswith(layer + "."))

    conv_table = defaultdict(lambda: [0, 0.0, 0.0, 0.0])  # calls, fwd s, bwd s, flop
    gflop = im2col = 0.0
    for kind in ("tensor_core.conv2d_same", "tensor_core.conv2d_same_backward"):
        backward = kind.endswith("backward")
        for i in range(lo, hi):
            fid, start, end, _, info = spans[i]
            if names[fid] != kind:
                continue
            key, batch = info
            flop = _conv_flop(key, batch) * (2 if backward else 1)
            row = conv_table[key]
            row[0] += 0 if backward else 1
            row[2 if backward else 1] += end - start
            row[3] += flop
            gflop += flop / 1e9
            if not backward:  # the [C_in*k*k, H*W] matrix a forward call builds
                cin, _, k, h, w = key
                im2col += batch * cin * k * k * h * w * 8 / 1e6

    lstm = defaultdict(float)
    for i in range(lo, hi):
        fid, start, end, _, info = spans[i]
        name = names[fid]
        if name in ("conv_lstm.unroll", "conv_lstm.bptt"):
            lstm[f"{name}.{info}.ms"] += 1e3 * (end - start)

    forward = backward = 0.0
    fwd_group = {f"network.{f}" for f in NET_FORWARD}
    bwd_group = {f"network.{f}" for f in NET_BACKWARD}
    for i in range(lo, hi):
        fid, start, end, _, _ = spans[i]
        name = names[fid]
        if name in fwd_group and not _nested_in(names, spans, i, fwd_group):
            forward += 1e3 * (end - start)
        elif name in bwd_group and not _nested_in(names, spans, i, bwd_group):
            backward += 1e3 * (end - start)

    builds = infos.get("data_pipeline.build_subsequences", [])
    targets = infos.get("data_pipeline.attach_targets", [])
    merges = infos.get("postprocess.merge_global", [])
    values = {
        "tensor_core.conv2d_same.calls": calls.get("tensor_core.conv2d_same", 0),
        "tensor_core.conv2d_same.fwd_ms": ms("tensor_core.conv2d_same"),
        "tensor_core.conv2d_same_backward.ms": ms("tensor_core.conv2d_same_backward"),
        "tensor_core.conv2d_same.gflop": gflop,
        "tensor_core.conv2d_same.im2col_mb": im2col,
        "tensor_core.pointwise.ms": sum(ms(f"tensor_core.{f}") for f in POINTWISE),
        "tensor_core.head_ops.ms": sum(ms(f"tensor_core.{f}") for f in HEAD_OPS),
        "tensor_core.bce_loss.ms": ms("tensor_core.bce_loss"),
        **{f"conv_lstm.{kind}.{layer}.ms": lstm.get(f"conv_lstm.{kind}.{layer}.ms", 0.0)
           for kind in ("unroll", "bptt") for layer in LSTM_LAYERS},
        "conv_lstm.step.calls": calls.get("conv_lstm.step", 0),
        "conv_lstm.self_ms": layer_self("conv_lstm"),
        "network.forward.ms": forward,
        "network.backward.ms": backward,
        "network.self_ms": layer_self("network"),
        "network.load_checkpoint.ms": ms("network.load_checkpoint"),
        "training.rmsprop_step.ms": ms("training.rmsprop_step"),
        "training.rmsprop_step.calls": calls.get("training.rmsprop_step", 0),
        "training.train.self_ms": 1e3 * self_t.get("training.train", 0.0),
        "data_pipeline.load_frames.ms": ms("data_pipeline.load_frames"),
        "data_pipeline.build_subsequences.ms": ms("data_pipeline.build_subsequences"),
        "data_pipeline.attach_targets.ms": ms("data_pipeline.attach_targets"),
        "data_pipeline.subsequences": sum(n for n, _ in builds),
        "data_pipeline.dataset_mb": sum(b for _, b in builds + targets) / 1e6,
        "postprocess.rank_classes.ms": ms("postprocess.rank_classes"),
        "postprocess.group_activations.ms": ms("postprocess.group_activations"),
        "postprocess.group_activations.patches":
            sum(infos.get("postprocess.group_activations", [])),
        "postprocess.locate_centroid.ms": ms("postprocess.locate_centroid"),
        "postprocess.locate_centroid.calls": calls.get("postprocess.locate_centroid", 0),
        "postprocess.locate_centroid.skipped":
            sum(infos.get("postprocess.locate_centroid", [])),
        "postprocess.threshold_detections.ms": ms("postprocess.threshold_detections"),
        "postprocess.merge_global.ms": ms("postprocess.merge_global"),
        "postprocess.merge_global.in": sum(n for n, _ in merges),
        "postprocess.merge_global.out": sum(n for _, n in merges),
        "evaluation.match.ms": ms("evaluation.match"),
        "evaluation.match.candidates": sum(infos.get("evaluation.match", [])),
        "cli.self_ms": layer_self("cli"),
    }
    return values, {"roots_s": roots, "conv_table": dict(conv_table)}


def per_layer_metrics(tracer: Tracer, setup_scope, pass_scopes, pass_walls,
                      untraced_walls) -> tuple[dict, list]:
    """Per-layer figures for one traced set-up plus the mean traced pass,
    the unattributed remainder of a pass, the tracing overhead against the
    untraced passes of the same run, and the per-shape conv table."""
    setup_vals, setup_extra = _scope_metrics(tracer, *setup_scope)
    n = len(pass_scopes)
    totals: dict = defaultdict(float)
    table = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
    for key, row in setup_extra["conv_table"].items():
        for j in range(4):
            table[key][j] += row[j]
    roots = 0.0
    for lo, hi in pass_scopes:
        vals, extra = _scope_metrics(tracer, lo, hi)
        for k, v in vals.items():
            totals[k] += v / n
        roots += extra["roots_s"]
        for key, row in extra["conv_table"].items():
            for j in range(4):
                table[key][j] += row[j] / n
    values = {k: setup_vals[k] + totals[k] for k in setup_vals}
    conv_ms = (values["tensor_core.conv2d_same.fwd_ms"]
               + values["tensor_core.conv2d_same_backward.ms"])
    values["tensor_core.conv2d_same.gflop_per_s"] = (
        values["tensor_core.conv2d_same.gflop"] / (conv_ms / 1e3) if conv_ms > 0 else 0.0)
    mean_wall = sum(pass_walls) / n
    values["trace.pass_ms"] = 1e3 * mean_wall
    values["trace.unattributed_ms"] = 1e3 * (mean_wall - roots / n)
    traced = float(np.median(pass_walls))
    untraced = float(np.median(untraced_walls))
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    rows = [{"cin": k[0], "cout": k[1], "k": k[2], "H": k[3], "W": k[4],
             "calls": r[0], "fwd_ms": 1e3 * r[1], "bwd_ms": 1e3 * r[2],
             "gflop_computed": r[3] / 1e9}
            for k, r in sorted(table.items())]
    return values, rows
