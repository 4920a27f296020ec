"""Batch command-line front end.

Subcommands wire the library into reproducible runs:

    mitoscope synth  --config C --out DIR
    mitoscope train  --config C --frames DIR --mode unsup|sup --out model.ckpt
    mitoscope detect --model model.ckpt --frames DIR [--range A:B]
                     [--division-class K] --out detections.csv
    mitoscope eval   --detections D.csv --annotations A.csv --out scores.csv
                     --hist hist.csv

A run's outputs are its checkpoint and CSV files: ``train`` writes
``loss.csv`` (``epoch,mean_loss``) next to the checkpoint, and ``eval`` its
scores and the ``--hist`` timing histogram (``dframe,count``). Every
command echoes its effective configuration to an ``effective_config.ini``
next to its outputs, and is deterministic given that configuration, whose
``[training]`` and ``[synth]`` seeds are the only seeds. ``detect`` runs its
windows through ``network.window_maps``, two at a time, and reduces them in
window order. The unsupervised brightness-rise score maps are computed once
per spatial window, over the stack its windows are views of, and each window
with a patch of the classes asked for reads its slice. A frame range that is
empty, outside the video or shorter than one window, or a ``[data]`` cut
whose frame size is not the model's, is a usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data_pipeline as dp
from . import evaluation as ev
from . import network as net
from . import postprocess as pp
from .training import TrainConfig, train

__all__ = ["RunConfig", "DataConfig", "PostprocessConfig", "EvalConfig",
           "load_run_config", "format_run_config", "main"]


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class DataConfig:
    window_size: int = 256
    window_step: int = 128
    downsample: int = 4
    augment: bool = True

    def __post_init__(self):
        dp.check_windowing(self.window_size, self.window_step, self.downsample)


@dataclass
class PostprocessConfig:
    lookahead: int = 2
    disc_radius: float = 5.0
    threshold: float = 0.7
    merge_spatial: float = 10.0
    merge_temporal: int = 2

    def __post_init__(self):
        dp.check_fields(self, {"lookahead": (lambda v: v >= 1, ">= 1"),
                                "disc_radius": dp.FINITE_NONNEG,
                                "threshold": (lambda v: 0 < v < 1, "in (0,1)"),
                                "merge_spatial": dp.FINITE_NONNEG,
                                "merge_temporal": dp.FINITE_NONNEG})


@dataclass
class EvalConfig:
    spatial_th: float = 10.0

    def __post_init__(self):
        dp.check_fields(self, {"spatial_th": dp.FINITE_NONNEG})


@dataclass
class RunConfig:
    network: net.NetworkConfig = field(default_factory=net.NetworkConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    synth: dp.SyntheticConfig = field(default_factory=dp.SyntheticConfig)
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)


def _parse_value(raw: str, default):
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, int):
        return int(raw)
    raise ValueError(f"unsupported config value {raw!r}")


def load_run_config(path=None) -> RunConfig:
    """Parse a sectioned key=value file against the defaults; unknown
    sections or keys are rejected."""
    cfg = RunConfig()
    if path is None:
        return cfg
    # no default section, so a [DEFAULT] header is an unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise UsageError(f"{path}: malformed config: {exc}") from exc
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for section_name in parser.sections():
        if section_name not in sections:
            raise UsageError(f"{path}: unknown config section [{section_name}]")
        target = sections[section_name]
        defaults = {f.name: getattr(type(target)(), f.name) for f in fields(target)}
        values = {}
        for key, raw in parser.items(section_name):
            if key not in defaults:
                raise UsageError(f"{path}: unknown key '{key}' in [{section_name}]")
            try:
                values[key] = _parse_value(raw, defaults[key])
            except ValueError as exc:
                raise UsageError(f"{path}: bad value for {section_name}.{key}: {exc}")
        try:  # the section's constructor checks its invariants
            setattr(cfg, section_name, replace(target, **values))
        except ValueError as exc:
            raise UsageError(f"{path}: bad [{section_name}] section: {exc}") from exc
    return cfg


def format_run_config(cfg: RunConfig) -> str:
    """Canonical echo: every section, every key, effective values."""
    lines = []
    for f in fields(cfg):
        section = getattr(cfg, f.name)
        lines.append(f"[{f.name}]")
        for sf in fields(section):
            lines.append(f"{sf.name} = {getattr(section, sf.name)}")
        lines.append("")
    return "\n".join(lines)


def _write_effective_config(cfg: RunConfig, directory) -> None:
    Path(directory).mkdir(parents=True, exist_ok=True)
    (Path(directory) / "effective_config.ini").write_text(format_run_config(cfg))


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_detections(detections, path) -> None:
    _write_csv(path, ["frame", "x", "y", "class", "score"],
               ([d.frame, d.x, d.y, d.class_id, repr(d.score)] for d in detections))


def load_detections(path) -> list:
    dets = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["frame", "x", "y",
                                                             "class", "score"]:
            raise ValueError(f"{path}: expected header 'frame,x,y,class,score'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                dets.append(pp.Detection(int(row[0]), int(row[1]), int(row[2]),
                                         int(row[3]), float(row[4])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {row}") from None
    return dets


def _parse_range(raw: str | None, count: int, option: str, net_cfg, mode: str) -> tuple:
    """Frames ``lo, hi`` of ``option`` (half-open, 0-based; the whole video
    when not given), long enough for one window of ``mode``."""
    lo, hi = 0, count
    if raw is not None:
        try:
            lo_s, hi_s = raw.split(":")
            lo = int(lo_s) if lo_s else 0
            hi = int(hi_s) if hi_s else count
        except ValueError:
            raise UsageError(f"bad {option} {raw!r}, expected A:B (half-open, 0-based)")
        if hi <= lo:
            raise UsageError(f"{option} {lo}:{hi} is empty")
        if not (0 <= lo and hi <= count):
            raise UsageError(f"{option} {lo}:{hi} outside video of {count} frames")
    need = _window_length(net_cfg, mode)
    if hi - lo < need:
        parts = f"target_len {net_cfg.target_len}"
        if mode == "unsup":
            parts = f"encoder_len {net_cfg.encoder_len} + {parts}"
        got = (f"{option} {lo}:{hi} has {hi - lo} frames" if raw is not None
               else f"the video has {count} frames and no {option} is given")
        raise UsageError(f"{got}; {mode} windows need {need} ({parts})")
    return lo, hi


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    video, annotations = dp.synth_generate(cfg.synth)
    out = Path(args.out)
    dp.export_video(video, annotations, out)
    _write_effective_config(cfg, out)
    print(f"wrote {video.count} frames of {video.width}x{video.height} and "
          f"{len(annotations)} annotations to {out}")
    return 0


def _window_length(net_cfg, mode) -> int:
    return net_cfg.target_len if mode == "sup" else net_cfg.encoder_len + net_cfg.target_len


def _check_frame_size(cfg: RunConfig, model_side: str) -> None:
    size, ds, m = cfg.data.window_size, cfg.data.downsample, cfg.network.frame_size
    if size // ds != m:
        raise UsageError(f"[data] window_size {size} / downsample {ds} = {size // ds}, "
                         f"not {model_side} frame_size {m}")


def _build_dataset(cfg: RunConfig, video, frame_range, mode, augmented):
    return dp.build_subsequences(
        video, frame_range=frame_range, window_size=cfg.data.window_size,
        window_step=cfg.data.window_step, downsample=cfg.data.downsample,
        length=_window_length(cfg.network, mode), augmented=augmented)


def cmd_train(args) -> int:
    if args.mode == "sup" and args.annotations is None:
        raise UsageError("supervised training requires --annotations")
    cfg = load_run_config(args.config)
    _check_frame_size(cfg, "[network]")
    if args.epochs is not None:
        try:
            cfg.training = replace(cfg.training, epochs=args.epochs)
        except ValueError as exc:
            raise UsageError(f"--epochs: {exc}") from exc
    video = dp.load_frames(args.frames)
    frame_range = _parse_range(args.train_range, video.count, "--train-range",
                               cfg.network, args.mode)

    subs = _build_dataset(cfg, video, frame_range, args.mode, cfg.data.augment)
    if args.mode == "sup":
        annotations = dp.load_annotations(args.annotations, video.width, video.height)
        dp.attach_targets(subs, annotations, target_offset=0)
        model = net.init_supervised(cfg.network, seed=cfg.training.seed)
        mode = "supervised"
    else:
        model = net.init_unsupervised(cfg.network, seed=cfg.training.seed)
        mode = "unsupervised"

    def report(epoch, loss, _model):
        print(f"epoch {epoch + 1}/{cfg.training.epochs} mean loss {loss:.6f}")

    model, losses = train(model, subs, cfg.training, mode=mode, epoch_callback=report)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    net.save_checkpoint(model, out)
    _write_csv(out.parent / "loss.csv", ["epoch", "mean_loss"],
               ([i + 1, repr(loss)] for i, loss in enumerate(losses)))
    _write_effective_config(cfg, out.parent)
    print(f"trained {mode} model on {len(subs)} subsequences; checkpoint at {out}")
    return 0


def cmd_detect(args) -> int:
    cfg = load_run_config(args.config)
    model = net.load_checkpoint(args.model)
    cfg.network = model.config
    mode = "sup" if model.kind == "supervised" else "unsup"
    n, k = model.config.event_classes, args.division_class
    if k is not None and mode == "sup":
        raise UsageError("--division-class applies only to unsupervised checkpoints")
    if k is not None and not 0 <= k < n:
        raise UsageError(f"--division-class {k} out of range for {n} classes")
    _check_frame_size(cfg, f"checkpoint {args.model}")
    video = dp.load_frames(args.frames)
    frame_range = _parse_range(args.range, video.count, "--range", cfg.network, mode)
    post = cfg.postprocess
    subs = _build_dataset(cfg, video, frame_range, mode, augmented=False)

    # Windows run in pairs, so two windows' maps are live at once. Each
    # window's maps are reduced in window order as they come and dropped
    # when the next window's replace them. Dropped any sooner, the heap is
    # trimmed between windows and each forward re-faults its scratch
    # (unsup desk: 10x faults).
    # A window with no patch of the classes asked for is skipped. The
    # disc-mean score maps are computed once per spatial window, over the
    # stack its subsequences are views of, when the first of its windows
    # with a patch arrives; each window reads its slice of them.
    enc, g = cfg.network.encoder_len, cfg.network.grid_factor
    classes = range(n) if k is None else [k]
    first = 0 if mode == "sup" else enc
    windows = (list(sub.frames[first:]) for sub in subs)
    detections, skipped = [], 0
    stack = stack_maps = None
    for sub, maps in zip(subs, net.window_maps(model, windows)):
        if mode == "sup":
            detections += pp.threshold_detections(maps, sub, post.threshold)
            continue
        grid = pp.class_grid(maps, g)
        if not np.isin(grid, classes).any():
            continue
        if sub.frames.base is not stack:
            stack = sub.frames.base
            stack_maps = pp.disc_mean_maps(stack, post.lookahead, post.disc_radius)
        start = sub.t0 - frame_range[0]
        dets, skips = pp.window_detections(grid, sub, classes,
                                           stack_maps[start:start + len(sub.frames)],
                                           post.lookahead, g, frame_offset=enc)
        detections += dets
        skipped += skips

    if mode == "unsup" and k is None:
        print("class  mean_score    patches")
        for class_id, score, count in pp.rank_classes(detections):
            print(f"{class_id:5d}  {score:.6f}  {count:9d}")
        print("pick an event class and re-run with --division-class K")
        return 2
    if skipped:
        print(f"skipped {skipped} patches too close to a window end for the "
              f"{post.lookahead}-frame lookahead")

    merged = pp.merge_global(detections, post.merge_spatial, post.merge_temporal)
    for d in merged:
        if not (0 <= d.x < video.width and 0 <= d.y < video.height):
            raise RuntimeError(f"detection outside video bounds: {d}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_detections(merged, out)
    _write_effective_config(cfg, out.parent)
    print(f"{len(merged)} detections (from {len(detections)} raw) written to {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    detections = load_detections(args.detections)
    annotations = dp.load_annotations(args.annotations)
    thresholds = args.th or [1, 3]
    for th in thresholds:
        if th < 0:
            raise UsageError(f"--th {th} must be >= 0")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    results = {}
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["th", "precision", "recall", "f1", "tp", "fp", "fn"])
        for th in thresholds:
            result = ev.match(detections, annotations,
                              spatial_th=cfg.evaluation.spatial_th, temporal_th=th)
            scores = ev.prf1(result)
            results[th] = result
            writer.writerow([th, f"{scores.precision:.6f}", f"{scores.recall:.6f}",
                             f"{scores.f1:.6f}", scores.tp, scores.fp, scores.fn])
            print(f"th={th}: precision {scores.precision:.3f} recall {scores.recall:.3f} "
                  f"f1 {scores.f1:.3f} (tp={scores.tp} fp={scores.fp} fn={scores.fn})")

    Path(args.hist).parent.mkdir(parents=True, exist_ok=True)
    _write_csv(args.hist, ["dframe", "count"], ev.timing_histogram(results[max(thresholds)]))
    _write_effective_config(cfg, out.parent)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mitoscope",
        description="Cell-video reconstruction and event detection, batch style.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dividing-blob video")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a frame directory")
    p.add_argument("--config", default=None)
    p.add_argument("--frames", required=True)
    p.add_argument("--annotations", default=None)
    p.add_argument("--mode", choices=("unsup", "sup"), required=True)
    p.add_argument("--train-range", default=None, metavar="A:B")
    p.add_argument("--epochs", type=int, default=None,
                   help="override the configured epoch count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run detection with a trained checkpoint")
    p.add_argument("--config", default=None)
    p.add_argument("--model", required=True)
    p.add_argument("--frames", required=True)
    p.add_argument("--range", default=None, metavar="A:B")
    p.add_argument("--division-class", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score detections against annotations")
    p.add_argument("--config", default=None)
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--th", type=int, action="append",
                   help="temporal threshold in frames; repeatable (default 1 and 3)")
    p.add_argument("--out", required=True)
    p.add_argument("--hist", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, net.CheckpointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc}); sizes are set by [network] hidden_channels, "
              "event_classes, frame_size and [synth] frame_size, frame_count", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
