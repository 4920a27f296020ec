"""The benchmark workloads.

Each workload has four phases:

* ``prepare`` makes every input from the seed (synthetic videos, PGM
  directories, configs). It is never timed.
* ``setup`` runs the program from ingestion up to the first timed op. The
  runner repeats it and reports the median as ``setup_s``.
* ``run_pass`` runs one closed-loop pass: the reps of each route
  (``sup``, ``unsup``), each starting when the previous one returns. A rep
  does a fixed amount of work, so every rep of a route with the same
  ``key`` must give the same outputs.
* ``score`` runs after the last pass, untimed, and fills in each route's
  score on its first rep.

A rep reports its ops (training samples or detect windows), the seconds
those ops took, a score and its check failures. The harness's own calls
into the package run inside ``tracer.untraced()``, so a traced run counts
only the program's work in the layers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mitoscope import cli
from mitoscope import data_pipeline as dp
from mitoscope import network as net
from mitoscope import postprocess as pp
from mitoscope import training

from tracer import rebind, untraced

ROUTES = ("sup", "unsup")
TRAIN_MODE = {"sup": "supervised", "unsup": "unsupervised"}

# acceptance-suite recipes (tests/test_acceptance.py, criteria 6 and 7)
DESK_SYNTH = dict(division_prob=0.1, blob_count=10, blob_radius=3.0)
DESK_SUP = net.NetworkConfig(frame_size=64, hidden_channels=6, event_classes=4,
                             encoder_len=5, target_len=10)
DESK_UNSUP = net.NetworkConfig(frame_size=64, hidden_channels=4, event_classes=4,
                               encoder_len=5, target_len=10)
DESK_SUP_TRAIN = dict(learning_rate=1e-3, seed=0)
DESK_UNSUP_TRAIN = dict(learning_rate=5e-4, seed=0)
DESK_SUP_SUBS = dict(window_size=64, window_step=64, downsample=1, length=10)
DESK_UNSUP_SUBS = dict(window_size=64, window_step=64, downsample=1, length=15,
                       temporal_step=2)

# paper geometry (PAPER.md): 1392x1040 video, 256-px windows stepping 128,
# x4 block-mean downsampling to 64x64 model frames, S=32, n=16
PAPER_W, PAPER_H, PAPER_DS = 1392, 1040, 4
PAPER_BLOBS, PAPER_DIVISIONS = 150, 6  # cells, and divisions per frame
PAPER_NET = net.NetworkConfig()
PAPER_DATA = dict(window_size=256, window_step=128, downsample=PAPER_DS)

# the harness writes this config itself: the README's configs/synth64.ini
# does not exist and configs/example.ini has paper-scale windows
DESK_INI = """[data]
window_size = 64
window_step = 64
downsample = 1
augment = false
"""

MATCH_FRAMES = 3


@dataclass
class Rep:
    ops: int
    seconds: float
    score: float | None  # None until ``score`` fills it in
    fingerprint: object  # must repeat exactly across reps of a route with one key
    failures: list = field(default_factory=list)
    key: object = None  # the input the rep ran on, where a route has several


class EventMapCheck:
    """Checks ``network.event_map_ok`` on every event map that
    ``detect_events`` and ``forward_unsupervised`` return, wherever the
    package calls them. Failures collect in ``failures``."""

    def __init__(self):
        self.failures: list = []
        ok = net.event_map_ok

        def checked(fn, maps_of):
            @functools.wraps(fn)
            def wrapper(model, *args, **kwargs):
                out = fn(model, *args, **kwargs)
                grid = model.config.grid_factor
                with untraced():
                    good = all(ok(y, grid) for y in maps_of(out))
                if not good:
                    self.failures.append(f"{fn.__name__}: malformed event map")
                return out
            return wrapper

        rebind([(net.detect_events, checked(net.detect_events, lambda out: out)),
                (net.forward_unsupervised,
                 checked(net.forward_unsupervised, lambda out: out.events))])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _add_blob(img, x: float, y: float, amp: float, sigma: float) -> None:
    r = int(4 * sigma) + 1
    x0, x1 = max(0, int(x) - r), min(img.shape[1], int(x) + r + 1)
    y0, y1 = max(0, int(y) - r), min(img.shape[0], int(y) + r + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    img[y0:y1, x0:x1] += amp * np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / (2 * sigma ** 2))


def paper_video(seed: int, frames: int):
    """A synthetic video at paper geometry.

    Cells are drawn on a 348x260 grid, then upsampled x4 to 1392x1040, so
    x4 block means of the aligned windows give back desk-like 64x64 frames.
    ``PAPER_BLOBS`` cells drift on random walks; from frame 3 on,
    ``PAPER_DIVISIONS`` cells per frame divide at seeded positions: a cell
    shows up two frames early, brightens and shrinks one frame early, then
    splits into two bright daughters that fade. The annotation is the split frame at the
    midpoint, mapped to the centre of its 4x4 pixel block. Drawing only
    near each cell keeps generation to about a second, where
    ``synth_generate`` at this size takes about five.
    """
    rng = np.random.default_rng(seed)
    h, w, ds = PAPER_H // PAPER_DS, PAPER_W // PAPER_DS, PAPER_DS
    sigma, base, peak, margin = 3.0 / 1.6, 0.4, 0.9, 8.0
    pos = rng.uniform((margin, margin), (w - margin, h - margin),
                      size=(PAPER_BLOBS, 2))
    events = [(ta, *rng.uniform((margin, margin), (w - margin, h - margin)),
               rng.uniform(0, np.pi))
              for ta in range(3, frames) for _ in range(PAPER_DIVISIONS)]
    video = []
    for t in range(frames):
        pos = np.clip(pos + rng.normal(0, 0.3, pos.shape), margin,
                      (w - margin, h - margin))
        img = np.full((h, w), 0.03)
        for x, y in pos:
            _add_blob(img, x, y, base, sigma)
        for ta, x, y, angle in events:
            d = t - ta
            if d in (-3, -2):
                _add_blob(img, x, y, base, sigma)
            elif d == -1:
                _add_blob(img, x, y, base + 0.5 * (peak - base), 0.85 * sigma)
            elif 0 <= d <= 3:
                dx, dy = 2.25 * np.cos(angle), 2.25 * np.sin(angle)
                amp = base + (peak - base) * 0.5 ** d
                _add_blob(img, x - dx, y - dy, amp, 0.85 * sigma)
                _add_blob(img, x + dx, y + dy, amp, 0.85 * sigma)
        small = (np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        video.append(np.repeat(np.repeat(small, ds, axis=0), ds, axis=1))
    annotations = [(ta, ds * int(round(x)) + ds // 2, ds * int(round(y)) + ds // 2)
                   for ta, x, y, _ in events]
    return dp.VideoSource.from_arrays(video), annotations


def params_finite(model) -> bool:
    # RMSProp turns any non-finite gradient into a non-finite parameter, so
    # finite parameters after a rep also mean every gradient norm was finite
    return all(np.isfinite(a).all() for _, a in model.named_params())


def params_digest(model) -> str:
    h = hashlib.sha256()
    for name, arr in model.named_params():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def mean_loss(model, subset, mode: str) -> float:
    """Mean loss of ``model`` over ``subset``, forward only, on the frames
    ``training.train`` feeds it."""
    total = 0.0
    for sub in subset:
        frames = list(sub.frames)
        if mode == "unsupervised":
            total += net.forward_unsupervised(model, frames).loss
        else:
            frames = frames[-model.config.target_len:]
            total += net.forward_supervised(model, frames, sub.targets).loss
    return total / len(subset)


def seeded_subset(items, k: int, seed: int) -> list:
    idx = np.random.default_rng(seed).choice(len(items), size=min(k, len(items)),
                                             replace=False)
    return [items[i] for i in sorted(idx)]


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

class _Train:
    """Reps of ``training.train`` for one epoch over a fixed seeded subset,
    each from the same freshly initialized model, so every rep must end with
    the same mean loss and bit-identical parameters.

    A route's score is the relative drop of the mean loss over its subset,
    from the initial model to the model its first rep trained:
    1 - loss after / loss before. A backward pass or optimizer that makes
    less progress lowers it, and training that does not lower the loss at
    all fails the rep."""

    sup_config: net.NetworkConfig
    unsup_config: net.NetworkConfig
    sup_train: dict
    unsup_train: dict
    per_rep: dict  # route -> samples per rep
    setup_in_pass = False

    def __init__(self):
        self.trained: dict = {}  # route -> the model its first rep trained

    def _init_model(self, route: str):
        if route == "sup":
            return net.init_supervised(self.sup_config, seed=0)
        return net.init_unsupervised(self.unsup_config, seed=0)

    def _train_rep(self, route: str, subset) -> Rep:
        with untraced():
            model = self._init_model(route)
        cfg = training.TrainConfig(
            epochs=1, **(self.sup_train if route == "sup" else self.unsup_train))
        start = perf_counter()
        _, losses = training.train(model, subset, cfg, mode=TRAIN_MODE[route])
        seconds = perf_counter() - start
        loss = losses[0]
        failures = []
        if not math.isfinite(loss):
            failures.append(f"{route}: non-finite loss {loss}")
        if not params_finite(model):
            failures.append(f"{route}: non-finite parameter after training")
        self.trained.setdefault(route, model)
        return Rep(len(subset), seconds, None, (loss, params_digest(model)), failures)

    def run_pass(self, state) -> dict:
        return {route: [self._train_rep(route, state[route])] for route in ROUTES}

    def score(self, state, reps: dict) -> None:
        with untraced():
            for route, route_reps in reps.items():
                if not route_reps:
                    continue
                mode = TRAIN_MODE[route]
                before = mean_loss(self._init_model(route), state[route], mode)
                after = mean_loss(self.trained[route], state[route], mode)
                first = route_reps[0]
                first.score = 1.0 - after / before
                if not after < before:
                    first.failures.append(
                        f"{route}: training did not lower the loss on its own samples "
                        f"({before!r} -> {after!r})")


class DeskTrain(_Train):
    sup_config, unsup_config = DESK_SUP, DESK_UNSUP
    sup_train, unsup_train = DESK_SUP_TRAIN, DESK_UNSUP_TRAIN
    per_rep = {"sup": 2, "unsup": 2}
    frames = 40

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.dir = work / "video"
        video, annotations = dp.synth_generate(
            dp.SyntheticConfig(seed=seed, frame_count=self.frames, **DESK_SYNTH))
        dp.export_video(video, annotations, self.dir)

    def setup(self):
        video = dp.load_frames(self.dir)
        annotations = dp.load_annotations(self.dir / "annotations.csv",
                                          video.width, video.height)
        sup = dp.build_subsequences(video, **DESK_SUP_SUBS)
        dp.attach_targets(sup, annotations, target_offset=0)
        unsup = dp.build_subsequences(video, **DESK_UNSUP_SUBS)
        return {"sup": seeded_subset(sup, self.per_rep["sup"], self.seed),
                "unsup": seeded_subset(unsup, self.per_rep["unsup"], self.seed + 1)}


class PaperTrain(_Train):
    sup_config = unsup_config = PAPER_NET
    sup_train = unsup_train = dict(seed=0)
    per_rep = {"sup": 1, "unsup": 1}
    # 19 frames -> 80 windows x 5 starts x 6 augmentations = 2400 eager
    # 15-frame subsequences, about 1.2 GB: the largest allocation here
    frames = 19

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.dir = work / "video"
        video, annotations = paper_video(seed, self.frames)
        dp.export_video(video, annotations, self.dir)

    def setup(self):
        video = dp.load_frames(self.dir)
        annotations = dp.load_annotations(self.dir / "annotations.csv",
                                          video.width, video.height)
        index = dp.build_subsequences(video, length=15, augmented=True, **PAPER_DATA)
        unsup = seeded_subset(index, self.per_rep["unsup"], self.seed)
        # supervised training reads the target tail of a full-length window
        sup = seeded_subset(index, self.per_rep["sup"], self.seed + 1)
        dp.attach_targets(sup, annotations, target_offset=PAPER_NET.encoder_len)
        # the whole index stays alive while training, as in ``mitoscope train``
        return {"sup": sup, "unsup": unsup, "index": index}


# ---------------------------------------------------------------------------
# desk detection through the CLI
# ---------------------------------------------------------------------------

def _counts_at(scores_csv: Path, th: int) -> tuple:
    """(tp, fp, fn) of the ``eval`` row for ``th``."""
    with open(scores_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if int(row["th"]) == th:
            return int(row["tp"]), int(row["fp"]), int(row["fn"])
    raise ValueError(f"{scores_csv}: no row for th={th}")


def _top_class(text: str):
    """First data row of the ranking table ``detect`` prints without
    --division-class."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.split()[:1] == ["class"]:
            for row in lines[i + 1:]:
                head = row.split()[:1]
                if head and head[0].isdigit():
                    return int(head[0])
            break
    return None


def check_detections(dets, width: int, height: int, frames: tuple) -> list:
    """Every detection inside the video and the processed frame range, and
    ``merge_global`` idempotent on its own output."""
    failures = []
    lo, hi = frames
    for d in dets:
        if not (0 <= d.x < width and 0 <= d.y < height and lo <= d.frame < hi):
            failures.append(f"detection outside the video: {d}")
            break
    if pp.merge_global(dets, 10.0, 2) != list(dets):
        failures.append("merge_global is not idempotent on its own output")
    return failures


class DeskDetect:
    """The README's detect and eval flow, driven in-process through
    ``mitoscope.cli.main`` with the fixture checkpoints, on the held-out
    second half (frames 40:80) of the fixtures' own synthetic video, cut
    into two clips of 20 frames. A rep is one route's flow on one clip,
    scored against that clip's annotations; a pass runs every clip on both
    routes. Short reps give each run several per route, so the median
    rate passes over a slow spell of the machine that a long rep would
    absorb. A route's score is the F1 of the counts summed over the clips.

    The input does not depend on the seed. On fresh seeded videos the
    unsupervised F1 swung between 0.29 and 0.80 across 16 seeds (about ten
    divisions per video), wider than any usable bound, so the score uses
    one fixed held-out test set.

    Every detect invocation loads its own checkpoint and frames, so the
    passes repeat the set-up: a traced run keeps it out of the per-layer
    figures."""

    video_frames = 80
    clips = ((40, 60), (60, 80))
    setup_in_pass = True

    def __init__(self, fixtures: dict):
        self.fixtures = fixtures  # route -> (path, sha256)
        self.counts: dict = {}  # (route, clip) -> (tp, fp, fn) of its first rep

    def prepare(self, seed: int, work: Path) -> None:
        for path, digest in self.fixtures.values():
            got = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            if got != digest:
                raise RuntimeError(f"fixture {path} has sha256 {got}, expected {digest}")
        video, annotations = dp.synth_generate(dp.SyntheticConfig(
            seed=1, frame_count=self.video_frames, **DESK_SYNTH))
        self.work = work
        for lo, hi in self.clips:
            dp.export_video(video, [a for a in annotations if lo <= a[0] < hi],
                            self._frames(lo, hi))
        self.config = work / "desk.ini"
        self.config.write_text(DESK_INI)
        self.width, self.height = video.width, video.height

    def _frames(self, lo: int, hi: int) -> Path:
        return self.work / f"frames-{lo}-{hi}"

    def setup(self) -> None:
        """What ``mitoscope detect`` does before its first forward pass, for
        each route and clip: read the config, load the checkpoint and the
        frames, and build the detect windows of the clip."""
        for path, _ in self.fixtures.values():
            for lo, hi in self.clips:
                cfg = cli.load_run_config(self.config)
                model = net.load_checkpoint(path)
                video = dp.load_frames(self._frames(lo, hi))
                length = model.config.target_len
                if model.kind != "supervised":
                    length += model.config.encoder_len
                dp.build_subsequences(video, frame_range=(lo, hi),
                                      window_size=cfg.data.window_size,
                                      window_step=cfg.data.window_step,
                                      downsample=cfg.data.downsample, length=length)

    def _cli(self, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main([str(a) for a in argv])
        return rc, buf.getvalue()

    def _route(self, route: str, lo: int, hi: int) -> Rep:
        model, _ = self.fixtures[route]
        frames = self._frames(lo, hi)
        out = self.work / "out" / f"{route}-{lo}-{hi}"
        dets_csv = out / "detections.csv"
        common = ("--config", self.config, "--model", model, "--frames", frames,
                  "--range", f"{lo}:{hi}")
        failures = []
        start = perf_counter()
        if route == "unsup":
            rc, text = self._cli("detect", *common, "--out", dets_csv)
            top = _top_class(text)
            if top is None:
                failures.append(f"unsup ranking not printed (rc {rc}): {text[-200:]!r}")
                top = 0
            rc, text = self._cli("detect", *common, "--division-class", top,
                                 "--out", dets_csv)
        else:
            rc, text = self._cli("detect", *common, "--out", dets_csv)
        if rc != 0:
            failures.append(f"{route} detect exited {rc}: {text[-200:]!r}")
        rc_eval, text = self._cli("eval", "--config", self.config, "--detections", dets_csv,
                                  "--annotations", frames / "annotations.csv",
                                  "--th", MATCH_FRAMES, "--out", out / "scores.csv",
                                  "--hist", out / "hist.csv")
        seconds = perf_counter() - start
        if rc_eval != 0:
            failures.append(f"{route} eval exited {rc_eval}: {text[-200:]!r}")
            return Rep(0, seconds, None, None, failures, key=lo)
        with untraced():
            dets = cli.load_detections(dets_csv)
            failures += check_detections(dets, self.width, self.height, (lo, hi))
        self.counts.setdefault((route, lo), _counts_at(out / "scores.csv", MATCH_FRAMES))
        length = 10 if route == "sup" else 15
        return Rep(hi - lo - length + 1, seconds, None, dets_csv.read_bytes(), failures,
                   key=lo)

    def run_pass(self, state) -> dict:
        reps = {route: [] for route in ROUTES}
        for lo, hi in self.clips:
            for route in ROUTES:
                reps[route].append(self._route(route, lo, hi))
        return reps

    def score(self, state, reps: dict) -> None:
        """F1 of each route's first-rep counts, summed over the clips."""
        for route, route_reps in reps.items():
            if not route_reps:
                continue
            counts = [c for (r, _), c in self.counts.items() if r == route]
            tp, fp, fn = (sum(c[i] for c in counts) for i in range(3))
            route_reps[0].score = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
