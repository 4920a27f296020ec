"""Frame ingestion, windowing, downsampling, augmentation, annotation I/O,
and a synthetic dividing-blob video generator for desk-scale experiments.

Frames on disk are binary 8-bit PGM files named ``frame_%04d.pgm`` (PNG is
accepted when Pillow is importable). All pipeline outputs are float64
pixels in [0,1]; a subsequence carries enough provenance (window origin,
start frame, scale, augmentation tag) to map model coordinates back to
original-video coordinates.

``build_subsequences`` block-means each frame once per block phase
``(x0 % downsample, y0 % downsample)`` of the window origins, into one
read-only ``[T,1,H/f,W/f]`` video over the span of that phase's windows;
overlapping windows share its pixels (at the paper's geometry every origin
is on the block grid, so there is one video). Each spatial window's
``[T,1,M,M]`` stack is a view of its phase's video, and every subsequence
of that window, and each of its augmentations, is a view of the stack (a
slice, a reversed axis or a ``rot90``), so the index costs one block-mean
video per phase whatever the number of windows, temporal starts and
augmentations. A subsequence carries its window's stack as ``stack``,
because numpy collapses ``.base`` to the video. ``attach_targets`` paints
each window's supervised targets once and gives them out as views the
same way.
The six augmentations are one table of views (``TRANSFORMS`` names them);
``Subsequence.to_original`` inverts one by viewing pixel indices with it.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "VideoSource",
    "Subsequence",
    "SyntheticConfig",
    "TRANSFORMS",
    "read_pgm",
    "write_pgm",
    "load_frames",
    "rescale_unit",
    "spatial_windows",
    "temporal_windows",
    "block_mean",
    "check_windowing",
    "check_fields",
    "transform_frames",
    "augment",
    "build_subsequences",
    "build_supervised_target",
    "attach_targets",
    "load_annotations",
    "save_annotations",
    "synth_generate",
    "export_video",
]


# ---------------------------------------------------------------------------
# PGM / PNG frame files
# ---------------------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """Binary (P5) 8-bit PGM reader. Returns a uint8 [H,W] array."""
    data = Path(path).read_bytes()

    pos = 0
    fields = []
    while len(fields) < 4:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        if data[pos:pos + 1] == b"#":  # comment to end of line
            end = data.find(b"\n", pos)
            if end < 0:
                raise ValueError(f"{path}: truncated PGM header (unterminated comment)")
            pos = end + 1
            continue
        if data[pos:pos + 1].isspace():
            pos += 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {fields[0]!r})")
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise ValueError(f"{path}: non-integer PGM header field in {fields[1:]!r}") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM width and height must be >= 1, got {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise ValueError(f"{path}: expected {width * height} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(path, frame: np.ndarray) -> None:
    frame = np.asarray(frame)
    if frame.dtype != np.uint8 or frame.ndim != 2:
        raise ValueError(f"write_pgm: expected uint8 [H,W], got {frame.dtype} {frame.shape}")
    h, w = frame.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(frame.tobytes())


def _read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise ValueError(
            f"{path}: PNG input needs Pillow installed; convert to PGM instead") from exc
    img = Image.open(path).convert("L")
    return np.asarray(img, dtype=np.uint8)


@dataclass
class VideoSource:
    """Ordered grayscale frames sharing one resolution."""
    width: int
    height: int
    frames: list  # uint8 [H,W] arrays

    @property
    def count(self) -> int:
        return len(self.frames)

    @classmethod
    def from_arrays(cls, frames) -> "VideoSource":
        frames = [np.asarray(f, dtype=np.uint8) for f in frames]
        h, w = frames[0].shape
        return cls(w, h, frames)


_FRAME_RE = re.compile(r"frame_(\d+)\.(pgm|png)$")


def load_frames(directory) -> VideoSource:
    """Load a frame directory, checking for index gaps and mixed dimensions."""
    directory = Path(directory)
    found = {}
    for path in sorted(directory.iterdir()):
        m = _FRAME_RE.match(path.name)
        if not m:
            continue
        idx = int(m.group(1))
        if idx in found:
            raise ValueError(f"{directory}: duplicate frame index {idx}")
        found[idx] = path
    if not found:
        raise ValueError(f"{directory}: no frame_NNNN.pgm/png files found")
    first, last = min(found), max(found)
    missing = [i for i in range(first, last + 1) if i not in found]
    if missing:
        raise ValueError(f"{directory}: missing frame index {missing[0]}")
    frames = []
    shape = None
    for i in range(first, last + 1):
        path = found[i]
        frame = _read_png(path) if path.suffix == ".png" else read_pgm(path)
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise ValueError(
                f"{path}: frame dimensions {frame.shape[::-1]} differ from first frame "
                f"{shape[::-1]}")
        frames.append(frame)
    h, w = shape
    return VideoSource(w, h, frames)


def rescale_unit(frame) -> np.ndarray:
    """Map 8-bit values to [0,1] with the fixed divisor 255 so intensities
    stay comparable across frames."""
    return np.asarray(frame, dtype=np.float64) / 255.0


# ---------------------------------------------------------------------------
# windowing and downsampling
# ---------------------------------------------------------------------------

def _axis_origins(dim: int, size: int, step: int) -> list:
    if dim < size:
        raise ValueError(f"frame extent {dim} smaller than window size {size}")
    origins = list(range(0, dim - size + 1, step))
    if origins[-1] + size < dim:
        origins.append(dim - size)  # flush window so the far edge is covered
    return origins


def spatial_windows(width: int, height: int, size: int = 256, step: int = 128) -> list:
    """All (x0, y0) window origins, stepping by ``step`` with one flush
    window appended per axis when the aligned grid misses the far edge."""
    xs = _axis_origins(width, size, step)
    ys = _axis_origins(height, size, step)
    return [(x0, y0) for y0 in ys for x0 in xs]


def temporal_windows(frame_count: int, length: int = 15, step: int = 1) -> list:
    if frame_count < length:
        raise ValueError(f"need at least {length} frames, got {frame_count}")
    return list(range(0, frame_count - length + 1, step))


def block_mean(frame: np.ndarray, factor: int) -> np.ndarray:
    """Mean over factor x factor blocks of a [1,H,W] tensor."""
    if factor == 1:
        return np.asarray(frame, dtype=np.float64)
    c, h, w = frame.shape
    if h % factor != 0 or w % factor != 0:
        raise ValueError(f"block_mean: dims {h}x{w} not divisible by {factor}")
    return frame.reshape(c, h // factor, factor, w // factor, factor).mean(axis=(2, 4))


# ---------------------------------------------------------------------------
# augmentation group
# ---------------------------------------------------------------------------

# each augmentation as a view of the last two axes; rot90 turns clockwise,
# sending pixel (x, y) of an M-wide frame to (M-1-y, x)
_VIEWS = {
    "identity": lambda a: a[...],
    "fliph": lambda a: a[..., ::-1],
    "flipv": lambda a: a[..., ::-1, :],
    "rot90": lambda a: np.rot90(a, k=3, axes=(-2, -1)),
    "rot180": lambda a: np.rot90(a, k=2, axes=(-2, -1)),
    "rot270": lambda a: np.rot90(a, k=1, axes=(-2, -1)),
}
TRANSFORMS = tuple(_VIEWS)


def transform_frames(frames: np.ndarray, tag: str) -> np.ndarray:
    """Apply one augmentation to a [T,1,M,M] stack, or to any array whose
    last two axes are square. The result is a view of ``frames`` (reversed
    axes or a ``rot90``), never a copy, so it shares memory and writeability
    with it."""
    if frames.shape[-1] != frames.shape[-2]:
        raise ValueError(f"augmentation needs square frames, got {frames.shape[-2:]}")
    if tag not in _VIEWS:
        raise ValueError(f"unknown transform {tag!r}")
    return _VIEWS[tag](frames)


@dataclass
class Subsequence:
    """A model-resolution frame stack plus the provenance needed to map
    model coordinates back to the original video."""
    # [T,1,M,M] float64 in [0,1]; from build_subsequences, a read-only view
    # of its window's stack
    frames: np.ndarray
    x0: int
    y0: int
    t0: int
    scale: int = 1
    transform: str = "identity"
    targets: list | None = None  # [1,M,M] maps aligned to the target frames
    # from build_subsequences, the window's [T,1,M,M] stack over the whole
    # frame range, unaugmented and shared by all the window's subsequences:
    # a read-only view of the block-mean video
    stack: np.ndarray | None = field(default=None, repr=False)

    @property
    def model_size(self) -> int:
        return self.frames.shape[-1]

    def to_original(self, frame_idx: int, x: int, y: int) -> tuple:
        """(frame, x, y) in original coordinates for a model-resolution
        point; inverts the augmentation, then undoes scaling (block
        centers) and the window offset. The augmentation is inverted by
        viewing a grid of flat pixel indices the way the frames were
        viewed: the index at (x, y) names the unaugmented source pixel."""
        m = self.model_size
        if not (0 <= x < m and 0 <= y < m):
            raise ValueError(f"to_original: point ({x},{y}) outside {m}x{m} frame")
        source = transform_frames(np.arange(m * m).reshape(m, m), self.transform)[y, x]
        uy, ux = divmod(int(source), m)
        half = self.scale // 2
        return (self.t0 + frame_idx,
                self.x0 + self.scale * ux + half,
                self.y0 + self.scale * uy + half)


def augment(sub: Subsequence) -> list:
    """The six augmented variants (identity included), transforms applied
    uniformly to every frame. Their frames are views of ``sub.frames``, so
    no pixels are copied. Targets are not carried over; ``attach_targets``
    gives each variant its view of the window's target stack."""
    return [Subsequence(transform_frames(sub.frames, tag), sub.x0, sub.y0, sub.t0,
                        sub.scale, tag, stack=sub.stack)
            for tag in TRANSFORMS]


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def check_windowing(window_size: int, window_step: int, downsample: int,
                    length: int = 1, temporal_step: int = 1) -> None:
    """Reject windowing parameters ``build_subsequences`` cannot cut with,
    naming the parameter."""
    for name, value in (("window_size", window_size), ("window_step", window_step),
                        ("downsample", downsample), ("length", length),
                        ("temporal_step", temporal_step)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if window_size % downsample:
        raise ValueError(f"window_size {window_size} is not divisible by "
                         f"downsample {downsample}")


def check_fields(cfg, rules: dict) -> None:
    """Raise ValueError naming the first field of ``cfg`` that breaks its
    rule; ``rules`` maps a field name to (test, wording)."""
    for name, (ok, wording) in rules.items():
        value = getattr(cfg, name)
        if not ok(value):
            raise ValueError(f"{name} must be {wording}, got {value}")


def _phase_spans(origins, size: int, factor: int) -> dict:
    """For each block phase ``o % factor`` of ascending 1-D window origins,
    the span ``(first origin, last origin + size)`` its windows cover."""
    spans = {}
    for o in origins:
        spans[o % factor] = (spans.get(o % factor, (o,))[0], o + size)
    return spans


def build_subsequences(video: VideoSource, frame_range=None, window_size: int = 256,
                       window_step: int = 128, downsample: int = 4, length: int = 15,
                       temporal_step: int = 1, augmented: bool = False) -> list:
    """Cut a video into model-ready subsequences: spatial windows, temporal
    windows, unit rescale, block-mean downsampling, optional augmentation.

    Each frame is block-meaned once per block phase of the window origins
    into one read-only ``[T,1,H/f,W/f]`` video over the span of that
    phase's windows, filled one unit frame at a time. A window's
    ``[T,1,M,M]`` stack is a view of its phase's video; subsequences and
    their augmentations are views of the stack."""
    check_windowing(window_size, window_step, downsample, length, temporal_step)
    lo, hi = (0, video.count) if frame_range is None else frame_range
    if not (0 <= lo < hi <= video.count):
        raise ValueError(f"frame range {lo}:{hi} outside video of {video.count} frames")
    origins = spatial_windows(video.width, video.height, window_size, window_step)
    starts = temporal_windows(hi - lo, length, temporal_step)
    f, m = downsample, window_size // downsample
    xspans = _phase_spans(sorted({x0 for x0, _ in origins}), window_size, f)
    yspans = _phase_spans(sorted({y0 for _, y0 in origins}), window_size, f)
    videos = {(xa, xb, ya, yb): np.empty((hi - lo, 1, (yb - ya) // f, (xb - xa) // f))
              for xa, xb in xspans.values() for ya, yb in yspans.values()}
    for i, t in enumerate(range(lo, hi)):
        unit = rescale_unit(video.frames[t])[None]
        for (xa, xb, ya, yb), phase in videos.items():
            phase[i] = block_mean(unit[:, ya:yb, xa:xb], f)
    for phase in videos.values():
        phase.flags.writeable = False
    subs = []
    for x0, y0 in origins:
        (xa, xb), (ya, yb) = xspans[x0 % f], yspans[y0 % f]
        j, k = (y0 - ya) // f, (x0 - xa) // f
        stack = videos[xa, xb, ya, yb][:, :, j:j + m, k:k + m]
        for s in starts:
            sub = Subsequence(stack[s:s + length], x0, y0, lo + s, f, stack=stack)
            if augmented:
                subs.extend(augment(sub))
            else:
                subs.append(sub)
    return subs


# supervised target values, and the square sizes around a point in model pixels
TARGET_BACKGROUND, TARGET_RING_VALUE, TARGET_CORE_VALUE = 0.1, 0.6, 1.0
TARGET_RING_SIZE, TARGET_CORE_SIZE = 20, 7


def build_supervised_target(points, frame_size: int, length: int) -> np.ndarray:
    """``[length,1,M,M]`` training targets from annotated (frame, x, y)
    points: a large square of TARGET_RING_VALUE and a small square of
    TARGET_CORE_VALUE around each point, max over overlaps, squares clipped
    at the frame border. Points on frames outside the stack are skipped."""
    m = frame_size
    maps = np.full((length, 1, m, m), TARGET_BACKGROUND)

    def paint(f, cx, cy, size, value):
        half = (size - 1) // 2
        x0, x1 = max(0, cx - half), min(m, cx - half + size)
        y0, y1 = max(0, cy - half), min(m, cy - half + size)
        region = maps[f, 0, y0:y1, x0:x1]
        np.maximum(region, value, out=region)

    for f, x, y in points:
        if not (0 <= x < m and 0 <= y < m):
            raise ValueError(f"build_supervised_target: point ({x},{y}) outside {m}x{m} frame")
        if 0 <= f < length:  # a max is order-free, so a core always beats a ring
            paint(f, x, y, TARGET_RING_SIZE, TARGET_RING_VALUE)
            paint(f, x, y, TARGET_CORE_SIZE, TARGET_CORE_VALUE)
    return maps


def attach_targets(subs, annotations, target_offset: int) -> None:
    """Build supervised target maps on each subsequence from annotations in
    original coordinates. ``target_offset`` is the index of the first
    target frame within the subsequence. Each window's targets are painted
    once, unaugmented, into a read-only stack over the target frames its
    subsequences cover; a subsequence's targets are views of it, augmented
    like its frames."""
    windows = {}
    for sub in subs:
        n = len(sub.frames)
        if not 0 <= target_offset < n:
            raise ValueError(f"target_offset {target_offset} outside [0, {n}) of {n} frames")
        windows.setdefault((sub.x0, sub.y0, sub.scale, sub.model_size), []).append(sub)
    for (x0, y0, scale, m), group in windows.items():
        lo = min(sub.t0 for sub in group) + target_offset
        hi = max(sub.t0 + len(sub.frames) for sub in group)
        points = [(f - lo, (x - x0) // scale, (y - y0) // scale) for f, x, y in annotations
                  if x0 <= x < x0 + m * scale and y0 <= y < y0 + m * scale]
        stack = build_supervised_target(points, m, hi - lo)
        stack.flags.writeable = False
        for sub in group:
            span = stack[sub.t0 + target_offset - lo:sub.t0 + len(sub.frames) - lo]
            sub.targets = list(transform_frames(span, sub.transform))


# ---------------------------------------------------------------------------
# annotation CSV
# ---------------------------------------------------------------------------

def load_annotations(path, width: int | None = None, height: int | None = None) -> list:
    """Read ``frame,x,y`` rows (0-based frame index). Bounds are checked
    when the video dimensions are given; errors carry the line number."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["frame", "x", "y"]:
            raise ValueError(f"{path}: expected header 'frame,x,y', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                f, x, y = (int(v) for v in row)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field in {row}") from None
            if f < 0:
                raise ValueError(f"{path}:{lineno}: negative frame index {f}")
            if width is not None and not (0 <= x < width):
                raise ValueError(f"{path}:{lineno}: x={x} outside width {width}")
            if height is not None and not (0 <= y < height):
                raise ValueError(f"{path}:{lineno}: y={y} outside height {height}")
            points.append((f, x, y))
    return points


def save_annotations(points, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "x", "y"])
        for f, x, y in points:
            writer.writerow([f, x, y])


# ---------------------------------------------------------------------------
# synthetic dividing-blob videos
# ---------------------------------------------------------------------------

# blob brightness at rest and at a division's peak, the background level, and
# the standard deviation in pixels of a resting blob's step per frame
SYNTH_BRIGHTNESS_BASE, SYNTH_BRIGHTNESS_PEAK, SYNTH_BACKGROUND = 0.4, 0.9, 0.03
SYNTH_DRIFT_SPEED = 0.6


@dataclass
class SyntheticConfig:
    frame_size: int = 64
    frame_count: int = 80
    blob_count: int = 7
    blob_radius: float = 4.0
    division_prob: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"frame_count": (lambda v: v >= 1, ">= 1"),
                            "blob_count": (lambda v: v >= 0, ">= 0"),
                            "blob_radius": (lambda v: 0 < v < math.inf, "finite and > 0"),
                            "division_prob": (lambda v: 0 <= v <= 1, "in [0,1]")})
        low = math.ceil(2 * self.margin) + 1  # room for a blob centre between the margins
        check_fields(self, {"frame_size": (lambda v: v >= low,
                                           f">= {low} for blob_radius {self.blob_radius}")})

    @property
    def margin(self) -> float:
        """How far blob centres stay from the frame edge."""
        return max(4.0, 2.0 * self.blob_radius)


@dataclass
class _Blob:
    x: float
    y: float
    amp: float
    sigma: float
    phase: int = -1       # -1 normal; 0 elongating; 1 bright peak; 2 splits next
    angle: float = 0.0
    elong: float = 0.0    # half separation of the elongation dumbbell
    cooldown: int = 0
    fade: int = 0         # frames left of post-split brightness decay


def _render(blobs, size, background):
    img = np.full((size, size), background)
    yy, xx = np.mgrid[0:size, 0:size]
    for b in blobs:
        if b.elong > 0:
            # dumbbell: two sub-gaussians, amplitude normalized so the
            # profile maximum stays at amp while the lobes overlap
            overlap = np.exp(-b.elong ** 2 / (2.0 * b.sigma ** 2))
            a = b.amp / (2.0 * overlap) if b.elong <= b.sigma else b.amp
            for sign in (-1.0, 1.0):
                cx = b.x + sign * b.elong * np.cos(b.angle)
                cy = b.y + sign * b.elong * np.sin(b.angle)
                d2 = (xx - cx) ** 2 + (yy - cy) ** 2
                img += a * np.exp(-d2 / (2.0 * b.sigma ** 2))
        else:
            d2 = (xx - b.x) ** 2 + (yy - b.y) ** 2
            img += b.amp * np.exp(-d2 / (2.0 * b.sigma ** 2))
    return np.clip(img, 0.0, 1.0)


def synth_generate(cfg: SyntheticConfig):
    """Gaussian blobs on seeded random walks. A division elongates a blob
    while its brightness rises over two frames to a shrunken peak, then the
    blob splits into two bright daughters. The annotation is the first
    frame with both daughters apart (the split frame), so at the SYNTH_*
    brightness levels intensity at the annotated midpoint rises by at least
    0.15 between two frames before the annotation and the annotation itself.
    """
    rng = np.random.default_rng(cfg.seed)
    size = cfg.frame_size
    margin = cfg.margin
    sigma = cfg.blob_radius / 1.6
    split_dist = 1.5 * cfg.blob_radius
    base, peak = SYNTH_BRIGHTNESS_BASE, SYNTH_BRIGHTNESS_PEAK

    blobs = [
        _Blob(x=float(rng.uniform(margin, size - 1 - margin)),
              y=float(rng.uniform(margin, size - 1 - margin)),
              amp=base, sigma=sigma)
        for _ in range(cfg.blob_count)
    ]

    def isolated(blob):
        for other in blobs:
            if other is blob:
                continue
            if (other.x - blob.x) ** 2 + (other.y - blob.y) ** 2 < (4.0 * sigma) ** 2:
                return False
        return True

    frames, annotations = [], []
    for t in range(cfg.frame_count):
        born = []
        for b in blobs:
            if b.phase == -1:
                b.x = float(np.clip(b.x + rng.normal(0, SYNTH_DRIFT_SPEED),
                                    margin, size - 1 - margin))
                b.y = float(np.clip(b.y + rng.normal(0, SYNTH_DRIFT_SPEED),
                                    margin, size - 1 - margin))
                if b.fade > 0:
                    b.fade -= 1
                    b.amp = base + (b.amp - base) * 0.5
                    if b.fade == 0:
                        b.amp, b.sigma = base, sigma
                if b.cooldown > 0:
                    b.cooldown -= 1
                elif (t + 3 < cfg.frame_count and rng.uniform() < cfg.division_prob
                      and isolated(b)):
                    b.phase = 0
                    b.angle = float(rng.uniform(0, np.pi))
            elif b.phase == 0:
                # slight elongation, small brightness rise
                b.amp = base + 0.1 * (peak - base)
                b.sigma = 0.95 * sigma
                b.elong = 0.8
                b.phase = 1
            elif b.phase == 1:
                # shrunken bright peak, still one (stretched) object
                b.amp = peak
                b.sigma = 0.85 * sigma
                b.elong = 1.2
                b.phase = 2
            else:
                # split: two bright daughters, annotation at the midpoint
                dx = 0.5 * split_dist * np.cos(b.angle)
                dy = 0.5 * split_dist * np.sin(b.angle)
                mid_x, mid_y = b.x, b.y
                b.x, b.y = b.x - dx, b.y - dy
                b.amp = peak
                b.sigma = 0.85 * sigma
                b.elong = 0.0
                b.phase = -1
                b.cooldown = 10
                b.fade = 3
                born.append(_Blob(mid_x + dx, mid_y + dy, peak, 0.85 * sigma,
                                  cooldown=10, fade=3))
                annotations.append((t, int(round(mid_x)), int(round(mid_y))))
        blobs.extend(born)
        img = _render(blobs, size, SYNTH_BACKGROUND)
        frames.append((img * 255.0 + 0.5).astype(np.uint8))
    return VideoSource.from_arrays(frames), annotations


def export_video(video: VideoSource, annotations, directory) -> None:
    """Write frames as frame_%04d.pgm plus annotations.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(video.frames):
        write_pgm(directory / f"frame_{i:04d}.pgm", frame)
    save_annotations(annotations, directory / "annotations.csv")
