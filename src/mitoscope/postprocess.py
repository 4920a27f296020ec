"""Turn raw event maps (unsupervised) or response maps (supervised) into
point detections.

Unsupervised route: reduce a window's event maps to its grid of winning
classes, group the cells of one class into spatio-temporal patch
sequences, then localize each patch at the pixel with the highest mean
intensity increase over a two-frame lookahead inside a small disc
(dividing cells shrink and brighten, so the split shows up as a local
brightness rise). Supervised route: threshold the response maps and take
component centroids. Detections from overlapping windows are deduplicated
by greedy score-ordered clustering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .tensor_core import conv2d_same

__all__ = [
    "PatchSequence",
    "Detection",
    "class_grid",
    "group_activations",
    "locate_centroid",
    "threshold_detections",
    "merge_global",
    "rank_classes",
    "window_detections",
    "disc_mask",
    "disc_mean_maps",
]


@dataclass
class Detection:
    frame: int
    x: int
    y: int
    class_id: int
    score: float


@dataclass
class PatchSequence:
    """One 6-connected component of active grid blocks of a single class:
    spatial 4-connectivity plus +/-1 frame adjacency."""
    class_id: int
    members: list  # sorted (frame, block_row, block_col)


def class_grid(event_maps, grid_factor: int = 8) -> np.ndarray:
    """[T, M/g, M/g] winning class per grid cell of a sequence of event
    maps; exact because a well-formed map has one active class per cell."""
    return np.stack([m[:, ::grid_factor, ::grid_factor].argmax(0) for m in event_maps])


def group_activations(grid: np.ndarray, class_id: int) -> list:
    """Connected components over (frame, block) of the cells of a class
    grid won by ``class_id``."""
    if class_id < 0:
        raise ValueError(f"class id {class_id} out of range")
    return [PatchSequence(class_id, sorted(members))
            for members in _components(grid == class_id)]


def _components(mask: np.ndarray) -> list:
    """Face-adjacent connected components of a boolean N-d mask, ordered by
    their first cell in row-major order. Each is a list of index tuples in
    breadth-first order, neighbours visited axis by axis, -1 then +1."""
    shape = mask.shape
    strides = [int(np.prod(shape[axis + 1:])) for axis in range(mask.ndim)]
    active = mask.ravel().tolist()
    seen = [False] * len(active)
    components = []
    for start in np.flatnonzero(mask).tolist():
        if seen[start]:
            continue
        seen[start] = True
        members = []
        queue = deque([start])
        while queue:
            i = queue.popleft()
            members.append(i)
            for stride, size in zip(strides, shape):
                pos = i // stride % size
                if pos > 0 and active[i - stride] and not seen[i - stride]:
                    seen[i - stride] = True
                    queue.append(i - stride)
                if pos < size - 1 and active[i + stride] and not seen[i + stride]:
                    seen[i + stride] = True
                    queue.append(i + stride)
        components.append(list(zip(*(a.tolist() for a in np.unravel_index(members, shape)))))
    return components


def disc_mask(radius: float) -> np.ndarray:
    """Binary disc of pixels with center distance <= radius (inclusive)."""
    r = int(np.floor(radius))
    span = np.arange(-r, r + 1)
    yy, xx = np.meshgrid(span, span, indexing="ij")
    return (yy ** 2 + xx ** 2 <= radius ** 2).astype(np.float64)


def disc_mean_maps(frames: np.ndarray, lookahead: int, radius: float) -> np.ndarray:
    """Per-frame maps of the disc-averaged intensity change from t to
    t+lookahead. The divisor is the full disc area; pixels beyond the
    frame border contribute zero change. The last ``lookahead`` maps are
    zero. Row t depends only on frames t and t+lookahead, so the maps of a
    spatial window's whole stack, sliced to a subsequence, equal the
    subsequence's own on every row it can score."""
    t_max = frames.shape[0]
    m = frames.shape[-1]
    disc = disc_mask(radius)[None, None]
    area = disc.sum()
    maps = np.zeros((t_max, m, m))
    for t in range(t_max - lookahead):
        diff = frames[t + lookahead] - frames[t]  # [1,M,M]
        total, _ = conv2d_same(diff, disc, np.zeros(1))
        maps[t] = total[0] / area
    return maps


def locate_centroid(sub, patch: PatchSequence, score_maps: np.ndarray, lookahead: int = 2,
                    grid_factor: int = 8, frame_offset: int = 0):
    """Detection for one patch: the (pixel, frame) inside the patch's
    blocks with the highest disc-mean intensity rise after ``lookahead``
    frames, mapped to original coordinates. ``score_maps`` holds those
    rises, one map per frame of ``sub`` (``disc_mean_maps``).
    ``frame_offset`` aligns patch frame indices (relative to the event
    maps) with the subsequence frames when the subsequence carries leading
    context frames. Frames too close to the end for the lookahead are not
    scored; returns None when no member frame can be scored (the caller
    counts those skips).

    Equal disc scores resolve by the larger intensity increase at the
    pixel itself (a lone brightening pixel beats its neighbours), then the
    earliest frame, then row-major pixel order.
    """
    t_max = sub.frames.shape[0]
    m = sub.frames.shape[-1]
    usable = [mm for mm in patch.members if mm[0] + frame_offset + lookahead < t_max]
    if not usable:
        return None
    best = None  # ((disc score, point increase), t, px, py)
    for t in sorted({mm[0] for mm in usable}):
        ft = t + frame_offset
        mask = np.zeros((m, m), dtype=bool)
        for mt, mr, mc in usable:
            if mt == t:
                mask[mr * grid_factor:(mr + 1) * grid_factor,
                     mc * grid_factor:(mc + 1) * grid_factor] = True
        scores = np.where(mask, score_maps[ft], -np.inf)
        top = scores.max()
        point = np.where(scores == top,
                         sub.frames[ft + lookahead, 0] - sub.frames[ft, 0], -np.inf)
        flat = int(np.argmax(np.where(point == point.max(), 1, 0)))
        py, px = divmod(flat, m)
        key = (top, point[py, px])
        if best is None or key > best[0]:
            best = (key, t, px, py)
    (score, _), t, px, py = best
    frame, ox, oy = sub.to_original(t + frame_offset, px, py)
    return Detection(frame, ox, oy, patch.class_id, float(score))


def threshold_detections(maps, sub, threshold: float = 0.7) -> list:
    """Per frame, 4-connected components of pixels above the threshold;
    one detection per component at its intensity-weighted centroid
    (rounded half-up), scored by the component's peak value."""
    detections = []
    for t, m in enumerate(maps):
        grid = np.asarray(m)[0]
        for members in _components(grid > threshold):
            px_sum = py_sum = wsum = 0.0
            peak = 0.0
            for r, c in members:
                val = grid[r, c]
                px_sum += val * c
                py_sum += val * r
                wsum += val
                peak = max(peak, val)
            cx = int(np.floor(px_sum / wsum + 0.5))
            cy = int(np.floor(py_sum / wsum + 0.5))
            frame, ox, oy = sub.to_original(t, cx, cy)
            detections.append(Detection(frame, ox, oy, 0, float(peak)))
    return detections


def merge_global(detections, spatial: float = 10.0, temporal: int = 2) -> list:
    """Deduplicate detections from overlapping windows: visit by descending
    score and keep a detection only when no kept seed is within the
    spatial and temporal distances. Idempotent by construction."""
    ordered = sorted(detections,
                     key=lambda d: (-d.score, d.frame, d.x, d.y, d.class_id))
    seeds = []
    for d in ordered:
        absorbed = False
        for s in seeds:
            if (abs(d.frame - s.frame) <= temporal
                    and (d.x - s.x) ** 2 + (d.y - s.y) ** 2 <= spatial ** 2):
                absorbed = True
                break
        if not absorbed:
            seeds.append(d)
    return seeds


def window_detections(grid, sub, classes, score_maps: np.ndarray, lookahead: int = 2,
                      grid_factor: int = 8, frame_offset: int = 0) -> tuple:
    """Detections of every patch of the given classes in one window's class
    grid, in class then patch order, plus the count of patches skipped as
    too close to the window end for the lookahead. ``score_maps`` holds the
    window's disc-mean maps, one per frame of ``sub``: ``detect`` passes
    its slice of the maps of the window's whole stack, computed once per
    stack."""
    patches = [patch for c in classes for patch in group_activations(grid, c)]
    detections = []
    for patch in patches:
        det = locate_centroid(sub, patch, score_maps, lookahead, grid_factor, frame_offset)
        if det is not None:
            detections.append(det)
    return detections, len(patches) - len(detections)


def rank_classes(detections) -> list:
    """(class, mean score, count) per class over raw unsupervised
    detections, by descending mean; ties order by class index. A ranking
    aid for picking the event class of interest, never applied
    automatically."""
    scores: dict = {}
    for d in detections:
        scores.setdefault(d.class_id, []).append(d.score)
    ranking = [(c, float(np.mean(v)), len(v)) for c, v in scores.items()]
    ranking.sort(key=lambda item: (-item[1], item[0]))
    return ranking
