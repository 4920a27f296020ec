"""Minimal self-rendered raster charts.

CSV files are the authoritative outputs; these images are quick-look
artifacts only. The PNG encoder is hand-rolled on stdlib zlib so no
charting or imaging dependency is pulled in.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

__all__ = ["render_line_chart", "render_bar_chart", "write_png_gray"]

_BG = 255
_FG = 0
_AXIS = 128


def write_png_gray(path, img: np.ndarray) -> None:
    """8-bit grayscale PNG, one IDAT chunk, filter type 0 per row."""
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(chunk(b"IHDR", header))
        fh.write(chunk(b"IDAT", zlib.compress(raw)))
        fh.write(chunk(b"IEND", b""))


def _canvas(width, height):
    return np.full((height, width), _BG, dtype=np.uint8)


def _draw_line(img, x0, y0, x1, y1, value=_FG):
    steps = int(max(abs(x1 - x0), abs(y1 - y0), 1)) * 2
    xs = np.linspace(x0, x1, steps)
    ys = np.linspace(y0, y1, steps)
    h, w = img.shape
    for x, y in zip(xs, ys):
        xi, yi = int(round(x)), int(round(y))
        if 0 <= yi < h and 0 <= xi < w:
            img[yi, xi] = value


def _span(a: int, b: int, size: int) -> slice:
    """The integers from ``a`` to ``b``, either order, inside ``[0, size)``."""
    lo, hi = min(a, b), max(a, b)
    return slice(max(lo, 0), max(min(hi + 1, size), 0))


def _draw_axes(img, margin: int) -> None:
    """The x axis at row ``height - margin`` and the y axis at column
    ``margin``, as slices: the pixels ``_draw_line`` sets for them, whose
    sample points lie less than a pixel apart."""
    h, w = img.shape
    if 0 <= h - margin < h:
        img[h - margin, _span(margin, w - 8, w)] = _AXIS
    if 0 <= margin < w:
        img[_span(h - margin, 8, h), margin] = _AXIS


def render_line_chart(values, width: int = 640, height: int = 400,
                      margin: int = 32) -> np.ndarray:
    """Polyline of a value series over its index, with plain axes."""
    img = _canvas(width, height)
    _draw_axes(img, margin)
    if len(values) == 0:
        return img
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    span_x = width - margin - 16
    span_y = height - margin - 16

    def to_px(i, v):
        x = margin + (span_x * i / max(len(values) - 1, 1))
        y = height - margin - span_y * (v - lo) / (hi - lo)
        return x, y

    for i in range(len(values) - 1):
        x0, y0 = to_px(i, values[i])
        x1, y1 = to_px(i + 1, values[i + 1])
        _draw_line(img, x0, y0, x1, y1)
    if len(values) == 1:
        x, y = to_px(0, values[0])
        img[int(y), int(x)] = _FG
    return img


def render_bar_chart(counts, width: int = 640, height: int = 400,
                     margin: int = 32) -> np.ndarray:
    """Filled vertical bars for a count series (e.g. a histogram)."""
    img = _canvas(width, height)
    _draw_axes(img, margin)
    counts = np.asarray(counts, dtype=np.float64)
    if len(counts) == 0 or counts.max() <= 0:
        return img
    span_x = width - margin - 16
    span_y = height - margin - 16
    slot = span_x / len(counts)
    bar = max(int(slot * 0.7), 1)
    for i, c in enumerate(counts):
        x0 = int(margin + i * slot + (slot - bar) / 2)
        top = int(height - margin - span_y * c / counts.max())
        img[top:height - margin, x0:x0 + bar] = _FG
    return img
