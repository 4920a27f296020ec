"""Chart rendering and the hand-rolled PNG encoder."""

import numpy as np
import pytest

from mitoscope import plots


def test_png_roundtrip_via_pillow(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (20, 31), dtype=np.uint8)
    path = tmp_path / "x.png"
    plots.write_png_gray(path, img)
    loaded = np.asarray(PIL.open(path))
    np.testing.assert_array_equal(loaded, img)


def test_png_magic_and_determinism(tmp_path):
    img = np.zeros((4, 4), dtype=np.uint8)
    a, b = tmp_path / "a.png", tmp_path / "b.png"
    plots.write_png_gray(a, img)
    plots.write_png_gray(b, img)
    data = a.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    assert data == b.read_bytes()


def test_line_chart_draws_something():
    img = plots.render_line_chart([3.0, 1.0, 2.0, 0.5])
    assert img.shape == (400, 640)
    assert (img == 0).sum() > 50  # polyline pixels present

    empty = plots.render_line_chart([])
    assert (empty == 0).sum() == 0  # axes only


def test_bar_chart_heights_scale():
    img = plots.render_bar_chart([1, 4, 2])
    cols = (img == 0).sum(axis=0)
    heights = sorted(set(cols[cols > 0]))
    assert len(heights) >= 3  # three distinct bar heights


def axes_by_draw_line(img, margin):
    h, w = img.shape
    plots._draw_line(img, margin, h - margin, w - 8, h - margin, plots._AXIS)
    plots._draw_line(img, margin, h - margin, margin, 8, plots._AXIS)


@pytest.mark.parametrize("width, height", [(640, 400), (100, 50), (33, 20)])
def test_axes_slices_match_draw_line(width, height, monkeypatch):
    charts = [(plots.render_line_chart, [3.0, 1.0, 2.0, 0.5]),
              (plots.render_line_chart, []),
              (plots.render_bar_chart, [1, 4, 2]),
              (plots.render_bar_chart, [])]
    images = [render(values, width, height) for render, values in charts]
    monkeypatch.setattr(plots, "_draw_axes", axes_by_draw_line)
    for (render, values), img in zip(charts, images):
        np.testing.assert_array_equal(img, render(values, width, height))
    assert (images[1] == plots._AXIS).any()
