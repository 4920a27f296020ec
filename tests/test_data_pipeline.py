"""Pipeline tests: window enumeration oracles, downsample oracle,
augmentation group identities via one-hot frames, PGM and annotation I/O,
synthetic generator self-checks."""

import numpy as np
import pytest

from mitoscope import data_pipeline as dp


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------

def axis_origins_oracle(dim, size, step):
    """Every aligned origin, plus a flush one if the edge is uncovered."""
    origins = []
    x = 0
    while x + size <= dim:
        origins.append(x)
        x += step
    if origins[-1] + size != dim:
        origins.append(dim - size)
    return origins


def block_mean_oracle(frame, factor):
    c, h, w = frame.shape
    out = np.zeros((c, h // factor, w // factor))
    for ci in range(c):
        for i in range(h // factor):
            for j in range(w // factor):
                out[ci, i, j] = frame[ci, i * factor:(i + 1) * factor,
                                      j * factor:(j + 1) * factor].mean()
    return out


# ---------------------------------------------------------------------------
# rescale
# ---------------------------------------------------------------------------

class TestRescale:
    def test_endpoints(self):
        out = dp.rescale_unit(np.array([[0, 255]], dtype=np.uint8))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_midpoint(self):
        out = dp.rescale_unit(np.array([[128]], dtype=np.uint8))
        assert out[0, 0] == pytest.approx(128 / 255)

    def test_no_contrast_stretch(self):
        out = dp.rescale_unit(np.full((4, 4), 77, dtype=np.uint8))
        np.testing.assert_array_equal(out, 77 / 255)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

class TestWindows:
    def test_standard_video_geometry(self):
        wins = dp.spatial_windows(1392, 1040, 256, 128)
        xs = sorted({x for x, _ in wins})
        ys = sorted({y for _, y in wins})
        assert xs == axis_origins_oracle(1392, 256, 128)
        assert ys == axis_origins_oracle(1040, 256, 128)
        assert xs == [0, 128, 256, 384, 512, 640, 768, 896, 1024, 1136]
        assert ys == [0, 128, 256, 384, 512, 640, 768, 784]
        assert len(wins) == 80

    def test_exact_fit_single_origin(self):
        assert dp.spatial_windows(256, 256, 256, 128) == [(0, 0)]

    def test_windows_cover_every_pixel(self):
        for dim in (256, 300, 511, 640, 1040):
            covered = np.zeros(dim, dtype=bool)
            for x in axis_origins_oracle(dim, 256, 128):
                covered[x:x + 256] = True
            assert covered.all()
            assert axis_origins_oracle(dim, 256, 128) == sorted(
                {x for x, _ in dp.spatial_windows(dim, 256, 256, 128)})

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="smaller than window"):
            dp.spatial_windows(200, 400, 256, 128)

    def test_temporal_counts(self):
        assert len(dp.temporal_windows(210, 15, 1)) == 196
        assert dp.temporal_windows(15, 15, 1) == [0]
        with pytest.raises(ValueError, match="at least 15"):
            dp.temporal_windows(14, 15, 1)


# ---------------------------------------------------------------------------
# downsampling
# ---------------------------------------------------------------------------

class TestDownsample:
    def test_constant_preserved(self):
        out = dp.block_mean(np.full((1, 8, 8), 0.37), 4)
        np.testing.assert_allclose(out, 0.37)

    def test_single_block(self):
        frame = np.zeros((1, 8, 8))
        frame[0, 4:8, 0:4] = 1.0
        out = dp.block_mean(frame, 4)
        assert out[0, 1, 0] == 1.0
        assert out.sum() == 1.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        frame = rng.uniform(0, 1, (1, 16, 12))
        np.testing.assert_allclose(dp.block_mean(frame, 4), block_mean_oracle(frame, 4),
                                   atol=1e-15)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            dp.block_mean(np.zeros((1, 10, 8)), 4)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def one_hot_frame(x, y, size):
    f = np.zeros((1, 1, size, size))
    f[0, 0, y, x] = 1.0
    return f


class TestAugment:
    def test_six_variants_with_tags(self):
        rng = np.random.default_rng(1)
        sub = dp.Subsequence(rng.uniform(0, 1, (3, 1, 8, 8)), 0, 0, 0)
        variants = dp.augment(sub)
        assert [v.transform for v in variants] == list(dp.TRANSFORMS)
        np.testing.assert_array_equal(variants[0].frames, sub.frames)

    def test_involutions_and_cycles(self):
        rng = np.random.default_rng(2)
        frames = rng.uniform(0, 1, (2, 1, 6, 6))
        for tag in ("fliph", "flipv", "rot180"):
            twice = dp.transform_frames(dp.transform_frames(frames, tag), tag)
            np.testing.assert_array_equal(twice, frames)
        out = frames
        for _ in range(4):
            out = dp.transform_frames(out, "rot90")
        np.testing.assert_array_equal(out, frames)

    def test_point_rule_matches_one_hot_frames(self):
        size = 7
        rng = np.random.default_rng(3)
        for tag in dp.TRANSFORMS:
            x, y = rng.integers(0, size, 2)
            moved = dp.transform_frames(one_hot_frame(x, y, size), tag)
            nx, ny = dp.transform_point(tag, int(x), int(y), size)
            assert moved[0, 0, ny, nx] == 1.0
            assert moved.sum() == 1.0

    def test_rot90_closed_form(self):
        assert dp.transform_point("rot90", 2, 5, 8) == (8 - 1 - 5, 2)

    def test_inverses(self):
        size = 9
        for tag in dp.TRANSFORMS:
            inv = dp.invert_transform(tag)
            x, y = 3, 7
            fx, fy = dp.transform_point(tag, x, y, size)
            assert dp.transform_point(inv, fx, fy, size) == (x, y)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            dp.transform_frames(np.zeros((1, 1, 4, 6)), "rot90")


# ---------------------------------------------------------------------------
# provenance round trips
# ---------------------------------------------------------------------------

class TestProvenance:
    def test_identity_scale(self):
        sub = dp.Subsequence(np.zeros((3, 1, 8, 8)), 0, 0, 5, scale=1)
        assert sub.to_original(2, 3, 4) == (7, 3, 4)

    def test_scale_four_block_centers(self):
        sub = dp.Subsequence(np.zeros((3, 1, 8, 8)), 128, 256, 10, scale=4)
        f, ox, oy = sub.to_original(0, 2, 3)
        assert f == 10
        assert ox == 128 + 4 * 2 + 2
        assert oy == 256 + 4 * 3 + 2

    def test_roundtrip_through_quantization(self):
        rng = np.random.default_rng(4)
        sub = dp.Subsequence(np.zeros((3, 1, 16, 16)), 128, 0, 0, scale=4,
                             transform="rot90")
        for _ in range(20):
            mx, my = (int(v) for v in rng.integers(0, 16, 2))
            _, ox, oy = sub.to_original(0, mx, my)
            assert sub.to_model(ox, oy) == (mx, my)


# ---------------------------------------------------------------------------
# frame files
# ---------------------------------------------------------------------------

class TestFrameIO:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        frame = rng.integers(0, 256, (12, 17), dtype=np.uint8)
        path = tmp_path / "f.pgm"
        dp.write_pgm(path, frame)
        np.testing.assert_array_equal(dp.read_pgm(path), frame)

    def test_load_directory(self, tmp_path):
        for i in range(3):
            dp.write_pgm(tmp_path / f"frame_{i:04d}.pgm",
                         np.full((8, 10), i, dtype=np.uint8))
        video = dp.load_frames(tmp_path)
        assert video.count == 3
        assert (video.width, video.height) == (10, 8)
        assert video.frames[2][0, 0] == 2

    def test_gap_detected(self, tmp_path):
        dp.write_pgm(tmp_path / "frame_0000.pgm", np.zeros((4, 4), dtype=np.uint8))
        dp.write_pgm(tmp_path / "frame_0002.pgm", np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="missing frame index 1"):
            dp.load_frames(tmp_path)

    def test_mixed_dimensions_detected(self, tmp_path):
        dp.write_pgm(tmp_path / "frame_0000.pgm", np.zeros((64, 64), dtype=np.uint8))
        dp.write_pgm(tmp_path / "frame_0001.pgm", np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(ValueError, match="dimensions"):
            dp.load_frames(tmp_path)

    def test_unreadable_file_detected(self, tmp_path):
        (tmp_path / "frame_0000.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        with pytest.raises(ValueError, match="pixel bytes"):
            dp.load_frames(tmp_path)


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------

class TestAnnotations:
    def test_roundtrip(self, tmp_path):
        pts = [(0, 10, 20), (5, 1, 2), (7, 63, 63)]
        path = tmp_path / "a.csv"
        dp.save_annotations(pts, path)
        assert dp.load_annotations(path) == pts

    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("frame,x,y\n")
        assert dp.load_annotations(path) == []

    def test_bounds_error_reports_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("frame,x,y\n1,10,10\n5,2000,10\n")
        with pytest.raises(ValueError, match=r"a.csv:3.*x=2000"):
            dp.load_annotations(path, width=1392, height=1040)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("frame,x,y\n1,2\n")
        with pytest.raises(ValueError, match=r"a.csv:2"):
            dp.load_annotations(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("f,col,row\n")
        with pytest.raises(ValueError, match="header"):
            dp.load_annotations(path)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

class TestSynth:
    def test_zero_probability_no_events(self):
        _, anns = dp.synth_generate(dp.SyntheticConfig(seed=0, division_prob=0.0,
                                                       frame_count=30))
        assert anns == []

    def test_deterministic_per_seed(self):
        cfg = dp.SyntheticConfig(seed=9, frame_count=30)
        v1, a1 = dp.synth_generate(cfg)
        v2, a2 = dp.synth_generate(cfg)
        assert a1 == a2
        assert all((x == y).all() for x, y in zip(v1.frames, v2.frames))

    def test_brightness_rise_at_annotations(self):
        cfg = dp.SyntheticConfig(seed=1, division_prob=0.1, blob_count=10,
                                 blob_radius=3.0)
        video, anns = dp.synth_generate(cfg)
        assert len(anns) >= 10
        for f, x, y in anns:
            now = dp.rescale_unit(video.frames[f])[y, x]
            before = dp.rescale_unit(video.frames[f - 2])[y, x]
            assert now - before >= cfg.brightness_delta, (f, x, y)

    def test_annotations_inside_frame(self):
        cfg = dp.SyntheticConfig(seed=2, division_prob=0.1, blob_count=10,
                                 blob_radius=3.0)
        video, anns = dp.synth_generate(cfg)
        for f, x, y in anns:
            assert 0 <= f < video.count
            assert 0 <= x < cfg.frame_size and 0 <= y < cfg.frame_size

    def test_export_roundtrip(self, tmp_path):
        cfg = dp.SyntheticConfig(seed=3, frame_count=18)
        video, anns = dp.synth_generate(cfg)
        dp.export_video(video, anns, tmp_path)
        loaded = dp.load_frames(tmp_path)
        assert loaded.count == 18
        for a, b in zip(loaded.frames, video.frames):
            np.testing.assert_array_equal(a, b)
        assert dp.load_annotations(tmp_path / "annotations.csv") == anns


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

class TestBuildSubsequences:
    def test_counts_and_pixel_range(self):
        video, _ = dp.synth_generate(dp.SyntheticConfig(seed=4, frame_count=20))
        subs = dp.build_subsequences(video, window_size=64, window_step=64,
                                     downsample=1, length=15)
        assert len(subs) == 6  # 20 - 15 + 1
        for sub in subs:
            assert sub.frames.shape == (15, 1, 64, 64)
            assert sub.frames.min() >= 0.0 and sub.frames.max() <= 1.0

    def test_augmented_count(self):
        video, _ = dp.synth_generate(dp.SyntheticConfig(seed=4, frame_count=16))
        subs = dp.build_subsequences(video, window_size=64, window_step=64,
                                     downsample=1, length=15, augmented=True)
        assert len(subs) == 2 * 6

    def test_frame_range_respected(self):
        video, _ = dp.synth_generate(dp.SyntheticConfig(seed=4, frame_count=40))
        subs = dp.build_subsequences(video, frame_range=(20, 40), window_size=64,
                                     window_step=64, downsample=1, length=15)
        assert all(20 <= s.t0 and s.t0 + 15 <= 40 for s in subs)
        with pytest.raises(ValueError, match="range"):
            dp.build_subsequences(video, frame_range=(30, 140), window_size=64,
                                  window_step=64, downsample=1)

    def test_attach_targets_places_squares(self):
        video, _ = dp.synth_generate(dp.SyntheticConfig(seed=4, frame_count=20))
        subs = dp.build_subsequences(video, window_size=64, window_step=64,
                                     downsample=1, length=10)
        ann = (subs[0].t0 + 4, 30, 40)
        dp.attach_targets(subs, [ann], target_offset=0)
        target = subs[0].targets[4]
        assert target[0, 40, 30] == 1.0
        assert target[0, 0, 0] == 0.1

    def test_attach_targets_transforms_coordinates(self):
        video, _ = dp.synth_generate(dp.SyntheticConfig(seed=4, frame_count=12))
        base = dp.build_subsequences(video, window_size=64, window_step=64,
                                     downsample=1, length=10)[0]
        flipped = dp.augment(base)[1]  # fliph
        ann = (base.t0 + 3, 10, 20)
        dp.attach_targets([flipped], [ann], target_offset=0)
        assert flipped.targets[3][0, 20, 63 - 10] == 1.0
