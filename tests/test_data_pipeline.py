"""Pipeline tests: window enumeration oracles, downsample oracle,
augmentation group identities and one-hot round trips, PGM and annotation
I/O, synthetic generator self-checks."""

import tracemalloc

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

    @pytest.mark.parametrize("scale", [1, 4])
    def test_one_hot_pixel_maps_back_under_every_tag(self, scale):
        # one bright block at model pixel (1, 2), off every symmetry axis of
        # the 8x8 model frame, so each tag moves it somewhere else; its
        # augmented model pixel maps back to the block's centre
        size = 8 * scale
        frames = np.zeros((1, size, size), dtype=np.uint8)
        frames[0, 2 * scale:3 * scale, scale:2 * scale] = 255
        subs = dp.build_subsequences(dp.VideoSource.from_arrays(frames), window_size=size,
                                     window_step=size, downsample=scale, length=1,
                                     augmented=True)
        assert [sub.transform for sub in subs] == list(dp.TRANSFORMS)
        seen = set()
        for sub in subs:
            (_, _, my, mx), = np.argwhere(sub.frames)
            seen.add((mx, my))
            assert sub.to_original(0, mx, my) == (0, scale + scale // 2,
                                                  2 * scale + scale // 2), sub.transform
        assert len(seen) == len(dp.TRANSFORMS)

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

    def test_rot90_scale_four_one_hot(self):
        # one bright 4x4 block in the second 64-px window, block (11, 5) at
        # scale 4: its rot90 model pixel maps back to that block's centre
        frames = np.zeros((2, 64, 128), dtype=np.uint8)
        frames[1, 20:24, 64 + 44:64 + 48] = 255
        subs = dp.build_subsequences(dp.VideoSource.from_arrays(frames), window_size=64,
                                     window_step=64, downsample=4, length=2, augmented=True)
        sub = next(s for s in subs if s.x0 == 64 and s.transform == "rot90")
        assert np.count_nonzero(sub.frames) == 1
        _, my, mx = np.argwhere(sub.frames[1])[0]
        assert (mx, my) == (15 - 5, 11)
        assert sub.to_original(1, mx, my) == (1, 64 + 4 * 11 + 2, 4 * 5 + 2)

    @pytest.mark.parametrize("x, y", [(-1, 3), (3, -1), (8, 0), (0, 8)])
    def test_point_outside_frame_rejected(self, x, y):
        # a negative index would wrap round the frame instead of failing
        sub = dp.Subsequence(np.zeros((1, 1, 8, 8)), 0, 0, 0, transform="rot90")
        with pytest.raises(ValueError, match=rf"\({x},{y}\) outside 8x8"):
            sub.to_original(0, x, y)


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

    def test_pgm_unterminated_comment_names_file(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n# no newline")
        with pytest.raises(ValueError, match=r"f\.pgm: truncated PGM header"):
            dp.read_pgm(path)

    def test_pgm_non_integer_field_names_file(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\nxx 4\n255\n" + bytes(16))
        with pytest.raises(ValueError, match=r"f\.pgm: non-integer PGM header field"):
            dp.read_pgm(path)

    @pytest.mark.parametrize("dims", [b"-2 4", b"4 0"])
    def test_pgm_empty_or_negative_size_names_file(self, tmp_path, dims):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(16))
        with pytest.raises(ValueError, match=r"f\.pgm: PGM width and height must be >= 1"):
            dp.read_pgm(path)

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
            assert now - before >= 0.15, (f, x, y)

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

    @pytest.mark.parametrize("offset", [-1, 10])
    def test_attach_targets_offset_out_of_range_named(self, offset):
        video, _ = dp.synth_generate(dp.SyntheticConfig(seed=4, frame_count=12))
        subs = dp.build_subsequences(video, window_size=64, window_step=64,
                                     downsample=1, length=10)
        with pytest.raises(ValueError, match=rf"target_offset {offset} outside \[0, 10\)"):
            dp.attach_targets(subs, [], target_offset=offset)
        assert all(sub.targets is None for sub in subs)

    def test_attach_targets_transforms_coordinates(self):
        video, _ = dp.synth_generate(dp.SyntheticConfig(seed=4, frame_count=12))
        base = dp.build_subsequences(video, window_size=64, window_step=64,
                                     downsample=1, length=10)[0]
        flipped = dp.augment(base)[1]  # fliph
        ann = (base.t0 + 3, 10, 20)
        dp.attach_targets([flipped], [ann], target_offset=0)
        assert flipped.targets[3][0, 20, 63 - 10] == 1.0


# ---------------------------------------------------------------------------
# the index as views of one stack per window
# ---------------------------------------------------------------------------

def eager_reference(video, frame_range, window_size, window_step, downsample,
                    length, temporal_step):
    """The index as separate arrays: every window's frames downsampled,
    stacked per start, and each augmentation copied contiguous."""
    lo, hi = frame_range
    unit = [dp.rescale_unit(video.frames[t])[None] for t in range(lo, hi)]
    ref = []
    for x0, y0 in dp.spatial_windows(video.width, video.height, window_size, window_step):
        small = [dp.block_mean(f[:, y0:y0 + window_size, x0:x0 + window_size], downsample)
                 for f in unit]
        for s in dp.temporal_windows(hi - lo, length, temporal_step):
            stack = np.stack(small[s:s + length])
            variants = {
                "identity": stack.copy(),
                "fliph": np.ascontiguousarray(stack[..., ::-1]),
                "flipv": np.ascontiguousarray(stack[..., ::-1, :]),
                "rot90": np.ascontiguousarray(np.rot90(stack, k=3, axes=(-2, -1))),
                "rot180": np.ascontiguousarray(np.rot90(stack, k=2, axes=(-2, -1))),
                "rot270": np.ascontiguousarray(np.rot90(stack, k=1, axes=(-2, -1))),
            }
            ref.extend(((x0, y0, lo + s, tag), variants[tag]) for tag in dp.TRANSFORMS)
    return ref


def root_array(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def noise_video(width, height, count, seed):
    rng = np.random.default_rng(seed)
    return dp.VideoSource.from_arrays(
        rng.integers(0, 256, (count, height, width), dtype=np.uint8))


class TestStackViews:
    # 100x70 frames, 32-px windows stepping 24: x origins 0,24,48 plus the
    # flush 68, y origins 0,24 plus the flush 38
    GEOMETRY = dict(frame_range=(3, 12), window_size=32, window_step=24, downsample=4,
                    length=4, temporal_step=2)

    def test_bit_identical_to_eager_copies(self):
        video = noise_video(100, 70, 13, seed=5)
        subs = dp.build_subsequences(video, augmented=True, **self.GEOMETRY)
        ref = eager_reference(video, **self.GEOMETRY)
        assert {s.x0 for s in subs} == {0, 24, 48, 68}
        assert {s.y0 for s in subs} == {0, 24, 38}
        assert len(subs) == len(ref) == 12 * 3 * 6
        for sub, (key, want) in zip(subs, ref):
            assert (sub.x0, sub.y0, sub.t0, sub.transform) == key
            assert sub.scale == 4
            got = np.ascontiguousarray(sub.frames)
            assert got.shape == want.shape == (4, 1, 8, 8)
            assert got.tobytes() == want.tobytes(), key

    def test_frames_read_only_and_shared_per_window(self):
        video = noise_video(100, 70, 13, seed=6)
        subs = dp.build_subsequences(video, augmented=True, **self.GEOMETRY)
        for sub in subs[:6]:
            with pytest.raises(ValueError, match="read-only"):
                sub.frames[0, 0, 0, 0] = 1.0
        first = [s for s in subs if (s.x0, s.y0) == (0, 0)]
        second = [s for s in subs if (s.x0, s.y0) == (24, 0)]
        assert [s.t0 for s in first[::6]] == [3, 5, 7]
        # starts 3 and 5 overlap in time: every tag of both is one buffer
        assert all(np.shares_memory(first[0].frames, s.frames) for s in first[:12])
        # start 7 does not overlap start 3 but is a view of the same stack
        assert all(root_array(s.frames) is root_array(first[0].frames) for s in first)
        assert not np.shares_memory(first[0].frames, second[0].frames)

    def test_targets_are_views_of_identity_targets(self):
        video, annotations = dp.synth_generate(
            dp.SyntheticConfig(seed=4, frame_size=96, frame_count=24, division_prob=0.2))
        subs = dp.build_subsequences(video, window_size=64, window_step=32, downsample=1,
                                     length=10, temporal_step=3, augmented=True)
        assert len(annotations) > 3
        annotations.append((9, 1, 94))  # its squares are clipped by the window border
        dp.attach_targets(subs, annotations, target_offset=3)
        for i in range(0, len(subs), 6):
            identity = np.stack(subs[i].targets)
            assert identity.shape == (7, 1, 64, 64)
            for sub in subs[i:i + 6]:
                want = np.ascontiguousarray(dp.transform_frames(identity, sub.transform))
                assert np.stack(sub.targets).tobytes() == want.tobytes(), sub.transform
                assert not sub.targets[0].flags.writeable
        # one painted stack per window
        roots = {}
        for sub in subs:
            roots.setdefault((sub.x0, sub.y0), set()).add(id(root_array(sub.targets[0])))
        assert len(roots) == 4 and all(len(ids) == 1 for ids in roots.values())
        # identity targets are the annotations painted in window coordinates
        for sub in subs[::6]:
            points = [(f - sub.t0 - 3, x - sub.x0, y - sub.y0) for f, x, y in annotations
                      if sub.x0 <= x < sub.x0 + 64 and sub.y0 <= y < sub.y0 + 64]
            want = dp.build_supervised_target(points, 64, 7)
            assert np.stack(sub.targets).tobytes() == want.tobytes()

    def test_full_scale_index_fits_in_memory(self):
        # PAPER.md geometry: 1392x1040, 256-px windows stepping 128, x4
        # block means, six augmentations, 100 frames. The unsupervised index
        # (15-frame subsequences) as separate arrays would take 20.3 GB; the
        # supervised one (10 frames) would take 14.3 GB for its targets
        # alone, painted per subsequence. One [100,1,64,64] stack per window
        # is 262 MB, and the supervised targets add one more.
        video = noise_video(1392, 1040, 100, seed=7)
        annotations = [(f, 53 * f % 1392, 31 * f % 1040) for f in range(100)]

        def sup_index():
            subs = dp.build_subsequences(video, length=10, augmented=True)
            dp.attach_targets(subs, annotations, target_offset=0)
            assert len(subs[-1].targets) == 10
            return subs

        for build, count, length, bound in (
                (lambda: dp.build_subsequences(video, augmented=True), 80 * 86 * 6, 15, 400e6),
                (sup_index, 80 * 91 * 6, 10, 700e6)):
            tracemalloc.start()
            try:
                subs = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(subs) == count
            assert subs[0].frames.shape == (length, 1, 64, 64)
            assert peak < bound, f"{length}-frame index: traced peak {peak / 1e6:.0f} MB"
            del subs


class TestWindowingChecks:
    @pytest.mark.parametrize("params, message", [
        (dict(window_size=0), "window_size must be at least 1"),
        (dict(window_step=0), "window_step must be at least 1"),
        (dict(temporal_step=0), "temporal_step must be at least 1"),
        (dict(downsample=0), "downsample must be at least 1"),
        (dict(length=0), "length must be at least 1"),
        (dict(window_size=62), "window_size 62 is not divisible by downsample 4"),
    ], ids=["window_size", "window_step", "temporal_step", "downsample", "length",
            "divisible"])
    def test_bad_parameter_named(self, params, message):
        video = noise_video(64, 64, 16, seed=8)
        args = dict(window_size=64, window_step=64, downsample=4, length=15,
                    temporal_step=1)
        args.update(params)
        with pytest.raises(ValueError, match=message):
            dp.build_subsequences(video, **args)
