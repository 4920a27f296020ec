"""Postprocess tests: grouping rules, brute-force score-scan oracle for
centroid localization, thresholded components, dedup clustering oracle."""

import numpy as np
import pytest

from mitoscope import network as net
from mitoscope import postprocess as pp
from mitoscope.data_pipeline import Subsequence, VideoSource, build_subsequences


def make_grid(t, active, background=2, blocks=2):
    """[t, blocks, blocks] class grid of the background class with given
    (frame, class, block_row, block_col) cells; blocks are 8x8 pixels."""
    grid = np.full((t, blocks, blocks), background)
    for f, c, br, bc in active:
        grid[f, br, bc] = c
    return grid


def wta_maps(rng, t, n, m=32, g=8):
    """Winner-take-all event maps from the event head on random hidden
    states, as ``detect_events`` returns them."""
    w, b = rng.normal(size=(n, 3, 1, 1)), rng.normal(size=n)
    return [net.event_head(rng.normal(size=(3, m, m)), w, b, g)[0] for _ in range(t)]


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def disc_mean_oracle(frames, t, px, py, lookahead, radius):
    """Direct double-loop disc average of the intensity change; the divisor
    is the full disc area and out-of-bounds pixels contribute zero."""
    m = frames.shape[-1]
    total = count = 0.0
    r = int(np.floor(radius))
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx * dx + dy * dy > radius * radius:
                continue
            count += 1
            x, y = px + dx, py + dy
            if 0 <= x < m and 0 <= y < m:
                total += frames[t + lookahead, 0, y, x] - frames[t, 0, y, x]
    return total / count


def locate_oracle(sub, patch, lookahead, radius, grid_factor=8, frame_offset=0):
    """Exhaustive scan over every patch pixel and frame. Ties break by the
    point increase, then earliest frame, then row-major pixel."""
    t_max = sub.frames.shape[0]
    best = None
    for (t, br, bc) in sorted(patch.members):
        if t + frame_offset + lookahead >= t_max:
            continue
        ft = t + frame_offset
        for py in range(br * grid_factor, (br + 1) * grid_factor):
            for px in range(bc * grid_factor, (bc + 1) * grid_factor):
                s = disc_mean_oracle(sub.frames, ft, px, py, lookahead, radius)
                rise = sub.frames[ft + lookahead, 0, py, px] - sub.frames[ft, 0, py, px]
                key = (-s, -rise, t, py, px)
                if best is None or key < best[0]:
                    best = (key, (t, px, py, s))
    if best is None:
        return None
    t, px, py, s = best[1]
    frame, ox, oy = sub.to_original(t + frame_offset, px, py)
    return pp.Detection(frame, ox, oy, patch.class_id, s)


def merge_oracle(detections, spatial, temporal):
    """Same greedy rule, written as a direct filter pass."""
    ordered = sorted(detections, key=lambda d: (-d.score, d.frame, d.x, d.y, d.class_id))
    kept = []
    for d in ordered:
        if all(abs(d.frame - s.frame) > temporal
               or (d.x - s.x) ** 2 + (d.y - s.y) ** 2 > spatial ** 2 for s in kept):
            kept.append(d)
    return kept


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

class TestClassGrid:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grid_cells_are_the_active_classes(self, seed):
        maps = wta_maps(np.random.default_rng(seed), t=4, n=5)
        grid = pp.class_grid(maps, 8)
        assert grid.shape == (4, 4, 4)
        for c in range(5):
            active = np.stack([m[c, ::8, ::8] > 0 for m in maps])
            np.testing.assert_array_equal(grid == c, active)


class TestGroupActivations:
    def test_empty_maps(self):
        assert pp.group_activations(make_grid(3, []), 0) == []

    def test_singleton(self):
        patches = pp.group_activations(make_grid(3, [(1, 0, 0, 1)]), 0)
        assert len(patches) == 1
        assert patches[0].members == [(1, 0, 1)]

    def test_diagonal_blocks_not_connected(self):
        grid = make_grid(1, [(0, 0, 0, 0), (0, 0, 1, 1)])
        assert len(pp.group_activations(grid, 0)) == 2

    def test_temporal_adjacency_connects(self):
        grid = make_grid(3, [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1)])
        patches = pp.group_activations(grid, 0)
        assert len(patches) == 1
        assert sorted(patches[0].members) == [(0, 0, 0), (1, 0, 0), (1, 0, 1)]

    def test_classes_are_independent(self):
        grid = make_grid(1, [(0, 0, 0, 0), (0, 1, 0, 1)])
        assert len(pp.group_activations(grid, 0)) == 1
        assert len(pp.group_activations(grid, 1)) == 1

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            pp.group_activations(make_grid(1, []), -1)


# ---------------------------------------------------------------------------
# locate_centroid
# ---------------------------------------------------------------------------

def flat_sub(t=6, m=16, value=0.3):
    return Subsequence(np.full((t, 1, m, m), value), 0, 0, 0)


class TestLocateCentroid:
    def test_single_brightening_pixel(self):
        sub = flat_sub()
        sub.frames[4, 0, 10, 10] = 0.9  # rises from 0.3 between frames 2 and 4
        patch = pp.PatchSequence(0, [(2, 1, 1)])
        det = pp.locate_centroid(sub, patch, pp.disc_mean_maps(sub.frames, 2, 5.0), lookahead=2)
        assert (det.frame, det.x, det.y) == (2, 10, 10)
        assert det.score == pytest.approx(
            disc_mean_oracle(sub.frames, 2, 10, 10, 2, 5.0))

    def test_static_frames_tie_rule(self):
        sub = flat_sub()
        patch = pp.PatchSequence(0, [(1, 1, 1), (2, 1, 1)])
        det = pp.locate_centroid(sub, patch, pp.disc_mean_maps(sub.frames, 2, 5.0))
        # all scores zero: earliest frame, first pixel of the block
        assert (det.frame, det.x, det.y) == (1, 8, 8)
        assert det.score == 0.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            frames = rng.uniform(0, 1, (5, 1, 16, 16))
            sub = Subsequence(frames, 0, 0, 0)
            patch = pp.PatchSequence(1, [(0, 0, 0), (0, 0, 1), (1, 0, 0), (2, 1, 1)])
            det = pp.locate_centroid(sub, patch, pp.disc_mean_maps(sub.frames, 2, 5.0))
            oracle = locate_oracle(sub, patch, 2, 5.0)
            assert (det.frame, det.x, det.y) == (oracle.frame, oracle.x, oracle.y)
            assert det.score == pytest.approx(oracle.score, abs=1e-12)

    def test_brightening_across_block_edge(self):
        sub = flat_sub()
        sub.frames[3, 0, 8, 7] = 0.95  # peak just left of the block boundary
        patch = pp.PatchSequence(0, [(1, 1, 0), (1, 1, 1)])
        det = pp.locate_centroid(sub, patch, pp.disc_mean_maps(sub.frames, 2, 5.0))
        oracle = locate_oracle(sub, patch, 2, 5.0)
        assert (det.frame, det.x, det.y) == (oracle.frame, oracle.x, oracle.y)

    def test_frame_offset_alignment(self):
        # two context frames precede the mapped frames
        sub = flat_sub(t=6)
        sub.frames[4, 0, 10, 10] = 0.9
        patch = pp.PatchSequence(0, [(0, 1, 1)])  # map index 0 = frame 2
        det = pp.locate_centroid(sub, patch, pp.disc_mean_maps(sub.frames, 2, 5.0),
                                 frame_offset=2)
        assert (det.frame, det.x, det.y) == (2, 10, 10)

    def test_unscorable_patch_skipped(self):
        sub = flat_sub(t=4)
        patch = pp.PatchSequence(0, [(3, 0, 0)])  # no lookahead room
        assert pp.locate_centroid(sub, patch, pp.disc_mean_maps(sub.frames, 2, 5.0),
                                  lookahead=2) is None

    def test_provenance_mapping(self):
        frames = np.full((5, 1, 16, 16), 0.2)
        frames[3, 0, 5, 6] = 0.9
        sub = Subsequence(frames, x0=128, y0=64, t0=40, scale=4)
        patch = pp.PatchSequence(2, [(1, 0, 0)])
        det = pp.locate_centroid(sub, patch, pp.disc_mean_maps(sub.frames, 2, 5.0))
        assert det.frame == 41
        assert det.x == 128 + 4 * 6 + 2
        assert det.y == 64 + 4 * 5 + 2
        assert det.class_id == 2


# ---------------------------------------------------------------------------
# threshold detections
# ---------------------------------------------------------------------------

class TestThresholdDetections:
    def test_all_below_threshold(self):
        maps = [np.full((1, 16, 16), 0.5)] * 3
        assert pp.threshold_detections(maps, flat_sub(3), 0.7) == []

    def test_symmetric_plateau_centroid(self):
        maps = [np.full((1, 32, 32), 0.1)]
        maps[0][0, 19:22, 19:22] = 0.9
        sub = Subsequence(np.zeros((1, 1, 32, 32)), 0, 0, 0)
        dets = pp.threshold_detections(maps, sub, 0.7)
        assert len(dets) == 1
        assert (dets[0].frame, dets[0].x, dets[0].y) == (0, 20, 20)

    def test_two_separated_plateaus(self):
        maps = [np.full((1, 32, 32), 0.1)]
        maps[0][0, 2:5, 2:5] = 0.8
        maps[0][0, 20:23, 25:28] = 0.95
        sub = Subsequence(np.zeros((1, 1, 32, 32)), 0, 0, 0)
        dets = pp.threshold_detections(maps, sub, 0.7)
        assert len(dets) == 2
        assert {(d.x, d.y) for d in dets} == {(3, 3), (26, 21)}

    def test_weighted_centroid(self):
        maps = [np.full((1, 16, 16), 0.0)]
        maps[0][0, 5, 5] = 0.8
        maps[0][0, 5, 6] = 0.8
        maps[0][0, 5, 7] = 1.0  # pulls the centroid right of the middle
        sub = Subsequence(np.zeros((1, 1, 16, 16)), 0, 0, 0)
        det = pp.threshold_detections(maps, sub, 0.7)[0]
        # centroid x = (0.8*5 + 0.8*6 + 1.0*7) / 2.6 = 6.0769 -> 6
        assert (det.x, det.y) == (6, 5)
        assert det.score == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# merge_global
# ---------------------------------------------------------------------------

class TestMergeGlobal:
    def test_exact_duplicates_collapse(self):
        d = [pp.Detection(5, 10, 10, 0, 1.0) for _ in range(4)]
        assert len(pp.merge_global(d)) == 1

    def test_far_apart_kept(self):
        d = [pp.Detection(5, 10, 10, 0, 1.0), pp.Detection(5, 60, 10, 0, 0.9)]
        assert len(pp.merge_global(d)) == 2

    def test_chain_clustering_matches_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            dets = [pp.Detection(int(rng.integers(0, 6)), int(rng.integers(0, 40)),
                                 int(rng.integers(0, 40)), 0, float(rng.uniform()))
                    for _ in range(12)]
            got = pp.merge_global(dets)
            want = merge_oracle(dets, 10.0, 2)
            assert [(d.frame, d.x, d.y, d.score) for d in got] == \
                   [(d.frame, d.x, d.y, d.score) for d in want]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        dets = [pp.Detection(int(rng.integers(0, 6)), int(rng.integers(0, 40)),
                             int(rng.integers(0, 40)), 0, float(rng.uniform()))
                for _ in range(20)]
        once = pp.merge_global(dets)
        twice = pp.merge_global(once)
        assert [(d.frame, d.x, d.y) for d in once] == [(d.frame, d.x, d.y) for d in twice]

    def test_explicit_chain(self):
        a = pp.Detection(0, 0, 0, 0, 0.9)
        b = pp.Detection(0, 8, 0, 0, 1.0)   # highest: seeds first
        c = pp.Detection(0, 16, 0, 0, 0.8)  # close to b, far from a
        out = pp.merge_global([a, b, c])
        assert [(d.x, d.score) for d in out] == [(8, 1.0)]


# ---------------------------------------------------------------------------
# window_detections
# ---------------------------------------------------------------------------

class TestWindowDetections:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_class_is_the_subset_of_all(self, seed):
        rng = np.random.default_rng(seed)
        grid = pp.class_grid(wta_maps(rng, t=4, n=4), 8)
        grid[-1, 0, 0] = 4  # a patch in the last frame: no lookahead, skipped
        sub = Subsequence(rng.uniform(0.1, 0.9, (6, 1, 32, 32)), 0, 0, 0)
        maps = pp.disc_mean_maps(sub.frames, 2, 5.0)
        every, skipped = pp.window_detections(grid, sub, range(5), maps, frame_offset=2)
        total_skipped = 0
        for k in range(5):
            dets, skips = pp.window_detections(grid, sub, [k], maps, frame_offset=2)
            assert dets == [d for d in every if d.class_id == k]
            located = [pp.locate_centroid(sub, patch, maps, frame_offset=2)
                       for patch in pp.group_activations(grid, k)]
            assert dets == [d for d in located if d is not None]
            assert skips == located.count(None)
            total_skipped += skips
        assert skipped == total_skipped > 0

    def test_no_patches_no_detections(self):
        sub = flat_sub(3)
        maps = pp.disc_mean_maps(sub.frames, 2, 5.0)
        assert pp.window_detections(make_grid(3, []), sub, [0, 1], maps) == ([], 0)


class TestStackScoreMaps:
    # ``detect`` computes the disc-mean maps once over each spatial window's
    # stack and hands every window its slice
    @pytest.mark.parametrize("lookahead", [1, 2])
    def test_stack_slice_equals_window_maps(self, lookahead):
        rng = np.random.default_rng(lookahead)
        video = VideoSource.from_arrays(rng.integers(0, 256, (13, 48, 48), dtype=np.uint8))
        lo, length, enc = 3, 6, 1
        subs = build_subsequences(video, frame_range=(lo, 13), window_size=32,
                                  window_step=16, downsample=2, length=length)
        assert len(subs) == 4 * 5  # four stacks, five starts each
        stack_maps = {}
        for sub in subs:
            stack = sub.stack
            assert stack.shape == (13 - lo, 1, 16, 16)
            if id(stack) not in stack_maps:
                stack_maps[id(stack)] = pp.disc_mean_maps(stack, lookahead, 5.0)
            start = sub.t0 - lo
            np.testing.assert_array_equal(stack[start:start + length], sub.frames)
            sliced = stack_maps[id(stack)][start:start + length]
            own = pp.disc_mean_maps(sub.frames, lookahead, 5.0)
            read = length - lookahead  # locate_centroid reads rows t < T - lookahead
            assert np.array_equal(sliced[:read], own[:read]), (sub.x0, sub.y0, start)
            grid = pp.class_grid(wta_maps(rng, t=length - enc, n=3, m=16), 8)
            assert (pp.window_detections(grid, sub, range(3), sliced, lookahead,
                                         frame_offset=enc)
                    == pp.window_detections(grid, sub, range(3), own, lookahead,
                                            frame_offset=enc))
        assert len(stack_maps) == 4


# ---------------------------------------------------------------------------
# rank_classes
# ---------------------------------------------------------------------------

class TestRankClasses:
    def test_division_covering_class_ranked_first(self):
        # class 1 sits on a brightening site, class 0 on static background
        sub = flat_sub(t=6, m=16)
        sub.frames[4, 0, 4, 4] = 0.95
        grid = make_grid(6, [(2, 1, 0, 0)] + [(t, 0, 1, 1) for t in range(6)])
        maps = pp.disc_mean_maps(sub.frames, 2, 5.0)
        ranking = pp.rank_classes(pp.window_detections(grid, sub, [0, 1], maps)[0])
        assert ranking[0][0] == 1
        assert ranking[0][1] > ranking[1][1]

    def test_empty_maps_empty_ranking(self):
        assert pp.rank_classes([]) == []

    def test_equal_scores_order_by_class(self):
        dets = [pp.Detection(0, 0, 0, 2, 0.5), pp.Detection(0, 8, 8, 1, 0.5)]
        assert [c for c, _, _ in pp.rank_classes(dets)] == [1, 2]

    def test_mean_and_count_per_class(self):
        dets = [pp.Detection(0, 0, 0, c, s) for c, s in
                ((3, 0.25), (0, 0.625), (3, 0.75), (3, 0.5))]
        assert pp.rank_classes(dets) == [(0, 0.625, 1), (3, 0.5, 3)]
