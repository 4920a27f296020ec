"""CLI tests on desk-scale configs: determinism, artifact contracts,
usage errors, and the external file formats."""

import csv
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mitoscope import cli
from mitoscope import lanes
from mitoscope import network as net
from mitoscope.data_pipeline import (SyntheticConfig, VideoSource, export_video,
                                     load_annotations, load_frames, read_pgm,
                                     synth_generate)
from mitoscope.network import NetworkConfig, init_unsupervised, save_checkpoint

REPO = Path(__file__).resolve().parents[1]

TINY_NET = """
[network]
frame_size = 32
hidden_channels = 2
event_classes = 2
encoder_len = 2
target_len = 3

[training]
epochs = 2
seed = 5

[data]
window_size = 32
window_step = 32
downsample = 1
augment = false

[synth]
frame_size = 32
frame_count = 12
blob_count = 3
blob_radius = 3.0
division_prob = 0.1
seed = 7
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_NET)
    return str(path)


def run(argv):
    return cli.main(argv)


def no_forward(*args, **kwargs):
    raise AssertionError("forward pass ran")


class TestRunConfig:
    def test_defaults_without_file(self):
        cfg = cli.load_run_config(None)
        assert cfg.network.hidden_channels == 32
        assert cfg.network.event_classes == 16
        assert cfg.training.learning_rate == 1e-3
        assert cfg.training.decay_rate == 0.9
        assert cfg.training.epochs == 100
        assert cfg.data.window_size == 256

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nbogus = 3\n")
        with pytest.raises(cli.UsageError, match="bogus"):
            cli.load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(cli.UsageError, match="nonsense"):
            cli.load_run_config(path)

    def test_section_invariants_checked(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[synth]\ndivision_prob = 2.5\n")
        with pytest.raises(cli.UsageError, match="division_prob"):
            cli.load_run_config(path)

    def test_data_windowing_checked(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nwindow_size = 62\n")
        with pytest.raises(cli.UsageError,
                           match=r"bad\.ini: bad \[data\] section: window_size 62 is not "
                                 r"divisible by downsample 4"):
            cli.load_run_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_names_file(self, tmp_path, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[training]\nlearning_rate = {value}\n")
        with pytest.raises(cli.UsageError,
                           match=rf"bad\.ini: bad \[training\] section: learning_rate must be "
                                 rf"finite and >= 0, got {value}"):
            cli.load_run_config(path)

    def test_network_sizes_checked(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\ngrid_factor = 0\n")
        with pytest.raises(cli.UsageError,
                           match=r"bad\.ini: bad \[network\] section: grid_factor must be "
                                 r">= 1, got 0"):
            cli.load_run_config(path)

    @pytest.mark.parametrize("section, line, message", [
        ("postprocess", "lookahead = -1", "lookahead must be >= 1, got -1"),
        ("postprocess", "lookahead = 0", "lookahead must be >= 1, got 0"),
        ("postprocess", "disc_radius = -1", "disc_radius must be finite and >= 0, got -1.0"),
        ("postprocess", "disc_radius = inf", "disc_radius must be finite and >= 0, got inf"),
        ("postprocess", "threshold = nan", r"threshold must be in \(0,1\), got nan"),
        ("postprocess", "threshold = 1", r"threshold must be in \(0,1\), got 1.0"),
        ("postprocess", "threshold = 0", r"threshold must be in \(0,1\), got 0.0"),
        ("postprocess", "merge_spatial = nan",
         "merge_spatial must be finite and >= 0, got nan"),
        ("postprocess", "merge_temporal = -3",
         "merge_temporal must be finite and >= 0, got -3"),
        ("evaluation", "spatial_th = -0.5", "spatial_th must be finite and >= 0, got -0.5"),
        ("evaluation", "spatial_th = inf", "spatial_th must be finite and >= 0, got inf"),
    ])
    def test_postprocess_and_evaluation_values_checked(self, tmp_path, section, line,
                                                       message):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{line}\n")
        with pytest.raises(cli.UsageError,
                           match=rf"bad\.ini: bad \[{section}\] section: {message}"):
            cli.load_run_config(path)

    def test_postprocess_and_evaluation_bounds_accepted(self, tmp_path):
        path = tmp_path / "edge.ini"
        path.write_text("[postprocess]\nlookahead = 1\ndisc_radius = 0\nmerge_spatial = 0\n"
                        "merge_temporal = 0\n[evaluation]\nspatial_th = 0\n")
        cfg = cli.load_run_config(path)
        assert (cfg.postprocess.disc_radius, cfg.evaluation.spatial_th) == (0.0, 0.0)

    def test_readme_configs_load(self):
        paths = set(re.findall(r"--config (\S+)", (REPO / "README.md").read_text()))
        assert paths
        for rel in sorted(paths):
            cli.load_run_config(REPO / rel)

    def test_canonical_echo_roundtrip(self, tmp_path, tiny_config):
        cfg = cli.load_run_config(tiny_config)
        echo = tmp_path / "echo.ini"
        echo.write_text(cli.format_run_config(cfg))
        cfg2 = cli.load_run_config(echo)
        assert cli.format_run_config(cfg2) == cli.format_run_config(cfg)
        assert cfg2.network.frame_size == 32

    def test_env_seed_override(self, tmp_path, tiny_config, monkeypatch):
        monkeypatch.setenv("MITOSCOPE_SEED", "99")
        out = tmp_path / "video"
        assert run(["synth", "--config", tiny_config, "--out", str(out)]) == 0
        echoed = (out / "effective_config.ini").read_text()
        assert "seed = 99" in echoed

    @pytest.mark.parametrize("text, detail", [
        ("frame_size = 32\n", "File contains no section headers"),
        ("[network]\nframe_size = 32\nframe_size = 64\n", "option 'frame_size'"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text, detail):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        out = tmp_path / "video"
        assert run(["synth", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: malformed config" in err and detail in err

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, tiny_config, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("MITOSCOPE_SEED", "abc")
        out = tmp_path / "video"
        assert run(["synth", "--config", tiny_config, "--out", str(out)]) == 2
        assert "MITOSCOPE_SEED must be an integer, got 'abc'" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_frames_and_annotations(self, tmp_path, tiny_config):
        out = tmp_path / "video"
        assert run(["synth", "--config", tiny_config, "--out", str(out)]) == 0
        video = load_frames(out)
        assert video.count == 12
        assert (video.width, video.height) == (32, 32)
        assert (out / "annotations.csv").exists()
        assert (out / "effective_config.ini").exists()

    def test_byte_identical_reruns(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        run(["synth", "--config", tiny_config, "--out", str(out1)])
        run(["synth", "--config", tiny_config, "--out", str(out2)])
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_zero_probability_empty_annotations(self, tmp_path):
        cfg = tmp_path / "p0.ini"
        cfg.write_text(TINY_NET.replace("division_prob = 0.1", "division_prob = 0"))
        out = tmp_path / "video"
        assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert load_annotations(out / "annotations.csv") == []

    def test_frame_contract(self, tmp_path, tiny_config):
        out = tmp_path / "video"
        run(["synth", "--config", tiny_config, "--out", str(out)])
        frame = read_pgm(out / "frame_0004.pgm")
        assert frame.shape == (32, 32)


@pytest.fixture
def synth_video(tmp_path, tiny_config):
    out = tmp_path / "video"
    run(["synth", "--config", tiny_config, "--out", str(out)])
    return out


class TestTrainCommand:
    def test_unsupervised_artifacts(self, tmp_path, tiny_config, synth_video):
        ckpt = tmp_path / "run" / "model.ckpt"
        code = run(["train", "--config", tiny_config, "--frames", str(synth_video),
                    "--mode", "unsup", "--out", str(ckpt)])
        assert code == 0
        assert ckpt.exists()
        loss_rows = list(csv.reader(open(ckpt.parent / "loss.csv")))
        assert loss_rows[0] == ["epoch", "mean_loss"]
        assert len(loss_rows) == 3  # header + 2 epochs
        assert (ckpt.parent / "loss.png").read_bytes()[:4] == b"\x89PNG"

    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_nonpositive_epochs_is_usage_error(self, tmp_path, tiny_config, synth_video,
                                               capsys, epochs):
        ckpt = tmp_path / "zero" / "model.ckpt"
        code = run(["train", "--config", tiny_config, "--frames", str(synth_video),
                    "--mode", "unsup", "--epochs", epochs, "--out", str(ckpt)])
        assert code == 2
        assert "--epochs" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_identical_checkpoint_bytes_on_rerun(self, tmp_path, tiny_config,
                                                 synth_video):
        c1 = tmp_path / "r1" / "model.ckpt"
        c2 = tmp_path / "r2" / "model.ckpt"
        for c in (c1, c2):
            assert run(["train", "--config", tiny_config, "--frames", str(synth_video),
                        "--mode", "unsup", "--out", str(c)]) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_supervised_requires_annotations(self, tmp_path, tiny_config, synth_video):
        code = run(["train", "--config", tiny_config, "--frames", str(synth_video),
                    "--mode", "sup", "--out", str(tmp_path / "m.ckpt")])
        assert code == 2

    def test_supervised_trains(self, tmp_path, tiny_config, synth_video):
        ckpt = tmp_path / "sup" / "model.ckpt"
        code = run(["train", "--config", tiny_config, "--frames", str(synth_video),
                    "--annotations", str(synth_video / "annotations.csv"),
                    "--mode", "sup", "--out", str(ckpt)])
        assert code == 0
        from mitoscope.network import load_checkpoint
        assert load_checkpoint(ckpt).kind == "supervised"

    def test_train_range(self, tmp_path, tiny_config, synth_video):
        ckpt = tmp_path / "rng" / "model.ckpt"
        code = run(["train", "--config", tiny_config, "--frames", str(synth_video),
                    "--mode", "unsup", "--train-range", "0:8", "--out", str(ckpt)])
        assert code == 0


@pytest.fixture
def unsup_ckpt(tmp_path, tiny_config, synth_video):
    ckpt = tmp_path / "unsup" / "model.ckpt"
    run(["train", "--config", tiny_config, "--frames", str(synth_video),
         "--mode", "unsup", "--out", str(ckpt)])
    return ckpt


class TestDetectCommand:
    def test_missing_class_prints_ranking(self, tmp_path, tiny_config, synth_video,
                                          unsup_ckpt, capsys):
        code = run(["detect", "--config", tiny_config, "--model", str(unsup_ckpt),
                    "--frames", str(synth_video), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        out = capsys.readouterr().out
        assert "mean_score" in out
        assert "--division-class" in out
        assert not (tmp_path / "d.csv").exists()

    def test_class_out_of_range(self, tmp_path, tiny_config, synth_video, unsup_ckpt,
                                monkeypatch, capsys):
        monkeypatch.setattr(cli.net, "detect_events", no_forward)
        for k in ("-2", "-1", "2", "99"):
            code = run(["detect", "--config", tiny_config, "--model", str(unsup_ckpt),
                        "--frames", str(synth_video), "--division-class", k,
                        "--out", str(tmp_path / "d.csv")])
            assert code == 2
            assert (f"--division-class {k} out of range for 2 classes"
                    in capsys.readouterr().err)
        assert not (tmp_path / "d.csv").exists()

    def test_detections_within_bounds(self, tmp_path, tiny_config, synth_video,
                                      unsup_ckpt):
        out = tmp_path / "det" / "d.csv"
        code = run(["detect", "--config", tiny_config, "--model", str(unsup_ckpt),
                    "--frames", str(synth_video), "--division-class", "0",
                    "--out", str(out)])
        assert code == 0
        for d in cli.load_detections(out):
            assert 0 <= d.x < 32 and 0 <= d.y < 32
            assert 0 <= d.frame < 12

    def test_undecodable_checkpoint_names_file(self, tmp_path, tiny_config, synth_video,
                                               capsys):
        bad = tmp_path / "garbled.ckpt"
        bad.write_bytes(b"MSCOPE1\n\xff\xfe=1\n\n")
        code = run(["detect", "--config", tiny_config, "--model", str(bad),
                    "--frames", str(synth_video), "--division-class", "0",
                    "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "garbled.ckpt" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_truncated_checkpoint_names_file(self, tmp_path, tiny_config, synth_video,
                                             capsys):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes((REPO / "benchmarks" / "fixtures" / "sup.ckpt").read_bytes()[:-4])
        code = run(["detect", "--config", tiny_config, "--model", str(bad),
                    "--frames", str(synth_video), "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert f"{bad}: truncated blob: output_conv.b" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_class_with_supervised_checkpoint_rejected(self, tmp_path, tiny_config,
                                                       synth_video, monkeypatch, capsys):
        monkeypatch.setattr(cli.net, "supervised_maps", no_forward)
        code = run(["detect", "--config", tiny_config,
                    "--model", str(REPO / "benchmarks" / "fixtures" / "sup.ckpt"),
                    "--frames", str(synth_video), "--division-class", "0",
                    "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "--division-class applies only to unsupervised" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_full_geometry_ranking_holds_one_window(self, tmp_path, capsys):
        # a 1392x1040 video at the [data] defaults: 80 windows of 256 px,
        # step 128, x4 down to 64x64; holding every window's event maps
        # would take 80 x 10 x [16,64,64] float64 = 419 MB
        self.full_geometry_ranking(tmp_path, capsys)

    def test_full_geometry_ranking_holds_one_window_on_two_lanes(self, tmp_path, capsys,
                                                               monkeypatch):
        # windows in pairs, whatever the BLAS thread count of the machine
        monkeypatch.setattr(lanes, "two_lanes", lambda: True)
        self.full_geometry_ranking(tmp_path, capsys)

    @staticmethod
    def full_geometry_ranking(tmp_path, capsys):
        rng = np.random.default_rng(0)
        export_video(VideoSource.from_arrays(
            rng.integers(0, 256, (15, 1040, 1392), dtype=np.uint8)), [], tmp_path / "video")
        ckpt = tmp_path / "paper.ckpt"
        save_checkpoint(init_unsupervised(NetworkConfig(hidden_channels=1,
                                                        event_classes=16), seed=0), ckpt)
        tracemalloc.start()
        try:
            code = run(["detect", "--model", str(ckpt), "--frames", str(tmp_path / "video"),
                        "--out", str(tmp_path / "d.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        out = capsys.readouterr().out
        assert "mean_score" in out and "--division-class" in out
        assert peak < 150 * 2 ** 20, f"traced peak {peak / 2 ** 20:.0f} MB"


DESK_INI = """[data]
window_size = 64
window_step = 64
downsample = 1
augment = false
"""


def one_window_at_a_time(model, windows):
    """Reference for ``net.window_maps``: each window in turn on the caller."""
    maps_of = net.supervised_maps if model.kind == "supervised" else net.detect_events
    return (maps_of(model, frames) for frames in windows)


@pytest.fixture(scope="module")
def desk_clip(tmp_path_factory):
    """A 20-frame 64x64 clip and the detect config of the desk benchmark."""
    work = tmp_path_factory.mktemp("desk")
    video, annotations = synth_generate(SyntheticConfig(
        seed=1, frame_count=20, division_prob=0.1, blob_count=10, blob_radius=3.0))
    export_video(video, annotations, work / "frames")
    (work / "desk.ini").write_text(DESK_INI)
    return work


class TestDetectWindowPairs:
    def detect_outputs(self, clip, frame_range, capsys):
        """Exit codes, stdout and detections.csv bytes of the sup flow and of
        the unsup ranking and top-class flows."""
        common = ["detect", "--config", str(clip / "desk.ini"), "--frames",
                  str(clip / "frames"), "--range", frame_range,
                  "--out", str(clip / "out" / "d.csv")]
        outputs = []
        for model, extra in (("sup", []), ("unsup", []), ("unsup", None)):
            if extra is None:  # the ranking's top class
                extra = ["--division-class", outputs[-1][1].splitlines()[1].split()[0]]
            code = run(common + ["--model", str(REPO / "benchmarks" / "fixtures" /
                                               f"{model}.ckpt")] + extra)
            csv_path = clip / "out" / "d.csv"
            written = csv_path.read_bytes() if csv_path.exists() else None
            if csv_path.exists():
                csv_path.unlink()
            outputs.append((code, capsys.readouterr().out, written))
        return outputs

    # sup windows are 10 frames and unsup 15: 20 frames give 11 and 6, 19
    # give 10 and 5
    @pytest.mark.parametrize("frame_range", ["0:20", "0:19"])
    def test_outputs_byte_identical(self, desk_clip, frame_range, capsys, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(net, "window_maps", one_window_at_a_time)
            expected = self.detect_outputs(desk_clip, frame_range, capsys)
        assert [code for code, _, _ in expected] == [0, 2, 0]
        assert expected[0][2].count(b"\n") > 1  # some detections to compare
        for on in (True, False):
            monkeypatch.setattr(lanes, "two_lanes", lambda: on)
            assert self.detect_outputs(desk_clip, frame_range, capsys) == expected, on


class TestEvalCommand:
    def test_perfect_detections(self, tmp_path):
        ann = tmp_path / "a.csv"
        ann.write_text("frame,x,y\n3,10,10\n7,20,20\n")
        det = tmp_path / "d.csv"
        det.write_text("frame,x,y,class,score\n3,10,10,0,1.0\n7,20,20,0,0.5\n")
        out = tmp_path / "scores.csv"
        hist = tmp_path / "hist.csv"
        code = run(["eval", "--detections", str(det), "--annotations", str(ann),
                    "--th", "1", "--th", "3", "--out", str(out), "--hist", str(hist)])
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        for row in rows:
            assert float(row["precision"]) == 1.0
            assert float(row["recall"]) == 1.0
            assert float(row["f1"]) == 1.0
        hist_rows = list(csv.DictReader(open(hist)))
        assert sum(int(r["count"]) for r in hist_rows) == 2
        assert (tmp_path / "hist.png").exists()

    def test_empty_detections(self, tmp_path):
        ann = tmp_path / "a.csv"
        ann.write_text("frame,x,y\n3,10,10\n")
        det = tmp_path / "d.csv"
        det.write_text("frame,x,y,class,score\n")
        out = tmp_path / "scores.csv"
        code = run(["eval", "--detections", str(det), "--annotations", str(ann),
                    "--out", str(out), "--hist", str(tmp_path / "h.csv")])
        assert code == 0
        row = next(csv.DictReader(open(out)))
        assert float(row["precision"]) == 0.0
        assert float(row["recall"]) == 0.0

    def test_known_confusion_counts_fixture(self, tmp_path):
        # confusion counts chosen to reproduce precision 0.767 / recall 0.578:
        # 767 matched pairs, 233 spurious detections, 560 missed annotations
        ann_rows = ["frame,x,y"]
        det_rows = ["frame,x,y,class,score"]
        k = 0
        for i in range(767):  # matched pairs at shared positions
            f, x, y = 10 * (k // 50), 40 * (k % 50), 40 * (k // 50 % 40)
            ann_rows.append(f"{f},{x},{y}")
            det_rows.append(f"{f},{x},{y},0,1.0")
            k += 1
        for i in range(233):  # unmatched detections
            f, x, y = 10 * (k // 50), 40 * (k % 50), 40 * (k // 50 % 40)
            det_rows.append(f"{f},{x},{y},0,1.0")
            k += 1
        for i in range(560):  # unmatched annotations
            f, x, y = 10 * (k // 50), 40 * (k % 50), 40 * (k // 50 % 40)
            ann_rows.append(f"{f},{x},{y}")
            k += 1
        ann = tmp_path / "a.csv"
        ann.write_text("\n".join(ann_rows) + "\n")
        det = tmp_path / "d.csv"
        det.write_text("\n".join(det_rows) + "\n")
        out = tmp_path / "scores.csv"
        code = run(["eval", "--detections", str(det), "--annotations", str(ann),
                    "--th", "1", "--out", str(out), "--hist", str(tmp_path / "h.csv")])
        assert code == 0
        row = next(csv.DictReader(open(out)))
        assert float(row["precision"]) == pytest.approx(0.767, abs=0.0005)
        assert float(row["recall"]) == pytest.approx(0.578, abs=0.0005)
        assert float(row["f1"]) == pytest.approx(0.659, abs=0.0005)

    def test_negative_temporal_threshold_rejected(self, tmp_path, capsys):
        det = tmp_path / "d.csv"
        det.write_text("frame,x,y,class,score\n3,10,10,0,1.0\n")
        ann = tmp_path / "a.csv"
        ann.write_text("frame,x,y\n3,10,10\n")
        code = run(["eval", "--detections", str(det), "--annotations", str(ann),
                    "--th", "1", "--th", "-1", "--out", str(tmp_path / "s.csv"),
                    "--hist", str(tmp_path / "h.csv")])
        assert code == 2
        assert "--th -1 must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_malformed_detection_csv_reports_line(self, tmp_path, capsys):
        det = tmp_path / "d.csv"
        det.write_text("frame,x,y,class,score\n1,2,3,0,not_a_number\n")
        ann = tmp_path / "a.csv"
        ann.write_text("frame,x,y\n")
        code = run(["eval", "--detections", str(det), "--annotations", str(ann),
                    "--out", str(tmp_path / "s.csv"), "--hist", str(tmp_path / "h.csv")])
        assert code == 1
        assert ":2" in capsys.readouterr().err
