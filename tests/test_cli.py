"""CLI tests on desk-scale configs: determinism, artifact contracts,
usage errors, and the external file formats."""

import csv
import re
from pathlib import Path

import numpy as np
import pytest

from mitoscope import cli
from mitoscope.data_pipeline import load_annotations, load_frames, read_pgm

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

    def test_zero_epochs_equals_initialization(self, tmp_path, tiny_config, synth_video):
        from mitoscope.network import init_unsupervised, load_checkpoint
        ckpt = tmp_path / "zero" / "model.ckpt"
        code = run(["train", "--config", tiny_config, "--frames", str(synth_video),
                    "--mode", "unsup", "--epochs", "0", "--out", str(ckpt)])
        assert code == 0
        loaded = load_checkpoint(ckpt)
        fresh = init_unsupervised(loaded.config, seed=5)
        for (n, a), (_, b) in zip(loaded.named_params(), fresh.named_params()):
            assert (a == b).all(), n

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

    def test_class_out_of_range(self, tmp_path, tiny_config, synth_video, unsup_ckpt):
        code = run(["detect", "--config", tiny_config, "--model", str(unsup_ckpt),
                    "--frames", str(synth_video), "--division-class", "99",
                    "--out", str(tmp_path / "d.csv")])
        assert code == 2

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

    def test_workers_give_identical_output(self, tmp_path, tiny_config, synth_video,
                                           unsup_ckpt):
        a = tmp_path / "w1" / "d.csv"
        b = tmp_path / "w4" / "d.csv"
        for out, workers in ((a, "1"), (b, "4")):
            assert run(["detect", "--config", tiny_config, "--model", str(unsup_ckpt),
                        "--frames", str(synth_video), "--division-class", "0",
                        "--workers", workers, "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_malformed_detection_csv_reports_line(self, tmp_path, capsys):
        det = tmp_path / "d.csv"
        det.write_text("frame,x,y,class,score\n1,2,3,0,not_a_number\n")
        ann = tmp_path / "a.csv"
        ann.write_text("frame,x,y\n")
        code = run(["eval", "--detections", str(det), "--annotations", str(ann),
                    "--out", str(tmp_path / "s.csv"), "--hist", str(tmp_path / "h.csv")])
        assert code == 1
        assert ":2" in capsys.readouterr().err
