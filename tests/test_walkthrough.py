"""The README's CLI walkthrough, end to end through ``cli.main`` with
``configs/synth64.ini``: synth, train sup and unsup, detect sup, detect
unsup (ranking run, then the printed top class), eval. Epochs and frame
ranges are cut short so the flow runs in seconds; the commands, the config
and the files each step reads and writes are the README's."""

import csv
import re
from pathlib import Path

from mitoscope import cli

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "synth64.ini")
TRAIN_OUTPUTS = {"model.ckpt", "loss.csv", "effective_config.ini"}


def test_readme_walkthrough(tmp_path, capsys):
    video, runs = tmp_path / "video", tmp_path / "runs"
    assert cli.main(["synth", "--config", CONFIG, "--out", str(video)]) == 0
    assert len(list(video.glob("frame_*.pgm"))) == 80
    annotations = str(video / "annotations.csv")

    for mode, extra in (("sup", ["--annotations", annotations]), ("unsup", [])):
        ckpt = runs / mode / "model.ckpt"
        assert cli.main(["train", "--config", CONFIG, "--frames", str(video), *extra,
                         "--mode", mode, "--train-range", "0:16", "--epochs", "1",
                         "--out", str(ckpt)]) == 0
        assert {p.name for p in (runs / mode).iterdir()} == TRAIN_OUTPUTS, mode

    detect = ["detect", "--config", CONFIG, "--frames", str(video), "--range", "40:60"]
    sup_dets = runs / "sup" / "detections.csv"
    assert cli.main([*detect, "--model", str(runs / "sup" / "model.ckpt"),
                     "--out", str(sup_dets)]) == 0
    assert sup_dets.is_file()

    unsup = [*detect, "--model", str(runs / "unsup" / "model.ckpt")]
    unsup_dets = runs / "unsup" / "detections.csv"
    capsys.readouterr()
    assert cli.main([*unsup, "--out", str(unsup_dets)]) == 2
    ranking = re.findall(r"^\s*(\d+)\s+[-0-9.]+\s+\d+$", capsys.readouterr().out, re.M)
    assert ranking, "the ranking run printed no class"
    assert not unsup_dets.exists()
    assert cli.main([*unsup, "--division-class", ranking[0], "--out", str(unsup_dets)]) == 0
    assert unsup_dets.is_file()

    scores, hist = runs / "sup" / "scores.csv", runs / "sup" / "hist.csv"
    assert cli.main(["eval", "--detections", str(sup_dets), "--annotations", annotations,
                     "--th", "1", "--th", "3", "--out", str(scores),
                     "--hist", str(hist)]) == 0
    with open(scores, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["th"] for row in rows] == ["1", "3"]
    assert {p.name for p in scores.parent.iterdir()} == TRAIN_OUTPUTS | {
        "detections.csv", "scores.csv", "hist.csv"}
