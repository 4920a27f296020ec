"""Rebuild the two fixture checkpoints that the ``desk_detect`` workload
loads, then print their SHA-256 digests.

The recipes are the acceptance-suite ones: the supervised model of
criterion 6 and the unsupervised model of criterion 7 (same configs,
seeds, learning rates and epochs), both trained on the seed-1 synthetic
64x64 video. Run from the repository root:

    python3 benchmarks/make_fixtures.py

Training takes about ten minutes on one core. The script writes the
checkpoints and ``fixtures/fixtures.json`` (file, SHA-256 and recipe of
each); the benchmark refuses a checkpoint whose digest differs from it.
The digests depend on the BLAS thread count (OpenBLAS sums in a different
order with two threads), so the script pins one thread, as the benchmark
does.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import blas_env  # noqa: E402  (pins BLAS threads before numpy loads)

blas_env.pin_threads()
sys.path.insert(0, str(HERE.parent / "src"))

from mitoscope import data_pipeline as dp  # noqa: E402
from mitoscope import network as net  # noqa: E402
from mitoscope.training import TrainConfig, train  # noqa: E402
from workloads import (DESK_SUP, DESK_SUP_SUBS, DESK_SUP_TRAIN, DESK_SYNTH,  # noqa: E402
                       DESK_UNSUP, DESK_UNSUP_SUBS, DESK_UNSUP_TRAIN)

FIXTURES = HERE / "fixtures"

# the acceptance suite's shared synthetic video (criteria 6 and 7)
SYNTH = dp.SyntheticConfig(seed=1, **DESK_SYNTH)
TRAIN_FRAMES = (0, 40)

# criterion 6 (supervised) and criterion 7 (unsupervised): the network
# config and init seed, the ``build_subsequences`` arguments, the target
# offset (supervised only) and the ``TrainConfig`` arguments
RECIPES = {
    "sup": dict(file="sup.ckpt", mode="supervised", config=DESK_SUP, init_seed=0,
                subsequences=dict(frame_range=TRAIN_FRAMES, **DESK_SUP_SUBS),
                target_offset=0, train=dict(epochs=12, **DESK_SUP_TRAIN)),
    "unsup": dict(file="unsup.ckpt", mode="unsupervised", config=DESK_UNSUP, init_seed=0,
                  subsequences=dict(frame_range=TRAIN_FRAMES, **DESK_UNSUP_SUBS),
                  train=dict(epochs=30, **DESK_UNSUP_TRAIN)),
}


def build(recipe: dict, video, annotations):
    subs = dp.build_subsequences(video, **recipe["subsequences"])
    if recipe["mode"] == "supervised":
        dp.attach_targets(subs, annotations, target_offset=recipe["target_offset"])
        model = net.init_supervised(recipe["config"], seed=recipe["init_seed"])
    else:
        model = net.init_unsupervised(recipe["config"], seed=recipe["init_seed"])
    model, _ = train(model, subs, TrainConfig(**recipe["train"]), mode=recipe["mode"])
    return model


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest() -> None:
    manifest = {route: {"file": recipe["file"], "video": repr(SYNTH),
                        "recipe": repr(recipe),
                        "sha256": sha256(FIXTURES / recipe["file"])}
                for route, recipe in RECIPES.items()}
    (FIXTURES / "fixtures.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main() -> int:
    video, annotations = dp.synth_generate(SYNTH)
    FIXTURES.mkdir(exist_ok=True)
    for recipe in RECIPES.values():
        path = FIXTURES / recipe["file"]
        net.save_checkpoint(build(recipe, video, annotations), path)
        print(f"{recipe['file']} sha256 {sha256(path)}", flush=True)
    write_manifest()
    return 0


if __name__ == "__main__":
    sys.exit(main())
