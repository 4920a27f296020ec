"""Main-thread wall time per stage of the README desk ``detect`` + ``eval`` flow.

    python3 tools/detect_stages.py --parent HEAD~1 --change . --rounds 6 --reps 3

Each side is a git revision or ``.`` for the working tree, exported as
``tools/bench_pairs.py`` does. A round runs one worker process per side,
the parent first in even rounds and the change first in odd ones. A worker
imports its side's ``mitoscope`` with OpenBLAS on one thread, so the two
lanes run where there are two cores, and drives ``cli.main`` in process on
the ``desk_detect`` inputs: the held-out clips 40:60 and 60:80 of the
80-frame desk video, the fixture checkpoints and the benchmark's ``[data]``
section. A rep is one route on one clip: sup ``detect`` then ``eval``, or
unsup ranking ``detect``, the pick ``detect`` of the top class, then ``eval``.

Stages are timed on the calling thread, each without the stages it calls:

* ``load_checkpoint``: ``network.load_checkpoint``;
* ``load_frames``: ``data_pipeline.load_frames``;
* ``window_maps``: each step of the ``network.window_maps`` generator, the
  wait for a pair's helper-lane window included;
* ``window_detections``: ``postprocess.class_grid`` with
  ``window_detections`` (unsup), ``threshold_detections`` (sup);
* ``disc_maps``: the disc-mean score maps (``disc_mean_maps``);
* ``eval``: ``cli.cmd_eval``;
* ``other``: the rest of the rep (config, windowing, merge, CSV writes).

Writes ``BENCH_<tag>.json`` in the repository root: per side and route the
median and quartiles of each stage's milliseconds per rep over every rep of
every round, the disc-map calls per rep, and each worker's environment.
The span tracer of ``benchmarks/`` keeps one span stack for all threads,
so its per-layer figures are not valid with the lanes on; these stages are
timed on the main thread only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import WORKING_TREE, export, quartiles  # noqa: E402
from tier1_time import environment  # noqa: E402

STAGES = ("load_checkpoint", "load_frames", "window_maps", "window_detections",
          "disc_maps", "eval", "other")
CLIPS = ((40, 60), (60, 80))
DESK_INI = "[data]\nwindow_size = 64\nwindow_step = 64\ndownsample = 1\naugment = false\n"
DESK_SYNTH = dict(seed=1, frame_count=80, division_prob=0.1, blob_count=10, blob_radius=3.0)
_DONE = object()


class Stages:
    """Exclusive main-thread milliseconds and calls per stage."""

    def __init__(self):
        self.ms = dict.fromkeys(STAGES, 0.0)
        self.calls = dict.fromkeys(STAGES, 0)
        self._nested: list = []  # per open stage, the seconds of stages inside it

    @contextlib.contextmanager
    def timing(self, stage: str):
        self._nested.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.ms[stage] += (elapsed - self._nested.pop()) * 1e3
            self.calls[stage] += 1
            if self._nested:
                self._nested[-1] += elapsed

    def wrap(self, module, name: str, stage: str) -> None:
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            with self.timing(stage):
                return fn(*args, **kwargs)

        setattr(module, name, timed)

    def wrap_generator(self, module, name: str, stage: str) -> None:
        fn = getattr(module, name)

        def timed(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                with self.timing(stage):
                    item = next(items, _DONE)
                if item is _DONE:
                    return
                yield item

        setattr(module, name, timed)


def worker(checkout: Path, reps: int) -> dict:
    """Time ``reps`` passes over both clips and routes with ``checkout``'s
    package; one record per rep."""
    sys.path.insert(0, str(checkout / "src"))
    from mitoscope import cli, lanes
    from mitoscope import data_pipeline as dp
    from mitoscope import network as net
    from mitoscope import postprocess as pp

    stages = Stages()
    stages.wrap(net, "load_checkpoint", "load_checkpoint")
    stages.wrap(dp, "load_frames", "load_frames")
    stages.wrap_generator(net, "window_maps", "window_maps")
    for name in ("class_grid", "window_detections", "threshold_detections"):
        stages.wrap(pp, name, "window_detections")
    stages.wrap(pp, "disc_mean_maps", "disc_maps")
    stages.wrap(cli, "cmd_eval", "eval")

    def main(*argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([str(a) for a in argv])
        return code, buf.getvalue()

    fixtures = checkout / "benchmarks" / "fixtures"
    with tempfile.TemporaryDirectory(prefix="detect_stages-") as tmp:
        work = Path(tmp)
        video, annotations = dp.synth_generate(dp.SyntheticConfig(**DESK_SYNTH))
        for lo, hi in CLIPS:
            dp.export_video(video, [a for a in annotations if lo <= a[0] < hi],
                            work / f"frames-{lo}-{hi}")
        config = work / "desk.ini"
        config.write_text(DESK_INI)
        records = []
        for _ in range(reps):
            for lo, hi in CLIPS:
                frames = work / f"frames-{lo}-{hi}"
                for route in ("sup", "unsup"):
                    out = work / "out" / route
                    common = ("--config", config, "--model", fixtures / f"{route}.ckpt",
                              "--frames", frames, "--range", f"{lo}:{hi}",
                              "--out", out / "detections.csv")
                    before = dict(stages.ms), dict(stages.calls)
                    start = perf_counter()
                    codes = [main("detect", *common)]
                    if route == "unsup":
                        top = codes[0][1].splitlines()[1].split()[0]
                        codes.append(main("detect", *common, "--division-class", top))
                    codes.append(main("eval", "--config", config, "--detections",
                                      out / "detections.csv", "--annotations",
                                      frames / "annotations.csv", "--th", 3, "--out",
                                      out / "scores.csv", "--hist", out / "hist.csv"))
                    total = (perf_counter() - start) * 1e3
                    ms = {s: stages.ms[s] - before[0][s] for s in STAGES}
                    ms["other"] = total - sum(ms.values())
                    records.append({
                        "route": route, "clip": f"{lo}:{hi}", "exit_codes": [c for c, _ in codes],
                        "total_ms": total, "ms": ms,
                        "disc_map_calls": stages.calls["disc_maps"] - before[1]["disc_maps"]})
    return {"env": {**environment(), "two_lanes": lanes.two_lanes()}, "reps": records}


def run_worker(checkout: Path, reps: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--worker", str(checkout),
                           "--reps", str(reps)], env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {checkout} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def summarize(runs: list) -> dict:
    """Per route, the quartiles of each stage's ms per rep, the total and
    the disc-map calls, over every rep of every round."""
    summary = {}
    for route in ("sup", "unsup"):
        reps = [r for run in runs for r in run["reps"] if r["route"] == route]
        entry = {s: quartiles([r["ms"][s] for r in reps]) for s in STAGES}
        entry["total"] = quartiles([r["total_ms"] for r in reps])
        entry["disc_map_calls_per_rep"] = statistics.median(r["disc_map_calls"] for r in reps)
        entry["reps"] = len(reps)
        summary[route] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=WORKING_TREE)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--reps", type=int, default=3, help="passes per worker")
    parser.add_argument("--tag", default="detect_stages")
    parser.add_argument("--workdir", default=None,
                        help="directory for the two checkouts (default: the system temp dir)")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(worker(Path(args.worker), args.reps)))
        return 0
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be >= 1")

    with tempfile.TemporaryDirectory(prefix="detect_stages-", dir=args.workdir) as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        revs = {side: export(getattr(args, side), path) for side, path in sides.items()}
        runs = {"parent": [], "change": []}
        for i in range(args.rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_worker(sides[side], args.reps))
                print(f"round {i + 1}/{args.rounds} {side} done", flush=True)

    report = {"parent": revs["parent"], "change": revs["change"], "rounds": args.rounds,
              "reps_per_round": args.reps, "clips": [f"{lo}:{hi}" for lo, hi in CLIPS],
              "unit": "ms per rep, main thread",
              "summary": {side: summarize(r) for side, r in runs.items()},
              "env": {side: [run["env"] for run in r] for side, r in runs.items()},
              "exit_codes_ok": all(rep["exit_codes"] == ([0, 0] if rep["route"] == "sup"
                                                           else [2, 0, 0])
                                   for r in runs.values() for run in r for rep in run["reps"])}
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for route in ("sup", "unsup"):
        for stage in STAGES + ("total",):
            p, c = (report["summary"][side][route][stage]["median"]
                    for side in ("parent", "change"))
            print(f"{route:5s} {stage:17s} {p:9.2f} -> {c:9.2f} ms")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if report["exit_codes_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
