"""mitoscope benchmark: one workload per process, closed loop.

    python3 benchmarks/run.py --workload desk_train --seed 1 --seconds 25 --trace 0

Run from the repository root. The harness makes every input from
``--seed``, then runs passes for ``--seconds``: a pass is the reps of the
supervised route and of the unsupervised route, each a fixed amount of
work. The set-up is timed before each pass and after the last one, and
``setup_s`` is the median of those times. The
last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``. With ``--trace 1`` the first half of
the time runs untraced passes and the second half traced ones, and the
metrics are the per-layer ones; spans go to ``.bench_out/``.

Every check that fails counts the ops of its rep as failed, and the command
then exits 1. See ``DESIGN.md`` for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import blas_env  # noqa: E402  (must run before numpy is imported)

blas_env.pin_threads()

WORKLOADS = ("desk_train", "paper_train", "desk_detect")
ROUTES = ("sup", "unsup")
# set-up repeats at each point of a run: at least once, then until this
# many seconds are spent
SETUP_SLICE = 0.3


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "mitoscope").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(src: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build": blas.get("openblas configuration"),
        "blas_threads": {var: os.environ[var] for var in blas_env.THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(src),
    }


def make_workload(wl, name: str):
    if name == "desk_detect":
        spec = json.loads((HERE / "fixtures" / "fixtures.json").read_text())
        return wl.DeskDetect({route: (HERE / "fixtures" / spec[route]["file"],
                                      spec[route]["sha256"]) for route in ROUTES})
    return {"desk_train": wl.DeskTrain, "paper_train": wl.PaperTrain}[name]()


class Setups:
    """Timed set-ups, spread over the run: the machine's speed drifts within
    a run, so one burst of set-ups at the start would time one moment of it.
    ``sample`` repeats the set-up for ``SETUP_SLICE`` seconds, at least once,
    and returns the last state."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list = []

    def sample(self):
        spent = 0.0
        while True:
            state = None  # release the previous set-up before building the next
            start = perf_counter()
            state = self.workload.setup()
            self.times.append(perf_counter() - start)
            spent += self.times[-1]
            if spent >= SETUP_SLICE:
                return state


class Passes:
    """Closed-loop passes and their reps, with failure accounting."""

    def __init__(self, checks):
        self.checks = checks  # EventMapCheck; its new failures fail the pass
        self.reps = {route: [] for route in ROUTES}
        self.walls = []
        self.errors = []

    def run(self, workload, state, budget: float, tracer=None, setups=None) -> list:
        """Passes until ``budget`` seconds of passes are spent. With
        ``setups``, a fresh state is built and timed before each pass."""
        scopes = []
        spent = 0.0
        while True:
            if setups is not None:
                state = None  # release the previous set-up before building the next
                state = setups.sample()
            lo = tracer.mark() if tracer else 0
            seen = len(self.checks.failures)
            t0 = perf_counter()
            try:
                result = workload.run_pass(state)
            except Exception:  # a crash counts as a failed op; stop the loop
                self.errors.append(traceback.format_exc())
                break
            self.walls.append(perf_counter() - t0)
            spent += self.walls[-1]
            if tracer:
                scopes.append((lo, tracer.mark()))
            for route in ROUTES:
                for rep in result[route]:
                    rep.failures += self.checks.failures[seen:]
                    self.reps[route].append(rep)
            # a pass that does not fill the budget is always followed by
            # another, so a slow spell of the machine does not leave a
            # route with a single rep
            if spent >= budget:
                break
        return scopes

    def account(self):
        """(attempted, failed, failure messages); a rep whose outputs differ
        from the first rep of its route and key fails the seeded-repeat
        check."""
        attempted = failed = len(self.errors)
        messages = [e.strip().splitlines()[-1] for e in self.errors]
        for route, reps in self.reps.items():
            first = {}
            for i, rep in enumerate(reps):
                problems = list(rep.failures)
                if first.setdefault(rep.key, rep).fingerprint != rep.fingerprint:
                    problems.append(f"{route}: seeded repeat {i} differs from the first")
                attempted += rep.ops
                if problems:
                    failed += max(rep.ops, 1)
                    messages += problems
        return attempted, failed, messages

    def route_metrics(self) -> dict:
        out = {}
        for route, reps in self.reps.items():
            if reps:
                out[f"{route}_ops_per_s"] = statistics.median(
                    r.ops / r.seconds for r in reps)
                out[f"{route}_score"] = reps[0].score
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, spec: dict):
    import workloads as wl

    workload = make_workload(wl, args.workload)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    passes = Passes(wl.EventMapCheck())
    extra = {}
    try:
        workload.prepare(args.seed, work)
        if not args.trace:
            setups = Setups(workload)
            passes.run(workload, None, args.seconds, setups=setups)
            state = setups.sample()  # the last point, after the passes
            workload.score(state, passes.reps)
            metrics = {"setup_s": statistics.median(setups.times),
                       "peak_rss_mb": peak_rss_mb(), **passes.route_metrics()}
        else:
            import tracer as tr

            tracer = tr.Tracer()
            tracer.install()
            lo = tracer.mark()
            with tr.untraced() if workload.setup_in_pass else contextlib.nullcontext():
                state = workload.setup()
            setup_scope = (lo, tracer.mark())
            tracer.uninstall()
            passes.run(workload, state, args.seconds / 2)
            untraced = list(passes.walls)
            tracer.install()
            scopes = passes.run(workload, state, args.seconds / 2, tracer)
            tracer.uninstall()
            workload.score(state, passes.reps)
            metrics, conv_rows = {}, []
            if untraced and scopes:
                metrics, conv_rows = tr.per_layer_metrics(
                    tracer, setup_scope, scopes, passes.walls[len(untraced):], untraced)
            extra = {"conv2d_same_by_shape": conv_rows,
                     "span_names": tracer.names, "spans": [s[:4] for s in tracer.spans]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    attempted, failed, messages = passes.account()
    if not args.trace:
        metrics["success_rate"] = 1.0 - failed / attempted if attempted else 0.0
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        messages.append(f"metrics not produced: {missing}")
    return metrics, wanted, attempted, failed, messages, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "mitoscope" / "__init__.py").is_file():
        return fail(f"no mitoscope sources under {src}; run from a repository checkout")
    if not spec_path.is_file():
        return fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    env = environment(src)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    metrics, wanted, attempted, failed, messages, extra = run(args, spec)

    for m in wanted:
        value = metrics.get(m["name"], float("nan"))
        print(f"metric {m['name']} = {value!r} {m['unit']} ({m['better']} is better)")
    if args.trace:
        print("conv2d_same by shape (GFLOP computed from shapes, per set-up + pass):")
        print("   cin  cout   k    H    W     calls    fwd_ms    bwd_ms     GFLOP")
        for r in extra["conv2d_same_by_shape"]:
            print(f"  {r['cin']:4d}  {r['cout']:4d}  {r['k']:2d}  {r['H']:3d}  {r['W']:3d}"
                  f"  {r['calls']:8.1f}  {r['fwd_ms']:8.1f}  {r['bwd_ms']:8.1f}"
                  f"  {r['gflop_computed']:8.3f}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        out = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"env": env, "workload": args.workload,
                                   "seed": args.seed, "metrics": metrics, **extra}))
        print(f"spans and conv table written to {out.relative_to(ROOT)}")
    for msg in messages:
        print(f"check failed: {msg}")

    correct = not messages and attempted > 0 and all(
        isinstance(metrics.get(m["name"]), (int, float))
        and math.isfinite(metrics[m["name"]]) for m in wanted)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
