"""Per-shape times of both ``conv2d_same`` paths, Winograd and im2col.

    python3 tools/conv_paths.py --reps 15 --tag conv_paths

For each 5x5 shape on a 64x64 frame, times ``conv2d_same`` and
``conv2d_same_backward`` with the path forced each way (by replacing
``tensor_core._winograd_eligible`` for the duration of the call), and the
Winograd path twice: on one lane, its halves in turn, and on two lanes,
its halves at once (by replacing ``lanes.two_lanes``). The three runs
alternate call by call, in a rotating order, so that a drift of the
machine's speed falls on all alike. Runs on one BLAS thread, as the
benchmark does. Writes ``BENCH_<tag>.json`` in the repository root with
the median milliseconds per call of every shape and run, the path the rule
picks, and the environment of ``tier1_time.environment`` (cores, affinity,
numpy, the BLAS build and its thread variables).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from mitoscope import lanes  # noqa: E402
from mitoscope import tensor_core as tc  # noqa: E402
from tier1_time import environment  # noqa: E402

# (C_in, C_out): the 5x5 shapes of the desk-scale models (S=4 and 6) and
# others below the 16-channel threshold, then shapes at and above it, the
# paper's (S=32, n=16) output convs, and last the fused ConvLSTM convs
# (C+S)->4S that run Winograd: the S=6 merge's 18->24 and the paper's
# 33->128 and 96->128
SHAPES = [(1, 16), (4, 16), (6, 6), (6, 24), (8, 4), (8, 8), (8, 16), (8, 32), (12, 12),
          (12, 24), (16, 16), (16, 64), (24, 24), (32, 32), (48, 32), (32, 128), (64, 128),
          (18, 24), (33, 128), (96, 128)]


# name -> (Winograd path, two lanes)
RUNS = {"im2col": (False, False), "winograd": (True, False), "winograd_lanes": (True, True)}


def timed(fn, winograd: bool, two: bool) -> float:
    rule, lane_rule = tc._winograd_eligible, lanes.two_lanes
    tc._winograd_eligible = lambda shape: winograd
    lanes.two_lanes = lambda: two
    try:
        start = perf_counter()
        fn()
        return perf_counter() - start
    finally:
        tc._winograd_eligible, lanes.two_lanes = rule, lane_rule


def measure(c_in: int, c_out: int, size: int, reps: int) -> dict:
    rng = np.random.default_rng(c_in * 1000 + c_out)
    x = rng.normal(size=(c_in, size, size))
    k = rng.normal(scale=0.1, size=(c_out, c_in, 5, 5))
    b = rng.normal(size=c_out)
    up = rng.normal(size=(c_out, size, size))
    trace = tc.conv2d_same(x, k, b)[1]  # both paths keep the same trace
    times = {f"{run}_{op}": [] for run in RUNS for op in ("fwd", "bwd")}
    names = list(RUNS)
    for i in range(reps):
        for run in names[i % 3:] + names[:i % 3]:
            times[f"{run}_fwd"].append(timed(lambda: tc.conv2d_same(x, k, b), *RUNS[run]))
            times[f"{run}_bwd"].append(
                timed(lambda: tc.conv2d_same_backward(trace, up), *RUNS[run]))
    row = {"cin": c_in, "cout": c_out, "k": 5, "H": size, "W": size,
           "rule_picks": "winograd" if tc._winograd_eligible(k.shape) else "im2col"}
    row.update({f"{name}_ms": 1e3 * statistics.median(v) for name, v in times.items()})
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--tag", default="conv_paths")
    args = parser.parse_args(argv)
    rows = []
    print(" cin cout  im2col fwd/bwd ms  winograd fwd/bwd ms  two lanes fwd/bwd ms  rule")
    for c_in, c_out in SHAPES:
        r = measure(c_in, c_out, args.size, args.reps)
        rows.append(r)
        print(f"{c_in:4d} {c_out:4d}" + "".join(
            f"  {r[f'{run}_fwd_ms']:8.2f} {r[f'{run}_bwd_ms']:8.2f}  " for run in RUNS)
            + f"  {r['rule_picks']}", flush=True)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({"env": environment(), "reps": args.reps, "rows": rows}, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
