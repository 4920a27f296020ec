"""Alternated parent/change pairs of ``benchmarks/run.py`` for one workload.

    python3 tools/bench_pairs.py --workload paper_train --pairs 10 --seed 401 \\
        --parent HEAD~1 --change . --tag paper_train_example

Each side is a git revision, exported with ``git archive`` into its own
directory under ``--workdir``, or ``.`` for the working tree (tracked and
untracked files that git does not ignore). Both sides therefore run their
own copy of ``benchmarks/`` and ``src/`` from a fresh directory. Pair ``i``
runs seed ``--seed + i`` on both sides, the parent first when ``i`` is even
and the change first when it is odd, so a drift of the machine's speed
falls on both sides alike.

Writes ``BENCH_<tag>.json`` in the repository root: every run's metrics,
its ``env`` line (cores, BLAS build and threads, source digest), exit code
and wall time, and per metric each side's median and quartiles, the
change's wins, losses and ties over the pairs (by the metric's ``better``
in ``BENCHMARK.json``), and whether the gain rule holds: the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range. With ``--trace 1`` the metrics are the
per-layer ones and each run's ``conv2d_same`` table is kept too.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKING_TREE = "."


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> dict:
    """Write the files of ``rev`` (or of the working tree) into ``dest``."""
    dest.mkdir(parents=True)
    if rev == WORKING_TREE:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.decode().split("\0")):
            src = ROOT / name
            if src.is_file():  # a tracked file deleted in the working tree is skipped
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return {"rev": rev, "commit": None, "base_commit": git("rev-parse", "HEAD").decode().strip()}
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return {"rev": rev, "commit": commit}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=30 * seconds + 600, check=False)
    record = {"seed": seed, "exit_code": proc.returncode,
              "wall_s": round(time.perf_counter() - start, 3), "env": None, "result": None}
    for line in proc.stdout.splitlines():
        if line.startswith("env "):
            record["env"] = json.loads(line[4:])
        elif line.startswith("{"):
            record["result"] = json.loads(line)
    if record["result"] is None:
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    if trace:
        out = checkout / ".bench_out" / f"trace-{workload}-seed{seed}.json"
        if out.is_file():
            record["conv2d_same_by_shape"] = json.loads(out.read_text())["conv2d_same_by_shape"]
    return record


def metric_values(runs: list, name: str) -> list:
    values = []
    for r in runs:
        m = (r["result"] or {}).get("metrics", {}).get(name)
        values.append(None if m is None else m["value"])
    return values


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for m in metrics:
        sign = 1.0 if m["better"] == "higher" else -1.0
        par = metric_values([p["parent"] for p in pairs], m["name"])
        chg = metric_values([p["change"] for p in pairs], m["name"])
        wins = losses = ties = 0
        for a, b in zip(par, chg):
            if a is None or b is None:
                continue
            d = sign * (b - a)
            wins, losses, ties = wins + (d > 0), losses + (d < 0), ties + (d == 0)
        ps = quartiles([v for v in par if v is not None])
        cs = quartiles([v for v in chg if v is not None])
        entry = {"unit": m["unit"], "better": m["better"], "parent": ps, "change": cs,
                 "change_wins": wins, "change_losses": losses, "ties": ties}
        if ps["median"] is not None and cs["median"] is not None:
            gap = sign * (cs["median"] - ps["median"])
            iqr = None if ps["q1"] is None else ps["q3"] - ps["q1"]
            entry["relative_change"] = (cs["median"] - ps["median"]) / ps["median"] \
                if ps["median"] else None
            entry["gain_rule_holds"] = bool(
                iqr is not None and wins >= 0.9 * len(pairs) and gap > iqr)
        summary[m["name"]] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=WORKING_TREE)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workdir", default=None,
                        help="directory for the two checkouts (default: the system temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.workdir is not None and not Path(args.workdir).is_dir():
        parser.error(f"--workdir {args.workdir}: not an existing directory")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-", dir=args.workdir) as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        revs = {side: export(getattr(args, side), path) for side, path in sides.items()}
        spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], args.workload, seed, args.seconds, args.trace)
                result = pair[side]["result"] or {}
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: exit "
                      f"{pair[side]['exit_code']} correct {result.get('correct')}", flush=True)
            pairs.append(pair)

    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "pairs_run": len(pairs), "parent": revs["parent"], "change": revs["change"],
              "command": "python3 benchmarks/run.py --workload W --seed S --seconds T --trace X",
              "summary": summarize(pairs, metrics), "pairs": pairs}
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, s in report["summary"].items():
        p, c = s["parent"], s["change"]
        print(f"{name}: parent {p['median']!r} [{p['q1']!r}, {p['q3']!r}] -> change "
              f"{c['median']!r} [{c['q1']!r}, {c['q3']!r}]; change won {s['change_wins']}"
              f"/{len(pairs)}, gain rule {s.get('gain_rule_holds')}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if all(p[s]["exit_code"] == 0 for p in pairs for s in ("parent", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())
