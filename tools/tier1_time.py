"""Wall time of the tier-1 test suite, with its ten slowest tests.

    python3 tools/tier1_time.py

Runs the tier-1 command of ROADMAP.md from the repository root,
``python -m pytest -q --continue-on-collection-errors`` with ``src`` on
``PYTHONPATH``, adding ``--durations=10``. Writes ``BENCH_tier1.json`` in
the repository root with the wall time, pytest's exit code and summary
line, the ten slowest test phases, and the environment: cores, numpy and
its BLAS build, and the BLAS thread variables as the suite saw them (unset
means the BLAS library's own default).
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(\S+)$")
SUMMARY = re.compile(r"^=*\s*(\d+ (passed|failed).*) in [0-9.]+s")


def environment() -> dict:
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
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse(stdout: str) -> tuple[list, str | None]:
    """(slowest test phases, summary line) of a pytest run's output."""
    slowest, summary = [], None
    for line in stdout.splitlines():
        m = DURATION.match(line.strip())
        if m:
            slowest.append({"seconds": float(m[1]), "phase": m[2], "test": m[3]})
        m = SUMMARY.match(line.strip())
        if m:
            summary = m[1]
    return slowest, summary


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=10"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    slowest, summary = parse(proc.stdout)
    record = {"env": environment(), "command": cmd[1:], "wall_s": round(wall, 1),
              "exit_code": proc.returncode, "summary": summary, "slowest": slowest}
    out = ROOT / "BENCH_tier1.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"tier-1: {summary} ({proc.returncode=}) in {wall:.1f} s; wrote {out.name}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
