#!/usr/bin/env python3
"""Run every example experiment config and report its exit status, wall time
and the sha256 of its ``report.json`` and ``cases.csv``.

Diffing this script's output from two source trees (timings aside) tells
whether they write byte-identical results.
"""

import hashlib
import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads, so scenario timings compare with
# single-thread measurements of the grid eigensolves.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from scoverlap.cli import main, parse_config  # noqa: E402

HERE = Path(__file__).parent
RUNS = [
    ("spectrum", "ho_spectrum.ini"),
    ("spectrum", "pendulum_spectrum.ini"),
    ("overlap", "linear_probability.ini"),
    ("sweep", "q_vs_ho_sweep.ini"),
    ("glue-check", "glue_q_ho_p.ini"),
    ("star-check", "star_check.ini"),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


if __name__ == "__main__":
    worst = 0
    for command, config in RUNS:
        path = HERE / "configs" / config
        start = time.perf_counter()
        status = main([command, "--config", str(path)])
        elapsed = time.perf_counter() - start
        out_dir = parse_config(path, command, None).out_dir
        print(f"  -> {config}: exit {status}, {elapsed:.2f} s")
        for name in ("report.json", "cases.csv"):
            print(f"     {config} {name} sha256 {_sha256(out_dir / name)}")
        worst = max(worst, status)
    sys.exit(worst)
