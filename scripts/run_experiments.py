#!/usr/bin/env python3
"""Run every example experiment config and report its exit status and wall time."""

import sys
import time
from pathlib import Path

from scoverlap.cli import main

HERE = Path(__file__).parent
RUNS = [
    ("spectrum", "ho_spectrum.ini"),
    ("spectrum", "pendulum_spectrum.ini"),
    ("overlap", "linear_probability.ini"),
    ("sweep", "q_vs_ho_sweep.ini"),
    ("glue-check", "glue_q_ho_p.ini"),
    ("star-check", "star_check.ini"),
]

if __name__ == "__main__":
    worst = 0
    for command, config in RUNS:
        start = time.perf_counter()
        status = main([command, "--config", str(HERE / "configs" / config)])
        print(f"  -> {config}: exit {status}, {time.perf_counter() - start:.2f} s")
        worst = max(worst, status)
    sys.exit(worst)
