#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 scripts/bench_pairs.py --parent DIR --label NAME \
        --workload glue:10 --workload density:3 --first-seed 1401 --seconds 30

``--parent`` is a source tree of the parent commit (a ``git archive`` or
``git clone`` of it).  The change side runs from a copy of this checkout's
tracked files, as they are in the working tree, made in a new directory
beside ``--parent`` and removed at the end.  Both sides thus run from copies
made the same way in the same place: run from the checkout itself, the
change once read ``ladder`` slower than the same files copied beside the
parent, at equal work per pass, and the cause was not traced.  Both sides
run their own unchanged ``perfbench/run.py --trace 0`` from their own root,
one process at a time.  Pair i of a workload gives both sides the seed
first-seed + i (each workload after the first starts where the previous
one's seeds ended), and the side that runs first alternates from pair to
pair, so a drift of the host during the session falls on both sides alike.

The summary goes to ``BENCH_<label>.json`` in this checkout's root: per
workload, every pair (seed, and per side ``run_s``, ``setup_s``,
``peak_rss_mb``, ``failed``, ``attempted``, and the ``accuracy`` numbers and
``warnings`` of the run's detail line), per metric each side's median and
quartiles, the numbers of pairs in which the change reads lower and higher,
whether the medians differ by more than the parent's interquartile range,
whether both hold as a claim of a gain needs them (``claim_rule_met``: lower
in at least nine tenths of the pairs and that gap), whether the change may
have made it worse (``regression_suspect``: its median above the parent's
upper quartile and higher in more than half the pairs; all three metrics
are lower-is-better), and per accuracy number (all lower-is-better) each
side's worst value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
METRICS = ("run_s", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def _workload(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    return name, int(pairs or 10)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="source tree of the parent commit")
    parser.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    parser.add_argument("--workload", action="append", type=_workload, required=True,
                        metavar="NAME[:PAIRS]", help="workload and its pair count (10)")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seed of the first pair; pick seeds not used while developing")
    parser.add_argument("--seconds", type=float, default=30.0)
    return parser.parse_args(argv)


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``: its final JSON line, flattened,
    with the accuracy numbers and warnings of the detail line before it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {root} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row.update(failed=result["failed"], attempted=result["attempted"])
    detail = json.loads(lines[-2])
    row.update(accuracy=detail["accuracy"], warnings=detail["warnings"])
    return row


def _copy_tracked(dest: Path) -> None:
    """Copy this checkout's tracked files, as in the working tree, to dest."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=CHANGE, capture_output=True)
    if listed.returncode != 0:
        raise SystemExit(f"bench_pairs: {CHANGE} is not a git checkout; the change "
                         "side is copied from the tracked files of one")
    for name in filter(None, listed.stdout.decode().split("\0")):
        src = CHANGE / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _spread(values: list[float]) -> dict:
    if len(values) == 1:  # quantiles needs two points
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _summary(pairs: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        before, after = _spread(parent), _spread(change)
        lower_in = sum(c < p for p, c in zip(parent, change))
        higher_in = sum(c > p for p, c in zip(parent, change))
        gap = abs(after["median"] - before["median"]) > before["q3"] - before["q1"]
        out[name] = {
            "parent": before,
            "change": after,
            "lower_in": lower_in,
            "higher_in": higher_in,
            "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": gap,
            "claim_rule_met": lower_in >= 0.9 * len(pairs) and gap,
            "regression_suspect": after["median"] > before["q3"] and higher_in > len(pairs) / 2,
        }
    keys = sorted({k for p in pairs for side in SIDES for k in p[side]["accuracy"]})
    out["accuracy_worst"] = {
        key: {
            side: max((p[side]["accuracy"][key] for p in pairs
                       if key in p[side]["accuracy"]), default=None)
            for side in SIDES
        }
        for key in keys
    }
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        raise SystemExit(f"bench_pairs: no perfbench/run.py under {parent}")
    report = {
        "label": args.label,
        "seconds": args.seconds,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    seed = args.first_seed
    with tempfile.TemporaryDirectory(prefix="change-", dir=parent.parent) as copy:
        change = Path(copy)
        _copy_tracked(change)
        for workload, n_pairs in args.workload:
            pairs = []
            for i in range(n_pairs):
                sides = [("parent", parent), ("change", change)]
                if i % 2:
                    sides.reverse()
                pair = {"seed": seed, "first": sides[0][0]}
                for side, root in sides:
                    start = time.perf_counter()
                    pair[side] = _run(root, workload, seed, args.seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"run_s {pair[side]['run_s']:.4f} "
                          f"({time.perf_counter() - start:.0f} s)", flush=True)
                pairs.append(pair)
                seed += 1
            report["workloads"][workload] = {"pairs": pairs, "summary": _summary(pairs)}
    out = CHANGE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
