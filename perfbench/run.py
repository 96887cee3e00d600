#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload {density,glue,ladder,star} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``./src``, and generated configs and CLI outputs go to a scratch directory
under ``./.bench_work`` that is removed at exit.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median over fresh processes of the time from process start
  until the inputs are ready (interpreter start, importing numpy, scipy and
  scoverlap, generating the first pass's inputs from the seed, writing the
  INI configs).
* ``run_s``: mean wall time of one pass over the workload's cases (timed
  pass time / passes).  Passes repeat until the next one would overrun
  ``--seconds``; each draws new inputs from (seed, pass index) before its
  clock starts, so the work per pass is the same but nothing a pass computes
  can be reused by the next.
* ``peak_rss_mb``: peak resident memory of this process (getrusage).

The set-up processes run one before each of the first passes and the rest
after the last, all within ``--seconds``, so they sample the host at
several moments of the run.  On a shared 2-vCPU virtual machine the same
pass ran up to 30% slower for seconds to minutes at a time, in process CPU
time as much as in wall time, so a mean over the whole run is steadier than
a median of a few passes or of back-to-back set-ups.  Each pass's CPU time
(getrusage, all threads) is printed beside its wall time, so a slowdown of
the host can be told apart from time the process spent descheduled.

With ``--trace 1`` passes alternate untraced and traced; the traced ones
give the per-layer metrics (per-pass averages) and ``trace_overhead_frac``.
Every run checks each case against the acceptance thresholds and prints a
line of provenance, accuracy diagnostics and warnings before the final JSON
line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("density", "glue", "ladder", "star")
SETUP_PROBES = 7
# One BLAS thread.  With two on a 2-vCPU machine, a 1024-point complex eigh
# that takes 1.1 s ran 22-34 s while another process kept the second vCPU
# busy; one thread takes 1.7 s and has no such cliff.
BLAS_THREADS = 1
# Paired accuracy numbers, reported as 0 on workloads that do not compute them.
ACCURACY = (
    ("rel_err", "ratio"),
    ("density_slope_dev", "ratio"),
    ("worst_hessian_bracket_dev", "ratio"),
    ("glue_stationary_points_dev", "count"),
    ("star_operator_residual", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import scoverlap from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import scoverlap

    if Path(scoverlap.__file__).resolve().parent != (SRC / "scoverlap").resolve():
        raise SystemExit(f"perfbench: imported scoverlap from {scoverlap.__file__}")
    import workloads

    return workloads


def _setup_probe(args) -> None:
    """Body of one set-up timing process: import, generate, write, exit."""
    workloads = _import_package()
    import scipy  # noqa: F401  (part of what a user's job pays for)

    make, _ = workloads.WORKLOADS[args.workload]
    make(args.seed, 0, Path(args.setup_probe))


def _time_setup(args, probe_dir: Path) -> float:
    """Wall time of one fresh set-up process."""
    probe_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe", str(probe_dir)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return elapsed


def _cpu_s() -> float:
    """User plus system CPU time of this process, all its threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def _measure(args, workloads, inputs, workdir: Path):
    """Timed passes and set-up probes (none when tracing), within ``--seconds``.

    Returns (untraced times, traced times, CPU time of every pass in order,
    set-up times, outcomes, tracer, warnings).  ``inputs`` are pass 0's;
    later passes generate their own, untimed."""
    import tracing

    make, run_pass = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    plain, traced, setup, outcomes, cpu = [], [], [], [], []
    probes = 0 if args.trace else SETUP_PROBES
    warned: Counter = Counter()
    start = time.perf_counter()
    while True:
        if len(setup) < probes:
            setup.append(_time_setup(args, workdir / f"setup{len(setup)}"))
        if outcomes:
            inputs = make(args.seed, len(outcomes), workdir)
        use_trace = bool(args.trace) and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                c0 = _cpu_s()
                t0 = time.perf_counter()
                outcome = run_pass(inputs, workdir)
                dt = time.perf_counter() - t0
                cpu.append(_cpu_s() - c0)
        finally:
            tracer.uninstall()
        warned.update(w.category.__name__ for w in caught)
        outcomes.append(outcome)
        (traced if use_trace else plain).append(dt)
        elapsed = time.perf_counter() - start
        if args.trace and not traced:
            continue
        left = (probes - len(setup)) * statistics.fmean(setup) if setup else 0.0
        if elapsed + statistics.fmean(plain + traced) + left > args.seconds:
            break
    while len(setup) < probes:
        setup.append(_time_setup(args, workdir / f"setup{len(setup)}"))
    return plain, traced, cpu, setup, outcomes, tracer, warned


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_probe is not None:
        _setup_probe(args)
        return 0
    if not (SRC / "scoverlap" / "__init__.py").is_file():
        print(f"perfbench: no scoverlap sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workloads = _import_package()
        make, _ = workloads.WORKLOADS[args.workload]
        inputs = make(args.seed, 0, workdir)
        plain, traced, cpu, setup_times, outcomes, tracer, warned = _measure(
            args, workloads, inputs, workdir)
        audit = workloads.audit_density(inputs) if args.workload == "density" else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    accuracy = {**outcomes[0].accuracy, **audit}
    detail = {
        "provenance": _provenance(args),
        "passes": {"untraced_s": plain, "traced_s": traced, "cpu_s": cpu},
        "setup_probes_s": setup_times,
        "failed_frac": len(failures) / attempted,
        "accuracy": accuracy,
        "cli_exit_2": sum(o.exit_2 for o in outcomes),
        "warnings": dict(warned),
        "missing": tracer.missing,
        "failures": sorted(set(failures))[:20],
    }
    if args.trace:
        metrics = tracer.metrics(len(traced))
        metrics["trace_overhead_frac"] = (
            statistics.fmean(traced) / statistics.fmean(plain) - 1.0, "ratio")
        for name, unit in ACCURACY:
            metrics[f"accuracy.{name}"] = (accuracy.get(name, 0.0), unit)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": (statistics.fmean(plain), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
