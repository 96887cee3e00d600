"""The benchmark driver in ``perfbench/`` uses the package from outside:
its tracer wraps public names by path and its density audit reads overlap
terms.  These tests import it unchanged and check that every name it wraps
still exists and that the audit still runs."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # imported in place, so no bytecode cache is written into perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_finds_every_wrapped_name(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_density_audit_runs(perfbench):
    _, workloads = perfbench
    h, n = workloads.DENSITY_HS[-1], 9
    inputs = workloads.DensityInputs(
        grid=workloads.oracle.GridSpec(*workloads.DENSITY_GRID),
        cases=[(h, n, h * (n + 0.5), 0.3)],
    )
    (value,) = workloads.audit_density(inputs).values()
    assert isinstance(value, float) and math.isfinite(value)


def test_density_workload_runs_a_finest_h_case(perfbench):
    # the timed density pass calls transition_probability positionally;
    # q1 = 0.3125 is a grid point away from the nodes of n = 9
    _, workloads = perfbench
    h, n = workloads.DENSITY_HS[-1], 9
    inputs = workloads.DensityInputs(
        grid=workloads.oracle.GridSpec(*workloads.DENSITY_GRID),
        cases=[(h, n, h * (n + 0.5), 0.3125)],
    )
    out = workloads.run_density(inputs, None)
    assert out.attempted == 1
    assert out.failures == []


def test_tracer_counts_every_kernel_call_in_a_composition(perfbench):
    # C10's linear triple q -> p -> (q + p)/sqrt 2: every kernel call is one
    # overlap, and the tracer's per-composition count must see each of them
    tracing, _ = perfbench
    from scoverlap import semiclassics
    from scoverlap.geometry import Observable, PrequantumForm, ReferenceLagrangian

    h, lam, alpha = 0.1, ReferenceLagrangian.line(1.0), PrequantumForm()
    p = Observable.momentum()
    calls = []

    def counted(kernel):
        def wrapped(b):
            calls.append(b)
            return kernel(b)

        return wrapped

    u20 = counted(semiclassics.overlap_kernel(
        (Observable.linear(math.pi / 4), 0.8), p, lam, alpha, h, fixed_slot=2))
    u01 = counted(semiclassics.overlap_kernel(
        (Observable.position(), 0.3), p, lam, alpha, h, fixed_slot=1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        semiclassics.compose_kernels(u20, u01, h, (-2.5, 2.5))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert len(calls) > 0
    assert tracer.overlaps_in_compose == len(calls)


def test_glue_composition_traces_each_intermediate_fiber_once(perfbench):
    # the glue_q_ho_p example with one fiber mapping for both kernels: the
    # unchanged tracer must see one intermediate trace plus the two fixed
    # fibers, well under one trace per overlap
    tracing, _ = perfbench
    from scoverlap import semiclassics
    from scoverlap.geometry import Observable, PrequantumForm, ReferenceLagrangian

    h, lam, alpha = 0.2, ReferenceLagrangian.line(1.0), PrequantumForm()
    ho, fibers = Observable.harmonic(), {}
    calls = []

    def counted(kernel):
        def wrapped(b):
            calls.append(b)
            return kernel(b)

        return wrapped

    u01 = counted(semiclassics.overlap_kernel(
        (Observable.position(), 0.6), ho, lam, alpha, h, fixed_slot=1, fibers=fibers))
    u20 = counted(semiclassics.overlap_kernel(
        (Observable.momentum(), 0.8), ho, lam, alpha, h, fixed_slot=2, fibers=fibers))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        semiclassics.compose_kernels(u20, u01, h, (0.36, 0.95))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.overlaps_in_compose == len(calls)
    (per_overlap, _) = tracer.metrics(1)["geometry.trace_level_curve.per_overlap"]
    assert per_overlap <= 0.6


def test_tracer_counts_the_four_products_of_an_associativity_defect(perfbench):
    # associativity_defect must reach every product through the module-level
    # name, or starprod.moyal_product.calls stops measuring the star layer
    tracing, _ = perfbench
    from scoverlap import starprod

    f = starprod.PolynomialObservable.from_text("q^2 p + 1/3 p")
    g = starprod.PolynomialObservable.from_text("q p^2 - q")
    k = starprod.PolynomialObservable.from_text("q^3 + 2 p^2")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert starprod.associativity_defect(f, g, k, 6).is_zero
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.calls["starprod.moyal_product"] == 4
    assert tracer.calls["starprod.associativity_defect"] == 1


def test_bench_pairs_summarises_a_single_pair(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "scripts"))
    import bench_pairs

    side = {"run_s": 0.5, "setup_s": 1.0, "peak_rss_mb": 90.0,
            "accuracy": {"rel_err": 1e-15}, "warnings": []}
    summary = bench_pairs._summary([{"parent": side, "change": dict(side, run_s=0.4)}])
    assert summary["run_s"]["parent"] == {"median": 0.5, "q1": 0.5, "q3": 0.5}
    assert summary["run_s"]["lower_in"] == 1 and summary["run_s"]["pairs"] == 1
    assert summary["run_s"]["higher_in"] == summary["setup_s"]["higher_in"] == 0
    # one pair has no parent spread: a lower change meets the claim rule
    assert summary["run_s"]["claim_rule_met"] is True
    assert summary["setup_s"]["claim_rule_met"] is False
    # an equal pair is neither a gain nor a suspected regression
    assert summary["run_s"]["regression_suspect"] is False
    assert summary["setup_s"]["regression_suspect"] is False
    worse = bench_pairs._summary([{"parent": side, "change": dict(side, peak_rss_mb=90.5)}])
    assert worse["peak_rss_mb"]["higher_in"] == 1
    assert worse["peak_rss_mb"]["regression_suspect"] is True
    assert summary["accuracy_worst"]["rel_err"] == {"parent": 1e-15, "change": 1e-15}
    # nine of ten lower with the gap beyond the parent's IQR (0.02) meets
    # it; eight of ten, or nine with a gap of 0.005, does not
    parent_runs = [0.50, 0.51, 0.52, 0.53, 0.54] * 2

    def ten(change_runs):
        return bench_pairs._summary([
            {"parent": dict(side, run_s=p), "change": dict(side, run_s=c)}
            for p, c in zip(parent_runs, change_runs)
        ])["run_s"]

    assert ten([0.30] * 9 + [0.60])["claim_rule_met"] is True
    assert ten([0.30] * 8 + [0.60] * 2)["claim_rule_met"] is False
    assert ten([p - 0.005 for p in parent_runs[:9]] + [0.60])["claim_rule_met"] is False
    # a regression is suspected when the change median is above the parent's
    # q3 (0.53) and the change reads higher in more than half the pairs
    higher = ten([0.60] * 6 + [0.40] * 4)
    assert (higher["higher_in"], higher["regression_suspect"]) == (6, True)
    assert ten([0.60] * 5 + [0.40] * 5)["regression_suspect"] is False
    assert ten([p + 0.005 for p in parent_runs])["regression_suspect"] is False


def test_bench_pairs_outside_a_git_checkout_exits_with_one_line(tmp_path):
    # the change side is a copy of the checkout's tracked files
    (tmp_path / "scripts").mkdir()
    shutil.copy(PERFBENCH.parent / "scripts" / "bench_pairs.py", tmp_path / "scripts")
    (tmp_path / "parent" / "perfbench").mkdir(parents=True)
    (tmp_path / "parent" / "perfbench" / "run.py").write_text("")
    done = subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--parent", "parent", "--label", "x",
         "--workload", "glue:1", "--first-seed", "1"],
        cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(tmp_path.parent)),
    )
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"bench_pairs: {tmp_path} is not a git checkout; the change side is "
        "copied from the tracked files of one"
    ]
    assert not list(tmp_path.glob("BENCH_*.json"))
