"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Shared oracle eigensystems are session fixtures so the whole suite
stays within the stated runtime budgets.
"""

import cmath
import math
import time

import numpy as np
import pytest

from scoverlap.errors import DegenerateStationaryPoint
from scoverlap.geometry import (
    Observable,
    PhasePoint,
    PrequantumForm,
    ReferenceLagrangian,
    find_intersections,
    trace_level_curve,
)
from scoverlap.oracle import (
    GridSpec,
    build_weyl_operator,
    eigensystem,
    half_density_bridge,
)
from scoverlap.semiclassics import (
    bohr_sommerfeld_levels,
    complementary_overlap_term,
    compose_kernels,
    cyclic_amplitude,
    maslov_loop_index,
    maslov_segment,
    overlap,
    overlap_kernel,
    stencil_overlap_term,
    transition_probability,
)
from scoverlap.starprod import (
    PolynomialObservable,
    associativity_defect,
    moyal_product,
    semiclassical_matrix_element,
    weyl_operator_of,
)

HO = Observable.harmonic()
Q = Observable.position()
P = Observable.momentum()
PEND = Observable.pendulum()
LAM = ReferenceLagrangian.line(1.0)
ALPHA = PrequantumForm()

SWEEP_HS = (0.2, 0.1, 0.05, 0.025)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="session")
def ho_oracles():
    """Eigensystems of the oscillator at every sweep h (grid 1024, L=10)."""
    grid = GridSpec(10.0, 1024)
    out = {}
    for h in SWEEP_HS:
        out[h] = eigensystem(build_weyl_operator(HO, grid, h))
    return grid, out


def _interference_phase(u: float, n: int) -> float:
    return (n + 0.5) * (math.acos(u) - u * math.sqrt(1 - u * u)) - math.pi / 4


def _node_safe_positions(b2_target: float, count: int = 5) -> list[float]:
    """Positions (as turning-radius fractions) away from interference nodes
    for every h in the sweep, so relative errors stay well-defined."""
    ns = [int(round(b2_target / h - 0.5)) for h in SWEEP_HS]
    keep = [
        float(u)
        for u in np.arange(0.05, 0.72, 0.025)
        if all(math.cos(_interference_phase(u, n)) ** 2 >= 0.25 for n in ns)
    ]
    idx = np.linspace(0, len(keep) - 1, count).astype(int)
    return [keep[i] for i in idx]


def _probability_sweep_errors(ho_oracles, weight_position=False):
    """Mean relative error per h of the transition density (or the position
    matrix element) against the oracle position density, node-safe points."""
    grid, oracles = ho_oracles
    targets = (0.55, 0.75, 0.95)
    per_h = {h: [] for h in SWEEP_HS}
    for target in targets:
        us = _node_safe_positions(target)
        for h in SWEEP_HS:
            n = int(round(target / h - 0.5))
            b2 = h * (n + 0.5)
            es = oracles[h]
            turning = math.sqrt(2 * b2)
            for u in us:
                idx = int(round((u * turning + grid.half_width) / grid.dq))
                q1 = float(grid.qs[idx])
                if weight_position:
                    me = semiclassical_matrix_element(
                        PolynomialObservable.monomial(1, 0),
                        (Q, q1), (HO, b2), LAM, ALPHA, h,
                    )
                    bridged = abs(
                        half_density_bridge(me.value, me.curve1, me.curve2, h)
                    ) ** 2
                    oracle = (q1 * abs(es.state(n).at(q1))) ** 2
                else:
                    bridged = transition_probability(
                        (Q, q1), (HO, b2), h, LAM, ALPHA
                    ) * h  # oscillator level spacing 2 pi h / T = h
                    oracle = abs(es.state(n).at(q1)) ** 2
                per_h[h].append(abs(bridged - oracle) / oracle)
    means = [float(np.mean(per_h[h])) for h in SWEEP_HS]
    slope = float(np.polyfit(np.log(SWEEP_HS), np.log(means), 1)[0])
    worst_finest = max(per_h[SWEEP_HS[-1]])
    return slope, worst_finest


def test_criterion_01_bohr_sommerfeld_exactness(ho_oracles):
    start = time.perf_counter()
    levels = bohr_sommerfeld_levels(HO, 0.1, (0.004, 3.2))
    ladder_ok = len(levels) >= 31 and all(
        abs(l.b - 0.1 * (l.n + 0.5)) <= 1e-9 for l in levels if l.n <= 30
    )
    es = eigensystem(build_weyl_operator(HO, GridSpec(10.0, 512), 0.1))
    oracle_ok = all(
        abs(es.eigenvalues[l.n] - 0.1 * (l.n + 0.5)) <= 1e-10
        for l in levels
        if l.n <= 30
    )
    elapsed = time.perf_counter() - start
    _report(
        "C01 bohr-sommerfeld-exactness",
        ladder_ok and oracle_ok and elapsed < 5.0,
        f"{len(levels)} levels, {elapsed:.2f}s",
    )


def test_criterion_02_probability_convergence(ho_oracles):
    start = time.perf_counter()
    slope, worst = _probability_sweep_errors(ho_oracles)
    elapsed = time.perf_counter() - start
    _report(
        "C02 transition-probability-convergence",
        0.8 <= slope <= 1.5 and worst < 0.15 and elapsed < 30.0,
        f"slope {slope:.3f}, max rel err @h=0.025 {worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_exact_linear_case():
    devs = []
    for h in (1.0, 0.1, 0.01):
        val = transition_probability((Q, 1.3), (P, 0.4), h, LAM)
        devs.append(abs(val * 2 * math.pi * h - 1.0))
    _report(
        "C03 plane-wave-probability",
        max(devs) < 1e-10,
        f"max rel dev {max(devs):.2e}",
    )


def test_criterion_04_hessian_identity():
    rng = np.random.default_rng(20260810)
    displaced = Observable.harmonic(center_q=1.0)
    lam_displaced = ReferenceLagrangian.line(1.0, -0.6)
    tilted = Observable.linear(math.pi / 6)
    configs = []
    for _ in range(4):
        configs.append(((Q, float(rng.uniform(-0.5, 0.5))),
                        (HO, float(rng.uniform(0.3, 0.9))), LAM))
    for _ in range(3):
        configs.append(((Q, float(rng.uniform(-0.4, 0.4))),
                        (PEND, float(rng.uniform(-0.6, 0.2))), LAM))
    for _ in range(3):
        configs.append(((HO, float(rng.uniform(0.4, 0.7))),
                        (displaced, float(rng.uniform(0.4, 0.7))), lam_displaced))
    for _ in range(2):
        configs.append(((tilted, float(rng.uniform(-0.5, 0.5))),
                        (HO, float(rng.uniform(0.4, 0.9))), LAM))
    configs.append(((Q, 1.3), (P, 0.4), LAM))
    devs = []
    for sys1, sys2, lam in configs:
        amp = overlap(sys1, sys2, lam, ALPHA, 0.1)
        devs.extend(
            stencil_overlap_term(amp, i, lam).hessian_bracket_dev
            for i in range(len(amp.terms))
        )
    _report(
        "C04 hessian-bracket-identity",
        len(devs) >= 20 and max(devs) <= 1e-4,
        f"{len(devs)} intersections, worst rel dev {max(devs):.2e}",
    )


def test_criterion_05_maslov_loop_and_arcs():
    b2 = 0.475
    curve = trace_level_curve(HO, b2, PhasePoint(math.sqrt(2 * b2), 0.0))
    loop = maslov_loop_index(curve, Q)
    pts = find_intersections(Q, 0.4, HO, b2)
    ca, cb = pts[0].point, pts[1].point
    arc_sum = maslov_segment(curve, ca, cb, Q) + maslov_segment(curve, cb, ca, Q)
    pend_curve = trace_level_curve(PEND, -0.3, PhasePoint(math.acos(0.3), 0.0))
    pend_loop = maslov_loop_index(pend_curve, Q)
    _report(
        "C05 maslov-loop-and-complementation",
        loop == 2 and abs(arc_sum) == 2 and arc_sum == loop and pend_loop == 2,
        f"loop {loop}, arc sum {arc_sum}",
    )


def test_criterion_06_gauge_covariance():
    rng = np.random.default_rng(7)
    h = 0.1
    b1, b2 = 0.4, 0.475
    worst_mod, worst_phase = 0.0, 0.0
    for _ in range(4):
        table = {
            (int(a), int(b)): float(c)
            for (a, b), c in zip(
                [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
                rng.uniform(-0.8, 0.8, size=5),
            )
        }
        gauge = Observable.from_coeffs(table)
        # kernel order U(b2, b1): the b1 system sits in the second slot
        plain = overlap((HO, b2), (Q, b1), LAM, ALPHA, h)
        gauged = overlap((HO, b2), (Q, b1), LAM, PrequantumForm(gauge=gauge), h)
        ratio = gauged.value / plain.value
        worst_mod = max(worst_mod, abs(abs(ratio) - 1.0))
        x1 = plain.x2  # reference point on the b1 fiber
        x2 = plain.x1  # reference point on the b2 fiber
        expected = (gauge.value(*x1) - gauge.value(*x2)) / h
        defect = abs(cmath.phase(ratio * cmath.exp(-1j * expected)))
        worst_phase = max(worst_phase, defect)
    _report(
        "C06 gauge-covariance",
        worst_mod < 1e-12 and worst_phase < 1e-8,
        f"modulus dev {worst_mod:.2e}, phase dev {worst_phase:.2e}",
    )


def test_criterion_07_path_independence_at_levels():
    h = 0.05
    worst = 0.0
    for n in (6, 9):
        b2 = h * (n + 0.5)
        amp = overlap((Q, 0.4), (HO, b2), LAM, ALPHA, h)
        for i, t in enumerate(amp.terms):
            alt = complementary_overlap_term(amp, i, Q)
            e_fwd = cmath.exp(1j * t.action / h + 1j * math.pi * t.maslov / 2)
            e_alt = cmath.exp(1j * alt.action / h + 1j * math.pi * alt.maslov / 2)
            worst = max(worst, abs(e_fwd - e_alt))
    _report(
        "C07 path-independence-at-levels",
        worst < 1e-8,
        f"worst exponent dev {worst:.2e}",
    )


def test_criterion_08_star_product():
    monos = [
        PolynomialObservable.monomial(a, b)
        for a in range(5)
        for b in range(5)
        if a + b <= 4
    ]
    assoc_ok = all(
        associativity_defect(f, g, k, 6).is_zero
        for f in monos
        for g in monos
        for k in monos
    )
    from fractions import Fraction

    from scoverlap.starprod import QQi

    q2p2 = moyal_product(
        PolynomialObservable.monomial(2, 0), PolynomialObservable.monomial(0, 2), 4
    )
    series_ok = (
        q2p2.coeffs[0].table() == {(2, 2): QQi(Fraction(1))}
        and q2p2.coeffs[1].table() == {(1, 1): QQi(Fraction(0), Fraction(2))}
        and q2p2.coeffs[2].table() == {(0, 0): QQi(Fraction(-1, 2))}
        and q2p2.coeffs[3].is_zero
        and q2p2.coeffs[4].is_zero
    )
    grid = GridSpec(10.0, 1024)
    h = 0.1
    qs = grid.qs
    probes = []
    for q0, s, k in [(-1.5, 0.7, 0), (0.0, 0.9, 1), (1.2, 0.6, 2)]:
        v = (qs - q0) ** k * np.exp(-((qs - q0) ** 2) / (2 * s * s))
        v = v * np.exp(1j * 0.3 * qs / h)
        probes.append(v / np.linalg.norm(v))
    worst = 0.0
    for f, g in [
        (PolynomialObservable.monomial(2, 0), PolynomialObservable.monomial(0, 2)),
        (
            PolynomialObservable.from_text("q p"),
            PolynomialObservable.from_text("q p"),
        ),
        (
            PolynomialObservable.from_text("q^2 + q"),
            PolynomialObservable.from_text("q p"),
        ),
    ]:
        lhs = weyl_operator_of(moyal_product(f, g, 4), grid, h)
        rhs = weyl_operator_of(f, grid, h) @ weyl_operator_of(g, grid, h)
        for v in probes:
            worst = max(
                worst, np.linalg.norm((lhs - rhs) @ v) / np.linalg.norm(rhs @ v)
            )
    _report(
        "C08 star-product",
        assoc_ok and series_ok and worst < 1e-8,
        f"operator correspondence worst rel {worst:.2e}",
    )


def test_criterion_09_matrix_elements(ho_oracles):
    h = 0.1
    b2 = 0.45
    base = overlap((Q, 0.4), (HO, b2), LAM, ALPHA, h)
    fiber_const = PolynomialObservable.from_text("1/2 q^2 + 1/2 p^2")
    me = semiclassical_matrix_element(fiber_const, (Q, 0.4), (HO, b2), LAM, ALPHA, h)
    term_ok = all(
        abs(tm.contribution - b2 * tb.contribution) <= 1e-12 * abs(tm.contribution)
        for tm, tb in zip(me.terms, base.terms)
    ) and abs(me.value - b2 * base.value) <= 1e-12 * abs(me.value)
    slope, worst = _probability_sweep_errors(ho_oracles, weight_position=True)
    _report(
        "C09 matrix-element-representation",
        term_ok and 0.8 <= slope <= 1.5,
        f"fiber-constant exact, position-weight slope {slope:.3f}",
    )


def test_criterion_10_gluing():
    h = 0.1
    # literal (q, p, q) triple: the composed kernel vanishes off-diagonal,
    # matching the direct kernel of parallel fibers
    u20 = overlap_kernel((Q, 0.7), P, LAM, ALPHA, h, fixed_slot=2)
    u01 = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=1)
    composed_qpq = compose_kernels(u20, u01, h, (-2.0, 2.0))
    direct_qpq = overlap((Q, 0.3), (Q, 0.7), LAM, ALPHA, h)
    qpq_ok = abs(abs(composed_qpq.value) - abs(direct_qpq.value)) < 1e-10
    # coincident fibrations degenerate
    u20_same = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=2)
    try:
        compose_kernels(u20_same, u01, h, (-2.0, 2.0))
        degenerate_ok = False
    except DegenerateStationaryPoint:
        degenerate_ok = True
    # substantive linear triple: exact Gaussian composition
    h45 = Observable.linear(math.pi / 4)
    u20t = overlap_kernel((h45, 0.8), P, LAM, ALPHA, h, fixed_slot=2)
    composed_t = compose_kernels(u20t, u01, h, (-2.5, 2.5))
    direct_t = overlap((Q, 0.3), (h45, 0.8), LAM, ALPHA, h)
    linear_dev = abs(abs(composed_t.value) - abs(direct_t.value)) / abs(direct_t.value)
    # quarter-phase consistency between the two evaluation orders
    phase_fwd = cmath.phase(composed_t.value / direct_t.value)
    u20r = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=2)
    u01r = overlap_kernel((h45, 0.8), P, LAM, ALPHA, h, fixed_slot=1)
    composed_r = compose_kernels(u20r, u01r, h, (-2.5, 2.5))
    direct_r = overlap((h45, 0.8), (Q, 0.3), LAM, ALPHA, h)
    phase_rev = cmath.phase(composed_r.value / direct_r.value)
    quarter_fwd = phase_fwd / (math.pi / 4)
    phase_ok = (
        abs(quarter_fwd - round(quarter_fwd)) < 1e-6
        and abs(phase_fwd + phase_rev) < 1e-6
    )
    # curved intermediate within 5h across the sweep
    curved_ok = True
    curved_detail = []
    for hh in (0.2, 0.1, 0.05):
        k01 = overlap_kernel((Q, 0.6), HO, LAM, ALPHA, hh, fixed_slot=1)
        k20 = overlap_kernel((P, 0.8), HO, LAM, ALPHA, hh, fixed_slot=2)
        composed_h = compose_kernels(k20, k01, hh, (0.36, 0.95))
        direct_h = overlap((Q, 0.6), (P, 0.8), LAM, ALPHA, hh)
        rel = abs(abs(composed_h.value) - abs(direct_h.value)) / abs(direct_h.value)
        curved_detail.append(rel)
        curved_ok = curved_ok and rel <= 5 * hh
    _report(
        "C10 gluing-composition",
        qpq_ok and degenerate_ok and linear_dev < 1e-10 and phase_ok and curved_ok,
        f"linear dev {linear_dev:.2e}, curved rel {max(curved_detail):.2e}",
    )


def test_criterion_11_cyclic_amplitudes():
    h = 0.1
    h45 = Observable.linear(math.pi / 4)
    cyc = cyclic_amplitude([(Q, 0.3), (P, -0.2), (h45, 0.5)], h, LAM, ALPHA)
    chain = cyc.chains[0]
    c1, c2, c3 = chain.points
    verts = [c3, c1, c2]
    shoelace = 0.5 * sum(
        verts[i].q * verts[(i + 1) % 3].p - verts[(i + 1) % 3].q * verts[i].p
        for i in range(3)
    )
    triangle_ok = abs(chain.action - (-shoelace)) < 1e-8
    cyc2 = cyclic_amplitude([(Q, 0.3), (P, -0.2)], h, LAM, ALPHA)
    prob = transition_probability((Q, 0.3), (P, -0.2), h, LAM)
    two_ok = abs(abs(cyc2.value) - prob) <= 1e-10 * prob
    _report(
        "C11 cyclic-amplitudes",
        triangle_ok and two_ok,
        f"triangle phase dev {abs(chain.action + shoelace):.2e}",
    )
