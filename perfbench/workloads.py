"""Seeded workloads: input generators, one timed pass each, correctness gates.

Every workload is a closed loop in one process: the next case starts when
the previous one has finished.  The generators take only the seed and the
pass index; the program receives only the generated observables and INI
configs.  The
gates reuse the acceptance thresholds of ``tests/test_acceptance.py``
unchanged, and no generated case is dropped because it fails one.

Why these four:

* ``density`` is the full overlap path (position fibration against the
  oscillator, as in C02): Hessian stencil, chart quadrature, Maslov counts
  and one grid eigensystem per h.  No Bohr-Sommerfeld ladder, no
  composition, no star product.
* ``glue`` drives the same overlap layer through the CLI's ``glue-check``:
  many ``light`` overlaps inside stationary-phase composition, dominated by
  intersection search and fiber tracing.  The oracle does no work.
* ``ladder`` drives the CLI's ``spectrum``: Bohr-Sommerfeld root finding
  (loop-action quadrature) and grid eigensolves, no overlaps.
* ``star`` is the exact Moyal product alone; without it ``starprod`` would
  go unmeasured.  Its triples reuse a small pool of polynomials, so the same
  monomial pairs recur, as a product cache would need.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from scoverlap import cli, oracle, semiclassics, starprod
from scoverlap.geometry import Observable, PrequantumForm, ReferenceLagrangian

HO = Observable.harmonic()
Q = Observable.position()
LAM = ReferenceLagrangian.line(1.0)
ALPHA = PrequantumForm()

# Acceptance thresholds, as in tests/test_acceptance.py.
C02_WORST_FINEST = 0.15
C10_DEV_PER_H = 5.0
C08_OPERATOR_RESIDUAL = 1e-8


@dataclass
class Outcome:
    """Result of one pass: cases attempted, failures and paired accuracy."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)
    exit_2: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    """Generator for one pass's inputs.  Every pass draws new inputs, so a
    cache kept by the program across passes meets new keys, as it would in
    a new job; reuse within a pass is still measured."""
    return np.random.default_rng((seed, pass_index))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# density: transition densities against the grid oracle (C02)
# ---------------------------------------------------------------------------

DENSITY_HS = (0.2, 0.1, 0.05, 0.025)
DENSITY_GRID = (10.0, 1024)
DENSITY_TARGETS = 3
DENSITY_POSITIONS = 2


def _interference_phase(u: float, n: int) -> float:
    return (n + 0.5) * (math.acos(u) - u * math.sqrt(1 - u * u)) - math.pi / 4


def _node_safe_fractions(target: float) -> list[float]:
    """C02's filter: turning-radius fractions away from interference nodes at
    every h, because a relative density error at a node is undefined."""
    ns = [int(round(target / h - 0.5)) for h in DENSITY_HS]
    return [
        float(u)
        for u in np.arange(0.05, 0.72, 0.025)
        if all(math.cos(_interference_phase(u, n)) ** 2 >= 0.25 for n in ns)
    ]


@dataclass
class DensityInputs:
    grid: oracle.GridSpec
    # (h, quantum number, level b2 = h (n + 1/2), grid position q1)
    cases: list[tuple[float, int, float, float]]


def make_density(seed: int, pass_index: int, workdir: Path) -> DensityInputs:
    """Level targets uniform in [0.35, 1]; at each h the level is the
    quantized one nearest the target.  Positions are drawn from C02's
    node-safe set and snapped to the grid; no other filter is applied.  The
    draw is without replacement unless the safe set is smaller than the
    number of positions (about one target in thirteen has a single safe
    position), so every seed has the same number of cases."""
    rng = _rng(seed, pass_index)
    grid = oracle.GridSpec(*DENSITY_GRID)
    cases = []
    for target in rng.uniform(0.35, 1.0, DENSITY_TARGETS):
        safe = _node_safe_fractions(float(target))
        picks = rng.choice(len(safe), DENSITY_POSITIONS,
                           replace=len(safe) < DENSITY_POSITIONS)
        for h in DENSITY_HS:
            n = int(round(target / h - 0.5))
            b2 = h * (n + 0.5)
            turning = math.sqrt(2 * b2)
            for i in sorted(picks):
                idx = int(round((safe[i] * turning + grid.half_width) / grid.dq))
                cases.append((h, n, b2, float(grid.qs[idx])))
    return DensityInputs(grid=grid, cases=cases)


def run_density(inputs: DensityInputs, workdir: Path) -> Outcome:
    out = Outcome()
    errors: dict[float, list[float]] = {h: [] for h in DENSITY_HS}
    states = {}
    for h in DENSITY_HS:
        states[h] = oracle.eigensystem(oracle.build_weyl_operator(HO, inputs.grid, h))
    finest = DENSITY_HS[-1]
    for h, n, b2, q1 in inputs.cases:
        out.attempted += 1
        label = f"density h={h} n={n} b2={b2:.6g} q1={q1:.6g}"
        try:
            # oscillator level spacing 2 pi h / T is h
            p_sc = semiclassics.transition_probability((Q, q1), (HO, b2), h, LAM, ALPHA) * h
            p_or = abs(states[h].state(n).at(q1)) ** 2
        except Exception as exc:  # a raising case is a failed case
            out.fail(f"{label}: {type(exc).__name__}: {exc}")
            continue
        err = abs(p_sc - p_or) / p_or if p_or > 0 else math.inf
        if not _finite(p_sc, err):
            out.fail(f"{label}: non-finite density {p_sc!r}")
            continue
        errors[h].append(err)
        if h == finest and err >= C02_WORST_FINEST:
            out.fail(f"{label}: rel err {err:.4f} >= {C02_WORST_FINEST}")
    means = [float(np.mean(errors[h])) for h in DENSITY_HS if errors[h]]
    if len(means) == len(DENSITY_HS) and min(means) > 0:
        # C02 expects a slope near 1 (O(h) error), so the distance from 1
        # is reported: lower is better in either direction.
        slope = float(np.polyfit(np.log(DENSITY_HS), np.log(means), 1)[0])
        out.accuracy["density_slope_dev"] = abs(slope - 1.0)
    if errors[finest]:
        out.accuracy["rel_err"] = float(np.mean(errors[finest]))
        out.accuracy["worst_rel_err_finest_h"] = max(errors[finest])
    return out


def audit_density(inputs: DensityInputs) -> dict[str, float]:
    """C04 quantity over the finest-h density terms (untimed)."""
    finest = DENSITY_HS[-1]
    worst = 0.0
    for h, _, b2, q1 in inputs.cases:
        if h == finest:
            amp = semiclassics.overlap((Q, q1), (HO, b2), LAM, ALPHA, h)
            worst = max([worst] + [t.hessian_bracket_dev for t in amp.terms])
    return {"worst_hessian_bracket_dev": worst}


# ---------------------------------------------------------------------------
# CLI round trip shared by glue and ladder
# ---------------------------------------------------------------------------

def _write_ini(path: Path, systems: dict[str, str], scenario: dict[str, str]) -> None:
    lines = ["[systems]"] + [f"{k} = {v}" for k, v in systems.items()]
    lines += ["", "[setup]", "lambda = q", "gauge = 0", "", "[scenario]"]
    lines += [f"{k} = {v}" for k, v in scenario.items()]
    path.write_text("\n".join(lines) + "\n")


def _run_cli(command: str, config: Path, out_dir: Path) -> tuple[int, list[dict], str]:
    """Run one CLI job in-process; return (status, cases read back, problem)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        status = cli.main([command, "--config", str(config), "--out", str(out_dir)])
    if status not in (0, 2):
        return status, [], f"exit {status}: {buf.getvalue().strip()}"
    report = json.loads((out_dir / "report.json").read_text())
    with open(out_dir / "cases.csv", newline="") as fh:
        header = fh.readline().strip()
        rows = list(csv.DictReader(fh))
    if header != f"# {cli.CSV_HEADER_VERSION}":
        return status, [], f"cases.csv header {header!r}"
    if len(rows) != len(report["cases"]):
        return status, [], f"{len(rows)} csv rows vs {len(report['cases'])} report cases"
    return status, report["cases"], ""


# ---------------------------------------------------------------------------
# glue: stationary-phase composition q -> oscillator -> p through the CLI
# ---------------------------------------------------------------------------

GLUE_HS = (0.2, 0.05)


@dataclass
class CliJob:
    command: str
    config: Path
    expected_cases: int | None  # None: only checked against report.json


def make_glue(seed: int, pass_index: int, workdir: Path) -> list[CliJob]:
    """(b1, b2) uniform on [0.45, 0.75] x [0.55, 0.85].  The interval starts
    0.04 above max(b1^2, b2^2)/2, where the oscillator level first meets both
    straight fibers, so the branch structure is the same across it; it ends
    0.45 above the stationary level (b1^2 + b2^2)/2.  The example config
    (b1, b2) = (0.6, 0.8) gives its interval (0.36, 0.95) by this rule."""
    rng = _rng(seed, pass_index)
    b1, b2 = rng.uniform(0.45, 0.75), rng.uniform(0.55, 0.85)
    lo = max(b1 * b1, b2 * b2) / 2 + 0.04
    hi = (b1 * b1 + b2 * b2) / 2 + 0.45
    path = workdir / "glue.ini"
    _write_ini(
        path,
        {"qpos": "q", "ho": "1/2 q^2 + 1/2 p^2", "pmom": "p"},
        {
            "kind": "glue-check", "system1": "qpos", "intermediate": "ho",
            "system2": "pmom", "b1": repr(float(b1)), "b2": repr(float(b2)),
            "interval_min": repr(lo), "interval_max": repr(hi),
            "h": ", ".join(map(str, GLUE_HS)),
        },
    )
    return [CliJob("glue-check", path, len(GLUE_HS))]


def run_glue(jobs: list[CliJob], workdir: Path) -> Outcome:
    out = Outcome()
    devs, stationary, glued = [], 0, 0
    for job in jobs:
        status, cases, problem = _run_cli(job.command, job.config, workdir / "glue_out")
        out.attempted += job.expected_cases
        out.exit_2 += status == 2
        if problem or len(cases) != job.expected_cases:
            out.failures += [f"glue {job.config.name}: {problem or 'case count'}"
                             ] * job.expected_cases
            continue
        for case in cases:
            h, dev = case["h"], case["rel_deviation"]
            glued += 1
            stationary += len(case["stationary_points"])
            if not _finite(dev, case["composed_abs"], case["direct_abs"]):
                out.fail(f"glue h={h}: non-finite deviation")
            elif dev > C10_DEV_PER_H * h:
                out.fail(f"glue h={h}: deviation {dev:.3e} > {C10_DEV_PER_H} h")
            else:
                devs.append(dev)
    if devs:
        out.accuracy["rel_err"] = max(devs)
    # The interval holds exactly one stationary level, (b1^2 + b2^2) / 2, so
    # each case should find one point; the distance from that is reported.
    out.accuracy["glue_stationary_points_dev"] = float(abs(stationary - glued))
    return out


# ---------------------------------------------------------------------------
# ladder: Bohr-Sommerfeld levels against eigenvalues through the CLI
# ---------------------------------------------------------------------------

LADDER_HS = (0.1, 0.05)
LADDER_LEVELS_FINEST = 12  # quartic levels n = 0..12 at the finest h
PENDULUM_B = (-0.9, 0.2)
_GL_NODES = np.polynomial.legendre.leggauss(64)


def quartic_action(a: float, c: float, energy: float) -> float:
    """Loop action of 1/2 p^2 + a q^2 + c q^4 at ``energy``.

    With q = q_t sin(t) the integrand is smooth, so 64-node Gauss-Legendre
    is exact to rounding."""
    qt2 = (-a + math.sqrt(a * a + 4 * c * energy)) / (2 * c)
    t, w = _GL_NODES
    s = np.sin(0.5 * math.pi * t)
    integrand = (1 - s * s) * np.sqrt(a * qt2 + c * qt2 * qt2 * (1 + s * s))
    return float(2 * math.sqrt(2) * math.sqrt(qt2) * 0.5 * math.pi * np.dot(w, integrand))


def _energy_at_action(a: float, c: float, action: float) -> float:
    lo, hi = 0.0, 1.0
    while quartic_action(a, c, hi) < action:
        hi *= 2
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if quartic_action(a, c, mid) < action else (lo, mid)
    return 0.5 * (lo + hi)


def _level_count(a: float, c: float, b_lo: float, b_hi: float, h: float) -> int:
    """Quantized levels 2 pi h (n + 1/2) inside the action range."""
    lo = quartic_action(a, c, b_lo) / (2 * math.pi * h) - 0.5
    hi = quartic_action(a, c, b_hi) / (2 * math.pi * h) - 0.5
    return math.floor(hi) - max(math.ceil(lo), 0) + 1


def make_ladder(seed: int, pass_index: int, workdir: Path) -> list[CliJob]:
    """A seeded quartic 1/2 p^2 + a q^2 + c q^4, a in [0.3, 0.8] and c in
    [0.02, 0.15], on the n = 1024 grid, plus the pendulum on its periodic
    n = 256 grid.  The quartic's level range is set from its loop action so
    that every seed quantizes the same number of levels (the action ends a
    quarter level away from the nearest quantized value), which keeps the
    work per pass independent of the seed."""
    rng = _rng(seed, pass_index)
    a, c = rng.uniform(0.3, 0.8), rng.uniform(0.02, 0.15)
    step = 2 * math.pi * min(LADDER_HS)
    b_lo = _energy_at_action(a, c, 0.25 * step)
    b_hi = _energy_at_action(a, c, (LADDER_LEVELS_FINEST + 0.75) * step)
    hs = ", ".join(map(str, LADDER_HS))
    quartic = workdir / "quartic.ini"
    _write_ini(
        quartic,
        {"quartic": f"1/2 p^2 + {a!r} q^2 + {c!r} q^4"},
        {"kind": "spectrum", "system": "quartic", "h": hs, "b_min": repr(b_lo),
         "b_max": repr(b_hi), "grid_points": "1024", "grid_halfwidth": "10"},
    )
    pendulum = workdir / "pendulum.ini"
    _write_ini(
        pendulum,
        {"pend": "pendulum"},
        {"kind": "spectrum", "system": "pend", "h": hs, "b_min": repr(PENDULUM_B[0]),
         "b_max": repr(PENDULUM_B[1]), "grid_points": "256", "grid_halfwidth": repr(math.pi),
         "retain_below": "0.9"},
    )
    expected = sum(_level_count(a, c, b_lo, b_hi, h) for h in LADDER_HS)
    return [CliJob("spectrum", quartic, expected), CliJob("spectrum", pendulum, None)]


def run_ladder(jobs: list[CliJob], workdir: Path) -> Outcome:
    out = Outcome()
    worst = []
    for job in jobs:
        status, cases, problem = _run_cli(job.command, job.config, workdir / "ladder_out")
        out.exit_2 += status == 2
        expected = job.expected_cases
        if not problem and expected is not None and len(cases) != expected:
            problem = f"{len(cases)} levels, expected {expected}"
        if not problem and not cases:
            problem = "no levels"
        if problem:
            out.attempted += expected or 1
            out.failures += [f"ladder {job.config.name}: {problem}"] * (expected or 1)
            continue
        for case in cases:
            out.attempted += 1
            scaled = case["error"] / case["h"]
            if not _finite(case["eigenvalue"], case["b_semiclassical"], scaled):
                out.fail(f"ladder {job.config.name} h={case['h']} n={case['n']}: non-finite")
            else:
                worst.append(scaled)
    if worst:
        out.accuracy["rel_err"] = max(worst)
    return out


# ---------------------------------------------------------------------------
# star: exact associativity and the operator correspondence (C08)
# ---------------------------------------------------------------------------

STAR_POOL = 16
STAR_TRIPLES = 300
STAR_ORDER = 6
STAR_OPERATOR_PAIRS = 3
STAR_GRID = (10.0, 512)
STAR_H = 0.1


def _coefficient(rng) -> "starprod.QQi":
    num = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return starprod.QQi(Fraction(num, int(rng.integers(1, 5))))


def _pool_poly(rng, i: int):
    """Pool entry ``i``: two monomials of total degrees 1 + i % 4 and
    1 + (i // 4) % 4, with the q/p split drawn by the seed."""
    table = {}
    for degree in (1 + i % 4, 1 + (i // 4) % 4):
        free = [(a, degree - a) for a in range(degree + 1) if (a, degree - a) not in table]
        table[free[int(rng.integers(len(free)))]] = _coefficient(rng)
    return starprod.PolynomialObservable.from_dict(table)


def _operator_poly(rng):
    """Two distinct monomials q^a p^b with a <= 2 and b <= 1."""
    monos = [(a, b) for a in range(3) for b in range(2) if a + b > 0]
    picks = rng.choice(len(monos), 2, replace=False)
    return starprod.PolynomialObservable.from_dict(
        {monos[i]: _coefficient(rng) for i in picks})


@dataclass
class StarInputs:
    triples: list[tuple]
    pairs: list[tuple]
    probes: list[np.ndarray]


def make_star(seed: int, pass_index: int, workdir: Path) -> StarInputs:
    """A pool of two-term polynomials of degree <= 4 with small rational
    coefficients, one for each pair of monomial degrees, so every seed has
    the same mix of degrees and the work per pass does not depend on the
    seed.  Triples are drawn from the pool with replacement.  The operator
    pairs have q-degree <= 2 and momentum degree <= 1 each, so their product
    stays within the grid's quadratic momentum ordering; the probes are
    C08's three Gaussian wave packets."""
    rng = _rng(seed, pass_index)
    pool = [_pool_poly(rng, i) for i in range(STAR_POOL)]
    triples = [tuple(pool[i] for i in rng.integers(0, STAR_POOL, 3))
               for _ in range(STAR_TRIPLES)]
    pairs = [(_operator_poly(rng), _operator_poly(rng)) for _ in range(STAR_OPERATOR_PAIRS)]
    qs = oracle.GridSpec(*STAR_GRID).qs
    probes = []
    for q0, s, k in [(-1.5, 0.7, 0), (0.0, 0.9, 1), (1.2, 0.6, 2)]:
        v = (qs - q0) ** k * np.exp(-((qs - q0) ** 2) / (2 * s * s))
        v = v * np.exp(1j * 0.3 * qs / STAR_H)
        probes.append(v / np.linalg.norm(v))
    return StarInputs(triples=triples, pairs=pairs, probes=probes)


def run_star(inputs: StarInputs, workdir: Path) -> Outcome:
    out = Outcome()
    for i, (f, g, k) in enumerate(inputs.triples):
        out.attempted += 1
        try:
            zero = starprod.associativity_defect(f, g, k, STAR_ORDER).is_zero
        except Exception as exc:
            out.fail(f"star triple {i} ({f}; {g}; {k}): {type(exc).__name__}: {exc}")
            continue
        if not zero:
            out.fail(f"star triple {i} ({f}; {g}; {k}): non-zero defect")
    grid = oracle.GridSpec(*STAR_GRID)
    worst = 0.0
    for f, g in inputs.pairs:
        out.attempted += 1
        try:
            lhs = starprod.weyl_operator_of(starprod.moyal_product(f, g, 4), grid, STAR_H)
            rhs = (starprod.weyl_operator_of(f, grid, STAR_H)
                   @ starprod.weyl_operator_of(g, grid, STAR_H))
        except Exception as exc:
            out.fail(f"star pair ({f}; {g}): {type(exc).__name__}: {exc}")
            continue
        res = max(float(np.linalg.norm((lhs - rhs) @ v) / np.linalg.norm(rhs @ v))
                  for v in inputs.probes)
        if not res < C08_OPERATOR_RESIDUAL:
            out.fail(f"star pair ({f}; {g}): operator residual {res:.3e}")
        worst = max(worst, res)
    out.accuracy["star_operator_residual"] = worst
    return out


WORKLOADS = {
    "density": (make_density, run_density),
    "glue": (make_glue, run_glue),
    "ladder": (make_ladder, run_ladder),
    "star": (make_star, run_star),
}
