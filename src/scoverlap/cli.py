"""Configuration-driven experiment runner.

INI-style config files declare named systems, a reference Lagrangian, a
gauge function, h values, and level/position selectors; subcommands run the
comparison pipelines and write ``report.json`` + ``cases.csv`` (and optional
fiber dumps).  Exit status: 0 clean, 2 finished with numerical warnings,
1 on errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CausticNearby,
    ConfigError,
    DegenerateFit,
    DoubleRoot,
    DuplicatePosition,
    LevelSkipped,
    QuadratureLimit,
)
from .geometry import (
    FiberCurve,
    Observable,
    PrequantumForm,
    ReferenceLagrangian,
    project_to_fiber,
    seed_on_level,
    trace_level_curve,
)
from .oracle import (
    Eigensystem,
    GridSpec,
    build_weyl_operator,
    eigensystem,
    half_density_bridge,
    match_levels,
)
from .semiclassics import (
    BSLevel,
    compose_kernels,
    cyclic_amplitude,
    nearest_level,
    overlap,
    overlap_kernel,
    probe_loop_actions,
    transition_probability,
)
from .starprod import (
    MAX_ORDER,
    PolynomialObservable,
    moyal_product,
)

SCENARIOS = (
    "spectrum",
    "overlap",
    "probability",
    "cyclic",
    "star-check",
    "glue-check",
    "sweep",
)

CSV_HEADER_VERSION = "scoverlap-cases v1"
OUT_ENV_VAR = "SCOVERLAP_OUT"


def _numbers(where: str, raw: str) -> list[float]:
    """The numbers listed in ``raw``, split at commas and blanks; each finite."""
    try:
        values = [float(x) for x in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{where} = {raw!r}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{where} = {raw!r} is not finite")
    return values


@dataclass
class ExperimentConfig:
    kind: str
    systems: dict[str, Observable]
    lam: ReferenceLagrangian
    alpha: PrequantumForm
    hs: list[float]
    params: dict[str, str]
    out_dir: Path
    dump_fibers: bool = False

    def system(self, key: str) -> Observable:
        name = self.params.get(key)
        if name is None:
            raise ConfigError(f"[scenario] is missing required key {key!r}")
        if name not in self.systems:
            raise ConfigError(f"system {name!r} is not defined in [systems]")
        return self.systems[name]

    def floats(self, key: str, required: bool = True) -> list[float]:
        raw = self.params.get(key)
        if raw is None:
            if required:
                raise ConfigError(f"[scenario] is missing required key {key!r}")
            return []
        values = _numbers(f"[scenario] {key}", raw)
        if required and not values:
            raise ConfigError(f"[scenario] {key} lists no value")
        return values

    def flt(self, key: str, default: float | None = None) -> float:
        raw = self.params.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"[scenario] is missing required key {key!r}")
            return default
        values = _numbers(f"[scenario] {key}", raw)
        if len(values) != 1:
            raise ConfigError(f"[scenario] {key} = {raw!r} is not one number")
        return values[0]

    def level_range(self, lo: float | None = None, hi: float | None = None) -> tuple[float, float]:
        """(b_min, b_max), defaulting to (lo, hi), with b_min < b_max."""
        b_lo, b_hi = self.flt("b_min", lo), self.flt("b_max", hi)
        if not b_lo < b_hi:
            raise ConfigError(f"[scenario] b_min = {b_lo} is not below b_max = {b_hi}")
        return b_lo, b_hi

    def integer(self, key: str, default: int, lo: int, hi: int | None = None) -> int:
        """An integer key in lo..hi (no upper bound when hi is None)."""
        raw = self.params.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"[scenario] {key} = {raw!r} is not an integer") from None
        if value < lo or (hi is not None and value > hi):
            span = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise ConfigError(f"[scenario] {key} = {value} is not in {span}")
        return value


@dataclass
class Report:
    kind: str
    cases: list[dict] = field(default_factory=list)
    slope: float | None = None
    slope_residual: float | None = None
    error_floor: float | None = None
    exact_plateau: bool = False
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "cases": self.cases,
            "slope": self.slope,
            "slope_residual": self.slope_residual,
            "error_floor": self.error_floor,
            "exact_plateau": self.exact_plateau,
            "warnings": self.warnings,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def regress_error_slope(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log error against log h (needs >= 3 points)."""
    if len(points) < 3:
        raise ValueError("slope regression needs at least three points")
    hs = np.array([p[0] for p in points], dtype=float)
    errs = np.array([p[1] for p in points], dtype=float)
    if np.all(errs < 1e-13):
        raise DegenerateFit("all errors at machine precision; convergence is exact")
    if np.any(errs <= 0):
        raise ValueError("slope regression requires positive errors")
    coef, residuals, *_ = np.polyfit(np.log(hs), np.log(errs), 1, full=True)
    resid = float(np.sqrt(residuals[0] / len(points))) if len(residuals) else 0.0
    return float(coef[0]), resid


def parse_config(path: Path, kind: str | None, out_override: str | None) -> ExperimentConfig:
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    if "systems" not in cp:
        raise ConfigError(f"{path}: missing [systems] section")
    systems = {}
    for name, text in cp["systems"].items():
        try:
            systems[name] = Observable.from_text(text)
        except ValueError as exc:
            raise ConfigError(f"[systems] {name} = {text!r}: {exc}") from None

    setup = cp["setup"] if "setup" in cp else {}
    try:
        lam = ReferenceLagrangian.from_text(setup.get("lambda", "0"))
    except ValueError as exc:
        raise ConfigError(f"[setup] lambda: {exc}") from None
    gauge_text = setup.get("gauge", "0").strip()
    try:
        gauge = None if gauge_text in ("", "0") else Observable.from_text(gauge_text)
    except ValueError as exc:
        raise ConfigError(f"[setup] gauge: {exc}") from None
    alpha = PrequantumForm(gauge=gauge)

    if "scenario" not in cp:
        raise ConfigError(f"{path}: missing [scenario] section")
    params = dict(cp["scenario"])
    cfg_kind = kind or params.get("kind")
    if cfg_kind not in SCENARIOS:
        raise ConfigError(
            f"scenario kind {cfg_kind!r} is not one of {', '.join(SCENARIOS)}"
        )

    hs = _numbers("[scenario] h", params.get("h", ""))
    if not hs:
        raise ConfigError("[scenario] must list at least one h value")
    if any(h <= 0 for h in hs):
        raise ConfigError("[scenario] h values must be positive")
    if cfg_kind == "sweep" and not all(a > b for a, b in zip(hs, hs[1:])):
        raise ConfigError("[scenario] sweep h values must be strictly decreasing")

    out_section = cp["output"] if "output" in cp else {}
    out_dir = Path(
        out_override
        or out_section.get("dir")
        or os.environ.get(OUT_ENV_VAR, "scoverlap-out")
    )
    dump = out_section.get("dump_fibers", "false").strip().lower() in ("1", "true", "yes")
    return ExperimentConfig(
        kind=cfg_kind,
        systems=systems,
        lam=lam,
        alpha=alpha,
        hs=hs,
        params=params,
        out_dir=out_dir,
        dump_fibers=dump,
    )


# ---------------------------------------------------------------------------
# Scenario pipelines
# ---------------------------------------------------------------------------

def _grid_from(cfg: ExperimentConfig) -> GridSpec:
    half_width = cfg.flt("grid_halfwidth", 10.0)
    if not half_width > 0:
        raise ConfigError(f"[scenario] grid_halfwidth = {half_width} is not positive")
    return GridSpec(half_width=half_width, points=cfg.integer("grid_points", 512, 1))


def _eigensystem_below(
    h_obs: Observable, grid: GridSpec, h: float, top: BSLevel | None
) -> Eigensystem:
    """The grid eigensystem of ``h_obs`` at h, keeping the eigenvalues up
    to one level spacing 2 pi h / T above the level ``top`` (with no level,
    the oracle's default cutoff)."""
    cutoff = None if top is None else top.b + 2 * math.pi * h / top.period
    return eigensystem(build_weyl_operator(h_obs, grid, h), retain_below=cutoff)


def _run_spectrum(cfg: ExperimentConfig) -> Report:
    h_obs = cfg.system("system")
    rep = Report(kind="spectrum")
    grid = _grid_from(cfg)
    probes = probe_loop_actions(h_obs, cfg.level_range())
    errs = []
    for h in cfg.hs:
        levels = probes.levels(h)
        es = _eigensystem_below(h_obs, grid, h, levels[-1] if levels else None)
        pairing = match_levels(es, levels)
        for n, ev, b, dev in zip(
            pairing.indices, pairing.eigenvalues, pairing.levels, pairing.deviations
        ):
            rep.cases.append(
                {"h": h, "n": n, "b_semiclassical": b, "eigenvalue": ev, "error": dev}
            )
        errs.append((h, max(pairing.deviations) if pairing.deviations else 0.0))
    _attach_slope(rep, errs)
    return rep


def _run_probability(cfg: ExperimentConfig, kind: str = "probability") -> Report:
    """Position fibration vs a closed-fiber system: semiclassical transition
    density against the oracle's position density at matched quantum numbers."""
    h_obs2 = cfg.system("system2")
    rep = Report(kind=kind)
    grid = _grid_from(cfg)
    b2_targets = cfg.floats("levels")
    us = cfg.floats("positions")
    qobs = cfg.system("system1")
    b_lo, b_hi = cfg.level_range(0.01, 1.2)
    probes = probe_loop_actions(h_obs2, (b_lo, b_hi))
    # every h picks its levels first, so one without a level fails before
    # any eigensolve
    picks = []
    for h in cfg.hs:
        solved: dict[int, BSLevel] = {}
        nearest = []
        for target in b2_targets:
            # only the two levels bracketing the target are solved
            bracket = probes.bracket(h, target)
            if not bracket:
                raise ConfigError(
                    f"h = {h} has no quantized level of system2 in "
                    f"[b_min, b_max] = [{b_lo}, {b_hi}]"
                )
            for n in bracket:
                if n not in solved:
                    solved[n] = probes.level(h, n)
            nearest.append(nearest_level([solved[n] for n in bracket], target))
        picks.append((h, nearest, solved[max(solved)] if solved else None))
    errs = []
    for h, nearest, top in picks:
        es = _eigensystem_below(h_obs2, grid, h, top)
        fibers: dict[int, tuple[float, FiberCurve]] = {}
        case_errs = []
        for level in nearest:
            if level.n not in fibers:
                # positions are fractions of the level's p = 0 turning radius;
                # the fiber is traced once and shared by every position
                start = project_to_fiber(h_obs2, level.b, seed_on_level(h_obs2, level.b))
                fibers[level.n] = (
                    abs(start.q), trace_level_curve(h_obs2, level.b, start)
                )
            turning, fiber = fibers[level.n]
            spacing = 2 * math.pi * h / level.period
            seen: set[int] = set()
            for u in us:
                idx = int(round((u * turning + grid.half_width) / grid.dq))
                if idx in seen:
                    warnings.warn(
                        f"h={h} n={level.n}: position {u} snaps to grid index "
                        f"{idx}, already computed; the repeat is dropped",
                        DuplicatePosition,
                    )
                    continue
                seen.add(idx)
                q1 = float(grid.qs[idx])
                p_sc = transition_probability(
                    (qobs, q1), (h_obs2, level.b), h, cfg.lam, cfg.alpha,
                    curves=(None, fiber),
                ) * spacing
                p_or = abs(es.state(level.n).at(q1)) ** 2
                err = abs(p_sc - p_or) / p_or
                case_errs.append(err)
                rep.cases.append(
                    {
                        "h": h,
                        "b1": q1,
                        "b2": level.b,
                        "n": level.n,
                        "semiclassical": p_sc,
                        "oracle": p_or,
                        "rel_error": err,
                    }
                )
        errs.append((h, float(np.mean(case_errs))))
    _attach_slope(rep, errs)
    return rep


def _run_overlap(cfg: ExperimentConfig) -> Report:
    h_obs1, h_obs2 = cfg.system("system1"), cfg.system("system2")
    rep = Report(kind="overlap")
    b1s = cfg.floats("levels1")
    b2s = cfg.floats("levels2")
    for h in cfg.hs:
        for b1 in b1s:
            for b2 in b2s:
                amp = overlap((h_obs1, b1), (h_obs2, b2), cfg.lam, cfg.alpha, h)
                bridged = half_density_bridge(amp.value, amp.curve1, amp.curve2, h)
                rep.cases.append(
                    {
                        "h": h,
                        "b1": b1,
                        "b2": b2,
                        "re": bridged.real,
                        "im": bridged.imag,
                        "abs": abs(bridged),
                        "n_terms": len(amp.terms),
                        "_terms": amp.term_dump(),
                    }
                )
    return rep


def _run_cyclic(cfg: ExperimentConfig) -> Report:
    names = cfg.params.get("chain_systems", "").replace(",", " ").split()
    if not 2 <= len(names) <= 4:
        raise ConfigError("[scenario] chain_systems must list 2..4 system names")
    systems = []
    levels = cfg.floats("chain_levels")
    if len(levels) != len(names):
        raise ConfigError("[scenario] chain_levels must match chain_systems")
    for name, b in zip(names, levels):
        if name not in cfg.systems:
            raise ConfigError(f"system {name!r} is not defined in [systems]")
        systems.append((cfg.systems[name], b))
    rep = Report(kind="cyclic")
    for h in cfg.hs:
        cyc = cyclic_amplitude(systems, h, cfg.lam, cfg.alpha)
        rep.cases.append(
            {
                "h": h,
                "k": cyc.k,
                "n_chains": len(cyc.chains),
                "re": cyc.value.real,
                "im": cyc.value.imag,
                "abs": abs(cyc.value),
            }
        )
    return rep


def _run_star_check(cfg: ExperimentConfig) -> Report:
    rep = Report(kind="star-check")
    order = cfg.integer("order", 6, 0, MAX_ORDER)
    degree = cfg.integer("degree", 4, 0)
    monos = [
        PolynomialObservable.monomial(a, b)
        for a in range(degree + 1)
        for b in range(degree + 1)
        if a + b <= degree
    ]
    # (f * g) * k - f * (g * k) for every triple, with each pair product
    # computed once and shared by every triple it enters
    products = [[moyal_product(f, g, order) for g in monos] for f in monos]
    defects = 0
    checked = 0
    for i, f in enumerate(monos):
        for j in range(len(monos)):
            for k, third in enumerate(monos):
                checked += 1
                left = moyal_product(products[i][j], third, order)
                right = moyal_product(f, products[j][k], order)
                if not (left - right).is_zero:
                    defects += 1
    rep.cases.append({"checked": checked, "defects": defects, "order": order})
    q2p2 = moyal_product(
        PolynomialObservable.monomial(2, 0), PolynomialObservable.monomial(0, 2), 4
    )
    expected = (
        "h^0 (q^2 p^2) + h^1 ((2j) q p) + h^2 (-0.5)"
    )
    rep.cases.append({"q2_star_p2": str(q2p2), "expected": expected})
    return rep


def _run_glue_check(cfg: ExperimentConfig) -> Report:
    """Stationary-phase composition through the intermediate fibration
    against the direct overlap.  The stationary levels, actions, Maslov
    indices and Hessians are h-free, so both are computed once, at the first
    h, and re-phased to every h with ``at``."""
    h_obs1 = cfg.system("system1")
    inter = cfg.system("intermediate")
    h_obs2 = cfg.system("system2")
    b1, b2 = cfg.flt("b1"), cfg.flt("b2")
    lo, hi = cfg.flt("interval_min"), cfg.flt("interval_max")
    rep = Report(kind="glue-check")
    h0 = cfg.hs[0]
    fibers: dict = {}  # intermediate level -> fiber, traced once for both kernels
    u01 = overlap_kernel(
        (h_obs1, b1), inter, cfg.lam, cfg.alpha, h0, fixed_slot=1, fibers=fibers
    )
    u20 = overlap_kernel(
        (h_obs2, b2), inter, cfg.lam, cfg.alpha, h0, fixed_slot=2, fibers=fibers
    )
    composed_h0 = compose_kernels(u20, u01, h0, (lo, hi))
    # the kernels have traced both fixed fibers
    direct_h0 = overlap(
        (h_obs1, b1), (h_obs2, b2), cfg.lam, cfg.alpha, h0,
        curves=(u01.cache["curve"], u20.cache["curve"]),
    )
    errs = []
    for h in cfg.hs:
        composed, direct = composed_h0.at(h), direct_h0.at(h)
        dev = abs(abs(composed.value) - abs(direct.value)) / abs(direct.value)
        rep.cases.append(
            {
                "h": h,
                "composed_abs": abs(composed.value),
                "direct_abs": abs(direct.value),
                "rel_deviation": dev,
                "stationary_points": [t.b_star for t in composed.terms],
            }
        )
        errs.append((h, dev))
    _attach_slope(rep, errs)
    return rep


def _attach_slope(rep: Report, errs: list[tuple[float, float]]) -> None:
    """Fit the convergence slope, or report an error floor instead.

    A fitted error that changes by less than a factor of 2 across the whole
    h range is a floor, not an order: ``error_floor`` then holds the median
    error and ``slope`` stays None.  So does a set with a zero error (exact
    composition can reach one) that is not all below 1e-13, which has no
    log-log fit.
    """
    if len(errs) >= 3:
        median = float(np.median([e for _, e in errs]))
        try:
            slope, resid = regress_error_slope(errs)
        except DegenerateFit:
            rep.exact_plateau = True
            return
        except ValueError:
            # a zero error has no logarithm: the errors sit on a floor
            rep.error_floor = median
            return
        hs = [h for h, _ in errs]
        if abs(slope) * math.log(max(hs) / min(hs)) < math.log(2.0):
            rep.error_floor = median
        else:
            rep.slope, rep.slope_residual = slope, resid


_PIPELINES = {
    "spectrum": _run_spectrum,
    "overlap": _run_overlap,
    "probability": _run_probability,
    "cyclic": _run_cyclic,
    "star-check": _run_star_check,
    "glue-check": _run_glue_check,
    "sweep": lambda cfg: _run_probability(cfg, kind="sweep"),
}


def run(cfg: ExperimentConfig) -> tuple[Report, int]:
    """Execute the scenario; returns the report and the exit status.

    The status is 2 when a ``CausticNearby`` warning fired; ``report.warnings``
    also keeps ``DoubleRoot``, ``DuplicatePosition``, ``LevelSkipped`` and
    ``QuadratureLimit`` messages and failed fiber dumps, which leave the
    status alone.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = _PIPELINES[cfg.kind](cfg)
    kept = (CausticNearby, DoubleRoot, DuplicatePosition, LevelSkipped, QuadratureLimit)
    report.warnings = [str(w.message) for w in caught if issubclass(w.category, kept)]
    caustic = any(issubclass(w.category, CausticNearby) for w in caught)
    _write_outputs(cfg, report)
    return report, (2 if caustic else 0)


def _write_outputs(cfg: ExperimentConfig, report: Report) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    # fiber dumps go first, so a level that cannot be traced is listed in
    # report.json
    if cfg.dump_fibers and cfg.kind in ("overlap", "probability", "sweep"):
        h_obs2 = cfg.system("system2")
        levels = cfg.floats("levels", required=False) or cfg.floats(
            "levels2", required=False
        )
        for i, b in enumerate(levels[:4]):
            try:
                curve = trace_level_curve(h_obs2, b, seed_on_level(h_obs2, b))
                curve.to_csv(cfg.out_dir / f"fiber_{i}.csv")
            except Exception as exc:
                report.warnings.append(
                    f"fiber dump {i} at level {b} failed: {type(exc).__name__}: {exc}"
                )
    # per-term debugging dumps travel to terms.json, not the case table
    term_dumps = []
    for i, case in enumerate(report.cases):
        if "_terms" in case:
            term_dumps.append({"case": i, "terms": case.pop("_terms")})
    (cfg.out_dir / "report.json").write_text(report.to_json())
    if term_dumps:
        (cfg.out_dir / "terms.json").write_text(
            json.dumps(term_dumps, indent=2, sort_keys=True)
        )
    keys: list[str] = []
    for case in report.cases:
        for k in case:
            if k not in keys:
                keys.append(k)
    with open(cfg.out_dir / "cases.csv", "w", newline="") as fh:
        fh.write(f"# {CSV_HEADER_VERSION}\n")
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for case in report.cases:
            writer.writerow(case)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scoverlap",
        description="semiclassical overlap experiments on the phase plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name, help=f"run a {name} scenario")
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config), args.command, args.out)
        report, status = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface errors with a diagnostic, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    n = len(report.cases)
    if report.slope is not None:
        fit_txt = f", slope {report.slope:.3f}"
    elif report.error_floor is not None:
        fit_txt = f", error floor {report.error_floor:.3g}"
    else:
        fit_txt = ""
    print(f"{cfg.kind}: {n} case(s){fit_txt} -> {cfg.out_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
