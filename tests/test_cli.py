"""Experiment runner: config validation, pipelines, reproducibility."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from scoverlap.cli import (
    Report,
    _attach_slope,
    main,
    parse_config,
    regress_error_slope,
    run,
)
from scoverlap.errors import ConfigError, DegenerateFit
from scoverlap.geometry import Observable
from scoverlap.semiclassics import nearest_level, probe_loop_actions

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _example_runs():
    """The (command, config) list of ``scripts/run_experiments.py``."""
    spec = importlib.util.spec_from_file_location(
        "run_experiments", EXAMPLES.parent / "run_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


HO_SPECTRUM = """
[systems]
ho = 1/2 q^2 + 1/2 p^2

[setup]
lambda = q

[scenario]
kind = spectrum
system = ho
h = 0.1
b_min = 0.004
b_max = 1.0
grid_points = 256
grid_halfwidth = 10

[output]
dir = {out}
"""

LINEAR_OVERLAP = """
[systems]
qpos = q
pmom = p

[setup]
lambda = q

[scenario]
kind = overlap
system1 = qpos
system2 = pmom
h = 0.5, 0.1
levels1 = 1.3
levels2 = 0.4

[output]
dir = {out}
"""

SWEEP = """
[systems]
qpos = q
ho = 1/2 q^2 + 1/2 p^2

[setup]
lambda = q

[scenario]
kind = sweep
system1 = qpos
system2 = ho
h = 0.2, 0.1, 0.05
levels = 0.55
positions = 0.15, 0.45
b_min = 0.01
b_max = 1.0
grid_points = 512
grid_halfwidth = 10

[output]
dir = {out}
"""

PENDULUM_PROBABILITY = """
[systems]
qpos = q
pend = pendulum

[setup]
lambda = q

[scenario]
kind = probability
system1 = qpos
system2 = pend
h = 0.1
levels = -0.5
positions = 0.15, 0.45
b_min = -0.9
b_max = 0.2
grid_points = 256
grid_halfwidth = 3.141592653589793

[output]
dir = {out}
"""


GLUE = """
[systems]
qpos = q
ho = 1/2 q^2 + 1/2 p^2
pmom = p

[setup]
lambda = q

[scenario]
kind = glue-check
system1 = qpos
intermediate = ho
system2 = pmom
b1 = 0.6
b2 = 0.8
interval_min = 0.36
interval_max = 0.95
h = {h}

[output]
dir = {out}
"""


def _cases_per_h(tmp_path, command, template, hs):
    """Cases of one run over all ``hs`` and of one run per h."""
    runs = {}
    for label, h_text in [("all", ", ".join(hs))] + [(h, h) for h in hs]:
        out = tmp_path / f"out_{label}"
        cfg_file = tmp_path / f"cfg_{label}.ini"
        cfg_file.write_text(template.format(h=h_text, out=out))
        assert main([command, "--config", str(cfg_file)]) == 0
        runs[label] = json.loads((out / "report.json").read_text())["cases"]
    return runs.pop("all"), [case for h in hs for case in runs[h]]


class TestSlopeRegression:
    def test_linear_errors(self):
        pts = [(h, 0.37 * h) for h in (0.2, 0.1, 0.05, 0.025)]
        slope, resid = regress_error_slope(pts)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_errors(self):
        pts = [(h, 2.1 * h * h) for h in (0.2, 0.1, 0.05)]
        assert regress_error_slope(pts)[0] == pytest.approx(2.0, abs=1e-12)

    def test_plateau(self):
        pts = [(h, 1e-15) for h in (0.2, 0.1, 0.05)]
        with pytest.raises(DegenerateFit):
            regress_error_slope(pts)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            regress_error_slope([(0.1, 1e-3), (0.05, 5e-4)])


class TestErrorFloor:
    # over h = 0.2 .. 0.05 an order k changes the error by 4^k: a factor 2
    # is order 0.5, the boundary between a floor and a slope
    @pytest.mark.parametrize("order, is_floor", [(0.0, True), (0.4, True), (0.6, False)])
    def test_factor_two_rule(self, order, is_floor):
        rep = Report(kind="sweep")
        _attach_slope(rep, [(h, 3e-9 * h**order) for h in (0.2, 0.1, 0.05)])
        if is_floor:
            assert rep.slope is None and rep.slope_residual is None
            assert rep.error_floor == pytest.approx(3e-9 * 0.1**order, rel=1e-12)
        else:
            assert rep.slope == pytest.approx(order, abs=1e-12)
            assert rep.error_floor is None

    def test_zero_errors_report_a_floor(self):
        # log(0) has no fit; the median is reported rather than nothing
        rep = Report(kind="glue-check")
        _attach_slope(rep, [(0.2, 2e-13), (0.1, 0.0), (0.05, 0.0)])
        assert rep.slope is None and rep.slope_residual is None
        assert rep.error_floor == 0.0 and not rep.exact_plateau

    def test_glue_example_reports_an_exact_plateau(self, tmp_path, capsys):
        # phi'' in closed form: composition matches the direct overlap to
        # rounding at every h
        config = EXAMPLES / "glue_q_ho_p.ini"
        assert main(["glue-check", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "error floor" not in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["cases"]) == 3
        assert all(c["rel_deviation"] < 1e-13 for c in report["cases"])
        assert report["exact_plateau"] is True
        assert report["slope"] is None and report["error_floor"] is None

    def test_sweep_example_reports_a_slope(self, tmp_path, capsys):
        config = EXAMPLES / "q_vs_ho_sweep.ini"
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert "slope 1.24" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["slope"] == pytest.approx(1.24, abs=0.01)
        assert report["error_floor"] is None


@pytest.mark.parametrize(
    "command, config", _example_runs(), ids=lambda v: v.removesuffix(".ini")
)
def test_example_config_runs(tmp_path, command, config):
    assert main([command, "--config", str(EXAMPLES / config), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["cases"]


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini", "spectrum", None)

    def test_bad_system_text(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[systems]\nho = 1/2 x^2\n[scenario]\nkind = spectrum\nh = 0.1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(cfg, None, None)
        assert "ho" in str(err.value)

    def test_bad_kind(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[systems]\nho = q\n[scenario]\nkind = dance\nh = 0.1\n")
        with pytest.raises(ConfigError):
            parse_config(cfg, None, None)

    def test_sweep_needs_decreasing_h(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[systems]\nho = q\n[scenario]\nkind = sweep\nh = 0.05, 0.1\n"
        )
        with pytest.raises(ConfigError):
            parse_config(cfg, None, None)

    def test_malformed_config_exits_1_without_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        out = tmp_path / "out"
        cfg.write_text(
            f"[systems]\nho = 1/2 w^2\n[scenario]\nkind = spectrum\nh = 0.1\n"
            f"[output]\ndir = {out}\n"
        )
        status = main(["spectrum", "--config", str(cfg)])
        assert status == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("order", "-1"), ("order", "6.5"), ("order", "9"),
        ("degree", "-1"), ("degree", "2.5"),
    ])
    def test_star_check_integer_keys(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.ini"
        out = tmp_path / "out"
        cfg.write_text(
            f"[systems]\nho = q\n[scenario]\nkind = star-check\nh = 0.1\n"
            f"{key} = {value}\n[output]\ndir = {out}\n"
        )
        assert main(["star-check", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    def test_sweep_with_no_level_at_some_h_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # the oscillator's lowest level at h = 0.2 is 0.1, above b_max
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the levels were checked")

        monkeypatch.setattr("scoverlap.cli.eigensystem", no_eigensolve)
        text = (EXAMPLES / "q_vs_ho_sweep.ini").read_text()
        text = text.replace("b_max = 1.2", "b_max = 0.05")
        text = text.replace("h = 0.2, 0.1, 0.05, 0.025", "h = 0.2, 0.1, 0.05")
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("config error:"))
        assert "h = 0.2 " in line and "0.05" in line
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-4", "256.5"])
    def test_grid_points_is_a_positive_integer(self, tmp_path, capsys, value):
        cfg = tmp_path / "bad.ini"
        out = tmp_path / "out"
        cfg.write_text(
            HO_SPECTRUM.format(out=out).replace("grid_points = 256", f"grid_points = {value}")
        )
        assert main(["spectrum", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "grid_points" in err
        assert not out.exists()


    @pytest.mark.parametrize("key, old, new", [
        ("h", "h = 0.1", "h = nan"),
        ("h", "h = 0.1", "h = inf"),
        ("grid_halfwidth", "grid_halfwidth = 10", "grid_halfwidth = 0"),
        ("grid_halfwidth", "grid_halfwidth = 10", "grid_halfwidth = nan"),
        ("grid_halfwidth", "grid_halfwidth = 10", "grid_halfwidth = -10"),
        ("b_min", "b_min = 0.004\nb_max = 1.0", "b_min = 3.2\nb_max = 0.004"),
        ("b_max", "b_max = 1.0", "b_max = inf"),
    ])
    def test_numbers_are_finite_and_in_range(self, tmp_path, capsys, key, old, new):
        cfg = tmp_path / "bad.ini"
        out = tmp_path / "out"
        text = HO_SPECTRUM.format(out=out)
        assert old in text
        cfg.write_text(text.replace(old, new))
        assert main(["spectrum", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} =" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["positions", "levels"])
    def test_empty_required_list(self, tmp_path, capsys, key):
        # with no case the slope is NaN, which report.json cannot hold as JSON
        cfg = tmp_path / "bad.ini"
        out = tmp_path / "out"
        text = SWEEP.format(out=out)
        line = next(l for l in text.splitlines() if l.startswith(f"{key} ="))
        cfg.write_text(text.replace(line, f"{key} ="))
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

class TestPipelines:
    def test_spectrum_scenario(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(HO_SPECTRUM.format(out=out))
        status = main(["spectrum", "--config", str(cfg_file)])
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert max(c["error"] for c in report["cases"]) < 1e-9
        header = (out / "cases.csv").read_text().splitlines()[0]
        assert header == "# scoverlap-cases v1"

    def test_overlap_scenario(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(LINEAR_OVERLAP.format(out=out))
        assert main(["overlap", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        for case in report["cases"]:
            expected = 1.0 / math.sqrt(2 * math.pi * case["h"])
            assert case["abs"] == pytest.approx(expected, rel=1e-9)
            assert case["n_terms"] == 1

    def test_sweep_scenario_reports_slope(self, tmp_path):
        # the calibrated slope window is exercised by the acceptance suite
        # with its full position/level grid; here: the pipeline runs, errors
        # shrink, and a slope is fitted
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(SWEEP.format(out=out))
        assert main(["sweep", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["slope"] is not None and report["slope"] > 0
        finest = min(c["h"] for c in report["cases"])
        worst = max(c["rel_error"] for c in report["cases"] if c["h"] == finest)
        assert worst < 0.15

    def test_sweep_levels_are_the_nearest_of_the_full_ladder(self, tmp_path):
        # the pipeline solves only the levels bracketing each target; the
        # pick must be the one nearest the target over every level in range
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        targets = (0.3, 0.55, 0.9)
        cfg_file.write_text(
            SWEEP.format(out=out)
            .replace("levels = 0.55", "levels = " + ", ".join(map(str, targets)))
            .replace("positions = 0.15, 0.45", "positions = 0.45")
        )
        report, _ = run(parse_config(cfg_file, "sweep", None))
        probes = probe_loop_actions(Observable.harmonic(), (0.01, 1.0))
        expected = []
        for h in (0.2, 0.1, 0.05):
            levels = probes.levels(h)
            for target in targets:
                level = nearest_level(levels, target)
                expected.append((h, level.b, level.n))
        assert [(c["h"], c["b2"], c["n"]) for c in report.cases] == expected

    def test_sweep_drops_positions_that_snap_to_one_grid_point(self, tmp_path):
        # at h = 0.2 the level near 0.54 is n = 2 (b = 0.5, turning point 1),
        # and 0.115 and 0.125 both snap to grid index 518 (q = 0.1171875)
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(
            SWEEP.format(out=out)
            .replace("kind = sweep", "kind = probability")
            .replace("h = 0.2, 0.1, 0.05", "h = 0.2")
            .replace("levels = 0.55", "levels = 0.54")
            .replace("positions = 0.15, 0.45", "positions = 0.115, 0.125")
            .replace("grid_points = 512", "grid_points = 1024")
        )
        report, status = run(parse_config(cfg_file, "probability", None))
        assert status == 0
        assert [c["b1"] for c in report.cases] == [0.1171875]
        assert len(report.warnings) == 1
        assert "0.125 snaps to grid index 518" in report.warnings[0]
        saved = json.loads((out / "report.json").read_text())
        assert saved["warnings"] == report.warnings

    def test_failed_fiber_dump_is_reported(self, tmp_path):
        # the oscillator has no fiber at level -0.5; the pipeline itself
        # snaps that target to the nearest quantized level and runs
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(
            SWEEP.format(out=out)
            .replace("kind = sweep", "kind = probability")
            .replace("h = 0.2, 0.1, 0.05", "h = 0.1")
            .replace("levels = 0.55", "levels = 0.55, -0.5")
            .replace("positions = 0.15, 0.45", "positions = 0.15")
            + "dump_fibers = true\n"
        )
        report, status = run(parse_config(cfg_file, "probability", None))
        assert status == 0
        assert len(report.cases) == 2
        assert (out / "fiber_0.csv").exists()
        assert not (out / "fiber_1.csv").exists()
        assert len(report.warnings) == 1
        assert "level -0.5" in report.warnings[0]
        assert "SingularFiber" in report.warnings[0]
        saved = json.loads((out / "report.json").read_text())
        assert saved["warnings"] == report.warnings

    def test_reproducible_outputs(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(LINEAR_OVERLAP.format(out=out))
        main(["overlap", "--config", str(cfg_file)])
        first = (out / "cases.csv").read_bytes(), (out / "report.json").read_bytes()
        main(["overlap", "--config", str(cfg_file)])
        second = (out / "cases.csv").read_bytes(), (out / "report.json").read_bytes()
        assert first == second

    def test_probability_scenario(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(
            SWEEP.format(out=out).replace("kind = sweep", "kind = probability")
            .replace("h = 0.2, 0.1, 0.05", "h = 0.1")
        )
        assert main(["probability", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "probability"
        assert all(c["rel_error"] < 0.15 for c in report["cases"])

    def test_pendulum_probability_below_zero_energy(self, tmp_path):
        # libration levels are negative, where the oscillator's turning radius
        # sqrt(2 b) is undefined; the pendulum's is arccos(-b) on p = 0
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(PENDULUM_PROBABILITY.format(out=out))
        assert main(["probability", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["cases"]) == 2
        assert all(c["rel_error"] < 0.05 for c in report["cases"])

    def test_spectrum_lists_skipped_levels(self, tmp_path):
        # probes above the separatrix b = 1 find no closed fiber
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(
            PENDULUM_PROBABILITY.format(out=out)
            .replace("kind = probability", "kind = spectrum\nsystem = pend")
            .replace("b_max = 0.2", "b_max = 1.3")
        )
        assert main(["spectrum", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cases"]
        assert report["warnings"] == [
            f"level {b} skipped: no closed fiber" for b in ("1.025", "1.1625", "1.3")
        ]

    def test_cyclic_scenario(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"""
[systems]
qpos = q
pmom = p
diag = 0.7071067811865476 q + 0.7071067811865476 p

[setup]
lambda = q

[scenario]
kind = cyclic
chain_systems = qpos, pmom, diag
chain_levels = 0.3, -0.2, 0.5
h = 0.1

[output]
dir = {out}
"""
        )
        assert main(["cyclic", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        case = report["cases"][0]
        assert case["k"] == 3 and case["n_chains"] == 1
        expected = math.sqrt(2.0) * (2 * math.pi * 0.1) ** -1.5
        assert case["abs"] == pytest.approx(expected, rel=1e-9)

    def test_overlap_term_dump_written(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(LINEAR_OVERLAP.format(out=out))
        main(["overlap", "--config", str(cfg_file)])
        dumps = json.loads((out / "terms.json").read_text())
        term = dumps[0]["terms"][0]
        assert {"action", "maslov", "hessian_det"} <= set(term)

    def test_star_check_scenario(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"""
[systems]
ho = 1/2 q^2 + 1/2 p^2

[scenario]
kind = star-check
h = 0.1
order = 4
degree = 2

[output]
dir = {out}
"""
        )
        assert main(["star-check", "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        counts, series = report["cases"]
        assert counts == {"checked": 6**3, "defects": 0, "order": 4}
        assert series["q2_star_p2"] == series["expected"]

    def test_star_check_computes_each_pair_product_once(self, tmp_path, monkeypatch):
        # 6 monomials: 36 pair products, two outer products per triple, and
        # the q^2 * p^2 sample
        import scoverlap.cli as cli_mod

        calls = []
        real = cli_mod.moyal_product

        def counted(f, g, order):
            calls.append(order)
            return real(f, g, order)

        monkeypatch.setattr(cli_mod, "moyal_product", counted)
        cfg_file = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        cfg_file.write_text(
            f"""
[systems]
ho = 1/2 q^2 + 1/2 p^2

[scenario]
kind = star-check
h = 0.1
order = 4
degree = 2

[output]
dir = {out}
"""
        )
        assert main(["star-check", "--config", str(cfg_file)]) == 0
        assert len(calls) == 6**2 + 2 * 6**3 + 1
        counts, _ = json.loads((out / "report.json").read_text())["cases"]
        assert counts == {"checked": 6**3, "defects": 0, "order": 4}

    def test_numerical_warnings_exit_2(self, tmp_path, monkeypatch):
        import warnings as w

        import scoverlap.cli as cli_mod
        from scoverlap.errors import CausticNearby

        def noisy(cfg):
            w.warn("an intersection sits near a caustic", CausticNearby)
            from scoverlap.cli import Report

            return Report(kind="spectrum")

        monkeypatch.setitem(cli_mod._PIPELINES, "spectrum", noisy)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(HO_SPECTRUM.format(out=tmp_path / "out"))
        assert main(["spectrum", "--config", str(cfg_file)]) == 2

    def test_out_override_and_env(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            LINEAR_OVERLAP.format(out=tmp_path / "ignored").replace(
                f"dir = {tmp_path / 'ignored'}", "dir ="
            )
        )
        # fall back to the environment variable when the config leaves it blank
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("SCOVERLAP_OUT", str(env_out))
        cfg = parse_config(cfg_file, "overlap", None)
        assert cfg.out_dir == env_out
        # an explicit --out wins
        cfg2 = parse_config(cfg_file, "overlap", str(tmp_path / "cli_out"))
        assert cfg2.out_dir == tmp_path / "cli_out"

    def test_glue_check_over_two_h_matches_single_h_runs(self, tmp_path):
        together, apart = _cases_per_h(tmp_path, "glue-check", GLUE, ["0.2", "0.1"])
        assert len(together) == 2
        assert together == apart

    def test_glue_check_traces_each_fixed_fiber_once(self, tmp_path, monkeypatch):
        # the direct overlap reuses the fixed fibers the two kernels traced
        from scoverlap import semiclassics

        traced = []
        trace = semiclassics.trace_level_curve

        def counted(h_obs, b, *args, **kwargs):
            traced.append((str(h_obs), b))
            return trace(h_obs, b, *args, **kwargs)

        monkeypatch.setattr(semiclassics, "trace_level_curve", counted)
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(GLUE.format(h="0.2", out=tmp_path / "out"))
        report, status = run(parse_config(cfg_file, "glue-check", None))
        assert status == 0 and len(report.cases) == 1
        fixed = sorted(t for t in traced if t[0] in ("q", "p"))
        assert fixed == [("p", 0.8), ("q", 0.6)]

    def test_spectrum_over_two_h_matches_single_h_runs(self, tmp_path):
        template = HO_SPECTRUM.replace("h = 0.1", "h = {h}")
        together, apart = _cases_per_h(tmp_path, "spectrum", template, ["0.2", "0.1"])
        assert together and together == apart
