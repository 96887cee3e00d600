"""Overlap sums, quantization levels, turning-point indices, composition."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scoverlap import semiclassics
from scoverlap.errors import (
    BranchStructureChange,
    DegenerateStationaryPoint,
    MultipleComponents,
    NonMonotoneAction,
    NoReferencePoint,
    TangencyAtEndpoint,
)
from scoverlap.geometry import (
    Observable,
    PhasePoint,
    PrequantumForm,
    ReferenceLagrangian,
    chart_action,
    find_intersections,
    loop_data,
    moved_fiber,
    polar_guide,
    polar_loop,
    seed_on_level,
    trace_level_curve,
)
from scoverlap.oracle import GridSpec, build_weyl_operator, eigensystem, half_density_bridge
from scoverlap.semiclassics import (
    BSLevel,
    bohr_sommerfeld_levels,
    complementary_overlap_term,
    compose_kernels,
    cyclic_amplitude,
    maslov_loop_index,
    maslov_segment,
    nearest_level,
    overlap,
    overlap_kernel,
    probe_loop_actions,
    stencil_overlap_term,
    transition_probability,
)

HO = Observable.harmonic()
Q = Observable.position()
P = Observable.momentum()
PEND = Observable.pendulum()
LAM = ReferenceLagrangian.line(1.0)
ALPHA = PrequantumForm()

# (observable, level range, turning radius on p = 0) of the closed families
CLOSED = {
    "oscillator": (HO, (0.1, 1.0), lambda b: math.sqrt(2 * b)),
    "pendulum": (PEND, (-0.9, 0.6), lambda b: math.acos(-b)),
}


def _on_fiber(h_obs, b, turning, u, sign):
    """The point of the fiber H = p^2/2 + V(q) = b at q = u * turning."""
    q = u * turning
    return PhasePoint(q, sign * math.sqrt(2 * (b - float(h_obs.value(q, 0.0)))))


class TestMaslov:
    def test_upper_arc_has_no_crossing(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        # both endpoints strictly inside the upper half-plane
        a = PhasePoint(-0.6, 0.8)
        b = PhasePoint(0.6, 0.8)
        assert maslov_segment(c, a, b, Q) == 0

    def test_full_loop_index_is_two(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        assert maslov_loop_index(c, Q) == 2

    def test_pendulum_loop_index_is_two(self):
        c = trace_level_curve(PEND, -0.3, PhasePoint(math.acos(0.3), 0.0))
        assert maslov_loop_index(c, Q) == 2

    def test_arc_plus_complement_equals_loop(self):
        b2 = 0.475
        c = trace_level_curve(HO, b2, PhasePoint(math.sqrt(2 * b2), 0.0))
        pts = find_intersections(Q, 0.4, HO, b2)
        ca, cb = pts[0].point, pts[1].point
        loop = maslov_loop_index(c, Q)
        assert maslov_segment(c, ca, cb, Q) + maslov_segment(c, cb, ca, Q) == loop

    def test_segment_matches_dense_resampling(self, monkeypatch):
        ellipse = Observable.from_coeffs({(2, 0): 2.0, (0, 2): 0.5, (1, 0): -0.6})
        b = 0.9
        import scoverlap.geometry as geo
        from scoverlap.geometry import project_to_fiber

        # the coarse fiber is polar, 161 ray points; the fine one keeps
        # its 6001 traced samples, as a fiber the ray guard refuses does
        coarse = trace_level_curve(ellipse, b, PhasePoint(1.0, 0.3))
        monkeypatch.setattr(geo, "_TRACE_SAMPLES", 6000)
        monkeypatch.setattr(geo, "polar_loop", lambda *args: None)
        fine = trace_level_curve(ellipse, b, PhasePoint(1.0, 0.3))
        assert coarse.qs.size == 161 and fine.qs.size == 6001
        a = project_to_fiber(ellipse, b, PhasePoint(0.9, 0.5))
        d = project_to_fiber(ellipse, b, PhasePoint(0.2, -0.9))
        assert maslov_segment(coarse, a, d, Q) == maslov_segment(fine, a, d, Q)

    @given(
        family=st.sampled_from(sorted(CLOSED)),
        level=st.floats(0.0, 1.0),
        ua=st.floats(-0.9, 0.9),
        ub=st.floats(-0.9, 0.9),
        signs=st.tuples(st.sampled_from((-1, 1)), st.sampled_from((-1, 1))),
    )
    @settings(max_examples=30, deadline=None)
    def test_maslov_additivity(self, family, level, ua, ub, signs):
        # distinct endpoints; |u| <= 0.9 keeps them off the turning points,
        # where {Q, H} = p vanishes
        assume(abs(ua - ub) > 0.05 or signs[0] != signs[1])
        h_obs, (b_lo, b_hi), turning = CLOSED[family]
        b = b_lo + level * (b_hi - b_lo)
        r = turning(b)
        c = trace_level_curve(h_obs, b, PhasePoint(r, 0.0))
        a = _on_fiber(h_obs, b, r, ua, signs[0])
        d = _on_fiber(h_obs, b, r, ub, signs[1])
        loop = maslov_loop_index(c, Q)
        assert maslov_segment(c, a, d, Q) + maslov_segment(c, d, a, Q) == loop == 2

    def test_open_segment_against_the_flow_counts_minus(self):
        # on q = p^2/2 - b the bracket {Q, H} = p changes sign once, at p = 0;
        # the flow runs towards larger p
        b = 0.3
        parabola = Observable.from_coeffs({(0, 2): 0.5, (1, 0): -1.0})
        c = trace_level_curve(parabola, b, PhasePoint(-b, 0.0))
        a, d = PhasePoint(0.125 - b, -0.5), PhasePoint(0.32 - b, 0.8)
        assert maslov_segment(c, a, d, Q) == -maslov_segment(c, d, a, Q) == 1

    def test_tangency_at_endpoint_rejected(self):
        b2 = 0.5
        c = trace_level_curve(HO, b2, PhasePoint(1.0, 0.0))
        turning = PhasePoint(-1.0, 0.0)
        with pytest.raises(TangencyAtEndpoint):
            maslov_segment(c, turning, PhasePoint(0.0, 1.0), Q)


class TestMaslovOtherFibrations:
    ELLIPSE = Observable.from_coeffs({(2, 0): 2.0, (0, 2): 0.5, (1, 0): -0.6})

    @pytest.mark.parametrize("theta", [0.3, 1.2, math.pi / 2, 2.0, 2.8, -0.9])
    def test_loop_index_against_a_tilted_line_is_two(self, theta):
        # the tangent of a simple closed loop turns once, so it passes each
        # line direction twice, net
        ellipse = trace_level_curve(self.ELLIPSE, 0.9, PhasePoint(1.0, 0.3))
        pendulum = trace_level_curve(PEND, -0.3, PhasePoint(math.acos(0.3), 0.0))
        line = Observable.linear(theta)
        assert maslov_loop_index(ellipse, line) == maslov_loop_index(pendulum, line) == 2

    def test_line_segment_against_the_oscillator(self):
        # on p = 0.8 the bracket {H_osc, P} = q changes sign once, at q = 0,
        # where the oscillator's fiber direction X1 = (0.8, 0) is horizontal
        line = trace_level_curve(P, 0.8, PhasePoint(0.0, 0.8))
        a, d = PhasePoint(-1.0, 0.8), PhasePoint(1.5, 0.8)
        assert maslov_segment(line, a, d, HO) == -maslov_segment(line, d, a, HO) == -1

    def test_loop_tangent_everywhere_is_rejected(self):
        # {H, H} = 0 on the whole loop: no sample can start the count
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        with pytest.raises(TangencyAtEndpoint):
            maslov_loop_index(c, HO)


class TestBohrSommerfeld:
    def test_ho_exact_ladder(self):
        levels = bohr_sommerfeld_levels(HO, 0.1, (0.004, 1.0))
        assert [l.n for l in levels] == list(range(10))
        for l in levels:
            assert l.b == pytest.approx(0.1 * (l.n + 0.5), abs=1e-9)
            assert l.loop_maslov == 2
            assert l.loop_action == pytest.approx(
                2 * math.pi * 0.1 * (l.n + 0.5), abs=1e-9
            )

    def test_ho_coarse_h(self):
        levels = bohr_sommerfeld_levels(HO, 0.5, (0.004, 1.0))
        assert [round(l.b, 9) for l in levels] == [0.25, 0.75]

    @staticmethod
    def _fake_action(monkeypatch, action):
        # every probe and Newton iterate takes its fiber here, a held fiber
        # moved onto its level or a fresh trace, and reads A and T off it
        real = semiclassics._closed_fiber

        def faked(h_obs, b, held):
            fiber = real(h_obs, b, held)
            return replace(fiber, polar=(action(b), fiber.period, fiber.polar[2]))

        monkeypatch.setattr(semiclassics, "_closed_fiber", faked)

    def test_non_monotone_rejected(self, monkeypatch):
        self._fake_action(monkeypatch, lambda b: 1.0 + math.sin(8 * b))
        with pytest.raises(NonMonotoneAction):
            bohr_sommerfeld_levels(HO, 0.1, (0.004, 2.0))

    def test_decreasing_action_rejected(self, monkeypatch):
        # continuous with the true action at the first probe (A = 2 pi b at
        # b = 0.5) and strictly decreasing after it, with a positive period:
        # dA/db = T > 0 rules such a family out, so it is rejected, not solved
        self._fake_action(monkeypatch, lambda b: math.pi + 0.5 - b)
        with pytest.raises(NonMonotoneAction):
            bohr_sommerfeld_levels(HO, 0.1, (0.5, 2.0))

    @pytest.mark.parametrize(
        "h_obs, h, b_range",
        [(HO, 0.1, (0.004, 3.2)), (PEND, 0.05, (-0.92, 0.7))],
    )
    def test_period_is_loop_data_period(self, h_obs, h, b_range):
        for l in bohr_sommerfeld_levels(h_obs, h, b_range):
            _, period = loop_data(h_obs, l.b, seed_on_level(h_obs, l.b))
            assert l.period == pytest.approx(period, rel=1e-12)

    @pytest.mark.parametrize(
        "h_obs, h, b_range",
        [(HO, 0.05, (0.01, 1.2)), (PEND, 0.05, (-0.92, 0.7))],
    )
    def test_single_level_equals_ladder_entry(self, h_obs, h, b_range):
        probes = probe_loop_actions(h_obs, b_range)
        for l in probes.levels(h):
            assert probes.level(h, l.n) == l

    @pytest.mark.parametrize(
        "h_obs, b_range",
        [(HO, (0.01, 1.2)), (PEND, (-0.92, 0.7))],
    )
    def test_bracket_holds_the_nearest_level(self, h_obs, b_range):
        probes = probe_loop_actions(h_obs, b_range)
        rng = np.random.default_rng(5)
        for h in (0.2, 0.1, 0.05, 0.025):
            levels = probes.levels(h)
            by_n = {l.n: l for l in levels}
            # targets inside, between, on and outside the quantized levels
            targets = list(rng.uniform(b_range[0] - 0.1, b_range[1] + 0.1, 40))
            targets += [l.b for l in levels] + [l.b + 1e-9 for l in levels]
            for target in targets:
                bracket = probes.bracket(h, target)
                assert 1 <= len(bracket) <= 2
                nearest = nearest_level(levels, target)
                picked = nearest_level([by_n[n] for n in bracket], target)
                assert picked == nearest

    def test_newton_needs_few_loop_data_calls(self, monkeypatch):
        import scoverlap.semiclassics as sc

        calls = []
        real = sc._closed_fiber

        def counted(h_obs, b, held):
            calls.append(b)
            return real(h_obs, b, held)

        monkeypatch.setattr(sc, "_closed_fiber", counted)
        levels = bohr_sommerfeld_levels(PEND, 0.05, (-0.92, 0.7))
        # each of the 17 probes evaluates one loop, and so does each Newton
        # iterate, at least one per level
        assert len(calls) - 17 >= len(levels) > 0
        assert (len(calls) - 17) / len(levels) <= 2.5
        for l in levels:
            target = 2 * math.pi * 0.05 * (l.n + l.loop_maslov / 4.0)
            assert abs(l.loop_action - target) <= 1e-12

    def test_tie_goes_to_the_lower_quantum_number(self):
        # 0.55 lies halfway between the levels n = 10 and n = 11 at h = 0.05;
        # rounding of either level must not decide the pick
        for da in (-1e-13, 0.0, 1e-13):
            for db in (-1e-13, 0.0, 1e-13):
                levels = [
                    BSLevel(n=10, b=0.525 + da, loop_action=0.0, loop_maslov=2, period=1.0),
                    BSLevel(n=11, b=0.575 + db, loop_action=0.0, loop_maslov=2, period=1.0),
                ]
                assert nearest_level(levels, 0.55).n == 10
                assert nearest_level(levels[::-1], 0.55).n == 10
        levels = [
            BSLevel(n=n, b=0.05 * (n + 0.5), loop_action=0.0, loop_maslov=2, period=1.0)
            for n in range(20)
        ]
        assert nearest_level(levels, 0.55 + 1e-6).n == 11
        assert nearest_level(levels, 0.55 - 1e-6).n == 10
        assert nearest_level(levels, -3.0).n == 0


def _loop_data_at(h_obs, b):
    return loop_data(h_obs, b, seed_on_level(h_obs, b))


QUARTIC = Observable.from_text("1/2 p^2 + 1/2 q^2 + 1/10 q^4")
DOUBLE_WELL = Observable.from_text("1/2 p^2 - q^2 + 1/4 q^4")


def _radii_about(curve, z):
    """A closed fiber's radii about z at 160 equispaced angles, linear in
    angle between its samples."""
    qs, ps = curve.qs[:-1] - z.q, curve.ps[:-1] - z.p
    theta = 2 * np.pi * np.arange(160) / 160
    return np.interp(theta, np.arctan2(ps, qs), np.hypot(qs, ps), period=2 * np.pi)


class TestLoopQuadrature:
    """Probes and levels by the polar rule (``polar_loop``, the periodic
    trapezoidal rule in the angle about the loop's centre), against chart
    quadrature over a traced fiber and the ODE verifier ``loop_data``; its
    guard, and the traced fallback where the guard refuses."""

    @pytest.mark.parametrize(
        "h_obs, b_range, h",
        [(HO, (0.004, 1.0), 0.05), (PEND, (-0.9, 0.9), 0.05), (QUARTIC, (0.02, 3.0), 0.1)],
    )
    def test_probes_and_levels_match_loop_data(self, h_obs, b_range, h):
        probes = probe_loop_actions(h_obs, b_range)
        assert len(probes.probes) == len(probes.fibers) == 17
        checked = list(probes.probes) + [(l.b, l.loop_action, l.period) for l in probes.levels(h)]
        for b, action, period in checked:
            ref_action, ref_period = _loop_data_at(h_obs, b)
            assert abs(action - ref_action) <= 1e-11
            assert abs(period - ref_period) <= 1e-11

    @pytest.mark.parametrize(
        "h_obs, b_range, h", [(PEND, (-0.92, 0.7), 0.05), (QUARTIC, (0.02, 3.0), 0.1)]
    )
    def test_levels_start_from_the_nearer_probe_radii(self, h_obs, b_range, h):
        # every probe holds its polar fiber, whose nodes lie on its level; a
        # Newton iterate runs the polar rule from the nearer bracketing
        # probe's radii about that probe's centre
        probes = probe_loop_actions(h_obs, b_range)
        bs = [b for b, _, _ in probes.probes]
        for (b, _, _), fiber in zip(probes.probes, probes.fibers):
            z, radii = fiber.polar[2]
            theta = 2 * np.pi * np.arange(radii.size) / radii.size
            qs, ps = z.q + radii * np.cos(theta), z.p + radii * np.sin(theta)
            assert np.max(np.abs(h_obs.value(qs, ps) - b)) <= 1e-14 * max(1, abs(b))
        levels = probes.levels(h)
        assert len(levels) > 10
        for l in levels:
            k = min(max(int(np.searchsorted(bs, l.b)), 1), len(bs) - 1)
            held = probes.fibers[k - 1] if l.b - bs[k - 1] <= bs[k] - l.b else probes.fibers[k]
            assert (l.loop_action, l.period) == polar_loop(h_obs, l.b, held.polar[2])[:2]

    def test_oscillator_actions_are_exact(self):
        probes = probe_loop_actions(HO, (0.004, 1.0))
        for b, action, period in probes.probes:
            assert abs(action - 2 * math.pi * b) <= 1e-13
            assert abs(period - 2 * math.pi) <= 1e-12
        for l in probes.levels(0.05):
            assert abs(l.b - 0.05 * (l.n + 0.5)) <= 1e-13
            assert abs(l.loop_action - 2 * math.pi * l.b) <= 1e-13

    @pytest.mark.parametrize("b_range", [(-0.9, 0.5), (-0.99, 2.0)])
    def test_double_well_probes_cross_the_separatrix(self, monkeypatch, b_range):
        # the double well's left well closes below 0 and the outer loop
        # around both wells above it; the first probe past the separatrix is
        # traced afresh, because the outer loop is not star-shaped about the
        # left well's centre
        import scoverlap.semiclassics as sc

        traced = []
        real = sc.trace_level_curve

        def counted(h_obs, b, seed):
            traced.append(b)
            return real(h_obs, b, seed)

        monkeypatch.setattr(sc, "trace_level_curve", counted)
        probes = probe_loop_actions(DOUBLE_WELL, b_range)
        assert len(probes.probes) == 17
        bs = [b for b, _, _ in probes.probes]
        outer = next(i for i, b in enumerate(bs) if b > 0)
        assert bs[outer] in traced
        for b, action, period in probes.probes:
            ref_action, ref_period = _loop_data_at(DOUBLE_WELL, b)
            assert abs(action - ref_action) <= 1e-11
            assert abs(period - ref_period) <= 1e-11
        # the outer loop encloses both wells: the action jumps
        actions = [a for _, a, _ in probes.probes]
        assert actions[outer] > 2 * actions[outer - 1]

    @pytest.mark.parametrize("steps", [12, 200])
    def test_guard_rejects_the_separatrix_whether_or_not_newton_converges(
        self, monkeypatch, steps
    ):
        # the outer loop at 0.0625 is not star-shaped about the well's centre:
        # with 12 steps some rays do not converge, and with 200 every ray
        # converges but those past the saddle end where H falls outward
        import scoverlap.geometry as geo
        import scoverlap.semiclassics as sc

        left = sc._traced_loop(DOUBLE_WELL, -0.025)
        assert moved_fiber(left, -0.1) is not None
        monkeypatch.setattr(geo, "_MOVE_STEPS", steps)
        assert moved_fiber(left, 0.0625) is None

    def test_held_count_falls_along_the_chain(self):
        # each probe starts the polar rule at a quarter of the previous
        # probe's count, so past the separatrix the outer loop's count
        # falls from 1280 back to 640, and no probe moves off loop_data
        probes = probe_loop_actions(DOUBLE_WELL, (-0.9, 0.5))
        sizes = [fiber.polar[2][1].size for fiber in probes.fibers]
        assert sizes == [160] * 10 + [640, 1280] + [640] * 5
        for b, action, period in probes.probes:
            ref_action, ref_period = _loop_data_at(DOUBLE_WELL, b)
            assert abs(action - ref_action) <= 1e-11
            assert abs(period - ref_period) <= 1e-11

    @pytest.mark.parametrize("h_obs, b_range", [(DOUBLE_WELL, (-0.99, 2.0)), (PEND, (-0.92, 0.7))])
    def test_held_loops_keep_a_factor_of_32(self, h_obs, b_range):
        # the doubling stop compares A and T at n and 2n angles; on a loop
        # with 2^a-fold symmetry an n without the factor 2^a sees the same
        # aliased harmonics at both and stops early: the double well at
        # b = 0.5 from 150 radii stops at N = 150 with T off by 4.9e-10
        # (3e-14 from 160).  Every held count is 160 2^k.
        probes = probe_loop_actions(h_obs, b_range)
        sizes = {f.polar[2][1].size for f in probes.fibers if f.polar is not None}
        assert sizes and all(n % 160 == 0 and (n // 160).bit_count() == 1 for n in sizes)

    def test_one_trace_and_no_loop_data_per_ladder(self, monkeypatch):
        # the first probe is the only trace; every later probe and every
        # Newton iterate moves a held polar fiber, so no loop_data and no
        # chart quadrature
        import scoverlap.geometry as geo
        import scoverlap.semiclassics as sc

        counts = dict(trace_level_curve=0, loop_data=0, chart_action=0, moved_fiber=0)
        spied = [(sc, "trace_level_curve"), (geo, "loop_data"), (geo, "chart_action")]
        spied += [(sc, "chart_action"), (geo, "moved_fiber"), (sc, "moved_fiber")]
        for module, name in spied:

            def spy(*args, real=getattr(module, name), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, spy)
        levels = probe_loop_actions(PEND, (-0.92, 0.7)).levels(0.05)
        assert len(levels) == 38
        assert counts == dict(trace_level_curve=1, loop_data=0, chart_action=0, moved_fiber=93)

    @pytest.mark.parametrize(
        "h_obs, b",
        [(Observable.from_text("1/2 p^2 + 0.55 q^2 + 0.08 q^4"), b) for b in (0.05, 0.5, 2.0, 6.0)]
        + [(PEND, b) for b in (-0.95, -0.5, 0.0, 0.5, 0.9, 0.99)]
        + [(DOUBLE_WELL, b) for b in (0.01, 0.1, 0.5, 2.0)],
    )
    def test_polar_rule_matches_chart_quadrature(self, h_obs, b):
        # about the critical point inside the loop: the minimum of each well,
        # and the double well's saddle at the origin inside its outer loop
        import scoverlap.semiclassics as sc

        traced = sc._traced_loop(h_obs, b)
        z, radii = polar_guide(traced)
        assert math.hypot(*z) <= 1e-12
        assert np.array_equal(radii, _radii_about(traced, z))
        action, period, _ = polar_loop(h_obs, b, (z, radii))
        # chart quadrature round the traced fiber's closed polyline
        ref_action, ref_period, _ = chart_action(h_obs, b, np.column_stack([traced.qs, traced.ps]))
        assert abs(action - ref_action) <= 1e-12 * ref_action
        assert abs(period - ref_period) <= 1e-12 * ref_period
        # the traced fiber holds the polar rule's loop integrals
        assert traced.polar is not None
        assert abs(traced.loop_action - ref_action) <= 1e-12 * ref_action

    @pytest.mark.parametrize("b", [1e-6, 1e-3, 0.1, 0.5, 1.0])
    def test_guard_refuses_the_outer_loop_about_a_well_centre(self, b):
        # rays from the right well's minimum cross the outer loop three
        # times where they pass the saddle, whatever radii they start from
        import scoverlap.semiclassics as sc

        traced = sc._traced_loop(DOUBLE_WELL, b)
        well = PhasePoint(math.sqrt(2.0), 0.0)
        for start in (_radii_about(traced, well), polar_guide(traced)[1]):
            assert polar_loop(DOUBLE_WELL, b, (well, start)) is None

    def test_guard_refuses_the_pendulum_next_to_its_separatrix(self):
        # the corners at q = +-pi need more than 4096 angles
        import scoverlap.semiclassics as sc

        traced = sc._traced_loop(PEND, 0.999)
        assert polar_loop(PEND, 0.999, polar_guide(traced)) is None

    def test_refused_probe_keeps_the_traced_chart_quadrature(self):
        # at 0.999 the rule needs more than 4096 rays, also about the fresh
        # trace's centre: the probe keeps that trace's chart quadrature and
        # holds the traced fiber, and its neighbours still hold polar ones
        import scoverlap.semiclassics as sc

        probes = probe_loop_actions(PEND, (0.9, 0.999))
        (b, action, period), fiber = probes.probes[-1], probes.fibers[-1]
        assert b == 0.999 and fiber.polar is None
        assert all(f.polar is not None for f in probes.fibers[:-1])
        traced = sc._traced_loop(PEND, b)
        assert (action, period) == (traced.loop_action, traced.period)

    @pytest.mark.parametrize(
        "h_obs, b_range",
        [(PEND, (-0.92, 0.7)), (DOUBLE_WELL, (-0.99, 2.0)), (PEND, (0.9, 0.999))],
    )
    def test_probes_hold_their_closed_fibers(self, h_obs, b_range):
        # each probe holds the closed fiber its A and T were read off: polar,
        # or the fresh trace where the guard refused it (the pendulum at
        # 0.999, whose samples are that trace's)
        import scoverlap.semiclassics as sc

        probes = probe_loop_actions(h_obs, b_range)
        assert len(probes.fibers) == len(probes.probes) == 17
        for (b, action, period), fiber in zip(probes.probes, probes.fibers):
            assert fiber.closed and fiber.observable == h_obs and fiber.level == b
            assert (fiber.loop_action, fiber.period) == (action, period)
        refused = [i for i, fiber in enumerate(probes.fibers) if fiber.polar is None]
        if b_range[1] == 0.999:
            assert refused == [16]
            traced = sc._traced_loop(PEND, 0.999)
            assert np.array_equal(probes.fibers[16].qs, traced.qs)
            assert np.array_equal(probes.fibers[16].ps, traced.ps)
        else:
            assert refused == []

    @given(a=st.floats(0.3, 0.8), c=st.floats(0.02, 0.15), u=st.floats(0.05, 0.95))
    @settings(max_examples=15, deadline=None)
    def test_quartic_quadrature_matches_loop_data(self, a, c, u):
        import scoverlap.semiclassics as sc

        h_obs = Observable.from_coeffs({(0, 2): 0.5, (2, 0): a, (4, 0): c})
        traced = sc._traced_loop(h_obs, 0.1)
        b = 0.1 + 0.2 * u  # up to 0.2 above the traced level
        moved = moved_fiber(traced, b)
        assert moved is not None
        ref_action, ref_period = _loop_data_at(h_obs, b)
        assert abs(moved.loop_action - ref_action) <= 1e-11
        assert abs(moved.period - ref_period) <= 1e-11
        # the polar rule from the traced level's radii
        guide = polar_guide(traced)
        action, period, _ = polar_loop(h_obs, b, guide)
        assert abs(action - ref_action) <= 1e-11
        assert abs(period - ref_period) <= 1e-11
        # dA/db = T, on both paths
        d = 1e-4
        slope = (
            moved_fiber(traced, b + d).loop_action
            - moved_fiber(traced, b - d).loop_action
        ) / (2 * d)
        assert abs(slope - moved.period) <= 1e-7
        slope = (polar_loop(h_obs, b + d, guide)[0] - polar_loop(h_obs, b - d, guide)[0]) / (2 * d)
        assert abs(slope - period) <= 1e-7


class TestOverlap:
    def test_reference_point_skips_a_tangency(self):
        # the smallest-q crossing of the displaced fiber with p = q is (0, 0),
        # where {H1, H2} = p vanishes; the transversal crossing (1, 1) is used
        displaced = Observable.harmonic(center_q=1.0)
        amp = overlap((HO, 0.5), (displaced, 0.5), LAM, h=0.1)
        assert amp.x2 == pytest.approx((1.0, 1.0), abs=1e-12)
        assert [t.maslov for t in amp.terms] == [1, 2]
        devs = [stencil_overlap_term(amp, i, LAM).hessian_bracket_dev for i in (0, 1)]
        assert max(devs) < 1e-9

    def test_reference_point_only_at_a_tangency_is_rejected(self):
        # the oscillator fiber meets p = 0 only at its turning points q = +-1,
        # where the bracket with the position fibration, {Q, H2} = p, vanishes
        with pytest.raises(NoReferencePoint, match="H1, H2"):
            overlap((Q, 0.3), (HO, 0.5), ReferenceLagrangian.flat(), h=0.1)

    @pytest.mark.parametrize("slope", [0.1, 1.0])
    @pytest.mark.parametrize("swap", [False, True])
    def test_intersections_on_several_wells_are_rejected(self, slope, swap):
        # the pendulum level -0.5 has one well per period; p = 0.3 crosses
        # the wells at 0 and +-2 pi (q = +-0.994, +-5.289, +-7.278), and the
        # fiber is traced through q = -7.278: the closed -2 pi well, which
        # also carries q = -5.289
        systems = [(PEND, -0.5), (P, 0.3)]
        if swap:
            systems.reverse()
        with pytest.raises(MultipleComponents) as info:
            overlap(*systems, ReferenceLagrangian.line(slope), h=0.1)
        off = sorted(x.q for x in info.value.points)
        assert off == pytest.approx([-0.994, 0.994, 5.289, 7.278], abs=1e-3)

    @pytest.mark.parametrize("swap", [False, True])
    def test_held_line_meets_the_same_several_wells(self, swap):
        # crossings read along a held p = 0.3 line are those of the grid
        # scan, so the traced -2 pi well leaves the same four off the fiber
        line = trace_level_curve(P, 0.3, PhasePoint(0.0, 0.3))
        systems, curves = [(PEND, -0.5), (P, 0.3)], [None, line]
        if swap:
            systems.reverse()
            curves.reverse()
        off = []
        for held in (curves, [None, None]):
            with pytest.raises(MultipleComponents) as info:
                overlap(*systems, LAM, h=0.1, curves=tuple(held))
            off.append(sorted(x.q for x in info.value.points))
        assert off[0] == pytest.approx([-0.994, 0.994, 5.289, 7.278], abs=1e-3)
        assert off[0] == pytest.approx(off[1], abs=1e-12)

    def test_plane_wave_closed_form(self):
        b1, b2, h = 1.3, 0.4, 0.1
        amp = overlap((Q, b1), (P, b2), LAM, ALPHA, h)
        assert len(amp.terms) == 1
        t = amp.terms[0]
        assert t.action == pytest.approx(-b2 * (b1 - b2), abs=1e-12)
        assert t.maslov == 0
        assert t.hessian_det == pytest.approx(1.0, abs=1e-9)
        assert abs(amp.value) == pytest.approx(1 / math.sqrt(2 * math.pi * h), rel=1e-9)

    def test_empty_intersection_is_zero(self):
        amp = overlap((Q, 2.0), (HO, 0.5), LAM, ALPHA, 0.1)
        assert amp.value == 0 and not amp.terms

    def test_matches_hermite_oracle(self):
        h = 0.05
        n = 9
        b2 = h * (n + 0.5)
        grid = GridSpec(10.0, 1024)
        es = eigensystem(build_weyl_operator(HO, grid, h))
        turning = math.sqrt(2 * b2)
        for u in (0.15, 0.4, 0.6):
            idx = int(round((u * turning + grid.half_width) / grid.dq))
            q1 = float(grid.qs[idx])
            amp = overlap((Q, q1), (HO, b2), LAM, ALPHA, h)
            bridged = half_density_bridge(amp.value, amp.curve1, amp.curve2, h)
            psi = abs(es.state(n).at(q1))
            assert abs(abs(bridged) - psi) / psi <= 3 * h

    def test_gauge_covariance(self):
        h = 0.1
        gauge = Observable.from_coeffs({(2, 0): 0.31, (1, 1): -0.2, (0, 1): 0.7})
        plain = overlap((Q, 0.4), (HO, 0.475), LAM, ALPHA, h)
        gauged = overlap(
            (Q, 0.4), (HO, 0.475), LAM, PrequantumForm(gauge=gauge), h
        )
        ratio = gauged.value / plain.value
        assert abs(abs(ratio) - 1.0) < 1e-12
        expected = (gauge.value(*plain.x2) - gauge.value(*plain.x1)) / h
        assert cmath.phase(ratio * cmath.exp(-1j * expected)) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_reference_lagrangian_covariance(self):
        h = 0.05
        amp_a = overlap((Q, 0.4), (HO, 0.475), LAM, ALPHA, h)
        amp_b = overlap(
            (Q, 0.4), (HO, 0.475), ReferenceLagrangian.line(0.5, -0.37), ALPHA, h
        )
        ratios = [
            tb.contribution / ta.contribution
            for ta, tb in zip(amp_a.terms, amp_b.terms)
        ]
        assert abs(ratios[0] - ratios[1]) < 1e-8
        assert abs(abs(ratios[0]) - 1.0) < 1e-9

    def test_conjugation_swap_is_constant_phase(self):
        # swapping the slots conjugates the amplitude up to one quarter-turn
        # constant fixed by the asymmetric turning-point convention
        h = 0.05
        a12 = overlap((Q, 0.4), (HO, 0.475), LAM, ALPHA, h)
        a21 = overlap((HO, 0.475), (Q, 0.4), LAM, ALPHA, h)
        ratio = a21.value / a12.value.conjugate()
        assert abs(abs(ratio) - 1.0) < 1e-10
        phase = cmath.phase(ratio) / (math.pi / 2)
        assert abs(phase - round(phase)) < 1e-8

    def test_path_independence_at_quantized_levels(self):
        h = 0.05
        b2 = h * (9 + 0.5)
        amp = overlap((Q, 0.4), (HO, b2), LAM, ALPHA, h)
        for i, t in enumerate(amp.terms):
            alt = complementary_overlap_term(amp, i, Q)
            e_fwd = cmath.exp(1j * t.action / h + 1j * math.pi * t.maslov / 2)
            e_alt = cmath.exp(1j * alt.action / h + 1j * math.pi * alt.maslov / 2)
            assert abs(e_fwd - e_alt) < 1e-8

    def test_complementary_term_shifts_slope_by_period(self):
        # S grows by the loop action A on the complementary arc, and
        # dA/db = T, the closed fiber's period
        amp = overlap((Q, 0.4), (HO, 0.475), LAM, ALPHA, 0.05)
        for i, t in enumerate(amp.terms):
            alt = complementary_overlap_term(amp, i, Q)
            assert alt.slopes[0] == t.slopes[0]
            assert alt.slopes[1] - t.slopes[1] == pytest.approx(
                amp.curve2.period, abs=1e-9
            )

    def test_hessian_cross_check(self):
        amp = overlap((Q, 0.3), (PEND, -0.2), LAM, ALPHA, 0.05)
        for i in range(len(amp.terms)):
            assert stencil_overlap_term(amp, i, LAM).hessian_bracket_dev < 1e-6

    @given(
        family=st.sampled_from(["oscillator", "pendulum"]),
        level=st.floats(0.0, 1.0),
        u=st.floats(-0.8, 0.8),
    )
    @settings(max_examples=12, deadline=None)
    def test_hessian_bracket_identity(self, family, level, u):
        # C04's level ranges: the position fiber crosses the closed one twice
        h_obs, b_range = {"oscillator": (HO, (0.3, 0.9)), "pendulum": (PEND, (-0.6, 0.2))}[family]
        b2 = b_range[0] + level * (b_range[1] - b_range[0])
        b1 = u * CLOSED[family][2](b2)
        amp = overlap((Q, b1), (h_obs, b2), LAM, ALPHA, 0.1)
        assert len(amp.terms) == 2
        for i in range(2):
            assert stencil_overlap_term(amp, i, LAM).hessian_bracket_dev <= 1e-6

    def test_near_caustic_warns(self):
        from scoverlap.errors import CausticNearby

        b2 = 0.5
        b1 = math.sqrt(2 * b2 - 2.5e-11)  # intersections at |p| ~ 5e-6
        with pytest.warns(CausticNearby):
            overlap((Q, b1), (HO, b2), LAM, ALPHA, 0.1)

    def test_double_root_reported_and_counted_zero(self):
        from scoverlap.errors import DoubleRoot
        from scoverlap.semiclassics import _maslov_over_guide

        curve = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        # on-fiber guide dipping to the turning point and back: the bracket
        # touches zero without changing sign
        ps = np.array([0.8, 0.5, 1e-8, 0.5, 0.8])
        qs = np.sqrt(1.0 - ps * ps)
        guide = np.stack([np.concatenate([[-qs[0], -qs[1]], qs[2:]]), ps], axis=1)
        with pytest.warns(DoubleRoot):
            count = _maslov_over_guide(curve, guide, Q)
        assert count == 0

    def test_term_dump_fields(self):
        amp = overlap((Q, 0.4), (HO, 0.475), LAM, ALPHA, 0.1)
        dump = amp.term_dump()
        assert {"q", "p", "action", "maslov", "hessian_det", "re", "im"} <= set(
            dump[0]
        )

    def test_term_assembly_invariants(self):
        h = 0.1
        amp = overlap((Q, 0.4), (HO, 0.475), LAM, ALPHA, h)
        total = 0.0 + 0.0j
        for t in amp.terms:
            rebuilt = (
                t.weight
                * math.sqrt(abs(t.hessian_det))
                * cmath.exp(1j * t.action / h + 1j * math.pi * t.maslov / 2)
            )
            assert t.contribution == rebuilt
            total += t.contribution
        assert amp.value == amp.prefactor * total
        assert amp.prefactor == pytest.approx(1 / math.sqrt(2 * math.pi * h))


class TestTransitionProbability:
    def test_plane_wave_density(self):
        for h in (1.0, 0.1, 0.01):
            val = transition_probability((Q, 1.3), (P, 0.4), h, LAM)
            assert abs(val * 2 * math.pi * h - 1.0) < 1e-10

    def test_equals_squared_overlap(self):
        h = 0.1
        amp = overlap((Q, 0.4), (HO, 0.475), LAM, ALPHA, h)
        val = transition_probability((Q, 0.4), (HO, 0.475), h, LAM, ALPHA)
        assert val == pytest.approx(abs(amp.value) ** 2, rel=1e-12)

    def test_gauge_invariance(self):
        h = 0.1
        gauge = Observable.from_coeffs({(2, 0): -0.4, (0, 2): 0.9})
        a = transition_probability((Q, 0.4), (HO, 0.475), h, LAM, ALPHA)
        b = transition_probability(
            (Q, 0.4), (HO, 0.475), h, LAM, PrequantumForm(gauge=gauge)
        )
        assert a == pytest.approx(b, rel=1e-12)

    def test_sweep_density_is_insensitive_to_one_ulp_of_level(self):
        # the q_vs_ho_sweep cases: level nearest 0.54 at each h, positions
        # as fractions of the turning radius, snapped to the 1024-point grid
        grid = GridSpec(10.0, 1024)
        for h in (0.2, 0.1, 0.05):
            b2 = h * (round(0.54 / h - 0.5) + 0.5)
            for u in (0.115, 0.125, 0.165, 0.49, 0.505):
                idx = int(round((u * math.sqrt(2 * b2) + grid.half_width) / grid.dq))
                q1 = float(grid.qs[idx])
                base = transition_probability((Q, q1), (HO, b2), h, LAM, ALPHA)
                moved = transition_probability(
                    (Q, q1), (HO, float(np.nextafter(b2, np.inf))), h, LAM, ALPHA
                )
                assert abs(moved - base) < 1e-10 * abs(base)


class TestCyclic:
    def test_triangle_area_phase(self):
        h = 0.1
        h45 = Observable.linear(math.pi / 4)
        cyc = cyclic_amplitude([(Q, 0.3), (P, -0.2), (h45, 0.5)], h, LAM, ALPHA)
        assert len(cyc.chains) == 1
        chain = cyc.chains[0]
        c1, c2, c3 = chain.points
        verts = [c3, c1, c2]  # traversal c3 ->(L1) c1 ->(L2) c2 ->(L3) c3
        shoelace = 0.5 * sum(
            verts[i].q * verts[(i + 1) % 3].p - verts[(i + 1) % 3].q * verts[i].p
            for i in range(3)
        )
        assert chain.action == pytest.approx(-shoelace, abs=1e-10)

    def test_two_cycle_matches_probability(self):
        h = 0.1
        cyc = cyclic_amplitude([(Q, 0.3), (P, -0.2)], h, LAM, ALPHA)
        assert abs(cyc.value) * 2 * math.pi * h == pytest.approx(1.0, abs=1e-10)
        prob = transition_probability((Q, 0.3), (P, -0.2), h, LAM)
        assert abs(cyc.value) == pytest.approx(prob, rel=1e-10)

    def test_empty_pair_gives_zero(self):
        cyc = cyclic_amplitude([(Q, 1.0), (HO, 0.2)], 0.1, LAM, ALPHA)
        assert cyc.value == 0 and not cyc.chains

    def test_explicit_chain_selection(self):
        h = 0.1
        b2 = 0.475
        full = cyclic_amplitude([(Q, 0.4), (HO, b2)], h, LAM, ALPHA)
        pbar = math.sqrt(2 * b2 - 0.16)
        upper = cyclic_amplitude(
            [(Q, 0.4), (HO, b2)], h, LAM, ALPHA,
            chain=[PhasePoint(0.4, pbar), PhasePoint(0.4, pbar)],
        )
        assert len(full.chains) == 4
        assert len(upper.chains) == 1

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            cyclic_amplitude([(Q, 0.1)], 0.1, LAM, ALPHA)


GAUGE = PrequantumForm(
    Observable.from_coeffs({(2, 0): 0.31, (1, 1): -0.2, (0, 3): 0.1})
)


def _nearest_term(amp, point):
    return min(
        amp.terms, key=lambda t: (t.point.q - point.q) ** 2 + (t.point.p - point.p) ** 2
    )


class TestActionSlopes:
    """``OverlapTerm.slopes`` holds dS/db1 and dS/db2 in closed form (flow
    time plus the reference-endpoint term); a Richardson central difference
    of ``overlap`` actions at shifted levels is the reference."""

    @staticmethod
    def _action(sys1, sys2, lam, near):
        return _nearest_term(overlap(sys1, sys2, lam, GAUGE, 0.1), near).action

    @pytest.mark.parametrize("lam", [LAM, ReferenceLagrangian.line(0.5, -0.37)])
    @pytest.mark.parametrize(
        "sys1, sys2",
        [((Q, 0.4), (HO, 0.5)), ((HO, 0.5), (P, 0.3)), ((PEND, -0.3), (Q, 0.4))],
    )
    def test_slopes_match_richardson_difference(self, sys1, sys2, lam):
        (h1, b1), (h2, b2) = sys1, sys2
        amp = overlap(sys1, sys2, lam, GAUGE, 0.1)
        assert len(amp.terms) == 2
        for t in amp.terms:
            def slope(shift):
                def central(d):
                    up = self._action(*shift(d), lam, t.point)
                    down = self._action(*shift(-d), lam, t.point)
                    return (up - down) / (2 * d)

                return (4 * central(1e-3) - central(2e-3)) / 3

            ds1 = slope(lambda d: ((h1, b1 + d), sys2))
            ds2 = slope(lambda d: (sys1, (h2, b2 + d)))
            assert t.slopes[0] == pytest.approx(ds1, abs=1e-8)
            assert t.slopes[1] == pytest.approx(ds2, abs=1e-8)


class TestActionCurvatures:
    """Every overlap term carries d^2 S / db_i^2 in closed form; a
    Richardson central difference of the closed-form slopes at shifted
    levels is the reference."""

    @pytest.mark.parametrize("alpha", [ALPHA, GAUGE], ids=["plain", "gauge"])
    @pytest.mark.parametrize(
        "lam",
        [LAM, ReferenceLagrangian.line(0.5, -0.37), ReferenceLagrangian.from_text("q + 1/5 q^2")],
        ids=["diagonal", "line", "curved"],
    )
    @pytest.mark.parametrize(
        "sys1, sys2",
        [((Q, 0.4), (HO, 0.5)), ((HO, 0.5), (P, 0.3)), ((PEND, -0.3), (Q, 0.4))],
    )
    def test_curvatures_match_richardson_difference_of_slopes(self, sys1, sys2, lam, alpha):
        amp = overlap(sys1, sys2, lam, alpha, 0.1)
        assert len(amp.terms) == 2
        for t in amp.terms:
            for slot in (1, 2):
                def slope(d):
                    shifted = [sys1, sys2]
                    h_obs, b = shifted[slot - 1]
                    shifted[slot - 1] = (h_obs, b + d)
                    amp_d = overlap(*shifted, lam, alpha, 0.1)
                    return _nearest_term(amp_d, t.point).slopes[slot - 1]

                def central(d):
                    return (slope(d) - slope(-d)) / (2 * d)

                reference = (4 * central(1e-3) - central(2e-3)) / 3
                assert t.curvatures[slot - 1] == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("h_obs, b", [
        (PEND, -0.3),
        (Observable.from_text("1/2 p^2 + 1/4 q^4"), 0.6),
        (HO, 0.5),
    ], ids=["pendulum", "quartic", "oscillator"])
    def test_complementary_term_shifts_curvature_by_period_slope(self, h_obs, b):
        # the complementary arc adds the loop to T2, so d^2 S/db2^2 moves by
        # dT/db of the closed fiber: 1.27 on the pendulum, 0 on the oscillator
        def period(level):
            return _loop_data_at(h_obs, level)[1]

        def central(d):
            return (period(b + d) - period(b - d)) / (2 * d)

        reference = (4 * central(1e-3) - central(2e-3)) / 3
        amp = overlap((Q, 0.4), (h_obs, b), LAM, ALPHA, 0.1)
        assert amp.terms
        for i, t in enumerate(amp.terms):
            alt = complementary_overlap_term(amp, i, Q)
            assert alt.curvatures[0] == t.curvatures[0]
            assert alt.curvatures[1] - t.curvatures[1] == pytest.approx(reference, abs=1e-9)


class TestMovedFiber:
    """A closed fiber moved onto a nearby level stands in for a trace in
    overlaps; the guard refuses moves across a separatrix, and open fibers
    are never moved."""

    @staticmethod
    def _traced(h_obs, b):
        return trace_level_curve(h_obs, b, seed_on_level(h_obs, b))

    @pytest.mark.parametrize(
        "fixed, family, b_from, b",
        [((Q, 0.4), HO, 0.3, 0.5), ((P, 0.3), HO, 0.8, 0.5), ((Q, 0.4), PEND, -0.5, -0.3)],
    )
    @pytest.mark.parametrize("slot", [1, 2])
    def test_moved_and_traced_fibers_give_the_same_terms(self, fixed, family, b_from, b, slot):
        moved = moved_fiber(self._traced(family, b_from), b)
        traced = self._traced(family, b)
        assert moved is not None and moved.closed and moved.level == b
        assert abs(moved.period - traced.period) <= 1e-12
        systems = (fixed, (family, b)) if slot == 1 else ((family, b), fixed)

        def terms(curve):
            curves = (None, curve) if slot == 1 else (curve, None)
            return overlap(*systems, LAM, GAUGE, 0.1, curves=curves).terms

        pairs = list(zip(terms(moved), terms(traced), strict=True))
        assert len(pairs) == 2
        for tm, tt in pairs:
            assert abs(tm.action - tt.action) <= 1e-12
            assert tm.slopes == pytest.approx(tt.slopes, abs=1e-12)
            assert tm.curvatures == pytest.approx(tt.curvatures, abs=1e-12)
            assert tm.maslov == tt.maslov

    @pytest.mark.parametrize(
        "h_obs, b_from, b",
        [(PEND, -0.5, -0.3), (Observable.from_text("1/2 p^2 + 0.55 q^2 + 0.08 q^4"), 0.5, 0.8)],
    )
    def test_move_keeps_each_sample_angle_about_the_centre(self, h_obs, b_from, b):
        # every sample moves along its own ray from the minimum at the origin;
        # a move along grad H would turn the samples of these non-circular loops
        traced = self._traced(h_obs, b_from)
        moved = moved_fiber(traced, b)
        assert moved is not None and moved.qs.size == traced.qs.size
        turn = np.arctan2(moved.ps, moved.qs) - np.arctan2(traced.ps, traced.qs)
        assert np.max(np.abs(np.angle(np.exp(1j * turn)))) <= 1e-12
        assert np.max(np.abs(h_obs.value(moved.qs, moved.ps) - b)) <= 1e-14 * max(1, abs(b))

    def test_no_move_across_the_pendulum_separatrix(self, monkeypatch):
        below = self._traced(PEND, 0.9)
        assert moved_fiber(below, 0.99) is not None
        assert moved_fiber(below, 1.1) is None
        # the kernel then traces the open fiber above the separatrix and keeps it
        traced = []
        trace = semiclassics.trace_level_curve

        def counted(h_obs, b, *args, **kwargs):
            traced.append((h_obs, b))
            return trace(h_obs, b, *args, **kwargs)

        monkeypatch.setattr(semiclassics, "trace_level_curve", counted)
        fibers = {0.9: below}
        kernel = overlap_kernel((P, 0.8), PEND, LAM, ALPHA, 0.1, 2, fibers=fibers)
        amp = kernel(1.1)
        assert amp.terms and not amp.curve1.closed
        assert traced == [(PEND, 1.1), (P, 0.8)] and fibers[1.1] is amp.curve1

    def test_open_fibers_are_never_moved(self, monkeypatch):
        line = trace_level_curve(P, 0.3, PhasePoint(0.0, 0.3))
        assert not line.closed and moved_fiber(line, 0.4) is None
        traced = []
        trace = semiclassics.trace_level_curve

        def counted(h_obs, b, *args, **kwargs):
            traced.append((h_obs, b))
            return trace(h_obs, b, *args, **kwargs)

        monkeypatch.setattr(semiclassics, "trace_level_curve", counted)
        fibers = {}
        kernel = overlap_kernel((Q, 0.3), P, LAM, ALPHA, 0.1, 1, fibers=fibers)
        for b in (0.3, 0.4, 0.5):
            kernel(b)
        assert [b for h_obs, b in traced if h_obs == P] == [0.3, 0.4, 0.5]
        assert sorted(fibers) == [0.3, 0.4, 0.5]


def _term_arcs(amp):
    """(fiber, guide) of every arc ``overlap`` integrates: per term, from
    each fiber's reference point to the crossing."""
    for t in amp.terms:
        for curve, x in ((amp.curve1, amp.x1), (amp.curve2, amp.x2)):
            yield curve, curve.arc(x, t.point, curve.locate(x), curve.locate(t.point))[0]


def _arc_deviations(amp):
    """Per arc, |arc_integrals - chart_action| / max(1, |value|) for
    (S, T, dT/db) on the same guide."""
    devs = []
    for curve, guide in _term_arcs(amp):
        got = np.array(curve.arc_integrals(guide))
        want = np.array(chart_action(curve.observable, curve.level, guide))
        devs.append(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
    return devs


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a spy; returns the list of its calls' args."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


QUARTIC_055 = Observable.from_text("1/2 p^2 + 0.55 q^2 + 0.08 q^4")


class TestSpectralArcs:
    """A polar fiber's arc integrals come from its radii (one FFT per
    fiber) and a straight fiber's in closed form; ``chart_action`` on the
    same guides is the reference, and stays the path of fibers the ray
    guard refuses."""

    @pytest.mark.parametrize("sys1, sys2", [
        ((Q, 0.4), (HO, 0.5)),
        ((HO, 0.5), (P, 0.3)),
        ((PEND, -0.3), (Q, 0.4)),
        ((Q, 0.3), (PEND, 0.5)),
        ((Q, 0.7), (QUARTIC_055, 2.0)),
        ((QUARTIC_055, 0.5), (P, 0.4)),
        ((HO, 0.5), (Observable.harmonic(center_q=1.0), 0.5)),
        ((Observable.harmonic(omega=1.7, center_q=-0.6), 0.8), (HO, 0.6)),
    ])
    @pytest.mark.parametrize("lam", [LAM, ReferenceLagrangian.line(0.5, -0.37)])
    def test_overlap_arcs_match_chart_quadrature(self, sys1, sys2, lam):
        amp = overlap(sys1, sys2, lam, GAUGE, 0.1)
        assert amp.terms
        for curve in (amp.curve1, amp.curve2):
            assert curve.observable.is_linear or curve.polar is not None
        assert max(np.max(d) for d in _arc_deviations(amp)) <= 1e-12

    def test_composition_arcs_match_chart_quadrature(self, monkeypatch):
        # every kernel call of the glue example: moved oscillator fibers and
        # held lines, where the oscillator's dT/db is 0
        amps = []
        real = semiclassics.overlap

        def kept(*args, **kwargs):
            amps.append(real(*args, **kwargs))
            return amps[-1]

        monkeypatch.setattr(semiclassics, "overlap", kept)
        TestComposition._glue_example({})
        devs = [d for amp in amps for d in _arc_deviations(amp)]
        assert len(amps) >= 20 and len(devs) == 4 * len(amps)
        assert max(np.max(d) for d in devs) <= 1e-12
        # on the oscillator the flow turns at unit angular speed and the
        # ends move radially, so every closed arc's dT/db is 0
        closed = [c.arc_integrals(g)[2] for amp in amps for c, g in _term_arcs(amp) if c.closed]
        assert closed and max(map(abs, closed)) <= 1e-12

    @pytest.mark.parametrize("case", ["double well about a well centre", "pendulum at 0.999"])
    def test_refused_loops_keep_chart_quadrature(self, monkeypatch, case):
        import scoverlap.geometry as geo

        if case == "pendulum at 0.999":
            # the corners at q = +-pi need more than 4096 angles
            h_obs, b = PEND, 0.999
        else:
            # rays from the right well's minimum cross the outer loop three
            # times where they pass the saddle
            h_obs, b = DOUBLE_WELL, 0.5
            monkeypatch.setattr(geo, "_loop_centre", lambda curve: PhasePoint(math.sqrt(2.0), 0.0))
        curve = trace_level_curve(h_obs, b, seed_on_level(h_obs, b))
        assert curve.closed and curve.polar is None and curve.qs.size == 601
        calls = _counting(monkeypatch, geo, "chart_action")
        amp = overlap((Q, 0.3), (h_obs, b), LAM, ALPHA, 0.1, curves=(None, curve))
        # one quadrature per term, on the closed arc; the line's arcs are
        # in closed form
        assert len(amp.terms) == 2 and len(calls) == 2
        assert all(args[0] is h_obs for args in calls)
        for fiber, guide in _term_arcs(amp):
            if fiber.closed:
                assert fiber.arc_integrals(guide) == chart_action(h_obs, b, guide)


class TestGaugeCovariance:
    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
        h=st.floats(0.02, 0.3),
        lam=st.sampled_from([
            LAM, ReferenceLagrangian.line(0.5, -0.37), ReferenceLagrangian.line(2.0, 0.1)
        ]),
        pair=st.sampled_from([((Q, 0.4), (HO, 0.475)), ((Q, 0.3), (PEND, -0.2))]),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_polynomial_gauge(self, coeffs, h, lam, pair):
        # f of degree <= 3 shifts every term's action by f(x2) - f(x1) and
        # leaves Maslov indices, |value| and the probability alone
        monos = [(a, b) for a in range(4) for b in range(4 - a)]
        gauge = Observable.from_coeffs(dict(zip(monos, coeffs)))
        alpha = PrequantumForm(gauge)
        plain = overlap(*pair, lam, ALPHA, h)
        gauged = overlap(*pair, lam, alpha, h)
        shift = float(gauge.value(*plain.x2)) - float(gauge.value(*plain.x1))
        assert len(gauged.terms) == len(plain.terms) == 2
        for tp, tg in zip(plain.terms, gauged.terms):
            assert tg.action - tp.action == pytest.approx(shift, abs=1e-12)
            assert tg.maslov == tp.maslov
        scale = plain.prefactor * sum(abs(t.contribution) for t in plain.terms)
        assert abs(gauged.value) == pytest.approx(abs(plain.value), abs=1e-12 * scale)
        p_plain = transition_probability(*pair, h, lam, ALPHA)
        p_gauged = transition_probability(*pair, h, lam, alpha)
        assert p_gauged == pytest.approx(p_plain, abs=1e-12 * scale**2)


class TestComposition:
    def test_identity_like_composition_is_degenerate(self):
        h = 0.1
        u20 = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=2)
        u01 = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=1)
        with pytest.raises(DegenerateStationaryPoint):
            compose_kernels(u20, u01, h, (-2.0, 2.0))

    def test_parallel_fibers_compose_to_zero(self):
        h = 0.1
        u20 = overlap_kernel((Q, 0.7), P, LAM, ALPHA, h, fixed_slot=2)
        u01 = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=1)
        composed = compose_kernels(u20, u01, h, (-2.0, 2.0))
        assert composed.value == 0 and not composed.terms

    def test_linear_triple_exact(self):
        h = 0.1
        h45 = Observable.linear(math.pi / 4)
        u01 = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=1)
        u20 = overlap_kernel((h45, 0.8), P, LAM, ALPHA, h, fixed_slot=2)
        composed = compose_kernels(u20, u01, h, (-2.5, 2.5))
        direct = overlap((Q, 0.3), (h45, 0.8), LAM, ALPHA, h)
        assert abs(abs(composed.value) - abs(direct.value)) / abs(
            direct.value
        ) < 1e-10
        quarter = cmath.phase(composed.value / direct.value) / (math.pi / 4)
        assert abs(quarter - round(quarter)) < 1e-6

    def test_kernel_type_error_propagates(self):
        h = 0.1
        u01 = overlap_kernel((Q, 0.3), P, LAM, ALPHA, h, fixed_slot=1)
        good = overlap_kernel((Q, 0.7), P, LAM, ALPHA, h, fixed_slot=2)
        calls = []

        def u20(b):
            calls.append(b)
            if len(calls) == 1:
                raise TypeError("bug in the kernel")
            return good(b)

        with pytest.raises(TypeError, match="bug in the kernel"):
            compose_kernels(u20, u01, h, (-2.0, 2.0))
        assert len(calls) == 1

    @staticmethod
    def _glue_example(fibers=None, b1=0.6, b2=0.8, interval=(0.36, 0.95)):
        """The glue_q_ho_p example, q = 0.6 -> oscillator -> p = 0.8 at
        h = 0.2 (or q = b1 and p = b2 over ``interval``), with the levels
        each kernel is called at."""
        h = 0.2
        calls = {1: [], 2: []}

        def counted(slot, kernel):
            def wrapped(b):
                calls[slot].append(b)
                return kernel(b)

            return wrapped

        u01 = counted(1, overlap_kernel((Q, b1), HO, LAM, ALPHA, h, 1, fibers=fibers))
        u20 = counted(2, overlap_kernel((P, b2), HO, LAM, ALPHA, h, 2, fibers=fibers))
        return compose_kernels(u20, u01, h, interval), calls

    def test_glue_example_reads_phase_slopes(self):
        composed, calls = self._glue_example({})
        direct = overlap((Q, 0.6), (P, 0.8), LAM, ALPHA, 0.2)
        (term,) = composed.terms
        assert term.b_star == pytest.approx(0.5, abs=1e-10)
        rel = abs(abs(composed.value) - abs(direct.value)) / abs(direct.value)
        # bounds: the floor of phi' as a difference of actions, and 12 calls
        # per kernel (9 scan levels and 3 Newton levels, the last of them b*;
        # phi' and phi'' come in closed form from the terms at each level)
        assert rel <= 4.83e-11
        assert len(calls[1]) + len(calls[2]) <= 24

    def test_seeded_glue_compositions(self):
        # (b1, b2) drawn by perfbench's glue rule: one stationary point at
        # (b1^2 + b2^2) / 2, found from few kernel calls
        rng = np.random.default_rng(1414)
        for _ in range(10):
            b1, b2 = rng.uniform(0.45, 0.75), rng.uniform(0.55, 0.85)
            interval = (max(b1 * b1, b2 * b2) / 2 + 0.04, (b1 * b1 + b2 * b2) / 2 + 0.45)
            composed, calls = self._glue_example({}, b1, b2, interval)
            direct = overlap((Q, b1), (P, b2), LAM, ALPHA, 0.2)
            (term,) = composed.terms
            assert abs(term.b_star - (b1 * b1 + b2 * b2) / 2) <= 1e-12
            rel = abs(abs(composed.value) - abs(direct.value)) / abs(direct.value)
            assert rel <= 4.83e-11
            assert len(calls[1]) + len(calls[2]) <= 30

    def test_branch_count_change_is_typed(self):
        # below b = 0.18 the line q = 0.6 misses the oscillator, and below
        # b = 0.32 so does p = 0.8
        h = 0.2
        u01 = overlap_kernel((Q, 0.6), HO, LAM, ALPHA, h, fixed_slot=1)
        u20 = overlap_kernel((P, 0.8), HO, LAM, ALPHA, h, fixed_slot=2)
        with pytest.raises(
            BranchStructureChange, match=r"0 x 0 at b = 0\.1 to 0 x 2 at b = 0\.20625"
        ):
            compose_kernels(u20, u01, h, (0.1, 0.95))

    def test_glue_example_traces_each_level_once(self, monkeypatch):
        traced = []
        trace = semiclassics.trace_level_curve

        def counted(h_obs, b, *args, **kwargs):
            traced.append((h_obs, b))
            return trace(h_obs, b, *args, **kwargs)

        monkeypatch.setattr(semiclassics, "trace_level_curve", counted)
        fibers = {}
        _, calls = self._glue_example(fibers)
        # the first level is traced; every other level moves a held fiber
        assert [b for h_obs, b in traced if h_obs == HO] == [calls[2][0]]
        assert sorted(fibers) == sorted(set(calls[1]) | set(calls[2]))
        assert sorted(b for h_obs, b in traced if h_obs != HO) == [0.6, 0.8]
        # and no kernel is called twice at one level
        assert len(set(calls[1])) == len(calls[1])
        assert len(set(calls[2])) == len(calls[2])

    def test_glue_example_runs_no_chart_quadrature(self, monkeypatch):
        # the oscillator fibers are polar and the lines straight, so no arc
        # and no loop of the composition takes chart quadrature; the one
        # traced oscillator fiber solves its centre once, and every move
        # keeps it
        import scoverlap.geometry as geo

        quadratures = _counting(monkeypatch, geo, "chart_action")
        centres = _counting(monkeypatch, geo, "_loop_centre")
        moves = _counting(monkeypatch, semiclassics, "moved_fiber")
        traced = _counting(monkeypatch, semiclassics, "trace_level_curve")
        fibers = {}
        composed, _ = self._glue_example(fibers)
        assert len(moves) == len(fibers) - 1 >= 10
        assert all(f.polar is not None for f in fibers.values())
        assert sum(h_obs == HO for h_obs, *_ in traced) == len(centres) == 1
        # the oracle's bridge reads the polar period too
        bridge = half_density_bridge(1.0, fibers[composed.terms[0].b_star], None, 0.2)
        assert bridge == pytest.approx(math.sqrt(0.2), abs=1e-15)
        assert quadratures == []

    def test_glue_example_scans_the_grid_once_per_kernel(self, monkeypatch):
        # the first call of each kernel scans the grid; every later one reads
        # the crossings along its held fixed line and finds as many as the
        # scan would at that level
        scans = []
        scan = semiclassics.find_intersections

        def counted(h1, b1, h2, b2):
            scans.append((str(h1), str(h2)))
            return scan(h1, b1, h2, b2)

        monkeypatch.setattr(semiclassics, "find_intersections", counted)
        h, fibers, terms = 0.2, {}, []

        def kernel(fixed_sys, slot):
            u = overlap_kernel(fixed_sys, HO, LAM, ALPHA, h, slot, fibers=fibers)

            def wrapped(b):
                amp = u(b)
                terms.append((fixed_sys, b, len(amp.terms)))
                return amp

            return wrapped

        composed = compose_kernels(kernel((P, 0.8), 2), kernel((Q, 0.6), 1), h, (0.36, 0.95))
        assert composed.terms[0].b_star == pytest.approx(0.5, abs=1e-12)
        assert scans == [(str(HO), "p"), ("q", str(HO))]
        assert len(terms) >= 20
        assert all(n == len(scan(*fixed_sys, HO, b)) for fixed_sys, b, n in terms)

    def test_unshared_kernels_move_their_own_fibers(self, monkeypatch):
        # two kernels given no mapping each trace their first intermediate
        # fiber and move it to every later level: with the two fixed fibers,
        # four traces for the whole composition
        traced = []
        trace = semiclassics.trace_level_curve

        def counted(h_obs, b, *args, **kwargs):
            traced.append((h_obs, b))
            return trace(h_obs, b, *args, **kwargs)

        monkeypatch.setattr(semiclassics, "trace_level_curve", counted)
        h = 0.1
        u01 = overlap_kernel((Q, 0.6), HO, LAM, ALPHA, h, fixed_slot=1)
        u20 = overlap_kernel((P, 0.8), HO, LAM, ALPHA, h, fixed_slot=2)
        composed = compose_kernels(u20, u01, h, (0.36, 0.95))
        assert composed.terms[0].b_star == pytest.approx(0.5, abs=1e-12)
        assert len(traced) <= 4

    def test_shared_fibers_match_independent_kernels(self, monkeypatch):
        # the reference traces the intermediate fiber at every level, so the
        # moved fibers' actions, slopes and curvatures are checked against
        # traced ones through the composed value
        shared, _ = self._glue_example({})
        monkeypatch.setattr(semiclassics, "moved_fiber", lambda curve, b: None)
        alone, _ = self._glue_example()
        (t_shared,), (t_alone,) = shared.terms, alone.terms
        assert abs(t_shared.b_star - t_alone.b_star) <= 1e-12
        assert abs(abs(shared.value) - abs(alone.value)) <= 1e-11 * abs(alone.value)
        assert t_shared.maslov == t_alone.maslov
        assert t_shared.signature == t_alone.signature

    def test_oscillator_intermediate_within_5h(self):
        b1, b2 = 0.6, 0.8
        b_star = (b1 * b1 + b2 * b2) / 2
        for h in (0.1, 0.05):
            u01 = overlap_kernel((Q, b1), HO, LAM, ALPHA, h, fixed_slot=1)
            u20 = overlap_kernel((P, b2), HO, LAM, ALPHA, h, fixed_slot=2)
            composed = compose_kernels(u20, u01, h, (0.36, 0.95))
            direct = overlap((Q, b1), (P, b2), LAM, ALPHA, h)
            rel = abs(abs(composed.value) - abs(direct.value)) / abs(direct.value)
            assert rel <= 5 * h
            assert composed.terms[0].b_star == pytest.approx(b_star, abs=1e-7)


class TestStationaryScan:
    """``_stationary_levels`` on polynomial stubs of (phi', phi'')."""

    GRID = np.linspace(0.36, 0.95, semiclassics._COMPOSE_GRID)

    @staticmethod
    def _stub(dphi, d2phi):
        levels = []

        def stub(b):
            levels.append(b)
            return dphi(b), d2phi(b)

        return stub, levels

    def test_close_pair_inside_one_sign_scan_cell(self):
        # both zeros lie in one cell of a 33-level grid, where phi' has one
        # sign at both ends, so a sign scan on that grid sees neither
        r, delta = 0.548, 0.01
        stub, _ = self._stub(lambda b: (b - r) * (b - r - delta), lambda b: 2 * (b - r) - delta)
        old_grid = np.linspace(0.36, 0.95, 33)
        assert np.all(np.array([stub(b)[0] for b in old_grid]) > 0)
        roots = semiclassics._stationary_levels(stub, self.GRID)
        assert len(roots) == 2
        assert abs(roots[0] - r) <= 1e-12
        assert abs(roots[1] - r - delta) <= 1e-12

    def test_clear_extremum_has_no_zero(self):
        stub, levels = self._stub(lambda b: (b - 0.55) ** 2 + 1e-3, lambda b: 2 * (b - 0.55))
        assert semiclassics._stationary_levels(stub, self.GRID) == []
        assert len(levels) <= len(self.GRID) + 2

    def test_simple_zero_is_polished_on_an_evaluated_level(self):
        r = 0.6180339887498949
        stub, levels = self._stub(lambda b: math.sin(3 * (b - r)), lambda b: 3 * math.cos(3 * (b - r)))
        (root,) = semiclassics._stationary_levels(stub, self.GRID)
        assert abs(root - r) <= 1e-12
        assert root in levels
        assert len(levels) <= len(self.GRID) + 4

    def test_pair_far_below_the_grid_spacing(self):
        # zeros 2e-6 apart: the interpolant keeps reaching zero, so the
        # cell is bisected until a midpoint falls between them
        r, eps = 0.55 + 1e-3 / 3, 1e-6
        stub, _ = self._stub(lambda b: (b - r) ** 2 - eps * eps, lambda b: 2 * (b - r))
        roots = semiclassics._stationary_levels(stub, self.GRID)
        assert len(roots) == 2
        assert abs(roots[0] - (r - eps)) <= 1e-12
        assert abs(roots[1] - (r + eps)) <= 1e-12


def _amplitude_fields(amp):
    # repr is exact for floats and, unlike ==, equates the NaN that overlap
    # terms carry as hessian_bracket_dev (not measured)
    return repr((amp.h, amp.terms, amp.prefactor, amp.value, amp.x1, amp.x2))


class TestRephasing:
    """``at(h)`` re-phases h-free geometry: it must equal a fresh computation
    at that h, float for float."""

    @pytest.mark.parametrize(
        "sys1, sys2",
        [
            ((Q, 0.6), (P, 0.8)),
            ((Q, 0.4), (HO, 0.5)),
            ((Q, 0.3), (Observable.linear(math.pi / 4), 0.8)),
            ((Q, 2.0), (HO, 0.5)),
        ],
    )
    def test_overlap_at_equals_fresh_overlap(self, sys1, sys2):
        base = overlap(sys1, sys2, LAM, ALPHA, 0.2)
        for h in (0.1, 0.05, 0.2):
            fresh = overlap(sys1, sys2, LAM, ALPHA, h)
            assert _amplitude_fields(base.at(h)) == _amplitude_fields(fresh)

    @staticmethod
    def _compose(sys01, sys20, intermediate, h, interval):
        u01 = overlap_kernel(sys01, intermediate, LAM, ALPHA, h, fixed_slot=1)
        u20 = overlap_kernel(sys20, intermediate, LAM, ALPHA, h, fixed_slot=2)
        return compose_kernels(u20, u01, h, interval)

    def test_composition_at_equals_fresh_oscillator_case(self):
        args = ((Q, 0.6), (P, 0.8), HO)
        base = self._compose(*args, 0.1, (0.36, 0.95))
        fresh = self._compose(*args, 0.05, (0.36, 0.95))
        assert len(base.terms) == 1
        assert base.at(0.05) == fresh
        assert base.at(0.1) == base

    def test_composition_at_equals_fresh_linear_triple(self):
        args = ((Q, 0.3), (Observable.linear(math.pi / 4), 0.8), P)
        base = self._compose(*args, 0.1, (-2.5, 2.5))
        fresh = self._compose(*args, 0.2, (-2.5, 2.5))
        assert base.terms
        assert base.at(0.2) == fresh

    def test_empty_composition_at(self):
        base = self._compose((Q, 0.3), (Q, 0.7), P, 0.1, (-2.0, 2.0))
        assert base.at(0.05) == self._compose((Q, 0.3), (Q, 0.7), P, 0.05, (-2.0, 2.0))
