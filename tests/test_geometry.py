"""Phase-plane geometry: brackets, fiber tracing, intersections, actions."""

import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scoverlap import geometry
from scoverlap.errors import (
    CoarseGuide,
    NoReferencePoint,
    PointNotOnFiber,
    QuadratureLimit,
    SingularFiber,
    TangentialIntersection,
)
from scoverlap.geometry import (
    _PROJ_TOL,
    DEDUP_RADIUS,
    TRANS_TOL,
    IntersectionPoint,
    Observable,
    PhasePoint,
    PrequantumForm,
    ReferenceLagrangian,
    _adaptive_gk21,
    _newton_intersection,
    action_along_fiber,
    chart_action,
    find_intersections,
    intersections_along,
    loop_data,
    moved_fiber,
    poisson_bracket,
    project_to_fiber,
    reference_point,
    seed_on_level,
    trace_level_curve,
)

HO = Observable.harmonic()
Q = Observable.position()
P = Observable.momentum()
PEND = Observable.pendulum()

coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
small_coeffs = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def fd_bracket(h1, h2, x, eps=1e-6):
    q, p = x
    d1q = (h1.value(q + eps, p) - h1.value(q - eps, p)) / (2 * eps)
    d1p = (h1.value(q, p + eps) - h1.value(q, p - eps)) / (2 * eps)
    d2q = (h2.value(q + eps, p) - h2.value(q - eps, p)) / (2 * eps)
    d2p = (h2.value(q, p + eps) - h2.value(q, p - eps)) / (2 * eps)
    return d1q * d2p - d1p * d2q


class TestBracket:
    def test_canonical_pair(self):
        assert poisson_bracket(Q, P, PhasePoint(0.7, -1.1)) == 1.0

    def test_ho_with_momentum(self):
        assert poisson_bracket(HO, P, PhasePoint(2.0, 3.0)) == pytest.approx(2.0)

    @given(q=coords, p=coords)
    @settings(max_examples=30, deadline=None)
    def test_pendulum_against_finite_differences(self, q, p):
        cubic = Observable.from_coeffs({(3, 1): 1.0})
        x = PhasePoint(q, p)
        exact = poisson_bracket(PEND, cubic, x)
        approx = fd_bracket(PEND, cubic, x)
        assert exact == pytest.approx(approx, rel=1e-6, abs=1e-6)

    @given(
        c1=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), small_coeffs,
            min_size=1, max_size=4,
        ),
        c2=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), small_coeffs,
            min_size=1, max_size=4,
        ),
        q=coords,
        p=coords,
    )
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, c1, c2, q, p):
        h1 = Observable.from_coeffs(c1)
        h2 = Observable.from_coeffs(c2)
        x = PhasePoint(q, p)
        assert poisson_bracket(h1, h2, x) == -poisson_bracket(h2, h1, x)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            q, p = rng.uniform(-2, 2, size=2)
            for obs in (HO, PEND, Observable.from_coeffs({(2, 1): 0.3, (0, 3): -0.5})):
                gq, gp = obs.gradient(PhasePoint(q, p))
                eps = 1e-6
                fq = (obs.value(q + eps, p) - obs.value(q - eps, p)) / (2 * eps)
                fp = (obs.value(q, p + eps) - obs.value(q, p - eps)) / (2 * eps)
                assert gq == pytest.approx(fq, rel=1e-6, abs=1e-7)
                assert gp == pytest.approx(fp, rel=1e-6, abs=1e-7)

    def test_hessian_symmetric(self):
        h = Observable.from_coeffs({(2, 2): 1.0, (1, 1): -0.4})
        m = h.hessian(PhasePoint(0.3, -0.8))
        assert m[0, 1] == m[1, 0]


class TestTracing:
    def test_ho_circle(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        assert c.closed
        assert c.period == pytest.approx(2 * math.pi, abs=1e-12)
        assert c.loop_action == pytest.approx(math.pi, abs=1e-12)
        assert np.max(np.abs(HO.value(c.qs, c.ps) - 0.5)) < 1e-9

    @pytest.mark.parametrize("h, b, seed", [
        (HO, 0.6, PhasePoint(1.1, 0.0)),
        (PEND, -0.3, PhasePoint(math.acos(0.3), 0.0)),
        (Observable.from_coeffs({(2, 0): 2.0, (0, 2): 0.5, (4, 0): 0.3}), 1.7, PhasePoint(0.0, 1.0)),
    ])
    def test_closed_trace_samples_sit_on_the_level(self, h, b, seed):
        c = trace_level_curve(h, b, seed)
        assert c.closed and (c.qs[-1], c.ps[-1]) == (c.qs[0], c.ps[0])
        assert np.max(np.abs(h.value(c.qs, c.ps) - b)) <= _PROJ_TOL * max(1.0, abs(b))
        chords = np.hypot(np.diff(c.qs), np.diff(c.ps))
        assert np.array_equal(c.arclength, np.concatenate([[0.0], np.cumsum(chords)]))
        # the loop integrals are taken on first read, not by the trace
        assert "_loop" not in c.__dict__

    @pytest.mark.parametrize("theta, b", [(0.0, 0.3), (math.pi / 2, -0.4), (0.7, 1.1), (2.9, 0.45)])
    def test_linear_fiber_is_a_closed_form_segment(self, theta, b, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("a straight fiber was walked")

        monkeypatch.setattr(geometry, "_walk", no_walk)
        h = Observable.linear(theta)
        c = trace_level_curve(h, b, PhasePoint(0.2, -0.1))
        assert not c.closed and c.period is None
        # on the level to rounding, straight, in flow direction (H_p, -H_q)
        assert np.max(np.abs(h.value(c.qs, c.ps) - b)) <= 4 * np.finfo(float).eps * 8.0
        step = np.array([c.qs[-1] - c.qs[0], c.ps[-1] - c.ps[0]]) / c.total_arclength
        assert step == pytest.approx([math.sin(theta), -math.cos(theta)], abs=1e-14)
        assert np.all(np.diff(c.arclength) > 0)
        for i in (0, -1):
            assert max(abs(c.qs[i]), abs(c.ps[i])) == pytest.approx(8.0, abs=1e-13)

    def test_refused_projection_raises(self, monkeypatch):
        # one Newton step per sample cannot take the loose trace's samples
        # onto the level to the projection's 1e-14
        monkeypatch.setattr(geometry, "_MOVE_STEPS", 1)
        with pytest.raises(SingularFiber, match="did not project onto the level"):
            trace_level_curve(HO, 0.6, PhasePoint(1.1, 0.0))

    @pytest.mark.parametrize("text, b, stalled", [
        # the samples' projection stalled at |H - b| = 1.4e-14 > 1e-14
        ("0.606 q^2 - 1.043 q p - 0.742 p^2 - 0.0587 q - 0.608 p - 0.065", 0.3027,
         (-4.457, 7.569)),
        # the walk's projection stalled, so its step halved down to 1e-13
        ("-0.68 q^3 - 0.569 q^2 p + 0.978 q p^2 + 0.244 p^3 + 0.585 q^2 + 0.991 q p"
         " + 0.107 p^2 + 0.009 q - 0.11 p + 0.225", -0.9121,
         (3.95467690616806, 3.1773183285704794)),
    ], ids=["hyperbola", "cubic"])
    def test_projection_stops_at_rounding(self, text, b, stalled):
        # near the box H's terms sum to 100 and more, so at some points
        # |H - b| cannot round below 1e-14 max(1, |b|); Newton stops there
        # once |H - b| is within 4 eps of the sum of |terms|, and each fiber
        # is open from box to box, every sample on the level to that bound
        h = Observable.from_text(text)
        terms = Observable.from_coeffs({k: abs(v) for k, v in h.coeffs})

        def rounding(q, p):
            floor = 4 * np.finfo(float).eps * (terms.value(np.abs(q), np.abs(p)) + abs(b))
            return np.maximum(floor, _PROJ_TOL * max(1.0, abs(b)))

        c = trace_level_curve(h, b, seed_on_level(h, b))
        assert not c.closed and c.period is None
        assert np.all(np.abs(h.value(c.qs, c.ps) - b) <= rounding(c.qs, c.ps))
        magnitude = terms.value(np.abs(c.qs), np.abs(c.ps))
        assert np.allclose(h.magnitude(c.qs, c.ps), magnitude, rtol=1e-14, atol=0.0)
        for i in (0, -1):
            assert max(abs(c.qs[i]), abs(c.ps[i])) == pytest.approx(8.0, abs=1e-4)
        x = project_to_fiber(h, b, PhasePoint(*stalled))
        assert abs(h.value(*x) - b) <= rounding(*x)

    def test_position_fiber_is_open(self):
        c = trace_level_curve(Q, 0.3, PhasePoint(0.3, 0.0))
        assert not c.closed
        assert np.allclose(c.qs, 0.3)
        assert c.ps[0] == pytest.approx(8.0) and c.ps[-1] == pytest.approx(-8.0)

    def test_pendulum_loop_action_against_quadrature(self):
        b = -0.5
        qt = math.acos(-b)
        c = trace_level_curve(PEND, b, PhasePoint(qt, 0.0))
        oracle = 2 * quad(
            lambda x: math.sqrt(max(2 * (b + math.cos(x)), 0.0)),
            -qt, qt, epsabs=1e-11, limit=400,
        )[0]
        assert c.closed
        assert c.loop_action == pytest.approx(oracle, abs=1e-7)

    def test_separatrix_seed_is_singular(self):
        with pytest.raises(SingularFiber):
            trace_level_curve(PEND, -1.0, PhasePoint(0.0, 0.0))

    def test_lobe_of_a_figure_eight_raises(self):
        # the double well's separatrix b = 0 crosses itself at the saddle
        # (0, 0); one lobe traced from (2, 0) is neither a closed fiber nor
        # an open one ending at the saddle
        double_well = quartic(-1.0, 0.25)
        with pytest.raises(SingularFiber, match=r"runs into the critical point \(0, 0\)"):
            trace_level_curve(double_well, 0.0, PhasePoint(2.0, 0.0))

    def test_pendulum_separatrix_passes_the_saddles(self):
        # b = 1 from (0, 2) passes the saddles (+-pi, 0), where the gradient
        # stays above the floor, out to the box on both sides: an open fiber
        c = trace_level_curve(PEND, 1.0, PhasePoint(0.0, 2.0))
        assert not c.closed and c.period is None
        assert np.max(np.abs(PEND.value(c.qs, c.ps) - 1.0)) <= _PROJ_TOL
        assert [c.qs[0], c.qs[-1]] == pytest.approx([-8.0, 8.0], abs=1e-2)
        for q in (-math.pi, math.pi):
            assert c.distance(PhasePoint(q, 0.0)) < 1e-2

    def test_only_the_verifier_imports_scipy_integrate(self):
        # the engine runs no ODE; loop_data imports its integrator on call
        code = (
            "import math, sys\n"
            "import scoverlap, scoverlap.cli\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "from scoverlap.geometry import Observable, PhasePoint, loop_data\n"
            "a, t = loop_data(Observable.harmonic(), 0.5, PhasePoint(1.0, 0.0))\n"
            "print(a - math.pi, t - 2 * math.pi)\n"
        )
        src = os.path.dirname(os.path.dirname(geometry.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 0, done.stderr
        assert [float(x) for x in done.stdout.split()] == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_reseeded_loop_agrees(self):
        a1, t1 = loop_data(HO, 0.5, PhasePoint(1.0, 0.0))
        a2, t2 = loop_data(HO, 0.5, PhasePoint(0.0, -1.0))
        assert a1 == pytest.approx(a2, abs=1e-7)
        assert t1 == pytest.approx(t2, abs=1e-7)


class TestIntersections:
    def test_circle_line(self):
        pts = find_intersections(HO, 0.5, Q, 0.6)
        got = sorted((round(ip.point.q, 9), round(ip.point.p, 9)) for ip in pts)
        assert got == [(0.6, -0.8), (0.6, 0.8)]

    def test_line_outside_circle(self):
        assert find_intersections(HO, 0.5, Q, 2.0) == []

    def test_two_circles_closed_form(self):
        displaced = Observable.harmonic(center_q=1.0)
        pts = find_intersections(HO, 0.5, displaced, 0.5)
        assert len(pts) == 2
        q_exact = 0.5
        p_exact = math.sqrt(1.0 - 0.25)
        for ip in pts:
            assert abs(ip.point.q - q_exact) < 1e-9
            assert abs(abs(ip.point.p) - p_exact) < 1e-9
        ps = sorted(ip.point.p for ip in pts)
        assert ps[0] == pytest.approx(-ps[1], abs=1e-12)

    def test_levels_satisfied_and_transversal(self):
        pts = find_intersections(HO, 0.5, Observable.harmonic(center_q=1.0), 0.3)
        for ip in pts:
            assert abs(HO.value(*ip.point) - 0.5) < 1e-10
            assert abs(ip.bracket) > 1e-6

    def test_tangential_reported(self):
        with pytest.raises(TangentialIntersection) as err:
            find_intersections(HO, 0.5, Q, 1.0)
        assert err.value.points


def dense_scan_intersections(h1, b1, h2, b2, domain=8.0, grid_n=400):
    """Reference scan: both observables on the full meshgrid, corner min/max.

    Returns the points, or ("tangential", points) where the scan raises."""
    axis = np.linspace(-domain, domain, grid_n + 1)
    qq, pp = np.meshgrid(axis, axis, indexing="ij")
    f1 = np.asarray(h1.value(qq, pp), dtype=float) - b1
    f2 = np.asarray(h2.value(qq, pp), dtype=float) - b2

    def straddles(f):
        c = np.stack([f[:-1, :-1], f[1:, :-1], f[:-1, 1:], f[1:, 1:]])
        return (c.min(axis=0) <= 0.0) & (c.max(axis=0) >= 0.0)

    ii, jj = np.nonzero(straddles(f1) & straddles(f2))
    half = (axis[1] - axis[0]) / 2.0
    roots = []
    for i, j in zip(ii, jj):
        r = _newton_intersection(h1, b1, h2, b2, PhasePoint(axis[i] + half, axis[j] + half))
        if r is None or max(abs(r.q), abs(r.p)) > domain + 1e-9:
            continue
        if all((r.q - o.q) ** 2 + (r.p - o.p) ** 2 > DEDUP_RADIUS**2 for o in roots):
            roots.append(r)
    brackets = [(r, poisson_bracket(h1, h2, r)) for r in roots]
    tangential = [r for r, br in brackets if abs(br) <= TRANS_TOL]
    if tangential:
        return ("tangential", tangential)
    points = [IntersectionPoint(point=r, bracket=br) for r, br in brackets]
    return sorted(points, key=lambda ip: (ip.point.q, ip.point.p))


def or_tangential(search, *args):
    """``search(*args)``, or ("tangential", points) where it raises."""
    try:
        return search(*args)
    except TangentialIntersection as err:
        return ("tangential", err.points)


def scan_or_tangential(h1, b1, h2, b2):
    return or_tangential(find_intersections, h1, b1, h2, b2)


def quartic(a, c):
    return Observable.from_coeffs({(0, 2): 0.5, (2, 0): a, (4, 0): c})


def seeded_random_pairs():
    """24 pairs (h1, b1, h2, b2) drawn from pendulums, oscillators, lines,
    quartics and general quadratics, with levels met inside |q|, |p| <= 3."""
    rng = np.random.default_rng(20260418)

    def draw():
        kind = rng.integers(5)
        if kind == 0:
            return PEND
        if kind == 1:
            return Observable.harmonic(
                omega=rng.uniform(0.5, 2.0), center_q=rng.uniform(-2.0, 2.0)
            )
        if kind == 2:
            return Observable.linear(rng.uniform(0.0, math.pi))
        if kind == 3:
            return quartic(rng.uniform(0.1, 1.0), rng.uniform(0.01, 0.2))
        return Observable.from_coeffs(
            {(a, b): rng.normal() for a in range(3) for b in range(3) if a + b <= 2}
        )

    pairs = []
    for _ in range(24):
        h1, h2 = draw(), draw()
        b1 = float(h1.value(*rng.uniform(-3.0, 3.0, 2)))
        b2 = float(h2.value(*rng.uniform(-3.0, 3.0, 2)))
        pairs.append((h1, b1, h2, b2))
    return pairs


def thin_ellipse(q0, half):
    """(q - q0)^2 / (2 half^2) + p^2 / 2: at level 1/2 an ellipse of
    half-width ``half`` in q about q0 and half-height 1 in p."""
    k = 0.5 / (half * half)
    return Observable.from_coeffs(
        {(2, 0): k, (1, 0): -2 * k * q0, (0, 0): k * q0 * q0, (0, 2): 0.5}
    )


NAMED_PAIRS = [
    (PEND, -0.5, P, 0.3),
    (PEND, 0.4, Q, 1.1),
    (P, 0.3, PEND, -0.5),
    (HO, 0.52, PEND, -0.5),
    (HO, 0.5, Observable.harmonic(center_q=1.0), 0.3),
    (Observable.harmonic(omega=1.7, center_q=-0.6), 0.8, HO, 0.6),
    (quartic(0.4, 0.1), 0.9, Q, 0.7),
    (HO, 0.55, quartic(0.2, 0.05), 0.5),
]


class TestIntersectionScan:
    """The H1-first scan returns exactly what the dense scan of both
    observables returns: same points, same brackets, same raises."""

    @pytest.mark.parametrize("h1, b1, h2, b2", NAMED_PAIRS)
    def test_named_pairs_match_dense_scan(self, h1, b1, h2, b2):
        got = scan_or_tangential(h1, b1, h2, b2)
        assert got == dense_scan_intersections(h1, b1, h2, b2)
        assert got and got[0] != "tangential"

    def test_empty_matches_dense_scan(self):
        assert scan_or_tangential(HO, 0.5, Q, 2.0) == []
        assert dense_scan_intersections(HO, 0.5, Q, 2.0) == []

    def test_tangential_raise_matches_dense_scan(self):
        got = scan_or_tangential(HO, 0.5, Q, 1.0)
        assert got[0] == "tangential" and got[1]
        assert got == dense_scan_intersections(HO, 0.5, Q, 1.0)

    def test_seeded_random_pairs_match_dense_scan(self):
        for h1, b1, h2, b2 in seeded_random_pairs():
            assert scan_or_tangential(h1, b1, h2, b2) == dense_scan_intersections(
                h1, b1, h2, b2
            ), (str(h1), b1, str(h2), b2)

    @pytest.mark.parametrize(
        "h1, b1, h2, b2",
        [
            (PEND, -0.5, P, 0.3),
            (PEND, 0.4, Q, 1.1),
            (P, 0.3, PEND, -0.5),
            (quartic(0.4, 0.1), 0.9, Q, 0.7),
            (HO, 0.5, Q, 2.0),
            (HO, 0.5, Q, 1.0),
        ]
        + [pair for pair in seeded_random_pairs() if pair[0].is_linear or pair[2].is_linear],
    )
    def test_search_along_a_straight_fiber_matches_the_scan(self, h1, b1, h2, b2):
        # along either straight side, sampled over its whole segment in the box
        want = scan_or_tangential(h1, b1, h2, b2)
        for h, b in [(h1, b1), (h2, b2)]:
            if not h.is_linear:
                continue
            line = trace_level_curve(h, b, seed_on_level(h, b))
            got = or_tangential(intersections_along, line, h1, b1, h2, b2)
            if want and want[0] == "tangential":
                # the line's seed (1, 0) is a sample and the touch point, so
                # the polyline sees the tangency (it misses one between two
                # samples, see below); Newton halves its distance to a
                # tangency and stops about 1e-7 from it, at a place that
                # depends on its start
                assert got[0] == "tangential" and len(got[1]) == len(want[1])
                assert np.allclose(got[1], want[1], rtol=0.0, atol=DEDUP_RADIUS)
                continue
            assert len(got) == len(want)
            assert [np.sign(x.bracket) for x in got] == [np.sign(x.bracket) for x in want]
            assert np.allclose(
                [x.point for x in got], [x.point for x in want], rtol=0.0, atol=1e-12
            )

    @pytest.mark.parametrize("h1, b1, h2, b2", NAMED_PAIRS + seeded_random_pairs())
    def test_arc_integrals_match_chart_quadrature(self, h1, b1, h2, b2):
        # on the same guides, between samples and the pair's crossings and
        # round the whole loop: straight arcs in closed form within 1e-13
        # and polar arcs from their radii within 1e-12 of the GK21 path,
        # relative above 1; other fibers take the GK21 path itself
        found = scan_or_tangential(h1, b1, h2, b2)
        crossings = [] if found and found[0] == "tangential" else [x.point for x in found]
        for h, b in [(h1, b1), (h2, b2)]:
            try:
                curve = trace_level_curve(h, b, seed_on_level(h, b))
            except SingularFiber:
                continue
            if not h.is_linear and curve.polar is None:
                continue
            n = curve.qs.size - 1
            ends = [curve.point(0), curve.point(n // 3), curve.point(2 * n // 3)]
            ends += [x for x in crossings if curve.distance(x) <= 1e-2]
            tol = 1e-13 if h.is_linear else 1e-12
            for a, d in [*itertools.permutations(ends, 2), (ends[1], ends[1])]:
                guide, _ = curve.arc(a, d, curve.locate(a), curve.locate(d))
                got = np.array(curve.arc_integrals(guide))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", QuadratureLimit)
                    want = np.array(chart_action(h, b, guide))
                assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))

    def test_scan_misses_a_pair_inside_one_cell(self):
        # the ellipse spans q in (0.005, 0.035), inside the cell column
        # [0, 0.04], so no grid node lies inside it: the scan sees no sign
        # change of H2 and returns nothing, while the sample at q = 0.0268
        # on p = 0.3 lies inside and the polyline finds both crossings
        ellipse = thin_ellipse(0.02, 0.015)
        line = trace_level_curve(P, 0.3, PhasePoint(0.0, 0.3))
        assert find_intersections(P, 0.3, ellipse, 0.5) == []
        got = intersections_along(line, P, 0.3, ellipse, 0.5)
        half_chord = 0.015 * math.sqrt(1.0 - 0.3**2)
        assert [x.point.q for x in got] == pytest.approx(
            [0.02 - half_chord, 0.02 + half_chord], abs=1e-12
        )

    def test_polyline_misses_a_pair_inside_one_sample_segment(self):
        # the samples of p = 0.3 from q = 0 lie 8/299 apart, at q = 0.0268
        # and 0.0535 on either side of the ellipse (0.03, 0.05), which holds
        # the grid nodes q = 0.04: the scan finds both crossings and the
        # polyline neither
        ellipse = thin_ellipse(0.04, 0.01)
        line = trace_level_curve(P, 0.3, PhasePoint(0.0, 0.3))
        assert np.sum((line.qs > 0.03) & (line.qs < 0.05)) == 0
        assert intersections_along(line, P, 0.3, ellipse, 0.5) == []
        got = find_intersections(P, 0.3, ellipse, 0.5)
        half_chord = 0.01 * math.sqrt(1.0 - 0.3**2)
        assert [x.point.q for x in got] == pytest.approx(
            [0.04 - half_chord, 0.04 + half_chord], abs=1e-12
        )
        assert all(abs(x.bracket) > 90.0 for x in got)
        # a tangency is the limit of such a pair: H - b keeps its sign at
        # the samples of q = 1 from (1, 0.3), none of which is (1, 0)
        line = trace_level_curve(Q, 1.0, PhasePoint(1.0, 0.3))
        assert intersections_along(line, Q, 1.0, HO, 0.5) == []
        got = scan_or_tangential(Q, 1.0, HO, 0.5)
        assert got[0] == "tangential"
        assert np.allclose(got[1], [(1.0, 0.0)], rtol=0.0, atol=DEDUP_RADIUS)


class TestActions:
    def test_vertical_segment_vanishes(self):
        c = trace_level_curve(Q, 0.3, PhasePoint(0.3, 0.0))
        val = action_along_fiber(c, PhasePoint(0.3, 0.5), PhasePoint(0.3, -0.7))
        assert val == pytest.approx(0.0, abs=1e-13)

    def test_horizontal_segment_closed_form(self):
        b1, b2 = 1.3, 0.4
        c = trace_level_curve(P, b2, PhasePoint(0.0, b2))
        val = action_along_fiber(c, PhasePoint(b2, b2), PhasePoint(b1, b2))
        assert val == pytest.approx(b2 * (b1 - b2), abs=1e-12)

    def test_full_loop_gauge_independent(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        start = PhasePoint(1.0, 0.0)
        plain = action_along_fiber(c, start, start)
        gauged = action_along_fiber(
            c, start, start,
            PrequantumForm(gauge=Observable.from_coeffs({(2, 0): 0.4, (1, 1): -0.9})),
        )
        assert plain == pytest.approx(math.pi, abs=1e-8)
        assert gauged == pytest.approx(plain, abs=1e-12)

    def test_loop_action_equals_enclosed_area_with_gauge(self):
        # ellipse (p^2 + 4 q^2)/2 = b: semi-axes sqrt(2b)/2, sqrt(2b); area pi*b
        h = Observable.from_coeffs({(2, 0): 2.0, (0, 2): 0.5})
        b = 0.7
        c = trace_level_curve(h, b, PhasePoint(math.sqrt(b / 2.0), 0.0))
        gauge = Observable.from_coeffs({(1, 1): 0.37, (0, 2): -0.21})
        val = action_along_fiber(c, c.point(0), c.point(0), PrequantumForm(gauge))
        assert val == pytest.approx(math.pi * b, abs=1e-8)

    def test_additivity_mod_loop(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        a = PhasePoint(1.0, 0.0)
        b = PhasePoint(0.0, -1.0)
        d = PhasePoint(-1.0, 0.0)
        s_ab = action_along_fiber(c, a, b)
        s_bd = action_along_fiber(c, b, d)
        s_ad = action_along_fiber(c, a, d)
        resid = (s_ab + s_bd - s_ad) % c.loop_action
        assert min(resid, c.loop_action - resid) < 1e-7

    def test_point_off_fiber_rejected(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        with pytest.raises(PointNotOnFiber):
            action_along_fiber(c, PhasePoint(0.5, 0.5), PhasePoint(1.0, 0.0))


PARABOLA = Observable.from_coeffs({(0, 2): 0.5, (1, 0): -1.0})  # p^2/2 - q


def parabola_point(b, p):
    return PhasePoint(0.5 * p * p - b, p)


class TestFiberArc:
    def test_closed_arcs_run_with_the_flow_and_sum_to_the_period(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        a, b = PhasePoint(0.6, 0.8), PhasePoint(-0.8, -0.6)
        s_a, s_b = c.locate(a), c.locate(b)
        ab, sign_ab = c.arc(a, b, s_a, s_b)
        ba, sign_ba = c.arc(b, a, s_b, s_a)
        assert sign_ab == sign_ba == 1
        assert tuple(ab[0]) == a and tuple(ab[-1]) == b
        assert tuple(ba[0]) == b and tuple(ba[-1]) == a
        t_ab, t_ba = chart_action(HO, 0.5, ab)[1], chart_action(HO, 0.5, ba)[1]
        # on the unit circle the flow turns clockwise at unit angular speed
        assert t_ab == pytest.approx(math.atan2(0.8, 0.6) - math.atan2(-0.6, -0.8), abs=1e-12)
        assert t_ab + t_ba == pytest.approx(c.period, abs=1e-12)

    def test_closed_arc_from_a_point_to_itself_is_the_loop(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        a = PhasePoint(0.6, 0.8)
        guide, sign = c.arc(a, a, c.locate(a), c.locate(a))
        assert sign == 1
        action, time, _ = chart_action(HO, 0.5, guide)
        assert action == pytest.approx(c.loop_action, abs=1e-12)
        assert time == pytest.approx(c.period, abs=1e-12)

    def test_open_arc_against_the_flow_is_the_reversed_forward_guide(self):
        b = 0.3
        c = trace_level_curve(PARABOLA, b, parabola_point(b, 0.0))
        a, d = parabola_point(b, -0.5), parabola_point(b, 0.8)
        forward, sign_f = c.arc(a, d, c.locate(a), c.locate(d))
        backward, sign_b = c.arc(d, a, c.locate(d), c.locate(a))
        # the flow (H_p, -H_q) = (p, 1) runs towards larger p
        assert (sign_f, sign_b) == (1, -1)
        assert np.array_equal(forward, backward)
        assert tuple(forward[0]) == a and tuple(forward[-1]) == d

    def test_open_action_is_antisymmetric(self):
        # p dq = p^2 dp along q = p^2/2 - b
        b = 0.3
        c = trace_level_curve(PARABOLA, b, parabola_point(b, 0.0))
        a, d = parabola_point(b, -0.5), parabola_point(b, 0.8)
        forward = action_along_fiber(c, a, d)
        assert forward == pytest.approx((0.8**3 + 0.5**3) / 3, abs=1e-13)
        assert action_along_fiber(c, d, a) == -forward


def circle_arc(b, theta_from, sweep, n=40, wobble=0.0):
    """Guide along the oscillator fiber H = b in flow (clockwise) direction;
    interior points are pushed off the fiber radially by ``wobble``."""
    theta = theta_from - np.linspace(0.0, sweep, n)
    radius = math.sqrt(2 * b) * (1.0 + wobble * np.sin(7 * theta))
    radius[0] = radius[-1] = math.sqrt(2 * b)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)


def parent_walk_scaffold(curve, s_from, s_to):
    """Closed-curve guide built by walking the sample grid point by point."""
    s = curve.arclength
    total = curve.total_arclength
    span = (s_to - s_from) % total
    if span == 0.0:
        span = total
    stop = s_from + span
    svals = [s_from]
    cur = s_from
    idx = int(np.searchsorted(s, s_from % total, side="right"))
    offset = s_from - (s_from % total)
    while True:
        if idx >= len(s) - 1:
            idx = 0
            offset += total
        sv = s[idx] + offset
        if sv >= stop - 1e-12:
            break
        if sv > cur + 1e-12:
            svals.append(sv)
            cur = sv
        idx += 1
    svals.append(stop)
    return np.array([_interp_point(curve, v % total) for v in svals])


def _interp_point(curve, sv):
    """The sample chain's point at arclength ``sv``, by its own segment."""
    s = curve.arclength
    i = min(max(int(np.searchsorted(s, sv, side="right")) - 1, 0), len(s) - 2)
    t = (sv - s[i]) / (s[i + 1] - s[i])
    return (
        curve.qs[i] + t * (curve.qs[i + 1] - curve.qs[i]),
        curve.ps[i] + t * (curve.ps[i + 1] - curve.ps[i]),
    )


class TestChartQuadrature:
    @pytest.mark.parametrize("theta_from, sweep", [
        (0.3, 0.8), (2.0, 2.5), (-1.0, 4.0), (1.2, 5.9),
    ])
    def test_oscillator_arc_is_circular_segment(self, theta_from, sweep):
        # p dq along the arc, closed by the chord back to the start, encloses
        # the circular segment r^2 (phi - sin phi) / 2; the flow turns at
        # unit angular speed, so the flow time is the swept angle
        b = 0.7
        guide = circle_arc(b, theta_from, sweep, wobble=1e-3)
        (qa, pa), (qb, pb) = guide[0], guide[-1]
        chord = 0.5 * (pa + pb) * (qa - qb)
        segment = b * (sweep - math.sin(sweep))
        action, time, _ = chart_action(HO, b, guide)
        assert action + chord == pytest.approx(segment, abs=1e-13)
        assert time == pytest.approx(sweep, abs=1e-12)

    @pytest.mark.parametrize("b", [0.05, 0.5, 1.3])
    def test_oscillator_loop_is_2_pi_b(self, b):
        guide = circle_arc(b, 0.4, 2 * math.pi, n=90, wobble=2e-3)
        guide[-1] = guide[0]
        action, time, _ = chart_action(HO, b, guide)
        assert action == pytest.approx(2 * math.pi * b, abs=1e-13)
        assert time == pytest.approx(2 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("b", [-0.5, 0.4])
    def test_pendulum_loop_matches_loop_data(self, b):
        seed = PhasePoint(math.acos(-b), 0.0)
        c = trace_level_curve(PEND, b, seed)
        guide = c.scaffold(0.0, 0.0)
        guide[0] = guide[-1] = c.point(0)
        action, period = loop_data(PEND, b, seed)
        got_action, got_time, _ = chart_action(PEND, b, guide)
        assert got_action == pytest.approx(action, abs=1e-11)
        assert got_time == pytest.approx(period, abs=1e-10)

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.9])
    def test_linear_fiber_is_exact(self, theta):
        # q cos(theta) + p sin(theta) = b: p is linear along the fiber, so
        # p dq integrates to the trapezoid, and dq/dt = sin(theta)
        line = Observable.linear(theta)
        b = 0.45
        ts = np.linspace(-1.3, 2.1, 12)
        guide = np.stack(
            [b * math.cos(theta) - ts * math.sin(theta),
             b * math.sin(theta) + ts * math.cos(theta)], axis=1,
        )
        (qa, pa), (qb, pb) = guide[0], guide[-1]
        expected = 0.5 * (pa + pb) * (qb - qa)
        action, time, _ = chart_action(line, b, guide)
        assert action == pytest.approx(expected, abs=1e-14)
        assert time == pytest.approx((qb - qa) / math.sin(theta), abs=1e-13)

    @pytest.mark.parametrize("s_from, s_to", [
        (5.1, 0.7),           # wraps past the closure point
        (2.0, 2.0),           # the whole loop
        (None, 3.3),          # starts exactly on a sample
        (None, None),         # whole loop from a sample
    ])
    def test_closed_scaffold_matches_walk(self, s_from, s_to):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        s_from = float(c.arclength[137]) if s_from is None else s_from
        s_to = s_from if s_to is None else s_to
        got = c.scaffold(s_from, s_to)
        want = parent_walk_scaffold(c, s_from, s_to)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("theta_from, sweep", [(0.3, 0.8), (-1.0, 4.0), (1.2, 5.9)])
    def test_oscillator_arc_time_is_level_free(self, theta_from, sweep):
        # ends moving along grad H / |grad H|^2 move radially and keep their
        # angles, and the flow turns at unit angular speed on every level
        guide = circle_arc(0.7, theta_from, sweep, wobble=1e-3)
        assert chart_action(HO, 0.7, guide)[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("b", [-0.5, 0.4])
    def test_pendulum_loop_time_derivative_is_dT_db(self, b):
        # over a closed loop the end terms cancel and dT/db is the slope of
        # the period, here against a Richardson difference of loop_data
        def period(level):
            return loop_data(PEND, level, PhasePoint(math.acos(-level), 0.0))[1]

        def central(d):
            return (period(b + d) - period(b - d)) / (2 * d)

        c = trace_level_curve(PEND, b, PhasePoint(math.acos(-b), 0.0))
        guide = c.scaffold(0.0, 0.0)
        guide[0] = guide[-1] = c.point(0)
        reference = (4 * central(1e-3) - central(2e-3)) / 3
        assert chart_action(PEND, b, guide)[2] == pytest.approx(reference, abs=1e-7)

    def test_off_fiber_guide_rejected(self):
        # |p| > |q| picks p(q), but no p solves H(1.5, p) = 0.5
        guide = np.array([[1.5, 2.0], [1.65, 2.0], [1.8, 2.0]])
        with pytest.raises(PointNotOnFiber):
            chart_action(HO, 0.5, guide)

    @staticmethod
    def _polygon(k):
        # closed k-gon on the unit circle (H = 1/2), run with the flow
        theta = 0.3 + 2 * math.pi * np.arange(k + 1) / k
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)[::-1].copy()

    def test_coarse_polygon_guide_rejected(self):
        # the normal turns by 72 degrees per side, so a chart switch at a
        # vertex can sit past the fold of the chart it leaves; the action
        # came out pi - 0.1123 and the time 2 pi - 1.406, with no error
        with pytest.raises(CoarseGuide, match=r"72\.0 degrees along guide segment 0"):
            chart_action(HO, 0.5, self._polygon(5))

    def test_twelve_gon_guide_is_accepted(self):
        action, time, _ = chart_action(HO, 0.5, self._polygon(12))
        assert action == pytest.approx(math.pi, abs=1e-12)
        assert time == pytest.approx(2 * math.pi, abs=1e-12)

    def test_panel_limit_warns(self):
        with pytest.warns(QuadratureLimit):
            _adaptive_gk21(lambda x: np.cos(1e5 * x), 0.0, 1.0)


class TestReferencePoints:
    def test_ho_flat_lagrangian(self):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        x = reference_point(c, ReferenceLagrangian.flat())
        assert x.q == pytest.approx(-1.0, abs=1e-10)
        assert x.p == pytest.approx(0.0, abs=1e-10)

    def test_momentum_fiber_diagonal_lagrangian(self):
        c = trace_level_curve(P, 0.4, PhasePoint(0.0, 0.4))
        x = reference_point(c, ReferenceLagrangian.line(1.0))
        assert x.q == pytest.approx(0.4, abs=1e-12)
        assert x.p == pytest.approx(0.4, abs=1e-12)

    def test_lagrangian_is_gauge_independent(self):
        # the graph is purely geometric: a gauge cannot move it
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        lam = ReferenceLagrangian.flat()
        assert reference_point(c, lam) == reference_point(c, lam)

    def test_missing_reference(self):
        c = trace_level_curve(P, 0.4, PhasePoint(0.0, 0.4))
        with pytest.raises(NoReferencePoint):
            reference_point(c, ReferenceLagrangian.flat())


def _monomial_sum(obs, q, p, dq_order, dp_order):
    """The plain sum of c q^a p^b over the derivative's table, power-0
    factors included, from a zero start: the reference for ``deriv``."""
    table = obs._deriv_table(dq_order, dp_order)
    if isinstance(q, np.ndarray) or isinstance(p, np.ndarray):
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        out = np.zeros(np.broadcast(q, p).shape)
        for a, b, c in table:
            out = out + c * q**a * p**b
        return out
    out = 0.0
    for a, b, c in table:
        out += c * q**a * p**b
    return out


def _loop_hits(qs, phi):
    """The segment-by-segment walk: the reference for ``_polyline_hits``."""
    hits = []
    for i in range(len(phi) - 1):
        a, bb = phi[i], phi[i + 1]
        if a == 0.0:
            hits.append(float(qs[i]))
        elif a * bb < 0.0:
            t = a / (a - bb)
            hits.append(float(qs[i] + t * (qs[i + 1] - qs[i])))
    if phi[-1] == 0.0:
        hits.append(float(qs[-1]))
    return hits


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (
        x.shape == y.shape
        and np.array_equal(x, y, equal_nan=True)
        and np.array_equal(np.signbit(x), np.signbit(y))
    )


class TestKernels:
    @given(
        monomials=st.sets(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6
        ),
        order=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        specials=st.lists(
            st.tuples(
                st.integers(0, 11), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
            ),
            max_size=4,
        ),
        shape=st.sampled_from(["vector", "grid", "scalar", "q-only grid"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_deriv_matches_the_plain_monomial_sum(
        self, monomials, order, seed, sizes, specials, shape
    ):
        # generic coefficients and points from the seed; -0.0, NaN and inf
        # put in at drawn places
        rng = np.random.default_rng(seed)
        if shape == "q-only grid":
            monomials = {(a, 0) for a, _ in monomials}
        obs = Observable.from_coeffs(
            {k: rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0) for k in sorted(monomials)}
        )
        points = rng.uniform(-50.0, 50.0, sum(sizes))
        for i, x in specials:
            points[i % len(points)] = x
        q, p = points[: sizes[0]], points[sizes[0]:]
        if shape == "vector":
            p = np.resize(p, sizes[0])
        elif shape == "scalar":
            q, p = float(q[0]), float(p[0])
        else:
            q, p = q[:, None], p[None, :]
        with np.errstate(all="ignore"):
            got = obs.deriv(q, p, *order)
            ref = _monomial_sum(obs, q, p, *order)
        assert type(got) is type(ref)
        assert _same_bits(got, ref)

    @given(
        phi=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_graph_hits_match_the_segment_walk(self, phi):
        phi = np.array(phi)
        qs = np.cumsum(np.linspace(0.1, 0.3, len(phi))) - 1.0
        ps = np.sin(3.0 * qs)
        hits_q, hits_p = geometry._polyline_hits(phi, qs, ps)
        assert hits_q.tolist() == _loop_hits(qs, phi)
        assert hits_p.tolist() == _loop_hits(ps, phi)

    @pytest.mark.parametrize(
        "obs, b, start, lam",
        [
            (HO, 0.5, PhasePoint(1.0, 0.0), ReferenceLagrangian.flat()),
            (HO, 0.5, PhasePoint(1.0, 0.0), ReferenceLagrangian.line(0.5, 0.2)),
            (PEND, 0.3, PhasePoint(1.2, 0.0), ReferenceLagrangian.flat()),
            (P, 0.4, PhasePoint(0.0, 0.4), ReferenceLagrangian.line(1.0)),
        ],
        ids=["ho-flat", "ho-line", "pendulum-flat", "momentum-diagonal"],
    )
    def test_lagrangian_intersections_match_the_segment_walk(
        self, monkeypatch, obs, b, start, lam
    ):
        c = trace_level_curve(obs, b, start)
        phi = c.ps - np.asarray(lam.value(c.qs))
        if lam == ReferenceLagrangian.flat():
            # the traced curve starts on p = 0: a sample on the Lagrangian
            assert np.any(phi == 0.0)
        assert geometry._polyline_hits(phi, c.qs)[0].tolist() == _loop_hits(c.qs, phi)
        got = geometry.lagrangian_intersections(c, lam)
        monkeypatch.setattr(
            geometry, "_polyline_hits", lambda phi, qs: [np.array(_loop_hits(qs, phi))]
        )
        assert got == geometry.lagrangian_intersections(c, lam)


class TestParsing:
    def test_observable_from_text(self):
        obs = Observable.from_text("1/2 q^2 + 1/2 p^2")
        assert obs.value(1.0, 1.0) == pytest.approx(1.0)
        assert Observable.from_text("pendulum").kind == "pendulum"

    def test_fiber_csv_dump(self, tmp_path):
        c = trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0))
        path = tmp_path / "fiber.csv"
        c.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "q,p,arclength"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[1] == 3

    def test_moved_fiber_csv_dump(self, tmp_path):
        # a moved fiber writes the same polyline columns as a traced one
        c = moved_fiber(trace_level_curve(HO, 0.5, PhasePoint(1.0, 0.0)), 0.6)
        path = tmp_path / "fiber.csv"
        c.to_csv(path)
        assert path.read_text().splitlines()[0] == "q,p,arclength"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, np.stack([c.qs, c.ps, c.arclength], axis=1))
