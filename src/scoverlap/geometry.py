"""Symplectic geometry of the phase plane.

Observables (Hamiltonians with analytic derivatives), level-curve fibers
sampled on the level (straight lines in closed form, curved fibers walked
by predictor-corrector continuation and projected), fiber intersections,
and line integrals of the prequantization one-form ``p dq + df``; the ODE
of ``loop_data`` only verifies them.

Conventions, fixed once for the whole package:
  * symplectic form  dq ^ dp,
  * Poisson bracket  {f, g} = f_q g_p - f_p g_q   (so {q, p} = 1),
  * Hamiltonian flow direction (H_p, -H_q); closed fibers are traversed in
    flow direction and their loop action equals the enclosed area.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CoarseGuide,
    NoReferencePoint,
    PointNotOnFiber,
    QuadratureLimit,
    SingularFiber,
    TangentialIntersection,
)
from .monomials import format_monomials, parse_monomials, to_float_table

TRANS_TOL = 1e-6
DEDUP_RADIUS = 1e-6
DOMAIN_BOUND = 8.0

_PROJ_TOL = 1e-14
# |H - b| within this times the sum of |terms| of H - b is rounding: near
# the box H's terms can be large enough that |H - b| never reaches _PROJ_TOL
_ROUNDING = 4 * math.ulp(1.0)
_GRAD_FLOOR = 1e-9
_LOOP_RTOL, _LOOP_ATOL = 1e-12, 1e-13  # DOP853 tolerances of the verifier ``loop_data``
# ``_walk``: first and largest step, and the cosines of the normal's turn
# over a step below which the step grows and above which it halves
_WALK_STEP, _WALK_MAX_STEP = 0.02, 0.5
_WALK_GROW, _WALK_SHRINK = math.cos(math.radians(2.9)), math.cos(math.radians(8.6))
_MAX_ARCLENGTH = 300.0  # flow arclength a trace covers in each direction
_SCAN_CELLS = 400  # cells per side of find_intersections' grid over the box
_ON_FIBER_TOL = 1e-6  # |H - b| / max(1, |b|) of action_along_fiber's endpoints
_TRACE_SAMPLES = 600  # about this many samples per traced fiber
_MOVE_STEPS = 12  # Newton steps allowed per point moved onto a level
# cosine of the largest turn of the fiber's normal along one segment of a
# guide that chart quadrature accepts (see ``_chart_runs``)
_CHART_TURN = math.cos(math.radians(45.0))
# ``polar_loop``: most angles, and the relative change of A and T
_POLAR_MAX, _POLAR_RTOL = 4096, 1e-13
_GUIDE_ANGLES = 160  # radii of a ``polar_guide``, which says why 160


class PhasePoint(NamedTuple):
    q: float
    p: float


@dataclass(frozen=True)
class Observable:
    """A Hamiltonian on the phase plane with analytic partials through order 2.

    ``kind`` is ``"polynomial"`` (coefficient table over monomials q^a p^b)
    or ``"pendulum"`` (p^2/2 - cos q).
    """

    kind: str
    coeffs: tuple[tuple[tuple[int, int], float], ...] = ()

    # -- constructors -------------------------------------------------------
    @staticmethod
    def from_coeffs(table: dict[tuple[int, int], float]) -> "Observable":
        items = tuple(sorted((k, float(v)) for k, v in table.items() if v != 0.0))
        return Observable(kind="polynomial", coeffs=items)

    @staticmethod
    def from_text(text: str) -> "Observable":
        if text.strip() == "pendulum":
            return Observable.pendulum()
        return Observable.from_coeffs(to_float_table(parse_monomials(text)))

    @staticmethod
    def pendulum() -> "Observable":
        return Observable(kind="pendulum")

    @staticmethod
    def position() -> "Observable":
        return Observable.from_coeffs({(1, 0): 1.0})

    @staticmethod
    def momentum() -> "Observable":
        return Observable.from_coeffs({(0, 1): 1.0})

    @staticmethod
    def harmonic(omega: float = 1.0, center_q: float = 0.0) -> "Observable":
        """((p)^2 + omega^2 (q - center_q)^2) / 2, expanded."""
        w2 = omega * omega
        return Observable.from_coeffs(
            {
                (0, 2): 0.5,
                (2, 0): 0.5 * w2,
                (1, 0): -w2 * center_q,
                (0, 0): 0.5 * w2 * center_q * center_q,
            }
        )

    @staticmethod
    def linear(theta: float) -> "Observable":
        """q cos(theta) + p sin(theta)."""
        return Observable.from_coeffs({(1, 0): math.cos(theta), (0, 1): math.sin(theta)})

    # -- evaluation ---------------------------------------------------------
    def _deriv_table(self, dq_order: int, dp_order: int):
        key = ("_tab", dq_order, dp_order)
        tab = self.__dict__.get(key)
        if tab is None:
            items = []
            for (a, b), c in self.coeffs:
                if a < dq_order or b < dp_order:
                    continue
                fac = c
                for j in range(dq_order):
                    fac *= a - j
                for j in range(dp_order):
                    fac *= b - j
                items.append((a - dq_order, b - dp_order, fac))
            tab = tuple(items)
            self.__dict__[key] = tab
        return tab

    def deriv(self, q, p, dq_order: int = 0, dp_order: int = 0):
        if isinstance(q, np.ndarray) or isinstance(p, np.ndarray):
            return self._deriv_array(q, p, dq_order, dp_order)
        if self.kind == "polynomial":
            # each term is (c * q**a) * p**b with a power-0 factor left out:
            # x**0 is exactly 1 for every x, NaN and inf included, and x * 1
            # is x, so the sum is the same to the bit
            out = 0.0
            for a, b, c in self._deriv_table(dq_order, dp_order):
                if a:
                    c = c * q**a
                if b:
                    c = c * p**b
                out += c
            return out
        if self.kind == "pendulum":
            key = (dq_order, dp_order)
            if key == (0, 0):
                return p * p / 2.0 - math.cos(q)
            if key == (1, 0):
                return math.sin(q)
            if key == (0, 1):
                return p
            if key == (2, 0):
                return math.cos(q)
            if key == (0, 2):
                return 1.0
            if key == (1, 1):
                return 0.0
            raise ValueError(f"derivative order {key} not supported")
        raise ValueError(f"unknown observable kind {self.kind!r}")

    def _deriv_array(self, q, p, dq_order: int, dp_order: int):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if self.kind == "polynomial":
            out = np.zeros(np.broadcast(q, p).shape)
            for a, b, c in self._deriv_table(dq_order, dp_order):
                # as in ``deriv``: no power-0 factor, the same bits
                if a:
                    c = c * q**a
                if b:
                    c = c * p**b
                out = out + c
            return out
        if self.kind == "pendulum":
            key = (dq_order, dp_order)
            zero = np.zeros(np.broadcast(q, p).shape)
            if key == (0, 0):
                return p * p / 2.0 - np.cos(q) + zero
            if key == (1, 0):
                return np.sin(q) + zero
            if key == (0, 1):
                return p + zero
            if key == (2, 0):
                return np.cos(q) + zero
            if key == (0, 2):
                return 1.0 + zero
            if key == (1, 1):
                return zero
            raise ValueError(f"derivative order {key} not supported")
        raise ValueError(f"unknown observable kind {self.kind!r}")

    def value(self, q, p):
        return self.deriv(q, p, 0, 0)

    def dq(self, q, p):
        return self.deriv(q, p, 1, 0)

    def dp(self, q, p):
        return self.deriv(q, p, 0, 1)

    def magnitude(self, q, p):
        """The sum of the absolute values of H's terms at (q, p), the scale of
        the rounding of ``value`` there."""
        if self.kind == "pendulum":
            return p * p / 2.0 + np.abs(np.cos(q))
        q, p = np.abs(q), np.abs(p)
        return sum(abs(c) * q**a * p**b for (a, b), c in self.coeffs)

    def gradient(self, x: PhasePoint) -> tuple[float, float]:
        return float(self.dq(x[0], x[1])), float(self.dp(x[0], x[1]))

    def hessian(self, x: PhasePoint) -> np.ndarray:
        q, p = x
        hqq = float(self.deriv(q, p, 2, 0))
        hqp = float(self.deriv(q, p, 1, 1))
        hpp = float(self.deriv(q, p, 0, 2))
        return np.array([[hqq, hqp], [hqp, hpp]])

    # -- structure queries ---------------------------------------------------
    def coeff_table(self) -> dict[tuple[int, int], float]:
        if self.kind == "polynomial":
            return dict(self.coeffs)
        raise ValueError(f"{self.kind} observable has no coefficient table")

    @property
    def is_linear(self) -> bool:
        try:
            table = self.coeff_table()
        except ValueError:
            return False
        return all(a + b <= 1 for a, b in table)

    def momentum_decomposition(self) -> dict[int, Callable[[np.ndarray], np.ndarray]]:
        """Split H = sum_b c_b(q) p^b into momentum-power slices."""
        if self.kind == "pendulum":
            return {0: lambda qs: -np.cos(qs), 2: lambda qs: 0.5 * np.ones_like(qs)}
        slices: dict[int, dict[int, float]] = {}
        for (a, b), c in self.coeffs:
            slices.setdefault(b, {})[a] = c
        out = {}
        for b, qtab in slices.items():
            items = tuple(qtab.items())

            def fn(qs, items=items):
                qs = np.asarray(qs, dtype=float)
                # even powers from |q|: numpy's q**a can round differently
                # at q and -q, which would break an exact reflection symmetry
                return sum(c * (qs if a % 2 else np.abs(qs)) ** a for a, c in items)

            out[b] = fn
        return out

    def __str__(self) -> str:
        if self.kind == "pendulum":
            return "pendulum"
        return format_monomials(self.coeff_table())


def _bracket_field(h1: Observable, h2: Observable, q, p):
    """{H1, H2} = H1_q H2_p - H1_p H2_q at scalar or array points."""
    return h1.dq(q, p) * h2.dp(q, p) - h1.dp(q, p) * h2.dq(q, p)


def poisson_bracket(h1: Observable, h2: Observable, x: PhasePoint) -> float:
    """{H1, H2}(x) with the convention {q, p} = 1."""
    return float(_bracket_field(h1, h2, x[0], x[1]))


@dataclass(frozen=True)
class PrequantumForm:
    """alpha = p dq + df with a scalar gauge function f (default 0).

    Only endpoint values of f enter line integrals: the exact df part of any
    segment integral is f(end) - f(start).
    """

    gauge: Observable | None = None

    def gauge_value(self, x: PhasePoint) -> float:
        if self.gauge is None:
            return 0.0
        return float(self.gauge.value(x[0], x[1]))


@dataclass(frozen=True)
class ReferenceLagrangian:
    """Reference Lagrangian given as a graph p = lam(q)."""

    lam: Observable

    @staticmethod
    def flat() -> "ReferenceLagrangian":
        return ReferenceLagrangian(Observable.from_coeffs({}))

    @staticmethod
    def line(slope: float, intercept: float = 0.0) -> "ReferenceLagrangian":
        return ReferenceLagrangian(
            Observable.from_coeffs({(1, 0): slope, (0, 0): intercept})
        )

    @staticmethod
    def from_text(text: str) -> "ReferenceLagrangian":
        return ReferenceLagrangian(Observable.from_text(text))

    def value(self, q) -> float:
        return self.lam.value(q, 0.0)

    def slope(self, q) -> float:
        return self.lam.dq(q, 0.0)

    def curvature(self, q) -> float:
        return self.lam.deriv(q, 0.0, 2, 0)


PolarLoop = tuple[PhasePoint, np.ndarray]  # centre z and radii at equispaced angles


@dataclass(frozen=True)
class FiberCurve:
    """A level set {H = b} as a polyline of samples in flow direction.

    ``trace_level_curve`` (from a continuation walk) and ``moved_fiber``
    both make one.  Every sample lies on the level to |H - b| <= 1e-14
    max(1, |b|), or where H's terms are too large for that, to rounding
    (``_newton_onto_level``).  ``arclength`` is the cumulative chord
    length.  Closed curves wrap: the final sample repeats the first.  Open
    curves are truncated at the domain box.

    A closed curve the ray guard accepts is a polar object: ``polar`` holds
    ``polar_loop``'s (loop action, period, (z, radii)), the radii at N =
    160 2^k equispaced angles about the centre z, and the samples are those
    ray points, clockwise (the flow's sense, since H_r > 0).  Its
    ``loop_action`` and ``period`` are the polar rule's, and its arc
    integrals come from the trigonometric interpolant of the radii
    (``arc_integrals``).  A refused closed curve keeps its traced samples
    and takes both by ``chart_action``, the loop integrals on their first
    read.  An open curve has neither (None).
    """

    observable: Observable
    level: float
    qs: np.ndarray
    ps: np.ndarray
    arclength: np.ndarray
    closed: bool
    polar: tuple[float, float, PolarLoop] | None = None

    @cached_property
    def _loop(self) -> tuple[float | None, float | None]:
        if self.polar is not None:
            return self.polar[:2]
        if not self.closed:
            return None, None
        return chart_action(self.observable, self.level, np.column_stack([self.qs, self.ps]))[:2]

    loop_action = property(lambda self: self._loop[0])
    period = property(lambda self: self._loop[1])

    def arc_integrals(self, guide: np.ndarray) -> tuple[float, float, float]:
        """(integral of p dq, flow time, its level derivative dT/db) along
        the arc ``guide`` of this fiber, which runs in flow direction from
        its first entry to its last, both exact on-fiber points (``arc``).

        The one dispatch of arc integrals: a straight fiber's in closed
        form (``_line_integrals``), a polar fiber's from its radii
        (``_polar_integrals``), any other's by ``chart_action``, whose
        convention (both ends moving normal to the fiber) all three share.
        """
        if self.observable.is_linear:
            return _line_integrals(self.observable, guide[0], guide[-1])
        if self.polar is not None:
            return self._polar_integrals(guide[0], guide[-1])
        return chart_action(self.observable, self.level, guide)

    @cached_property
    def _polar_series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The trigonometric interpolants of r^2, r / H_r and (H_r - r H_rr)
        / H_r^3 on the held rays, from one FFT: their mean values, and the
        coefficients of the periodic part of their antiderivatives at
        wavenumbers k = 1 .. N/2 (the Nyquist term counted once)."""
        _, _, (z, r) = self.polar
        h, n = self.observable, r.size
        theta = 2 * np.pi * np.arange(n) / n
        c, s = np.cos(theta), np.sin(theta)
        q, p = z.q + r * c, z.p + r * s
        h_r = h.dq(q, p) * c + h.dp(q, p) * s
        hqq, hqp, hpp = (h.deriv(q, p, i, 2 - i) for i in (2, 1, 0))
        h_rr = hqq * c * c + 2 * hqp * c * s + hpp * s * s
        coef = np.fft.rfft([r * r, r / h_r, (h_r - r * h_rr) / h_r**3], axis=1) / n
        k = np.arange(1, n // 2 + 1)
        weight = np.where(2 * k < n, 2.0, 1.0) / (1j * k)
        return coef[:, 0].real, coef[:, 1:] * weight, k

    def _polar_integrals(self, a, b) -> tuple[float, float, float]:
        """``arc_integrals`` on a polar fiber, from the ray at angle
        theta_a back (clockwise) to theta_b, over span = theta_a - theta_b
        mod 2 pi (2 pi where the ends share their angle).  With X, Y the
        offsets from z: p dq = z_p dq + d(XY)/2 - r^2 dtheta / 2, and the
        flow turns at dtheta/dt = -H_r / r, so

          S = z_p [q] + [XY] / 2 + 1/2 int r^2,    T = int r / H_r,

        integrals over (theta_a - span, theta_a).  At a fixed angle r moves
        by 1 / H_r, so dT/db is int (H_r - r H_rr) / H_r^3 plus, at each
        end, the flow time between that radial motion and the normal one,
        (Y H_q - X H_p) / (R H_r |grad H|^2), added at b and subtracted at a.
        Each integral is that of the interpolant, exact between the ends.
        """
        _, _, (z, _) = self.polar
        mean, series, k = self._polar_series
        (xa, ya), (xb, yb) = (a[0] - z.q, a[1] - z.p), (b[0] - z.q, b[1] - z.p)
        ta, tb = math.atan2(ya, xa), math.atan2(yb, xb)
        span = (ta - tb) % (2 * np.pi) or 2 * np.pi
        r2, time, dtime = mean * span + (series @ (np.exp(1j * k * ta) - np.exp(1j * k * tb))).real

        def end(x, u, v):  # at the end x, offset (u, v) from z
            hq, hp = self.observable.gradient(x)
            return (v * hq - u * hp) / ((u * hq + v * hp) * (hq * hq + hp * hp))

        action = z.p * (b[0] - a[0]) + 0.5 * (xb * yb - xa * ya) + 0.5 * r2
        return float(action), float(time), float(dtime + end(b, xb, yb) - end(a, xa, ya))

    @property
    def total_arclength(self) -> float:
        return float(self.arclength[-1])

    def point(self, i: int) -> PhasePoint:
        return PhasePoint(float(self.qs[i]), float(self.ps[i]))

    def locate(self, x: PhasePoint) -> float:
        """Arclength parameter of the sample polyline point closest to ``x``."""
        return self._closest(x)[0]

    def distance(self, x: PhasePoint) -> float:
        """Distance from ``x`` to the sample polyline."""
        return math.sqrt(self._closest(x)[1])

    def _closest(self, x: PhasePoint) -> tuple[float, float]:
        """(arclength, squared distance) of the polyline point closest to
        ``x`` on the two segments beside the nearest sample."""
        i = int(np.argmin((self.qs - x[0]) ** 2 + (self.ps - x[1]) ** 2))
        best_s = float(self.arclength[i])
        best_d2 = (self.qs[i] - x[0]) ** 2 + (self.ps[i] - x[1]) ** 2
        for j0 in (i - 1, i):
            j1 = j0 + 1
            if j0 < 0 or j1 >= len(self.qs):
                continue
            aq, ap = self.qs[j0], self.ps[j0]
            bq, bp = self.qs[j1], self.ps[j1]
            dq, dp = bq - aq, bp - ap
            seg2 = dq * dq + dp * dp
            if seg2 == 0.0:
                continue
            t = ((x[0] - aq) * dq + (x[1] - ap) * dp) / seg2
            t = min(1.0, max(0.0, t))
            cq, cp = aq + t * dq, ap + t * dp
            d2 = (cq - x[0]) ** 2 + (cp - x[1]) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best_s = float(
                    self.arclength[j0] + t * (self.arclength[j1] - self.arclength[j0])
                )
        return best_s, best_d2

    def arc(
        self, a: PhasePoint, b: PhasePoint, s_a: float, s_b: float
    ) -> tuple[np.ndarray, int]:
        """(guide, sign) of the fiber arc from the on-fiber point a, at
        arclength parameter ``s_a``, to b at ``s_b``: the only place an arc is
        oriented.

        The guide runs in flow direction, with the exact points a and b as its
        ends; ``sign`` is +1 when a -> b runs with the flow and -1 when it runs
        against it, so a signed integral (or tangency count) from a to b is
        ``sign`` times the one over the guide.  A closed curve always gives
        +1: the arc runs forward from a, wrapping, and is the whole loop when
        s_a == s_b.  An open curve's guide runs from the earlier parameter to
        the later one.
        """
        forward = self.closed or s_b >= s_a
        if not forward:
            a, b, s_a, s_b = b, a, s_b, s_a
        guide = self.scaffold(s_a, s_b)
        guide[0], guide[-1] = a, b
        return guide, 1 if forward else -1

    def scaffold(self, s_from: float, s_to: float) -> np.ndarray:
        """Polyline guide points covering the forward arc s_from -> s_to.

        On open curves s_from <= s_to.  On closed curves the arc wraps, and
        is the whole loop when s_from == s_to: it is read off the samples
        run twice round, from s_from taken modulo the loop's length.  The
        guide is every sample more than 1e-12 inside the arc, between the
        chain's points at s_from and s_to (it guides chart quadrature and
        the tangency count; ``arc`` sets the exact endpoints).
        """
        s, qs, ps = self.arclength, self.qs, self.ps
        if self.closed:
            total = self.total_arclength
            s_from %= total
            s_to = s_from + ((s_to - s_from) % total or total)
            s = np.concatenate([s, s[1:] + total])
            qs, ps = np.concatenate([qs, qs[1:]]), np.concatenate([ps, ps[1:]])
        inner = (s > s_from + 1e-12) & (s < s_to - 1e-12)
        ends = [(np.interp(sv, s, qs), np.interp(sv, s, ps)) for sv in (s_from, s_to)]
        return np.vstack([ends[0], np.stack([qs[inner], ps[inner]], axis=1), ends[1]])

    def to_csv(self, path) -> None:
        """Write one row per sample: q, p, arclength."""
        data = np.column_stack([self.qs, self.ps, self.arclength])
        np.savetxt(path, data, delimiter=",", header="q,p,arclength", comments="")


def _polyline_fiber(
    h: Observable, b: float, qs: np.ndarray, ps: np.ndarray, closed: bool, polar=None
) -> FiberCurve:
    """The fiber {H = b} sampled at (qs, ps), with chord-length arclength."""
    arclength = np.zeros(qs.size)
    np.cumsum(np.hypot(qs[1:] - qs[:-1], ps[1:] - ps[:-1]), out=arclength[1:])
    return FiberCurve(h, b, qs, ps, arclength, closed, polar)


def _polar_fiber(h: Observable, b: float, polar: tuple[float, float, PolarLoop]) -> FiberCurve:
    """The closed fiber {H = b} held as ``polar_loop``'s result: its samples
    are the ray points z + r_j (cos, sin)(2 pi j / N) in flow (clockwise)
    order from j = 0, which they repeat at the end: the rays in angle order,
    reversed behind the first."""
    z, r = polar[2]
    theta = 2 * np.pi * np.arange(r.size) / r.size
    q, p = z.q + r * np.cos(theta), z.p + r * np.sin(theta)
    qs, ps = np.concatenate([q[:1], q[::-1]]), np.concatenate([p[:1], p[::-1]])
    return _polyline_fiber(h, b, qs, ps, True, polar)


def _line_integrals(h: Observable, a, b) -> tuple[float, float, float]:
    """``FiberCurve.arc_integrals`` on the straight fiber of a linear H from
    a to b (in flow direction): p is linear along it, so p dq integrates to
    the trapezoid, the flow speed is |grad H| throughout, and dT/db keeps
    only ``chart_action``'s end terms, which cancel (H_qq = H_pp = 0)."""
    action = 0.5 * (a[1] + b[1]) * (b[0] - a[0])
    return action, math.hypot(b[0] - a[0], b[1] - a[1]) / math.hypot(*h.gradient(a)), 0.0


# ---------------------------------------------------------------------------
# Newton utilities
# ---------------------------------------------------------------------------

def project_to_fiber(h: Observable, b: float, x: PhasePoint) -> PhasePoint:
    """Pull a nearby point exactly onto {H = b} by Newton along the gradient,
    to |H - b| <= _PROJ_TOL max(1, |b|) within 80 steps.  Where that fails,
    Newton runs again from x and also stops where |H - b| is rounding
    (_ROUNDING)."""
    scale = max(1.0, abs(b))
    for rounding in (False, True):
        q, p = float(x[0]), float(x[1])
        for _ in range(80):
            r = float(h.value(q, p)) - b
            if abs(r) <= _PROJ_TOL * scale or (
                rounding and abs(r) <= _ROUNDING * (h.magnitude(q, p) + abs(b))
            ):
                return PhasePoint(q, p)
            gq, gp = float(h.dq(q, p)), float(h.dp(q, p))
            g2 = gq * gq + gp * gp
            if g2 < _GRAD_FLOOR**2:
                raise SingularFiber(f"gradient vanishes near ({q:.6g}, {p:.6g})")
            step = r / g2
            q -= gq * step
            p -= gp * step
    raise SingularFiber(f"projection onto level {b} did not converge from {tuple(x)}")


def _newton_onto_level(
    h: Observable, b: float, q: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The points (q, p) moved onto {H = b} by Newton steps along grad H,
    all points at once, or None: once every point reaches |H - b| <=
    _PROJ_TOL max(1, |b|) within _MOVE_STEPS iterations (a residual check,
    then a step).  Where that fails, Newton runs again from (q, p), and a
    point also stops where |H - b| is rounding (_ROUNDING), so that a trace
    near the box, where H's terms are large, does not fail on rounding."""
    tol, start = _PROJ_TOL * max(1.0, abs(b)), (q, p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rounding in (False, True):
            q, p = start
            for _ in range(_MOVE_STEPS):
                r = h.value(q, p) - b
                on_level = np.abs(r) <= tol
                if rounding:  # a point on the level takes no more steps
                    on_level |= np.abs(r) <= _ROUNDING * (h.magnitude(q, p) + abs(b))
                    r = np.where(on_level, 0.0, r)
                if np.all(on_level):
                    return q, p
                gq, gp = h.dq(q, p), h.dp(q, p)
                step = r / (gq * gq + gp * gp)
                q, p = q - gq * step, p - gp * step
    return None


def _newton_intersection(
    h1: Observable, b1: float, h2: Observable, b2: float, guess: PhasePoint
) -> PhasePoint | None:
    q, p = float(guess[0]), float(guess[1])
    scale = max(1.0, abs(b1), abs(b2))
    for _ in range(60):
        f1 = float(h1.value(q, p)) - b1
        f2 = float(h2.value(q, p)) - b2
        if abs(f1) <= _PROJ_TOL * scale and abs(f2) <= _PROJ_TOL * scale:
            return PhasePoint(q, p)
        j11, j12 = float(h1.dq(q, p)), float(h1.dp(q, p))
        j21, j22 = float(h2.dq(q, p)), float(h2.dp(q, p))
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            return None
        dq = (-f1 * j22 + f2 * j12) / det
        dp = (-f2 * j11 + f1 * j21) / det
        q += dq
        p += dp
        if not (np.isfinite(q) and np.isfinite(p)):
            return None
    return None


@dataclass(frozen=True)
class IntersectionPoint:
    point: PhasePoint
    bracket: float


# ---------------------------------------------------------------------------
# Level-curve tracing
# ---------------------------------------------------------------------------

def _walk(h: Observable, b: float, x0: PhasePoint, sign: float) -> tuple[np.ndarray, bool]:
    """Walk along {H = b} from x0, with the flow (``sign`` +1) or against it
    (-1): the rows s, q, p of the walk's polyline, s its chord length, and
    whether it closed.

    Each step goes ds along the tangent sign (H_p, -H_q) / |grad H| and back
    onto the level by Newton along grad H (``project_to_fiber``; Allgower and
    Georg, Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2
    and 6).  ds grows 1.5x, up to _WALK_MAX_STEP, while the normal turns by
    less than 2.9 degrees over a step, and halves above 8.6 degrees or when
    Newton fails or lands where |grad H| < _GRAD_FLOOR.  The walk closes when
    a step crosses the seed's normal plane forward within four steps of the
    seed, and the polyline then ends at x0.  It stops at the box, its last
    point clipped onto it, and past _MAX_ARCLENGTH.  A step halved below
    1e-13 cannot pass a critical point on the level: ``SingularFiber``.
    """
    def normal(x):
        gq, gp = h.gradient(x)
        norm = math.hypot(gq, gp)
        return (gq / norm, gp / norm) if norm >= _GRAD_FLOOR else (math.nan, math.nan)

    n = normal(x0)
    t0 = (sign * n[1], -sign * n[0])
    x, ds, s, walk = x0, _WALK_STEP, 0.0, [(0.0, *x0)]
    while s < _MAX_ARCLENGTH:
        try:
            y = project_to_fiber(h, b, PhasePoint(x.q + ds * sign * n[1], x.p - ds * sign * n[0]))
            m = normal(y)
        except SingularFiber:
            m = (math.nan, math.nan)
        turn = n[0] * m[0] + n[1] * m[1]
        if not turn > _WALK_SHRINK:  # a NaN halves
            ds /= 2
            if ds < 1e-13:
                z = np.round(_critical_point(h, x), 12) + 0.0  # no -0
                raise SingularFiber(
                    f"{h} = {b} runs into the critical point ({z[0]:.6g}, {z[1]:.6g})")
            continue
        step = math.dist(x, y)
        ahead = [(u[0] - x0.q) * t0[0] + (u[1] - x0.p) * t0[1] for u in (x, y)]
        if ahead[0] < 0.0 <= ahead[1] and math.dist(x, x0) <= 4 * step:
            walk.append((s + math.dist(x, x0), *x0))
            return np.array(walk).T, True
        if max(abs(y.q), abs(y.p)) > DOMAIN_BOUND:
            f = min((math.copysign(DOMAIN_BOUND, v) - u) / (v - u)
                    for u, v in zip(x, y) if abs(v) > DOMAIN_BOUND)
            walk.append((s + f * step, x.q + f * (y.q - x.q), x.p + f * (y.p - x.p)))
            break
        s += step
        walk.append((s, *y))
        x, n = y, m
        if turn > _WALK_GROW:
            ds = min(1.5 * ds, _WALK_MAX_STEP)
    return np.array(walk).T, False


def loop_data(h: Observable, b: float, seed: PhasePoint) -> tuple[float, float]:
    """(loop action, flow period) of a closed fiber, without sampling it.

    The package's only ODE, kept as the independent verifier: action and
    time are extra rows of a DOP853 integration of the flow at rtol 1e-12,
    with its own seed-return events; ``scipy.integrate`` loads on the first
    call.  The engine takes both by the polar rule (``polar_loop``, held by a
    polar ``FiberCurve``, which ``semiclassics.probe_loop_actions`` moves),
    or by ``chart_action`` over the traced polyline where the ray guard
    refuses (``FiberCurve.loop_action``, ``.period``); the tests hold both
    to this.
    """
    from scipy.integrate import solve_ivp

    x0 = project_to_fiber(h, b, seed)
    gq0, gp0 = h.gradient(x0)
    norm0 = math.hypot(gq0, gp0)
    if norm0 < _GRAD_FLOOR:
        raise SingularFiber(f"gradient vanishes at seed {tuple(x0)}")
    v0 = (gp0 / norm0, -gq0 / norm0)

    def rhs(s, y):
        gq, gp = h.dq(y[0], y[1]), h.dp(y[0], y[1])
        norm = math.hypot(gq, gp)
        if norm < _GRAD_FLOOR:
            return (0.0,) * 4
        vq = gp / norm
        return vq, -gq / norm, y[1] * vq, 1.0 / norm

    def singular(s, y):
        return math.hypot(h.dq(y[0], y[1]), h.dp(y[0], y[1])) - _GRAD_FLOOR

    def box_exit(s, y):
        return DOMAIN_BOUND - max(abs(y[0]), abs(y[1]))

    def left_seed(s, y):
        return math.hypot(y[0] - x0[0], y[1] - x0[1]) - 1e-3

    def plane(s, y):
        return (y[0] - x0[0]) * v0[0] + (y[1] - x0[1]) * v0[1]

    singular.terminal = box_exit.terminal = left_seed.terminal = plane.terminal = True
    plane.direction = 1.0
    # leave the seed's ball first, then stop at each forward plane crossing
    s, y, stop = 0.0, [x0[0], x0[1], 0.0, 0.0], left_seed
    for _ in range(65):
        sol = solve_ivp(
            rhs, (s, _MAX_ARCLENGTH), y, method="DOP853", rtol=_LOOP_RTOL,
            atol=_LOOP_ATOL, events=(singular, box_exit, stop),
        )
        if sol.t_events[0].size:
            raise SingularFiber(f"gradient of {h} vanished while tracing level {b}")
        if sol.t_events[1].size or not sol.t_events[2].size:
            break  # left the box, or ran out of arclength
        s, y = float(sol.t_events[2][0]), sol.y_events[2][0]
        if stop is plane and math.hypot(y[0] - x0[0], y[1] - x0[1]) <= 1e-6:
            return float(y[2]), float(y[3])
        stop = plane
    raise SingularFiber(f"fiber of {h} at {b} is not closed inside the box")


def _walk_at(walk: np.ndarray, svals: np.ndarray) -> np.ndarray:
    """The rows q, p of the polyline of ``_walk`` at chord lengths svals."""
    return np.array([np.interp(svals, walk[0], walk[1]), np.interp(svals, walk[0], walk[2])])


def _open_offsets(s_fwd: float, s_bwd: float) -> tuple[np.ndarray, np.ndarray]:
    """Arclength offsets of an open fiber's forward and backward samples from
    the seed, _TRACE_SAMPLES in all, shared in proportion to the two reaches."""
    n_f = max(2, int(_TRACE_SAMPLES * s_fwd / max(s_fwd + s_bwd, 1e-12)))
    n_b = max(2, _TRACE_SAMPLES - n_f)
    return np.linspace(0.0, s_fwd, n_f), np.linspace(0.0, s_bwd, n_b)


def _line_samples(x0: PhasePoint, flow: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """About _TRACE_SAMPLES samples of the straight fiber through x0 with flow
    direction ``flow``, clipped to the box |q|, |p| <= DOMAIN_BOUND and to
    _MAX_ARCLENGTH on either side of x0, in flow order."""
    v = np.array(flow) / math.hypot(*flow)

    def reach(d):
        exits = [(math.copysign(DOMAIN_BOUND, di) - xi) / di for xi, di in zip(x0, d) if di]
        return min(_MAX_ARCLENGTH, max(0.0, min(exits)))

    sv_f, sv_b = _open_offsets(reach(v), reach(-v))
    s = np.concatenate([-sv_b[:0:-1], sv_f])
    return x0[0] + s * v[0], x0[1] + s * v[1]


def seed_on_level(h: Observable, b: float) -> PhasePoint:
    """A point near {H = b} on the q axis (else the p axis): the linear
    crossing of the level, scanned at 4001 points across the box, closest
    to the origin."""
    ts = np.linspace(-DOMAIN_BOUND, DOMAIN_BOUND, 4001)
    for axis in ("q", "p"):
        vals = (
            np.asarray(h.value(ts, 0.0 * ts), dtype=float)
            if axis == "q"
            else np.asarray(h.value(0.0 * ts, ts), dtype=float)
        ) - b
        sign = np.sign(vals)
        crossing = (sign[:-1] * sign[1:] < 0) | (vals[:-1] == 0.0)
        hits = np.nonzero(crossing)[0]
        if vals[-1] == 0.0:
            hits = np.append(hits, len(vals) - 2)
        if hits.size:
            # crossing closest to the origin picks the principal component
            # (periodic potentials repeat their wells across the box)
            i = int(hits[np.argmin(np.abs(ts[hits]))])
            dv = vals[i + 1] - vals[i]
            t = float(ts[i] if dv == 0 else ts[i] - vals[i] * (ts[i + 1] - ts[i]) / dv)
            return PhasePoint(t, 0.0) if axis == "q" else PhasePoint(0.0, t)
    raise SingularFiber(f"no seed found on level {b}")


def trace_level_curve(h: Observable, b: float, seed: PhasePoint) -> FiberCurve:
    """Trace the connected component of {H = b} through ``seed``.

    The seed is first projected onto the level set.  A linear observable's
    fiber is the straight segment through it, in closed form.  Any other is
    walked by continuation (``_walk``) with the flow, and against it unless
    the walk closes, resampled at equal chord lengths and projected onto the
    level (``_newton_onto_level``; ``SingularFiber`` if that fails).  Open
    components are truncated at the domain box, and about _TRACE_SAMPLES
    samples are taken.  A closed trace then seeds the
    polar rule about its centre (``polar_guide``, ``polar_loop``), and the
    fiber is that polar object (``FiberCurve``) unless the guard refuses.
    """
    x0 = project_to_fiber(h, b, seed)
    gq, gp = h.gradient(x0)
    if math.hypot(gq, gp) < _GRAD_FLOOR:
        raise SingularFiber(f"gradient vanishes at seed {tuple(x0)}")

    closed = False
    if h.is_linear:
        qs, ps = _line_samples(x0, (gp, -gq))
    else:
        fwd, closed = _walk(h, b, x0, +1.0)
        if closed:
            # the last sample, back at the start, is the projected first
            qs, ps = _walk_at(fwd, np.linspace(0.0, fwd[0, -1], _TRACE_SAMPLES + 1)[:-1])
        else:
            bwd, _ = _walk(h, b, x0, -1.0)
            sv_f, sv_b = _open_offsets(fwd[0, -1], bwd[0, -1])
            # backward samples describe the curve before the seed; reverse them
            qs, ps = np.concatenate([_walk_at(bwd, sv_b)[:, :0:-1], _walk_at(fwd, sv_f)], axis=1)
    onto = _newton_onto_level(h, b, qs, ps)
    if onto is None:
        raise SingularFiber(f"samples of the fiber {h} = {b} did not project onto the level")
    qs, ps = onto
    if not closed:
        return _polyline_fiber(h, b, qs, ps, False)
    curve = _polyline_fiber(h, b, np.append(qs, qs[0]), np.append(ps, ps[0]), True)
    polar = polar_loop(h, b, polar_guide(curve))
    return curve if polar is None else _polar_fiber(h, b, polar)


def _critical_point(h: Observable, x: PhasePoint) -> PhasePoint:
    """The critical point of H that Newton on grad H reaches from x, or x
    where that Newton fails."""
    z = np.array(x)
    for _ in range(_MOVE_STEPS):
        try:
            step = np.linalg.solve(h.hessian(z), h.gradient(z))
        except np.linalg.LinAlgError:  # a singular Hessian
            return x
        z = z - step
        if np.hypot(*step) <= _PROJ_TOL * max(1.0, np.hypot(*z)):
            return PhasePoint(float(z[0]), float(z[1]))
    return x


def _loop_centre(curve: FiberCurve) -> PhasePoint:
    """The ``_critical_point`` of H from the centroid of the closed fiber
    ``curve``'s samples (the ray guard judges a centroid Newton leaves)."""
    x = PhasePoint(float(np.mean(curve.qs[:-1])), float(np.mean(curve.ps[:-1])))
    return _critical_point(curve.observable, x)


def _rays_onto_level(
    h: Observable, b: float, z: PhasePoint, c: np.ndarray, s: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """(r, H_r) where the rays z + r (c, s) with unit directions (c, s) meet
    {H = b}, H_r = grad H . (c, s), or None where the guard refuses.  Newton
    in r moves all rays at once from the radii ``r``, with one more step once
    every |H - b| <= 1e-14 max(1, |b|).  The guard, written so that a NaN
    rejects: every ray converges within _MOVE_STEPS to r > 0 with H_r > 0
    (the loop is star-shaped about z)."""
    tol = _PROJ_TOL * max(1.0, abs(b))
    converged = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MOVE_STEPS + 1):
            q, p = z.q + r * c, z.p + r * s
            h_r = h.dq(q, p) * c + h.dp(q, p) * s
            if converged:
                return (r, h_r) if (r > 0).all() and (h_r > 0).all() else None
            residual = h.value(q, p) - b
            converged = bool((np.abs(residual) <= tol).all())
            r = r - residual / h_r
    return None


def moved_fiber(curve: FiberCurve, b: float) -> FiberCurve | None:
    """The polar fiber ``curve`` moved onto the level b of its observable,
    or None when the fiber is not polar (open, or refused by the guard) or
    the guard refuses the move.  A composition moves its intermediate
    fibers so (``overlap_kernel``), and Bohr-Sommerfeld its probes and
    Newton iterates (``semiclassics._closed_fiber``).

    The move is ``polar_loop`` from the held centre z and radii: every ray
    keeps its angle about z, and no centre is solved again.  A fiber dragged
    across a separatrix or into another well is not star-shaped about z,
    so some ray fails the guard."""
    if curve.polar is None:
        return None
    polar = polar_loop(curve.observable, b, curve.polar[2])
    return None if polar is None else _polar_fiber(curve.observable, b, polar)


def polar_guide(curve: FiberCurve) -> PolarLoop:
    """The start of ``polar_loop`` on the closed fiber ``curve``: its centre
    z (``_loop_centre``) and its radii about z at _GUIDE_ANGLES equispaced
    angles, linear in angle between samples.

    Why 160: ``polar_loop`` stops when A and T agree at n and 2n angles.  On
    a loop with 2^a-fold symmetry, an n without the factor 2^a sees the same
    aliased harmonics at both and stops early: the double well 1/2 p^2 - q^2
    + 1/4 q^4 at b = 0.5 from 150 radii stops at N = 150 with T off by
    4.9e-10 (3e-14 from 160).  Every count 160 2^k keeps the factor 2^5."""
    z = _loop_centre(curve)
    dq, dp = curve.qs[:-1] - z.q, curve.ps[:-1] - z.p
    theta = 2 * np.pi * np.arange(_GUIDE_ANGLES) / _GUIDE_ANGLES
    return z, np.interp(theta, np.arctan2(dp, dq), np.hypot(dq, dp), period=2 * np.pi)


def polar_loop(h: Observable, b: float, loop: PolarLoop) -> tuple[float, float, PolarLoop] | None:
    """(loop action, flow period, loop) of the closed fiber {H = b} as
    r(theta) about the centre z of ``loop``, a nearby level's, by the
    periodic trapezoidal rule, or None where the guard refuses.

    The rays at equispaced angles meet the level by ``_rays_onto_level``,
    from the held radii of ``loop``.  A = 1/2 sum r^2 dtheta and
    T = sum r / H_r dtheta start at a quarter of the held angles, but at
    least _GUIDE_ANGLES / 2, which double, the solved rays kept, until A and
    T change by at most _POLAR_RTOL relative; on an analytic loop the error
    falls geometrically (Trefethen-Weideman, SIAM Review 56, 2014).  So a
    chain of loops can halve its count at each step, never below
    _GUIDE_ANGLES, and every count returned is 160 2^k (``polar_guide``).
    The guard is that of ``_rays_onto_level`` on every ray, and the
    doubling converges within _POLAR_MAX angles.  A polar ``FiberCurve``
    holds the result.
    """
    z, radii = loop

    def on_level(theta, r):
        return _rays_onto_level(h, b, z, np.cos(theta), np.sin(theta), r)

    n = max(_GUIDE_ANGLES // 2, radii.size // 4)
    theta = 2 * np.pi * np.arange(n) / n
    held = 2 * np.pi * np.arange(radii.size) / radii.size
    rays = on_level(theta, np.interp(theta, held, radii, period=2 * np.pi))
    last = np.zeros(2)
    while rays is not None:
        r, h_r = rays  # the means as np.mean takes them, without its wrapper's cost
        now = np.array([np.pi * ((r * r).sum() / n), 2 * np.pi * ((r / h_r).sum() / n)])
        if (np.abs(now - last) <= _POLAR_RTOL * now).all():  # a NaN keeps doubling
            return float(now[0]), float(now[1]), (z, r)
        mid = theta + np.pi / n
        ahead = np.concatenate([r[1:], r[:1]])  # the next held ray's radius
        rays = None if 2 * n > _POLAR_MAX else on_level(mid, (r + ahead) / 2)
        if rays is not None:  # held angles and new ones between them alternate
            pairs = zip((theta, r, h_r), (mid, *rays))
            theta, *rays = (np.column_stack(pair).ravel() for pair in pairs)
        last, n = now, 2 * n
    return None


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

_CORNER_DI = np.array([[0], [1], [0], [1]])
_CORNER_DJ = np.array([[0], [0], [1], [1]])


def _any_grid_corner(mask: np.ndarray) -> np.ndarray:
    """Per cell of a node grid: does any of its four corners satisfy ``mask``?"""
    return mask[:-1, :-1] | mask[1:, :-1] | mask[:-1, 1:] | mask[1:, 1:]


def _straddling(f: np.ndarray, any_corner) -> np.ndarray:
    """Cells whose corner values include one <= 0 and one >= 0.

    A NaN corner rules its cell out, as a min/max test over the corners
    would (both propagate the NaN)."""
    cells = any_corner(f <= 0.0) & any_corner(f >= 0.0)
    nan = np.isnan(f)
    if nan.any():
        cells &= ~any_corner(nan)
    return cells


def find_intersections(
    h1: Observable, b1: float, h2: Observable, b2: float
) -> list[IntersectionPoint]:
    """All transversal points of {H1 = b1} and {H2 = b2} inside the box.

    Sign-pattern scan of a 401^2 grid over the box, then the steps every
    crossing search shares (``_crossings``).  A grid cell can hold a
    crossing only if both level functions straddle zero on its corners, so
    H1 is evaluated on the whole grid and H2 only at the corners of H1's
    straddling cells; Newton starts at each candidate cell's center, so two
    crossings within one 0.04 cell are not split and can both be missed.
    Tangential roots (|{H1,H2}| <= TRANS_TOL) raise
    :class:`TangentialIntersection` carrying the offending points.  The scan
    needs no fiber: ``overlap`` uses it unless it holds a straight one, and
    it is the verifier of ``intersections_along``.
    """
    axis = np.linspace(-DOMAIN_BOUND, DOMAIN_BOUND, _SCAN_CELLS + 1)
    f1 = np.asarray(h1.value(axis[:, None], axis[None, :]), dtype=float) - b1
    ii, jj = np.nonzero(_straddling(f1, _any_grid_corner))
    # corner k of cell (i, j) is the node (i + _CORNER_DI[k], j + _CORNER_DJ[k])
    f2 = np.asarray(
        h2.value(axis[ii + _CORNER_DI], axis[jj + _CORNER_DJ]), dtype=float
    ) - b2
    cells = _straddling(f2, lambda m: m.any(axis=0))
    ii, jj = ii[cells], jj[cells]
    half = (axis[1] - axis[0]) / 2.0
    return _crossings(h1, b1, h2, b2, zip(axis[ii] + half, axis[jj] + half))


def intersections_along(
    curve: FiberCurve, h1: Observable, b1: float, h2: Observable, b2: float
) -> list[IntersectionPoint]:
    """The points of ``find_intersections(h1, b1, h2, b2)`` read along
    ``curve``, the sampled fiber of one of the two systems.

    Newton starts where the other system's H - b changes sign between
    samples, at the linear crossing (``_polyline_hits``, as for the
    reference graph), and the steps of the grid scan follow (``_crossings``).
    Only crossings on ``curve`` are found, so this is the whole search when
    ``curve`` is the whole level set in the box, as a straight fiber is.  A
    transversal pair of crossings inside one sample segment is missed.
    """
    h, b = (h2, b2) if (curve.observable, curve.level) == (h1, b1) else (h1, b1)
    phi = np.asarray(h.value(curve.qs, curve.ps), dtype=float) - b
    return _crossings(h1, b1, h2, b2, zip(*_polyline_hits(phi, curve.qs, curve.ps)))


def _crossings(
    h1: Observable, b1: float, h2: Observable, b2: float, starts
) -> list[IntersectionPoint]:
    """Transversal points of {H1 = b1} and {H2 = b2} by 2D Newton from each
    (q, p) in ``starts``: roots outside the box are dropped and roots within
    DEDUP_RADIUS of an earlier one merged; any root with |{H1, H2}| <=
    TRANS_TOL raises :class:`TangentialIntersection`; the rest are sorted by
    (q, p)."""
    roots: list[PhasePoint] = []
    for c in starts:
        r = _newton_intersection(h1, b1, h2, b2, c)
        if r is None:
            continue
        if max(abs(r.q), abs(r.p)) > DOMAIN_BOUND + 1e-9:
            continue
        if all((r.q - o.q) ** 2 + (r.p - o.p) ** 2 > DEDUP_RADIUS**2 for o in roots):
            roots.append(r)

    tangential = []
    points = []
    for r in roots:
        br = poisson_bracket(h1, h2, r)
        if abs(br) <= TRANS_TOL:
            tangential.append(r)
        else:
            points.append(IntersectionPoint(point=r, bracket=br))
    if tangential:
        raise TangentialIntersection(
            f"{len(tangential)} tangential intersection(s) found "
            f"(|bracket| <= {TRANS_TOL:g})",
            points=tangential,
        )
    points.sort(key=lambda ip: (ip.point.q, ip.point.p))
    return points


# ---------------------------------------------------------------------------
# Reference points
# ---------------------------------------------------------------------------

def _newton_on_lagrangian(
    h: Observable, b: float, lam: ReferenceLagrangian, q_guess: float
) -> float | None:
    q = float(q_guess)
    scale = max(1.0, abs(b))
    for _ in range(60):
        lv = float(lam.value(q))
        r = float(h.value(q, lv)) - b
        if abs(r) <= _PROJ_TOL * scale:
            return q
        d = float(h.dq(q, lv)) + float(h.dp(q, lv)) * float(lam.slope(q))
        if abs(d) < 1e-14:
            return None
        q -= r / d
        if not np.isfinite(q):
            return None
    return None


def _polyline_hits(phi: np.ndarray, *coords: np.ndarray) -> list[np.ndarray]:
    """Starting points for each place a polyline meets {phi = 0}, from phi
    at its samples: per segment in order, the segment's first sample when
    phi is 0 there, else the linear crossing of a sign change; then the last
    sample when phi is 0 there.  One array per coordinate in ``coords``."""
    a, bb = phi[:-1], phi[1:]
    seg = np.nonzero((a == 0.0) | (a * bb < 0.0))[0]
    cross = a[seg] != 0.0
    i = seg[cross]
    t = a[i] / (a[i] - bb[i])
    out = []
    for x in coords:
        hits = x[seg]
        hits[cross] += t * (x[i + 1] - x[i])
        out.append(np.append(hits, x[-1]) if phi[-1] == 0.0 else hits)
    return out


def lagrangian_intersections(curve: FiberCurve, lam: ReferenceLagrangian) -> list[PhasePoint]:
    """Transversal intersections of a traced fiber with the graph p = lam(q)."""
    (hits,) = _polyline_hits(curve.ps - np.asarray(lam.value(curve.qs)), curve.qs)
    found: list[PhasePoint] = []
    h, b = curve.observable, curve.level
    for qg in hits:
        q = _newton_on_lagrangian(h, b, lam, qg)
        if q is None:
            continue
        pt = PhasePoint(q, float(lam.value(q)))
        det = float(h.dq(*pt)) + float(h.dp(*pt)) * float(lam.slope(q))
        if abs(det) <= TRANS_TOL:
            continue
        if all((pt.q - o.q) ** 2 + (pt.p - o.p) ** 2 > DEDUP_RADIUS**2 for o in found):
            found.append(pt)
    return found


def reference_point(curve: FiberCurve, lam: ReferenceLagrangian) -> PhasePoint:
    """Deterministic reference point: the smallest-q (then smallest-p)
    transversal intersection of the fiber with the reference Lagrangian."""
    pts = lagrangian_intersections(curve, lam)
    if not pts:
        raise NoReferencePoint(
            f"fiber {curve.observable} = {curve.level} does not meet the "
            "reference Lagrangian transversally inside the domain"
        )
    pts.sort(key=lambda x: (x.q, x.p))
    return pts[0]


# ---------------------------------------------------------------------------
# Chart quadrature for fiber line integrals
# ---------------------------------------------------------------------------

# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., 1983): Kronrod
# nodes on [-1, 1] and their weights, and the weights of the embedded
# 10-point Gauss rule, which uses every second node.
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525478480,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[11:20:2] = _WG[::-1]

_QUAD_TOL = 1e-13
_QUAD_LIMIT = 200


def _gk21_panels(
    f, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """GK21 estimates of ``f`` and their QUADPACK error bounds on panels
    [lo_i, hi_i], the bounds' rounding floors 50 eps int |f|, and the nodes
    (one row per panel) and f's values there.

    ``f`` is called once, on the nodes of every panel.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _GK_NODES
    fv = f(nodes.ravel()).reshape(nodes.shape)
    resk = fv @ _GK_WEIGHTS
    resg = fv @ _G_WEIGHTS
    width = np.abs(half)
    resabs = width * (np.abs(fv) @ _GK_WEIGHTS)
    resasc = width * (np.abs(fv - 0.5 * resk[:, None]) @ _GK_WEIGHTS)
    err = np.abs((resk - resg) * half)
    scaled = (resasc != 0.0) & (err != 0.0)
    err[scaled] = resasc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / resasc[scaled]) ** 1.5
    )
    floor = 50.0 * np.finfo(float).eps * resabs
    return resk * half, np.maximum(err, floor), floor, nodes, fv


def _adaptive_gk21(
    f, a: float, b: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Globally adaptive GK21 integral from a to b of a vectorized ``f``.

    Stops when the summed error bound meets max(_QUAD_TOL, _QUAD_TOL |I|),
    or equals the summed rounding floor, which no bisection lowers (where
    int |f| is ten times |int f|, the floor alone can exceed the tolerance).
    Each round bisects every panel whose bound exceeds its even share of
    that tolerance, worst first and at most _QUAD_LIMIT panels in all, and
    evaluates the new panels in one call; a :class:`QuadratureLimit`
    warning is emitted when the panel limit is reached first.

    Returns the integral and, per converged panel, its nodes, the values of
    ``f`` there and its half width, so that an integrand built from those
    values is summed on the same panels (``_gk21_sum``) without refining.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    vals, errs, floors, nodes, fv = _gk21_panels(f, lo, hi)
    while True:
        total = float(vals.sum())
        tol = max(_QUAD_TOL, _QUAD_TOL * abs(total))
        err = float(errs.sum())
        if err <= tol or err <= float(floors.sum()):
            break
        room = _QUAD_LIMIT - lo.size
        if room <= 0:
            warnings.warn(
                f"adaptive GK21 on [{a:.6g}, {b:.6g}] reached {_QUAD_LIMIT} panels "
                f"with error bound {err:.3e} above {tol:.3e}",
                QuadratureLimit,
            )
            break
        worst = np.argsort(errs)[::-1]
        split = worst[~(errs[worst] <= tol / lo.size)][:room]  # NaN included
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        panels = zip((lo, hi, vals, errs, floors, nodes, fv),
                     (new_lo, new_hi, *_gk21_panels(f, new_lo, new_hi)))
        lo, hi, vals, errs, floors, nodes, fv = (
            np.concatenate([old[keep], new]) for old, new in panels)
    return total, nodes, fv, 0.5 * (hi - lo)


def _gk21_sum(values: np.ndarray, half: np.ndarray) -> float:
    """GK21 integral from the node values of panels with half widths ``half``."""
    return float(((values @ _GK_WEIGHTS) * half).sum())


def _solve_on_fiber(
    h: Observable, b: float, known: np.ndarray, guess: np.ndarray, solve_p: bool
) -> np.ndarray:
    """Newton for p(q) (``solve_p``) or q(p) on {H = b} at every node at once.

    ``known`` holds the fixed coordinate and ``guess`` the starting values.
    Each node stops once |H - b| <= _PROJ_TOL max(1, |b|); a node that needs
    more than 60 steps or meets a derivative below 1e-14 raises
    :class:`PointNotOnFiber`.
    """
    out = np.array(guess, dtype=float)
    todo = np.arange(out.size)
    scale = max(1.0, abs(b))
    for _ in range(60):
        x, y = known[todo], out[todo]
        q, p = (x, y) if solve_p else (y, x)
        r = h.value(q, p) - b
        live = ~(np.abs(r) <= _PROJ_TOL * scale)  # a NaN residual stays live
        todo, r, q, p = todo[live], r[live], q[live], p[live]
        if todo.size == 0:
            return out
        d = h.dp(q, p) if solve_p else h.dq(q, p)
        if np.any(np.abs(d) < 1e-14):
            break
        out[todo] -= r / d
    k = todo[0]
    args = f"{known[k]:.6g}, p" if solve_p else f"q, {known[k]:.6g}"
    raise PointNotOnFiber(f"cannot solve H({args}) = {b} near {guess[k]:.6g}")


def _chart_runs(h: Observable, b: float, guide: np.ndarray):
    """The graph-chart runs of the fiber arc described by ``guide`` (n >= 2).

    The arc is split where |H_p| and |H_q| cross into q-charts (p as a
    function of q, where |H_p| >= |H_q|) and p-charts (q as a function of p).
    Each chart switch before the last guide point becomes an on-fiber
    subdivision node; any on-fiber point near the switch works, since
    integrals over the runs telescope.  Per run, in flow order along the
    guide: its end nodes xa and xb, the gradient rows (H_q, H_p) at xa and
    xb, ``solve_p`` (True on q-charts), and ``on_fiber(u)``, which solves
    the other coordinate on {H = b} at chart coordinates u by Newton from
    the guide's interpolant.

    A switch sits at a guide point, where |H_q| = |H_p| and the fiber's
    normal is 45 degrees from the fold of the chart it leaves (H_p = 0 for a
    q-chart); a segment along which the normal turns by less than 45 degrees
    cannot reach that fold.  A guide whose normal turns by 45 degrees or more
    on one segment raises :class:`CoarseGuide`, naming the segment and its
    turn.
    """
    n = len(guide)
    gq = np.asarray(h.dq(guide[:, 0], guide[:, 1]), dtype=float)
    gp = np.asarray(h.dp(guide[:, 0], guide[:, 1]), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN where grad H = 0
        norm = np.hypot(gq, gp)
        nq, np_ = gq / norm, gp / norm
        turn = nq[:-1] * nq[1:] + np_[:-1] * np_[1:]  # cosine, per segment
    # written so that a NaN rejects
    coarse = np.flatnonzero(~(turn > _CHART_TURN))
    if coarse.size:
        k = coarse[0]
        degrees = math.degrees(math.acos(np.clip(turn[k], -1.0, 1.0)))  # NaN: grad H = 0
        raise CoarseGuide(
            f"the normal of {h} = {b} turns by {degrees:.1f} degrees along guide "
            f"segment {k} of {n - 1}, from ({guide[k, 0]:.6g}, {guide[k, 1]:.6g}) "
            f"to ({guide[k + 1, 0]:.6g}, {guide[k + 1, 1]:.6g}); chart "
            f"quadrature needs less than 45"
        )
    gq, gp = np.abs(gq), np.abs(gp)
    chart = (gp < gq).astype(int)  # 0: q-chart (p(q)), 1: p-chart (q(p))

    # run k spans nodes k and k + 1 and the guide points bounds[k]:bounds[k + 1]
    # between them
    switches = np.flatnonzero(chart[1:-1] != chart[:-2]) + 1
    nodes = np.vstack(
        [guide[:1]]
        + [project_to_fiber(h, b, PhasePoint(*guide[k])) for k in switches]
        + [guide[-1:]]
    )
    bounds = np.concatenate([[1], switches, [n - 1]])
    run_charts = chart[np.concatenate([[0], switches])]
    q, p = nodes[:, 0], nodes[:, 1]
    grads = np.column_stack([h.dq(q, p), h.dp(q, p)]).tolist()

    for k, ch in enumerate(run_charts):
        xa, xb = nodes[k], nodes[k + 1]
        pts = np.vstack([xa, guide[bounds[k]:bounds[k + 1]], xb])
        solve_p = ch == 0
        axis = 0 if solve_p else 1
        order = np.argsort(pts[:, axis])
        u_knots, v_knots = pts[order, axis], pts[order, 1 - axis]

        def on_fiber(u, u_knots=u_knots, v_knots=v_knots, solve_p=solve_p):
            return _solve_on_fiber(h, b, u, np.interp(u, u_knots, v_knots), solve_p)

        yield xa, xb, grads[k:k + 2], solve_p, on_fiber


def chart_action(h: Observable, b: float, guide: np.ndarray) -> tuple[float, float, float]:
    """Integral of p dq, flow time and the flow time's level derivative along
    the fiber arc described by ``guide``: the engine's path on open curved
    arcs and on closed fibers the ray guard refuses, and the verifiers'
    reference on every arc.

    ``guide`` is a polyline near (not necessarily on) {H = b}; its first and
    last entries are taken as the exact, already-on-fiber endpoints.  The arc
    is split into graph charts (``_chart_runs``), each integrated by adaptive
    21-point Gauss-Kronrod quadrature on arrays, with every node polished
    onto the fiber by Newton, so the action is accurate to machine precision
    and varies smoothly with b.  The flow time (dq / H_p on q-charts,
    -dp / H_q on p-charts) and its b-derivative at fixed chart coordinate
    (-H_pp / H_p^3 dq on q-charts, H_qq / H_q^3 dp on p-charts) are summed
    once, on the converged panels' polished nodes.

    The level derivative dT/db moves both ends normal to the fiber, at
    dx/db = grad H / |grad H|^2.  A fixed-chart end moves along the fiber
    relative to that motion, which adds flow time H_q / (|grad H|^2 H_p) at a
    q-chart run's end and -H_p / (|grad H|^2 H_q) at a p-chart run's end;
    each run's start subtracts the same.  At a chart switch the two sum to
    1 / (H_q H_p).
    """
    guide = np.asarray(guide, dtype=float)
    if len(guide) < 2:
        return 0.0, 0.0, 0.0
    total = time = dtime = 0.0
    for xa, xb, ends, solve_p, on_fiber in _chart_runs(h, b, guide):
        axis = 0 if solve_p else 1
        ua, ub = xa[axis], xb[axis]
        val = 0.0
        if ua != ub:
            val, u, v, half = _adaptive_gk21(on_fiber, ua, ub)
            if solve_p:
                dt, second = 1.0 / h.dp(u, v), h.deriv(u, v, 0, 2)
            else:
                dt, second = -1.0 / h.dq(v, u), h.deriv(v, u, 2, 0)
            time += _gk21_sum(dt, half)
            # -H_pp / H_p^3 and H_qq / H_q^3 are both -second * dt^3
            dtime -= _gk21_sum(second * (dt * dt * dt), half)
        # q(p) charts integrate q dp; p dq = d(pq) - q dp
        total += val if solve_p else xb[1] * xb[0] - xa[1] * xa[0] - val
        for (gq, gp), sign in ((ends[1], 1.0), (ends[0], -1.0)):
            end = gq / gp if solve_p else -gp / gq
            dtime += sign * end / (gq * gq + gp * gp)
    return total, time, dtime


def action_along_fiber(
    curve: FiberCurve,
    start: PhasePoint,
    end: PhasePoint,
    alpha: PrequantumForm = PrequantumForm(),
) -> float:
    """Integral of alpha = p dq + df along the fiber from start to end.

    Both endpoints must lie on the curve.  On closed curves the segment runs
    forward (flow direction) from start to end, so the result is the
    representative in [0, loop action) up to gauge; on open curves the signed
    integral along the curve is returned (negative when end precedes start).
    """
    scale = max(1.0, abs(curve.level))
    for pt in (start, end):
        resid = abs(float(curve.observable.value(pt[0], pt[1])) - curve.level)
        if resid > _ON_FIBER_TOL * scale:
            raise PointNotOnFiber(
                f"|H(x) - b| = {resid:.3e} at {tuple(pt)} is off the fiber"
            )
    a = project_to_fiber(curve.observable, curve.level, start)
    bpt = project_to_fiber(curve.observable, curve.level, end)
    gauge = alpha.gauge_value(bpt) - alpha.gauge_value(a)
    guide, sign = curve.arc(a, bpt, curve.locate(a), curve.locate(bpt))
    return sign * chart_action(curve.observable, curve.level, guide)[0] + gauge
