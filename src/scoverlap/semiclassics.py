"""Leading-order semiclassical amplitudes from fiber-intersection data.

The overlap of two eigen-half-densities is assembled as a sum over the
transversal intersections of the two level curves: each point contributes
``|hess|^(1/2) exp(i S / h + i pi mu / 2)`` with

  * ``S``     the difference of prequantization-form integrals along the two
              fibers, from the reference points (fiber cap Lambda) to the
              intersection, taken in flow direction,
  * ``mu``    the signed count of tangencies between the second fiber and the
              first fibration along that path (turning-point index),
  * ``hess``  the mixed second derivative of S in the two level labels,
              |d^2 S / db1 db2| = 1 / |{H1, H2}| in closed form (the
              half-density pairing of two transversal fibrations);
              ``stencil_overlap_term`` recomputes it by a Richardson cross
              stencil as the reference,

all behind an overall ``(2 pi h)^(-1/2)`` with unit constant.  Each term
also carries dS/db1 and dS/db2 in closed form, the flow times along the two
arcs plus endpoint terms on the reference graph, and d^2 S/db1^2 and
d^2 S/db2^2, their level derivatives, from the same arc integrals.
Transition probabilities square this sum, cyclic amplitudes chain it around
a loop of fibrations, and kernels compose by one-dimensional stationary
phase on those slopes and curvatures.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BranchStructureChange,
    CausticNearby,
    DegenerateStationaryPoint,
    DoubleRoot,
    LevelSkipped,
    MultipleComponents,
    NonMonotoneAction,
    NoReferencePoint,
    SingularFiber,
    TangencyAtEndpoint,
)
from .geometry import (
    _PROJ_TOL,
    TRANS_TOL,
    FiberCurve,
    Observable,
    PhasePoint,
    PrequantumForm,
    ReferenceLagrangian,
    _bracket_field,
    _newton_intersection,
    _newton_on_lagrangian,
    chart_action,
    find_intersections,
    intersections_along,
    lagrangian_intersections,
    moved_fiber,
    poisson_bracket,
    project_to_fiber,
    reference_point,
    seed_on_level,
    trace_level_curve,
)

FD_STEP = 1e-3  # base step of the verifier's Richardson cross stencil
HESS_TOL = 1e-6
BS_TOL = 1e-9
# an intersection farther than this from a traced fiber's sample polyline
# lies on another component (on-fiber points sit within about 2e-5 of it)
COMPONENT_TOL = 1e-2

_COMPOSE_GRID = 9  # levels at which compose_kernels scans (phi', phi'')
_COMPOSE_XTOL = 1e-12  # Newton on phi' stops at a level this close to b*
_COMPOSE_NEWTON_MAX = 100

_BS_PROBES = 17
_BS_NEWTON_MAX = 30
# two levels whose distances to a target differ by less than this fraction
# of their spacing are equally near
_BS_TIE = 1e-9


# ---------------------------------------------------------------------------
# Maslov counting
# ---------------------------------------------------------------------------

def _maslov_over_guide(
    curve: FiberCurve, guide: np.ndarray, transverse: Observable
) -> int:
    """Signed tangency count along ``guide``, a polyline on ``curve`` in flow
    direction (``FiberCurve.arc``).

    A sign change of beta = {H1, H2} between consecutive nonzero samples
    i < j is one crossing.  The fiber's tangent turns through the transverse
    fibration's fiber direction there; a clockwise passage counts +1, which
    is -sign(d beta/ds) * sign(X1 . X2).  Across the cell d beta/ds has the
    sign of beta_j = -beta_i, and X1 . X2 = grad H1 . grad H2, read at the
    cell midpoint, so the crossing counts sign(beta_i) * sign(grad H1 .
    grad H2).  Every test is symmetric under reversal, so the arc traversed
    against the flow counts minus this.
    """
    h2 = curve.observable
    beta = np.asarray(_bracket_field(transverse, h2, guide[:, 0], guide[:, 1]), float)
    if abs(beta[0]) <= TRANS_TOL or abs(beta[-1]) <= TRANS_TOL:
        raise TangencyAtEndpoint(
            "transversality bracket vanishes at a segment endpoint"
        )
    signs = np.sign(beta)
    nonzero = np.flatnonzero(signs)
    changes = np.flatnonzero(signs[nonzero[:-1]] != signs[nonzero[1:]])
    i, j = nonzero[changes], nonzero[changes + 1]
    q, p = (0.5 * (guide[i] + guide[j])).T
    dot = transverse.dq(q, p) * h2.dq(q, p) + transverse.dp(q, p) * h2.dp(q, p)
    total = int(np.sum(signs[i] * np.sign(dot)))
    # cells i..j-1 of each crossing; the crossings' cells do not overlap
    step = np.zeros(len(beta), dtype=int)
    step[i] += 1
    step[j] -= 1
    crossing_cells = np.cumsum(step) > 0
    # interior dips of |beta| to ~0 without a sign change: touch points
    mags = np.abs(beta)
    inner = mags[1:-1]
    touch = (
        (inner <= TRANS_TOL)
        & (inner <= mags[:-2])
        & (inner <= mags[2:])
        & ~crossing_cells[:-2]
        & ~crossing_cells[1:-1]
    )
    if touch.any():
        warnings.warn(
            "bracket touches zero without sign change; counted 0", DoubleRoot
        )
    return total


def maslov_segment(
    curve: FiberCurve,
    start: PhasePoint,
    end: PhasePoint,
    transverse: Observable,
) -> int:
    """Signed tangency count along the fiber segment from start to end.

    On closed curves the segment runs forward in flow direction (wrapping);
    on open curves it runs along the curve with the orientation implied by
    the endpoints (``FiberCurve.arc``).
    """
    a = project_to_fiber(curve.observable, curve.level, start)
    b = project_to_fiber(curve.observable, curve.level, end)
    guide, sign = curve.arc(a, b, curve.locate(a), curve.locate(b))
    return sign * _maslov_over_guide(curve, guide, transverse)


def maslov_loop_index(curve: FiberCurve, transverse: Observable) -> int:
    """Tangency index of a full closed fiber.

    The loop starts and ends at the sample of maximal |bracket|, so only a
    fiber on which |{H1, H2}| <= TRANS_TOL everywhere raises
    ``TangencyAtEndpoint``.
    """
    if not curve.closed:
        raise ValueError("loop index requested for an open fiber")
    beta = np.abs(_bracket_field(transverse, curve.observable, curve.qs, curve.ps))
    i = int(np.argmax(beta))
    s0 = float(curve.arclength[i])
    guide, _ = curve.arc(curve.point(i), curve.point(i), s0, s0)
    return _maslov_over_guide(curve, guide, transverse)


# ---------------------------------------------------------------------------
# Bohr-Sommerfeld levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BSLevel:
    n: int
    b: float
    loop_action: float
    loop_maslov: int
    period: float


def _traced_loop(h_obs: Observable, b: float) -> FiberCurve:
    """The closed fiber {H = b} through ``seed_on_level``, traced afresh."""
    curve = trace_level_curve(h_obs, b, seed_on_level(h_obs, b))
    if not curve.closed:
        raise SingularFiber(f"fiber at {b} is not closed")
    return curve


def _closed_fiber(h_obs: Observable, b: float, held: FiberCurve | None) -> FiberCurve:
    """The closed fiber {H = b}: ``held``, a nearby level's, moved onto b
    (``moved_fiber``), or a fresh trace where none is held or the move is
    refused."""
    return (held and moved_fiber(held, b)) or _traced_loop(h_obs, b)


@dataclass(frozen=True)
class LoopActionProbes:
    """The h-free part of Bohr-Sommerfeld quantization on a level range.

    ``probes`` holds (b, loop action A, period T) at evenly spaced levels,
    with A strictly increasing; ``maslov`` is the position fibration's loop
    index; ``fibers`` holds each probe's closed fiber, polar unless the
    guard refused it (``FiberCurve``).  All depend only on the observable and
    the range, so one set quantizes every h.
    """

    observable: Observable
    probes: tuple[tuple[float, float, float], ...]
    maslov: int
    fibers: tuple[FiberCurve, ...] = field(compare=False, repr=False)

    def _cell(self, column: int, x: float) -> int:
        """The k whose probes k - 1 and k bracket x in the probes' ``column``
        (0: b, 1: A), clamped to the first and last interval."""
        xs = [probe[column] for probe in self.probes]
        return min(max(int(np.searchsorted(xs, x)), 1), len(xs) - 1)

    def _quantum_numbers(self, h: float) -> range:
        """Quantum numbers whose levels lie inside the probed range."""
        probe_as, mu = [a for _, a, _ in self.probes], self.maslov
        n_min = math.ceil(probe_as[0] / (2 * math.pi * h) - mu / 4.0 - 1e-12)
        n_max = math.floor(probe_as[-1] / (2 * math.pi * h) - mu / 4.0 + 1e-12)
        return range(max(n_min, 0), n_max + 1)

    def levels(self, h: float) -> list[BSLevel]:
        """Solve A(b) = 2 pi h (n + mu/4) for every n inside the probed range."""
        return [self.level(h, n) for n in self._quantum_numbers(h)]

    def level(self, h: float, n: int) -> BSLevel:
        """Solve A(b) = 2 pi h (n + mu/4) for one quantum number n.

        The loop action has slope dA/db = T(b), the flow period.  The level
        starts from the inverse cubic Hermite interpolant of b(A) on its
        bracketing probes (slopes 1/T) and is polished by Newton steps.  Each
        iterate reads A and T off the nearer bracketing probe's fiber moved
        onto its level (``_closed_fiber``), traced afresh only where that
        fiber is not polar or the guard refuses the move.
        """
        h_obs, probes, mu = self.observable, self.probes, self.maslov
        target = 2 * math.pi * h * (n + mu / 4.0)
        k = self._cell(1, target)
        (b0, a0, t0), (b1, a1, t1) = probes[k - 1], probes[k]
        # inverse cubic Hermite: b(A) through both probes with db/dA = 1/T
        da = a1 - a0
        u = (target - a0) / da
        b_next = (
            (1 + 2 * u) * (1 - u) ** 2 * b0
            + u * (1 - u) ** 2 * da / t0
            + u * u * (3 - 2 * u) * b1
            - u * u * (1 - u) * da / t1
        )
        for _ in range(_BS_NEWTON_MAX):
            b = min(max(b_next, b0), b1)
            held = self.fibers[k - 1] if b - b0 <= b1 - b else self.fibers[k]
            fiber = _closed_fiber(h_obs, b, held)
            act, period = fiber.loop_action, fiber.period
            b_next = b - (act - target) / period
            if abs(b_next - b) <= 1e-13:
                break
        if abs(act - target) > BS_TOL:
            raise NonMonotoneAction(
                f"quantization condition missed at n={n}: residual {act - target:.3e}"
            )
        return BSLevel(n=n, b=b, loop_action=act, loop_maslov=mu, period=period)

    def bracket(self, h: float, b: float) -> tuple[int, ...]:
        """Quantum numbers of the (at most two) levels inside the probed range
        nearest to ``b`` from below and above, in increasing order.

        No level is solved: the loop action at ``b`` (clamped to the probed
        range) comes from the cubic Hermite interpolant of A(b) on the probes
        (slopes T).  Its error is far below a level spacing, so the level
        nearest to ``b`` is always among the two returned.
        """
        numbers = self._quantum_numbers(h)
        if not numbers:
            return ()
        probes = self.probes
        b = min(max(b, probes[0][0]), probes[-1][0])
        k = self._cell(0, b)
        (b0, a0, t0), (b1, a1, t1) = probes[k - 1], probes[k]
        db = b1 - b0
        u = (b - b0) / db
        action = (
            (1 + 2 * u) * (1 - u) ** 2 * a0
            + u * (1 - u) ** 2 * db * t0
            + u * u * (3 - 2 * u) * a1
            - u * u * (1 - u) * db * t1
        )
        below = math.floor(action / (2 * math.pi * h) - self.maslov / 4.0)
        lo, hi = numbers[0], numbers[-1]
        return tuple(sorted({min(max(n, lo), hi) for n in (below, below + 1)}))


def probe_loop_actions(
    h_obs: Observable, b_range: tuple[float, float]
) -> LoopActionProbes:
    """Probe the loop action and period at evenly spaced levels of a closed
    family.  Each probe's fiber is the previous probe's moved onto its level
    (``_closed_fiber``), the first traced, and traced afresh where the move
    is refused; A and T are read off it, and the position fibration's Maslov
    index is counted on the first.  Levels without a closed fiber are
    skipped with a warning."""
    probes: list[tuple[float, float, float]] = []  # (b, A, T)
    fibers: list[FiberCurve] = []
    mu = None
    for b in np.linspace(b_range[0], b_range[1], _BS_PROBES):
        b = float(b)
        try:
            fiber = _closed_fiber(h_obs, b, fibers[-1] if fibers else None)
            if mu is None:
                mu = maslov_loop_index(fiber, Observable.position())
            probe = (b, fiber.loop_action, fiber.period)
        except SingularFiber:
            warnings.warn(f"level {b:.6g} skipped: no closed fiber", LevelSkipped)
            continue
        probes.append(probe)
        fibers.append(fiber)
    if len(probes) < 2:
        raise SingularFiber("fewer than two closed levels in the range")
    if not np.all(np.diff([a for _, a, _ in probes]) > 0):
        raise NonMonotoneAction("loop action is not increasing on the requested range")
    return LoopActionProbes(
        observable=h_obs, probes=tuple(probes), maslov=mu, fibers=tuple(fibers)
    )


def nearest_level(levels: Sequence[BSLevel], b: float) -> BSLevel:
    """The level nearest to ``b``.  When the two nearest are equally near to
    within _BS_TIE of their spacing (``b`` halfway between them), the one
    with the lower n, so that the pick does not turn on rounding."""
    first, *rest = sorted(levels, key=lambda l: abs(l.b - b))
    if rest:
        second = rest[0]
        if abs(second.b - b) - abs(first.b - b) <= _BS_TIE * abs(second.b - first.b):
            return min(first, second, key=lambda l: l.n)
    return first


def bohr_sommerfeld_levels(
    h_obs: Observable, h: float, b_range: tuple[float, float]
) -> list[BSLevel]:
    """Solve loop-action(b) = 2 pi h (n + mu/4) on a closed family.

    Probes the range and quantizes at one h; callers that sweep h probe once
    with ``probe_loop_actions`` and call ``levels(h)`` per h.
    """
    return probe_loop_actions(h_obs, b_range).levels(h)


# ---------------------------------------------------------------------------
# Overlap amplitudes
# ---------------------------------------------------------------------------

def _contribution(
    amplitude: complex, action: float, maslov: int, h: float, signature: int = 0
) -> complex:
    """amplitude * exp(i S / h + i pi mu / 2 [+ i pi sigma / 4]).

    The only place where h enters a term: actions, Maslov indices,
    Hessians and stationary levels are all h-free."""
    phase = 1j * action / h + 1j * math.pi * maslov / 2
    if signature:
        phase += 1j * math.pi * signature / 4
    return amplitude * cmath.exp(phase)


def _prefactor_and_value(h: float, terms) -> tuple[float, complex]:
    """(2 pi h)^(-1/2) and that prefactor times the sum of the contributions."""
    prefactor = 1.0 / math.sqrt(2 * math.pi * h)
    return prefactor, prefactor * sum((t.contribution for t in terms), 0j)


@dataclass(frozen=True)
class OverlapTerm:
    point: PhasePoint
    bracket: float
    action: float
    slopes: tuple[float, float]  # (dS/db1, dS/db2) in closed form
    curvatures: tuple[float, float]  # (d^2 S/db1^2, d^2 S/db2^2) in closed form
    maslov: int
    hessian_det: float
    hessian_bracket_dev: float
    weight: complex
    contribution: complex


@dataclass(frozen=True)
class SemiclassicalAmplitude:
    h: float
    terms: tuple[OverlapTerm, ...]
    prefactor: float
    value: complex
    curve1: FiberCurve | None = None
    curve2: FiberCurve | None = None
    x1: PhasePoint | None = None
    x2: PhasePoint | None = None

    def at(self, h: float) -> "SemiclassicalAmplitude":
        """The same amplitude at another h: only the phases and the
        prefactor change, so nothing is searched or traced again."""
        terms = tuple(
            replace(t, contribution=_contribution(
                t.weight * math.sqrt(abs(t.hessian_det)), t.action, t.maslov, h
            ))
            for t in self.terms
        )
        prefactor, value = _prefactor_and_value(h, terms)
        return replace(self, h=h, terms=terms, prefactor=prefactor, value=value)

    def term_dump(self) -> list[dict]:
        return [
            {
                "q": t.point.q,
                "p": t.point.p,
                "action": t.action,
                "maslov": t.maslov,
                "hessian_det": t.hessian_det,
                "bracket": t.bracket,
                "re": t.contribution.real,
                "im": t.contribution.imag,
            }
            for t in self.terms
        ]


@dataclass(frozen=True)
class _PairGeometry:
    """Two traced fibers (levels b1, b2) and their reference points x1, x2
    on ``lam``: the verifier's cross stencil."""

    lam: ReferenceLagrangian
    curve1: FiberCurve
    curve2: FiberCurve
    x1: PhasePoint
    x2: PhasePoint

    def action_at(self, c_anchor: PhasePoint, db1: float, db2: float) -> float:
        """S(b1 + db1, b2 + db2) on the branch anchored at ``c_anchor``,
        without the gauge part f(x2) - f(x1): that is separable in (b1, b2),
        so its cross derivative vanishes and it would only add rounding.

        Every arc is integrated by ``chart_action`` on the held fiber's
        guide, whatever the fiber, so the stencil checks the engine's arc
        integrals (closed form, polar) against quadrature too."""
        curve1, curve2, lam = self.curve1, self.curve2, self.lam
        h1, b1p = curve1.observable, curve1.level + db1
        h2, b2p = curve2.observable, curve2.level + db2
        c = _newton_intersection(h1, b1p, h2, b2p, c_anchor)
        if c is None:
            raise SingularFiber("intersection continuation failed in stencil")
        q1 = _newton_on_lagrangian(h1, b1p, lam, self.x1.q)
        q2 = _newton_on_lagrangian(h2, b2p, lam, self.x2.q)
        if q1 is None or q2 is None:
            raise SingularFiber("reference continuation failed in stencil")
        x1p = PhasePoint(q1, float(lam.value(q1)))
        x2p = PhasePoint(q2, float(lam.value(q2)))
        guide1, sign1 = curve1.arc(x1p, c, curve1.locate(self.x1), curve1.locate(c_anchor))
        guide2, sign2 = curve2.arc(x2p, c, curve2.locate(self.x2), curve2.locate(c_anchor))
        s1 = sign1 * chart_action(h1, b1p, guide1)[0]
        return s1 - sign2 * chart_action(h2, b2p, guide2)[0]

    def cross_hessian(self, c_anchor: PhasePoint, step: float) -> float:
        """|d^2 S / db1 db2| by a Richardson-extrapolated cross stencil."""

        def stencil(d: float) -> float:
            spp = self.action_at(c_anchor, +d, +d)
            spm = self.action_at(c_anchor, +d, -d)
            smp = self.action_at(c_anchor, -d, +d)
            smm = self.action_at(c_anchor, -d, -d)
            return (spp - spm - smp + smm) / (4 * d * d)

        d1 = stencil(step)
        d2 = stencil(2 * step)
        return abs((4.0 * d1 - d2) / 3.0)


def _reference_slope(
    h_obs: Observable, lam: ReferenceLagrangian, alpha: PrequantumForm, x: PhasePoint
) -> float:
    """(lam + f_q + f_p lam') / (H_q + H_p lam') at x: the level derivative
    of the p dq + df integral up to x as x slides along p = lam(q)."""
    slope = float(lam.slope(x.q))
    fq, fp = (0.0, 0.0) if alpha.gauge is None else alpha.gauge.gradient(x)
    hq, hp = h_obs.gradient(x)
    return (x.p + fq + fp * slope) / (hq + hp * slope)


def _reference_curvature(
    h_obs: Observable, lam: ReferenceLagrangian, alpha: PrequantumForm, x: PhasePoint
) -> float:
    """Level derivative of ``_reference_slope`` N / D as x slides along
    p = lam(q): (N' D - N D') / D^3 with ' = d/dq along the graph, since
    dq/db = 1 / D.  N' needs lam'' and the gauge Hessian, D' the Hessian of H.
    """
    l1, l2 = float(lam.slope(x.q)), float(lam.curvature(x.q))
    fq = fp = fqq = fqp = fpp = 0.0
    if alpha.gauge is not None:
        fq, fp = alpha.gauge.gradient(x)
        (fqq, fqp), (_, fpp) = alpha.gauge.hessian(x)
    hq, hp = h_obs.gradient(x)
    (hqq, hqp), (_, hpp) = h_obs.hessian(x)
    n = x.p + fq + fp * l1
    d = hq + hp * l1
    dn = l1 + fqq + 2 * fqp * l1 + fpp * l1 * l1 + fp * l2
    dd = hqq + 2 * hqp * l1 + hpp * l1 * l1 + hp * l2
    return (dn * d - n * dd) / d**3


def _crossing_tau(h_obs: Observable, other: Observable, c: PhasePoint) -> float:
    """tau(c) = (dc/db . X_H) / |grad H|^2: the flow time along {H = b} of
    the crossing c as b moves, beyond the fiber's normal motion.  c slides
    along the other fiber, dc/db = X_other / {H, other}."""
    hq, hp = h_obs.gradient(c)
    oq, op = other.gradient(c)
    return (op * hp + oq * hq) / ((hq * op - hp * oq) * (hq * hq + hp * hp))


def _reference_tau(h_obs: Observable, lam: ReferenceLagrangian, x: PhasePoint) -> float:
    """tau(x) of the reference point x sliding along p = lam(q), with
    dx/db = (1, lam') / (H_q + H_p lam') and (1, lam') . X_H = H_p - lam' H_q."""
    hq, hp = h_obs.gradient(x)
    slope = float(lam.slope(x.q))
    return (hp - slope * hq) / ((hq + hp * slope) * (hq * hq + hp * hp))


def overlap(
    sys1: tuple[Observable, float],
    sys2: tuple[Observable, float],
    lam: ReferenceLagrangian,
    alpha: PrequantumForm = PrequantumForm(),
    h: float = 0.1,
    curves: tuple[FiberCurve | None, FiberCurve | None] = (None, None),
    weight_fn: Callable[[PhasePoint], complex] | None = None,
) -> SemiclassicalAmplitude:
    """Leading-order overlap amplitude of two eigen-half-densities.

    ``sys1`` labels the fibration whose state sits in the linear slot of the
    pairing, ``sys2`` the conjugated one.  Every term carries the closed-form
    Hessian ``1 / |{H1, H2}|`` and its counted turning-point index; its
    ``hessian_bracket_dev`` is NaN (not measured), which
    ``stencil_overlap_term`` measures.
    Its action slopes are dS/db1 = T1 - e1 and dS/db2 = e2 - T2, with T_i
    the signed flow time from x_i to the intersection and e_i the endpoint
    term ``_reference_slope`` at x_i (Hamilton-Jacobi).  Its curvatures
    d^2 S/db1^2 = dT1/db1 - de1/db1 and d^2 S/db2^2 = de2/db2 - dT2/db2
    differentiate them once more: dT_i/db_i is the arc's level derivative
    (both ends moving normal to the fiber) plus the flow time of each end's
    actual motion along it, tau(c) - tau(x_i) (``_crossing_tau``,
    ``_reference_tau``), and de_i/db_i is the chain rule on
    ``_reference_slope`` along lam (``_reference_curvature``).  Each term
    builds one guide per fiber (``FiberCurve.arc``) and reads S_i, T_i and
    dT_i/db_i from one ``FiberCurve.arc_integrals`` call: in closed form on
    a straight fiber, from the radii on a polar one, by ``chart_action``
    on any other.  Fiber 2's guide also carries the turning-point count.

    Each fiber is one component, traced through the first intersection
    unless ``curves`` supplies it; an intersection farther than
    COMPONENT_TOL from either traced polyline raises ``MultipleComponents``.
    The intersections are read along a supplied straight fiber
    (``intersections_along``), which is the whole level set in the box, and
    found by the grid scan (``find_intersections``) when none is supplied.
    Each source can miss a pair of crossings its resolution cannot split:
    the scan a pair within one 0.04 cell, the polyline a transversal pair
    within one sample segment.  In a composition the backstop is
    ``compose_kernels``, which raises ``BranchStructureChange`` when a
    kernel's term count at some level differs from its first.
    """
    h1, b1 = sys1
    h2, b2 = sys2

    straight = next((c for c in curves if c is not None and c.observable.is_linear), None)
    if straight is None:
        points = find_intersections(h1, b1, h2, b2)
    else:
        points = intersections_along(straight, h1, b1, h2, b2)
    if not points:
        prefactor, value = _prefactor_and_value(h, ())
        return SemiclassicalAmplitude(h=h, terms=(), prefactor=prefactor, value=value)

    curve1 = curves[0] or trace_level_curve(h1, b1, points[0].point)
    curve2 = curves[1] or trace_level_curve(h2, b2, points[0].point)
    off = [
        ip.point for ip in points
        if max(curve1.distance(ip.point), curve2.distance(ip.point)) > COMPONENT_TOL
    ]
    if off:
        raise MultipleComponents(
            f"{len(off)} of {len(points)} intersections of {h1} = {b1} and "
            f"{h2} = {b2} lie off the traced components: "
            + ", ".join(f"({x.q:.6g}, {x.p:.6g})" for x in off),
            points=off,
        )
    x1 = reference_point(curve1, lam)
    # the turning-point count along fiber 2 starts at x2: skip tangencies
    x2 = min(
        (x for x in lagrangian_intersections(curve2, lam)
         if abs(poisson_bracket(h1, h2, x)) > TRANS_TOL),
        key=lambda x: (x.q, x.p),
        default=None,
    )
    if x2 is None:
        raise NoReferencePoint(
            f"fiber {h2} = {b2} has no crossing with the reference Lagrangian "
            f"at which |{{H1, H2}}| > {TRANS_TOL:g}"
        )
    if any(abs(ip.bracket) < 10 * TRANS_TOL for ip in points):
        warnings.warn(
            "an intersection lies within 10x the transversality floor",
            CausticNearby,
        )

    s_x1, s_x2 = curve1.locate(x1), curve2.locate(x2)
    gauge = alpha.gauge_value(x2) - alpha.gauge_value(x1)
    e1 = _reference_slope(h1, lam, alpha, x1)
    e2 = _reference_slope(h2, lam, alpha, x2)
    de1 = _reference_curvature(h1, lam, alpha, x1)
    de2 = _reference_curvature(h2, lam, alpha, x2)
    tau_x1, tau_x2 = _reference_tau(h1, lam, x1), _reference_tau(h2, lam, x2)
    terms = []
    for ip in points:
        c = ip.point
        guide1, sign1 = curve1.arc(x1, c, s_x1, curve1.locate(c))
        guide2, sign2 = curve2.arc(x2, c, s_x2, curve2.locate(c))
        s1, t1, dt1 = (sign1 * v for v in curve1.arc_integrals(guide1))
        s2, t2, dt2 = (sign2 * v for v in curve2.arc_integrals(guide2))
        dt1 = dt1 + _crossing_tau(h1, h2, c) - tau_x1
        dt2 = dt2 + _crossing_tau(h2, h1, c) - tau_x2
        action = s1 - s2 + gauge
        mu = sign2 * _maslov_over_guide(curve2, guide2, h1)
        hess = 1.0 / abs(ip.bracket)
        w = 1.0 + 0.0j if weight_fn is None else complex(weight_fn(c))
        contribution = _contribution(w * math.sqrt(abs(hess)), action, mu, h)
        terms.append(
            OverlapTerm(
                point=c,
                bracket=ip.bracket,
                action=action,
                slopes=(t1 - e1, e2 - t2),
                curvatures=(dt1 - de1, de2 - dt2),
                maslov=mu,
                hessian_det=hess,
                hessian_bracket_dev=math.nan,
                weight=w,
                contribution=contribution,
            )
        )
    prefactor, value = _prefactor_and_value(h, terms)
    return SemiclassicalAmplitude(
        h=h,
        terms=tuple(terms),
        prefactor=prefactor,
        value=value,
        curve1=curve1,
        curve2=curve2,
        x1=x1,
        x2=x2,
    )


def complementary_overlap_term(
    amp: SemiclassicalAmplitude, index: int, transverse: Observable
) -> OverlapTerm:
    """Recompute one term using the complementary arc on the closed second
    fiber (independent integration, not loop-action bookkeeping).

    Both arcs are integrated by ``chart_action``, so on a polar fiber the
    result checks the engine's spectral arc integrals against quadrature."""
    t = amp.terms[index]
    curve2 = amp.curve2
    if curve2 is None or not curve2.closed:
        raise ValueError("complementary arc needs a closed second fiber")
    h2, b2 = curve2.observable, curve2.level
    x2 = project_to_fiber(h2, b2, amp.x2)
    c = project_to_fiber(h2, b2, t.point)
    s_x2, s_c = curve2.locate(x2), curve2.locate(c)
    forward, _ = curve2.arc(x2, c, s_x2, s_c)
    # the arc from x2 to c against the flow is the forward arc c -> x2, reversed
    back, _ = curve2.arc(c, x2, s_c, s_x2)
    s_back, t_back, dt_back = chart_action(h2, b2, back)
    mu_complement = -_maslov_over_guide(curve2, back, transverse)
    # S = S1 - S2 and the gauge part change only through S2, dS/db2 = e2 - T2
    # only through T2 (by the period in all: dA/db = T), and d^2 S/db2^2 only
    # through dT2/db2 (by the period's slope)
    s2_forward, t2_forward, dt2_forward = chart_action(h2, b2, forward)
    action = t.action + s2_forward + s_back
    slopes = (t.slopes[0], t.slopes[1] + t2_forward + t_back)
    curvatures = (t.curvatures[0], t.curvatures[1] + dt2_forward + dt_back)
    contribution = _contribution(
        t.weight * math.sqrt(abs(t.hessian_det)), action, mu_complement, amp.h
    )
    return replace(
        t, action=action, slopes=slopes, curvatures=curvatures,
        maslov=mu_complement, contribution=contribution,
    )


def stencil_overlap_term(
    amp: SemiclassicalAmplitude, index: int, lam: ReferenceLagrangian
) -> OverlapTerm:
    """Recompute one term's Hessian |d^2 S / db1 db2| by the Richardson cross
    stencil at base step ``FD_STEP``: the reference for the closed form
    ``1 / |{H1, H2}|`` that ``overlap`` uses.

    The fibers and reference points come from ``amp``; ``lam`` is the
    reference Lagrangian it was computed with.  The term comes back with the
    stencil ``hessian_det``, the contribution that gives, and
    ``hessian_bracket_dev`` = |hess - 1/|bracket|| * |bracket|.
    """
    t = amp.terms[index]
    geo = _PairGeometry(lam, amp.curve1, amp.curve2, amp.x1, amp.x2)
    hess = geo.cross_hessian(t.point, FD_STEP)
    return replace(
        t,
        hessian_det=hess,
        hessian_bracket_dev=abs(hess - 1.0 / abs(t.bracket)) * abs(t.bracket),
        contribution=_contribution(
            t.weight * math.sqrt(hess), t.action, t.maslov, amp.h
        ),
    )


def transition_probability(
    sys1: tuple[Observable, float],
    sys2: tuple[Observable, float],
    h: float,
    lam: ReferenceLagrangian,
    alpha: PrequantumForm = PrequantumForm(),
    curves: tuple[FiberCurve | None, FiberCurve | None] = (None, None),
) -> float:
    """Squared-modulus transition density |overlap|^2: the double sum over
    intersection pairs, with relative actions and turning-point indices and
    prefactor 1/(2 pi h), is |sum of contributions|^2 / (2 pi h).

    ``curves`` passes pre-traced fibers on to ``overlap``, so a caller that
    sweeps positions at one level traces that fiber once."""
    amp = overlap(sys1, sys2, lam, alpha, h, curves=curves)
    return abs(amp.value) ** 2


# ---------------------------------------------------------------------------
# Cyclic amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainTerm:
    points: tuple[PhasePoint, ...]
    action: float
    maslov: int
    contribution: complex


@dataclass(frozen=True)
class CyclicAmplitude:
    h: float
    k: int
    chains: tuple[ChainTerm, ...]
    prefactor: float
    value: complex


def cyclic_amplitude(
    systems: Sequence[tuple[Observable, float]],
    h: float,
    lam: ReferenceLagrangian,
    alpha: PrequantumForm = PrequantumForm(),
    chain: Sequence[PhasePoint] | None = None,
) -> CyclicAmplitude:
    """Cyclic product of overlaps around k fibrations (2 <= k <= 4).

    Chain point ``c_a`` joins fiber ``a`` to fiber ``a+1`` (mod k); each
    chain contributes the product of the corresponding overlap terms and the
    prefactor is (2 pi h)^(-k/2).  Reference-point phases cancel around the
    cycle (exactly on open fibers, modulo loop actions on closed ones).
    """
    k = len(systems)
    if not 2 <= k <= 4:
        raise ValueError("cyclic amplitudes support 2 <= k <= 4 fibrations")
    prefactor = (2 * math.pi * h) ** (-k / 2.0)
    pair_amps = []
    for a in range(k):
        amp = overlap(systems[a], systems[(a + 1) % k], lam, alpha, h)
        if not amp.terms:
            return CyclicAmplitude(h=h, k=k, chains=(), prefactor=prefactor, value=0.0j)
        pair_amps.append(amp)

    if chain is not None:
        if len(chain) != k:
            raise ValueError("chain must pick one intersection per fiber pair")
        selections = []
        for a, pt in enumerate(chain):
            terms = pair_amps[a].terms
            d2 = [
                (t.point.q - pt.q) ** 2 + (t.point.p - pt.p) ** 2 for t in terms
            ]
            selections.append((terms[int(np.argmin(d2))],))
        combos = itertools.product(*selections)
    else:
        combos = itertools.product(*[amp.terms for amp in pair_amps])

    chains = []
    value = 0.0 + 0.0j
    for combo in combos:
        contribution = 1.0 + 0.0j
        action = 0.0
        mu = 0
        for t in combo:
            contribution *= t.contribution
            action += t.action
            mu += t.maslov
        chains.append(
            ChainTerm(
                points=tuple(t.point for t in combo),
                action=action,
                maslov=mu,
                contribution=contribution,
            )
        )
        value += contribution
    return CyclicAmplitude(
        h=h, k=k, chains=tuple(chains), prefactor=prefactor, value=prefactor * value
    )


# ---------------------------------------------------------------------------
# Stationary-phase composition of kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComposedTerm:
    b_star: float
    action: float
    maslov: int
    signature: int
    amplitude: complex
    contribution: complex


@dataclass(frozen=True)
class ComposedAmplitude:
    h: float
    terms: tuple[ComposedTerm, ...]
    prefactor: float
    value: complex

    def at(self, h: float) -> "ComposedAmplitude":
        """The same composition at another h: the stationary levels, actions,
        Maslov indices, signatures and amplitudes are h-free."""
        terms = tuple(
            replace(t, contribution=_contribution(
                t.amplitude, t.action, t.maslov, h, t.signature
            ))
            for t in self.terms
        )
        prefactor, value = _prefactor_and_value(h, terms)
        return replace(self, h=h, terms=terms, prefactor=prefactor, value=value)


def _sorted_terms(amp: SemiclassicalAmplitude) -> list[OverlapTerm]:
    return sorted(amp.terms, key=lambda t: (t.point.p, t.point.q))


def _hermite_cubic(fa: float, ga: float, fb: float, gb: float, width: float):
    """Power coefficients in t = (x - a) / width, t in [0, 1], of the cubic
    Hermite interpolant of values (fa, fb) and slopes (ga, gb) on a cell."""
    c1 = width * ga
    c2 = 3 * (fb - fa) - width * (2 * ga + gb)
    c3 = 2 * (fa - fb) + width * (ga + gb)
    return fa, c1, c2, c3


def _roots_inside(coeffs) -> list[float]:
    """Real roots in (0, 1) of the polynomial with power coefficients
    ``coeffs`` (constant first)."""
    return [
        float(t.real) for t in np.roots(coeffs[::-1])
        if abs(t.imag) <= 1e-12 * max(1.0, abs(t.real)) and 0 < t.real < 1
    ]


def _hermite_reaches_zero(fa, fb, width: float) -> bool:
    """Does the cubic Hermite interpolant from (phi', phi'') ``fa`` and
    ``fb`` at the ends of a cell reach zero inside it?  phi' has one sign
    at both ends, so it does iff an interior extremum does."""
    c0, c1, c2, c3 = _hermite_cubic(*fa, *fb, width)
    return any(
        (c0 + t * (c1 + t * (c2 + t * c3))) * math.copysign(1.0, c0) <= 0
        for t in _roots_inside((c1, 2 * c2, 3 * c3))
    )


def _newton_in_bracket(dphi, a: float, fa, b: float, fb) -> float:
    """Zero of phi' in the cell [a, b] where it changes sign; ``fa`` and
    ``fb`` are (phi', phi'') at its ends.

    The first level is the zero of the cell's cubic Hermite interpolant
    (Shampine and Thompson's event location); from there Newton on phi'
    with the exact phi'' runs, safeguarded by bisection inside the bracket
    (Numerical Recipes' rtsafe).  The result is a level ``dphi`` was
    evaluated at: the first whose Newton step is at most _COMPOSE_XTOL, or
    the end of a bracket that has shrunk to that width."""
    neg_at_a = fa[0] < 0
    start = _roots_inside(_hermite_cubic(*fa, *fb, b - a))
    x = a + start[0] * (b - a) if len(start) == 1 else (a + b) / 2
    step = step_old = b - a
    for _ in range(_COMPOSE_NEWTON_MAX):
        f, g = dphi(x)
        if f == 0:
            return x
        if (f < 0) == neg_at_a:
            a = x
        else:
            b = x
        if b - a <= _COMPOSE_XTOL:
            return x
        newton = f / g if g != 0 else math.inf
        if a < x - newton < b and abs(2 * f) <= abs(step_old * g):
            if abs(newton) <= _COMPOSE_XTOL:
                return x
            step_old, step = step, newton
            x = x - newton
        else:
            step_old, step = step, (b - a) / 2
            x = a + step
    raise DegenerateStationaryPoint(
        f"Newton on phi' did not converge in [{a:.17g}, {b:.17g}]"
    )


def _stationary_levels(
    dphi: Callable[[float], tuple[float, float]], grid: np.ndarray
) -> list[float]:
    """Zeros of phi' on [grid[0], grid[-1]], with ``dphi(b)`` = (phi', phi'').

    phi' and phi'' are read at every level of ``grid``, and each cell
    between neighbouring levels is treated by these rules:
      * where phi' changes sign, the cell is a bracket, and
        ``_newton_in_bracket`` finds its zero;
      * where phi' keeps its sign but phi'' changes sign (an extremum of
        phi' inside), or the cubic Hermite interpolant from (phi', phi'') at
        the two ends reaches zero, the cell is bisected.  Each half is
        treated by the first rule, and bisected again while its interpolant
        reaches zero, so bisection stops once every piece shows a sign
        change or an interpolant clear of zero;
      * a level where phi' is exactly zero is a zero.
    A pair of zeros with a single extremum of phi' between them is found
    even inside one cell: where that is the cell's only extremum, its ends
    see phi'' of opposite signs, the
    extremum stays inside the half that holds both zeros, and a midpoint
    falls between them once the cell is narrower than their spacing, as
    long as the interpolant, whose error falls as the fourth power of the
    width, does not clear zero first.  A sign scan alone misses every such
    pair inside one cell.  A cell still suspect at width _COMPOSE_XTOL holds
    a (near-)double zero and raises ``DegenerateStationaryPoint``, as does
    phi' below HESS_TOL across the whole grid.
    """
    vals = [dphi(float(b)) for b in grid]
    if max(abs(f) for f, _ in vals) < HESS_TOL:
        raise DegenerateStationaryPoint(
            "phase is flat across the interval (coincident fibrations)"
        )
    roots = [float(b) for b, (f, _) in zip(grid, vals) if f == 0]
    cells = [
        (float(grid[i]), vals[i], float(grid[i + 1]), vals[i + 1], True)
        for i in range(len(grid) - 1)
    ]
    while cells:
        a, fa, b, fb, scanned = cells.pop()
        if fa[0] == 0 or fb[0] == 0:
            continue
        if (fa[0] < 0) != (fb[0] < 0):
            roots.append(_newton_in_bracket(dphi, a, fa, b, fb))
            continue
        extremum = scanned and fa[1] * fb[1] < 0
        if not (extremum or _hermite_reaches_zero(fa, fb, b - a)):
            continue
        if b - a <= _COMPOSE_XTOL:
            raise DegenerateStationaryPoint(
                f"phi' touches zero without changing sign near b = {a:.12g}"
            )
        m = (a + b) / 2
        fm = dphi(m)
        if fm[0] == 0:
            roots.append(m)
        cells += [(a, fa, m, fm, False), (m, fm, b, fb, False)]
    return sorted(roots)


def compose_kernels(
    u20: Callable[[float], SemiclassicalAmplitude],
    u01: Callable[[float], SemiclassicalAmplitude],
    h: float,
    interval: tuple[float, float],
) -> ComposedAmplitude:
    """One-dimensional stationary-phase composition over the intermediate label.

    Per branch pair the phase is phi(b) = S20 + S01.  Every overlap term
    carries its slope phi' = dS20/db1 + dS01/db2 and its curvature
    phi'' = d^2 S20/db1^2 + d^2 S01/db2^2 in closed form
    (``OverlapTerm.slopes`` and ``.curvatures``).  ``_stationary_levels`` reads
    (phi', phi'') at _COMPOSE_GRID levels of the interval, bisects the cells
    where phi'' or the Hermite interpolant of phi' warns of a hidden pair of
    zeros, and polishes each zero b* by safeguarded Newton on phi' to a
    level it has evaluated.  So one call of each kernel at b* gives phi(b*),
    phi''(b*) and the weights, Hessians and Maslov indices of the term.
    Each term takes the Gaussian factor sqrt(2 pi h / |phi''|) and the
    signature phase exp(+- i pi / 4).  Both kernels are called as ``u(b)``,
    as ``overlap_kernel`` builds them, at most once per level, and every
    level must give each kernel as many terms as the first one does, or
    ``BranchStructureChange`` names the two levels.
    """
    first: list[tuple[float, int, int]] = []  # the first level and its counts

    @functools.cache
    def at_level(b: float):
        # one call per level: the scan, bisection and Newton share levels,
        # and b* is one of them
        amp20, amp01 = u20(b), u01(b)
        n2, n1 = len(amp20.terms), len(amp01.terms)
        if not first:
            first.append((b, n2, n1))
        b0, n2_0, n1_0 = first[0]
        if (n2, n1) != (n2_0, n1_0):
            raise BranchStructureChange(
                f"kernel terms change from {n2_0} x {n1_0} at b = {b0:.12g} to "
                f"{n2} x {n1} at b = {b:.12g}; narrow the interval"
            )
        return _sorted_terms(amp20), _sorted_terms(amp01)

    grid = np.linspace(*interval, _COMPOSE_GRID)
    for b in grid:
        at_level(float(b))
    _, n2, n1 = first[0]

    terms: list[ComposedTerm] = []
    for j in range(n2):
        for k in range(n1):

            def dphi(b: float, j=j, k=k) -> tuple[float, float]:
                t20, t01 = at_level(b)
                t20, t01 = t20[j], t01[k]
                return (
                    t20.slopes[0] + t01.slopes[1],
                    t20.curvatures[0] + t01.curvatures[1],
                )

            for b_star in _stationary_levels(dphi, grid):
                t20, t01 = at_level(b_star)
                t20, t01 = t20[j], t01[k]
                d2 = t20.curvatures[0] + t01.curvatures[1]
                action = t20.action + t01.action  # phi(b*)
                if abs(d2) < HESS_TOL:
                    raise DegenerateStationaryPoint(
                        f"second derivative {d2:.3e} below tolerance at b = {b_star:.6g}"
                    )
                amp_factor = (
                    t20.weight
                    * t01.weight
                    * math.sqrt(abs(t20.hessian_det * t01.hessian_det))
                    / math.sqrt(abs(d2))
                )
                mu = t20.maslov + t01.maslov
                sig = 1 if d2 > 0 else -1
                terms.append(
                    ComposedTerm(
                        b_star=float(b_star),
                        action=action,
                        maslov=mu,
                        signature=sig,
                        amplitude=amp_factor,
                        contribution=_contribution(amp_factor, action, mu, h, sig),
                    )
                )
    prefactor, value = _prefactor_and_value(h, terms)
    return ComposedAmplitude(h=h, terms=tuple(terms), prefactor=prefactor, value=value)


def overlap_kernel(
    fixed_sys: tuple[Observable, float],
    intermediate: Observable,
    lam: ReferenceLagrangian,
    alpha: PrequantumForm,
    h: float,
    fixed_slot: int,
    weight_fn: Callable[[PhasePoint], complex] | None = None,
    fibers: dict[float, FiberCurve] | None = None,
) -> Callable[[float], SemiclassicalAmplitude]:
    """Kernel as a function of the intermediate level.

    ``fixed_slot`` = 1 puts the fixed system in the linear slot (kernel rows
    labelled by the intermediate), 2 the reverse.  The fixed fiber is traced
    at the first call and kept in ``kernel.cache["curve"]``; when it is
    straight, every later call reads the crossings along it and the first
    is the kernel's only grid scan (``overlap``).  ``fibers``
    maps intermediate levels to fibers; the two kernels of one composition
    share it, and a kernel given none keeps its own.  A level the mapping
    holds is read from it; any other level moves the held fiber of the
    nearest level onto b (``moved_fiber``), and only where that move is
    refused (an open fiber, or one that fails the guard) or nothing is held
    yet is the fiber traced.  Either way it joins the mapping, so a
    composition over a closed intermediate family traces one fiber, and
    each later level is a short move from a neighbour.
    """
    cache: dict[str, FiberCurve | None] = {"curve": None}
    fibers = {} if fibers is None else fibers

    def kernel(b: float) -> SemiclassicalAmplitude:
        inter_curve = fibers.get(b)
        if inter_curve is None and fibers:
            held = fibers[min(fibers, key=lambda level: abs(level - b))]
            inter_curve = moved_fiber(held, b)
        if fixed_slot == 1:
            sys1, sys2 = fixed_sys, (intermediate, b)
            curves = (cache["curve"], inter_curve)
        else:
            sys1, sys2 = (intermediate, b), fixed_sys
            curves = (inter_curve, cache["curve"])
        amp = overlap(sys1, sys2, lam, alpha, h, curves=curves, weight_fn=weight_fn)
        fixed_curve, inter_curve = (
            (amp.curve1, amp.curve2) if fixed_slot == 1 else (amp.curve2, amp.curve1)
        )
        if cache["curve"] is None:
            cache["curve"] = fixed_curve
        if inter_curve is not None:
            fibers.setdefault(b, inter_curve)
        return amp

    # an attribute, not a name the body reads: a kernel that referred to
    # itself would be freed only by the cycle collector
    kernel.cache = cache
    return kernel
