"""Exact finite-dimensional quantum mechanics on a position grid.

Symmetric (Weyl) ordered quantization with Fourier spectral momentum,
eigendecomposition, discrete inner products, and the normalization bridge
between half-density kernels and discrete-spectrum overlaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import circulant, eigh

from .errors import CountMismatch, GridMismatch, OpenFiber, UnsupportedOrdering
from .geometry import FiberCurve, Observable


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic position grid on [-half_width, half_width)."""

    half_width: float = 10.0
    points: int = 1024

    @property
    def dq(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def qs(self) -> np.ndarray:
        # centred on the grid index n/2, so q[n - k] == -q[k] holds exactly
        return self.dq * (np.arange(self.points) - self.points / 2)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dq)


def momentum_matrix(grid: GridSpec, h: float, power: int = 1) -> np.ndarray:
    """Dense circulant of (h k)^power, from one inverse FFT of the symbol.

    An even power has a symbol symmetric under k -> -k, so its column is
    real; it is averaged with its reflection c[n - k] so that the matrix is
    exactly symmetric.
    """
    col = np.fft.ifft((h * grid.wavenumbers) ** power)
    if power % 2 == 0:
        col = col.real
        col = 0.5 * (col + np.roll(col[::-1], 1))
    return circulant(col)


def _is_constant(c: np.ndarray) -> bool:
    """Whether a slice c(q) is constant over the grid, up to rounding."""
    spread = np.ptp(c.real) + np.ptp(c.imag)
    return bool(spread < 1e-15 * max(1.0, float(np.max(np.abs(c)))))


def weyl_monomial_matrix(
    coeff_q: np.ndarray,
    p_power: int,
    grid: GridSpec,
    h: float,
    p1: np.ndarray | None,
) -> np.ndarray:
    """Weyl-ordered operator for c(q) p^b, b <= 2, given P = ``p1``.

    b = 1 uses (CP + PC)/2 and b = 2 the fully symmetrized
    (C P^2 + 2 P C P + P^2 C)/4, which is the exact Weyl ordering at
    quadratic momentum degree; constant c(q) collapses to c * P^b, with
    P^2 the real circulant of (h k)^2.  ``p1`` is read only for b = 1 and
    for a q-dependent b = 2 slice, so it may be None otherwise.
    """
    c = np.asarray(coeff_q)
    if p_power == 0:
        return np.diag(c)
    if _is_constant(c):
        return c[0] * (p1 if p_power == 1 else momentum_matrix(grid, h, 2))
    if p_power == 1:
        return 0.5 * (c[:, None] * p1 + p1 * c[None, :])
    p2 = p1 @ p1
    pcp = p1 @ (c[:, None] * p1)
    return 0.25 * (c[:, None] * p2 + 2.0 * pcp + p2 * c[None, :])


def weyl_operator(
    slices: dict[int, np.ndarray], grid: GridSpec, h: float
) -> np.ndarray:
    """Weyl-ordered grid operator of sum_b c_b(q) p^b from ``{b: c_b(qs)}``.

    Each slice is a real or complex array over ``grid.qs``; momentum
    degree at most 2.  The operator is real (float64) when every slice is
    real and every momentum piece is an even power with a constant
    coefficient; otherwise it is complex128.  P is built only when a
    b = 1 slice or a q-dependent b = 2 slice needs it.
    """
    degree = max(slices, default=0)
    if degree > 2:
        raise UnsupportedOrdering(
            f"momentum degree {degree} > 2 is not representable on the grid"
        )
    needs_p1 = 1 in slices or (2 in slices and not _is_constant(slices[2]))
    real = not needs_p1 and all(np.isrealobj(c) for c in slices.values())
    op = np.zeros((grid.points, grid.points), dtype=float if real else complex)
    p1 = momentum_matrix(grid, h, 1) if needs_p1 else None
    for b, c in sorted(slices.items()):
        op += weyl_monomial_matrix(c, b, grid, h, p1)
    return op


@dataclass(frozen=True)
class GridQuantization:
    grid: GridSpec
    h: float
    operator: np.ndarray
    observable: Observable

    @property
    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.operator - self.operator.conj().T)))


def build_weyl_operator(
    h_obs: Observable, grid: GridSpec, h: float
) -> GridQuantization:
    """Quantize an observable of momentum degree <= 2 on the grid."""
    qs = grid.qs
    slices = {
        b: np.asarray(cfn(qs), dtype=float)
        for b, cfn in h_obs.momentum_decomposition().items()
    }
    return GridQuantization(
        grid=grid, h=h, operator=weyl_operator(slices, grid, h), observable=h_obs
    )


@dataclass(frozen=True)
class StateVector:
    """A grid wavefunction normalized in the Delta-q weighted discrete L2."""

    values: np.ndarray
    grid: GridSpec

    def at(self, q: float) -> complex:
        """Value at a grid point (q must sit on the grid)."""
        idx = int(round((q + self.grid.half_width) / self.grid.dq))
        if not np.isclose(
            self.grid.qs[idx % self.grid.points], q, rtol=0, atol=1e-9
        ):
            raise ValueError(f"q = {q} is not a grid point")
        return complex(self.values[idx % self.grid.points])


@dataclass(frozen=True)
class Eigensystem:
    eigenvalues: np.ndarray
    states: np.ndarray  # columns, Delta-q normalized
    grid: GridSpec
    h: float

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def state(self, n: int) -> StateVector:
        return StateVector(values=self.states[:, n], grid=self.grid)

    def residual(self, operator: np.ndarray, n: int) -> float:
        v = self.states[:, n]
        return float(np.linalg.norm(operator @ v - self.eigenvalues[n] * v))

    def export(self, directory) -> None:
        """CSV eigenvalues, raw row-major eigenvectors, JSON sidecar.

        Real states go to ``eigenvectors.f64`` as float64, complex states
        to ``eigenvectors.c128`` as complex128; ``grid.json`` names the
        file and its dtype.
        """
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        np.savetxt(d / "eigenvalues.csv", self.eigenvalues, delimiter=",",
                   header="eigenvalue", comments="")
        if np.isrealobj(self.states):
            name, dtype = "eigenvectors.f64", np.float64
        else:
            name, dtype = "eigenvectors.c128", np.complex128
        self.states.T.astype(dtype).tofile(d / name)
        sidecar = {
            "half_width": self.grid.half_width,
            "points": self.grid.points,
            "h": self.h,
            "count": self.count,
            "file": name,
            "dtype": np.dtype(dtype).name,
            "layout": "row-major, one state per row",
        }
        (d / "grid.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def eigensystem(
    gq: GridQuantization, retain_below: float | None = None
) -> Eigensystem:
    """Eigendecomposition, keeping states below the box-contamination cutoff.

    The default cutoff is H(half_width, 0)/2; pass ``retain_below`` to
    override (e.g. the top level a caller compares against plus one level
    spacing, or a natural compact domain with no contamination).  When no
    eigenvalue lies below the cutoff, the lowest 8 states are kept.

    A real operator on an even grid that commutes exactly (bit for bit)
    with the reflection k -> n - k, i.e. q -> -q, is diagonalized through
    its even and odd parity blocks, about a quarter of the dense work; its
    states then have definite parity.  Any other operator is diagonalized
    whole.  A ``retain_below`` under the default cutoff asks for few states,
    so each block (or the whole operator) takes LAPACK's ``evr`` solve of
    only the eigenpairs below it; at the default cutoff the kept share is
    large enough that the full ``np.linalg.eigh`` is faster, and it runs
    unchanged.
    """
    a = gq.operator
    default = float(gq.observable.value(gq.grid.half_width, 0.0)) / 2.0
    cutoff = default if retain_below is None else retain_below
    subset = cutoff if cutoff < default else None
    if _reflection_even(a):
        evals, columns = _parity_eigh(a, subset)
    else:
        ((evals, vecs),) = _block_eigh([a], subset)

        def columns(keep: np.ndarray) -> np.ndarray:
            return vecs[:, keep]

    keep = evals < cutoff
    if not np.any(keep):
        keep = np.zeros_like(evals, dtype=bool)
        keep[: min(8, len(evals))] = True
    states = columns(keep)  # a new array: normalized in place
    states /= np.sqrt(gq.grid.dq)
    return Eigensystem(
        eigenvalues=evals[keep],
        states=states,
        grid=gq.grid,
        h=gq.h,
    )


def _block_eigh(blocks: list[np.ndarray], cutoff: float | None):
    """(eigenvalues, eigenvectors) of each Hermitian block.

    With no ``cutoff``, every eigenpair from the dense ``np.linalg.eigh``.
    Otherwise only the eigenpairs at or below ``cutoff``; when no block has
    an eigenvalue strictly below it, the lowest min(8, size) of each block,
    which hold the lowest 8 overall.
    """
    if cutoff is None:
        return [np.linalg.eigh(block) for block in blocks]
    if cutoff > -np.inf:
        pairs = [
            eigh(block, subset_by_value=(-np.inf, cutoff), driver="evr")
            for block in blocks
        ]
        if any(np.any(w < cutoff) for w, _ in pairs):
            return pairs
    return [
        eigh(block, subset_by_index=(0, min(8, len(block)) - 1), driver="evr")
        for block in blocks
    ]


def _reflection_even(a: np.ndarray) -> bool:
    """Whether a real operator on an even grid satisfies R A R == A exactly,
    R the reflection k -> n - k (mod n); compared on flipped views."""
    n = a.shape[0]
    return bool(
        np.isrealobj(a)
        and n % 2 == 0
        and np.array_equal(a[1:, 1:], a[:0:-1, :0:-1])
        and np.array_equal(a[0, 1:], a[0, :0:-1])
        and np.array_equal(a[1:, 0], a[:0:-1, 0])
    )


def _parity_eigh(a: np.ndarray, cutoff: float | None):
    """Spectrum of a reflection-even operator from its two parity blocks.

    The even basis is e_0, (e_k + e_{n-k})/sqrt2 for k = 1..m-1, e_m with
    m = n/2; the odd basis is (e_k - e_{n-k})/sqrt2.  Both blocks are read
    off A's entries and solved by ``_block_eigh`` with ``cutoff``, so each
    may return fewer than all its eigenpairs.  Returns the merged
    eigenvalues in ascending order and a function ``columns(keep)`` that
    writes only the eigenvectors selected by the boolean ``keep`` (over the
    merged order) into a new array of unit-norm grid-basis columns.
    """
    n = a.shape[0]
    m = n // 2
    mirror = a[1:m, :m:-1]  # A[i, n - j] for i, j = 1..m-1
    even = np.empty((m + 1, m + 1))
    even[1:m, 1:m] = a[1:m, 1:m] + mirror
    even[0, 1:m] = even[1:m, 0] = np.sqrt(2.0) * a[0, 1:m]
    even[m, 1:m] = even[1:m, m] = np.sqrt(2.0) * a[m, 1:m]
    even[0, 0], even[m, m] = a[0, 0], a[m, m]
    even[0, m] = even[m, 0] = a[0, m]
    (ev_even, vec_even), (ev_odd, vec_odd) = _block_eigh(
        [even, a[1:m, 1:m] - mirror], cutoff
    )
    evals = np.concatenate((ev_even, ev_odd))
    order = np.argsort(evals, kind="stable")
    n_even = ev_even.size

    def columns(keep: np.ndarray) -> np.ndarray:
        picked = order[keep]
        is_even = picked < n_even
        out = np.empty((n, picked.size))
        cols = np.nonzero(is_even)[0]
        v = vec_even[:, picked[is_even]]
        out[0, cols] = v[0]
        out[m, cols] = v[m]
        out[1:m, cols] = v[1:m] / np.sqrt(2.0)
        out[:m:-1, cols] = out[1:m, cols]
        cols = np.nonzero(~is_even)[0]
        out[0, cols] = out[m, cols] = 0.0
        out[1:m, cols] = vec_odd[:, picked[~is_even] - n_even] / np.sqrt(2.0)
        out[:m:-1, cols] = -out[1:m, cols]
        return out

    return evals[order], columns


def exact_overlap(u: StateVector, v: StateVector) -> complex:
    """Discrete inner product, linear in u and conjugate-linear in v."""
    if u.grid != v.grid:
        raise GridMismatch("states live on different grids")
    return complex(np.sum(u.values * np.conj(v.values)) * u.grid.dq)


def bridge_factor(fiber: FiberCurve | None, h: float) -> float:
    """Half-density to discrete-state normalization factor for one system.

    Closed fibers contribute sqrt(level spacing) with spacing 2 pi h / T(b);
    ``None`` or an open linear fiber (plane-wave case, continuum-normalized
    by closed form) contributes 1.
    """
    if fiber is None:
        return 1.0
    if fiber.closed:
        if fiber.period is None or fiber.period <= 0:
            raise OpenFiber("closed fiber without a flow period")
        return float(np.sqrt(2.0 * np.pi * h / fiber.period))
    if fiber.observable.is_linear:
        return 1.0
    raise OpenFiber(
        "open non-linear fiber has no discrete normalization; only the "
        "plane-wave closed forms are handled"
    )


def half_density_bridge(
    amplitude_value: complex,
    fiber1: FiberCurve | None,
    fiber2: FiberCurve | None,
    h: float,
) -> complex:
    """Convert a half-density overlap into a discrete-spectrum overlap."""
    return amplitude_value * bridge_factor(fiber1, h) * bridge_factor(fiber2, h)


@dataclass(frozen=True)
class LevelPairing:
    indices: list[int]
    eigenvalues: list[float]
    levels: list[float]
    deviations: list[float]


def match_levels(es: Eigensystem, bs_levels) -> LevelPairing:
    """Pair the n-th eigenvalue with the n-th quantization level."""
    if not bs_levels:
        return LevelPairing([], [], [], [])
    max_n = max(level.n for level in bs_levels)
    if max_n >= es.count:
        raise CountMismatch(
            f"need eigenvalue index {max_n} but only {es.count} retained states"
        )
    idx, ev, lv, dev = [], [], [], []
    for level in bs_levels:
        e = float(es.eigenvalues[level.n])
        idx.append(level.n)
        ev.append(e)
        lv.append(level.b)
        dev.append(abs(e - level.b))
    return LevelPairing(idx, ev, lv, dev)
