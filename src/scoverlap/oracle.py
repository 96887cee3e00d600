"""Exact finite-dimensional quantum mechanics on a position grid.

Symmetric (Weyl) ordered quantization with Fourier spectral momentum; an
eigensystem from one tridiagonal reduction per parity block, with every
eigenvalue computed at once and each state only when it is read; discrete
inner products, and the normalization bridge between half-density kernels
and discrete-spectrum overlaps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import circulant, eigh_tridiagonal, eigvalsh_tridiagonal, lapack

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
    n = grid.points
    if not needs_p1 and all(np.isrealobj(c) for c in slices.values()):
        # one array: c P^2 scaled in place, the p^0 slice added on its diagonal
        if 2 in slices:
            op = momentum_matrix(grid, h, 2)
            op *= slices[2][0]
        else:
            op = np.zeros((n, n))
        if 0 in slices:
            op.flat[:: n + 1] += slices[0]
        return op
    op = np.zeros((n, n), dtype=complex)
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
class _Block:
    """A Hermitian block as ``?sytrd``/``?hetrd`` (lower) leave it: A = Q T Q^H,
    T tridiagonal (``d``, ``e``), Q the reflectors below the subdiagonal of
    ``reflectors`` with scalars ``tau``.  ``parity`` is 0 for a whole
    operator and +1/-1 for the even/odd block of ``_parity_blocks``."""

    reflectors: np.ndarray
    d: np.ndarray
    e: np.ndarray
    tau: np.ndarray
    parity: int

    @classmethod
    def reduce(cls, a: np.ndarray, parity: int) -> "_Block":
        """Reduce the Fortran-ordered ``a`` in place."""
        name = "sytrd" if np.isrealobj(a) else "hetrd"
        trd, query = lapack.get_lapack_funcs((name, name + "_lwork"), (a,))
        lwork = int(query(len(a), lower=1)[0].real)
        c, d, e, tau, _ = trd(a, lower=1, lwork=lwork, overwrite_a=1)
        return cls(c, d, e, tau, parity)

    def vectors(self, lo: int, hi: int) -> np.ndarray:
        """Unit grid columns of the block's eigenvectors lo..hi (ascending):
        T's by inverse iteration (``stein``), each signed so that its largest
        entry is positive whichever others are built with it, then times Q
        by ``?ormqr``/``?unmqr`` (what LAPACK's ``?ormtr`` does, lower)."""
        _, z = eigh_tridiagonal(
            self.d, self.e, select="i", select_range=(lo, hi), lapack_driver="stebz"
        )
        z *= np.sign(z[np.argmax(np.abs(z), axis=0), np.arange(z.shape[1])])
        v = z.astype(self.reflectors.dtype)
        if len(v) > 1:
            ormqr = lapack.dormqr if np.isrealobj(v) else lapack.zunmqr
            args = ("L", "N", self.reflectors[1:, :-1], self.tau, v[1:])
            lwork = int(ormqr(*args, -1)[1][0].real)
            v[1:] = ormqr(*args, lwork)[0]
        if self.parity == 0:
            return v
        if self.parity < 0:  # the odd basis has no e_0 or e_m component
            v = np.pad(v, ((1, 1), (0, 0)))
        m = len(v) - 1
        out = np.empty((2 * m, v.shape[1]))
        out[0], out[m] = v[0], v[m]
        out[1:m] = v[1:m] / np.sqrt(2.0)
        out[:m:-1] = self.parity * out[1:m]
        return out


@dataclass(frozen=True)
class Eigensystem:
    """Kept eigenvalues, ascending; state n, eigenvector ``index[n]`` of
    ``blocks[block[n]]``, is built when read, Delta-q normalized."""

    eigenvalues: np.ndarray
    grid: GridSpec
    h: float
    blocks: tuple[_Block, ...] = field(repr=False)
    block: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def state(self, n: int) -> StateVector:
        """State n alone: one tridiagonal eigenvector, one back-transform."""
        j = int(self.index[n])
        v = self.blocks[self.block[n]].vectors(j, j)[:, 0]
        return StateVector(values=v / np.sqrt(self.grid.dq), grid=self.grid)

    @cached_property
    def states(self) -> np.ndarray:
        """Every kept state as a column, each block's built in one pass."""
        out = np.empty((self.grid.points, self.count), self.blocks[0].reflectors.dtype)
        for b, blk in enumerate(self.blocks):
            cols = np.nonzero(self.block == b)[0]
            if cols.size:
                out[:, cols] = blk.vectors(0, cols.size - 1)
        out /= np.sqrt(self.grid.dq)
        return out

    def residual(self, operator: np.ndarray, n: int) -> float:
        v = self.state(n).values
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
    """Eigenvalues below the box-contamination cutoff, with lazy states.

    The default cutoff is H(half_width, 0)/2; pass ``retain_below`` to
    override (e.g. the top level a caller compares against plus one level
    spacing, or a natural compact domain with no contamination).  When no
    eigenvalue lies below the cutoff, the lowest 8 are kept.

    One path for every operator and cutoff (LAPACK Users' Guide, 3rd ed.,
    1999): each Hermitian block is reduced once to tridiagonal form
    (``?sytrd``/``?hetrd``), and all its eigenvalues come from that form by
    ``sterf``.  A real operator on an even grid that commutes exactly (bit
    for bit) with the reflection k -> n - k, i.e. q -> -q, splits into its
    even and odd parity blocks, each reduced in place as it is built, and
    its states have definite parity; any other operator is one block,
    reduced in a copy.  The result holds each block's reflectors, d, e and
    tau (about (n/2)^2 float64 per parity block, 2.1 MB at n = 1024; n^2
    float64 or complex128 for one whole block), and a state is computed only
    when ``state(n)`` or ``states`` reads it.
    """
    a = gq.operator
    if retain_below is None:
        retain_below = float(gq.observable.value(gq.grid.half_width, 0.0)) / 2.0
    if _reflection_even(a):
        blocks = _parity_blocks(a)
    else:
        blocks = (_Block.reduce(np.array(a, order="F"), 0),)
    values = [eigvalsh_tridiagonal(b.d, b.e, lapack_driver="sterf") for b in blocks]
    evals = np.concatenate(values)
    kept = int(np.count_nonzero(evals < retain_below)) or min(8, len(evals))
    order = np.argsort(evals, kind="stable")[:kept]
    sizes = [len(w) for w in values]
    block = np.repeat(np.arange(len(blocks)), sizes)[order]
    index = order - np.cumsum([0] + sizes[:-1])[block]
    return Eigensystem(
        eigenvalues=evals[order], grid=gq.grid, h=gq.h,
        blocks=blocks, block=block, index=index,
    )


def _reflection_even(a: np.ndarray) -> bool:
    """Whether a real operator on an even grid satisfies R A R == A exactly,
    R the reflection k -> n - k (mod n); compared on flipped views."""
    n = a.shape[0]
    return bool(
        np.isrealobj(a)
        and n % 2 == 0 and n > 2  # n = 2 would leave an empty odd block
        and np.array_equal(a[1:, 1:], a[:0:-1, :0:-1])
        and np.array_equal(a[0, 1:], a[0, :0:-1])
        and np.array_equal(a[1:, 0], a[:0:-1, 0])
    )


def _parity_blocks(a: np.ndarray) -> tuple[_Block, _Block]:
    """The even and odd blocks of a reflection-even operator, reduced.

    The even basis is e_0, (e_k + e_{n-k})/sqrt2 for k = 1..m-1, e_m with
    m = n/2; the odd basis is (e_k - e_{n-k})/sqrt2.  Both blocks are read
    off A's entries into new arrays, which are symmetric, so their
    transposes are the Fortran-ordered blocks that ``?sytrd`` overwrites.
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
    odd = a[1:m, 1:m] - mirror
    return _Block.reduce(even.T, 1), _Block.reduce(odd.T, -1)


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
