"""Grid quantization against closed-form quantum mechanics."""

import math

import numpy as np
import pytest

from scoverlap.errors import CountMismatch, GridMismatch, OpenFiber, UnsupportedOrdering
from scoverlap.geometry import Observable, PhasePoint, trace_level_curve
from scoverlap.oracle import (
    GridSpec,
    LevelPairing,
    bridge_factor,
    build_weyl_operator,
    eigensystem,
    exact_overlap,
    half_density_bridge,
    match_levels,
)
from scoverlap.semiclassics import BSLevel, bohr_sommerfeld_levels

HO = Observable.harmonic()
PEND = Observable.pendulum()

GRID = GridSpec(10.0, 512)
PEND_GRID = GridSpec(math.pi, 256)  # the pendulum's natural periodic cell


@pytest.fixture(scope="module")
def ho_system():
    gq = build_weyl_operator(HO, GRID, 0.1)
    return gq, eigensystem(gq)


class TestOperatorBuild:
    def test_ho_spectrum_exact(self, ho_system):
        _, es = ho_system
        exact = 0.1 * (np.arange(31) + 0.5)
        assert np.max(np.abs(es.eigenvalues[:31] - exact)) < 1e-10

    def test_hermitian(self, ho_system):
        gq, _ = ho_system
        assert gq.hermiticity_defect < 1e-12

    def test_position_operator_diagonal(self):
        gq = build_weyl_operator(Observable.position(), GRID, 0.1)
        assert np.max(np.abs(gq.operator - np.diag(GRID.qs))) == 0.0

    def test_residuals_and_orthonormality(self, ho_system):
        gq, es = ho_system
        for n in (0, 3, 17):
            assert es.residual(gq.operator, n) < 1e-8 * np.max(np.abs(gq.operator))
        m = 40
        gram = es.states[:, :m].conj().T @ es.states[:, :m] * GRID.dq
        assert np.max(np.abs(gram - np.eye(m))) < 1e-10

    def test_unsupported_momentum_degree(self):
        cubic = Observable.from_coeffs({(0, 3): 1.0})
        with pytest.raises(UnsupportedOrdering):
            build_weyl_operator(cubic, GRID, 0.1)

    def test_spectral_convergence_on_doubling(self):
        small = eigensystem(build_weyl_operator(HO, GridSpec(10.0, 256), 0.1))
        big = eigensystem(build_weyl_operator(HO, GRID, 0.1))
        k = 20
        assert np.max(np.abs(small.eigenvalues[:k] - big.eigenvalues[:k])) < 1e-10

    def test_pendulum_levels_match_quantization_at_second_order(self):
        targets = (-0.5, 0.0, 0.45)
        errs = []
        hs = (0.2, 0.1, 0.05)
        for h in hs:
            levels = bohr_sommerfeld_levels(PEND, h, (-0.92, 0.7))
            es = eigensystem(build_weyl_operator(PEND, PEND_GRID, h), retain_below=0.9)
            per_h = []
            for target in targets:
                lv = min(levels, key=lambda l: abs(l.b - target))
                per_h.append(abs(es.eigenvalues[lv.n] - lv.b))
            errs.append(np.mean(per_h))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope >= 2.0 - 0.2


def _reference_operator(obs, grid, h):
    """Weyl operator from P = FFT of the n x n identity, all in complex."""
    eye = np.eye(grid.points, dtype=complex)
    p1 = np.fft.ifft(
        (h * grid.wavenumbers)[:, None] * np.fft.fft(eye, axis=0), axis=0
    )
    p2 = p1 @ p1
    op = np.zeros((grid.points, grid.points), dtype=complex)
    for b, fn in obs.momentum_decomposition().items():
        c = np.asarray(fn(grid.qs), dtype=complex)
        if b == 0:
            op += np.diag(c)
        elif b == 1:
            op += 0.5 * (c[:, None] * p1 + p1 * c[None, :])
        else:
            op += 0.25 * (c[:, None] * p2 + 2.0 * p1 @ (c[:, None] * p1) + p2 * c[None, :])
    return op


SMALL_GRID = GridSpec(8.0, 128)
REAL_SYSTEMS = {
    "oscillator": (HO, SMALL_GRID),
    "pendulum": (PEND, GridSpec(math.pi, 128)),
    "quartic": (Observable.from_coeffs({(4, 0): 0.1, (2, 0): -0.5, (0, 2): 0.5}), SMALL_GRID),
}
COMPLEX_SYSTEMS = {
    "q p": (Observable.from_coeffs({(1, 1): 1.0}), SMALL_GRID),
    "1/2 p^2 + q p": (Observable.from_coeffs({(0, 2): 0.5, (1, 1): 1.0}), SMALL_GRID),
    "(1/2 + q^2/10) p^2": (
        Observable.from_coeffs({(0, 2): 0.5, (2, 2): 0.1, (2, 0): 0.5}), SMALL_GRID
    ),
}


class TestOperatorDtype:
    @pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
    def test_even_constant_momentum_builds_real_symmetric(self, name):
        obs, grid = REAL_SYSTEMS[name]
        gq = build_weyl_operator(obs, grid, 0.1)
        assert gq.operator.dtype == np.float64
        assert gq.hermiticity_defect == 0.0

    @pytest.mark.parametrize("name", sorted(COMPLEX_SYSTEMS))
    def test_odd_or_q_dependent_momentum_builds_complex(self, name):
        obs, grid = COMPLEX_SYSTEMS[name]
        assert build_weyl_operator(obs, grid, 0.1).operator.dtype == np.complex128

    @pytest.mark.parametrize("name", sorted(REAL_SYSTEMS) + sorted(COMPLEX_SYSTEMS))
    def test_matches_fft_of_identity_reference(self, name):
        obs, grid = {**REAL_SYSTEMS, **COMPLEX_SYSTEMS}[name]
        op = build_weyl_operator(obs, grid, 0.1).operator
        ref = _reference_operator(obs, grid, 0.1)
        assert np.max(np.abs(op - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
    def test_real_eigh_matches_complex_eigh(self, name):
        obs, grid = REAL_SYSTEMS[name]
        gq = build_weyl_operator(obs, grid, 0.1)
        es = eigensystem(gq, retain_below=np.inf)
        assert np.isrealobj(es.states)
        ref = np.linalg.eigvalsh(gq.operator.astype(complex))
        assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))


def _default_cutoff(gq):
    return float(gq.observable.value(gq.grid.half_width, 0.0)) / 2.0


def _dense_eigensystem(gq, retain_below=None):
    """The plain dense solve: one eigh, then the retained columns over sqrt(dq)
    (the lowest 8 when none is below the cutoff)."""
    evals, vecs = np.linalg.eigh(gq.operator)
    if retain_below is None:
        retain_below = _default_cutoff(gq)
    keep = evals < retain_below
    if not np.any(keep):
        keep[:8] = True
    return evals[keep], vecs[:, keep] / np.sqrt(gq.grid.dq)


def _caller_cutoff(gq, kept):
    """A cutoff halfway between the dense solve's kept-th and next eigenvalue."""
    w = np.linalg.eigvalsh(gq.operator)
    return 0.5 * (w[kept - 1] + w[kept])


def _random_even_system(seed, parity, grid=None):
    """a q^2 + c q^4 + k p^2 with seeded a, c, k > 0 on ``grid`` (half-width,
    points) or else on a seeded grid of even (parity 0) or odd (parity 1)
    size.  The seeded even grids are dyadic (L = m/4, n a power of two);
    the given ones are not, and their nodes would break the exact reflection
    symmetry if q^4 were not evaluated from |q|."""
    rng = np.random.default_rng(seed)
    a, c, k = rng.uniform(0.2, 1.0), rng.uniform(0.01, 0.2), rng.uniform(0.3, 1.0)
    obs = Observable.from_coeffs({(2, 0): a, (4, 0): c, (0, 2): k})
    points = int(rng.choice([64, 128, 256])) - parity
    half_width = int(rng.integers(20, 33)) / 4
    return obs, GridSpec(*(grid or (half_width, points)))


# cutoffs: "default" is the oracle's own (0.9 above it for the pendulum),
# "keep" a caller cutoff that keeps a seeded 5..30 states (5..16 on the
# pendulum, below its near-degenerate rotation pairs), "ground" one below the
# ground state, "at" the default passed explicitly and "above" twice it
PARITY_CASES = (
    [("quartic", seed, parity, None, "default") for seed in range(6) for parity in (0, 1)]
    + [
        ("quartic", seed, 0, grid, "default")
        for seed, grid in enumerate([(7.3, 300), (5.5, 76), (6.1, 128)])
    ]
    + [("pendulum", 128, 0, None, "default"), ("pendulum", 127, 1, None, "default")]
    + [("quartic", seed, parity, None, "keep") for seed in range(6) for parity in (0, 1)]
    + [("quartic", 0, 0, (7.3, 300), "keep")]
    + [("pendulum", 128, 0, None, "keep"), ("pendulum", 127, 1, None, "keep")]
    + [("quartic", seed, parity, None, cut)
       for cut in ("ground", "at", "above") for seed in (0, 1) for parity in (0, 1)]
)
PARITY_IDS = [
    f"{kind}-{seed}-{parity}"
    + (f"-{grid[0]}x{grid[1]}" if grid else "")
    + ("" if cut == "default" else f"-{cut}")
    for kind, seed, parity, grid, cut in PARITY_CASES
]


class TestParityBlocks:
    @pytest.mark.parametrize("kind, seed, parity, grid, cut", PARITY_CASES, ids=PARITY_IDS)
    def test_matches_dense_eigh(self, kind, seed, parity, grid, cut):
        if kind == "quartic":
            (obs, grid), retain = _random_even_system(seed, parity, grid), None
        else:
            obs, grid, retain = PEND, GridSpec(math.pi, seed), 0.9
        gq = build_weyl_operator(obs, grid, 0.1)
        default = _default_cutoff(gq)
        kept = int(np.random.default_rng(seed).integers(5, 31 if kind == "quartic" else 17))
        retain = {
            "default": retain,
            "keep": _caller_cutoff(gq, kept),
            "ground": np.linalg.eigvalsh(gq.operator)[0] - 1.0,
            "at": default,
            "above": 2.0 * default,
        }[cut]
        es = eigensystem(gq, retain_below=retain)
        ref_vals, ref_states = _dense_eigensystem(gq, retain)
        assert es.count == len(ref_vals)
        if cut == "keep":
            assert retain < default and es.count == kept
        elif cut == "ground":
            assert es.count == 8
        else:
            assert es.count > 8
            # at or above the default cutoff the full solve runs unchanged
            full = eigensystem(gq, retain_below=np.inf)
            assert np.array_equal(es.eigenvalues, full.eigenvalues[: es.count])
            assert np.array_equal(es.states, full.states[:, : es.count])
        scale = np.max(np.abs(np.linalg.eigvalsh(gq.operator)))
        assert np.max(np.abs(es.eigenvalues - ref_vals)) <= 1e-12 * scale
        low = min(es.count, 20)
        assert np.max(np.abs(es.states[:, :low] ** 2 - ref_states[:, :low] ** 2)) <= 1e-10
        gram = es.states.T @ es.states * grid.dq
        assert np.max(np.abs(gram - np.eye(es.count))) <= 1e-12
        if grid.points % 2 == 0:
            # the blocked solve: every state is exactly even or exactly odd
            for v in es.states.T:
                assert np.array_equal(v[1:], v[:0:-1]) or np.array_equal(v[1:], -v[:0:-1])
        elif cut != "keep" and cut != "ground":
            assert np.array_equal(es.eigenvalues, ref_vals)
            assert np.array_equal(es.states, ref_states)

    @pytest.mark.parametrize(
        "obs, kept",
        [
            (Observable.from_coeffs({(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.3}), None),
            (Observable.from_coeffs({(1, 1): 1.0, (2, 0): 0.5}), None),
            (Observable.from_coeffs({(2, 0): 0.5, (0, 2): 0.5, (1, 0): 0.3}), 12),
            (Observable.from_coeffs({(1, 1): 1.0, (2, 0): 0.5}), 12),
        ],
        ids=["displaced oscillator", "q p", "displaced oscillator-keep", "q p-keep"],
    )
    def test_other_operators_take_the_dense_solve(self, obs, kept):
        gq = build_weyl_operator(obs, SMALL_GRID, 0.1)
        retain = None if kept is None else _caller_cutoff(gq, kept)
        es = eigensystem(gq, retain_below=retain)
        ref_vals, ref_states = _dense_eigensystem(gq, retain)
        if kept is None:
            assert np.array_equal(es.eigenvalues, ref_vals)
            assert np.array_equal(es.states, ref_states)
            return
        # below a caller cutoff the whole operator takes the subset solve
        assert retain < _default_cutoff(gq) and es.count == len(ref_vals) == kept
        scale = np.max(np.abs(np.linalg.eigvalsh(gq.operator)))
        assert np.max(np.abs(es.eigenvalues - ref_vals)) <= 1e-12 * scale
        assert np.max(np.abs(np.abs(es.states) ** 2 - np.abs(ref_states) ** 2)) <= 1e-10
        gram = es.states.conj().T @ es.states * SMALL_GRID.dq
        assert np.max(np.abs(gram - np.eye(kept))) <= 1e-12

    @pytest.mark.parametrize("half_width, points", [(math.pi, 256), (10.0, 1024), (7.3, 300)])
    def test_grid_is_reflection_exact(self, half_width, points):
        qs = GridSpec(half_width, points).qs
        assert np.array_equal(qs[1:], -qs[:0:-1])
        assert qs[0] == -half_width

    @pytest.mark.parametrize("points", [512, 1024])
    def test_grid_matches_offset_formula_at_half_width_10(self, points):
        grid = GridSpec(10.0, points)
        assert np.array_equal(grid.qs, -10.0 + grid.dq * np.arange(points))


class TestOverlaps:
    def test_self_overlap_is_one(self, ho_system):
        _, es = ho_system
        assert exact_overlap(es.state(2), es.state(2)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality(self, ho_system):
        _, es = ho_system
        assert abs(exact_overlap(es.state(1), es.state(4))) < 1e-10

    def test_displaced_gaussian_overlap(self):
        h = 0.1
        grid = GridSpec(10.0, 1024)
        es1 = eigensystem(build_weyl_operator(HO, grid, h))
        es2 = eigensystem(
            build_weyl_operator(Observable.harmonic(center_q=1.0), grid, h)
        )
        val = exact_overlap(es1.state(0), es2.state(0))
        assert abs(abs(val) - math.exp(-1.0 / (4 * h))) < 1e-8

    def test_grid_mismatch(self, ho_system):
        _, es = ho_system
        other = eigensystem(build_weyl_operator(HO, GridSpec(10.0, 256), 0.1))
        with pytest.raises(GridMismatch):
            exact_overlap(es.state(0), other.state(0))

    def test_parity_alternates(self, ho_system):
        _, es = ho_system
        qs = GRID.qs
        even_profile = np.exp(-qs * qs)
        even_profile /= np.sqrt(np.sum(even_profile**2) * GRID.dq)
        from scoverlap.oracle import StateVector

        probe = StateVector(values=even_profile, grid=GRID)
        assert abs(exact_overlap(probe, es.state(1))) < 1e-10
        assert abs(exact_overlap(probe, es.state(0))) > 1e-3

    def test_cross_basis_unitarity(self):
        h = 0.1
        grid = GridSpec(10.0, 512)
        es1 = eigensystem(build_weyl_operator(HO, grid, h))
        es2 = eigensystem(
            build_weyl_operator(Observable.harmonic(center_q=0.5), grid, h)
        )
        m = 12
        u = es1.states[:, :60].conj().T @ es2.states[:, :60] * grid.dq
        row_norms = np.linalg.norm(u[:m, :], axis=1)
        assert np.max(np.abs(row_norms - 1.0)) < 1e-8


class TestBridge:
    def test_ho_spacing_is_h(self):
        h = 0.1
        curve = trace_level_curve(HO, 0.45, PhasePoint(math.sqrt(0.9), 0.0))
        assert bridge_factor(curve, h) == pytest.approx(math.sqrt(h), abs=1e-10)

    def test_frequency_scaling_matches_oracle_spacing(self):
        h, omega = 0.1, 1.7
        sys2 = Observable.from_coeffs({(2, 0): omega**2 / 2, (0, 2): 0.5})
        curve = trace_level_curve(sys2, 0.6, PhasePoint(math.sqrt(1.2) / omega, 0.0))
        semiclassical_spacing = bridge_factor(curve, h) ** 2
        es = eigensystem(build_weyl_operator(sys2, GRID, h))
        oracle_spacing = float(es.eigenvalues[4] - es.eigenvalues[3])
        assert abs(semiclassical_spacing - oracle_spacing) / oracle_spacing < 0.01

    def test_open_linear_fiber_passes_through(self):
        curve = trace_level_curve(Observable.position(), 0.3, PhasePoint(0.3, 0.0))
        assert bridge_factor(curve, 0.1) == 1.0
        assert half_density_bridge(2.0 + 0.0j, curve, None, 0.1) == 2.0 + 0.0j

    def test_open_nonlinear_fiber_rejected(self):
        curve = trace_level_curve(PEND, 1.5, PhasePoint(0.0, math.sqrt(5.0)))
        assert not curve.closed
        with pytest.raises(OpenFiber):
            bridge_factor(curve, 0.1)

    def test_completeness_sum_rule(self):
        # resolving a state through a displaced oscillator's levels returns
        # its unit norm as h -> 0
        h = 0.1
        from scoverlap.geometry import PrequantumForm, ReferenceLagrangian
        from scoverlap.semiclassics import overlap

        lam = ReferenceLagrangian.line(1.0, -0.6)
        alpha = PrequantumForm()
        displaced = Observable.harmonic(center_q=1.0)
        b1 = h * (4 + 0.5)
        levels2 = bohr_sommerfeld_levels(displaced, h, (0.02, 2.6))
        total = 0.0
        for lv in levels2:
            try:
                amp = overlap((HO, b1), (displaced, lv.b), lam, alpha, h)
            except Exception:
                continue
            if not amp.terms:
                continue
            val = half_density_bridge(amp.value, amp.curve1, amp.curve2, h)
            total += abs(val) ** 2
        assert abs(total - 1.0) <= 5 * h


class TestLevelPairing:
    def test_exact_ho_pairing(self, ho_system):
        _, es = ho_system
        levels = bohr_sommerfeld_levels(HO, 0.1, (0.004, 2.0))
        pairing = match_levels(es, levels)
        assert max(pairing.deviations) < 1e-10

    def test_empty(self, ho_system):
        _, es = ho_system
        assert match_levels(es, []) == LevelPairing([], [], [], [])

    def test_count_mismatch(self, ho_system):
        _, es = ho_system
        fake = [
            BSLevel(n=es.count + 3, b=1.0, loop_action=1.0, loop_maslov=2, period=1.0)
        ]
        with pytest.raises(CountMismatch):
            match_levels(es, fake)


def test_export_roundtrip(tmp_path, ho_system):
    import json

    _, es = ho_system
    # a momentum-shifted oscillator has a complex operator and complex states
    shifted = Observable.from_coeffs({(2, 0): 0.5, (0, 2): 0.5, (0, 1): 0.3})
    es_complex = eigensystem(build_weyl_operator(shifted, GridSpec(10.0, 128), 0.1))
    assert np.iscomplexobj(es_complex.states)
    for system, name, dtype in (
        (es, "eigenvectors.f64", "float64"),
        (es_complex, "eigenvectors.c128", "complex128"),
    ):
        out = tmp_path / dtype
        system.export(out)
        vals = np.loadtxt(out / "eigenvalues.csv", skiprows=1)
        assert np.array_equal(vals, system.eigenvalues)
        sidecar = json.loads((out / "grid.json").read_text())
        assert sidecar["points"] == system.grid.points
        assert (sidecar["file"], sidecar["dtype"]) == (name, dtype)
        assert sorted(f.name for f in out.iterdir()) == sorted(
            ["eigenvalues.csv", "grid.json", name]
        )
        raw = np.fromfile(out / name, dtype=dtype)
        rows = raw.reshape(sidecar["count"], sidecar["points"])
        assert np.array_equal(rows, system.states.T)
