"""Truncated star product: exact algebra and operator correspondence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoverlap.errors import OrderMismatch, OrderOverflow, UnsupportedOrdering
from scoverlap.geometry import Observable, PrequantumForm, ReferenceLagrangian
from scoverlap.monomials import format_monomials, parse_monomials
from scoverlap.oracle import GridSpec, build_weyl_operator
from scoverlap.semiclassics import overlap
from scoverlap.starprod import (
    QQi,
    FormalSeries,
    PolynomialObservable,
    associativity_defect,
    homomorphism_check,
    moyal_product,
    semiclassical_matrix_element,
    star_conjugate,
    weyl_operator_of,
)

PO = PolynomialObservable
MQ = PO.monomial(1, 0)
MP = PO.monomial(0, 1)

rational = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=7
)


@st.composite
def polynomials(draw, max_degree=3, max_terms=4):
    table = {}
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(st.integers(0, max_degree))
        b = draw(st.integers(0, max_degree - a))
        table[(a, b)] = QQi(draw(rational))
    return PO.from_dict(table)


@st.composite
def complex_polynomials(draw, max_degree=4, max_terms=3):
    table = {}
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(st.integers(0, max_degree))
        b = draw(st.integers(0, max_degree - a))
        table[(a, b)] = QQi(draw(rational), draw(rational))
    return PO.from_dict(table)


# denominators up to 7 times powers of two down to 2^-10
mixed_rational = st.builds(
    lambda x, k: x / 2**k, rational, st.integers(0, 10)
)


@st.composite
def mixed_polynomials(draw, max_degree=4, max_terms=3):
    table = {}
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(st.integers(0, max_degree))
        b = draw(st.integers(0, max_degree - a))
        table[(a, b)] = QQi(draw(mixed_rational), draw(mixed_rational))
    return PO.from_dict(table)


@st.composite
def mixed_series(draw):
    """A series with two to four nonzero h-coefficients among h^0..h^4."""
    powers = draw(st.sets(st.integers(0, 4), min_size=2, max_size=4))
    top = max(powers)
    coeffs = [draw(mixed_polynomials()) if n in powers else PO.zero()
              for n in range(top + 1)]
    return FormalSeries(top, tuple(coeffs))


def bidifferential_product(f, g, order):
    """sum_n (i h / 2)^n / n! Lambda^n(f, g) with Lambda^n built from diff."""
    coeffs = []
    i_power = QQi(Fraction(1))
    for n in range(order + 1):
        lam_n = PO.zero()
        for k in range(n + 1):
            sign = QQi(Fraction((-1) ** (n - k) * math.comb(n, k)))
            lam_n = lam_n + (f.diff(k, n - k) * g.diff(n - k, k)).scale(sign)
        coeffs.append(lam_n.scale(i_power.scale(Fraction(1, 2**n * math.factorial(n)))))
        i_power = i_power * QQi(Fraction(0), Fraction(1))
    return FormalSeries(order, tuple(coeffs))


def series_reference(fs, gs, order):
    """sum_(r,s) h^(r+s) f_r * g_s, each product from the bidifferential
    definition and the whole truncated at h^order."""
    out = [PO.zero()] * (order + 1)
    for r, f_r in enumerate(fs.coeffs):
        for s, g_s in enumerate(gs.coeffs):
            if r + s > order:
                continue
            for n, c in enumerate(bidifferential_product(f_r, g_s, order - r - s).coeffs):
                out[r + s + n] = out[r + s + n] + c
    return FormalSeries(order, tuple(out))


class TestMonomialText:
    def test_parse_example(self):
        table = parse_monomials("2 q^2 p - 0.5 p^3")
        assert table == {(2, 1): Fraction(2), (0, 3): Fraction(-1, 2)}

    def test_roundtrip(self):
        text = "2 q^2 p - 1/2 p^3 + q"
        assert parse_monomials(format_monomials(parse_monomials(text))) == parse_monomials(text)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_monomials("2 x^2")


class TestMoyal:
    def test_canonical_products(self):
        qp = moyal_product(MQ, MP, 4)
        pq = moyal_product(MP, MQ, 4)
        assert str(qp.coeffs[0]) == "q p"
        assert qp.coeffs[1].table() == {(0, 0): QQi(Fraction(0), Fraction(1, 2))}
        assert pq.coeffs[1].table() == {(0, 0): QQi(Fraction(0), Fraction(-1, 2))}
        comm = qp - pq
        assert comm.coeffs[0].is_zero
        assert comm.coeffs[1].table() == {(0, 0): QQi(Fraction(0), Fraction(1))}

    def test_q2_star_p2(self):
        out = moyal_product(PO.monomial(2, 0), PO.monomial(0, 2), 4)
        assert out.coeffs[0].table() == {(2, 2): QQi(Fraction(1))}
        assert out.coeffs[1].table() == {(1, 1): QQi(Fraction(0), Fraction(2))}
        assert out.coeffs[2].table() == {(0, 0): QQi(Fraction(-1, 2))}
        assert out.coeffs[3].is_zero and out.coeffs[4].is_zero

    @given(f=polynomials())
    @settings(max_examples=25, deadline=None)
    def test_unit(self, f):
        lifted = FormalSeries.lift(f, 5)
        assert (moyal_product(f, PO.one(), 5) - lifted).is_zero
        assert (moyal_product(PO.one(), f, 5) - lifted).is_zero

    @given(f=polynomials(), g=polynomials())
    @settings(max_examples=25, deadline=None)
    def test_leading_orders(self, f, g):
        out = moyal_product(f, g, 3)
        assert (out.coeffs[0] - f * g).is_zero
        # first order is (i/2){f, g}
        bracket = f.diff(1, 0) * g.diff(0, 1) - f.diff(0, 1) * g.diff(1, 0)
        expected = bracket.scale(QQi(Fraction(0), Fraction(1, 2)))
        assert (out.coeffs[1] - expected).is_zero

    @given(f=polynomials(), g=polynomials())
    @settings(max_examples=20, deadline=None)
    def test_conjugation_reverses_factors(self, f, g):
        lhs = star_conjugate(moyal_product(f, g, 5))
        rhs = moyal_product(g.conjugate(), f.conjugate(), 5)
        assert (lhs - rhs).is_zero

    @given(f=complex_polynomials(), g=complex_polynomials(), order=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_bidifferential_definition(self, f, g, order):
        assert moyal_product(f, g, order) == bidifferential_product(f, g, order)

    @given(f=mixed_series(), g=mixed_series(), order=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_series_factors_match_bidifferential_definition(self, f, g, order):
        assert moyal_product(f, g, order) == series_reference(f, g, order)

    def test_degree_eight_at_order_eight(self):
        # the largest integer weights: every h-power up to h^8 survives
        c1 = QQi(Fraction(3, 7 * 2**10), Fraction(-5, 6))
        c2 = QQi(Fraction(-1, 5), Fraction(7, 2**9))
        for (a, b), (c, d) in [((8, 0), (0, 8)), ((4, 4), (4, 4)), ((5, 3), (3, 5))]:
            f, g = PO.monomial(a, b, c1), PO.monomial(c, d, c2)
            assert moyal_product(f, g, 8) == bidifferential_product(f, g, 8)
        # q^8 * p^8 at h^8: i^8 (8!)^2 / (2^8 8!) = 315/2
        top = moyal_product(PO.monomial(8, 0), PO.monomial(0, 8), 8).coeffs[8]
        assert top.table() == {(0, 0): QQi(Fraction(315, 2))}

    def test_order_overflow(self):
        # above the bound, negative, fractional or a bool: never a silent result
        for order in (9, -1, 6.5, 2.0, True):
            with pytest.raises(OrderOverflow):
                moyal_product(MQ, MP, order)
        # order -1 would give the empty series, a zero defect for any triple
        with pytest.raises(OrderOverflow):
            associativity_defect(MQ, MP, MP, -1)


class TestFormalSeries:
    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_mismatched_orders_are_rejected(self, op):
        lhs, rhs = FormalSeries.lift(MQ, 2), FormalSeries.lift(MP, 3)
        with pytest.raises(OrderMismatch, match="2 and 3"):
            getattr(lhs, f"__{op}__")(rhs)


class TestExactNumerics:
    def test_series_sums_exactly(self):
        one_plus_h = FormalSeries(1, (PO.one(), PO.one()))
        assert one_plus_h.at(0.1).table() == {(0, 0): QQi(1 + Fraction(0.1))}
        tiny = 2.0**-60
        series = FormalSeries(1, (PO.one(), PO.monomial(0, 0, 3)))
        assert series.at(tiny).table() == {(0, 0): QQi(1 + 3 * Fraction(tiny))}

    def test_complex_conversion_is_exact(self):
        z = QQi.of(0.1 + 0.2j)
        assert z == QQi(Fraction(0.1), Fraction(0.2))
        assert complex(z) == 0.1 + 0.2j


class TestAssociativity:
    def test_quadratic_triple(self):
        assert associativity_defect(MQ, MP, MQ, 4).is_zero

    def test_unit_absorbs(self):
        f = PO.from_text("q^2 p")
        g = PO.from_text("p^2 - q")
        assert associativity_defect(f, PO.one(), g, 6).is_zero

    @given(f=polynomials(), g=polynomials(), k=polynomials())
    @settings(max_examples=15, deadline=None)
    def test_random_cubics(self, f, g, k):
        assert associativity_defect(f, g, k, 6).is_zero

    def test_phase_space_average_of_commutator(self):
        # grid smoke check: the first-order commutator term is a bracket,
        # whose disk average reduces to a boundary integral (Green)
        f = PO.from_text("q^2 p")
        g = PO.from_text("q p^2")
        comm = moyal_product(f, g, 2) - moyal_product(g, f, 2)
        bracket_poly = comm.coeffs[1]
        n = 301
        qs = np.linspace(-1, 1, n)
        Qm, Pm = np.meshgrid(qs, qs, indexing="ij")
        inside = Qm**2 + Pm**2 <= 1.0
        vals = np.zeros_like(Qm, dtype=complex)
        for (a, b), c in bracket_poly.terms:
            vals += complex(c) * Qm**a * Pm**b
        area_avg = vals[inside].sum() * (qs[1] - qs[0]) ** 2
        theta = np.linspace(0, 2 * math.pi, 4001)
        fb = np.zeros_like(theta, dtype=complex)
        gb = np.zeros_like(theta, dtype=complex)
        for (a, b), c in f.terms:
            fb += complex(c) * np.cos(theta) ** a * np.sin(theta) ** b
        # i * {f, g} integrates to a boundary flux of f dg along the circle
        for (a, b), c in g.diff(1, 0).terms:
            gb += complex(c) * np.cos(theta) ** a * np.sin(theta) ** b
        flux_q = np.trapezoid(fb * gb * (-np.sin(theta)), theta)
        gb2 = np.zeros_like(theta, dtype=complex)
        for (a, b), c in g.diff(0, 1).terms:
            gb2 += complex(c) * np.cos(theta) ** a * np.sin(theta) ** b
        flux_p = np.trapezoid(fb * gb2 * (np.cos(theta)), theta)
        boundary = 1j * (flux_q + flux_p)
        assert abs(area_avg - boundary) < 1e-2 * max(1.0, abs(boundary))


@pytest.fixture(scope="module")
def probe_vectors():
    grid = GridSpec(10.0, 1024)
    qs = grid.qs
    out = []
    for q0, s, k in [(-1.5, 0.7, 0), (0.0, 0.9, 1), (1.2, 0.6, 2)]:
        v = (qs - q0) ** k * np.exp(-((qs - q0) ** 2) / (2 * s * s))
        v = v * np.exp(1j * 0.3 * qs / 0.1)
        out.append(v / np.linalg.norm(v))
    return grid, out


class TestOperatorCorrespondence:
    def test_canonical_commutator(self, probe_vectors):
        grid, probes = probe_vectors
        h = 0.1
        qop = weyl_operator_of(MQ, grid, h)
        pop = weyl_operator_of(MP, grid, h)
        comm = qop @ pop - pop @ qop
        for v in probes:
            err = np.linalg.norm(comm @ v - 1j * h * v) / (h * np.linalg.norm(v))
            assert err < 1e-10

    def test_identity(self, probe_vectors):
        grid, _ = probe_vectors
        assert np.array_equal(
            weyl_operator_of(PO.one(), grid, 0.1), np.eye(grid.points)
        )

    def test_real_polynomial_builds_the_observable_operator(self, probe_vectors):
        grid, _ = probe_vectors
        op = weyl_operator_of(PO.from_text("1/2 q^2 + 1/2 p^2"), grid, 0.1)
        assert op.dtype == np.float64
        assert np.array_equal(op, build_weyl_operator(Observable.harmonic(), grid, 0.1).operator)

    def test_star_product_intertwines(self, probe_vectors):
        grid, probes = probe_vectors
        h = 0.1
        q2, p2 = PO.monomial(2, 0), PO.monomial(0, 2)
        lhs = weyl_operator_of(moyal_product(q2, p2, 4), grid, h)
        rhs = weyl_operator_of(q2, grid, h) @ weyl_operator_of(p2, grid, h)
        for v in probes:
            rel = np.linalg.norm((lhs - rhs) @ v) / np.linalg.norm(rhs @ v)
            assert rel < 1e-8

    def test_momentum_degree_cap(self, probe_vectors):
        grid, _ = probe_vectors
        with pytest.raises(UnsupportedOrdering):
            weyl_operator_of(PO.monomial(0, 3), grid, 0.1)


HO = Observable.harmonic()
Q = Observable.position()
P = Observable.momentum()
LAM = ReferenceLagrangian.line(1.0)
ALPHA = PrequantumForm()


class TestMatrixElements:
    def test_unit_insertion_is_overlap(self):
        h = 0.1
        base = overlap((Q, 0.4), (HO, 0.45), LAM, ALPHA, h)
        me = semiclassical_matrix_element(PO.one(), (Q, 0.4), (HO, 0.45), LAM, ALPHA, h)
        assert me.value == base.value

    def test_fiber_constant_weight_factors_out(self):
        h = 0.1
        b2 = 0.45
        base = overlap((Q, 0.4), (HO, b2), LAM, ALPHA, h)
        fho = PO.from_text("1/2 q^2 + 1/2 p^2")
        me = semiclassical_matrix_element(fho, (Q, 0.4), (HO, b2), LAM, ALPHA, h)
        assert me.value == pytest.approx(b2 * base.value, rel=1e-12)
        for t_me, t_base in zip(me.terms, base.terms):
            assert t_me.weight == pytest.approx(b2, rel=1e-12)
            assert t_me.contribution == pytest.approx(
                b2 * t_base.contribution, rel=1e-12
            )

    def test_position_weight_between_q_and_ho(self):
        h = 0.1
        b1 = 0.4
        base = overlap((Q, b1), (HO, 0.45), LAM, ALPHA, h)
        me = semiclassical_matrix_element(MQ, (Q, b1), (HO, 0.45), LAM, ALPHA, h)
        assert me.value == pytest.approx(b1 * base.value, rel=1e-12)


class TestHomomorphism:
    def test_unit_case_reduces_to_gluing(self):
        h = 0.1
        h45 = Observable.linear(math.pi / 4)
        rep = homomorphism_check(
            PO.one(), PO.one(), (P, 0.3), (h45, 0.8), LAM, ALPHA, h,
            interval=(-2.5, 2.5),
        )
        assert rep["leading_deviation"] < 1e-8

    def test_linear_systems_exact(self):
        h = 0.1
        h45 = Observable.linear(math.pi / 4)
        rep = homomorphism_check(
            MQ, MP, (P, 0.3), (h45, 0.8), LAM, ALPHA, h, interval=(-2.5, 2.5)
        )
        # leading-order identity is a pure Gaussian integral here
        assert rep["leading_deviation"] < 1e-8
        # the truncated star correction is itself O(h): visible but bounded
        assert rep["modulus_deviation"] < h

    def test_oscillator_endpoints_within_5h(self):
        alpha = PrequantumForm()
        lam = ReferenceLagrangian.line(1.0, -0.6)
        displaced = Observable.harmonic(center_q=1.0)
        for h in (0.1, 0.05):
            n = int(round(0.5 / h - 0.5))
            b1 = h * (n + 0.5)
            rep = homomorphism_check(
                MQ, PO.monomial(2, 0), (HO, b1), (displaced, 0.55), lam, alpha, h,
                interval=(0.1, 0.85),
            )
            assert rep["modulus_deviation"] <= 5 * h
