"""Truncated star product on phase-plane polynomials, exactly.

The product is the constant-symplectic-structure bidifferential series

    f * g = sum_n (i h / 2)^n / n!  Lambda^n(f, g),
    Lambda(f, g) = f_q g_p - f_p g_q,

summed monomial pair by monomial pair through its closed-form (Groenewold)
coefficients and held as a formal power series in h with polynomial
coefficients over exact complex rationals, so associativity is an identity
rather than an approximation.  The sums run on an integer lattice: each
factor is cleared to Gaussian-integer numerators over one common
denominator, the h^n weight is an integer over the shared 2^order order!,
and one ``Fraction`` pair is built per surviving output coefficient.  The
module also carries the symmetric-ordered operator
correspondence and the matrix-element representation built on the overlap
engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import OrderMismatch, OrderOverflow
from .geometry import Observable, PhasePoint, PrequantumForm, ReferenceLagrangian
from .monomials import format_monomials, parse_monomials
from .oracle import GridSpec, weyl_operator
from .semiclassics import (
    SemiclassicalAmplitude,
    compose_kernels,
    overlap,
    overlap_kernel,
)

MAX_ORDER = 8


@dataclass(frozen=True)
class QQi:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "QQi") -> "QQi":
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QQi") -> "QQi":
        return QQi(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QQi") -> "QQi":
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def scale(self, r: Fraction) -> "QQi":
        return QQi(self.re * r, self.im * r)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @staticmethod
    def of(value) -> "QQi":
        if isinstance(value, QQi):
            return value
        if isinstance(value, complex):
            return QQi(Fraction(value.real), Fraction(value.imag))
        return QQi(Fraction(value))


@dataclass(frozen=True)
class PolynomialObservable:
    """Polynomial in (q, p) with exact complex-rational coefficients."""

    terms: tuple[tuple[tuple[int, int], QQi], ...] = ()

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_dict(table: dict[tuple[int, int], QQi]) -> "PolynomialObservable":
        items = tuple(sorted((k, v) for k, v in table.items() if v))
        return PolynomialObservable(items)

    @staticmethod
    def from_text(text: str) -> "PolynomialObservable":
        return PolynomialObservable.from_dict(
            {k: QQi(v) for k, v in parse_monomials(text).items()}
        )

    @staticmethod
    def monomial(a: int, b: int, coeff=1) -> "PolynomialObservable":
        return PolynomialObservable.from_dict({(a, b): QQi.of(coeff)})

    @staticmethod
    def zero() -> "PolynomialObservable":
        return PolynomialObservable()

    @staticmethod
    def one() -> "PolynomialObservable":
        return PolynomialObservable.monomial(0, 0)

    # -- algebra -------------------------------------------------------------
    def table(self) -> dict[tuple[int, int], QQi]:
        return dict(self.terms)

    def __add__(self, other: "PolynomialObservable") -> "PolynomialObservable":
        out = self.table()
        for k, v in other.terms:
            out[k] = out.get(k, QQi()) + v
        return PolynomialObservable.from_dict(out)

    def __sub__(self, other: "PolynomialObservable") -> "PolynomialObservable":
        return self + (-other)

    def __neg__(self) -> "PolynomialObservable":
        return PolynomialObservable(tuple((k, -v) for k, v in self.terms))

    def __mul__(self, other: "PolynomialObservable") -> "PolynomialObservable":
        out: dict[tuple[int, int], QQi] = {}
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in other.terms:
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, QQi()) + c1 * c2
        return PolynomialObservable.from_dict(out)

    def scale(self, c: QQi) -> "PolynomialObservable":
        return PolynomialObservable.from_dict({k: c * v for k, v in self.terms})

    def diff(self, dq: int, dp: int) -> "PolynomialObservable":
        out: dict[tuple[int, int], QQi] = {}
        for (a, b), c in self.terms:
            if a < dq or b < dp:
                continue
            fac = Fraction(1)
            for j in range(dq):
                fac *= a - j
            for j in range(dp):
                fac *= b - j
            out[(a - dq, b - dp)] = out.get((a - dq, b - dp), QQi()) + c.scale(fac)
        return PolynomialObservable.from_dict(out)

    def conjugate(self) -> "PolynomialObservable":
        return PolynomialObservable(tuple((k, v.conjugate()) for k, v in self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((a + b for (a, b), _ in self.terms), default=0)

    def eval(self, q: float, p: float) -> complex:
        out = 0.0 + 0.0j
        for (a, b), c in self.terms:
            out += complex(c) * q**a * p**b
        return out

    def __str__(self) -> str:
        parts = {}
        for (a, b), c in self.terms:
            parts[(a, b)] = float(c.re) if c.im == 0 else complex(c)
        return format_monomials(parts)


@dataclass(frozen=True)
class FormalSeries:
    """Power series in h, truncated at ``order``, with polynomial coefficients."""

    order: int
    coeffs: tuple[PolynomialObservable, ...]

    @staticmethod
    def lift(f, order: int) -> "FormalSeries":
        if isinstance(f, FormalSeries):
            if f.order == order:
                return f
            padded = list(f.coeffs[: order + 1])
            padded += [PolynomialObservable.zero()] * (order + 1 - len(padded))
            return FormalSeries(order, tuple(padded))
        coeffs = [f] + [PolynomialObservable.zero()] * order
        return FormalSeries(order, tuple(coeffs))

    def _check_order(self, other: "FormalSeries") -> None:
        if self.order != other.order:
            raise OrderMismatch(
                f"cannot combine series truncated at orders {self.order} and {other.order}"
            )

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_order(other)
        return FormalSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_order(other)
        return FormalSeries(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def at(self, h: float) -> PolynomialObservable:
        """Sum the series exactly at the rational value of the float h."""
        x = Fraction(h)
        out = PolynomialObservable.zero()
        for n, poly in enumerate(self.coeffs):
            out = out + poly.scale(QQi(x**n))
        return out

    def __str__(self) -> str:
        return " + ".join(
            f"h^{n} ({poly})" for n, poly in enumerate(self.coeffs) if not poly.is_zero
        ) or "0"


@functools.cache
def _moyal_sum(a: int, b: int, c: int, d: int, n: int) -> int:
    """h^n coefficient of q^a p^b * q^c p^d times 2^n n!, without its i^n.

    Lambda^n(f, g) = sum_k C(n,k) (-1)^(n-k) d_q^k d_p^(n-k) f d_p^k d_q^(n-k) g
    applied to the two monomials gives falling factorials of the exponents.
    """
    return sum(
        math.comb(n, k) * (-1) ** (n - k)
        * math.perm(a, k) * math.perm(b, n - k) * math.perm(c, n - k) * math.perm(d, k)
        for k in range(n + 1)
    )


def _cleared(series: FormalSeries) -> tuple[int, list[list[tuple[int, int, int, int]]]]:
    """Common denominator D and, per h-power, terms (a, b, D re, D im) in integers.

    D is the lcm of every real and imaginary denominator in the series.
    """
    den = math.lcm(*(
        part.denominator
        for poly in series.coeffs for _, z in poly.terms for part in (z.re, z.im)
    ))
    return den, [
        [(a, b, z.re.numerator * (den // z.re.denominator),
          z.im.numerator * (den // z.im.denominator)) for (a, b), z in poly.terms]
        for poly in series.coeffs
    ]


def moyal_product(f, g, order: int) -> FormalSeries:
    """Star product truncated at h^order (an int in 0..MAX_ORDER).

    Monomial pairs use the closed-form Moyal coefficients: the h^n term of
    q^a p^b * q^c p^d is i^n _moyal_sum(a, b, c, d, n) / (2^n n!)
    q^(a+c-n) p^(b+d-n), and it vanishes once n > min(a, d) + min(b, c).
    The sums run on an integer lattice: each factor is cleared to Gaussian
    integers over its common denominator D_f or D_g, the h^n weight becomes
    the integer _moyal_sum * 2^(order-n) order!/n! over 2^order order!, and
    i^n swaps and negates the integer pair.  Each surviving output
    coefficient is divided once by D_f D_g 2^order order!.
    """
    if isinstance(order, bool) or not isinstance(order, int) or not 0 <= order <= MAX_ORDER:
        raise OrderOverflow(f"truncation order {order!r} is not an int in 0..{MAX_ORDER}")
    den_f, fs = _cleared(FormalSeries.lift(f, order))
    den_g, gs = _cleared(FormalSeries.lift(g, order))
    # 2^(order-n) order!/n!, with the sign of i^n folded in: + for n % 4 in (0, 1)
    scale = [
        (-1) ** (n // 2) * 2 ** (order - n) * (math.factorial(order) // math.factorial(n))
        for n in range(order + 1)
    ]
    out: list[dict[tuple[int, int], list[int]]] = [{} for _ in range(order + 1)]
    for r, f_r in enumerate(fs):
        for s, g_s in enumerate(gs[: order + 1 - r]):
            top = order - r - s
            for a, b, ur, ui in f_r:
                for c, d, vr, vi in g_s:
                    re = ur * vr - ui * vi
                    im = ur * vi + ui * vr
                    for n in range(min(top, min(a, d) + min(b, c)) + 1):
                        w = _moyal_sum(a, b, c, d, n)
                        if not w:
                            continue
                        w *= scale[n]
                        # i^n (re + i im) up to the sign in scale[n]
                        x, y = (-w * im, w * re) if n & 1 else (w * re, w * im)
                        table = out[r + s + n]
                        key = (a + c - n, b + d - n)
                        acc = table.get(key)
                        if acc is None:
                            table[key] = [x, y]
                        else:
                            acc[0] += x
                            acc[1] += y
    den = den_f * den_g * 2**order * math.factorial(order)
    return FormalSeries(order, tuple(
        PolynomialObservable.from_dict({
            key: QQi(Fraction(x, den), Fraction(y, den))
            for key, (x, y) in table.items() if x or y
        })
        for table in out
    ))


def associativity_defect(f, g, k, order: int) -> FormalSeries:
    """(f*g)*k - f*(g*k), exactly; the zero series iff associative."""
    left = moyal_product(moyal_product(f, g, order), k, order)
    right = moyal_product(f, moyal_product(g, k, order), order)
    return left - right


def star_conjugate(f) -> FormalSeries:
    """Coefficient conjugation combined with the h -> -h-like grading flip."""
    if isinstance(f, FormalSeries):
        return FormalSeries(f.order, tuple(c.conjugate() for c in f.coeffs))
    return f.conjugate()


# ---------------------------------------------------------------------------
# Operator correspondence
# ---------------------------------------------------------------------------

def weyl_operator_of(
    f: PolynomialObservable | FormalSeries, grid: GridSpec, h: float
) -> np.ndarray:
    """Symmetric-ordered grid operator of a polynomial (momentum degree <= 2)."""
    if isinstance(f, FormalSeries):
        f = f.at(h)
    qs = grid.qs
    slices: dict[int, np.ndarray] = {}
    for (a, b), c in f.terms:
        coeff = float(c.re) if c.im == 0 else complex(c)
        slices[b] = slices.get(b, 0) + coeff * qs**a
    return weyl_operator(slices, grid, h)


# ---------------------------------------------------------------------------
# Matrix elements and the homomorphism check
# ---------------------------------------------------------------------------

def _weight_at(
    f: PolynomialObservable | FormalSeries, h: float
) -> Callable[[PhasePoint], complex]:
    """f, summed at h if it is a series, as an intersection weight."""
    if isinstance(f, FormalSeries):
        f = f.at(h)
    return lambda c: f.eval(c.q, c.p)


def semiclassical_matrix_element(
    f: PolynomialObservable | FormalSeries,
    sys1: tuple[Observable, float],
    sys2: tuple[Observable, float],
    lam: ReferenceLagrangian,
    alpha: PrequantumForm = PrequantumForm(),
    h: float = 0.1,
) -> SemiclassicalAmplitude:
    """Overlap with every intersection weighted by f at that point."""
    return overlap(sys1, sys2, lam, alpha, h, weight_fn=_weight_at(f, h))


def matrix_element_kernel(
    f: PolynomialObservable | FormalSeries,
    fixed_sys: tuple[Observable, float],
    intermediate: Observable,
    lam: ReferenceLagrangian,
    alpha: PrequantumForm,
    h: float,
    fixed_slot: int,
) -> Callable[[float], SemiclassicalAmplitude]:
    return overlap_kernel(
        fixed_sys, intermediate, lam, alpha, h, fixed_slot, weight_fn=_weight_at(f, h)
    )


def homomorphism_check(
    f: PolynomialObservable,
    g: PolynomialObservable,
    sys1: tuple[Observable, float],
    sys2: tuple[Observable, float],
    lam: ReferenceLagrangian,
    alpha: PrequantumForm,
    h: float,
    interval: tuple[float, float],
    order: int = 4,
    intermediate: Observable | None = None,
) -> dict:
    """Compare the matrix element of f*g against the composed product kernel.

    The left side inserts the truncated star product into a single overlap;
    the right side composes the two matrix-element kernels through the
    position fibration by stationary phase.  Reported are the modulus
    deviation and the phase offset modulo the quarter-turn composition
    factor.
    """
    intermediate = Observable.position() if intermediate is None else intermediate
    star = moyal_product(f, g, order)
    lhs = semiclassical_matrix_element(star, sys1, sys2, lam, alpha, h)
    # star corrections are themselves O(h); the strict leading-order identity
    # weighs the single overlap with the pointwise product, which the
    # stationary-phase composition reproduces exactly on quadratic data
    lhs_leading = semiclassical_matrix_element(f * g, sys1, sys2, lam, alpha, h)
    u20 = matrix_element_kernel(f, sys2, intermediate, lam, alpha, h, fixed_slot=2)
    u01 = matrix_element_kernel(g, sys1, intermediate, lam, alpha, h, fixed_slot=1)
    rhs = compose_kernels(u20, u01, h, interval)
    mod_dev = abs(abs(rhs.value) - abs(lhs.value)) / max(abs(lhs.value), 1e-300)
    lead_dev = abs(abs(rhs.value) - abs(lhs_leading.value)) / max(
        abs(lhs_leading.value), 1e-300
    )
    phase = float(np.angle(rhs.value / lhs.value)) if lhs.value != 0 else float("nan")
    quarter = math.pi / 4
    phase_mod = (phase + quarter / 2) % quarter - quarter / 2
    return {
        "lhs": lhs.value,
        "lhs_leading": lhs_leading.value,
        "rhs": rhs.value,
        "modulus_deviation": float(mod_dev),
        "leading_deviation": float(lead_dev),
        "phase_offset": phase,
        "phase_mod_quarter": float(phase_mod),
    }
