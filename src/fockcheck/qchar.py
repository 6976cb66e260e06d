"""Truncated bivariate character series and the graded-dimension identities.

A series lives in variables ``z`` (integer exponents) and ``q^(1/2)``:
coefficients are integers keyed by ``(zexp, qhalf)`` with ``qhalf`` counting
half-units of ``q``.  Truncation is explicit state: coefficients above
``qmax_half`` are unknown rather than zero, and multiplication takes the
minimum bound of its operands, so boundary coefficients can never silently
go wrong.

The three realisations of the graded dimension ``tr q^{L0} z^{h0}`` are

* the basis trace over monomials (``z^dg q^weight``), the bucket sizes of
  :func:`fockcheck.grading.graded_basis`;
* the product  prod_i (1 + z q^{2i-1/2}) (1 + z^{-1} q^{2i-3/2});
* the sum     (1 / prod_i (1 - q^{2i})) * sum_n z^n q^{n^2 + n/2};

and the package also checks the two classical Jacobi identities that fall
out of comparing them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .grading import graded_basis, partition_count, sector_energy, sector_weight2
from .verify import VerificationReport


class CharacterSeries:
    """Integer series in z and q^(1/2), exact below an explicit q-truncation."""

    __slots__ = ("coeffs", "qmax_half")

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None, qmax_half: int = 0):
        self.qmax_half = qmax_half
        self.coeffs = {}
        if coeffs:
            for (z, qh), c in coeffs.items():
                if c and qh <= qmax_half:
                    self.coeffs[(z, qh)] = c

    @classmethod
    def one(cls, qmax_half: int) -> "CharacterSeries":
        return cls({(0, 0): 1}, qmax_half)

    def coefficient(self, z: int, qhalf: int) -> int:
        if qhalf > self.qmax_half:
            raise ValueError(f"coefficient at q^{Fraction(qhalf, 2)} is beyond the truncation")
        return self.coeffs.get((z, qhalf), 0)

    def __add__(self, other: "CharacterSeries") -> "CharacterSeries":
        bound = min(self.qmax_half, other.qmax_half)
        acc = {k: c for k, c in self.coeffs.items() if k[1] <= bound}
        for k, c in other.coeffs.items():
            if k[1] <= bound:
                acc[k] = acc.get(k, 0) + c
        return CharacterSeries(acc, bound)

    def __mul__(self, other: "CharacterSeries") -> "CharacterSeries":
        bound = min(self.qmax_half, other.qmax_half)
        acc: dict[tuple[int, int], int] = {}
        for (z1, q1), c1 in self.coeffs.items():
            if q1 > bound:
                continue
            for (z2, q2), c2 in other.coeffs.items():
                qh = q1 + q2
                if qh <= bound:
                    key = (z1 + z2, qh)
                    acc[key] = acc.get(key, 0) + c1 * c2
        return CharacterSeries(acc, bound)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharacterSeries):
            return NotImplemented
        bound = min(self.qmax_half, other.qmax_half)
        trim = lambda s: {k: c for k, c in s.coeffs.items() if k[1] <= bound}
        return trim(self) == trim(other)

    def at(self, qhalf: int) -> dict[int, int]:
        """The nonzero coefficients of ``q^(qhalf/2)``, keyed by z-exponent."""
        return {z: c for (z, qh), c in self.coeffs.items() if qh == qhalf}

    def records(self) -> list[dict]:
        return [
            {"z": z, "qhalf": qh, "coeff": c}
            for (z, qh), c in sorted(self.coeffs.items(), key=lambda item: (item[0][1], item[0][0]))
        ]


def binomial_factor(z: int, qhalf: int, coeff: int, qmax_half: int) -> CharacterSeries:
    """The factor ``1 + coeff * z^z q^(qhalf/2)``."""
    return CharacterSeries({(0, 0): 1, (z, qhalf): coeff}, qmax_half)


def geometric_factor(qhalf: int, qmax_half: int) -> CharacterSeries:
    """``1 / (1 - q^(qhalf/2))`` expanded to the truncation."""
    if qhalf <= 0:
        raise ValueError("geometric factor needs a positive q-exponent")
    acc = {(0, k): 1 for k in range(0, qmax_half + 1, qhalf)}
    return CharacterSeries(acc, qmax_half)


def char_trace(weight_cut2: int) -> CharacterSeries:
    """Basis trace sum of ``z^dg(v) q^weight(v)``; complete up to that weight."""
    return CharacterSeries({key: len(monos) for key, monos in graded_basis(weight_cut2).items()}, weight_cut2)


def _product(round_factors: Callable[[int], Sequence[tuple[int, int, int]]], qmax_half: int) -> CharacterSeries:
    """``prod_{i>=1}`` of ``binomial_factor(z, qhalf, coeff)`` over the factors
    ``(z, qhalf, coeff)`` of round ``i`` whose q-exponent is within the bound.

    Every round ``i`` used here has exponents ``>= i - 1``, so rounds past
    ``qmax_half + 1`` contribute nothing.
    """
    out = CharacterSeries.one(qmax_half)
    for i in range(1, qmax_half + 2):
        for z, qh, coeff in round_factors(i):
            if qh <= qmax_half:
                out = out * binomial_factor(z, qh, coeff, qmax_half)
    return out


def _theta(exponent: Callable[[int], int], sign: int, qmax_half: int) -> CharacterSeries:
    """``sum_m sign^m z^m q^(exponent(m)/2)`` over all integers ``m``, truncated.

    Every exponent used here satisfies ``exponent(m) >= |m| - 1``, so the
    span ``|m| <= qmax_half + 1`` holds every term within the bound; the
    series drops the rest of the span.
    """
    span = range(-qmax_half - 1, qmax_half + 2)
    return CharacterSeries({(m, exponent(m)): sign ** (m % 2) for m in span}, qmax_half)


# The two Jacobi identities, one row each: the factors (z, qhalf, coeff) of
# round i of the product side, then the q^(1/2)-exponent of z^m and the sign
# s of the sum side, where z^m carries s^m.
JACOBI = {
    "DA": (lambda i: ((0, 4 * i, -1), (1, 4 * i - 1, 1), (-1, 4 * i - 3, 1)), lambda m: m * (2 * m + 1), 1),
    "A": (lambda i: ((0, 2 * i, -1), (1, 2 * i - 2, -1), (-1, 2 * i, -1)), lambda m: m * (m - 1), -1),
}


def char_product_form(qmax_half: int) -> CharacterSeries:
    """``prod_{i>=1} (1 + z q^{2i-1+1/2})(1 + z^{-1} q^{2i-2+1/2})`` truncated."""
    return _product(lambda i: ((1, 4 * i - 1, 1), (-1, 4 * i - 3, 1)), qmax_half)


def char_sum_form(qmax_half: int) -> CharacterSeries:
    """``(1/prod(1-q^{2i})) sum_n z^n q^{n/2} q^{n^2}`` truncated.

    The theta series is the sum side of the ``DA`` Jacobi identity.
    """
    euler = CharacterSeries.one(qmax_half)
    for qh in range(4, qmax_half + 1, 4):
        euler = euler * geometric_factor(qh, qmax_half)
    _, exponent, sign = JACOBI["DA"]
    return euler * _theta(exponent, sign, qmax_half)


def jacobi_check(which: str, qmax: int) -> VerificationReport:
    """Coefficient-exact comparison of one of the two Jacobi identities (:data:`JACOBI`).

    ``DA``: prod (1-q^{2i})(1+z q^{2i-1/2})(1+z^{-1} q^{2i-3/2})
            = sum_m z^m q^{m(2m+1)/2}
    ``A``:  prod (1-q^i)(1-z q^{i-1})(1-z^{-1} q^i)
            = sum_m (-1)^m z^m q^{m(m-1)/2}   (the triple product)
    """
    if which not in JACOBI:
        raise ValueError(f"unknown identity {which!r}")
    round_factors, exponent, sign = JACOBI[which]
    qmax_half = 2 * qmax
    with VerificationReport("jacobi", {"which": which, "qmax": qmax}) as report:
        lhs = _product(round_factors, qmax_half)
        rhs = _theta(exponent, sign, qmax_half)
        for qh in range(qmax_half + 1):
            report.expect(lhs.at(qh), rhs.at(qh), lambda: f"z-coefficients of q^{Fraction(qh, 2)}")
    return report


def character_triple_check(qmax_half: int) -> VerificationReport:
    """Trace = product form = sum form, coefficient-exact to the bound."""
    with VerificationReport("character_triple", {"qmax_half": qmax_half}) as report:
        trace = char_trace(qmax_half)
        for name, other in (("product", char_product_form(qmax_half)), ("sum", char_sum_form(qmax_half))):
            for qh in range(qmax_half + 1):
                report.expect(
                    trace.at(qh), other.at(qh), lambda: f"trace vs {name}: z-coefficients of q^{Fraction(qh, 2)}"
                )
    return report


def sector_refinement_check(weight_cut2: int) -> VerificationReport:
    """The z^n q^w coefficient of the trace equals p((w - weight(v_n))/2) for every
    charge n with weight2(v_n) <= weight_cut2, which implies |n| <= weight_cut2."""
    with VerificationReport("sector_refinement", {"weight_cut2": weight_cut2}) as report:
        trace = char_trace(weight_cut2)
        charges = [n for n in range(-weight_cut2, weight_cut2 + 1) if sector_weight2(n, 0) <= weight_cut2]
        for n in charges:
            for w2 in range(weight_cut2 + 1):
                k = sector_energy(n, w2)
                expect = 0 if k is None else partition_count(k)
                report.expect(trace.coeffs.get((n, w2), 0), expect, lambda: f"coefficient of z^{n} q^{Fraction(w2, 2)}")
    return report
