"""Virasoro operator families on the neutral-fermion Fock space.

Conventions: a weight-two field ``L(z) = sum_n L_n z^{-n-2}``, so the mode
``L_n`` is the coefficient at exponent ``-n-2``.  The families here are

* ``L^{1/2}``: modes of ``(1/2):(d phi)(z) phi(z):`` (central charge 1/2);
* ``L~^{1/2}``: the sign-flipped family ``n -> (-1)^n L^{1/2}_n``;
* ``L^1``: the Sugawara bilinear ``(1/2) sum_k :h_{n-k} h_k:`` in Heisenberg
  modes (central charge 1);
* ``L~^1``: ``(1/2) L^{1/2}_{2n} + (1/32) delta(n)`` (central charge 1);
* ``L^{lambda,b}``: the two-parameter deformation of ``L^1`` by ``h`` and a
  constant, with central charge ``-12*lambda**2 + 12*lambda - 2``.

Heisenberg quadratics are normal ordered with annihilators right: in
``:h_a h_b:`` the larger mode index acts first.  This is the unique choice
making ``L^1_0`` diagonal with eigenvalue ``n**2/2`` on the charge-``n``
vacuum-like vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fock import NEUTRAL, FockState, Monomial, Space, weight2
from .heisenberg import h_mode
from .modeops import (
    AffineOperator,
    FermionBilinear,
    OperatorFamily,
    apply_columns,
    bilinear_mode,
    column,
    parity_flip,
    zero_operator,
)

L_HALF_BILINEAR = FermionBilinear(Fraction(1, 2), 0, 1, 0, 1, 1)
L_HALF_TILDE_BILINEAR = FermionBilinear(Fraction(1, 2), 0, 1, 0, -1, -1)

WEIGHT2_VARIANTS = {
    1: FermionBilinear(Fraction(1), 0, 1, 0, 1, 1),  # :(d phi)(z) phi(z):
    2: FermionBilinear(Fraction(1), 0, 1, 0, -1, -1),  # :(d phi)(-z) phi(-z):
    3: FermionBilinear(Fraction(1), 0, 1, 0, 1, -1),  # :(d phi)(z) phi(-z):
    4: FermionBilinear(Fraction(1), 0, 1, 0, -1, 1),  # :(d phi)(-z) phi(z):
}


def central_charge(lam: Fraction) -> Fraction:
    """Central charge of the two-parameter family; independent of b."""
    lam = Fraction(lam)
    return -12 * lam * lam + 12 * lam - 2


def l_half_mode(n: int):
    return bilinear_mode(L_HALF_BILINEAR, -n - 2)


def l_half_family() -> OperatorFamily:
    return OperatorFamily("L1/2", l_half_mode)


def l_half_tilde_mode(n: int):
    """Mode of the reflected field; equals (-1)**n times l_half_mode(n)."""
    return bilinear_mode(L_HALF_TILDE_BILINEAR, -n - 2)


def l_half_tilde_family() -> OperatorFamily:
    return OperatorFamily("L1/2~", l_half_tilde_mode)


def l_half_tilde_family_flip() -> OperatorFamily:
    """The same family built through the generic parity flip."""
    return parity_flip(l_half_family())


def weight2_field(variant: int) -> OperatorFamily:
    """One of the four weight-two fermion bilinears, as a mode family."""
    bil = WEIGHT2_VARIANTS[variant]
    return OperatorFamily(f"w2.{variant}", lambda n: bilinear_mode(bil, -n - 2))


def sugawara_window(n: int, mono: Monomial) -> range:
    """Every ``k`` whose term ``:h_{n-k} h_k:`` can act nonzero on ``mono``.

    ``h_k`` lowers the twice-weight ``w`` by ``4k``, so it kills ``mono``
    when ``k > w//4``; in the normal order the larger of ``k`` and ``n - k``
    acts first, which leaves ``n - w//4 <= k <= w//4``.
    """
    bound = weight2(mono) // 4
    return range(n - bound, bound + 1)


# The column store keeps every L^1 column this computes, so the cache keeps
# none: it only counts calls, which perfbench/child.py reads through
# cache_info().
@lru_cache(maxsize=0)
def _sugawara_on_monomial(n: int, mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """``L^1_n mono`` as ``(monomial, int)`` pairs, numerators over
    :attr:`SugawaraOperator.denominator`, composed from the ``h`` columns of
    the column store."""
    acc: dict[Monomial, int] = {}
    for k in sugawara_window(n, mono):
        if 2 * k < n:
            continue  # the term at n - k is the same product
        twice = 1 if 2 * k == n else 2
        right, left = h_mode(k), h_mode(n - k)
        for mid, c in column(right, mono, NEUTRAL):
            for out, d in column(left, mid, NEUTRAL):
                acc[out] = acc.get(out, 0) + twice * c * d
    # each h column is over 2, and L^1 carries a factor 1/2: over 8 in all
    return tuple(sorted((m, c) for m, c in acc.items() if c))


class SugawaraOperator:
    """``L^1_n = (1/2) sum_k :h_{n-k} h_k:`` with lazily bounded support.

    On a monomial only the ``k`` of :func:`sugawara_window` contribute, and
    the terms at ``k`` and ``n - k`` are one product counted twice.  Each
    product is composed from the stored ``h`` columns in ``int`` numerators
    over 2, so a column of ``L^1_n`` has numerators over 8.  Its key
    ``("L1", n)`` puts those columns in the column store, which computes
    each once through :func:`_sugawara_on_monomial`.  It acts on the
    neutral space only, and its column is where that is checked.
    """

    denominator = 8

    def __init__(self, n: int):
        self.n = n
        self.key = ("L1", n)

    def column(self, space: Space, mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
        """The column on the neutral monomial ``mono``, computed afresh."""
        if space is not NEUTRAL:
            raise ValueError(f"L^1 acts on the neutral space, not on a {space.name} state")
        return _sugawara_on_monomial(self.n, mono)

    def apply(self, state: FockState) -> FockState:
        return apply_columns(self, state)


def sugawara_l1_mode(n: int) -> SugawaraOperator:
    return SugawaraOperator(n)


def sugawara_family() -> OperatorFamily:
    return OperatorFamily("L1", sugawara_l1_mode)


def l1_tilde_family() -> OperatorFamily:
    """``n -> (1/2) L^{1/2}_{2n} + (1/32) delta(n)``."""
    return OperatorFamily(
        "L1~",
        lambda n: AffineOperator(
            [(Fraction(1, 2), l_half_mode(2 * n))],
            Fraction(1, 32) if n == 0 else 0,
        ),
    )


def l1_tilde_field_mode(n: int) -> AffineOperator:
    """The same mode read off the field form
    ``(1/8 z^2)(:(d phi)(z) phi(z): + :(d phi)(-z) phi(-z):) + 1/(32 z^4)``.

    The ``z^-2`` prefactor moves the coefficient of ``(z^2)^{-n-2}`` to the
    plain exponent ``-2n-2`` of the bilinear sum."""
    e = -2 * n - 2
    return AffineOperator(
        [
            (Fraction(1, 8), bilinear_mode(WEIGHT2_VARIANTS[1], e)),
            (Fraction(1, 8), bilinear_mode(WEIGHT2_VARIANTS[2], e)),
        ],
        Fraction(1, 32) if n == 0 else 0,
    )


def lambda_b_constant(lam: Fraction, b: Fraction) -> Fraction:
    """Constant part of the two-parameter family: (b^2 + 2Kb - 3K^2)/2 with
    K = (1 - 2 lam)/4.  This is the unique value closing the Virasoro
    bracket; it vanishes at (1/2, 0) and equals 1/32 at (1/2, -1/4)."""
    K = Fraction(1 - 2 * Fraction(lam), 4)
    b = Fraction(b)
    return (b * b + 2 * K * b - 3 * K * K) / 2


def lambda_family(lam: Fraction, b: Fraction) -> OperatorFamily:
    """The deformation ``L^1_n - (1/2-lam)((2n+1)/2) h_n - b h_n + M delta(n)``.

    The state isomorphism carries it to the charged family with a shifted
    ``b``: ``to_charged(L^{lam,b}_n v) = LA(lam, b - K)_n to_charged(v)`` with
    ``K = (1 - 2 lam)/4``, the ``K`` of :func:`lambda_b_constant`
    (see :func:`fockcheck.charged.lA_lambda_b_mode`).
    """
    lam, b = Fraction(lam), Fraction(b)
    M = lambda_b_constant(lam, b)

    def mode(n: int) -> AffineOperator:
        h_coeff = -(Fraction(1, 2) - lam) * Fraction(2 * n + 1, 2) - b
        return AffineOperator([(1, sugawara_l1_mode(n)), (h_coeff, h_mode(n))], M if n == 0 else 0)

    return OperatorFamily(f"L({lam},{b})", mode)


def doubling_construct(base: OperatorFamily, c: Fraction, N: int) -> OperatorFamily:
    """Mode-dilution of a central-charge-c family into one of charge N*c:
    ``n -> (1/N) base(N n) + ((N^2-1)/(24 N)) c delta(n)``."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    c = Fraction(c)
    shift = Fraction(N * N - 1, 24 * N) * c

    def mode(n: int) -> AffineOperator:
        return AffineOperator([(Fraction(1, N), base.mode(N * n))], shift if n == 0 else 0)

    return OperatorFamily(f"{base.name}^(x{N})", mode)


def h_derivative_family() -> OperatorFamily:
    """Modes of ``d/dz h(z)`` in the weight-two indexing: the coefficient at
    ``z^{-m-2}`` is ``-(m+1) h_{m/2}`` for even m and zero otherwise."""

    def mode(m: int):
        if m % 2:
            return zero_operator()
        return AffineOperator([(Fraction(-(m + 1)), h_mode(m // 2))])

    return OperatorFamily("dh", mode)


def h_square_family() -> OperatorFamily:
    """Modes of the Heisenberg square ``:h(w) h(w):`` in the weight-two
    indexing: ``2 L^1_{m/2}`` at even m, zero at odd m."""

    def mode(m: int):
        if m % 2:
            return zero_operator()
        return AffineOperator([(Fraction(2), sugawara_l1_mode(m // 2))])

    return OperatorFamily("h^2", mode)
