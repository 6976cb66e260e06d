"""Virasoro operator families on the neutral-fermion Fock space.

Conventions: a weight-two field ``L(z) = sum_n L_n z^{-n-2}``, so the mode
``L_n`` is the coefficient at exponent ``-n-2``.  A family is its mode
function ``n -> L_n``, which is what the verification harnesses take; a
report names it where the check is declared.  The families here are

* ``L^{1/2}``: modes of ``(1/2):(d phi)(z) phi(z):`` (central charge 1/2);
* ``L~^{1/2}``: the sign-flipped family ``n -> (-1)^n L^{1/2}_n``;
* ``L^1``: the Sugawara bilinear ``(1/2) sum_k :h_{n-k} h_k:`` in Heisenberg
  modes (central charge 1);
* ``L~^1``: ``(1/2) L^{1/2}_{2n} + (1/32) delta(n)`` (central charge 1);
* ``L^{lambda,b}``: the bilinear ``(1/2) L^{1/2}_{2n} + (a_n - 1/4) h_n + M delta(n)``,
  ``a_n`` affine and ``M`` quadratic in ``(lambda, b)`` (central charge ``-12*lambda**2 + 12*lambda - 2``).

Heisenberg quadratics are normal ordered with annihilators right: in
``:h_a h_b:`` the larger mode index acts first.  This is the unique choice
making ``L^1_0`` diagonal with eigenvalue ``n**2/2`` on the charge-``n``
vacuum-like vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .fock import NEUTRAL, FockState, Monomial, weight2
from .heisenberg import h_mode
from .modeops import (
    COLUMNS,
    AffineOperator,
    ColumnTable,
    FermionBilinear,
    apply_columns,
    bilinear_mode,
    parity_flip,
    zero_operator,
)

L_HALF_BILINEAR = FermionBilinear(Fraction(1, 2), 1, 0, 1, 1)
L_HALF_TILDE_BILINEAR = FermionBilinear(Fraction(1, 2), 1, 0, -1, -1)

WEIGHT2_VARIANTS = {
    1: FermionBilinear(Fraction(1), 1, 0, 1, 1),  # :(d phi)(z) phi(z):
    2: FermionBilinear(Fraction(1), 1, 0, -1, -1),  # :(d phi)(-z) phi(-z):
    3: FermionBilinear(Fraction(1), 1, 0, 1, -1),  # :(d phi)(z) phi(-z):
    4: FermionBilinear(Fraction(1), 1, 0, -1, 1),  # :(d phi)(-z) phi(z):
}


def central_charge(lam: Fraction) -> Fraction:
    """Central charge of the two-parameter family; independent of b."""
    lam = Fraction(lam)
    return -12 * lam * lam + 12 * lam - 2


def l_half_mode(n: int):
    return bilinear_mode(L_HALF_BILINEAR, -n - 2)


def l_half_tilde_mode(n: int):
    """Mode of the reflected field; equals (-1)**n times l_half_mode(n)."""
    return bilinear_mode(L_HALF_TILDE_BILINEAR, -n - 2)


def l_half_tilde_family_flip() -> Callable[[int], AffineOperator]:
    """The same family built through the generic parity flip."""
    return parity_flip(l_half_mode)


def weight2_mode(variant: int, n: int):
    """Mode ``n`` of one of the four weight-two fermion bilinears."""
    return bilinear_mode(WEIGHT2_VARIANTS[variant], -n - 2)


def sugawara_window(n: int, mono: Monomial) -> range:
    """Every ``k`` whose term ``:h_{n-k} h_k:`` can act nonzero on ``mono``.

    ``h_k`` lowers the twice-weight ``w`` by ``4k``, so it kills ``mono``
    when ``k > w//4``; in the normal order the larger of ``k`` and ``n - k``
    acts first, which leaves ``n - w//4 <= k <= w//4``.
    """
    bound = weight2(mono) // 4
    return range(n - bound, bound + 1)


class HTables(dict):
    """The column store's table of ``h_k`` by ``k``, each asked for once."""

    def __missing__(self, k: int) -> ColumnTable:
        table = self[k] = COLUMNS.table(h_mode(k), NEUTRAL)
        return table


# The column store keeps every L^1 column this computes, so the cache keeps
# none: it only counts calls, which perfbench/child.py reads through
# cache_info().
@lru_cache(maxsize=0)
def _sugawara_on_monomial(n: int, mono: Monomial, h: HTables) -> tuple[tuple[Monomial, int], ...]:
    """``L^1_n mono`` as ``(monomial, int)`` pairs, numerators over
    :attr:`SugawaraOperator.denominator`: the products ``h_{n-k} h_k`` for
    the ``k >= n/2`` of the window, composed inline from the ``h`` columns
    of the column store, read through ``h``."""
    acc: dict[Monomial, int] = {}
    get = acc.get
    window = sugawara_window(n, mono)
    for k in range(max(window.start, (n + 1) // 2), window.stop):  # k < n/2 is the term at n - k
        twice = 1 if 2 * k == n else 2
        outer = h[n - k]
        for mid, c in h[k][mono]:
            c *= twice
            for out, d in outer[mid]:
                acc[out] = get(out, 0) + c * d
    # each h column is over 2, and L^1 carries a factor 1/2: over 8 in all
    return tuple((m, c) for m, c in acc.items() if c)


class SugawaraOperator:
    """``L^1_n = (1/2) sum_k :h_{n-k} h_k:`` with lazily bounded support.

    On a monomial only the ``k`` of :func:`sugawara_window` contribute, and
    the terms at ``k`` and ``n - k`` are one product counted twice.  Each
    product is composed from the stored ``h`` columns in ``int`` numerators
    over 2, so a column of ``L^1_n`` has numerators over 8.  Its key
    ``("L1", n)`` puts those columns in the column store, which computes
    each once through :func:`_sugawara_on_monomial`.  The ``h`` tables it
    reads are asked for once per operator and held in ``h_tables``.  It acts
    on the neutral space only.
    """

    denominator = 8
    space = NEUTRAL

    def __init__(self, n: int):
        self.n = n
        self.key = ("L1", n)
        self.h_tables = HTables()

    def column(self, mono: Monomial, intern: Callable) -> tuple[tuple[Monomial, int], ...]:
        """The column on ``mono``, computed afresh; its monomials are those
        of the stored ``h`` columns, so ``intern`` is not needed."""
        return _sugawara_on_monomial(self.n, mono, self.h_tables)

    def apply(self, state: FockState) -> FockState:
        return apply_columns(self, state)


def sugawara_l1_mode(n: int) -> SugawaraOperator:
    return SugawaraOperator(n)


def l1_tilde_mode(n: int) -> AffineOperator:
    """``(1/2) L^{1/2}_{2n} + (1/32) delta(n)``."""
    return AffineOperator([(Fraction(1, 2), l_half_mode(2 * n))], Fraction(1, 32) if n == 0 else 0)


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


def lambda_family(lam: Fraction, b: Fraction) -> Callable[[int], AffineOperator]:
    """The bilinear ``(1/2) L^{1/2}_{2n} + (a_n - 1/4) h_n + M delta(n)``, with
    ``a_n = -(1/2-lam)((2n+1)/2) - b`` affine and ``M`` quadratic in ``(lam, b)``.
    By ``L^1_n = (1/2) L^{1/2}_{2n} - (1/4) h_n`` it is ``L^1_n + a_n h_n + M delta(n)``,
    which ``lambda_specialises_to_one`` checks against the Sugawara sum at ``(1/2, 0)``.
    The state isomorphism carries it to :func:`fockcheck.charged.lA_lambda_b_mode`
    at ``b - K``, with the ``K = (1 - 2 lam)/4`` of :func:`lambda_b_constant`.
    """
    lam, b = Fraction(lam), Fraction(b)
    M = lambda_b_constant(lam, b)

    def mode(n: int) -> AffineOperator:
        h_coeff = -(Fraction(1, 2) - lam) * Fraction(2 * n + 1, 2) - b - Fraction(1, 4)
        return AffineOperator([(Fraction(1, 2), l_half_mode(2 * n)), (h_coeff, h_mode(n))], M if n == 0 else 0)

    return mode


def doubling_construct(base_mode: Callable[[int], object], c: Fraction, N: int) -> Callable[[int], AffineOperator]:
    """Mode-dilution of a central-charge-c family into one of charge N*c:
    ``n -> (1/N) base(N n) + ((N^2-1)/(24 N)) c delta(n)``."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    c = Fraction(c)
    shift = Fraction(N * N - 1, 24 * N) * c

    def mode(n: int) -> AffineOperator:
        return AffineOperator([(Fraction(1, N), base_mode(N * n))], shift if n == 0 else 0)

    return mode


def h_derivative_mode(m: int) -> AffineOperator:
    """Mode of ``d/dz h(z)`` in the weight-two indexing: the coefficient at
    ``z^{-m-2}`` is ``-(m+1) h_{m/2}`` for even m and zero otherwise."""
    if m % 2:
        return zero_operator()
    return AffineOperator([(Fraction(-(m + 1)), h_mode(m // 2))])


def h_square_mode(m: int) -> AffineOperator:
    """Mode of the Heisenberg square ``:h(w) h(w):`` in the weight-two
    indexing: ``2 L^1_{m/2}`` at even m, zero at odd m."""
    if m % 2:
        return zero_operator()
    return AffineOperator([(Fraction(2), sugawara_l1_mode(m // 2))])
