"""Charged-fermion Fock space, its current algebra, and the intertwining
map from the neutral-fermion space.

Two species of modes ``psi+_n`` and ``psi-_n`` (n integer) satisfy
``{psi+_m, psi-_n} = delta(m+n+1)`` with all same-species anticommutators
zero; modes with ``n <= -1`` create, ``n >= 0`` annihilate the vacuum.
A monomial is a pair of strictly increasing tuples of negative integers
``(plus, minus)`` standing for the product with every ``psi+`` factor left
of every ``psi-`` factor and each block ordered by increasing mode index.

States and operators are the shared ones of :mod:`fockcheck.fock` and
:mod:`fockcheck.modeops`; this module supplies the space :data:`CHARGED`.
A charged mode is encoded as the ``int`` ``2*n`` for ``psi+_n`` and
``2*n + 1`` for ``psi-_n`` (:func:`charged_code`), so that, as in the
neutral space, a code is negative exactly when the mode creates.

The neutral space maps onto this one by the mode dictionary

    odd  neutral index 2j+1  <->  psi+_{-j-1}
    even neutral index 2j    <->  psi-_{-j-1}

extended to annihilators so that all anticommutators transport exactly.
Under the dictionary the neutral charge grading becomes the particle-number
charge ``len(plus) - len(minus)``, and weights match when ``psi+_{-j-1}``
and ``psi-_{-j-1}`` are weighted ``2j + 3/2`` and ``2j + 1/2``.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .fock import NEUTRAL, FockState, Monomial, Space, add_term, creation, increasing_tuples
from .modeops import AffineOperator, OperatorFamily, QuadraticModeOperator, falling

ChargedMonomial = tuple[tuple[int, ...], tuple[int, ...]]

CVACUUM: ChargedMonomial = ((), ())

PLUS, MINUS = 1, -1


def charge(mono: ChargedMonomial) -> int:
    return len(mono[0]) - len(mono[1])


def cweight2(mono: ChargedMonomial) -> int:
    """Twice the weight transported from the neutral space."""
    plus, minus = mono
    return sum(-4 * p - 1 for p in plus) + sum(-4 * q - 3 for q in minus)


def charged_code(species: int, m: int) -> int:
    """The ``int`` code of the mode ``psi+_m`` (``2m``) or ``psi-_m`` (``2m + 1``)."""
    return 2 * m + (species == MINUS)


def apply_charged_mode_to_monomial(code: int, mono: ChargedMonomial) -> tuple[int, ChargedMonomial] | None:
    """Signed action of the charged mode ``code`` on a monomial, or None when zero.

    Signs count the factors the moving operator anticommutes past in the
    canonical product: a ``psi-`` factor or annihilator passes the whole
    ``psi+`` block first.
    """
    plus, minus = mono
    m = code >> 1
    if not code & 1:  # psi+_m
        if m <= -1:  # create psi+_m
            if m in plus:
                return None
            pos = bisect_left(plus, m)
            sign = -1 if pos % 2 else 1
            return sign, (plus[:pos] + (m,) + plus[pos:], minus)
        target = -1 - m  # annihilate against psi-_{-1-m}
        pos = _find_pos(minus, target)
        if pos is None:
            return None
        sign = -1 if (len(plus) + pos) % 2 else 1
        return sign, (plus, minus[:pos] + minus[pos + 1 :])
    if m <= -1:  # create psi-_m
        if m in minus:
            return None
        pos = bisect_left(minus, m)
        sign = -1 if (len(plus) + pos) % 2 else 1
        return sign, (plus, minus[:pos] + (m,) + minus[pos:])
    target = -1 - m  # annihilate against psi+_{-1-m}
    pos = _find_pos(plus, target)
    if pos is None:
        return None
    sign = -1 if pos % 2 else 1
    return sign, (plus[:pos] + plus[pos + 1 :], minus)


def _find_pos(block: tuple[int, ...], m: int) -> int | None:
    try:
        return block.index(m)
    except ValueError:
        return None


def enumerate_charged_basis(weight_cut2: int) -> list[ChargedMonomial]:
    """All charged monomials of transported twice-weight <= weight_cut2, in
    :attr:`CHARGED.sort_key` order; each block is a tuple of
    :func:`~fockcheck.fock.increasing_tuples` whose index ``j`` is the mode
    ``-j-1``, costing ``4j + 3`` for ``psi+`` and ``4j + 1`` for ``psi-``."""
    if weight_cut2 < 0:
        raise ValueError("weight cut must be non-negative")

    def modes(indices: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-j - 1 for j in reversed(indices))

    out = [
        (modes(plus), modes(minus))
        for pweight, plus in increasing_tuples(3, 4, weight_cut2)
        for _, minus in increasing_tuples(1, 4, weight_cut2 - pweight)
    ]
    out.sort(key=CHARGED.sort_key)
    return out


# -- mode bilinears ----------------------------------------------------------


@dataclass(frozen=True)
class ChargedBilinear:
    """``prefactor * z^zshift :(d^dleft X)(z) (d^dright Y)(z):`` for species X, Y."""

    prefactor: Fraction
    zshift: int
    left_species: int
    dleft: int
    right_species: int
    dright: int


def charged_bilinear_mode(bil: ChargedBilinear, exponent: int) -> QuadraticModeOperator:
    """Coefficient of ``z**exponent`` of the bilinear, as a lazy operator.

    Fields expand as ``X(z) = sum_n X_n z^{-n-1}``; with
    ``T = -exponent + zshift - 2 - dleft - dright`` the summand at free index
    ``a`` pairs ``X_a`` with ``Y_{T-a}``; its coefficient is an ``int``
    numerator over the prefactor's denominator.
    """
    T = -exponent + bil.zshift - 2 - bil.dleft - bil.dright
    pref, a_ord, b_ord = bil.prefactor.numerator, bil.dleft, bil.dright
    sp_l, sp_r = bil.left_species, bil.right_species
    l_bit, r_bit = charged_code(sp_l, 0), charged_code(sp_r, 0)  # charged_code(sp, a) == 2*a + bit

    def rule(a: int):
        b = T - a
        c = pref * falling(-a - 1, a_ord) * falling(-b - 1, b_ord)
        return 2 * a + l_bit, 2 * b + r_bit, c

    def support(mono: ChargedMonomial) -> Iterable[int]:
        plus, minus = mono
        hits = set(range(T + 1, 0))  # both create: T+1 <= a <= -1
        left_targets = minus if sp_l == PLUS else plus
        right_targets = minus if sp_r == PLUS else plus
        for x in left_targets:
            hits.add(-1 - x)  # left factor annihilates
        for x in right_targets:
            hits.add(T + 1 + x)  # right factor annihilates
        return sorted(hits)

    return QuadraticModeOperator(rule, support, bil.prefactor.denominator)


H_CHARGED_BILINEAR = ChargedBilinear(Fraction(1), 0, PLUS, 0, MINUS, 0)


def hA_mode(n: int) -> QuadraticModeOperator:
    """Mode n of the charged current ``:psi+(z) psi-(z):``."""
    return charged_bilinear_mode(H_CHARGED_BILINEAR, -n - 1)


def lA_mode(lam: Fraction, n: int) -> AffineOperator:
    """Mode n of ``(1-lam):(d psi+) psi-: + lam :(d psi-) psi+:``."""
    lam = Fraction(lam)
    e = -n - 2
    return AffineOperator(
        [
            (1 - lam, charged_bilinear_mode(ChargedBilinear(Fraction(1), 0, PLUS, 1, MINUS, 0), e)),
            (lam, charged_bilinear_mode(ChargedBilinear(Fraction(1), 0, MINUS, 1, PLUS, 0), e)),
        ]
    )


def lA_lambda_b_mode(lam: Fraction, b: Fraction, n: int) -> AffineOperator:
    """Two-parameter charged Virasoro mode; the ``b`` terms shift by the
    current and a constant ``b(b - 2 lam + 1)/2`` at mode zero.

    It is the image of the neutral family under the state isomorphism with
    ``b`` shifted: ``LA(lam, b)`` corresponds to
    ``virasoro.lambda_family(lam, b + K)`` with ``K = (1 - 2 lam)/4``.
    """
    lam, b = Fraction(lam), Fraction(b)
    parts: list[tuple[Fraction, object]] = [(Fraction(1), lA_mode(lam, n))]
    if b:
        parts.append((-b, hA_mode(n)))
    scalar = b * (b - 2 * lam + 1) / 2 if n == 0 else Fraction(0)
    return AffineOperator(parts, scalar)


def lA_family(lam: Fraction, b: Fraction = Fraction(0)) -> OperatorFamily:
    return OperatorFamily(f"LA({lam},{b})", lambda n: lA_lambda_b_mode(lam, b, n))


# -- the mode dictionary and the state isomorphism ---------------------------


def charged_mode_of(t: int) -> tuple[int, int]:
    """Image of a neutral mode (twice-encoded) under the mode dictionary."""
    if t % 2 == 0:
        raise ValueError("neutral modes are half-integers")
    if t % 4 == 1:  # the modes -2j-3/2: creation of odd indices / psi+ side
        return PLUS, (t - 1) // 4
    return MINUS, (t - 3) // 4


def neutral_mode_of(species: int, m: int) -> int:
    """Inverse of the mode dictionary."""
    return 4 * m + 1 if species == PLUS else 4 * m + 3


def _perm_sign(seq: Sequence, key: Callable) -> int:
    ranked = [key(x) for x in seq]
    inversions = sum(
        1 for i in range(len(ranked)) for j in range(i + 1, len(ranked)) if ranked[i] > ranked[j]
    )
    return -1 if inversions % 2 else 1


def to_charged_monomial(mono: Monomial) -> tuple[int, ChargedMonomial]:
    """Signed dictionary image of a neutral monomial.

    Factors map in their written order (largest index leftmost) and are then
    sorted into the charged canonical order, every swap of the mutually
    anticommuting creation factors contributing a sign.
    """
    factors = [charged_mode_of(creation(n)) for n in reversed(mono)]
    plus = tuple(sorted(m for sp, m in factors if sp == PLUS))
    minus = tuple(sorted(m for sp, m in factors if sp == MINUS))
    # canonical rank: psi+ block (by mode) then psi- block (by mode)
    sign = _perm_sign(factors, key=lambda f: (0, f[1]) if f[0] == PLUS else (1, f[1]))
    return sign, (plus, minus)


def from_charged_monomial(mono: ChargedMonomial) -> tuple[int, Monomial]:
    """Signed inverse image of a charged monomial."""
    plus, minus = mono
    indices = [2 * (-m - 1) + 1 for m in plus] + [2 * (-m - 1) for m in minus]
    sign = _perm_sign(indices, key=lambda n: -n)  # neutral order: decreasing index
    return sign, tuple(sorted(indices))


def _transport(state: FockState, signed_image: Callable, space: Space) -> FockState:
    acc: dict = {}
    for mono, c in state.terms.items():
        sign, image = signed_image(mono)
        add_term(acc, image, sign * c)
    return FockState(acc, state.denominator, space)


def to_charged(state: FockState) -> FockState:
    """Linear extension of the monomial dictionary (the state isomorphism)."""
    return _transport(state, to_charged_monomial, CHARGED)


def from_charged(state: FockState) -> FockState:
    return _transport(state, from_charged_monomial, NEUTRAL)


class ConjugatedOperator:
    """A charged operator pulled back to the neutral space through the
    state isomorphism; the isomorphism has unit signs, so the denominator is
    the charged operator's."""

    def __init__(self, charged_op):
        self.charged_op = charged_op
        self.denominator = charged_op.denominator

    def apply(self, state):
        return from_charged(self.charged_op.apply(to_charged(state)))


# -- text form ---------------------------------------------------------------


def format_charged_monomial(mono: ChargedMonomial) -> str:
    plus, minus = mono
    factors = [f"psi+[{m}]" for m in plus] + [f"psi-[{m}]" for m in minus]
    return " ".join(factors + ["|0>"]) if factors else "|0>"


# -- the space ---------------------------------------------------------------


def _is_charged_canonical(mono: ChargedMonomial) -> bool:
    """True for a pair of strictly increasing tuples of negative modes."""
    return len(mono) == 2 and all(
        all(a < b for a, b in zip(block, block[1:])) and not (block and block[-1] >= 0) for block in mono
    )


CHARGED = Space(
    "charged",
    CVACUUM,
    apply_charged_mode_to_monomial,
    operator.index,  # every integer is the code of one charged mode
    _is_charged_canonical,
    lambda mono: (cweight2(mono), mono),
    format_charged_monomial,
)

# perfbench/layers.py traces the charged layer under these names.
ChargedState = FockState
ChargedQuadraticOperator = QuadraticModeOperator
ChargedAffineOperator = AffineOperator
