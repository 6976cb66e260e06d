"""Charged-fermion Fock space, its current algebra, and the intertwining
map from the neutral-fermion space.

Two species of modes ``psi+_n`` and ``psi-_n`` (n integer) satisfy
``{psi+_m, psi-_n} = delta(m+n+1)`` with all same-species anticommutators
zero; modes with ``n <= -1`` create, ``n >= 0`` annihilate the vacuum.

A monomial is a pair ``(plus, minus)`` of neutral monomials (see
:mod:`fockcheck.fock`): ``int`` bitmasks whose bit ``j`` stands for the mode
``-j-1`` of that block's species.  It is the product with every ``psi+``
factor left of every ``psi-`` factor and, as in the neutral space, the
largest index of each block leftmost.  So a mode's sign is the parity of a
popcount, and passing the ``psi+`` block costs ``(-1)**plus.bit_count()``.
A pair of index tuples, each block as in :func:`~fockcheck.fock.mask_of`,
is the monomial's index form, met only at the edges.

States and operators are the shared ones of :mod:`fockcheck.fock` and
:mod:`fockcheck.modeops`; this module supplies the space :data:`CHARGED`.
A charged mode is encoded as the ``int`` ``2*n`` for ``psi+_n`` and
``2*n + 1`` for ``psi-_n`` (:func:`charged_code`), so that, as in the
neutral space, a code is negative exactly when the mode creates.  A mode
acts on one block as the neutral mode ``code | 1`` acts on a neutral
monomial: a ``psi+`` creator or a ``psi-`` annihilator on the ``psi+``
block, a ``psi-`` creator or a ``psi+`` annihilator on the ``psi-`` block
with the extra sign ``(-1)**plus.bit_count()`` for passing the ``psi+`` block.
The Clifford sign rule thus lives once, in :func:`fockcheck.fock.mode_bits`,
which ``CHARGED.decode`` prefixes with the block a mode acts on.

The neutral space maps onto this one by the mode dictionary

    odd  neutral index 2j+1  <->  psi+_{-j-1}
    even neutral index 2j    <->  psi-_{-j-1}

extended to annihilators so that all anticommutators transport exactly.
On monomials the isomorphism splits the neutral indices into odd and even
ones, with the sign of moving every ``psi+`` factor left of every ``psi-``
factor.  Under the dictionary the neutral charge grading becomes the
particle-number charge ``plus.bit_count() - minus.bit_count()``, and weights match when
``psi+_{-j-1}`` and ``psi-_{-j-1}`` are weighted ``2j + 3/2`` and
``2j + 1/2``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .fock import (
    NEUTRAL,
    FockState,
    Monomial,
    Space,
    add_term,
    apply_mode_to_monomial,
    increasing_tuples,
    indices_of,
    mask_of,
    mode_bits,
)
from .modeops import AffineOperator, QuadraticModeOperator, falling

ChargedMonomial = tuple[int, int]

CVACUUM: ChargedMonomial = (0, 0)

PLUS, MINUS = 1, -1


def charge(mono: ChargedMonomial) -> int:
    return mono[0].bit_count() - mono[1].bit_count()


def cweight2(mono: ChargedMonomial) -> int:
    """Twice the weight transported from the neutral space."""
    plus, minus = mono
    return sum(4 * j + 3 for j in indices_of(plus)) + sum(4 * j + 1 for j in indices_of(minus))


def charged_code(species: int, m: int) -> int:
    """The ``int`` code of the mode ``psi+_m`` (``2m``) or ``psi-_m`` (``2m + 1``)."""
    return 2 * m + (species == MINUS)


def apply_charged_mode_to_monomial(code: int, mono: ChargedMonomial) -> tuple[int, ChargedMonomial] | None:
    """Signed action of the charged mode ``code`` on a monomial, or None when zero.

    The mode acts on one block as the neutral mode ``code | 1`` on a neutral
    monomial, adding or removing the index ``j`` of the block mode ``-j-1``
    it creates or pairs with; on the ``psi-`` block it first passes the
    ``psi+`` block.
    """
    plus, minus = mono
    if (code < 0) != (code & 1):  # psi+ creates or psi- annihilates: the psi+ block
        hit = apply_mode_to_monomial(code | 1, plus)
        return None if hit is None else (hit[0], (hit[1], minus))
    hit = apply_mode_to_monomial(code | 1, minus)
    if hit is None:
        return None
    sign, block = hit
    return (-sign if plus.bit_count() & 1 else sign), (plus, block)


def enumerate_charged_basis(weight_cut2: int) -> list[ChargedMonomial]:
    """All charged monomials of transported twice-weight <= weight_cut2, in
    :attr:`CHARGED.sort_key` order; each block is a tuple of
    :func:`~fockcheck.fock.increasing_tuples`, index ``j`` costing ``4j + 3``
    for ``psi+`` and ``4j + 1`` for ``psi-``."""
    if weight_cut2 < 0:
        raise ValueError("weight cut must be non-negative")
    out = [
        (mask_of(plus), mask_of(minus))
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

    def __post_init__(self):
        if self.left_species not in (PLUS, MINUS) or self.right_species not in (PLUS, MINUS):
            raise ValueError("species must be PLUS or MINUS")
        if self.dleft < 0 or self.dright < 0:
            raise ValueError("derivative orders must be non-negative")


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

    both = list(range(T + 1, 0))  # both create: T+1 <= a <= -1
    left, right = int(sp_l == PLUS), int(sp_r == PLUS)  # the block each factor annihilates in: 1 is psi-

    def support(mono: ChargedMonomial) -> list[int]:
        hits = both.copy()
        block = mono[left]
        while block:  # the left factor annihilates index j: a = j, lowest first
            low = block & -block
            hits.append(low.bit_length() - 1)
            block ^= low
        block = mono[right]
        while block:  # the left one creates and the right one annihilates index j: T - a = j, a <= -1
            low = block & -block
            j = low.bit_length() - 1
            if j > T:
                hits.append(T - j)
            block ^= low
        return hits

    return QuadraticModeOperator(rule, support, bil.prefactor.denominator, (bil, exponent), CHARGED)


H_CHARGED_BILINEAR = ChargedBilinear(Fraction(1), 0, PLUS, 0, MINUS, 0)


def hA_mode(n: int) -> QuadraticModeOperator:
    """Mode n of the charged current ``:psi+(z) psi-(z):``."""
    return charged_bilinear_mode(H_CHARGED_BILINEAR, -n - 1)


def lA_lambda_b_mode(lam: Fraction, b: Fraction, n: int) -> AffineOperator:
    """Mode n of ``(1-lam):(d psi+) psi-: + lam :(d psi-) psi+: - b :psi+ psi-:``
    plus the constant ``b(b - 2 lam + 1)/2`` at mode zero.

    It is the image of the neutral family under the state isomorphism with
    ``b`` shifted: ``LA(lam, b)`` corresponds to
    ``virasoro.lambda_family(lam, b + K)`` with ``K = (1 - 2 lam)/4``.
    """
    lam, b = Fraction(lam), Fraction(b)
    e = -n - 2
    return AffineOperator(
        [
            (1 - lam, charged_bilinear_mode(ChargedBilinear(Fraction(1), 0, PLUS, 1, MINUS, 0), e)),
            (lam, charged_bilinear_mode(ChargedBilinear(Fraction(1), 0, MINUS, 1, PLUS, 0), e)),
            (-b, hA_mode(n)),
        ],
        b * (b - 2 * lam + 1) / 2 if n == 0 else 0,
    )


def lA_family(lam: Fraction, b: Fraction) -> Callable[[int], AffineOperator]:
    return lambda n: lA_lambda_b_mode(lam, b, n)


# -- the mode dictionary and the state isomorphism ---------------------------


def charged_mode_of(t: int) -> tuple[int, int]:
    """Image of a neutral mode (twice-encoded) under the mode dictionary."""
    if t % 2 == 0:
        raise ValueError("neutral modes are half-integers")
    if t % 4 == 1:  # the modes -2j-3/2: creation of odd indices / psi+ side
        return PLUS, (t - 1) // 4
    return MINUS, (t - 3) // 4


def _split_sign(mono: ChargedMonomial) -> int:
    """Sign of moving every ``psi+`` factor left of every ``psi-`` factor from
    the neutral order, where the even index ``2j`` stands left of the odd
    index ``2p+1`` exactly when ``j > p``."""
    plus, minus = mono
    swaps = 0
    while plus:  # each psi+ index p passes the psi- indices above it
        low = plus & -plus
        swaps += (minus >> low.bit_length()).bit_count()
        plus ^= low
    return -1 if swaps % 2 else 1


def to_charged_monomial(mono: Monomial) -> tuple[int, ChargedMonomial]:
    """Signed dictionary image of a neutral monomial: the odd indices form the
    ``psi+`` block and the even ones the ``psi-`` block."""
    plus = minus = 0
    while mono:
        low = mono & -mono
        n = low.bit_length() - 1
        if n & 1:  # psi+_{-p-1}, the image of the neutral mode -(2p+1)-1/2
            plus |= 1 << (n >> 1)
        else:  # psi-_{-j-1}, the image of the neutral mode -2j-1/2
            minus |= 1 << (n >> 1)
        mono ^= low
    image = (plus, minus)
    return _split_sign(image), image


def from_charged_monomial(mono: ChargedMonomial) -> tuple[int, Monomial]:
    """Signed inverse image of a charged monomial."""
    plus, minus = mono
    neutral = 0
    while plus:  # psi+ index p is the odd neutral index 2p+1
        low = plus & -plus
        neutral |= 1 << (2 * low.bit_length() - 1)
        plus ^= low
    while minus:  # psi- index j is the even neutral index 2j
        low = minus & -minus
        neutral |= 1 << (2 * low.bit_length() - 2)
        minus ^= low
    return _split_sign(mono), neutral


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
    plus, minus = map(indices_of, mono)
    factors = [f"psi+[{-j - 1}]" for j in reversed(plus)] + [f"psi-[{-j - 1}]" for j in reversed(minus)]
    return " ".join(factors + ["|0>"]) if factors else "|0>"


# -- the space ---------------------------------------------------------------


def _report_key(mono: ChargedMonomial):
    """Weight, then the modes of each block as printed (increasing)."""
    return cweight2(mono), tuple(tuple(-j - 1 for j in reversed(indices_of(block))) for block in mono)


def _from_indices(mono) -> ChargedMonomial:
    """The monomial of a pair of index tuples; ``ValueError`` for anything else."""
    if type(mono) is not tuple or len(mono) != 2:
        raise ValueError(f"not a pair of index tuples: {mono}")
    return mask_of(mono[0]), mask_of(mono[1])


CHARGED = Space(
    "charged",
    CVACUUM,
    apply_charged_mode_to_monomial,
    operator.index,  # every integer is the code of one charged mode
    lambda mono: type(mono) is tuple and len(mono) == 2 and all(NEUTRAL.is_canonical(block) for block in mono),
    _from_indices,
    _report_key,
    format_charged_monomial,
    lambda code: (int((code < 0) == (code & 1)), *mode_bits(code | 1)),  # block 0 is psi+, 1 is psi-
)

# perfbench/layers.py traces the charged layer under these names.
ChargedState = FockState
ChargedQuadraticOperator = QuadraticModeOperator
ChargedAffineOperator = AffineOperator
