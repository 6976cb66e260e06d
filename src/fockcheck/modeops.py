"""Normal-ordered quadratic operators on either Fock space.

Operators of interest are formally infinite sums ``sum_i c_i :X_{p_i} Y_{q_i}:``
of mode pairs, in neutral modes ``phi`` or charged modes ``psi+``/``psi-``,
with constant weight shift.  They are never materialised: a
:class:`QuadraticModeOperator` carries a coefficient rule
``i -> (p, q, c)`` plus a support bound mapping each monomial to the
finitely many ``i`` whose summand can act on it without annihilating
everything.  A summand acts nonzero only if every annihilator among its two
factors targets a mode present in the monomial, or both factors create,
which pins ``i`` to a finite window.

The operator classes are shared by both spaces: a mode is an ``int`` code
of the space of the state acted on (see :mod:`fockcheck.fock`), and the
pair action reads the single-mode action from that state's space.  Only
the constructors differ, because the two field expansions differ.

Every operator declares a ``denominator`` D: each coefficient of its action
on a basis monomial lies in ``(1/D)Z``.  A quadratic operator's rule yields
``int`` numerators over its D, so its ``apply`` multiplies the state's
``int`` numerators by them and its denominator by D.  An affine
combination declares the lcm of its parts' denominators and combines their
states, whose arithmetic is ``int`` arithmetic too;
:func:`fockcheck.verify.bracket_check` raises ``ArithmeticError`` on a
coefficient outside the declared ``(1/D)Z``.

Normal ordering of a pair subtracts the vacuum expectation.  As an action
this means: when the left factor annihilates and the right one creates, the
pair acts as minus the swapped product; in every other arrangement it acts
as written (rightmost factor first).

Mode extraction from neutral bilinear fields uses the expansion
``phi(s*z) = sum_m phi_{-m-1/2} s^m z^m`` with field derivatives taken before
evaluation, so ``F(z) = pref * z^shift :(d^a phi)(s1 z)(d^b phi)(s2 z):``
has integer powers of ``z`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .fock import FockState, Monomial, add_term, apply_mode, check_mode

Pair = tuple[int, int, int]  # left mode code, right mode code, coefficient numerator


def normal_order_pair(p: int, q: int) -> tuple[tuple[int, int], int, Fraction]:
    """Data of ``:phi_p phi_q:`` with annihilators moved right.

    Returns ``((p', q'), sign, contraction)`` where the normal-ordered pair
    equals ``sign * phi_p' phi_q'`` as an operator and
    ``phi_p phi_q - contraction`` as a reordering identity; the contraction
    is the vacuum expectation ``<0| phi_p phi_q |0> = delta(p, -q) [p > 0]``.
    """
    check_mode(p)
    check_mode(q)
    if p > 0 and q < 0:
        return (q, p), -1, Fraction(1) if p == -q else Fraction(0)
    return (p, q), 1, Fraction(0)


def apply_pair_to_monomial(act: Callable, p: int, q: int, mono, acc: dict, coeff: int) -> None:
    """Accumulate ``coeff * :X_p X_q: mono`` into ``acc``.

    ``act`` is the single-mode action of the space the mode codes ``p`` and
    ``q`` belong to; a negative code creates.
    """
    if q < 0 <= p:
        first, second, sign = p, q, -1
    else:
        first, second, sign = q, p, 1
    hit = act(first, mono)
    if hit is None:
        return
    s1, mid = hit
    hit = act(second, mid)
    if hit is None:
        return
    s2, out = hit
    add_term(acc, out, coeff * (sign * s1 * s2))


class QuadraticModeOperator:
    """Lazy sum ``sum_i (w_i / D) :X_{p_i} Y_{q_i}:`` with finite action.

    ``rule(i)`` yields the ``i``-th summand ``(p, q, w)`` with the ``int``
    numerator ``w`` over the declared ``denominator`` D; ``support(mono)``
    yields every ``i`` whose summand can act nonzero on ``mono`` (a finite,
    possibly overcomplete, set).  All summands must shift weight by the same
    amount so the operator is homogeneous.
    """

    def __init__(self, rule: Callable[[int], Pair], support: Callable[[object], Iterable[int]], denominator: int):
        self.rule = rule
        self.support = support
        self.denominator = denominator

    def accumulate(self, act: Callable, mono, k: int, acc: dict) -> None:
        """Add ``k * D * self`` on ``mono`` into ``acc``, in ``int`` numerators;
        ``act`` is the single-mode action of the space of ``mono``."""
        rule = self.rule
        for i in self.support(mono):
            p, q, w = rule(i)
            if w:
                apply_pair_to_monomial(act, p, q, mono, acc, w * k)

    def apply(self, state: FockState) -> FockState:
        act = state.space.act
        acc: dict = {}
        for mono, k in state.terms.items():
            self.accumulate(act, mono, k, acc)
        return FockState(acc, state.denominator * self.denominator, state.space)


def zero_operator() -> QuadraticModeOperator:
    return QuadraticModeOperator(lambda i: (1, 1, 0), lambda mono: (), 1)


@dataclass(frozen=True)
class FermionBilinear:
    """``prefactor * z^zshift :(d^dleft phi)(sleft*z) (d^dright phi)(sright*z):``."""

    prefactor: Fraction
    zshift: int
    dleft: int
    dright: int
    sleft: int
    sright: int

    def __post_init__(self):
        if self.sleft not in (1, -1) or self.sright not in (1, -1):
            raise ValueError("evaluation signs must be +1 or -1")
        if self.dleft < 0 or self.dright < 0:
            raise ValueError("derivative orders must be non-negative")


def falling(m: int, order: int) -> int:
    """The falling factorial ``m (m-1) ... (m-order+1)``."""
    out = 1
    for step in range(order):
        out *= m - step
    return out


def bilinear_mode(bil: FermionBilinear, exponent: int) -> QuadraticModeOperator:
    """Coefficient of ``z**exponent`` in the bilinear field, as a lazy operator.

    With ``T = exponent - zshift + dleft + dright`` the summand at free index
    ``i`` pairs the modes ``-i-1/2`` and ``-(T-i)-1/2``; its coefficient
    collects the derivative falling factorials and the evaluation signs, over
    the prefactor's denominator.
    """
    T = exponent - bil.zshift + bil.dleft + bil.dright
    pref, a, b = bil.prefactor.numerator, bil.dleft, bil.dright
    sl, sr = bil.sleft, bil.sright

    def rule(i: int) -> Pair:
        j = T - i
        c = pref * falling(i, a) * falling(j, b)
        if sl < 0 and (i - a) % 2:
            c = -c
        if sr < 0 and (j - b) % 2:
            c = -c
        return -(2 * i + 1), -(2 * j + 1), c

    def support(mono: Monomial) -> Iterable[int]:
        hits = set(range(0, T + 1))  # both factors create
        for n in mono:
            hits.add(-n - 1)  # left factor annihilates n
            hits.add(T + n + 1)  # right factor annihilates n
        return sorted(hits)

    return QuadraticModeOperator(rule, support, bil.prefactor.denominator)


class AffineOperator:
    """Finite combination ``sum_j c_j * op_j + scalar * Id`` acting by linearity.

    Its ``denominator`` is the lcm of ``c_j * D_j`` over the parts and of the
    scalar's denominator.
    """

    def __init__(self, parts: Sequence[tuple[Fraction | int, object]], scalar: Fraction | int = 0):
        self.parts = [(Fraction(c), op) for c, op in parts if c]
        self.scalar = Fraction(scalar)
        self.denominator = math.lcm(
            self.scalar.denominator, *(c.denominator * op.denominator for c, op in self.parts)
        )

    def apply(self, state: FockState) -> FockState:
        out = state.scale(self.scalar) if self.scalar else FockState.zero(state.space)
        for c, op in self.parts:
            out = out + op.apply(state).scale(c)
        return out


class ModeOperator:
    """A single mode as an operator (used by the relation harness).

    The code ``t`` is read, and checked, in the space of the state it acts on.
    """

    denominator = 1

    def __init__(self, t: int):
        self.t = t

    def apply(self, state: FockState) -> FockState:
        return apply_mode(self.t, state)


@dataclass(frozen=True)
class OperatorFamily:
    """Mode-indexed family ``n -> operator``, addressable by name."""

    name: str
    mode: Callable[[int], object]


def parity_flip(family: OperatorFamily) -> OperatorFamily:
    """The family ``n -> (-1)^n * mode(n)``."""

    def mode(n: int) -> AffineOperator:
        return AffineOperator([(Fraction(-1) if n % 2 else Fraction(1), family.mode(n))])

    return OperatorFamily(f"{family.name}~", mode)

