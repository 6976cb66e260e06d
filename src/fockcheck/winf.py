"""Action of the differential-operator algebra on the circle (W_{1+infinity}).

The generators ``J^k_n = t^{n+k} (-d/dt)^k`` act on the charged space as the
modes of ``(-1)^k :psi+(w) (d^k psi-)(w):`` under the labelling
``J^k(w) = sum_n J^k_n w^{-n-k-1}``; the normalisation is anchored by
``J^0_n = hA_n``.  On the neutral space they act through the state
isomorphism.

On the monomial basis ``u_j = t^{-j}`` of Laurent polynomials the same
generator is the window matrix

    J^k_n  =  sum_j  j (j+1) ... (j+k-1)  E_{j-n, j}

so the bracket closes in closed form: ``[J^{k1}_{n1}, J^{k2}_{n2}]`` is
``sum_k a_k J^k_{n1+n2}`` with the :func:`structure_constants` ``a_k`` read
off the rising factorials, plus a central scalar, the gl_infinity cocycle of
the two window matrices (:func:`winf_expected`).  The bracket grid is
checked against that closed form on the Fock space.

Lifting ``E_{r,s}`` to the normal-ordered bilinear ``:psi+_{-r} psi-_{s-1}:``
(:class:`MatrixLift`, a quadratic operator with one summand per matrix
entry) reproduces the Fock operators exactly modulo the same scalar.
:func:`scalar_defect_check` declares the Fock bracket equal to the lifted
matrix commutator plus that scalar, and the bracket harness evaluates it;
it stays as the evidence for the lift.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .charged import (
    CHARGED,
    MINUS,
    PLUS,
    ChargedBilinear,
    ChargedMonomial,
    ConjugatedOperator,
    charged_bilinear_mode,
    charged_code,
)
from .fock import FockState, add_term
from .modeops import QuadraticModeOperator, apply_columns, falling
from .verify import VerificationReport, bracket_check

Matrix = dict[tuple[int, int], int]


def jk_mode_charged(k: int, n: int):
    """Mode n of ``(-1)^k :psi+(w) (d^k psi-)(w):``."""
    if k < 0:
        raise ValueError("differential order must be non-negative")
    sign = Fraction(-1) ** k
    bil = ChargedBilinear(sign, PLUS, 0, MINUS, k)
    return charged_bilinear_mode(bil, -(n + k + 1))


def jk_mode_neutral(k: int, n: int) -> ConjugatedOperator:
    """The same generator on the neutral space, through the isomorphism."""
    return ConjugatedOperator(jk_mode_charged(k, n))


def _rising(j: int, k: int) -> int:
    return falling(j + k - 1, k)  # j (j+1) ... (j+k-1)


def structure_constants(k1: int, n1: int, k2: int, n2: int) -> list[Fraction]:
    """The coefficients ``a_0, ..., a_{k1+k2}`` of ``[J^{k1}_{n1}, J^{k2}_{n2}]
    = sum_k a_k J^k_{n1+n2}`` modulo the centre.

    The commutator of the window matrices has the entry
    ``P(j) = r(j,k2) r(j-n2,k1) - r(j,k1) r(j-n1,k2)`` at ``(j-n1-n2, j)``,
    with ``r`` the rising factorial; ``P`` is expanded in the basis
    ``r(j, k)``.  Since ``r(-t, k) = 0`` for ``k > t``, the values at
    ``j = 0, -1, ..., -(k1+k2)`` give the ``a_k`` by a triangular solve.

    The pivot ``r(-t, t)`` is ``(-1)^t t!``, so ``a_t`` lies in ``(1/D)Z``
    for ``D`` the product of ``t!`` over ``t <= k1+k2``: the solve runs in
    ``int`` numerators over ``D``, and a division that is not exact raises
    ``ArithmeticError``.
    """
    top = k1 + k2
    den = math.prod(math.factorial(t) for t in range(top + 1))
    out: list[int] = []
    for t in range(top + 1):
        j = -t
        p = _rising(j, k2) * _rising(j - n2, k1) - _rising(j, k1) * _rising(j - n1, k2)
        num, r = divmod(p * den - sum(a * _rising(j, k) for k, a in enumerate(out)), _rising(j, t))
        if r:
            raise ArithmeticError(f"structure constant a_{t} of ({k1}, {n1}), ({k2}, {n2}) is outside (1/{den})Z")
        out.append(num)
    return [Fraction(a, den) for a in out]


def winf_expected(m: tuple[int, int], n: tuple[int, int]):
    """The closed-form bracket of ``J^{k1}_{n1}`` and ``J^{k2}_{n2}`` for
    :func:`~fockcheck.verify.bracket_check`, with ``m = (k1, n1)`` and
    ``n = (k2, n2)``.

    The operator part is ``sum_k a_k J^k_{n1+n2}``.  The scalar is the
    :func:`glinf_cocycle` of the two window matrices at radius
    ``R = |n1| + |n2| + 1``, which is exact: a straddling entry ``i <= 0 < j``
    of a shift-``n`` matrix has ``0 < j <= |n|``, and the entry of the other
    matrix it pairs with sits in column ``i = j - n``, ``|i| < |n|``, so every
    entry the cocycle reads lies within ``R``.
    """
    (k1, n1), (k2, n2) = m, n
    ops = [(a, (k, n1 + n2)) for k, a in enumerate(structure_constants(k1, n1, k2, n2)) if a]
    radius = abs(n1) + abs(n2) + 1
    return ops, glinf_cocycle(glinf_matrix(k1, n1, radius), glinf_matrix(k2, n2, radius))


def glinf_matrix(k: int, n: int, radius: int) -> Matrix:
    """Window matrix of ``t^{n+k}(-d/dt)^k`` on the basis ``u_j = t^{-j}``.

    The entry at ``(j-n, j)`` is the rising factorial ``j (j+1)...(j+k-1)``;
    only columns ``|j| <= radius`` are materialised.
    """
    out: Matrix = {}
    for j in range(-radius, radius + 1):
        c = _rising(j, k)
        if c:
            out[(j - n, j)] = c
    return out


def matrix_commutator(a: Matrix, b: Matrix, radius: int) -> Matrix:
    """``[a, b]`` restricted to entries whose intermediate sums stay inside
    the materialised columns; callers size the window accordingly."""
    out: Matrix = {}
    for (r, t), x in a.items():
        for (t2, s), y in b.items():
            if t == t2 and abs(r) <= radius and abs(s) <= radius:
                add_term(out, (r, s), x * y)
    for (r, t), x in b.items():
        for (t2, s), y in a.items():
            if t == t2 and abs(r) <= radius and abs(s) <= radius:
                add_term(out, (r, s), -x * y)
    return out


def glinf_cocycle(a: Matrix, b: Matrix) -> int:
    """The gl_infinity 2-cocycle ``sum_{i <= 0 < j} (a_ij b_ji - b_ij a_ji)``.

    Only entries whose row and column straddle the cut between 0 and 1
    contribute, and for a shift matrix they lie within the shift of the cut,
    so a :func:`glinf_matrix` window at least that wide gives the exact value.
    """
    out = 0
    for (i, j), x in a.items():
        if i <= 0 < j:
            out += x * b.get((j, i), 0)
    for (i, j), y in b.items():
        if i <= 0 < j:
            out -= y * a.get((j, i), 0)
    return out


class MatrixLift(QuadraticModeOperator):
    """Fock-space lift ``E_{r,s} -> :psi+_{-r} psi-_{s-1}:`` of a window matrix:
    one summand per entry, over 1; equal matrices share the key ``("lift", entries)``."""

    def __init__(self, matrix: Matrix):
        entries = tuple(matrix.items())
        pairs = [(charged_code(PLUS, -r), charged_code(MINUS, s - 1), w) for (r, s), w in entries]
        every = range(len(pairs))
        super().__init__(pairs.__getitem__, lambda mono: every, 1, ("lift", entries), CHARGED)

    # its own method, as perfbench/layers.py times winf.lift_s through vars(MatrixLift)["apply"]
    def apply(self, state: FockState) -> FockState:
        return apply_columns(self, state)


def max_slot(basis: Sequence[ChargedMonomial]) -> int:
    """One more than every ``psi+`` index and two more than every ``psi-``
    index of ``basis``, and at least 1."""
    return max([1] + [max(plus.bit_length(), minus.bit_length() + 1) for plus, minus in basis])


def scalar_defect_check(
    k1: int,
    n1: int,
    k2: int,
    n2: int,
    basis: Sequence[ChargedMonomial],
) -> VerificationReport:
    """Declare ``[J1, J2]`` on the Fock space equal to the :class:`MatrixLift`
    of the two window matrices' commutator (the mode ``"lift"``) plus their
    :func:`glinf_cocycle`, as one :func:`~fockcheck.verify.bracket_check`.

    The window is sized from the basis so every matrix entry that can touch
    a tested state is exact; an undersized window would surface as a
    non-scalar defect, never as a silent pass.
    """
    shift = abs(n1) + abs(n2) + k1 + k2
    inner = max_slot(basis) + shift + 2
    radius = inner + shift + 2
    m1 = glinf_matrix(k1, n1, radius)
    m2 = glinf_matrix(k2, n2, radius)
    lifted = MatrixLift(matrix_commutator(m1, m2, inner))
    scalar = glinf_cocycle(m1, m2)
    mode = lambda i: lifted if i == "lift" else jk_mode_charged(*i)
    pair = ((k1, n1), (k2, n2))
    expected = lambda m, n: ([(1, "lift")], scalar)
    return bracket_check(
        "winf_scalar_defect", "commutator", mode, expected, [pair], basis, CHARGED, k1=k1, n1=n1, k2=k2, n2=n2
    )
