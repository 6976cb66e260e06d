"""Heisenberg operators h_n on the neutral-fermion Fock space.

The Heisenberg field is the antisymmetrised fermion bilinear
``(1/2):phi(z) phi(-z):``; it has only odd powers of ``z`` and its modes

    h_n = (1/2) * sum_i (-1)**(i+1) :phi_{-i-1/2} phi_{2n+1+i-1/2}:

satisfy ``[h_m, h_n] = m delta(m+n) Id``.  ``h_n`` lowers weight by ``2n``
and preserves the charge grading.

Two independent constructions are provided: the explicit mode sum above and
extraction from the bilinear field; equality of the two on truncated bases
guards the sign conventions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .fock import FockState
from .grading import partition_count, partitions, sector_basis, vacuum_like
from .modeops import AffineOperator, FermionBilinear, QuadraticModeOperator, bilinear_mode, pair_sum
from .verify import VerificationReport, field_identity_check, fraction_free_rank


def h_mode(n: int) -> QuadraticModeOperator:
    """The mode h_n as its explicit alternating pair sum, in numerators ``-+1``
    over 2; :func:`~fockcheck.modeops.pair_sum` folds each summand with its
    mirror, of the opposite sign, into one of ``-+2`` over 2."""
    T = -2 * n - 1  # the two paper-style indices of each summand add to T

    def rule(i: int):
        return -(2 * i + 1), -(2 * (T - i) + 1), -1 if i % 2 == 0 else 1

    return pair_sum(rule, T, 2, ("h", n))


HEISENBERG_BILINEAR = FermionBilinear(Fraction(1, 2), 0, 0, 0, 1, -1)


def h_mode_bilinear(n: int) -> QuadraticModeOperator:
    """h_n extracted as the z**(-2n-1) coefficient of (1/2):phi(z)phi(-z):."""
    return bilinear_mode(HEISENBERG_BILINEAR, -2 * n - 1)


def raising_string(ks: Iterable[int], start: FockState) -> FockState:
    """Apply ``h_{-k_l} ... h_{-k_1}`` to a state, smallest k first."""
    out = start
    for k in ks:
        out = h_mode(-k).apply(out)
    return out


def highest_weight_check(n: int, mmax: int) -> VerificationReport:
    """Declare ``h_m v_n = delta(m, 0) n v_n``, 0 <= m <= mmax, as a field identity against scalars."""
    scalar = lambda m: AffineOperator([], 0 if m else n)
    return field_identity_check("highest_weight", h_mode, scalar, range(mmax + 1), [vacuum_like(n)], n=n, mmax=mmax)


def spanning_check(n: int, k: int) -> VerificationReport:
    """Exact-rank certificate that the vectors h_{-k_l}...h_{-k_1} v_n span
    the charge-n, energy-k sector.

    One case per partition of ``k``, taken in order: the i-th vector lies in
    the sector, the first i vectors have rank i, and the sector basis has
    p(k) elements.  The last case is the rank certificate: p(k) independent
    vectors in a sector of dimension p(k).
    """
    with VerificationReport("spanning", {"n": n, "k": k}) as report:
        basis = sector_basis(n, k)
        sector = set(basis)
        expect = partition_count(k)
        rows = []
        vn = FockState.monomial(vacuum_like(n))
        for i, parts in enumerate(partitions(k), 1):
            terms = raising_string(parts, vn).terms
            rows.append([terms.get(mono, 0) for mono in basis])
            report.expect(
                (terms.keys() <= sector, fraction_free_rank(rows), len(basis)),
                (True, i, expect),
                lambda: f"partition {parts} in sector ({n}, {k}): (in sector, rank so far, dim)",
            )
    return report
