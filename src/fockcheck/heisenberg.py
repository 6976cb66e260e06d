"""Heisenberg operators h_n on the neutral-fermion Fock space.

The Heisenberg field is the antisymmetrised fermion bilinear
``(1/2):phi(z) phi(-z):``; it has only odd powers of ``z`` and its modes

    h_n = (1/2) * sum_i (-1)**(i+1) :phi_{-i-1/2} phi_{2n+1+i-1/2}:

satisfy ``[h_m, h_n] = m delta(m+n) Id``.  ``h_n`` lowers weight by ``2n``
and preserves the charge grading.

Two independent constructions are provided: the explicit mode sum above and
extraction from the bilinear field; equality of the two on truncated bases
guards the sign conventions.

Each charge sector is an irreducible highest-weight module:
:func:`highest_weight_check` pins ``h_m v_n = delta(m, 0) n v_n``, and
:func:`spanning_all` certifies by exact rank, on the stored ``h`` columns
and one graded pass, that the ``h_{-lambda} v_n`` span every sector.
"""

from __future__ import annotations

from fractions import Fraction

from .fock import NEUTRAL
from .grading import partition_count, partitions, prefix_ranks, sector_grid, vacuum_like
from .modeops import (
    COLUMNS,
    AffineOperator,
    FermionBilinear,
    QuadraticModeOperator,
    as_factor,
    bilinear_mode,
    compose,
    pair_sum,
)
from .verify import VerificationReport, field_identity_check


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


def highest_weight_check(n: int, mmax: int) -> VerificationReport:
    """Declare ``h_m v_n = delta(m, 0) n v_n``, 0 <= m <= mmax, as a field identity against scalars."""
    scalar = lambda m: AffineOperator([], 0 if m else n)
    return field_identity_check("highest_weight", h_mode, scalar, range(mmax + 1), [vacuum_like(n)], n=n, mmax=mmax)


def spanning_all(nmax: int, kmax: int) -> VerificationReport:
    """Exact-rank certificate that the vectors h_{-k_l}...h_{-k_1} v_n span
    each charge-n, energy-k sector, |n| <= nmax and 0 <= k <= kmax, all read
    off one :func:`~fockcheck.grading.sector_grid` pass.

    One case per sector and partition of ``k``, in that order: the i-th
    vector lies in the sector, the first i vectors have rank i, and the
    sector has p(k) elements; so a sector's last case certifies it.  Each
    vector composes the stored ``h_{-m}`` columns on ``int`` numerators from
    ``v_n``; :func:`~fockcheck.grading.prefix_ranks` is blind to their scale.
    """
    with VerificationReport("spanning_all", {"nmax": nmax, "kmax": kmax}) as report:
        raising = {m: as_factor(COLUMNS.table(h_mode(-m), NEUTRAL)) for m in range(1, kmax + 1)}
        for (n, k), basis in sector_grid(nmax, kmax).items():
            vectors = []
            for parts in partitions(k):
                vec = {vacuum_like(n): 1}
                for m in parts:
                    acc: dict = {}
                    compose(raising[m], vec.items(), 1, acc)
                    vec = {mono: c for mono, c in acc.items() if c}
                vectors.append((parts, vec))
            ranks = prefix_ranks([vec.get(mono, 0) for mono in basis] for _, vec in vectors)
            for i, ((parts, vec), rank) in enumerate(zip(vectors, ranks), 1):
                report.expect(
                    (vec.keys() <= set(basis), rank, len(basis)),
                    (True, i, partition_count(k)),
                    lambda: f"partition {parts} in sector ({n}, {k}): (in sector, rank so far, dim)",
                )
    return report
