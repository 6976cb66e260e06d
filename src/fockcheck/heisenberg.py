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

from .fock import FockState, format_state
from .grading import partition_count, partitions, sector_basis, vacuum_like
from .modeops import FermionBilinear, OperatorFamily, QuadraticModeOperator, bilinear_mode, pair_support
from .verify import VerificationReport, fraction_free_rank


def h_mode(n: int) -> QuadraticModeOperator:
    """The mode h_n as its explicit alternating pair sum, in numerators ``-+1`` over 2."""
    T = -2 * n - 1  # the two paper-style indices of each summand add to T

    def rule(i: int):
        return -(2 * i + 1), -(2 * (T - i) + 1), -1 if i % 2 == 0 else 1

    return QuadraticModeOperator(rule, pair_support(T), 2, ("h", n))


HEISENBERG_BILINEAR = FermionBilinear(Fraction(1, 2), 0, 0, 0, 1, -1)


def h_mode_bilinear(n: int) -> QuadraticModeOperator:
    """h_n extracted as the z**(-2n-1) coefficient of (1/2):phi(z)phi(-z):."""
    return bilinear_mode(HEISENBERG_BILINEAR, -2 * n - 1)


def h_family() -> OperatorFamily:
    return OperatorFamily("h", h_mode)


def h_family_bilinear() -> OperatorFamily:
    return OperatorFamily("h(bilinear)", h_mode_bilinear)


def raising_string(ks: Iterable[int], start: FockState) -> FockState:
    """Apply ``h_{-k_l} ... h_{-k_1}`` to a state, smallest k first."""
    out = start
    for k in ks:
        out = h_mode(-k).apply(out)
    return out


def highest_weight_check(n: int, mmax: int) -> VerificationReport:
    """Assert ``h_m v_n = 0`` for 1 <= m <= mmax and ``h_0 v_n = n v_n``."""
    v = FockState.monomial(vacuum_like(n))
    with VerificationReport("highest_weight", {"n": n, "mmax": mmax}) as report:
        report.expect(h_mode(0).apply(v), v.scale(n), lambda: f"h_0 on {format_state(v)}")
        for m in range(1, mmax + 1):
            report.expect(h_mode(m).apply(v), v.scale(0), lambda: f"h_{m} on {format_state(v)}")
    return report


def spanning_check(n: int, k: int) -> VerificationReport:
    """Exact-rank certificate that the vectors h_{-k_l}...h_{-k_1} v_n span
    the charge-n, energy-k sector.

    One vector per partition of ``k``; the check passes when their rank in
    the sector basis equals p(k), which is also the sector dimension.
    """
    with VerificationReport("spanning", {"n": n, "k": k}) as report:
        basis = sector_basis(n, k)
        index = {mono: i for i, mono in enumerate(basis)}
        expect = partition_count(k)
        rows = []
        vn = FockState.monomial(vacuum_like(n))
        for parts in partitions(k):
            vec = raising_string(parts, vn)
            row = [0] * len(basis)
            for mono, c in vec.terms.items():
                if mono not in index:
                    report.record(
                        witness=f"partition {parts}",
                        lhs=f"vector leaves sector ({n}, {k})",
                        rhs="sector membership",
                    )
                    break
                row[index[mono]] = c
            else:
                rows.append(row)
        rank = fraction_free_rank(rows)
        report.cases_run = max(len(rows), 1)
        if not (rank == expect == len(basis)):
            report.record(
                witness=f"sector ({n}, {k})",
                lhs=f"rank {rank} of dim {len(basis)}",
                rhs=f"p({k}) = {expect}",
            )
    return report
