"""Gradings on the neutral-fermion Fock space.

Two gradings live on monomials: the charge ``dg`` counting odd minus even
indices, and the energy ``deg_h`` measured inside each charge sector
relative to its minimal vector.

The charge-``n`` sector has a distinguished vacuum-like vector ``v_n`` of
minimal weight: indices ``{1, 3, ..., 2n-1}`` for ``n > 0`` and
``{0, 2, ..., 2|n|-2}`` for ``n < 0``.  ``deg_h`` is defined as
``(weight(v) - weight(v_dg(v))) / 2``; with this normalisation ``h_{-m}``
raises ``deg_h`` by exactly ``m`` and the sector of charge ``n`` and energy
``k`` has dimension ``p(k)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .fock import Monomial, apply_mode_to_monomial, increasing_tuples, indices_of, mask_of, weight, weight2

Partition = tuple[int, ...]


def dg(mono: Monomial) -> int:
    odd = sum(n & 1 for n in indices_of(mono))
    return 2 * odd - mono.bit_count()


def vacuum_like(n: int) -> Monomial:
    if n >= 0:
        return mask_of(tuple(range(1, 2 * n, 2)))
    return mask_of(tuple(range(0, -2 * n - 1, 2)))


def deg_h(mono: Monomial) -> int:
    """Energy grade of a monomial within its charge sector.

    Raises ``ValueError`` if the weight defect against the sector's
    vacuum-like vector is not a non-negative even half-integer pair, which
    would falsify the sector grading.
    """
    diff2 = weight2(mono) - weight2(vacuum_like(dg(mono)))
    if diff2 < 0 or diff2 % 4:
        raise ValueError(f"grading defect: monomial {indices_of(mono)} has weight defect {Fraction(diff2, 2)}")
    return diff2 // 4


def sector_basis(n: int, k: int) -> list[Monomial]:
    """All monomials with charge ``n`` and energy ``k``, in lexicographic order
    of their index tuples: the tuples of
    :func:`~fockcheck.fock.increasing_tuples` (index ``m`` costs ``2m + 1``)
    of twice-weight exactly ``4k + weight2(v_n)`` and charge ``n``."""
    if k < 0:
        raise ValueError("energy grade must be non-negative")
    target2 = 4 * k + weight2(vacuum_like(n))
    sector = (mask_of(mono) for total, mono in increasing_tuples(1, 2, target2) if total == target2)
    return [mono for mono in sector if dg(mono) == n]


def partition_count(k: int) -> int:
    """Number of partitions of ``k`` into non-increasing positive parts."""
    if k < 0:
        raise ValueError("partition argument must be non-negative")
    counts = [1] + [0] * k  # counts[t]: partitions of t into the parts seen so far
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            counts[total] += counts[total - part]
    return counts[k]


def partitions(k: int) -> Iterator[Partition]:
    """All partitions of ``k``, parts non-increasing, in lexicographic order."""

    def extend(prefix: tuple[int, ...], rest: int, largest: int) -> Iterator[Partition]:
        if rest == 0:
            yield prefix
            return
        for part in range(min(rest, largest), 0, -1):
            yield from extend(prefix + (part,), rest - part, part)

    yield from extend((), k, k)


def lemma_vector(parts: Partition) -> Monomial:
    """Canonical sector-(0, k) monomial attached to a partition of ``k``.

    A partition ``(k_0 >= ... >= k_{l-1})`` is realised as the operator string

        phi[-2*k_0 + 1/2] phi[-2*(k_1-1) + 1/2] ... phi[-2*(k_{l-1}-l+1) + 1/2]
            phi[-2(l-1) - 1/2] ... phi[-2 - 1/2] phi[-1/2] |0>

    applied to the vacuum.  When an offset ``k_j - j`` is non-positive the
    corresponding factor annihilates one of the even-block indices, so the
    result is always a single signed monomial; the monomial is returned.
    """
    if any(p <= 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"not a partition: {parts}")
    ell = len(parts)
    mono = mask_of(tuple(range(0, 2 * ell, 2)))
    for j in range(ell - 1, -1, -1):
        t = -4 * (parts[j] - j) + 1
        hit = apply_mode_to_monomial(t, mono)
        if hit is None:
            raise ValueError(f"partition {parts} collided while building its sector vector")
        _, mono = hit
    return mono


__all__ = [
    "Partition",
    "dg",
    "deg_h",
    "lemma_vector",
    "partition_count",
    "partitions",
    "sector_basis",
    "vacuum_like",
    "weight",
    "weight2",
]
