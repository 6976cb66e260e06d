"""Gradings on the neutral-fermion Fock space.

Two gradings live on monomials: the charge ``dg`` counting odd minus even
indices, and the energy ``deg_h`` measured inside each charge sector
relative to its minimal vector.

The charge-``n`` sector has a distinguished vacuum-like vector ``v_n`` of
minimal weight: indices ``{1, 3, ..., 2n-1}`` for ``n > 0`` and
``{0, 2, ..., 2|n|-2}`` for ``n < 0``.  ``deg_h`` is defined as
``(weight(v) - weight(v_dg(v))) / 2``; with this normalisation ``h_{-m}``
raises ``deg_h`` by exactly ``m`` and the sector of charge ``n`` and energy
``k`` has dimension ``p(k)``: :func:`sector_weight2` and its inverse
:func:`sector_energy` are that rule, and every sector is a bucket of one
:func:`graded_basis` table, as is each coefficient of the character trace.
The spanning certificate's exact rank on each sector is :func:`prefix_ranks`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .fock import Monomial, apply_mode_to_monomial, index_sets, indices_of, mask_of, weight2

Partition = tuple[int, ...]


def dg(mono: Monomial) -> int:
    """Odd minus even occupied indices: the set bits less twice the even ones."""
    even = mono & (1 << 2 * mono.bit_length()) // 3  # 0b0101...01, one bit at each even index
    return mono.bit_count() - 2 * even.bit_count()


def vacuum_like(n: int) -> Monomial:
    if n >= 0:
        return mask_of(tuple(range(1, 2 * n, 2)))
    return mask_of(tuple(range(0, -2 * n - 1, 2)))


def sector_weight2(n: int, k: int) -> int:
    """Twice the weight of the sector of charge ``n`` and energy ``k``: ``4k + weight2(v_n)``."""
    if k < 0:
        raise ValueError("energy grade must be non-negative")
    return 4 * k + weight2(vacuum_like(n))


def sector_energy(n: int, w2: int) -> int | None:
    """The energy of charge ``n`` at twice-weight ``w2``; ``None`` off the sector's grid."""
    diff2 = w2 - weight2(vacuum_like(n))
    return diff2 // 4 if diff2 >= 0 and diff2 % 4 == 0 else None


def deg_h(mono: Monomial) -> int:
    """Energy grade of a monomial within its charge sector; ``ValueError`` if its
    weight is off that sector's grid, which would falsify the sector grading."""
    k = sector_energy(dg(mono), weight2(mono))
    if k is None:
        raise ValueError(f"grading defect: monomial {indices_of(mono)} is off its sector's weight grid")
    return k


def graded_basis(weight_cut2: int) -> dict[tuple[int, int], list[Monomial]]:
    """The monomials of twice-weight at most ``weight_cut2`` by ``(charge, twice-weight)``,
    each bucket in basis order, the order :func:`~fockcheck.fock.index_sets` lists a weight in."""
    table: dict[tuple[int, int], list[Monomial]] = {}
    for w2, mono in index_sets(1, 2, weight_cut2):
        table.setdefault((dg(mono), w2), []).append(mono)
    return table


def sector_basis(n: int, k: int) -> list[Monomial]:
    """All monomials with charge ``n`` and energy ``k``, in basis order."""
    w2 = sector_weight2(n, k)
    return graded_basis(w2).get((n, w2), [])


def sector_grid(nmax: int, kmax: int) -> dict[tuple[int, int], list[Monomial]]:
    """The sectors ``(n, k)`` with ``|n| <= nmax`` and ``0 <= k <= kmax``, read off one
    table at the largest of their weights, that of ``(nmax, kmax)``."""
    table = graded_basis(sector_weight2(nmax, kmax))
    grid = [(n, k) for n in range(-nmax, nmax + 1) for k in range(kmax + 1)]
    return {(n, k): table.get((n, sector_weight2(n, k)), []) for n, k in grid}


def prefix_ranks(rows: Iterable[list[int]]) -> Iterator[int]:
    """The exact rank of the first ``i`` of the ``int`` rows, after each row ``i``: each
    row is reduced against the kept pivots in increasing leading column, so each
    clears its column and keeps the smaller ones clear, and is kept, divided by
    its content gcd, if anything is left."""
    pivots: dict[int, list[int]] = {}  # leading column -> its row, zero before it
    for row in rows:
        for lead in sorted(pivots):
            if row[lead]:
                pivot = pivots[lead]
                a, b = pivot[lead], row[lead]
                row = [a * x - b * y for x, y in zip(row, pivot)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            g = math.gcd(*row)
            pivots[lead] = [x // g for x in row]
        yield len(pivots)


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
