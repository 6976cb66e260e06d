"""Charge and energy gradings, sector bases, partition machinery."""

from fractions import Fraction

import pytest

from fockcheck.fock import enumerate_basis, indices_of, mask_of, weight
from fockcheck.grading import (
    deg_h,
    dg,
    lemma_vector,
    partition_count,
    partitions,
    sector_basis,
    vacuum_like,
)


def test_dg_examples():
    assert dg(mask_of(())) == 0
    assert dg(mask_of((2,))) == -1  # phi[-5/2]|0>
    assert dg(mask_of((0, 3, 5))) == 1  # phi[-11/2] phi[-7/2] phi[-1/2] |0>


def test_vacuum_like_vectors():
    assert indices_of(vacuum_like(0)) == ()
    assert indices_of(vacuum_like(1)) == (1,)
    assert indices_of(vacuum_like(-2)) == (0, 2)
    assert indices_of(vacuum_like(3)) == (1, 3, 5)
    for n in range(-5, 6):
        assert dg(vacuum_like(n)) == n
        assert deg_h(vacuum_like(n)) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_vacuum_like_weights(n):
    assert weight(vacuum_like(n)) == Fraction(n * n) + Fraction(n, 2)
    assert weight(vacuum_like(-n)) == Fraction(n * n) - Fraction(n, 2)


def test_deg_h_examples():
    assert deg_h(mask_of((2,))) == 1
    assert deg_h(mask_of((0, 3, 5))) == 4


def test_deg_h_integrality_up_to_weight_12():
    for mono in enumerate_basis(24):
        assert deg_h(mono) >= 0  # raises on a non-integer defect


def test_parity_compatibility():
    for mono in enumerate_basis(20):
        assert dg(mono) % 2 == len(indices_of(mono)) % 2


def test_sector_partition_of_basis():
    # every monomial lies in exactly one sector, and sectors tile the basis
    monos = enumerate_basis(20)
    tiled = 0
    for n in range(-4, 5):
        for k in range(11):
            sector = sector_basis(n, k)
            for m in sector:
                assert (dg(m), deg_h(m)) == (n, k)
            tiled += sum(1 for m in sector if m in set(monos))
    assert tiled == len(monos)


def test_sector_examples():
    assert sector_basis(0, 0) == [mask_of(())]
    assert mask_of((2,)) in sector_basis(-1, 1)
    assert len(sector_basis(0, 4)) == partition_count(4) == 5


def partition_count_oracle(kmax):
    """Coefficients of prod 1/(1-q^i) by polynomial multiplication."""
    coeffs = [1] + [0] * kmax
    for part in range(1, kmax + 1):
        for w in range(part, kmax + 1):
            coeffs[w] += coeffs[w - part]
    return coeffs


def test_partition_count_against_euler_product():
    oracle = partition_count_oracle(12)
    for k in range(13):
        assert partition_count(k) == oracle[k]
    assert partition_count(0) == 1
    assert partition_count(1) == 1
    assert partition_count(8) == 22


def test_partitions_enumeration():
    assert list(partitions(0)) == [()]
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    for k in range(10):
        parts = list(partitions(k))
        assert len(parts) == partition_count(k)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sum(p) == k and all(a >= b for a, b in zip(p, p[1:]))


def test_lemma_vector_examples():
    assert indices_of(lemma_vector(())) == ()
    assert indices_of(lemma_vector((1,))) == (0, 1)  # phi[-3/2] phi[-1/2] |0>
    mono = lemma_vector((2, 1))
    assert (dg(mono), deg_h(mono)) == (0, 3)


@pytest.mark.parametrize("k", range(9))
def test_lemma_vector_injective_into_sector(k):
    sector = set(sector_basis(0, k))
    seen = {}
    for parts in partitions(k):
        mono = lemma_vector(parts)
        assert mono in sector, parts
        assert mono not in seen, (parts, seen[mono])
        seen[mono] = parts


def test_lemma_vector_rejects_non_partitions():
    with pytest.raises(ValueError):
        lemma_vector((1, 2))
    with pytest.raises(ValueError):
        lemma_vector((0,))
