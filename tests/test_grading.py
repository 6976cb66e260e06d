"""Charge and energy gradings, sector bases, partition machinery, exact rank."""

import math
import random
from fractions import Fraction

import pytest

from fockcheck import cli, grading, suites
from fockcheck.fock import enumerate_basis, indices_of, mask_of, weight, weight2
from fockcheck.grading import (
    deg_h,
    dg,
    graded_basis,
    lemma_vector,
    partition_count,
    partitions,
    prefix_ranks,
    sector_basis,
    sector_energy,
    sector_grid,
    sector_weight2,
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


@pytest.mark.parametrize("cut2", range(25))
def test_graded_basis_tiles_the_basis_in_basis_order(cut2):
    basis = enumerate_basis(cut2)
    table = graded_basis(cut2)
    assert sorted(m for bucket in table.values() for m in bucket) == sorted(basis)
    for (n, w2), bucket in table.items():
        assert bucket and all((dg(m), weight2(m)) == (n, w2) for m in bucket)
        assert bucket == [m for m in basis if (dg(m), weight2(m)) == (n, w2)]


def test_graded_basis_rejects_a_negative_cut():
    with pytest.raises(ValueError, match="weight cut must be non-negative"):
        graded_basis(-1)


def test_the_sector_rule_round_trips_and_has_no_sector_off_its_grid():
    for n in range(-6, 7):
        weights = {sector_weight2(n, k): k for k in range(12)}
        assert min(weights) == weight2(vacuum_like(n))
        for w2 in range(max(weights) + 1):
            assert sector_energy(n, w2) == weights.get(w2), (n, w2)
    with pytest.raises(ValueError, match="energy grade must be non-negative"):
        sector_weight2(0, -1)


def test_deg_h_raises_on_a_weight_off_the_sector_grid(monkeypatch):
    # with the charge read one too high, every weight is odd against the grid of 4
    monkeypatch.setattr(grading, "dg", lambda mono: dg(mono) + 1)
    for mono in enumerate_basis(8):
        with pytest.raises(ValueError, match="grading defect"):
            deg_h(mono)


def test_sector_grid_reads_every_sector_of_its_range():
    grid = sector_grid(3, 4)
    assert list(grid) == [(n, k) for n in range(-3, 4) for k in range(5)]
    assert all(grid[n, k] == sector_basis(n, k) for n, k in grid)


@pytest.mark.parametrize(
    "run",
    [suites.suite_sectors, lambda: cli.main(["decompose"]), lambda: cli.main(["decompose", "--nmax", "3", "--json"])],
    ids=["suite_sectors", "decompose", "decompose-json"],
)
def test_the_sector_tables_enumerate_the_basis_once(monkeypatch, capsys, run):
    calls = []
    enumerate_sets = grading.index_sets

    def counted(*args):
        calls.append(args)
        return enumerate_sets(*args)

    monkeypatch.setattr(grading, "index_sets", counted)
    run()
    assert len(calls) == 1


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


def gaussian_rank_oracle(rows):
    mat = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def integer_rows(rows):
    """Each rational row times the lcm of its denominators: the same rank on every prefix."""
    return [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in rows]


def random_rows(seed):
    """Small-int rows from ``seed``; every other matrix ends in a combination of its earlier rows."""
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n_cols)] for _ in range(n_rows)]
    if seed % 2:
        weights = [rng.randint(-3, 3) for _ in rows]
        rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n_cols)])
    return rows


def assert_ranks_match_oracle(rows):
    assert list(prefix_ranks(rows)) == [gaussian_rank_oracle(rows[:i]) for i in range(1, len(rows) + 1)], rows


def test_prefix_ranks_match_gaussian_oracle():
    cases = [
        [[Fraction(1, 2), Fraction(3)], [Fraction(1), Fraction(6)]],
        [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
        [[Fraction(2, 7), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(5, 3)],
         [Fraction(2, 7), Fraction(2), Fraction(5, 3)]],
        [[Fraction(i * j + i + 1, (j + 2)) for j in range(5)] for i in range(4)],
        # reduced against the pivots in decreasing leading column, the independent third
        # row would keep an entry in column 1 and replace the second pivot: rank 2, not 3
        [[1, 1, 0], [0, 1, 1], [1, 0, 0]],
    ]
    for rows in cases:
        assert_ranks_match_oracle(integer_rows(rows))


@pytest.mark.parametrize("seed", range(40))
def test_prefix_ranks_match_gaussian_oracle_on_random_rows(seed):
    assert_ranks_match_oracle(random_rows(seed))


def test_prefix_ranks_empty_and_identity():
    assert list(prefix_ranks([])) == []
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert list(prefix_ranks(eye)) == [1, 2, 3, 4]
