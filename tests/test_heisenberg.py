"""The Heisenberg current: mode sums, brackets, highest-weight structure."""

from fractions import Fraction

import pytest

from fockcheck.fock import FockState, enumerate_basis, format_state, indices_of, mask_of
from fockcheck.grading import deg_h, dg, sector_basis, vacuum_like
from fockcheck.heisenberg import (
    h_mode,
    h_mode_bilinear,
    highest_weight_check,
    spanning_check,
)
from fockcheck.verify import fraction_free_rank

from test_fock import clifford_reduce


def h_oracle(n, mono, span=12):
    """Brute-force expansion of the alternating pair sum for h_n, reduced by
    the independent Clifford word oracle.

    The span covers every index that can touch the monomial: annihilators
    must match an occupied slot and pure-creation terms need i, T-i >= 0.
    """
    acc = {}
    word_tail = tuple(-(2 * m + 1) for m in reversed(indices_of(mono)))
    for i in range(-span, span + 1):
        p = -(2 * i + 1)
        q = -(2 * (-2 * n - 1 - i) + 1)
        sign = Fraction(-1, 2) if i % 2 == 0 else Fraction(1, 2)
        # :phi_p phi_q: = phi_p phi_q - <phi_p phi_q>
        for m, c in clifford_reduce((p, q) + word_tail).items():
            acc[m] = acc.get(m, 0) + sign * c
        contraction = clifford_reduce((p, q)).get((), 0)
        if contraction:
            for m, c in clifford_reduce(word_tail).items():
                acc[m] = acc.get(m, 0) - sign * contraction * c
    return {mask_of(m): c for m, c in acc.items() if c}


@pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
def test_h_matches_brute_force_expansion(n):
    for mono in enumerate_basis(8):
        got = h_mode(n).apply(FockState.monomial(mono))
        assert dict(got.sorted_terms()) == h_oracle(n, mono), (n, mono)


def test_h_kills_vacuum_for_nonnegative_modes():
    vac = FockState.vacuum()
    for n in range(0, 6):
        assert h_mode(n).apply(vac).is_zero


def test_h_zero_eigenvalues_are_charges():
    for mono in enumerate_basis(16):
        v = FockState.monomial(mono)
        assert h_mode(0).apply(v) == v.scale(dg(mono))


def test_h_on_vacuum_like():
    for n in range(-4, 5):
        v = FockState.monomial(vacuum_like(n))
        assert h_mode(0).apply(v) == v.scale(n)


def test_bracket_h1_hm1():
    for mono in enumerate_basis(16):
        v = FockState.monomial(mono)
        got = h_mode(1).apply(h_mode(-1).apply(v)) - h_mode(-1).apply(h_mode(1).apply(v))
        assert got == v


def test_bracket_table_small():
    basis = enumerate_basis(12)
    for m in range(-3, 4):
        for n in range(-3, 4):
            for mono in basis:
                v = FockState.monomial(mono)
                got = h_mode(m).apply(h_mode(n).apply(v)) - h_mode(n).apply(h_mode(m).apply(v))
                want = v.scale(m) if m == -n else FockState.zero()
                assert got == want, (m, n, mono)


def test_dual_constructions_agree():
    for n in range(-5, 6):
        for mono in enumerate_basis(14):
            v = FockState.monomial(mono)
            assert h_mode(n).apply(v) == h_mode_bilinear(n).apply(v), (n, mono)


def test_even_extraction_of_h_field_vanishes():
    from fockcheck.heisenberg import HEISENBERG_BILINEAR
    from fockcheck.modeops import bilinear_mode

    for e in range(-8, 9, 2):  # even exponents carry no mode
        op = bilinear_mode(HEISENBERG_BILINEAR, e)
        for mono in enumerate_basis(10):
            assert op.apply(FockState.monomial(mono)).is_zero, (e, mono)


def test_h_raising_maps_between_sectors():
    for m in range(1, 5):
        for n in range(-2, 3):
            for q in range(0, 7 - m):
                for mono in sector_basis(n, q):
                    out = h_mode(-m).apply(FockState.monomial(mono))
                    for image in out.terms:
                        assert dg(image) == n and deg_h(image) == q + m, (m, n, q, mono)


def test_highest_weight_reports():
    for n in (-2, 0, 3):
        report = highest_weight_check(n, 5)
        assert report.passed and report.cases_run == 6


def test_spanning_examples():
    assert spanning_check(0, 0).passed
    assert spanning_check(2, 3).passed
    assert spanning_check(-3, 5).passed


def test_spanning_detects_rank_deficit():
    # sanity of the rank engine itself: dependent rows are not full rank
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1, 7)],
    ]
    assert fraction_free_rank(rows) == 2


def test_format_state_shows_heisenberg_action():
    out = h_mode(-1).apply(FockState.vacuum())
    assert format_state(out) != "0"
    assert all(deg_h(m) == 1 and dg(m) == 0 for m in out.terms)
