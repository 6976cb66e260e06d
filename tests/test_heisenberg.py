"""The Heisenberg current: mode sums, brackets, highest-weight structure."""

from fractions import Fraction

import pytest

from fockcheck import fock, grading
from fockcheck.fock import FockState, enumerate_basis, format_state, indices_of, mask_of
from fockcheck.grading import deg_h, dg, prefix_ranks, sector_basis, vacuum_like
from fockcheck.heisenberg import (
    h_mode,
    h_mode_bilinear,
    highest_weight_check,
    spanning_all,
)

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
    small = spanning_all(0, 0)
    assert small.passed and small.cases_run == 1
    # one case per partition of k <= 5 (1 + 1 + 2 + 3 + 5 + 7) in each of the 7 charges |n| <= 3
    report = spanning_all(3, 5)
    assert report.passed and report.cases_run == 7 * 19 == 133
    assert report.params == {"nmax": 3, "kmax": 5}


def test_spanning_detects_rank_deficit():
    # sanity of the rank engine itself: a dependent row leaves the rank where it was
    assert list(prefix_ranks([[7, 14, 21], [14, 28, 42], [0, 7, 1]])) == [1, 1, 2]


def test_spanning_all_reads_one_graded_pass_and_builds_no_state(monkeypatch):
    passes, states = [], []
    graded_basis, init = grading.graded_basis, fock.FockState.__init__
    monkeypatch.setattr(grading, "graded_basis", lambda *args: passes.append(args) or graded_basis(*args))
    monkeypatch.setattr(fock.FockState, "__init__", lambda self, *a, **kw: states.append(1) or init(self, *a, **kw))
    assert spanning_all(3, 5).passed
    assert len(passes) == 1 and states == []


def test_format_state_shows_heisenberg_action():
    out = h_mode(-1).apply(FockState.vacuum())
    assert format_state(out) != "0"
    assert all(deg_h(m) == 1 and dg(m) == 0 for m in out.terms)
