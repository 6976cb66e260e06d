"""Differential-operator generators, the window matrices, central defects."""

import math
from fractions import Fraction

import pytest

from fockcheck import suites, winf
from fockcheck.charged import CHARGED, enumerate_charged_basis, hA_mode
from fockcheck.fock import FockState, add_term, enumerate_basis
from fockcheck.grading import dg
from fockcheck.heisenberg import h_mode
from fockcheck.winf import (
    MatrixLift,
    glinf_cocycle,
    glinf_matrix,
    jk_mode_charged,
    jk_mode_neutral,
    matrix_commutator,
    scalar_defect_check,
    structure_constants,
)

CBASIS = enumerate_charged_basis(16)
NBASIS = enumerate_basis(16)


def test_j0_equals_charged_current():
    for n in range(-4, 5):
        for mono in CBASIS:
            v = FockState.monomial(mono, space=CHARGED)
            assert jk_mode_charged(0, n).apply(v) == hA_mode(n).apply(v), (n, mono)


def test_j0_equals_neutral_current():
    for n in range(-4, 5):
        for mono in NBASIS:
            v = FockState.monomial(mono)
            assert jk_mode_neutral(0, n).apply(v) == h_mode(n).apply(v), (n, mono)


def test_j1_zero_on_single_particle():
    # frozen from the window matrix: slot 1 carries eigenvalue 1
    v = FockState.monomial(((0,), ()), space=CHARGED)
    assert jk_mode_charged(1, 0).apply(v) == v
    w = FockState.monomial(((1,), ()), space=CHARGED)
    assert jk_mode_charged(1, 0).apply(w) == w.scale(2)


def test_j1_preserves_charge():
    for n in (-2, -1, 0, 1, 2):
        for mono in NBASIS:
            out = jk_mode_neutral(1, n).apply(FockState.monomial(mono))
            assert {dg(m) for m in out.terms} <= {dg(mono)}, (n, mono)


def test_glinf_matrix_examples():
    assert glinf_matrix(0, 0, 3) == {(j, j): Fraction(1) for j in range(-3, 4)}
    assert glinf_matrix(0, 2, 3) == {(j - 2, j): Fraction(1) for j in range(-3, 4)}
    assert glinf_matrix(1, 0, 3) == {(j, j): Fraction(j) for j in range(-3, 4) if j}
    # k = 2 entries are j(j+1)
    m = glinf_matrix(2, 1, 3)
    assert m[(2, 3)] == Fraction(12)
    assert (-1, 0) not in m and (-2, -1) not in m  # columns j = 0, -1 vanish


def test_matrix_commutator_of_shifts_vanishes():
    a = glinf_matrix(0, 2, 8)
    b = glinf_matrix(0, -2, 8)
    assert matrix_commutator(a, b, 5) == {}


def test_lift_of_identity_counts_charge():
    # sum_j E_{jj} lifts to the charge operator
    lift = MatrixLift(glinf_matrix(0, 0, 10))
    from fockcheck.charged import charge

    for mono in CBASIS:
        v = FockState.monomial(mono, space=CHARGED)
        assert lift.apply(v) == v.scale(charge(mono)), mono


def cocycle(k1, n1, k2, n2, radius=10):
    return glinf_cocycle(glinf_matrix(k1, n1, radius), glinf_matrix(k2, n2, radius))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_j0_column_defect_is_m(m):
    assert cocycle(0, m, 0, -m) == m
    report = scalar_defect_check(0, m, 0, -m, CBASIS)
    assert report.passed, report.failures[:2]


def test_non_pairing_defect_vanishes():
    assert cocycle(0, 1, 0, 2) == 0
    report = scalar_defect_check(0, 1, 0, 2, CBASIS)
    assert report.passed


def test_frozen_defect_value_1111():
    # regression value frozen from the first verified run
    assert cocycle(1, 1, 1, -1) == 0
    report = scalar_defect_check(1, 1, 1, -1, CBASIS)
    assert report.passed, report.failures[:2]


@pytest.mark.parametrize("k1,k2", [(1, 0), (2, 0), (2, 1), (2, 2)])
def test_general_defects_are_scalar(k1, k2):
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            report = scalar_defect_check(k1, n1, k2, n2, CBASIS)
            assert report.passed, (k1, n1, k2, n2, report.failures[:1])


def closed_form(k1, n1, k2, n2, radius):
    out = {}
    for k, a in enumerate(structure_constants(k1, n1, k2, n2)):
        for key, x in glinf_matrix(k, n1 + n2, radius).items():
            add_term(out, key, a * x)
    return out


def test_structure_constants_match_the_matrix_commutator():
    # every intermediate column of an entry with |r|, |s| <= inner lies within inner + 3
    inner = 8
    radius = inner + 3
    tuples = 0
    for k1 in range(3):
        for k2 in range(3):
            for n1 in range(-3, 4):
                for n2 in range(-3, 4):
                    got = matrix_commutator(glinf_matrix(k1, n1, radius), glinf_matrix(k2, n2, radius), inner)
                    want = {
                        (r, s): x
                        for (r, s), x in closed_form(k1, n1, k2, n2, radius).items()
                        if abs(r) <= inner and abs(s) <= inner
                    }
                    assert got == want, (k1, n1, k2, n2)
                    # the cocycle's window R = |n1| + |n2| + 1 already sees every straddling entry
                    window = abs(n1) + abs(n2) + 1
                    assert cocycle(k1, n1, k2, n2, window) == cocycle(k1, n1, k2, n2, window + 10)
                    tuples += 1
    assert tuples == 441


def test_structure_constants_examples():
    # [J^1_1, J^1_-1] = 2 J^1_0 (a Witt bracket); shifts commute modulo the centre
    assert structure_constants(1, 1, 1, -1) == [0, 2, 0]
    assert structure_constants(0, 2, 0, -2) == [0]
    assert structure_constants(2, 1, 1, -2) == [0, 2, 5, 0]


def fraction_solve(k1, n1, k2, n2):
    """The triangular solve of ``structure_constants`` in ``Fraction``s."""
    rising = lambda j, k: math.prod(range(j, j + k))
    out = []
    for t in range(k1 + k2 + 1):
        j = -t
        p = rising(j, k2) * rising(j - n2, k1) - rising(j, k1) * rising(j - n1, k2)
        rest = p - sum(a * rising(j, k) for k, a in enumerate(out))
        out.append(Fraction(rest, rising(j, t)))
    return out


def test_integer_structure_constants_equal_the_fraction_solve():
    for k1 in range(4):
        for k2 in range(4):
            for n1 in range(-6, 7):
                for n2 in range(-6, 7):
                    got = structure_constants(k1, n1, k2, n2)
                    assert got == fraction_solve(k1, n1, k2, n2), (k1, n1, k2, n2)
                    assert all(type(a) is Fraction for a in got)


def lifted_columns(monkeypatch, run, widen=None):
    """The column on every ``CBASIS`` monomial of each :class:`MatrixLift`
    that ``run()`` builds, in build order, with ``winf.<widen>`` called at a
    window 10 wider (its last argument); every report of ``run()`` passes."""
    lifts = []

    class Recorded(MatrixLift):
        def __init__(self, matrix):
            super().__init__(matrix)
            lifts.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(winf, "MatrixLift", Recorded)
        if widen:
            f = getattr(winf, widen)
            patch.setattr(winf, widen, lambda *args: f(*args[:-1], args[-1] + 10))
        assert all(rep.passed for rep in run())
    return [[lift.apply(FockState.monomial(mono, space=CHARGED)) for mono in CBASIS] for lift in lifts]


def lift_windows():
    """The J^0 lifts of ``suite_winf`` at |n| <= 4 (its ``j0_central_column``
    included) and scalar defects with k > 0, all on ``CBASIS``."""
    reports = suites.suite_winf(kmax=0, nmax=0, weight_cut2=16, mmax=4)
    return reports + [scalar_defect_check(k1, n1, k2, n2, CBASIS) for k1, n1, k2, n2 in SCALAR_DEFECTS]


SCALAR_DEFECTS = [(1, 1, 1, -1), (2, 3, 1, -2), (2, -1, 2, 3), (1, 0, 2, 2)]


@pytest.mark.parametrize("widen", ["glinf_matrix", "matrix_commutator"])
def test_widening_a_lift_window_changes_no_column(monkeypatch, widen):
    # glinf_matrix widens the J^0 lift radius and scalar_defect_check's radius,
    # matrix_commutator its inner window
    columns = lifted_columns(monkeypatch, lift_windows)
    assert len(columns) == 9 + 4 + len(SCALAR_DEFECTS)
    assert lifted_columns(monkeypatch, lift_windows, widen) == columns
