"""The relation-checking harness itself: determinism, witnesses, rank, memo."""

import json
from collections import Counter
from fractions import Fraction

import pytest

from fockcheck import virasoro
from fockcheck.charged import CHARGED, hA_mode
from fockcheck.fock import FockState, enumerate_basis, format_state
from fockcheck.heisenberg import h_mode
from fockcheck.modeops import AffineOperator, FermionBilinear
from fockcheck.verify import (
    MAX_WITNESSES,
    VerificationReport,
    bracket_check,
    field_identity_check,
    fraction_free_rank,
    merge_reports,
)
from fockcheck.suites import heisenberg_expected, square_grid, virasoro_bracket, virasoro_expected


def test_bracket_check_passes_heisenberg():
    basis = enumerate_basis(10)
    report = bracket_check("h", "commutator", h_mode, heisenberg_expected, square_grid(2), basis, mmax=2)
    assert report.passed
    assert report.cases_run == 25 * len(basis)
    assert report.params == {"kind": "commutator", "pairs": 25, "basis": len(basis), "mmax": 2}


def test_bracket_check_flags_corruption():
    # doubling the modes quadruples the central term: failures carry witnesses
    corrupt = lambda n: AffineOperator([(Fraction(2), h_mode(n))])
    report = bracket_check("h_corrupt", "commutator", corrupt, heisenberg_expected, [(1, -1)], enumerate_basis(6))
    assert not report.passed
    assert all({"witness", "lhs", "rhs"} <= set(f) for f in report.failures)


def test_red_bracket_witness_renders_fractional_sides():
    # central charge 7/5 is wrong for L^{1/3,2/5}; both sides of the first
    # failing case are rationals with distinct denominators
    family = virasoro.lambda_family(Fraction(1, 3), Fraction(2, 5))
    report = virasoro_bracket("x", family, Fraction(7, 5), 2, enumerate_basis(8))
    assert (report.cases_run, report.failures_total) == (225, 18)
    assert report.failures[0] == {"witness": "(m=-2, n=2) on |0>", "lhs": "-149/200 |0>", "rhs": "-667/600 |0>"}


def test_bracket_check_rejects_a_non_canonical_basis_monomial():
    with pytest.raises(ValueError, match="not a canonical neutral monomial"):
        bracket_check("h", "commutator", h_mode, heisenberg_expected, [(1, -1)], [(), (1, 0)])


def test_bracket_check_rejects_a_basis_monomial_with_a_non_int_index():
    with pytest.raises(ValueError, match="not a canonical neutral monomial"):
        bracket_check("h", "commutator", h_mode, heisenberg_expected, [(1, -1)], [(), (0.5,)])
    with pytest.raises(ValueError, match="not a canonical charged monomial"):
        bracket_check("h", "commutator", hA_mode, heisenberg_expected, [(1, -1)], [((), ()), ((0.5,), ())], CHARGED)


def test_failing_bracket_cases_render_the_lowest_terms_states():
    # a wrong central charge fails every case at m = -n, |m| = 2; each witness
    # shows the two sides as the states they stand for, evaluated here by
    # plain state arithmetic
    lam, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(7, 5)
    family = virasoro.lambda_family(lam, b)
    basis = enumerate_basis(12)
    report = virasoro_bracket("x", family, c, 2, basis)
    expected = virasoro_expected(c)
    failing = []
    for m, n in square_grid(2):
        (coeff, k), scalar = expected(m, n)[0][0], expected(m, n)[1]
        for mono in basis:
            v = FockState.monomial(mono)
            lhs = family.mode(m).apply(family.mode(n).apply(v)) - family.mode(n).apply(family.mode(m).apply(v))
            rhs = family.mode(k).apply(v).scale(coeff) + v.scale(scalar)
            if lhs != rhs:
                witness = f"(m={m}, n={n}) on {format_state(v)}"
                failing.append({"witness": witness, "lhs": format_state(lhs), "rhs": format_state(rhs)})
    assert report.cases_run == 25 * len(basis)
    assert report.failures_total == len(failing) == 2 * len(basis) > MAX_WITNESSES
    assert report.failures == failing[:MAX_WITNESSES]


def test_bracket_check_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown bracket kind 'bracket'"):
        bracket_check("h", "bracket", h_mode, heisenberg_expected, [(1, -1)], [()])


def test_field_identity_trivial_and_corrupt():
    basis = enumerate_basis(8)
    same = field_identity_check("same", h_mode, h_mode, range(-2, 3), basis)
    assert same.passed and same.cases_run == 5 * len(basis)
    off = field_identity_check(
        "off", h_mode, lambda n: AffineOperator([(Fraction(1), h_mode(n))], Fraction(1)), [0], basis
    )
    assert not off.passed


def test_report_serialisation_deterministic():
    basis = enumerate_basis(8)
    a = bracket_check("h", "commutator", h_mode, heisenberg_expected, square_grid(1), basis)
    b = bracket_check("h", "commutator", h_mode, heisenberg_expected, square_grid(1), basis)
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    parsed = json.loads(json.dumps(a.to_dict()))
    assert set(parsed) == {"check", "params", "cases_run", "failures", "failures_total", "elapsed_ms"}


class CountingOperator:
    """Wraps an operator and counts its ``apply`` calls per input monomial."""

    def __init__(self, op, mode, calls):
        self.op, self.mode, self.calls = op, mode, calls
        self.denominator = op.denominator

    def apply(self, state):
        [mono] = state.terms
        self.calls[self.mode, mono] += 1
        return self.op.apply(state)


def counting_mode(family_mode, calls, built):
    def mode(i):
        built[i] += 1
        return CountingOperator(family_mode(i), i, calls)

    return mode


def test_bracket_check_builds_each_operator_and_column_once():
    basis = enumerate_basis(8)
    grid = square_grid(2)
    calls, built = Counter(), Counter()
    mode = counting_mode(virasoro.l_half_mode, calls, built)
    report = bracket_check("half", "commutator", mode, virasoro_expected(Fraction(1, 2)), grid, basis)
    assert report.passed and report.cases_run == len(grid) * len(basis)
    assert set(built.values()) == {1}
    # one memo also serves the expected side (m - n) L_{m+n}; m + n = ±4 only has m - n = 0
    assert set(built) == set(range(-3, 4))
    assert set(calls.values()) == {1}
    assert {(n, mono) for n in range(-2, 3) for mono in basis} <= set(calls)


def test_bracket_check_memo_dies_with_the_check(monkeypatch):
    basis = enumerate_basis(8)
    family = virasoro.l_half_family()
    assert virasoro_bracket("half", family, Fraction(1, 2), 2, basis).passed
    # the same family object, now built from a doubled field: L' = 2L breaks the bracket
    monkeypatch.setattr(virasoro, "L_HALF_BILINEAR", FermionBilinear(Fraction(1), 0, 1, 0, 1, 1))
    report = virasoro_bracket("half", family, Fraction(1, 2), 2, basis)
    assert not report.passed and report.failures


def test_failure_list_keeps_a_bounded_number_of_witnesses():
    with VerificationReport("defects", {}) as report:
        for i in range(1000):
            report.expect(i, i + 1, lambda: f"case {i}")
    assert report.cases_run == 1000
    assert report.failures_total == 1000 and not report.passed
    assert len(report.failures) == MAX_WITNESSES == 20
    assert report.failures[-1]["witness"] == "case 19"
    assert report.to_dict()["failures_total"] == 1000
    assert "FAIL (1000 defects)" in report.summary()

    merged = merge_reports("all", {}, [report, report])
    assert merged.failures_total == 2000 and len(merged.failures) == MAX_WITNESSES
    assert not merged.passed


def test_sugawara_columns_match_the_uncached_normal_ordered_sum():
    # (1/2) sum_k :h_{n-k} h_k:, the larger mode acting first, over a k range
    # wider than any window; h_k kills twice-weight below 4k
    for mono in enumerate_basis(12):
        v = FockState.monomial(mono, Fraction(1, 2))
        for n in range(-4, 5):
            want = FockState.zero()
            for k in range(-20, 21):
                a, b = sorted((n - k, k))
                want = want + h_mode(a).apply(h_mode(b).apply(v))
            column = dict(virasoro._sugawara_on_monomial(n, mono))  # int numerators over 8
            assert FockState(column, virasoro.SugawaraOperator.denominator) == want, (n, mono)


def test_sugawara_window_is_sound():
    # every k within 3 outside the window gives :h_{n-k} h_k: v = 0
    for mono in enumerate_basis(12):
        v = FockState.monomial(mono)
        for n in range(-4, 5):
            window = virasoro.sugawara_window(n, mono)
            for k in range(window.start - 3, window.stop + 3):
                if k in window:
                    continue
                a, b = sorted((n - k, k))
                assert h_mode(a).apply(h_mode(b).apply(v)).is_zero, (n, k, mono)


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


def test_rank_matches_gaussian_oracle():
    cases = [
        [[Fraction(1, 2), Fraction(3)], [Fraction(1), Fraction(6)]],
        [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
        [[Fraction(2, 7), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(5, 3)],
         [Fraction(2, 7), Fraction(2), Fraction(5, 3)]],
        [[Fraction(i * j + i + 1, (j + 2)) for j in range(5)] for i in range(4)],
    ]
    for rows in cases:
        assert fraction_free_rank(rows) == gaussian_rank_oracle(rows), rows


def test_rank_empty_and_identity():
    assert fraction_free_rank([]) == 0
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert fraction_free_rank(eye) == 4
