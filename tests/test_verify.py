"""The relation-checking harness itself: determinism, witnesses, memo."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from fockcheck import modeops, suites, verify, virasoro
from fockcheck.charged import CHARGED, enumerate_charged_basis, hA_mode, lA_family
from fockcheck.fock import FockState, enumerate_basis, format_state, iter_modes
from fockcheck.heisenberg import h_mode
from fockcheck.modeops import AffineOperator, ColumnTable, FermionBilinear, ModeOperator
from fockcheck.verify import (
    MAX_WITNESSES,
    VerificationReport,
    bracket_check,
    field_identity_check,
    merge_reports,
)
from fockcheck.suites import (
    clifford_expected,
    heisenberg_expected,
    square_grid,
    virasoro_bracket,
    virasoro_expected,
)


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
    report = virasoro_bracket("x", "L(1/3,2/5)", family, Fraction(7, 5), 2, enumerate_basis(8))
    assert (report.cases_run, report.failures_total) == (225, 18)
    assert report.failures[0] == {"witness": "(m=-2, n=2) on |0>", "lhs": "-149/200 |0>", "rhs": "-667/600 |0>"}


def test_bracket_check_rejects_a_non_canonical_basis_monomial():
    with pytest.raises(ValueError, match="not a canonical neutral monomial"):
        bracket_check("h", "commutator", h_mode, heisenberg_expected, [(1, -1)], [(), (1, 0)])
    # a basis holds monomials as stored: masks, never negative or bool
    for bad in (-1, True):
        with pytest.raises(ValueError, match="not a canonical neutral monomial"):
            bracket_check("h", "commutator", h_mode, heisenberg_expected, [(1, -1)], [0, bad])
    with pytest.raises(ValueError, match="not a canonical charged monomial"):
        bracket_check("h", "commutator", hA_mode, heisenberg_expected, [(1, -1)], [(0, 0), (0, -1)], CHARGED)


def test_bracket_check_rejects_a_basis_monomial_with_a_non_int_index():
    with pytest.raises(ValueError, match="not a canonical neutral monomial"):
        bracket_check("h", "commutator", h_mode, heisenberg_expected, [(1, -1)], [(), (0.5,)])
    with pytest.raises(ValueError, match="not a canonical charged monomial"):
        bracket_check("h", "commutator", hA_mode, heisenberg_expected, [(1, -1)], [((), ()), ((0.5,), ())], CHARGED)
    # a field identity validates its basis up front, through the same check,
    # also when it has no mode to apply
    with pytest.raises(ValueError, match="not a canonical neutral monomial"):
        field_identity_check("h", h_mode, h_mode, [1], [(), (0.5,)])
    with pytest.raises(ValueError, match="not a canonical neutral monomial"):
        field_identity_check("h", h_mode, h_mode, [], [(0.5,)])
    with pytest.raises(ValueError, match="not a canonical charged monomial"):
        field_identity_check("h", hA_mode, hA_mode, [1], [((), ()), ((0.5,), ())], CHARGED)


def test_failing_bracket_cases_render_the_lowest_terms_states():
    # a wrong central charge fails every case at m = -n, |m| = 2; each witness
    # shows the two sides as the states they stand for, evaluated here by
    # plain state arithmetic
    lam, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(7, 5)
    family = virasoro.lambda_family(lam, b)
    basis = enumerate_basis(12)
    report = virasoro_bracket("x", "L(1/3,2/5)", family, c, 2, basis)
    expected = virasoro_expected(c)
    failing = []
    for m, n in square_grid(2):
        (coeff, k), scalar = expected(m, n)[0][0], expected(m, n)[1]
        for mono in basis:
            v = FockState.monomial(mono)
            lhs = family(m).apply(family(n).apply(v)) - family(n).apply(family(m).apply(v))
            rhs = family(k).apply(v).scale(coeff) + v.scale(scalar)
            if lhs != rhs:
                witness = f"(m={m}, n={n}) on {format_state(v)}"
                failing.append({"witness": witness, "lhs": format_state(lhs), "rhs": format_state(rhs)})
    assert report.cases_run == 25 * len(basis)
    assert report.failures_total == len(failing) == 2 * len(basis) > MAX_WITNESSES
    assert report.failures == failing[:MAX_WITNESSES]


def plain_failures(kind, mode, expected, pairs, basis):
    """``(pair, witness)`` for every failing case of a bracket grid, both sides
    by plain state arithmetic, pair-major, then in basis order."""
    sign = 1 if kind == "anticommutator" else -1
    failing = []
    for m, n in pairs:
        ops, scalar = expected(m, n)
        for mono in basis:
            v = FockState.monomial(mono)
            lhs = mode(m).apply(mode(n).apply(v)) + mode(n).apply(mode(m).apply(v)).scale(sign)
            rhs = v.scale(scalar)
            for c, k in ops:
                rhs = rhs + mode(k).apply(v).scale(c)
            if lhs != rhs:
                witness = f"(m={m}, n={n}) on {format_state(v)}"
                failing.append(((m, n), {"witness": witness, "lhs": format_state(lhs), "rhs": format_state(rhs)}))
    return failing


CLIFFORD_GRID = [(s, t) for s in iter_modes(5) for t in iter_modes(5)]
GRIDS = {
    "commutator": (h_mode, heisenberg_expected, square_grid(2)),
    "anticommutator": (ModeOperator, clifford_expected, CLIFFORD_GRID),
}


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_a_defect_only_in_swapped_pairs_fails_exactly_those(kind):
    # an expected side wrong only for m > n makes those rows no mirrors: they
    # compose their own cases and must fail exactly those, with the plain sides
    mode, right, grid = GRIDS[kind]
    basis = enumerate_basis(6)
    wrong = lambda m, n: (right(m, n)[0], right(m, n)[1] + (Fraction(1, 3) if m > n else 0))
    assert bracket_check("right", kind, mode, right, grid, basis).passed
    report = bracket_check("swapped", kind, mode, wrong, grid, basis)
    failing = plain_failures(kind, mode, wrong, grid, basis)
    assert report.cases_run == len(grid) * len(basis)
    assert {pair for pair, _ in failing} == {(m, n) for m, n in grid if m > n}
    assert report.failures_total == len(failing) == sum(m > n for m, n in grid) * len(basis)
    assert report.failures == [witness for _, witness in failing[:MAX_WITNESSES]]


def test_a_nonzero_expected_diagonal_fails_the_diagonal():
    # [A_m, A_m] is the zero vector, never composed; a nonzero expected side
    # there must still fail, with the bracket rendered as 0
    basis = enumerate_basis(6)
    wrong = lambda m, n: ([], Fraction(1, 3)) if m == n else heisenberg_expected(m, n)
    report = bracket_check("diagonal", "commutator", h_mode, wrong, square_grid(2), basis)
    failing = plain_failures("commutator", h_mode, wrong, square_grid(2), basis)
    assert {pair for pair, _ in failing} == {(m, m) for m in range(-2, 3)}
    assert report.failures_total == len(failing) == 5 * len(basis)
    assert report.failures == [witness for _, witness in failing[:MAX_WITNESSES]]
    assert all(failure["lhs"] == "0" for failure in report.failures)


def count_expected_sides(monkeypatch):
    """A list that grows by one each time ``bracket_check`` composes an
    expected side: once per vector the row kernel ``failing_vectors`` walks,
    as it composes its row's expected side on each, and once per ``compose``
    of a factor that ``as_factor`` did not make, as ``_sides`` does to render
    a witness."""
    made, calls = {}, []

    def failing_vectors(products, want, basis):
        def walked():
            for mono in basis:
                calls.append(-1)
                yield mono

        return modeops.failing_vectors(products, want, walked())

    def as_factor(table):
        factor = modeops.as_factor(table)
        made[id(factor)] = factor  # held, so no later factor reuses the id
        return factor

    def compose(factor, col, scale, acc):
        if id(factor) not in made:
            calls.append(scale)
        modeops.compose(factor, col, scale, acc)

    monkeypatch.setattr(verify, "failing_vectors", failing_vectors)
    monkeypatch.setattr(verify, "as_factor", as_factor)
    monkeypatch.setattr(verify, "compose", compose)
    return calls


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_a_defect_that_respects_the_mirror_fails_every_swapped_case(monkeypatch, kind):
    # +1/3 on the scalar for m > n and s/3 for m < n is s times the same
    # defect, so each row (n, m) copies the verdict of its first row (m, n)
    # and must still fail every case the plain sides fail, with their witnesses
    mode, right, grid = GRIDS[kind]
    basis = enumerate_basis(6)
    s = 1 if kind == "anticommutator" else -1
    defect = lambda m, n: Fraction(1, 3) if m > n else Fraction(s, 3) if m < n else 0
    wrong = lambda m, n: (right(m, n)[0], right(m, n)[1] + defect(m, n))
    expected_sides = count_expected_sides(monkeypatch)
    report = bracket_check("mirrored", kind, mode, wrong, grid, basis)
    failing = plain_failures(kind, mode, wrong, grid, basis)
    assert {pair for pair, _ in failing} == {(m, n) for m, n in grid if m != n}
    assert report.failures_total == len(failing) == sum(m != n for m, n in grid) * len(basis)
    assert report.failures == [witness for _, witness in failing[:MAX_WITNESSES]]
    # one expected side per unordered pair and vector, and one per rendered witness
    assert len(expected_sides) == len({frozenset(pair) for pair in grid}) * len(basis) + len(report.failures)


def test_a_swapped_declaration_in_another_form_is_evaluated_on_its_own(monkeypatch):
    # the same operator declared with its terms in another order, or with one
    # term split in two, is no mirror: the swapped rows compose their own cases
    right = virasoro_expected(Fraction(1, 2))

    def reordered(m, n):
        ops, scalar = right(m, n)
        ops = ops + [(Fraction(1), 0), (Fraction(-1), 0)]
        return (ops[::-1] if m > n else ops), scalar

    def split(m, n):
        ops, scalar = right(m, n)
        return ([(c / 2, k) for c, k in ops for _ in range(2)] if m > n else ops), scalar

    basis = enumerate_basis(6)
    expected_sides = count_expected_sides(monkeypatch)
    for declared in (reordered, split):
        expected_sides.clear()
        report = bracket_check("swapped", "commutator", virasoro.l_half_mode, declared, square_grid(2), basis)
        assert report.passed and report.cases_run == 25 * len(basis)
        assert len(expected_sides) == 25 * len(basis)


def test_mirrored_rows_compose_no_expected_side(monkeypatch):
    # L^{1/2} on square_grid(2): 5 diagonal rows and 10 unordered pairs are
    # evaluated, and the other 10 rows copy a verdict
    basis = enumerate_basis(8)
    expected_sides = count_expected_sides(monkeypatch)
    report = virasoro_bracket("half", "L1/2", virasoro.l_half_mode, Fraction(1, 2), 2, basis)
    assert report.passed and report.cases_run == 25 * len(basis)
    assert len(expected_sides) == 15 * len(basis)


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
    family = virasoro.l_half_mode
    assert virasoro_bracket("half", "L1/2", family, Fraction(1, 2), 2, basis).passed
    # the same mode function, now built from a doubled field: L' = 2L breaks the bracket
    monkeypatch.setattr(virasoro, "L_HALF_BILINEAR", FermionBilinear(Fraction(1), 1, 0, 1, 1))
    report = virasoro_bracket("half", "L1/2", family, Fraction(1, 2), 2, basis)
    assert not report.passed and report.failures


def test_an_affine_mode_fills_only_its_basis_columns(monkeypatch):
    # the outer factor of each product reads an affine mode's parts, so its
    # private table only ever holds the columns at the basis vectors
    filled = {}
    missing = ColumnTable.__missing__

    def recorded(self, mono):
        if self.store is None:
            filled.setdefault(id(self), (self, set()))[1].add(mono)
        return missing(self, mono)

    monkeypatch.setattr(ColumnTable, "__missing__", recorded)
    basis, cbasis = enumerate_basis(10), enumerate_charged_basis(10)
    lam, b = Fraction(1, 3), Fraction(2, 5)
    assert suites.lambda_bracket(lam, b, 2, basis).passed
    neutral = list(filled.values())
    filled.clear()
    family = lA_family(lam, b)
    assert virasoro_bracket("lA", "LA", family, virasoro.central_charge(lam), 2, cbasis, CHARGED).passed
    for tables, want in ((neutral, basis), (list(filled.values()), cbasis)):
        assert len(tables) == 7  # the modes -3..3, those past 2 on the expected side only
        for table, monos in tables:
            assert isinstance(table.op, AffineOperator) and monos == set(want) == set(table)


def test_a_red_affine_grid_keeps_its_count_and_witnesses(monkeypatch):
    # b^2 + (39/10) lam b - (17/10) b vanishes at the five pairs the suite
    # checks; at (2/7, 3) it breaks the mode-0 constant.  The count and the
    # witnesses (sha256 of their JSON) are pinned to those of the engine that
    # read every affine column, basis or not, from the combination's own table.
    constant = virasoro.lambda_b_constant

    def perturbed(lam, b):
        return constant(lam, b) + b * b + Fraction(39, 10) * lam * b - Fraction(17, 10) * b

    monkeypatch.setattr(virasoro, "lambda_b_constant", perturbed)
    report = suites.lambda_bracket(Fraction(2, 7), Fraction(3), 3, enumerate_basis(16))
    assert (report.cases_run, report.failures_total) == (1617, 198)
    assert report.failures[0] == {"witness": "(m=-3, n=3) on |0>", "lhs": "-3329/112 |0>", "rhs": "-40981/560 |0>"}
    digest = hashlib.sha256(json.dumps(report.to_dict()["failures"]).encode()).hexdigest()
    assert digest == "2f1ba1fca7ede6b5258548be4549665dec33584bcde51b6f708a0d78bca1ad7b"


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
            column = dict(virasoro._sugawara_on_monomial(n, mono, virasoro.HTables()))  # int numerators over 8
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
