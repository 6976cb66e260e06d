"""Normal ordering of mode pairs and the lazy quadratic operators."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fockcheck
from fockcheck import modeops, virasoro
from fockcheck.charged import (
    CHARGED,
    MINUS,
    PLUS,
    ChargedBilinear,
    charged_bilinear_mode,
    enumerate_charged_basis,
    lA_lambda_b_mode,
)
from fockcheck.fock import NEUTRAL, FockState, apply_mode, enumerate_basis, weight2
from fockcheck.modeops import (
    COLUMNS,
    AffineOperator,
    ColumnStore,
    FermionBilinear,
    ModeOperator,
    QuadraticModeOperator,
    apply_pair_to_monomial,
    bilinear_mode,
    normal_order_pair,
    parity_flip,
    zero_operator,
)
from fockcheck.heisenberg import h_family, h_mode, h_mode_bilinear
from fockcheck.suites import LAMBDA_PAIRS, heisenberg_expected, square_grid, virasoro_bracket, virasoro_expected
from fockcheck.verify import bracket_check
from fockcheck.virasoro import SugawaraOperator, l_half_family, sugawara_family
from fockcheck.winf import jk_mode_charged, jk_mode_neutral


def test_normal_order_pair_cases():
    # two creators stay put
    assert normal_order_pair(-3, -1) == ((-3, -1), 1, 0)
    # annihilator left of its matching creator swaps with a contraction
    assert normal_order_pair(1, -1) == ((-1, 1), -1, 1)
    # creator left of annihilator is already ordered
    assert normal_order_pair(-1, 1) == ((-1, 1), 1, 0)
    # non-matching annihilator-creator still swaps, no contraction
    assert normal_order_pair(3, -1) == ((-1, 3), -1, 0)


def test_contraction_equals_vacuum_expectation():
    vac = FockState.vacuum()
    for p in range(-7, 8, 2):
        for q in range(-7, 8, 2):
            plain = apply_mode(p, apply_mode(q, vac)).coefficient(())
            (_, _), _, contraction = normal_order_pair(p, q)
            assert contraction == plain, (p, q)


def test_pair_action_is_the_normal_ordered_product():
    # the suites order every pair inside apply_pair_to_monomial; it must act as
    # sign * phi_p' phi_q' with (p', q') and sign from normal_order_pair
    modes = range(-9, 10, 2)
    for mono in enumerate_basis(8):
        v = FockState.monomial(mono)
        for p in modes:
            for q in modes:
                acc = {}
                apply_pair_to_monomial(NEUTRAL.act, p, q, mono, acc, 1)
                (p2, q2), sign, _ = normal_order_pair(p, q)
                assert FockState(acc) == apply_mode(p2, apply_mode(q2, v)).scale(sign), (p, q, mono)


def test_normal_ordered_pair_kills_vacuum():
    # :phi_p phi_q: |0> has no vacuum component for any p, q
    vac = FockState.vacuum()
    for p in range(-7, 8, 2):
        for q in range(-7, 8, 2):
            (p2, q2), sign, _ = normal_order_pair(p, q)
            out = apply_mode(p2, apply_mode(q2, vac)).scale(sign)
            assert out.coefficient(()) == 0, (p, q)
            if p > 0 or q > 0:
                assert out.is_zero, (p, q)


DIAGONAL = FermionBilinear(Fraction(1), 0, 0, 0, 1, 1)


def test_diagonal_field_is_zero_operator():
    basis = enumerate_basis(12)
    for e in range(-9, 4):
        op = bilinear_mode(DIAGONAL, e)
        for mono in basis:
            assert op.apply(FockState.monomial(mono)).is_zero, (e, mono)


def test_low_exponent_modes_vanish_on_cut_basis():
    # the mode at exponent e shifts weight by e+1; when that lands below
    # zero weight nothing survives
    bil = FermionBilinear(Fraction(1, 2), 0, 0, 0, 1, -1)
    for mono in enumerate_basis(8):
        w2 = weight2(mono)
        for e in range(-w2 // 2 - 6, -w2 // 2 - 1):
            if w2 + 2 * (e + 1) < 0:
                out = bilinear_mode(bil, e).apply(FockState.monomial(mono))
                assert out.is_zero, (e, mono)


def out_of_support_summands(op, basis, space):
    """Count the summands outside ``op.support(mono)`` probed on ``basis``,
    asserting that each acts as zero."""
    probed = 0
    for mono in basis:
        inside = set(op.support(mono))
        margin = range(min(inside, default=0) - 6, max(inside, default=0) + 7)
        for i in margin:
            if i in inside:
                continue
            p, q, w = op.rule(i)
            acc = {}
            apply_pair_to_monomial(space.act, p, q, mono, acc, w)
            assert not acc, (mono, i)
            probed += 1
    return probed


ORDERS = [(a, b) for a in range(3) for b in range(3)]


def test_support_bound_is_sound():
    # summands outside the declared support act as zero on the monomial
    basis = enumerate_basis(10)
    for n in (-2, 0, 1, 3):
        assert out_of_support_summands(h_mode(n), basis, NEUTRAL)
    for a, b in ORDERS:
        for sl in (1, -1):
            for sr in (1, -1):
                for e in range(-6, 3):
                    op = bilinear_mode(FermionBilinear(Fraction(1), 0, a, b, sl, sr), e)
                    assert out_of_support_summands(op, basis, NEUTRAL), (a, b, sl, sr, e)
    cbasis = enumerate_charged_basis(10)
    for a, b in ORDERS:
        for left in (PLUS, MINUS):
            for right in (PLUS, MINUS):
                for e in range(-6, 3):
                    op = charged_bilinear_mode(ChargedBilinear(Fraction(1), 0, left, a, right, b), e)
                    assert out_of_support_summands(op, cbasis, CHARGED), (left, a, right, b, e)
    # the W_{1+infinity} generators at the orders and shifts the closed-form grid reaches
    for k in range(4):
        for n in range(-6, 7):
            assert out_of_support_summands(jk_mode_charged(k, n), cbasis, CHARGED), (k, n)


def off_denominator_coefficients(op, basis, space):
    """Every ``(monomial, image)`` of ``op`` on ``basis`` whose lowest-terms
    denominator does not divide ``op.denominator``, i.e. with a coefficient
    outside ``(1/op.denominator)Z``, and the number of coefficients probed."""
    bad, probed = [], 0
    for mono in basis:
        out = op.apply(FockState.monomial(mono, space=space))
        probed += len(out.terms)
        if op.denominator % out.denominator:
            bad.append((mono, out))
    return bad, probed


def declared_operators():
    """``(label, operator, space)`` for every constructor a bracket grid or a
    CLI ``apply`` token builds, over the modes the suites reach."""
    for n in range(-3, 4):
        yield ("h", n), h_mode(n), NEUTRAL
        yield ("h(bilinear)", n), h_mode_bilinear(n), NEUTRAL
        yield ("L1", n), virasoro.sugawara_l1_mode(n), NEUTRAL
        yield ("L1~", n), virasoro.l1_tilde_family().mode(n), NEUTRAL
        yield ("L1/2 flip", n), virasoro.l_half_tilde_family_flip().mode(n), NEUTRAL
        for lam, b in LAMBDA_PAIRS:
            yield ("L(lam,b)", lam, b, n), virasoro.lambda_family(lam, b).mode(n), NEUTRAL
            yield ("LA(lam,b)", lam, b, n), lA_lambda_b_mode(lam, b, n), CHARGED
        for N in (1, 2, 3):
            family = virasoro.doubling_construct(l_half_family(), Fraction(1, 2), N)
            yield ("doubling", N, n), family.mode(n), NEUTRAL
        for k in range(4):
            yield ("J", k, n), jk_mode_charged(k, n), CHARGED
        for k in range(3):
            yield ("J neutral", k, n), jk_mode_neutral(k, n), NEUTRAL
    for e in range(-5, 2):
        for a, b in ORDERS:
            for sl in (1, -1):
                for sr in (1, -1):
                    bil = FermionBilinear(Fraction(3, 4), 0, a, b, sl, sr)
                    yield ("bilinear", a, b, sl, sr, e), bilinear_mode(bil, e), NEUTRAL
            for left in (PLUS, MINUS):
                for right in (PLUS, MINUS):
                    bil = ChargedBilinear(Fraction(-2, 3), 0, left, a, right, b)
                    yield ("charged bilinear", left, a, right, b, e), charged_bilinear_mode(bil, e), CHARGED
    for t in (-3, -1, 1, 3):
        yield ("phi", t), ModeOperator(t), NEUTRAL


def test_declared_denominator_is_sound():
    # every coefficient of apply on a monomial of twice-weight <= 10 lies in (1/D)Z
    bases = {NEUTRAL: enumerate_basis(10), CHARGED: enumerate_charged_basis(10)}
    probed = 0
    for label, op, space in declared_operators():
        bad, count = off_denominator_coefficients(op, bases[space], space)
        assert not bad, (label, op.denominator, bad[:3])
        probed += count
    assert probed > 5000


class Declared:
    """An operator re-declared with another denominator; its action is unchanged."""

    def __init__(self, op, denominator):
        self.op, self.denominator = op, denominator

    def apply(self, state):
        return self.op.apply(state)


def test_undersized_denominator_raises_in_bracket_check():
    # L^{1/2}_0 phi[-1/2]|0> = (1/2) phi[-1/2]|0>, so the family needs its declared 2
    basis = enumerate_basis(6)
    grid = square_grid(1)
    expected = virasoro_expected(Fraction(1, 2))

    def declared(d):
        return lambda n: Declared(virasoro.l_half_mode(n), d)

    assert bracket_check("half", "commutator", declared(2), expected, grid, basis).passed
    with pytest.raises(ArithmeticError, match=r"over 2, outside \(1/1\)Z"):
        bracket_check("half", "commutator", declared(1), expected, grid, basis)
    # the undersized declaration is caught inside an affine combination too
    affine = lambda n: AffineOperator([(Fraction(1), declared(1)(n))])
    with pytest.raises(ArithmeticError):
        bracket_check("half", "commutator", affine, expected, grid, basis)
    # and by the combination's own apply, monomial by monomial: on 2 phi[-1/2]|0>
    # the part's 1/2 is hidden by the state's coefficient
    with pytest.raises(ArithmeticError, match=r"over 2, outside \(1/1\)Z"):
        AffineOperator([(1, Declared(virasoro.l_half_mode(0), 1))]).apply(FockState.monomial((0,), 2))
    # h_mode acts with integer coefficients (summands i and T - i give one term
    # twice), so its declared 2 is an upper bound and 1 would be sound as well
    h_one = lambda n: Declared(h_mode(n), 1)
    assert bracket_check("h", "commutator", h_one, heisenberg_expected, grid, basis).passed


def test_affine_denominator_is_the_lcm_of_its_parts():
    op = AffineOperator([(Fraction(1, 3), h_mode(1)), (Fraction(5, 4), ModeOperator(1))], Fraction(1, 10))
    assert op.denominator == 60  # lcm(3 * 2, 4 * 1, 10)
    assert AffineOperator([]).denominator == 1
    assert zero_operator().denominator == 1


def test_weight_homogeneity():
    for fam, shift_of in ((h_family(), lambda n: -4 * n), (l_half_family(), lambda n: -2 * n)):
        for n in range(-3, 4):
            op = fam.mode(n)
            for mono in enumerate_basis(10):
                out = op.apply(FockState.monomial(mono))
                for m in out.terms:
                    assert weight2(m) == weight2(mono) + shift_of(n), (fam.name, n, mono)


def test_affine_operator_drops_zero_parts():
    for n in range(-2, 3):
        op = AffineOperator([(Fraction(1), h_family().mode(n)), (Fraction(0), l_half_family().mode(n))])
        for mono in enumerate_basis(8):
            v = FockState.monomial(mono)
            assert op.apply(v) == h_family().mode(n).apply(v)


def test_parity_flip_modes():
    flipped = parity_flip(l_half_family())
    for n in range(-3, 4):
        sign = -1 if n % 2 else 1
        for mono in enumerate_basis(8):
            v = FockState.monomial(mono)
            assert flipped.mode(n).apply(v) == l_half_family().mode(n).apply(v).scale(sign)


def test_affine_operator_scalar_part():
    op = AffineOperator([], Fraction(5, 3))
    v = FockState.monomial((0, 1))
    assert op.apply(v) == v.scale(Fraction(5, 3))
    assert zero_operator().apply(v).is_zero


def test_bilinear_rejects_bad_signs():
    with pytest.raises(ValueError):
        FermionBilinear(Fraction(1), 0, 0, 0, 2, 1)


def fresh_column(op, mono, space):
    """The column of a keyed operator on ``mono`` as a dict, computed without
    the column store: a quadratic operator's own ``accumulate``, and for
    ``L^1_n`` the sum ``(1/2) sum_k :h_{n-k} h_k:`` over a ``k`` range wider
    than any window, from ``accumulate``d ``h`` columns (over 2 each, so
    the numerators over 4 of the sum are those over 8 of ``L^1_n``)."""
    acc = {}
    if isinstance(op, SugawaraOperator):
        for k in range(-12, 13):
            a, b = sorted((op.n - k, k))
            mid = {}
            h_mode(b).accumulate(space.act, mono, 1, mid)
            for m, c in mid.items():
                h_mode(a).accumulate(space.act, m, c, acc)
    else:
        op.accumulate(space.act, mono, 1, acc)
    return acc


def test_stored_columns_equal_fresh_ones_on_a_cold_and_a_warm_store():
    bases = {NEUTRAL: enumerate_basis(8), CHARGED: enumerate_charged_basis(8)}
    keyed = [(label, op, space) for label, op, space in declared_operators() if getattr(op, "key", None) is not None]
    assert {type(op) for _, op, _ in keyed} == {QuadraticModeOperator, SugawaraOperator}
    COLUMNS.clear()
    virasoro._sugawara_on_monomial.cache_clear()
    probed = 0
    for warm in (False, True):
        for label, op, space in keyed:
            for mono in bases[space]:
                col = modeops.column(op, mono, space)
                assert dict(col) == fresh_column(op, mono, space), (label, mono, warm)
                assert len(dict(col)) == len(col) and all(c for _, c in col), (label, mono)
                assert COLUMNS.table(op, space)[mono] is col, (label, mono)
                probed += 1
    assert probed > 5000


def test_compared_constructions_never_share_a_key():
    for n in range(-3, 4):
        assert h_mode(n).key == ("h", n) != h_mode_bilinear(n).key
        assert virasoro.l_half_tilde_mode(n).key != virasoro.l_half_mode(n).key
        assert virasoro.sugawara_l1_mode(n).key == ("L1", n)
        # the flip is an affine combination: it computes its own action
        assert getattr(virasoro.l_half_tilde_family_flip().mode(n), "key", None) is None


def test_store_is_empty_on_import():
    code = (
        "import fockcheck.cli, fockcheck.suites\n"
        "from fockcheck.modeops import COLUMNS\n"
        "print(COLUMNS.entries, len(COLUMNS.tables), len(COLUMNS.interned))"
    )
    src = str(Path(fockcheck.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == ["0", "0", "0"]


def test_store_is_cleared_whole_at_its_bound(monkeypatch):
    basis = enumerate_basis(8)
    grids = [
        (l_half_family(), Fraction(1, 2)),
        (sugawara_family(), Fraction(1)),  # an L^1 column fills h columns first
    ]
    want = [virasoro_bracket("b", family, c, 2, basis).cases_run for family, c in grids]
    entries = []
    fill = ColumnStore.fill

    def counted_fill(self, op, mono, space):
        col = fill(self, op, mono, space)
        entries.append(self.entries)
        return col

    monkeypatch.setattr(modeops, "STORE_SIZE", 64)
    monkeypatch.setattr(ColumnStore, "fill", counted_fill)
    COLUMNS.clear()
    virasoro._sugawara_on_monomial.cache_clear()
    reports = [virasoro_bracket("b", family, c, 2, basis) for family, c in grids]
    assert all(rep.passed for rep in reports)
    assert [rep.cases_run for rep in reports] == want
    assert len(entries) > 3 * 64  # the store was cleared and refilled
    assert max(entries) <= 64 and COLUMNS.entries <= 64
