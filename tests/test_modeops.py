"""Normal ordering of mode pairs and the lazy quadratic operators."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import fockcheck
from fockcheck import fock, modeops, suites, virasoro
from fockcheck.charged import (
    CHARGED,
    MINUS,
    PLUS,
    ChargedBilinear,
    charged_bilinear_mode,
    enumerate_charged_basis,
    hA_mode,
    lA_lambda_b_mode,
)
from fockcheck.fock import NEUTRAL, FockState, add_term, apply_mode, check_mode, enumerate_basis, mask_of, weight2
from fockcheck.modeops import (
    COLUMNS,
    AffineOperator,
    ColumnStore,
    ColumnTable,
    FermionBilinear,
    ModeOperator,
    QuadraticModeOperator,
    bilinear_mode,
    pair_sum,
    parity_flip,
    zero_operator,
)
from fockcheck.heisenberg import HEISENBERG_BILINEAR, h_mode, h_mode_bilinear
from fockcheck.suites import LAMBDA_PAIRS, heisenberg_expected, square_grid, virasoro_bracket, virasoro_expected
from fockcheck.verify import bracket_check, field_identity_check
from fockcheck.virasoro import SugawaraOperator, l_half_mode, sugawara_l1_mode
from fockcheck.winf import MatrixLift, glinf_matrix, jk_mode_charged, jk_mode_neutral, matrix_commutator


def normal_order_pair(p: int, q: int) -> tuple[tuple[int, int], int, Fraction]:
    """Data of ``:phi_p phi_q:`` with annihilators moved right, as an oracle.

    Returns ``((p', q'), sign, contraction)`` where the normal-ordered pair
    equals ``sign * phi_p' phi_q'`` as an operator and
    ``phi_p phi_q - contraction`` as a reordering identity; the contraction
    is the vacuum expectation ``<0| phi_p phi_q |0> = delta(p, -q) [p > 0]``.
    """
    check_mode(p)
    check_mode(q)
    if p > 0 and q < 0:
        return (q, p), -1, Fraction(1) if p == -q else Fraction(0)
    return (p, q), 1, Fraction(0)


def apply_pair_to_monomial(act, p: int, q: int, mono, acc: dict, coeff: int) -> None:
    """Accumulate ``coeff * :X_p X_q: mono`` into ``acc``, as an oracle for
    the column loop.

    ``act`` is the single-mode action of the space the mode codes ``p`` and
    ``q`` belong to; a negative code creates.
    """
    if q < 0 <= p:
        first, second, sign = p, q, -1
    else:
        first, second, sign = q, p, 1
    hit = act(first, mono)
    if hit is None:
        return
    s1, mid = hit
    hit = act(second, mid)
    if hit is None:
        return
    s2, out = hit
    add_term(acc, out, coeff * (sign * s1 * s2))


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
    # apply_pair_to_monomial, the oracle for the column loop, orders every pair;
    # it must act as sign * phi_p' phi_q' with (p', q') and sign from normal_order_pair
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


DIAGONAL = FermionBilinear(Fraction(1), 0, 0, 1, 1)


def test_diagonal_field_is_zero_operator():
    basis = enumerate_basis(12)
    for e in range(-9, 4):
        op = bilinear_mode(DIAGONAL, e)
        for mono in basis:
            assert op.apply(FockState.monomial(mono)).is_zero, (e, mono)


def test_low_exponent_modes_vanish_on_cut_basis():
    # the mode at exponent e shifts weight by e+1; when that lands below
    # zero weight nothing survives
    bil = FermionBilinear(Fraction(1, 2), 0, 0, 1, -1)
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
                    op = bilinear_mode(FermionBilinear(Fraction(1), a, b, sl, sr), e)
                    assert out_of_support_summands(op, basis, NEUTRAL), (a, b, sl, sr, e)
    cbasis = enumerate_charged_basis(10)
    for a, b in ORDERS:
        for left in (PLUS, MINUS):
            for right in (PLUS, MINUS):
                for e in range(-6, 3):
                    op = charged_bilinear_mode(ChargedBilinear(Fraction(1), left, a, right, b), e)
                    assert out_of_support_summands(op, cbasis, CHARGED), (left, a, right, b, e)
    # the W_{1+infinity} generators at the orders and shifts the closed-form grid reaches
    for k in range(4):
        for n in range(-6, 7):
            assert out_of_support_summands(jk_mode_charged(k, n), cbasis, CHARGED), (k, n)


def unfolded_pair_sum(weight, T: int) -> list[tuple[int, int, int]]:
    """``weight(i) :phi_{-i-1/2} phi_{-(T-i)-1/2}:`` at every free index ``|i| <= 24``."""
    return [(-(2 * i + 1), -(2 * (T - i) + 1), weight(i)) for i in range(-24, 25)]


def unfolded_summands(bil: FermionBilinear, exponent: int) -> list[tuple[int, int, int]]:
    """The summands ``(p, q, w)`` of the ``z**exponent`` coefficient of
    ``bil`` at every free index ``|i| <= 24``, as written, with numerators
    over the prefactor's denominator read off the expansion ``(d^a phi)(s z)
    = sum_m phi_{-m-1/2} m(m-1)...(m-a+1) s^(m-a) z^(m-a)``."""
    pref, a, b = Fraction(bil.prefactor), bil.dleft, bil.dright
    T = exponent + a + b

    def weight(i):
        j = T - i
        c = pref * math.prod(i - k for k in range(a)) * math.prod(j - k for k in range(b))
        c *= bil.sleft ** ((i - a) % 2) * bil.sright ** ((j - b) % 2)
        return int(c * pref.denominator)

    return unfolded_pair_sum(weight, T)


def assert_pair_sum_is_unfolded_sum(op, T, summands, label):
    """``op`` acts on every monomial of twice-weight <= 10 as the unfolded
    ``summands`` do, and its support yields each ``i`` once, only ``2i < T``."""
    for mono in enumerate_basis(10):
        hits = list(op.support(mono))
        assert len(set(hits)) == len(hits) and all(2 * i < T for i in hits), (label, mono)
        acc = {}
        for p, q, w in summands:
            apply_pair_to_monomial(NEUTRAL.act, p, q, mono, acc, w)
        assert dict(op.column(mono, {}.setdefault)) == acc, (label, mono)


def test_each_neutral_pair_sum_equals_its_unfolded_sum():
    # one summand per unordered mode pair, folded as w(i) - w(T-i), for arbitrary int weights
    rng = random.Random(0)
    for T in (-7, -4, -1, 0, 1, 2, 5, 8):
        for _ in range(3):
            weight = {i: rng.randint(-9, 9) for i in range(-40, 41)}.__getitem__
            op = pair_sum(weight, T, 3, ("arbitrary", T))
            assert_pair_sum_is_unfolded_sum(op, T, unfolded_pair_sum(weight, T), (T, op.key))
    h_weight = lambda i: -1 if i % 2 == 0 else 1
    for n in range(-3, 4):
        T = -2 * n - 1
        assert_pair_sum_is_unfolded_sum(h_mode(n), T, unfolded_pair_sum(h_weight, T), ("h", n))
    # the bilinears' weights, against the field expansion
    bils = [FermionBilinear(Fraction(1), a, b, sl, sr) for a, b in ORDERS for sl in (1, -1) for sr in (1, -1)]
    sums = [(bilinear_mode(bil, e), bil, e) for bil in bils for e in range(-6, 3)]
    sums += [(h_mode_bilinear(n), HEISENBERG_BILINEAR, -2 * n - 1) for n in range(-3, 4)]
    for op, bil, e in sums:
        T = e + bil.dleft + bil.dright
        assert_pair_sum_is_unfolded_sum(op, T, unfolded_summands(bil, e), (bil, e))


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
        yield ("L1~", n), virasoro.l1_tilde_mode(n), NEUTRAL
        yield ("L1/2 flip", n), virasoro.l_half_tilde_family_flip()(n), NEUTRAL
        for lam, b in LAMBDA_PAIRS:
            yield ("L(lam,b)", lam, b, n), virasoro.lambda_family(lam, b)(n), NEUTRAL
            yield ("LA(lam,b)", lam, b, n), lA_lambda_b_mode(lam, b, n), CHARGED
        for N in (1, 2, 3):
            family = virasoro.doubling_construct(l_half_mode, Fraction(1, 2), N)
            yield ("doubling", N, n), family(n), NEUTRAL
        for k in range(4):
            yield ("J", k, n), jk_mode_charged(k, n), CHARGED
        for k in range(3):
            yield ("J neutral", k, n), jk_mode_neutral(k, n), NEUTRAL
    for e in range(-5, 2):
        for a, b in ORDERS:
            for sl in (1, -1):
                for sr in (1, -1):
                    bil = FermionBilinear(Fraction(3, 4), a, b, sl, sr)
                    yield ("bilinear", a, b, sl, sr, e), bilinear_mode(bil, e), NEUTRAL
            for left in (PLUS, MINUS):
                for right in (PLUS, MINUS):
                    bil = ChargedBilinear(Fraction(-2, 3), left, a, right, b)
                    yield ("charged bilinear", left, a, right, b, e), charged_bilinear_mode(bil, e), CHARGED
    for k in range(3):
        for n in range(-2, 3):
            yield ("lift", k, n), MatrixLift(glinf_matrix(k, n, 6)), CHARGED
    commutator = matrix_commutator(glinf_matrix(1, 1, 9), glinf_matrix(2, -2, 9), 5)
    yield ("lift commutator",), MatrixLift(commutator), CHARGED
    for t in (-3, -1, 1, 3):
        yield ("phi", t), ModeOperator(t), NEUTRAL
    for code in range(-4, 4):
        yield ("psi", code), ModeOperator(code, CHARGED), CHARGED


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
    # a field identity applies the same guard to each of its sides
    with pytest.raises(ArithmeticError, match=r"over 2, outside \(1/1\)Z"):
        field_identity_check("x", declared(1), virasoro.l_half_mode, range(-1, 2), basis)


def test_affine_denominator_is_the_lcm_of_its_parts():
    op = AffineOperator([(Fraction(1, 3), h_mode(1)), (Fraction(5, 4), ModeOperator(1))], Fraction(1, 10))
    assert op.denominator == 60  # lcm(3 * 2, 4 * 1, 10)
    assert AffineOperator([]).denominator == 1
    assert zero_operator().denominator == 1


def test_weight_homogeneity():
    for name, mode, shift_of in (("h", h_mode, lambda n: -4 * n), ("L1/2", l_half_mode, lambda n: -2 * n)):
        for n in range(-3, 4):
            op = mode(n)
            for mono in enumerate_basis(10):
                out = op.apply(FockState.monomial(mono))
                for m in out.terms:
                    assert weight2(m) == weight2(mono) + shift_of(n), (name, n, mono)


def test_affine_operator_drops_zero_parts():
    for n in range(-2, 3):
        op = AffineOperator([(Fraction(1), h_mode(n)), (Fraction(0), l_half_mode(n))])
        for mono in enumerate_basis(8):
            v = FockState.monomial(mono)
            assert op.apply(v) == h_mode(n).apply(v)


def test_parity_flip_modes():
    flipped = parity_flip(l_half_mode)
    for n in range(-3, 4):
        sign = -1 if n % 2 else 1
        for mono in enumerate_basis(8):
            v = FockState.monomial(mono)
            assert flipped(n).apply(v) == l_half_mode(n).apply(v).scale(sign)


def test_affine_operator_scalar_part():
    op = AffineOperator([], Fraction(5, 3))
    v = FockState.monomial((0, 1))
    assert op.apply(v) == v.scale(Fraction(5, 3))
    assert zero_operator().apply(v).is_zero


def test_bilinear_rejects_bad_signs():
    with pytest.raises(ValueError):
        FermionBilinear(Fraction(1), 0, 0, 2, 1)


def fresh_column(op, mono, space):
    """The column of a keyed operator on ``mono`` as a dict, computed without
    the column store or the column kernel: for a single mode its one
    ``space.act``, for a quadratic operator the sum over ``support(mono)`` of
    :func:`apply_pair_to_monomial` on ``rule(i)``, zeros dropped, and for
    ``L^1_n`` the sum ``(1/2) sum_k :h_{n-k} h_k:`` over a ``k`` range wider
    than any window, from such ``h`` columns (over 2 each, so the numerators
    over 4 of the sum are those over 8 of ``L^1_n``)."""
    acc = {}
    if isinstance(op, ModeOperator):
        hit = space.act(op.t, mono)
        if hit is not None:
            acc[hit[1]] = hit[0]
    elif isinstance(op, SugawaraOperator):
        for k in range(-12, 13):
            a, b = sorted((op.n - k, k))
            for m, c in fresh_column(h_mode(b), mono, space).items():
                for out, d in fresh_column(h_mode(a), m, space).items():
                    add_term(acc, out, c * d)
    else:
        for i in op.support(mono):
            p, q, w = op.rule(i)
            apply_pair_to_monomial(space.act, p, q, mono, acc, w)
    return acc


def test_stored_columns_equal_fresh_ones_on_a_cold_and_a_warm_store():
    bases = {NEUTRAL: enumerate_basis(8), CHARGED: enumerate_charged_basis(8)}
    keyed = [(label, op, space) for label, op, space in declared_operators() if getattr(op, "key", None) is not None]
    assert {type(op) for _, op, _ in keyed} == {QuadraticModeOperator, SugawaraOperator, MatrixLift, ModeOperator}
    COLUMNS.clear()
    virasoro._sugawara_on_monomial.cache_clear()
    probed = 0
    for warm in (False, True):
        for label, op, space in keyed:
            for mono in bases[space]:
                col = COLUMNS.table(op, space)[mono]
                assert dict(col) == fresh_column(op, mono, space), (label, mono, warm)
                assert col == op.column(mono, COLUMNS.interned.setdefault), (label, mono, warm)
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
        assert getattr(virasoro.l_half_tilde_family_flip()(n), "key", None) is None
    # a lift's key is its matrix: different matrices never share one, equal ones do
    lifts = [MatrixLift(glinf_matrix(k, n, 6)) for k in range(3) for n in range(-2, 3)]
    assert len({lift.key for lift in lifts}) == len(lifts)
    assert MatrixLift(glinf_matrix(1, 2, 6)).key == MatrixLift(glinf_matrix(1, 2, 6)).key


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
        ("L1/2", l_half_mode, Fraction(1, 2)),
        ("L1", sugawara_l1_mode, Fraction(1)),  # an L^1 column fills h columns first
    ]
    want = [virasoro_bracket("b", *grid, 2, basis).cases_run for grid in grids]
    entries = []
    missing = ColumnTable.__missing__

    def counted_missing(self, mono):
        col = missing(self, mono)
        if self.store is not None:
            entries.append(self.store.entries)
        return col

    monkeypatch.setattr(modeops, "STORE_SIZE", 64)
    monkeypatch.setattr(ColumnTable, "__missing__", counted_missing)
    COLUMNS.clear()
    virasoro._sugawara_on_monomial.cache_clear()
    h_table = COLUMNS.table(h_mode(1), NEUTRAL)  # L^1 columns read it again after every clear
    reports = [virasoro_bracket("b", *grid, 2, basis) for grid in grids]
    assert all(rep.passed for rep in reports)
    assert [rep.cases_run for rep in reports] == want
    assert len(entries) > 3 * 64  # the store was cleared and refilled
    assert max(entries) <= 64 and COLUMNS.entries <= 64
    # clearing empties each table in place: a table handed out stays the store's
    assert COLUMNS.tables[("h", 1), NEUTRAL] is h_table


def test_a_column_asked_for_on_another_space_registers_nothing():
    charged_state = FockState.vacuum(CHARGED)
    neutral_state = FockState.monomial((0, 1))
    for op, state in (
        (h_mode(1), charged_state),
        (charged_bilinear_mode(ChargedBilinear(Fraction(1), PLUS, 0, MINUS, 0), -2), neutral_state),
        (sugawara_l1_mode(0), charged_state),
        (MatrixLift(glinf_matrix(0, 1, 6)), neutral_state),
    ):
        registered = dict(COLUMNS.tables)
        with pytest.raises(ValueError, match=f"acts on the {op.space.name} space, not on a {state.space.name} state") as err:
            op.apply(state)
        assert len(str(err.value)) <= 180
        assert COLUMNS.tables.keys() == registered.keys()
        assert all(COLUMNS.tables[key] is table for key, table in registered.items())


def test_a_mode_asked_for_on_the_other_space_raises_naming_its_key():
    # ("mode", 1) names a mode of either space: with the charged one's table
    # registered, the neutral mode on a charged state must still raise
    charged_state = FockState.vacuum(CHARGED)
    ModeOperator(1, CHARGED).apply(charged_state)
    registered = dict(COLUMNS.tables)
    with pytest.raises(ValueError) as err:
        ModeOperator(1).apply(charged_state)
    assert str(err.value) == "operator ('mode', 1) acts on the neutral space, not on a charged state"
    with pytest.raises(ValueError, match=r"operator \('mode', -3\) acts on the charged space, not on a neutral state"):
        ModeOperator(-3, CHARGED).apply(FockState.vacuum())
    assert COLUMNS.tables.keys() == registered.keys()
    # the code is checked once, by the space it is built for
    with pytest.raises(ValueError, match="fermion mode must be a half-integer"):
        ModeOperator(-4)
    assert ModeOperator(-4, CHARGED).key == ("mode", -4)


def test_the_wrong_space_message_prints_a_bilinear_whole_and_a_lift_short():
    # the prefactor and the species tell two charged bilinears apart
    bil = ChargedBilinear(Fraction(-1, 3), MINUS, 1, PLUS, 0)
    with pytest.raises(ValueError) as err:
        charged_bilinear_mode(bil, -2).apply(FockState.vacuum())
    assert str(err.value) == f"operator ({bil!r}, -2) acts on the charged space, not on a neutral state"
    assert "Fraction(-1, 3)" in str(err.value) and "left_species=-1" in str(err.value)
    # a lift's key holds every matrix entry: the message shows two
    with pytest.raises(ValueError) as err:
        MatrixLift(glinf_matrix(0, 1, 6)).apply(FockState.vacuum())
    assert str(err.value) == (
        "operator ('lift', (((-7, -6), 1), ((-6, -5), 1), ...)) acts on the charged space, not on a neutral state"
    )


def test_an_operator_without_a_key_gets_a_new_private_table():
    op = AffineOperator([(1, h_mode(1))])
    # its part is keyed: that table is the store's own, the same one every time
    h_table = COLUMNS.table(h_mode(1), NEUTRAL)
    assert h_table is COLUMNS.tables[("h", 1), NEUTRAL] is COLUMNS.table(h_mode(1), NEUTRAL)
    registered = set(COLUMNS.tables)
    first, second = COLUMNS.table(op, NEUTRAL), COLUMNS.table(op, NEUTRAL)
    assert first is not second and not first and first.store is None
    mono = mask_of((0, 2))
    assert dict(first[mono]) == dict(h_mode(1).column(mono, {}.setdefault))
    assert set(COLUMNS.tables) == registered and all(t is not first for t in COLUMNS.tables.values())


def test_reading_a_monomial_twice_computes_its_column_once(monkeypatch):
    fills, applies = [], []
    missing = ColumnTable.__missing__

    def counted_missing(self, mono):
        if self.store is not None:
            fills.append((self.op.key, mono))
        return missing(self, mono)

    class Counted:
        denominator = 2

        def apply(self, state):
            applies.append(state)
            return h_mode(2).apply(state)

    monkeypatch.setattr(ColumnTable, "__missing__", counted_missing)
    COLUMNS.clear()
    mono = mask_of((0, 1, 3))
    for op in (h_mode(2), Counted()):
        table = COLUMNS.table(op, NEUTRAL)
        assert table[mono] is table[mono]
    assert fills == [(("h", 2), mono)] and len(applies) == 1


def test_a_held_store_table_fills_its_misses_without_asking_the_store(monkeypatch):
    COLUMNS.clear()
    table = COLUMNS.table(h_mode(2), NEUTRAL)
    calls = []
    lookup = ColumnStore.table

    def counted_table(self, op, space):
        calls.append((op, space))
        return lookup(self, op, space)

    monkeypatch.setattr(ColumnStore, "table", counted_table)
    monos = enumerate_basis(12)[:10]
    assert len(monos) == 10 and not table
    for mono in monos:
        assert dict(table[mono]) == dict(h_mode(2).column(mono, {}.setdefault))
    assert len(table) == COLUMNS.entries == 10
    assert calls == []


def test_store_tables_hold_only_what_fill_inserted():
    # L^1 columns fill h columns first; the lambda family reads L^{1/2} and h
    # columns through an affine combination
    COLUMNS.clear()
    basis = enumerate_basis(8)
    assert virasoro_bracket("one", "L1", sugawara_l1_mode, Fraction(1), 2, basis).passed
    lam, b = LAMBDA_PAIRS[0]
    lam_mode = virasoro.lambda_family(lam, b)
    assert virasoro_bracket("lam", "L(lam,b)", lam_mode, virasoro.central_charge(lam), 2, basis).passed
    assert sum(len(table) for table in COLUMNS.tables.values()) == COLUMNS.entries > 0


def test_a_quadratic_operator_computes_each_coefficient_once():
    calls = Counter()
    h = h_mode(1)

    def rule(i):
        calls[i] += 1
        return h.rule(i)

    op = QuadraticModeOperator(rule, h.support, h.denominator, ("counted", 1), NEUTRAL)
    basis = enumerate_basis(10)
    for _ in range(2):
        for mono in basis:
            assert dict(op.column(mono, {}.setdefault)) == dict(h.column(mono, {}.setdefault))
    # the memo holds exactly the indices the support yielded, each rule(i) once
    yielded = set().union(*(op.support(mono) for mono in basis))
    assert set(calls.values()) == {1} and set(calls) == set(op.summands) == yielded


def test_an_affine_operator_asks_for_each_part_table_once_per_space(monkeypatch):
    calls = []
    lookup = ColumnStore.table

    def counted_table(self, op, space):
        calls.append((op.key, space))
        return lookup(self, op, space)

    monkeypatch.setattr(ColumnStore, "table", counted_table)
    neutral = AffineOperator([(1, h_mode(1)), (Fraction(1, 3), h_mode(-1))], 2)
    charged = AffineOperator([(1, hA_mode(1))])
    for mono in enumerate_basis(8):
        neutral.apply(FockState.monomial(mono))
    for mono in enumerate_charged_basis(8):
        charged.apply(FockState.monomial(mono, space=CHARGED))
    assert calls == [(("h", 1), NEUTRAL), (("h", -1), NEUTRAL), (hA_mode(1).key, CHARGED)]


def test_an_l1_operator_asks_for_each_h_table_once(monkeypatch):
    COLUMNS.clear()
    calls = Counter()
    lookup = ColumnStore.table

    def counted_table(self, op, space):
        calls[op.key] += 1
        return lookup(self, op, space)

    monkeypatch.setattr(ColumnStore, "table", counted_table)
    op = sugawara_l1_mode(1)
    basis = enumerate_basis(12)
    columns = [op.column(mono, {}.setdefault) for mono in basis]
    assert calls and set(calls.values()) == {1} and set(calls) == {("h", k) for k in op.h_tables}
    # the same columns as through a new set of tables, which asks once per term
    assert columns == [virasoro._sugawara_on_monomial(1, mono, virasoro.HTables()) for mono in basis]


def falling_loop(m, order):
    """The falling factorial as a product of ``order`` factors, as an oracle."""
    out = 1
    for step in range(order):
        out *= m - step
    return out


def test_falling_is_the_product_of_its_factors():
    for m in range(-30, 31):
        for order in range(12):
            assert modeops.falling(m, order) == falling_loop(m, order), (m, order)


def test_the_clifford_grids_build_no_state_when_they_pass(monkeypatch):
    # a mode's column is one space.act on a cold store: both Clifford grids,
    # the neutral one and the transported one of suite_iso, pass without a state
    built, inside = [], []
    init, grid = fock.FockState.__init__, suites.clifford_bracket

    def counted_init(self, *args, **kwargs):
        built.extend(inside)  # the name of the grid that builds a state
        init(self, *args, **kwargs)

    def counted_grid(name, *args, **kwargs):
        inside.append(name)
        try:
            return grid(name, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(fock.FockState, "__init__", counted_init)
    monkeypatch.setattr(suites, "clifford_bracket", counted_grid)
    COLUMNS.clear()
    [clifford] = suites.suite_clifford()
    [transport] = [rep for rep in suites.suite_iso() if rep.check == "dictionary_clifford_transport"]
    assert clifford.passed and transport.passed
    assert clifford.cases_run == transport.cases_run > 3000
    assert built == []
    filled = [len(table) for (key, _), table in COLUMNS.tables.items() if key[0] == "mode" and table]
    assert len(filled) == 2 * 16 and sum(filled) > 3000


def test_a_whole_run_fits_in_the_store(monkeypatch):
    # all fourteen suites at their defaults in one process on a cleared store:
    # a clear at STORE_SIZE would recompute columns mid-run
    clears = []
    clear = COLUMNS.clear
    COLUMNS.clear()
    virasoro._sugawara_on_monomial.cache_clear()
    monkeypatch.setattr(COLUMNS, "clear", lambda: clears.append(COLUMNS.entries) or clear())
    for run in suites.SUITES.values():
        assert all(rep.passed for rep in run())
    assert clears == []
    assert sum(len(table) for table in COLUMNS.tables.values()) == COLUMNS.entries < modeops.STORE_SIZE
