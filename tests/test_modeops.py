"""Normal ordering of mode pairs and the lazy quadratic operators."""

from fractions import Fraction

import pytest

from fockcheck.charged import CHARGED, MINUS, PLUS, ChargedBilinear, charged_bilinear_mode, enumerate_charged_basis
from fockcheck.fock import NEUTRAL, FockState, apply_mode, enumerate_basis, weight2
from fockcheck.modeops import (
    AffineOperator,
    FermionBilinear,
    QuadraticModeOperator,
    apply_pair_to_monomial,
    bilinear_mode,
    normal_order_pair,
    parity_flip,
    zero_operator,
)
from fockcheck.heisenberg import h_family, h_mode
from fockcheck.virasoro import l_half_family
from fockcheck.winf import jk_mode_charged


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
                apply_pair_to_monomial(NEUTRAL.act, p, q, mono, acc, Fraction(1))
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
        v = FockState.monomial(mono, space=space)
        inside = set(op.support(mono))
        margin = range(min(inside, default=0) - 6, max(inside, default=0) + 7)
        for i in margin:
            if i in inside:
                continue
            assert QuadraticModeOperator(op.rule, lambda mono: (i,)).apply(v).is_zero, (mono, i)
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
