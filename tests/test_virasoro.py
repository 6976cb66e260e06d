"""Virasoro families: eigenvalues, brackets, doubling, field identities."""

from fractions import Fraction

import pytest

from fockcheck.charged import CHARGED, to_charged
from fockcheck.fock import NEUTRAL, FockState, enumerate_basis, weight
from fockcheck.grading import vacuum_like
from fockcheck.heisenberg import h_mode
from fockcheck.modeops import AffineOperator
from fockcheck.virasoro import (
    L_HALF_BILINEAR,
    central_charge,
    doubling_construct,
    h_derivative_mode,
    h_square_mode,
    l1_tilde_field_mode,
    l1_tilde_mode,
    l_half_mode,
    l_half_tilde_family_flip,
    l_half_tilde_mode,
    lambda_b_constant,
    lambda_family,
    sugawara_l1_mode,
    weight2_mode,
)

BASIS_10 = enumerate_basis(20)
BASIS_8 = enumerate_basis(16)
BASIS_6 = enumerate_basis(12)


def commutator(A, B, v):
    return A.apply(B.apply(v)) - B.apply(A.apply(v))


def assert_virasoro_bracket(family_mode, c, mmax, basis):
    c = Fraction(c)
    for m in range(-mmax, mmax + 1):
        for n in range(-mmax, mmax + 1):
            op_m, op_n = family_mode(m), family_mode(n)
            for mono in basis:
                v = FockState.monomial(mono)
                lhs = commutator(op_m, op_n, v)
                rhs = family_mode(m + n).apply(v).scale(m - n)
                if m == -n:
                    rhs = rhs + v.scale(Fraction(m**3 - m, 12) * c)
                assert lhs == rhs, (m, n, mono)


def test_l_half_annihilates_vacuum():
    assert l_half_mode(0).apply(FockState.vacuum()).is_zero


def test_l_half_zero_is_weight():
    for mono in BASIS_10:
        v = FockState.monomial(mono)
        assert l_half_mode(0).apply(v) == v.scale(weight(mono))


@pytest.mark.parametrize("n", range(1, 6))
def test_l_half_zero_on_vacuum_like(n):
    v = FockState.monomial(vacuum_like(n))
    assert l_half_mode(0).apply(v) == v.scale(Fraction(n * n) + Fraction(n, 2))
    w = FockState.monomial(vacuum_like(-n))
    assert l_half_mode(0).apply(w) == w.scale(Fraction(n * n) - Fraction(n, 2))


def test_l_half_tilde_relation():
    for n in range(-6, 7):
        sign = -1 if n % 2 else 1
        for mono in BASIS_6:
            v = FockState.monomial(mono)
            assert l_half_tilde_mode(n).apply(v) == l_half_mode(n).apply(v).scale(sign)
    # even modes identical
    for mono in BASIS_6:
        v = FockState.monomial(mono)
        assert l_half_tilde_mode(2).apply(v) == l_half_mode(2).apply(v)


def test_flip_construction_matches_direct_tilde():
    flipped = l_half_tilde_family_flip()
    for n in range(-4, 5):
        for mono in BASIS_6:
            v = FockState.monomial(mono)
            assert flipped(n).apply(v) == l_half_tilde_mode(n).apply(v)


def test_half_bracket_small_grid():
    assert_virasoro_bracket(l_half_mode, Fraction(1, 2), 2, BASIS_8)
    assert_virasoro_bracket(l_half_tilde_mode, Fraction(1, 2), 2, BASIS_8)


def test_sugawara_vacuum_like_eigenvalues():
    for n in range(-4, 5):
        v = FockState.monomial(vacuum_like(n))
        assert sugawara_l1_mode(0).apply(v) == v.scale(Fraction(n * n, 2))


def test_sugawara_bracket_values():
    for mono in BASIS_8:
        v = FockState.monomial(mono)
        l1, lm1 = sugawara_l1_mode(1), sugawara_l1_mode(-1)
        assert commutator(l1, lm1, v) == sugawara_l1_mode(0).apply(v).scale(2)
        l2, lm2 = sugawara_l1_mode(2), sugawara_l1_mode(-2)
        want = sugawara_l1_mode(0).apply(v).scale(4) + v.scale(Fraction(1, 2))
        assert commutator(l2, lm2, v) == want


def test_l1_tilde_constant():
    out = l1_tilde_mode(0).apply(FockState.vacuum())
    assert out == FockState.vacuum().scale(Fraction(1, 32))


def test_l1_tilde_field_form():
    for n in range(-4, 5):
        for mono in BASIS_8:
            v = FockState.monomial(mono)
            assert l1_tilde_mode(n).apply(v) == l1_tilde_field_mode(n).apply(v), (n, mono)


def test_central_charges():
    assert central_charge(Fraction(1, 2)) == 1
    assert central_charge(0) == -2
    assert central_charge(1) == -2
    assert central_charge(Fraction(1, 3)) == Fraction(2, 3)


def test_lambda_constant_specialisations():
    assert lambda_b_constant(Fraction(1, 2), Fraction(0)) == 0
    assert lambda_b_constant(Fraction(1, 2), Fraction(-1, 4)) == Fraction(1, 32)


def test_lambda_specialises_to_sugawara():
    fam = lambda_family(Fraction(1, 2), 0)
    for n in range(-3, 4):
        for mono in BASIS_8:
            v = FockState.monomial(mono)
            assert fam(n).apply(v) == sugawara_l1_mode(n).apply(v)


def test_lambda_specialises_to_tilde():
    fam = lambda_family(Fraction(1, 2), Fraction(-1, 4))
    for n in range(-3, 4):
        for mono in BASIS_8:
            v = FockState.monomial(mono)
            assert fam(n).apply(v) == l1_tilde_mode(n).apply(v)


def _differences(values, order):
    """Every forward difference of total ``order`` of ``{(i, j): value}`` on an index grid."""
    out = []
    for along_i in range(order + 1):
        grid = dict(values)
        for di, dj in [(1, 0)] * along_i + [(0, 1)] * (order - along_i):
            grid = {(i, j): grid[i + di, j + dj] - v for (i, j), v in grid.items() if (i + di, j + dj) in grid}
        out += grid.values()
    return out


def test_lambda_family_is_a_bilinear_with_affine_weights():
    """Each mode reads ``L^{1/2}_{2n}`` at weight 1/2 and ``h_n`` at a weight
    affine in ``(lam, b)``, plus a constant quadratic in them.  The lattice is
    4 x 4 because a third difference along one axis needs four points."""
    grid = [Fraction(k, 3) for k in range(-1, 3)]
    for n in range(-3, 4):
        l_half_key, h_key = (L_HALF_BILINEAR, -2 * n - 2), ("h", n)
        h_weight, scalar = {}, {}
        for i, lam in enumerate(grid):
            for j, b in enumerate(grid):
                mode = lambda_family(lam, b)(n)
                weights = {op.key: c for c, op in mode.parts}
                assert set(weights) <= {l_half_key, h_key}
                assert weights[l_half_key] == Fraction(1, 2)
                h_weight[i, j], scalar[i, j] = weights.get(h_key, 0), mode.scalar
        assert not any(_differences(h_weight, 2))
        assert not any(_differences(scalar, 3))


def test_lambda_bracket_generic_pair():
    fam = lambda_family(Fraction(1, 3), Fraction(2, 5))
    assert_virasoro_bracket(fam, central_charge(Fraction(1, 3)), 2, BASIS_6)


def test_lambda_zero_zero_bracket():
    fam = lambda_family(0, 0)
    assert_virasoro_bracket(fam, Fraction(-2), 2, BASIS_6)


def test_doubling_identity_at_n1():
    doubled = doubling_construct(l_half_mode, Fraction(1, 2), 1)
    for n in range(-4, 5):
        for mono in BASIS_6:
            v = FockState.monomial(mono)
            assert doubled(n).apply(v) == l_half_mode(n).apply(v)


def test_doubling_n2_reproduces_l1_tilde():
    doubled = doubling_construct(l_half_mode, Fraction(1, 2), 2)
    for n in range(-4, 5):
        for mono in BASIS_8:
            v = FockState.monomial(mono)
            assert doubled(n).apply(v) == l1_tilde_mode(n).apply(v)


def test_doubling_n3_bracket():
    tripled = doubling_construct(l_half_mode, Fraction(1, 2), 3)
    assert_virasoro_bracket(tripled, Fraction(3, 2), 2, BASIS_8)


def test_weight2_variant1_on_v1():
    v = FockState.monomial(vacuum_like(1))
    assert weight2_mode(1, 0).apply(v) == v.scale(3)
    # twice the half-charge generator
    for mono in BASIS_6:
        w = FockState.monomial(mono)
        assert weight2_mode(1, 0).apply(w) == l_half_mode(0).apply(w).scale(2)


def test_derivative_identity():
    for m in range(-8, 9):
        rhs = AffineOperator([(Fraction(1, 2), weight2_mode(3, m)), (Fraction(1, 2), weight2_mode(4, m))])
        for mono in BASIS_8:
            v = FockState.monomial(mono)
            assert h_derivative_mode(m).apply(v) == rhs.apply(v), (m, mono)


def test_square_identity():
    for m in range(-8, 9):
        parts = [(Fraction(1, 4), weight2_mode(1, m)), (Fraction(1, 4), weight2_mode(2, m))]
        if m % 2 == 0:
            parts.append((Fraction(-1, 2), h_mode(m // 2)))
        rhs = AffineOperator(parts)
        for mono in BASIS_8:
            v = FockState.monomial(mono)
            assert h_square_mode(m).apply(v) == rhs.apply(v), (m, mono)


def test_even_modes_only_for_charge_one_field():
    # the two-point field has no odd modes: variant1 + variant2 kills them
    for m in range(-7, 8, 2):
        for mono in BASIS_8:
            v = FockState.monomial(mono)
            out = weight2_mode(1, m).apply(v) + weight2_mode(2, m).apply(v)
            assert out.is_zero, (m, mono)


def test_sugawara_rejects_a_charged_state():
    charged = to_charged(FockState.monomial((0, 1)))
    assert charged.space is CHARGED
    with pytest.raises(ValueError, match="neutral space, not on a charged state"):
        sugawara_l1_mode(0).apply(charged)


def test_sugawara_acts_linearly_on_fraction_coefficients():
    v = FockState.monomial((0, 1), Fraction(2, 3)) + FockState.monomial((2,), Fraction(-5, 7))
    for n in range(-2, 3):
        op = sugawara_l1_mode(n)
        out = op.apply(v)
        assert out.space is NEUTRAL
        want = op.apply(FockState.monomial((0, 1))).scale(Fraction(2, 3))
        want = want + op.apply(FockState.monomial((2,))).scale(Fraction(-5, 7))
        assert out == want, n
