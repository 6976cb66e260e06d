"""Clifford mode action, basis enumeration, and the text form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcheck.charged import CHARGED
from fockcheck.fock import (
    NEUTRAL,
    FockState,
    annihilation,
    apply_mode,
    creation,
    enumerate_basis,
    format_monomial,
    format_state,
    indices_of,
    iter_modes,
    mask_of,
    parse_half,
    parse_state,
    weight,
    weight2,
)


def clifford_reduce(word, memo=None):
    """Independent oracle: reduce ``phi_word |0>`` using only the relations
    ``phi_a phi_b = delta(a, -b) - phi_b phi_a`` and the vacuum axiom.

    Returns a dict monomial -> coefficient, monomials as decreasing-mode
    creation words normalised to increasing index tuples.
    """
    word = tuple(word)
    if memo is None:
        memo = {}
    if word in memo:
        return memo[word]
    out = {}
    if any(t > 0 for t in word):
        if word[-1] > 0:
            memo[word] = {}
            return {}
        i = max(j for j, t in enumerate(word) if t > 0)  # rightmost annihilator
        head, a, b, tail = word[:i], word[i], word[i + 1], word[i + 2 :]
        if a + b == 0:
            for mono, c in clifford_reduce(head + tail, memo).items():
                out[mono] = out.get(mono, 0) + c
        for mono, c in clifford_reduce(head + (b, a) + tail, memo).items():
            out[mono] = out.get(mono, 0) - c
        out = {m: c for m, c in out.items() if c}
        memo[word] = out
        return out
    # pure creation word: bubble into decreasing-mode order, one sign per swap
    factors = list(word)
    sign = 1
    for i in range(len(factors)):
        for j in range(len(factors) - 1 - i):
            if factors[j] > factors[j + 1]:
                factors[j], factors[j + 1] = factors[j + 1], factors[j]
                sign = -sign
    if len(set(factors)) != len(factors):
        memo[word] = {}
        return {}
    mono = tuple(sorted((-t - 1) // 2 for t in factors))
    memo[word] = {mono: sign}
    return memo[word]


def chain_apply(word, state=None):
    state = state or FockState.vacuum()
    for t in reversed(word):
        state = apply_mode(t, state)
    return state


def test_vacuum_axiom():
    assert apply_mode(annihilation(1), FockState.vacuum()).is_zero


def test_square_of_creation_vanishes():
    once = apply_mode(creation(0), FockState.vacuum())
    assert apply_mode(creation(0), once).is_zero


def test_matched_pair_restores_vacuum():
    once = apply_mode(creation(0), FockState.vacuum())
    assert apply_mode(annihilation(0), once) == FockState.vacuum()


def test_generic_sign_case():
    # phi[3/2] on phi[-5/2] phi[-3/2] |0> anticommutes past one factor
    state = chain_apply([creation(2), creation(1)])
    assert state == FockState.monomial((1, 2))
    got = apply_mode(annihilation(1), state)
    assert got == FockState.monomial((2,), -1)


@pytest.mark.parametrize("word_len", [1, 2, 3, 4])
def test_action_matches_clifford_oracle(word_len):
    modes = [t for t in iter_modes(9)]
    memo = {}
    # deterministic sweep over a spread of words
    words = []
    for i in range(0, len(modes), 2):
        word = tuple(modes[(i + 3 * j * j + j) % len(modes)] for j in range(word_len))
        words.append(word)
    for word in words:
        expected = clifford_reduce(word, memo)
        got = chain_apply(word)
        assert dict(got.sorted_terms()) == {mask_of(m): Fraction(c) for m, c in expected.items()}, word


def test_anticommutator_on_monomials_small_grid():
    basis = enumerate_basis(8)
    for s in iter_modes(7):
        for t in iter_modes(7):
            for mono in basis:
                v = FockState.monomial(mono)
                got = apply_mode(s, apply_mode(t, v)) + apply_mode(t, apply_mode(s, v))
                want = v if s == -t else FockState.zero()
                assert got == want, (s, t, mono)


def test_create_then_annihilate_is_identity_when_absent():
    for mono in enumerate_basis(10):
        for n in range(6):
            if n in indices_of(mono):
                continue
            v = FockState.monomial(mono)
            assert apply_mode(annihilation(n), apply_mode(creation(n), v)) == v


@given(
    st.integers(-4, 4),
    st.fractions(max_denominator=12),
    st.fractions(max_denominator=12),
)
@settings(max_examples=60, deadline=None)
def test_mode_action_is_linear(n, a, b):
    t = 2 * n + 1
    s1 = FockState.monomial((0, 3))
    s2 = FockState.monomial((1,))
    combined = s1.scale(a) + s2.scale(b)
    assert apply_mode(t, combined) == apply_mode(t, s1).scale(a) + apply_mode(t, s2).scale(b)


def distinct_half_weight_counts(cut2):
    """Oracle: coefficients of prod_n (1 + q^(2n+1)) in twice-weight units."""
    coeffs = [0] * (cut2 + 1)
    coeffs[0] = 1
    n = 0
    while 2 * n + 1 <= cut2:
        step = 2 * n + 1
        for w in range(cut2, step - 1, -1):
            coeffs[w] += coeffs[w - step]
        n += 1
    return coeffs


def test_enumeration_counts_match_product_oracle():
    cut2 = 16
    basis = enumerate_basis(cut2)
    oracle = distinct_half_weight_counts(cut2)
    for w2 in range(cut2 + 1):
        assert sum(1 for m in basis if weight2(m) == w2) == oracle[w2]


def test_enumeration_order_and_edges():
    assert enumerate_basis(0) == [mask_of(())]
    assert enumerate_basis(1) == [mask_of(()), mask_of((0,))]
    b = enumerate_basis(8)
    keys = [(weight2(m), indices_of(m)) for m in b]
    assert keys == sorted(keys)
    assert len(set(b)) == len(b)


def test_weight_values():
    assert weight(mask_of(())) == 0
    assert weight(mask_of((0, 2))) == Fraction(3)
    assert weight(mask_of((1,))) == Fraction(3, 2)


def test_format_and_parse_round_trip():
    state = (
        FockState.monomial((2,), Fraction(-1))
        + FockState.monomial((0, 1), Fraction(3, 2))
        + FockState.vacuum()
    )
    text = format_state(state)
    assert parse_state(text) == state
    assert parse_state("0").is_zero
    assert format_state(FockState.zero()) == "0"
    assert format_monomial(mask_of((2,))) == "phi[-5/2] |0>"
    assert format_state(FockState.monomial((2,), -1)) == "-1 phi[-5/2] |0>"


def test_parse_half_literals():
    assert parse_half("8") == 16
    assert parse_half("15/2") == 15
    with pytest.raises(ValueError):
        parse_half("3/4")


@pytest.mark.parametrize("text", ["1_6", " 8", "8 ", "\u0668", "+8", "15/2 ", "15/ 2", "\uff11\uff15/2"])
def test_parse_half_takes_ascii_integer_literals_only(text):
    with pytest.raises(ValueError):
        parse_half(text)


@pytest.mark.parametrize("text", ["1_0 |0>", "\u0661/3 |0>", "phi[-\u0665/2] |0>", "phi[-1_5/2] |0>"])
def test_parse_state_takes_ascii_integer_literals_only(text):
    with pytest.raises(ValueError):
        parse_state(text)


def test_round_trip_over_basis_states():
    for mono in enumerate_basis(12):
        for coeff in (Fraction(1), Fraction(-1), Fraction(7, 3), Fraction(-2, 5)):
            state = FockState.monomial(mono, coeff)
            assert parse_state(format_state(state)) == state


# -- the exact representation: int numerators over one denominator -----------


def test_state_is_kept_in_lowest_terms():
    m = mask_of((0, 2))
    state = FockState({m: 2}, 4)
    assert state == FockState({m: 1}, 2)
    assert state.denominator == 2 and state.terms == {m: 1}
    half = FockState.vacuum().scale(Fraction(1, 2))
    whole = half + half
    assert whole.denominator == 1 and whole == FockState.vacuum()
    # a common factor of every numerator cancels too, not only of the first
    assert FockState({mask_of(()): 6, mask_of((1,)): -9}, 15) == FockState({mask_of(()): 2, mask_of((1,)): -3}, 5)


def test_zero_state_is_the_empty_map_over_one():
    a = FockState({mask_of((0,)): 3, mask_of((1,)): -1}, 7)
    for zero in (a - a, a.scale(0), FockState({mask_of((0,)): 0}, 5), FockState.zero()):
        assert zero.terms == {} and zero.denominator == 1 and zero.is_zero
        assert zero == FockState.zero()


def test_zero_numerators_are_dropped():
    state = FockState({mask_of((0,)): 0, mask_of((1,)): 4, mask_of((2,)): 0}, 6)
    assert state.terms == {mask_of((1,)): 2} and state.denominator == 3
    b = FockState({mask_of((0,)): 1, mask_of((1,)): 1}, 2)
    c = FockState({mask_of((0,)): 1, mask_of((1,)): -1}, 2)
    assert (b + c).terms == {mask_of((0,)): 1} and (b + c).denominator == 1


def test_coefficient_is_a_fraction():
    state = FockState({mask_of((1,)): 3}, 4)
    assert state.coefficient((1,)) == Fraction(3, 4) == state.coefficient(mask_of((1,)))
    assert isinstance(state.coefficient((1,)), Fraction)
    assert isinstance(state.coefficient((0,)), Fraction) and state.coefficient((0,)) == 0


def test_states_of_different_spaces_do_not_combine():
    neutral, charged = FockState.vacuum(), FockState.vacuum(CHARGED)
    with pytest.raises(ValueError, match="cannot combine"):
        neutral + charged
    with pytest.raises(ValueError, match="cannot combine"):
        charged - neutral


@pytest.mark.parametrize("denominator", [0, -1, -6])
def test_nonpositive_denominator_raises(denominator):
    with pytest.raises(ValueError, match="denominator must be positive"):
        FockState({mask_of((0,)): 1}, denominator)
    with pytest.raises(ValueError, match="denominator must be positive"):
        FockState({}, denominator)


@pytest.mark.parametrize(
    "mono,space",
    [
        ((0.5,), NEUTRAL),
        ((0, 2.0), NEUTRAL),
        ((True,), NEUTRAL),
        ((Fraction(1),), NEUTRAL),
        (((0.5,), ()), CHARGED),
        (((), (0, 1.0)), CHARGED),
        (([0], ()), CHARGED),
    ],
)
def test_a_non_int_index_is_rejected_in_both_spaces(mono, space):
    with pytest.raises(ValueError, match=f"not a canonical {space.name} monomial"):
        FockState.monomial(mono, space=space)
