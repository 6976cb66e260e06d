"""The bitmask monomials against the index-tuple formulas they replace.

A neutral monomial is an ``int`` whose bit ``n`` marks ``phi[-n-1/2]``; the
reference below is the sorted-tuple action, with the sign counted by
bisection, that the bitmask action must reproduce exactly.
"""

from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcheck.charged import (
    CHARGED,
    PLUS,
    apply_charged_mode_to_monomial,
    charged_mode_of,
    cweight2,
    enumerate_charged_basis,
    format_charged_monomial,
    to_charged_monomial,
)
from fockcheck.fock import (
    NEUTRAL,
    FockState,
    apply_mode_to_monomial,
    creation,
    enumerate_basis,
    format_monomial,
    indices_of,
    mask_of,
    weight2,
)
from fockcheck.grading import dg


def tuple_apply_mode(t, mono):
    """Reference: the mode ``t`` (twice-encoded) on a strictly increasing index
    tuple; the sign counts the occupied indices above the target."""
    if t < 0:
        n = (-t - 1) // 2
        pos = bisect_left(mono, n)
        if pos < len(mono) and mono[pos] == n:
            return None
        sign = -1 if (len(mono) - pos) % 2 else 1
        return sign, mono[:pos] + (n,) + mono[pos:]
    n = (t - 1) // 2
    pos = bisect_left(mono, n)
    if pos == len(mono) or mono[pos] != n:
        return None
    sign = -1 if (len(mono) - pos - 1) % 2 else 1
    return sign, mono[:pos] + mono[pos + 1 :]


def tuple_apply_charged_mode(code, mono):
    """Reference: a charged mode on a pair of index tuples, through the tuple
    action on one block and ``(-1)**len(plus)`` for passing the ``psi+`` block."""
    plus, minus = mono
    if (code < 0) != (code & 1):
        hit = tuple_apply_mode(code | 1, plus)
        return None if hit is None else (hit[0], (hit[1], minus))
    hit = tuple_apply_mode(code | 1, minus)
    if hit is None:
        return None
    sign, block = hit
    return (-sign if len(plus) % 2 else sign), (plus, block)


def tuple_to_charged(mono):
    """Reference: the dictionary image of an index tuple, through the mode
    dictionary, and the sign of moving every ``psi+`` factor left."""
    plus, minus = [], []
    for n in mono:
        species, m = charged_mode_of(creation(n))
        (plus if species == PLUS else minus).append(-m - 1)
    swaps = sum(1 for p in plus for j in minus if j > p)
    return (-1 if swaps % 2 else 1), (tuple(plus), tuple(minus))


index_tuples = st.frozensets(st.integers(0, 70), max_size=9).map(lambda s: tuple(sorted(s)))
modes = st.integers(-72, 72).map(lambda t: 2 * t + 1)


def masked(hit):
    return None if hit is None else (hit[0], mask_of(hit[1]))


@given(index_tuples, modes)
@settings(max_examples=400, deadline=None)
def test_mask_action_matches_the_tuple_action(mono, t):
    assert apply_mode_to_monomial(t, mask_of(mono)) == masked(tuple_apply_mode(t, mono))


@given(index_tuples, index_tuples, st.integers(-40, 40))
@settings(max_examples=400, deadline=None)
def test_charged_mask_action_matches_the_tuple_action(plus, minus, code):
    hit = tuple_apply_charged_mode(code, (plus, minus))
    want = None if hit is None else (hit[0], CHARGED.monomial(hit[1]))
    assert apply_charged_mode_to_monomial(code, CHARGED.monomial((plus, minus))) == want


@given(index_tuples)
@settings(max_examples=300, deadline=None)
def test_masks_round_trip_and_keep_the_tuple_formulas(mono):
    mask = mask_of(mono)
    assert indices_of(mask) == mono and mask_of(indices_of(mask)) == mask
    assert mask.bit_count() == len(mono)
    assert weight2(mask) == sum(2 * n + 1 for n in mono)
    odd = sum(1 for n in mono if n % 2)
    assert dg(mask) == odd - (len(mono) - odd)
    factors = " ".join(f"phi[{-(2 * n + 1)}/2]" for n in reversed(mono))
    assert format_monomial(mask) == (f"{factors} |0>" if mono else "|0>")
    assert NEUTRAL.monomial(mono) == NEUTRAL.monomial(mask) == mask
    sign, (plus, minus) = tuple_to_charged(mono)
    assert to_charged_monomial(mask) == (sign, (mask_of(plus), mask_of(minus)))


@given(index_tuples, index_tuples)
@settings(max_examples=200, deadline=None)
def test_charged_masks_keep_the_tuple_formulas(plus, minus):
    mono = CHARGED.monomial((plus, minus))
    assert mono == (mask_of(plus), mask_of(minus)) and tuple(map(indices_of, mono)) == (plus, minus)
    assert cweight2(mono) == sum(4 * j + 3 for j in plus) + sum(4 * j + 1 for j in minus)
    factors = [f"psi+[{-j - 1}]" for j in reversed(plus)] + [f"psi-[{-j - 1}]" for j in reversed(minus)]
    assert format_charged_monomial(mono) == " ".join(factors + ["|0>"])


def index_subsets(cost, budget):
    """Every strictly increasing index tuple whose costs sum to at most ``budget``."""
    top = range(budget + 1)
    out = []
    for size in range(budget + 1):
        found = [(sum(map(cost, c)), c) for c in combinations(top, size) if sum(map(cost, c)) <= budget]
        if not found:
            break
        out += found
    return out


@pytest.mark.parametrize("cut2", [0, 1, 5, 12, 16])
def test_neutral_basis_order_is_weight_then_index_tuple(cut2):
    want = [mono for _, mono in sorted(index_subsets(lambda n: 2 * n + 1, cut2))]
    assert [indices_of(mono) for mono in enumerate_basis(cut2)] == want


@pytest.mark.parametrize("cut2", [0, 3, 8, 16])
def test_charged_basis_order_is_weight_then_printed_modes(cut2):
    pairs = [
        (pw + mw, plus, minus)
        for pw, plus in index_subsets(lambda j: 4 * j + 3, cut2)
        for mw, minus in index_subsets(lambda j: 4 * j + 1, cut2 - pw)
    ]
    printed = lambda block: tuple(-j - 1 for j in reversed(block))
    want = [(plus, minus) for _, plus, minus in sorted(pairs, key=lambda p: (p[0], printed(p[1]), printed(p[2])))]
    assert [tuple(map(indices_of, mono)) for mono in enumerate_charged_basis(cut2)] == want


@pytest.mark.parametrize("indices", [(0.5,), (True,), (-1,), (2, 1), (1, 1), [0, 1], 3.0, "01"])
def test_mask_of_rejects_what_is_not_an_index_tuple(indices):
    with pytest.raises(ValueError):
        mask_of(indices)


@pytest.mark.parametrize("mono", [-1, True, 1.0, (0, -1), ((0,), 1), ((0,), [1])])
def test_a_malformed_monomial_is_rejected_in_both_spaces(mono):
    for space in (NEUTRAL, CHARGED):
        with pytest.raises(ValueError, match=f"not a canonical {space.name} monomial"):
            FockState.monomial(mono, space=space)


def test_index_form_and_mask_form_build_the_same_state():
    assert FockState.monomial((0, 2)) == FockState.monomial(0b101)
    assert FockState.monomial(((1,), (0, 2)), space=CHARGED) == FockState.monomial((0b10, 0b101), space=CHARGED)
    assert FockState.vacuum().terms == {0: 1} and FockState.vacuum(CHARGED).terms == {(0, 0): 1}
