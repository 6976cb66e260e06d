"""Character series: arithmetic laws, the three realisations, identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcheck.qchar import (
    CharacterSeries,
    binomial_factor,
    char_product_form,
    char_sum_form,
    char_trace,
    character_triple_check,
    geometric_factor,
    jacobi_check,
    sector_refinement_check,
)

small_series = st.builds(
    lambda entries: CharacterSeries({(z, qh): c for z, qh, c in entries}, 8),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 8), st.integers(-4, 4)), max_size=6),
)


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_multiplication_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_truncation_takes_min_bound():
    a = CharacterSeries({(0, 4): 1}, 10)
    b = CharacterSeries({(0, 4): 1}, 4)
    assert (a * b).qmax_half == 4
    assert (a * b).coeffs == {}  # product exponent 8 exceeds the min bound
    with pytest.raises(ValueError):
        b.coefficient(0, 6)


def test_trace_coefficients():
    t = char_trace(19)
    assert t.coefficient(0, 0) == 1
    assert t.coefficient(-1, 1) == 1  # the single index-0 monomial
    assert t.coefficient(1, 3) == 1  # the single index-1 monomial
    assert t.coefficient(0, 4) == 1  # indices {0, 1}


def test_product_form_constant_term():
    p = char_product_form(19)
    assert p.coefficient(0, 0) == 1


def test_sum_form_leading_terms():
    s = char_sum_form(40)
    for n in range(-3, 4):
        assert s.coefficient(n, 2 * n * n + n) == 1


def test_sum_form_neutral_column_is_partition_series():
    from fockcheck.grading import partition_count

    s = char_sum_form(40)
    for k in range(0, 11):
        assert s.coefficient(0, 4 * k) == partition_count(k)


def test_three_forms_agree():
    report = character_triple_check(19)
    assert report.passed, report.failures[:2]
    # spot equality of raw coefficients
    t, p, s = char_trace(19), char_product_form(19), char_sum_form(19)
    for key in {(1, 3), (-1, 1), (0, 8), (2, 10), (-2, 6)}:
        assert t.coefficient(*key) == p.coefficient(*key) == s.coefficient(*key)


@pytest.mark.parametrize("which", ["DA", "A"])
def test_jacobi_identities(which):
    assert jacobi_check(which, 12).passed
    assert jacobi_check(which, 0).passed


def test_jacobi_rejects_unknown():
    with pytest.raises(ValueError):
        jacobi_check("B", 4)


def test_sector_refinement():
    assert sector_refinement_check(19).passed


def test_virasoro_weight_named_cases():
    from fockcheck.fock import FockState
    from fockcheck.grading import vacuum_like
    from fockcheck.heisenberg import h_mode
    from fockcheck.virasoro import l_half_mode

    l0 = l_half_mode(0)
    v = h_mode(-1).apply(FockState.vacuum())
    assert l0.apply(v) == v.scale(2)
    v1 = FockState.monomial(vacuum_like(1))
    assert l0.apply(v1) == v1.scale(Fraction(3, 2))
    w = h_mode(-1).apply(h_mode(-1).apply(FockState.monomial(vacuum_like(-2))))
    assert l0.apply(w) == w.scale(7)


def test_factor_builders():
    f = binomial_factor(1, 3, 1, 8)
    assert f.coefficient(0, 0) == 1 and f.coefficient(1, 3) == 1
    g = geometric_factor(4, 12)
    assert [g.coefficient(0, q) for q in (0, 4, 8, 12)] == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        geometric_factor(0, 8)
