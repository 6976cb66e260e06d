"""Charged two-fermion space, its currents, and the intertwining map."""

from fractions import Fraction

import pytest

from fockcheck.charged import (
    A_CHARGED_BILINEAR,
    CHARGED,
    H_CHARGED_BILINEAR,
    MINUS,
    ChargedBilinear,
    ConjugatedOperator,
    PLUS,
    apply_charged_mode_to_monomial,
    charge,
    charged_code,
    charged_mode_of,
    charged_bilinear_mode,
    cweight2,
    enumerate_charged_basis,
    format_charged_monomial,
    from_charged,
    from_charged_monomial,
    hA_mode,
    lA_family,
    lA_lambda_b_mode,
    to_charged,
    to_charged_monomial,
)
from fockcheck.fock import (
    FockState,
    annihilation,
    apply_mode,
    creation,
    enumerate_basis,
    format_state,
    indices_of,
    mask_of,
)
from fockcheck.grading import dg
from fockcheck.heisenberg import h_mode
from fockcheck.modeops import AffineOperator
from fockcheck.suites import LAMBDA_PAIRS
from fockcheck.verify import field_identity_check, merge_reports
from fockcheck.virasoro import central_charge, lambda_family
from fockcheck.winf import jk_mode_charged
from test_virasoro import _differences

CBASIS = enumerate_charged_basis(16)
NBASIS = enumerate_basis(16)
B_BILINEAR = ChargedBilinear(Fraction(1), MINUS, 1, PLUS, 0)  # :(d psi-) psi+:
LATTICE = [Fraction(k, 3) for k in range(-1, 3)]  # 4 points: a third difference along one axis needs four


def psi(species, m, state):
    return apply_mode(charged_code(species, m), state)


def cstate(mono, coeff=1):
    return FockState.monomial(mono, coeff, space=CHARGED)


def test_vacuum_axioms():
    vac = FockState.vacuum(CHARGED)
    for species in (PLUS, MINUS):
        for m in range(0, 4):
            assert psi(species, m, vac).is_zero


def test_pairing_examples():
    vac = FockState.vacuum(CHARGED)
    s = psi(MINUS, -1, vac)
    assert psi(PLUS, 0, s) == vac
    t = psi(PLUS, -1, vac)
    assert psi(MINUS, 0, t) == vac


def test_clifford_relations_transport_grid():
    for m in range(-4, 4):
        for n in range(-4, 4):
            for mono in CBASIS:
                v = cstate(mono)
                for sa, sb in ((PLUS, MINUS), (PLUS, PLUS), (MINUS, MINUS)):
                    got = psi(sa, m, psi(sb, n, v)) + psi(sb, n, psi(sa, m, v))
                    want = v if (sa != sb and m + n == -1) else FockState.zero(CHARGED)
                    assert got == want, (sa, m, sb, n, mono)


def factor_count_action(species, m, mono):
    """``psi^species_m`` on the product of ``mono``'s factors, written out as a
    list (the ``psi+`` block, then the ``psi-`` block, each by increasing
    mode); the sign counts the factors the mode passes."""
    plus, minus = map(indices_of, mono)
    factors = [(PLUS, -j - 1) for j in sorted(plus, reverse=True)]
    factors += [(MINUS, -j - 1) for j in sorted(minus, reverse=True)]
    if m <= -1:
        if (species, m) in factors:
            return None
        factors.append((species, m))
        factors.sort(key=lambda f: (f[0] == MINUS, f[1]))
        passed = factors.index((species, m))
    else:
        partner = (-species, -m - 1)  # psi+_m pairs with psi-_{-m-1} and vice versa
        if partner not in factors:
            return None
        passed = factors.index(partner)
        del factors[passed]
    block = {sp: tuple(sorted(-mode - 1 for s, mode in factors if s == sp)) for sp in (PLUS, MINUS)}
    return (-1) ** passed, (mask_of(block[PLUS]), mask_of(block[MINUS]))


def test_mode_action_matches_factor_counting():
    for species in (PLUS, MINUS):
        for m in range(-6, 7):
            for mono in CBASIS:
                got = apply_charged_mode_to_monomial(charged_code(species, m), mono)
                assert got == factor_count_action(species, m, mono), (species, m, mono)


def test_report_order_is_pinned():
    assert [format_charged_monomial(m) for m in enumerate_charged_basis(8)] == [
        "|0>",
        "psi-[-1] |0>",
        "psi+[-1] |0>",
        "psi+[-1] psi-[-1] |0>",
        "psi-[-2] |0>",
        "psi-[-2] psi-[-1] |0>",
        "psi+[-2] |0>",
        "psi+[-2] psi-[-1] |0>",
        "psi+[-1] psi-[-2] |0>",
    ]
    got = format_state(hA_mode(-2).apply(FockState.vacuum(CHARGED)))
    assert got == "psi+[-2] psi-[-1] |0> + psi+[-1] psi-[-2] |0>"


@pytest.mark.parametrize(
    "fields",
    [(2, 0, MINUS, 0), (PLUS, 0, 0, 0), (PLUS, -1, MINUS, 0), (PLUS, 0, MINUS, -1)],
    ids=["left species", "right species", "dleft", "dright"],
)
def test_charged_bilinear_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        ChargedBilinear(Fraction(1), *fields)


def test_hA_bracket():
    for m in range(-3, 4):
        for n in range(-3, 4):
            for mono in CBASIS:
                v = cstate(mono)
                got = hA_mode(m).apply(hA_mode(n).apply(v)) - hA_mode(n).apply(hA_mode(m).apply(v))
                want = v.scale(m) if m == -n else FockState.zero(CHARGED)
                assert got == want, (m, n, mono)


@pytest.mark.parametrize("lam,b", [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(0))])
def test_charged_virasoro_brackets(lam, b):
    fam = lA_family(lam, b)
    c = central_charge(lam)
    for m in range(-2, 3):
        for n in range(-2, 3):
            for mono in CBASIS:
                v = cstate(mono)
                lhs = fam(m).apply(fam(n).apply(v)) - fam(n).apply(fam(m).apply(v))
                rhs = fam(m + n).apply(v).scale(m - n)
                if m == -n:
                    rhs = rhs + v.scale(Fraction(m**3 - m, 12) * c)
                assert lhs == rhs, (lam, b, m, n, mono)


def neutral_mode_of(species: int, m: int) -> int:
    """Inverse of the mode dictionary, as an oracle for ``charged_mode_of``."""
    return 4 * m + 1 if species == PLUS else 4 * m + 3


def test_mode_dictionary_entries():
    assert charged_mode_of(creation(1)) == (PLUS, -1)  # phi[-3/2]
    assert charged_mode_of(creation(0)) == (MINUS, -1)  # phi[-1/2]
    assert charged_mode_of(annihilation(0)) == (PLUS, 0)
    assert charged_mode_of(annihilation(1)) == (MINUS, 0)
    for t in range(-15, 16, 2):
        species, m = charged_mode_of(t)
        assert neutral_mode_of(species, m) == t


def test_dictionary_transports_anticommutators():
    # {D(phi_s), D(phi_t)} = delta(s, -t) on the charged space
    for s in range(-9, 10, 2):
        for t in range(-9, 10, 2):
            da, db = charged_mode_of(s), charged_mode_of(t)
            for mono in CBASIS[:15]:
                v = cstate(mono)
                got = psi(*da, psi(*db, v)) + psi(*db, psi(*da, v))
                want = v if s == -t else FockState.zero(CHARGED)
                assert got == want, (s, t, mono)


def test_state_map_examples():
    assert to_charged(FockState.vacuum()) == FockState.vacuum(CHARGED)
    v1 = FockState.monomial((1,))
    assert to_charged(v1) == cstate(((0,), ()))
    sign, image = to_charged_monomial(mask_of((0, 2)))
    assert image == CHARGED.monomial(((), (0, 1))) and sign in (1, -1)


def test_state_map_charge_and_weight():
    for mono in NBASIS:
        sign, image = to_charged_monomial(mono)
        assert charge(image) == dg(mono)
        from fockcheck.fock import weight2

        assert cweight2(image) == weight2(mono)


def test_state_map_bijection_and_round_trip():
    images = set()
    for mono in NBASIS:
        sign, image = to_charged_monomial(mono)
        back_sign, back = from_charged_monomial(image)
        assert back == mono and sign * back_sign == 1
        images.add(image)
    assert images == set(CBASIS)
    for mono in NBASIS:
        v = FockState.monomial(mono, Fraction(3, 7))
        assert from_charged(to_charged(v)) == v


def indexed_split(mono):
    """``to_charged_monomial`` over the index tuple: the odd indices form the
    ``psi+`` block, the even ones the ``psi-`` block, and the sign counts,
    for each ``psi+`` index ``p``, the ``psi-`` indices ``j > p``."""
    plus = tuple(n >> 1 for n in indices_of(mono) if n & 1)
    minus = tuple(n >> 1 for n in indices_of(mono) if not n & 1)
    swaps = sum(j > p for p in plus for j in minus)
    return (-1) ** swaps, (mask_of(plus), mask_of(minus))


def test_the_dictionary_walks_set_bits_with_the_index_signs():
    for mono in NBASIS:
        sign, image = indexed_split(mono)
        assert to_charged_monomial(mono) == (sign, image)
        assert from_charged_monomial(image) == (sign, mono)


def indexed_support(op):
    """The support of a ``charged_bilinear_mode`` read off index tuples: both
    factors create, then each index the left factor annihilates, then each
    index ``j > T`` the right one annihilates while the left one creates."""
    bil, exponent = op.key
    T = -exponent - 2 - bil.dleft - bil.dright

    def support(mono):
        plus, minus = mono
        left = indices_of(minus if bil.left_species == PLUS else plus)
        right = indices_of(minus if bil.right_species == PLUS else plus)
        return [*range(T + 1, 0), *left, *(T - j for j in right if j > T)]

    return support


def test_the_bilinear_support_walks_set_bits_in_index_order():
    ops = [jk_mode_charged(k, n) for k in range(5) for n in range(-6, 7)]
    ops += [hA_mode(n) for n in range(-6, 7)]
    ops += [op for n in range(-6, 7) for _, op in lA_lambda_b_mode(Fraction(1, 3), Fraction(2, 5), n).parts]
    ops += [charged_bilinear_mode(B_BILINEAR, -n - 2) for n in range(-6, 7)]  # the paper's third part
    assert len(ops) == 65 + 13 + 39
    for op in ops:
        oracle = indexed_support(op)
        assert [op.support(mono) for mono in CBASIS] == [oracle(mono) for mono in CBASIS], op.key


def paper_lA_mode(lam, b, n):
    """The paper's three-part form ``(1-lam) A_n + lam B_n - b hA_n`` plus
    ``b(b - 2 lam + 1)/2`` at mode zero, ``B_n`` the mode of ``:(d psi-) psi+:``."""
    e = -n - 2
    parts = [
        (1 - lam, charged_bilinear_mode(A_CHARGED_BILINEAR, e)),
        (lam, charged_bilinear_mode(B_BILINEAR, e)),
        (-b, hA_mode(n)),
    ]
    return AffineOperator(parts, b * (b - 2 * lam + 1) / 2 if n == 0 else 0)


def test_the_two_part_lambda_family_is_the_papers_three_part_form():
    # B_n = A_n + (n+1) hA_n folds the lam B_n part into hA_n's weight
    reports = [
        field_identity_check(
            "three_parts",
            lambda n, lam=lam, b=b: paper_lA_mode(lam, b, n),
            lambda n, lam=lam, b=b: lA_lambda_b_mode(lam, b, n),
            range(-6, 7),
            CBASIS,
            space=CHARGED,
        )
        for lam in LATTICE
        for b in LATTICE
    ]
    report = merge_reports("three_parts", {}, reports)
    assert report.passed, report.failures[:2]
    assert report.cases_run == 16 * 13 * len(CBASIS)


def test_charged_lambda_family_is_a_bilinear_with_affine_weights():
    """Each mode reads ``A_n`` at weight 1 and ``hA_n`` at a weight affine in
    ``(lam, b)``, plus a constant quadratic in them: ``c = -2 + 12 lam - 12
    lam^2`` is of degree two, read off the weights."""
    for n in range(-3, 4):
        a_key, h_key = (A_CHARGED_BILINEAR, -n - 2), (H_CHARGED_BILINEAR, -n - 1)
        h_weight, scalar = {}, {}
        for i, lam in enumerate(LATTICE):
            for j, b in enumerate(LATTICE):
                mode = lA_lambda_b_mode(lam, b, n)
                weights = {op.key: c for c, op in mode.parts}
                assert set(weights) <= {a_key, h_key}
                assert weights[a_key] == 1
                h_weight[i, j], scalar[i, j] = weights.get(h_key, 0), mode.scalar
        assert not any(_differences(h_weight, 2))
        assert not any(_differences(scalar, 3))
        assert any(h_weight.values()) and (n != 0 or any(scalar.values()))


def test_heisenberg_intertwining():
    for n in range(-4, 5):
        for mono in NBASIS:
            v = FockState.monomial(mono)
            assert to_charged(h_mode(n).apply(v)) == hA_mode(n).apply(to_charged(v)), (n, mono)


def test_charged_render():
    s = cstate(((1,), (0,)), Fraction(-1))
    assert format_state(s) == "-1 psi+[-2] psi-[-1] |0>"
    assert format_state(FockState.zero(CHARGED)) == "0"


def test_states_of_different_spaces_differ():
    assert FockState.zero() != FockState.zero(CHARGED)
    assert FockState.vacuum() != FockState.vacuum(CHARGED)
    assert to_charged(FockState.vacuum()) != FockState.vacuum()


@pytest.mark.parametrize("enumerate_cut", [enumerate_basis, enumerate_charged_basis])
def test_negative_weight_cut_is_rejected_in_both_spaces(enumerate_cut):
    assert enumerate_cut(0) == [enumerate_cut(0)[0]]  # the vacuum alone
    with pytest.raises(ValueError):
        enumerate_cut(-1)


@pytest.mark.parametrize("combine", [lambda a, b: a + b, lambda a, b: a - b])
def test_states_of_different_spaces_do_not_combine(combine):
    with pytest.raises(ValueError):
        combine(FockState.vacuum(), FockState.vacuum(CHARGED))
    with pytest.raises(ValueError):
        combine(FockState.zero(CHARGED), FockState.zero())


def lambda_intertwining(shift):
    """``to_charged(L^{lam,b}_n v)`` against ``LA(lam, b - shift(lam))_n to_charged(v)``
    on the four acceptance pairs, |n| <= 3 and twice-weight <= 16."""
    return merge_reports(
        "lambda_intertwining",
        {},
        [
            field_identity_check(
                "lambda_intertwining",
                lambda_family(lam, b),
                lambda n, lam=lam, b=b: ConjugatedOperator(lA_lambda_b_mode(lam, b - shift(lam), n)),
                range(-3, 4),
                NBASIS,
            )
            for lam, b in LAMBDA_PAIRS
        ],
    )


def test_isomorphism_intertwines_the_lambda_families():
    # from_charged inverts to_charged exactly, so this is to_charged(L v) = LA to_charged(v)
    report = lambda_intertwining(lambda lam: (1 - 2 * lam) / 4)
    assert report.passed, report.failures[:2]
    assert report.cases_run == 4 * 7 * len(NBASIS) == 924


def test_lambda_intertwining_needs_the_shifted_b():
    report = lambda_intertwining(lambda lam: 0)
    assert report.cases_run == 924
    assert report.failures_total == 570
