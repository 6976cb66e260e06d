"""Named verification suites: one entry per checkable claim group.

Each suite function returns a list of :class:`VerificationReport`; the CLI
and the acceptance tests share these entry points, so what the test suite
certifies is exactly what the command line runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from . import charged as ch
from . import virasoro as vir
from .fock import NEUTRAL, FockState, Space, enumerate_basis, format_state, iter_modes, weight
from .grading import (
    dg,
    lemma_vector,
    partition_count,
    partitions,
    sector_basis,
    vacuum_like,
)
from .heisenberg import (
    HEISENBERG_BILINEAR,
    h_family,
    h_family_bilinear,
    h_mode,
    highest_weight_check,
    spanning_check,
)
from .modeops import AffineOperator, FermionBilinear, ModeOperator, OperatorFamily, bilinear_mode, zero_operator
from .verify import VerificationReport, bracket_check, field_identity_check, merge_reports
from .winf import jk_mode_charged, jk_mode_neutral, scalar_defect_check, winf_expected


def square_grid(mmax: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(-mmax, mmax + 1) for n in range(-mmax, mmax + 1)]


def virasoro_expected(c: Fraction) -> Callable:
    """``[L_m, L_n] = (m - n) L_{m+n} + c (m^3 - m)/12 delta(m+n)``, with
    ``L_{m+n}`` named by its mode index."""
    c = Fraction(c)

    def expected(m: int, n: int):
        scalar = Fraction(m**3 - m, 12) * c if m == -n else Fraction(0)
        return [(Fraction(m - n), m + n)], scalar

    return expected


def heisenberg_expected(m: int, n: int):
    """``[h_m, h_n] = m delta(m+n)``."""
    return [], Fraction(m) if m == -n else Fraction(0)


def clifford_expected(s: int, t: int):
    """``{phi_s, phi_t} = delta(s, -t)`` for twice-encoded modes."""
    return [], Fraction(1) if s == -t else Fraction(0)


# Each algebra's bracket grid, declared once for both Fock spaces.


def clifford_bracket(
    name: str, mode: Callable, max_index2: int, basis, space: Space = NEUTRAL, **params
) -> VerificationReport:
    modes = list(iter_modes(max_index2))
    grid = [(s, t) for s in modes for t in modes]
    params["max_index2"] = max_index2
    return bracket_check(name, "anticommutator", mode, clifford_expected, grid, basis, space, **params)


def heisenberg_bracket(
    name: str, mode: Callable, mmax: int, basis, space: Space = NEUTRAL, **params
) -> VerificationReport:
    grid = square_grid(mmax)
    return bracket_check(name, "commutator", mode, heisenberg_expected, grid, basis, space, mmax=mmax, **params)


def virasoro_bracket(
    name: str, family: OperatorFamily, c: Fraction, mmax: int, basis, space: Space = NEUTRAL
) -> VerificationReport:
    expected, grid = virasoro_expected(c), square_grid(mmax)
    params = {"family": family.name, "c": c, "mmax": mmax}
    return bracket_check(name, "commutator", family.mode, expected, grid, basis, space, **params)


# -- suites ------------------------------------------------------------------


def suite_clifford(max_index2: int = 15, weight_cut2: int = 16) -> list[VerificationReport]:
    """{phi_m, phi_n} = delta(m, -n) over all mode pairs in range."""
    basis = enumerate_basis(weight_cut2)
    return [clifford_bracket("clifford_anticommutator", ModeOperator, max_index2, basis, weight_cut2=weight_cut2)]


def suite_heisenberg(mmax: int = 5, weight_cut2: int = 20) -> list[VerificationReport]:
    """[h_m, h_n] = m delta(m+n) plus equality of the two h constructions."""
    basis = enumerate_basis(weight_cut2)
    bracket = heisenberg_bracket("heisenberg_bracket", h_mode, mmax, basis, weight_cut2=weight_cut2)
    dual = field_identity_check(
        "heisenberg_dual_construction",
        h_family().mode,
        h_family_bilinear().mode,
        range(-mmax, mmax + 1),
        basis,
    )
    return [bracket, dual]


def suite_sectors(nmax: int = 4, kmax: int = 8) -> list[VerificationReport]:
    """Sector dimensions p(k) and the partition-indexed sector vectors."""
    with VerificationReport("sector_dimensions", {"nmax": nmax, "kmax": kmax}) as dims:
        for n in range(-nmax, nmax + 1):
            for k in range(kmax + 1):
                dims.expect(len(sector_basis(n, k)), partition_count(k), lambda: f"dim of sector ({n}, {k}) vs p({k})")

    with VerificationReport("partition_vectors", {"kmax": kmax}) as inj:
        for k in range(kmax + 1):
            sector = set(sector_basis(0, k))
            seen: dict = {}
            for parts in partitions(k):
                mono = lemma_vector(parts)
                inj.cases_run += 1
                if mono not in sector:
                    inj.record(witness=f"partition {parts}", lhs=str(mono), rhs=f"a monomial of sector (0, {k})")
                if mono in seen:
                    inj.record(witness=f"partitions {seen[mono]} and {parts}", lhs=str(mono), rhs="distinct monomials")
                seen[mono] = parts
    return [dims, inj]


def suite_decomposition(
    hw_nmax: int = 4, hw_mmax: int = 5, span_nmax: int = 3, span_kmax: int = 5
) -> list[VerificationReport]:
    """Highest-weight structure of each charge sector plus spanning ranks."""
    hw = merge_reports(
        "highest_weight_all",
        {"nmax": hw_nmax, "mmax": hw_mmax},
        [highest_weight_check(n, hw_mmax) for n in range(-hw_nmax, hw_nmax + 1)],
    )
    span = merge_reports(
        "spanning_all",
        {"nmax": span_nmax, "kmax": span_kmax},
        [
            spanning_check(n, k)
            for n in range(-span_nmax, span_nmax + 1)
            for k in range(span_kmax + 1)
        ],
    )
    return [hw, span]


# ``verify virasoro --family F`` (F other than lambda): check name, family builder, central charge
VIRASORO_FAMILIES = {
    "half": ("virasoro_half", vir.l_half_family, Fraction(1, 2)),
    "half~": ("virasoro_half_tilde", vir.l_half_tilde_family, Fraction(1, 2)),
    "one": ("virasoro_one_sugawara", vir.sugawara_family, Fraction(1)),
    "one~": ("virasoro_one_tilde", vir.l1_tilde_family, Fraction(1)),
}


def family_bracket(key: str, mmax: int, basis) -> VerificationReport:
    name, build, c = VIRASORO_FAMILIES[key]
    return virasoro_bracket(name, build(), c, mmax, basis)


def lambda_bracket(lam: Fraction, b: Fraction, mmax: int, basis) -> VerificationReport:
    return virasoro_bracket("virasoro_lambda", vir.lambda_family(lam, b), vir.central_charge(lam), mmax, basis)


def suite_virasoro_half(mmax: int = 4, weight_cut2: int = 20) -> list[VerificationReport]:
    basis = enumerate_basis(weight_cut2)
    return [
        family_bracket("half", mmax, basis),
        family_bracket("half~", mmax, basis),
        field_identity_check(
            "half_tilde_is_flip",
            vir.l_half_tilde_family().mode,
            vir.l_half_tilde_family_flip().mode,
            range(-mmax, mmax + 1),
            enumerate_basis(min(weight_cut2, 12)),
        ),
    ]


def l1_tilde_relation(mmax: int, weight_cut2: int) -> VerificationReport:
    """The tilde family of c = 1 against its field modes, at twice-weight <= min(cut, 16)."""
    return field_identity_check(
        "l1_tilde_mode_relation",
        vir.l1_tilde_family().mode,
        vir.l1_tilde_field_mode,
        range(-mmax, mmax + 1),
        enumerate_basis(min(weight_cut2, 16)),
    )


def suite_virasoro_one(mmax: int = 4, weight_cut2: int = 20) -> list[VerificationReport]:
    basis = enumerate_basis(weight_cut2)
    return [
        family_bracket("one", mmax, basis),
        family_bracket("one~", mmax, basis),
        l1_tilde_relation(mmax, weight_cut2),
    ]


LAMBDA_PAIRS = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1, 3), Fraction(2, 5)),
    (Fraction(1, 2), Fraction(-1, 4)),
)


def suite_virasoro_lambda(
    pairs: Sequence[tuple[Fraction, Fraction]] = LAMBDA_PAIRS,
    mmax: int = 3,
    weight_cut2: int = 16,
) -> list[VerificationReport]:
    basis = enumerate_basis(weight_cut2)
    reports = [lambda_bracket(lam, b, mmax, basis) for lam, b in pairs]
    reports.append(
        field_identity_check(
            "lambda_specialises_to_one",
            vir.lambda_family(Fraction(1, 2), Fraction(0)).mode,
            vir.sugawara_family().mode,
            range(-mmax, mmax + 1),
            basis,
        )
    )
    reports.append(
        field_identity_check(
            "lambda_specialises_to_one_tilde",
            vir.lambda_family(Fraction(1, 2), Fraction(-1, 4)).mode,
            vir.l1_tilde_family().mode,
            range(-mmax, mmax + 1),
            basis,
        )
    )
    return reports


def suite_doubling(weight_cut2: int = 16) -> list[VerificationReport]:
    half = Fraction(1, 2)
    basis = enumerate_basis(weight_cut2)
    doubled = vir.doubling_construct(vir.l_half_family(), half, 2)
    tripled = vir.doubling_construct(vir.l_half_family(), half, 3)
    flipped = vir.l_half_tilde_family_flip()
    return [
        field_identity_check(
            "doubling_n2_gives_one_tilde", doubled.mode, vir.l1_tilde_family().mode, range(-4, 5), basis
        ),
        virasoro_bracket("doubling_n3_bracket", tripled, Fraction(3, 2), 2, basis),
        virasoro_bracket("parity_flip_bracket", flipped, half, 4, enumerate_basis(min(weight_cut2, 20))),
        field_identity_check(
            "doubling_n1_identity",
            vir.doubling_construct(vir.l_half_family(), half, 1).mode,
            vir.l_half_family().mode,
            range(-4, 5),
            enumerate_basis(min(weight_cut2, 12)),
        ),
    ]


def suite_eigenvalues(nmax: int = 5, weight_cut2: int = 16) -> list[VerificationReport]:
    """Vacuum-like eigenvalue pins and joint diagonalisation of (h_0, L0)."""
    l0 = vir.l_half_mode(0)
    h0 = h_mode(0)
    with VerificationReport("eigenvalue_pins", {"nmax": nmax}) as report:
        for n in range(-nmax, nmax + 1):
            v = FockState.monomial(vacuum_like(n))
            expect_l0 = Fraction(n * n) + Fraction(n, 2)
            for name, op, expect in (("L0", l0, expect_l0), ("h0", h0, Fraction(n))):
                report.expect(op.apply(v), v.scale(expect), lambda: f"{name} on vacuum-like n={n}")

    with VerificationReport("joint_eigenbasis", {"weight_cut2": weight_cut2}) as joint:
        for mono in enumerate_basis(weight_cut2):
            v = FockState.monomial(mono)
            joint.expect(
                (h0.apply(v), l0.apply(v)),
                (v.scale(dg(mono)), v.scale(weight(mono))),
                lambda: f"(h0, L0) on {format_state(v)}",
            )
    return [report, joint]


def suite_identities(mmax: int = 4, weight_cut2: int = 16) -> list[VerificationReport]:
    """The weight-two field identities and the vanishing of :phi(z) phi(z):."""
    basis = enumerate_basis(weight_cut2)
    v3 = vir.weight2_field(3)
    v4 = vir.weight2_field(4)
    v1 = vir.weight2_field(1)
    v2 = vir.weight2_field(2)

    def hderiv_rhs(m: int):
        return AffineOperator([(Fraction(1, 2), v3.mode(m)), (Fraction(1, 2), v4.mode(m))])

    def hsquare_rhs(m: int):
        parts = [(Fraction(1, 4), v1.mode(m)), (Fraction(1, 4), v2.mode(m))]
        if m % 2 == 0:
            parts.append((Fraction(-1, 2), h_mode(m // 2)))
        return AffineOperator(parts)

    reports = [
        field_identity_check(
            "heisenberg_derivative_identity",
            vir.h_derivative_family().mode,
            hderiv_rhs,
            range(-2 * mmax, 2 * mmax + 1),
            basis,
        ),
        field_identity_check(
            "heisenberg_square_identity",
            vir.h_square_family().mode,
            hsquare_rhs,
            range(-2 * mmax, 2 * mmax + 1),
            basis,
        ),
    ]
    diagonal = FermionBilinear(Fraction(1), 0, 0, 0, 1, 1)  # :phi(z) phi(z):
    reports.append(
        field_identity_check(
            "diagonal_bilinear_vanishes",
            lambda e: bilinear_mode(diagonal, e),
            lambda e: zero_operator(),
            range(-9, 4),
            basis,
        )
    )
    reports.append(
        field_identity_check(
            "heisenberg_field_odd_modes_only",
            lambda e: bilinear_mode(HEISENBERG_BILINEAR, 2 * e),  # even exponents must vanish
            lambda e: zero_operator(),
            range(-5, 5),
            basis,
        )
    )
    return reports


def suite_characters(qmax_half: int = 19, jac_qmax: int = 12) -> list[VerificationReport]:
    from .qchar import character_triple_check, jacobi_check, sector_refinement_check

    return [
        character_triple_check(qmax_half),
        jacobi_check("DA", jac_qmax),
        jacobi_check("A", jac_qmax),
        sector_refinement_check(qmax_half),
    ]


def suite_iso(weight_cut2: int = 16, mmax: int = 4, max_index2: int = 15) -> list[VerificationReport]:
    """Dictionary transport, Heisenberg intertwining, basis bijectivity."""
    cbasis = ch.enumerate_charged_basis(weight_cut2)

    def transported(t: int) -> ModeOperator:
        return ModeOperator(ch.charged_code(*ch.charged_mode_of(t)))

    transport = clifford_bracket(
        "dictionary_clifford_transport", transported, max_index2, cbasis, ch.CHARGED, weight_cut2=weight_cut2
    )

    basis = enumerate_basis(weight_cut2)
    # from_charged inverts to_charged exactly: this asserts to_charged(h_n v) = hA_n to_charged(v)
    intertwine = field_identity_check(
        "heisenberg_intertwining",
        h_mode,
        lambda n: ch.ConjugatedOperator(ch.hA_mode(n)),
        range(-mmax, mmax + 1),
        basis,
        mmax=mmax,
        weight_cut2=weight_cut2,
    )

    with VerificationReport("state_map_bijection", {"weight_cut2": weight_cut2}) as bij:
        images = {}
        for mono in basis:
            sign, image = ch.to_charged_monomial(mono)
            bij.cases_run += 1
            if abs(sign) != 1:
                bij.record(witness=str(mono), lhs=f"sign {sign}", rhs="a unit sign")
            if image in images:
                bij.record(witness=f"{images[image]} and {mono}", lhs=str(image), rhs="distinct images")
            images[image] = mono
            back_sign, back = ch.from_charged_monomial(image)
            if back != mono or back_sign * sign != 1:
                bij.record(witness=str(mono), lhs=f"round trip {back_sign} * {back}", rhs="identity")
        expected_images = set(cbasis)
        got_images = set(images)
        bij.cases_run += 1
        if got_images != expected_images:
            missing = sorted(expected_images - got_images)[:3]
            extra = sorted(got_images - expected_images)[:3]
            bij.record(
                witness="image of the weight-truncated basis",
                lhs=f"missing {missing} extra {extra}",
                rhs="the charged basis at the same truncation",
            )
    return [transport, intertwine, bij]


def suite_winf(kmax: int = 2, nmax: int = 3, weight_cut2: int = 16, mmax: int = 4) -> list[VerificationReport]:
    cbasis = ch.enumerate_charged_basis(weight_cut2)
    basis = enumerate_basis(weight_cut2)
    reports = [
        field_identity_check(
            "j0_equals_heisenberg_charged",
            lambda n: jk_mode_charged(0, n),
            ch.hA_mode,
            range(-mmax, mmax + 1),
            cbasis,
            space=ch.CHARGED,
        ),
        field_identity_check(
            "j0_equals_heisenberg_neutral",
            lambda n: jk_mode_neutral(0, n),
            h_mode,
            range(-mmax, mmax + 1),
            basis,
        ),
    ]
    central = merge_reports(
        "j0_central_column",
        {"mmax": mmax},
        [scalar_defect_check(0, m, 0, -m, cbasis) for m in range(1, mmax + 1)],
    )
    reports.append(central)
    grid = [
        ((k1, n1), (k2, n2))
        for k1 in range(kmax + 1)
        for k2 in range(k1 + 1)
        for n1 in range(-nmax, nmax + 1)
        for n2 in range(-nmax, nmax + 1)
    ]
    reports.append(
        bracket_check(
            "winf_matrix_defects",
            "commutator",
            lambda i: jk_mode_charged(*i),
            winf_expected,
            grid,
            cbasis,
            ch.CHARGED,
            kmax=kmax,
            nmax=nmax,
            weight_cut2=weight_cut2,
        )
    )

    with VerificationReport("j1_preserves_charge", {"weight_cut2": weight_cut2}) as charge_preserving:
        for mono in basis:
            v = FockState.monomial(mono)
            out = jk_mode_neutral(1, 1).apply(v) + jk_mode_neutral(1, -1).apply(v)
            charge_preserving.expect(
                {dg(m) for m in out.terms} | {dg(mono)},
                {dg(mono)},
                lambda: f"charges of v and (J^1_1 + J^1_-1) v for v = {format_state(v)}",
            )
    reports.append(charge_preserving)
    return reports


def suite_charged(
    mmax_h: int = 5,
    mmax: int = 3,
    weight_cut2: int = 16,
    lambdas: Sequence[Fraction] = (Fraction(0), Fraction(1, 2), Fraction(1)),
    bs: Sequence[Fraction] = (Fraction(0), Fraction(1, 3)),
) -> list[VerificationReport]:
    cbasis = ch.enumerate_charged_basis(weight_cut2)
    hrep = heisenberg_bracket(
        "charged_heisenberg_bracket", ch.hA_mode, mmax_h, cbasis, ch.CHARGED, weight_cut2=weight_cut2
    )
    return [hrep] + [
        virasoro_bracket("charged_virasoro", ch.lA_family(lam, b), vir.central_charge(lam), mmax, cbasis, ch.CHARGED)
        for lam in lambdas
        for b in bs
    ]


SUITES: dict[str, Callable[..., list[VerificationReport]]] = {
    "clifford": suite_clifford,
    "heisenberg": suite_heisenberg,
    "sectors": suite_sectors,
    "decomposition": suite_decomposition,
    "virasoro-half": suite_virasoro_half,
    "virasoro-one": suite_virasoro_one,
    "virasoro-lambda": suite_virasoro_lambda,
    "doubling": suite_doubling,
    "eigenvalues": suite_eigenvalues,
    "identities": suite_identities,
    "characters": suite_characters,
    "iso": suite_iso,
    "winf": suite_winf,
    "charged": suite_charged,
}


def run_suite(name: str, **params) -> list[VerificationReport]:
    return SUITES[name](**params)
