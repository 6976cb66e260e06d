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
from . import winf
from .fock import NEUTRAL, FockState, Space, enumerate_basis, format_state, indices_of, iter_modes, weight
from .grading import dg, lemma_vector, partition_count, partitions, sector_grid, vacuum_like
from .heisenberg import (
    HEISENBERG_BILINEAR,
    h_mode,
    h_mode_bilinear,
    highest_weight_check,
    spanning_all,
)
from .modeops import AffineOperator, FermionBilinear, ModeOperator, bilinear_mode, zero_operator
from .qchar import character_triple_check, jacobi_check, sector_refinement_check
from .verify import VerificationReport, bracket_check, field_identity_check, merge_reports


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
    name: str, family: str, mode: Callable, c: Fraction, mmax: int, basis, space: Space = NEUTRAL
) -> VerificationReport:
    """The Virasoro grid of the family ``mode``, labelled ``family`` in the report."""
    expected, grid = virasoro_expected(c), square_grid(mmax)
    return bracket_check(name, "commutator", mode, expected, grid, basis, space, family=family, c=c, mmax=mmax)


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
        h_mode,
        h_mode_bilinear,
        range(-mmax, mmax + 1),
        basis,
    )
    return [bracket, dual]


def suite_sectors(nmax: int = 4, kmax: int = 8) -> list[VerificationReport]:
    """Sector dimensions p(k) and the partition-indexed sector vectors, read off one graded table."""
    with VerificationReport("sector_dimensions", {"nmax": nmax, "kmax": kmax}) as dims:
        sectors = sector_grid(nmax, kmax)  # inside, so that this report's time holds the one pass
        for (n, k), sector in sectors.items():
            dims.expect(len(sector), partition_count(k), lambda: f"dim of sector ({n}, {k}) vs p({k})")

    with VerificationReport("partition_vectors", {"kmax": kmax}) as inj:
        for k in range(kmax + 1):
            sector = set(sectors[0, k])
            seen: dict = {}
            for parts in partitions(k):
                mono = lemma_vector(parts)
                inj.expect(
                    (mono in sector, seen.setdefault(mono, parts)),
                    (True, parts),
                    lambda: f"partition {parts} -> {indices_of(mono)}: "
                    f"(in sector (0, {k}), first partition sent there)",
                )
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
    return [hw, spanning_all(span_nmax, span_kmax)]


# ``verify virasoro --family F`` (F other than lambda): check name, report label, mode function, central charge
VIRASORO_FAMILIES = {
    "half": ("virasoro_half", "L1/2", vir.l_half_mode, Fraction(1, 2)),
    "half~": ("virasoro_half_tilde", "L1/2~", vir.l_half_tilde_mode, Fraction(1, 2)),
    "one": ("virasoro_one_sugawara", "L1", vir.sugawara_l1_mode, Fraction(1)),
    "one~": ("virasoro_one_tilde", "L1~", vir.l1_tilde_mode, Fraction(1)),
}


def family_bracket(key: str, mmax: int, basis) -> VerificationReport:
    return virasoro_bracket(*VIRASORO_FAMILIES[key], mmax, basis)


def lambda_bracket(lam: Fraction, b: Fraction, mmax: int, basis) -> VerificationReport:
    lam, b = Fraction(lam), Fraction(b)
    return virasoro_bracket(
        "virasoro_lambda", f"L({lam},{b})", vir.lambda_family(lam, b), vir.central_charge(lam), mmax, basis
    )


def suite_virasoro_half(mmax: int = 4, weight_cut2: int = 20) -> list[VerificationReport]:
    basis = enumerate_basis(weight_cut2)
    return [
        family_bracket("half", mmax, basis),
        family_bracket("half~", mmax, basis),
        field_identity_check(
            "half_tilde_is_flip",
            vir.l_half_tilde_mode,
            vir.l_half_tilde_family_flip(),
            range(-mmax, mmax + 1),
            enumerate_basis(min(weight_cut2, 12)),
        ),
    ]


def l1_tilde_relation(mmax: int, weight_cut2: int) -> VerificationReport:
    """The tilde family of c = 1 against its field modes, at twice-weight <= min(cut, 16)."""
    return field_identity_check(
        "l1_tilde_mode_relation",
        vir.l1_tilde_mode,
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
            vir.lambda_family(Fraction(1, 2), Fraction(0)),
            vir.sugawara_l1_mode,
            range(-mmax, mmax + 1),
            basis,
        )
    )
    reports.append(
        field_identity_check(
            "lambda_specialises_to_one_tilde",
            vir.lambda_family(Fraction(1, 2), Fraction(-1, 4)),
            vir.l1_tilde_field_mode,
            range(-mmax, mmax + 1),
            basis,
        )
    )
    return reports


def suite_doubling(weight_cut2: int = 16) -> list[VerificationReport]:
    half = Fraction(1, 2)
    basis = enumerate_basis(weight_cut2)
    doubled = vir.doubling_construct(vir.l_half_mode, half, 2)
    tripled = vir.doubling_construct(vir.l_half_mode, half, 3)
    flipped = vir.l_half_tilde_family_flip()
    # L~^1_n as L^1_n + (1/4) h_n + (1/32) delta(n), by L^1_n = (1/2) L^{1/2}_{2n} - (1/4) h_n
    one_tilde = lambda n: AffineOperator(
        [(1, vir.sugawara_l1_mode(n)), (Fraction(1, 4), h_mode(n))], Fraction(1, 32) if n == 0 else 0
    )
    return [
        field_identity_check("doubling_n2_gives_one_tilde", doubled, one_tilde, range(-4, 5), basis),
        virasoro_bracket("doubling_n3_bracket", "L1/2^(x3)", tripled, Fraction(3, 2), 2, basis),
        virasoro_bracket("parity_flip_bracket", "L1/2~", flipped, half, 4, enumerate_basis(min(weight_cut2, 20))),
        field_identity_check(
            "doubling_n1_identity",
            vir.doubling_construct(vir.l_half_mode, half, 1),
            vir.l_half_mode,
            range(-4, 5),
            enumerate_basis(min(weight_cut2, 12)),
        ),
    ]


def suite_eigenvalues(nmax: int = 5, weight_cut2: int = 16) -> list[VerificationReport]:
    """Vacuum-like eigenvalue pins and joint diagonalisation of (h_0, L0)."""
    l0 = vir.l_half_mode(0)
    h0 = h_mode(0)
    ops = {"L0": l0, "h0": h0}

    def vacuum_like_pins(n: int) -> VerificationReport:
        scalars = {"L0": AffineOperator([], Fraction(n * (2 * n + 1), 2)), "h0": AffineOperator([], n)}
        return field_identity_check("eigenvalue_pins", ops.get, scalars.get, ops, [vacuum_like(n)], n=n)

    pins = merge_reports("eigenvalue_pins", {"nmax": nmax}, [vacuum_like_pins(n) for n in range(-nmax, nmax + 1)])

    with VerificationReport("joint_eigenbasis", {"weight_cut2": weight_cut2}) as joint:
        for mono in enumerate_basis(weight_cut2):
            v = FockState.monomial(mono)
            joint.expect(
                (h0.apply(v), l0.apply(v)),
                (v.scale(dg(mono)), v.scale(weight(mono))),
                lambda: f"(h0, L0) on {format_state(v)}",
            )
    return [pins, joint]


def suite_identities(mmax: int = 4, weight_cut2: int = 16) -> list[VerificationReport]:
    """The weight-two field identities and the vanishing of :phi(z) phi(z):."""
    basis = enumerate_basis(weight_cut2)

    def hderiv_rhs(m: int):
        return AffineOperator([(Fraction(1, 2), vir.weight2_mode(3, m)), (Fraction(1, 2), vir.weight2_mode(4, m))])

    def hsquare_rhs(m: int):
        parts = [(Fraction(1, 4), vir.weight2_mode(1, m)), (Fraction(1, 4), vir.weight2_mode(2, m))]
        if m % 2 == 0:
            parts.append((Fraction(-1, 2), h_mode(m // 2)))
        return AffineOperator(parts)

    reports = [
        field_identity_check(
            "heisenberg_derivative_identity",
            vir.h_derivative_mode,
            hderiv_rhs,
            range(-2 * mmax, 2 * mmax + 1),
            basis,
        ),
        field_identity_check(
            "heisenberg_square_identity",
            vir.h_square_mode,
            hsquare_rhs,
            range(-2 * mmax, 2 * mmax + 1),
            basis,
        ),
    ]
    diagonal = FermionBilinear(Fraction(1), 0, 0, 1, 1)  # :phi(z) phi(z):
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
        return ModeOperator(ch.charged_code(*ch.charged_mode_of(t)), ch.CHARGED)

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
        images = set()
        for mono in basis:
            sign, image = ch.to_charged_monomial(mono)
            images.add(image)
            back_sign, back = ch.from_charged_monomial(image)
            bij.expect(
                (back_sign * sign, indices_of(back)),
                (1, indices_of(mono)),
                lambda: f"round trip of {indices_of(mono)} through {tuple(map(indices_of, image))}",
            )
        expected_images = set(cbasis)
        as_indices = lambda monos: sorted(tuple(map(indices_of, mono)) for mono in monos)[:3]
        bij.expect(
            (as_indices(expected_images - images), as_indices(images - expected_images)),
            ([], []),
            lambda: "(missing, extra) images of the weight-truncated basis in the charged basis",
        )
    return [transport, intertwine, bij]


def suite_winf(kmax: int = 2, nmax: int = 3, weight_cut2: int = 16, mmax: int = 4) -> list[VerificationReport]:
    cbasis = ch.enumerate_charged_basis(weight_cut2)
    basis = enumerate_basis(weight_cut2)
    reports = [
        field_identity_check(
            "j0_equals_heisenberg_charged",
            lambda n: winf.MatrixLift(winf.glinf_matrix(0, n, winf.max_slot(cbasis) + abs(n) + 2)),
            ch.hA_mode,
            range(-mmax, mmax + 1),
            cbasis,
            space=ch.CHARGED,
        ),
        field_identity_check(
            "j0_equals_heisenberg_neutral",
            lambda n: winf.jk_mode_neutral(0, n),
            h_mode,
            range(-mmax, mmax + 1),
            basis,
        ),
    ]
    central = merge_reports(
        "j0_central_column",
        {"mmax": mmax},
        [winf.scalar_defect_check(0, m, 0, -m, cbasis) for m in range(1, mmax + 1)],
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
            lambda i: winf.jk_mode_charged(*i),
            winf.winf_expected,
            grid,
            cbasis,
            ch.CHARGED,
            kmax=kmax,
            nmax=nmax,
            weight_cut2=weight_cut2,
        )
    )

    def charge_or_j1(i: str):
        """h_0, which acts as the charge, or J^1_1 + J^1_-1: their bracket
        vanishes exactly when the sum preserves the charge."""
        if i == "h0":
            return h_mode(0)
        return AffineOperator([(1, winf.jk_mode_neutral(1, 1)), (1, winf.jk_mode_neutral(1, -1))])

    reports.append(
        bracket_check(
            "j1_preserves_charge",
            "commutator",
            charge_or_j1,
            lambda m, n: ([], 0),
            [("h0", "J1")],
            basis,
            weight_cut2=weight_cut2,
        )
    )
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
        virasoro_bracket(
            "charged_virasoro",
            f"LA({lam},{b})",
            ch.lA_family(lam, b),
            vir.central_charge(lam),
            mmax,
            cbasis,
            ch.CHARGED,
        )
        for lam in map(Fraction, lambdas)
        for b in map(Fraction, bs)
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
