"""Negative controls: each check goes red on one injected defect.

Every control replaces one dependency of a check (through ``monkeypatch``)
with a wrong variant and asserts that the check it feeds fails with a
witness.  A check that stays green here could not fail at all.  Every check
of ``verify all`` has a control, directly or through the sub-check a merged
report folds in; the bracket grids get theirs at the operator level (a
central charge, a constant, a shift, the mode dictionary, one sign of
``h_mode``, a W_{1+infinity} structure constant and central term).
"""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fockcheck import charged, heisenberg, qchar, suites, virasoro, winf
from fockcheck.fock import FockState, enumerate_basis
from fockcheck.modeops import COLUMNS, ModeOperator, QuadraticModeOperator
from fockcheck.verify import VerificationReport


def plus_one(f):
    return lambda *args: f(*args) + 1


def plus_half(f):
    return lambda *args: f(*args) + Fraction(1, 2)


def shifted_charge(f):
    return lambda n: f(n + 1)


def sign_flipped(f):
    def flipped(mono):
        sign, image = f(mono)
        return -sign, image

    return flipped


def doubled_factor(f):
    return lambda z, qhalf, coeff, qmax_half: f(z, qhalf, 2 * coeff, qmax_half)


def without_shift(f):
    return lambda base, c, N: f(base, 0, N)  # c = 0 drops the delta(n) shift


def mode_plus_one(f):
    def shifted(t):
        species, m = f(t)
        return species, m + 1

    return shifted


def first_summand_flipped(f):
    def mode(n):
        op = f(n)

        def rule(i):
            p, q, c = op.rule(i)
            return p, q, -c if i == 0 else c

        return QuadraticModeOperator(rule, op.support, op.denominator, ("first summand flipped", op.key), op.space)

    return mode


def mirror_sign_flipped(f):
    def pair_sum(rule, T, denominator, key):
        def flipped(i):
            p, q, w = rule(i)
            return (p, q, -w) if 2 * i > T else (p, q, w)

        return f(flipped, T, denominator, ("mirror sign flipped", key))

    return pair_sum


def first_partition_for_last(f):
    def partitions(k):
        parts = list(f(k))
        return parts[:-1] + parts[:1] if k >= 2 else parts

    return partitions


def without_charge(n):
    return lambda f: lambda weight_cut2: {key: monos for key, monos in f(weight_cut2).items() if key[0] != n}


CBASIS = charged.enumerate_charged_basis(6)


def lambda_bracket():
    return [suites.lambda_bracket(Fraction(1, 3), Fraction(2, 5), 2, enumerate_basis(2))]


def shifted_matrix(f):
    return lambda k, n, radius: f(k, n + 1, radius)


def first_entry_plus_one(f):
    def shifted(*args):
        head, *rest = f(*args)
        return [head + 1, *rest]

    return shifted


def winf_grid():
    return suites.suite_winf(kmax=1, nmax=2, weight_cut2=6, mmax=1)


def central_term_check():
    return [winf.scalar_defect_check(1, 2, 0, -2, CBASIS)]  # the cocycle is 3 here


def central_charge_plus_half(f):
    return lambda c: f(c + Fraction(1, 2))


def dilute_n1_by_two(f):
    return lambda base, c, N: f(base, c, N + 1 if N == 1 else N)


def extra_left_derivative(f):
    return lambda bil, e: f(replace(bil, dleft=bil.dleft + 1), e)


def virasoro_half():
    return suites.suite_virasoro_half(2, 4)


def virasoro_one():
    return suites.suite_virasoro_one(2, 4)


def identities():
    return suites.suite_identities(1, 4)


def lambda_specialisations():
    return suites.suite_virasoro_lambda(pairs=(), mmax=1, weight_cut2=4)


def winf_small():
    return suites.suite_winf(kmax=0, nmax=0, weight_cut2=4, mmax=1)


def charged_heisenberg():
    return suites.suite_charged(mmax_h=2, mmax=0, weight_cut2=4, lambdas=(), bs=())


def charged_virasoro():
    return suites.suite_charged(mmax_h=0, mmax=2, weight_cut2=2, lambdas=(Fraction(1, 3),), bs=(Fraction(0),))


# check name, owner of the dependency, its name, the defect, the reports to search
CONTROLS = [
    ("sector_dimensions", suites, "partition_count", plus_one, lambda: suites.suite_sectors(1, 3)),
    ("partition_vectors", suites, "lemma_vector", lambda f: lambda parts: f(()), lambda: suites.suite_sectors(1, 3)),
    ("eigenvalue_pins", suites, "vacuum_like", shifted_charge, lambda: suites.suite_eigenvalues(1, 4)),
    ("joint_eigenbasis", suites, "dg", plus_one, lambda: suites.suite_eigenvalues(1, 4)),
    ("heisenberg_intertwining", charged, "hA_mode", shifted_charge, lambda: suites.suite_iso(4, 1, 3)),
    ("state_map_bijection", charged, "to_charged_monomial", sign_flipped, lambda: suites.suite_iso(4, 1, 3)),
    (
        "j1_preserves_charge",
        winf,
        "jk_mode_neutral",
        lambda f: lambda k, n: ModeOperator(-1),
        lambda: suites.suite_winf(kmax=0, nmax=0, weight_cut2=4, mmax=1),
    ),
    ("highest_weight", heisenberg, "vacuum_like", shifted_charge, lambda: [heisenberg.highest_weight_check(1, 2)]),
    ("spanning_all", heisenberg, "partition_count", plus_one, lambda: [heisenberg.spanning_all(1, 3)]),
    ("sector_refinement", qchar, "partition_count", plus_one, lambda: [qchar.sector_refinement_check(8)]),
    ("character_triple", qchar, "binomial_factor", doubled_factor, lambda: [qchar.character_triple_check(8)]),
    ("jacobi", qchar, "binomial_factor", doubled_factor, lambda: [qchar.jacobi_check("DA", 4)]),
    ("jacobi", qchar, "binomial_factor", doubled_factor, lambda: [qchar.jacobi_check("A", 4)]),
    # a neutral pair sum folding in its mirrored summands with the wrong sign, w_i + w_{T-i}
    ("heisenberg_bracket", heisenberg, "pair_sum", mirror_sign_flipped, lambda: suites.suite_heisenberg(2, 6)),
    ("winf_scalar_defect", winf, "_rising", plus_one, lambda: [winf.scalar_defect_check(1, 1, 1, -1, CBASIS)]),
    # operator level; the central-charge term (m^3 - m)/12 needs |m| >= 2
    ("virasoro_lambda", virasoro, "central_charge", plus_half, lambda_bracket),
    ("charged_virasoro", virasoro, "central_charge", plus_half, charged_virasoro),
    ("virasoro_lambda", virasoro, "lambda_b_constant", plus_one, lambda_bracket),
    ("doubling_n2_gives_one_tilde", virasoro, "doubling_construct", without_shift, lambda: suites.suite_doubling(4)),
    ("dictionary_clifford_transport", charged, "charged_mode_of", mode_plus_one, lambda: suites.suite_iso(4, 1, 3)),
    ("heisenberg_bracket", suites, "h_mode", first_summand_flipped, lambda: suites.suite_heisenberg(2, 6)),
    ("heisenberg_dual_construction", suites, "h_mode", first_summand_flipped, lambda: suites.suite_heisenberg(2, 6)),
    # a wrong central term at n1 = -n2, where the cocycle can be nonzero
    ("winf_scalar_defect", winf, "glinf_cocycle", plus_one, central_term_check),
    # the closed-form W_{1+infinity} grid: one structure constant, then the central term
    ("winf_matrix_defects", winf, "structure_constants", first_entry_plus_one, winf_grid),
    ("winf_matrix_defects", winf, "glinf_cocycle", plus_one, winf_grid),
    # the lifted window matrix of J^0 against hA_n, mode by mode
    (
        "j0_equals_heisenberg_charged",
        winf,
        "glinf_matrix",
        shifted_matrix,
        lambda: suites.suite_winf(kmax=0, nmax=0, weight_cut2=4, mmax=1),
    ),
    (
        "clifford_anticommutator",
        suites,
        "ModeOperator",
        lambda f: lambda t: f(t + 2),
        lambda: suites.suite_clifford(3, 4),
    ),
    ("charged_heisenberg_bracket", charged, "hA_mode", first_summand_flipped, charged_heisenberg),
    ("virasoro_half", suites, "virasoro_expected", central_charge_plus_half, virasoro_half),
    ("virasoro_half_tilde", suites, "virasoro_expected", central_charge_plus_half, virasoro_half),
    ("virasoro_one_sugawara", suites, "virasoro_expected", central_charge_plus_half, virasoro_one),
    ("virasoro_one_tilde", suites, "virasoro_expected", central_charge_plus_half, virasoro_one),
    ("doubling_n3_bracket", suites, "virasoro_expected", central_charge_plus_half, lambda: suites.suite_doubling(4)),
    ("parity_flip_bracket", suites, "virasoro_expected", central_charge_plus_half, lambda: suites.suite_doubling(4)),
    ("half_tilde_is_flip", virasoro, "parity_flip", lambda f: lambda family: family, virasoro_half),
    ("l1_tilde_mode_relation", virasoro, "l1_tilde_field_mode", shifted_charge, virasoro_one),
    ("lambda_specialises_to_one", virasoro, "lambda_b_constant", plus_one, lambda_specialisations),
    ("lambda_specialises_to_one_tilde", virasoro, "lambda_b_constant", plus_one, lambda_specialisations),
    # the shift (N^2 - 1) c / 24N vanishes at N = 1, so only the dilution can break it
    ("doubling_n1_identity", virasoro, "doubling_construct", dilute_n1_by_two, lambda: suites.suite_doubling(4)),
    ("heisenberg_derivative_identity", virasoro, "h_mode", shifted_charge, identities),
    ("heisenberg_square_identity", virasoro, "sugawara_l1_mode", shifted_charge, identities),
    ("diagonal_bilinear_vanishes", suites, "bilinear_mode", extra_left_derivative, identities),
    ("heisenberg_field_odd_modes_only", suites, "bilinear_mode", extra_left_derivative, identities),
    ("j0_equals_heisenberg_neutral", winf, "jk_mode_neutral", lambda f: lambda k, n: f(k, n + 1), winf_small),
    # the lambda family is built on L^{1/2} and h, so only the right side of the c = 1 specialisation
    # reads the Sugawara sum, and the lambda brackets read L^{1/2}
    ("lambda_specialises_to_one", virasoro, "sugawara_l1_mode", shifted_charge, lambda_specialisations),
    ("virasoro_lambda", virasoro, "l_half_mode", shifted_charge, lambda_bracket),
    # both tilde specialisations compare an L^{1/2} side with one built without L^{1/2}
    ("lambda_specialises_to_one_tilde", virasoro, "l_half_mode", shifted_charge, lambda_specialisations),
    ("doubling_n2_gives_one_tilde", virasoro, "l_half_mode", shifted_charge, lambda: suites.suite_doubling(4)),
    # the rank, not the dimension: each sector's last vector repeats its first
    ("spanning_all", heisenberg, "partitions", first_partition_for_last, lambda: [heisenberg.spanning_all(1, 3)]),
    # a whole charge bucket missing from the trace, not a wrong coefficient in one
    ("sector_refinement", qchar, "graded_basis", without_charge(1), lambda: [qchar.sector_refinement_check(8)]),
]

# a merged report and the sub-check whose control covers it
MERGED = {"highest_weight_all": "highest_weight", "j0_central_column": "winf_scalar_defect"}


@pytest.fixture(autouse=True)
def fresh_columns_after():
    """Empty the column store after each control: a defect patched into a
    constructor that a keyed operator reads (``virasoro.h_mode`` inside the
    L^1 columns) could otherwise leave wrong columns under right keys."""
    yield
    COLUMNS.clear()


@pytest.mark.parametrize(
    "check,owner,name,defect,run", CONTROLS, ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(CONTROLS)]
)
def test_injected_defect_turns_check_red(monkeypatch, check, owner, name, defect, run):
    assert all(rep.passed for rep in run() if rep.check == check)
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    [report] = [rep for rep in run() if rep.check == check]
    assert not report.passed
    assert 0 < report.failures_total <= report.cases_run
    assert all(failure["witness"] and failure["lhs"] != failure["rhs"] for failure in report.failures)


def test_expect_counts_renders_and_builds_witness_only_on_failure():
    calls = []

    def witness():
        calls.append(1)
        return "the case"

    with VerificationReport("demo", {}) as report:
        report.expect(FockState.vacuum(), FockState.vacuum(), witness)
        report.expect(3, 3, witness)
        assert calls == [] and report.passed
        report.expect(FockState.vacuum().scale(2), FockState.vacuum(), witness)
        report.expect(Fraction(1, 2), 1, witness)
    assert report.cases_run == 4
    assert calls == [1, 1]
    assert report.failures == [
        {"witness": "the case", "lhs": "2 |0>", "rhs": "|0>"},
        {"witness": "the case", "lhs": "1/2", "rhs": "1"},
    ]
    assert report.elapsed_ms >= 0


def test_every_verify_all_check_has_a_control():
    rows = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())["verify-all"]
    controlled = {control[0] for control in CONTROLS}
    assert set(MERGED.values()) <= controlled
    assert {MERGED.get(check, check) for check, _ in rows} <= controlled
