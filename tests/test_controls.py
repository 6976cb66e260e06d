"""Negative controls: each check goes red on one injected defect.

Every control replaces one dependency of a check (through ``monkeypatch``)
with a wrong variant and asserts that the check it feeds fails with a
witness.  A check that stays green here could not fail at all.  The
hand-written checks get one control each; the bracket grids get controls at
the operator level (a central charge, a constant, a shift, the mode
dictionary, one sign of ``h_mode``, a W_{1+infinity} structure constant and
central term).
"""

from fractions import Fraction

import pytest

from fockcheck import charged, heisenberg, qchar, suites, virasoro, winf
from fockcheck.fock import FockState, enumerate_basis
from fockcheck.modeops import ModeOperator, QuadraticModeOperator
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

        return QuadraticModeOperator(rule, op.support, op.denominator, ("first summand flipped", op.key))

    return mode


CBASIS = charged.enumerate_charged_basis(6)


def lambda_bracket():
    return [suites.lambda_bracket(Fraction(1, 3), Fraction(2, 5), 2, enumerate_basis(2))]


def first_entry_plus_one(f):
    def shifted(*args):
        head, *rest = f(*args)
        return [head + 1, *rest]

    return shifted


def winf_grid():
    return suites.suite_winf(kmax=1, nmax=2, weight_cut2=6, mmax=1)


def central_term_check():
    return [winf.scalar_defect_check(1, 2, 0, -2, CBASIS)]  # the cocycle is 3 here


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
        suites,
        "jk_mode_neutral",
        lambda f: lambda k, n: ModeOperator(-1),
        lambda: suites.suite_winf(kmax=0, nmax=0, weight_cut2=4, mmax=1),
    ),
    ("highest_weight", heisenberg, "vacuum_like", shifted_charge, lambda: [heisenberg.highest_weight_check(1, 2)]),
    ("spanning", heisenberg, "partition_count", plus_one, lambda: [heisenberg.spanning_check(0, 3)]),
    ("sector_refinement", qchar, "partition_count", plus_one, lambda: [qchar.sector_refinement_check(8)]),
    ("character_triple", qchar, "binomial_factor", doubled_factor, lambda: [qchar.character_triple_check(8)]),
    ("jacobi", qchar, "binomial_factor", doubled_factor, lambda: [qchar.jacobi_check("DA", 4)]),
    ("jacobi", qchar, "binomial_factor", doubled_factor, lambda: [qchar.jacobi_check("A", 4)]),
    ("virasoro_weights", qchar, "weight", plus_one, lambda: [qchar.virasoro_weight_check(1, 2)]),
    ("winf_scalar_defect", winf, "_rising", plus_one, lambda: [winf.scalar_defect_check(1, 1, 1, -1, CBASIS)]),
    # operator level; the central-charge term (m^3 - m)/12 needs |m| >= 2
    ("virasoro_lambda", virasoro, "central_charge", plus_half, lambda_bracket),
    ("charged_virasoro", virasoro, "central_charge", plus_half, charged_virasoro),
    ("virasoro_lambda", virasoro, "lambda_b_constant", plus_one, lambda_bracket),
    ("doubling_n2_gives_one_tilde", virasoro, "doubling_construct", without_shift, lambda: suites.suite_doubling(4)),
    ("dictionary_clifford_transport", charged, "charged_mode_of", mode_plus_one, lambda: suites.suite_iso(4, 1, 3)),
    ("heisenberg_bracket", suites, "h_mode", first_summand_flipped, lambda: suites.suite_heisenberg(2, 6)),
    ("heisenberg_dual_construction", heisenberg, "h_mode", first_summand_flipped, lambda: suites.suite_heisenberg(2, 6)),
    # a wrong central term at n1 = -n2, where the cocycle can be nonzero
    ("winf_scalar_defect", winf, "glinf_cocycle", plus_one, central_term_check),
    # the closed-form W_{1+infinity} grid: one structure constant, then the central term
    ("winf_matrix_defects", winf, "structure_constants", first_entry_plus_one, winf_grid),
    ("winf_matrix_defects", winf, "glinf_cocycle", plus_one, winf_grid),
]


@pytest.mark.parametrize(
    "check,owner,name,defect,run", CONTROLS, ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(CONTROLS)]
)
def test_injected_defect_turns_check_red(monkeypatch, check, owner, name, defect, run):
    assert all(rep.passed for rep in run() if rep.check == check)
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    [report] = [rep for rep in run() if rep.check == check]
    assert not report.passed
    assert report.cases_run > 0
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
