"""Acceptance suite: every top-level claim, checked exactly (zero tolerance).

Each test prints one ``ACCEPTANCE n PASS|FAIL`` line (visible with
``pytest -s``); the cutoffs below bound only the tested set, since the
operators act lazily on the untruncated space.

Criterion n runs the n-th suite of ``SUITES`` at its default cut-offs, so
its reports must be, check by check, the matching rows of the
``verify all`` record in ``perfbench/expected.json``: a dropped, renamed,
added or resized check fails here too.  Their params must be the matching
rows of ``verify_all_params.json``, the ``[check, params]`` of each
``verify all --json`` line, so a report label cannot drift either.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from fockcheck.suites import (
    SUITES,
    run_suite,
    suite_charged,
    suite_clifford,
    suite_decomposition,
    suite_doubling,
    suite_eigenvalues,
    suite_heisenberg,
    suite_identities,
    suite_iso,
    suite_sectors,
    suite_virasoro_half,
    suite_virasoro_lambda,
    suite_virasoro_one,
    suite_winf,
)


HERE = Path(__file__).resolve().parent
VERIFY_ALL = json.loads((HERE.parent / "perfbench" / "expected.json").read_text())["verify-all"]
VERIFY_ALL_PARAMS = json.loads((HERE / "verify_all_params.json").read_text())
REPORTS_PER_SUITE = dict(zip(SUITES, (1, 2, 2, 2, 3, 3, 6, 4, 2, 4, 4, 3, 5, 7)))


def expected_rows(number, record=VERIFY_ALL):
    """The rows of the ``number``-th suite in a ``verify all`` record."""
    names = list(SUITES)
    start = sum(REPORTS_PER_SUITE[name] for name in names[: number - 1])
    return record[start : start + REPORTS_PER_SUITE[names[number - 1]]]


def test_suite_rows_partition_the_verify_all_record():
    assert len(REPORTS_PER_SUITE) == len(SUITES) == 14
    assert sum(REPORTS_PER_SUITE.values()) == len(VERIFY_ALL) == len(VERIFY_ALL_PARAMS) == 48
    assert [check for check, _ in VERIFY_ALL_PARAMS] == [check for check, _ in VERIFY_ALL]


def run_criterion(number, description, reports):
    ok = all(r.passed for r in reports)
    elapsed = sum(r.elapsed_ms for r in reports) / 1000
    cases = sum(r.cases_run for r in reports)
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description} "
          f"[{cases} cases, {elapsed:.1f}s]")
    for r in reports:
        for failure in r.failures[:3]:
            print(f"    defect in {r.check}: {failure}")
    assert ok, f"criterion {number} failed: {description}"
    assert [[r.check, r.cases_run] for r in reports] == expected_rows(number)
    assert [[r.check, r.to_dict()["params"]] for r in reports] == expected_rows(number, VERIFY_ALL_PARAMS)


def test_criterion_01_clifford():
    t0 = time.perf_counter()
    reports = suite_clifford(max_index2=15, weight_cut2=16)
    run_criterion(1, "Clifford anticommutators, |m| <= 15/2, weight <= 8", reports)
    assert time.perf_counter() - t0 < 10  # stated budget


def test_criterion_02_heisenberg():
    t0 = time.perf_counter()
    reports = suite_heisenberg(mmax=5, weight_cut2=20)
    run_criterion(2, "Heisenberg bracket |m|,|n| <= 5 on weight <= 10; dual construction", reports)
    assert time.perf_counter() - t0 < 60  # stated budget


def test_criterion_03_sector_dimensions():
    reports = suite_sectors(nmax=4, kmax=8)
    run_criterion(3, "dim of sector (n,k) = p(k), |n| <= 4, k <= 8; partition vectors injective", reports)


def test_criterion_04_decomposition():
    t0 = time.perf_counter()
    reports = suite_decomposition(hw_nmax=4, hw_mmax=5, span_nmax=3, span_kmax=5)
    run_criterion(4, "highest-weight structure |n| <= 4; spanning rank = p(k), |n| <= 3, k <= 5", reports)
    assert time.perf_counter() - t0 < 120  # stated budget


def test_criterion_05_virasoro_half():
    reports = suite_virasoro_half(mmax=4, weight_cut2=20)
    run_criterion(5, "Virasoro c=1/2 brackets for both half-charge families", reports)


def test_criterion_06_virasoro_one():
    reports = suite_virasoro_one(mmax=4, weight_cut2=20)
    run_criterion(6, "Virasoro c=1 brackets (current-squared and folded) + mode relation", reports)


def test_criterion_07_virasoro_lambda():
    reports = suite_virasoro_lambda(mmax=3, weight_cut2=16)
    run_criterion(7, "two-parameter family brackets at 4 parameter pairs + specialisations", reports)


def test_criterion_08_doubling():
    reports = suite_doubling(weight_cut2=16)
    run_criterion(8, "mode-dilution N=2 reproduces the folded family; N=3 bracket c=3/2; parity flip", reports)


def test_criterion_09_eigenvalues():
    reports = suite_eigenvalues(nmax=5, weight_cut2=16)
    run_criterion(9, "vacuum-like eigenvalue pins and joint (h0, L0) diagonalisation", reports)


def test_criterion_10_field_identities():
    reports = suite_identities(mmax=4, weight_cut2=16)
    run_criterion(10, "derivative and square identities of the current; diagonal bilinear vanishes", reports)


def test_criterion_11_characters():
    t0 = time.perf_counter()
    reports = run_suite("characters", qmax_half=19, jac_qmax=12)
    run_criterion(11, "trace = product = sum through q^(19/2); both Jacobi identities to q^12", reports)
    assert time.perf_counter() - t0 < 10  # stated budget


def test_criterion_12_isomorphism():
    reports = suite_iso(weight_cut2=16, mmax=4, max_index2=15)
    run_criterion(12, "dictionary transports relations; intertwines h; basis bijection at weight <= 8", reports)


def test_criterion_13_winf():
    reports = suite_winf(kmax=2, nmax=3, weight_cut2=16, mmax=4)
    run_criterion(13, "J0 = current on both spaces; bracket grid in closed form; J0 lift defect scalar", reports)


def test_criterion_14_charged_virasoro():
    reports = suite_charged(
        mmax_h=5,
        mmax=3,
        weight_cut2=16,
        lambdas=(Fraction(0), Fraction(1, 2), Fraction(1)),
        bs=(Fraction(0), Fraction(1, 3)),
    )
    run_criterion(14, "charged current bracket |m| <= 5; charged Virasoro c(lambda) at 6 parameter pairs", reports)
