"""Tests of the benchmark's own logic: output check, span arithmetic, seeds."""

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from inputs import WORKLOADS, suite_params
from layers import Boundary, Tracer
from run import failed_checks, layer_names

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


def passing(expected):
    return [[check, cases, True] for check, cases in expected]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_output_check_accepts_expected_run(workload):
    assert failed_checks(EXPECTED[workload], passing(EXPECTED[workload]), 0) == 0


def test_output_check_rejects_tampered_case_count():
    expected = EXPECTED["charged-iso"]
    got = passing(expected)
    got[3][1] -= 1
    assert failed_checks(expected, got, 0) == 1


def test_output_check_rejects_failing_report():
    expected = EXPECTED["neutral-grid"]
    got = passing(expected)
    got[0][2] = False
    assert failed_checks(expected, got, 0) == 1


def test_output_check_rejects_missing_extra_and_renamed_checks():
    expected = EXPECTED["verify-all"]
    got = passing(expected)
    assert failed_checks(expected, got[:-2], 0) == 2
    assert failed_checks(expected, got + [["extra", 1, True]], 0) == len(expected)
    got[5][0] = "renamed"
    assert failed_checks(expected, got, 0) == 1


def test_output_check_rejects_nonzero_exit():
    expected = EXPECTED["verify-all"]
    assert failed_checks(expected, passing(expected), 1) == len(expected)


CORE = """
CLOCK = [0.0]

def tick(dt):
    CLOCK[0] += dt

def inner():
    tick(2)

def outer():
    tick(1)
    inner()
    tick(3)
    inner()

class State:
    def scale(self, factor):
        tick(5)
        return self

    __rmul__ = scale
"""

USER = """
from tracedpkg.core import inner

def call_inner():
    inner()
"""


@pytest.fixture
def tracedpkg():
    pkg = types.ModuleType("tracedpkg")
    pkg.__path__ = []
    core = types.ModuleType("tracedpkg.core")
    user = types.ModuleType("tracedpkg.user")
    sys.modules.update({"tracedpkg": pkg, "tracedpkg.core": core, "tracedpkg.user": user})
    try:
        exec(CORE, vars(core))
        exec(USER, vars(user))
        yield core, user
    finally:
        for name in ("tracedpkg.user", "tracedpkg.core", "tracedpkg"):
            del sys.modules[name]


def test_self_time_subtracts_wrapped_children(tracedpkg):
    core, user = tracedpkg
    boundaries = (
        Boundary("outer_s", ("core:outer",), calls="outer_calls"),
        Boundary("inner_s", ("core:inner",), calls="inner_calls"),
        Boundary("state_s", ("core:State.scale",), calls="state_calls"),
    )
    original_inner = core.inner
    with Tracer(boundaries, package="tracedpkg", clock=lambda: core.CLOCK[0]) as tracer:
        core.outer()  # 1 + inner(2) + 3 + inner(2): duration 8, self 4
        user.call_inner()  # a by-name import, bound before the tracer existed
        2 * core.State()  # the __rmul__ alias of a wrapped method
        core.State().scale(2)
    assert tracer.values == {
        "outer_s": 4,
        "outer_calls": 1,
        "inner_s": 6,
        "inner_calls": 3,
        "state_s": 10,
        "state_calls": 2,
    }
    assert tracer.spans == {"outer_s": 1, "inner_s": 3, "state_s": 2}
    assert core.inner is original_inner and user.inner is original_inner
    assert core.State.__rmul__ is core.State.__dict__["scale"]


def test_tracer_patches_fockcheck_names_imported_by_value():
    from fockcheck import suites, verify

    original = verify.bracket_check
    with Tracer() as tracer:
        reports = suites.suite_clifford(max_index2=1, weight_cut2=2)
    assert tracer.spans["verify.self_s"] == 1
    assert tracer.values["verify.cases"] == reports[0].cases_run > 0
    assert tracer.spans["fock.basis_s"] == 1
    assert tracer.spans["modeops.apply_s"] == 0  # ModeOperator is not a traced boundary
    assert suites.bracket_check is verify.bracket_check is original


def test_layer_metrics_cover_benchmark_per_layer_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert set(layer_names()) == set(names)


def test_seed_zero_keeps_acceptance_defaults():
    assert suite_params(0) == {}


def test_other_seeds_draw_same_shape_from_small_rationals():
    params = suite_params(11)
    assert params == suite_params(11) != suite_params(12)
    pairs = params["virasoro-lambda"]["pairs"]
    lams, bs = params["charged"]["lambdas"], params["charged"]["bs"]
    assert (len(pairs), len(lams), len(bs)) == (4, 3, 2)
    values = [v for pair in pairs for v in pair] + list(lams) + list(bs)
    assert all(isinstance(v, Fraction) and abs(v.numerator) <= 7 and v.denominator <= 7 for v in values)
    assert not {lam for lam, _ in pairs} & {0, Fraction(1, 2), 1}
    assert 0 not in {b for _, b in pairs} | set(bs)
