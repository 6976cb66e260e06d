"""Every layer a benchmark workload lists records spans under the tracer.

``perfbench/run.py --trace 1`` reads ``"correct": false`` when a listed
layer stays silent, for example after a refactor stops calling a traced
method.  This runs each in-process workload's suites at tiny cut-offs under
the benchmark's own :class:`layers.Tracer`, so such a refactor fails here.
"""

import sys
from pathlib import Path

import pytest

from fockcheck.modeops import COLUMNS
from fockcheck.suites import run_suite

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from inputs import WORKLOADS  # noqa: E402
from layers import Tracer  # noqa: E402

TINY = {
    "heisenberg": {"mmax": 1, "weight_cut2": 4},
    "virasoro-half": {"mmax": 2, "weight_cut2": 4},
    "virasoro-one": {"mmax": 2, "weight_cut2": 4},
    "virasoro-lambda": {"mmax": 2, "weight_cut2": 4},
    "doubling": {"weight_cut2": 4},
    "iso": {"weight_cut2": 4, "mmax": 1, "max_index2": 3},
    "winf": {"kmax": 1, "nmax": 1, "weight_cut2": 4, "mmax": 1},
    "charged": {"mmax_h": 1, "mmax": 2, "weight_cut2": 4},
}


@pytest.mark.parametrize("workload", ["neutral-grid", "charged-iso"])
def test_every_listed_layer_records_spans(workload):
    spec = WORKLOADS[workload]
    COLUMNS.clear()  # a benchmark repetition starts from an empty store
    with Tracer() as tracer:
        reports = [rep for name in spec["suites"] for rep in run_suite(name, **TINY[name])]
    assert reports and all(rep.passed for rep in reports)
    silent = [layer for layer in spec["layers"] if not tracer.spans[layer]]
    assert not silent, silent
