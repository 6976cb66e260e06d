"""Outside-in layer trace of fockcheck, installed from the benchmark's files.

A :class:`Tracer` replaces the functions and methods listed in
:data:`BOUNDARIES` with timing wrappers.  A name imported by value (``from
.verify import bracket_check``) is a second binding of the same object, so
every namespace of the package that holds the original is patched, class
aliases such as ``FockState.__rmul__`` included.

Each wrapper records one span.  Its self time is the span's duration minus
the durations of the wrapped spans it directly contains; the self times of
all calls at a boundary are summed into one metric.  Spans are aggregated as
they close instead of being kept, because the hot boundaries close hundreds
of thousands of spans per repetition.

The per-monomial leaves (``apply_mode_to_monomial``,
``apply_pair_to_monomial``, ``add_term`` and their charged twins) run
millions of times per repetition and are not wrapped: wrapper cost would
swamp them.  Their time is part of the self time of the operator that
calls them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

STATE_OPS = ("__add__", "__sub__", "scale", "__eq__")


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: the wrapped targets and the metrics they feed."""

    time: str  # metric that sums the self time of every span at this boundary
    targets: tuple[str, ...]  # "module:qualname" inside the fockcheck package
    calls: str | None = None  # metric counting the spans
    terms_in: str | None = None  # metric summing len(state.terms) of the input state
    cases: str | None = None  # metric summing cases_run of the returned report


BOUNDARIES = (
    Boundary(
        "verify.self_s",
        ("verify:bracket_check", "verify:field_identity_check"),
        cases="verify.cases",
    ),
    Boundary(
        "modeops.apply_s",
        ("modeops:QuadraticModeOperator.apply",),
        calls="modeops.apply_calls",
        terms_in="modeops.monomials_in",
    ),
    Boundary("modeops.affine_s", ("modeops:AffineOperator.apply",)),
    Boundary("fock.state_s", tuple(f"fock:FockState.{op}" for op in STATE_OPS), calls="fock.state_ops"),
    Boundary("fock.basis_s", ("fock:enumerate_basis",)),
    Boundary("virasoro.sugawara_s", ("virasoro:SugawaraOperator.apply",)),
    Boundary(
        "charged.apply_s",
        ("charged:ChargedQuadraticOperator.apply",),
        calls="charged.apply_calls",
        terms_in="charged.monomials_in",
    ),
    Boundary("charged.affine_s", ("charged:ChargedAffineOperator.apply",)),
    Boundary(
        "charged.state_s", tuple(f"charged:ChargedState.{op}" for op in STATE_OPS), calls="charged.state_ops"
    ),
    Boundary("charged.basis_s", ("charged:enumerate_charged_basis",)),
    Boundary("winf.defect_s", ("winf:scalar_defect_check",)),
    Boundary("winf.lift_s", ("winf:MatrixLift.apply",)),
    Boundary("winf.commutator_s", ("winf:matrix_commutator",)),
)


def _namespaces(package: str):
    """Every module of ``package`` and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    """Aggregated spans at :data:`BOUNDARIES`; use as a context manager."""

    def __init__(self, boundaries=BOUNDARIES, package: str = "fockcheck", clock=time.perf_counter):
        self.boundaries = boundaries
        self.package = package
        self.clock = clock
        self.values: dict[str, float] = {}
        self.spans: dict[str, int] = {}  # spans closed per boundary, named by its time metric
        for b in boundaries:
            self.spans[b.time] = 0
            for name in (b.time, b.calls, b.terms_in, b.cases):
                if name:
                    self.values[name] = 0
        self._open = [0.0]  # wrapped-child time of each open span; [0] is the root
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, boundary: Boundary, fn):
        clock, open_spans, values, spans = self.clock, self._open, self.values, self.spans
        key, calls, terms_in, cases = boundary.time, boundary.calls, boundary.terms_in, boundary.cases

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                open_spans[-1] += duration
                values[key] += duration - children
                spans[key] += 1
            if calls:
                values[calls] += 1
            if terms_in:
                values[terms_in] += len(args[1].terms)
            if cases:
                values[cases] += result.cases_run
            return result

        return span

    def __enter__(self) -> "Tracer":
        for boundary in self.boundaries:
            for target in boundary.targets:
                module_name, qualname = target.split(":")
                owner = importlib.import_module(f"{self.package}.{module_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapped = self.wrap(boundary, original)
                for namespace in _namespaces(self.package):
                    for name, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, name, wrapped)
                            self._restore.append((namespace, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for namespace, name, original in reversed(self._restore):
            setattr(namespace, name, original)
        self._restore.clear()
