"""Generic exact relation checking over operator families and finite bases.

Every check evaluates an operator identity on a finite grid of mode pairs
and basis vectors with exact rational arithmetic; a check fails on any
nonzero defect, so there is no tolerance anywhere.  Failures are data, not
exceptions, and carry a full witness (the basis vector plus both sides) so
a red check is reproducible from its report alone.

Every check reports through one :class:`VerificationReport`, used as a
context manager that times its body.  ``report.expect(got, want, witness)``
counts one case and records a failure when the two sides differ; the
witness text and the rendered sides are built only then.  A case with
several conditions counts ``cases_run`` and calls ``record`` itself, and
:func:`merge_reports` folds sub-reports into one.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .fock import NEUTRAL, FockState, Space, format_state


@dataclass
class VerificationReport:
    """Machine-readable outcome of one exact check; ``with`` times its body."""

    check: str
    params: dict
    cases_run: int = 0
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: int = 0

    def __enter__(self) -> "VerificationReport":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_ms = int(1000 * (time.perf_counter() - self._start))

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, witness: str, lhs: str, rhs: str) -> None:
        self.failures.append({"witness": witness, "lhs": lhs, "rhs": rhs})

    def expect(self, got, want, witness: Callable[[], str]) -> None:
        """Count one case and record it when ``got != want``.

        ``witness()`` names the case; it and the rendered sides (states by
        :func:`format_state`, anything else by ``str``) are built only for a
        failing case.
        """
        self.cases_run += 1
        if got != want:
            self.record(witness(), _render(got), _render(want))

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "cases_run": self.cases_run,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} defects)"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.check}: {status} [{self.cases_run} cases, {self.elapsed_ms} ms] {params}"


def _render(value) -> str:
    return format_state(value) if isinstance(value, FockState) else str(value)


def merge_reports(name: str, params: dict, reports: Iterable[VerificationReport]) -> VerificationReport:
    """One report over ``reports``: cases and time summed, witnesses tagged by check."""
    out = VerificationReport(name, params)
    for rep in reports:
        out.cases_run += rep.cases_run
        out.elapsed_ms += rep.elapsed_ms
        for failure in rep.failures:
            out.failures.append({**failure, "witness": f"[{rep.check}] {failure['witness']}"})
    return out


@dataclass(frozen=True)
class BracketSpec:
    """A (anti)commutation relation ``[left_m, right_n]_± = expected(m, n)``.

    ``expected(m, n)`` returns ``(ops, scalar)`` with ``ops`` a finite list of
    ``(coefficient, operator)`` summands and ``scalar`` the identity part.
    """

    name: str
    kind: str  # "commutator" | "anticommutator"
    left: Callable[[int], object]
    right: Callable[[int], object]
    expected: Callable[[int, int], tuple[list[tuple[Fraction, object]], Fraction]]

    def __post_init__(self):
        if self.kind not in ("commutator", "anticommutator"):
            raise ValueError(f"unknown bracket kind {self.kind!r}")


def bracket_check(
    spec: BracketSpec,
    mode_pairs: Iterable[tuple[int, int]],
    basis: Sequence,
    space: Space = NEUTRAL,
) -> VerificationReport:
    """Evaluate a bracket relation on every (mode pair, basis vector).

    ``basis`` holds monomials of ``space``.
    """
    pairs = list(mode_pairs)
    sign = 1 if spec.kind == "anticommutator" else -1
    with VerificationReport(spec.name, {"kind": spec.kind, "pairs": len(pairs), "basis": len(basis)}) as report:
        for m, n in pairs:
            left_m = spec.left(m)
            right_n = spec.right(n)
            ops, scalar = spec.expected(m, n)
            for mono in basis:
                v = FockState.monomial(mono, space=space)
                lhs = left_m.apply(right_n.apply(v)) + right_n.apply(left_m.apply(v)).scale(sign)
                rhs = v.scale(scalar)
                for c, op in ops:
                    if c:
                        rhs = rhs + op.apply(v).scale(c)
                report.expect(lhs, rhs, lambda: f"(m={m}, n={n}) on {format_state(v)}")
    return report


def field_identity_check(
    name: str,
    left_mode: Callable[[int], object],
    right_mode: Callable[[int], object],
    modes: Iterable[int],
    basis: Sequence,
    space: Space = NEUTRAL,
) -> VerificationReport:
    """Assert ``left_mode(n) v == right_mode(n) v`` exactly over the grid of
    modes and monomials of ``space``."""
    modes = list(modes)
    with VerificationReport(name, {"modes": len(modes), "basis": len(basis)}) as report:
        for n in modes:
            a = left_mode(n)
            b = right_mode(n)
            for mono in basis:
                v = FockState.monomial(mono, space=space)
                report.expect(a.apply(v), b.apply(v), lambda: f"(n={n}) on {format_state(v)}")
    return report


def fraction_free_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination."""
    mat = []
    for row in rows:
        denom = 1
        for x in row:
            denom = math.lcm(denom, x.denominator)
        mat.append([int(x * denom) for x in row])
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, n_rows):
            for c in range(col + 1, n_cols):
                mat[r][c] = (pivot * mat[r][c] - mat[r][col] * mat[rank][c]) // prev
            mat[r][col] = 0
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank

