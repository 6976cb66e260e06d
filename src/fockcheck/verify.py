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
:func:`merge_reports` folds sub-reports into one.  A report counts every
failure in ``failures_total`` but keeps only the first
:data:`MAX_WITNESSES` witnesses, so a broken operator cannot write an
unbounded report.

Every operator checked here is quasi-finite: it sends a basis monomial to a
finite combination of monomials, its *column*.  :func:`bracket_check`
builds each mode operator once per check and composes both orders of every
grid pair, and the expected side, from columns.  Every column is read
through :func:`fockcheck.modeops.column`, which decides whether it comes
from the process-wide column store (so a column an earlier check computed
is not computed again) or from the operator's own ``apply``; the check
keeps the columns the store does not, once per monomial, and those die
with it.

States are ``int`` numerators over one denominator, and every operator
declares the ``denominator`` of its action (see :mod:`fockcheck.modeops`).
A column is kept as ``int`` numerators over its operator's denominator, and
a coefficient outside that ``(1/D)Z`` raises ``ArithmeticError``, so a
wrong declaration is never a quiet pass.  Each grid pair is composed in
``int`` numerators over one common denominator, so a case holds when the
two sides' numerators agree; states are built only to render a failing
case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .fock import NEUTRAL, FockState, Space, format_state
from .modeops import COLUMNS, Column, column

MAX_WITNESSES = 20  # failures kept per report; failures_total counts them all


@dataclass
class VerificationReport:
    """Machine-readable outcome of one exact check; ``with`` times its body.

    ``failures`` holds at most :data:`MAX_WITNESSES` witnesses, the first
    ones recorded; ``failures_total`` counts every failure.
    """

    check: str
    params: dict
    cases_run: int = 0
    failures: list[dict] = field(default_factory=list)
    failures_total: int = 0
    elapsed_ms: int = 0

    def __enter__(self) -> "VerificationReport":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_ms = int(1000 * (time.perf_counter() - self._start))

    @property
    def passed(self) -> bool:
        return not self.failures_total

    def record(self, witness: str, lhs: str, rhs: str) -> None:
        self.failures_total += 1
        if len(self.failures) < MAX_WITNESSES:
            self.failures.append({"witness": witness, "lhs": lhs, "rhs": rhs})

    def expect(self, got, want, witness: Callable[[], str]) -> None:
        """Count one case and record it when ``got != want``.

        ``witness()`` names the case; it and the rendered sides (states by
        :func:`format_state`, anything else by ``str``) are built only for a
        failing case.
        """
        self.cases_run += 1
        if got != want:
            self.fail(witness, lambda: (got, want))

    def fail(self, witness: Callable[[], str], sides: Callable[[], tuple]) -> None:
        """Record one failing case; ``witness()`` and ``sides()``, which
        returns ``(got, want)``, are called only while witnesses are kept."""
        if len(self.failures) < MAX_WITNESSES:
            got, want = sides()
            self.record(witness(), _render(got), _render(want))
        else:  # a witness past the cap would be dropped: skip rendering it
            self.failures_total += 1

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "cases_run": self.cases_run,
            "failures": self.failures,
            "failures_total": self.failures_total,
            "elapsed_ms": self.elapsed_ms,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.failures_total} defects)"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.check}: {status} [{self.cases_run} cases, {self.elapsed_ms} ms] {params}"


def _render(value) -> str:
    return format_state(value) if isinstance(value, FockState) else str(value)


def merge_reports(name: str, params: dict, reports: Iterable[VerificationReport]) -> VerificationReport:
    """One report over ``reports``: cases, failures and time summed, the first
    :data:`MAX_WITNESSES` witnesses kept and tagged by check."""
    out = VerificationReport(name, params)
    for rep in reports:
        out.cases_run += rep.cases_run
        out.elapsed_ms += rep.elapsed_ms
        out.failures_total += rep.failures_total
        for failure in rep.failures[: MAX_WITNESSES - len(out.failures)]:
            out.failures.append({**failure, "witness": f"[{rep.check}] {failure['witness']}"})
    return out


class _Columns:
    """The mode operators of one check and their columns.

    ``mode(i)`` is built once per index.  ``column(i, mono)`` is its column
    on ``mono`` (:func:`fockcheck.modeops.column`): ``int`` numerators over
    the operator's declared ``denominator``.  The columns of an operator
    the column store holds are read from its table there; any other
    operator's are kept here, computed once per monomial for this check.  A
    mode index is any hashable.
    """

    def __init__(self, mode: Callable[[Hashable], object], space: Space):
        self.mode = mode
        self.space = space
        self.memo: dict[Hashable, tuple[object, dict[object, Column]]] = {}

    def operator(self, i: Hashable):
        """``(mode(i), the columns of it held now)``."""
        entry = self.memo.get(i)
        if entry is None:
            entry = self.memo[i] = self.held(self.mode(i), {})
        return entry

    def held(self, op, own: dict) -> tuple[object, dict[object, Column]]:
        """``(op, its table in the column store)``, or ``(op, own)`` for an
        operator the store does not hold."""
        table = COLUMNS.table(op, self.space)
        return op, own if table is None else table

    def denominator(self, i: Hashable) -> int:
        return self.operator(i)[0].denominator

    def column(self, i: Hashable, mono) -> Column:
        op, cols = self.operator(i)
        col = cols.get(mono)
        if col is None:
            col = cols[mono] = column(op, mono, self.space)
            self.memo[i] = self.held(op, cols)  # a fill may have cleared the store
        return col

    def compose(self, i: Hashable, col: Column, factor: int, acc: dict) -> None:
        """Accumulate ``factor * D_i * mode(i)`` applied to the vector ``col``
        into ``acc``, with ``D_i`` the denominator of ``mode(i)``."""
        cols = self.operator(i)[1]
        get = acc.get
        for mid, c in col:
            c *= factor
            known = cols.get(mid)
            for out, d in self.column(i, mid) if known is None else known:
                acc[out] = get(out, 0) + c * d


def _scaled(c: Fraction | int, denominator: int) -> int:
    """``c * denominator``, an int because ``denominator`` is a multiple of ``c``'s."""
    return c.numerator * (denominator // c.denominator)


Expected = Callable[[Hashable, Hashable], tuple[list[tuple[Fraction, Hashable]], Fraction | int]]


def bracket_check(
    name: str,
    kind: str,
    mode: Callable[[Hashable], object],
    expected: Expected,
    pairs: Iterable[tuple[Hashable, Hashable]],
    basis: Sequence,
    space: Space = NEUTRAL,
    **params,
) -> VerificationReport:
    """Evaluate ``[mode(m), mode(n)]_± = expected(m, n)`` on every (mode
    pair, basis vector).

    ``kind`` is ``"commutator"`` or ``"anticommutator"``.  ``expected(m, n)``
    returns ``(ops, scalar)``: ``ops`` is a finite list of ``(coefficient,
    k)`` summands, each standing for ``coefficient * mode(k)``, and
    ``scalar`` the identity part.  ``basis`` holds monomials of ``space``.
    Both sides and the expected operators are composed from columns
    (:class:`_Columns`), so each operator acts on each monomial at most once
    however many pairs use it.  Each grid pair is composed in ``int``
    numerators over one common denominator: the lcm of ``D_m * D_n``, of
    ``coefficient.denominator * D_k`` for every summand and of the scalar's
    denominator.  A case holds when the bracket minus the expected side has
    no nonzero numerator; only a failing case builds the two sides as
    states, to render them.  ``params`` are added to the report's.
    """
    if kind not in ("commutator", "anticommutator"):
        raise ValueError(f"unknown bracket kind {kind!r}")
    pairs = list(pairs)
    for mono in basis:
        if not space.is_canonical(mono):
            raise ValueError(f"not a canonical {space.name} monomial: {mono}")
    sign = 1 if kind == "anticommutator" else -1
    cols = _Columns(mode, space)
    with VerificationReport(name, {"kind": kind, "pairs": len(pairs), "basis": len(basis), **params}) as report:
        for m, n in pairs:
            ops, scalar = expected(m, n)
            ops = [(c, k) for c, k in ops if c]
            product = cols.denominator(m) * cols.denominator(n)
            den = math.lcm(product, scalar.denominator, *(c.denominator * cols.denominator(k) for c, k in ops))
            factor = den // product
            scalar = _scaled(scalar, den)
            ops = [(_scaled(c, den // cols.denominator(k)), k) for c, k in ops]

            def sides(mono, lhs: dict, rhs: dict, rsign: int) -> None:
                """Add the bracket on ``mono`` into ``lhs`` and ``rsign`` times
                the expected side into ``rhs``, in numerators over ``den``."""
                cols.compose(m, cols.column(n, mono), factor, lhs)
                cols.compose(n, cols.column(m, mono), sign * factor, lhs)
                rhs[mono] = rhs.get(mono, 0) + rsign * scalar
                for c, k in ops:
                    cols.compose(k, ((mono, rsign * c),), 1, rhs)

            def states(mono) -> tuple[FockState, FockState]:
                lhs: dict = {}
                rhs: dict = {}
                sides(mono, lhs, rhs, 1)
                return FockState(lhs, den, space), FockState(rhs, den, space)

            report.cases_run += len(basis)
            for mono in basis:
                defect: dict = {}
                sides(mono, defect, defect, -1)
                if any(defect.values()):
                    report.fail(
                        lambda: f"(m={m}, n={n}) on {format_state(FockState.monomial(mono, space=space))}",
                        lambda: states(mono),
                    )
    return report


def field_identity_check(
    name: str,
    left_mode: Callable[[int], object],
    right_mode: Callable[[int], object],
    modes: Iterable[int],
    basis: Sequence,
    space: Space = NEUTRAL,
    **params,
) -> VerificationReport:
    """Assert ``left_mode(n) v == right_mode(n) v`` exactly over the grid of
    modes and monomials of ``space``; ``params`` are added to the report's."""
    modes = list(modes)
    with VerificationReport(name, {"modes": len(modes), "basis": len(basis), **params}) as report:
        for n in modes:
            a = left_mode(n)
            b = right_mode(n)
            for mono in basis:
                v = FockState.monomial(mono, space=space)
                report.expect(a.apply(v), b.apply(v), lambda: f"(n={n}) on {format_state(v)}")
    return report


def fraction_free_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
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

