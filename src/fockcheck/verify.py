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
several conditions compares them as one tuple, so every case counts once
and fails at most once: ``failures_total <= cases_run`` in every report,
and :func:`merge_reports` folds sub-reports into one.  A report counts every
failure in ``failures_total`` but keeps only the first
:data:`MAX_WITNESSES` witnesses, so a broken operator cannot write an
unbounded report.

Operator relations are evaluated here only: a check elsewhere declares its
relation to :func:`bracket_check` or :func:`field_identity_check`.  Every
operator is quasi-finite: it sends a basis monomial to a finite combination
of monomials, its *column*.  :func:`bracket_check` builds each mode operator
once per check, asks :meth:`fockcheck.modeops.ColumnStore.table` for its
column table once, and decides each evaluated grid row, its bracket against
its expected side on every basis vector, in one call of the row kernel
:func:`fockcheck.modeops.failing_vectors`.  In each product the inner
factor is read from its table at the basis vector and the outer one is
composed through its factor (:func:`fockcheck.modeops.as_factor`), which
for an affine combination reads its parts' tables: so an affine mode's
private table holds only its columns at the basis vectors.
A case is decided once per unordered pair: a later row ``(n, m)`` declared
as ``s`` times its first row ``(m, n)`` (``s`` the bracket's sign) copies
that row's verdict, exactly, as ``[A_n, A_m]_± = s [A_m, A_n]_±``; every
other row composes its two sides into one difference vector per basis
vector.  A failing case is rendered through
:func:`fockcheck.modeops.compose`.
The column format is :mod:`fockcheck.modeops`'s alone: it decides where
the columns live (a keyed operator's in the process-wide store, any
other's in a private table that dies with the check) and walks them.

States are ``int`` numerators over one denominator, and every operator
declares the ``denominator`` of its action (see :mod:`fockcheck.modeops`).
A column is kept as ``int`` numerators over its operator's denominator, and
a coefficient outside that ``(1/D)Z`` raises ``ArithmeticError`` in both
harnesses, so a wrong declaration is never a quiet pass.  Each grid pair is
composed in ``int`` numerators over one common denominator, so a case holds
when the two sides' numerators agree; states are built only to render a
failing case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .fock import NEUTRAL, FockState, Space, format_state
from .modeops import COLUMNS, ColumnTable, apply_declared, as_factor, compose, failing_vectors

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
        self.failures_total += 1
        if len(self.failures) < MAX_WITNESSES:
            got, want = sides()
            self.failures.append({"witness": witness(), "lhs": _render(got), "rhs": _render(want)})

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


def _check_basis(basis: Sequence, space: Space) -> None:
    """Raise ``ValueError`` unless every element of ``basis`` is a canonical
    monomial of ``space``."""
    for mono in basis:
        if not space.is_canonical(mono):
            raise ValueError(f"not a canonical {space.name} monomial: {mono}")


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
    Both sides and the expected operators are composed from column tables,
    one per mode index, so each operator acts on each monomial at most once
    however many pairs use it; the outer factor of a product goes through
    the operator's factor, an affine mode's parts.  Each grid pair is
    compared in ``int`` numerators over one common denominator: the lcm of
    ``D_m * D_n``, of ``coefficient.denominator * D_k`` for every summand and
    of the scalar's denominator.  A case holds when the bracket minus the
    expected side, composed into one dict of numerators, has no nonzero
    value; only a failing case builds the two sides as states, to render
    them.  ``params`` are added to the report's.

    A row ``(n, m)`` after the first row ``(m, n)`` of its pair (or a
    repeated ``(m, n)``) mirrors it when its declaration, zero terms
    dropped, is ``([(s * c, k) for c, k in ops], s * scalar)`` of the first
    row's, ``s`` the bracket's sign (``+1`` for a repeat).  A mirror composes
    nothing and copies the first row's verdict on every basis vector: this
    is exact, as ``[A_n, A_m]_± = s [A_m, A_n]_±`` and both rows have the
    same denominator, so its case is ``s`` times the same equation.  Every
    other row composes ``A_m A_n v ± A_n A_m v`` (not on a commutator's
    diagonal, which is zero) and minus the expected side into one dict per
    basis vector, in one call of :func:`fockcheck.modeops.failing_vectors`
    over the whole basis.  Failures are reported pair-major, then in basis
    order.
    """
    if kind not in ("commutator", "anticommutator"):
        raise ValueError(f"unknown bracket kind {kind!r}")
    pairs = list(pairs)
    _check_basis(basis, space)
    sign = 1 if kind == "anticommutator" else -1
    tables: dict[Hashable, ColumnTable] = {}

    def table(i: Hashable) -> ColumnTable:
        """The column table of ``mode(i)``, which is built once per check."""
        if i not in tables:
            tables[i] = COLUMNS.table(mode(i), space)
        return tables[i]

    with VerificationReport(name, {"kind": kind, "pairs": len(pairs), "basis": len(basis), **params}) as report:
        grid = []
        evaluated = []  # (row, the rows sharing its verdict) of every row that composes its case
        first: dict = {}  # each unordered pair's first row: its declaration and the rows sharing its verdict
        for j, (m, n) in enumerate(pairs):
            ops, scalar = expected(m, n)
            ops = [(c, k) for c, k in ops if c]
            tm, tn = table(m), table(n)
            parts = [(c, table(k)) for c, k in ops]
            product = tm.op.denominator * tn.op.denominator
            den = math.lcm(product, scalar.denominator, *(c.denominator * t.op.denominator for c, t in parts))
            want = tuple((t, _scaled(c, den // t.op.denominator)) for c, t in parts), _scaled(scalar, den)
            row = (m, n, as_factor(tm), tm, as_factor(tn), tn, den, den // product, want)
            grid.append(row)
            s = 1 if (m, n) in first else sign
            head = first.get((m, n)) or first.get((n, m))
            if head and (ops, scalar) == ([(s * c, k) for c, k in head[0]], s * head[1]):
                head[2].append(j)  # a mirror: s times the first row's case on every vector
            else:
                rows = [j]
                evaluated.append((row, rows))
                if not head:
                    first[m, n] = ops, scalar, rows

        failing: list[tuple[int, int]] = []
        for (m, n, fm, tm, fn, tn, _, lift, want), rows in evaluated:
            # a commutator's diagonal is the zero vector
            products = ((fm, tn, lift), (fn, tm, sign * lift)) if m != n or sign > 0 else ()
            failing.extend((j, b) for b in failing_vectors(products, want, basis) for j in rows)

        report.cases_run += len(grid) * len(basis)
        for j, b in sorted(failing):
            (m, n, *_), mono = grid[j], basis[b]
            report.fail(
                lambda: f"(m={m}, n={n}) on {format_state(FockState.monomial(mono, space=space))}",
                lambda: _sides(grid[j], mono, sign, space),
            )
    return report


def _sides(row: tuple, mono, sign: int, space: Space) -> tuple[FockState, FockState]:
    """The bracket and the expected side of one grid row of
    :func:`bracket_check` on ``mono``, as states."""
    m, n, fm, tm, fn, tn, den, lift, want = row
    lhs: dict = {}
    compose(fm, tn[mono], lift, lhs)
    compose(fn, tm[mono], sign * lift, lhs)
    rhs: dict = {}
    compose(want, ((mono, 1),), 1, rhs)
    return FockState(lhs, den, space), FockState(rhs, den, space)


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
    modes and monomials of ``space``, each side through
    :func:`fockcheck.modeops.apply_declared`; ``params`` are added to the report's."""
    modes = list(modes)
    _check_basis(basis, space)
    with VerificationReport(name, {"modes": len(modes), "basis": len(basis), **params}) as report:
        for n in modes:
            a = left_mode(n)
            b = right_mode(n)
            for mono in basis:
                got, want = apply_declared(a, mono, space), apply_declared(b, mono, space)
                report.expect(got, want, lambda: f"(n={n}) on {format_state(FockState.monomial(mono, space=space))}")
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

