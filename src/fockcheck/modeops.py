"""Normal-ordered quadratic operators on either Fock space.

Operators of interest are formally infinite sums ``sum_i c_i :X_{p_i} Y_{q_i}:``
of mode pairs, in neutral modes ``phi`` or charged modes ``psi+``/``psi-``,
with constant weight shift.  They are never materialised: a
:class:`QuadraticModeOperator` carries a coefficient rule
``i -> (p, q, c)`` plus a support bound mapping each monomial to the
finitely many ``i`` whose summand can act on it without annihilating
everything.  A summand acts nonzero only if every annihilator among its two
factors targets a mode present in the monomial, or both factors create,
which pins ``i`` to a finite window.  The support is a set, walked over the
set bits of the monomial's masks, and each operator memoises ``rule(i)``
per free index, so a coefficient is computed once however many monomials
it meets; the memo spans the index range of the monomials acted on.

The operator classes are shared by both spaces: a mode is an ``int`` code
of the space of the state acted on (see :mod:`fockcheck.fock`), and the
pair action reads the single-mode action from that state's space.  Only
the constructors differ, because the two field expansions differ.

Every operator declares a ``denominator`` D: each coefficient of its action
on a basis monomial lies in ``(1/D)Z``.  The action on one monomial is the
operator's *column*: ``int`` numerators over D.  A quadratic operator's rule
yields ``int`` numerators over its D, so its column is ``int`` arithmetic
throughout.  An affine combination declares the lcm of its parts'
denominators and adds their columns in ``int`` numerators over it.

Every column is read as ``table[mono]`` from the operator's column table,
which :meth:`ColumnStore.table` alone hands out; a missing column is
computed on read, and a store table writes its own columns.  Operators are
composed on columns by :func:`compose`, the one loop that applies a column
table to a vector.  A primitive operator carries a ``key`` that names its
construction: ``(bil, exponent)`` for :func:`bilinear_mode` and
:func:`~fockcheck.charged.charged_bilinear_mode`, ``("h", n)`` for
:func:`~fockcheck.heisenberg.h_mode` and ``("L1", n)`` for
:class:`~fockcheck.virasoro.SugawaraOperator`; its ``column(space, mono)``
computes a column afresh.  Equal keys build equal operators, so they share
one table of the process-wide :data:`COLUMNS` store, which computes each
column once.  The key names the construction, not the mathematical operator:
two constructions a check compares (``h_mode`` and ``h_mode_bilinear``, a
tilde bilinear and its :func:`parity_flip`) never share a column.  Any
other operator (affine combinations, single modes, wrappers) gets a new
private table: a column there is its ``apply`` on the one-monomial state,
and a coefficient of it outside ``(1/D)Z`` raises ``ArithmeticError``, so an
undersized declaration is caught monomial by monomial, also inside an
affine combination.  An affine combination asks for its parts' tables once
per space and holds them.

Normal ordering of a pair subtracts the vacuum expectation.  As an action
this means: when the left factor annihilates and the right one creates, the
pair acts as minus the swapped product; in every other arrangement it acts
as written (rightmost factor first).

Mode extraction from neutral bilinear fields uses the expansion
``phi(s*z) = sum_m phi_{-m-1/2} s^m z^m`` with field derivatives taken before
evaluation, so ``F(z) = pref * z^shift :(d^a phi)(s1 z)(d^b phi)(s2 z):``
has integer powers of ``z`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Sequence

from .fock import FockState, Monomial, Space, add_term, apply_mode, check_mode

Pair = tuple[int, int, int]  # left mode code, right mode code, coefficient numerator
Column = tuple[tuple[Any, int], ...]  # (monomial, int numerator over the operator's denominator)


def normal_order_pair(p: int, q: int) -> tuple[tuple[int, int], int, Fraction]:
    """Data of ``:phi_p phi_q:`` with annihilators moved right.

    Returns ``((p', q'), sign, contraction)`` where the normal-ordered pair
    equals ``sign * phi_p' phi_q'`` as an operator and
    ``phi_p phi_q - contraction`` as a reordering identity; the contraction
    is the vacuum expectation ``<0| phi_p phi_q |0> = delta(p, -q) [p > 0]``.
    """
    check_mode(p)
    check_mode(q)
    if p > 0 and q < 0:
        return (q, p), -1, Fraction(1) if p == -q else Fraction(0)
    return (p, q), 1, Fraction(0)


def apply_pair_to_monomial(act: Callable, p: int, q: int, mono, acc: dict, coeff: int) -> None:
    """Accumulate ``coeff * :X_p X_q: mono`` into ``acc``.

    ``act`` is the single-mode action of the space the mode codes ``p`` and
    ``q`` belong to; a negative code creates.
    """
    if q < 0 <= p:
        first, second, sign = p, q, -1
    else:
        first, second, sign = q, p, 1
    hit = act(first, mono)
    if hit is None:
        return
    s1, mid = hit
    hit = act(second, mid)
    if hit is None:
        return
    s2, out = hit
    add_term(acc, out, coeff * (sign * s1 * s2))


class QuadraticModeOperator:
    """Lazy sum ``sum_i (w_i / D) :X_{p_i} Y_{q_i}:`` with finite action.

    ``rule(i)`` yields the ``i``-th summand ``(p, q, w)`` with the ``int``
    numerator ``w`` over the declared ``denominator`` D; ``support(mono)``
    yields every ``i`` whose summand can act nonzero on ``mono`` (a finite,
    possibly overcomplete, set).  All summands must shift weight by the same
    amount so the operator is homogeneous.  ``key`` names the construction
    for the column store.

    ``summands`` memoises ``rule(i)`` for every ``i`` the support has
    yielded, so an operator computes each coefficient once.  The support of
    a monomial lies within the weight shift of its largest index, so the memo
    is bounded by the index range of the monomials the operator has acted on.
    """

    def __init__(
        self,
        rule: Callable[[int], Pair],
        support: Callable[[object], Iterable[int]],
        denominator: int,
        key: Hashable,
    ):
        self.rule = rule
        self.support = support
        self.denominator = denominator
        self.key = key
        self.summands: dict[int, Pair] = {}

    def accumulate(self, act: Callable, mono, k: int, acc: dict) -> None:
        """Add ``k * D * self`` on ``mono`` into ``acc``, in ``int`` numerators;
        ``act`` is the single-mode action of the space of ``mono``."""
        rule, summands = self.rule, self.summands
        for i in self.support(mono):
            pair = summands.get(i)
            if pair is None:
                pair = summands[i] = rule(i)
            p, q, w = pair
            if w:
                apply_pair_to_monomial(act, p, q, mono, acc, w * k)

    def column(self, space: Space, mono) -> Column:
        """The column on the monomial ``mono`` of ``space``, computed afresh."""
        acc: dict = {}
        self.accumulate(space.act, mono, 1, acc)
        return tuple(acc.items())

    def apply(self, state: FockState) -> FockState:
        return apply_columns(self, state)


# Columns the store holds before its tables are emptied.  At their default
# cut-offs the five neutral bracket-grid suites fill 15,730 columns in one
# process (12,685 of quadratic operators, 3,045 of L^1), and all fourteen
# suites 26,249; 32768 holds a whole run and bounds the memory of larger
# cut-offs.
STORE_SIZE = 32768


class ColumnTable(dict):
    """The columns of ``op`` on ``space`` by monomial; reading a missing one
    computes it.  A table of ``store`` writes its own columns: it computes
    one by ``op.column``, empties the store first if it is full, interns the
    monomials and counts the insertion.  A private table (``store`` is
    ``None``) computes one through :func:`apply_declared`."""

    __slots__ = ("op", "space", "store")

    def __init__(self, op, space: Space, store: ColumnStore | None = None):
        self.op, self.space, self.store = op, space, store

    def __missing__(self, mono) -> Column:
        op, store = self.op, self.store
        if store is None:
            out = apply_declared(op, mono, self.space)
            scale = op.denominator // out.denominator
            col = self[mono] = tuple((m, n * scale) for m, n in out.terms.items())
            return col
        col = op.column(self.space, mono)  # may fill other columns first: L^1 reads h columns
        if store.entries >= STORE_SIZE:
            store.clear()
        intern = store.interned.setdefault
        if any(intern(m, m) is not m for m, _ in col):
            col = tuple((intern(m, m), c) for m, c in col)
        self[intern(mono, mono)] = col
        store.entries += 1
        return col


class ColumnStore:
    """Columns of keyed operators, computed once per process.

    ``tables[(key, space)]`` is the :class:`ColumnTable` of the operator
    built by ``key``: a monomial maps to the tuple of ``(monomial,
    numerator)`` pairs, over the operator's declared denominator, that its
    ``column(space, mono)`` computes.  A store table writes its own columns.
    Monomials are interned, so a monomial met in many columns is stored
    once, and a column whose monomials are all interned already is kept as
    computed.  The registry keeps one table, possibly empty, per ``(key,
    space)`` asked for, with the operator that first asked, for the whole
    process.  When :data:`STORE_SIZE` columns are held, the next insertion
    first empties every table in place.  It starts empty.
    """

    def __init__(self):
        self.tables: dict[tuple[Hashable, Space], ColumnTable] = {}
        self.interned: dict = {}
        self.entries = 0

    def table(self, op, space: Space) -> ColumnTable:
        """The column table of ``op`` on ``space``: the store's own for an
        operator with a ``key``, a new private one for any other."""
        key = getattr(op, "key", None)
        if key is None:
            return ColumnTable(op, space)
        table = self.tables.get((key, space))
        if table is None:
            table = self.tables[key, space] = ColumnTable(op, space, self)
        return table

    def clear(self) -> None:
        for table in self.tables.values():
            table.clear()
        self.interned.clear()
        self.entries = 0


COLUMNS = ColumnStore()


def apply_declared(op, mono, space: Space) -> FockState:
    """``op.apply`` on the one-monomial state of ``mono``; a coefficient
    outside ``(1/op.denominator)Z`` raises ``ArithmeticError``."""
    out = op.apply(FockState({mono: 1}, 1, space))
    if op.denominator % out.denominator:
        raise ArithmeticError(
            f"{type(op).__name__} on {mono} has a coefficient over {out.denominator},"
            f" outside (1/{op.denominator})Z of its declared denominator"
        )
    return out


def compose(table: ColumnTable, col: Iterable[tuple[Any, int]], factor: int, acc: dict) -> None:
    """Add ``factor * D * op`` on the vector ``col`` of ``(monomial,
    numerator)`` pairs into ``acc``, for the operator ``op`` whose columns
    ``table`` holds and its denominator ``D``.  Every product of an operator
    with columns is this loop."""
    get = acc.get
    for mid, c in col:
        c *= factor
        for out, d in table[mid]:
            acc[out] = get(out, 0) + c * d


def apply_columns(op, state: FockState) -> FockState:
    """``op`` on ``state``, through its columns."""
    acc: dict = {}
    compose(COLUMNS.table(op, state.space), state.terms.items(), 1, acc)
    return FockState(acc, state.denominator * op.denominator, state.space)


@dataclass(frozen=True)
class FermionBilinear:
    """``prefactor * z^zshift :(d^dleft phi)(sleft*z) (d^dright phi)(sright*z):``."""

    prefactor: Fraction
    zshift: int
    dleft: int
    dright: int
    sleft: int
    sright: int

    def __post_init__(self):
        if self.sleft not in (1, -1) or self.sright not in (1, -1):
            raise ValueError("evaluation signs must be +1 or -1")
        if self.dleft < 0 or self.dright < 0:
            raise ValueError("derivative orders must be non-negative")


def falling(m: int, order: int) -> int:
    """The falling factorial ``m (m-1) ... (m-order+1)``."""
    out = 1
    for step in range(order):
        out *= m - step
    return out


def pair_support(T: int) -> Callable[[Monomial], set[int]]:
    """The support bound of a neutral pair sum whose summand at free index
    ``i`` pairs the modes ``-i-1/2`` and ``-(T-i)-1/2``."""

    def support(mono: Monomial) -> set[int]:
        hits = set(range(0, T + 1))  # both factors create
        while mono:  # each occupied index n, lowest first
            low = mono & -mono
            n = low.bit_length() - 1
            hits.add(-n - 1)  # left factor annihilates n
            hits.add(T + n + 1)  # right factor annihilates n
            mono ^= low
        return hits

    return support


def bilinear_mode(bil: FermionBilinear, exponent: int) -> QuadraticModeOperator:
    """Coefficient of ``z**exponent`` in the bilinear field, as a lazy operator.

    With ``T = exponent - zshift + dleft + dright`` the summand at free index
    ``i`` pairs the modes ``-i-1/2`` and ``-(T-i)-1/2``; its coefficient
    collects the derivative falling factorials and the evaluation signs, over
    the prefactor's denominator.
    """
    T = exponent - bil.zshift + bil.dleft + bil.dright
    pref, a, b = bil.prefactor.numerator, bil.dleft, bil.dright
    sl, sr = bil.sleft, bil.sright

    def rule(i: int) -> Pair:
        j = T - i
        c = pref * falling(i, a) * falling(j, b)
        if sl < 0 and (i - a) % 2:
            c = -c
        if sr < 0 and (j - b) % 2:
            c = -c
        return -(2 * i + 1), -(2 * j + 1), c

    return QuadraticModeOperator(rule, pair_support(T), bil.prefactor.denominator, (bil, exponent))


class AffineOperator:
    """Finite combination ``sum_j c_j * op_j + scalar * Id`` acting by linearity.

    Its ``denominator`` D is the lcm of ``c_j * D_j`` over the parts and of
    the scalar's denominator, and its action adds the parts' columns, read
    from each part's :class:`ColumnTable`, in ``int`` numerators over D, so
    a part whose column does not fit its own declared denominator raises
    ``ArithmeticError``.  It asks for its parts' tables once per space and
    holds them, with each part's weight over D, in ``tables``.
    """

    def __init__(self, parts: Sequence[tuple[Fraction | int, object]], scalar: Fraction | int = 0):
        self.parts = [(Fraction(c), op) for c, op in parts if c]
        self.scalar = Fraction(scalar)
        self.denominator = math.lcm(
            self.scalar.denominator, *(c.denominator * op.denominator for c, op in self.parts)
        )
        self.tables: dict[Space, list[tuple[ColumnTable, int]]] = {}

    def apply(self, state: FockState) -> FockState:
        den, space = self.denominator, state.space
        acc: dict = {}
        if self.scalar:
            w = self.scalar.numerator * (den // self.scalar.denominator)
            acc = {mono: w * k for mono, k in state.terms.items()}
        tables = self.tables.get(space)
        if tables is None:
            tables = self.tables[space] = [
                (COLUMNS.table(op, space), c.numerator * (den // (c.denominator * op.denominator)))
                for c, op in self.parts
            ]
        terms = state.terms.items()
        for table, w in tables:
            compose(table, terms, w, acc)
        return FockState(acc, state.denominator * den, state.space)


def zero_operator() -> AffineOperator:
    return AffineOperator([])


class ModeOperator:
    """A single mode as an operator (used by the relation harness).

    The code ``t`` is read, and checked, in the space of the state it acts on.
    """

    denominator = 1

    def __init__(self, t: int):
        self.t = t

    def apply(self, state: FockState) -> FockState:
        return apply_mode(self.t, state)


def parity_flip(mode: Callable[[int], object]) -> Callable[[int], AffineOperator]:
    """The family ``n -> (-1)^n * mode(n)``."""
    return lambda n: AffineOperator([(Fraction(-1) if n % 2 else Fraction(1), mode(n))])

