"""Normal-ordered quadratic operators on either Fock space.

Operators of interest are formally infinite sums ``sum_i c_i :X_{p_i} Y_{q_i}:``
of mode pairs, in neutral modes ``phi`` or charged modes ``psi+``/``psi-``,
with constant weight shift.  They are never materialised: a
:class:`QuadraticModeOperator` carries a coefficient rule
``i -> (p, q, c)`` plus a support bound mapping each monomial to the
finitely many ``i`` whose summand can act on it without annihilating
everything.  A summand acts nonzero only if every annihilator among its two
factors targets a mode present in the monomial, or both factors create,
which pins ``i`` to a finite window.  The support lists such ``i`` once
each, walked over the set bits of the monomial's masks; a neutral pair sum
(:func:`pair_sum`) has one summand per unordered mode pair.

The operator classes are shared by both spaces: a mode is an ``int`` code
of a space (see :mod:`fockcheck.fock`), and a quadratic operator carries
the space it acts on.  Only the constructors differ, because the two field
expansions differ.  Every fermion bilinear, the window-matrix lift
:class:`~fockcheck.winf.MatrixLift` included, acts through the one column
loop of :meth:`QuadraticModeOperator.column`.

Every operator declares a ``denominator`` D: each coefficient of its action
on a basis monomial lies in ``(1/D)Z``.  The action on one monomial is the
operator's *column*: ``int`` numerators over D.  A quadratic operator's rule
yields ``int`` numerators over its D, so its column is ``int`` arithmetic
throughout.  An affine combination declares the lcm of its parts'
denominators and adds their columns in ``int`` numerators over it.

Every column is read as ``table[mono]`` from the operator's column table,
which :meth:`ColumnStore.table` alone hands out; a missing column is
computed on read, and a store table writes its own columns.  Operators are
composed on columns by :func:`compose`, the one loop that applies an
operator to a vector through its :data:`Factor`: an affine combination's
parts' tables with their weights plus its scalar, any other operator's own
table.  The row kernel :func:`failing_vectors` inlines that loop to decide
one row of :func:`fockcheck.verify.bracket_check` on a whole basis.  A
primitive operator carries a ``key`` that names its
construction: ``(bil, exponent)`` for :func:`bilinear_mode` and
:func:`~fockcheck.charged.charged_bilinear_mode`, ``("h", n)`` for
:func:`~fockcheck.heisenberg.h_mode`, ``("L1", n)`` for
:class:`~fockcheck.virasoro.SugawaraOperator`, ``("lift", entries)``
for :class:`~fockcheck.winf.MatrixLift` and ``("mode", t)`` for a single
:class:`ModeOperator`, and a ``space``; its ``column(mono, intern)``
computes a column afresh.  Equal keys on one space build equal operators,
so they share one table of the process-wide :data:`COLUMNS` store, which
computes each column once; asking for a keyed operator's table on another
space raises ``ValueError``.  The key names the construction, not the
mathematical operator: two constructions a check compares (``h_mode`` and
``h_mode_bilinear``, a tilde bilinear and its :func:`parity_flip`) never
share a column.  Any other operator (affine combinations, wrappers) gets
a new private table: a column there is its ``apply`` on the one-monomial
state, and a coefficient of it outside ``(1/D)Z`` raises
``ArithmeticError``, so an undersized declaration is caught monomial by
monomial, also inside an affine combination.  An affine combination asks
for its parts' tables once per space and holds them in its factor.

Normal ordering of a pair subtracts the vacuum expectation.  As an action
this means: when the left factor annihilates and the right one creates, the
pair acts as minus the swapped product; in every other arrangement it acts
as written (rightmost factor first).

Mode extraction from neutral bilinear fields uses the expansion
``phi(s*z) = sum_m phi_{-m-1/2} s^m z^m`` with field derivatives taken before
evaluation, so ``F(z) = pref :(d^a phi)(s1 z)(d^b phi)(s2 z):`` has
integer powers of ``z`` only (a ``z^p`` prefactor would only shift the
exponent read), and its mode at each exponent is a :func:`pair_sum` of weights.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Sequence

from .fock import NEUTRAL, FockState, Monomial, Space

Pair = tuple[int, int, int]  # left mode code, right mode code, coefficient numerator
Column = tuple[tuple[Any, int], ...]  # (monomial, int numerator over the operator's denominator)
# An operator as the outer factor of compose: (column table, weight) parts and
# a scalar, both numerators over the operator's denominator.
Factor = tuple[tuple[tuple["ColumnTable", int], ...], int]


class QuadraticModeOperator:
    """Lazy sum ``sum_i (w_i / D) :X_{p_i} Y_{q_i}:`` with finite action on ``space``.

    ``rule(i)`` yields the ``i``-th summand ``(p, q, w)`` with the ``int``
    numerator ``w`` over the declared ``denominator`` D; ``support(mono)``
    yields, once each, every ``i`` whose summand can act nonzero on ``mono``
    (a finite, possibly overcomplete, list).  All summands must shift weight
    by the same amount so the operator is homogeneous.  ``key`` names the
    construction for the column store, and ``space`` is the one space it
    acts on.

    ``summands`` memoises ``rule(i)`` for every ``i`` the support has
    yielded, so each coefficient is computed once: the factor acting first
    and the second as ``space.decode`` bit operations, then the numerator,
    negated when an annihilator stands left of a creator (the normal-order
    swap); a zero numerator adds zeros, which the column drops.  The memo is
    bounded by the index range of the monomials the operator has acted on.
    """

    def __init__(
        self,
        rule: Callable[[int], Pair],
        support: Callable[[object], Iterable[int]],
        denominator: int,
        key: Hashable,
        space: Space,
    ):
        self.rule = rule
        self.support = support
        self.denominator = denominator
        self.key = key
        self.space = space
        self.summands: dict[int, tuple] = {}

    def summand(self, i: int) -> tuple:
        """Memoise and return ``rule(i)`` decoded."""
        p, q, w = self.rule(i)
        # the right factor acts first, but an annihilator left of a creator is swapped past it
        first, second, w = (p, q, -w) if q < 0 <= p else (q, p, w)
        decode = self.space.decode
        out = self.summands[i] = (*decode(first), *decode(second), w)
        return out

    def column(self, mono, intern: Callable) -> Column:
        """The column on ``mono``, computed afresh in one loop with no call
        per summand, its monomials passed through ``intern(m, m)``.  A neutral
        monomial is one mask; a charged one is two blocks, and a mode on the
        ``psi-`` block also passes the ``psi+`` one."""
        summands, acc = self.summands, {}
        get = acc.get
        if self.space is NEUTRAL:
            for i in self.support(mono):
                try:
                    e = summands[i]
                except KeyError:
                    e = self.summand(i)
                b1, n1, s1, b2, n2, s2, w = e
                if mono & b1 != n1:
                    continue
                mid = mono ^ b1
                if mid & b2 != n2:
                    continue
                out = mid ^ b2
                acc[out] = get(out, 0) + (-w if ((mono >> s1) ^ (mid >> s2)).bit_count() & 1 else w)
        else:
            plus, minus = mono
            for i in self.support(mono):
                try:
                    e = summands[i]
                except KeyError:
                    e = self.summand(i)
                x1, b1, n1, s1, x2, b2, n2, s2, w = e
                p, m = plus, minus  # the sign's parity is that of the popcount of odd
                if x1:
                    if m & b1 != n1:
                        continue
                    odd = (m >> s1) ^ p
                    m ^= b1
                else:
                    if p & b1 != n1:
                        continue
                    odd = p >> s1
                    p ^= b1
                if x2:
                    if m & b2 != n2:
                        continue
                    odd ^= (m >> s2) ^ p
                    m ^= b2
                else:
                    if p & b2 != n2:
                        continue
                    odd ^= p >> s2
                    p ^= b2
                out = (p, m)
                acc[out] = get(out, 0) + (-w if odd.bit_count() & 1 else w)
        return tuple([(intern(m, m), c) for m, c in acc.items() if c])

    def apply(self, state: FockState) -> FockState:
        return apply_columns(self, state)


# A key as an error prints it, which names the operator's construction: a
# bilinear whole, any tuple cut after two items, so a lift shows two entries.
KEY_REPR = reprlib.Repr()
KEY_REPR.maxtuple = 2
KEY_REPR.repr_instance = lambda x, level: repr(x)

# Columns the store holds before its tables are emptied.  At their default
# cut-offs the five neutral bracket-grid suites fill 14,964 columns in one
# process (12,036 of quadratic operators, 2,928 of L^1), and all fourteen
# suites 28,205 (330 of window-matrix lifts, 3,648 of single modes); 32768
# holds a whole run and bounds the memory of larger cut-offs.
STORE_SIZE = 32768


class ColumnTable(dict):
    """The columns of ``op`` on ``space`` by monomial; reading a missing one
    computes it.  A table of ``store`` writes its own columns: it computes
    one by ``op.column`` with the store's interning, empties the store first
    if it is full and counts the insertion.  A private table (``store`` is
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
        intern = store.interned.setdefault
        col = op.column(mono, intern)  # may fill other columns first: L^1 reads h columns
        if store.entries >= STORE_SIZE:
            store.clear()
        self[intern(mono, mono)] = col
        store.entries += 1
        return col


class ColumnStore:
    """Columns of keyed operators, computed once per process.

    ``tables[(key, space)]`` is the :class:`ColumnTable` of the operator
    built by ``key``: a monomial maps to the tuple of ``(monomial,
    numerator)`` pairs, over the operator's declared denominator, that its
    ``column(mono, intern)`` computes.  A store table writes its own columns.
    Monomials are interned as the column is built (an L^1 column takes them
    from the stored ``h`` columns), so a monomial met in many columns is
    stored once.  The registry keeps one table, possibly empty, per ``(key,
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
        operator with a ``key``, a new private one for any other.  A keyed
        operator acts on its own ``space`` only; asking for another raises
        ``ValueError`` and registers nothing."""
        key = getattr(op, "key", None)
        if key is None:
            return ColumnTable(op, space)
        if op.space is not space:  # ("mode", t) names a mode of either space
            raise ValueError(
                f"operator {KEY_REPR.repr(key)} acts on the {op.space.name} space, not on a {space.name} state"
            )
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


def as_factor(table: ColumnTable) -> Factor:
    """The operator of ``table`` as an outer factor of :func:`compose`: an
    :class:`AffineOperator` contributes its parts' tables and its scalar
    (:meth:`AffineOperator.factor`), any other operator ``table`` itself
    with weight 1."""
    op = table.op
    return op.factor(table.space) if isinstance(op, AffineOperator) else (((table, 1),), 0)


def compose(factor: Factor, col: Iterable[tuple[Any, int]], scale: int, acc: dict) -> None:
    """Add ``scale * D * A`` on the vector ``col`` of ``(monomial,
    numerator)`` pairs into ``acc``, for the operator ``A`` over ``D`` whose
    factor is ``((table_j, w_j), ...), s``: ``A = sum_j (w_j / D) D_j op_j
    + (s / D) Id``, with ``table_j`` holding the columns of ``op_j`` over
    ``D_j``.  ``col`` is read once per part.  Every product of an operator
    with columns is this loop, but for the bracket rows of
    :func:`failing_vectors`, which inline it, and the ``h`` products inside
    an ``L^1`` column (:func:`fockcheck.virasoro._sugawara_on_monomial`)."""
    get = acc.get
    tables, scalar = factor
    if scalar:
        for mid, c in col:
            acc[mid] = get(mid, 0) + scale * scalar * c
    for table, w in tables:
        w *= scale
        for mid, c in col:
            c *= w
            for out, d in table[mid]:
                acc[out] = get(out, 0) + c * d


def failing_vectors(products: Iterable[tuple[Factor, ColumnTable, int]], want: Factor, basis: Sequence) -> list[int]:
    """The indices ``b`` of ``basis`` at which ``sum scale * D * A (B v) - W
    v`` is not the zero vector, ``v = basis[b]``, the sum over ``products``
    of ``(factor of A, table of B, scale)`` and ``W`` the operator of the
    factor ``want``: the difference of one bracket row's two sides, both in
    numerators over the row's denominator.

    Each product is :func:`compose` of ``A``'s factor on ``B``'s column at
    ``v``, inlined into one dict per vector with the scales and ``want``'s
    weights multiplied in once; an empty column of ``B`` composes nothing."""
    inner = [
        (table, scale * scalar, tuple((t, scale * w) for t, w in parts))
        for (parts, scalar), table, scale in products
    ]
    parts, scalar = want
    minus = tuple((t, -w) for t, w in parts)
    failing = []
    for b, mono in enumerate(basis):
        acc: dict = {}
        get = acc.get
        for table, s, outer in inner:
            col = table[mono]
            if not col:
                continue
            if s:
                for mid, c in col:
                    acc[mid] = get(mid, 0) + s * c
            for t, w in outer:
                for mid, c in col:
                    c *= w
                    for out, d in t[mid]:
                        acc[out] = get(out, 0) + c * d
        if scalar:
            acc[mono] = get(mono, 0) - scalar
        for t, w in minus:
            for out, d in t[mono]:
                acc[out] = get(out, 0) + w * d
        if any(acc.values()):
            failing.append(b)
    return failing


def apply_columns(op, state: FockState) -> FockState:
    """``op`` on ``state``, through its columns."""
    acc: dict = {}
    compose(as_factor(COLUMNS.table(op, state.space)), state.terms.items(), 1, acc)
    return FockState(acc, state.denominator * op.denominator, state.space)


@dataclass(frozen=True)
class FermionBilinear:
    """``prefactor :(d^dleft phi)(sleft*z) (d^dright phi)(sright*z):``; a ``z^p``
    prefactor would only shift the exponent :func:`bilinear_mode` reads by ``-p``."""

    prefactor: Fraction
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
    """The falling factorial ``m (m-1) ... (m-order+1)``, in closed form: for
    ``m < 0`` every factor is negative, and their magnitudes are the falling
    factorial of ``order - 1 - m``."""
    if m >= 0:
        return math.perm(m, order)
    return (-1) ** order * math.perm(order - 1 - m, order)


def pair_sum(weight: Callable[[int], int], T: int, denominator: int, key: Hashable) -> QuadraticModeOperator:
    """The neutral pair sum ``sum_i weight(i) :phi_{-i-1/2} phi_{-(T-i)-1/2}:``
    over ``denominator``, one summand per unordered mode pair.  As ``:phi_p
    phi_q: = -:phi_q phi_p:``, the summand at ``2i < T`` carries ``weight(i)
    - weight(T-i)`` and the mirrored one at ``2i > T`` reads 0, as does the
    midpoint ``2i = T``, which squares a mode.  The support lists only ``i``
    with ``2i < T``, each once: those where both factors create, then ``-m``
    for each occupied index ``n = m - 1`` that the left factor annihilates."""

    def folded(i: int) -> Pair:
        p, q = -(2 * i + 1), -(2 * (T - i) + 1)
        return (p, q, weight(i) - weight(T - i)) if 2 * i < T else (p, q, 0)

    both = list(range(0, (T + 1) // 2))  # both factors create

    def support(mono: Monomial) -> list[int]:
        hits = both.copy()
        while mono:  # each occupied index n = m - 1, lowest first
            low = mono & -mono
            m = low.bit_length()
            if T + 2 * m > 0:  # -m < T + m: not the mirror nor the midpoint
                hits.append(-m)  # left factor annihilates n
            mono ^= low
        return hits

    return QuadraticModeOperator(folded, support, denominator, key, NEUTRAL)


def bilinear_mode(bil: FermionBilinear, exponent: int) -> QuadraticModeOperator:
    """Coefficient of ``z**exponent`` in the bilinear field, as a lazy operator.

    It is the :func:`pair_sum` with ``T = exponent + dleft + dright`` whose
    weight at free index ``i`` collects the derivative falling factorials of
    ``i`` and ``T - i`` and the evaluation signs, over the prefactor's
    denominator.
    """
    T = exponent + bil.dleft + bil.dright
    pref, a, b = bil.prefactor.numerator, bil.dleft, bil.dright
    sl, sr = bil.sleft, bil.sright

    def weight(i: int) -> int:
        j = T - i
        c = pref * falling(i, a) * falling(j, b)
        if sl < 0 and (i - a) % 2:
            c = -c
        if sr < 0 and (j - b) % 2:
            c = -c
        return c

    return pair_sum(weight, T, bil.prefactor.denominator, (bil, exponent))


class AffineOperator:
    """Finite combination ``sum_j c_j * op_j + scalar * Id`` acting by linearity.

    Its ``denominator`` D is the lcm of ``c_j * D_j`` over the parts and of
    the scalar's denominator, and its action adds the parts' columns, read
    from each part's :class:`ColumnTable`, in ``int`` numerators over D, so
    a part whose column does not fit its own declared denominator raises
    ``ArithmeticError``.  It asks for its parts' tables once per space and
    holds them, as its :meth:`factor`, in ``factors``.
    """

    def __init__(self, parts: Sequence[tuple[Fraction | int, object]], scalar: Fraction | int = 0):
        self.parts = [(Fraction(c), op) for c, op in parts if c]
        self.scalar = Fraction(scalar)
        self.denominator = math.lcm(
            self.scalar.denominator, *(c.denominator * op.denominator for c, op in self.parts)
        )
        self.factors: dict[Space, Factor] = {}

    def factor(self, space: Space) -> Factor:
        """Its parts' tables on ``space`` with their weights over D, and the
        scalar's numerator over D: the factor :func:`compose` applies."""
        factor = self.factors.get(space)
        if factor is None:
            den = self.denominator
            tables = tuple(
                (COLUMNS.table(op, space), c.numerator * (den // (c.denominator * op.denominator))) for c, op in self.parts
            )
            factor = self.factors[space] = tables, self.scalar.numerator * (den // self.scalar.denominator)
        return factor

    def apply(self, state: FockState) -> FockState:
        acc: dict = {}
        compose(self.factor(state.space), state.terms.items(), 1, acc)
        return FockState(acc, state.denominator * self.denominator, state.space)


def zero_operator() -> AffineOperator:
    return AffineOperator([])


class ModeOperator:
    """The single mode ``t`` of ``space`` as a keyed operator (the Clifford
    grids and the CLI's ``phi[...]`` token).

    The code ``t`` is checked once, by ``space.check_mode``.  Its column on a
    monomial is one ``space.act(t, mono)``: empty, or the one signed
    monomial the mode sends it to, so it needs no state to fill.
    """

    denominator = 1

    def __init__(self, t: int, space: Space = NEUTRAL):
        self.t = space.check_mode(t)
        self.key = ("mode", self.t)
        self.space = space

    def column(self, mono, intern: Callable) -> Column:
        hit = self.space.act(self.t, mono)
        if hit is None:
            return ()
        sign, out = hit
        return ((intern(out, out), sign),)

    def apply(self, state: FockState) -> FockState:
        return apply_columns(self, state)


def parity_flip(mode: Callable[[int], object]) -> Callable[[int], AffineOperator]:
    """The family ``n -> (-1)^n * mode(n)``."""
    return lambda n: AffineOperator([(Fraction(-1) if n % 2 else Fraction(1), mode(n))])

