"""Exact states and mode action, shared by the neutral and charged Fock spaces.

A :class:`FockState` is a finite combination of basis monomials with exact
rational coefficients, tagged with its :class:`Space`: the action of one
mode on one monomial, the vacuum, the canonical check, the sort key and the
renderer.  In both spaces a mode is an ``int`` code that is negative exactly
when the mode creates, so normal ordering needs no call into the space.
This module defines the neutral space :data:`NEUTRAL`, and
:mod:`fockcheck.charged` the charged one.

A neutral monomial is stored as an ``int`` bitmask: bit ``n`` is set when
``phi[-n-1/2]`` is present, so the vacuum is ``0``.  It stands for the
product

    phi[-n_k-1/2] ... phi[-n_2-1/2] phi[-n_1-1/2] |0>

over its set bits ``n_1 < ... < n_k``, written with the most negative mode
leftmost.  Every neutral sign is derived from this single factor-order
convention: a mode acting on index ``n`` passes the factors of the occupied
indices above ``n``, so its sign is the parity of a popcount.  Index tuples
``(n_1, ..., n_k)`` appear only at the edges (:func:`mask_of` and
:func:`indices_of`): building a state from its monomial, rendering, parsing
and the report order, which is weight, then the index tuple.  The
enumerator :func:`index_sets` builds masks, in that order within a weight.

Neutral mode indices are half-integers.  They are encoded throughout as
*twice* the value, an odd ``int``: ``t = 2*m``.  Negative ``t`` creates the
index ``n = (-t-1)//2``, positive ``t`` annihilates ``n = (t-1)//2``.  The
modes satisfy the Clifford relations ``{phi_m, phi_n} = delta(m, -n)``.

A state holds its coefficients as ``int`` numerators over one positive
``denominator``, in lowest terms, so operators act on the numerators and
multiply the denominator by their own.  ``fractions.Fraction`` appears only
at the edges: :meth:`FockState.coefficient`, rendering, parsing and the
factor of :meth:`FockState.scale`.  No floating point exists anywhere in
this package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterator

Monomial = int

VACUUM: Monomial = 0


def creation(n: int) -> int:
    """Twice-encoded mode creating index ``n`` (the mode -n-1/2)."""
    if n < 0:
        raise ValueError(f"monomial index must be >= 0, got {n}")
    return -(2 * n + 1)


def annihilation(n: int) -> int:
    """Twice-encoded mode annihilating index ``n`` (the mode n+1/2)."""
    if n < 0:
        raise ValueError(f"monomial index must be >= 0, got {n}")
    return 2 * n + 1


def check_mode(t: int) -> int:
    if t % 2 == 0:
        raise ValueError(f"fermion mode must be a half-integer, got {Fraction(t, 2)}")
    return t


def mask_of(indices: tuple[int, ...]) -> Monomial:
    """The monomial of a strictly increasing tuple of non-negative ``int``
    indices; anything else raises ``ValueError``."""
    if not (
        type(indices) is tuple
        and all(type(n) is int for n in indices)
        and all(a < b for a, b in zip(indices, indices[1:]))
        and not (indices and indices[0] < 0)
    ):
        raise ValueError(f"not a strictly increasing tuple of non-negative int indices: {indices}")
    mono = 0
    for n in indices:
        mono |= 1 << n
    return mono


def indices_of(mono: Monomial) -> tuple[int, ...]:
    """The occupied indices of a monomial, increasing."""
    out = []
    while mono:
        low = mono & -mono
        out.append(low.bit_length() - 1)
        mono ^= low
    return tuple(out)


def weight2(mono: Monomial) -> int:
    """Twice the weight sum((n_i + 1/2)); always a non-negative integer."""
    out = 0
    while mono:  # each occupied index n adds 2n + 1
        low = mono & -mono
        out += 2 * low.bit_length() - 1
        mono ^= low
    return out


def weight(mono: Monomial) -> Fraction:
    return Fraction(weight2(mono), 2)


def mode_bits(t: int) -> tuple[int, int, int]:
    """The mode ``t`` (twice-encoded) as bit operations ``(bit, need, shift)``:
    it acts nonzero on ``mono`` when ``mono & bit == need``, giving ``mono ^
    bit`` with the sign ``(-1)**(mono >> shift).bit_count()``."""
    n = ((t - 1) if t > 0 else (-t - 1)) >> 1
    return 1 << n, (1 << n) if t > 0 else 0, n + 1


def apply_mode_to_monomial(t: int, mono: Monomial) -> tuple[int, Monomial] | None:
    """Action of the mode ``t`` (twice-encoded) on a basis monomial.

    Returns ``(sign, monomial)`` or ``None`` when the result is zero.  The
    sign is ``(-1)**g`` where ``g`` counts the factors standing to the left
    of the affected slot in the canonical product, i.e. the occupied indices
    strictly greater than the target index: a popcount of the mask above it.
    """
    bit, need, shift = mode_bits(t)
    if mono & bit != need:
        return None
    return (-1 if (mono >> shift).bit_count() & 1 else 1), mono ^ bit


def _is_canonical(mono: Monomial) -> bool:
    """True for a non-negative ``int`` mask (``bool`` is not one)."""
    return type(mono) is int and mono >= 0


def format_monomial(mono: Monomial) -> str:
    if not mono:
        return "|0>"
    factors = " ".join(f"phi[{-(2 * n + 1)}/2]" for n in reversed(indices_of(mono)))
    return f"{factors} |0>"


@dataclass(frozen=True, eq=False)
class Space:
    """What differs between the Fock spaces that share :class:`FockState`.

    Spaces compare by identity: states of different spaces are never equal.
    """

    name: str
    vacuum: Hashable  # the vacuum monomial
    act: Callable[[int, Any], tuple[int, Any] | None]  # one mode on one monomial
    check_mode: Callable[[int], int]  # returns a valid mode code, else raises ValueError
    is_canonical: Callable[[Any], bool]  # a monomial as stored
    from_indices: Callable[[Any], Any]  # the monomial of an index form, else raises ValueError
    sort_key: Callable[[Any], Any]  # report order of monomials
    format_monomial: Callable[[Any], str]
    decode: Callable[[int], tuple[int, ...]]  # a mode code as its mode_bits, led by its block if there are two

    def monomial(self, mono) -> Any:
        """``mono``, given as stored or in index form, as stored; ``ValueError``
        when it is neither."""
        if self.is_canonical(mono):
            return mono
        try:
            return self.from_indices(mono)
        except ValueError:
            raise ValueError(f"not a canonical {self.name} monomial: {mono}") from None


NEUTRAL = Space(
    "neutral",
    VACUUM,
    apply_mode_to_monomial,
    check_mode,
    _is_canonical,
    mask_of,
    lambda mono: (weight2(mono), indices_of(mono)),
    format_monomial,
    mode_bits,
)


class FockState:
    """Finite linear combination of monomials with exact rational coefficients.

    ``terms`` maps each monomial to an ``int`` numerator over the shared
    positive ``denominator``.  The constructor drops zero numerators and
    reduces to lowest terms, so equal states have equal ``terms`` and
    ``denominator``; the zero state is the empty map over 1.  Instances are
    treated as immutable values.
    """

    __slots__ = ("terms", "denominator", "space")

    def __init__(self, terms: dict[Any, int] | None = None, denominator: int = 1, space: Space = NEUTRAL):
        if denominator <= 0:
            raise ValueError(f"state denominator must be positive, got {denominator}")
        terms = {m: c for m, c in terms.items() if c} if terms else {}
        g = math.gcd(denominator, *terms.values())
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            denominator //= g
        self.terms = terms
        self.denominator = denominator
        self.space = space

    @classmethod
    def zero(cls, space: Space = NEUTRAL) -> "FockState":
        return cls({}, 1, space)

    @classmethod
    def monomial(cls, mono, coeff: Fraction | int = 1, space: Space = NEUTRAL) -> "FockState":
        """``coeff`` times the monomial ``mono`` of ``space``, given as stored
        or in index form (see :meth:`Space.monomial`)."""
        coeff = Fraction(coeff)
        return cls({space.monomial(mono): coeff.numerator}, coeff.denominator, space)

    @classmethod
    def vacuum(cls, space: Space = NEUTRAL) -> "FockState":
        return cls({space.vacuum: 1}, 1, space)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono) -> Fraction:
        """The coefficient of ``mono``, given as stored or in index form."""
        return Fraction(self.terms.get(self.space.monomial(mono), 0), self.denominator)

    def _combine(self, other: "FockState", sign: int) -> "FockState":
        """``self + sign * other`` over the lcm of the two denominators."""
        if other.space is not self.space:
            raise ValueError(f"cannot combine a {self.space.name} state with a {other.space.name} state")
        den = math.lcm(self.denominator, other.denominator)
        mine, theirs = den // self.denominator, sign * (den // other.denominator)
        acc = {m: mine * c for m, c in self.terms.items()}
        for mono, c in other.terms.items():
            acc[mono] = acc.get(mono, 0) + theirs * c
        return FockState(acc, den, self.space)

    def __add__(self, other: "FockState") -> "FockState":
        return self._combine(other, 1)

    def __sub__(self, other: "FockState") -> "FockState":
        return self._combine(other, -1)

    def scale(self, factor: Fraction | int) -> "FockState":
        num = factor.numerator
        return FockState({m: num * c for m, c in self.terms.items()}, self.denominator * factor.denominator, self.space)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self.space is other.space and self.denominator == other.denominator and self.terms == other.terms

    def __repr__(self) -> str:
        return f"FockState({format_state(self)!r}, {self.space.name})"

    def sorted_terms(self) -> list[tuple[Any, Fraction]]:
        """``(monomial, coefficient)`` pairs in the space's report order."""
        key, den = self.space.sort_key, self.denominator
        return sorted(((m, Fraction(c, den)) for m, c in self.terms.items()), key=lambda item: key(item[0]))


def add_term(acc: dict, mono, coeff: int) -> None:
    """Accumulate ``coeff * mono`` into ``acc``, dropping exact zeros."""
    new = acc.get(mono, 0) + coeff
    if new:
        acc[mono] = new
    else:
        acc.pop(mono, None)


def apply_mode(t: int, state: FockState) -> FockState:
    """Linear extension of the mode action of ``state``'s space to states."""
    space = state.space
    space.check_mode(t)
    act = space.act
    acc: dict = {}
    for mono, c in state.terms.items():
        hit = act(t, mono)
        if hit is not None:
            sign, out = hit
            add_term(acc, out, sign * c)
    return FockState(acc, state.denominator, space)


def index_sets(first: int, step: int, budget: int) -> list[tuple[int, Monomial]]:
    """Every set of indices 0, 1, ... whose costs sum to at most ``budget``,
    index ``n`` costing ``first + step*n`` (both positive), as a mask.

    Returns ``(total cost, mask)`` pairs in lexicographic order of the
    increasing index tuples; both Fock bases and the graded table
    (:func:`fockcheck.grading.graded_basis`) are read off it.
    """
    if budget < 0:
        raise ValueError("weight cut must be non-negative")
    found: list[tuple[int, Monomial]] = []

    def extend(mask: Monomial, n: int, total: int) -> None:
        found.append((total, mask))
        while total + first + step * n <= budget:
            extend(mask | 1 << n, n + 1, total + first + step * n)
            n += 1

    extend(0, 0, 0)
    return found


def enumerate_basis(weight_cut2: int) -> list[Monomial]:
    """All monomials of twice-weight at most ``weight_cut2`` (index ``n`` costs ``2n + 1``).

    Ordered by weight, then lexicographically on the index tuple, so reports
    and golden files are stable: a stable sort by weight keeps the order of
    :func:`index_sets` within each weight.
    """
    return [mono for _, mono in sorted(index_sets(1, 2, weight_cut2), key=lambda pair: pair[0])]


# -- text form ---------------------------------------------------------------
#
# Neutral monomials render as ``phi[-5/2] phi[-1/2] |0>`` and states of
# either space as sums of ``coeff monomial`` terms; :func:`parse_state`
# parses the neutral grammar back.

# Every integer literal is ASCII ``-?[0-9]+``: no sign but a leading minus,
# no spaces, underscores or other digits.  Every pattern that reads a signed
# integer is built from INTEGER, and every one that reads a rational ``p`` or
# ``p/q`` from RATIONAL.
INTEGER = "-?[0-9]+"
RATIONAL = rf"{INTEGER}(?:/[0-9]+)?"  # the denominator is unsigned
PHI_RE = re.compile(rf"phi\[({INTEGER})/2\]", re.ASCII)
_COEFF_RE = re.compile(RATIONAL, re.ASCII)


def format_state(state: FockState) -> str:
    if state.is_zero:
        return "0"
    render = state.space.format_monomial
    parts: list[str] = []
    for i, (mono, c) in enumerate(state.sorted_terms()):
        mag = abs(c)
        body = render(mono) if mag == 1 else f"{mag} {render(mono)}"
        if i == 0:
            parts.append(("-1 " + render(mono)) if (c < 0 and mag == 1) else (f"-{body}" if c < 0 else body))
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def parse_int(text: str) -> int:
    """An integer literal ``-?[0-9]+`` in ASCII digits; anything else raises ``ValueError``."""
    if not re.fullmatch(INTEGER, text, re.ASCII):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_fraction(text: str) -> Fraction:
    """An exact rational literal ``p`` or ``p/q`` (ASCII integer literals, ``q`` unsigned)."""
    if not _COEFF_RE.fullmatch(text):
        raise ValueError(f"not an exact rational: {text!r}")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den or 1))


def _parse_term(text: str) -> FockState:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty term")
    if tokens[-1] != "|0>":
        raise ValueError(f"term must end with |0>: {text!r}")
    coeff = Fraction(1)
    start = 0
    if _COEFF_RE.fullmatch(tokens[0]):
        coeff = parse_fraction(tokens[0])
        start = 1
    state = FockState.vacuum()
    for tok in reversed(tokens[start:-1]):
        m = PHI_RE.fullmatch(tok)
        if not m:
            raise ValueError(f"bad factor {tok!r}")
        state = apply_mode(check_mode(int(m.group(1))), state)
    return state.scale(coeff)


def parse_state(text: str) -> FockState:
    """Parse the textual state grammar printed by :func:`format_state`."""
    text = text.strip()
    if text == "0":
        return FockState.zero()
    # split on top-level ' + ' / ' - ' separators
    out = FockState.zero()
    sign = 1
    if text.startswith("-"):
        # leading minus binds to the first coefficient
        first_rest = text[1:].lstrip()
        text = first_rest
        sign = -1
    for chunk in re.split(r"\s+([+-])\s+", text):
        if chunk == "+":
            sign = 1
        elif chunk == "-":
            sign = -1
        else:
            out = out + _parse_term(chunk).scale(sign)
    return out


def parse_half(text: str) -> int:
    """Parse a half-integer literal (``8`` or ``15/2``) to its twice-encoding."""
    num, slash, den = text.partition("/")
    if slash and den != "2":
        raise ValueError(f"half-integers must have denominator 2: {text!r}")
    return parse_int(num) if slash else 2 * parse_int(num)


def iter_modes(max_index2: int) -> Iterator[int]:
    """All modes with |m| <= max_index2/2, in increasing order."""
    for t in range(-max_index2, max_index2 + 1):
        if t % 2:
            yield t
