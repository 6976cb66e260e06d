"""Exact states and mode action, shared by the neutral and charged Fock spaces.

A :class:`FockState` is a finite combination of basis monomials with exact
rational coefficients, tagged with its :class:`Space`: the action of one
mode on one monomial, the vacuum, the canonical check, the sort key and the
renderer.  In both spaces a mode is an ``int`` code that is negative exactly
when the mode creates, so normal ordering needs no call into the space.
This module defines the neutral space :data:`NEUTRAL`, and
:mod:`fockcheck.charged` the charged one.

A neutral monomial is stored as a strictly increasing tuple of non-negative
integers ``(n_1, ..., n_k)``, standing for the product

    phi[-n_k-1/2] ... phi[-n_2-1/2] phi[-n_1-1/2] |0>

written with the most negative mode leftmost.  Every neutral sign is
derived from this single factor-order convention.

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Iterator

Monomial = tuple[int, ...]

VACUUM: Monomial = ()


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


def weight2(mono: Monomial) -> int:
    """Twice the weight sum((n_i + 1/2)); always a non-negative integer."""
    return sum(2 * n + 1 for n in mono)


def weight(mono: Monomial) -> Fraction:
    return Fraction(weight2(mono), 2)


def apply_mode_to_monomial(t: int, mono: Monomial) -> tuple[int, Monomial] | None:
    """Action of the mode ``t`` (twice-encoded) on a basis monomial.

    Returns ``(sign, monomial)`` or ``None`` when the result is zero.  The
    sign is ``(-1)**g`` where ``g`` counts the factors standing to the left
    of the affected slot in the canonical product, i.e. the occupied indices
    strictly greater than the target index.
    """
    if t < 0:
        n = (-t - 1) // 2
        pos = bisect_left(mono, n)
        if pos < len(mono) and mono[pos] == n:
            return None
        sign = -1 if (len(mono) - pos) % 2 else 1
        return sign, mono[:pos] + (n,) + mono[pos:]
    n = (t - 1) // 2
    pos = bisect_left(mono, n)
    if pos == len(mono) or mono[pos] != n:
        return None
    sign = -1 if (len(mono) - pos - 1) % 2 else 1
    return sign, mono[:pos] + mono[pos + 1 :]


def _is_canonical(mono: Monomial) -> bool:
    """True for a strictly increasing tuple of non-negative ``int`` indices."""
    return (
        type(mono) is tuple
        and all(type(n) is int for n in mono)
        and all(a < b for a, b in zip(mono, mono[1:]))
        and not (mono and mono[0] < 0)
    )


def format_monomial(mono: Monomial) -> str:
    if not mono:
        return "|0>"
    factors = " ".join(f"phi[{-(2 * n + 1)}/2]" for n in reversed(mono))
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
    is_canonical: Callable[[Any], bool]
    sort_key: Callable[[Any], Any]  # report order of monomials
    format_monomial: Callable[[Any], str]


NEUTRAL = Space(
    "neutral",
    VACUUM,
    apply_mode_to_monomial,
    check_mode,
    _is_canonical,
    lambda mono: (weight2(mono), mono),
    format_monomial,
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
    def monomial(cls, mono: Iterable, coeff: Fraction | int = 1, space: Space = NEUTRAL) -> "FockState":
        mono = tuple(mono)
        if not space.is_canonical(mono):
            raise ValueError(f"not a canonical {space.name} monomial: {mono}")
        coeff = Fraction(coeff)
        return cls({mono: coeff.numerator}, coeff.denominator, space)

    @classmethod
    def vacuum(cls, space: Space = NEUTRAL) -> "FockState":
        return cls({space.vacuum: 1}, 1, space)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono) -> Fraction:
        return Fraction(self.terms.get(tuple(mono), 0), self.denominator)

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

    __rmul__ = scale

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


def increasing_tuples(first: int, step: int, budget: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every strictly increasing tuple of indices 0, 1, ... whose costs sum to at
    most ``budget``, index ``n`` costing ``first + step*n`` (both positive).

    Returns ``(total cost, tuple)`` pairs in lexicographic order of the
    tuples; both Fock bases and every charge sector are read off it.
    """
    found: list[tuple[int, tuple[int, ...]]] = []

    def extend(prefix: tuple[int, ...], n: int, total: int) -> None:
        found.append((total, prefix))
        while total + first + step * n <= budget:
            extend(prefix + (n,), n + 1, total + first + step * n)
            n += 1

    extend((), 0, 0)
    return found


def enumerate_basis(weight_cut2: int) -> list[Monomial]:
    """All monomials of twice-weight at most ``weight_cut2`` (index ``n`` costs ``2n + 1``).

    Ordered by weight, then lexicographically on the index tuple, so reports
    and golden files are stable.
    """
    if weight_cut2 < 0:
        raise ValueError("weight cut must be non-negative")
    return [mono for _, mono in sorted(increasing_tuples(1, 2, weight_cut2))]


# -- text form ---------------------------------------------------------------
#
# Neutral monomials render as ``phi[-5/2] phi[-1/2] |0>`` and states of
# either space as sums of ``coeff monomial`` terms; :func:`parse_state`
# parses the neutral grammar back.

_PHI_RE = re.compile(r"phi\[(-?\d+)/2\]")
_COEFF_RE = re.compile(r"(-?\d+)(?:/(\d+))?$")


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


def parse_fraction(text: str) -> Fraction:
    m = _COEFF_RE.match(text.strip())
    if not m:
        raise ValueError(f"not an exact rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if not den:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def _parse_term(text: str) -> FockState:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty term")
    if tokens[-1] != "|0>":
        raise ValueError(f"term must end with |0>: {text!r}")
    coeff = Fraction(1)
    start = 0
    if _COEFF_RE.match(tokens[0]):
        coeff = parse_fraction(tokens[0])
        start = 1
    state = FockState.vacuum()
    for tok in reversed(tokens[start:-1]):
        m = _PHI_RE.fullmatch(tok)
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
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if den.strip() != "2":
            raise ValueError(f"half-integers must have denominator 2: {text!r}")
        return int(num)
    return 2 * int(text)


def iter_modes(max_index2: int) -> Iterator[int]:
    """All modes with |m| <= max_index2/2, in increasing order."""
    for t in range(-max_index2, max_index2 + 1):
        if t % 2:
            yield t
