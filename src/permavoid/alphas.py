"""Divisibility parameters alpha_1..alpha_14 for exponent triples (i, j, k).

For the pattern x f^i(x) f^j(x) f^k(x), the four x-items carry the exponents
(0, i, j, k).  When the first letter of x lies on an orbit of length t, two
x-items receive equal images exactly when their exponents are congruent
mod t.  Reading the residues of (0, i, j, k) mod t in order of first
occurrence gives a canonical 4-digit equality pattern such as "0012" (first
two items equal, the rest pairwise distinct).

alpha_a is the least orbit length t at which the equality pattern equals the
a-th canonical representation, or infinity when no t achieves it.  The
pattern at t depends only on which of the six differences i, j, k, j - i,
k - i, k - j t divides, so it can change only at divisors of the nonzero
differences; every t that divides none of them gives one and the same
pattern.  :func:`profile` therefore visits only the divisors of the nonzero
differences and the least t dividing none of them.  It walks them in
ascending order and fills the alpha slot of each pattern the first time the
walk reaches it, so each slot holds the least t giving its pattern.  Each
difference's divisors come from a bounded cache keyed by the difference
(trial division up to the square root on a miss); profiles themselves are
not cached, as each is cheap to rebuild from those divisors.  Exponents above
``MAX_EXPONENT`` are rejected, which bounds the trial division.
The convention t | 0 for every t >= 1 is used throughout (so items with
equal exponents can never be assigned distinct digits).

The definitional scan, :func:`representation` for t = 1 ..
:func:`alpha_scan_bound` (every t past the bound repeats the pattern at the
bound), stays public as the test oracle for :func:`profile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterator, Sequence


__all__ = [
    "INFINITY",
    "MAX_EXPONENT",
    "ALPHA_INDICES",
    "REPRESENTATIONS",
    "ALL_PATTERNS",
    "ALL_EQUAL",
    "PatternExponents",
    "AlphaProfile",
    "canonical_pattern",
    "blocks_pattern",
    "is_canonical_pattern",
    "representation",
    "alpha_scan_bound",
    "profile",
    "realizable",
    "is_swapped_form",
    "alpha_json_value",
]

INFINITY = math.inf

#: Largest exponent :func:`profile` accepts; its trial division then stays
#: under a million steps per difference.
MAX_EXPONENT = 10**12

ALPHA_INDICES = range(1, 15)

#: Canonical equality representation of each parameter alpha_a.
REPRESENTATIONS: dict[int, str] = {
    1: "0123",
    2: "0012",
    3: "0102",
    4: "0121",
    5: "0122",
    6: "0001",
    7: "0010",
    8: "0100",
    9: "0111",
    10: "0011",
    11: "0101",
    12: "0110",
    13: "0112",
    14: "0120",
}

#: Every canonical 4-digit equality pattern (the 15 set partitions of 4 items).
ALL_PATTERNS: tuple[str, ...] = (
    "0000",
    "0001",
    "0010",
    "0011",
    "0012",
    "0100",
    "0101",
    "0102",
    "0110",
    "0111",
    "0112",
    "0120",
    "0121",
    "0122",
    "0123",
)

#: The all-equal pattern; four equal blocks form a 4-power u u u u.
ALL_EQUAL = "0000"


def canonical_pattern(items: Sequence[Hashable]) -> str:
    """Digit pattern of ``items`` with digits assigned in order of first occurrence."""
    labels: dict[Hashable, int] = {}
    out = []
    for item in items:
        if item not in labels:
            labels[item] = len(labels)
        out.append(labels[item])
    return "".join(str(d) for d in out)


def _equalities(x0, x1, x2, x3) -> int:
    """Bit p set when the p-th pair (01, 02, 03, 12, 13, 23) of the four items is equal."""
    bits = (x0 == x1) | (x0 == x2) << 1 | (x0 == x3) << 2
    return bits | (x1 == x2) << 3 | (x1 == x3) << 4 | (x2 == x3) << 5


_PATTERN_OF_EQUALITIES = {_equalities(*p): p for p in ALL_PATTERNS}


def blocks_pattern(b0, b1, b2, b3) -> str:
    """Canonical equality pattern of four blocks, via their pairwise equalities."""
    return _PATTERN_OF_EQUALITIES[_equalities(b0, b1, b2, b3)]


def is_canonical_pattern(pattern: str) -> bool:
    return pattern in _CANONICAL_SET


_CANONICAL_SET = frozenset(ALL_PATTERNS)


@dataclass(frozen=True)
class PatternExponents:
    """Exponents (i, j, k) of the pattern x f^i(x) f^j(x) f^k(x)."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if min(self.i, self.j, self.k) < 0:
            raise ValueError("exponents must be nonnegative")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)


def _exponents(e) -> PatternExponents:
    if isinstance(e, PatternExponents):
        return e
    i, j, k = e
    return PatternExponents(i, j, k)


def representation(t: int, e) -> str:
    """Equality pattern of the residues of (0, i, j, k) mod t."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    exp = _exponents(e)
    return canonical_pattern((0, exp.i % t, exp.j % t, exp.k % t))


def alpha_scan_bound(e) -> int:
    """Scanning t = 1 .. bound decides every alpha value exactly."""
    exp = _exponents(e)
    i, j, k = exp.i, exp.j, exp.k
    return max(i, j, k, abs(i - j), abs(i - k), abs(j - k)) + 1


@dataclass(frozen=True)
class AlphaProfile:
    """All fourteen alpha values for one exponent triple, plus their representations."""

    exponents: PatternExponents
    values: tuple[int | float, ...]  # values[a - 1] is alpha_a

    def value(self, a: int) -> int | float:
        if a not in REPRESENTATIONS:
            raise ValueError(f"alpha index must be in 1..14, got {a}")
        return self.values[a - 1]

    def as_json(self) -> dict:
        return {
            "exponents": {"i": self.exponents.i, "j": self.exponents.j, "k": self.exponents.k},
            "alphas": {f"alpha{a}": alpha_json_value(self.value(a)) for a in ALPHA_INDICES},
            "representations": {f"alpha{a}": REPRESENTATIONS[a] for a in ALPHA_INDICES},
        }


#: Alpha slot (a - 1) of each representation's equality bits.  With the
#: exponents (0, i, j, k), position pair p of :func:`_equalities` is equal
#: exactly when t divides the p-th of (i, j, k, j-i, k-i, k-j).
_SLOT_OF_MASK = {_equalities(*REPRESENTATIONS[a]): a - 1 for a in ALPHA_INDICES}


@lru_cache(maxsize=4096)
def _divisors(d: int) -> tuple[int, ...]:
    """Divisors of ``d >= 1`` in ascending order, by trial division up to the square root."""
    small = [t for t in range(1, math.isqrt(d) + 1) if d % t == 0]
    return tuple(small + [d // t for t in reversed(small) if t * t != d])


def _alpha_walk(exp: PatternExponents) -> Iterator[tuple[int, int]]:
    """(t, alpha slot a - 1) in ascending t, at the least t giving each reachable slot."""
    i, j, k = exp.i, exp.j, exp.k
    if max(i, j, k) > MAX_EXPONENT:
        raise ValueError(f"exponents must be at most {MAX_EXPONENT:,}, got {exp.as_tuple()}")
    zero_mask = 0
    masks: dict[int, int] = {}  # divisor t -> the differences it divides
    for pos, d in enumerate((i, j, k, j - i, k - i, k - j)):
        bit = 1 << pos
        if d == 0:
            zero_mask |= bit
            continue
        for t in _divisors(abs(d)):
            masks[t] = masks.get(t, 0) | bit
    first_free = 1
    while first_free in masks:
        first_free += 1
    masks[first_free] = 0
    reached = 0
    for t in sorted(masks):
        slot = _SLOT_OF_MASK.get(masks[t] | zero_mask)
        if slot is not None and not reached >> slot & 1:
            reached |= 1 << slot
            yield t, slot


def profile(e) -> AlphaProfile:
    exp = _exponents(e)
    values: list[int | float] = [INFINITY] * len(REPRESENTATIONS)
    for t, slot in _alpha_walk(exp):
        values[slot] = t
    return AlphaProfile(exp, tuple(values))


def realizable(a: int, e, m: int) -> bool:
    """True iff some one-letter x and permutation of {0..m-1} realize representation a.

    This is alpha_a <= m: an orbit of length alpha_a fits in the alphabet
    exactly when m is at least alpha_a.  Longer blocks can realize a with
    fewer letters, since a block's equality pattern is the meet of its
    letters' patterns and letters on distinct orbits can share the alphabet:
    ``realizable(2, (6, 3, 4), 5)`` is False (alpha_2 = 6), yet under
    (0 2)(1 3 4) the factor 01 01 21 03 realizes 0012 over five letters.
    """
    if m < 2:
        raise ValueError("alphabet size must be at least 2")
    return profile(e).value(a) <= m


def is_swapped_form(p1: str, p2: str) -> bool:
    """True iff exchanging one adjacent pair of positions turns p1 into p2."""
    if len(p1) != 4 or len(p2) != 4:
        raise ValueError("swapped forms are defined for 4-digit patterns")
    for pos in range(3):
        swapped = p1[:pos] + p1[pos + 1] + p1[pos] + p1[pos + 2 :]
        if swapped == p2:
            return True
    return False


def alpha_json_value(value: int | float) -> int | str:
    """JSON rendering of an alpha value; infinity serializes as "inf"."""
    return "inf" if value == INFINITY else int(value)

