"""The ten collections of minimal unavoidable parameter sets and the bound sigma.

Each collection (family) is a rule held as plain data: mandatory indices,
choice groups, restriction predicates and explicit exclusions.  A single
generator interprets every rule: it takes one option from each group, unions
them with the mandatory indices, and keeps the result when it passes every
restriction and is not explicitly excluded.  Where a family is described
through structural classes of representations (squares, gapped squares,
cubes, ...), its options come from the literal class table below.  Every
restriction and exclusion changes its family's output, and no family needs
a size filter: its groups already fix the size.  RULES.md documents the
reading pinned for each restriction and the regression anchors that fix it.

``sigma(e)`` is the minimum over all generated sets of the maximum alpha
value of their members (infinity-absorbing), returned with the first set in
:func:`all_unavoidable_sets` order that attains it.  It is decided on the
subset lattice of the fourteen indices, and it stops on the ascending walk
that builds the alpha profile.  That walk reaches the distinct finite alpha
values m in ascending order, one index each, so the index mask
{a : alpha_a <= m} grows by one bit per step, and sigma is the least m
whose mask contains a whole set (infinity when none ever does).  Every set
inside that mask has maximum exactly m, as a smaller maximum would have put
it inside an earlier mask, so the first set inside the mask is the first
set attaining the minimum.  Which set a mask first contains is memoised per
mask (at most 2**14 of them).

For exponent triples that are positive and pairwise distinct this bound
classifies avoidability: alphabets of size up to sigma - 1 admit avoiding
words, alphabets of size sigma + 1 and beyond do not, and size sigma itself
needs individual analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable

from .alphas import (
    INFINITY,
    REPRESENTATIONS,
    PatternExponents,
    _alpha_walk,
    _exponents,
    alpha_json_value,
    is_swapped_form,
    profile,
)

__all__ = [
    "FamilyRule",
    "FAMILY_IDS",
    "enumerate_family",
    "all_unavoidable_sets",
    "sigma",
    "set_max",
    "classify",
    "ClassificationReport",
]

FAMILY_IDS = range(1, 11)

ParamSet = frozenset[int]
Predicate = Callable[[ParamSet], bool]

# Structural classes of the representations in alphas.REPRESENTATIONS.  RULES.md
# lists the same table, and the test suite keeps the two in step.
_SQUARES = frozenset({2, 5})  # 0012, 0122: a square and no gapped cube
_GAPPED_SQUARES = frozenset({3, 4})  # 0102, 0121
_CUBES = frozenset({6, 9})  # 0001, 0111
_CUBES_OR_TWO_SQUARES = frozenset({6, 9, 10})  # 0001, 0111, 0011
_GAPPED_CUBES = frozenset({7, 8})  # 0010, 0100
_TWO_SQUARES = frozenset({10})  # 0011
_TWO_GAPPED_SQUARES = frozenset({11})  # 0101
_MIDDLE_SQUARES = frozenset({12, 13})  # 0110, 0112
_OUTER_EQUAL_ONLY = frozenset({14})  # 0120


def _singletons(indices: Iterable[int]) -> tuple[ParamSet, ...]:
    return tuple(frozenset({a}) for a in sorted(indices))


def _equal_digit_positions(pattern: str) -> frozenset[int]:
    return frozenset(
        pos
        for pair in ((x, y) for x in range(4) for y in range(x + 1, 4) if pattern[x] == pattern[y])
        for pos in pair
    )


def _square_gapped_cube_alignment(s: ParamSet) -> bool:
    """Digit agreement between square, gapped-square and gapped-cube members.

    When the square and gapped-square representations in the set are not
    swapped forms of each other, every gapped-cube member must carry one and
    the same digit on all positions where either of those two
    representations repeats a digit.
    """
    squares = [a for a in s if a in _SQUARES]
    gapped = [a for a in s if a in _GAPPED_SQUARES]
    gapped_cubes = [a for a in s if a in _GAPPED_CUBES]
    for sq in squares:
        for gs in gapped:
            if is_swapped_form(REPRESENTATIONS[sq], REPRESENTATIONS[gs]):
                continue
            positions = _equal_digit_positions(REPRESENTATIONS[sq]) | _equal_digit_positions(
                REPRESENTATIONS[gs]
            )
            for gc in gapped_cubes:
                rep = REPRESENTATIONS[gc]
                if len({rep[pos] for pos in positions}) != 1:
                    return False
    return True


def _s2_prefix_square_needs_first_gapped_cube(s: ParamSet) -> bool:
    return 2 not in s or 7 in s


def _s6_gapped_cube_needs_matching_gapped_square(s: ParamSet) -> bool:
    return 7 not in s or 4 in s


def _s6_no_mixed_gapped_pair(s: ParamSet) -> bool:
    return not {4, 8} <= s


def _s7_excluded_pairs(s: ParamSet) -> bool:
    return not ({2, 4} <= s or {2, 7} <= s)


def _s9_square_pairings(s: ParamSet) -> bool:
    if 2 in s and 3 not in s:
        return False
    if 5 in s and 4 not in s:
        return False
    return not s & {2, 5} or bool(s & {12, 13})


def _s9_outer_equal_pairings(s: ParamSet) -> bool:
    if {7, 14} <= s and 3 not in s:
        return False
    if {4, 14} <= s and not s & {8, 12}:
        return False
    return True


@dataclass(frozen=True)
class FamilyRule:
    """Declarative description of one family of unavoidable parameter sets."""

    mandatory: ParamSet
    groups: tuple[tuple[ParamSet, ...], ...]
    restrictions: tuple[Predicate, ...] = ()
    exclusions: frozenset[ParamSet] = frozenset()

    def generate(self) -> tuple[ParamSet, ...]:
        candidates = (self.mandatory.union(*options) for options in product(*self.groups))
        kept = {
            s
            for s in candidates
            if s not in self.exclusions and all(pred(s) for pred in self.restrictions)
        }
        return tuple(sorted(kept, key=sorted))


_RULES = {
    1: FamilyRule(
        mandatory=frozenset({1}),
        groups=(
            _singletons(_SQUARES),
            _singletons(_GAPPED_SQUARES),
            _singletons(_CUBES_OR_TWO_SQUARES),
            _singletons(_GAPPED_CUBES),
        ),
        restrictions=(_square_gapped_cube_alignment,),
    ),
    2: FamilyRule(
        mandatory=frozenset({1}) | _MIDDLE_SQUARES,
        groups=(_singletons({2, 3, 4}), _singletons({6, 7, 9})),
        restrictions=(_s2_prefix_square_needs_first_gapped_cube,),
    ),
    3: FamilyRule(
        mandatory=frozenset({1}) | _TWO_SQUARES,
        groups=(
            _singletons(_SQUARES),
            _singletons(_GAPPED_SQUARES),
            _singletons(_GAPPED_CUBES),
        ),
        restrictions=(_square_gapped_cube_alignment,),
    ),
    4: FamilyRule(
        mandatory=frozenset({1, 2, 7}),
        groups=(_singletons(_CUBES_OR_TWO_SQUARES), _singletons(_OUTER_EQUAL_ONLY)),
    ),
    5: FamilyRule(
        mandatory=frozenset({1, 12, 13}) | _OUTER_EQUAL_ONLY,
        groups=(_singletons(_CUBES),),
    ),
    # The known member {1,4,6,7,9,10,13,14} carries both cube indices, and
    # dropping either one must leave the family (members form an antichain),
    # so the cube slot contributes 6 and 9 together.
    6: FamilyRule(
        mandatory=frozenset({1, 10, 13, 14}) | _CUBES,
        groups=(_singletons(_GAPPED_CUBES), _singletons(_GAPPED_SQUARES)),
        restrictions=(_s6_gapped_cube_needs_matching_gapped_square, _s6_no_mixed_gapped_pair),
    ),
    7: FamilyRule(
        mandatory=frozenset({1, 12, 13}),
        groups=(
            _singletons(_SQUARES),
            _singletons(_GAPPED_SQUARES),
            _singletons(_GAPPED_CUBES),
        ),
        restrictions=(_s7_excluded_pairs, _square_gapped_cube_alignment),
    ),
    8: FamilyRule(
        mandatory=frozenset({1, 3, 5, 7}) | _OUTER_EQUAL_ONLY,
        groups=(_singletons(_CUBES),),
    ),
    9: FamilyRule(
        mandatory=frozenset({1}) | _TWO_SQUARES | _TWO_GAPPED_SQUARES,
        groups=(
            # one square with a middle-square/outer-equal element, or no square
            # and a gapped-cube pairing with 14: two elements in all
            (
                frozenset({7, 14}),
                frozenset({8, 14}),
                frozenset({2, 12}),
                frozenset({2, 13}),
                frozenset({2, 14}),
                frozenset({5, 12}),
                frozenset({5, 13}),
                frozenset({5, 14}),
            ),
            _singletons(_GAPPED_SQUARES),
            _singletons(_CUBES),
        ),
        restrictions=(_s9_square_pairings, _s9_outer_equal_pairings),
        # the rules above would otherwise generate this known non-member
        exclusions=frozenset({frozenset({1, 3, 6, 8, 10, 11, 14})}),
    ),
    10: FamilyRule(
        mandatory=frozenset({1}),
        groups=(
            (
                frozenset({3, 5, 6, 10, 11, 13, 14}),
                frozenset({3, 5, 9, 10, 11, 13, 14}),
                frozenset({2, 4, 13, 6, 10, 11, 14}),
                frozenset({2, 4, 13, 9, 10, 11, 14}),
            ),
        ),
    ),
}


@lru_cache(maxsize=None)
def enumerate_family(family_id: int) -> tuple[ParamSet, ...]:
    """All parameter sets of the given family, deduplicated and sorted."""
    if family_id not in _RULES:
        raise ValueError(f"family id must be in 1..10, got {family_id}")
    return _RULES[family_id].generate()


@lru_cache(maxsize=None)
def all_unavoidable_sets() -> tuple[ParamSet, ...]:
    """Deduplicated union of the ten families."""
    union = {s for family_id in FAMILY_IDS for s in enumerate_family(family_id)}
    return tuple(sorted(union, key=lambda s: (len(s), sorted(s))))


@lru_cache(maxsize=1)
def _set_masks() -> tuple[int, ...]:
    """One mask per set of :func:`all_unavoidable_sets`, with bit a - 1 for member a."""
    return tuple(sum(1 << (a - 1) for a in s) for s in all_unavoidable_sets())


@lru_cache(maxsize=None)
def _first_set_within(mask: int) -> int:
    """Index of the first set of :func:`all_unavoidable_sets` inside ``mask``, or -1.

    Bit a - 1 of ``mask`` stands for alpha_a; a set lies inside the mask when
    the bits of all its members are set.  There are at most 2**14 masks.
    """
    for index, set_mask in enumerate(_set_masks()):
        if set_mask & mask == set_mask:
            return index
    return -1


def set_max(s: ParamSet, e) -> int | float:
    """Maximum alpha value over the set; infinity absorbs."""
    prof = profile(e)
    return max(prof.value(a) for a in s)


def sigma(e) -> tuple[int | float, ParamSet]:
    """Minimum over all generated sets of their maximum alpha value, with a witness.

    The witness is the first set attaining the minimum, or the first set when
    sigma is infinite.  Requires positive pairwise-distinct exponents;
    degenerate triples are the business of :func:`classify`.
    """
    exp = _exponents(e)
    if _degenerate_case(exp) != _DEGENERATE_NONE:
        raise ValueError(
            "sigma requires positive pairwise-distinct exponents; use classify for degenerate triples"
        )
    sets = all_unavoidable_sets()
    mask = 0
    for value, slot in _alpha_walk(exp):
        mask |= 1 << slot
        index = _first_set_within(mask)
        if index >= 0:
            # every set inside the mask has maximum exactly ``value``, the least one
            return value, sets[index]
    return INFINITY, sets[0]


_DEGENERATE_NONE = "none"
_DEGENERATE_SQUARE = "i=j or j=k"
_DEGENERATE_OUTER = "i=k"

_BOUNDARY_NOTE = "undetermined (analyse individually)"
_SIGMA_INFINITE_NOTE = (
    "sigma is infinite: avoidable at every alphabet size reachable by our evidence; "
    "flagged for manual review"
)


@dataclass(frozen=True)
class ClassificationReport:
    """Avoidable/unavoidable alphabet ranges for one exponent triple."""

    exponents: PatternExponents
    degenerate_case: str
    sigma: int | float | None = None
    witness_set: tuple[int, ...] | None = None
    avoidable_min: int = 2
    avoidable_max: int | float = INFINITY  # inclusive; INFINITY means every alphabet size
    unavoidable_from: int | float | None = None
    boundary: int | None = None
    boundary_status: str | None = None
    note: str | None = None

    def as_json(self) -> dict:
        def _bound(value):
            if value is None:
                return None
            return alpha_json_value(value)

        return {
            "exponents": {"i": self.exponents.i, "j": self.exponents.j, "k": self.exponents.k},
            "degenerate_case": self.degenerate_case,
            "sigma": _bound(self.sigma),
            "witness_set": list(self.witness_set) if self.witness_set is not None else None,
            "avoidable_interval": [self.avoidable_min, _bound(self.avoidable_max)],
            "unavoidable_from": _bound(self.unavoidable_from),
            "boundary": self.boundary,
            "boundary_status": self.boundary_status,
            "note": self.note,
        }


def _degenerate_case(exp: PatternExponents) -> str:
    # Coincidences among the item exponents (0, i, j, k): adjacent ones force a
    # square into every instance; gapped ones reduce to the cubic outer-repeat
    # shape.  Both kinds are avoidable over every alphabet of size >= 2.
    if exp.i == 0 or exp.i == exp.j or exp.j == exp.k:
        return _DEGENERATE_SQUARE
    if exp.i == exp.k or exp.j == 0 or exp.k == 0:
        return _DEGENERATE_OUTER
    return _DEGENERATE_NONE


def classify(e) -> ClassificationReport:
    """Full avoidability classification of the pattern x f^i(x) f^j(x) f^k(x)."""
    exp = _exponents(e)
    degenerate = _degenerate_case(exp)
    if degenerate != _DEGENERATE_NONE:
        return ClassificationReport(
            exponents=exp,
            degenerate_case=degenerate,
            note="degenerate exponents: avoidable for every alphabet size m >= 2",
        )
    value, witness = sigma(exp)
    if value == INFINITY:
        return ClassificationReport(
            exponents=exp, degenerate_case=degenerate, sigma=INFINITY, note=_SIGMA_INFINITE_NOTE
        )
    return ClassificationReport(
        exponents=exp,
        degenerate_case=degenerate,
        sigma=value,
        witness_set=tuple(sorted(witness)),
        avoidable_max=value - 1,
        unavoidable_from=value + 1,
        boundary=value,
        boundary_status=_BOUNDARY_NOTE,
    )
