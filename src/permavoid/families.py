"""The ten collections of minimal unavoidable parameter sets and the bound sigma.

Each collection (family) is a rule: mandatory indices, choice groups, named
restriction predicates, explicit exclusions, and optionally an exact
cardinality.  A single generator interprets every rule: it takes one option
from each group, unions them with the mandatory indices, and keeps the
result when it has the required size, passes every restriction, and is not
explicitly excluded.  Where a family is described through structural classes
of representations (squares, gapped squares, cubes, ...), the option lists
are derived from the classifiers in :mod:`permavoid.alphas` rather than
hand-listed.  RULES.md documents the reading pinned for each restriction and
the regression anchors that fix it.

``sigma(e)`` evaluates every generated set at the alpha profile of ``e`` by
the maximum of its members (infinity-absorbing) and returns the minimum over
all sets together with one witnessing set.  For exponent triples that are
positive and pairwise distinct this bound classifies avoidability:
alphabets of size up to sigma - 1 admit avoiding words, alphabets of size
sigma + 1 and beyond do not, and size sigma itself needs individual
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable

from .alphas import (
    ALPHA_INDICES,
    INFINITY,
    REPRESENTATIONS,
    PatternExponents,
    alpha_json_value,
    contains_cube,
    contains_gapped_cube,
    has_gapped_square,
    has_middle_square,
    has_prefix_square,
    has_suffix_square,
    has_two_gapped_squares,
    has_two_squares,
    is_swapped_form,
    profile,
)

__all__ = [
    "FamilyRule",
    "FAMILY_IDS",
    "family_rule",
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


def _indices_where(pred: Callable[[str], bool]) -> frozenset[int]:
    return frozenset(a for a in ALPHA_INDICES if pred(REPRESENTATIONS[a]))


_SQUARES = _indices_where(
    lambda p: (has_prefix_square(p) or has_suffix_square(p)) and not contains_gapped_cube(p)
)  # {2, 5}
_GAPPED_SQUARES = _indices_where(
    lambda p: has_gapped_square(p) and not has_two_gapped_squares(p)
)  # {3, 4}
_CUBES = _indices_where(contains_cube)  # {6, 9}
_CUBES_OR_TWO_SQUARES = _indices_where(lambda p: contains_cube(p) or has_two_squares(p))  # {6, 9, 10}
_GAPPED_CUBES = _indices_where(contains_gapped_cube)  # {7, 8}
_TWO_SQUARES = _indices_where(has_two_squares)  # {10}
_TWO_GAPPED_SQUARES = _indices_where(has_two_gapped_squares)  # {11}
_MIDDLE_SQUARES = _indices_where(has_middle_square)  # {12, 13}
_OUTER_EQUAL_ONLY = _indices_where(
    lambda p: p[0] == p[3] and p[1] != p[0] and p[2] != p[0] and p[1] != p[2]
)  # {14}


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


def _s9_square_slot_balance(s: ParamSet) -> bool:
    # A square member (2 or 5) is present exactly when the fourth-slot choice
    # came from the middle-square/outer-equal branch {12, 13, 14} rather than
    # from a gapped-cube pairing {7,14} / {8,14}.
    has_square = bool(s & {2, 5})
    middle_branch = bool(s & {12, 13}) or (14 in s and not s & {7, 8})
    return has_square == middle_branch


def _s9_square_pairings(s: ParamSet) -> bool:
    if 2 in s and 3 not in s:
        return False
    if 5 in s and 4 not in s:
        return False
    if s & {2, 5}:
        return bool(s & {12, 13})
    # No square from {2, 5}: the mandatory two-squares member 10 plays the
    # square role, pairing with 14 plus a gapped-cube or middle-square member.
    return 14 in s and bool(s & {7, 8, 12, 13})


def _s9_outer_equal_pairings(s: ParamSet) -> bool:
    if {7, 14} <= s and 3 not in s:
        return False
    if {4, 14} <= s and not s & {8, 12}:
        return False
    return True


def _s9_no_full_union(s: ParamSet) -> bool:
    return not {6, 10, 12, 13, 14} <= s


@dataclass(frozen=True)
class FamilyRule:
    """Declarative description of one family of unavoidable parameter sets."""

    family_id: int
    mandatory: ParamSet
    groups: tuple[tuple[ParamSet, ...], ...]
    restrictions: tuple[tuple[str, Predicate], ...] = ()
    exclusions: frozenset[ParamSet] = frozenset()
    size: int | None = None

    def generate(self) -> tuple[ParamSet, ...]:
        seen: set[ParamSet] = set()
        out: list[ParamSet] = []
        for options in product(*self.groups) if self.groups else ((),):
            candidate = self.mandatory.union(*options) if options else self.mandatory
            if self.size is not None and len(candidate) != self.size:
                continue
            if candidate in self.exclusions or candidate in seen:
                continue
            if all(pred(candidate) for _, pred in self.restrictions):
                seen.add(candidate)
                out.append(candidate)
        return tuple(sorted(out, key=sorted))


_S9_EXCLUSIONS = frozenset(
    {
        frozenset({1, 3, 6, 8, 10, 11, 14}),
        frozenset({1, 4, 5, 6, 10, 12, 14}),
        frozenset({1, 4, 6, 7, 10, 11, 14}),
    }
)


def _build_rules() -> dict[int, FamilyRule]:
    rules = {
        1: FamilyRule(
            family_id=1,
            mandatory=frozenset({1}),
            groups=(
                _singletons(_SQUARES),
                _singletons(_GAPPED_SQUARES),
                _singletons(_CUBES_OR_TWO_SQUARES),
                _singletons(_GAPPED_CUBES),
            ),
            restrictions=(("square_gapped_cube_alignment", _square_gapped_cube_alignment),),
            size=5,
        ),
        2: FamilyRule(
            family_id=2,
            mandatory=frozenset({1}) | _MIDDLE_SQUARES,
            groups=(
                _singletons({2, 3, 4}),
                _singletons({6, 7, 9}),
            ),
            restrictions=(
                ("prefix_square_needs_first_gapped_cube", _s2_prefix_square_needs_first_gapped_cube),
            ),
            size=5,
        ),
        3: FamilyRule(
            family_id=3,
            mandatory=frozenset({1}) | _TWO_SQUARES,
            groups=(
                _singletons(_SQUARES),
                _singletons(_GAPPED_SQUARES),
                _singletons(_GAPPED_CUBES),
            ),
            restrictions=(("square_gapped_cube_alignment", _square_gapped_cube_alignment),),
            size=5,
        ),
        4: FamilyRule(
            family_id=4,
            mandatory=frozenset({1, 2, 7}),
            groups=(
                _singletons(_CUBES_OR_TWO_SQUARES),
                _singletons(_OUTER_EQUAL_ONLY),
            ),
        ),
        5: FamilyRule(
            family_id=5,
            mandatory=frozenset({1, 12, 13}) | _OUTER_EQUAL_ONLY,
            groups=(_singletons(_CUBES),),
        ),
        # The known member {1,4,6,7,9,10,13,14} carries both cube indices, and
        # dropping either one must leave the family (members form an
        # antichain), so the cube slot contributes 6 and 9 together.
        6: FamilyRule(
            family_id=6,
            mandatory=frozenset({1, 10, 13, 14}) | _CUBES,
            groups=(
                _singletons(_GAPPED_CUBES),
                _singletons(_GAPPED_SQUARES),
            ),
            restrictions=(
                (
                    "gapped_cube_needs_matching_gapped_square",
                    _s6_gapped_cube_needs_matching_gapped_square,
                ),
                ("no_mixed_gapped_pair", _s6_no_mixed_gapped_pair),
            ),
        ),
        7: FamilyRule(
            family_id=7,
            mandatory=frozenset({1, 12, 13}),
            groups=(
                _singletons(_SQUARES),
                _singletons(_GAPPED_SQUARES),
                _singletons(_GAPPED_CUBES),
            ),
            restrictions=(
                ("excluded_pairs", _s7_excluded_pairs),
                ("square_gapped_cube_alignment", _square_gapped_cube_alignment),
            ),
        ),
        8: FamilyRule(
            family_id=8,
            mandatory=frozenset({1, 3, 5, 7}) | _OUTER_EQUAL_ONLY,
            groups=(_singletons(_CUBES),),
            size=6,
        ),
        9: FamilyRule(
            family_id=9,
            mandatory=frozenset({1}) | _TWO_SQUARES | _TWO_GAPPED_SQUARES,
            groups=(
                # square members and/or the fourth slot; two elements in all
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
            restrictions=(
                ("square_slot_balance", _s9_square_slot_balance),
                ("square_pairings", _s9_square_pairings),
                ("outer_equal_pairings", _s9_outer_equal_pairings),
                ("no_full_union", _s9_no_full_union),
            ),
            exclusions=_S9_EXCLUSIONS,
            size=7,
        ),
        10: FamilyRule(
            family_id=10,
            mandatory=frozenset({1}),
            groups=(
                (
                    frozenset({3, 5, 6, 10, 11, 13, 14}),
                    frozenset({3, 5, 9, 10, 11, 13, 14}),
                    frozenset({2, 4, 13, 6, 10, 11, 14}),
                    frozenset({2, 4, 13, 9, 10, 11, 14}),
                ),
            ),
            size=8,
        ),
    }
    return rules


_RULES = _build_rules()


def family_rule(family_id: int) -> FamilyRule:
    if family_id not in _RULES:
        raise ValueError(f"family id must be in 1..10, got {family_id}")
    return _RULES[family_id]


@lru_cache(maxsize=None)
def enumerate_family(family_id: int) -> tuple[ParamSet, ...]:
    """All parameter sets of the given family, deduplicated and sorted."""
    return family_rule(family_id).generate()


@lru_cache(maxsize=None)
def all_unavoidable_sets() -> tuple[ParamSet, ...]:
    """Deduplicated union of the ten families."""
    seen: set[ParamSet] = set()
    out: list[ParamSet] = []
    for family_id in FAMILY_IDS:
        for s in enumerate_family(family_id):
            if s not in seen:
                seen.add(s)
                out.append(s)
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


@lru_cache(maxsize=1)
def _compiled_sets() -> tuple[tuple[ParamSet, ...], tuple[Callable, ...]]:
    """The sets of :func:`all_unavoidable_sets` with one getter per set.

    Each getter picks the set's members, as 0-based slots, out of
    ``AlphaProfile.values``; every set has at least five members, so it
    returns a tuple.
    """
    sets = all_unavoidable_sets()
    return sets, tuple(itemgetter(*(a - 1 for a in sorted(s))) for s in sets)


def set_max(s: ParamSet, e) -> int | float:
    """Maximum alpha value over the set; infinity absorbs."""
    prof = profile(e)
    return max(prof.value(a) for a in s)


def sigma(e) -> tuple[int | float, ParamSet]:
    """Minimum over all generated sets of their maximum alpha value, with a witness.

    Requires positive pairwise-distinct exponents; degenerate triples are the
    business of :func:`classify`.
    """
    exp = e if isinstance(e, PatternExponents) else PatternExponents(*e)
    if not exp.is_valid_for_sigma:
        raise ValueError(
            "sigma requires positive pairwise-distinct exponents; use classify for degenerate triples"
        )
    values = profile(exp).values
    sets, getters = _compiled_sets()
    maxima = [max(getter(values)) for getter in getters]
    best = min(maxima)
    # the first set attaining the minimum; sets[0] when sigma is infinite
    return best, sets[maxima.index(best)]


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
    sigma: int | float | None
    witness_set: tuple[int, ...] | None
    avoidable_min: int
    avoidable_max: int | float  # inclusive; INFINITY means every alphabet size
    unavoidable_from: int | float | None
    boundary: int | None
    boundary_status: str | None
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
    exp = e if isinstance(e, PatternExponents) else PatternExponents(*e)
    degenerate = _degenerate_case(exp)
    if degenerate != _DEGENERATE_NONE:
        return ClassificationReport(
            exponents=exp,
            degenerate_case=degenerate,
            sigma=None,
            witness_set=None,
            avoidable_min=2,
            avoidable_max=INFINITY,
            unavoidable_from=None,
            boundary=None,
            boundary_status=None,
            note="degenerate exponents: avoidable for every alphabet size m >= 2",
        )
    value, witness = sigma(exp)
    if value == INFINITY:
        return ClassificationReport(
            exponents=exp,
            degenerate_case=degenerate,
            sigma=INFINITY,
            witness_set=None,
            avoidable_min=2,
            avoidable_max=INFINITY,
            unavoidable_from=None,
            boundary=None,
            boundary_status=None,
            note=_SIGMA_INFINITE_NOTE,
        )
    value = int(value)
    return ClassificationReport(
        exponents=exp,
        degenerate_case=degenerate,
        sigma=value,
        witness_set=tuple(sorted(witness)),
        avoidable_min=2,
        avoidable_max=value - 1,
        unavoidable_from=value + 1,
        boundary=value,
        boundary_status=_BOUNDARY_NOTE,
    )
