import math
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permavoid import alphas, families
from permavoid.alphas import (
    ALL_PATTERNS,
    ALPHA_INDICES,
    INFINITY,
    MAX_EXPONENT,
    REPRESENTATIONS,
    PatternExponents,
    alpha_scan_bound,
    blocks_pattern,
    canonical_pattern,
    is_canonical_pattern,
    is_swapped_form,
    profile,
    realizable,
    representation,
)


def oracle_pattern(values) -> str:
    """Independent canonicalizer: label positions through pairwise comparisons."""
    labels = [None] * len(values)
    next_label = 0
    for pos, value in enumerate(values):
        for earlier in range(pos):
            if values[earlier] == value:
                labels[pos] = labels[earlier]
                break
        else:
            labels[pos] = next_label
            next_label += 1
    return "".join(str(d) for d in labels)


def oracle_alpha(a: int, e, limit: int = 200) -> int | float:
    """Independent alpha scan with a generous fixed bound."""
    i, j, k = e
    for t in range(1, limit + 1):
        if oracle_pattern((0 % t, i % t, j % t, k % t)) == REPRESENTATIONS[a]:
            return t
    return INFINITY


def scan_profile(e) -> tuple[int | float, ...]:
    """Definitional profile: first t in 1..alpha_scan_bound(e) giving each pattern."""
    first_seen: dict[str, int] = {}
    for t in range(1, alpha_scan_bound(e) + 1):
        first_seen.setdefault(representation(t, e), t)
    return tuple(first_seen.get(REPRESENTATIONS[a], INFINITY) for a in ALPHA_INDICES)


class TestRepresentation:
    def test_examples(self):
        assert representation(2, (1, 2, 3)) == "0101"
        assert representation(4, (1, 2, 3)) == "0123"
        assert representation(1, (5, 9, 2)) == "0000"

    def test_zero_exponents_accepted(self):
        assert representation(3, (0, 3, 6)) == "0000"
        assert representation(2, (0, 1, 2)) == "0010"

    @settings(max_examples=200)
    @given(st.integers(1, 40), st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60)))
    def test_always_canonical(self, t, e):
        pattern = representation(t, e)
        assert is_canonical_pattern(pattern)
        assert pattern == oracle_pattern((0, e[0] % t, e[1] % t, e[2] % t))

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            representation(0, (1, 2, 3))


class TestAlphaValues:
    def test_frozen_examples(self):
        assert profile((1, 2, 3)).value(1) == 4
        assert profile((1, 2, 3)).value(2) == INFINITY
        assert profile((2, 4, 5)).value(6) == 2

    def test_index_range_enforced(self):
        with pytest.raises(ValueError):
            profile((1, 2, 3)).value(0)
        with pytest.raises(ValueError):
            profile((1, 2, 3)).value(15)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 14),
        st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
    )
    def test_matches_independent_scan(self, a, e):
        assert profile(e).value(a) == oracle_alpha(a, e)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 14),
        st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
    )
    def test_value_reproduces_representation(self, a, e):
        value = profile(e).value(a)
        if value != INFINITY:
            assert representation(int(value), e) == REPRESENTATIONS[a]

    def test_scan_bound_is_exact(self):
        # beyond the bound the residue pattern is frozen
        e = (3, 7, 6)
        bound = alpha_scan_bound(e)
        frozen = representation(bound, e)
        for t in range(bound, bound + 20):
            assert representation(t, e) == frozen

    def test_profile_values(self):
        prof = profile((1, 2, 3))
        assert [prof.value(a) for a in ALPHA_INDICES] == [
            4, INFINITY, INFINITY, INFINITY, INFINITY, INFINITY, INFINITY,
            INFINITY, INFINITY, INFINITY, 2, INFINITY, INFINITY, 3,
        ]

    def test_alpha1_always_above_three(self):
        for e in [(1, 2, 3), (5, 11, 2), (7, 14, 21), (4, 9, 25)]:
            value = profile(e).value(1)
            assert value != INFINITY and value > 3


class TestDivisorProfile:
    """The divisor-candidate profile against the definitional scan."""

    def test_small_box_with_zeros_and_equal_exponents(self):
        for e in product(range(13), repeat=3):
            assert profile(e).values == scan_profile(e), e

    def test_highly_composite_exponents(self):
        composite = (720, 840, 2520, 5040)
        triples = list(permutations(composite, 3)) + [
            (720, 1440, 2160),
            (840, 0, 5040),
            (2520, 2520, 5040),
            (5040, 720, 5040),
            (1, 720, 5040),
            (5039, 5040, 2520),
        ]
        for e in triples:
            assert profile(e).values == scan_profile(e), e

    def test_seeded_random_large_triples(self):
        rng = random.Random(2024)
        for _ in range(100):
            e = tuple(rng.randint(0, 3000) for _ in range(3))
            assert profile(e).values == scan_profile(e), e

    def test_divisors_match_definition(self):
        for d in range(1, 3001):
            assert alphas._divisors(d) == tuple(t for t in range(1, d + 1) if d % t == 0), d

    def test_profile_keeps_the_given_exponents(self):
        e = PatternExponents(3, 7, 6)
        assert profile(e).exponents is e
        assert profile((3, 7, 6)) == profile(e)

    def test_exponent_cap(self):
        # 10**12 is divisible by 4 and 5; mod 6 the items are 0, 4, 2, 3
        assert profile((MAX_EXPONENT, 2, 3)).value(1) == 6
        for e in [(MAX_EXPONENT + 1, 2, 3), (1, 2, 10**13)]:
            with pytest.raises(ValueError, match="at most"):
                profile(e)


class TestExponents:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PatternExponents(1, -1, 2)

    def test_sigma_and_classify_agree_on_degeneracy(self):
        # one decision: degenerate case "none" holds exactly for positive,
        # pairwise-distinct exponents, and sigma accepts exactly those
        assert families.sigma(PatternExponents(1, 2, 3))[0] == INFINITY
        for e in [(0, 2, 3), (2, 2, 3), (2, 3, 2)]:
            with pytest.raises(ValueError, match="pairwise-distinct"):
                families.sigma(PatternExponents(*e))
            assert families.classify(e).degenerate_case != "none"
        for e in product(range(13), repeat=3):
            positive_distinct = min(e) >= 1 and len(set(e)) == 3
            assert (families.classify(e).degenerate_case == "none") == positive_distinct, e
            try:
                families.sigma(e)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == positive_distinct, e


def equal_pairs(pattern: str) -> set[tuple[int, int]]:
    """Position pairs (x, y), x < y, at which the pattern repeats a digit."""
    return {(x, y) for x in range(4) for y in range(x + 1, 4) if pattern[x] == pattern[y]}


class TestClassifiers:
    """The structural classes of the representations, held as literal index sets in families."""

    SQUARE = ({(0, 1)}, {(2, 3)})
    CUBE = ({(0, 1), (0, 2), (1, 2)}, {(1, 2), (1, 3), (2, 3)})
    TWO_SQUARES = ({(0, 1), (2, 3)},)
    # each class by the position pairs at which its representations repeat a digit
    CLASSES = {
        "_SQUARES": SQUARE,
        "_GAPPED_SQUARES": ({(0, 2)}, {(1, 3)}),
        "_CUBES": CUBE,
        "_CUBES_OR_TWO_SQUARES": CUBE + TWO_SQUARES,
        "_GAPPED_CUBES": ({(0, 1), (0, 3), (1, 3)}, {(0, 2), (0, 3), (2, 3)}),
        "_TWO_SQUARES": TWO_SQUARES,
        "_TWO_GAPPED_SQUARES": ({(0, 2), (1, 3)},),
        "_MIDDLE_SQUARES": ({(1, 2)}, {(0, 3), (1, 2)}),
        "_OUTER_EQUAL_ONLY": ({(0, 3)},),
    }

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_truth_table(self, pattern):
        index = next((a for a, rep in REPRESENTATIONS.items() if rep == pattern), None)
        for name, shapes in self.CLASSES.items():
            assert (index in getattr(families, name)) == (equal_pairs(pattern) in shapes), name


class TestSwappedForm:
    def test_paper_pair(self):
        assert is_swapped_form("0012", "0102")
        assert is_swapped_form("0102", "0012")

    def test_all_distinct_not_self_swapped(self):
        assert not is_swapped_form("0123", "0123")

    def test_adjacent_equal_pair_is_self_swapped(self):
        assert is_swapped_form("0012", "0012")

    def test_negative_example(self):
        assert not is_swapped_form("0012", "0120")
        assert not is_swapped_form("0012", "0121")
        assert not is_swapped_form("0122", "0121")

    def test_exhaustive_matches_enumeration(self):
        for p1 in ALL_PATTERNS:
            expected = {p1[:i] + p1[i + 1] + p1[i] + p1[i + 2 :] for i in range(3)}
            for p2 in ALL_PATTERNS:
                assert is_swapped_form(p1, p2) == (p2 in expected)


class TestModels:
    def test_examples(self):
        assert blocks_pattern(b"01", b"01", b"23", b"45") == "0012"
        assert blocks_pattern(b"\x00", b"\x01", b"\x00", b"\x01") == "0101"
        assert blocks_pattern(b"01", b"01", b"01", b"45") == "0001"

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4), st.permutations(range(4)))
    def test_invariant_under_block_renaming(self, block_ids, relabel):
        # blocks are words named by ids; renaming ids injectively keeps the pattern
        blocks = [bytes([b]) * 2 for b in block_ids]
        renamed = [bytes([relabel[b]]) * 2 for b in block_ids]
        assert blocks_pattern(*blocks) == blocks_pattern(*renamed) == canonical_pattern(block_ids)

    def test_blocks_pattern_matches_canonical(self):
        blocks = (b"ab", b"ab", b"cd", b"ab")
        assert blocks_pattern(*blocks) == canonical_pattern(blocks) == "0010"


class TestRealizable:
    def test_examples(self):
        assert realizable(1, (1, 2, 3), 4) is True
        assert realizable(1, (1, 2, 3), 3) is False
        assert realizable(2, (1, 2, 3), 9) is False

    def test_alphabet_floor(self):
        with pytest.raises(ValueError):
            realizable(1, (1, 2, 3), 1)

    def test_longer_blocks_realize_with_fewer_letters(self):
        # realizable speaks of a one-letter x only: for (6, 3, 4) a 2-letter
        # block on orbits of lengths 2 and 3 realizes 0012 over five letters
        from permavoid.search import SearchConfig, suffix_instance

        assert realizable(2, (6, 3, 4), 5) is False
        config = SearchConfig(alphabet=5, forbidden=frozenset({"0012"}), exponents=(6, 3, 4))
        witness = suffix_instance("01012103", config)
        assert witness.pattern == REPRESENTATIONS[2] == "0012"
        assert witness.permutation.images == (2, 3, 0, 4, 1)

    def test_against_single_letter_permutation_oracle(self):
        # realizable(a, e, m) iff some letter and permutation of {0..m-1}
        # produce blocks modelling the representation
        for m in (2, 3, 4):
            for e in [(1, 2, 3), (2, 4, 5), (3, 7, 6), (1, 4, 2)]:
                achievable = set()
                for images in permutations(range(m)):
                    powers = [tuple(range(m))]
                    while True:
                        nxt = tuple(images[x] for x in powers[-1])
                        if nxt == powers[0]:
                            break
                        powers.append(nxt)
                    order = len(powers)
                    for a in range(m):
                        blocks = (
                            a,
                            powers[e[0] % order][a],
                            powers[e[1] % order][a],
                            powers[e[2] % order][a],
                        )
                        achievable.add(canonical_pattern(blocks))
                for a_idx in ALPHA_INDICES:
                    assert realizable(a_idx, e, m) == (REPRESENTATIONS[a_idx] in achievable)


def test_infinity_comparisons():
    assert INFINITY == math.inf
    assert max(3, INFINITY) == INFINITY
    assert min(3, INFINITY) == 3
