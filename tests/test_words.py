import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permavoid.words import (
    Morphism,
    Permutation,
    TERNARY_THUE_MORPHISM,
    THUE_MORSE_MORPHISM,
    Word,
    _overlap_free_scan,
    _power_free_scan,
    is_cube_free,
    is_four_power_free,
    is_overlap_free,
    is_square_free,
    ternary_thue_prefix,
    thue_morse_prefix,
)


def naive_order(perm: Permutation) -> int:
    """Oracle: iterate compositions until the identity returns."""
    identity = tuple(range(perm.degree))
    images = perm.images
    current = images
    n = 1
    while current != identity:
        current = tuple(images[a] for a in current)
        n += 1
    return n


perms = st.permutations(range(7)).map(Permutation)


class TestPermutation:
    def test_identity_order(self):
        assert Permutation.identity(5).order == 1

    def test_five_cycle_order(self):
        assert Permutation.from_cycles([(0, 1, 2, 3, 4)], 5).order == 5

    def test_two_three_cycle_order(self):
        perm = Permutation.from_cycles([(0, 1), (2, 3, 4)], 5)
        assert naive_order(perm) == 6
        assert perm.order == 6

    def test_power_zero_is_identity(self):
        perm = Permutation.from_cycles([(0, 1, 2)], 3)
        assert perm.power(0) == Permutation.identity(3)

    def test_power_of_cycle(self):
        perm = Permutation.from_cycles([(0, 1, 2)], 3)
        assert perm.power(2).images == (2, 0, 1)

    def test_power_at_order_is_identity(self):
        perm = Permutation.from_cycles([(0, 1), (2, 3, 4)], 5)
        assert perm.power(perm.order) == Permutation.identity(5)

    def test_huge_exponent_reduced(self):
        perm = Permutation.from_cycles([(0, 1, 2)], 3)
        assert perm.power(10**18) == perm.power(10**18 % 3)

    def test_letter_orders(self):
        perm = Permutation.from_cycles([(0, 1, 2)], 5)
        assert perm.letter_order(0) == 3
        assert perm.letter_order(4) == 1
        assert Permutation.identity(4).letter_order(2) == 1

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_apply_swap(self):
        swap = Permutation([1, 0])
        assert swap.apply(Word.parse("0110", alphabet=2)).text() == "1001"

    def test_apply_identity(self):
        word = Word.parse("0102", alphabet=3)
        assert Permutation.identity(3).apply(word) == word

    def test_apply_cycle(self):
        cycle = Permutation.from_cycles([(0, 1, 2)], 3)
        assert cycle.apply(Word.parse("012", alphabet=3)).text() == "120"

    def test_apply_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).apply(Word.parse("012", alphabet=4))

    @settings(max_examples=60)
    @given(perms, st.integers(0, 60), st.integers(0, 60))
    def test_power_additivity(self, perm, a, b):
        assert perm.power(a + b) == Permutation(
            tuple(perm.power(a).images[x] for x in perm.power(b).images)
        )

    @settings(max_examples=60)
    @given(perms)
    def test_order_is_lcm_of_letter_orders(self, perm):
        import math

        assert perm.order == math.lcm(*(perm.letter_order(a) for a in range(perm.degree)))


class TestMorphism:
    def test_thue_morse_images(self):
        assert THUE_MORSE_MORPHISM.apply("0").text() == "01"
        assert THUE_MORSE_MORPHISM.apply("1").text() == "10"

    def test_ternary_thue_on_two_letters(self):
        assert TERNARY_THUE_MORPHISM.apply("01").text() == "01202"

    def test_empty_word(self):
        assert len(THUE_MORSE_MORPHISM.apply("")) == 0

    def test_undefined_letter(self):
        with pytest.raises(ValueError):
            THUE_MORSE_MORPHISM.apply(Word.parse("2", alphabet=3))

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Morphism({0: ""})

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 2), max_size=8), st.lists(st.integers(0, 2), max_size=8))
    def test_distributes_over_concatenation(self, left, right):
        morphism = TERNARY_THUE_MORPHISM
        combined = morphism.apply(bytes(left) + bytes(right))
        assert combined.letters == morphism.apply(bytes(left)).letters + morphism.apply(
            bytes(right)
        ).letters

    def test_json_round_trip(self):
        data = TERNARY_THUE_MORPHISM.to_json_dict()
        assert data == {"0": "012", "1": "02", "2": "1"}
        assert Morphism.from_json_dict(data) == TERNARY_THUE_MORPHISM


class TestFixedPoints:
    def test_thue_morse_prefix(self):
        assert thue_morse_prefix(8).text() == "01101001"

    def test_ternary_thue_prefix(self):
        assert ternary_thue_prefix(9).text() == "012021012"

    def test_single_letter(self):
        assert thue_morse_prefix(1).text() == "0"

    def test_non_prolongable_rejected(self):
        shrink = Morphism({0: "10", 1: "1"})
        with pytest.raises(ValueError):
            shrink.fixed_point_prefix(0, 5)

    @settings(max_examples=30)
    @given(st.integers(1, 200), st.integers(0, 100))
    def test_prefix_monotone(self, short, extra):
        assert (
            thue_morse_prefix(short + extra).letters[:short] == thue_morse_prefix(short).letters
        )
        assert (
            ternary_thue_prefix(short + extra).letters[:short]
            == ternary_thue_prefix(short).letters
        )


class TestRepetitionCheckers:
    def test_square_free_examples(self):
        assert is_square_free("010")
        assert not is_square_free("0101")
        assert not is_square_free("00")

    def test_cube_examples(self):
        assert is_cube_free("0101")
        assert not is_cube_free("000")
        assert not is_cube_free("010101")

    def test_overlap_examples(self):
        assert is_overlap_free("0110")
        assert not is_overlap_free("010100")  # 01010 = a v a v a with a=0, v=1
        assert not is_overlap_free("000")

    def test_four_power_examples(self):
        assert is_four_power_free("000")
        assert not is_four_power_free("0000")
        assert not is_four_power_free("21012101210121013")

    def test_empty_and_single(self):
        for checker in (is_square_free, is_cube_free, is_overlap_free, is_four_power_free):
            assert checker("")
            assert checker("0")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=60).map(bytes))
    def test_runs_method_matches_scan(self, word):
        assert is_square_free(word) == _power_free_scan(word, 2)
        assert is_cube_free(word) == _power_free_scan(word, 3)
        assert is_four_power_free(word) == _power_free_scan(word, 4)
        assert is_overlap_free(word) == _overlap_free_scan(word)

    def test_methods_agree_on_classical_prefixes(self):
        tm = thue_morse_prefix(1500)
        tt = ternary_thue_prefix(1500)
        assert _overlap_free_scan(tm.letters) and is_overlap_free(tm)
        assert _power_free_scan(tm.letters, 3) and is_cube_free(tm)
        assert _power_free_scan(tt.letters, 2) and is_square_free(tt)


class TestWordType:
    def test_parse_and_text(self):
        word = Word.parse("0123", alphabet=4)
        assert list(word) == [0, 1, 2, 3]
        assert word.text() == "0123"

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            Word.parse("012", alphabet=2)

    def test_large_alphabet_uses_delimited_form(self):
        word = Word(bytes([0, 11, 3]), alphabet=12)
        assert word.text() == "0,11,3"
        assert Word.parse("0,11,3", alphabet=12) == word

    def test_empty_word_allowed(self):
        assert len(Word.parse("", alphabet=3)) == 0

    def test_slicing(self):
        word = Word.parse("01201", alphabet=3)
        assert word[1:4].text() == "120"
        assert word[0] == 0

    def test_concat_requires_same_alphabet(self):
        with pytest.raises(ValueError):
            Word.parse("0", alphabet=2) + Word.parse("0", alphabet=3)
