import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permavoid.search import PermModel, SearchConfig, suffix_instance
from permavoid.words import (
    Morphism,
    Permutation,
    TERNARY_THUE_MORPHISM,
    THUE_MORSE_MORPHISM,
    Word,
    is_cube_free,
    is_four_power_free,
    is_overlap_free,
    is_square_free,
)

from oracles import (
    oracle_fixed_point_prefix,
    oracle_overlap_free,
    oracle_power_free,
    perm_powers,
)

IDENTITY_TABLE = bytes(range(256))

perms = st.permutations(range(7)).map(Permutation)


@st.composite
def prolongable_morphisms(draw):
    """A morphism on 1..4 letters whose image of 0 starts with 0 and has two or more letters."""
    m = draw(st.integers(1, 4))
    image = st.lists(st.integers(0, m - 1), min_size=1, max_size=4)
    images = [draw(image) for _ in range(m)]
    images[0] = [0] + draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
    return images


def thue_morse_prefix(length: int) -> Word:
    return THUE_MORSE_MORPHISM.fixed_point_prefix(0, length)


def ternary_thue_prefix(length: int) -> Word:
    return TERNARY_THUE_MORPHISM.fixed_point_prefix(0, length)


def apply(perm: Permutation, text: str) -> str:
    """f applied letterwise to a digit word, as the matcher applies it."""
    word = Word.parse(text, alphabet=len(perm.images))
    return Word(word.letters.translate(perm.power_tables()[1 % perm.order]), word.alphabet).text()


class TestPermutation:
    def test_identity_order(self):
        assert Permutation(range(5)).order == 1

    def test_five_cycle_order(self):
        assert Permutation.from_cycles([(0, 1, 2, 3, 4)], 5).order == 5

    def test_two_three_cycle_order(self):
        perm = Permutation.from_cycles([(0, 1), (2, 3, 4)], 5)
        assert len(perm_powers(perm.images)) == 6
        assert perm.order == 6

    def test_power_zero_is_identity(self):
        perm = Permutation.from_cycles([(0, 1, 2)], 3)
        assert perm.power_tables()[0] == IDENTITY_TABLE

    def test_power_of_cycle(self):
        perm = Permutation.from_cycles([(0, 1, 2)], 3)
        assert perm.power_tables()[2][:3] == bytes([2, 0, 1])

    def test_power_at_order_is_identity(self):
        perm = Permutation.from_cycles([(0, 1), (2, 3, 4)], 5)
        tables = perm.power_tables()
        assert tables[-1].translate(tables[1]) == IDENTITY_TABLE

    def test_huge_exponent_reduced(self):
        # fixed-mode exponents are reduced mod the order: these are (1, 2, 1) mod 3
        config = SearchConfig(
            alphabet=3,
            forbidden=frozenset({"0121", "0101"}),
            model=PermModel.FULL_CYCLE,
            exponents=(10**18, 10**18 + 1, 10**18 + 3),
        )
        witness = suffix_instance("0121", config)
        assert witness is not None and witness.exponents == config.exponents
        assert suffix_instance("0101", config) is None

    def test_letter_orders(self):
        # the orbit length of each letter, read off the power tables
        perm = Permutation.from_cycles([(0, 1, 2)], 5)
        tables = perm.power_tables()
        orbits = [next(n for n in range(1, 4) if tables[n % 3][a] == a) for a in range(5)]
        assert orbits == [3, 3, 3, 1, 1]

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_order_above_cap_rejected(self):
        # cycles of lengths 2, 3, 5, 7, 11 and 13 give order 30,030
        lengths, start, cycles = (2, 3, 5, 7, 11, 13), 0, []
        for n in lengths:
            cycles.append(range(start, start + n))
            start += n
        with pytest.raises(ValueError, match="order exceeds"):
            Permutation.from_cycles(cycles, start).power_tables()

    def test_apply_swap(self):
        assert apply(Permutation([1, 0]), "0110") == "1001"

    def test_apply_identity(self):
        assert apply(Permutation(range(3)), "0102") == "0102"

    def test_apply_cycle(self):
        assert apply(Permutation.from_cycles([(0, 1, 2)], 3), "012") == "120"

    @settings(max_examples=60)
    @given(perms, st.integers(0, 60), st.integers(0, 60))
    def test_power_additivity(self, perm, a, b):
        tables, order = perm.power_tables(), perm.order
        assert tables[(a + b) % order] == tables[a % order].translate(tables[b % order])

    @settings(max_examples=60)
    @given(perms)
    def test_order_is_lcm_of_letter_orders(self, perm):
        # the tables are the oracle's powers, each extended by the identity
        powers = perm_powers(perm.images)
        assert perm.power_tables() == tuple(bytes(p) + IDENTITY_TABLE[7:] for p in powers)
        orbits = []
        for a in range(7):
            n, b = 1, perm.images[a]
            while b != a:
                n, b = n + 1, perm.images[b]
            orbits.append(n)
        assert perm.order == len(powers) == math.lcm(*orbits)


class TestMorphism:
    def test_thue_morse_images(self):
        assert THUE_MORSE_MORPHISM.apply_letters(bytes([0])) == bytes([0, 1])
        assert THUE_MORSE_MORPHISM.apply_letters(bytes([1])) == bytes([1, 0])

    def test_ternary_thue_on_two_letters(self):
        assert TERNARY_THUE_MORPHISM.apply_letters(bytes([0, 1])) == bytes([0, 1, 2, 0, 2])

    def test_empty_word(self):
        assert THUE_MORSE_MORPHISM.apply_letters(b"") == b""

    def test_undefined_letter(self):
        with pytest.raises(ValueError):
            THUE_MORSE_MORPHISM.apply_letters(bytes([2]))

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Morphism({0: ""})

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 2), max_size=8), st.lists(st.integers(0, 2), max_size=8))
    def test_distributes_over_concatenation(self, left, right):
        morphism = TERNARY_THUE_MORPHISM
        combined = morphism.apply_letters(bytes(left) + bytes(right))
        assert combined == morphism.apply_letters(bytes(left)) + morphism.apply_letters(
            bytes(right)
        )

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

    def test_letter_without_image_rejected(self):
        # letter 2 has no image, whether or not the prefix reaches far enough to expand it
        for images, length in (({0: "02", 1: "1"}, 2), ({0: "0002", 1: "1"}, 5)):
            with pytest.raises(ValueError, match="letter 2 undefined"):
                Morphism(images).fixed_point_prefix(0, length)

    def test_slowly_growing_morphism(self):
        # 0 -> 01, 1 -> 1 grows by one letter per application
        slow = Morphism({0: "01", 1: "1"})
        assert slow.fixed_point_prefix(0, 32_000).letters == bytes([0]) + bytes([1]) * 31_999

    def test_builtins_match_oracle(self):
        for morphism in (THUE_MORSE_MORPHISM, TERNARY_THUE_MORPHISM):
            images = [tuple(img) for img in morphism.images]
            prefix = morphism.fixed_point_prefix(0, 100_000).letters
            assert tuple(prefix) == oracle_fixed_point_prefix(images, 0, 100_000)

    @settings(max_examples=200, deadline=None)
    @given(prolongable_morphisms(), st.integers(1, 300))
    def test_prefix_matches_oracle(self, images, length):
        morphism = Morphism(dict(enumerate(bytes(img) for img in images)))
        expected = oracle_fixed_point_prefix([tuple(img) for img in images], 0, length)
        assert tuple(morphism.fixed_point_prefix(0, length).letters) == expected

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

    @staticmethod
    def assert_checkers_match_oracles(word):
        assert is_square_free(word) == oracle_power_free(word, 2)
        assert is_cube_free(word) == oracle_power_free(word, 3)
        assert is_four_power_free(word) == oracle_power_free(word, 4)
        assert is_overlap_free(word) == oracle_overlap_free(word)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=60).map(bytes))
    def test_runs_method_matches_scan(self, word):
        self.assert_checkers_match_oracles(word)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 255]), max_size=60).map(bytes))
    def test_runs_method_matches_scan_on_whole_bytes(self, word):
        # the checkers XOR whole bytes, so letters use the top bit too
        self.assert_checkers_match_oracles(word)

    def test_methods_agree_on_classical_prefixes(self):
        tm = thue_morse_prefix(1500)
        tt = ternary_thue_prefix(1500)
        assert oracle_overlap_free(tm.letters) and is_overlap_free(tm)
        assert oracle_power_free(tm.letters, 3) and is_cube_free(tm)
        assert oracle_power_free(tt.letters, 2) and is_square_free(tt)


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
