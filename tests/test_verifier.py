import json
import random

import pytest

from permavoid.search import PermModel
from permavoid.verifier import (
    H_ALPHA_CODING,
    MorphicWordSpec,
    h_alpha_spec,
    load_spec,
    max_gap_without_full_image,
    verify_prefix_avoids,
)
from permavoid.words import (
    TERNARY_THUE_MORPHISM,
    Morphism,
    is_four_power_free,
    is_square_free,
)

from oracles import oracle_max_gap, oracle_suffix_witness, perm_powers


class TestHAlphaConstruction:
    def test_first_image(self):
        assert h_alpha_spec().generate(16).text() == "0123041203410234"

    def test_first_two_images(self):
        assert h_alpha_spec().generate(32).text() == "0123041203410234" + "0132403124302134"

    def test_requested_length_honoured(self):
        for length in (1, 7, 16, 100, 1234):
            assert len(h_alpha_spec().generate(length)) == length

    def test_coding_image_shapes(self):
        images = [H_ALPHA_CODING.image(a) for a in range(3)]
        assert all(len(img) == 16 for img in images)
        assert all(img[0] == 0 for img in images)
        assert all(set(img) == {0, 1, 2, 3, 4} for img in images)
        assert len(set(images)) == 3

    def test_decodes_back_to_base_word(self):
        # the coding is injective on images, so cutting at image boundaries
        # recovers a prefix of the base word
        word = h_alpha_spec().generate(2048).letters
        inverse = {H_ALPHA_CODING.image(a): a for a in range(3)}
        decoded = bytes(
            inverse[word[pos : pos + 16]] for pos in range(0, len(word) - 15, 16)
        )
        assert decoded == TERNARY_THUE_MORPHISM.fixed_point_prefix(0, len(decoded)).letters


class TestMaxGap:
    def test_h_alpha_gap_small_prefix(self):
        assert max_gap_without_full_image(h_alpha_spec(), 2000) == 30

    def test_single_image_spec(self):
        spec = MorphicWordSpec(
            Morphism({0: "00"}), 0, coding=Morphism({0: "01234"}, target_alphabet=5)
        )
        assert max_gap_without_full_image(spec, 30) == 8  # 2 * (5 - 1)

    def test_unit_length_images(self):
        spec = MorphicWordSpec(
            Morphism({0: "01", 1: "10"}), 0, coding=Morphism({0: "1", 1: "0"}, target_alphabet=2)
        )
        assert max_gap_without_full_image(spec, 64) == 0

    def test_prefix_shorter_than_one_image(self):
        assert max_gap_without_full_image(h_alpha_spec(), 10) == 10

    def test_requires_coding(self):
        with pytest.raises(ValueError):
            max_gap_without_full_image(load_spec("ternary-thue"), 100)

    def test_matches_factor_enumeration_on_random_specs(self):
        rng = random.Random(31)
        for _ in range(300):
            m = rng.randint(1, 3)
            base = [[rng.randrange(m) for _ in range(rng.randint(1, 3))] for _ in range(m)]
            base[0] = [0] + [rng.randrange(m) for _ in range(rng.randint(1, 3))]
            coding = [[rng.randrange(4) for _ in range(rng.randint(1, 6))] for _ in range(m)]
            spec = MorphicWordSpec(
                Morphism(dict(enumerate(map(bytes, base)))),
                0,
                coding=Morphism(dict(enumerate(map(bytes, coding))), target_alphabet=4),
            )
            length = rng.randint(1, 40)
            expected = oracle_max_gap(base, 0, coding, length)
            assert max_gap_without_full_image(spec, length) == expected, (base, coding, length)


class TestVerifyPrefixAvoids:
    def test_square_free_base_avoids_square_shaped_parameters(self):
        # every forbidden representation here carries an adjacent equal pair,
        # which would be a square factor; the ternary Thue word has none
        certificate = verify_prefix_avoids(
            load_spec("ternary-thue"),
            [6, 9, 10],
            PermModel.ALL_PERMUTATIONS,
            max_block_length=10,
            prefix_length=5000,
        )
        assert certificate.clean
        assert certificate.status == "clean"
        assert certificate.gap_without_full_image is None
        assert certificate.checked_prefix_length == 5000
        # a prefix shorter than four letters holds no factor to check and is clean
        short = verify_prefix_avoids(
            load_spec("ternary-thue"), [6, 9, 10], PermModel.ALL_PERMUTATIONS, 5, 3
        )
        assert (short.status, short.checked_prefix_length) == ("clean", 3)

    def test_alternating_word_yields_witness(self):
        spec = MorphicWordSpec(Morphism({0: "01", 1: "01"}), 0)
        certificate = verify_prefix_avoids(
            spec, [11], PermModel.ALL_PERMUTATIONS, max_block_length=2, prefix_length=8
        )
        assert certificate.status == "witness"
        witness = certificate.witness
        assert witness.start == 0
        assert witness.block_length == 1
        assert witness.blocks == (b"\x00", b"\x01", b"\x00", b"\x01")
        assert witness.pattern == "0101"
        assert certificate.checked_prefix_length == 4

    def test_h_alpha_clean_one_past_the_gap(self):
        # blocks one letter longer than the widest image-free factor stay clean
        certificate = verify_prefix_avoids(
            h_alpha_spec(), range(2, 15), PermModel.ALL_PERMUTATIONS,
            max_block_length=31, prefix_length=3000,
        )
        assert certificate.clean

    def test_monotone_in_bounds(self):
        spec = h_alpha_spec()
        big = verify_prefix_avoids(
            spec, range(2, 15), PermModel.ALL_PERMUTATIONS, max_block_length=12,
            prefix_length=800,
        )
        assert big.clean
        for max_block, length in [(6, 800), (12, 400), (3, 200)]:
            small = verify_prefix_avoids(
                spec, range(2, 15), PermModel.ALL_PERMUTATIONS,
                max_block_length=max_block, prefix_length=length,
            )
            assert small.clean

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            verify_prefix_avoids(
                load_spec("ternary-thue"), [0, 3], PermModel.ALL_PERMUTATIONS, 5, 100
            )
        for max_block_length, prefix_length in ((0, 100), (5, 0), (-5, 100)):
            with pytest.raises(ValueError, match="bounds must be positive"):
                verify_prefix_avoids(
                    load_spec("ternary-thue"), [3], PermModel.ALL_PERMUTATIONS,
                    max_block_length, prefix_length,
                )

    def test_huge_prefix_rejected_before_generation(self):
        # the bound is checked before any letter is generated, so the call
        # returns at once instead of growing a 10**11-letter prefix
        with pytest.raises(ValueError, match="exceeds the supported 10,000,000 letters"):
            verify_prefix_avoids(
                h_alpha_spec(), [2], PermModel.ALL_PERMUTATIONS, 30, 100_000_000_000
            )

    def test_detector_cross_check_on_h_alpha_factors(self):
        # sample factors of the five-letter word and compare the detector's
        # verdict with an independent exponent-existence enumeration over all
        # 120 permutations
        import random
        from itertools import permutations as all_perms

        from permavoid.search import SearchConfig, suffix_instance
        from permavoid.search import forbidden_patterns

        word = h_alpha_spec().generate(1200).letters
        forbidden = forbidden_patterns(range(2, 15))
        config = SearchConfig(alphabet=5, forbidden=forbidden, model=PermModel.ALL_PERMUTATIONS)

        tables = [perm_powers(f) for f in all_perms(range(5))]
        assert len(tables) == 120

        rng = random.Random(31337)
        for _ in range(400):
            b = rng.randint(1, 4)
            start = rng.randrange(0, len(word) - 4 * b)
            factor = word[start : start + 4 * b]
            expected = oracle_suffix_witness(factor, tables, forbidden)
            assert (suffix_instance(factor, config) is not None) == (expected is not None)

    def test_certificate_json(self):
        certificate = verify_prefix_avoids(
            load_spec("ternary-thue"), [10], PermModel.FULL_CYCLE, 4, 120
        )
        data = certificate.as_json()
        assert data["status"] == "clean"
        assert data["model"] == "cycle"
        assert data["forbidden_params"] == [10]
        assert data["prefix_length"] == 120


class TestFourPowerCertificates:
    def test_thue_morse(self):
        assert is_four_power_free(load_spec("thue-morse").generate(4000))

    def test_constant_word(self):
        spec = MorphicWordSpec(Morphism({0: "00"}), 0)
        assert not is_four_power_free(spec.generate(4))

    def test_h_alpha_small(self):
        assert is_four_power_free(h_alpha_spec().generate(4000))


class TestSpecs:
    def test_builtin_names(self):
        assert load_spec("h-alpha") == h_alpha_spec()
        assert load_spec("h-alpha").coding is not None
        assert load_spec("thue-morse").coding is None
        with pytest.raises(ValueError, match="spec file nope"):
            load_spec("nope")

    def test_generate_matches_prefix_functions(self):
        prefix = TERNARY_THUE_MORPHISM.fixed_point_prefix(0, 200)
        assert load_spec("ternary-thue").generate(200) == prefix
        assert is_square_free(load_spec("ternary-thue").generate(400))

    def test_target_alphabet(self):
        assert h_alpha_spec().target_alphabet == 5
        assert load_spec("thue-morse").target_alphabet == 2

    def test_non_prolongable_spec_rejected(self):
        with pytest.raises(ValueError):
            MorphicWordSpec(Morphism({0: "10", 1: "1"}), 0)

    def test_coding_must_cover_base_alphabet(self):
        with pytest.raises(ValueError):
            MorphicWordSpec(
                Morphism({0: "01", 1: "10"}), 0, coding=Morphism({0: "1"}, target_alphabet=2)
            )

    def test_load_spec_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(h_alpha_spec().as_json()), encoding="utf-8")
        loaded = load_spec(path)
        assert loaded.base == h_alpha_spec().base
        assert loaded.coding == h_alpha_spec().coding
        assert loaded.generate(64) == h_alpha_spec().generate(64)

    def test_load_spec_builtin_name(self):
        assert load_spec("ternary-thue").generate(9).text() == "012021012"
