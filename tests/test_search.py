import dataclasses
import hashlib
import json
import logging
import random
import sys
import threading
from collections import Counter
from itertools import permutations
from math import factorial

import pytest

import permavoid.search as search_module
from permavoid.alphas import ALL_PATTERNS, canonical_pattern
from permavoid.search import (
    InstanceWitness,
    PermModel,
    SearchConfig,
    forbidden_patterns,
    longest_avoiding_word,
    model_permutations,
    suffix_instance,
    verify_word_avoids,
)
from permavoid.verifier import h_alpha_spec, load_spec
from permavoid.words import Permutation, Word

from oracles import oracle_longest_avoiding_word, oracle_suffix_witness, perm_powers


POWER_TABLES = {m: [perm_powers(f) for f in permutations(range(m))] for m in (2, 3, 4)}


@pytest.fixture(autouse=True)
def empty_verdict_table():
    """Start and end each test with an empty shared verdict table: matcher
    counts are pinned from a cold table, and a test's stand-in ``_match``
    must not leave its answers behind."""
    search_module._verdicts.table.clear()
    yield
    search_module._verdicts.table.clear()


def _recording(monkeypatch, name):
    """Replace a search-module function by a delegating recorder; returns its call list."""
    calls = []
    original = getattr(search_module, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(search_module, name, record)
    return calls


def _last_gap(block):
    """How far back the block's last letter last occurred inside the block, or None."""
    return next((d for d in range(1, len(block)) if block[-1 - d] == block[-1]), None)


def _relabellings(blocks):
    """Whether the blocks are relabellings of one another: one first-occurrence shape."""
    return len({canonical_pattern(block) for block in blocks}) == 1


class TestModels:
    def test_full_cycle_counts_and_orders(self):
        for m in (2, 3, 4, 5):
            perms = model_permutations(PermModel.FULL_CYCLE, m)
            assert len(perms) == [1, 1, 2, 6, 24][m - 1]
            assert all(p.order == m for p in perms)

    def test_fix_one_point_counts(self):
        perms = model_permutations(PermModel.FIX_ONE_POINT_CYCLE, 4)
        assert len(perms) == 8
        for p in perms:
            fixed = [a for a in range(4) if p.images[a] == a]
            assert len(fixed) == 1
            assert p.order == 3

    def test_fix_one_point_needs_three_letters(self):
        with pytest.raises(ValueError):
            model_permutations(PermModel.FIX_ONE_POINT_CYCLE, 2)

    def test_all_permutations(self):
        assert len(model_permutations(PermModel.ALL_PERMUTATIONS, 4)) == 24

    def test_small_alphabet_rejected(self):
        with pytest.raises(ValueError):
            model_permutations(PermModel.FULL_CYCLE, 1)

    def test_closed_form_sizes(self):
        for m in (3, 4, 5, 6):
            assert len(model_permutations(PermModel.ALL_PERMUTATIONS, m)) == factorial(m)
            assert len(model_permutations(PermModel.FULL_CYCLE, m)) == factorial(m - 1)
            assert len(model_permutations(PermModel.FIX_ONE_POINT_CYCLE, m)) == m * factorial(m - 2)

    def test_oversized_models_rejected_before_enumeration(self):
        # 9! = 362,880 and 11! = 39,916,800 permutations; the closed-form
        # size check raises before any of them is built
        for model, m in ((PermModel.ALL_PERMUTATIONS, 9), (PermModel.FULL_CYCLE, 12)):
            with pytest.raises(ValueError, match="permutations"):
                model_permutations(model, m)
        with pytest.raises(ValueError):
            model_permutations(PermModel.FIX_ONE_POINT_CYCLE, 9)
        assert len(model_permutations(PermModel.FULL_CYCLE, 9)) == factorial(8)


class TestForbiddenPatterns:
    def test_reps_plus_all_equal(self):
        assert forbidden_patterns({1, 6}) == frozenset({"0123", "0001", "0000"})

    def test_gapped_square_completion(self):
        assert "0101" in forbidden_patterns({1, 2, 4, 6, 7})
        assert "0101" in forbidden_patterns({3})
        assert "0101" not in forbidden_patterns({1, 2, 6, 7})

    @pytest.mark.parametrize(
        "model, exponents, permutation",
        [
            (PermModel.FULL_CYCLE, (1, 2, 3), None),
            (PermModel.FULL_CYCLE, (3, 6, 9), (1, 2, 0)),
            (PermModel.FIX_ONE_POINT_CYCLE, (1, 2, 3), (0, 2, 1)),
            (PermModel.ALL_PERMUTATIONS, (1, 2, 3), (0, 1, 2)),
        ],
    )
    def test_all_equal_in_fixed_mode(self, model, exponents, permutation):
        # uuuu is an instance only when some model permutation's i-th, j-th
        # and k-th powers fix u; no 3-cycle's powers 1, 2, 3 all do
        config = SearchConfig(
            alphabet=3, forbidden=forbidden_patterns({1}), model=model, exponents=exponents
        )
        witness = verify_word_avoids("0000", config)
        if permutation is None:
            assert witness is None
        else:
            assert witness.permutation.images == permutation
            assert (witness.exponents, witness.pattern) == (exponents, "0000")

    def test_fixed_cycle_search_repeats_one_letter(self):
        config = SearchConfig(
            alphabet=3,
            forbidden=forbidden_patterns({1, 2, 4, 6, 7}),
            model=PermModel.FULL_CYCLE,
            exponents=(1, 2, 3),
            length_cap=30,
        )
        result = longest_avoiding_word(config)
        assert result.witness_word.text() == "0" * 30
        assert (result.max_length_found, result.exhausted, result.nodes_visited) == (30, False, 30)

    def test_completion_anchor(self):
        # RULES.md: without the 0101 completion the family-1 anchor search over
        # four letters reaches 42 letters instead of 36
        assert forbidden_patterns({4}) == frozenset({"0121", "0000", "0101"})
        config = SearchConfig(
            alphabet=4,
            forbidden=forbidden_patterns({1, 2, 4, 6, 7}) - {"0101"},
            model=PermModel.FULL_CYCLE,
            length_cap=60,
        )
        result = longest_avoiding_word(config)
        assert (result.max_length_found, result.exhausted, result.nodes_visited) == (
            42,
            True,
            192_988,
        )
        assert result.witness_word.text() == "010102102102100110011002211002211002211000"


class TestSuffixInstance:
    def test_all_equal_blocks(self):
        config = SearchConfig(alphabet=2, forbidden=frozenset({"0000"}))
        witness = suffix_instance("0000", config)
        assert witness is not None
        assert witness.pattern == "0000"
        assert witness.blocks == (b"\x00", b"\x00", b"\x00", b"\x00")

    def test_full_cycle_successive_images(self):
        config = SearchConfig(
            alphabet=4, forbidden=frozenset({"0123"}), model=PermModel.FULL_CYCLE
        )
        witness = suffix_instance("0123", config)
        assert witness is not None
        assert witness.block_length == 1

    def test_structure_mismatch_is_no_witness(self):
        config = SearchConfig(
            alphabet=4, forbidden=frozenset({"0123"}), model=PermModel.FULL_CYCLE
        )
        assert suffix_instance("0102", config) is None

    def test_short_words_have_no_witness(self):
        config = SearchConfig(alphabet=2, forbidden=frozenset({"0000"}))
        assert suffix_instance("000", config) is None
        assert suffix_instance("", config) is None

    def test_witness_revalidates(self):
        rng = random.Random(5)
        config = SearchConfig(
            alphabet=3,
            forbidden=forbidden_patterns(range(1, 15)),
            model=PermModel.ALL_PERMUTATIONS,
        )
        found = 0
        while found < 25:
            w = bytes(rng.randrange(3) for _ in range(rng.randint(4, 14)))
            witness = suffix_instance(w, config)
            if witness is None:
                continue
            found += 1
            u, v1, v2, v3 = witness.blocks
            assert witness.factor() == w[witness.start : witness.start + 4 * witness.block_length]
            powers = perm_powers(witness.permutation.images)
            for v, exponent in zip((v1, v2, v3), witness.exponents):
                assert exponent >= 1
                assert bytes(powers[exponent % len(powers)][a] for a in u) == v
            assert canonical_pattern(witness.blocks) == witness.pattern
            assert witness.pattern in config.forbidden

    def test_differential_small(self):
        rng = random.Random(99)
        for _ in range(3000):
            m = rng.choice((2, 3, 4))
            w = bytes(rng.randrange(m) for _ in range(rng.randint(1, 16)))
            forbidden = frozenset(rng.sample(ALL_PATTERNS, rng.randint(1, 6)))
            config = SearchConfig(
                alphabet=m, forbidden=forbidden, model=PermModel.ALL_PERMUTATIONS
            )
            assert (suffix_instance(w, config) is not None) == (
                oracle_suffix_witness(w, POWER_TABLES[m], forbidden) is not None
            )

    def test_model_containment(self):
        rng = random.Random(17)
        for model in (PermModel.FULL_CYCLE, PermModel.FIX_ONE_POINT_CYCLE):
            hits = 0
            while hits < 20:
                m = rng.choice((3, 4))
                w = bytes(rng.randrange(m) for _ in range(rng.randint(4, 12)))
                forbidden = frozenset(rng.sample(ALL_PATTERNS, 5))
                narrow = SearchConfig(alphabet=m, forbidden=forbidden, model=model)
                witness = suffix_instance(w, narrow)
                if witness is None:
                    continue
                hits += 1
                wide = SearchConfig(
                    alphabet=m, forbidden=forbidden, model=PermModel.ALL_PERMUTATIONS
                )
                other = suffix_instance(w, wide)
                assert other is not None
                assert other.block_length <= witness.block_length

    def test_fixed_mode(self):
        config = SearchConfig(
            alphabet=4,
            forbidden=frozenset({"0123"}),
            model=PermModel.FULL_CYCLE,
            exponents=(1, 2, 3),
        )
        assert suffix_instance("0123", config) is not None
        # exponents congruent to (2, 4, 6) mod 4 produce shifts (2, 0, 2),
        # so the blocks must look like (u, x, u, x) with x two steps along
        shifted = SearchConfig(
            alphabet=4,
            forbidden=frozenset({"0101"}),
            model=PermModel.FULL_CYCLE,
            exponents=(2, 4, 6),
        )
        assert suffix_instance("0202", shifted) is not None
        assert suffix_instance("0201", shifted) is None
        assert suffix_instance("0123", shifted) is None

    def test_witness_identity_matches_oracle(self):
        # the reported permutation and exponents appear in verify-word
        # reports: the shortest block length, the first permutation in model
        # order, and the least exponents as residues mod the order, 0 written
        # as the order (or the fixed exponents)
        rng = random.Random(4044)
        later_permutation = exponent_is_order = longer_block = 0
        for model in PermModel:
            for m in (3, 4, 5):
                perms = model_permutations(model, m)
                tables = [perm_powers(p.images) for p in perms]
                for exponents in (None, (1, 2, 3), (2, 5, 7), (4, 4, 1)):
                    hits = 0
                    for _ in range(120):
                        w = bytes(rng.randrange(m) for _ in range(rng.randint(0, 12)))
                        forbidden = set(rng.sample(ALL_PATTERNS, rng.randint(1, 8)))
                        if rng.random() < 0.75:
                            # plant a suffix u f^e1(u) f^e2(u) f^e3(u), exponents
                            # up to twice the order, and usually forbid its pattern
                            f = rng.choice(tables)
                            u = bytes(rng.randrange(m) for _ in range(rng.randint(1, 4)))
                            powers = exponents or [rng.randint(1, 2 * len(f)) for _ in range(3)]
                            suffix = [u] + [bytes(f[e % len(f)][a] for a in u) for e in powers]
                            w += b"".join(suffix)
                            if rng.random() < 0.8:
                                forbidden.add(canonical_pattern(suffix))
                        forbidden = frozenset(forbidden)
                        config = SearchConfig(
                            alphabet=m, forbidden=forbidden, model=model, exponents=exponents
                        )
                        got = suffix_instance(w, config)
                        expected = oracle_suffix_witness(w, tables, forbidden, exponents)
                        if expected is None:
                            assert got is None
                            continue
                        hits += 1
                        start, b, index, found = expected
                        blocks = [w[start + l * b : start + (l + 1) * b] for l in range(4)]
                        assert got.as_json() == {
                            "start": start,
                            "block_length": b,
                            "blocks": ["".join(str(a) for a in blk) for blk in blocks],
                            "permutation": list(perms[index].images),
                            "exponents": list(found),
                            "pattern": canonical_pattern(blocks),
                        }
                        later_permutation += index > 0
                        exponent_is_order += len(tables[index]) in found
                        longer_block += b > 1
                    assert hits >= 50
        assert min(later_permutation, exponent_is_order, longer_block) >= 1000

    def test_last_letter_boundary_words(self):
        # planted suffixes u f^e1(u) f^e2(u) f^e3(u) whose last letter recurs
        # exactly at the block start (distance b - 1) or just before the last
        # block (distance b): the edges of the last-letter relabelling filter
        rng = random.Random(3141)
        edges = Counter()
        for model in PermModel:
            for m in (3, 4):
                perms = model_permutations(model, m)
                tables = [perm_powers(p.images) for p in perms]
                for exponents in (None, (1, 2, 3), (2, 4, 4), (3, 1, 1)):
                    forbidden = frozenset(ALL_PATTERNS)
                    config = SearchConfig(
                        alphabet=m, forbidden=forbidden, model=model, exponents=exponents
                    )
                    for _ in range(150):
                        b = rng.randint(1, 5)
                        x = rng.randrange(m)
                        others = [a for a in range(m) if a != x]
                        if b >= 2 and rng.random() < 0.5:
                            inner = [rng.randrange(m) for _ in range(b - 2)]
                            u = bytes([x, *inner, x])
                        else:
                            u = bytes([*(rng.choice(others) for _ in range(b - 1)), x])
                        f = rng.choice(tables)
                        powers = exponents or [rng.randint(1, 2 * len(f)) for _ in range(3)]
                        blocks = [u] + [bytes(f[e % len(f)][a] for a in u) for e in powers]
                        w = bytes(rng.randrange(m) for _ in range(rng.randint(0, 4)))
                        w += b"".join(blocks)
                        p = next((d for d in range(1, len(w)) if w[-1 - d] == w[-1]), len(w))
                        expected = oracle_suffix_witness(w, tables, forbidden, exponents)
                        got = suffix_instance(w, config)
                        assert got is not None and expected is not None
                        assert (got.start, got.block_length) == expected[:2]
                        if expected[1] == b and p in (b - 1, b):
                            edges[p - b] += 1
        assert edges[-1] >= 200 and edges[0] >= 200

    def test_relabelling_filter_is_exact(self, monkeypatch):
        # the matcher sees exactly the splits whose pattern is forbidden and
        # whose four blocks are relabellings of one another; others are
        # skipped without a call
        calls = []

        def record(compiled, u, v1, v2, v3, exponents):
            calls.append((u, v1, v2, v3))  # and no match, so every block length is tried

        monkeypatch.setattr(search_module, "_match", record)

        rng = random.Random(2718)
        passed = skipped = 0
        for _ in range(3500):
            m = rng.choice((2, 3, 4))
            w = bytes(rng.randrange(m) for _ in range(rng.randint(0, 8)))
            if rng.random() < 0.5:
                # a suffix of four relabelled copies of a block, one letter maybe changed
                u = bytes(rng.randrange(m) for _ in range(rng.randint(1, 6)))
                copies = [bytes(rng.sample(range(m), m)[a] for a in u) for _ in range(3)]
                w += u + b"".join(copies)
                if rng.random() < 0.5:
                    t = rng.randrange(len(w))
                    w = w[:t] + bytes([rng.randrange(m)]) + w[t + 1 :]
            forbidden = frozenset(rng.sample(ALL_PATTERNS, rng.randint(1, 15)))
            calls.clear()
            search_module._verdicts.table.clear()  # else an earlier word's factors skip it
            assert suffix_instance(w, SearchConfig(alphabet=m, forbidden=forbidden)) is None
            n = len(w)
            expected = []
            for b in range(1, n // 4 + 1):
                blocks = tuple(w[n - (4 - l) * b : n - (3 - l) * b] for l in range(4))
                if canonical_pattern(blocks) not in forbidden:
                    continue
                if _relabellings(blocks):
                    expected.append(blocks)
                    passed += b > 1
                else:
                    skipped += 1
            assert calls == expected
        assert passed >= 200 and skipped >= 2000

    def test_long_blocks_match_oracle(self):
        # u f^e1(u) f^e2(u) f^e3(u) with blocks of 65-100 letters, longer than
        # any memoised block, one letter changed in every other word; u is a
        # factor of the square-free ternary Thue word, so verify_word_avoids
        # often reaches the planted split before any shorter instance
        thue = load_spec("ternary-thue").generate(2000).letters
        rng = random.Random(6502)
        seen = Counter()
        for m in (3, 4):
            perms = model_permutations(PermModel.ALL_PERMUTATIONS, m)
            tables = [perm_powers(p.images) for p in perms]
            for exponents in (None, (1, 2, 3), (2, 5, 7)):
                for draw in range(20):
                    length = rng.randint(65, 100)
                    s = rng.randrange(len(thue) - length)
                    letters = rng.sample(range(m), 3)
                    u = bytes(letters[a] for a in thue[s : s + length])
                    f = rng.choice(tables)
                    powers = exponents or [rng.randint(1, 2 * len(f)) for _ in range(3)]
                    planted = [u] + [bytes(f[e % len(f)][a] for a in u) for e in powers]
                    w = bytes(rng.randrange(m) for _ in range(rng.randint(0, 8)))
                    w += b"".join(planted)
                    if draw % 2:
                        t = rng.randrange(len(w))
                        w = w[:t] + bytes([(w[t] + rng.randrange(1, m)) % m]) + w[t + 1 :]
                    forbidden = frozenset({canonical_pattern(planted)})
                    config = SearchConfig(alphabet=m, forbidden=forbidden, exponents=exponents)
                    scans = [("suffix", suffix_instance(w, config), [len(w)])]
                    if draw < 4:  # the prefixwise oracle is slow at these lengths
                        verified = verify_word_avoids(w, config)
                        scans.append(("verify", verified, range(4, len(w) + 1)))
                    for scan, got, ends in scans:
                        expected = None
                        for end in ends:
                            expected = oracle_suffix_witness(w[:end], tables, forbidden, exponents)
                            if expected is not None:
                                break
                        if expected is None:
                            assert got is None
                            seen[scan, "none"] += 1
                            continue
                        start, b, index, found = expected
                        blocks = [w[start + l * b : start + (l + 1) * b] for l in range(4)]
                        assert got.as_json() == {
                            "start": start,
                            "block_length": b,
                            "blocks": ["".join(str(a) for a in blk) for blk in blocks],
                            "permutation": list(perms[index].images),
                            "exponents": list(found),
                            "pattern": canonical_pattern(blocks),
                        }
                        seen[scan, "long" if b > 64 else "short"] += 1
        assert seen["suffix", "long"] >= 50 and seen["suffix", "none"] >= 50
        assert seen["verify", "long"] >= 5


class TestVerifyWordAvoids:
    def test_empty_word(self):
        config = SearchConfig(alphabet=2, forbidden=frozenset({"0000"}))
        assert verify_word_avoids("", config) is None

    def test_agrees_with_prefixwise_suffix_instance(self):
        rng = random.Random(3)
        config = SearchConfig(
            alphabet=3,
            forbidden=forbidden_patterns({3, 10}),
            model=PermModel.ALL_PERMUTATIONS,
        )
        for _ in range(200):
            w = bytes(rng.randrange(3) for _ in range(rng.randint(0, 20)))
            expected = None
            for end in range(4, len(w) + 1):
                expected = suffix_instance(w[:end], config)
                if expected is not None:
                    break
            got = verify_word_avoids(w, config)
            assert (got is None) == (expected is None)
            if got is not None:
                assert (got.start, got.block_length) == (expected.start, expected.block_length)

    def test_block_length_bound_respected(self):
        config = SearchConfig(alphabet=2, forbidden=frozenset({"0000"}))
        w = "01" * 4  # (01)^4 is a 4-power with block length 2
        assert verify_word_avoids(w, config, max_block=1) is None
        assert verify_word_avoids(w, config, max_block=2) is not None

    def test_letters_outside_alphabet_rejected(self):
        # a permutation of {0, 1} does not act on letter 2: "2222" is no
        # 0000 instance under it, and "0123" is no word over two letters
        config = SearchConfig(alphabet=2, forbidden=frozenset({"0000"}))
        for scan in (verify_word_avoids, suffix_instance):
            for word, letter in (("2222", 2), ("0123", 3), (Word.parse("0120", alphabet=3), 2)):
                message = f"^letter {letter} out of range for alphabet of size 2$"
                with pytest.raises(ValueError, match=message):
                    scan(word, config)

    def test_nonpositive_block_bound_rejected(self):
        # a bound below 1 would check no split at all and report "avoids"
        config = SearchConfig(alphabet=2, forbidden=frozenset({"0000"}))
        for max_block in (0, -1):
            with pytest.raises(ValueError, match="max_block must be positive"):
                verify_word_avoids("0000", config, max_block=max_block)


class TestPublicScansPinned:
    # SHA-256 over every witness (or None) that suffix_instance and
    # verify_word_avoids return on a seeded set of words, recorded at the
    # commit before the suffix check was split into a yes/no decision and a
    # witness report; any change to a reported start, block, permutation,
    # exponent triple or pattern changes it
    DIGEST = "b8d6c4529d03b7e92a815fd8f3bc88d963c45dd321f3c61bbacdb6b9a8df4fb6"

    @staticmethod
    def scans():
        rng = random.Random(2718)
        for m in (2, 3, 4):
            for model in PermModel:
                if model is PermModel.FIX_ONE_POINT_CYCLE and m < 3:
                    continue
                tables = POWER_TABLES[m]
                for exponents in (None, (1, 2, 3), (2, 5, 7), (4, 4, 1)):
                    for _ in range(6):
                        forbidden = frozenset(rng.sample(ALL_PATTERNS, rng.randint(1, 10)))
                        config = SearchConfig(
                            alphabet=m, forbidden=forbidden, model=model, exponents=exponents
                        )
                        # a random prefix, a planted u f^e1(u) f^e2(u) f^e3(u), a random tail
                        f = rng.choice(tables)
                        u = bytes(rng.randrange(m) for _ in range(rng.randint(1, 4)))
                        powers = exponents or [rng.randint(1, 2 * len(f)) for _ in range(3)]
                        w = bytes(rng.randrange(m) for _ in range(rng.randint(0, 16)))
                        w += u + b"".join(bytes(f[e % len(f)][a] for a in u) for e in powers)
                        w += bytes(rng.randrange(m) for _ in range(rng.randint(0, 8)))
                        max_block = rng.choice((None, None, rng.randint(1, 4)))
                        yield "verify", w, config, max_block
                        for end in range(len(w) + 1):
                            yield "suffix", w[:end], config, None

    def test_witnesses_pinned(self):
        records = []
        seen = Counter()
        for scan, w, config, max_block in self.scans():
            if scan == "verify":
                witness = verify_word_avoids(w, config, max_block=max_block)
            else:
                witness = suffix_instance(w, config)
            seen[scan, witness is not None] += 1
            seen["longer blocks"] += witness is not None and witness.block_length > 1
            records.append([scan, w.hex(), max_block, witness and witness.as_json()])
        digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        # both outcomes of both scans, and witnesses beyond one-letter blocks
        assert min(seen["verify", True], seen["verify", False]) >= 80
        assert min(seen["suffix", True], seen["suffix", False]) >= 500
        assert seen["longer blocks"] >= 50
        assert digest == self.DIGEST


class TestScanMemo:
    # a scan decides each distinct factor once: witnesses, node counts and
    # certificates must be those of deciding every split afresh

    @staticmethod
    def repetitive_words(rng):
        yield h_alpha_spec().generate(112).letters, 5
        yield load_spec("thue-morse").generate(96).letters, 2
        for m in (2, 3, 4):
            for _ in range(6):
                # a periodic prefix with a planted u f^e1(u) f^e2(u) f^e3(u)
                period = bytes(rng.randrange(m) for _ in range(rng.randint(2, 6)))
                w = (period * 20)[: rng.randint(20, 60)]
                f = rng.choice(POWER_TABLES[m])
                u = bytes(rng.randrange(m) for _ in range(rng.randint(1, 4)))
                powers = [rng.randint(1, 2 * len(f)) for _ in range(3)]
                w += u + b"".join(bytes(f[e % len(f)][a] for a in u) for e in powers)
                yield w + (period * 10)[: rng.randint(0, 20)], m

    def test_verify_word_matches_oracle_prefixwise(self, monkeypatch):
        outcomes = _recording(monkeypatch, "_split_outcome")
        rng = random.Random(8128)
        reached = classified = witnesses = 0
        for w, m in self.repetitive_words(rng):
            for model in (PermModel.ALL_PERMUTATIONS, PermModel.FULL_CYCLE):
                perms = model_permutations(model, m)
                tables = [perm_powers(p.images) for p in perms]
                for exponents in (None, (1, 2, 3), (2, 1, 2)):
                    forbidden = frozenset(rng.sample(ALL_PATTERNS, rng.randint(1, 8)))
                    config = SearchConfig(
                        alphabet=m, forbidden=forbidden, model=model, exponents=exponents
                    )
                    for max_block in (None, rng.randint(1, 6)):
                        limit = max_block or len(w)
                        expected = None
                        for end in range(4, len(w) + 1):
                            found = oracle_suffix_witness(w[:end], tables, forbidden, exponents)
                            if found is not None and found[1] <= limit:
                                expected = found
                                break
                        outcomes.clear()
                        got = verify_word_avoids(w, config, max_block=max_block)
                        if expected is None:
                            assert got is None
                            scanned = len(w)
                        else:
                            witnesses += 1
                            start, b, index, found = expected
                            blocks = [w[start + l * b : start + (l + 1) * b] for l in range(4)]
                            assert got.as_json() == {
                                "start": start,
                                "block_length": b,
                                "blocks": ["".join(str(a) for a in blk) for blk in blocks],
                                "permutation": list(perms[index].images),
                                "exponents": list(found),
                                "pattern": canonical_pattern(blocks),
                            }
                            scanned = start + 4 * b
                        # each distinct factor is classified once, though many
                        # splits that pass the relabelling filter repeat one
                        factors = [args[0] for args in outcomes]
                        assert len(set(factors)) == len(factors)
                        classified += len(factors)
                        reached += sum(
                            len({_last_gap(w[e - (4 - l) * b : e - (3 - l) * b]) for l in range(4)})
                            == 1
                            for e in range(4, scanned + 1)
                            for b in range(1, min(e // 4, limit) + 1)
                        )
        assert witnesses >= 50
        assert reached >= 3 * classified

    def test_search_matches_oracle_when_memo_clears(self, monkeypatch):
        # a two-entry verdict table is emptied over and over; the whole
        # result, node count included, must still equal the definitional
        # DFS's (the configs are test_matches_oracle_search's draws)
        monkeypatch.setattr(search_module, "_MEMO_MAX_ENTRIES", 2)
        outcomes = _recording(monkeypatch, "_split_outcome")
        rng = random.Random(6174)
        repeated = compared = 0
        for m in (2, 3, 4):
            for model in PermModel:
                if model is PermModel.FIX_ONE_POINT_CYCLE and m < 3:
                    continue
                tables = [perm_powers(p.images) for p in model_permutations(model, m)]
                for exponents in (None, (1, 2, 3), (2, 5, 7)):
                    for _ in range(8):
                        params = rng.sample(range(1, 15), rng.randint(3, 14))
                        config = SearchConfig.for_params(
                            alphabet=m,
                            params=params,
                            model=model,
                            exponents=exponents,
                            length_cap=rng.randint(8, 30),
                            node_budget=int(10 ** rng.uniform(0.7, 3.3)),
                        )
                        length, best, exhausted, nodes = oracle_longest_avoiding_word(
                            m, tables, config.forbidden, exponents,
                            config.length_cap, config.node_budget, prune=True,
                        )
                        outcomes.clear()
                        got = longest_avoiding_word(config)
                        assert got.as_json() == {
                            "max_length_found": length,
                            "witness_word": Word(bytes(best), m).text(),
                            "exhausted": exhausted,
                            "nodes_visited": nodes,
                        }
                        compared += 1
                        repeated += len(outcomes) - len({args[0] for args in outcomes})
        assert compared >= 60
        assert repeated >= 500

    def test_memo_bounded(self, monkeypatch):
        # blocks longer than 64 letters are decided without the verdict
        # table, and the table never holds more than its entry cap; the
        # periodic tail gives long splits whose blocks are relabellings,
        # which a random word lacks
        monkeypatch.setattr(search_module, "_MEMO_MAX_ENTRIES", 50)
        outcomes = _recording(monkeypatch, "_split_outcome")
        rng = random.Random(1729)
        w = bytes(rng.randrange(3) for _ in range(700))
        w += bytes(rng.randrange(3) for _ in range(13)) * 40
        config = SearchConfig(alphabet=3, forbidden=frozenset({"0123", "0012"}))
        shared = search_module._verdicts_for(config)
        prev = search_module._prev_index(w)
        sizes = set()
        for end in range(4, len(w) + 1):
            search_module._suffix_split(w, prev, end, config, shared, end)
            assert len(shared.table) <= 50
            assert all(len(factor) <= 4 * 64 for factor in shared.table)
            sizes.add(len(shared.table))
        assert 50 in sizes and 1 in sizes  # filled up to the cap, then emptied
        assert sum(b > 64 for _, b, _, _ in outcomes) >= 100

    def test_search36_matcher_calls_pinned(self, monkeypatch):
        # 519 distinct factors of the family-1 tree have a forbidden pattern
        # and four blocks that are relabellings; each reaches the matcher once
        # (test_search36_decides_one_letter_blocks_per_tail recounts them)
        calls = _recording(monkeypatch, "_match")
        config = SearchConfig.for_params(
            alphabet=4, params={1, 2, 4, 6, 7}, model=PermModel.FULL_CYCLE, length_cap=40
        )
        result = longest_avoiding_word(config)
        assert (result.max_length_found, result.nodes_visited) == (36, 43_810)
        assert len(calls) == 519
        assert len({args[1:5] for args in calls}) == 519

    def test_search36_decides_one_letter_blocks_per_tail(self, monkeypatch):
        # the search decides b = 1 once per four-letter factor, before the
        # child is appended, so a node that ends a b = 1 instance is counted
        # but never scanned, and a word of fewer than 8 letters (whose only
        # split has b = 1) neither.
        # Recorded at the commit before the b = 1 table: of 43,810 nodes,
        # 28,419 ended a b = 1 instance and 107 survivors had fewer than 8
        # letters; 139 factors with b = 1 were decided.  The factors with
        # b >= 2 that are decided, and those that reach the matcher, are
        # recounted from the scans: in ascending b up to the scan's first
        # instance, each split whose blocks are relabellings, and of those the
        # ones with a forbidden pattern.
        scans = _recording(monkeypatch, "_suffix_split")
        outcomes = _recording(monkeypatch, "_split_outcome")
        calls = _recording(monkeypatch, "_match")
        config = SearchConfig.for_params(
            alphabet=4, params={1, 2, 4, 6, 7}, model=PermModel.FULL_CYCLE, length_cap=40
        )
        result = longest_avoiding_word(config)
        assert result.as_json() == {
            "max_length_found": 36,
            "witness_word": "010210210210011002211002211002211000",
            "exhausted": True,
            "nodes_visited": 43_810,
        }
        assert len(scans) == 43_810 - 28_419 - 107 == 15_284
        assert all(args[2] >= 8 for args in scans)
        assert sum(args[1] == 1 for args in outcomes) == 139
        tables = [perm_powers(p.images) for p in model_permutations(config.model, 4)]
        decided = set()
        matched = {
            args[0]
            for args in outcomes
            if args[1] == 1 and canonical_pattern(args[0]) in config.forbidden
        }
        for w, _, n, *_ in scans:
            hit = oracle_suffix_witness(w[:n], tables, config.forbidden)
            for b in range(2, (hit[1] if hit else n // 4) + 1):
                blocks = [w[n - (4 - l) * b : n - (3 - l) * b] for l in range(4)]
                if _relabellings(blocks):
                    decided.add(w[n - 4 * b : n])
                    if canonical_pattern(blocks) in config.forbidden:
                        matched.add(w[n - 4 * b : n])
        assert sum(args[1] >= 2 for args in outcomes) == len(decided) == 606
        assert len({args[0] for args in outcomes}) == 139 + 606
        assert len(calls) == len(matched) == 519

    @pytest.mark.parametrize(
        "exponents, budget, stopped, one, longer",
        [
            ((3, 6, 2), 200, {"max_length_found": 60, "nodes_visited": 125}, 29, 56),
            ((3, 6, 2), 40, {"max_length_found": 20, "nodes_visited": 41}, 21, 18),
            ((1, 7, 4), 40, {"max_length_found": 27, "nodes_visited": 41}, 14, 13),
        ],
    )
    def test_stopped_search_decides_only_visited_factors(
        self, monkeypatch, exponents, budget, stopped, one, longer
    ):
        # a search stopped by its cap or budget leaves siblings unvisited;
        # their b = 1 factors must not be decided.  The b = 1 counts were
        # recorded at the commit before the b = 1 table, whose memo decided
        # each visited factor once; the b >= 2 counts are those of splits
        # whose four blocks are relabellings
        outcomes = _recording(monkeypatch, "_split_outcome")
        config = SearchConfig(
            alphabet=4,
            forbidden=frozenset(ALL_PATTERNS),
            model=PermModel.ALL_PERMUTATIONS,
            exponents=exponents,
            length_cap=60,
            node_budget=budget,
        )
        result = longest_avoiding_word(config)
        assert result.exhausted is False
        assert {key: result.as_json()[key] for key in stopped} == stopped
        assert sum(args[1] == 1 for args in outcomes) == one
        assert sum(args[1] >= 2 for args in outcomes) == longer
        assert len({args[0] for args in outcomes}) == one + longer

    def test_only_public_results_build_witnesses(self, monkeypatch):
        # the search and a clean scan only decide; each public hit is
        # reported by exactly one InstanceWitness
        built = []
        original = search_module.InstanceWitness

        def counting(**fields):
            built.append(fields)
            return original(**fields)

        monkeypatch.setattr(search_module, "InstanceWitness", counting)
        calls = _recording(monkeypatch, "_match")
        config = SearchConfig.for_params(
            alphabet=4, params={1, 2, 4, 6, 7}, model=PermModel.FULL_CYCLE, length_cap=40
        )
        result = longest_avoiding_word(config)
        assert result.as_json() == {
            "max_length_found": 36,
            "witness_word": "010210210210011002211002211002211000",
            "exhausted": True,
            "nodes_visited": 43_810,
        }
        assert len(calls) == 519
        assert built == []
        assert verify_word_avoids(result.witness_word, config) is None
        assert built == []
        assert verify_word_avoids(result.witness_word.text() + "0", config) is not None
        assert len(built) == 1
        assert suffix_instance("0000", config).pattern == "0000"
        assert len(built) == 2


class TestSharedVerdicts:
    def test_warm_table_changes_no_result(self, monkeypatch):
        # searches of one model and exponent triple share the matcher's
        # verdicts; a search after others, in either order, must give what it
        # gives from an empty table.  Each fixed-mode config draws its own
        # triple, so the table also changes hands within a group
        calls = _recording(monkeypatch, "_match")
        rng = random.Random(4711)
        configs = []
        for model, m in (
            (PermModel.ALL_PERMUTATIONS, 3),
            (PermModel.ALL_PERMUTATIONS, 4),
            (PermModel.FULL_CYCLE, 4),
        ):
            for fixed in (False, True):
                for _ in range(5):
                    exponents = tuple(rng.randint(1, 4) for _ in range(3)) if fixed else None
                    configs.append(
                        SearchConfig.for_params(
                            alphabet=m,
                            params=rng.sample(range(1, 15), rng.randint(5, 14)),
                            model=model,
                            exponents=exponents,
                            length_cap=rng.randint(20, 80),
                            node_budget=rng.randint(200, 3_000),
                        )
                    )
        assert len(configs) == 30
        cold = []
        for config in configs:
            search_module._verdicts.table.clear()
            cold.append(longest_avoiding_word(config).as_json())
        cold_calls = len(calls)
        for order in (configs, configs[::-1]):
            search_module._verdicts.table.clear()
            calls.clear()
            warm = [longest_avoiding_word(config).as_json() for config in order]
            assert warm == (cold if order is configs else cold[::-1])
            assert len(calls) < cold_calls  # the table answered some factors
        assert len({json.dumps(result, sort_keys=True) for result in cold}) >= 25
        assert sum(result["exhausted"] for result in cold) >= 5

    def test_threads_of_different_models(self):
        # threads searching under different models and triples hand the table
        # back and forth; each search must still give its own result
        configs = [
            SearchConfig.for_params(
                alphabet=m,
                params={1, 2, 4, 6, 7},
                model=model,
                exponents=exponents,
                length_cap=60,
                node_budget=4_000,
            )
            for model, m in ((PermModel.ALL_PERMUTATIONS, 3), (PermModel.FULL_CYCLE, 4))
            for exponents in (None, (1, 2, 3))
        ]
        expected = []
        for config in configs:
            search_module._verdicts.table.clear()
            expected.append(longest_avoiding_word(config).as_json())
        results = {}

        def run(t):
            results[t] = [longest_avoiding_word(config).as_json() for config in configs * 3]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {t: expected * 3 for t in range(4)}


class TestLongestAvoidingWord:
    def test_every_structure_forbidden_over_binary(self):
        config = SearchConfig.for_params(
            alphabet=2, params=range(1, 15), model=PermModel.ALL_PERMUTATIONS, length_cap=50
        )
        result = longest_avoiding_word(config)
        assert result.max_length_found == 3
        assert result.exhausted is True

    def test_brute_force_agreement_binary(self):
        config = SearchConfig.for_params(
            alphabet=2, params=range(1, 15), model=PermModel.ALL_PERMUTATIONS, length_cap=50
        )

        def brute(limit=7):
            best = 0
            stack = [b""]
            while stack:
                w = stack.pop()
                if verify_word_avoids(w, config) is not None:
                    continue
                best = max(best, len(w))
                if len(w) < limit:
                    stack.extend(w + bytes([a]) for a in range(2))
            return best

        assert brute() == longest_avoiding_word(config).max_length_found

    def test_cap_reached_is_not_exhausted(self):
        config = SearchConfig(
            alphabet=2, forbidden=frozenset({"0000"}), length_cap=20
        )
        result = longest_avoiding_word(config)
        assert result.max_length_found == 20
        assert result.exhausted is False
        assert verify_word_avoids(result.witness_word, config) is None

    def test_budget_exhaustion_reported(self):
        config = SearchConfig(
            alphabet=3, forbidden=frozenset({"0000"}), length_cap=120, node_budget=40
        )
        result = longest_avoiding_word(config)
        assert result.exhausted is False
        assert result.nodes_visited <= 41

    def test_witness_word_always_avoids(self):
        config = SearchConfig.for_params(
            alphabet=3, params={3, 10, 13}, model=PermModel.ALL_PERMUTATIONS, length_cap=30
        )
        result = longest_avoiding_word(config)
        assert verify_word_avoids(result.witness_word, config) is None
        assert len(result.witness_word) == result.max_length_found

    def test_pruned_matches_unpruned(self):
        # the canonical-form search against the oracle DFS over every word;
        # seeded ternary cases, drawn until five exhaust below the cap: a case
        # where both runs reach the cap would agree whatever pruning drops
        rng = random.Random(2024)
        tables = [perm_powers(f) for f in permutations(range(3))]
        compared = draws = 0
        while compared < 5:
            draws += 1
            assert draws <= 50
            params = rng.sample(range(1, 15), rng.randint(3, 7))
            config = SearchConfig.for_params(
                alphabet=3, params=params, model=PermModel.ALL_PERMUTATIONS, length_cap=30
            )
            pruned = longest_avoiding_word(config)
            length, best, exhausted, nodes = oracle_longest_avoiding_word(
                3, tables, config.forbidden, None, 30, config.node_budget, prune=False
            )
            if pruned.max_length_found == length == 30:
                continue
            compared += 1
            assert pruned.exhausted and exhausted
            assert pruned.max_length_found == length
            # the first longest word in DFS order is the least one, which is canonical
            assert pruned.witness_word == Word(bytes(best), 3)
            assert verify_word_avoids(pruned.witness_word, config) is None
            assert pruned.nodes_visited < nodes

    def test_matches_oracle_search(self):
        # the whole result, node count included, equals that of a DFS in the
        # same order over the definitional suffix check
        rng = random.Random(6174)
        ends = Counter()
        for m in (2, 3, 4):
            for model in PermModel:
                if model is PermModel.FIX_ONE_POINT_CYCLE and m < 3:
                    continue
                tables = [perm_powers(p.images) for p in model_permutations(model, m)]
                for exponents in (None, (1, 2, 3), (2, 5, 7)):
                    for _ in range(8):
                        params = rng.sample(range(1, 15), rng.randint(3, 14))
                        config = SearchConfig.for_params(
                            alphabet=m,
                            params=params,
                            model=model,
                            exponents=exponents,
                            length_cap=rng.randint(8, 30),
                            node_budget=int(10 ** rng.uniform(0.7, 3.3)),
                        )
                        length, best, exhausted, nodes = oracle_longest_avoiding_word(
                            m, tables, config.forbidden, exponents,
                            config.length_cap, config.node_budget, prune=True,
                        )
                        got = longest_avoiding_word(config)
                        assert got.as_json() == {
                            "max_length_found": length,
                            "witness_word": Word(bytes(best), m).text(),
                            "exhausted": exhausted,
                            "nodes_visited": nodes,
                        }
                        if exhausted:
                            ends["exhausted"] += 1
                        else:
                            ends["cap" if length == config.length_cap else "budget"] += 1
        assert min(ends["exhausted"], ends["cap"], ends["budget"]) >= 20

    def test_search36_pinned(self):
        # the family-1 search: any block split wrongly skipped or kept would
        # change the tree, and so the node count
        config = SearchConfig.for_params(
            alphabet=4, params={1, 2, 4, 6, 7}, model=PermModel.FULL_CYCLE, length_cap=40
        )
        result = longest_avoiding_word(config)
        assert result.as_json() == {
            "max_length_found": 36,
            "witness_word": "010210210210011002211002211002211000",
            "exhausted": True,
            "nodes_visited": 43_810,
        }

    @staticmethod
    def cuts_inside_dead_runs(config, tables, limit):
        """Budgets below ``limit`` whose last counted node and the next one are
        siblings that both end a b = 1 instance, from a DFS over the oracle."""
        m = config.alphabet
        trace = []  # per node in DFS order: (its parent's node count, ends a b = 1 instance)

        def grow(w, high, parent):
            for c in range(min(m, high + 2)):
                if len(trace) > limit:
                    return
                w.append(c)
                dead = len(w) >= 4 and oracle_suffix_witness(w[-4:], tables, config.forbidden)
                trace.append((parent, bool(dead)))
                if not dead and oracle_suffix_witness(w, tables, config.forbidden) is None:
                    grow(w, max(high, c), len(trace))
                w.pop()

        grow([], -1, 0)
        return [
            k
            for k in range(1, min(len(trace), limit))
            if trace[k - 1][1] and trace[k][1] and trace[k - 1][0] == trace[k][0]
        ]

    @pytest.mark.parametrize(
        "alphabet, model, cap, top, runs",
        [
            (4, PermModel.FULL_CYCLE, 40, 300, 100),  # search36, 43,810 nodes in all
            (3, PermModel.ALL_PERMUTATIONS, 30, 300, 70),  # reaches the cap at node 814
            (4, PermModel.FIX_ONE_POINT_CYCLE, 30, 120, 30),  # reaches the cap at node 110
        ],
    )
    def test_budget_cuts_in_sibling_runs(self, alphabet, model, cap, top, runs):
        # the search counts a run of siblings that end a b = 1 instance in one
        # inner loop; a budget that stops it inside such a run must count and
        # report exactly what the definitional DFS does
        config = SearchConfig.for_params(
            alphabet=alphabet, params={1, 2, 4, 6, 7}, model=model, length_cap=cap
        )
        tables = [perm_powers(p.images) for p in model_permutations(model, alphabet)]
        assert len(self.cuts_inside_dead_runs(config, tables, top)) >= runs
        for budget in range(1, top):
            got = longest_avoiding_word(dataclasses.replace(config, node_budget=budget))
            length, best, exhausted, nodes = oracle_longest_avoiding_word(
                alphabet, tables, config.forbidden, None, config.length_cap, budget, prune=True
            )
            assert got.as_json() == {
                "max_length_found": length,
                "witness_word": Word(bytes(best), alphabet).text(),
                "exhausted": exhausted,
                "nodes_visited": nodes,
            }

    def test_search36_progress_lines(self, monkeypatch, caplog):
        # a progress line at every 1,000th node, none past the budget
        monkeypatch.setattr(search_module, "_PROGRESS_EVERY", 1_000)
        config = SearchConfig.for_params(
            alphabet=4, params={1, 2, 4, 6, 7}, model=PermModel.FULL_CYCLE, length_cap=40
        )
        for budget, lines in ((config.node_budget, 43), (1_999, 1), (2_000, 2), (2_001, 2)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="permavoid.search"):
                result = longest_avoiding_word(dataclasses.replace(config, node_budget=budget))
            counts = [int(r.getMessage().split()[1]) for r in caplog.records]
            assert counts == [1_000 * t for t in range(1, lines + 1)]
            assert result.nodes_visited == min(43_810, budget + 1)

    @staticmethod
    def all_patterns_m7(exponents, cap):
        # fixed mode, `all` model over 7 letters, every representation forbidden
        return SearchConfig.for_params(
            alphabet=7,
            params=range(1, 15),
            model=PermModel.ALL_PERMUTATIONS,
            exponents=exponents,
            length_cap=cap,
        )

    def test_362_at_m7_exhausted(self):
        # sigma(3, 6, 2) = 6, and m = 7 is unavoidable by a finite search
        result = longest_avoiding_word(self.all_patterns_m7((3, 6, 2), 400))
        assert result.as_json() == {
            "max_length_found": 48,
            "witness_word": "011002211002211002211001100110011021021021010101",
            "exhausted": True,
            "nodes_visited": 547_011,
        }

    def test_634_at_m7_reaches_cap(self):
        # sigma(6, 3, 4) = 6, yet m = 7 reaches the cap; the word is clean
        # for the triple under the witness set S = {1, 2, 6, 7, 14} too, and
        # in abstract mode under S it holds a 0120 instance of a 3-cycle
        config = self.all_patterns_m7((6, 3, 4), 300)
        result = longest_avoiding_word(config)
        word = result.witness_word
        summary = (result.max_length_found, result.exhausted, result.nodes_visited)
        assert summary == (300, False, 2626)
        assert hashlib.sha256(word.text().encode()).hexdigest().startswith("fec42c13fe97472c")
        witness_set = {1, 2, 6, 7, 14}
        fixed = SearchConfig.for_params(7, witness_set, exponents=(6, 3, 4))
        assert verify_word_avoids(word, config) is None
        assert verify_word_avoids(word, fixed) is None
        assert verify_word_avoids(word, SearchConfig.for_params(7, witness_set)).as_json() == {
            "start": 42,
            "block_length": 6,
            "blocks": ["220022", "001100", "112211", "220022"],
            "permutation": [1, 2, 0, 3, 4, 5, 6],
            "exponents": [1, 2, 3],
            "pattern": "0120",
        }

    def test_monotone_in_forbidden_set(self):
        # every pattern forbidden for {10, 11} is forbidden for {10, 11, 12, 13},
        # so a word avoiding the larger set avoids the smaller one
        small = SearchConfig(
            alphabet=3, forbidden=forbidden_patterns({10, 11}), model=PermModel.ALL_PERMUTATIONS
        )
        large = SearchConfig(
            alphabet=3,
            forbidden=forbidden_patterns({10, 11, 12, 13}),
            model=PermModel.ALL_PERMUTATIONS,
        )
        assert small.forbidden < large.forbidden
        rng = random.Random(1913)
        words = [bytes(rng.randrange(3) for _ in range(rng.randint(4, 30))) for _ in range(300)]
        # searches forbidding a superset of the larger set give five distinct
        # witnesses; each of their prefixes avoids the larger set too
        for extra in ((), (6,), (7,), (8,), (9,)):
            config = SearchConfig.for_params(
                alphabet=3,
                params={10, 11, 12, 13, *extra},
                model=PermModel.ALL_PERMUTATIONS,
                length_cap=30,
            )
            witness = longest_avoiding_word(config).witness_word.letters
            words.extend(witness[:n] for n in range(4, len(witness) + 1))
        avoiding = 0
        for w in words:
            if verify_word_avoids(w, large) is None:
                avoiding += 1
                assert verify_word_avoids(w, small) is None
        assert avoiding >= 100

    def test_known_maximal_word_cannot_be_extended(self):
        # the 36-letter witness admits no extension by any letter of its alphabet
        config = SearchConfig.for_params(
            alphabet=4, params={1, 2, 4, 6, 7}, model=PermModel.FULL_CYCLE, length_cap=40
        )
        word = Word.parse("010210210210033001133001133001133000", alphabet=4)
        assert verify_word_avoids(word, config) is None
        for letter in range(4):
            extended = word.letters + bytes([letter])
            assert suffix_instance(extended, config) is not None

    def test_deterministic_witness(self):
        config = SearchConfig.for_params(
            alphabet=3, params={9, 10, 11}, model=PermModel.ALL_PERMUTATIONS, length_cap=25
        )
        first = longest_avoiding_word(config)
        second = longest_avoiding_word(config)
        assert first.witness_word == second.witness_word
        assert first.nodes_visited == second.nodes_visited


class TestConfigValidation:
    def test_empty_forbidden_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(alphabet=2, forbidden=frozenset())

    def test_non_canonical_pattern_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(alphabet=2, forbidden=frozenset({"0021"}))

    def test_fixed_exponents_positive(self):
        with pytest.raises(ValueError):
            SearchConfig(alphabet=2, forbidden=frozenset({"0000"}), exponents=(0, 1, 2))
        for exponents in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="three exponents"):
                SearchConfig(alphabet=2, forbidden=frozenset({"0000"}), exponents=exponents)

    def test_witness_json(self):
        witness = InstanceWitness(
            start=0,
            block_length=1,
            blocks=(b"\x00", b"\x01", b"\x00", b"\x01"),
            permutation=Permutation([1, 0]),
            exponents=(1, 2, 1),
            pattern="0101",
        )
        data = witness.as_json()
        assert data["blocks"] == ["0", "1", "0", "1"]
        assert data["permutation"] == [1, 0]
