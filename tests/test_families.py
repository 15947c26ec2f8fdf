import hashlib
import json
import random
import re
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from permavoid import families
from permavoid.alphas import (
    ALPHA_INDICES,
    INFINITY,
    REPRESENTATIONS,
    PatternExponents,
    alpha_scan_bound,
    profile,
    representation,
)
from permavoid.families import (
    FAMILY_IDS,
    _RULES,
    all_unavoidable_sets,
    classify,
    enumerate_family,
    set_max,
    sigma,
)

from oracles import oracle_first_set_within, oracle_minmax

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

#: The worked example set of each family.
KNOWN_MEMBERS = {
    1: {1, 2, 4, 6, 7},
    2: {1, 2, 7, 12, 13},
    3: {1, 2, 4, 7, 10},
    4: {1, 2, 7, 10, 14},
    5: {1, 9, 12, 13, 14},
    6: {1, 4, 6, 7, 9, 10, 13, 14},
    7: {1, 3, 5, 8, 12, 13},
    8: {1, 3, 5, 7, 9, 14},
    9: {1, 2, 3, 6, 10, 11, 13},
    10: {1, 3, 5, 6, 10, 11, 13, 14},
}

#: Sets explicitly barred from family 9.
FAMILY9_EXCEPTIONS = [
    {1, 3, 6, 8, 10, 11, 14},
    {1, 4, 5, 6, 10, 12, 14},
    {1, 4, 6, 7, 10, 11, 14},
]


def oracle_alpha(a, e, limit=200):
    i, j, k = e
    for t in range(1, limit + 1):
        residues = (0, i % t, j % t, k % t)
        labels = {}
        pattern = ""
        for r in residues:
            labels.setdefault(r, str(len(labels)))
            pattern += labels[r]
        if pattern == REPRESENTATIONS[a]:
            return t
    return INFINITY


def oracle_sigma(e):
    """Independent min-max pass: recompute every alpha by definition scan."""
    best = INFINITY
    for s in all_unavoidable_sets():
        value = max(oracle_alpha(a, e) for a in s)
        best = min(best, value)
    return best


def scan_profile(e):
    """Alpha values by the definitional scan over t = 1..alpha_scan_bound(e)."""
    first_seen = {}
    for t in range(1, alpha_scan_bound(e) + 1):
        first_seen.setdefault(representation(t, e), t)
    return [first_seen.get(REPRESENTATIONS[a], INFINITY) for a in ALPHA_INDICES]


class TestEnumeration:
    @pytest.mark.parametrize("family_id", list(FAMILY_IDS))
    def test_known_member_present(self, family_id):
        assert frozenset(KNOWN_MEMBERS[family_id]) in enumerate_family(family_id)

    @pytest.mark.parametrize("exception", FAMILY9_EXCEPTIONS)
    def test_family9_exceptions_absent(self, exception):
        assert frozenset(exception) not in enumerate_family(9)
        assert frozenset(exception) not in all_unavoidable_sets()

    def test_stated_cardinalities(self):
        for family_id, size in [(1, 5), (2, 5), (3, 5), (8, 6), (9, 7), (10, 8)]:
            assert all(len(s) == size for s in enumerate_family(family_id))

    def test_every_set_contains_alpha1_and_five_members(self):
        for family_id in FAMILY_IDS:
            for s in enumerate_family(family_id):
                assert 1 in s
                assert len(s) >= 5

    def test_antichain_within_family(self):
        for family_id in FAMILY_IDS:
            sets = enumerate_family(family_id)
            for a in sets:
                for b in sets:
                    assert not (a < b)

    def test_family_counts(self):
        counts = {fid: len(enumerate_family(fid)) for fid in FAMILY_IDS}
        assert counts == {1: 12, 2: 7, 3: 4, 4: 3, 5: 2, 6: 2, 7: 2, 8: 2, 9: 13, 10: 4}
        assert len(out := all_unavoidable_sets()) == 47
        assert len(set(out)) == len(out)

    def test_invalid_family_id(self):
        with pytest.raises(ValueError):
            enumerate_family(0)
        with pytest.raises(ValueError):
            enumerate_family(11)

    def test_every_filter_is_live(self):
        # dropping any one restriction or exclusion changes the family
        for family_id, rule in _RULES.items():
            full = rule.generate()
            for n in range(len(rule.restrictions)):
                restrictions = rule.restrictions[:n] + rule.restrictions[n + 1 :]
                assert replace(rule, restrictions=restrictions).generate() != full, (family_id, n)
            for excluded in rule.exclusions:
                exclusions = rule.exclusions - {excluded}
                assert replace(rule, exclusions=exclusions).generate() != full, (family_id, excluded)

    def test_all_sets_pinned(self):
        # every set and the order of all 47, not only counts and anchors
        digest = hashlib.sha256()
        for s in all_unavoidable_sets():
            digest.update(repr(sorted(s)).encode())
        assert digest.hexdigest() == (
            "37ad5e5484793449480aeacaad1a0fe8a921b4bd207074bfb2c27d11bb3e566c"
        )

    def test_family2_prefix_square_forces_first_gapped_cube(self):
        for s in enumerate_family(2):
            if 2 in s:
                assert 7 in s

    def test_family6_pairings(self):
        for s in enumerate_family(6):
            if 7 in s:
                assert 4 in s
            assert not {4, 8} <= s

    def test_family7_excluded_pairs(self):
        for s in enumerate_family(7):
            assert not {2, 4} <= s
            assert not {2, 7} <= s

    def test_digit_agreement_restriction(self):
        # without swapped-form square/gapped-square pairs the gapped cube is pinned:
        # prefix square with 0121 forces 0010; suffix square with 0102 forces 0100
        for family_id in (1, 3, 7):
            for s in enumerate_family(family_id):
                if {2, 4} <= s:
                    assert 7 in s and 8 not in s
                if {5, 3} <= s:
                    assert 8 in s and 7 not in s
                assert not {5, 4} <= s


class TestRulesDoc:
    """RULES.md states the family counts and the class table that families.py holds."""

    TEXT = (Path(__file__).resolve().parents[1] / "RULES.md").read_text(encoding="utf-8")

    #: Name of each structural class in RULES.md, with its table in families.py.
    CLASSES = {
        "squares-without-gapped-cube": families._SQUARES,
        "gapped squares": families._GAPPED_SQUARES,
        "cubes": families._CUBES,
        "cubes-or-two-squares": families._CUBES_OR_TWO_SQUARES,
        "gapped cubes": families._GAPPED_CUBES,
        "two squares": families._TWO_SQUARES,
        "two gapped squares": families._TWO_GAPPED_SQUARES,
        "middle squares": families._MIDDLE_SQUARES,
        "outer-equal-only": families._OUTER_EQUAL_ONLY,
    }

    def test_stated_set_counts(self):
        stated = {
            int(family_id): int(count)
            for family_id, count in re.findall(r"^- \*\*S(\d+)\*\*.*?(\d+) sets\.", self.TEXT, re.M | re.S)
        }
        assert stated == {family_id: len(enumerate_family(family_id)) for family_id in FAMILY_IDS}

    def test_structural_class_line(self):
        paragraph = self.TEXT.split("Structural classes", 1)[1].split("\n\n", 1)[0]
        stated = {
            " ".join(name.split()): frozenset(int(a) for a in members.split(","))
            for name, members in re.findall(r"([a-z][a-z\s-]*?) `\{([\d,]+)\}`", paragraph)
        }
        assert stated == self.CLASSES


class TestSigma:
    def test_degenerate_rejected(self):
        for e in [(1, 1, 2), (2, 3, 3), (2, 3, 2), (0, 1, 2)]:
            with pytest.raises(ValueError):
                sigma(e)

    def test_frozen_finite_value(self):
        value, witness = sigma((3, 7, 6))
        assert value == 7
        assert witness == frozenset({1, 3, 7, 12, 13})

    def test_frozen_infinite_value(self):
        value, _ = sigma((1, 2, 3))
        assert value == INFINITY

    @pytest.mark.parametrize("e", [(1, 2, 3), (3, 7, 6), (6, 3, 2), (2, 4, 5), (5, 9, 14)])
    def test_matches_independent_minmax(self, e):
        assert sigma(e)[0] == oracle_sigma(e)

    def test_witness_attains_minimum(self):
        for e in [(3, 7, 6), (6, 3, 2), (4, 7, 9)]:
            value, witness = sigma(e)
            assert set_max(witness, e) == value
            assert all(set_max(s, e) >= value for s in all_unavoidable_sets())

    def test_superset_growth_never_lowers_minimum(self):
        rng = random.Random(11)
        e = PatternExponents(3, 7, 6)
        base_min = sigma(e)[0]
        for s in all_unavoidable_sets():
            extra = rng.sample([a for a in range(1, 15) if a not in s], 2)
            assert set_max(s | set(extra), e) >= base_min

    def test_witness_is_first_set_attaining_minimum(self):
        rng = random.Random(5)
        grid = [
            (i, j, k)
            for i in range(1, 31)
            for j in range(1, 31)
            for k in range(1, 31)
            if len({i, j, k}) == 3
        ]
        large = []
        while len(large) < 20:
            e = tuple(rng.randint(31, 3000) for _ in range(3))
            if len(set(e)) == 3:
                large.append(e)
        sets = all_unavoidable_sets()
        for e in rng.sample(grid, 500) + large + [(1, 2, 3)]:
            assert sigma(e) == oracle_minmax(scan_profile(e), sets), e
        assert sigma((1, 2, 3)) == (INFINITY, sets[0])

    def test_first_set_within_every_mask(self):
        sets = all_unavoidable_sets()
        for mask in range(1 << 14):
            assert families._first_set_within(mask) == oracle_first_set_within(sets, mask), mask

    def test_lattice_sigma_matches_minmax_on_grid_and_large_pool(self):
        # the 30-grid and the benchmark's seeded pool of 1,000 large triples
        grid = [
            (i, j, k)
            for i in range(1, 31)
            for j in range(1, 31)
            for k in range(1, 31)
            if len({i, j, k}) == 3
        ]
        pool = [tuple(row[0]) for row in json.loads(REFERENCE.read_text())["large"]]
        assert len(pool) == 1_000
        sets = all_unavoidable_sets()
        for e in grid + pool:
            assert sigma(e) == oracle_minmax(profile(e).values, sets), e

    def test_minimum_at_least_four_sample(self):
        for e in [(3, 7, 6), (6, 3, 2), (1, 7, 4), (2, 9, 4)]:
            value, _ = sigma(e)
            if value != INFINITY:
                assert value >= 4


class TestClassify:
    def test_adjacent_degenerate(self):
        report = classify((2, 2, 5))
        assert report.degenerate_case == "i=j or j=k"
        assert report.sigma is None
        assert report.avoidable_min == 2
        assert report.avoidable_max == INFINITY

    def test_outer_degenerate(self):
        report = classify((3, 5, 3))
        assert report.degenerate_case == "i=k"
        assert report.avoidable_min == 2
        assert report.avoidable_max == INFINITY

    def test_zero_exponents_are_degenerate(self):
        assert classify((0, 2, 3)).degenerate_case == "i=j or j=k"
        assert classify((2, 0, 3)).degenerate_case == "i=k"
        assert classify((2, 3, 0)).degenerate_case == "i=k"

    def test_degenerate_never_calls_sigma(self, monkeypatch):
        import permavoid.families as families_module

        def explode(e):
            raise AssertionError("sigma must not run for degenerate exponents")

        monkeypatch.setattr(families_module, "sigma", explode)
        report = families_module.classify((4, 4, 9))
        assert report.degenerate_case == "i=j or j=k"

    def test_finite_sigma_report(self):
        report = classify((3, 7, 6))
        assert report.degenerate_case == "none"
        assert report.sigma == 7
        assert report.witness_set == (1, 3, 7, 12, 13)
        assert (report.avoidable_min, report.avoidable_max) == (2, 6)
        assert report.unavoidable_from == 8
        assert report.boundary == 7
        assert "individually" in report.boundary_status

    def test_infinite_sigma_report(self):
        report = classify((1, 2, 3))
        assert report.sigma == INFINITY
        assert report.unavoidable_from is None
        assert report.avoidable_max == INFINITY
        assert "manual review" in report.note

    def test_json_rendering(self):
        data = classify((3, 7, 6)).as_json()
        assert data["sigma"] == 7
        assert data["avoidable_interval"] == [2, 6]
        assert data["witness_set"] == [1, 3, 7, 12, 13]
        data = classify((1, 2, 3)).as_json()
        assert data["sigma"] == "inf"

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("box", "313f3044e29c5211cc842b91efc21fdeba3d06b5cf9570a7cba129b36b289cfa"),
            ("sample", "fe428fc97130b25de9bbf784c4880d3a5d0be3b2b2e81436ab2ec7ef8c9ba3e7"),
        ],
    )
    def test_reports_pinned(self, name, digest):
        # Both digests were recorded before sigma and profile were rebuilt on
        # one ascending alpha walk; they pin every field of every report over
        # {0..12}^3 (zero, equal and degenerate exponents included) and over
        # 200 seeded triples below 10**6.
        if name == "box":
            triples = list(product(range(13), repeat=3))
        else:
            rng = random.Random(13)
            triples = [tuple(rng.randrange(10**6) for _ in range(3)) for _ in range(200)]
        reports = [[classify(t).as_json(), profile(t).as_json()] for t in triples]
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_consistency_with_profile(self):
        # sigma is bounded below by alpha_1 for valid triples
        for e in [(3, 7, 6), (6, 3, 2), (1, 7, 4)]:
            report = classify(e)
            assert report.sigma >= profile(e).value(1)
