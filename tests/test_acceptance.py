"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is exact unless stated otherwise.
"""

import random
from itertools import combinations, permutations

import pytest

from permavoid.alphas import (
    ALL_PATTERNS,
    ALPHA_INDICES,
    INFINITY,
    REPRESENTATIONS,
    canonical_pattern,
    profile,
    realizable,
)
from permavoid.families import all_unavoidable_sets, enumerate_family, sigma
from permavoid.search import (
    PermModel,
    SearchConfig,
    longest_avoiding_word,
    suffix_instance,
    verify_word_avoids,
)
from permavoid.verifier import (
    h_alpha_spec,
    load_spec,
    max_gap_without_full_image,
    verify_prefix_avoids,
)
from permavoid.words import is_cube_free, is_overlap_free, is_square_free

from oracles import (
    oracle_longest_avoiding_word,
    oracle_overlap_free,
    oracle_power_free,
    oracle_suffix_witness,
    perm_powers,
)

PAPER_WITNESS = "010210210210033001133001133001133000"

KNOWN_FAMILY_MEMBERS = {
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

FAMILY9_EXCEPTIONS = [
    {1, 3, 6, 8, 10, 11, 14},
    {1, 4, 5, 6, 10, 12, 14},
    {1, 4, 6, 7, 10, 11, 14},
]


def report(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {criterion} failed: {name} {suffix}"


def search36_config(cap: int = 40) -> SearchConfig:
    return SearchConfig.for_params(
        alphabet=4,
        params={1, 2, 4, 6, 7},
        model=PermModel.FULL_CYCLE,
        length_cap=cap,
        node_budget=10**8,
    )


def test_criterion_01_length_36_reproduction():
    result = longest_avoiding_word(search36_config())
    passed = result.max_length_found == 36 and result.exhausted
    report(
        1,
        "length-36 reproduction",
        passed,
        f"max={result.max_length_found} exhausted={result.exhausted} nodes={result.nodes_visited}",
    )


def test_criterion_02_witness_validation():
    witness = verify_word_avoids(PAPER_WITNESS, search36_config())
    report(2, "witness word validation", witness is None)


def test_criterion_03_h_alpha_certificate():
    spec = h_alpha_spec()
    certificate = verify_prefix_avoids(
        spec,
        range(2, 15),
        PermModel.ALL_PERMUTATIONS,
        max_block_length=30,
        prefix_length=3000,
    )
    gap = max_gap_without_full_image(spec, 20000)
    passed = certificate.clean and gap == 30
    report(3, "h-alpha certificate", passed, f"status={certificate.status} gap={gap}")


def test_criterion_04_realizability_oracle_equivalence():
    mismatches = 0
    checks = 0
    for m in range(2, 7):
        tables = [perm_powers(f) for f in permutations(range(m))]
        for i in range(1, 11):
            for j in range(1, 13):
                for k in range(1, 13):
                    if not (i < j and i < k and j != k):
                        continue
                    achievable = set()
                    for powers in tables:
                        order = len(powers)
                        pi, pj, pk = powers[i % order], powers[j % order], powers[k % order]
                        for a in range(m):
                            achievable.add(canonical_pattern((a, pi[a], pj[a], pk[a])))
                    for a_idx in ALPHA_INDICES:
                        checks += 1
                        if realizable(a_idx, (i, j, k), m) != (
                            REPRESENTATIONS[a_idx] in achievable
                        ):
                            mismatches += 1
    report(4, "realizability oracle equivalence", mismatches == 0, f"{checks} checks")


def test_criterion_05_sigma_lower_bound():
    violations = 0
    finite = 0
    for i in range(1, 31):
        for j in range(1, 31):
            for k in range(1, 31):
                if i == j or j == k or i == k:
                    continue
                alpha1 = profile((i, j, k)).value(1)
                if alpha1 == INFINITY or alpha1 <= 3:
                    violations += 1
                    continue
                value, _ = sigma((i, j, k))
                if value != INFINITY:
                    finite += 1
                    if value < 4:
                        violations += 1
    report(
        5,
        "sigma lower bound on 30-grid",
        violations == 0,
        f"finite sigma for {finite} triples",
    )


def test_criterion_06_family_regression():
    missing = [
        family_id
        for family_id, member in KNOWN_FAMILY_MEMBERS.items()
        if frozenset(member) not in enumerate_family(family_id)
    ]
    leaked = [s for s in FAMILY9_EXCEPTIONS if frozenset(s) in enumerate_family(9)]
    passed = not missing and not leaked
    report(6, "family regression", passed, f"missing={missing} leaked={leaked}")


def test_criterion_07_classical_words():
    tm = load_spec("thue-morse").generate(10_000)
    tt = load_spec("ternary-thue").generate(10_000)
    checks = {
        "thue-morse cube-free": oracle_power_free(tm.letters, 3),
        "thue-morse overlap-free": oracle_overlap_free(tm.letters),
        "ternary square-free": oracle_power_free(tt.letters, 2),
        "checkers agree": is_cube_free(tm) and is_overlap_free(tm) and is_square_free(tt),
    }
    report(7, "classical words", all(checks.values()), str(checks))


def test_criterion_08_detector_differential():
    rng = random.Random(88271)
    tables = {m: [perm_powers(f) for f in permutations(range(m))] for m in (2, 3, 4)}

    mismatches = 0
    trials = 100_000
    for _ in range(trials):
        m = rng.choice((2, 3, 4))
        word = bytes(rng.randrange(m) for _ in range(rng.randint(1, 16)))
        forbidden = frozenset(rng.sample(ALL_PATTERNS, rng.randint(1, 6)))
        config = SearchConfig(alphabet=m, forbidden=forbidden, model=PermModel.ALL_PERMUTATIONS)
        expected = oracle_suffix_witness(word, tables[m], forbidden)
        if (suffix_instance(word, config) is not None) != (expected is not None):
            mismatches += 1
    report(8, "detector differential", mismatches == 0, f"{trials} random words")


def test_criterion_09_small_set_avoidance_evidence():
    rng = random.Random(20250810)
    subsets = rng.sample(list(combinations(range(1, 15), 4)), 25)
    passes = 0
    failures = []
    for subset in subsets:
        reached = False
        for m in (3, 4, 5, 6):
            config = SearchConfig.for_params(
                alphabet=m,
                params=subset,
                model=PermModel.ALL_PERMUTATIONS,
                length_cap=300,
                node_budget=400_000,
            )
            if longest_avoiding_word(config).max_length_found >= 300:
                reached = True
                break
        if reached:
            passes += 1
        else:
            failures.append(subset)
    if failures:
        # anything not reaching length 300 is an investigation item, not a
        # silent pass; the bar is 23 of 25
        print(f"  investigate: {failures}")
    report(9, "small-set avoidance evidence", passes >= 23, f"{passes}/25 reached length 300")


def test_criterion_10_symmetry_pruning_soundness():
    # the canonical-form search against the oracle DFS over every word;
    # seeded cases are drawn until five exhaust below the cap; a case where
    # both runs reach the cap is skipped, as it agrees whatever pruning drops
    rng = random.Random(424242)
    tables = {m: [perm_powers(f) for f in permutations(range(m))] for m in (2, 3)}
    agreed = True
    details = []
    draws = 0
    while len(details) < 5 and draws < 50:
        draws += 1
        m = rng.choice((2, 3))
        params = rng.sample(range(1, 15), rng.randint(2, 5))
        config = SearchConfig.for_params(
            alphabet=m,
            params=params,
            model=PermModel.ALL_PERMUTATIONS,
            length_cap=30,
        )
        pruned = longest_avoiding_word(config)
        length, best, exhausted, nodes = oracle_longest_avoiding_word(
            m, tables[m], config.forbidden, None, config.length_cap, config.node_budget,
            prune=False,
        )
        if pruned.max_length_found == length == config.length_cap:
            continue
        details.append((m, sorted(params), pruned.max_length_found, length))
        agreed = (
            agreed
            and pruned.exhausted
            and exhausted
            and pruned.max_length_found == length
            and pruned.witness_word.letters == bytes(best)
            and verify_word_avoids(pruned.witness_word, config) is None
            and pruned.nodes_visited < nodes
        )
    agreed = agreed and len(details) == 5
    report(10, "symmetry pruning soundness", agreed, f"draws={draws} cases={details}")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
