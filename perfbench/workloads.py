"""The benchmark's four workloads: inputs made from a seed, operations, output checks.

Every workload is a fixed list of operations.  An operation is one call into
the library, or a few for a 4-subset (the criterion-09 loop) and for a
direct-m7 triple (m = 7, then m = 5), each made through ``lib(name, fn,
*args)`` so that a traced round can record a span around it.  Outputs are checked after the timed interval: the anchors below
are checked by value, every other output against ``reference.json``, which
``make_reference.py`` recorded from the seed commit for the whole input pool
each workload samples from.

Seeded samples are stratified and balanced on the cost recorded in the
reference (see ``stratified_sample``), so that different seeds give inputs of
the same total cost and the run-to-run spread stays small.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

from permavoid import (
    PermModel,
    SearchConfig,
    all_unavoidable_sets,
    classify,
    h_alpha_spec,
    is_four_power_free,
    longest_avoiding_word,
    max_gap_without_full_image,
    suffix_instance,
    verify_prefix_avoids,
    verify_word_avoids,
)
from permavoid.alphas import ALL_PATTERNS, alpha_json_value

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# search-abstract: the family-1 search that gives 36, then 4-subsets.
FAMILY1 = dict(alphabet=4, params=(1, 2, 4, 6, 7), model=PermModel.FULL_CYCLE, length_cap=40)
PAPER_WITNESS = "010210210210033001133001133001133000"
# m = 5, 6 are left out: there the abstract `all`-model matcher dominates and a
# budget-limited search costs 100x a typical one; direct-m7 covers that regime.
SUBSET_MS = (3, 4)
SUBSET_CAP = 150
SUBSET_BUDGET = 2_000
SUBSET_SAMPLE = 200

# direct-m7: all 15 patterns forbidden, `all` model, fixed exponents.
DIRECT_FIXED = ((1, 7, 4), (3, 6, 2))
DIRECT_RUNS = ((7, 25, 300), (5, 60, 20_000))  # (m, length cap, node budget)
DIRECT_SAMPLE = 20

# certificate: h-alpha with alpha_2..alpha_14 forbidden under the `all` model.
CERT_PARAMS = tuple(range(2, 15))
CERT_ANCHORS = ((12_000, 30), (3_000, 120))  # (prefix length, max block length)
CERT_GAP = 30

# sigma-grid: every triple of distinct exponents up to 30, plus large triples.
GRID_MAX = 30
LARGE_MAX = 3_000
LARGE_POOL = 1_000
LARGE_SAMPLE = 100

def classification_key(report, set_index: dict) -> tuple:
    """(sigma as JSON, index of the witness set in the reference's set list)."""
    witness = None if report.witness_set is None else set_index.get(report.witness_set, -1)
    return alpha_json_value(report.sigma), witness


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_triples() -> list[tuple[int, int, int]]:
    r = range(1, GRID_MAX + 1)
    return [(i, j, k) for i in r for j in r for k in r if len({i, j, k}) == 3]


def large_pool() -> list[tuple[int, int, int]]:
    rng = random.Random("permavoid-bench:large-pool")
    pool: list[tuple[int, int, int]] = []
    seen = set()
    while len(pool) < LARGE_POOL:
        triple = tuple(rng.sample(range(1, LARGE_MAX + 1), 3))
        if max(triple) > GRID_MAX and triple not in seen:
            seen.add(triple)
            pool.append(triple)
    return pool


def all_subsets() -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, 15), 4))


def family1_config() -> SearchConfig:
    return SearchConfig.for_params(**FAMILY1)


def subset_config(subset, m: int) -> SearchConfig:
    return SearchConfig.for_params(
        alphabet=m,
        params=subset,
        model=PermModel.ALL_PERMUTATIONS,
        length_cap=SUBSET_CAP,
        node_budget=SUBSET_BUDGET,
    )


def direct_config(triple, m: int, cap: int, budget: int) -> SearchConfig:
    return SearchConfig(
        alphabet=m,
        forbidden=frozenset(ALL_PATTERNS),
        model=PermModel.ALL_PERMUTATIONS,
        exponents=tuple(triple),
        length_cap=cap,
        node_budget=budget,
    )


def certificate_call(lib, spec, length: int, umax: int):
    return lib(
        "verifier.verify_prefix_avoids",
        verify_prefix_avoids,
        spec,
        CERT_PARAMS,
        PermModel.ALL_PERMUTATIONS,
        umax,
        length,
    )


def subset_loop(lib, subset):
    """Criterion-09 shape: search each m in SUBSET_MS until one search reaches the cap."""
    results = []
    for m in SUBSET_MS:
        result = lib("search.longest_avoiding_word", longest_avoiding_word, subset_config(subset, m))
        results.append((m, result))
        if result.max_length_found >= SUBSET_CAP:
            break
    return results


def direct_pair(lib, triple) -> list:
    """One triple decided by direct search: m = 7 under a node budget, then m = 5 to a cap."""
    return [
        lib("search.longest_avoiding_word", longest_avoiding_word, direct_config(triple, m, cap, budget))
        for m, cap, budget in DIRECT_RUNS
    ]


def large_sample(rng: random.Random, ref: dict) -> list[tuple[int, int, int]]:
    """Seeded large triples, stratified by the largest exponent (the profile scan's length)."""
    return stratified_sample(rng, [tuple(row[0]) for row in ref["large"]], LARGE_SAMPLE, max)


def search_row(result) -> list:
    return [result.max_length_found, result.exhausted, digest(result.witness_word.text())]


def search_status(result, cap: int) -> str:
    if result.exhausted:
        return "exhausted"
    return "capped" if result.max_length_found >= cap else "budget"


def stratified_sample(rng: random.Random, pool: list, k: int, cost, tolerance: float = 0.02) -> list:
    """One draw from each of ``k`` strata of equally many members, ordered by cost.

    Draws are repeated (up to 1,000 times, keeping the closest) until the
    sample's total reference cost is within ``tolerance`` of its expectation,
    so that every seed gives a sample of the same cost; each member keeps a
    chance of being drawn.
    """
    order = sorted(pool, key=cost)
    n = len(order)
    strata = [order[i * n // k : (i + 1) * n // k] for i in range(k)]
    expected = sum(sum(map(cost, stratum)) / len(stratum) for stratum in strata)
    best, best_miss = None, float("inf")
    for _ in range(1_000):
        sample = [rng.choice(stratum) for stratum in strata]
        miss = abs(sum(map(cost, sample)) - expected)
        if miss < best_miss:
            best, best_miss = sample, miss
        if miss <= tolerance * expected:
            break
    return best


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Op(NamedTuple):
    """One operation: a label, a call into the library, and a check of its output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


# ---------------------------------------------------------------------------
# search-abstract
# ---------------------------------------------------------------------------


def _search_abstract(rng, ref, lib, verify_witnesses):
    cfg = family1_config()
    subsets = {tuple(row[0]): row for row in ref["subsets"]}
    sample = stratified_sample(rng, list(subsets), SUBSET_SAMPLE, lambda s: subsets[s][2])

    def check36(result):
        problems = []
        if result.max_length_found != 36 or not result.exhausted:
            problems.append(f"search36 gave {result.max_length_found}, exhausted={result.exhausted}")
        if verify_witnesses:
            for word in (result.witness_word.text(), PAPER_WITNESS):
                if verify_word_avoids(word, cfg) is not None:
                    problems.append(f"witness {word} does not verify")
        return "; ".join(problems) or None

    def subset_check(subset):
        expected = subsets[subset][1]

        def check(results):
            got = [[m] + search_row(r) for m, r in results]
            if got != expected:
                return f"subset {subset}: {got} != reference {expected}"
            if verify_witnesses:
                for m, r in results:
                    if verify_word_avoids(r.witness_word, subset_config(subset, m)) is not None:
                        return f"subset {subset} m={m}: witness does not verify"
            return None

        return check

    ops = [Op("search36", lambda: lib("search.longest_avoiding_word", longest_avoiding_word, cfg), check36)]
    for subset in sample:
        ops.append(Op(f"subset{subset}", lambda s=subset: subset_loop(lib, s), subset_check(subset)))

    def properties(outputs):
        loops = outputs[1:]
        reached = [r for r in loops if r[-1][1].max_length_found >= SUBSET_CAP]
        return {
            "subsets": len(loops),
            "share_reaching_cap": round(len(reached) / len(loops), 4),
            "reached_at_m": dict(sorted(Counter(str(r[-1][0]) for r in reached).items())),
            "searches": sum(len(r) for r in loops),
            "search36_nodes": outputs[0].nodes_visited,
            "subset_nodes": sum(res.nodes_visited for r in loops for _, res in r),
        }

    return ops, properties


# ---------------------------------------------------------------------------
# direct-m7
# ---------------------------------------------------------------------------


def _direct_m7(rng, ref, lib, verify_witnesses):
    rows = {tuple(row[0]): row for row in ref["direct"]}
    pool = [t for t in rows if t not in DIRECT_FIXED]
    triples = list(DIRECT_FIXED) + stratified_sample(rng, pool, DIRECT_SAMPLE, lambda t: rows[t][3])

    def check_for(triple):
        def check(results):
            got = [search_row(r) for r in results]
            if triple == (1, 7, 4) and got[0][:2] != [10, True]:
                return f"(1,7,4) at m=7 gave {got[0][0]}, exhausted={got[0][1]}; expected 10, exhausted"
            if got != rows[triple][1:3]:
                return f"{triple}: {got} != reference {rows[triple][1:3]}"
            if verify_witnesses:
                for (m, cap, budget), r in zip(DIRECT_RUNS, results):
                    if verify_word_avoids(r.witness_word, direct_config(triple, m, cap, budget)) is not None:
                        return f"{triple} at m={m}: witness does not verify"
            return None

        return check

    ops = [Op(f"{t}", lambda t=t: direct_pair(lib, t), check_for(t)) for t in triples]

    def properties(outputs):
        out = {"triples": len(triples)}
        for slot, (m, cap, _) in enumerate(DIRECT_RUNS):
            results = [pair[slot] for pair in outputs]
            counts = Counter(search_status(r, cap) for r in results)
            out[f"m{m}"] = {s: round(counts[s] / len(results), 4) for s in ("exhausted", "capped", "budget")}
            out[f"m{m}_nodes"] = sum(r.nodes_visited for r in results)
        return out

    return ops, properties


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


def _certificate(rng, ref, lib, verify_witnesses):
    spec = h_alpha_spec()
    prefix = spec.generate(CERT_ANCHORS[0][0])

    def cert_check(length):
        def check(cert):
            return _expect(
                cert.status == "clean"
                and cert.gap_without_full_image == CERT_GAP
                and cert.checked_prefix_length == length,
                f"certificate at L={length}: {cert.status}, gap {cert.gap_without_full_image}",
            )

        return check

    ops = [
        Op(f"h-alpha L={length} umax={umax}", lambda l=length, u=umax: certificate_call(lib, spec, l, u), cert_check(length))
        for length, umax in CERT_ANCHORS
    ]
    ops.append(
        Op(
            "gap",
            lambda: lib("verifier.max_gap_without_full_image", max_gap_without_full_image, spec, CERT_ANCHORS[0][0]),
            lambda gap: _expect(gap == CERT_GAP, f"gap {gap} != {CERT_GAP}"),
        )
    )
    ops.append(
        Op(
            "four-power-free",
            lambda: lib("words.is_four_power_free", is_four_power_free, prefix),
            lambda ok: _expect(ok is True, "h-alpha prefix is not four-power free"),
        )
    )

    def properties(outputs):
        return {"block_splits": {f"L={l},umax={u}": block_splits(l, u) for l, u in CERT_ANCHORS}}

    return ops, properties


def block_splits(length: int, umax: int) -> int:
    """Block splits a certificate examines: one per (end, block length) pair."""
    return sum(min(end // 4, umax) for end in range(4, length + 1))


# ---------------------------------------------------------------------------
# sigma-grid
# ---------------------------------------------------------------------------


def _sigma_grid(rng, ref, lib, verify_witnesses):
    set_index = {tuple(s): n for n, s in enumerate(ref["sets"])}
    grid = grid_triples()
    large = {tuple(row[0]): row for row in ref["large"]}
    sample = large_sample(rng, ref)
    expected = {t: (s, w) for t, s, w in zip(grid, ref["grid"]["sigma"], ref["grid"]["witness"])}
    expected.update((t, (large[t][1], large[t][2])) for t in sample)

    def check_for(triple):
        def check(report):
            return _expect(
                classification_key(report, set_index) == expected[triple],
                f"classify{triple}: sigma {report.sigma}, witness {report.witness_set} differ from reference",
            )

        return check

    ops = [Op(f"classify{t}", lambda t=t: lib("families.classify", classify, t), check_for(t)) for t in grid + sample]

    def properties(outputs):
        hist = Counter(r.sigma for r in outputs)
        return {
            "triples": len(outputs),
            "share_large": round(len(sample) / len(outputs), 5),
            "large_max_exponent_median": sorted(max(t) for t in sample)[len(sample) // 2],
            "sigma_histogram": {alpha_json_value(v): hist[v] for v in sorted(hist)},
        }

    return ops, properties


_BUILDERS = {
    "search-abstract": _search_abstract,
    "direct-m7": _direct_m7,
    "certificate": _certificate,
    "sigma-grid": _sigma_grid,
}


def build(workload: str, seed: int, lib, verify_witnesses: bool):
    """Operations and a property-report function for one workload and seed."""
    rng = random.Random(f"permavoid-bench:{workload}:{seed}")
    return _BUILDERS[workload](rng, load_reference(), lib, verify_witnesses)


def warm_calls(workload: str) -> None:
    """The cold first calls a workload needs before timing: enumeration and model compiles."""
    if workload == "sigma-grid":
        all_unavoidable_sets()
        return
    if workload == "search-abstract":
        models = [(PermModel.FULL_CYCLE, 4)] + [(PermModel.ALL_PERMUTATIONS, m) for m in SUBSET_MS]
    elif workload == "direct-m7":
        models = [(PermModel.ALL_PERMUTATIONS, m) for m, _, _ in DIRECT_RUNS]
    else:
        models = [(PermModel.ALL_PERMUTATIONS, 5)]
    for model, m in models:
        suffix_instance("0", SearchConfig(alphabet=m, forbidden=frozenset({"0000"}), model=model))
