"""Layer probes: the per-layer figures of a traced run.

Each probe calls one layer's public functions from here, under a Tracer, and
turns the span durations into a figure.  They run in a fresh interpreter, so
the library's caches start cold; the model compiles run first, because every
later probe that searches warms one of them.  The probes are the same on every
workload (their seeded samples come from the run's seed), so the per-layer
figures of one workload's traced run can be compared with any other's.
"""

from __future__ import annotations

import os
import random
import statistics
from functools import partial
from pathlib import Path

from permavoid import (
    PermModel,
    SearchConfig,
    all_unavoidable_sets,
    enumerate_family,
    h_alpha_spec,
    is_four_power_free,
    longest_avoiding_word,
    max_gap_without_full_image,
    model_permutations,
    profile,
    sigma,
    suffix_instance,
    verify_prefix_avoids,
)
from permavoid.alphas import ALL_PATTERNS
from permavoid.words import as_letters

import spans
import workloads as W

COMPILE_MS = (5, 6, 7, 8)
SMALL_PROFILES = 2_000
REPEATS = 5
DFS_REPEATS = 9


def _rss_mb() -> float:
    """Resident set size now, from /proc (Linux); 0.0 where that is not readable."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _replay(cfg: SearchConfig, dies) -> int:
    """Walk the tree longest_avoiding_word walks below its length cap; return its node count.

    First letter 0, fresh letters ascending; a branch ends where ``dies(word)``
    is truthy, as a witness from ``suffix_instance`` is.
    """
    word = bytearray()
    nodes = 0

    def grow(high: int) -> None:
        nonlocal nodes
        for letter in range(min(cfg.alphabet, high + 2)):
            nodes += 1
            word.append(letter)
            if not dies(bytes(word)) and len(word) < cfg.length_cap:
                grow(max(high, letter))
            word.pop()

    grow(-1)
    return nodes


def _search_check(cfg: SearchConfig):
    """The suffix check as ``longest_avoiding_word`` makes it, and which kind it is.

    That is the module's private ``_suffix_witness`` on the compiled model; if
    it is gone or its signature has changed, the public ``suffix_instance``,
    whose extra per-call work then counts as check cost.
    """
    try:
        from permavoid.search import _compiled, _suffix_witness

        compiled = _compiled(cfg.model, cfg.alphabet)

        def check(w: bytes):
            return _suffix_witness(w, len(w), cfg, compiled, len(w))

        check(b"\x00")
        return check, "internal"
    except (ImportError, AttributeError, TypeError):
        return partial(suffix_instance, config=cfg), "public"


def run(seed: int) -> dict:
    trace = spans.Tracer()
    ref = W.load_reference()
    rng = random.Random(f"permavoid-bench:probe:{seed}")
    metrics: dict[str, tuple[float, str]] = {}
    checks: list[str | None] = []

    def median_ms(name: str) -> float:
        return statistics.median(trace.durations(name)) * 1e3

    # search: first suffix_instance at (all, m) minus a warm one, and the RSS it adds
    for m in COMPILE_MS:
        cfg = SearchConfig(alphabet=m, forbidden=frozenset(ALL_PATTERNS))
        before = _rss_mb()
        trace(f"search.suffix_instance.cold{m}", suffix_instance, "0", cfg)
        grown = _rss_mb() - before
        trace(f"search.suffix_instance.warm{m}", suffix_instance, "0", cfg)
        cold = trace.durations(f"search.suffix_instance.cold{m}")[0]
        warm = trace.durations(f"search.suffix_instance.warm{m}")[0]
        metrics[f"search.compile_ms.m{m}"] = ((cold - warm) * 1e3, "ms")
        metrics[f"search.compile_rss_mb.m{m}"] = (grown, "MB")

    # words
    perms = model_permutations(PermModel.ALL_PERMUTATIONS, 7)
    trace("words.power_tables", lambda: [p.power_tables() for p in perms])
    metrics["words.power_tables_ms"] = (median_ms("words.power_tables"), "ms")
    spec = h_alpha_spec()
    length, umax = W.CERT_ANCHORS[0]
    for _ in range(REPEATS):
        prefix = trace("words.generate", spec.generate, length)
    metrics["words.prefix_gen_ms"] = (median_ms("words.generate"), "ms")
    for _ in range(REPEATS):
        free = trace("words.is_four_power_free", is_four_power_free, prefix)
    checks.append(None if free else "h-alpha prefix is not four-power free")
    metrics["words.repetition_runs_ms"] = (median_ms("words.is_four_power_free"), "ms")

    # families: cold enumeration
    for _ in range(REPEATS):
        enumerate_family.cache_clear()
        all_unavoidable_sets.cache_clear()
        sets = trace("families.all_unavoidable_sets", all_unavoidable_sets)
    metrics["families.enumerate_ms"] = (median_ms("families.all_unavoidable_sets"), "ms")

    # alphas: one cold profile per triple; then sigma over the cached profiles
    warm_at_import = {(1, 2, 3), (2, 4, 5), (3, 7, 6)}
    small = rng.sample([t for t in W.grid_triples() if t not in warm_at_import], SMALL_PROFILES)
    large = W.large_sample(rng, ref)
    for t in small:
        trace("alphas.profile.small", profile, t)
    for t in large:
        trace("alphas.profile.large", profile, t)
    metrics["alphas.profile_us.small"] = (median_ms("alphas.profile.small") * 1e3, "us")
    metrics["alphas.profile_us.large"] = (median_ms("alphas.profile.large") * 1e3, "us")
    metrics["alphas.profiles"] = (len(small) + len(large), "count")
    for t in small:
        trace("families.sigma", sigma, t)
    metrics["families.sigma_us"] = (median_ms("families.sigma") * 1e3, "us")
    metrics["families.sets_evaluated"] = (len(small) * len(sets), "count")

    # search: one suffix check per prefix of a witness, and the family-1 search
    def suffix_us(name: str, word: bytes, cfg: SearchConfig, passes: int) -> float:
        suffix_instance(word[:1], cfg)
        per_pass = []
        for _ in range(passes):
            for end in range(1, len(word) + 1):
                trace(name, suffix_instance, word[:end], cfg)
            per_pass.append(statistics.fmean(trace.durations(name)[-len(word) :]))
        return statistics.median(per_pass) * 1e6

    family1 = W.family1_config()
    metrics["search.suffix_check_us.abstract"] = (
        suffix_us("search.suffix_instance.abstract", as_letters(W.PAPER_WITNESS), family1, REPEATS),
        "us",
    )
    fixed_cfg = W.direct_config(W.DIRECT_FIXED[1], *W.DIRECT_RUNS[0])
    metrics["search.suffix_check_us.fixed"] = (
        suffix_us("search.suffix_instance.fixed", as_letters(ref["direct_probe_word"]), fixed_cfg, 3),
        "us",
    )
    # derived: search time minus one suffix check per node.  That cost is the
    # difference, over the same tree in this process, between a replay through
    # the check the search makes and a replay through a lookup of its outcomes.
    check, check_kind = _search_check(family1)
    outcome: dict[bytes, object] = {}
    replayed = _replay(family1, lambda w: outcome.setdefault(w, check(w)))
    for _ in range(DFS_REPEATS):
        result = trace("search.longest_avoiding_word", longest_avoiding_word, family1)
        trace("search.replay", _replay, family1, check)
        trace("search.replay_loop", _replay, family1, lambda w: outcome[w])
    checks.append(None if (result.max_length_found, result.exhausted) == (36, True) else "search36 is not 36, exhausted")
    # the direct-m7 anchor, so that a traced run of any workload checks it
    anchor = longest_avoiding_word(W.direct_config((1, 7, 4), *W.DIRECT_RUNS[0]))
    checks.append(None if (anchor.max_length_found, anchor.exhausted) == (10, True) else "(1,7,4) at m=7 is not 10, exhausted")
    nodes = result.nodes_visited
    searched, replays, loops = (
        trace.durations(f"search.{name}") for name in ("longest_avoiding_word", "replay", "replay_loop")
    )
    # each repeat's three timings are taken back to back; the median is over repeats
    dfs_self = [s - (r - l) * nodes / replayed for s, r, l in zip(searched, replays, loops)]
    metrics["search.nodes"] = (nodes, "count")
    metrics["search.nodes_per_s"] = (nodes / statistics.median(searched), "1/s")
    metrics["search.dfs_self_s"] = (statistics.median(dfs_self), "s")
    notes = [f"search.dfs_self_s derived with the {check_kind} suffix check"]
    if metrics["search.dfs_self_s"][0] <= 0:
        notes.append("search.dfs_self_s is not positive: the replays' noise exceeds the DFS loop's own time")

    # verifier
    cert = trace(
        "verifier.verify_prefix_avoids",
        verify_prefix_avoids,
        spec,
        W.CERT_PARAMS,
        PermModel.ALL_PERMUTATIONS,
        umax,
        length,
    )
    checks.append(None if cert.clean and cert.gap_without_full_image == W.CERT_GAP else "h-alpha certificate not clean")
    cert_s = trace.durations("verifier.verify_prefix_avoids")[0]
    splits = W.block_splits(length, umax)
    metrics["verifier.certificate_ms"] = (cert_s * 1e3, "ms")
    metrics["verifier.splits"] = (splits, "count")
    metrics["verifier.splits_per_s"] = (splits / cert_s, "1/s")
    for _ in range(REPEATS):
        gap = trace("verifier.max_gap_without_full_image", max_gap_without_full_image, spec, length)
    checks.append(None if gap == W.CERT_GAP else f"gap {gap} != {W.CERT_GAP}")
    metrics["verifier.gap_ms"] = (median_ms("verifier.max_gap_without_full_image"), "ms")

    failures = [c for c in checks if c]
    return {
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "checks": len(checks),
        "failed": len(failures),
        "failures": failures,
        "self_s": spans.self_times(trace.spans),
        "notes": notes,
    }
