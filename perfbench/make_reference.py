"""Record the reference outputs the benchmark checks against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It evaluates every member of each workload's input pool (the 30-grid, the
large-triple pool, all 1,001 4-subsets, the 290 triples of the 30-grid with
sigma = 6) and writes ``perfbench/reference.json``.  Each search-pool member
also gets its fastest time over three passes, which the benchmark uses only to
order the pool into strata for seeded sampling.  It takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from permavoid import all_unavoidable_sets, classify  # noqa: E402

import workloads as W  # noqa: E402
from run import git_commit  # noqa: E402


PASSES = 3


def fastest(pool, run) -> tuple[dict, dict]:
    """Each member's output and its fastest time over PASSES passes over the pool."""
    outputs, cost = {}, {}
    for _ in range(PASSES):
        for member in pool:
            start = time.perf_counter()
            outputs[member] = run(member)
            seconds = time.perf_counter() - start
            cost[member] = min(seconds, cost.get(member, seconds))
    return outputs, cost


def main() -> None:
    sets = [tuple(sorted(s)) for s in all_unavoidable_sets()]
    index = {s: n for n, s in enumerate(sets)}

    grid = [W.classification_key(classify(t), index) for t in W.grid_triples()]
    large = [[list(t), *W.classification_key(classify(t), index)] for t in W.large_pool()]
    print(f"grid: {len(grid)}, large: {len(large)} triples", file=sys.stderr)

    untraced = lambda name, fn, *args: fn(*args)  # noqa: E731
    loops, cost = fastest(W.all_subsets(), lambda s: W.subset_loop(untraced, s))
    subsets = [[list(s), [[m] + W.search_row(r) for m, r in loops[s]], round(cost[s], 6)] for s in loops]
    print(f"subsets: {len(subsets)}", file=sys.stderr)

    sigma6 = [t for t in W.grid_triples() if classify(t).sigma == 6]
    pairs, cost = fastest(sigma6, lambda t: W.direct_pair(untraced, t))
    direct = [[list(t)] + [W.search_row(r) for r in pairs[t]] + [round(cost[t], 6)] for t in sigma6]
    print(f"direct: {len(direct)} triples", file=sys.stderr)

    reference = {
        "commit": git_commit(),
        "sets": [list(s) for s in sets],
        "grid": {"sigma": [s for s, _ in grid], "witness": [w for _, w in grid]},
        "large": large,
        "subsets": subsets,
        "direct": direct,
        "direct_probe_word": pairs[W.DIRECT_FIXED[1]][0].witness_word.text(),
    }
    W.REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {W.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
