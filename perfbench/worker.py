"""One round of a workload, or the layer probes, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> round|traced|probe <cpu>|- [verify]

The parent (``run.py``) starts this process and times it from the start until
the ``READY`` line, which is printed after ``import permavoid`` and the cold
first calls the workload needs: that interval is the set-up time.  Then the
worker runs the workload's operations back to back in this one thread,
checks every output, and prints one JSON line with the round's figures.
``<cpu>`` pins the worker to that CPU (``-``: no pinning); ``verify`` also
re-verifies every returned witness word.
"""

import json
import os
import random
import resource
import sys
import time
from pathlib import Path

# before numpy is imported, which may start threads that would not be pinned
if len(sys.argv) > 4 and sys.argv[4] != "-":
    os.sched_setaffinity(0, {int(sys.argv[4])})

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy  # noqa: E402
import permavoid  # noqa: E402,F401  (importing the library is part of set-up)

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def children_cpu_s() -> float:
    """CPU seconds of child processes that have ended, should the library start any."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_round(workload: str, seed: int, traced: bool, verify: bool) -> dict:
    lib = spans.Tracer() if traced else spans.untraced
    ops, properties = workloads.build(workload, seed, lib, verify)
    # A fixed, seeded interleaving: operations of one kind do not run as one
    # block, so a slow spell of the machine does not hit all of them at once.
    order = list(range(len(ops)))
    random.Random(f"permavoid-bench:order:{seed}").shuffle(order)
    walls, cpus, outputs = [0.0] * len(ops), [0.0] * len(ops), [None] * len(ops)
    children0 = children_cpu_s()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for n in order:
        if traced:
            lib.op = n
        start, cpu = time.perf_counter(), time.process_time()
        try:
            outputs[n] = lib("op", ops[n].call)
        except Exception as exc:  # a raising operation counts as failed; the round goes on
            outputs[n] = exc
        cpus[n] = time.process_time() - cpu
        walls[n] = time.perf_counter() - start
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    failures = []
    for op, out in zip(ops, outputs):
        try:
            problem = f"raised {out!r}" if isinstance(out, Exception) else op.check(out)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            failures.append(f"{op.label}: {problem}")
    try:
        props = properties(outputs)
    except Exception as exc:
        props = {"error": repr(exc)}

    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "children_cpu_s": children_cpu_s() - children0,
        "ops": len(ops),
        "op_wall_s": walls,
        "op_cpu_s": cpus,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_mb(),
        "properties": props,
        "numpy": numpy.__version__,
    }
    if traced:
        result["spans"] = [[name, s - wall0, e - wall0, parent, op] for name, s, e, parent, op in lib.spans]
        result["span_cost_s"] = span_cost_s()
    return result


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """What one span adds to a call: a Tracer call minus an untraced one, around a no-op."""

    def noop():
        return None

    def batch(lib) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            lib("x", noop)
        return time.perf_counter() - start

    best = {}
    for _ in range(repeats):
        for name, lib in (("untraced", spans.untraced), ("traced", spans.Tracer())):
            best[name] = min(batch(lib), best.get(name, float("inf")))
    return (best["traced"] - best["untraced"]) / calls


def main() -> None:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if mode != "probe":
        workloads.warm_calls(workload)
    print("READY", flush=True)
    if mode == "probe":
        out = probes.run(seed)
    else:
        out = run_round(workload, seed, mode == "traced", sys.argv[5:] == ["verify"])
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
