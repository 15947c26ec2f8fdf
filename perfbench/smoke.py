"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload ``run.py`` knows, declared in ``BENCHMARK.json`` or not,
once untraced and once traced at the minimum size (the warm-up round and one
timed round, or one of each kind when traced), and checks that the result
line is well formed, that every check passed, and that the metric names and
units printed are exactly those ``BENCHMARK.json`` declares.  Exits 1 on the
first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [w["name"] for w in spec["workloads"]]
    if not set(declared) <= set(WORKLOADS):
        print(f"BENCHMARK.json workloads {declared} not all in run.py {list(WORKLOADS)}")
        return 1
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            name = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                print(f"{name}: result keys {sorted(result)}")
                return 1
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print(f"{name}: {result['failed']} of {result['attempted']} failed\n{proc.stdout}")
                return 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace]) if got[k] != expected[trace][k])
                print(f"{name}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
                return 1
            print(f"{name}: ok, {result['attempted']} checked, {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
