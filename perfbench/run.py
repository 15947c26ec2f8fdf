"""The permavoid benchmark: one workload, one seed, a measured run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It drives the library in ``src/`` as a
closed loop with one client: each round is a fresh interpreter
(``worker.py``) that imports ``permavoid``, makes the workload's cold first
calls, then runs the workload's fixed list of operations one after another
in one thread and checks every output.  Rounds repeat until ``--seconds``
have passed.  Times are built from each operation's mean time over the
rounds after the first, a warm-up round whose outputs are checked but whose
times are not used; set-up time and peak RSS are medians over those rounds.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics: the layer probes (``probes.py``),
and the tracing overhead from rounds run alternately without and with spans
around every call into the library.  The spans are written to
``perfbench/out/`` when the run ends.  The lines before the last one give the
environment, every round's figures, the input properties and any failures.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("search-abstract", "direct-m7", "certificate", "sigma-grid")
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = [f"{x:.2f}" for x in os.getloadavg()]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": load,
        "commit": git_commit(),
    }


def allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return []


def run_worker(workload: str, seed: int, mode: str, verify: bool = False, cpu: int | None = None) -> tuple[float, dict]:
    """Start one worker, on one CPU if given; return its set-up seconds (start to READY) and its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode, "-" if cpu is None else str(cpu)]
    cmd += ["verify"] if verify else []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0 or not rest.strip():
        raise BenchError(f"{mode} worker for {workload} failed (exit code {code})")
    return setup, json.loads(rest.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, deadline: float, modes: tuple[str, ...]) -> list[dict]:
    """A warm-up round, then rounds cycling through ``modes`` until the deadline, with at least one of each.

    The warm-up round also re-verifies every witness word; its outputs are
    checked like any other round's, but its times are not used: the first
    seconds of a run on an idle host run slower.  The CPUs of a host can run
    at different speeds for seconds to minutes, and a worker tends to stay on
    the CPU it starts on; so each cycle of rounds is pinned to the next CPU in
    turn, and each operation's mean time is taken over all of them, not only
    over the CPU the run happened to start on.
    """
    cpus = allowed_cpus()
    rounds: list[dict] = []
    while True:
        timed = len(rounds) - 1  # index among the timed rounds; -1 is the warm-up
        mode = "round" if timed < 0 else modes[timed % len(modes)]
        cpu = cpus[max(timed, 0) // len(modes) % len(cpus)] if cpus else None
        start = time.perf_counter()
        setup, result = run_worker(workload, seed, mode, verify=timed < 0, cpu=cpu)
        result.update(mode="warmup" if timed < 0 else mode, setup_s=setup, cpu=cpu)
        rounds.append(result)
        took = time.perf_counter() - start
        if timed + 1 >= len(modes) and time.perf_counter() + took / 2 >= deadline:
            return rounds


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def mean_per_op(rounds: list[dict], key: str) -> list[float]:
    """Each operation's mean time over the rounds (every round runs the same list)."""
    return [statistics.fmean(times) for times in zip(*(r[key] for r in rounds))]


def tail(sorted_times: list[float]) -> float:
    """The time at the highest percentile with at least ten operations beyond it.

    A list of ten operations or fewer has no such percentile; its slowest
    operation stands in, so that every workload reports the metric.
    """
    return sorted_times[-11] if len(sorted_times) > 10 else sorted_times[-1]


def end_to_end(rounds: list[dict], attempted: int, failed: int) -> dict:
    op_wall = sorted(mean_per_op(rounds, "op_wall_s"))
    cpu = sum(mean_per_op(rounds, "op_cpu_s")) + statistics.fmean(r["children_cpu_s"] for r in rounds)
    metrics = {
        "setup_s": (median_of(rounds, "setup_s"), "s"),
        "wall_s": (sum(op_wall), "s"),
        "cpu_s": (cpu, "s"),
        "op_p50_ms": (statistics.median(op_wall) * 1e3, "ms"),
        "op_tail_ms": (tail(op_wall) * 1e3, "ms"),
        "peak_rss_mb": (median_of(rounds, "peak_rss_mb"), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def layer_self_s(rounds: list[dict]) -> dict:
    per_round = [spans.self_times(r["spans"]) for r in rounds]
    layers = sorted({layer for times in per_round for layer in times})
    return {layer: statistics.median(times.get(layer, 0.0) for times in per_round) for layer in layers}


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    rounds = [[[n, round(s, 7), round(e, 7), p, op] for n, s, e, p, op in r["spans"]] for r in traced]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "rounds": rounds}), encoding="utf-8")
    return path


def emit(key: str, value) -> None:
    print(json.dumps({key: value}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permavoid" / "__init__.py").is_file():
        print(f"run.py: no permavoid sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 1

    env = environment()
    start = time.perf_counter()
    try:
        # The probes run before the measured interval, so that a traced run
        # pairs as many untraced and traced rounds as an untraced run has rounds.
        probe = run_worker(args.workload, args.seed, "probe")[1] if args.trace else None
        deadline = time.perf_counter() + args.seconds
        rounds = run_rounds(args.workload, args.seed, deadline, ("round", "traced") if args.trace else ("round",))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    env["numpy"] = rounds[0]["numpy"]
    timed = [r for r in rounds if r["mode"] != "warmup"]
    emit("env", env)
    keys = ("mode", "cpu", "setup_s", "wall_s", "cpu_s", "ops", "peak_rss_mb", "failed")
    emit("rounds", [{k: r[k] for k in keys} for r in rounds])
    emit("inputs", rounds[-1]["properties"])
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        traced = [r for r in timed if r["mode"] == "traced"]
        untraced = [r for r in timed if r["mode"] == "round"]
        emit("layer_self_s", layer_self_s(traced))
        emit("probe_self_s", probe["self_s"])
        emit("probe_notes", probe["notes"])
        # the same overhead estimated from the spans: their count times one span's cost
        emit("trace_overhead_from_spans_s", statistics.median(len(r["spans"]) * r["span_cost_s"] for r in traced))
        emit("spans_file", str(write_spans(args.workload, args.seed, traced).relative_to(ROOT)))
        metrics = dict(probe["metrics"])
        metrics["trace_overhead_s"] = {
            "value": sum(mean_per_op(traced, "op_wall_s")) - sum(mean_per_op(untraced, "op_wall_s")),
            "unit": "s",
        }
        failures += probe["failures"]
        attempted += probe["checks"]
        failed += probe["failed"]
    else:
        metrics = end_to_end(timed, attempted, failed)
    if failures:
        emit("failures", failures[:20])
    emit("elapsed_s", time.perf_counter() - start)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
