"""Run one workload of the hotgames benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every round runs in a fresh worker process (`worker.py`) with a cold
GameStore, so memory and memo tables never carry over. With `--trace 0`
the run first starts the worker a few times for set-up alone, then runs
whole rounds until the next one would end after S seconds (at least
one), and reports medians over rounds. With `--trace 1` it runs one round
under cProfile and reports the per-layer figures. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import unit  # noqa: E402

WORKLOADS = ("random_sums", "domineering_2xn", "snort_tables", "graph_census", "witness_scan")
SETUP_SAMPLES = 5
# the whole run must end within 180 s, first build included
BUDGET_S = 170
# a timing tail needs this many queries beyond it (and 40 samples in all)
TAIL_BEYOND = 10


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, flags: list[str], deadline: float):
    """Run one worker; return (set-up seconds, its JSON result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), *flags]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} worker overran the {BUDGET_S} s budget") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise WorkerError(f"{workload} worker exited with code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - start
    return setup_s, (json.loads(lines[-1]) if len(lines) > 1 else None)


def tail(values: list[float]) -> float:
    """Highest value with TAIL_BEYOND values beyond it; the maximum when
    there are too few samples for such a percentile to be a tail."""
    ordered = sorted(values)
    if len(ordered) < 4 * TAIL_BEYOND:
        return ordered[-1]
    return ordered[-TAIL_BEYOND - 1]


def untraced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list, dict]:
    start = time.monotonic()
    setups = [spawn(workload, seed, ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES)]
    rounds = []
    longest = 0.0
    while not rounds or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        setup_s, result = spawn(workload, seed, [], deadline)
        longest = max(longest, time.monotonic() - began)
        setups.append(setup_s)
        rounds.append(result)
    # each query's median over rounds, then quantiles over queries
    per_query = [statistics.median(q) for q in zip(*(r["query_s"] for r in rounds))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"),
        "query_p50_ms": (statistics.median(per_query) * 1e3, "ms"),
        "query_tail_ms": (tail(per_query) * 1e3, "ms"),
    }
    return rounds, metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            _, result = spawn(args.workload, args.seed, ["--trace"], deadline)
            rounds = [result]
            metrics = {k: (v, unit(k)) for k, v in result["layers"].items()}
        else:
            rounds, metrics = untraced(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in rounds:
        for line in r["failures"] + r["problems"]:
            print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(len(r["query_s"]) for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
