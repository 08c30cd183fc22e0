"""One round of one workload, in a fresh process with a cold GameStore.

    python3 perfbench/worker.py WORKLOAD SEED [--trace] [--setup-only]

Imports the program from `src/` beside this directory, makes the inputs,
then prints `ready` and the time (the parent times set-up up to it). It then
runs the workload's queries, reads the peak resident memory, checks the
answers, and prints one JSON line with the round's figures. `--trace`
profiles import, set-up and queries with cProfile and adds the
per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hotgames"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hotgames
    except ImportError as exc:
        sys.exit(f"cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(hotgames.__file__).resolve().parent != PACKAGE:
        sys.exit(f"imported hotgames from {hotgames.__file__}, not from {PACKAGE}")
    return hotgames


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    profiler = None
    if args.trace:
        import cProfile

        # profile from the import on, so that work moved into set-up shows
        profiler = cProfile.Profile()
        profiler.enable()
    hotgames = _import_program()
    import layers
    from workloads import WORKLOADS, Queries

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    # the parent's clock: CLOCK_MONOTONIC is one clock for every process
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return

    store = hotgames.GameStore()
    queries = Queries()
    t0 = time.perf_counter()
    answers = workload.run(inputs, store, queries)
    run_s = time.perf_counter() - t0
    if profiler:
        profiler.disable()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"run_s": run_s, "query_s": queries.seconds, "peak_rss_mib": peak_rss_mib}
    if profiler:
        # read the store before the checks add to it
        figures = layers.profile_metrics(profiler, PACKAGE)
        figures.update(layers.store_metrics(store, figures))
        figures["traced.run_s"] = run_s
        result["layers"] = figures
    result["failures"] = queries.failures
    result["problems"] = workload.check(inputs, store, answers)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
