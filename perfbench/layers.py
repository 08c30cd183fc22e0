"""Per-layer figures of one profiled round.

Self time comes from `cProfile`, grouped by the program module a
function lives in; time inside builtins (`sorted`, `all`, dict methods)
is charged to the module that called them. Call counts are the profile's
call counts of named functions. Store sizes are read from the
`GameStore`'s own tables after the round: there is no `stats()` API yet,
so this reads private attributes and has to follow them if they change.
"""

from __future__ import annotations

import pstats
from pathlib import Path

# program modules and the layer each one is reported under
LAYER_OF_MODULE = {
    "games": "games",
    "domineering": "domineering",
    "snort": "snort",
    "thermal": "thermal",
    "piecewise": "thermal",
    "dyadic": "dyadic",
    "bounds": "bounds",
    "notation": "notation",
    "tables": "tables",
}
LAYERS = ("games", "domineering", "snort", "thermal", "dyadic", "bounds", "notation", "tables")

# (module, function) -> metric counting its calls
CALL_COUNTS = {
    ("games", "_leq"): "games.leq_calls",
    ("games", "_add"): "games.add_calls",
    ("domineering", "_reflection_key"): "domineering.key_calls",
    ("snort", "canonical_key"): "snort.key_calls",
    ("bounds", "confusion_witness"): "bounds.witness_tests",
}


def _module(key, package_dir: Path) -> str | None:
    path = Path(key[0])
    if path.parent == package_dir:
        return path.stem
    return None


def profile_metrics(profiler, package_dir: Path) -> dict[str, float]:
    """Self seconds per layer and call counts of the named functions."""
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(CALL_COUNTS.values(), 0)
    for key, (_, calls, own, _, callers) in stats.items():
        module = _module(key, package_dir)
        if key[0] == "~":
            # a builtin: split its time among the modules that called it
            for caller, (_, _, caller_own, _) in callers.items():
                layer = LAYER_OF_MODULE.get(_module(caller, package_dir))
                if layer:
                    self_s[layer] += caller_own
            continue
        layer = LAYER_OF_MODULE.get(module)
        if layer:
            self_s[layer] += own
        metric = CALL_COUNTS.get((module, key[2]))
        if metric:
            counts[metric] += calls
    out = {f"{layer}.self_s": s for layer, s in self_s.items()}
    out.update(counts)
    return out


def store_metrics(store, key_calls: dict[str, int]) -> dict[str, float]:
    """Node and memo-table sizes of the store after the round."""
    caches = store._caches
    out = {
        "games.nodes": len(store),
        "games.leq_memo_entries": len(store._memo_leq),
        "games.add_memo_entries": len(store._memo_add),
        "thermal.thermographs": len(caches.get("thermograph", ())),
    }
    for board in ("domineering", "snort"):
        entries = len(caches.get(board, ()))
        calls = key_calls[f"{board}.key_calls"]
        out[f"{board}.components_evaluated"] = entries
        out[f"{board}.memo_hit_ratio"] = 1 - entries / calls if calls else 0.0
    return out


UNITS = {"self_s": "s", "memo_hit_ratio": "ratio", "run_s": "s"}


def unit(metric: str) -> str:
    return UNITS.get(metric.split(".")[-1], "count")
