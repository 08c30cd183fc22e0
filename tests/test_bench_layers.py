"""The benchmark's per-layer reader (`perfbench/layers.py`) against the
store it reads. It reads the store's private tables and cache names and
counts the calls of named functions, so a renamed table, cache or
function would show as a zero, not as an error; this test fails
instead. The module is loaded by path, as the bench worker loads it."""

import cProfile
import importlib.util
import json
from pathlib import Path

import hotgames
from hotgames import (
    GameStore,
    dom_game,
    grid,
    minimal_confusion_k,
    snort_game,
    snort_path,
    temperature,
)
from hotgames.snort import snort_grid

ROOT = Path(__file__).resolve().parent.parent

STORE_METRICS = {
    "games.nodes",
    "games.leq_memo_entries",
    "games.add_memo_entries",
    "thermal.thermographs",
    "domineering.components_evaluated",
    "domineering.memo_hit_ratio",
    "snort.components_evaluated",
    "snort.memo_hit_ratio",
}


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "perfbench" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_store_metrics_return_every_listed_store_figure():
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert STORE_METRICS <= listed
    layers = _load_layers()
    store = GameStore()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for g in (dom_game(grid(2, 4), store), snort_game(snort_grid(2, 3), store)):
            temperature(g)
        minimal_confusion_k(snort_game(snort_path(5), store), step=1)
    finally:
        profiler.disable()
    figures = layers.profile_metrics(profiler, Path(hotgames.__file__).parent)
    figures.update(layers.store_metrics(store, figures))
    assert STORE_METRICS <= figures.keys()
    assert figures["games.nodes"] == len(store)
    # the key calls feed the hit ratios, the leq and add calls fill the
    # memos, and each bisection step of the witness search is one test
    for name in (
        "games.leq_calls",
        "games.add_calls",
        "domineering.key_calls",
        "snort.key_calls",
        "bounds.witness_tests",
    ):
        assert figures[name] > 0, name
    for name in STORE_METRICS - {"games.nodes"}:
        assert figures[name] > 0, (name, figures[name])
    for board in ("domineering", "snort"):
        assert figures[f"{board}.memo_hit_ratio"] < 1
