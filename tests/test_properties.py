"""Cross-cutting invariants on random games: the two independent code
paths (order recursion vs outcome search, thermograph vs cooling)
audit each other here."""

import random
import threading

from hotgames import (
    Game,
    GameStore,
    Outcome,
    ell,
    format_game,
    left_stop,
    outcome_leq,
    parse_expr,
    right_stop,
    stops,
    temperature,
    thermograph,
)
from hotgames.sampling import random_game

from oracle import RawOracle

N_PAIRS = 400


def test_leq_matches_outcome_of_difference(store, rng):
    # the order recursion against the alternating win/loss search; the
    # difference is the raw sum, since a canonical `-` would itself run
    # through the order recursion under test
    oracle = RawOracle(store)
    for _ in range(N_PAIRS):
        g = random_game(rng, store, max_depth=2)
        h = random_game(rng, store, max_depth=2)
        diff = Game(store, oracle.sub(g.id, h.id))
        assert g.leq(h) == (diff.outcome() in (Outcome.P, Outcome.R))
        assert g.eq(h) == (diff.outcome() == Outcome.P)
        assert g.confused_with(h) == (diff.outcome() == Outcome.N)


def test_eq_iff_same_canonical(store, rng):
    for _ in range(N_PAIRS):
        g = random_game(rng, store, max_depth=2)
        h = random_game(rng, store, max_depth=2)
        assert g.eq(h) == (g.canonical() == h.canonical())
        assert (g.leq(h) and h.leq(g)) == g.eq(h)


def test_outcome_respects_order(store, rng):
    for _ in range(N_PAIRS):
        g = random_game(rng, store, max_depth=2)
        h = random_game(rng, store, max_depth=2)
        if g.leq(h):
            assert outcome_leq(g.outcome(), h.outcome())


def test_hash_consing_soundness(store, rng):
    # semantic results agree whether or not canonical() was applied first
    for _ in range(N_PAIRS):
        g = random_game(rng, store, max_depth=2)
        c = g.canonical()
        assert g.outcome() == c.outcome()
        assert stops(g) == stops(c)
        assert g.leq(store.zero) == c.leq(store.zero)
        assert thermograph(g) == thermograph(c)


def test_stop_inequalities(store, rng):
    for _ in range(N_PAIRS):
        g = random_game(rng, store)
        h = random_game(rng, store)
        assert left_stop(g) >= right_stop(g)
        assert left_stop(-g) == -right_stop(g)
        s = g + h
        assert right_stop(g) + left_stop(h) <= left_stop(s)
        assert left_stop(s) <= left_stop(g) + left_stop(h)
        assert ell(s) <= ell(g) + ell(h)
        assert temperature(s) <= max(temperature(g), temperature(h))


def test_number_translation_of_stops(store, rng):
    for _ in range(150):
        g = random_game(rng, store, max_depth=2)
        x = store.number(rng.randint(-4, 4))
        shift = x.number_value()
        assert left_stop(g + x) == left_stop(g) + shift
        assert right_stop(g + x) == right_stop(g) + shift


def test_notation_round_trip_is_canonical(store, rng):
    for _ in range(200):
        g = random_game(rng, store, max_depth=2)
        c = g.canonical()
        assert parse_expr(format_game(g), store) == c


def test_determinism_across_stores(rng):
    # handle ids are session-local; semantic outputs must not be
    seeds = [rng.randint(0, 10**9) for _ in range(30)]
    reports = []
    for _ in range(2):
        store = GameStore()
        batch = []
        for seed in seeds:
            g = random_game(random.Random(seed), store)
            batch.append(
                (format_game(g), g.outcome().value, str(temperature(g)))
            )
        reports.append(batch)
    assert reports[0] == reports[1]


def test_threaded_queries_agree(store):
    exprs = ["±{9|3}", "{{5|2}|{-2|-3}}", "{{10|1}|-1}", "{1|-1}", "^", "*"]
    games = [parse_expr(e, store) for e in exprs]
    expected = [(g.outcome(), stops(g), temperature(g)) for g in games]
    results = {}
    errors = []

    def worker(tid):
        try:
            local = []
            for g in games:
                local.append((g.outcome(), stops(g), temperature(g)))
            results[tid] = local
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(results[i] == expected for i in results)
