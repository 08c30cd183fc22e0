"""The game layer's fast paths against the definition-level recursions in
`oracle.py`: number + number, number translation and the general sum,
the order shortcut on two numbers, iterative integer construction, and
the board evaluators' canonical memos."""

import random
from collections import Counter

from hotgames import Dyadic, Game, GameStore
from hotgames.domineering import dom_game, grid
from hotgames.sampling import random_dyadic, random_game
from hotgames.snort import snort_game
from hotgames.tables import snort_path_board

from oracle import RawOracle, number_node, raw_dom_value, raw_snort_value

N_PAIRS = 1000


def _pairs(store: GameStore, seed: int):
    """N_PAIRS seeded pairs of random games of depth <= 2; every second one
    pairs a game with a dyadic number."""
    rng = random.Random(seed)
    for i in range(N_PAIRS):
        g = random_game(rng, store, max_depth=2)
        h = store.number(random_dyadic(rng)) if i % 2 else random_game(rng, store, max_depth=2)
        yield g.id, h.id


def _sum_kind(store: GameStore, a: int, b: int) -> str:
    x, y = store._number_value(a), store._number_value(b)
    if x is not None and y is not None:
        return "number + number"
    canonical = store._memo_canonical
    if (y is not None and canonical.get(a) == a) or (x is not None and canonical.get(b) == b):
        return "translation"
    return "general"


def test_add_matches_raw_sum():
    store = GameStore()
    oracle = RawOracle(store)
    kinds = Counter()
    for g, h in _pairs(store, 2024):
        raw = store._canonical(oracle.add(g, h))
        cg, ch = store._canonical(g), store._canonical(h)
        for a, b in ((g, h), (cg, ch), (ch, cg)):
            kinds[_sum_kind(store, a, b)] += 1
            assert store._canonical(store._add(a, b)) == raw
    assert min(kinds[k] for k in ("number + number", "translation", "general")) >= 100, kinds


def test_sum_operators_are_canonical_and_exact():
    store = GameStore()
    oracle = RawOracle(store)
    for g, h in _pairs(store, 7):
        s = Game(store, g) + Game(store, h)
        assert s.canonical() == s
        assert oracle.eq(s.id, oracle.add(g, h))
        d = Game(store, g) - Game(store, h)
        assert d.canonical() == d
        assert oracle.eq(d.id, oracle.sub(g, h))


def test_leq_number_shortcut_matches_raw_order():
    store = GameStore()
    oracle = RawOracle(store)
    rng = random.Random(99)
    both_numbers = 0
    for g, h in _pairs(store, 4048):
        x = store.number(random_dyadic(rng)).id
        for a, b in ((store._canonical(g), h), (x, h), (h, x), (x, store._canonical(g))):
            if store._number_value(a) is not None and store._number_value(b) is not None:
                both_numbers += 1
            assert store._leq(a, b) == oracle.leq(a, b)
    assert both_numbers >= 1000


def test_number_matches_recursive_construction():
    store = GameStore()
    values = [Dyadic(n) for n in range(-40, 41)]
    values += [Dyadic.parse(s) for s in ("3/4", "-5/8", "37/2", "-77/16", "1/64")]
    random.Random(5).shuffle(values)
    for x in values:
        g = store.number(x)
        assert g.id == number_node(store, x)
        assert g.number_value() == x
    # every integer on the way was registered as a canonical number
    for n in range(-40, 41):
        node = store._numbers[Dyadic(n)]
        assert store._memo_number[node] == Dyadic(n)
        assert store._memo_canonical[node] == node


def test_number_mixed_signs_match_recursive_construction():
    # each integer extends the interned run at one end or lies inside it
    store = GameStore()
    rng = random.Random(8)
    values = [rng.choice((-1, 1)) * rng.randrange(300) for _ in range(300)]
    for n in [5, -3, 250, -1, -250, 7, 300, -300] + values:
        assert store.number(n).id == number_node(store, Dyadic(n))


def test_board_values_match_plain_game_trees():
    store = GameStore()
    oracle = RawOracle(store)
    for n in range(1, 7):
        board = grid(2, n)
        value = dom_game(board, store)
        assert value.canonical() == value
        assert oracle.eq(value.id, raw_dom_value(board, store))
    for family in ("P", "LP", "LPL", "LPR"):
        for n in range(1, 7):
            board = snort_path_board(family, n)
            if board is None:
                continue
            value = snort_game(board, store)
            assert value.canonical() == value
            assert oracle.eq(value.id, raw_snort_value(board, store))
