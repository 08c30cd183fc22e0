"""The game layer's fast paths against the definition-level recursions in
`oracle.py`: number + number, number translation and the general sum,
the stops each canonical node carries and the order questions they
settle, iterative integer construction, and the board evaluators'
canonical memos, each entry certified from its options' entries."""

import random
import time
from collections import Counter

import pytest

import hotgames.domineering as domineering
import hotgames.snort as snort
from hotgames import Dyadic, Game, GameStore
from hotgames.domineering import dom_game, drummond_cole_board, grid
from hotgames.sampling import random_dyadic, random_game
from hotgames.snort import snort_game, snort_grid
from hotgames.tables import snort_path_board
from hotgames.thermal import stops

from oracle import (
    RawOracle,
    certify,
    literal_number_value,
    number_node,
    raw_dom_value,
    raw_snort_value,
    raw_stops,
    record_expansions,
)

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
    marks = store._marks
    if (y is not None and a in marks) or (x is not None and b in marks):
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


def _stops_branch(store: GameStore, a: int, b: int) -> str:
    """Which branch of `_leq`'s stops check answers a <= b."""
    sa, sb = store._marks.get(a), store._marks.get(b)
    if sa is None or sb is None:
        return "no stops"
    if sa[0] > sb[0] or sa[1] > sb[1]:
        return "False by stops"
    if sb[1] > sa[0]:
        return "True by stops"
    return "fall-through"


def test_leq_stops_shortcut_matches_raw_order():
    store = GameStore()
    oracle = RawOracle(store)
    rng = random.Random(99)
    branches = Counter()
    for g, h in _pairs(store, 4048):
        x = store.number(random_dyadic(rng)).id
        for a, b in ((store._canonical(g), h), (x, h), (h, x), (x, store._canonical(g))):
            branches[_stops_branch(store, a, b)] += 1
            assert store._leq(a, b) == oracle.leq(a, b)
    # raw nodes carry no stops; numbers and canonical forms do
    assert min(branches[k] for k in ("no stops", "False by stops", "True by stops")) >= 1000, branches
    # a raw node is compared through the raw table until `_canonical` ends
    # on it, and through its canonical form from then on
    paths = Counter()
    for g, h in _pairs(store, 4049):
        x = store.number(random_dyadic(rng)).id
        for i in (g, h):
            if i in store._marks or i in store._memo_canonical:
                continue
            for a, b in ((i, x), (x, i)):
                assert store._leq(a, b) == oracle.leq(a, b)
                assert (a, b) in store._memo_leq_raw
            paths["raw table"] += 1
            if store._canonical(i) == i:
                continue
            assert not store._memo_leq_raw
            for a, b in ((i, x), (x, i)):
                assert store._leq(a, b) == oracle.leq(a, b)
            assert not store._memo_leq_raw
            paths["redirect"] += 1
    assert min(paths.values()) >= 100, paths
    # order answers are memoized only between canonical nodes
    dom_game(grid(2, 12), store)
    for g, h in _pairs(store, 4050):
        Game(store, g) + Game(store, h)
    marks = store._marks
    assert all(a in marks and b in marks for a, b in store._memo_leq)
    assert not store._memo_leq_raw
    # every ordered pair of canonical values from one board memo
    store = GameStore()
    snort_game(snort_grid(2, 5), store)
    oracle = RawOracle(store)
    values = sorted(set(store.cache("snort").values()))
    branches = Counter()
    for a in values:
        for b in values:
            branch = _stops_branch(store, a, b)
            branches[branch] += 1
            size = len(store._memo_leq)
            assert store._leq(a, b) == oracle.leq(a, b), (a, b, branch)
            if branch.endswith("by stops"):
                assert len(store._memo_leq) == size
    assert branches["no stops"] == 0
    for branch in ("False by stops", "True by stops", "fall-through"):
        assert branches[branch] >= 100, branches


def test_leq_on_a_raw_dag_is_memoized():
    # each level's two nodes both reach both nodes of the level below, so
    # the order recursion on these raw nodes is exponential in the depth
    # unless its answers are memoized while no canonical form is known
    store = GameStore()
    g, h = store.star, store.up
    for _ in range(22):
        g, h = store.make([g, h], [h, store.zero]), store.make([g], [g, h])
    oracle = RawOracle(store)
    pairs = ((g, h), (h, g), (g, store.zero))
    # the recursion looks `_leq` up on the store, so this counts every
    # call and stops an unmemoized recursion early
    calls = 0
    leq = store._leq

    def counted(a: int, b: int) -> bool:
        nonlocal calls
        calls += 1
        assert calls <= 20_000, "order recursion on a raw DAG is not memoized"
        return leq(a, b)

    store._leq = counted
    start = time.perf_counter()
    got = [a.leq(b) for a, b in pairs]
    assert time.perf_counter() - start < 1.0
    assert got == [oracle.leq(a.id, b.id) for a, b in pairs]


def test_stops_match_raw_recursion():
    store = GameStore()
    rng = random.Random(31)
    games = [random_game(rng, store) for _ in range(300)]
    canonical = [g.canonical() for g in games]
    negatives = [-c for c in canonical]
    sums = [g + h for g, h in zip(games, games[1:])]
    for g in games + canonical + negatives + sums:
        assert stops(g) == raw_stops(store, g.id)
    # _negate marks the negative of a canonical form canonical
    assert all(n.id in store._marks for n in negatives)
    for evaluator, board, memo in (
        (snort_game, snort_grid(2, 5), "snort"),
        (dom_game, grid(2, 8), "domineering"),
    ):
        value = evaluator(board, store)
        for i in [value.id, *store.cache(memo).values()]:
            assert stops(Game(store, i)) == raw_stops(store, i)


def test_negative_found_before_its_node_was_marked_canonical():
    # -g is interned while g is a raw node; once g is marked canonical,
    # the negative of a canonical game with g as an option marks -g too
    store = GameStore()
    g = store.make([store.number(2)], [store.number(1)])
    minus_g = -g
    assert g.canonical() == g and minus_g.id not in store._marks
    h = store.make([g], [store.zero]).canonical()
    assert stops(-h) == raw_stops(store, (-h).id) == (Dyadic(0), Dyadic(-1))
    assert minus_g.id in store._marks


def test_board_node_counts_and_leq_memo():
    # stops add no node. The ceilings 15,707, 9,335 and 743 are the _leq
    # memo sizes these boards had without the stops shortcut when it was
    # added. The memo now holds 2,689, 2,273 and 113 entries, all between
    # canonical nodes, so the ceilings check only that it stays below
    # those old sizes. Drummond-Cole's board is split both within two rows
    # and by flood fill.
    for build, nodes, leq_before in (
        (lambda s: dom_game(grid(2, 12), s), 1604, 15707),
        (lambda s: snort_game(snort_grid(2, 6), s), 673, 9335),
        (lambda s: dom_game(drummond_cole_board(), s), 160, 743),
    ):
        store = GameStore()
        build(store)
        assert len(store) == nodes
        assert len(store._memo_leq) < leq_before


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
        assert store._marks[node] == (Dyadic(n),) * 3


def test_number_value_read_off_stops_matches_the_structure():
    # _mark_canonical reads a node's stops and number value off its
    # options' stops; the recursion from the definitions and the
    # structural recognizer agree on every marked node, and the memo of
    # canonical forms holds only raw nodes, each mapped to a marked one
    store = GameStore()
    rng = random.Random(19)
    games = [random_game(rng, store) for _ in range(300)]
    canonical = [g.canonical() for g in games]
    for g in games + canonical:
        store.negate(g)
    for g, h in zip(games, games[1:]):
        store.add(g, h).canonical()
        store.add(g.canonical(), h.canonical()).canonical()
    dom_game(grid(2, 8), store)
    snort_game(snort_grid(2, 5), store)
    for x in [*range(-30, 31), "1/2", "-3/4", "5/8", "-37/16", "1/64"]:
        store.number(x)
    for i, c in store._memo_canonical.items():
        assert i != c and c in store._marks, (i, c)
    numbers = 0
    for c, (ls, rs, x) in store._marks.items():
        assert (ls, rs) == raw_stops(store, c), c
        assert x == literal_number_value(store, c), c
        numbers += x is not None
    assert len(store._marks) > 1000 and numbers > 100, (len(store._marks), numbers)
    assert len(store._memo_canonical) > 300


def test_number_value_of_a_node_built_before_its_number():
    store = GameStore()
    one = store.make([store.zero], [])
    assert one.number_value() == Dyadic(1)
    assert one == store.number(1)
    assert store.make([store.zero], [store.number(2)]).number_value() is None


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


# the memo name, the module whose `_moves` is recorded, its component
# and key hooks, and the evaluator of each board ruleset
RULESETS = {
    "domineering": (
        domineering,
        domineering._components,
        domineering._reflection_key,
        dom_game,
    ),
    "snort": (snort, snort._components, snort.canonical_key, snort_game),
}

SNORT_PATHS = [
    board
    for family in ("P", "LP", "LPL", "LPR")
    for n in range(1, 11)
    if (board := snort_path_board(family, n)) is not None
]


def _certify(monkeypatch, name, boards, tamper=None):
    module, components, key, game_of = RULESETS[name]
    store = GameStore()
    expanded = record_expansions(monkeypatch, module)
    for board in boards:
        game_of(board, store)
    memo = store.cache(name)
    assert len(expanded) == len(memo)  # every entry comes from one expansion
    if tamper is not None:
        tamper(memo)
    return expanded, certify(store, name, expanded, components, key)


def test_every_memoized_board_value_is_certified(monkeypatch):
    certified = 0
    for name, boards in (
        # 2x14 expands every position of 2x12 and more
        ("domineering", [grid(2, 14), grid(3, 5), grid(3, 6)]),
        ("snort", [snort_grid(2, 6), snort_grid(3, 4), *SNORT_PATHS]),
    ):
        expanded, failed = _certify(monkeypatch, name, boards)
        assert failed == []
        certified += len(expanded)
    assert certified >= 5000


@pytest.mark.parametrize(
    "name, board",
    [("domineering", grid(2, 6)), ("snort", snort_grid(2, 4))],
    ids=["domineering", "snort"],
)
def test_certificate_fails_on_a_swapped_memo_entry(monkeypatch, name, board):
    def tamper(memo):
        # give the last entry the canonical value of another
        last = list(memo)[-1]
        memo[last] = next(v for v in memo.values() if v != memo[last])

    _, failed = _certify(monkeypatch, name, [board], tamper)
    assert len(failed) == 1
