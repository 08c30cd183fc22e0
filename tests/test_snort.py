import pytest

from hotgames import (
    CeilingExceededError,
    Dyadic,
    GameStore,
    Outcome,
    ParseError,
    SnortBoard,
    TimeBudgetError,
    Tint,
    graph_enumerate,
    snort_game,
    snort_grid,
    snort_parse,
    snort_path,
    snort_star,
    temperature,
)
from hotgames import snort
from hotgames.budget import Deadline
from hotgames.snort import canonical_key
from oracle import connected_graphs_by_edge_masks

D = Dyadic


# -- boards -------------------------------------------------------------------


def test_parse_and_format():
    text = "4\n0 1\n1 2\n2 3\nL: 0\nR: 3"
    board = snort_parse(text)
    assert board.n == 4
    assert board.tints == (Tint.LEFT, Tint.FREE, Tint.FREE, Tint.RIGHT)
    assert snort_parse(board.format()) == board


@pytest.mark.parametrize(
    "bad",
    ["", "x", "2\n0 0", "2\n0 5", "3\n0 1 2", "2\nL: 9"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        snort_parse(bad)


def test_path_constructors():
    p3 = snort_path(3)
    assert p3.n == 3 and p3.edges == frozenset({(0, 1), (1, 2)})
    lp2 = snort_path(2, "L")
    assert lp2.tints == (Tint.LEFT, Tint.FREE)
    lplr = snort_path(3, "L", "R")
    assert lplr.tints == (Tint.LEFT, Tint.FREE, Tint.RIGHT)


def test_path_dead_vertex_dropped():
    # a single free vertex squeezed between an L piece and an R piece is
    # playable by nobody and vanishes from the encoding
    board = snort_path(1, "L", "R")
    assert board.n == 0


def test_star_board():
    b = snort_star(3)
    assert b.n == 4
    assert b.degree() == 3


def test_play_retints_and_kills():
    # L piece next to an R-tinted vertex: playing kills the R vertex
    board = SnortBoard((Tint.FREE, Tint.RIGHT), frozenset({(0, 1)}))
    after = board.play(0, left=True)
    assert after.n == 0
    board2 = SnortBoard((Tint.FREE, Tint.FREE), frozenset({(0, 1)}))
    after2 = board2.play(0, left=True)
    assert after2.tints == (Tint.LEFT,)


def test_play_rejects_opponent_tint():
    board = SnortBoard((Tint.RIGHT,), frozenset())
    with pytest.raises(ValueError):
        board.play(0, left=True)


# -- values -------------------------------------------------------------------


def test_empty_graph_is_zero(store):
    assert snort_game(SnortBoard((), frozenset()), store) == store.zero


def test_single_vertex_is_star(store):
    assert snort_game(snort_path(1), store) == store.star


def test_lp0_is_cold(store):
    g = snort_game(snort_path(0, "L"), store)
    assert temperature(g) == -1


def test_small_path_temperatures(store):
    assert temperature(snort_game(snort_path(2), store)) == 1
    assert temperature(snort_game(snort_path(3), store)) == 2


def test_star_is_plus_minus_n(store):
    for n in range(1, 5):
        g = snort_game(snort_star(n), store)
        assert g.eq(store.make([store.number(n)], [store.number(-n)]))


def test_universal_vertex_gives_plus_minus_n(store):
    # any (n+1)-vertex graph with a universal vertex is ±n, not just stars
    from itertools import combinations

    def complete(n):
        return SnortBoard(
            (Tint.FREE,) * n, frozenset(combinations(range(n), 2))
        )

    def wheel(n):  # hub 0 joined to an n-cycle
        edges = {(0, i) for i in range(1, n + 1)}
        edges |= {
            (min(i, i % n + 1), max(i, i % n + 1))
            for i in range(1, n + 1)
            if i != i % n + 1
        }
        return SnortBoard((Tint.FREE,) * (n + 1), frozenset(edges))

    for n in range(2, 6):
        g = snort_game(complete(n), store)
        assert g.eq(store.make([store.number(n - 1)], [store.number(-(n - 1))]))
    for n in (3, 4, 5):
        g = snort_game(wheel(n), store)
        assert g.eq(store.make([store.number(n)], [store.number(-n)]))
        assert temperature(g) == n


def test_colour_swap_negates(store):
    boards = [
        snort_path(4, "L"),
        snort_path(5, "L", "R"),
        snort_star(3),
        snort_grid(2, 3),
    ]
    for b in boards:
        assert snort_game(b.swap_colours(), store).eq(-snort_game(b, store))


def test_component_split(store):
    two_paths = SnortBoard(
        (Tint.FREE,) * 5, frozenset({(0, 1), (3, 4)})
    )  # P2 + P2 + isolated vertex
    g = snort_game(two_paths, store)
    p2 = snort_game(snort_path(2), store)
    expect = p2 + p2 + store.star
    assert (g - expect).outcome() == Outcome.P


def test_expired_deadline_stops_before_keying_components(monkeypatch):
    # every isolated vertex is *, a memo hit that allocates no node
    keyed = []

    def key(b):
        keyed.append(b)
        return canonical_key(b)

    monkeypatch.setattr(snort, "canonical_key", key)
    board = SnortBoard((Tint.FREE,) * 1000, frozenset())
    with pytest.raises(TimeBudgetError):
        snort_game(board, GameStore(deadline=Deadline(-1)))
    assert len(keyed) < 1000


def test_expired_deadline_stops_before_splitting_every_component(monkeypatch):
    # components are built one at a time, so the budget check between
    # them stops the split, not only the keying
    built = []
    post_init = SnortBoard.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    board = SnortBoard((Tint.FREE,) * 1000, frozenset())
    monkeypatch.setattr(SnortBoard, "__post_init__", counting)
    with pytest.raises(TimeBudgetError):
        snort_game(board, GameStore(deadline=Deadline(-1)))
    assert 0 < len(built) <= 3


def test_positions_on_paths_decompose_into_decorated_paths(store, rng):
    # every follower of an empty path is a sum of paths whose interior
    # vertices are all free (tints appear only at the ends)
    frontier = [snort_path(6)]
    seen = 0
    while frontier and seen < 200:
        board = frontier.pop()
        seen += 1
        for comp in board.components():
            order = _path_order(comp)
            assert order is not None, "component is not a path"
            for v in order[1:-1]:
                assert comp.tints[v] == Tint.FREE
        for left in (True, False):
            frontier.extend(board.moves(left))


def _path_order(board):
    if board.n == 1:
        return [0]
    adj = {v: board.neighbours(v) for v in range(board.n)}
    ends = [v for v, ns in adj.items() if len(ns) == 1]
    if len(ends) != 2 or any(len(ns) > 2 for ns in adj.values()):
        return None
    order = [ends[0]]
    prev = None
    while len(order) < board.n:
        nxt = [u for u in adj[order[-1]] if u != prev]
        if not nxt:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


# -- canonical keys and enumeration --------------------------------------------


def test_canonical_key_isomorphism_invariant(rng):
    base = snort_path(5, "L")
    key = canonical_key(base)
    for _ in range(10):
        perm = list(range(base.n))
        rng.shuffle(perm)
        tints = [None] * base.n
        for v, p in enumerate(perm):
            tints[p] = base.tints[v]
        edges = frozenset(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in base.edges
        )
        assert canonical_key(SnortBoard(tuple(tints), edges)) == key


def test_canonical_key_distinguishes_tints():
    a = snort_path(3, "L")
    b = snort_path(3, "R")
    assert canonical_key(a) != canonical_key(b)


def test_graph_enumeration_counts():
    boards = list(graph_enumerate(6))
    counts = {}
    for b in boards:
        counts[b.n] = counts.get(b.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    assert all(len(list(b.components())) == 1 for b in boards)
    assert all(t == Tint.FREE for b in boards for t in b.tints)
    assert len({canonical_key(b) for b in boards}) == len(boards)
    assert all(a.n <= b.n for a, b in zip(boards, boards[1:]))
    assert list(graph_enumerate(0)) == list(graph_enumerate(-1)) == []


@pytest.mark.parametrize("n", range(1, 6))
def test_graph_enumeration_matches_edge_mask_oracle(n):
    grown = {canonical_key(b) for b in graph_enumerate(n) if b.n == n}
    assert grown == {canonical_key(b) for b in connected_graphs_by_edge_masks(n)}


def test_graph_enumeration_contains_stars():
    stars = [canonical_key(snort_star(n)) for n in range(1, 5)]
    found = {canonical_key(b) for b in graph_enumerate(5)}
    assert all(k in found for k in stars)


def test_graph_enumeration_cap():
    with pytest.raises(CeilingExceededError):
        list(graph_enumerate(7))


def test_grid_board():
    b = snort_grid(2, 3)
    assert b.n == 6
    assert len(b.edges) == 7
    assert b.degree() == 3
