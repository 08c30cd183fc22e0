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
    format_game,
    graph_enumerate,
    parse_expr,
    snort_game,
    snort_grid,
    snort_path,
    snort_star,
    temperature,
)
from hotgames import snort
from hotgames.budget import Deadline
from hotgames.snort import _components, _moves, canonical_key, encoded_parts
from hotgames.tables import SNORT_PATH_REFERENCE, snort_path_board
from oracle import (
    RawOracle,
    connected_graphs_by_edge_masks,
    raw_snort_value,
    refined_key,
    snort_components,
    snort_decode,
    snort_key,
    snort_moves,
    snort_live,
    snort_neighbours,
    snort_play,
)

D = Dyadic


def position(board):
    """The int position of a connected board."""
    [part] = encoded_parts(board)
    return part


def tinted_graphs(rng, tintings=1, sizes=range(1, 7)):
    """Every connected graph on each number of vertices in `sizes` (by
    default 1 to 6), each with `tintings` seeded random tintings."""
    for n in sizes:
        for graph in connected_graphs_by_edge_masks(n):
            for _ in range(tintings):
                tints = tuple(rng.choice(list(Tint)) for _ in range(n))
                yield SnortBoard(tints, graph.edges)


# -- boards -------------------------------------------------------------------


def test_parse_and_format():
    text = "4\n0 1\n1 2\n2 3\nL: 0\nR: 3"
    board = SnortBoard.parse(text)
    assert board.n == 4
    assert board.tints == (Tint.LEFT, Tint.FREE, Tint.FREE, Tint.RIGHT)
    assert SnortBoard.parse(board.format()) == board


@pytest.mark.parametrize(
    "bad",
    [
        "", "x", "2\n0 0", "2\n0 5", "3\n0 1 2", "2\nL: 9",
        "٣", "3\n٠ ١", "11\n0 1_0", "+2\n0 1", "2\n0 1\nL: 0\nR: 0",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        SnortBoard.parse(bad)


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
    [after], _ = _moves(position(board))
    assert snort_decode(after).n == 0
    board2 = SnortBoard((Tint.FREE, Tint.FREE), frozenset({(0, 1)}))
    after2 = _moves(position(board2))[0][0]
    assert snort_decode(after2).tints == (Tint.LEFT,)


def test_play_rejects_opponent_tint():
    board = SnortBoard((Tint.RIGHT,), frozenset())
    lefts, rights = _moves(position(board))
    assert lefts == [] and len(rights) == 1
    with pytest.raises(ValueError):
        snort_play(board, 0, left=True)


def test_mask_moves_and_components_decode_to_the_oracle(rng):
    for board in tinted_graphs(rng):
        pos = position(board)
        assert snort_decode(pos) == board
        for left, options in zip((True, False), _moves(pos)):
            expect = snort_moves(board, left)
            assert [snort_decode(o) for o in options] == expect
            for option, b in zip(options, expect):
                # a part still carries its same-tint edges, unread by the split
                got = [snort_live(snort_decode(c)) for c in _components(option)]
                live = snort_components(snort_live(b))
                assert sorted(c.format() for c in got) == sorted(c.format() for c in live)


def test_encoded_parts_decode_to_the_oracle_components(rng):
    tints = tuple(rng.choice(list(Tint)) for _ in range(9))
    board = SnortBoard(tints, frozenset({(0, 5), (5, 7), (2, 3), (4, 8), (1, 8)}))
    got = [snort_decode(p) for p in encoded_parts(board)]
    assert sorted(b.format() for b in got) == sorted(
        b.format() for b in snort_components(board)
    )
    assert [b.n for b in got] == [3, 3, 2, 1]  # in order of their lowest vertex


# -- values -------------------------------------------------------------------


def test_same_tint_edges_do_not_change_the_value(store, rng):
    # an edge between two LEFT or two RIGHT vertices never takes part in a
    # move, so the evaluator splits and keys positions without it
    boards = [*tinted_graphs(rng, 3, range(1, 6)), *tinted_graphs(rng, 1, [6])]
    oracle = RawOracle(store)
    dead = 0
    for board in boards:
        live = snort_live(board)
        dead += live != board
        raw = raw_snort_value(board, store)
        assert oracle.eq(raw, raw_snort_value(live, store))
        assert oracle.eq(snort_game(board, store).id, raw)
    assert len(boards) == 205 and dead > len(boards) // 2


SEVEN_VERTEX_VALUE = "{{5|{2|1}}|{{-1|-2}|-5}}"


@pytest.mark.parametrize(
    "text, value, t, degree",
    [
        ("7; 0 1; 0 2; 0 3; 1 4; 1 5; 2 6; 3 6", SEVEN_VERTEX_VALUE, D.parse("13/4"), 3),
        ("7; 0 1; 0 2; 0 3; 1 4; 1 6; 2 5; 3 5; 4 6", SEVEN_VERTEX_VALUE, D.parse("13/4"), 3),
        # the double star S(3,3)
        ("8; 0 1; 0 2; 0 3; 0 4; 4 5; 4 6; 4 7", "{{6|3}|{-3|-6}}", D.parse("9/2"), 4),
    ],
)
def test_degree_statement_counterexamples(store, text, value, t, degree):
    # graphs hotter than their maximum degree allows, found by
    # `hotgames scan graphs` on 7 and 8 vertices
    board = SnortBoard.parse(text.replace("; ", "\n"))
    g = snort_game(board, store)
    assert board.degree() == degree
    assert format_game(g) == value and g.eq(parse_expr(value, store))
    assert temperature(g) == t > degree
    assert RawOracle(store).eq(g.id, raw_snort_value(board, store))


def double_star(a, b):
    """S(a,b): centres 0 and a + 1, joined, with a and b leaves."""
    edges = {(0, v) for v in range(1, a + 2)}
    edges |= {(a + 1, v) for v in range(a + 2, a + b + 2)}
    return SnortBoard((Tint.FREE,) * (a + b + 2), frozenset(edges))


@pytest.mark.parametrize("a, b", [(a, b) for b in range(1, 5) for a in range(1, b + 1)])
def test_double_star_temperature_law(store, a, b):
    # t(S(a,b)) = b + a/2 against a maximum degree of b + 1, so the
    # degree statement fails exactly when a >= 3
    board = double_star(a, b)
    g = snort_game(board, store)
    t = temperature(g)
    assert t == b + D(a).half()
    assert board.degree() == b + 1
    assert (t > board.degree()) == (a >= 3)
    assert RawOracle(store).eq(g.id, raw_snort_value(board, store))


def test_double_star_labels_match_the_pinned_s33():
    assert double_star(3, 3) == SnortBoard.parse("8\n0 1\n0 2\n0 3\n0 4\n4 5\n4 6\n4 7")


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

    def key(p, deadline=None):
        keyed.append(p)
        return canonical_key(p, deadline)

    monkeypatch.setattr(snort, "canonical_key", key)
    board = SnortBoard((Tint.FREE,) * 1000, frozenset())
    with pytest.raises(TimeBudgetError):
        snort_game(board, GameStore(deadline=Deadline(-1)))
    assert len(keyed) < 1000


def test_expired_deadline_stops_before_splitting_every_component(monkeypatch):
    # parts are encoded one at a time, so the budget check between them
    # stops the split, not only the keying
    split = []
    built = []
    parts = snort.encoded_parts

    def counting(board, deadline=None):
        split.append(board)
        for part in parts(board, deadline):
            built.append(part)
            yield part

    board = SnortBoard((Tint.FREE,) * 1000, frozenset())
    monkeypatch.setattr(snort, "encoded_parts", counting)
    with pytest.raises(TimeBudgetError):
        snort_game(board, GameStore(deadline=Deadline(-1)))
    assert split == [board] and len(built) <= 3


def test_first_parts_split_by_live_edges(monkeypatch):
    # two free-free-LEFT paths joined at their LEFT ends: the joining edge
    # is dead, so the board's parts are the two paths, keyed as one class
    keyed = []

    def key(p, deadline=None):
        keyed.append(p)
        return canonical_key(p, deadline)

    monkeypatch.setattr(snort, "canonical_key", key)
    board = SnortBoard(
        (Tint.FREE, Tint.FREE, Tint.LEFT) * 2,
        frozenset({(0, 1), (1, 2), (3, 4), (4, 5), (2, 5)}),
    )
    store = GameStore()
    g = snort_game(board, store)
    assert (len(keyed), len(store)) == (8, 16)
    assert g == store.number(1)
    assert RawOracle(store).eq(g.id, raw_snort_value(board, store))


class CountingDeadline:
    """A deadline that runs out after a fixed number of checks."""

    def __init__(self, checks: int):
        self.checks = checks

    def check(self) -> None:
        self.checks -= 1
        if self.checks < 0:
            raise TimeBudgetError("out of checks")


def test_deadline_stops_canonical_key_inside_one_part():
    # refining a path's colours takes a round per vertex pair, so a
    # budget checked only per part or component would not stop it
    store = GameStore(deadline=CountingDeadline(10))
    with pytest.raises(TimeBudgetError) as exc:
        snort_game(snort_path(3000), store)
    assert any(entry.name == "canonical_key" for entry in exc.traceback)


def test_deadline_stops_graph_enumeration_inside_a_level():
    # a level is built whole before its graphs are yielded, so the budget
    # is checked inside each key of the enumeration
    with pytest.raises(TimeBudgetError) as exc:
        list(graph_enumerate(7, CountingDeadline(200)))
    names = [entry.name for entry in exc.traceback]
    assert "graph_enumerate" in names and "canonical_key" in names


def test_deadline_stops_encoding_inside_one_part():
    # one part of k vertices costs about k*k/16 bytes of neighbour masks,
    # so the budget is checked every 1,024 vertices while it is encoded:
    # here the search checks 5 times and the mask build stops at 1,024
    store = GameStore(deadline=CountingDeadline(5))
    with pytest.raises(TimeBudgetError) as exc:
        snort_game(snort_path(5000), store)
    names = [entry.name for entry in exc.traceback]
    assert "encoded_parts" in names and "canonical_key" not in names


def test_disjoint_edges_sum_canonically():
    # each edge is ±1; summed raw, k of them build a game whose node count
    # is exponential in k, which the node budget stops early
    store = GameStore(max_nodes=50)
    board = SnortBoard(
        (Tint.FREE,) * 4000, frozenset((2 * i, 2 * i + 1) for i in range(2000))
    )
    assert snort_game(board, store) == store.zero


def test_positions_on_paths_decompose_into_decorated_paths(store, rng):
    # every follower of an empty path is a sum of paths whose interior
    # vertices are all free (tints appear only at the ends)
    frontier = [snort_path(6)]
    seen = 0
    while frontier and seen < 200:
        board = frontier.pop()
        seen += 1
        for comp in snort_components(board):
            order = _path_order(comp)
            assert order is not None, "component is not a path"
            for v in order[1:-1]:
                assert comp.tints[v] == Tint.FREE
        for left in (True, False):
            frontier.extend(snort_moves(board, left))


def _path_order(board):
    if board.n == 1:
        return [0]
    adj = {v: snort_neighbours(board, v) for v in range(board.n)}
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
    key = canonical_key(position(base))
    for _ in range(10):
        assert canonical_key(position(relabelled(base, rng))) == key


def relabelled(board, rng):
    perm = list(range(board.n))
    rng.shuffle(perm)
    tints = [None] * board.n
    for v, p in enumerate(perm):
        tints[p] = board.tints[v]
    edges = frozenset(
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in board.edges
    )
    return SnortBoard(tuple(tints), edges)


def test_canonical_key_distinguishes_tints():
    a = snort_path(3, "L")
    b = snort_path(3, "R")
    assert canonical_key(position(a)) != canonical_key(position(b))


def test_mask_key_and_oracle_key_induce_the_same_classes(rng):
    boards = []
    for board in tinted_graphs(rng, tintings=3):
        boards += [board, relabelled(board, rng)]
    new_of_old = {}
    old_of_new = {}
    for board in boards:
        old, new = snort_key(snort_live(board)), canonical_key(position(board))
        assert new_of_old.setdefault(old, new) == new
        assert old_of_new.setdefault(new, old) == old
    assert len(new_of_old) > len(boards) // 3


def test_canonical_key_is_exact_on_symmetric_graphs(rng):
    # each of these refines to at most two colour classes, so the key
    # rests on individualization; stars and complete graphs are all twins
    from itertools import combinations

    def graph(n, edges):
        return SnortBoard((Tint.FREE,) * n, frozenset(edges))

    def cycle(n):
        return graph(n, ((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)))

    triangles = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    boards = [
        snort_star(12),
        graph(9, combinations(range(9), 2)),
        cycle(12),
        cycle(6),
        graph(6, ((a, b) for a in range(3) for b in range(3, 6))),  # K_{3,3}
        graph(6, triangles | {(0, 3), (1, 4), (2, 5)}),  # the prism, also 3-regular
        graph(6, triangles | {(2, 3)}),
    ]
    keys = [canonical_key(position(b)) for b in boards]
    assert len(set(keys)) == len(keys)
    for b, key in zip(boards, keys):
        assert canonical_key(position(relabelled(b, rng))) == key


def test_canonical_key_individualizes_where_refinement_cannot_split(rng):
    # a hub joined to every vertex of some disjoint cycles: each rim vertex
    # has the hub and two rim vertices as neighbours, so colour refinement
    # leaves the whole rim one class, though the cycle lengths tell rim
    # vertices apart; only the search over every rim vertex is canonical
    def hub_and_cycles(*lengths):
        edges = set()
        start = 1
        for k in lengths:
            rim = range(start, start + k)
            edges |= {(0, v) for v in rim}
            edges |= {(min(v, w), max(v, w)) for v, w in zip(rim, [*rim[1:], rim[0]])}
            start += k
        return SnortBoard((Tint.FREE,) * start, frozenset(edges))

    rims = ((12,), (6, 6), (6, 3, 3), (3, 3, 3, 3), (4, 4, 4), (5, 4, 3))
    boards = [hub_and_cycles(*rim) for rim in rims]
    keys = [canonical_key(position(b)) for b in boards]
    assert len(set(keys)) == len(keys)
    for b, key in zip(boards, keys):
        for _ in range(4):
            assert canonical_key(position(relabelled(b, rng))) == key


def test_canonical_key_and_refined_key_induce_the_same_classes(monkeypatch):
    # every position the evaluator keys on a grid, on the decorated paths
    # and on the census graphs, and every grown child the census keys
    keyed = []

    def key(p, deadline=None):
        keyed.append(p)
        return canonical_key(p, deadline)

    monkeypatch.setattr(snort, "canonical_key", key)
    store = GameStore()
    snort_game(snort_grid(2, 5), store)
    for family in SNORT_PATH_REFERENCE:
        for n in range(1, 9):
            board = snort_path_board(family, n)
            if board is not None:
                snort_game(board, store)
    for board in graph_enumerate(6):
        snort_game(board, store)
    assert len(keyed) > 4608
    new_of_old = {}
    old_of_new = {}
    for p in keyed:
        old, new = refined_key(p), canonical_key(p)
        assert new_of_old.setdefault(old, new) == new
        assert old_of_new.setdefault(new, old) == old
    assert len(new_of_old) > 500


def graph_position(n, edges, perm=None, left=()):
    """The int position of a graph on vertices 0..n-1, its vertex v
    labelled perm[v]; `left` lists the vertices tinted LEFT."""
    perm = perm or range(n)
    adj = [0] * n
    for a, b in edges:
        adj[perm[a]] |= 1 << perm[b]
        adj[perm[b]] |= 1 << perm[a]
    return tuple(adj), (1 << n) - 1, sum(1 << perm[v] for v in left), 0


def cycle_edges(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


@pytest.mark.parametrize(
    "n, edges, left",
    [
        # the Q4 hypercube and the Petersen graph: vertex-transitive, so
        # refinement leaves one cell and only the search tells vertices apart
        (16, [(v, v | 1 << i) for v in range(16) for i in range(4) if not v >> i & 1], ()),
        (10, cycle_edges(5) + cycle_edges(5, 5) + [(i, 5 + (2 * i) % 5) for i in range(5)], ()),
        (40, cycle_edges(40), ()),
        # one LEFT end: refinement alone orders the path, one splitter at a time
        (1000, [(i, i + 1) for i in range(999)], (0,)),
    ],
    ids=["Q4", "Petersen", "C40", "P1000-LEFT-end"],
)
def test_canonical_key_survives_relabelling(rng, n, edges, left):
    key = canonical_key(graph_position(n, edges, left=left))
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(graph_position(n, edges, perm, left)) == key


def test_canonical_key_splits_graphs_that_refinement_leaves_in_one_cell():
    # each graph is regular, so refinement alone leaves a single cell
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    prism = cycle_edges(3) + cycle_edges(3, 3) + [(0, 3), (1, 4), (2, 5)]
    assert canonical_key(graph_position(6, k33)) != canonical_key(graph_position(6, prism))
    c12 = graph_position(12, cycle_edges(12))
    two_c6 = graph_position(12, cycle_edges(6) + cycle_edges(6, 6))
    assert canonical_key(c12) != canonical_key(two_c6)


def test_graph_enumeration_counts():
    boards = list(graph_enumerate(6))
    counts = {}
    for b in boards:
        counts[b.n] = counts.get(b.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    assert all(len(snort_components(b)) == 1 for b in boards)
    assert all(t == Tint.FREE for b in boards for t in b.tints)
    assert len({canonical_key(position(b)) for b in boards}) == len(boards)
    assert all(a.n <= b.n for a, b in zip(boards, boards[1:]))
    assert list(graph_enumerate(0)) == list(graph_enumerate(-1)) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_graph_enumeration_matches_edge_mask_oracle(n):
    grown = {snort_key(b) for b in graph_enumerate(n) if b.n == n}
    assert grown == {snort_key(b) for b in connected_graphs_by_edge_masks(n)}


def test_graph_enumeration_contains_stars():
    stars = [canonical_key(position(snort_star(n))) for n in range(1, 5)]
    found = {canonical_key(position(b)) for b in graph_enumerate(5)}
    assert all(k in found for k in stars)


def test_graph_enumeration_cap():
    with pytest.raises(CeilingExceededError):
        list(graph_enumerate(9))


def test_grid_board():
    b = snort_grid(2, 3)
    assert b.n == 6
    assert len(b.edges) == 7
    assert b.degree() == 3


def test_2xn_grids_past_the_published_table(store):
    # the published table stops at 2x7; an even 2xn grid is 0, because its
    # half turn gives the second player a mirror strategy
    assert snort_game(snort_grid(2, 8), store) == store.zero
    assert temperature(snort_game(snort_grid(2, 9), store)) == D(11, 2)
