import random
from collections import Counter

import pytest

from hotgames import (
    DomBoard,
    Dyadic,
    Outcome,
    ParseError,
    dom_game,
    drummond_cole_board,
    fold,
    grid,
    is_snake,
    snake_enumerate,
    temperature,
)
from hotgames.domineering import (
    _board_mask,
    _components,
    _moves,
    _reflection_key,
    snake_moves,
)
from oracle import (
    dom_components,
    dom_moves,
    dom_reflection_key,
    reflect_h,
    reflect_v,
    rotate90,
)

D = Dyadic


# -- parsing / printing -------------------------------------------------------


def test_parse_examples():
    assert len(DomBoard.parse("##\n##").cells) == 4
    assert len(DomBoard.parse("#").cells) == 1
    assert DomBoard.parse("#.\n##").cells == frozenset({(0, 0), (0, 1), (1, 1)})


def test_parse_errors():
    with pytest.raises(ParseError):
        DomBoard.parse("...\n...")
    with pytest.raises(ParseError):
        DomBoard.parse("#x#")


def test_blank_lines_are_empty_rows(store):
    # two horizontal dominoes two rows apart, not a 2x2 block ({1|-1})
    for text in ("##\n..\n##", "##\n  \n##", "##\n\n##"):
        board = DomBoard.parse(text)
        assert board.height() == 3
        assert dom_game(board, store) == store.number(-2)


def test_print_round_trip():
    for text in ("##\n##", "#.\n##", "#####", "#\n#\n#"):
        board = DomBoard.parse(text)
        assert DomBoard.parse(board.format()) == board


def test_translation_normalized():
    a = DomBoard({(5, 7), (6, 7)})
    b = DomBoard({(0, 0), (1, 0)})
    assert a == b


# -- evaluation ---------------------------------------------------------------


def test_single_cell_is_zero(store):
    assert dom_game(DomBoard.parse("#"), store) == store.zero


def test_vertical_domino_space_is_one(store):
    assert dom_game(DomBoard.parse("#\n#"), store) == store.number(1)


def test_2x2_grid_first_player_wins(store):
    g = dom_game(grid(2, 2), store)
    assert g.outcome() == Outcome.N
    assert g.eq(store.plus_minus(store.number(1)))


def test_l_board_right_wins(store):
    # bottom row of three cells plus one cell atop the left end
    board = DomBoard.parse("#..\n###")
    g = dom_game(board, store)
    assert g.outcome() == Outcome.R
    assert g.eq(store.number(D(-1, 1)))


def test_tall_l_board_left_wins(store):
    # the 90-degree rotation: column of three plus a top-right cell
    g = dom_game(DomBoard.parse("##\n#.\n#."), store)
    assert g.outcome() == Outcome.L


def test_rotation_negates(store, rng):
    boards = [grid(2, 3), DomBoard.parse("#..\n###"), DomBoard.parse("##.\n.##")]
    for b in boards:
        assert dom_game(rotate90(b), store).eq(-dom_game(b, store))


def test_reflection_preserves(store):
    for b in (grid(2, 3), DomBoard.parse("#..\n###")):
        assert dom_game(reflect_h(b), store) == dom_game(b, store)
        assert dom_game(reflect_v(b), store) == dom_game(b, store)


def test_component_split_soundness(store, rng):
    # value of a disconnected board equals the sum of component values,
    # checked against the outcome oracle on a joined difference
    far_apart = DomBoard(
        {(0, 0), (0, 1), (1, 0)} | {(10, 0), (11, 0), (11, 1), (12, 0)}
    )
    left = DomBoard({(0, 0), (0, 1), (1, 0)})
    right = DomBoard({(0, 0), (1, 0), (1, 1), (2, 0)})
    whole = dom_game(far_apart, store)
    parts = dom_game(left, store) + dom_game(right, store)
    assert (whole - parts).outcome() == Outcome.P


def test_guard_column_keeps_rows_apart(store):
    # without the spare column, cells (3,0) and (0,1) would sit on adjacent
    # bits and Right could play a domino across them
    assert dom_game(DomBoard.parse("..##\n##.."), store) == store.number(-2)
    # here that crossing would be Right's only move, turning 0 into -1
    assert dom_game(DomBoard.parse("..#\n#.."), store) == store.zero


def _polyominoes(max_cells):
    """Every polyomino of up to max_cells cells, up to translation."""
    level = {DomBoard({(0, 0)})}
    out = set(level)
    for _ in range(max_cells - 1):
        level = {
            DomBoard(b.cells | {n})
            for b in level
            for x, y in b.cells
            for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if n not in b.cells
        }
        out |= level
    return out


def _decode(mask, stride, dx, dy):
    return frozenset(
        (b % stride - dx, b // stride - dy)
        for b in range(mask.bit_length())
        if mask >> b & 1
    )


def test_bitboard_hooks_match_cell_oracle():
    boards = _polyominoes(7)
    assert len(boards) == 1 + 2 + 6 + 19 + 63 + 216 + 760
    pairs = set()
    for board in boards:
        cells = board.cells
        mask, stride = _board_mask(board)
        assert _decode(mask, stride, 0, 0) == cells
        keys = set()
        # at the origin as dom_game encodes it, and shifted in a wider frame
        for dx, dy, stride in ((0, 0, stride), (2, 1, stride + 3)):
            mask = sum(1 << ((y + dy) * stride + x + dx) for x, y in cells)
            left, right = _moves(mask, stride)
            for got, want in zip((left, right), dom_moves(cells)):
                assert Counter(_decode(m, stride, dx, dy) for m in got) == Counter(want)
            for part in [mask] + left + right:
                got = {_decode(c, stride, dx, dy) for c in _components(part, stride)}
                assert got == set(dom_components(_decode(part, stride, dx, dy)))
            keys.add(_reflection_key(mask, stride))
        assert len(keys) == 1
        pairs.add((keys.pop(), dom_reflection_key(cells)))
    # the two keys induce the same classes: each determines the other
    assert len({k for k, _ in pairs}) == len({o for _, o in pairs}) == len(pairs)


def _two_row_masks():
    """(mask, stride) for every mask of the first two rows of widths 1..7,
    then seeded random ones up to width 30; stride is width + 1."""
    rng = random.Random(27)
    cases = [(w, bits) for w in range(1, 8) for bits in range(1 << 2 * w)]
    cases += [(w, rng.getrandbits(2 * w)) for w in rng.choices(range(8, 31), k=3000)]
    for w, bits in cases:
        yield bits & ((1 << w) - 1) | bits >> w << w + 1, w + 1


def test_two_row_split_matches_cell_oracle():
    # the column-span split: the oracle's parts, in ascending order of
    # lowest set bit (the flood fill's order, which fixes node ids)
    for mask, stride in _two_row_masks():
        parts = _components(mask, stride)
        lows = [p & -p for p in parts]
        assert lows == sorted(lows)
        got = Counter(_decode(p, stride, 0, 0) for p in parts)
        assert got == Counter(dom_components(_decode(mask, stride, 0, 0)))


def test_2xn_temperatures_small(store):
    want = {1: D(-1), 2: D(1), 3: D(5, 2), 4: D(0), 5: D(-1, 1)}
    for n, t in want.items():
        assert temperature(dom_game(grid(2, n), store)) == t


def test_2x5_is_exactly_one_half(store):
    # the published small-n table prints 0 here, but the position is the
    # pure number 1/2, whose temperature is -1/2 by the cooling definition
    g = dom_game(grid(2, 5), store)
    assert g.canonical() == store.number(D(1, 1))
    assert (g - store.number(D(1, 1))).outcome() == Outcome.P


# -- snakes -------------------------------------------------------------------


def test_snake_enumerate_no_2x2():
    for board in snake_enumerate(6):
        assert not board.has_2x2()
        assert is_snake(board)
        assert board.height() <= 2


def test_snake_count_2x2_matches_hand_enumeration():
    # single cell, vertical domino, horizontal domino, L-tromino
    assert len(list(snake_enumerate(2))) == 4


def test_snake_enumerate_matches_inductive_oracle():
    """Brute-force oracle: grow snakes cell by cell (attach top/right/
    bottom, never forming 2x2), fold each, keep those fitting two rows."""

    def extensions(path):
        x, y = path[-1]
        for nxt in ((x, y + 1), (x + 1, y), (x, y - 1)):
            if nxt in path:
                continue
            cells = set(path) | {nxt}
            if DomBoard(cells).has_2x2():
                continue
            yield path + [nxt]

    max_cells = 7
    frontier = [[(0, 0)]]
    folded_keys = set()
    while frontier:
        path = frontier.pop()
        board = DomBoard(path)
        f = fold(board)
        if f is not None and f.width() <= 5:
            folded_keys.add(dom_reflection_key(f.cells))
        if len(path) < max_cells:
            frontier.extend(extensions(path))

    enumerated = {
        dom_reflection_key(b.cells)
        for b in snake_enumerate(5)
        if len(b.cells) <= max_cells
    }
    assert enumerated == folded_keys


def test_fold_figure_pair_is_same_game(store):
    # climbing staircase snake vs its two-row folding
    stair = DomBoard(
        [(-2, -2), (-2, -1), (-1, -1), (0, -1), (0, 0), (1, 0), (2, 0), (3, 0), (3, 1)]
    )
    folded = fold(stair)
    assert folded == DomBoard(
        [(0, 0), (0, 1), (1, 1), (2, 1), (2, 0), (3, 0), (4, 0), (5, 0), (5, 1)]
    )
    assert dom_game(stair, store).eq(dom_game(folded, store))


def test_fold_rejects_2x2_creating_snake():
    # folding this one would create a 2x2 block, changing the game
    snake = DomBoard([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 2), (4, 2), (4, 3)])
    assert is_snake(snake)
    assert fold(snake) is None


def test_fold_rejects_tall_vertical_runs():
    snake = DomBoard([(0, 0), (0, 1), (0, 2), (1, 2)])
    assert is_snake(snake)
    assert fold(snake) is None


def test_snake_moves_split_into_smaller_snakes(store):
    for board in snake_enumerate(6):
        for pair_dir in ("left", "right"):
            cells = board.cells
            pairs = (
                [((x, y), (x, y + 1)) for x, y in cells if (x, y + 1) in cells]
                if pair_dir == "left"
                else [((x, y), (x + 1, y)) for x, y in cells if (x + 1, y) in cells]
            )
            for a, b in pairs:
                rest = cells - {a, b}
                comps = dom_components(rest)
                assert len(comps) <= 2
                for comp in comps:
                    assert is_snake(DomBoard(comp))


def test_is_snake_matches_the_definition():
    """Grow every snake of up to 12 cells by attaching each new cell at
    the top, right or bottom of the previous one, keeping the paths whose
    cells are distinct, touch only when consecutive and form no 2x2
    block. `is_snake` must accept exactly those cell sets in small boxes,
    and `snake_moves` must replay each one."""
    max_cells = 12
    snakes = set()
    frontier = [((0, 0),)]
    while frontier:
        path = frontier.pop()
        snakes.add(DomBoard(path))
        if len(path) == max_cells:
            continue
        x, y = path[-1]
        for nx, ny in ((x, y + 1), (x + 1, y), (x, y - 1)):
            touching = {(nx + 1, ny), (nx - 1, ny), (nx, ny + 1), (nx, ny - 1)}
            if (nx, ny) in path or len(touching.intersection(path)) > 1:
                continue
            cells = set(path) | {(nx, ny)}
            if any(
                {(ax, ay), (ax + 1, ay), (ax, ay + 1), (ax + 1, ay + 1)} <= cells
                for ax in (nx - 1, nx)
                for ay in (ny - 1, ny)
            ):
                continue
            frontier.append(path + ((nx, ny),))
    assert len(snakes) == 15357

    for w, h in ((4, 3), (3, 4), (6, 2), (2, 6)):
        box = [(x, y) for y in range(h) for x in range(w)]
        for mask in range(1, 1 << len(box)):
            board = DomBoard(c for i, c in enumerate(box) if mask >> i & 1)
            assert is_snake(board) == (board in snakes), board

    steps = {"U": (0, 1), "R": (1, 0), "D": (0, -1)}
    for board in snakes:
        cur = (0, 0)
        replayed = [cur]
        for mv in snake_moves(board):
            dx, dy = steps[mv]
            cur = (cur[0] + dx, cur[1] + dy)
            replayed.append(cur)
        assert len(set(replayed)) == len(board)
        assert DomBoard(replayed) == board


def test_non_snakes_rejected():
    assert not is_snake(DomBoard.parse("##\n##"))  # 2x2 block
    assert not is_snake(DomBoard.parse("###\n.#."))  # branching
    assert not is_snake(DomBoard([(0, 0), (1, 0), (1, 1), (1, 2), (0, 2)]))  # turns back


# -- the Drummond-Cole position ----------------------------------------------


def test_drummond_cole_board_shape():
    board = drummond_cole_board()
    assert len(board.cells) == 14
    assert board.width() == 5 and board.height() == 5


def test_drummond_cole_temperature(store):
    g = dom_game(drummond_cole_board(), store)
    assert temperature(g) == 2
