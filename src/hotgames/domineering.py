"""Domineering boards: parsing, move generation, values, snakes.

Boards are plain cell sets on the integer lattice, normalized by
translation. Left places vertical dominoes, Right horizontal ones.

The evaluator works on bitboards: a board becomes one int with a bit per
cell and an always-empty guard column, so move generation is a shift and
a mask. A mask within the first two rows splits into components by
column spans, and a taller one by bit flood fill. Values are memoized per
connected component under a row-mask key that is invariant under
translation and the reflection group (reflections preserve values; a
quarter turn negates them, so rotations are deliberately left out of the
memo key).
"""

from __future__ import annotations

from importlib import resources
from typing import Iterator

from .errors import ParseError
from .games import Game, GameStore, evaluate

Cell = tuple[int, int]


class DomBoard:
    """A set of lattice cells, translated so min x = min y = 0."""

    __slots__ = ("cells",)

    def __init__(self, cells) -> None:
        cells = frozenset(cells)
        if cells:
            dx = min(x for x, _ in cells)
            dy = min(y for _, y in cells)
            if dx or dy:
                cells = frozenset((x - dx, y - dy) for x, y in cells)
        self.cells = cells

    def __eq__(self, other):
        return isinstance(other, DomBoard) and other.cells == self.cells

    def __hash__(self):
        return hash(self.cells)

    def __len__(self):
        return len(self.cells)

    def __repr__(self):
        return f"DomBoard({sorted(self.cells)})"

    @classmethod
    def parse(cls, text: str) -> "DomBoard":
        """'#' is a cell, '.' is empty; one row per line, top row first."""
        rows = [line for line in text.splitlines() if line.strip()]
        cells = set()
        for y, row in enumerate(rows):
            for x, ch in enumerate(row):
                if ch == "#":
                    cells.add((x, y))
                elif ch not in "._ ":
                    raise ParseError(f"illegal board character {ch!r}")
        if not cells:
            raise ParseError("empty board")
        return cls(cells)

    def format(self) -> str:
        if not self.cells:
            return ""
        w = max(x for x, _ in self.cells) + 1
        h = max(y for _, y in self.cells) + 1
        return "\n".join(
            "".join("#" if (x, y) in self.cells else "." for x in range(w))
            for y in range(h)
        )

    # -- geometry ----------------------------------------------------------

    def width(self) -> int:
        return max(x for x, _ in self.cells) + 1 if self.cells else 0

    def height(self) -> int:
        return max(y for _, y in self.cells) + 1 if self.cells else 0

    def has_2x2(self) -> bool:
        c = self.cells
        return any(
            (x + 1, y) in c and (x, y + 1) in c and (x + 1, y + 1) in c
            for x, y in c
        )


def grid(rows: int, cols: int) -> DomBoard:
    return DomBoard((x, y) for x in range(cols) for y in range(rows))


# ---------------------------------------------------------------------------
# evaluation


def _board_mask(board: DomBoard) -> tuple[int, int]:
    """The board as one int with bit y*stride + x set per cell, and its
    stride, width + 1. The spare column is always empty, so a shift by
    one never carries a cell from the end of one row onto the next."""
    stride = board.width() + 1
    return sum(1 << (y * stride + x) for x, y in board.cells), stride


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _components(mask: int, stride: int) -> list[int]:
    """The connected parts of a mask, in the order of their lowest set bits.

    A mask within the first two rows splits by column spans: the two cells
    of a column touch, and every path between two columns crosses each
    column in between, so a part is a maximal run of occupied columns in
    which each column shares an occupied row with the next. A taller mask
    grows each part from its lowest set bit by flood fill.
    """
    if mask >> 2 * stride:
        parts = []
        while mask:
            comp = mask & -mask
            while True:
                grown = (
                    comp | comp << 1 | comp >> 1 | comp << stride | comp >> stride
                ) & mask
                if grown == comp:
                    break
                comp = grown
            parts.append(comp)
            mask ^= comp
        return parts
    top = mask & ((1 << stride) - 1)
    bottom = mask >> stride
    # bit c: column c shares an occupied row with column c + 1
    links = top & top >> 1 | bottom & bottom >> 1
    upper, lower = [], []
    cols = top | bottom
    while cols:
        low = cols & -cols
        # the carry runs through the linked columns from `low` on and
        # stops one past the last of them
        span = (links + low) ^ links
        top_part = top & span
        if top_part:
            upper.append(top_part | (bottom & span) << stride)
        else:
            lower.append((bottom & span) << stride)
        cols ^= span
    return upper + lower


def _reflection_key(mask: int, stride: int) -> tuple[int, ...]:
    """Least of the row tuples of the mask, its two reflections and its
    half turn, with the empty rows and columns shifted away: equal for
    boards equal up to translation and those symmetries, whatever the
    stride."""
    full = (1 << stride) - 1
    mask >>= ((mask & -mask).bit_length() - 1) // stride * stride
    rows = []
    cols = 0
    while mask:
        row = mask & full
        rows.append(row)
        cols |= row
        mask >>= stride
    low = (cols & -cols).bit_length() - 1
    top = cols.bit_length()
    # reversed below the highest used column, the mirror starts at column 0
    mirrored = tuple(
        [int(bin(row)[:1:-1], 2) << (top - row.bit_length()) for row in rows]
    )
    rows = tuple([row >> low for row in rows])
    return min(rows, rows[::-1], mirrored, mirrored[::-1])


def _moves(mask: int, stride: int) -> tuple[list[int], list[int]]:
    """Left's vertical and Right's horizontal domino placements."""
    left = [mask ^ (b | b << stride) for b in _bits(mask & mask >> stride)]
    right = [mask ^ (b | b << 1) for b in _bits(mask & mask >> 1)]
    return left, right


def dom_game(board: DomBoard, store: GameStore) -> Game:
    """Canonical game value of a Domineering position.

    Components are evaluated independently and summed; each component's
    canonical value is memoized under translation + reflection.
    """
    mask, stride = _board_mask(board)
    return evaluate(
        store,
        _components(mask, stride),
        "domineering",
        lambda m: _components(m, stride),
        lambda m: _reflection_key(m, stride),
        lambda m: _moves(m, stride),
    )


# ---------------------------------------------------------------------------
# snakes


def is_snake(board: DomBoard) -> bool:
    """A snake: a path polyomino, no 2x2 block, buildable by attaching
    each new cell at the top, right or bottom of the previous one."""
    return snake_moves(board) is not None


def snake_moves(board: DomBoard) -> list[str] | None:
    """Attachment sequence over {'U','R','D'} from one end, or None."""
    cells = board.cells
    if not cells:
        return None
    if len(cells) == 1:
        return []
    if board.has_2x2():
        return None
    deg = {}
    for x, y in cells:
        deg[(x, y)] = sum(
            1
            for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if n in cells
        )
    ends = sorted(c for c, d in deg.items() if d == 1)
    if len(ends) != 2 or any(d > 2 for d in deg.values()):
        return None
    for start in ends:
        moves = _walk(cells, start)
        if moves is not None:
            return moves
    return None


def _walk(cells: frozenset[Cell], start: Cell) -> list[str] | None:
    seen = {start}
    cur = start
    moves: list[str] = []
    while len(seen) < len(cells):
        x, y = cur
        step = None
        for n, mv in (
            ((x + 1, y), "R"),
            ((x, y + 1), "U"),
            ((x, y - 1), "D"),
            ((x - 1, y), "L"),
        ):
            if n in cells and n not in seen:
                step = (n, mv)
                break
        if step is None or step[1] == "L":
            return None
        cur = step[0]
        seen.add(cur)
        moves.append(step[1])
    return moves


def fold(board: DomBoard) -> DomBoard | None:
    """Fold a snake into a 2-row zigzag by alternating its vertical steps.

    Returns None when the snake cannot fit a 2xN grid: a vertical run of
    two or more cells, or a fold that would create a 2x2 block (which
    would change the game).
    """
    moves = snake_moves(board)
    if moves is None:
        return None
    for a, b in zip(moves, moves[1:]):
        if a in "UD" and b in "UD":
            return None  # vertical run spanning 3+ rows
    cur = (0, 0)
    cells = {cur}
    direction = 1
    for mv in moves:
        if mv == "R":
            cur = (cur[0] + 1, cur[1])
        else:
            cur = (cur[0], cur[1] + direction)
            direction = -direction
        cells.add(cur)
    folded = DomBoard(cells)
    if folded.has_2x2():
        return None
    return folded


def snake_enumerate(max_width: int) -> Iterator[DomBoard]:
    """All snakes fitting a 2 x max_width grid, up to translation and
    reflection. Column switch positions must not be adjacent (that would
    form a 2x2 block), so each board is a row zigzag."""
    if max_width < 1:
        return
    seen = set()
    for m in range(1, max_width + 1):
        for mask in range(1 << m):
            if mask & (mask << 1):
                continue
            cells = set()
            row = 0
            for col in range(m):
                cells.add((col, row))
                if mask >> col & 1:
                    row ^= 1
                    cells.add((col, row))
            board = DomBoard(cells)
            key = _reflection_key(*_board_mask(board))
            if key not in seen:
                seen.add(key)
                yield board


# ---------------------------------------------------------------------------
# the Drummond-Cole position (transcribed board data)


def drummond_cole_board() -> DomBoard:
    """The 14-cell position found by Drummond-Cole (2004), the known
    temperature-2 Domineering position."""
    text = (
        resources.files("hotgames")
        .joinpath("data/drummond_cole.txt")
        .read_text(encoding="utf-8")
    )
    return DomBoard.parse(text)
