"""Domineering boards: parsing, move generation, values, snakes.

Boards are plain cell sets on the integer lattice, normalized by
translation. Left places vertical dominoes, Right horizontal ones.
Values are memoized per connected component under translation and the
reflection group (reflections preserve values; a quarter turn negates
them, so rotations are deliberately left out of the memo key).
"""

from __future__ import annotations

from importlib import resources
from typing import Iterator

from .errors import ParseError
from .games import Game, GameStore

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

    def rotate90(self) -> "DomBoard":
        return DomBoard((y, -x) for x, y in self.cells)

    def reflect_h(self) -> "DomBoard":
        return DomBoard((-x, y) for x, y in self.cells)

    def reflect_v(self) -> "DomBoard":
        return DomBoard((x, -y) for x, y in self.cells)

    def has_2x2(self) -> bool:
        c = self.cells
        return any(
            (x + 1, y) in c and (x, y + 1) in c and (x + 1, y + 1) in c
            for x, y in c
        )


def grid(rows: int, cols: int) -> DomBoard:
    return DomBoard((x, y) for x in range(cols) for y in range(rows))


def dom_parse(text: str) -> DomBoard:
    return DomBoard.parse(text)


def dom_print(board: DomBoard) -> str:
    return board.format()


# ---------------------------------------------------------------------------
# evaluation


def _components(cells: frozenset[Cell]) -> list[frozenset[Cell]]:
    todo = set(cells)
    out = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            x, y = frontier.pop()
            for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if n in todo:
                    todo.remove(n)
                    comp.add(n)
                    frontier.append(n)
        out.append(frozenset(comp))
    return out


def _reflection_key(cells: frozenset[Cell]):
    variants = []
    for fx in (1, -1):
        for fy in (1, -1):
            v = [(fx * x, fy * y) for x, y in cells]
            dx = min(x for x, _ in v)
            dy = min(y for _, y in v)
            variants.append(tuple(sorted((x - dx, y - dy) for x, y in v)))
    return min(variants)


def dom_game(board: DomBoard, store: GameStore) -> Game:
    """Canonical game value of a Domineering position.

    Components are evaluated independently and summed; each component's
    canonical value is memoized under translation + reflection.
    """
    memo = store.cache("domineering")

    def value(cells: frozenset[Cell]) -> int:
        return store.add_all(
            [Game(store, component(c)) for c in _components(cells)]
        ).id

    def component(cells: frozenset[Cell]) -> int:
        key = _reflection_key(cells)
        got = memo.get(key)
        if got is not None:
            return got
        left = []
        right = []
        for x, y in cells:
            if (x, y + 1) in cells:
                left.append(value(cells - {(x, y), (x, y + 1)}))
            if (x + 1, y) in cells:
                right.append(value(cells - {(x, y), (x + 1, y)}))
        res = store._canonical(store._node(left, right))
        memo[key] = res
        return res

    return Game(store, store._canonical(value(board.cells)))


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
            key = _reflection_key(board.cells)
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
