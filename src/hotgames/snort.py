"""Snort boards: tinted graphs, move generation, values, board families.

Placed pieces are represented by deletion plus tints, the standard
reduction: playing a vertex removes it, marks untinted neighbours as
playable only by the mover, and removes neighbours tinted for the
opponent (nobody may ever play them again). A vertex tinted LEFT is
therefore "adjacent to a Left piece", and a path with a Left piece on
its end is encoded as the shorter path whose new end carries a LEFT
tint.

`SnortBoard` is the public board type. The evaluator splits a board into
connected parts and encodes each as an int position `(adj, alive, left,
right)`: `adj[v]` is the neighbour mask of vertex v, and the other three
are masks of the vertices still on the board and of those tinted LEFT
and RIGHT. A move only clears and sets bits, so every follower of a part
shares its `adj` tuple.

An edge is live unless its two ends carry the same tint. An edge between
two LEFT vertices never takes part in a move: Right may play neither
end, and Left playing one end leaves the other alive and LEFT. Tints
never revert, so a dead edge stays dead, and the same holds for two
RIGHT vertices. A position's value therefore depends only on its live
tinted graph, and the evaluator splits and keys positions by live edges
alone. `_moves` still reads every edge: a dead edge there tints and
removes nothing, and every follower keeps sharing the part's `adj`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .budget import Deadline
from .errors import CeilingExceededError, ParseError
from .games import Game, GameStore, evaluate

# (adj, alive, left, right): neighbour masks, then vertex masks
Position = tuple[tuple[int, ...], int, int, int]


class Tint(Enum):
    FREE = "."
    LEFT = "L"
    RIGHT = "R"


@dataclass(frozen=True)
class SnortBoard:
    """Vertices 0..n-1 with tints and an undirected edge set (u < v)."""

    tints: tuple[Tint, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = len(self.tints)
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u},{v}) on {n} vertices")

    @property
    def n(self) -> int:
        return len(self.tints)

    def degree(self) -> int:
        counts = [0] * self.n
        for a, b in self.edges:
            counts[a] += 1
            counts[b] += 1
        return max(counts, default=0)

    def swap_colours(self) -> "SnortBoard":
        flip = {Tint.FREE: Tint.FREE, Tint.LEFT: Tint.RIGHT, Tint.RIGHT: Tint.LEFT}
        return SnortBoard(tuple(flip[t] for t in self.tints), self.edges)

    # -- text format ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "SnortBoard":
        """Line 1: vertex count. Then "u v" edge lines (0-based), and
        optional "L: i j ..." / "R: i j ..." tint lines; a vertex may not
        be listed under both."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty snort board text")
        # ASCII digits only: int() alone also takes "+2", "1_0" and "٣"
        if not (lines[0].isascii() and lines[0].isdigit()):
            raise ParseError(f"expected a vertex count, got {lines[0]!r}")
        n = int(lines[0])
        tints = [Tint.FREE] * n
        edges = set()
        for ln in lines[1:]:
            if ln.startswith(("L:", "R:")):
                tint = Tint.LEFT if ln[0] == "L" else Tint.RIGHT
                for tok in ln[2:].split():
                    v = _vertex(tok, n)
                    if tints[v] not in (Tint.FREE, tint):
                        raise ParseError(f"vertex {v} is tinted both L and R")
                    tints[v] = tint
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise ParseError(f"malformed edge line {ln!r}")
            u, v = _vertex(parts[0], n), _vertex(parts[1], n)
            if u == v:
                raise ParseError(f"self-loop on vertex {u}")
            edges.add((min(u, v), max(u, v)))
        return cls(tuple(tints), frozenset(edges))

    def format(self) -> str:
        lines = [str(self.n)]
        lines += [f"{a} {b}" for a, b in sorted(self.edges)]
        for tint, tag in ((Tint.LEFT, "L"), (Tint.RIGHT, "R")):
            vs = [str(v) for v in range(self.n) if self.tints[v] == tint]
            if vs:
                lines.append(f"{tag}: " + " ".join(vs))
        return "\n".join(lines)


def _vertex(tok: str, n: int) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"bad vertex {tok!r}")
    v = int(tok)
    if not v < n:
        raise ParseError(f"vertex {v} out of range 0..{n - 1}")
    return v


# ---------------------------------------------------------------------------
# board families


def snort_path(k: int, left_end: str | None = None, right_end: str | None = None) -> SnortBoard:
    """Path with k free vertices; optional end decorations "L"/"R" model a
    piece adjacent to that end (dead end vertices are dropped outright)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    tints = [Tint.FREE] * k
    dead = set()
    for pos, dec in ((0, left_end), (k - 1, right_end)):
        if dec is None or k == 0:
            continue
        tint = {"L": Tint.LEFT, "R": Tint.RIGHT}[dec]
        if tints[pos] in (Tint.FREE, tint):
            tints[pos] = tint
        else:
            dead.add(pos)  # adjacent to both colours: playable by nobody
    keep = [v for v in range(k) if v not in dead]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = frozenset(
        (relabel[v], relabel[v + 1])
        for v in range(k - 1)
        if v in relabel and v + 1 in relabel
    )
    return SnortBoard(tuple(tints[v] for v in keep), edges)


def snort_star(n: int) -> SnortBoard:
    """K_{1,n}: a centre adjacent to n leaves, untinted."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return SnortBoard(
        tuple([Tint.FREE] * (n + 1)), frozenset((0, leaf) for leaf in range(1, n + 1))
    )


def snort_grid(rows: int, cols: int) -> SnortBoard:
    edges = set()
    idx = lambda r, c: r * cols + c
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.add((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.add((idx(r, c), idx(r + 1, c)))
    return SnortBoard(tuple([Tint.FREE] * (rows * cols)), frozenset(edges))


# ---------------------------------------------------------------------------
# int positions


def encoded_parts(
    board: SnortBoard, deadline: Deadline = Deadline()
) -> Iterator[Position]:
    """The board's connected parts as int positions, built one at a time.

    Adjacency lists are built in one pass over the edges. Each part's
    vertices get local labels 0..k-1 in increasing board order, so its
    masks take about k*k/16 bytes and the encoding stays linear in a
    board whose parts are small. The deadline is checked at the start of
    each part and then once every 1,024 vertices of its search and of its
    mask build, so one large part is not paid for before the first check."""
    nbrs: list[list[int]] = [[] for _ in range(board.n)]
    for a, b in board.edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen = bytearray(board.n)
    for seed in range(board.n):
        if seen[seed]:
            continue
        seen[seed] = 1
        part = [seed]
        # part grows while it is read: a breadth-first search
        for i, v in enumerate(part):
            if not i & 1023:
                deadline.check()
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = 1
                    part.append(w)
        part.sort()
        label = {v: i for i, v in enumerate(part)}
        adj = []
        left = right = 0
        for i, v in enumerate(part):
            if i and not i & 1023:
                deadline.check()
            adj.append(sum([1 << label[w] for w in nbrs[v]]))
            if board.tints[v] is Tint.LEFT:
                left |= 1 << i
            elif board.tints[v] is Tint.RIGHT:
                right |= 1 << i
        yield tuple(adj), (1 << len(part)) - 1, left, right


def _components(position: Position) -> Iterator[Position]:
    """The parts of a position connected by live edges, each grown from
    its lowest vertex: a LEFT vertex does not step to a LEFT neighbour,
    nor a RIGHT vertex to a RIGHT one."""
    adj, alive, left, right = position
    todo = alive
    while todo:
        comp = frontier = todo & -todo
        todo ^= comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & todo
            if low & left:
                new &= ~left
            elif low & right:
                new &= ~right
            todo ^= new
            comp |= new
            frontier |= new
        yield adj, comp, left & comp, right & comp


def _moves(position: Position) -> tuple[list[Position], list[Position]]:
    """Left's and Right's options. Playing v removes v and its neighbours
    tinted for the opponent, and tints its free neighbours for the mover."""
    adj, alive, left, right = position
    free = alive & ~(left | right)
    lefts = []
    rights = []
    todo = alive
    while todo:
        low = todo & -todo
        todo ^= low
        nb = adj[low.bit_length() - 1]
        if not right & low:
            own = (left & ~low) | (nb & free)
            lefts.append((adj, alive & ~(low | nb & right), own, right & ~nb))
        if not left & low:
            own = (right & ~low) | (nb & free)
            rights.append((adj, alive & ~(low | nb & left), left & ~nb, own))
    return lefts, rights


# ---------------------------------------------------------------------------
# canonical labelling (for memo keys)


def canonical_key(position: Position, deadline: Deadline = Deadline()) -> tuple:
    """Isomorphism key of a position: equal exactly for positions whose
    live tinted graphs (same-tint edges dropped) are isomorphic, for every
    graph.

    Individualization-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60, 2014) on int masks. A
    colouring is an ordered list of disjoint vertex masks (cells). It
    starts from the tints, free before LEFT before RIGHT, and `_refine`
    makes it equitable. While a cell has several vertices, each vertex
    of the first smallest such cell in turn is put in a cell of its own
    in front of the rest, the cells are refined again from that vertex,
    and the search goes on from there. Every branch ends in cells of one
    vertex each, an ordering, and the key is the tint counts and the
    least encoding of the graph in such an ordering: each vertex's live
    neighbour mask, relabelled. A vertex with the same neighbours as one
    already tried in its cell (apart from each other) is skipped, since
    swapping the two is an automorphism and gives the same encodings."""
    adj, alive, left, right = position
    left &= alive
    right &= alive
    # each vertex's live neighbours, keyed by the vertex's own bit
    rows = {}
    todo = alive
    while todo:
        low = todo & -todo
        todo ^= low
        row = adj[low.bit_length() - 1] & alive
        if low & left:
            row &= ~left
        elif low & right:
            row &= ~right
        rows[low] = row
    cells = [c for c in (alive & ~(left | right), left, right) if c]
    _refine(cells, cells[:], rows, deadline)
    best = None
    # the search stack: (cells, index of the target cell, vertices to try)
    frames = []
    while True:
        target = None
        size = len(rows) + 1
        for i, cell in enumerate(cells):
            if cell & (cell - 1) and cell.bit_count() < size:
                target, size = i, cell.bit_count()
        if target is None:
            label = {cell: 1 << i for i, cell in enumerate(cells)}
            enc = []
            for cell in cells:
                todo = rows[cell]
                row = 0
                while todo:
                    low = todo & -todo
                    todo ^= low
                    row |= label[low]
                enc.append(row)
            enc = tuple(enc)
            if best is None or enc < best:
                best = enc
        else:
            tried = []
            todo = cells[target]
            while todo:
                v = todo & -todo
                todo ^= v
                row = rows[v]
                if all(rows[u] & ~v != row & ~u for u in tried):
                    tried.append(v)
            frames.append((cells, target, tried))
        while frames and not frames[-1][2]:
            frames.pop()
        if not frames:
            return left.bit_count(), right.bit_count(), best
        cells, target, tried = frames[-1]
        v = tried.pop()
        cells = [*cells[:target], v, cells[target] ^ v, *cells[target + 1 :]]
        _refine(cells, [v], rows, deadline)


def _refine(
    cells: list[int], stack: list[int], rows: dict[int, int], deadline: Deadline
) -> None:
    """Refine the cells in place until, for every two cells C and S, the
    vertices of C all have the same number of neighbours in S. Each
    splitter S popped from the stack splits every cell that S's vertices
    touch by that number; the parts replace the cell in increasing order
    of it, and each is pushed. The result is equitable as long as the
    stack starts with every cell whose counts may differ. The deadline is
    checked once per splitter."""
    n = len(rows)
    while stack and len(cells) < n:
        deadline.check()
        s = stack.pop()
        touched = 0
        todo = s
        while todo:
            low = todo & -todo
            todo ^= low
            touched |= rows[low]
        for i in range(len(cells) - 1, -1, -1):
            cell = cells[i]
            hit = cell & touched
            if not hit or not cell & (cell - 1):
                continue
            parts = {0: cell ^ hit} if hit != cell else {}
            while hit:
                low = hit & -hit
                hit ^= low
                count = (rows[low] & s).bit_count()
                parts[count] = parts.get(count, 0) | low
            if len(parts) > 1:
                split = [parts[count] for count in sorted(parts)]
                cells[i : i + 1] = split
                stack += split


# ---------------------------------------------------------------------------
# evaluation


def snort_game(board: SnortBoard, store: GameStore) -> Game:
    """Canonical game value of a Snort position. The board is split into
    connected parts, each encoded as int masks; components, split by live
    edges (the board's first parts too), are evaluated independently,
    memoized in canonical form under `canonical_key`, and summed."""
    deadline = store.deadline
    return evaluate(
        store,
        (c for p in encoded_parts(board, deadline) for c in _components(p)),
        "snort",
        _components,
        lambda p: canonical_key(p, deadline),
        _moves,
    )


# ---------------------------------------------------------------------------
# graph enumeration (degree-conjecture scans)


# each vertex multiplies the census by 8 to 13 (112, 853, 11,117 graphs on
# 6, 7, 8 vertices), and `scan graphs` on 8 vertices takes 20-23 s at a
# peak of 103 MiB on a 2-core VM
GRAPH_VERTEX_CAP = 8


def graph_enumerate(
    max_vertices: int, deadline: Deadline = Deadline()
) -> Iterator[SnortBoard]:
    """All connected untinted graphs with 1..max_vertices vertices, up to
    isomorphism and in ascending vertex count, for max_vertices <=
    GRAPH_VERTEX_CAP.

    Each class on n vertices is extended by a new vertex n joined to every
    nonempty subset of 0..n-1, and the first graph seen for each
    `canonical_key` is kept. That reaches every class on n + 1 vertices: a
    leaf of a spanning tree of a connected graph leaves it connected when
    removed, so every connected graph on n + 1 vertices is a connected
    graph on n vertices plus one vertex with at least one neighbour. The
    key is exact, so is the dedupe. Graphs are grown as neighbour masks,
    and a board is built only for each class kept. The deadline is checked
    inside every key, so a budget stops a level before it is complete."""
    if max_vertices > GRAPH_VERTEX_CAP:
        raise CeilingExceededError(
            f"graph enumeration capped at {GRAPH_VERTEX_CAP} vertices "
            f"(asked for {max_vertices})"
        )
    if max_vertices < 1:
        return
    level = [(0,)]
    yield from map(_graph_board, level)
    for n in range(1, max_vertices):
        new = 1 << n
        classes = {}
        for adj in level:
            for mask in range(1, new):
                grown = [a | new if mask >> u & 1 else a for u, a in enumerate(adj)]
                child = (*grown, mask)
                key = canonical_key((child, 2 * new - 1, 0, 0), deadline)
                classes.setdefault(key, child)
        level = list(classes.values())
        yield from map(_graph_board, level)


def _graph_board(adj: tuple[int, ...]) -> SnortBoard:
    return SnortBoard(
        (Tint.FREE,) * len(adj),
        frozenset((u, v) for v, a in enumerate(adj) for u in range(v) if a >> u & 1),
    )
