"""Snort boards: tinted graphs, move generation, values, board families.

Placed pieces are represented by deletion plus tints, the standard
reduction: playing a vertex removes it, marks untinted neighbours as
playable only by the mover, and removes neighbours tinted for the
opponent (nobody may ever play them again). A vertex tinted LEFT is
therefore "adjacent to a Left piece", and a path with a Left piece on
its end is encoded as the shorter path whose new end carries a LEFT
tint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import CeilingExceededError, ParseError
from .games import Game, GameStore, evaluate

# beyond this many candidate orderings, skip isomorphism reduction and
# memoize on the labelled structure instead (correct, fewer cache hits)
_CANON_ORDERINGS_LIMIT = 50_000


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

    def neighbours(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out

    def degree(self) -> int:
        if not self.tints:
            return 0
        counts = [0] * self.n
        for a, b in self.edges:
            counts[a] += 1
            counts[b] += 1
        return max(counts, default=0)

    # -- moves -------------------------------------------------------------

    def play(self, v: int, left: bool) -> "SnortBoard":
        own = Tint.LEFT if left else Tint.RIGHT
        other = Tint.RIGHT if left else Tint.LEFT
        if self.tints[v] not in (Tint.FREE, own):
            raise ValueError(f"vertex {v} is not playable by {'Left' if left else 'Right'}")
        nbrs = set(self.neighbours(v))
        drop = {v} | {u for u in nbrs if self.tints[u] == other}
        keep = [u for u in range(self.n) if u not in drop]
        relabel = {u: i for i, u in enumerate(keep)}
        tints = tuple(
            own if (u in nbrs and self.tints[u] == Tint.FREE) else self.tints[u]
            for u in keep
        )
        edges = frozenset(
            (min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
            for a, b in self.edges
            if a in relabel and b in relabel
        )
        return SnortBoard(tints, edges)

    def moves(self, left: bool) -> list["SnortBoard"]:
        own = Tint.LEFT if left else Tint.RIGHT
        return [
            self.play(v, left)
            for v in range(self.n)
            if self.tints[v] in (Tint.FREE, own)
        ]

    def swap_colours(self) -> "SnortBoard":
        flip = {Tint.FREE: Tint.FREE, Tint.LEFT: Tint.RIGHT, Tint.RIGHT: Tint.LEFT}
        return SnortBoard(tuple(flip[t] for t in self.tints), self.edges)

    # -- structure ---------------------------------------------------------

    def components(self) -> Iterator["SnortBoard"]:
        """Connected parts, built one at a time, so a caller can stop early."""
        adj = {v: set() for v in range(self.n)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        todo = set(range(self.n))
        while todo:
            seed = todo.pop()
            comp = {seed}
            frontier = [seed]
            while frontier:
                u = frontier.pop()
                for w in adj[u]:
                    if w in todo:
                        todo.remove(w)
                        comp.add(w)
                        frontier.append(w)
            keep = sorted(comp)
            relabel = {u: i for i, u in enumerate(keep)}
            yield SnortBoard(
                tuple(self.tints[u] for u in keep),
                frozenset(
                    (relabel[a], relabel[b])
                    for a, b in self.edges
                    if a in comp and b in comp
                ),
            )

    # -- text format ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "SnortBoard":
        """Line 1: vertex count. Then "u v" edge lines (0-based), and
        optional "L: i j ..." / "R: i j ..." tint lines."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty snort board text")
        try:
            n = int(lines[0])
        except ValueError:
            raise ParseError(f"expected a vertex count, got {lines[0]!r}") from None
        if n < 0:
            raise ParseError(f"negative vertex count {n}")
        tints = [Tint.FREE] * n
        edges = set()
        for ln in lines[1:]:
            if ln.startswith(("L:", "R:")):
                tint = Tint.LEFT if ln[0] == "L" else Tint.RIGHT
                for tok in ln[2:].split():
                    v = _vertex(tok, n)
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
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(f"bad vertex {tok!r}") from None
    if not 0 <= v < n:
        raise ParseError(f"vertex {v} out of range 0..{n - 1}")
    return v


def snort_parse(text: str) -> SnortBoard:
    return SnortBoard.parse(text)


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
# canonical labelling (for memo keys)


def _refine(board: SnortBoard) -> list[int]:
    colours = [("t", board.tints[v].value) for v in range(board.n)]
    adj = {v: board.neighbours(v) for v in range(board.n)}
    while True:
        ranks = {c: i for i, c in enumerate(sorted(set(colours)))}
        cur = [ranks[c] for c in colours]
        nxt = [
            (cur[v], tuple(sorted(cur[u] for u in adj[v]))) for v in range(board.n)
        ]
        new_ranks = {c: i for i, c in enumerate(sorted(set(nxt)))}
        refined = [new_ranks[c] for c in nxt]
        if refined == cur:
            return cur
        colours = nxt


def canonical_key(board: SnortBoard):
    """Isomorphism-invariant memo key: colour-refined, then the minimal
    relabelling among orderings consistent with the refinement classes.
    Falls back to the exact labelled structure when the class symmetry is
    too large to enumerate."""
    colours = _refine(board)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        classes.setdefault(c, []).append(v)
    total = 1
    for members in classes.values():
        for i in range(2, len(members) + 1):
            total *= i
        if total > _CANON_ORDERINGS_LIMIT:
            return ("labelled", board.tints, tuple(sorted(board.edges)))
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(classes[c]) for c in sorted(classes))
    ):
        order = [v for part in perm_parts for v in part]
        pos = {v: i for i, v in enumerate(order)}
        enc = (
            tuple(board.tints[v].value for v in order),
            tuple(sorted((min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in board.edges)),
        )
        if best is None or enc < best:
            best = enc
    return ("canon", best)


# ---------------------------------------------------------------------------
# evaluation


def snort_game(board: SnortBoard, store: GameStore) -> Game:
    """Canonical game value of a Snort position; connected components are
    evaluated independently, memoized in canonical form, and summed."""
    return evaluate(
        store,
        board,
        "snort",
        SnortBoard.components,
        canonical_key,
        lambda b: (b.moves(True), b.moves(False)),
    )


# ---------------------------------------------------------------------------
# graph enumeration (degree-conjecture scans)


# each vertex multiplies the census by 8 to 13 (112, 853, 11,117 graphs on
# 6, 7, 8 vertices)
GRAPH_VERTEX_CAP = 6


def graph_enumerate(max_vertices: int) -> Iterator[SnortBoard]:
    """All connected untinted graphs with 1..max_vertices vertices, up to
    isomorphism and in ascending vertex count, for max_vertices <=
    GRAPH_VERTEX_CAP.

    Each class on n vertices is extended by a new vertex n joined to every
    nonempty subset of 0..n-1, and the first board seen for each
    `canonical_key` is kept. That reaches every class on n + 1 vertices: a
    leaf of a spanning tree of a connected graph leaves it connected when
    removed, so every connected graph on n + 1 vertices is a connected
    graph on n vertices plus one vertex with at least one neighbour. The
    dedupe is exact because `canonical_key` is, while no refinement class
    product exceeds _CANON_ORDERINGS_LIMIT, which holds for every graph on
    at most 8 vertices (8! = 40,320)."""
    if max_vertices > GRAPH_VERTEX_CAP:
        raise CeilingExceededError(
            f"graph enumeration capped at {GRAPH_VERTEX_CAP} vertices "
            f"(asked for {max_vertices})"
        )
    if max_vertices < 1:
        return
    level = [SnortBoard((Tint.FREE,), frozenset())]
    yield from level
    for n in range(1, max_vertices):
        classes = {}
        for board in level:
            for mask in range(1, 1 << n):
                edges = board.edges | {(u, n) for u in range(n) if mask >> u & 1}
                child = SnortBoard((Tint.FREE,) * (n + 1), edges)
                classes.setdefault(canonical_key(child), child)
        level = list(classes.values())
        yield from level
