"""Definition-level oracles for the game layer's fast paths.

The store adds literal numbers as numbers, builds a canonical non-number
plus a number by number translation, reads each canonical node's stops
and number value off its options' stops when it marks the node, answers
order questions from the stops, builds integers iteratively, and the
board evaluators memoize canonical forms. The code here keeps the plain
recursions from the definitions, with memo tables of its own, so the
tests can compare the two; `literal_number_value` is the structural
number recognizer. Nodes are interned in the store under test, so
results compare by id. The minimal witness constant, which the engine
bisects for inside a stop bracket, is here the plain scan up the grid;
the witness itself, which the engine tests as G^L + eps <= G + k on
canonical nodes, is here the raw sum G^L - G + eps compared with k by
the order recursion (`raw_witness`); and the graph census, which the
engine grows one vertex at a time, is here a filter over every labelled
edge set that drops the relabellings of each graph it keeps.
The Domineering evaluator works on bitboards; the cell-set components,
moves and reflection key it replaced are kept here, with the quarter
turn and the two reflections of a board, which only tests apply. So are
the Snort board's own moves and components, which the evaluator
replaced with int masks, and the isomorphism key it replaced: colour
refinement, then the least relabelling over every ordering consistent
with the colour classes (exact, and factorial in the class sizes).
`refined_key` refines colour lists a whole round at a time and searches
recursively, where the engine refines cells of vertex masks from
splitters and searches with an explicit stack. The
evaluator splits and keys a Snort position by its live edges only;
`snort_live` drops the others from a board, so the tests can check that
doing so keeps the value.
`certify` checks each value a board evaluator memoizes against the
memoized values of the options of the position it expanded, which
`record_expansions` records by patching the ruleset's `_moves`.
`wall_segments` splits a thermograph wall at its turning points and
calls a segment vertical when the wall's x, interpolated straight from
its breakpoints, is equal at the segment's two ends; the engine reads
the kind off the slope instead.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from hotgames import Dyadic, Game, GameStore, confusion_witness
from hotgames.domineering import DomBoard
from hotgames.snort import SnortBoard, Tint


class RawOracle:
    """Raw disjunctive sum and the order recursion, straight from the
    definitions, over the nodes of one store."""

    def __init__(self, store: GameStore) -> None:
        self.store = store
        self._sums: dict[tuple[int, int], int] = {}
        self._order: dict[tuple[int, int], bool] = {}
        self._negatives: dict[int, int] = {}

    def add(self, a: int, b: int) -> int:
        """{A^L + B, A + B^L | A^R + B, A + B^R}."""
        key = (a, b) if a <= b else (b, a)
        got = self._sums.get(key)
        if got is not None:
            return got
        s = self.store
        left = [self.add(al, b) for al in s._left[a]]
        left += [self.add(a, bl) for bl in s._left[b]]
        right = [self.add(ar, b) for ar in s._right[a]]
        right += [self.add(a, br) for br in s._right[b]]
        res = s._node(left, right)
        self._sums[key] = res
        return res

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.negate(b))

    def negate(self, a: int) -> int:
        got = self._negatives.get(a)
        if got is not None:
            return got
        s = self.store
        res = self._negatives[a] = s._node(
            [self.negate(r) for r in s._right[a]],
            [self.negate(l) for l in s._left[a]],
        )
        return res

    def leq(self, a: int, b: int) -> bool:
        """A <= B iff no A^L >= B and no B^R <= A."""
        key = (a, b)
        got = self._order.get(key)
        if got is not None:
            return got
        s = self.store
        res = all(not self.leq(b, al) for al in s._left[a]) and all(
            not self.leq(br, a) for br in s._right[b]
        )
        self._order[key] = res
        return res

    def eq(self, a: int, b: int) -> bool:
        return self.leq(a, b) and self.leq(b, a)


def literal_number_value(store: GameStore, i: int) -> Dyadic | None:
    """Value of node i if it is literally a canonical-form number, else
    None, from its structure alone: 0 = {|}, n + 1 = {n|} for n >= 0,
    -n - 1 = {|-n} for n >= 0, and m/2^k = {(m-1)/2^k | (m+1)/2^k} for odd
    m and k >= 1."""
    memo: dict[int, Dyadic | None] = {}

    def rec(j: int) -> Dyadic | None:
        if j in memo:
            return memo[j]
        left, right = store._left[j], store._right[j]
        res = None
        if not left and not right:
            res = Dyadic(0)
        elif len(left) <= 1 and len(right) <= 1:
            lv = rec(left[0]) if left else None
            rv = rec(right[0]) if right else None
            if left and not right:
                if lv is not None and lv.is_integer and lv.num >= 0:
                    res = lv + 1
            elif right and not left:
                if rv is not None and rv.is_integer and rv.num <= 0:
                    res = rv - 1
            elif lv is not None and rv is not None and lv < rv:
                mid = (lv + rv).half()
                if mid.exp >= 1 and rv - lv == Dyadic(1, mid.exp - 1):
                    res = mid
        memo[j] = res
        return res

    return rec(i)


def raw_stops(store: GameStore, i: int) -> tuple[Dyadic, Dyadic]:
    """(left stop, right stop) of node i, by recursion over its canonical
    form: a number x has (x, x); otherwise the left stop is the largest
    right stop of a Left option and the right stop the least left stop of
    a Right option."""
    memo: dict[int, tuple[Dyadic, Dyadic]] = {}

    def rec(ci: int) -> tuple[Dyadic, Dyadic]:
        got = memo.get(ci)
        if got is not None:
            return got
        x = literal_number_value(store, ci)
        if x is not None:
            res = (x, x)
        else:
            ls = max(rec(l)[1] for l in store._left[ci])
            rs = min(rec(r)[0] for r in store._right[ci])
            res = (ls, rs)
        memo[ci] = res
        return res

    return rec(store._canonical(i))


def number_node(store: GameStore, x: Dyadic) -> int:
    """Canonical form of a dyadic by the recursive definition:
    n = {n-1|}, -n = {|-n+1}, and m/2^k = {(m-1)/2^k | (m+1)/2^k}."""
    if x.is_integer:
        n = x.num
        if n == 0:
            return store._node([], [])
        if n > 0:
            return store._node([number_node(store, Dyadic(n - 1))], [])
        return store._node([], [number_node(store, Dyadic(n + 1))])
    step = Dyadic(1, x.exp)
    return store._node(
        [number_node(store, x - step)], [number_node(store, x + step)]
    )


def dom_components(cells: frozenset) -> list[frozenset]:
    """Connected parts of a cell set, by flood fill over lattice neighbours."""
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


def dom_reflection_key(cells: frozenset) -> tuple:
    """Least sorted cell tuple over the reflections and the half turn,
    each translated to min x = min y = 0."""
    variants = []
    for fx in (1, -1):
        for fy in (1, -1):
            v = [(fx * x, fy * y) for x, y in cells]
            dx = min(x for x, _ in v)
            dy = min(y for _, y in v)
            variants.append(tuple(sorted((x - dx, y - dy) for x, y in v)))
    return min(variants)


def dom_moves(cells: frozenset) -> tuple[list[frozenset], list[frozenset]]:
    """Left's vertical and Right's horizontal domino placements."""
    left = [cells - {(x, y), (x, y + 1)} for x, y in cells if (x, y + 1) in cells]
    right = [cells - {(x, y), (x + 1, y)} for x, y in cells if (x + 1, y) in cells]
    return left, right


def rotate90(board: DomBoard) -> DomBoard:
    return DomBoard((y, -x) for x, y in board.cells)


def reflect_h(board: DomBoard) -> DomBoard:
    return DomBoard((-x, y) for x, y in board.cells)


def reflect_v(board: DomBoard) -> DomBoard:
    return DomBoard((x, -y) for x, y in board.cells)


def raw_dom_value(board: DomBoard, store: GameStore) -> int:
    """Domineering value as the plain game tree: every vertical domino is
    a Left option, every horizontal one a Right option. No components,
    no symmetry keys, no canonical forms."""
    memo: dict[frozenset, int] = {}

    def value(cells: frozenset) -> int:
        got = memo.get(cells)
        if got is not None:
            return got
        left, right = dom_moves(cells)
        res = memo[cells] = store._node(
            [value(o) for o in left], [value(o) for o in right]
        )
        return res

    return value(board.cells)


def snort_neighbours(board: SnortBoard, v: int) -> list[int]:
    out = []
    for a, b in board.edges:
        if a == v:
            out.append(b)
        elif b == v:
            out.append(a)
    return out


def snort_play(board: SnortBoard, v: int, left: bool) -> SnortBoard:
    """The board after the mover plays v: v and its neighbours tinted for
    the opponent are removed, its free neighbours take the mover's tint,
    and the rest keep their order."""
    own = Tint.LEFT if left else Tint.RIGHT
    other = Tint.RIGHT if left else Tint.LEFT
    if board.tints[v] not in (Tint.FREE, own):
        raise ValueError(f"vertex {v} is not playable by {'Left' if left else 'Right'}")
    nbrs = set(snort_neighbours(board, v))
    drop = {v} | {u for u in nbrs if board.tints[u] == other}
    keep = [u for u in range(board.n) if u not in drop]
    relabel = {u: i for i, u in enumerate(keep)}
    tints = tuple(
        own if (u in nbrs and board.tints[u] == Tint.FREE) else board.tints[u]
        for u in keep
    )
    edges = frozenset(
        (relabel[a], relabel[b])
        for a, b in board.edges
        if a in relabel and b in relabel
    )
    return SnortBoard(tints, edges)


def snort_moves(board: SnortBoard, left: bool) -> list[SnortBoard]:
    own = Tint.LEFT if left else Tint.RIGHT
    return [
        snort_play(board, v, left)
        for v in range(board.n)
        if board.tints[v] in (Tint.FREE, own)
    ]


def snort_live(board: SnortBoard) -> SnortBoard:
    """The board without its edges whose two ends carry the same tint."""
    return SnortBoard(
        board.tints,
        frozenset(
            (a, b)
            for a, b in board.edges
            if board.tints[a] is Tint.FREE or board.tints[a] is not board.tints[b]
        ),
    )


def snort_components(board: SnortBoard) -> list[SnortBoard]:
    """Connected parts, each relabelled in increasing vertex order."""
    todo = set(range(board.n))
    out = []
    while todo:
        comp = {todo.pop()}
        frontier = list(comp)
        while frontier:
            for w in snort_neighbours(board, frontier.pop()):
                if w in todo:
                    todo.remove(w)
                    comp.add(w)
                    frontier.append(w)
        relabel = {u: i for i, u in enumerate(sorted(comp))}
        out.append(SnortBoard(
            tuple(board.tints[u] for u in sorted(comp)),
            frozenset(
                (relabel[a], relabel[b])
                for a, b in board.edges
                if a in comp and b in comp
            ),
        ))
    return out


def snort_decode(position) -> SnortBoard:
    """The board of an int position, its vertices relabelled in increasing
    bit order."""
    adj, alive, left, right = position
    verts = [v for v in range(len(adj)) if alive >> v & 1]
    relabel = {v: i for i, v in enumerate(verts)}
    tints = tuple(
        Tint.LEFT if left >> v & 1 else Tint.RIGHT if right >> v & 1 else Tint.FREE
        for v in verts
    )
    edges = frozenset(
        (relabel[u], relabel[v])
        for v in verts
        for u in verts
        if u < v and adj[v] >> u & 1
    )
    return SnortBoard(tints, edges)


def snort_key(board: SnortBoard):
    """Colour-refined, then the least relabelling among the orderings
    consistent with the refinement classes."""
    adj = {v: snort_neighbours(board, v) for v in range(board.n)}
    colours = [("t", board.tints[v].value) for v in range(board.n)]
    while True:
        ranks = {c: i for i, c in enumerate(sorted(set(colours)))}
        cur = [ranks[c] for c in colours]
        nxt = [(cur[v], tuple(sorted(cur[u] for u in adj[v]))) for v in range(board.n)]
        if len(set(nxt)) == len(ranks):
            break
        colours = nxt
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(cur):
        classes.setdefault(c, []).append(v)
    best = None
    for parts in itertools.product(
        *(itertools.permutations(classes[c]) for c in sorted(classes))
    ):
        pos = {v: i for i, v in enumerate(v for part in parts for v in part)}
        order = sorted(pos, key=pos.get)
        enc = (
            tuple(board.tints[v].value for v in order),
            tuple(sorted(tuple(sorted((pos[a], pos[b]))) for a, b in board.edges)),
        )
        if best is None or enc < best:
            best = enc
    return best


def refined_key(position) -> tuple:
    """The engine's earlier isomorphism key of an int position, kept as
    the oracle for its classes: colour lists refined by the multiset of
    neighbour colours, whole rounds at a time, and a recursive search
    that individualizes each vertex of the first smallest class and
    skips twins. Equal exactly for isomorphic live tinted graphs."""
    adj, alive, left, right = position
    verts = [v for v in range(alive.bit_length()) if alive >> v & 1]
    index = {v: i for i, v in enumerate(verts)}
    nbrs = []
    for v in verts:
        live = adj[v] & alive
        if left >> v & 1:
            live &= ~left
        elif right >> v & 1:
            live &= ~right
        nbrs.append([index[u] for u in verts if live >> u & 1])

    def refine(colour: list[int]) -> list[int]:
        cells = 0
        while True:
            sigs = [(c, *sorted([colour[u] for u in ns])) for c, ns in zip(colour, nbrs)]
            ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
            if len(ranks) == cells:
                return colour
            colour = [ranks[s] for s in sigs]
            cells = len(ranks)
            if cells == len(colour):
                return colour

    def twins(u: int, v: int) -> bool:
        return {w for w in nbrs[u] if w != v} == {w for w in nbrs[v] if w != u}

    best = None

    def search(colour: list[int]) -> None:
        nonlocal best
        sizes = [0] * len(colour)
        for c in colour:
            sizes[c] += 1
        cells = [(size, c) for c, size in enumerate(sizes) if size > 1]
        if not cells:
            enc = [0] * len(colour)
            for c, ns in zip(colour, nbrs):
                enc[c] = sum(1 << colour[u] for u in ns)
            if best is None or tuple(enc) < best:
                best = tuple(enc)
            return
        target = min(cells)[1]
        tried: list[int] = []
        for v, c in enumerate(colour):
            if c != target or any(twins(u, v) for u in tried):
                continue
            tried.append(v)
            search(refine([2 * d + (u != v) for u, d in enumerate(colour)]))

    # free < LEFT < RIGHT, and refinement keeps that order
    search(refine([(right >> v & 1) * 2 + (left >> v & 1) for v in verts]))
    return (left & alive).bit_count(), (right & alive).bit_count(), best


def raw_snort_value(board: SnortBoard, store: GameStore) -> int:
    """Snort value as the plain game tree over the board's own moves."""
    memo: dict[SnortBoard, int] = {}

    def value(b: SnortBoard) -> int:
        got = memo.get(b)
        if got is not None:
            return got
        res = memo[b] = store._node(
            [value(nb) for nb in snort_moves(b, True)],
            [value(nb) for nb in snort_moves(b, False)],
        )
        return res

    return value(board)


def record_expansions(monkeypatch, module) -> list:
    """Patch the ruleset module's `_moves`, which its evaluator looks up
    at call time, so that each position `evaluate` expands is appended to
    the returned list as (the hook's arguments, (left, right))."""
    expanded = []
    moves = module._moves

    def recording(*args):
        options = moves(*args)
        expanded.append((args, options))
        return options

    monkeypatch.setattr(module, "_moves", recording)
    return expanded


def certify(store: GameStore, memo_name: str, expanded, components, key) -> list:
    """The positions in `expanded` whose memoized value is not certified.

    A position is certified when its memo entry equals {sum of the memo
    entries of each Left option's components | the same for Right}, with
    the sums and the comparison taken by `RawOracle`. By induction over
    the game tree, every entry then is its position's value, trusting only
    interning, the move generator, the component split and the key.
    `components` and `key` take an option and the recorded arguments
    after the first, as `_moves` does.
    """
    memo = store.cache(memo_name)
    oracle = RawOracle(store)

    def value(option, extra) -> int:
        ids = [memo[key(c, *extra)] for c in components(option, *extra)]
        return functools.reduce(oracle.add, ids) if ids else store.zero.id

    failed = []
    for (p, *extra), (left, right) in expanded:
        built = store._node(
            [value(o, extra) for o in left], [value(o, extra) for o in right]
        )
        if not oracle.eq(built, memo[key(p, *extra)]):
            failed.append(p)
    return failed


@functools.lru_cache(maxsize=1)
def _raw_oracle(store: GameStore) -> RawOracle:
    return RawOracle(store)


def raw_witness(store: GameStore, g: Game, k: Dyadic, eps: Game) -> bool:
    """The witness by its definition: G^L - G + eps <= k for every Left
    option, with the raw sum built and compared by the recursions. The
    raw sums and comparisons of the last store asked about are kept."""
    raw = _raw_oracle(store)
    bound = number_node(store, k)
    return all(
        raw.leq(raw.add(raw.sub(gl.id, g.id), eps.id), bound) for gl in g.left_options
    )


def minimal_k_by_scan(g: Game, step: Dyadic, eps: Game) -> Dyadic:
    """The first k = 0, step, 2*step, ... at which the witness holds."""
    k = Dyadic(0)
    while not confusion_witness(g, k, eps).holds:
        k += step
    return k


@functools.cache
def connected_graphs_by_edge_masks(n: int) -> tuple[SnortBoard, ...]:
    """One untinted board per isomorphism class of connected graphs on n
    vertices: every labelled edge set in mask order, kept when it is
    connected and no relabelling of it was kept before."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    relabellings = [
        [index[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs]
        for p in itertools.permutations(range(n))
    ]
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        board = SnortBoard((Tint.FREE,) * n, edges)
        if len(snort_components(board)) != 1:
            continue
        used = [i for i in range(len(pairs)) if mask >> i & 1]
        seen.update(sum(1 << image[i] for i in used) for image in relabellings)
        out.append(board)
    return tuple(out)


def wall_segments(wall, t_star: Dyadic) -> tuple[tuple[Dyadic, ...], tuple[str, ...]]:
    """Turning points of a wall on [0, t_star], and each segment's kind:
    "vertical" when the wall's x is equal at its two ends, else "oblique"."""

    def frac(d: Dyadic) -> Fraction:
        return Fraction(d.num, 1 << d.exp)

    def x(t: Dyadic) -> Fraction:
        pts = [(frac(a), frac(b)) for a, b in wall]
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if frac(t) <= t1:
                return x0 + (x1 - x0) * (frac(t) - t0) / (t1 - t0)
        return pts[-1][1]

    ts = (Dyadic(0), *(t for t, _ in wall if 0 < t < t_star), t_star)
    kinds = tuple("vertical" if x(a) == x(b) else "oblique" for a, b in zip(ts, ts[1:]))
    return ts, kinds
