"""Definition-level oracles for the game layer's fast paths.

The store adds literal numbers as numbers, builds a canonical non-number
plus a number by number translation, compares two numbers as dyadics,
builds integers iteratively, and the board evaluators memoize canonical
forms. The code here keeps the plain recursions from the definitions,
with memo tables of its own, so the tests can compare the two. Nodes are
interned in the store under test, so results compare by id.
"""

from __future__ import annotations

from hotgames import Dyadic, GameStore
from hotgames.domineering import DomBoard
from hotgames.snort import SnortBoard


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


def raw_dom_value(board: DomBoard, store: GameStore) -> int:
    """Domineering value as the plain game tree: every vertical domino is
    a Left option, every horizontal one a Right option. No components,
    no symmetry keys, no canonical forms."""
    memo: dict[frozenset, int] = {}

    def value(cells: frozenset) -> int:
        got = memo.get(cells)
        if got is not None:
            return got
        left = [
            value(cells - {(x, y), (x, y + 1)}) for x, y in cells if (x, y + 1) in cells
        ]
        right = [
            value(cells - {(x, y), (x + 1, y)}) for x, y in cells if (x + 1, y) in cells
        ]
        res = memo[cells] = store._node(left, right)
        return res

    return value(board.cells)


def raw_snort_value(board: SnortBoard, store: GameStore) -> int:
    """Snort value as the plain game tree over the board's own moves."""
    memo: dict[SnortBoard, int] = {}

    def value(b: SnortBoard) -> int:
        got = memo.get(b)
        if got is not None:
            return got
        res = memo[b] = store._node(
            [value(nb) for nb in b.moves(True)], [value(nb) for nb in b.moves(False)]
        )
        return res

    return value(board)
