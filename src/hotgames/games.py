"""Hash-consed short games: construction, outcomes, order, canonical forms.

A `GameStore` interns every position as an immutable node identified by a
small integer id; equal (leftOptions, rightOptions) pairs always map to
the same id, so node equality is id equality and the reachable game graph
is a shared DAG. All semantic queries (outcome, order, canonical form)
are memoized per store.

Canonical at the boundary: the `+`/`-` operators on `Game` canonicalize
both operands and return the canonical form of the sum, and so do the
board evaluators and cooling (`dom_game`, `snort_game`, `thermal.cool`).
`GameStore.add`/`add_all` return an exact sum of the nodes given, but its
node structure is not guaranteed to be the raw disjunctive sum: literal
canonical numbers add as numbers, and a canonical non-number G plus a
number x is built by number translation as {G^L + x | G^R + x}.

Handle ids are session-local bookkeeping. Nothing semantic is ever
derived from their numeric values, and they are never serialized.
"""

from __future__ import annotations

import sys
import threading
from enum import Enum
from typing import Iterable, Sequence

from .dyadic import Dyadic, dyadic
from .errors import ForeignHandleError, NodeBudgetError

# Game DAGs are shallow but canonicalization/order recursions stack a few
# frames per node; the CPython default of 1000 is too tight for sums.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


class Outcome(Enum):
    """Normal-play outcome classes."""

    L = "L"  # Left wins regardless of who starts
    N = "N"  # next (first) player wins
    P = "P"  # previous (second) player wins
    R = "R"  # Right wins regardless of who starts


# Hasse order: L above N and P, both above R; N and P incomparable.
_OUTCOME_GEQ = {
    (a, a) for a in Outcome
} | {
    (Outcome.L, Outcome.N),
    (Outcome.L, Outcome.P),
    (Outcome.L, Outcome.R),
    (Outcome.N, Outcome.R),
    (Outcome.P, Outcome.R),
}


def outcome_geq(a: Outcome, b: Outcome) -> bool:
    return (a, b) in _OUTCOME_GEQ


def outcome_leq(a: Outcome, b: Outcome) -> bool:
    return (b, a) in _OUTCOME_GEQ


def outcome_comparable(a: Outcome, b: Outcome) -> bool:
    return (a, b) in _OUTCOME_GEQ or (b, a) in _OUTCOME_GEQ


class Game:
    """Handle to an interned node. Equality and hash are by identity."""

    __slots__ = ("store", "id")

    def __init__(self, store: "GameStore", gid: int) -> None:
        self.store = store
        self.id = gid

    def __eq__(self, other):
        return (
            isinstance(other, Game)
            and other.store is self.store
            and other.id == self.id
        )

    def __hash__(self):
        return hash((id(self.store), self.id))

    def __repr__(self):
        return f"<Game #{self.id} {self!s}>"

    def __str__(self):
        from .notation import format_game  # deferred: notation imports games

        return format_game(self)

    # -- structure --------------------------------------------------------

    @property
    def left_options(self) -> tuple["Game", ...]:
        return tuple(Game(self.store, i) for i in self.store._left[self.id])

    @property
    def right_options(self) -> tuple["Game", ...]:
        return tuple(Game(self.store, i) for i in self.store._right[self.id])

    # -- algebra ----------------------------------------------------------

    def __neg__(self) -> "Game":
        return self.store.negate(self)

    def __add__(self, other: "Game") -> "Game":
        """Canonical form of the sum of the operands' canonical forms."""
        store = self.store
        a = store._canonical(self.id)
        b = store._canonical(store._check(other))
        return Game(store, store._canonical(store._add(a, b)))

    def __sub__(self, other: "Game") -> "Game":
        return self + -self.store.canonical(other)

    # -- queries ----------------------------------------------------------

    def outcome(self) -> Outcome:
        return self.store.outcome(self)

    def leq(self, other: "Game") -> bool:
        return self.store.leq(self, other)

    def geq(self, other: "Game") -> bool:
        return self.store.leq(other, self)

    def eq(self, other: "Game") -> bool:
        return self.store.leq(self, other) and self.store.leq(other, self)

    def confused_with(self, other: "Game") -> bool:
        return not self.store.leq(self, other) and not self.store.leq(other, self)

    def canonical(self) -> "Game":
        return self.store.canonical(self)

    def number_value(self) -> Dyadic | None:
        """Exact value if this node is a canonical-form number, else None."""
        return self.store._number_value(self.id)

    def is_number(self) -> bool:
        return self.store._number_value(self.store._canonical(self.id)) is not None


class GameStore:
    """Append-only interning store plus the memo tables keyed on its ids.

    Operations may be called from several threads; node allocation is
    locked and every memo entry is a pure function of immutable nodes, so
    racing writers can only ever store identical values. The one exception
    is `_memo_add`: which sum node a pair gets depends on which operands are
    already known to be canonical, so racing writers store equal values,
    not always the same node.
    """

    def __init__(self, max_nodes: int | None = None) -> None:
        self._lock = threading.RLock()
        self.max_nodes = max_nodes
        self._left: list[tuple[int, ...]] = []
        self._right: list[tuple[int, ...]] = []
        self._intern: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        self._memo_negate: dict[int, int] = {}
        self._memo_add: dict[tuple[int, int], int] = {}
        self._memo_wins: dict[tuple[int, bool], bool] = {}
        self._memo_leq: dict[tuple[int, int], bool] = {}
        self._memo_canonical: dict[int, int] = {}
        self._memo_number: dict[int, Dyadic | None] = {}
        self._numbers: dict[Dyadic, int] = {}
        self._caches: dict[str, dict] = {}

        self.zero = self.make([], [])
        self._register_number(Dyadic(0), self.zero.id)
        self.star = self.make([self.zero], [self.zero])
        self.up = self.make([self.zero], [self.star])
        self.down = self.make([self.star], [self.zero])

    # -- nodes ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._left)

    def cache(self, name: str) -> dict:
        """Named memo table owned by this store (used by other modules)."""
        return self._caches.setdefault(name, {})

    def _check(self, g: Game) -> int:
        if not isinstance(g, Game) or g.store is not self:
            raise ForeignHandleError(f"handle {g!r} does not belong to this store")
        return g.id

    def _key(self, left: Iterable[int], right: Iterable[int]):
        return tuple(sorted(set(left))), tuple(sorted(set(right)))

    def _node(self, left: Iterable[int], right: Iterable[int]) -> int:
        key = self._key(left, right)
        got = self._intern.get(key)
        if got is not None:
            return got
        with self._lock:
            got = self._intern.get(key)
            if got is not None:
                return got
            if self.max_nodes is not None and len(self._left) >= self.max_nodes:
                raise NodeBudgetError(
                    f"store node budget exceeded ({self.max_nodes} nodes)"
                )
            gid = len(self._left)
            self._left.append(key[0])
            self._right.append(key[1])
            self._intern[key] = gid
            return gid

    def make(self, left: Sequence[Game], right: Sequence[Game]) -> Game:
        """Intern {left | right}; duplicate options collapse, order is ignored."""
        return Game(
            self,
            self._node([self._check(g) for g in left], [self._check(g) for g in right]),
        )

    # -- negation / sum ---------------------------------------------------

    def negate(self, g: Game) -> Game:
        return Game(self, self._negate(self._check(g)))

    def _negate(self, i: int) -> int:
        memo = self._memo_negate
        got = memo.get(i)
        if got is not None:
            return got
        canonical = self._memo_canonical.get(i) == i
        x = self._memo_number.get(i)
        if x is not None:
            res = self._number(-x)
        else:
            res = self._node(
                [self._negate(r) for r in self._right[i]],
                [self._negate(l) for l in self._left[i]],
            )
            if canonical:
                # the negative of a canonical non-number is one too
                self._mark_canonical(res, None)
        memo[i] = res
        memo[res] = i
        return res

    def add(self, g: Game, h: Game) -> Game:
        return Game(self, self._add(self._check(g), self._check(h)))

    def _add(self, a: int, b: int) -> int:
        if a == self.zero.id:
            return b
        if b == self.zero.id:
            return a
        key = (a, b) if a <= b else (b, a)
        memo = self._memo_add
        got = memo.get(key)
        if got is not None:
            return got
        # literal canonical numbers carry their value in _memo_number, and a
        # canonical non-number carries None there; read the canonical marks
        # first, since _mark_canonical writes them second (threads)
        canon = self._memo_canonical
        a_canonical = canon.get(a) == a
        b_canonical = canon.get(b) == b
        x = self._memo_number.get(a)
        y = self._memo_number.get(b)
        if x is not None and y is not None:
            res = self._number(x + y)
        elif y is not None and a_canonical:
            res = self._translate(a, b)
        elif x is not None and b_canonical:
            res = self._translate(b, a)
        else:
            left = [self._add(al, b) for al in self._left[a]]
            left += [self._add(a, bl) for bl in self._left[b]]
            right = [self._add(ar, b) for ar in self._right[a]]
            right += [self._add(a, br) for br in self._right[b]]
            res = self._node(left, right)
        memo[key] = res
        return res

    def _translate(self, g: int, x: int) -> int:
        """G + x = {G^L + x | G^R + x} for a number x and a G that is not
        equal to a number (number translation; Siegel, Combinatorial Game
        Theory, ch. II). A canonical non-number is never equal to one."""
        return self._node(
            [self._add(gl, x) for gl in self._left[g]],
            [self._add(gr, x) for gr in self._right[g]],
        )

    def add_all(self, games: Sequence[Game]) -> Game:
        """Sum of several components, folded in sorted id order.

        Sorting keeps the association canonical, so the same multiset of
        components always reaches the same node (more memo hits on the
        disjunctive sums that dominate board evaluation).
        """
        total = self.zero.id
        for i in sorted(self._check(g) for g in games):
            total = self._add(total, i)
        return Game(self, total)

    # -- outcome ----------------------------------------------------------

    def outcome(self, g: Game) -> Outcome:
        i = self._check(g)
        lf = self._wins_first(i, True)
        rf = self._wins_first(i, False)
        if lf and rf:
            return Outcome.N
        if lf:
            return Outcome.L
        if rf:
            return Outcome.R
        return Outcome.P

    def _wins_first(self, i: int, left_to_move: bool) -> bool:
        """Can the player to move force a win? (no move available = loss)"""
        key = (i, left_to_move)
        memo = self._memo_wins
        got = memo.get(key)
        if got is not None:
            return got
        opts = self._left[i] if left_to_move else self._right[i]
        res = any(not self._wins_first(o, not left_to_move) for o in opts)
        memo[key] = res
        return res

    # -- order ------------------------------------------------------------

    def leq(self, g: Game, h: Game) -> bool:
        return self._leq(self._check(g), self._check(h))

    def _leq(self, a: int, b: int) -> bool:
        # a <= b iff no a^L >= b and no b^R <= a
        if a == b:
            return True
        key = (a, b)
        memo = self._memo_leq
        got = memo.get(key)
        if got is not None:
            return got
        # two literal canonical numbers compare as dyadics
        x = self._memo_number.get(a)
        if x is not None:
            y = self._memo_number.get(b)
            if y is not None:
                return x <= y
        res = all(not self._leq(b, al) for al in self._left[a]) and all(
            not self._leq(br, a) for br in self._right[b]
        )
        memo[key] = res
        return res

    # -- canonical form ---------------------------------------------------

    def canonical(self, g: Game) -> Game:
        return Game(self, self._canonical(self._check(g)))

    def _canonical(self, i: int) -> int:
        memo = self._memo_canonical
        got = memo.get(i)
        if got is not None:
            return got
        left = sorted({self._canonical(l) for l in self._left[i]})
        right = sorted({self._canonical(r) for r in self._right[i]})
        while True:
            # drop dominated options (eq options already share one id)
            left = [
                l
                for l in left
                if not any(o != l and self._leq(l, o) for o in left)
            ]
            right = [
                r
                for r in right
                if not any(o != r and self._leq(o, r) for o in right)
            ]
            # bypass the first reversible option, then start over
            replaced = False
            for l in left:
                for lr in self._right[l]:
                    if self._leq(lr, i):
                        left = sorted(
                            {x for x in left if x != l} | set(self._left[lr])
                        )
                        replaced = True
                        break
                if replaced:
                    break
            if replaced:
                continue
            for r in right:
                for rl in self._left[r]:
                    if self._leq(i, rl):
                        right = sorted(
                            {x for x in right if x != r} | set(self._right[rl])
                        )
                        replaced = True
                        break
                if replaced:
                    break
            if not replaced:
                break
        res = self._node(left, right)
        self._mark_canonical(res, self._number_value(res))
        memo[i] = res
        return res

    def _mark_canonical(self, i: int, x: Dyadic | None) -> None:
        """Record that node i is a canonical form with number value x (None
        for a non-number). Every node fixed by `_memo_canonical` has its
        `_memo_number` entry, so after the canonical check one lookup tells
        a number from a non-number. The number entry is written first, so a
        thread that reads the canonical mark before it sees both."""
        self._memo_number[i] = x
        self._memo_canonical[i] = i

    # -- numbers ----------------------------------------------------------

    def number(self, value) -> Game:
        """Canonical-form node of a dyadic rational."""
        return Game(self, self._number(dyadic(value)))

    def _number(self, x: Dyadic) -> int:
        got = self._numbers.get(x)
        if got is not None:
            return got
        if not x.is_integer:
            step = Dyadic(1, x.exp)
            node = self._node([self._number(x - step)], [self._number(x + step)])
            self._register_number(x, node)
            return node
        # n = {n-1|} and -n = {|-n+1}: walk towards 0 to the nearest
        # integer already interned (0 always is), then build back out
        n = x.num
        sign = 1 if n > 0 else -1
        k = n - sign
        while Dyadic(k) not in self._numbers:
            k -= sign
        node = self._numbers[Dyadic(k)]
        while k != n:
            k += sign
            node = self._node([node], []) if sign > 0 else self._node([], [node])
            self._register_number(Dyadic(k), node)
        return node

    def _register_number(self, x: Dyadic, node: int) -> None:
        self._numbers[x] = node
        self._mark_canonical(node, x)

    def _number_value(self, i: int) -> Dyadic | None:
        """Value of a node that is literally a canonical-form number.

        Non-canonical representations of numbers (e.g. {1/2|}) return
        None here; semantic queries canonicalize before asking.
        """
        memo = self._memo_number
        if i in memo:
            return memo[i]
        left, right = self._left[i], self._right[i]
        res: Dyadic | None = None
        if not left and not right:
            res = Dyadic(0)
        elif len(left) <= 1 and len(right) <= 1:
            lv = self._number_value(left[0]) if left else None
            rv = self._number_value(right[0]) if right else None
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
        memo[i] = res
        return res

    # -- named constructors -----------------------------------------------

    def switch(self, a, b) -> Game:
        return self.make([self.number(a)], [self.number(b)])

    def plus_minus(self, g: Game) -> Game:
        """{g | -g}."""
        return self.make([g], [self.negate(g)])
