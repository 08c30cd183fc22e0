"""Hash-consed short games: construction, outcomes, order, canonical forms.

A `GameStore` interns every position as an immutable node identified by a
small integer id; equal (leftOptions, rightOptions) pairs always map to
the same id, so node equality is id equality and the reachable game graph
is a shared DAG. All semantic queries (outcome, order, canonical form)
are memoized per store, except order questions that the stops of two
canonical nodes settle: every canonical node carries one mark, its
stops and its number value, read off its options when it is marked.

Board values come from one evaluator, `evaluate`: it takes a board's
parts, memoizes each part's canonical value under a ruleset's symmetry
key (computed once per exact position per call), recurses on the part's
options (split into components) and sums the parts canonically.
`dom_game` and `snort_game` are calls to it with their hooks.

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

from .budget import Deadline
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


def outcome_geq(a: Outcome, b: Outcome) -> bool:
    """Hasse order: L above N and P, both above R; N and P incomparable."""
    return a is b or a is Outcome.L or b is Outcome.R


def outcome_leq(a: Outcome, b: Outcome) -> bool:
    return outcome_geq(b, a)


def outcome_comparable(a: Outcome, b: Outcome) -> bool:
    return outcome_geq(a, b) or outcome_geq(b, a)


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

    def eq(self, other: "Game") -> bool:
        return self.store.leq(self, other) and self.store.leq(other, self)

    def confused_with(self, other: "Game") -> bool:
        return not self.store.leq(self, other) and not self.store.leq(other, self)

    def canonical(self) -> "Game":
        return self.store.canonical(self)

    def number_value(self) -> Dyadic | None:
        """Exact value if this node is a canonical-form number, else None."""
        store, i = self.store, self.id
        return store._number_value(i) if store._canonical(i) == i else None

    def is_number(self) -> bool:
        return self.store._number_value(self.store._canonical(self.id)) is not None


class GameStore:
    """Append-only interning store plus the memo tables keyed on its ids.

    Operations may be called from several threads; node allocation is
    locked and every memo entry is a pure function of immutable nodes, so
    racing writers can only ever store identical values. The one exception
    is `_memo_add`: which sum node a pair gets depends on which operands are
    already known to be canonical, so racing writers store equal values,
    not always the same node. A node is marked canonical by one write of
    its `_marks` entry, so a thread that sees the mark sees all of it.

    Both budgets, `max_nodes` and the wall-clock `deadline`, are checked
    whenever a new node is allocated, so any computation that grows the
    store stops once one runs out; intern and memo hits cost nothing.
    """

    def __init__(self, max_nodes: int | None = None, deadline: Deadline | None = None):
        self._lock = threading.RLock()
        self.max_nodes = max_nodes
        # no budget until 0, *, ^ and v are built, so an expired one still builds them
        self.deadline = Deadline()
        self._left: list[tuple[int, ...]] = []
        self._right: list[tuple[int, ...]] = []
        self._intern: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        self._memo_negate: dict[int, int] = {}
        self._memo_add: dict[tuple[int, int], int] = {}
        self._memo_wins: dict[tuple[int, bool], bool] = {}
        self._memo_leq: dict[tuple[int, int], bool] = {}
        self._memo_canonical: dict[int, int] = {}  # unmarked nodes only
        # canonical node -> (left stop, right stop, number value or None)
        self._marks: dict[int, tuple[Dyadic, Dyadic, Dyadic | None]] = {}
        self._numbers: dict[Dyadic, int] = {}
        self._int_ends = {1: 0, -1: 0}  # the interned integers run between these
        self._caches: dict[str, dict] = {}

        self.zero = self.make([], [])
        self._register_number(Dyadic(0), self.zero.id)
        self.star = self.make([self.zero], [self.zero])
        self.up = self.make([self.zero], [self.star])
        self.down = self.make([self.star], [self.zero])
        self.deadline = Deadline() if deadline is None else deadline

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
            self.deadline.check()
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
        marks = self._marks
        mark = marks.get(i)
        got = memo.get(i)
        # a negative found before i was marked canonical is marked below
        if got is not None and (mark is None or got in marks):
            return got
        if mark is not None and mark[2] is not None:
            res = self._number(-mark[2])
        else:
            res = self._node(
                [self._negate(r) for r in self._right[i]],
                [self._negate(l) for l in self._left[i]],
            )
            if mark is not None:
                # the negative of a canonical non-number is one too, and
                # its options, negatives of canonical nodes, are marked
                self._mark_canonical(res)
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
        # a marked node carries its number value, None for a non-number
        ma = self._marks.get(a)
        mb = self._marks.get(b)
        x = None if ma is None else ma[2]
        y = None if mb is None else mb[2]
        if x is not None and y is not None:
            res = self._number(x + y)
        elif y is not None and ma is not None:
            res = self._translate(a, b)
        elif x is not None and mb is not None:
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
        """Sum of several games, folded in sorted id order.

        Sorting keeps the association canonical, so the same multiset of
        games always reaches the same node (more memo hits on repeated
        sums). Board evaluation sums its parts through `evaluate`, which
        also canonicalizes after each addition.
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
        # stops are order-preserving, and R(b) > L(a) gives a < b (Siegel,
        # Combinatorial Game Theory, ch. II); such answers are not memoized
        sa = self._marks.get(a)
        if sa is not None:
            sb = self._marks.get(b)
            if sb is not None:
                if sa[0] > sb[0] or sa[1] > sb[1]:
                    return False
                if sb[1] > sa[0]:
                    return True
        # plain loops, not all(...) over generators: this is the engine's
        # hottest frame; a^L are tried before b^R, up to the first witness
        leq = self._leq
        res = True
        for al in self._left[a]:
            if leq(b, al):
                res = False
                break
        else:
            for br in self._right[b]:
                if leq(br, a):
                    res = False
                    break
        memo[key] = res
        return res

    # -- canonical form ---------------------------------------------------

    def canonical(self, g: Game) -> Game:
        return Game(self, self._canonical(self._check(g)))

    def _canonical(self, i: int) -> int:
        if i in self._marks:
            return i
        memo = self._memo_canonical
        got = memo.get(i)
        if got is not None:
            return got
        # both sides' children first: marking one gives it stops,
        # which `_leq` reads while either side is reduced
        left = sorted({self._canonical(l) for l in self._left[i]})
        right = sorted({self._canonical(r) for r in self._right[i]})
        left = self._reduce(i, left, True)
        right = self._reduce(i, right, False)
        res = self._node(left, right)
        self._mark_canonical(res)
        if res != i:
            memo[i] = res
        return res

    def _reduce(self, i: int, opts: list[int], left: bool) -> list[int]:
        """One side's canonical options of node i, from its sorted canonical
        children `opts`; `left` says which side. Option a is no better than
        b for this side's player when a <= b for Left, b <= a for Right. An
        option o is reversible through a reply p (an option of o for the
        other player) that is no better than i for this side's player, and
        its bypass is p's options on this side. Removing dominated options
        and bypassing reversible ones reaches the canonical form (Siegel,
        Combinatorial Game Theory, ch. II). Plain loops, not generators, keep
        the frames per `_leq` call down on this hot path."""
        leq = self._leq
        same, back = (self._left, self._right) if left else (self._right, self._left)
        while True:
            # drop dominated options (eq options already share one id)
            kept = []
            for o in opts:
                for p in opts:
                    if p != o and (leq(o, p) if left else leq(p, o)):
                        break
                else:
                    kept.append(o)
            opts = kept
            # bypass the first reversible option, then start over
            hit = None
            for o in opts:
                for p in back[o]:
                    if leq(p, i) if left else leq(i, p):
                        hit = p
                        break
                if hit is not None:
                    break
            if hit is None:
                return opts
            opts = sorted({x for x in opts if x != o} | set(same[hit]))

    def _mark_canonical(self, i: int) -> None:
        """Record that node i is a canonical form, with its number value x
        (None for a non-number) and its stops, all read off the stops of
        its options, which are canonical and marked. With lo = max R(G^L)
        and hi = min L(G^R), a game not equal to a number has lo >= hi
        (Siegel, Combinatorial Game Theory, ch. II), so a canonical form
        with lo < hi is the number (lo + hi)/2, and one with an empty side
        is an integer with one option: R(G^L) + 1, L(G^R) - 1, or 0. A
        number has stops (x, x), a non-number (lo, hi). The mark is
        (L, R, x), written in one store; a marked node returns at once."""
        marks = self._marks
        if i in marks:
            return
        left, right = self._left[i], self._right[i]
        if left and right:
            lo = max([marks[l][1] for l in left])
            hi = min([marks[r][0] for r in right])
            x = (lo + hi).half() if lo < hi else None
        elif left:
            x = marks[left[0]][1] + 1
        elif right:
            x = marks[right[0]][0] - 1
        else:
            x = Dyadic(0)
        marks[i] = (lo, hi, None) if x is None else (x, x, x)

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
        # n = {n-1|} and -n = {|-n+1}: extend the interned run from its end on
        # n's side (locked, so no thread moves it), each step under the budgets
        n = x.num
        sign = 1 if n > 0 else -1
        with self._lock:
            got = self._numbers.get(x)
            if got is not None:
                return got
            k = self._int_ends[sign]
            node = self._numbers[Dyadic(k)]
            while k != n:
                k += sign
                node = self._node([node], []) if sign > 0 else self._node([], [node])
                self._register_number(Dyadic(k), node)
                self._int_ends[sign] = k
        return node

    def _register_number(self, x: Dyadic, node: int) -> None:
        self._numbers[x] = node
        self._mark_canonical(node)

    def _number_value(self, i: int) -> Dyadic | None:
        """Number value of a marked canonical node, else None (also for an
        unmarked node such as {1/2|}: semantic queries canonicalize first)."""
        mark = self._marks.get(i)
        return None if mark is None else mark[2]

    # -- named constructors -----------------------------------------------

    def switch(self, a, b) -> Game:
        return self.make([self.number(a)], [self.number(b)])

    def plus_minus(self, g: Game) -> Game:
        """{g | -g}."""
        return self.make([g], [self.negate(g)])


# ---------------------------------------------------------------------------
# board evaluation


def evaluate(
    store: GameStore, parts: Iterable, memo_name: str, components, key, moves
) -> Game:
    """Canonical value of the sum of `parts`, independent positions of one
    ruleset, under the ruleset's hooks.

    `components(p)` splits a position into independent parts. Each part's
    canonical value is memoized in `store.cache(memo_name)` under
    `key(part)`, which must be equal only for parts of equal value (a
    translation, symmetry or isomorphism class); `moves(part)` returns its
    Left and Right option positions. Part values are added in sorted id
    order and canonicalized after each addition, so the same multiset of
    parts always reaches the same node, and k hot parts never build a raw
    sum whose size is exponential in k.

    A transposition is found before any key is computed: each exact
    position this call reaches is mapped to its value's node id in a
    table that lives only for the call, so positions must be hashable,
    and equal positions must have equal keys.
    """
    memo = store.cache(memo_name)
    seen: dict = {}  # exact position -> memo[key(position)], for this call only

    def total(ps) -> int:
        ids = sorted([component(c) for c in ps])
        if not ids:
            return store.zero.id
        res = ids[0]
        for i in ids[1:]:
            res = store._canonical(store._add(res, i))
        return res

    def component(c) -> int:
        # a part that is a memo hit allocates no node, so the key is budgeted here
        store.deadline.check()
        got = seen.get(c)
        if got is not None:
            return got
        k = key(c)
        got = memo.get(k)
        if got is None:
            left, right = moves(c)
            got = store._canonical(
                store._node(
                    [total(components(o)) for o in left],
                    [total(components(o)) for o in right],
                )
            )
            memo[k] = got
        seen[c] = got
        return got

    return Game(store, total(parts))
