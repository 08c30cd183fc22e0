"""Stops, confusion intervals, cooling, thermographs and temperature.

Temperature is read off the exact thermograph (piecewise-linear wall
intersection); cooling by the recursive penalty definition is a separate
code path, and the two are cross-checked against each other in the test
suite. "Infinitesimally close to a number" is decided exactly: both
stops of the difference are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import MINUS_ONE, ZERO, Dyadic, dyadic
from .errors import DomainError, NotHotError, WrongShapeError
from .games import Game
from .piecewise import Wall, merge, validate, value, values, walls


# ---------------------------------------------------------------------------
# stops and confusion interval


def stops(g: Game) -> tuple[Dyadic, Dyadic]:
    """(left stop, right stop) of the canonical form, which the store
    records when it marks a node canonical."""
    store = g.store
    return store._marks[store._canonical(g.id)][:2]


def left_stop(g: Game) -> Dyadic:
    return stops(g)[0]


def right_stop(g: Game) -> Dyadic:
    return stops(g)[1]


def ell(g: Game) -> Dyadic:
    """Length of the confusion interval: LS - RS >= 0."""
    ls, rs = stops(g)
    return ls - rs


def is_hot(g: Game) -> bool:
    ls, rs = stops(g)
    return ls > rs


def infinitesimally_close(g: Game, h: Game) -> bool:
    return stops(g - h) == (ZERO, ZERO)


# ---------------------------------------------------------------------------
# thermographs


@dataclass(frozen=True)
class Thermograph:
    """Exact thermograph: its two walls on t in [-1, temperature], and the
    mast above the point (temperature, mast) where they meet.

    Wall x-coordinates follow the plotting convention that larger values
    sit further left; the left wall is non-increasing in t with segment
    slopes in {0,-1}, the right wall non-decreasing with slopes {0,+1},
    and both end where they meet.
    """

    left_wall: Wall
    right_wall: Wall

    @property
    def temperature(self) -> Dyadic:
        return self.left_wall[-1][0]

    @property
    def mast(self) -> Dyadic:
        return self.left_wall[-1][1]

    def left_x(self, t: Dyadic) -> Dyadic:
        return value(self.left_wall, t)

    def right_x(self, t: Dyadic) -> Dyadic:
        return value(self.right_wall, t)

    def validate(self) -> "Thermograph":
        validate(self.left_wall, {0, -1})
        validate(self.right_wall, {0, 1})
        if self.left_wall[-1] != self.right_wall[-1]:
            raise ValueError("walls do not meet at their last point")
        return self

    def to_json_dict(self) -> dict:
        def pts(wall):
            return [{"t": str(t), "x": str(x)} for t, x in wall]

        return {
            "temperature": str(self.temperature),
            "mast": str(self.mast),
            "left_wall": pts(self.left_wall),
            "right_wall": pts(self.right_wall),
        }


def thermograph(g: Game) -> Thermograph:
    store = g.store
    memo = store.cache("thermograph")

    def rec(ci: int) -> Thermograph:
        got = memo.get(ci)
        if got is not None:
            return got
        x = store._number_value(ci)
        if x is not None and x.is_integer:
            res = Thermograph(((MINUS_ONE, x),), ((MINUS_ONE, x),))
        else:
            # canonical non-integers always have options on both sides
            m = merge([rec(l).right_wall for l in store._left[ci]], max)
            w = merge([rec(r).left_wall for r in store._right[ci]], min)
            res = Thermograph(*walls(m, w))
        memo[ci] = res
        return res

    return rec(store._canonical(g.id))


def temperature(g: Game) -> Dyadic:
    return thermograph(g).temperature


def temp_mean(g: Game) -> tuple[Dyadic, Dyadic]:
    th = thermograph(g)
    return th.temperature, th.mast


# ---------------------------------------------------------------------------
# cooling


def cool(g: Game, t) -> Game:
    """G cooled by t (exact), in canonical form. Integers are fixed points;
    past the temperature the result is the mast value as a number."""
    t = dyadic(t)
    if t < MINUS_ONE:
        raise DomainError(f"cooling needs t >= -1, got {t}")
    store = g.store
    memo = store.cache("cool")

    def rec(ci: int, t: Dyadic) -> int:
        x = store._number_value(ci)
        if x is not None and x.is_integer:
            return ci
        key = (ci, t)
        got = memo.get(key)
        if got is not None:
            return got
        th = thermograph(Game(store, ci))
        if t > th.temperature:
            res = store.number(th.mast).id
        else:
            tax = store.number(t).id
            left = [store._add(rec(l, t), store._negate(tax)) for l in store._left[ci]]
            right = [store._add(rec(r, t), tax) for r in store._right[ci]]
            # canonical, so the tax sums one level up translate it by a number
            res = store._canonical(store._node(left, right))
        memo[key] = res
        return res

    return Game(store, rec(store._canonical(g.id), t))


# ---------------------------------------------------------------------------
# thermic versions


def thermic_versions(g: Game) -> list[tuple[Game, Game]]:
    """All option pairs (G^L, G^R) with t({G^L|G^R}) = t(G).

    Exhaustive over the given node's own options; nonempty for every hot
    game. Raises NotHotError otherwise.
    """
    if not is_hot(g):
        raise NotHotError(f"{g} is not hot (stops {stops(g)})")
    store = g.store
    target = temperature(g)
    pairs = []
    for gl in g.left_options:
        for gr in g.right_options:
            if temperature(store.make([gl], [gr])) == target:
                pairs.append((gl, gr))
    return pairs


# ---------------------------------------------------------------------------
# turning-point decomposition of walls


@dataclass(frozen=True)
class WallDecomposition:
    """Segments of one wall between t=0 and the temperature.

    turning_points = t_0=0 < ... < t_k = t(G); kinds[i] classifies the
    segment starting at t_i as "vertical" (x constant) or "oblique"
    (|dx/dt| = 1); t_vertical/t_oblique are the total t-lengths of each
    kind, and they sum to the temperature.
    """

    side: str
    turning_points: tuple[Dyadic, ...]
    kinds: tuple[str, ...]
    t_vertical: Dyadic
    t_oblique: Dyadic


def _decompose(wall: Wall, t_star: Dyadic, side: str) -> WallDecomposition:
    ts = [ZERO, *(t for t, _ in wall if ZERO < t < t_star), t_star]
    # no breakpoint lies strictly inside a segment, so one slope holds on it
    kinds = tuple("oblique" if s else "vertical" for _, s in values(wall, ts[:-1]))
    t_ver = sum((t1 - t0 for t0, t1, k in zip(ts, ts[1:], kinds) if k == "vertical"), ZERO)
    return WallDecomposition(side, tuple(ts), kinds, t_ver, t_star - t_ver)


def wall_decomposition(g: Game) -> tuple[WallDecomposition, WallDecomposition]:
    """Decompose both walls of a two-option hot game (a thermic version)."""
    if len(g.left_options) != 1 or len(g.right_options) != 1:
        raise WrongShapeError(
            "wall decomposition needs exactly one option per side, got "
            f"{len(g.left_options)}|{len(g.right_options)}"
        )
    if not is_hot(g):
        raise NotHotError(f"{g} is not hot (stops {stops(g)})")
    th = thermograph(g)
    return (
        _decompose(th.left_wall, th.temperature, "left"),
        _decompose(th.right_wall, th.temperature, "right"),
    )


def temp_upper_bound(g: Game) -> Dyadic:
    """Upper bound ell(H) + ell(G)/2 >= t(G) from a thermic version,
    where H is the thermic option on the side with the longer vertical
    share of its wall."""
    store = g.store
    gl, gr = thermic_versions(g)[0]
    two = store.make([gl], [gr])
    dl, dr = wall_decomposition(two)
    h = gl if dl.t_vertical >= dr.t_vertical else gr
    return ell(h) + ell(g).half()
