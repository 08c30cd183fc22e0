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
from .piecewise import (
    Trajectory,
    freeze_point,
    merge_max,
    merge_min,
)

Point = tuple[Dyadic, Dyadic]


# ---------------------------------------------------------------------------
# stops and confusion interval


def stops(g: Game) -> tuple[Dyadic, Dyadic]:
    """(left stop, right stop), computed on the canonical form."""
    store = g.store
    memo = store.cache("stops")

    def rec(ci: int) -> tuple[Dyadic, Dyadic]:
        got = memo.get(ci)
        if got is not None:
            return got
        x = store._number_value(ci)
        if x is not None:
            res = (x, x)
        else:
            ls = max(rec(l)[1] for l in store._left[ci])
            rs = min(rec(r)[0] for r in store._right[ci])
            res = (ls, rs)
        memo[ci] = res
        return res

    return rec(store._canonical(g.id))


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
    """Exact thermograph: walls on t in [-1, temperature], mast above.

    Wall x-coordinates follow the plotting convention that larger values
    sit further left; the left wall is non-increasing in t with segment
    slopes in {0,-1}, the right wall non-decreasing with slopes {0,+1},
    and both end at (temperature, mast).
    """

    temperature: Dyadic
    mast: Dyadic
    left_wall: tuple[Point, ...]
    right_wall: tuple[Point, ...]

    @property
    def mean(self) -> Dyadic:
        return self.mast

    def left_x(self, t: Dyadic) -> Dyadic:
        return Trajectory(self.left_wall).value(t)

    def right_x(self, t: Dyadic) -> Dyadic:
        return Trajectory(self.right_wall).value(t)

    def validate(self) -> "Thermograph":
        for wall, slopes in ((self.left_wall, {0, -1}), (self.right_wall, {0, 1})):
            Trajectory(wall).validate()
            for (t0, x0), (t1, x1) in zip(wall, wall[1:]):
                dx = x1 - x0
                s = 0 if dx.num == 0 else (1 if dx == t1 - t0 else -1)
                if s not in slopes:
                    raise ValueError(f"wall slope {s} not in {slopes}")
            if wall[-1] != (self.temperature, self.mast):
                raise ValueError("wall does not end at the mast")
            if wall[0][0] != MINUS_ONE:
                raise ValueError("wall does not start at t = -1")
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


def _wall_points(scaffold: Trajectory, shear: int, t_star: Dyadic, mast: Dyadic):
    """Breakpoints of x(t) = scaffold(t) + shear*t on [-1, t_star]."""
    pts: list[Point] = []
    for t, _ in scaffold.points:
        if t >= t_star:
            break
        pts.append((t, scaffold.value(t) + t * shear))
    pts.append((t_star, mast))
    # drop collinear interior points, always keeping both endpoints
    i = 1
    while i < len(pts) - 1:
        (t0, x0), (t1, x1), (t2, x2) = pts[i - 1], pts[i], pts[i + 1]
        if (x1 - x0) * (t2 - t1) == (x2 - x1) * (t1 - t0):
            del pts[i]
        else:
            i += 1
    return tuple(pts)


def thermograph(g: Game) -> Thermograph:
    store = g.store
    memo = store.cache("thermograph")

    def rec(ci: int) -> Thermograph:
        got = memo.get(ci)
        if got is not None:
            return got
        x = store._number_value(ci)
        if x is not None and x.is_integer:
            res = Thermograph(MINUS_ONE, x, ((MINUS_ONE, x),), ((MINUS_ONE, x),))
        else:
            # canonical non-integers always have options on both sides
            m = merge_max([Trajectory(rec(l).right_wall) for l in store._left[ci]])
            w = merge_min([Trajectory(rec(r).left_wall) for r in store._right[ci]])
            t_star, mast = freeze_point(m, w)
            res = Thermograph(
                t_star,
                mast,
                _wall_points(m, -1, t_star, mast),
                _wall_points(w, +1, t_star, mast),
            )
        memo[ci] = res
        return res

    return rec(store._canonical(g.id))


def temperature(g: Game) -> Dyadic:
    return thermograph(g).temperature


def mean(g: Game) -> Dyadic:
    return thermograph(g).mast


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

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "turning_points": [str(t) for t in self.turning_points],
            "kinds": list(self.kinds),
            "t_vertical": str(self.t_vertical),
            "t_oblique": str(self.t_oblique),
        }


def _decompose(wall: tuple[Point, ...], t_star: Dyadic, side: str) -> WallDecomposition:
    traj = Trajectory(wall)
    ts = [ZERO]
    ts += [t for t, _ in wall if ZERO < t < t_star]
    ts.append(t_star)
    kinds = []
    t_ver = ZERO
    t_obl = ZERO
    for t0, t1 in zip(ts, ts[1:]):
        if traj.value(t0) == traj.value(t1):
            kinds.append("vertical")
            t_ver = t_ver + (t1 - t0)
        else:
            kinds.append("oblique")
            t_obl = t_obl + (t1 - t0)
    return WallDecomposition(side, tuple(ts), tuple(kinds), t_ver, t_obl)


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
