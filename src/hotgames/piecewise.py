"""Exact piecewise-linear walls with slopes in {-1, 0, +1}.

A wall is a tuple of (t, x) breakpoints that starts at t = -1. It maps
t in [-1, +inf) to a dyadic x: linear between breakpoints, constant after
the last one. Thermograph construction only ever needs pointwise max/min
and the first meeting point of two walls sheared against each other.
Slope differences are always 1 or 2, so every derived breakpoint stays
dyadic and the whole computation is exact.
"""

from __future__ import annotations

from functools import reduce

from .dyadic import MINUS_ONE, Dyadic

Point = tuple[Dyadic, Dyadic]
Wall = tuple[Point, ...]


def _segment_slope(t0: Dyadic, x0: Dyadic, t1: Dyadic, x1: Dyadic) -> int:
    dx = x1 - x0
    dt = t1 - t0
    if dx.num == 0:
        return 0
    if dx == dt:
        return 1
    if dx == -dt:
        return -1
    raise ValueError(f"segment ({t0},{x0})-({t1},{x1}) has slope outside {{-1,0,1}}")


def validate(wall: Wall, slopes: set[int]) -> Wall:
    """Raise ValueError unless the wall starts at t = -1, its breakpoints
    increase in t and every segment's slope is in slopes."""
    if not wall or wall[0][0] != MINUS_ONE:
        raise ValueError("wall must start at t = -1")
    for p, q in zip(wall, wall[1:]):
        if not p[0] < q[0]:
            raise ValueError(f"breakpoints out of order at t={q[0]}")
        if (s := _segment_slope(*p, *q)) not in slopes:
            raise ValueError(f"wall slope {s} not in {slopes}")
    return wall


def values(wall: Wall, ts: list[Dyadic]):
    """The wall's value at each of the increasing times ts, with its slope
    just after that time."""
    slopes = [_segment_slope(*p, *q) for p, q in zip(wall, wall[1:])] + [0]
    i = 0
    for t in ts:
        while i + 1 < len(wall) and wall[i + 1][0] <= t:
            i += 1
        (t0, x0), s = wall[i], slopes[i]
        yield x0 + (t - t0) * s if s else x0, s


def value(wall: Wall, t: Dyadic) -> Dyadic:
    if t < MINUS_ONE:
        raise ValueError(f"wall undefined below t = -1 (got {t})")
    return next(values(wall, [t]))[0]


def drop_collinear(points: list[Point]) -> list[Point]:
    """Delete, in place, every interior breakpoint that lies on the line
    through its neighbours; both endpoints are always kept."""
    i = 1
    while i < len(points) - 1:
        (t0, x0), (t1, x1), (t2, x2) = points[i - 1], points[i], points[i + 1]
        if (x1 - x0) * (t2 - t1) == (x2 - x1) * (t1 - t0):
            del points[i]
        else:
            i += 1
    return points


def normalize(points: list[Point]) -> Wall:
    """Drop repeated and collinear breakpoints."""
    out: list[Point] = []
    for p in points:
        if out and out[-1][0] == p[0]:
            if out[-1][1] != p[1]:
                raise ValueError(f"conflicting values at t={p[0]}")
            continue
        out.append(p)
    drop_collinear(out)
    # a final segment of slope 0 is already implied by the constant tail
    if len(out) >= 2 and out[-1][1] == out[-2][1]:
        del out[-1]
    return tuple(out)


def _sweep(a: Wall, b: Wall, shear: int):
    """Yield (t, a(t), b(t)) at every breakpoint of a or b, in order, and
    at each point strictly between two of them where the gap
    a(t) - b(t) - shear*t changes strict sign.

    Every caller keeps the gap's slope at +-1 or +-2 there, so an inserted
    crossing t0 + |gap(t0)| or t0 + |gap(t0)|/2 stays dyadic.
    """
    ts = sorted({t for t, _ in a} | {t for t, _ in b})
    rows = [
        (t, xa, sa, xb, sb, xa - xb - t * shear)
        for t, (xa, sa), (xb, sb) in zip(ts, values(a, ts), values(b, ts))
    ]
    yield ts[0], rows[0][1], rows[0][3]
    for (t0, xa0, sa0, xb0, sb0, d0), (t, xa, _, xb, _, d) in zip(rows, rows[1:]):
        if d0.num * d.num < 0:
            dt = abs(d0) if abs(sa0 - sb0 - shear) == 1 else abs(d0).half()
            yield t0 + dt, xa0 + dt * sa0, xb0 + dt * sb0
        yield t, xa, xb


def merge(ws: list[Wall], pick) -> Wall:
    """The pointwise pick (max or min) of the walls."""
    return reduce(
        lambda a, b: normalize([(t, pick(xa, xb)) for t, xa, xb in _sweep(a, b, 0)]), ws
    )


def walls(m: Wall, w: Wall) -> tuple[Wall, Wall]:
    """The left and right walls of the thermograph whose left wall is
    x = m(t) - t and right wall x = w(t) + t up to the first t >= -1 where
    they meet, which is both walls' last point.

    Their gap f(t) = m(t) - w(t) - 2t is continuous, piecewise linear and
    non-increasing with slopes in {0,-1,-2}, so the first zero exists and
    is dyadic.
    """
    left: list[Point] = []
    right: list[Point] = []
    for t, xm, xw in _sweep(m, w, 2):
        lx, rx = xm - t, xw + t
        if lx < rx:
            raise ValueError("walls already crossed at t = -1")
        left.append((t, lx))
        right.append((t, rx))
        if lx == rx:
            break
    else:
        # past every breakpoint both scaffolds are constant: slope is -2
        t = t + (lx - rx).half()
        left.append((t, xm - t))
        right.append((t, xw + t))
    # not normalize(): a wall keeps its flat final segment up to the mast
    return tuple(drop_collinear(left)), tuple(drop_collinear(right))
