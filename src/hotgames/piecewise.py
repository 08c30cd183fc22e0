"""Exact piecewise-linear trajectories with slopes in {-1, 0, +1}.

A trajectory maps t in [-1, +inf) to a dyadic x: linear between
breakpoints, constant after the last one. Thermograph walls are
trajectories, and wall construction only ever needs pointwise max/min
and the first meeting point of two walls sheared against each other.
Slope differences are always 1 or 2, so every derived breakpoint stays
dyadic and the whole computation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .dyadic import MINUS_ONE, Dyadic

Point = tuple[Dyadic, Dyadic]


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


@dataclass(frozen=True)
class Trajectory:
    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("trajectory needs at least one breakpoint")
        if self.points[0][0] != MINUS_ONE:
            raise ValueError("trajectory must start at t = -1")

    def validate(self) -> "Trajectory":
        for (t0, x0), (t1, x1) in zip(self.points, self.points[1:]):
            if not t0 < t1:
                raise ValueError(f"breakpoints out of order at t={t1}")
            _segment_slope(t0, x0, t1, x1)
        return self

    def value(self, t: Dyadic) -> Dyadic:
        if t < MINUS_ONE:
            raise ValueError(f"trajectory undefined below t = -1 (got {t})")
        pts = self.points
        if t >= pts[-1][0]:
            return pts[-1][1]
        for (t0, x0), (t1, x1) in zip(pts, pts[1:]):
            if t <= t1:
                s = _segment_slope(t0, x0, t1, x1)
                return x0 + (t - t0) * s if s else x0
        raise AssertionError("unreachable")

    def breakpoints(self) -> tuple[Dyadic, ...]:
        return tuple(t for t, _ in self.points)

    @staticmethod
    def constant(x: Dyadic) -> "Trajectory":
        return Trajectory(((MINUS_ONE, x),))


def normalize(points: list[Point]) -> Trajectory:
    """Drop repeated and collinear breakpoints."""
    out: list[Point] = []
    for p in points:
        if out and out[-1][0] == p[0]:
            if out[-1][1] != p[1]:
                raise ValueError(f"conflicting values at t={p[0]}")
            continue
        out.append(p)
    i = 1
    while i < len(out) - 1:
        (t0, x0), (t1, x1), (t2, x2) = out[i - 1], out[i], out[i + 1]
        if (x1 - x0) * (t2 - t1) == (x2 - x1) * (t1 - t0):
            del out[i]
        else:
            i += 1
    # a final segment of slope 0 is already implied by the constant tail
    if len(out) >= 2 and out[-1][1] == out[-2][1]:
        del out[-1]
    return Trajectory(tuple(out))


def _merge(a: Trajectory, b: Trajectory, take_max: bool) -> Trajectory:
    ts = sorted({t for t, _ in a.points} | {t for t, _ in b.points})
    pick = max if take_max else min
    out: list[Point] = [(ts[0], pick(a.value(ts[0]), b.value(ts[0])))]
    for t0, t1 in zip(ts, ts[1:]):
        a0, a1 = a.value(t0), a.value(t1)
        b0, b1 = b.value(t0), b.value(t1)
        d0, d1 = a0 - b0, a1 - b1
        if (d0.num > 0 > d1.num) or (d0.num < 0 < d1.num):
            # strict crossing inside the interval: t_x - t0 = d0 / (sb - sa)
            sa = _segment_slope(t0, a0, t1, a1)
            sb = _segment_slope(t0, b0, t1, b1)
            diff = sb - sa
            step = d0 if abs(diff) == 1 else d0.half()
            tx = t0 + (step if diff > 0 else -step)
            out.append((tx, a0 + (tx - t0) * sa))
        out.append((t1, pick(a1, b1)))
    return normalize(out)


def merge_max(trajectories: list[Trajectory]) -> Trajectory:
    return reduce(lambda x, y: _merge(x, y, True), trajectories)


def merge_min(trajectories: list[Trajectory]) -> Trajectory:
    return reduce(lambda x, y: _merge(x, y, False), trajectories)


def freeze_point(m: Trajectory, w: Trajectory) -> tuple[Dyadic, Dyadic]:
    """First t >= -1 where the sheared walls meet.

    m is the scaffold of the left wall (x = m(t) - t) and w of the right
    wall (x = w(t) + t); their gap f(t) = m(t) - w(t) - 2t is continuous,
    piecewise linear and non-increasing with slopes in {0,-1,-2}, so the
    first zero exists and is dyadic. Returns (t*, mast value m(t*) - t*).
    """
    ts = sorted({t for t, _ in m.points} | {t for t, _ in w.points})

    def f(t: Dyadic) -> Dyadic:
        return m.value(t) - w.value(t) - t - t

    f0 = f(ts[0])
    if f0.num < 0:
        raise ValueError("walls already crossed at t = -1")
    if f0.num == 0:
        return ts[0], m.value(ts[0]) - ts[0]
    for t0, t1 in zip(ts, ts[1:]):
        f1 = f(t1)
        if f1.num > 0:
            continue
        if f1.num == 0:
            return t1, m.value(t1) - t1
        f0 = f(t0)
        slope = _exact_int_slope(f0, f1, t0, t1)
        tx = t0 + (f0 if slope == -1 else f0.half())
        return tx, m.value(tx) - tx
    # past every breakpoint both scaffolds are constant: slope is -2
    t_last = ts[-1]
    f_last = f(t_last)
    tx = t_last + f_last.half()
    return tx, m.value(tx) - tx


def _exact_int_slope(f0: Dyadic, f1: Dyadic, t0: Dyadic, t1: Dyadic) -> int:
    df = f1 - f0
    dt = t1 - t0
    if df == -dt:
        return -1
    if df == -dt - dt:
        return -2
    raise ValueError("gap function slope outside {-1,-2} at a sign change")
