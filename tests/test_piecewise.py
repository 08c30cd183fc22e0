import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotgames.dyadic import Dyadic
from hotgames.piecewise import merge, normalize, validate, value, walls

D = Dyadic


ALL_SLOPES = {-1, 0, 1}


def wall(*pts):
    return tuple((D(t), D(x)) for t, x in pts)


def test_value_constant_tail():
    t = wall((-1, 0), (2, 3))
    assert value(t, D(-1)) == 0
    assert value(t, D(0)) == 1
    assert value(t, D(2)) == 3
    assert value(t, D(100)) == 3


def test_value_below_domain_rejected():
    with pytest.raises(ValueError):
        value(wall((-1, 0)), D(-2))


def test_bad_slope_rejected():
    with pytest.raises(ValueError):
        validate(wall((-1, 0), (0, 5)), ALL_SLOPES)


def test_merge_max_crossing_is_exact():
    a = wall((-1, 0), (3, 4))  # slope +1
    b = wall((-1, 2))  # constant 2
    m = merge([a, b], max)
    assert value(m, D(0)) == 2
    assert value(m, D(1)) == 2
    assert value(m, D(2)) == 3
    assert (D(1), D(2)) in m  # crossing breakpoint inserted


def test_merge_min_symmetry():
    a = wall((-1, 0), (3, 4))
    b = wall((-1, 2))
    m = merge([a, b], min)
    assert value(m, D(-1)) == 0
    assert value(m, D(2)) == 2


def test_normalize_drops_collinear():
    t = normalize([(D(-1), D(0)), (D(0), D(1)), (D(1), D(2)), (D(2), D(2))])
    assert t == ((D(-1), D(0)), (D(1), D(2)))


def test_walls_switch():
    # walls of {5|2}: m = const 5 (right wall of 5), w = const 2
    left, right = walls(wall((-1, 5)), wall((-1, 2)))
    assert left[-1] == right[-1] == (D(3, 1), D(7, 1))


def test_walls_at_start():
    left, right = walls(wall((-1, -1)), wall((-1, 1)))
    assert left[-1] == right[-1] == (D(-1), D(0))


def test_walls_crossed_walls_rejected():
    with pytest.raises(ValueError):
        walls(wall((-1, -5)), wall((-1, 5)))


# -- randomized merge correctness -------------------------------------------

segments = st.lists(
    st.tuples(st.integers(1, 4), st.sampled_from([-1, 0, 1])), min_size=0, max_size=5
)


def build(start: int, segs):
    t, x = D(-1), D(start)
    pts = [(t, x)]
    for dt, slope in segs:
        t = t + dt
        x = x + slope * dt
        pts.append((t, x))
    return normalize(pts)


@given(st.integers(-4, 4), segments, st.integers(-4, 4), segments, st.data())
def test_merge_matches_pointwise(sa, ga, sb, gb, data):
    a, b = build(sa, ga), build(sb, gb)
    hi = max(t for t, _ in a + b) + 2
    mx, mn = merge([a, b], max), merge([a, b], min)
    validate(mx, ALL_SLOPES), validate(mn, ALL_SLOPES)
    num = data.draw(st.integers(-4 * 8, int(hi) * 8))
    t = D(num, 3)
    if t < D(-1):
        t = D(-1)
    assert value(mx, t) == max(value(a, t), value(b, t))
    assert value(mn, t) == min(value(a, t), value(b, t))


scaffold_segments = st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=5)


@given(st.integers(-4, 4), scaffold_segments, st.integers(0, 8), scaffold_segments)
def test_walls_match_pointwise(sm, gm, gap0, gw):
    # m is a left-wall scaffold (slopes {0,+1}), w a right-wall one (slopes
    # {0,-1}), and m(-1) - w(-1) + 2 = gap0 >= 0
    m = build(sm, [(dt, int(up)) for dt, up in gm])
    w = build(sm + 2 - gap0, [(dt, -int(down)) for dt, down in gw])
    left, right = walls(m, w)
    t_star, mast = left[-1]

    def gap(t):
        return value(m, t) - value(w, t) - t - t

    grid = [D(k - 8, 3) for k in range(8 * 40)]
    assert t_star == next(t for t in grid if gap(t).num == 0)
    assert mast == value(m, t_star) - t_star
    assert left[-1] == right[-1] == (t_star, mast)
    assert all(x == value(m, t) - t for t, x in left)
    assert all(x == value(w, t) + t for t, x in right)
    for t in (t for t in grid if t <= t_star):
        assert value(left, t) == value(m, t) - t
        assert value(right, t) == value(w, t) + t
