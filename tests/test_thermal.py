import random

import pytest

from hotgames import (
    DomainError,
    Dyadic,
    NotHotError,
    Thermograph,
    WrongShapeError,
    cool,
    ell,
    format_game,
    infinitesimally_close,
    is_hot,
    parse_expr,
    stops,
    temp_mean,
    temp_upper_bound,
    temperature,
    thermic_versions,
    thermograph,
    wall_decomposition,
)
from hotgames.sampling import random_dyadic, random_game, random_hot_game

from oracle import wall_segments

D = Dyadic


# -- stops / ell --------------------------------------------------------------


def test_stops_number(store):
    assert stops(store.number(5)) == (D(5), D(5))
    assert stops(store.number(D(-3, 2))) == (D(-3, 2), D(-3, 2))


def test_stops_switch(store):
    assert stops(parse_expr("{5|2}", store)) == (D(5), D(2))


def test_stops_threat_game(store):
    g = parse_expr("{{10|1}|-1}", store)
    assert stops(g) == (D(1), D(-1))
    assert ell(g) == 2
    # same confusion interval as the plain switch
    assert stops(parse_expr("{1|-1}", store)) == (D(1), D(-1))


def test_ell_examples(store):
    assert ell(store.number(7)) == 0
    assert ell(store.number(D(1, 1))) == 0
    assert ell(parse_expr("±{9|3}", store)) == 6


def test_stops_non_canonical_number_representation(store):
    # {1/2|} is the integer 1 in disguise; stops must see through it
    g = store.make([store.number(D(1, 1))], [])
    assert stops(g) == (D(1), D(1))


# -- cooling ------------------------------------------------------------------


def test_cool_integer_fixed_point(store):
    assert cool(store.number(7), 100) == store.number(7)
    assert cool(store.number(7), -1) == store.number(7)


def test_cool_switch_below_temperature(store):
    g = parse_expr("{5|2}", store)
    assert cool(g, 1).eq(parse_expr("{4|3}", store))


def test_cool_switch_above_temperature(store):
    g = parse_expr("{5|2}", store)
    assert cool(g, 2) == store.number(D(7, 1))
    assert cool(g, 1000) == store.number(D(7, 1))


def test_cool_at_temperature_is_tepid(store):
    g = parse_expr("{5|2}", store)
    frozen = cool(g, D(3, 1))
    assert infinitesimally_close(frozen, store.number(D(7, 1)))


def test_cool_below_minus_one_rejected(store):
    with pytest.raises(DomainError):
        cool(store.star, D(-3, 1))


def test_cool_negative_t_heats(store):
    # *, heated by 1, is the switch {1|-1}
    assert cool(store.star, -1).eq(parse_expr("{1|-1}", store))


# -- thermographs -------------------------------------------------------------


def test_thermograph_integer_vertical_line(store):
    th = thermograph(store.number(7))
    assert th.temperature == -1 and th.mast == 7
    assert th.left_wall == th.right_wall == ((D(-1), D(7)),)
    th.validate()


def test_thermograph_switch(store):
    th = thermograph(parse_expr("{5|2}", store))
    assert (th.temperature, th.mast) == (D(3, 1), D(7, 1))
    th.validate()


def test_thermograph_nested_example(store):
    th = thermograph(parse_expr("{{5|2}|{-2|-3}}", store))
    assert (th.temperature, th.mast) == (D(3), D(1, 1))
    # left wall vertical at 2 until 3/2, then oblique 7/2 - t
    assert th.left_wall == ((D(-1), D(2)), (D(3, 1), D(2)), (D(3), D(1, 1)))
    # right wall vertical at -2 until 1/2, then oblique -5/2 + t
    assert th.right_wall == ((D(-1), D(-2)), (D(1, 1), D(-2)), (D(3), D(1, 1)))
    th.validate()


def test_thermograph_walls_meet_at_temperature_and_mast(store, rng):
    for _ in range(200):
        th = thermograph(random_game(rng, store)).validate()
        assert th.left_wall[-1] == th.right_wall[-1] == (th.temperature, th.mast)


def test_thermograph_walls_that_do_not_meet_rejected():
    with pytest.raises(ValueError):
        Thermograph(((D(-1), D(1)),), ((D(-1), D(0)),)).validate()


def test_thermograph_walls_cross_axis_at_stops(store, rng):
    for _ in range(200):
        g = random_game(rng, store)
        th = thermograph(g)
        ls, rs = stops(g)
        assert th.left_x(D(0)) == ls
        assert th.right_x(D(0)) == rs


def test_wall_cooling_consistency(store, rng):
    # walls are exactly the stops of the cooled game, sampled over [-1, t]
    for _ in range(60):
        g = random_game(rng, store, max_depth=2)
        th = thermograph(g)
        samples = {D(-1), D(0), th.temperature}
        samples |= {t for t, _ in th.left_wall + th.right_wall}
        lo = D(-1)
        for t in sorted(samples):
            mid = (lo + t).half()
            for s in (t, mid if mid >= D(-1) else t):
                ls, rs = stops(cool(g, s))
                assert ls == th.left_x(s), (format_game(g), str(s))
                assert rs == th.right_x(s)
            lo = t


def test_cold_number_temperatures(store):
    assert temp_mean(store.number(D(1, 1))) == (D(-1, 1), D(1, 1))
    assert temp_mean(store.number(D(3, 2))) == (D(-1, 2), D(3, 2))
    assert temp_mean(store.number(0)) == (D(-1), D(0))


# -- temperature / mean -------------------------------------------------------


def test_temp_mean_examples(store):
    assert temp_mean(parse_expr("±{9|3}", store)) == (D(6), D(0))
    assert temp_mean(parse_expr("±{{15|9}|3}", store)) == (D(15, 1), D(0))
    assert temp_mean(store.star) == (D(0), D(0))


def test_temperature_agrees_with_cooling_definition(store, rng):
    for _ in range(40):
        g = random_game(rng, store, max_depth=2)
        t, m = temp_mean(g)
        frozen = cool(g, max(t, D(-1)))
        assert infinitesimally_close(frozen, store.number(m))
        if t > D(-1):
            # strictly below the temperature the game is not yet a number
            before = cool(g, (t + max(t - 1, D(-1))).half())
            assert ell(before) > 0 or not infinitesimally_close(
                before, store.number(m)
            )


# -- thermic versions ---------------------------------------------------------


def test_thermic_versions_both_pairs(store):
    g = parse_expr("{{{3|1}|0},{2|0}|{-1|-2}}", store)
    pairs = {(format_game(a), format_game(b)) for a, b in thermic_versions(g)}
    assert pairs == {
        ("{{3|1}|0}", "{-1|-2}"),
        ("{2|0}", "{-1|-2}"),
    }


def test_thermic_versions_single_pair(store):
    g = parse_expr("{{2|-1},0|{-2|-4}}", store)
    pairs = [(format_game(a), format_game(b)) for a, b in thermic_versions(g)]
    assert pairs == [("{2|-1}", "{-2|-4}")]


def test_two_option_game_is_own_thermic_version(store):
    g = parse_expr("{5|2}", store)
    (pair,) = thermic_versions(g)
    assert pair == (g.left_options[0], g.right_options[0])


def test_thermic_versions_requires_hot(store):
    with pytest.raises(NotHotError):
        thermic_versions(store.number(3))
    with pytest.raises(NotHotError):
        thermic_versions(store.star)


def test_sampling_draws_are_fixed_by_the_seed(store):
    rng = random.Random(7)
    assert [str(random_dyadic(rng)) for _ in range(6)] == [
        "-7/2", "-13/2", "-5", "-13/2", "-5/4", "-6"
    ]
    rng = random.Random(7)
    assert [format_game(random_hot_game(rng, store)) for _ in range(3)] == [
        "{4|0}", "{5|-1}", "{{9|{7|7/2}}|2}"
    ]


def test_thermic_versions_nonempty_on_random_hot(store, rng):
    for _ in range(100):
        g = random_hot_game(rng, store)
        assert thermic_versions(g)


# -- wall decomposition -------------------------------------------------------


def test_wall_decomposition_worked_example(store):
    g = parse_expr("{{{6|4}|{2|0}}|{{0|-2}|{-4|-6}}}", store)
    left, right = wall_decomposition(g)
    assert temperature(g) == 3
    assert left.turning_points == (D(0), D(1), D(2), D(3))
    assert left.kinds == ("oblique", "vertical", "oblique")
    assert (left.t_vertical, left.t_oblique) == (D(1), D(2))
    assert (right.t_vertical, right.t_oblique) == (D(1), D(2))


def test_wall_decomposition_pure_oblique_switch(store):
    left, right = wall_decomposition(parse_expr("{5|2}", store))
    assert (left.t_vertical, left.t_oblique) == (D(0), D(3, 1))
    assert (right.t_vertical, right.t_oblique) == (D(0), D(3, 1))


def test_wall_decomposition_shape_errors(store):
    with pytest.raises(WrongShapeError):
        wall_decomposition(parse_expr("{1,2|-1}", store))
    with pytest.raises(NotHotError):
        wall_decomposition(parse_expr("{0|0}", store))


def test_decomposition_lemma_random(store, rng):
    # T_ver + T_obl = t(G) per wall; oblique totals sum to ell of the version
    for _ in range(150):
        g = random_hot_game(rng, store)
        for gl, gr in thermic_versions(g):
            two = store.make([gl], [gr])
            dl, dr = wall_decomposition(two)
            t = temperature(two)
            assert dl.t_vertical + dl.t_oblique == t
            assert dr.t_vertical + dr.t_oblique == t
            assert dl.t_oblique + dr.t_oblique == ell(two)


def test_wall_decomposition_matches_pointwise_oracle(store, rng):
    for _ in range(150):
        g = random_hot_game(rng, store)
        for gl, gr in thermic_versions(g):
            two = store.make([gl], [gr])
            th = thermograph(two)
            for d, wall in zip(wall_decomposition(two), (th.left_wall, th.right_wall)):
                ts, kinds = wall_segments(wall, th.temperature)
                assert (d.turning_points, d.kinds) == (ts, kinds)
                vertical = [b - a for a, b, k in zip(ts, ts[1:], kinds) if k == "vertical"]
                assert d.t_vertical == sum(vertical, D(0))


# -- temperature upper bound --------------------------------------------------


def test_temp_upper_bound_worked_example(store):
    g = parse_expr("{{{6|4}|{2|0}}|{{0|-2}|{-4|-6}}}", store)
    assert temp_upper_bound(g) == 4
    assert temperature(g) == 3


def test_temp_upper_bound_symmetric_switch(store):
    g = parse_expr("±{9|3}", store)
    assert temp_upper_bound(g) == 9
    assert temperature(g) == 6


def test_temp_upper_bound_requires_hot(store):
    with pytest.raises(NotHotError):
        temp_upper_bound(store.number(2))


def test_hot_iff_positive_temperature(store, rng):
    for _ in range(300):
        g = random_game(rng, store)
        assert is_hot(g) == (temperature(g) > 0)
        ls, rs = stops(g)
        if ls == rs:
            assert temperature(g) <= 0
    assert temp_mean(parse_expr("{5|2}", store)) == (D(3, 1), D(7, 1))
