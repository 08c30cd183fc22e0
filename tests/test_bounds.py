import pytest

from hotgames import (
    DomainError,
    Dyadic,
    EmptyClassError,
    bp_bound,
    class_scan,
    confusion_witness,
    dom_game,
    ell,
    minimal_confusion_k,
    parse_expr,
    snake_enumerate,
    snort_game,
    snort_path,
    temperature,
    tightness_sequence,
)
from hotgames.sampling import random_game
from hotgames.tables import snort_path_board

from oracle import minimal_k_by_scan, raw_witness

D = Dyadic


def test_witness_holds_at_three(store):
    report = confusion_witness(parse_expr("{1|-1}", store), 3, store.up)
    assert report.holds and report.failing_option is None


def test_witness_fails_at_two_despite_ell_two(store):
    g = parse_expr("{1|-1}", store)
    report = confusion_witness(g, 2, store.up)
    assert not report.holds
    assert report.failing_option == store.number(1)
    assert ell(g) == 2  # the witness bound is not tight here


def test_witness_trivial_integer(store):
    report = confusion_witness(store.number(1), 0, store.zero)
    assert report.holds


def test_witness_epsilon_must_be_infinitesimal(store):
    with pytest.raises(DomainError):
        confusion_witness(parse_expr("{1|-1}", store), 2, store.number(1))


def test_witness_negative_k_rejected(store):
    with pytest.raises(DomainError):
        confusion_witness(store.zero, -1)


def test_minimal_k_switch(store):
    assert minimal_confusion_k(parse_expr("{1|-1}", store), step=1) == 3


def test_minimal_k_no_left_options(store):
    assert minimal_confusion_k(store.zero, step=1) == 0
    assert minimal_confusion_k(store.number(-2), step=1) == 0


def test_minimal_k_snort_p5_below_paper_constant(store):
    p5 = snort_game(snort_path(5), store)
    k = minimal_confusion_k(p5, step=1)
    assert k <= 5  # the published strategy uses 5; the search finds 4
    assert k == 4


def test_minimal_k_half_grid(store):
    g = parse_expr("{1|-1}", store)
    k = minimal_confusion_k(g, step=D(1, 1))
    assert k == D(5, 1)  # 2 + 1/2: '+5/2' brings the stop to -1/2 < 0


def test_minimal_k_has_no_ceiling(store):
    # the stop bracket is [0, 600] and the answers lie past the old ceiling
    # of 256; G + k is G translated by the number k, so the compared nodes
    # stay small for every k and eps
    g = parse_expr("{300|-300}", store)
    assert minimal_confusion_k(g, 1, store.zero) == 601
    assert minimal_confusion_k(g, 1) == 601  # eps up
    assert minimal_confusion_k(g, 1, store.star) == 600


@pytest.mark.parametrize("expr", ["{1|-1}", "0"])
def test_minimal_k_epsilon_must_be_infinitesimal(store, expr):
    # checked even where the bracket leaves nothing to test ("0" has no
    # Left option)
    with pytest.raises(DomainError):
        minimal_confusion_k(parse_expr(expr, store), 1, store.number(1))


def test_minimal_k_matches_linear_scan(store, rng):
    games = []
    for family in ("P", "LP", "LPL", "LPR"):
        for n in range(1, 9):
            board = snort_path_board(family, n)
            if board is not None:
                games.append(snort_game(board, store))
    # canonical forms, as the scans pass them, and a few smaller raw forms,
    # whose witness sums are slow to build (the bracket holds for any form)
    games += [random_game(rng, store, max_depth=2).canonical() for _ in range(200)]
    games += [random_game(rng, store, max_depth=2, max_options=2) for _ in range(50)]
    for g in games:
        for eps in (store.up, store.down, store.star, store.zero):
            for step in (D(1), D(1, 1), D(1, 2)):
                assert minimal_confusion_k(g, step, eps) == minimal_k_by_scan(
                    g, step, eps
                ), (g, step, eps)


def test_witness_matches_raw_sum(store, rng):
    # the comparison G^L + eps <= G + k against the raw sum G^L - G + eps
    # compared with k by the definitions, at the minimal K and one step
    # below it, on the games of the linear-scan test
    games = []
    for family in ("P", "LP", "LPL", "LPR"):
        for n in range(1, 9):
            board = snort_path_board(family, n)
            if board is not None:
                games.append(snort_game(board, store))
    games += [random_game(rng, store, max_depth=2).canonical() for _ in range(200)]
    games += [random_game(rng, store, max_depth=2, max_options=2) for _ in range(50)]
    cases = 0
    for g in games:
        for eps in (store.up, store.down, store.star, store.zero):
            for step in (D(1), D(1, 1), D(1, 2)):
                least = minimal_confusion_k(g, step, eps)
                for k in (least, least - step):
                    if k >= 0:
                        cases += 1
                        assert confusion_witness(g, k, eps).holds == raw_witness(
                            store, g, k, eps
                        ), (g, k, eps)
    assert cases == 4527


def test_witness_soundness_random(store, rng):
    # holds at K implies ell <= K (the engine also self-checks this)
    for _ in range(200):
        g = random_game(rng, store, max_depth=2)
        for k in (0, 1, 2, 4):
            if confusion_witness(g, k).holds:
                assert ell(g) <= k


def test_bp_bound_values():
    assert bp_bound(6, 6) == 9
    assert bp_bound(0, 0) == 0
    assert bp_bound(2, 2) == 3
    with pytest.raises(DomainError):
        bp_bound(-1, 2)


def test_class_scan_integers(store):
    report = class_scan([store.number(i) for i in range(-3, 4)], "integers")
    assert report.positions_scanned == 7
    assert report.max_ell == 0
    assert report.max_ell_options == 0
    assert report.bp_bound == 0
    assert report.max_observed_temp <= 0


def test_class_scan_snakes(store):
    games = [dom_game(b, store) for b in snake_enumerate(6)]
    report = class_scan(games, "snakes 2x6")
    assert report.max_ell <= 2
    assert report.bp_bound <= 3
    assert report.max_observed_temp <= report.bp_bound


def test_class_scan_snort_paths(store):
    games = []
    for family in ("P", "LP", "LPL", "LPR"):
        for n in range(1, 9):
            board = snort_path_board(family, n)
            if board is not None:
                games.append(snort_game(board, store))
    report = class_scan(games, "snort paths n<=8")
    assert report.max_ell <= 5
    assert report.bp_bound <= D(15, 1)
    assert report.max_observed_temp <= report.bp_bound


def test_class_scan_empty(store):
    with pytest.raises(EmptyClassError):
        class_scan([], "nothing")


def test_class_scan_json(store):
    report = class_scan([store.number(0)], "zero")
    assert report.to_json_dict()["positions_scanned"] == 1


def test_tightness_temperatures(store):
    seq = tightness_sequence(6, store)
    assert len(seq) == 7
    for i, (g, t) in enumerate(seq):
        assert t == D(9) - D(3, i)
        assert t <= 9
    temps = [t for _, t in seq]
    assert all(a < b for a, b in zip(temps, temps[1:]))


def test_tightness_structure(store):
    g0, _ = tightness_sequence(0, store)[0]
    assert g0 == parse_expr("±{9|3}", store)
    g2, _ = tightness_sequence(2, store)[2]
    assert g2 == parse_expr("±{{{21|15}|9}|3}", store)


def test_tightness_respects_upper_bound(store):
    from hotgames import temp_upper_bound

    for g, t in tightness_sequence(4, store):
        assert t <= temp_upper_bound(g) == 9
