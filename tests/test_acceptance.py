"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.

Known caveat, visible in criterion 7: the published small-board
Domineering table prints temperature 0 for 2x1 and 2x5, but those boards
are the exact numbers 1 and 1/2, whose temperatures under the cooling
definition are -1 and -1/2 (the same source's Snort tables do report -1
for number-valued boards). The criterion is asserted as stated and fails
on those two cells; every computed value is the definition-exact one.
"""

import random
import time

import pytest

from hotgames import (
    Dyadic,
    GameStore,
    Outcome,
    class_scan,
    confusion_witness,
    dom_game,
    drummond_cole_board,
    ell,
    grid,
    minimal_confusion_k,
    parse_expr,
    snake_enumerate,
    snort_game,
    snort_grid,
    snort_star,
    stops,
    temp_upper_bound,
    temperature,
    thermic_versions,
    thermograph,
    tightness_sequence,
    wall_decomposition,
)
from hotgames.budget import Deadline
from hotgames.errors import NodeBudgetError, TimeBudgetError
from hotgames.piecewise import value
from hotgames.sampling import random_game, random_hot_game
from hotgames.tables import SNORT_PATH_REFERENCE, snort_path_board

D = Dyadic


@pytest.fixture(scope="module")
def store():
    return GameStore()


def verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print("\n" + line)
    return ok


def test_c01_canonical_form_oracle(store):
    rng = random.Random(101)
    start = time.monotonic()
    games = [random_game(rng, store, max_depth=3, max_options=3) for _ in range(1000)]
    bad = 0
    for g in games:
        if (g - g.canonical()).outcome() != Outcome.P:
            bad += 1
    for g, h in zip(games, games[1:]):
        if g.eq(h) != (g.canonical() == h.canonical()):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 60
    assert verdict(
        1, "canonical-form oracle equivalence", ok,
        f"1000 games, {bad} violations, {elapsed:.1f}s",
    )


def test_c02_stop_and_temperature_laws(store):
    rng = random.Random(202)
    bad = 0
    for _ in range(1000):
        g = random_game(rng, store)
        h = random_game(rng, store)
        ls_g, rs_g = stops(g)
        ls_h, rs_h = stops(h)
        s = g + h
        ls_s, rs_s = stops(s)
        checks = (
            ls_g >= rs_g,
            stops(-g)[0] == -rs_g,
            rs_g + ls_h <= ls_s <= ls_g + ls_h,
            ell(s) <= ell(g) + ell(h),
            temperature(s) <= max(temperature(g), temperature(h)),
        )
        bad += sum(1 for c in checks if not c)
    assert verdict(
        2, "stop/ell/temperature laws on 1000 random pairs", bad == 0,
        f"{bad} violations",
    )


def test_c03_turning_point_worked_example(store):
    g = parse_expr("{{{6|4}|{2|0}}|{{0|-2}|{-4|-6}}}", store)
    left, right = wall_decomposition(g)
    ok = (
        temperature(g) == 3
        and left.turning_points == (D(0), D(1), D(2), D(3))
        and (left.t_vertical, left.t_oblique) == (D(1), D(2))
        and (right.t_vertical, right.t_oblique) == (D(1), D(2))
    )
    assert verdict(
        3, "turning-point decomposition of the worked example", ok,
        f"t={temperature(g)}, turning points {[str(t) for t in left.turning_points]}, "
        f"left ver={left.t_vertical} obl={left.t_oblique}, "
        f"right ver={right.t_vertical} obl={right.t_oblique}",
    )


def test_c04_tightness_sequence(store):
    start = time.monotonic()
    seq = tightness_sequence(6, store)
    ok = True
    for i, (g, t) in enumerate(seq):
        ok &= t == D(9) - D(3, i)
        ok &= t <= 9
        ok &= t <= temp_upper_bound(g) == 9
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    assert verdict(
        4, "tightness tower t(G_n) = 9 - 3/2^n, n <= 6", ok,
        f"{elapsed:.1f}s, bound 9 respected",
    )


def _wall_dominated(version_th, original_th) -> bool:
    lt_v, lt_o = version_th.left_wall, original_th.left_wall
    rt_v, rt_o = version_th.right_wall, original_th.right_wall
    ts = {t for t, _ in lt_v + lt_o + rt_v + rt_o}
    return all(
        value(lt_v, t) <= value(lt_o, t) and value(rt_v, t) >= value(rt_o, t)
        for t in ts
    )


def test_c05_thermic_version_theorems(store):
    rng = random.Random(505)
    bad = 0
    for _ in range(500):
        g = random_hot_game(rng, store)
        pairs = thermic_versions(g)
        if not pairs:
            bad += 1
            continue
        th_g = thermograph(g)
        half_ell = ell(g).half()
        for gl, gr in pairs:
            version = store.make([gl], [gr])
            if not _wall_dominated(thermograph(version), th_g):
                bad += 1
            if not ell(version) <= ell(g):
                bad += 1
            dl, dr = wall_decomposition(version)
            h = gl if dl.t_vertical >= dr.t_vertical else gr
            if not temperature(g) <= ell(h) + half_ell:
                bad += 1
    assert verdict(
        5, "thermic versions: nonempty, dominated walls, TempBound", bad == 0,
        f"500 hot games, {bad} violations",
    )


def test_c06_witness_soundness_and_non_tightness(store):
    rng = random.Random(606)
    bad = 0
    k_grid = [D(0), D(1, 1), D(1), D(3, 1), D(2), D(3), D(4)]
    for _ in range(500):
        g = random_game(rng, store, max_depth=2)
        for k in k_grid:
            if confusion_witness(g, k).holds and not ell(g) <= k:
                bad += 1
    switch = parse_expr("{1|-1}", store)
    non_tight = (
        ell(switch) == 2
        and not confusion_witness(switch, 2, store.up).holds
        and minimal_confusion_k(switch, step=1, eps=store.up) == 3
    )
    assert verdict(
        6, "witness soundness (holds => ell <= K) + {1|-1} case",
        bad == 0 and non_tight,
        f"500 games x {len(k_grid)} K values, {bad} violations; "
        f"{{1|-1}}: ell=2, minimal integer K=3",
    )


DOM_TABLE_STATED = {1: D(0), 2: D(1), 3: D(5, 2), 4: D(0), 5: D(0)}
DOM_TABLE_STRETCH = {6: D(1), 7: D(1), 8: D(9, 3), 9: D(9, 3), 10: D(19, 4)}


def test_c07_domineering_2xn_table(store):
    computed = {
        n: temperature(dom_game(grid(2, n), store)) for n in DOM_TABLE_STATED
    }
    cells = {n: computed[n] == DOM_TABLE_STATED[n] for n in DOM_TABLE_STATED}
    # stretch n = 6..10, time-budgeted and non-blocking
    deadline = Deadline(120)
    stretch_notes = []
    stretch_ok = True
    for n, want in DOM_TABLE_STRETCH.items():
        try:
            deadline.check()
            got = temperature(dom_game(grid(2, n), store))
        except (TimeBudgetError, NodeBudgetError):
            stretch_notes.append(f"n={n} truncated")
            break
        stretch_ok &= got == want
        stretch_notes.append(f"n={n}:{got}")
    ok = all(cells.values()) and stretch_ok
    assert verdict(
        7, "Domineering 2xn temperatures equal the published table", ok,
        "computed " + ", ".join(f"n={n}:{computed[n]}" for n in computed)
        + " vs stated (0, 1, 5/4, 0, 0); stretch " + " ".join(stretch_notes),
    ), (
        "2x1 and 2x5 are the exact numbers 1 and 1/2, so their "
        "temperatures are -1 and -1/2 by the cooling definition; the "
        "published table prints 0 for both. Remaining cells match."
    )


def test_c08_snake_scan(store):
    start = time.monotonic()
    games = [dom_game(b, store) for b in snake_enumerate(8)]
    report = class_scan(games, "snakes fitting 2x8")
    witness_ok = all(confusion_witness(g, 2, store.up).holds for g in games)
    elapsed = time.monotonic() - start
    ok = (
        report.max_ell <= 2
        and report.max_observed_temp <= 3
        and witness_ok
        and elapsed < 600
    )
    assert verdict(
        8, "snakes in 2x8: ell <= 2, t <= 3, K=2 witness", ok,
        f"{report.positions_scanned} snakes, max ell {report.max_ell}, "
        f"max t {report.max_observed_temp}, {elapsed:.1f}s",
    )


def test_c09_snort_path_tables(store):
    mismatches = []
    for family, refs in SNORT_PATH_REFERENCE.items():
        for n in range(1, 13):  # stretch included: published up to 12
            board = snort_path_board(family, n)
            if board is None or n not in refs:
                continue
            got = temperature(snort_game(board, store))
            if got != refs[n]:
                mismatches.append((family, n, str(got)))
    worst_ell, worst_t = D(0), D(-1)
    for family in SNORT_PATH_REFERENCE:
        for n in range(1, 11):
            board = snort_path_board(family, n)
            if board is None:
                continue
            g = snort_game(board, store)
            worst_ell = max(worst_ell, ell(g))
            worst_t = max(worst_t, temperature(g))
    ok = not mismatches and worst_ell <= 5 and worst_t <= D(15, 1)
    assert verdict(
        9, "Snort path tables (n <= 12) + ell <= 5, t <= 15/2", ok,
        f"{len(mismatches)} mismatches; max ell {worst_ell}, max t {worst_t}",
    )


def test_c10_snort_2xn_grid(store):
    want = {2: D(-1), 3: D(9, 2), 4: D(-1), 5: D(5, 1)}
    got = {n: temperature(snort_game(snort_grid(2, n), store)) for n in want}
    ok = got == want
    stretch = {6: D(-1), 7: D(1)}
    deadline = Deadline(300)
    notes = []
    for n, expect in stretch.items():
        try:
            deadline.check()
            t = temperature(snort_game(snort_grid(2, n), store))
        except (TimeBudgetError, NodeBudgetError):
            notes.append(f"n={n} truncated")
            break
        ok &= t == expect
        notes.append(f"n={n}:{t}")
    assert verdict(
        10, "Snort 2xn grid temperatures (-1, 9/4, -1, 5/2)", ok,
        ", ".join(f"n={n}:{got[n]}" for n in got) + "; stretch " + " ".join(notes),
    )


def test_c11_universal_vertex_stars(store):
    ok = True
    for n in range(1, 7):
        g = snort_game(snort_star(n), store)
        ok &= g.eq(store.make([store.number(n)], [store.number(-n)]))
        ok &= temperature(g) == n
    assert verdict(11, "K_{1,n} equals ±n with t = n, n = 1..6", ok)


def test_c12_degree_conjecture_scan(store):
    from hotgames import graph_enumerate

    scanned = 0
    findings = []
    for board in graph_enumerate(6):
        scanned += 1
        t = temperature(snort_game(board, store))
        if not t <= D(board.degree()):
            findings.append((board.format(), str(t), board.degree()))
    # findings are reported, never failed
    detail = f"{scanned} graphs; " + (
        f"{len(findings)} counterexample(s): {findings}" if findings
        else "no counterexample"
    )
    assert verdict(12, "degree-conjecture scan over graphs <= 6 vertices",
                   scanned > 0, detail)


def test_c13_drummond_cole_position():
    budget_store = GameStore(max_nodes=2_000_000)
    deadline = Deadline(300)
    try:
        deadline.check()
        g = dom_game(drummond_cole_board(), budget_store)
        t = temperature(g)
        deadline.check()
    except (TimeBudgetError, NodeBudgetError) as exc:
        assert verdict(13, "Drummond-Cole position (stretch)", True,
                       f"explicit truncation: {exc}")
        return
    assert verdict(13, "Drummond-Cole position temperature = 2 (stretch)",
                   t == 2, f"t = {t}")
