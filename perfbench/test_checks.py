"""Self-test of the benchmark's checks at tiny sizes: each check passes
the program's true answers and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from hotgames import (  # noqa: E402
    Dyadic,
    GameStore,
    dom_game,
    graph_enumerate,
    grid,
    minimal_confusion_k,
    snort_game,
    temperature,
)
from hotgames.tables import snort_path_board  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HALF = Dyadic(1, 1)


def test_domineering_cell_off_by_half_is_rejected():
    store = GameStore()
    for n in (2, 3):
        value = dom_game(grid(2, n), store)
        t = temperature(value)
        published = checks.DOMINEERING_2XN[n]
        assert checks.cell_problem("cell", published, t, value) is None
        assert checks.cell_problem("cell", published, t + HALF, value)
        assert checks.cell_problem("cell", published, t - HALF, value)


def test_number_cell_passes_only_with_the_number_temperature():
    store = GameStore()
    value = dom_game(grid(2, 1), store)  # the number 1, published as 0
    t = temperature(value)
    assert checks.frac(t) == -1
    assert checks.cell_problem("2x1", "0", t, value) is None
    assert checks.cell_problem("2x1", "0", t + HALF, value)


def test_census_with_a_duplicated_graph_is_rejected():
    store = GameStore()
    graphs = [
        (b.n, b.edges, temperature(snort_game(b, store))) for b in graph_enumerate(4)
    ]
    assert checks.census_problems(graphs, 4) == []
    # replace the last 4-vertex graph by a relabelled copy of another one,
    # so the per-size counts still match
    n, edges, t = graphs[-2]
    relabelled = frozenset(tuple(sorted((3 - a, 3 - b))) for a, b in edges)
    corrupted = graphs[:-1] + [(n, relabelled, t)]
    problems = checks.census_problems(corrupted, 4)
    assert any("isomorphic pair" in p for p in problems)
    assert any("graphs per size" in p for p in checks.census_problems(graphs + graphs[-1:], 4))


def test_witness_k_one_step_low_is_rejected():
    store = GameStore()
    g = snort_game(snort_path_board("LP", 4), store)
    k = minimal_confusion_k(g, HALF, store.up)
    assert checks.witness_problems("LP4", g, k, HALF, store.up) == []
    assert checks.witness_problems("LP4", g, k - HALF, HALF, store.up)


def test_snort_cell_with_flipped_sign_is_rejected():
    store = GameStore()
    board = snort_path_board("LP", 5)
    value = snort_game(board, store)
    mirror = snort_game(board.swap_colours(), store)
    assert checks.negation_problem("LP5", value, mirror) is None
    assert checks.negation_problem("LP5", -value, mirror)


def test_random_pair_laws_reject_a_corrupted_report():
    store = GameStore()
    work = workloads.RandomSums()
    pairs = work.inputs(0)[:5]
    answers = work.run(pairs, store, workloads.Queries())
    assert work.check(pairs, store, answers) == []
    g, h, s, reports, t, cooled = answers[0]
    canonical, outcome, (ls, rs), e, tm = reports[2]
    raised = (canonical, outcome, (ls + 1, rs), e, tm)
    assert checks.pair_problems(g, h, s, [reports[0], reports[1], raised])
    assert checks.cooling_problems(s, t, cooled) == []
    assert checks.cooling_problems(s, t, cooled + store.number(HALF))


def test_inputs_follow_the_seed():
    work = workloads.RandomSums()
    assert work.inputs(3) == work.inputs(3)
    assert work.inputs(3) != work.inputs(4)
