"""The benchmark's five workloads.

Each workload makes its inputs from a seed (`inputs`), calls the program
through its public functions in a sequence of timed queries (`run`), and
checks the answers afterwards (`check`, outside the timed region). A
query is one request a user makes and waits for: the eval reports of a
random pair, a table, a board, a scan. A query that raises counts as
one failed operation; the round goes on.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from hotgames import (
    Dyadic,
    class_scan,
    cool,
    dom_game,
    drummond_cole_board,
    ell,
    format_game,
    graph_enumerate,
    grid,
    minimal_confusion_k,
    parse_expr,
    snort_game,
    snort_grid,
    stops,
    temp_mean,
    temperature,
)
from hotgames.tables import (
    domineering_2xn_table,
    snort_2xn_table,
    snort_path_board,
    snort_path_table,
)

import checks

RANDOM_PAIRS = 400
POOL_SEED = 202
DOMINEERING_MAX_N = 14
ROTATION_MAX_N = 10
SNORT_GRID_MAX_N = 7
SNORT_PATH_MAX_N = 12
GRAPH_MAX_N = 6
WITNESS_MAX_N = 8
WITNESS_STEP = "1/2"
FAMILIES = ("P", "LP", "LPL", "LPR")


@dataclass
class Queries:
    """Per-query wall times and the failures of one round."""

    seconds: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def __call__(self, label: str, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # one failed operation; the round goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds.append(time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# random_sums: the eval path on seeded pairs of random games


def random_game(rng: random.Random, depth: int = 3):
    """A random game tree of the shape `hotgames.sampling.random_game`
    draws, with the same calls on `rng`: depth <= 3, <= 3 options per
    side, a leaf with probability 1/5, leaves dyadic (num, exp) with
    exp <= 2 and |num / 2^exp| <= 8."""
    if depth == 0 or rng.random() < 0.2:
        e = rng.randint(0, 2)
        return rng.randint(-8 << e, 8 << e), e
    return tuple(
        [random_game(rng, depth - 1) for _ in range(rng.randint(0, 3))] for _ in range(2)
    )


def game_text(tree, negate: bool = False) -> str:
    """Expression text of a tree, or of its negative: -{L|R} = {-R|-L}."""
    if isinstance(tree[0], int):
        num, exp = tree
        return str(Fraction(-num if negate else num, 1 << exp))
    left, right = (tree[1], tree[0]) if negate else tree
    return "{%s|%s}" % tuple(",".join(game_text(t, negate) for t in side) for side in (left, right))


def _eval_report(g):
    return format_game(g), g.outcome(), stops(g), ell(g), temp_mean(g)


class RandomSums:
    def inputs(self, seed: int):
        """The first RANDOM_PAIRS pairs acceptance criterion 02 draws; the
        seed shuffles them and negates each game with probability 1/2."""
        pool = random.Random(POOL_SEED)
        pairs = [(random_game(pool), random_game(pool)) for _ in range(RANDOM_PAIRS)]
        rng = random.Random(seed)
        rng.shuffle(pairs)
        return [tuple(game_text(t, rng.random() < 0.5) for t in pair) for pair in pairs]

    def run(self, pairs, store, q: Queries):
        def query(a, b):
            g, h = parse_expr(a, store), parse_expr(b, store)
            s = g + h
            reports = [_eval_report(x) for x in (g, h, s)]
            t = reports[2][4][0].half()
            return g, h, s, reports, t, cool(s, t)

        return [q(f"pair {i}", query, a, b) for i, (a, b) in enumerate(pairs)]

    def check(self, pairs, store, answers):
        out = []
        for i, ans in enumerate(answers):
            if ans is None:
                continue
            g, h, s, reports, t, cooled = ans
            problems = checks.pair_problems(g, h, s, reports)
            problems += checks.cooling_problems(s, t, cooled)
            out += [f"pair {i}: {p}" for p in problems]
        return out


# ---------------------------------------------------------------------------
# domineering_2xn: the board layer on 2xn strips


class Domineering2xn:
    def inputs(self, seed: int):
        return DOMINEERING_MAX_N

    def run(self, max_n, store, q: Queries):
        table = q("table", domineering_2xn_table, store, max_n)
        dc = q("drummond-cole", lambda: temperature(dom_game(drummond_cole_board(), store)))
        return table, dc

    def check(self, max_n, store, answers):
        table, dc = answers
        out = []
        for cell in table.cells if table else ():
            value = dom_game(grid(2, cell.n), store)
            out.append(checks.cell_problem(
                f"2x{cell.n}", checks.DOMINEERING_2XN[cell.n], cell.computed, value
            ))
            if cell.n <= ROTATION_MAX_N:
                out.append(checks.negation_problem(
                    f"{cell.n}x2", dom_game(grid(cell.n, 2), store), value
                ))
        if dc is not None:
            out.append(checks.cell_problem(
                "drummond-cole", checks.DRUMMOND_COLE_TEMPERATURE, dc,
                dom_game(drummond_cole_board(), store),
            ))
        return [p for p in out if p]


# ---------------------------------------------------------------------------
# snort_tables: the board layer with canonical_key as a memo key


class SnortTables:
    def inputs(self, seed: int):
        return SNORT_GRID_MAX_N, SNORT_PATH_MAX_N

    def run(self, sizes, store, q: Queries):
        grid_n, path_n = sizes
        return (
            q("grid table", snort_2xn_table, store, grid_n),
            q("path table", snort_path_table, store, path_n),
        )

    def check(self, sizes, store, answers):
        grids, paths = answers
        out = []
        for cell in grids.cells if grids else ():
            out.append(checks.cell_problem(
                f"snort 2x{cell.n}", checks.SNORT_2XN[cell.n], cell.computed,
                snort_game(snort_grid(2, cell.n), store),
            ))
        for cell in paths.cells if paths else ():
            board = snort_path_board(cell.row, cell.n)
            value = snort_game(board, store)
            label = f"{cell.row} n={cell.n}"
            out.append(checks.cell_problem(
                label, checks.SNORT_PATHS[cell.row][cell.n], cell.computed, value
            ))
            out.append(checks.negation_problem(
                label, value, snort_game(board.swap_colours(), store)
            ))
        return [p for p in out if p]


# ---------------------------------------------------------------------------
# graph_census: canonical_key during enumeration, Snort temperature after


class GraphCensus:
    def inputs(self, seed: int):
        return GRAPH_MAX_N

    def run(self, max_n, store, q: Queries):
        def scan():
            boards = list(graph_enumerate(max_n))
            return [(b, temperature(snort_game(b, store))) for b in boards]

        return q("graph scan", scan)

    def check(self, max_n, store, answers):
        if answers is None:
            return []
        return checks.census_problems(
            [(board.n, board.edges, t) for board, t in answers], max_n
        )


# ---------------------------------------------------------------------------
# witness_scan: confusion witnesses, the bounds layer writing to the store


class WitnessScan:
    def inputs(self, seed: int):
        boards = [snort_path_board(f, n) for f in FAMILIES for n in range(1, WITNESS_MAX_N + 1)]
        return [b for b in boards if b is not None]

    def run(self, boards, store, q: Queries):
        def scan():
            games = [snort_game(b, store) for b in boards]
            report = class_scan(games, f"snort decorated paths, n <= {WITNESS_MAX_N}")
            step = Dyadic.parse(WITNESS_STEP)
            return games, report, [minimal_confusion_k(g, step, store.up) for g in games]

        return q("path scan", scan)

    def check(self, boards, store, answers):
        if answers is None:
            return []
        games, report, ks = answers
        out = []
        if report.positions_scanned != len(boards):
            out.append(f"class scan saw {report.positions_scanned} positions")
        if checks.frac(report.max_ell) != max(checks.frac(ell(g)) for g in games):
            out.append(f"class scan max ell {report.max_ell} is not the largest ell")
        step = Dyadic.parse(WITNESS_STEP)
        for i, (g, k) in enumerate(zip(games, ks)):
            out += checks.witness_problems(f"position {i}", g, k, step, store.up)
        return out


WORKLOADS = {
    "random_sums": RandomSums(),
    "domineering_2xn": Domineering2xn(),
    "snort_tables": SnortTables(),
    "graph_census": GraphCensus(),
    "witness_scan": WitnessScan(),
}
