"""Command-line front end.

    hotgames eval "±{9|3}"               value report for an expression
    hotgames thermo "{5|2}" --format svg  thermograph as text/json/svg
    hotgames board domineering FILE       value report for a board
    hotgames tables snortpaths --max-n 10 recompute a published table
    hotgames verify snakes                run a named verification suite
    hotgames scan graphs --max-n 6        class scans / conjecture scans

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import class_scan, minimal_confusion_k
from .budget import Deadline
from .domineering import DomBoard, dom_game, snake_enumerate
from .dyadic import Dyadic, dyadic
from .errors import (
    CgtError,
    NodeBudgetError,
    ParseError,
    TimeBudgetError,
)
from .games import Game, GameStore
from .notation import format_game, parse_expr
from .render import thermograph_svg
from .snort import SnortBoard, graph_enumerate, snort_game
from .tables import SNORT_PATH_REFERENCE, TABLES, snort_path_board
from .thermal import ell, stops, temp_mean, temperature, thermograph
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# board ruleset -> (board type with a text parser, its value function)
RULESETS = {"domineering": (DomBoard, dom_game), "snort": (SnortBoard, snort_game)}
# scan subject -> default --max-n
SCAN_SIZES = {"snakes": 8, "snortpaths": 8, "integers": 3, "graphs": 6}


def _positive(convert):
    """argparse type: `convert` the text, then reject values that are not > 0."""

    def check(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    check.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return check


positive_int = _positive(int)
positive_float = _positive(float)
positive_dyadic = _positive(dyadic)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hotgames", description=__doc__.split("\n")[0])
    p.add_argument("--max-nodes", type=positive_int, help="store node budget")
    p.add_argument(
        "--time-budget-s", type=positive_float, help="wall-clock budget (seconds)"
    )
    sub = p.add_subparsers(dest="command", required=True)

    fmt = dict(choices=("text", "json"), default="text")

    pe = sub.add_parser("eval", help="evaluate a game expression")
    pe.add_argument("expr")
    pe.add_argument("--format", **fmt)
    pe.set_defaults(run=cmd_eval)

    pt = sub.add_parser("thermo", help="thermograph of an expression")
    pt.add_argument("expr")
    pt.add_argument("--format", choices=("text", "json", "svg"), default="text")
    pt.set_defaults(run=cmd_thermo)

    pb = sub.add_parser("board", help="evaluate a ruleset board")
    pb.add_argument("ruleset", choices=RULESETS)
    pb.add_argument("path", nargs="?", help="board file (omit with --text)")
    pb.add_argument("--text", help="inline board text")
    pb.add_argument("--format", **fmt)
    pb.set_defaults(run=cmd_board)

    pta = sub.add_parser("tables", help="recompute a published temperature table")
    pta.add_argument("which", choices=sorted(TABLES))
    pta.add_argument("--max-n", type=positive_int)
    pta.add_argument("--format", **fmt)
    pta.set_defaults(run=cmd_tables)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--format", **fmt)
    pv.set_defaults(run=cmd_verify)

    ps = sub.add_parser("scan", help="confusion-interval class scans")
    ps.add_argument("which", choices=SCAN_SIZES)
    ps.add_argument("--max-n", type=positive_int)
    ps.add_argument("--epsilon", choices=("up", "star", "zero"), default="up")
    ps.add_argument(
        "--step",
        type=positive_dyadic,
        default="1/2",
        help="grid step for witness searches",
    )
    ps.add_argument("--format", **fmt)
    ps.set_defaults(run=cmd_scan)

    return p


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text_renderer())


def _eval_report(g: Game) -> dict:
    ls, rs = stops(g)
    t, m = temp_mean(g)
    return {
        "canonical": format_game(g),
        "outcome": g.outcome().value,
        "left_stop": str(ls),
        "right_stop": str(rs),
        "ell": str(ell(g)),
        "temperature": str(t),
        "mean": str(m),
    }


def _print_eval(report: dict) -> str:
    """One `key value` row per entry of an `_eval_report` dict."""
    return "\n".join(f"{k.replace('_', ' '):12} {v}" for k, v in report.items())


def cmd_eval(args, store: GameStore) -> int:
    g = parse_expr(args.expr, store)
    ev = _eval_report(g)
    _emit({"expression": args.expr, **ev}, args.format, lambda: _print_eval(ev))
    return EXIT_OK


def cmd_thermo(args, store: GameStore) -> int:
    g = parse_expr(args.expr, store)
    th = thermograph(g)
    if args.format == "svg":
        print(thermograph_svg(th, title=args.expr))
        return EXIT_OK
    payload = {"expression": args.expr, **th.to_json_dict()}

    def text():
        lines = [f"temperature  {th.temperature}", f"mast         {th.mast}"]
        for name, wall in (("left wall", th.left_wall), ("right wall", th.right_wall)):
            pts = "  ".join(f"(t={t}, x={x})" for t, x in wall)
            lines.append(f"{name:12} {pts}")
        return "\n".join(lines)

    _emit(payload, args.format, text)
    return EXIT_OK


def cmd_board(args, store: GameStore) -> int:
    if (args.path is None) == (args.text is None):
        raise ParseError("provide exactly one of a board file or --text")
    raw = args.text
    if raw is None:
        try:
            raw = Path(args.path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            where = f"{exc.reason} at byte {exc.start}"
            raise ParseError(f"{args.path}: not UTF-8 text ({where})") from exc
    board_type, game_of = RULESETS[args.ruleset]
    board = board_type.parse(raw)
    g = game_of(board, store)
    shown = board.format()
    ev = _eval_report(g)
    _emit({"board": shown, **ev}, args.format, lambda: shown + "\n" + _print_eval(ev))
    return EXIT_OK


def cmd_tables(args, store: GameStore) -> int:
    builder, default_n = TABLES[args.which]
    table = builder(store, default_n if args.max_n is None else args.max_n)
    _emit(table.to_json_dict(), args.format, table.render_text)
    return EXIT_BUDGET if table.truncated else EXIT_OK


def cmd_verify(args, store: GameStore) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = [SUITES[name](store) for name in names]
    payload = [r.to_json_dict() for r in results]
    _emit(payload, args.format, lambda: "\n".join(r.render_text() for r in results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def _scan_positions(which: str, n: int, store: GameStore):
    """Class label and (position label, game, board) triples of a scanned
    class. The board, kept for graphs and None otherwise, feeds the degree
    findings."""
    if which == "snakes":
        return f"domineering snakes fitting 2x{n}", [
            (b.format().replace("\n", "/"), dom_game(b, store), None)
            for b in snake_enumerate(n)
        ]
    if which == "snortpaths":
        paths = [
            (f"{family} {i}", snort_path_board(family, i))
            for family in SNORT_PATH_REFERENCE
            for i in range(1, n + 1)
        ]
        return f"snort decorated paths, n <= {n}", [
            (name, snort_game(b, store), None) for name, b in paths if b is not None
        ]
    if which == "integers":
        return f"integers -{n}..{n}", [
            (str(i), store.number(i), None) for i in range(-n, n + 1)
        ]
    return f"connected graphs <= {n} vertices", [
        (b.format().replace("\n", "; "), snort_game(b, store), b)
        for b in graph_enumerate(n, store.deadline)
    ]


def _degree_findings(label: str, boards) -> tuple[dict, list[str]]:
    """JSON fields and text lines of the degree-conjecture scan: is t(G) <=
    max degree? Counterexamples are findings, not failures."""
    hottest = {}
    findings = []
    for g, board in boards:
        t = temperature(g)
        d = board.degree()
        hottest[d] = max(t, hottest.get(d, t))
        if not t <= Dyadic(d):
            findings.append({"board": board.format(), "temperature": str(t), "degree": d})
    by_degree = {str(d): str(hottest[d]) for d in sorted(hottest)}
    lines = [f"max degree {d}     hottest temperature {t}" for d, t in by_degree.items()]
    verdict = f"{len(findings)} (conjecture fails)" if findings else "none"
    lines.append(f"counterexamples  {verdict}")
    for f in findings:
        lines.append(f"  t={f['temperature']} > degree {f['degree']}:")
        lines.append("    " + f["board"].replace("\n", "; "))
    return {
        "scan": f"snort temperature vs board degree, {label}",
        "graphs_scanned": len(boards),
        "hottest_by_degree": by_degree,
        "counterexamples": findings,
    }, lines


def cmd_scan(args, store: GameStore) -> int:
    n = SCAN_SIZES[args.which] if args.max_n is None else args.max_n
    label, positions = _scan_positions(args.which, n, store)
    report = class_scan((g for _, g, _ in positions), label)
    eps = {"up": store.up, "star": store.star, "zero": store.zero}[args.epsilon]
    step = args.step
    witness_ks = [
        (name, minimal_confusion_k(g, step=step, eps=eps)) for name, g, _ in positions
    ]
    witness_k = max(k for _, k in witness_ks)  # class_scan rejects an empty class
    boards = [(g, b) for _, g, b in positions if b is not None]
    degree, degree_lines = _degree_findings(label, boards) if boards else ({}, [])
    payload = report.to_json_dict()
    payload["max_minimal_witness_k"] = str(witness_k)
    payload["witness_epsilon"] = args.epsilon
    payload["witness_step"] = str(step)
    payload["positions"] = [
        {"position": name, "minimal_witness_k": str(k)} for name, k in witness_ks
    ]
    payload.update(degree)

    def text():
        lines = [
            f"class            {report.class_label}",
            f"positions        {report.positions_scanned}",
            f"max ell (K)      {report.max_ell}",
            f"max option ell J {report.max_ell_options}",
            f"bound K/2 + J    {report.bp_bound}",
            f"max temperature  {report.max_observed_temp}",
            f"witness K (max)  {witness_k}  [step {step}, epsilon {args.epsilon}]",
            *degree_lines,
            "minimal witness K per position:",
        ]
        width = max(len(name) for name, _ in witness_ks)
        lines += [f"  {name:{width}}  {k}" for name, k in witness_ks]
        return "\n".join(lines)

    _emit(payload, args.format, text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # the store interns 0, *, ^ and v first, so a tiny --max-nodes fails here
        store = GameStore(args.max_nodes, Deadline(args.time_budget_s))
        code = args.run(args, store)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): nothing failed. Point stdout at
        # devnull so the interpreter's final flush has somewhere to write.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (NodeBudgetError, TimeBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (CgtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
