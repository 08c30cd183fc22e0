import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotgames import Dyadic, GameStore, SnortBoard, parse_expr, snort_game
from hotgames.budget import Deadline
from hotgames.cli import _degree_findings, main
from hotgames.tables import (
    dom_2xn_reference,
    domineering_2xn_table,
    snort_2xn_table,
    snort_path_table,
)

D = Dyadic


# -- tables -------------------------------------------------------------------


def test_dom_reference_periodic():
    assert dom_2xn_reference(3) == D(5, 2)
    assert dom_2xn_reference(8) == D(9, 3)
    assert dom_2xn_reference(10) == D(19, 4)
    assert dom_2xn_reference(18) == dom_2xn_reference(8)


def test_domineering_table_small(store):
    table = domineering_2xn_table(store, 4)
    by_n = {c.n: c for c in table.cells}
    assert by_n[2].match and by_n[3].match and by_n[4].match
    assert by_n[1].match is False  # 2x1 is the integer 1: temperature -1
    assert by_n[1].computed == D(-1)
    assert by_n[1].to_json_dict()["flag"] == "NUMBER"
    assert not table.truncated


def test_snort_path_table_small(store):
    table = snort_path_table(store, 6)
    assert table.cells and all(c.match for c in table.cells)
    # the impossible corner cells (LPL 1, LPR 1-2) are skipped
    assert [(c.row, c.n) for c in snort_path_table(store, 3).cells] == [
        ("P", 1), ("P", 2), ("P", 3),
        ("LP", 1), ("LP", 2), ("LP", 3),
        ("LPL", 2), ("LPL", 3),
        ("LPR", 3),
    ]


def test_snort_2xn_table_small(store):
    table = snort_2xn_table(store, 4)
    assert [c.computed for c in table.cells] == [D(-1), D(9, 2), D(-1)]
    assert all(c.match for c in table.cells)


def test_table_truncation_marker():
    deadline = Deadline(seconds=-1)  # already expired
    table = snort_2xn_table(GameStore(deadline=deadline), 4)
    assert table.truncated
    assert all(c.truncated and c.computed is None for c in table.cells)
    assert "TRUNCATED" in table.render_text()


def test_table_json_round_trips(store):
    table = snort_path_table(store, 4)
    payload = table.to_json_dict()
    for cell in payload["cells"]:
        if cell["computed"] is not None:
            assert D.parse(cell["computed"]) is not None
        assert isinstance(cell["match"], (bool, type(None)))


# -- CLI ----------------------------------------------------------------------


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_eval_switch_tower():
    code, out = run_cli("eval", "±{9|3}")
    assert code == 0
    assert "temperature  6" in out


def test_eval_confusion_example():
    code, out = run_cli("eval", "{{10|1}|-1}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ell"] == "2"
    assert payload["left_stop"] == "1"
    assert payload["right_stop"] == "-1"


def test_eval_integer():
    code, out = run_cli("eval", "0", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["outcome"] == "P"
    assert payload["temperature"] == "-1"


def test_eval_parse_error_exit_2(capsys):
    assert main(["eval", "{1|"]) == 2


def test_eval_json_values_reparse():
    code, out = run_cli("eval", "{{5|2}|{-2|-3}}", "--format", "json")
    payload = json.loads(out)
    store = GameStore()
    g = parse_expr(payload["canonical"], store)
    for key in ("left_stop", "right_stop", "ell", "temperature", "mean"):
        D.parse(payload[key])
    assert parse_expr("{{5|2}|{-2|-3}}", store).eq(g)


def test_thermo_svg_output():
    code, out = run_cli("thermo", "{5|2}", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg") and "polyline" in out
    assert "t=3/2" in out
    assert '<text x="48" y="20" font-size="13" font-family="monospace">{5|2}</text>' in out


def test_thermo_json_breakpoints():
    code, out = run_cli("thermo", "{{5|2}|{-2|-3}}", "--format", "json")
    payload = json.loads(out)
    assert payload["temperature"] == "3"
    assert payload["left_wall"][0] == {"t": "-1", "x": "2"}


def test_board_command_inline():
    code, out = run_cli("board", "domineering", "--text", "##\n##")
    assert code == 0
    assert "outcome      N" in out


def test_board_command_snort(tmp_path):
    p = tmp_path / "board.txt"
    p.write_text("3\n0 1\n1 2\n")
    code, out = run_cli("board", "snort", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["temperature"] == "2"


def test_board_file_is_closed(tmp_path):
    p = tmp_path / "board.txt"
    p.write_text("##\n##\n", encoding="utf-8")
    # development mode, with an unclosed file an error rather than a warning
    dev_mode = ("-X", "dev", "-W", "error::ResourceWarning")
    proc = _hotgames("board", "domineering", str(p), python_flags=dev_mode)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "outcome      N" in proc.stdout


def test_board_file_not_utf8_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "board.txt"
    p.write_bytes(b"\xff#")
    assert main(["board", "domineering", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_0_silently(unbuffered):
    # a reader that has gone away, as with `| head`; with PYTHONUNBUFFERED
    # empty the output sits in the buffer until the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ("scan", "snortpaths", "--max-n", "3", "--format", "json")
    try:
        proc = _hotgames(*argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_tables_command_exit_codes():
    code, out = run_cli("tables", "snortpaths", "--max-n", "5")
    assert code == 0 and "MISMATCH" not in out
    code, out = run_cli("tables", "domineering2xn", "--max-n", "14")
    flags = {line.split()[1]: line.split()[-1] for line in out.splitlines()[3:]}
    # 2x1, 2x5 and 2x13 are the numbers 1, 1/2 and 0: the table prints 0
    assert code == 0 and flags["1"] == "NUMBER" and "MISMATCH" not in out


def test_tables_budget_exit_3():
    code, out = run_cli(
        "--time-budget-s", "0.000001", "tables", "snort2xn", "--max-n", "6"
    )
    assert code == 3
    assert "TRUNCATED" in out


def test_max_nodes_budget_exit_3():
    code, out = run_cli(
        "--max-nodes", "40", "tables", "snort2xn", "--max-n", "5", "--format", "json"
    )
    flags = [cell["flag"] for cell in json.loads(out)["cells"]]
    assert code == 3 and flags == ["ok", "ok", "TRUNCATED", "TRUNCATED"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "{5|2}"],
        ["thermo", "±{9|3}"],
        ["board", "snort", "--text", "3\n0 1\n1 2"],
        ["verify", "tightness"],
        ["scan", "snortpaths", "--max-n", "3"],
    ],
)
def test_expired_budget_stops_every_command_exit_3(argv, capsys):
    # the budget has run out before the first node past 0, *, ^ and v
    assert main(["--time-budget-s", "1e-9", *argv]) == 3
    err = capsys.readouterr().err
    assert err == "error: time budget of 1e-09s exceeded\n"


def test_tiny_node_budget_exit_3(capsys):
    # the store cannot even intern 0, *, ^ and v
    assert main(["--max-nodes", "2", "eval", "0"]) == 3
    assert capsys.readouterr().err == "error: store node budget exceeded (2 nodes)\n"


def test_huge_integer_meets_the_budgets(capsys):
    # the integer chain is built one budget-checked node at a time
    argv = ["--max-nodes", "1000", "--time-budget-s", "1", "eval", "100000000"]
    assert main(argv) == 3
    assert "node budget exceeded" in capsys.readouterr().err


def test_time_budget_inside_one_board(tmp_path):
    # one board evaluation that runs for about 7 s unbudgeted
    p = tmp_path / "2x16.txt"
    p.write_text("#" * 16 + "\n" + "#" * 16 + "\n", encoding="utf-8")
    proc = _hotgames("--time-budget-s", "1", "board", "domineering", str(p), timeout=15)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: time budget of 1.0s exceeded\n"


def test_verify_exit_codes():
    suites = ["properties", "snakes", "tightness"]
    for suite, names in [(s, [s]) for s in suites] + [("all", suites)]:
        code, out = run_cli("verify", suite)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("suite ")]
        assert lines == [f"suite {name}: PASS" for name in names]
    code, out = run_cli("verify", "tightness", "--format", "json")
    assert json.loads(out)[0]["passed"] is True


VERIFY_ALL_TEXT = """\
suite properties: PASS
  [ok ] LS >= RS on 300 random pairs  0 violations
  [ok ] LS(-G) = -RS(G) on 300 random pairs  0 violations
  [ok ] o(G - G) = P on 300 random pairs  0 violations
  [ok ] RS(G)+LS(H) <= LS(G+H) on 300 random pairs  0 violations
  [ok ] LS(G+H) <= LS(G)+LS(H) on 300 random pairs  0 violations
  [ok ] ell(G+H) <= ell(G)+ell(H) on 300 random pairs  0 violations
  [ok ] t(G+H) <= max(t(G),t(H)) on 300 random pairs  0 violations
  [ok ] eq(G,H) iff canonical ids equal on 300 random pairs  0 violations
suite snakes: PASS
  [ok ] scanned snakes fitting 2x8  85 boards
  [ok ] ell <= 2 for every snake  max ell 1
  [ok ] t <= 3 for every snake  max t 1/2
  [ok ] witness K=2, eps=^ holds for every snake
suite tightness: PASS
  [ok ] t(G_0) = 6  got 6
  [ok ] t(G_1) = 15/2  got 15/2
  [ok ] t(G_2) = 33/4  got 33/4
  [ok ] t(G_3) = 69/8  got 69/8
  [ok ] t(G_4) = 141/16  got 141/16
  [ok ] t(G_5) = 285/32  got 285/32
  [ok ] t(G_6) = 573/64  got 573/64
"""


def test_verify_all_full_text():
    # every line, info strings included, of the three suites
    assert run_cli("verify", "all") == (0, VERIFY_ALL_TEXT)


def test_verify_unknown_suite_exit_2(capsys):
    assert main(["verify", "bogus"]) == 2


def test_scan_integers():
    code, out = run_cli("scan", "integers", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bp_bound"] == "0"
    code, out = run_cli("scan", "integers", "--max-n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["positions_scanned"] == 3
    assert payload["class"] == "integers -1..1"


def test_scan_graphs_findings():
    code, out = run_cli("scan", "graphs", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs_scanned"] == 10
    assert payload["hottest_by_degree"] == {"0": "0", "1": "1", "2": "2", "3": "3"}
    assert payload["counterexamples"] == []
    # the class-scan fields every subject reports
    assert payload["positions_scanned"] == 10
    assert (
        payload["max_ell"],
        payload["max_ell_options"],
        payload["bp_bound"],
        payload["max_observed_temp"],
    ) == ("6", "1", "4", "3")
    ks = [p["minimal_witness_k"] for p in payload["positions"]]
    assert len(ks) == 10
    assert payload["max_minimal_witness_k"] == max(ks, key=D.parse)
    code, text = run_cli("scan", "graphs", "--max-n", "4")
    assert code == 0
    per_position = text.split("minimal witness K per position:\n")[1]
    assert [line.split()[-1] for line in per_position.splitlines()] == ks


def test_degree_findings_report_the_double_star(store):
    # S(3,3) has t = 9/2 against a maximum degree of 4
    board = SnortBoard.parse("8\n0 1\n0 2\n0 3\n0 4\n4 5\n4 6\n4 7")
    fields, lines = _degree_findings("S(3,3)", [(snort_game(board, store), board)])
    assert fields["counterexamples"] == [
        {"board": board.format(), "temperature": "9/2", "degree": 4}
    ]
    assert lines == [
        "max degree 4     hottest temperature 9/2",
        "counterexamples  1 (conjecture fails)",
        "  t=9/2 > degree 4:",
        "    8; 0 1; 0 2; 0 3; 0 4; 4 5; 4 6; 4 7",
    ]


def test_scan_graphs_past_the_cap_exit_2(capsys):
    assert main(["scan", "graphs", "--max-n", "9"]) == 2
    assert "capped at 8" in capsys.readouterr().err


def test_scan_snortpaths_witness_k_per_position():
    code, out = run_cli(
        "scan", "snortpaths", "--max-n", "10", "--step", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    ks = {p["position"]: p["minimal_witness_k"] for p in payload["positions"]}
    assert len(ks) == payload["positions_scanned"] == 37
    # K = 4 + up fails on the paths of 3 and 9 vertices
    assert [ks[f"P {n}"] for n in range(1, 11)] == "1 3 5 4 4 1 4 4 5 4".split()
    assert payload["max_minimal_witness_k"] == max(ks.values(), key=D.parse)
    code, text = run_cli("scan", "snortpaths", "--max-n", "10", "--step", "1")
    assert code == 0
    assert [line.split()[-1] for line in text.splitlines() if line.startswith("  ")] == [
        p["minimal_witness_k"] for p in payload["positions"]
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-nodes", "0", "eval", "0"],
        ["--time-budget-s", "-1", "eval", "0"],
        ["tables", "domineering2xn", "--max-n", "0"],
        ["tables", "snort2xn", "--max-n", "-1"],
        ["scan", "snakes", "--max-n", "0"],
        ["scan", "snortpaths", "--max-n", "-1"],
        ["scan", "snakes", "--step", "0"],
        ["scan", "snakes", "--step", "x"],
        ["scan", "integers", "--step", "1/3"],
    ],
)
def test_bad_flag_values_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = next(a for a in argv if a.startswith("--"))
    assert f"error: argument {flag}: " in captured.err
    assert "Traceback" not in captured.err


def test_console_script_installed():
    proc = _hotgames("eval", "*")
    assert proc.returncode == 0
    assert "outcome      N" in proc.stdout


def _hotgames(
    *argv, python_flags=(), stdout=subprocess.PIPE, timeout=120, preexec_fn=None, **env
):
    import hotgames

    pythonpath = str(Path(hotgames.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": pythonpath, **env}
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "hotgames", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


def _limit_address_space():
    limit = 3 << 29  # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_out_of_memory_exit_3():
    # the vertex count alone asks for a 2.4 GB tint list
    argv = ["board", "snort", "--text", "300000000"]
    proc = _hotgames(*argv, preexec_fn=_limit_address_space)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"
    proc = _hotgames("eval", "{5|2}", preexec_fn=_limit_address_space)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "canonical    {5|2}\n" in proc.stdout


def test_step_with_non_ascii_digit_exit_2(capsys):
    code, out = run_cli("scan", "integers", "--step", "٣")
    assert code == 2 and out == ""
    assert "invalid dyadic value: '٣'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr, temperature, mean",
    [
        # {n|n-1} compares two long integer chains while canonicalizing
        ("{30000|29999}", "1/2", "59999/2"),
        # a 200000-step integer chain
        ("200000", "-1", "200000"),
    ],
)
def test_eval_deep_numbers_exit_cleanly(expr, temperature, mean):
    proc = _hotgames("eval", expr)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert f"temperature  {temperature}\n" in proc.stdout
    assert f"mean         {mean}\n" in proc.stdout


@pytest.mark.parametrize(
    "expr",
    [
        # RecursionError in the parser
        "{" * 33000 + "*" + "|}" * 33000,
        # parsed, then SIGSEGV in the game layer's outcome recursion
        "+-" * 20000 + "1",
    ],
    ids=["braces", "switches"],
)
def test_eval_too_deep_exit_2(expr):
    proc = _hotgames("eval", "--", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "expression nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_at_the_nesting_limit():
    from hotgames.notation import MAX_NESTING

    proc = _hotgames("eval", "--", "+-" * MAX_NESTING + "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "canonical    0\n" in proc.stdout


# -- fuzz ---------------------------------------------------------------------

_TOKENS = st.sampled_from(list("{}|,()+-*^v/.0123456789") + ["+-", "±"])
# runs past 4,300 digits exceed the interpreter's int parsing limit
_DIGIT_RUNS = st.integers(5, 5000).map(lambda n: "9" * n)
_EXPRESSIONS = st.lists(_TOKENS | _DIGIT_RUNS, max_size=30).map("".join)
_BOARDS = st.lists(st.text("#.", min_size=1, max_size=6), min_size=1, max_size=3)
_ARGVS = st.one_of(
    st.builds(
        lambda command, fmt, expr: [command, "--format", fmt, "--", expr],
        st.sampled_from(["eval", "thermo"]),
        st.sampled_from(["text", "json"]),
        _EXPRESSIONS,
    ),
    _BOARDS.map(lambda rows: ["board", "domineering", "--text", "\n".join(rows)]),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ARGVS)
def test_cli_fuzz_exit_codes(argv):
    # contextlib, not capsys: hypothesis rejects function-scoped fixtures
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--max-nodes", "5000", "--time-budget-s", "0.5", *argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
