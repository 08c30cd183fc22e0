import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hotgames import Dyadic, GameStore, parse_expr
from hotgames.budget import Deadline
from hotgames.cli import main
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


def test_snort_2xn_table_small(store):
    table = snort_2xn_table(store, 4)
    assert [c.computed for c in table.cells] == [D(-1), D(9, 2), D(-1)]
    assert all(c.match for c in table.cells)


def test_table_truncation_marker(store):
    deadline = Deadline(seconds=-1)  # already expired
    table = snort_2xn_table(store, 4, deadline)
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
    import contextlib
    import io

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


def test_max_nodes_budget_exit_3(capsys):
    assert main(["--max-nodes", "40", "tables", "snort2xn", "--max-n", "5"]) == 3


def test_verify_exit_codes():
    code, out = run_cli("verify", "tightness")
    assert code == 0 and "PASS" in out
    code, out = run_cli("verify", "tightness", "--format", "json")
    assert json.loads(out)[0]["passed"] is True


def test_verify_unknown_suite_exit_2(capsys):
    assert main(["verify", "bogus"]) == 2


def test_scan_integers():
    code, out = run_cli("scan", "integers", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bp_bound"] == "0"


def test_scan_graphs_findings():
    code, out = run_cli("scan", "graphs", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphs_scanned"] == 10
    assert payload["counterexamples"] == []


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "hotgames", "eval", "*"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "outcome      N" in proc.stdout


def _hotgames(*argv):
    import hotgames

    env = {**os.environ, "PYTHONPATH": str(Path(hotgames.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "hotgames", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


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
