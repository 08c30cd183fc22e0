from argparse import Namespace

import pytest

from hotgames import GameStore, NodeBudgetError, ParseError, format_game, parse_expr, stops
from hotgames.cli import cmd_eval
from hotgames.dyadic import Dyadic
from hotgames.sampling import random_game
from hotgames.snort import snort_game
from hotgames.tables import snort_2xn_table, snort_path_board, snort_path_table


def test_parse_switch_stops(store):
    g = parse_expr("{5|2}", store)
    assert stops(g) == (Dyadic(5), Dyadic(2))


def test_parse_threat_game(store):
    g = parse_expr("{{10|1}|-1}", store)
    assert stops(g) == (Dyadic(1), Dyadic(-1))


def test_syntax_error_position(store):
    with pytest.raises(ParseError) as err:
        parse_expr("{1|", store)
    assert err.value.position == 3
    assert "offset 3" in str(err.value)


def test_non_dyadic_literal_rejected(store):
    with pytest.raises(ParseError):
        parse_expr("1/3", store)
    with pytest.raises(ParseError):
        parse_expr("{1|0.3}", store)


def test_whitespace_insensitive(store):
    assert parse_expr(" { 5 | 2 } ", store) == parse_expr("{5|2}", store)
    assert parse_expr("1 + 1", store) == parse_expr("1+1", store)


def test_named_games_and_unicode(store):
    assert parse_expr("*", store) == store.star
    assert parse_expr("∗", store) == store.star
    assert parse_expr("^", store) == store.up
    assert parse_expr("↑", store) == store.up
    assert parse_expr("v", store) == store.down
    assert parse_expr("↓", store) == store.down


def test_expressions_and_operators(store):
    assert parse_expr("1+1", store).eq(store.number(2))
    assert parse_expr("1-1", store).eq(store.zero)
    assert parse_expr("-(1+1)", store).eq(store.number(-2))
    with pytest.raises(ParseError):
        parse_expr("{3|1},", store)


def test_empty_sides(store):
    assert parse_expr("{|}", store) == store.zero
    assert parse_expr("{0|}", store) == store.number(1)
    assert parse_expr("{|0}", store) == store.number(-1)


def test_plus_minus_forms(store):
    pm = parse_expr("±{9|3}", store)
    assert pm.left_options == (parse_expr("{9|3}", store),)
    assert pm.right_options == (parse_expr("{-3|-9}", store),)
    assert parse_expr("+-{9|3}", store) == pm
    assert parse_expr("1+-2", store).eq(store.number(-1))  # '+' then unary '-'
    assert parse_expr("1+(+-2)", store).eq(
        store.number(1) + store.plus_minus(store.number(2))
    )


def test_fraction_and_decimal_literals(store):
    assert parse_expr("3/4", store) == store.number(Dyadic(3, 2))
    assert parse_expr("1.25", store) == store.number(Dyadic(5, 2))
    assert parse_expr("-3/4", store) == store.number(Dyadic(-3, 2))


def test_printer_named_forms(store):
    assert format_game(store.star) == "*"
    assert format_game(store.up) == "^"
    assert format_game(store.down) == "v"
    assert format_game(store.number(Dyadic(-3, 2))) == "-3/4"
    assert format_game(parse_expr("{5|2}", store)) == "{5|2}"


def test_round_trip_canonical_random(store, rng):
    for _ in range(500):
        c = random_game(rng, store).canonical()
        assert parse_expr(format_game(c), store) == c


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1/", (2, "expected digits")),
        ("1.", (2, "expected digits")),
        ("1/3", (0, "denominator is not a power of two: '1/3'")),
        ("{1|", (3, "expected a game")),
        ("1 2", (2, "unexpected trailing input '2'")),
        ("+ 1", (0, "unexpected '+'")),
        ("1+-2", "-1"),  # '+' then unary '-'
        ("1+ -2", "-1"),
        ("1 +- 2", "-1"),
        ("1+(+-2)", "{3|-1}"),
        ("٣", (0, "unexpected '٣'")),  # an Arabic-Indic digit is not a numeric literal
        (" {5|2}", "{5|2}"),
        pytest.param(
            "1" * 5000,
            (
                0,
                "Exceeds the limit (4300 digits) for integer string conversion: "
                "value has 5000 digits; use sys.set_int_max_str_digits() "
                "to increase the limit",
            ),
            id="5000-digit literal",
        ),
    ],
)
def test_parse_result_or_error_offset(store, text, expected):
    if isinstance(expected, str):
        assert format_game(parse_expr(text, store)) == expected
        return
    offset, message = expected
    with pytest.raises(ParseError) as err:
        parse_expr(text, store)
    assert err.value.position == offset
    assert str(err.value) == f"syntax error at offset {offset}: {message}"


def test_literal_cache_shares_nodes(store):
    a = parse_expr("{3|1/2}", store)
    b = parse_expr("3 + 1/2", store)
    assert parse_expr("3", store).id == parse_expr("3", store).id == store.number(3).id
    assert parse_expr("3.0", store).id == parse_expr("3", store).id
    assert parse_expr("0.5", store).id == parse_expr("1/2", store).id
    assert a.left_options[0].id == store.number(3).id
    assert format_game(b) == "7/2"
    assert store.cache("literal").keys() == {"3", "1/2", "3.0", "0.5"}


@pytest.mark.parametrize(
    "text, offset", [("3/", 2), ("1/", 2), ("{3|1/3}", 3), ("{0.1|0.5}", 1)]
)
def test_literal_cache_keeps_parse_errors(store, text, offset):
    parse_expr("3 + 1/2", store)
    with pytest.raises(ParseError) as err:
        parse_expr(text, store)
    assert err.value.position == offset
    # only a literal that parsed is cached
    assert store.cache("literal").keys() <= {"3", "1/2"}


def test_uncached_literal_under_exhausted_budget(store):
    three = parse_expr("3", store)
    store.max_nodes = len(store)
    assert parse_expr("3", store) == three
    with pytest.raises(NodeBudgetError):
        parse_expr("4", store)
    assert "4" not in store.cache("literal")
    store.max_nodes = None
    assert parse_expr("4", store) == store.number(4)


def _history(store: GameStore) -> GameStore:
    """The store after it built the Snort 2xn and decorated-path tables."""
    snort_2xn_table(store, 7)
    snort_path_table(store, 12)
    return store


def test_printed_board_values_do_not_depend_on_the_store_history():
    # the four decorated-path families to n = 12 and their colour swaps
    boards = [
        b
        for family in ("P", "LP", "LPL", "LPR")
        for n in range(1, 13)
        if (board := snort_path_board(family, n)) is not None
        for b in (board, board.swap_colours())
    ]
    assert len(boards) == 90
    shared = _history(GameStore())
    for board in boards:
        fresh = format_game(snort_game(board, GameStore()))
        assert format_game(snort_game(board, shared)) == fresh, board


def test_eval_prints_the_same_text_whatever_the_store_built_first(capsys):
    # the value of the Snort path on 7 vertices, as it prints
    expr = (
        "{1,{{4|3}|{*|{-1|-1}}},{{4|3}|{1|-1},{{1|1}|*}}"
        "|-1,{{*|{-1|-1}},{1|-1}|{-3|-4}},{{{1|1}|*}|{-3|-4}}}"
    )
    outputs = []
    for store in (GameStore(), _history(GameStore())):
        cmd_eval(Namespace(expr=expr, format="text"), store)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == "canonical    " + expr
