import random

import pytest

from hotgames import (
    Dyadic,
    ForeignHandleError,
    Game,
    GameStore,
    Outcome,
    TimeBudgetError,
    dom_game,
    grid,
    outcome_comparable,
    outcome_geq,
    outcome_leq,
    parse_expr,
    snort_game,
    snort_grid,
    snort_path,
)
from hotgames import domineering, snort
from hotgames.budget import Deadline
from hotgames.games import evaluate
from hotgames.sampling import random_game

from oracle import RawOracle


def test_zero_is_empty_node(store):
    z = store.make([], [])
    assert z == store.zero
    assert z.left_options == () and z.right_options == ()
    assert z.outcome() == Outcome.P


def test_star_and_named_games(store):
    assert store.star == store.make([store.zero], [store.zero])
    assert store.star.outcome() == Outcome.N
    assert store.up.outcome() == Outcome.L  # up is positive
    assert store.up.confused_with(store.star)


def test_hash_consing_idempotence(store):
    a = store.number(3)
    b = store.number(-2)
    g1 = store.make([a, b, a], [b])
    g2 = store.make([b, a], [b])
    assert g1 == g2 and g1.id == g2.id


def test_expired_deadline_stops_the_first_new_node():
    store = GameStore(deadline=Deadline(-1))  # 0, *, ^ and v are built first
    assert store.make([store.zero], [store.zero]) == store.star  # an intern hit
    with pytest.raises(TimeBudgetError):
        store.make([store.star], [store.star])


def test_foreign_handle_rejected(store):
    other = GameStore()
    with pytest.raises(ForeignHandleError):
        store.make([other.zero], [])
    with pytest.raises(ForeignHandleError):
        store.add(store.zero, other.star)


def test_negate_examples(store):
    g = parse_expr("{5|2}", store)
    assert (-g) == parse_expr("{-2|-5}", store)
    assert (-store.zero) == store.zero
    assert (-store.up) == store.down


def test_negate_involution_random(store, rng):
    for _ in range(1000):
        g = random_game(rng, store)
        assert -(-g) == g


def test_sum_identity_and_examples(store):
    one = store.number(1)
    assert (one + store.zero) == one
    assert (one + one).eq(store.number(2))
    switch = parse_expr("{1|-1}", store)
    assert (switch + switch).outcome() == Outcome.P  # its own negative


def test_sum_eq_with_self_negation_random(store, rng):
    for _ in range(300):
        g = random_game(rng, store)
        assert (g - g).outcome() == Outcome.P


def test_outcome_examples(store):
    assert store.zero.outcome() == Outcome.P
    assert store.number(3).outcome() == Outcome.L
    assert store.number(-1).outcome() == Outcome.R
    assert parse_expr("{1|-1}", store).outcome() == Outcome.N


def test_outcome_partial_order():
    # Hasse order: L above N and P, both above R; N and P incomparable
    L, N, P, R = Outcome.L, Outcome.N, Outcome.P, Outcome.R
    above = {(L, N), (L, P), (L, R), (N, R), (P, R)} | {(a, a) for a in Outcome}
    for a in Outcome:
        for b in Outcome:
            assert outcome_geq(a, b) == ((a, b) in above), (a, b)
            assert outcome_leq(a, b) == ((b, a) in above), (a, b)
            comparable = (a, b) in above or (b, a) in above
            assert outcome_comparable(a, b) == comparable, (a, b)


def test_leq_examples(store):
    zero, one = store.zero, store.number(1)
    assert zero.leq(one)
    assert not one.leq(zero)
    assert store.star.confused_with(zero)
    assert store.zero.leq(store.up) and not store.up.leq(store.zero)


def test_leq_reflexive_random(store, rng):
    for _ in range(200):
        g = random_game(rng, store)
        assert g.leq(g)


def test_canonical_examples(store):
    assert parse_expr("{-1,0|1}", store).canonical() == parse_expr("{0|1}", store)
    assert parse_expr("{-1,0|1}", store).canonical() == store.number(Dyadic(1, 1))
    assert parse_expr("{*|*}", store).canonical() == store.zero
    # the outcome oracle agrees that {*|*} is a second-player win
    assert parse_expr("{*|*}", store).outcome() == Outcome.P


def test_canonical_idempotent_random(store, rng):
    for _ in range(1000):
        g = random_game(rng, store)
        c = g.canonical()
        assert c.canonical() == c


def test_canonical_form_definition_random(store):
    """Every node of c = canonical(G) has no dominated and no reversible
    option, and c equals G. Each order question is answered by the outcome
    of a raw difference, so the check shares no code with `_leq` or
    `_canonical`."""
    oracle = RawOracle(store)

    def leq(a: int, b: int) -> bool:  # b - a >= 0: Left wins moving second
        return store.outcome(Game(store, oracle.sub(b, a))) in (Outcome.L, Outcome.P)

    left, right = store._left, store._right
    violations = []
    seen: set[int] = set()

    def check(c: int) -> None:
        if c in seen:
            return
        seen.add(c)
        for a in left[c]:
            if any(a != b and leq(a, b) for b in left[c]):
                violations.append(("dominated", c, a))
            if any(leq(ar, c) for ar in right[a]):
                violations.append(("reversible", c, a))
            check(a)
        for a in right[c]:
            if any(a != b and leq(b, a) for b in right[c]):
                violations.append(("dominated", c, a))
            if any(leq(c, al) for al in left[a]):
                violations.append(("reversible", c, a))
            check(a)

    rng = random.Random(20190612)
    for _ in range(400):
        g = random_game(rng, store, max_depth=3, max_options=3)
        c = g.canonical().id
        if not (leq(c, g.id) and leq(g.id, c)):
            violations.append(("unequal", g.id, c))
        check(c)
    assert not violations, f"{len(violations)} violations, first {violations[:3]}"


def test_from_dyadic_integers(store):
    two = store.number(2)
    assert two.left_options == (store.number(1),)
    assert two.right_options == ()
    assert store.number(1).left_options == (store.zero,)


def test_from_dyadic_half_by_outcome_oracle(store):
    half = store.number(Dyadic(1, 1))
    # N + N - 1 is a second-player win, so N behaves as one half
    assert (half + half - store.number(1)).outcome() == Outcome.P


def test_from_dyadic_negation_symmetry(store):
    for s in ("3/4", "7/8", "5", "1/2"):
        x = Dyadic.parse(s)
        assert store.number(-x) == -store.number(x)


def test_number_value_detection(store):
    assert store.number(Dyadic(3, 2)).number_value() == Dyadic(3, 2)
    assert parse_expr("{0|2}", store).number_value() is None  # not canonical
    assert parse_expr("{0|2}", store).is_number()  # but it *is* the number 1
    assert store.star.number_value() is None
    assert not store.star.is_number()


def test_switch_and_plus_minus(store):
    g = store.switch(9, 3)
    assert g == parse_expr("{9|3}", store)
    pm = store.plus_minus(g)
    assert pm == parse_expr("±{9|3}", store)
    assert pm == parse_expr("+-{9|3}", store)


class _Fresh:
    """A position box that equals only itself, so `evaluate` finds no
    transposition among boxes and keys every position it reaches."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p


def _keyed_every_time(store, parts, memo_name, components, key, moves):
    """`evaluate` with each position boxed afresh, and its key-call count."""
    calls = []

    def box(ps):
        return [_Fresh(p) for p in ps]

    def keyed(b):
        calls.append(b)
        return key(b.p)

    g = evaluate(
        store,
        box(parts),
        memo_name,
        lambda b: box(components(b.p)),
        keyed,
        lambda b: tuple(box(os) for os in moves(b.p)),
    )
    return g, len(calls)


def _snort_hooks(board):
    return (
        snort.encoded_parts(board),
        "snort",
        snort._components,
        snort.canonical_key,
        snort._moves,
    )


def _dom_hooks(board):
    mask, stride = domineering._board_mask(board)
    return (
        domineering._components(mask, stride),
        "domineering",
        lambda m: domineering._components(m, stride),
        lambda m: domineering._reflection_key(m, stride),
        lambda m: domineering._moves(m, stride),
    )


@pytest.mark.parametrize(
    "evaluator, hooks, module, key_name, board",
    [
        (snort_game, _snort_hooks, snort, "canonical_key", snort_grid(2, 4)),
        (snort_game, _snort_hooks, snort, "canonical_key", snort_path(8)),
        (dom_game, _dom_hooks, domineering, "_reflection_key", grid(2, 8)),
    ],
    ids=["snort-2x4", "snort-path8", "domineering-2x8"],
)
def test_evaluate_keys_each_position_once(
    monkeypatch, evaluator, hooks, module, key_name, board
):
    reference = GameStore()
    parts, memo_name, *rest = hooks(board)
    expected, reference_calls = _keyed_every_time(reference, parts, memo_name, *rest)

    keyed = []
    key = getattr(module, key_name)

    def counting(p, *args):
        keyed.append(p)
        return key(p, *args)

    monkeypatch.setattr(module, key_name, counting)
    store = GameStore()
    g = evaluator(board, store)
    assert len(keyed) == len(set(keyed))
    # the boards have transpositions, so keying each once saves calls
    assert len(keyed) < reference_calls
    # the same nodes in the same order as keying every position reached
    assert g.id == expected.id and len(store) == len(reference)
    # the position table lives only for the call
    assert list(store._caches) == list(reference._caches) == [memo_name]
