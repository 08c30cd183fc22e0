"""Seeded random game generation for property suites.

Plain `random.Random` with explicit seeds: the verification suites need
to draw thousands of games quickly and reproducibly.
"""

from __future__ import annotations

import random

from .dyadic import Dyadic
from .games import Game, GameStore
from .thermal import is_hot


def random_dyadic(rng: random.Random) -> Dyadic:
    """Uniform over the multiples of 1/2^e in [-8, 8], for a random e <= 2."""
    exp = rng.randint(0, 2)
    return Dyadic(rng.randint(-8 << exp, 8 << exp), exp)


def random_game(
    rng: random.Random,
    store: GameStore,
    max_depth: int = 3,
    max_options: int = 3,
) -> Game:
    """Random game of depth <= max_depth with <= max_options per side."""
    if max_depth == 0 or rng.random() < 0.2:
        return store.number(random_dyadic(rng))
    left = [
        random_game(rng, store, max_depth - 1, max_options)
        for _ in range(rng.randint(0, max_options))
    ]
    right = [
        random_game(rng, store, max_depth - 1, max_options)
        for _ in range(rng.randint(0, max_options))
    ]
    return store.make(left, right)


def random_hot_game(rng: random.Random, store: GameStore) -> Game:
    """Rejection-sample a hot game (left stop strictly above right stop)."""
    for _ in range(500):
        g = random_game(rng, store)
        if g.left_options and g.right_options and is_hot(g):
            return g
    # guaranteed hot fallback: a random switch
    a = random_dyadic(rng)
    b = a - Dyadic(rng.randint(1, 6))
    return store.switch(a, b)
