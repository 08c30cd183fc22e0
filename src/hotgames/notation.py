"""Text notation for short games: recursive-descent parser and printer.

Grammar (whitespace-insensitive, UTF-8):

    expr   := term (("+" | "-") term)*
    term   := "-" term | "±" term | "+-" term | atom
    atom   := number | "*" | "^" | "v" | "{" list "|" list "}" | "(" expr ")"
    list   := empty | expr ("," expr)*
    number := integer | integer "/" pow2 | decimal with dyadic fraction

"*" (or "∗") is {0|0}, "^" (or "↑") is {0|*}, "v" (or "↓") is its
negative, and "±G" (ASCII spelling "+-", only in term position)
abbreviates the switch {G | -G}. Numeric literals are ASCII digits and
must be dyadic: "1/3" or "0.1" are rejected. Terms nest at most
MAX_NESTING deep. Each literal's text is parsed once per store: its
number's node is kept in the store's "literal" cache, so "3" and "3.0"
are two entries for one node.
"""

from __future__ import annotations

import re

from .dyadic import Dyadic
from .errors import ParseError
from .games import Game, GameStore

MAX_NESTING = 10_000  # deeper terms would exhaust the parser's or game layer's stack
# an ASCII numeric literal, the switch prefix "+-", any other character, or
# the empty token at the end; each skips the whitespace before it
_TOKEN = re.compile(r"\s*([0-9]+(?:[/.][0-9]*)?|\+-|\S|\Z)")
_NAMED = {"*": "star", "∗": "star", "^": "up", "↑": "up", "v": "down", "↓": "down"}


class _Parser:
    def __init__(self, text: str, store: GameStore):
        matches = list(_TOKEN.finditer(text))
        self.tokens = [m[1] for m in matches]
        self.offsets = [m.start(1) for m in matches]
        self.store = store
        self.literals = store.cache("literal")  # literal text -> number node
        self.i = 0
        self.depth = 0

    def fail(self, message: str):
        raise ParseError(message, self.offsets[self.i])

    def take(self, tok: str):
        if self.tokens[self.i] != tok:
            self.fail(f"expected {tok!r}")
        self.i += 1

    def parse(self) -> Game:
        g = self.expr()
        if self.tokens[self.i]:
            self.fail(f"unexpected trailing input {self.tokens[self.i][0]!r}")
        return g

    def expr(self) -> Game:
        g = self.term()
        while True:
            tok = self.tokens[self.i]
            if tok == "+":
                self.i += 1
                g = g + self.term()
            elif tok == "-":
                self.i += 1
                g = g - self.term()
            elif tok == "+-":  # "+" then a unary "-": "1+-2" is 1 + (-2)
                self.i += 1
                self.depth += 1  # the "-" is a term enclosing the next one
                g = g + -self.term()
                self.depth -= 1
            else:
                return g

    def term(self) -> Game:
        if self.depth > MAX_NESTING:  # depth counts the enclosing terms
            self.fail("expression nested too deeply")
        self.depth += 1
        tok = self.tokens[self.i]
        if tok == "-":
            self.i += 1
            g = -self.term()
        elif tok in ("±", "+-"):  # "+-" in term position is the ASCII switch prefix
            self.i += 1
            g = self.store.plus_minus(self.term())
        else:
            g = self.atom()
        self.depth -= 1
        return g

    def atom(self) -> Game:
        tok = self.tokens[self.i]
        if tok in _NAMED:
            self.i += 1
            return getattr(self.store, _NAMED[tok])
        if tok == "{":
            self.i += 1
            left = self.option_list()
            self.take("|")
            right = self.option_list()
            self.take("}")
            return self.store.make(left, right)
        if tok == "(":
            self.i += 1
            g = self.expr()
            self.take(")")
            return g
        if not tok or tok[0] not in "0123456789":
            self.fail(f"unexpected {tok!r}" if tok else "expected a game")
        if tok[-1] in "/.":
            raise ParseError("expected digits", self.offsets[self.i] + len(tok))
        g = self.literals.get(tok)
        if g is None:
            try:
                x = Dyadic.parse(tok)
            except ValueError as exc:
                self.fail(str(exc))
            # a failed parse or an exhausted node budget caches nothing
            g = self.literals[tok] = self.store.number(x)
        self.i += 1
        return g

    def option_list(self) -> list[Game]:
        if self.tokens[self.i] in ("|", "}"):
            return []
        opts = [self.expr()]
        while self.tokens[self.i] == ",":
            self.i += 1
            opts.append(self.expr())
        return opts


def parse_expr(text: str, store: GameStore) -> Game:
    """Parse a game expression into a (raw, un-canonicalized) handle."""
    return _Parser(text, store).parse()


def format_game(g: Game) -> str:
    """Canonical-form notation. parse_expr(format_game(g)) re-interns the
    identical canonical node, so notation is a faithful serialization."""
    store = g.store
    c = store.canonical(g)
    return _format_canonical(store, c.id)


def _format_canonical(store: GameStore, i: int) -> str:
    x = store._number_value(i)
    if x is not None:
        return str(x)
    if i == store.star.id:
        return "*"
    if i == store.up.id:
        return "^"
    if i == store.down.id:
        return "v"
    # distinct canonical options print differently, so sorting by text
    # gives an order that depends on the games, not on their node ids
    left = ",".join(sorted(_format_canonical(store, l) for l in store._left[i]))
    right = ",".join(sorted(_format_canonical(store, r) for r in store._right[i]))
    return "{" + left + "|" + right + "}"
