"""Text notation for short games: recursive-descent parser and printer.

Grammar (whitespace-insensitive, UTF-8):

    expr   := term (("+" | "-") term)*
    term   := "-" term | "±" term | "+-" term | atom
    atom   := number | "*" | "^" | "v" | "{" list "|" list "}" | "(" expr ")"
    list   := empty | expr ("," expr)*
    number := integer | integer "/" pow2 | decimal with dyadic fraction

"*" (or "∗") is {0|0}, "^" (or "↑") is {0|*}, "v" (or "↓") is its
negative, and "±G" (ASCII spelling "+-", only in term position)
abbreviates the switch {G | -G}. Numeric literals must be dyadic:
"1/3" or "0.1" are rejected. Terms nest at most MAX_NESTING deep.
"""

from __future__ import annotations

from .dyadic import Dyadic
from .errors import ParseError
from .games import Game, GameStore

_NUM_START = set("0123456789")
MAX_NESTING = 10_000  # deeper terms would exhaust the parser's or game layer's stack


class _Parser:
    def __init__(self, text: str, store: GameStore):
        self.text = text
        self.store = store
        self.pos = 0
        self.depth = 0

    def fail(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Game:
        g = self.expr()
        if self.peek():
            self.fail(f"unexpected trailing input {self.text[self.pos]!r}")
        return g

    def expr(self) -> Game:
        g = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                g = g + self.term()
            elif c == "-":
                self.pos += 1
                g = g - self.term()
            else:
                return g

    def term(self) -> Game:
        if self.depth > MAX_NESTING:  # depth counts the enclosing terms
            self.fail("expression nested too deeply")
        self.depth += 1
        g = self._term()
        self.depth -= 1
        return g

    def _term(self) -> Game:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.term()
        if c == "±" or self.text.startswith("+-", self.pos):
            # "+-" in term position is the ASCII switch prefix
            self.pos += 1 if c == "±" else 2
            return self.store.plus_minus(self.term())
        if c == "+":
            self.fail("unexpected '+'")
        return self.atom()

    def atom(self) -> Game:
        c = self.peek()
        if c in ("*", "∗"):
            self.pos += 1
            return self.store.star
        if c in ("^", "↑"):
            self.pos += 1
            return self.store.up
        if c in ("v", "↓"):
            self.pos += 1
            return self.store.down
        if c == "{":
            self.pos += 1
            left = self.option_list()
            self.take("|")
            right = self.option_list()
            self.take("}")
            return self.store.make(left, right)
        if c == "(":
            self.pos += 1
            g = self.expr()
            self.take(")")
            return g
        if c in _NUM_START:
            return self.store.number(self.number())
        self.fail("expected a game" if not c else f"unexpected {c!r}")

    def option_list(self) -> list[Game]:
        if self.peek() in ("|", "}"):
            return []
        opts = [self.expr()]
        while self.peek() == ",":
            self.pos += 1
            opts.append(self.expr())
        return opts

    def number(self) -> Dyadic:
        start = self.pos
        self.digits()
        if self.pos < len(self.text) and self.text[self.pos] in "/.":
            self.pos += 1
            self.digits()
        literal = self.text[start : self.pos]
        try:
            return Dyadic.parse(literal)
        except ValueError as exc:
            self.pos = start
            self.fail(str(exc))

    def digits(self):
        if self.pos >= len(self.text) or self.text[self.pos] not in _NUM_START:
            self.fail("expected digits")
        while self.pos < len(self.text) and self.text[self.pos] in _NUM_START:
            self.pos += 1


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
    left = ",".join(_format_canonical(store, l) for l in store._left[i])
    right = ",".join(_format_canonical(store, r) for r in store._right[i])
    return "{" + left + "|" + right + "}"
