"""Published temperature tables and the machinery to recompute them.

Reference values: Domineering 2xn temperatures follow from Berlekamp's
periodic value analysis of 2xn boards; the Snort rows are the CGSuite
temperatures for paths with decorated ends and for 2xn grids. Each table
command recomputes the cells with this engine and flags agreement per
cell, truncating explicitly (never silently) when a budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domineering import dom_game, grid
from .dyadic import Dyadic
from .errors import NodeBudgetError, TimeBudgetError
from .games import GameStore
from .snort import snort_game, snort_grid, snort_path
from .thermal import temperature

Q = lambda n, e=0: Dyadic(n, e)  # noqa: E731  (table literals below)

# n = 1..5, then periodic with period 10 from n = 6 on
_DOM_SMALL = {1: Q(0), 2: Q(1), 3: Q(5, 2), 4: Q(0), 5: Q(0)}
_DOM_PERIODIC = [
    Q(1), Q(1), Q(9, 3), Q(9, 3), Q(19, 4),
    Q(19, 4), Q(0), Q(0), Q(9, 3), Q(9, 3),
]  # j = 6..15


def dom_2xn_reference(n: int) -> Dyadic | None:
    if n < 1:
        return None
    if n <= 5:
        return _DOM_SMALL[n]
    return _DOM_PERIODIC[(n - 6) % 10]


# decorated-path rows, keyed by total vertex count n (pieces included);
# blank cells of the published table are positions that cannot occur
SNORT_PATH_REFERENCE: dict[str, dict[int, Dyadic]] = {
    "P": {
        1: Q(0), 2: Q(1), 3: Q(2), 4: Q(3, 1), 5: Q(1), 6: Q(0),
        7: Q(1), 8: Q(2), 9: Q(2), 10: Q(3, 1), 11: Q(3, 1), 12: Q(1),
    },
    "LP": {
        1: Q(-1), 2: Q(-1), 3: Q(1, 1), 4: Q(3, 1), 5: Q(2), 6: Q(7, 2),
        7: Q(3, 1), 8: Q(1), 9: Q(15, 3), 10: Q(2), 11: Q(2), 12: Q(31, 4),
    },
    "LPL": {
        2: Q(-1), 3: Q(-1), 4: Q(-1), 5: Q(1), 6: Q(3, 1), 7: Q(2),
        8: Q(3, 1), 9: Q(7, 2), 10: Q(1), 11: Q(7, 2), 12: Q(15, 3),
    },
    "LPR": {
        3: Q(-1), 4: Q(0), 5: Q(1), 6: Q(2), 7: Q(2), 8: Q(2),
        9: Q(1), 10: Q(1), 11: Q(1), 12: Q(2),
    },
}

SNORT_2XN_REFERENCE = {2: Q(-1), 3: Q(9, 2), 4: Q(-1), 5: Q(5, 1), 6: Q(-1), 7: Q(1)}


def snort_path_board(family: str, n: int):
    """Board for a table row at column n (n counts pieces too), or None
    for the impossible corner cells."""
    if family == "P":
        return snort_path(n) if n >= 1 else None
    if family == "LP":
        return snort_path(n - 1, "L") if n >= 1 else None
    if family == "LPL":
        return snort_path(n - 2, "L", "L") if n >= 2 else None
    if family == "LPR":
        return snort_path(n - 2, "L", "R") if n >= 3 else None
    raise ValueError(f"unknown decorated-path family {family!r}")


@dataclass(frozen=True)
class TableCell:
    row: str
    n: int
    computed: Dyadic | None
    reference: Dyadic | None
    truncated: bool = False
    number: bool = False  # the board's value is an exact number

    @property
    def match(self) -> bool | None:
        if self.computed is None or self.reference is None:
            return None
        return self.computed == self.reference

    @property
    def flag(self) -> str:
        """Why a cell agrees or not. NUMBER: the table prints 0 for a board
        that is an exact number, whose definition-exact temperature is
        negative (-1/2^k for m/2^k)."""
        if self.truncated:
            return "TRUNCATED"
        if self.match is None:
            return ""
        if self.match:
            return "ok"
        if self.number and self.reference == 0:
            return "NUMBER"
        return "MISMATCH"

    def to_json_dict(self) -> dict:
        return {
            "row": self.row,
            "n": self.n,
            "computed": None if self.computed is None else str(self.computed),
            "reference": None if self.reference is None else str(self.reference),
            "match": self.match,
            "flag": self.flag,
            "truncated": self.truncated,
        }


@dataclass
class Table:
    name: str
    cells: list[TableCell] = field(default_factory=list)

    @property
    def truncated(self) -> bool:
        return any(c.truncated for c in self.cells)

    def to_json_dict(self) -> dict:
        return {
            "table": self.name,
            "truncated": self.truncated,
            "cells": [c.to_json_dict() for c in self.cells],
        }

    def render_text(self) -> str:
        header = f"{'row':8} {'n':>3} {'computed':>10} {'published':>10}  flag"
        lines = [self.name, header, "-" * len(header)]
        for c in self.cells:
            comp = "(budget)" if c.truncated else str(c.computed)
            ref = "-" if c.reference is None else str(c.reference)
            lines.append(f"{c.row:8} {c.n:>3} {comp:>10} {ref:>10}  {c.flag}")
        return "\n".join(lines)


def _table(name: str, cells) -> Table:
    """Compute each (row, n, reference, board value thunk) cell's
    temperature, degrading to an explicit truncation marker when the
    computation needs a node past one of the store's budgets."""
    table = Table(name)
    for row, n, reference, board_value in cells:
        try:
            value = board_value()
            temp = temperature(value)
        except (TimeBudgetError, NodeBudgetError):
            table.cells.append(TableCell(row, n, None, reference, truncated=True))
            continue
        table.cells.append(TableCell(row, n, temp, reference, number=value.is_number()))
    return table


def domineering_2xn_table(store: GameStore, max_n: int) -> Table:
    cells = (
        ("2xn", n, dom_2xn_reference(n), lambda n=n: dom_game(grid(2, n), store))
        for n in range(1, max_n + 1)
    )
    return _table("Domineering 2xn temperatures", cells)


def snort_path_table(store: GameStore, max_n: int) -> Table:
    cells = (
        (family, n, refs.get(n), lambda b=board: snort_game(b, store))
        for family, refs in SNORT_PATH_REFERENCE.items()
        for n in range(1, max_n + 1)
        if (board := snort_path_board(family, n)) is not None
    )
    return _table("Snort decorated-path temperatures", cells)


def snort_2xn_table(store: GameStore, max_n: int) -> Table:
    refs = SNORT_2XN_REFERENCE
    cells = (
        ("2xn", n, refs.get(n), lambda n=n: snort_game(snort_grid(2, n), store))
        for n in range(2, max_n + 1)
    )
    return _table("Snort 2xn grid temperatures", cells)


TABLES = {
    "domineering2xn": (domineering_2xn_table, 5),
    "snortpaths": (snort_path_table, 10),
    "snort2xn": (snort_2xn_table, 5),
}
