"""Exact combinatorial game theory engine.

Short games are interned in a GameStore as a shared DAG; on top of that
sit exact stops, cooling, thermographs and temperatures, the
confusion-interval witness machinery for bounding temperatures of whole
classes, and Domineering/Snort board models able to reproduce the known
small-board temperature tables.
"""

from .bounds import (
    ClassScanReport,
    WitnessReport,
    bp_bound,
    class_scan,
    confusion_witness,
    minimal_confusion_k,
    tightness_sequence,
)
from .domineering import (
    DomBoard,
    dom_game,
    drummond_cole_board,
    fold,
    grid,
    is_snake,
    snake_enumerate,
)
from .dyadic import Dyadic, dyadic
from .errors import (
    CeilingExceededError,
    CgtError,
    DomainError,
    EmptyClassError,
    ForeignHandleError,
    NodeBudgetError,
    NotHotError,
    ParseError,
    TimeBudgetError,
    WrongShapeError,
)
from .games import Game, GameStore, Outcome, outcome_comparable, outcome_geq, outcome_leq
from .notation import format_game, parse_expr
from .snort import (
    SnortBoard,
    Tint,
    graph_enumerate,
    snort_game,
    snort_grid,
    snort_path,
    snort_star,
)
from .thermal import (
    Thermograph,
    WallDecomposition,
    cool,
    ell,
    infinitesimally_close,
    is_hot,
    left_stop,
    right_stop,
    stops,
    temp_mean,
    temp_upper_bound,
    temperature,
    thermic_versions,
    thermograph,
    wall_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
