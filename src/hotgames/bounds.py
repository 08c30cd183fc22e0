"""Confusion-interval witnesses and boiling-point bounds.

The witness test asks whether Right wins G^L - G - K + eps moving
second. As X <= Y iff X - Y <= 0, that is G^L + eps <= G + K, a
comparison of two canonical nodes. When it holds for every Left option,
ell(G) <= K, which feeds the class-level temperature bound K/2 + J. The
least K on a grid lies in a bracket given by the stops of G and of its
Left options (the stop inequalities for sums), and a bisection inside
that bracket finds it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dyadic import ZERO, Dyadic, dyadic
from .errors import DomainError, EmptyClassError
from .games import Game, GameStore
from .thermal import ell, left_stop, stops, temperature


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the test G^L + eps <= G + k over all G^L."""

    holds: bool
    failing_option: Game | None


def confusion_witness(g: Game, k, eps: Game | None = None) -> WitnessReport:
    """Check G^L + eps <= G + k, that is Right wins G^L - G - k + eps
    with Left moving first, for every Left option. eps must be an
    infinitesimal (stops (0,0))."""
    store = g.store
    if eps is None:
        eps = store.up
    k = dyadic(k)
    if k < ZERO:
        raise DomainError(f"witness constant must be >= 0, got {k}")
    if stops(eps) != (ZERO, ZERO):
        raise DomainError(f"epsilon {eps} is not an infinitesimal")
    shifted = g + store.number(k)
    failing = None
    for gl in g.left_options:
        if not (gl + eps).leq(shifted):
            failing = gl
            break
    holds = failing is None
    if holds and not ell(g) <= k:
        raise AssertionError(
            f"witness held at k={k} but ell({g}) = {ell(g)} > {k}; engine bug"
        )
    return WitnessReport(holds, failing)


def _grid_floor(x: Dyadic, step: Dyadic) -> int:
    """floor(x / step), in integers."""
    return (x.num << step.exp) // (step.num << x.exp)


def minimal_confusion_k(g: Game, step=Dyadic(1, 1), eps: Game | None = None) -> Dyadic:
    """Smallest multiple of `step` at which the witness holds.

    With T = max L(G^L), the stop inequalities L(G^L) - L(G) <=
    L(G^L - G) <= L(G^L) - R(G) make the witness fail below T - L(G) and
    hold above T - R(G). The witness is monotone in k, so a bisection
    between those two grid points finds the least one that holds.
    """
    step = dyadic(step)
    if not step > ZERO:
        raise DomainError(f"grid step must be positive, got {step}")
    if eps is None:
        eps = g.store.up
    if stops(eps) != (ZERO, ZERO):
        raise DomainError(f"epsilon {eps} is not an infinitesimal")
    if not g.left_options:
        return ZERO
    top = max(left_stop(gl) for gl in g.left_options)
    ls, rs = stops(g)
    lo = max(-1, -_grid_floor(ls - top, step) - 1)  # last point below T - L(G)
    hi = max(0, _grid_floor(top - rs, step) + 1)  # first point above T - R(G)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if confusion_witness(g, step * mid, eps).holds:
            hi = mid
        else:
            lo = mid
    return step * hi


@dataclass(frozen=True)
class ClassScanReport:
    """ell statistics of a finite class and its Thm-level bound K/2 + J."""

    class_label: str
    positions_scanned: int
    max_ell: Dyadic  # K
    max_ell_options: Dyadic  # J
    bp_bound: Dyadic  # K/2 + J
    max_observed_temp: Dyadic

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_label,
            "positions_scanned": self.positions_scanned,
            "max_ell": str(self.max_ell),
            "max_ell_options": str(self.max_ell_options),
            "bp_bound": str(self.bp_bound),
            "max_observed_temp": str(self.max_observed_temp),
        }


def bp_bound(j, k) -> Dyadic:
    """Boiling-point bound K/2 + J for option bound J and member bound K."""
    j, k = dyadic(j), dyadic(k)
    if j < ZERO or k < ZERO:
        raise DomainError(f"bounds must be non-negative, got J={j}, K={k}")
    return k.half() + j


def class_scan(positions: Iterable[Game], label: str) -> ClassScanReport:
    """Scan a finite class: ell of members (K) and of their options (J),
    the bound K/2 + J, and the hottest observed temperature."""
    scanned = 0
    max_ell: Dyadic | None = None
    max_opt = ZERO
    max_temp: Dyadic | None = None
    for g in positions:
        scanned += 1
        e = ell(g)
        max_ell = e if max_ell is None else max(max_ell, e)
        for opt in g.left_options + g.right_options:
            max_opt = max(max_opt, ell(opt))
        t = temperature(g)
        max_temp = t if max_temp is None else max(max_temp, t)
    if scanned == 0:
        raise EmptyClassError(f"class {label!r} produced no positions")
    bound = bp_bound(max_opt, max_ell)
    if not max_temp <= bound:
        raise AssertionError(
            f"class {label!r}: observed temperature {max_temp} exceeds "
            f"bound {bound}; engine bug"
        )
    return ClassScanReport(label, scanned, max_ell, max_opt, bound, max_temp)


def tightness_sequence(n: int, store: GameStore) -> list[tuple[Game, Dyadic]]:
    """The switch tower that pushes temperatures towards 9.

    Element i is (G_i, t(G_i)) where G_0 = +-{9|3} and each step replaces
    the innermost Left number a by {a+6|a}; temperatures are 9 - 3/2^i.
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    out = []
    for i in range(n + 1):
        g = store.number(9 + 6 * i)
        for b in range(3 + 6 * i, 0, -6):
            g = store.make([g], [store.number(b)])
        tower = store.plus_minus(g)
        out.append((tower, temperature(tower)))
    return out
