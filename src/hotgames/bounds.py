"""Confusion-interval witnesses and boiling-point bounds.

The witness test plays the difference G^L - G - K + eps and asks whether
Right wins with Left moving first (i.e. whether it is <= 0). When it
holds for every Left option, ell(G) <= K, which feeds the class-level
temperature bound K/2 + J. Difference positions are disjunctive sums, so
the store's component-wise hash-consing keeps the exhaustive search at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dyadic import ZERO, Dyadic, dyadic
from .errors import CeilingExceededError, DomainError, EmptyClassError
from .games import Game, GameStore
from .thermal import ell, stops, temperature


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the test G^L - G - k + epsilon <= 0 over all G^L."""

    subject: Game
    k: Dyadic
    epsilon: Game
    holds: bool
    failing_option: Game | None

    def to_json_dict(self) -> dict:
        return {
            "subject": str(self.subject),
            "k": str(self.k),
            "epsilon": str(self.epsilon),
            "holds": self.holds,
            "failing_option": None
            if self.failing_option is None
            else str(self.failing_option),
        }


def confusion_witness(g: Game, k, eps: Game | None = None) -> WitnessReport:
    """Check Right wins G^L - G - k + eps with Left moving first, for
    every Left option. eps must be an infinitesimal (stops (0,0))."""
    store = g.store
    if eps is None:
        eps = store.up
    k = dyadic(k)
    if k < ZERO:
        raise DomainError(f"witness constant must be >= 0, got {k}")
    if stops(eps) != (ZERO, ZERO):
        raise DomainError(f"epsilon {eps} is not an infinitesimal")
    neg_g = -g
    offset = store.number(-k)
    failing = None
    for gl in g.left_options:
        test = store.add_all([gl, neg_g, offset, eps])
        if not test.leq(store.zero):
            failing = gl
            break
    holds = failing is None
    if holds and not ell(g) <= k:
        raise AssertionError(
            f"witness held at k={k} but ell({g}) = {ell(g)} > {k}; engine bug"
        )
    return WitnessReport(g, k, eps, holds, failing)


def minimal_confusion_k(
    g: Game,
    step=Dyadic(1, 1),
    eps: Game | None = None,
    ceiling=Dyadic(256),
) -> Dyadic:
    """Smallest multiple of `step` at which the witness holds.

    Galloping + binary search on the grid, assuming the witness is
    monotone in k; the result and its predecessor are re-verified and on
    any inconsistency the search falls back to a plain linear scan.
    """
    step = dyadic(step)
    ceiling = dyadic(ceiling)
    if not step > ZERO:
        raise DomainError(f"grid step must be positive, got {step}")

    def holds(mult: int) -> bool:
        return confusion_witness(g, step * mult, eps).holds

    if holds(0):
        return ZERO
    hi = 1
    while not holds(hi):
        hi *= 2
        if step * hi > ceiling:
            raise CeilingExceededError(
                f"no witness constant up to {ceiling} (step {step})"
            )
    lo = hi // 2  # fails (or is 0, which failed above)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    # monotonicity spot-check around the claimed minimum
    if holds(hi) and (hi == 1 or not holds(hi - 1)):
        return step * hi
    for mult in range(1, hi + 1):  # fallback: linear scan
        if holds(mult):
            return step * mult
    raise CeilingExceededError(f"witness search inconsistent up to {step * hi}")


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
