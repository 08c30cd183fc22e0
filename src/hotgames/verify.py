"""Named verification suites behind the CLI `verify` command.

Each suite re-derives a published claim (or a theorem's checkable
consequence) with this engine and reports one line per check. The pytest
acceptance module covers the same ground at full scale; these suites are
the quick, scriptable subset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bounds import class_scan, confusion_witness, tightness_sequence
from .domineering import dom_game, snake_enumerate
from .dyadic import Dyadic
from .games import GameStore, Outcome
from .sampling import random_game
from .thermal import ell, left_stop, right_stop, temperature


@dataclass
class Check:
    label: str
    ok: bool
    info: str = ""

    def to_json_dict(self) -> dict:
        return {"label": self.label, "ok": self.ok, "info": self.info}


@dataclass
class VerifyResult:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, info: str = "") -> None:
        self.checks.append(Check(label, ok, info))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.label}" + (f"  {c.info}" if c.info else ""))
        return "\n".join(lines)


def verify_tightness(store: GameStore) -> VerifyResult:
    """t(G_n) = 9 - 3/2^n for the switch tower, staying below 9."""
    res = VerifyResult("tightness")
    for i, (g, t) in enumerate(tightness_sequence(6, store)):
        want = Dyadic(9) - Dyadic(3, i)
        res.add(f"t(G_{i}) = {want}", t == want and t <= Dyadic(9), f"got {t}")
    return res


def verify_snakes(store: GameStore) -> VerifyResult:
    """Snakes in 2x8: ell <= 2, t <= 3, and the K=2 witness holds."""
    res = VerifyResult("snakes")
    games = [dom_game(board, store) for board in snake_enumerate(8)]
    scan = class_scan(games, "snakes fitting 2x8")  # raises on an empty class
    k, t = scan.max_ell, scan.max_observed_temp
    res.add("scanned snakes fitting 2x8", True, f"{scan.positions_scanned} boards")
    res.add("ell <= 2 for every snake", k <= Dyadic(2), f"max ell {k}")
    res.add("t <= 3 for every snake", t <= Dyadic(3), f"max t {t}")
    res.add(
        "witness K=2, eps=^ holds for every snake",
        all(confusion_witness(g, 2, store.up).holds for g in games),
    )
    return res


# (label, check on a random pair g, h and their sum s) of verify_properties
_PROPERTIES = (
    ("LS >= RS", lambda g, h, s: left_stop(g) >= right_stop(g)),
    ("LS(-G) = -RS(G)", lambda g, h, s: left_stop(-g) == -right_stop(g)),
    ("o(G - G) = P", lambda g, h, s: (g - g).outcome() == Outcome.P),
    (
        "RS(G)+LS(H) <= LS(G+H)",
        lambda g, h, s: right_stop(g) + left_stop(h) <= left_stop(s),
    ),
    (
        "LS(G+H) <= LS(G)+LS(H)",
        lambda g, h, s: left_stop(s) <= left_stop(g) + left_stop(h),
    ),
    ("ell(G+H) <= ell(G)+ell(H)", lambda g, h, s: ell(s) <= ell(g) + ell(h)),
    (
        "t(G+H) <= max(t(G),t(H))",
        lambda g, h, s: temperature(s) <= max(temperature(g), temperature(h)),
    ),
    (
        "eq(G,H) iff canonical ids equal",
        lambda g, h, s: g.eq(h) == (g.canonical() == h.canonical()),
    ),
)


def verify_properties(store: GameStore) -> VerifyResult:
    """Random-game invariant battery (stop/order/temperature laws)."""
    rng = random.Random(2024)
    res = VerifyResult("properties")
    bad = {label: 0 for label, _ in _PROPERTIES}
    for _ in range(300):
        g = random_game(rng, store)
        h = random_game(rng, store)
        s = g + h
        for label, holds in _PROPERTIES:
            if not holds(g, h, s):
                bad[label] += 1
    for label, n in bad.items():
        res.add(f"{label} on 300 random pairs", n == 0, f"{n} violations")
    return res


SUITES = {
    "tightness": verify_tightness,
    "snakes": verify_snakes,
    "properties": verify_properties,
}
