"""Named verification suites behind the CLI `verify` command.

Each suite re-derives a published claim (or a theorem's checkable
consequence) with this engine and reports one line per check. The pytest
acceptance module covers the same ground at full scale; these suites are
the quick, scriptable subset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bounds import confusion_witness, tightness_sequence
from .domineering import dom_game, snake_enumerate
from .dyadic import ZERO, Dyadic
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


def verify_tightness(store: GameStore, max_n: int = 6) -> VerifyResult:
    """t(G_n) = 9 - 3/2^n for the switch tower, staying below 9."""
    res = VerifyResult("tightness")
    for i, (g, t) in enumerate(tightness_sequence(max_n, store)):
        want = Dyadic(9) - Dyadic(3, i)
        res.add(f"t(G_{i}) = {want}", t == want and t <= Dyadic(9), f"got {t}")
    return res


def verify_snakes(store: GameStore, max_width: int = 8) -> VerifyResult:
    """Snakes in 2xn: ell <= 2, t <= 3, and the K=2 witness holds."""
    res = VerifyResult("snakes")
    count = 0
    max_ell = ZERO
    max_t = Dyadic(-1)
    witness_ok = True
    for board in snake_enumerate(max_width):
        count += 1
        g = dom_game(board, store)
        max_ell = max(max_ell, ell(g))
        max_t = max(max_t, temperature(g))
        if not confusion_witness(g, 2, store.up).holds:
            witness_ok = False
    res.add(f"scanned snakes fitting 2x{max_width}", count > 0, f"{count} boards")
    res.add("ell <= 2 for every snake", max_ell <= Dyadic(2), f"max ell {max_ell}")
    res.add("t <= 3 for every snake", max_t <= Dyadic(3), f"max t {max_t}")
    res.add("witness K=2, eps=^ holds for every snake", witness_ok)
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


def verify_properties(store: GameStore, count: int = 300, seed: int = 2024) -> VerifyResult:
    """Random-game invariant battery (stop/order/temperature laws)."""
    rng = random.Random(seed)
    res = VerifyResult("properties")
    bad = {label: 0 for label, _ in _PROPERTIES}
    for _ in range(count):
        g = random_game(rng, store)
        h = random_game(rng, store)
        s = g + h
        for label, holds in _PROPERTIES:
            if not holds(g, h, s):
                bad[label] += 1
    for label, n in bad.items():
        res.add(f"{label} on {count} random pairs", n == 0, f"{n} violations")
    return res


SUITES = {
    "tightness": verify_tightness,
    "snakes": verify_snakes,
    "properties": verify_properties,
}
