"""Independent output checks for the benchmark's workloads.

Each check takes the answers a workload produced and returns a list of
problems (empty when every answer holds). The reference tables below are
the benchmark's own transcription of the published temperatures; the
laws are the textbook identities every short game satisfies. Where a
check needs an order decision it uses the outcome recursion (who wins
moving first) rather than the store's `leq`, so a fault in `leq` cannot
hide itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hotgames import Outcome, ell, parse_expr, stops, thermograph

# Published 2xn Domineering temperatures (Berlekamp's periodic analysis).
DOMINEERING_2XN = {
    1: "0", 2: "1", 3: "5/4", 4: "0", 5: "0", 6: "1", 7: "1",
    8: "9/8", 9: "9/8", 10: "19/16", 11: "19/16", 12: "0", 13: "0", 14: "9/8",
}
DRUMMOND_COLE_TEMPERATURE = "2"

# Published Snort temperatures: 2xn grids and paths with decorated ends,
# keyed by the total vertex count n (pieces included).
SNORT_2XN = {2: "-1", 3: "9/4", 4: "-1", 5: "5/2", 6: "-1", 7: "1"}
SNORT_PATHS = {
    "P": {1: "0", 2: "1", 3: "2", 4: "3/2", 5: "1", 6: "0", 7: "1", 8: "2",
          9: "2", 10: "3/2", 11: "3/2", 12: "1"},
    "LP": {1: "-1", 2: "-1", 3: "1/2", 4: "3/2", 5: "2", 6: "7/4", 7: "3/2",
           8: "1", 9: "15/8", 10: "2", 11: "2", 12: "31/16"},
    "LPL": {2: "-1", 3: "-1", 4: "-1", 5: "1", 6: "3/2", 7: "2", 8: "3/2",
            9: "7/4", 10: "1", 11: "7/4", 12: "15/8"},
    "LPR": {3: "-1", 4: "0", 5: "1", 6: "2", 7: "2", 8: "2", 9: "1", 10: "1",
            11: "1", 12: "2"},
}

# Connected graphs on 1..6 vertices up to isomorphism (OEIS A001349).
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def frac(d) -> Fraction:
    """Exact value of a program `Dyadic` (num / 2**exp)."""
    return Fraction(d.num, 1 << d.exp)


def _sign_outcome(x: Fraction) -> Outcome:
    return Outcome.L if x > 0 else Outcome.R if x < 0 else Outcome.P


def is_zero(g) -> bool:
    """g = 0 decided by the outcome recursion: the second player wins."""
    return g.outcome() is Outcome.P


def is_leq_zero(g) -> bool:
    """g <= 0 decided by the outcome recursion: Left moving first loses."""
    return g.outcome() in (Outcome.P, Outcome.R)


# ---------------------------------------------------------------------------
# random sums: laws of stops, ell, temperature, outcome and cooling


def exact_report(report) -> dict:
    """An eval report (canonical text, outcome, stops, ell, temperature
    and mean, as the program returned them) with exact values."""
    canonical, outcome, (ls, rs), e, (t, m) = report
    return {
        "canonical": canonical, "outcome": outcome, "ls": frac(ls),
        "rs": frac(rs), "ell": frac(e), "t": frac(t), "mean": frac(m),
    }


def report_problems(g, rep) -> list[str]:
    """Laws linking one game's reported figures to each other and to the
    outcome recursion."""
    out = []
    ls, rs = rep["ls"], rep["rs"]
    if parse_expr(rep["canonical"], g.store) != g.canonical():
        out.append(f"canonical text {rep['canonical']!r} is not canonical(G)")
    if not ls >= rs:
        out.append(f"LS {ls} < RS {rs}")
    if rep["ell"] != ls - rs:
        out.append(f"ell {rep['ell']} != LS - RS = {ls - rs}")
    if not rs <= rep["mean"] <= ls:
        out.append(f"mean {rep['mean']} outside [RS, LS] = [{rs}, {ls}]")
    if rep["t"] < -1:
        out.append(f"temperature {rep['t']} below -1")
    # stops bound who wins: a positive right stop means Left wins either way
    expect = None
    if rs > 0:
        expect = Outcome.L
    elif ls < 0:
        expect = Outcome.R
    elif ls > 0 and rs < 0:
        expect = Outcome.N
    if expect is not None and rep["outcome"] is not expect:
        out.append(f"outcome {rep['outcome'].value} but stops ({ls}, {rs})")
    return out


def pair_problems(g, h, s, reports) -> list[str]:
    """Laws of a sum S = G + H against its parts; `reports` are the eval
    reports of G, H and S."""
    rep_g, rep_h, rep_s = (exact_report(r) for r in reports)
    out = []
    for name, x, rep in (("G", g, rep_g), ("H", h, rep_h), ("G+H", s, rep_s)):
        out += [f"{name}: {p}" for p in report_problems(x, rep)]
    # not for G+H: that difference is a sum of two sums, and its outcome
    # search took longer than the whole timed round
    for name, x in (("G", g), ("H", h)):
        if not is_zero(x - x.canonical()):
            out.append(f"{name} - canonical({name}) is not a second-player win")
    if frac(stops(-g)[0]) != -rep_g["rs"]:
        out.append("LS(-G) != -RS(G)")
    if not rep_g["rs"] + rep_h["ls"] <= rep_s["ls"] <= rep_g["ls"] + rep_h["ls"]:
        out.append("RS(G)+LS(H) <= LS(G+H) <= LS(G)+LS(H) fails")
    if not rep_s["ell"] <= rep_g["ell"] + rep_h["ell"]:
        out.append("ell(G+H) > ell(G) + ell(H)")
    if not rep_s["t"] <= max(rep_g["t"], rep_h["t"]):
        out.append("t(G+H) > max(t(G), t(H))")
    return out


def cooling_problems(s, t, cooled) -> list[str]:
    """stops(S cooled by t) must equal the thermograph walls of S at t
    (the mast past the temperature)."""
    th = thermograph(s)
    if t >= th.temperature:
        want = (frac(th.mast), frac(th.mast))
    else:
        want = (frac(th.left_x(t)), frac(th.right_x(t)))
    got = tuple(frac(x) for x in stops(cooled))
    if got != want:
        return [f"stops of S cooled by {frac(t)} are {got}, walls give {want}"]
    return []


# ---------------------------------------------------------------------------
# published tables


def cell_problem(label: str, published: str, temp, value) -> str | None:
    """A cell passes if its temperature is the published one, or if the
    published table prints 0 for a board that is an exact number: such a
    number x = m/2^k has temperature -1/2^k (-1 for integers) and its
    outcome is that of its sign."""
    want = Fraction(published)
    t = frac(temp)
    if t == want:
        return None
    x = value.canonical().number_value()
    if want == 0 and x is not None:
        number_t = -Fraction(1, 1 << x.exp)
        if t == number_t and value.outcome() is _sign_outcome(frac(x)):
            return None
    return f"{label}: temperature {t}, published {want}"


def negation_problem(label: str, g, h) -> str | None:
    """h must be the negative of g: g + h = 0 by the outcome recursion."""
    if is_zero(g.canonical() + h.canonical()):
        return None
    return f"{label}: not the negative of its mirror image"


# ---------------------------------------------------------------------------
# graph census


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def connected(n: int, edges) -> bool:
    adj = _adjacency(n, edges)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == n


def isomorphic(n: int, ea, eb) -> bool:
    """Brute force: try every bijection that maps each vertex of A to a
    vertex of B with the same degree."""
    if len(ea) != len(eb):
        return False
    da = [len(s) for s in _adjacency(n, ea)]
    db = [len(s) for s in _adjacency(n, eb)]
    if sorted(da) != sorted(db):
        return False
    target = {frozenset(e) for e in eb}
    for perm in itertools.permutations(range(n)):
        if all(da[v] == db[perm[v]] for v in range(n)) and all(
            frozenset((perm[a], perm[b])) in target for a, b in ea
        ):
            return True
    return False


def census_problems(graphs, max_n: int) -> list[str]:
    """graphs: (n, edges, temperature) for every connected graph on 1..max_n
    vertices, one per isomorphism class."""
    out = []
    counts = {}
    classes: dict[tuple, list] = {}
    for n, edges, temp in graphs:
        counts[n] = counts.get(n, 0) + 1
        if not connected(n, edges):
            out.append(f"disconnected graph on {n} vertices: {sorted(edges)}")
        degrees = tuple(sorted(len(s) for s in _adjacency(n, edges)))
        classes.setdefault((n, degrees), []).append(edges)
        if len(edges) == n - 1 and (n == 1 or degrees[-1] == n - 1):
            if frac(temp) != n - 1:
                out.append(f"star K1,{n - 1}: temperature {frac(temp)}")
    want = {n: CONNECTED_GRAPHS[n] for n in range(1, max_n + 1)}
    if counts != want:
        out.append(f"graphs per size {counts}, expected {want}")
    for (n, _), members in classes.items():
        for ea, eb in itertools.combinations(members, 2):
            if isomorphic(n, ea, eb):
                out.append(f"isomorphic pair on {n} vertices: {sorted(ea)}")
    return out


# ---------------------------------------------------------------------------
# confusion witnesses


def witness_problems(label: str, g, k, step, eps) -> list[str]:
    """k must bound ell(g), the witness sums G^L - G - k + eps must all be
    <= 0, and one of them must fail at k - step (k is minimal)."""
    store = g.store
    out = []
    if not frac(ell(g)) <= frac(k):
        out.append(f"{label}: ell {frac(ell(g))} > minimal k {frac(k)}")

    def holds(kk) -> bool:
        offset = store.number(kk)
        return all(
            is_leq_zero(store.add_all([gl, -g, -offset, eps]))
            for gl in g.left_options
        )

    if not holds(k):
        out.append(f"{label}: witness fails at k = {frac(k)}")
    if frac(k) > 0 and holds(k - step):
        out.append(f"{label}: witness holds at k - step = {frac(k - step)}")
    return out
