"""Decomposition of a function's fluctuations above its ground-state window.

For a window base k, the `cluster` is the 2-linked component of the vertices
valued at least k+M+1 through the probe vertex, and the `core` is the
4-linked component of those valued at least k+2M+2.  The core's closure
always sits inside the cluster, which the fuzz suites re-check on every
sampled function.  Fluctuations below the window are analyzed through the
reflection f -> -f + k + M rather than duplicated code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    ball,
    closure,
    is_k_linked,
    linked_component_containing,
    neighborhood,
    outer_boundary,
)
from .lipschitz import (
    LipschitzFn,
    flaw_allowance_ok,
    flaw_count,
    marginal_groundstate,
)

CLUSTER_LINKAGE = 2
CORE_LINKAGE = 4


@dataclass(frozen=True)
class FlawDecomposition:
    anchor: int
    base: int  # window base k
    M: int
    cluster: frozenset  # 2-linked component above k+M
    core: frozenset  # 4-linked component above k+2M+1
    cluster_threshold: int
    core_threshold: int


def flaw_decomposition(g: Graph, f: LipschitzFn, anchor: int, base: int = 0) -> FlawDecomposition:
    """Split f's upward fluctuation through `anchor` into cluster and core."""
    if not (0 <= anchor < g.n):
        raise ValueError(f"invalid anchor vertex {anchor}")
    m = f.M
    t_cluster = base + m + 1
    t_core = base + 2 * m + 2
    above_cluster = frozenset(v for v in range(g.n) if f.values[v] >= t_cluster)
    above_core = frozenset(v for v in range(g.n) if f.values[v] >= t_core)
    cluster = linked_component_containing(g, above_cluster, CLUSTER_LINKAGE, anchor)
    core = linked_component_containing(g, above_core, CORE_LINKAGE, anchor)
    return FlawDecomposition(
        anchor=anchor,
        base=base,
        M=m,
        cluster=cluster,
        core=core,
        cluster_threshold=t_cluster,
        core_threshold=t_core,
    )


def core_within_cluster_interior(dec: FlawDecomposition, g: Graph) -> bool:
    """True iff the closure of the core stays inside the cluster.

    This holds for every Lipschitz function (the core's neighbors are still
    above the cluster threshold); a False return signals a bug, not a
    property of the input.
    """
    if not dec.core:
        raise ValueError("core is empty")
    return closure(g, dec.core) <= dec.cluster


# ---------------------------------------------------------------------------
# Ground-state existence sweep
# ---------------------------------------------------------------------------

def verify_ground_state_lemma(
    g: Graph,
    M: int,
    lam,
    v0: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Exhaustively confirm that every anchored function admits a window base
    within the flaw allowance; reports the worst-case allowance usage."""
    from .lipschitz import enumerate_onepoint

    d = g.regular_degree()
    allowance = 2.0 * float(lam) / d * g.n
    checked = 0
    failures = []
    worst_ratio = 0.0
    worst_values = None
    for f in enumerate_onepoint(g, v0, M, budget=budget):
        checked += 1
        lo, hi = min(f.values) - M, max(f.values)
        best = min(flaw_count(f, k) for k in range(lo, hi + 1))
        ok = flaw_allowance_ok(best, g.n, d, lam)
        ratio = best / allowance if allowance > 0 else (0.0 if best == 0 else math.inf)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_values = list(f.values)
        if not ok:
            failures.append(list(f.values))
    return {
        "lemma": "ground-state-existence",
        "graph": g.name,
        "M": M,
        "lam": float(lam),
        "allowance": allowance,
        "instances_checked": checked,
        "failures": failures,
        "stats": {"max_flaw_ratio": worst_ratio, "worst_function": worst_values},
    }


# ---------------------------------------------------------------------------
# Boundary-visiting vertex ordering
# ---------------------------------------------------------------------------

def boundary_ordering(g: Graph, s) -> list[int]:
    """Order the closure of a 4-linked set S so that (i) the first vertex is
    within distance 2 of the outside, (ii) S precedes its outer boundary, and
    (iii) every later vertex has an earlier one within distance 4.

    Built by breadth-first layers of the 4th-power graph restricted to S,
    starting from a vertex of S nearest the complement of the closure, then
    the outer boundary in id order.
    """
    s = frozenset(s)
    if not s:
        raise ValueError("S must be nonempty")
    if not is_k_linked(g, s, CORE_LINKAGE):
        raise ValueError("S must be 4-linked")
    s_plus = closure(g, s)
    outside = frozenset(range(g.n)) - s_plus
    if not outside:
        raise ValueError("closure of S covers the whole graph; no valid start vertex")

    # breadth-first layers out of the outside, up to the first that meets S
    reached = layer = outside
    while layer.isdisjoint(s):
        layer = neighborhood(g, layer) - reached
        reached |= layer
    start = min(layer & s)
    power = g.power_sets(CORE_LINKAGE)
    ordered = [start]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = set().union(*(power[v] & s for v in frontier)) - seen
        frontier = sorted(nxt)
        ordered.extend(frontier)
        seen.update(nxt)
    ordered.extend(sorted(outer_boundary(g, s)))
    return ordered


def check_boundary_ordering(g: Graph, s, ordering: list[int]) -> dict:
    """Machine-check the three ordering properties; used by the fuzz suites."""
    s = frozenset(s)
    s_plus = closure(g, s)
    outside = frozenset(range(g.n)) - s_plus
    pos = {v: i for i, v in enumerate(ordering)}
    ok_members = set(ordering) == set(s_plus) and len(ordering) == len(s_plus)

    first = ordering[0]
    ok_first = first in outside or not g.power_sets(2)[first].isdisjoint(outside)

    boundary = s_plus - s
    ok_split = all(pos[v] < pos[w] for v in s for w in boundary) if boundary else True

    power = g.power_sets(CORE_LINKAGE)
    earlier = {first}
    ok_pred = True
    for v in ordering[1:]:
        if v not in earlier and power[v].isdisjoint(earlier):
            ok_pred = False
            break
        earlier.add(v)
    return {
        "covers_closure": ok_members,
        "first_near_outside": ok_first,
        "set_before_boundary": ok_split,
        "predecessor_within_4": ok_pred,
        "ok": ok_members and ok_first and ok_split and ok_pred,
    }


# ---------------------------------------------------------------------------
# Hypothesis gate shared by the tail machinery and the experiment harness
# ---------------------------------------------------------------------------

def tail_hypotheses(n: int, d: int, lam: float, M: int, t: int | None = None,
                    c: float = 1.0, C: float = 1.0) -> dict:
    """Evaluate the gate for the double-exponential tail bound with the
    configured constants; every clause is reported by name."""
    clauses = {}
    clauses["lam <= d/5"] = lam <= d / 5.0 + 1e-12
    clauses["d/5 <= c*n"] = d / 5.0 <= c * n + 1e-12
    log_d = math.log2(d) if d > 1 else 0.0
    m_spectral = c * d**1.5 / (lam * log_d) if lam > 0 and log_d > 0 else math.inf
    m_size = math.log2(n) ** C if n > 1 else 0.0
    clauses["M <= c*d^1.5/(lam*log d)"] = M <= m_spectral + 1e-12
    clauses["M <= (log n)^C"] = M <= m_size + 1e-12
    if t is not None:
        clauses["t >= 2"] = t >= 2
    return {
        "clauses": clauses,
        "all_hold": all(clauses.values()),
        "constants": {"c": c, "C": C},
        "m_limits": {"expansion": m_spectral, "size": m_size},
    }


def tail_bound(g: Graph, anchor: int, t: int, M: int) -> float:
    """2 ** (-|ball(anchor, t-1)| / (5M))."""
    radius = max(t - 1, 0)
    return 2.0 ** (-len(ball(g, anchor, radius)) / (5.0 * M))


def tail_rows(g: Graph, M: int, lam, anchor: int, t_values, marginal, k: int,
              c: float, C: float) -> list[dict]:
    """Tail P(f(anchor) > k + tM + 1) for each t, read off `marginal` (the
    number of functions per value of f(anchor)), next to the theoretical
    bound.  A row is asserted when the hypothesis gate holds; otherwise both
    sides are informational.
    """
    d = g.regular_degree()
    total = sum(marginal.values())
    rows = []
    for t in sorted({int(t) for t in t_values}):
        threshold = k + t * M + 1
        above = sum(members for value, members in marginal.items() if value > threshold)
        prob = above / total if total else 0.0
        bound = tail_bound(g, anchor, t, M)
        gate = tail_hypotheses(g.n, d, float(lam), M, t=t, c=c, C=C)
        row = {
            "t": t,
            "threshold": threshold,
            "probability": prob,
            "count_above": above,
            "ensemble_size": total,
            "bound": bound,
            "ball_size": len(ball(g, anchor, max(t - 1, 0))),
            "hypotheses_hold": gate["all_hold"],
            "hypotheses": gate["clauses"],
            "asserted": gate["all_hold"],
            "holds": prob <= bound + 1e-12,
        }
        rows.append(row)
    return rows


def tail_verdict(rows: list[dict]) -> dict:
    """The asserted rows that fail, and whether the tail does not rise with
    t; the tail experiment reports both and the verify row reads both."""
    return {
        "asserted_violations": [r for r in rows if r["asserted"] and not r["holds"]],
        "monotone": all(a["probability"] >= b["probability"] for a, b in pairwise(rows)),
    }


def conditional_tail_profile(
    g: Graph,
    M: int,
    lam,
    anchor: int,
    t_values,
    budget: int = DEFAULT_NODE_BUDGET,
    c: float = 1.0,
    C: float = 1.0,
    k: int = 0,
) -> list[dict]:
    """Exact tail rows (see `tail_rows`) for uniform f over the ground-state
    ensemble at base k.  The counts come from the exact marginal of
    f(anchor)."""
    marginal = marginal_groundstate(g, k, M, lam, anchor, budget=budget)
    return tail_rows(g, M, lam, anchor, t_values, marginal, k, c, C)
