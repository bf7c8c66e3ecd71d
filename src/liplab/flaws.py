"""Decomposition of a function's fluctuations above its ground-state window.

For a window base k, the `cluster` is the 2-linked component of the vertices
valued at least k+M+1 through the probe vertex, and the `core` is the
4-linked component of those valued at least k+2M+2.  `decompose_rows`
finds both for every row of a value array at once, as `(rows, n)` boolean
arrays; `flaw_decomposition` is its one-row form, with vertex masks (see
`graphs`).  The core's closure always sits inside the cluster, which the
fuzz suites re-check on every sampled function.  Fluctuations below the
window are those above it of the reflection f -> -f + k + M, so they need
no code of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import ConfigError
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    ball,
    is_k_linked,
    linked_layers,
    mask_vertices,
    neighborhood,
    vertex_mask,
)
from .lipschitz import (
    EnsembleSpec,
    LipschitzFn,
    flaw_cap,
    marginal_groundstate,
    member_batches,
    window_flaws,
)

CLUSTER_LINKAGE = 2
CORE_LINKAGE = 4


@dataclass(frozen=True)
class FlawDecomposition:
    anchor: int
    base: int  # window base k
    M: int
    cluster: int  # mask of the 2-linked component above k+M
    core: int  # mask of the 4-linked component above k+2M+1
    cluster_threshold: int
    core_threshold: int


def _grow(table: np.ndarray, rows: np.ndarray, steps: int) -> np.ndarray:
    """Every row's set grown by `steps` closures through `table` (see
    `Graph.neighbor_table`): the vertices within distance `steps` of it."""
    for _ in range(steps):
        rows = rows | rows[:, table].any(axis=2)
    return rows


def _linked_rows(table: np.ndarray, ys: np.ndarray, k: int, start: np.ndarray) -> np.ndarray:
    """Per row, the k-linked component of the row's set in `ys` that holds
    the row's `start` vertex (nothing when that vertex is not in the set),
    grown breadth first: each layer is k gathers, and the walk stops when
    no row has a new vertex."""
    reached = layer = start & ys
    while layer.any():
        layer = _grow(table, layer, k) & ys & ~reached
        reached |= layer
    return reached


def decompose_rows(g: Graph, vals: np.ndarray, M, anchors, bases) -> tuple[np.ndarray, np.ndarray]:
    """The cluster and the core of every row of the value array `vals`,
    each row with its own anchor, window base and M (a scalar serves every
    row), as two `(rows, n)` boolean arrays.

    The thresholds are `base + M + 1` and `base + 2M + 2`; an object array
    of Python ints (values or bases past int64) goes through the same
    comparisons.  Both components grow from the anchors together, layer by
    layer, by gathers through the graph's neighbour table."""
    rows = len(vals)
    bases = np.asarray(bases)
    start = np.zeros((rows, g.n), dtype=bool)
    start[np.arange(rows), anchors] = True
    table = g.neighbor_table
    cluster = _linked_rows(table, vals >= (bases + M + 1)[:, None], CLUSTER_LINKAGE, start)
    core = _linked_rows(table, vals >= (bases + 2 * M + 2)[:, None], CORE_LINKAGE, start)
    return cluster, core


def _row_mask(row: np.ndarray) -> int:
    return vertex_mask(np.flatnonzero(row).tolist())


def flaw_decomposition(g: Graph, f: LipschitzFn, anchor: int, base: int = 0) -> FlawDecomposition:
    """Split f's upward fluctuation through `anchor` into cluster and core:
    one row of `decompose_rows`."""
    if not (0 <= anchor < g.n):
        raise ConfigError(f"invalid anchor vertex {anchor}")
    m = f.M
    # as Python ints, the values and the base compare exactly at any size
    cluster, core = decompose_rows(g, np.array([f.values], dtype=object), m, [anchor], np.array([base], dtype=object))
    return FlawDecomposition(
        anchor=anchor,
        base=base,
        M=m,
        cluster=_row_mask(cluster[0]),
        core=_row_mask(core[0]),
        cluster_threshold=base + m + 1,
        core_threshold=base + 2 * m + 2,
    )


def core_closure_escapes(g: Graph, cluster: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Per row of two `(rows, n)` boolean arrays, whether the closure of the
    core (the core and its neighbours) leaves the cluster: one gather and
    one AND-NOT over all rows."""
    return (_grow(g.neighbor_table, core, 1) & ~cluster).any(axis=1)


def core_within_cluster_interior(dec: FlawDecomposition, g: Graph) -> bool:
    """True iff the closure of the core stays inside the cluster, one row
    of `core_closure_escapes`.

    This holds for every Lipschitz function (the core's neighbors are still
    above the cluster threshold); a False return signals a bug, not a
    property of the input.
    """
    if not dec.core:
        raise ValueError("core is empty")
    bits = np.array([[dec.cluster >> v & 1, dec.core >> v & 1] for v in range(g.n)], dtype=bool).T
    return not core_closure_escapes(g, bits[:1], bits[1:])[0]


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
    within the flaw allowance; reports the worst-case allowance usage.

    The members come as `member_batches`, and `window_flaws` counts each
    batch's flaws at all of the batch's bases at once.  A member's fewest
    flaws there are its fewest over its own bases [min f - M, max f]: any
    other base leaves all n vertices flawed."""
    d = g.regular_degree()
    allowance = 2.0 * float(lam) / d * g.n
    cap = flaw_cap(g.n, d, lam)
    checked = 0
    failures = []
    worst_ratio = 0.0
    worst_values = None
    for vals in member_batches(g, EnsembleSpec("one-point", M=M, v0=v0), budget):
        # each member's fewest flaws over the batch's bases, a superset of its own
        best = window_flaws(vals, M)[1].min(axis=1)
        checked += len(vals)
        ratio = best / allowance if allowance > 0 else np.where(best == 0, 0.0, math.inf)
        first = int(ratio.argmax())  # the batch's first member with the largest ratio
        if ratio[first] > worst_ratio:
            worst_ratio = float(ratio[first])
            worst_values = vals[first].tolist()
        failures += vals[best > cap].tolist()
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

def boundary_ordering(g: Graph, s: int) -> list[int]:
    """Order the closure of a 4-linked set S (a mask) so that (i) the first
    vertex is within distance 2 of the outside, (ii) S precedes its outer
    boundary, and (iii) every later vertex has an earlier one within
    distance 4.

    Built by breadth-first layers of the 4th-power graph restricted to S,
    each in id order, starting from a vertex of S nearest the complement of
    the closure, then the outer boundary in id order.
    """
    if not s:
        raise ValueError("S must be nonempty")
    if not is_k_linked(g, s, CORE_LINKAGE):
        raise ValueError("S must be 4-linked")
    full = (1 << g.n) - 1
    s_plus = s | neighborhood(g, s)
    outside = full & ~s_plus
    if not outside:
        raise ValueError("closure of S covers the whole graph; no valid start vertex")

    # the first breadth-first layer out of the outside that meets S
    hits = next(layer & s for layer in linked_layers(g, full, 1, outside) if layer & s)
    ordered = []
    for layer in linked_layers(g, s, CORE_LINKAGE, hits & -hits):
        ordered.extend(mask_vertices(layer))
    ordered.extend(mask_vertices(s_plus & ~s))
    return ordered


def check_boundary_ordering(g: Graph, s: int, ordering: list[int]) -> dict:
    """Machine-check the three ordering properties of `ordering` for the
    mask S; used by the fuzz suites.  A list that is not an ordering of the
    closure of S fails `covers_closure`, and the other three properties,
    which read positions in such an ordering, are then None (not checked)."""
    s_plus = s | neighborhood(g, s)
    if not ordering or sorted(ordering) != mask_vertices(s_plus):
        return {"covers_closure": False, "first_near_outside": None, "set_before_boundary": None,
                "predecessor_within_4": None, "ok": False}
    outside = ((1 << g.n) - 1) & ~s_plus
    first = ordering[0]
    ok_first = bool((1 << first | g.power_masks(2)[first]) & outside)
    # S comes first iff no vertex of S follows its first |S| places
    ok_split = not any(s >> v & 1 for v in ordering[s.bit_count():])

    power = g.power_masks(CORE_LINKAGE)
    earlier = 1 << first
    ok_pred = True
    for v in ordering[1:]:
        if not power[v] & earlier:
            ok_pred = False
            break
        earlier |= 1 << v
    return {
        "covers_closure": True,
        "first_near_outside": ok_first,
        "set_before_boundary": ok_split,
        "predecessor_within_4": ok_pred,
        "ok": ok_first and ok_split and ok_pred,
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


def tail_rows(g: Graph, M: int, lam, anchor: int, t_values, marginal, k: int,
              c: float, C: float) -> list[dict]:
    """Tail P(f(anchor) > k + tM + 1) for each t, read off `marginal` (the
    number of functions per value of f(anchor)), next to the theoretical
    bound 2 ** (-|ball(anchor, t-1)| / (5M)).  A row is asserted when the hypothesis gate holds; otherwise both
    sides are informational.
    """
    d = g.regular_degree()
    total = sum(marginal.values())
    rows = []
    for t in sorted({int(t) for t in t_values}):
        threshold = k + t * M + 1
        above = sum(members for value, members in marginal.items() if value > threshold)
        prob = above / total if total else 0.0
        ball_size = ball(g, anchor, max(t - 1, 0)).bit_count()
        bound = 2.0 ** (-ball_size / (5.0 * M))
        gate = tail_hypotheses(g.n, d, float(lam), M, t=t, c=c, C=C)
        row = {
            "t": t,
            "threshold": threshold,
            "probability": prob,
            "count_above": above,
            "ensemble_size": total,
            "bound": bound,
            "ball_size": ball_size,
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
