"""Decomposition of a function's fluctuations above its ground-state window.

For a window base k, the `cluster` is the 2-linked component of the vertices
valued at least k+M+1 through the probe vertex, and the `core` is the
4-linked component of those valued at least k+2M+2.  `decompose_rows`
finds both for every row of a value array at once, as `(rows, n)` boolean
arrays; `flaw_decomposition` is its one-row form, with vertex masks (see
`graphs`), for the `flaws` command.  The core's closure always sits inside
the cluster, which the fuzz suites re-check on every sampled function.
Fluctuations below the window are those above it of the reflection
f -> -f + k + M, so they need no code of their own.  The boundary ordering
of a 4-linked set and its check work on the rows of a boolean array, all
rows at once; `boundary_ordering` and `check_boundary_ordering` are their
one-row calls on a mask.  Every walk here is `graphs.layer_rows` and every
closure `graphs.grow_rows`.
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
    grow_rows,
    layer_rows,
    mask_rows,
    row_masks,
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


def decompose_rows(g: Graph, vals: np.ndarray, M, anchors, bases) -> tuple[np.ndarray, np.ndarray]:
    """The cluster and the core of every row of the value array `vals`,
    each row with its own anchor, window base and M (a scalar serves every
    row), as two `(rows, n)` boolean arrays.

    The thresholds are `base + M + 1` and `base + 2M + 2`; an object array
    of Python ints (values or bases past int64) goes through the same
    comparisons.  Both components are the vertices that `layer_rows`
    reaches from the anchors."""
    rows = len(vals)
    bases = np.asarray(bases)
    start = np.zeros((rows, g.n), dtype=bool)
    start[np.arange(rows), anchors] = True
    cluster = layer_rows(g, vals >= (bases + M + 1)[:, None], CLUSTER_LINKAGE, start) < g.n
    core = layer_rows(g, vals >= (bases + 2 * M + 2)[:, None], CORE_LINKAGE, start) < g.n
    return cluster, core


def flaw_decomposition(g: Graph, f: LipschitzFn, anchor: int, base: int = 0) -> FlawDecomposition:
    """Split f's upward fluctuation through `anchor` into cluster and core:
    one row of `decompose_rows`."""
    if not (0 <= anchor < g.n):
        raise ConfigError(f"invalid anchor vertex {anchor}")
    m = f.M
    # as Python ints, the values and the base compare exactly at any size
    cluster, core = decompose_rows(g, np.array([f.values], dtype=object), m, [anchor], np.array([base], dtype=object))
    cluster_mask, core_mask = row_masks(np.vstack([cluster, core]))
    return FlawDecomposition(
        anchor=anchor,
        base=base,
        M=m,
        cluster=cluster_mask,
        core=core_mask,
        cluster_threshold=base + m + 1,
        core_threshold=base + 2 * m + 2,
    )


def core_closure_escapes(g: Graph, cluster: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Per row of two `(rows, n)` boolean arrays, whether the closure of the
    core (the core and its neighbours) leaves the cluster: one gather and
    one AND-NOT over all rows."""
    return (grow_rows(g, core, 1) & ~cluster).any(axis=1)


def core_within_cluster_interior(dec: FlawDecomposition, g: Graph) -> bool:
    """True iff the closure of the core stays inside the cluster, one row
    of `core_closure_escapes`.

    This holds for every Lipschitz function (the core's neighbors are still
    above the cluster threshold); a False return signals a bug, not a
    property of the input.
    """
    if not dec.core:
        raise ValueError("core is empty")
    rows = mask_rows([dec.cluster, dec.core], g.n)
    return not core_closure_escapes(g, rows[:1], rows[1:])[0]


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

def boundary_orderings(g: Graph, sets: np.ndarray) -> np.ndarray:
    """Order the closure of each 4-linked set S, a row of the `(rows, n)`
    boolean array `sets`, so that (i) the first vertex is within distance 2
    of the outside, (ii) S precedes its outer boundary, and (iii) every later
    vertex has an earlier one within distance 4.  Row r of the `(rows, n)`
    index array returned lists the closure of its set in order, then -1 in
    every place left.

    The ordering is the breadth-first layers of G^4 restricted to S, each in
    id order, from the smallest vertex of S within distance 2 of the
    outside, then the outer boundary in id order.  The layers of every row
    come from one `layer_rows` walk; every vertex is keyed by its layer, the
    outer boundary after all layers and the outside last, and one stable
    sort of the keys, which keeps id order within a key, gives every
    ordering at once.  Raises ValueError when a set is empty, when its
    closure covers the graph (no valid start vertex), or when it is not
    4-linked."""
    rows, n = sets.shape
    if not sets.any(axis=1).all():
        raise ValueError("every set must be nonempty")
    closure = grow_rows(g, sets, 1)
    if closure.all(axis=1).any():
        raise ValueError("a set's closure covers the whole graph; no valid start vertex")
    start = np.zeros_like(sets)
    start[np.arange(rows), (grow_rows(g, ~closure, 2) & sets).argmax(axis=1)] = True
    layers = layer_rows(g, sets, CORE_LINKAGE, start)
    if (sets & (layers == n)).any():
        raise ValueError("every set must be 4-linked")
    key = np.where(closure, layers, n + 1)  # the outer boundary is not reached: key n
    order = np.argsort(key, axis=1, kind="stable")
    return np.where(np.take_along_axis(key, order, axis=1) <= n, order, -1)


def boundary_ordering(g: Graph, s: int) -> list[int]:
    """The boundary ordering of the mask S as a list: one row of
    `boundary_orderings`, with its ValueErrors."""
    order = boundary_orderings(g, mask_rows([s], g.n))[0]
    return order[order >= 0].tolist()


def check_boundary_orderings(g: Graph, sets: np.ndarray, orders: np.ndarray) -> dict[str, np.ndarray]:
    """Machine-check the three ordering properties of every row: row r of
    the `(rows, n)` index array `orders` is checked as an ordering of the
    closure of row r of `sets`, its places after the ordering holding -1.
    One boolean array per property ("first_near_outside",
    "set_before_boundary", "predecessor_within_4"), "covers_closure" and
    "ok"; where "covers_closure" is False the other three are False (see
    `ordering_verdict`).

    Every vertex gets its place in its row's ordering (n when it has none),
    and `predecessor_within_4` compares each place with the earliest place
    within distance 4, which four rounds of minima over the neighbour table
    give for every vertex and row at once."""
    rows, n = sets.shape
    table = g.neighbor_table
    closure = grow_rows(g, sets, 1)
    placed = (orders >= 0) & (orders < n)
    at = np.nonzero(placed)
    place = np.full((rows, n), n, dtype=np.min_scalar_type(n))  # uint8 up to n = 255
    place[at[0], orders[at]] = at[1]
    covers = (((orders >= -1) & (orders < n)).all(axis=1)
              & (placed[:, :-1] >= placed[:, 1:]).all(axis=1)  # no place filled after an empty one
              & ((place < n) == closure).all(axis=1)
              & (placed.sum(axis=1) == closure.sum(axis=1)))  # so no vertex is listed twice
    first = np.zeros_like(sets)
    first[np.arange(rows), np.where(placed[:, 0], orders[:, 0], 0)] = True
    near = (grow_rows(g, first, 2) & ~closure).any(axis=1)
    split = ~(sets & (place >= sets.sum(axis=1, keepdims=True))).any(axis=1)
    earliest = place
    for _ in range(CORE_LINKAGE):
        earliest = np.minimum(earliest, earliest[:, table].min(axis=2))
    pred = ~((place > 0) & (place < n) & (earliest == place)).any(axis=1)
    verdicts = {"covers_closure": covers, "first_near_outside": covers & near,
                "set_before_boundary": covers & split, "predecessor_within_4": covers & pred}
    verdicts["ok"] = covers & near & split & pred
    return verdicts


def ordering_verdict(verdicts: dict[str, np.ndarray], row: int) -> dict:
    """Row `row` of `check_boundary_orderings` as a dict of bools: the three
    properties are None (not checked) where the ordering does not cover the
    closure."""
    covers = bool(verdicts["covers_closure"][row])
    return {key: bool(v[row]) if covers or key in ("covers_closure", "ok") else None
            for key, v in verdicts.items()}


def check_boundary_ordering(g: Graph, s: int, ordering: list[int]) -> dict:
    """The three ordering properties of the list `ordering` for the mask S:
    one row of `check_boundary_orderings`, reported by `ordering_verdict`.
    A list that is not an ordering of the closure of S fails
    `covers_closure`.  One that is empty, longer than n or holds an id
    outside [0, n) fails it before the row is padded with -1, so that
    [a, b, -1] cannot pass as [a, b]."""
    n = g.n
    fits = 0 < len(ordering) <= n and all(0 <= v < n for v in ordering)
    row = list(ordering) + [-1] * (n - len(ordering)) if fits else [n] * n  # id n covers no closure
    verdicts = check_boundary_orderings(g, mask_rows([s], n), np.array([row], dtype=np.intp))
    return ordering_verdict(verdicts, 0)


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
