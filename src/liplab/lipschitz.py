"""Integer Lipschitz functions on graphs: validation, exact enumeration and
counting, exact sampling, single-site Glauber dynamics, and ground states.

Two ensembles are supported.  The one-point ensemble pins f(v0) = 0.  The
ground-state ensemble collects every M-Lipschitz function whose values leave
the window [k, k+M] on at most (2*lam/d)*n vertices; it is finite whenever
that flaw allowance is below n.

Counting, exact sampling, enumeration and exact marginals share one
recursion-free frontier DP (`_FrontierDP`).  Its one iterator, `expand`,
runs one numpy kernel per layer on that layer's plan of key columns: the
states are the rows of one integer key array, their transitions are charged
and expanded in bulk, and the successor rows are packed into int64 words and
numbered by one stable sort, in order of first appearance.  Its `budget`
bounds, and `CountResult.nodes_explored` reports, the number of DP
transitions: pairs of a state and a candidate value that lead to a live
state, each charged once.  Counts carry multiplicities one layer at a time;
sampling, marginals and enumeration keep every layer's arrays as rank
arrays, rank r being member r of the enumeration (Nijenhuis-Wilf unranking).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .graphs import DEFAULT_NODE_BUDGET, Graph, bfs_order

_SLACK = 1e-12


@dataclass(frozen=True)
class LipschitzFn:
    """Integer labeling of the vertices whose edge differences are at most M."""

    values: tuple[int, ...]
    M: int

    def __post_init__(self):
        if self.M < 0:
            raise ValueError("M must be nonnegative")


def validate(g: Graph, f: LipschitzFn) -> bool:
    """True iff |f(u) - f(v)| <= M across every edge."""
    if len(f.values) != g.n:
        raise ValueError(f"value array has length {len(f.values)}, graph has {g.n} vertices")
    lower, upper = g.edge_index
    vals = np.array(f.values)
    if vals.dtype != np.int64 or int(vals.max()) - int(vals.min()) >= 1 << 63:
        # values past int64 come out as float64, uint64 or object, and an int64
        # difference could wrap: compare the Python numbers themselves
        vals = np.array(f.values, dtype=object)
    return bool((np.abs(vals[lower] - vals[upper]) <= f.M).all())


def fn_range(f: LipschitzFn) -> int:
    """max f - min f + 1."""
    return max(f.values) - min(f.values) + 1


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from."""

    mode: str  # "one-point" | "ground-state"
    M: int
    v0: int | None = None
    k: int | None = None
    lam: float | None = None

    def __post_init__(self):
        if self.mode not in ("one-point", "ground-state"):
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        if self.M < 0:
            raise ValueError("M must be nonnegative")
        if self.mode == "one-point" and self.v0 is None:
            raise ValueError("one-point mode requires v0")
        if self.mode == "ground-state" and (self.k is None or self.lam is None):
            raise ValueError("ground-state mode requires k and lam")


@dataclass(frozen=True)
class CountResult:
    """An exact ensemble size.  `nodes_explored` is the number of frontier-DP
    transitions (state x candidate value) the count took."""

    count: int
    nodes_explored: int
    mode: str
    M: int
    anchor: int | None = None
    base: int | None = None
    flaw_cap: int | None = None
    box: tuple[int, int] | None = None


# ---------------------------------------------------------------------------
# Flaw-allowance arithmetic
# ---------------------------------------------------------------------------

def flaw_cap(n: int, d: int, lam) -> int:
    """Largest admissible flaw count: floor of (2*lam/d)*n, exactly when lam
    is rational, else with slack.  An integer count is within the allowance
    (2*lam/d)*n exactly when it is at most this cap."""
    if isinstance(lam, (int, Fraction)):
        return math.floor(Fraction(2 * lam * n, d))
    return math.floor(2.0 * lam / d * n + _SLACK)


# ---------------------------------------------------------------------------
# Frontier DP engine
# ---------------------------------------------------------------------------

class _Layer(NamedTuple):
    """One compiled DP layer, one entry per transition with completions, in
    rank order.  `cum[j]` ends the ranks of transition j (they start at
    `cum[j - 1]`, or 0); taking j adds `step[j]` to the rank, which makes it a
    rank of the next layer.  `values` and `shifts` are as in `_Step`."""

    cum: np.ndarray
    step: np.ndarray
    values: np.ndarray
    shifts: np.ndarray


class _Plan(NamedTuple):
    """How layer i's keys become layer i + 1's, as key columns.  Vertex i's
    value is at least `keys[:, bounds[j]] + offsets[j]` for each j of the
    first half (max - M of its own pair, first, then max - 2M of each pair
    it tightens) and below it for each j of the second half (min + M + 1,
    min + 2M + 1: the upper end is exclusive).  Column j of a successor key
    starts as its parent's column `take[j]`.  A successor lists the pairs
    vertex i leaves alone, then those it tightens (columns `tight[0]` to
    `tight[1]`), then the pairs it opens (up to column `fresh`), which start
    at its value, and ends with the flaw count."""

    bounds: np.ndarray
    offsets: np.ndarray
    take: np.ndarray
    tight: tuple[int, int]
    fresh: int


class _Step(NamedTuple):
    """Layer i's transitions, as `_FrontierDP.expand` yields them.  States
    are numbered as they are found, the root as 0; state s = `parent[t]`
    owns the transitions t in `start[s]:start[s + 1]`, one per value of
    vertex i (increasing; in one-point mode relative to the running offset)
    that leaves a live state.  Transition t gives vertex i `values[t]` and
    leads to state `kids[t]` of the `states` of layer i + 1, whose key is
    shifted down by `shifts[t]` (0 when there is a box)."""

    start: np.ndarray
    values: np.ndarray
    kids: np.ndarray
    shifts: np.ndarray
    parent: np.ndarray
    states: int


class _FrontierDP:
    """Layered transfer-matrix DP of the ensemble `spec` along the
    breadth-first vertex order from v0 (one-point mode) or from `start`
    (ground-state mode); counting, sampling, enumeration and exact marginals
    all walk it.  In ground-state mode values are confined to the box
    [k - n*M, k + M + n*M], which is exhaustive because some vertex must sit
    inside the window [k, k+M].

    Layer i holds the states reached once the first i vertices of the order
    have values.  A vertex is pending when it is unassigned but has an
    assigned neighbour.  A state key lists, for every pending vertex, the
    max and the min of its assigned neighbours' values, and ends with the
    flaw count.  The key is exact: a pending vertex's candidates are [max -
    M, min + M] clipped to the box, so a successor in which some max - min
    exceeds 2M is dead and is dropped.  Keys of one layer list the pending
    vertices in one order, which `plans[i]` fixes along with the column of
    vertex i's own pair; in a breadth-first order vertex i is pending at
    layer i.  The root key gets a synthetic pair whose candidates are
    exactly 0 in one-point mode and the whole box in ground-state mode.

    Without a box (one-point mode) completion counts do not change when a
    whole key is shifted, so keys are shifted to minimum 0 and every
    successor carries the shift it applied; a state's real values are its
    key plus the running offset.  With a box, keys count from the box's low
    end.  Either way every key entry is nonnegative.

    A layer's keys are one `(states, 2 * pending + 1)` array, int64 unless
    a value or bound could pass 2^62 (then Python ints, through the same
    code).  `expand` is the DP's one iterator: counting reads its `_Step`s
    one layer at a time, and `compile` keeps them all and turns them into
    rank arrays for sampling, marginals and enumeration.  `nodes` counts DP
    transitions: (state, candidate) pairs that lead to a live state.  It is
    charged state by state, in state order, and checked against `budget`
    before any successor of the layer is built, so a layer's work and
    memory are bounded by the budget, not by M.
    """

    def __init__(self, g: Graph, spec: EnsembleSpec, budget: int, start: int = 0):
        self.M = M = spec.M
        self.cap = _check_spec(g, spec)
        if self.cap is None:
            start, self.box = spec.v0, None
        else:
            if not 0 <= start < g.n:
                raise ConfigError(f"invalid anchor vertex {start}")
            self.box = (spec.k - g.n * M, spec.k + M + g.n * M)
        self.order = order = bfs_order(g, start)
        self.n = n = len(order)
        self.budget = budget
        self.nodes = 0
        place = [0] * n  # each vertex's order position; the graph is connected
        for i, v in enumerate(order):
            place[v] = i
        # key entries, candidates and bounds in key coordinates lie within (2n + 3)M + 1
        # of 0 and the values yielded within the box, so every int64 difference and
        # one state's live count stay below 2^63
        reach = (2 * n + 3) * M + 1 + (0 if self.box is None else max(map(abs, self.box)))
        self.dtype = dtype = np.int64 if reach < 1 << 62 else object
        # the most live values one state can have: the root's box, else 2M + 1
        self._widest = 2 * M + 1 if self.box is None else self.box[1] - self.box[0] + 1
        self.plans = []
        pending = [0]  # the pending vertices, by order position, in key order
        for i, v in enumerate(order):
            later = {place[u] for u in g.neighbors(v)}
            kept, tight, stay, moved = [], [], [], []
            for j, p in enumerate(pending):
                if p in later:
                    tight.append(2 * j)
                    moved.append(p)
                elif p != i:
                    kept.append(2 * j)
                    stay.append(p)
            opened = sorted(p for p in later.difference(pending) if p > i)
            lows, t = [2 * pending.index(i)] + tight, len(tight)  # vertex i's own pair first
            offsets = np.array([-M] + [-2 * M] * t + [M + 1] + [2 * M + 1] * t, dtype=dtype)
            take = [c + e for c in kept + tight for e in (0, 1)]
            tightened = (2 * len(kept), len(take))
            take += [0] * (2 * len(opened)) + [2 * len(pending)]  # the opened pairs, the flaw count
            self.plans.append(_Plan(np.array(lows + [c + 1 for c in lows], dtype=np.intp), offsets,
                                    np.array(take, dtype=np.intp), tightened, len(take) - 1))
            pending = stay + moved + opened
        if self.box is None:
            # the root's synthetic pair (M, -M), shifted to minimum 0
            self.offset, self.root = -M, (2 * M, 0, 0)
        else:
            width = self.box[1] - self.box[0]
            self.offset, self.root = 0, (M, width - M, 0)
            # per flaw count, the live values [low, high) in key coordinates: the box,
            # and at the cap the window [k, k + M], which starts n*M into the box
            self._window = low, high = n * M, n * M + M
            self._low = np.array([0] * self.cap + [low], dtype=dtype)
            self._high = np.array([width + 1] * self.cap + [high + 1], dtype=dtype)

    def expand(self, stage: str) -> Iterator[_Step]:
        """Each layer's transitions, layer by layer, as `_Step`s.  A layer's
        keys are dropped once the next layer is numbered."""
        keys = np.array([self.root], dtype=self.dtype)
        for i, plan in enumerate(self.plans):
            width = len(keys)
            # each state's live values [lo, hi)
            bound = keys.take(plan.bounds, axis=1)
            bound += plan.offsets
            half = len(plan.offsets) // 2
            lo = np.maximum.reduce(bound[:, :half], axis=1)
            hi = np.minimum.reduce(bound[:, half:], axis=1)
            if self.box is not None:
                # at the cap one more flaw is one too many
                flaws = keys[:, -1].astype(np.intp, copy=False)
                lo = np.maximum(lo, self._low.take(flaws))
                hi = np.minimum(hi, self._high.take(flaws))
                del flaws
            live = hi - lo
            np.maximum(live, 0, out=live)
            # the running sums could pass int64 only past this bound
            charge = live.astype(object) if width * self._widest >= 1 << 62 else live
            start = np.empty(width + 1, dtype=charge.dtype)
            start[0] = 0
            np.add.accumulate(charge, out=start[1:])
            spare = self.budget - self.nodes
            if start[-1] > spare:
                # charged state by state: stop at the first state past the budget
                self.nodes += int(start[(start > spare).argmax()])
                raise BudgetExceededError(self.nodes, self.budget, stage,
                                          where=f"layer {i}/{self.n}, width {width} states")
            self.nodes += int(start[-1])
            start = start.astype(np.int64, copy=False)
            parent = np.arange(width).repeat(live.astype(np.int64, copy=False))
            values = (lo - start[:-1]).take(parent) + np.arange(len(parent))
            keys = keys.take(plan.take, axis=1)  # drops the layer's keys
            rows = keys.take(parent, axis=0)
            del keys, bound, lo, hi, live, charge
            column = values[:, None]
            low, high = plan.tight
            if high < plan.fresh:
                rows[:, high:plan.fresh] = column
            if low < high:
                raised, lowered = rows[:, low:high:2], rows[:, low + 1:high:2]
                np.maximum(raised, column, out=raised)
                np.minimum(lowered, column, out=lowered)
                del raised, lowered
            if self.box is None:
                if plan.fresh:
                    shifts = np.minimum.reduce(rows[:, 1:-1:2], axis=1)
                    rows[:, :-1] -= shifts[:, None]
                else:
                    shifts = np.zeros(len(values), dtype=values.dtype)
            else:
                rows[:, -1] += (values < self._window[0]) | (values > self._window[1])
                values = values + self.box[0]
                shifts = np.zeros(len(values), dtype=values.dtype)
            kids, keys = _number(rows)
            del rows, column
            yield _Step(start, values, kids, shifts, parent, len(keys))
            del start, values, kids, shifts, parent  # the caller holds what it keeps

    def compile(self, stage: str) -> tuple[int, list[_Layer]]:
        """The ensemble size and, per layer, the `_Layer` arrays that rank
        the layer's transitions.  A layer's ranks run over all its states in
        turn: state s owns [base[s], base[s] + completions of s), split
        between its transitions in order.  The backward pass that fills the
        ranks and drops dead children reads each `_Step`'s first four arrays."""
        rows = []
        for step in self.expand(stage):
            rows.append(step[:4])
            width = step.states
        # every last-layer state completes one way, and nothing is left to rank
        counts, base = np.ones(width, dtype=np.int64), np.zeros(width, dtype=np.int64)
        for i in range(self.n - 1, -1, -1):
            start, values, kids, shifts = rows[i]
            got = _widened(counts[kids])
            cum = np.cumsum(got)
            ends = np.concatenate((np.zeros(1, cum.dtype), cum))[start]
            live = got > 0
            # taking a successor moves the rank from its run to the child's
            step = base[kids] - (cum - got)
            rows[i] = _Layer(cum[live], step[live], values[live], shifts[live])
            base, counts = ends[:-1], np.diff(ends)
        total = int(counts[0])
        kind = np.int64 if total < 1 << 63 and rows[0].values.dtype != object else object
        return total, [_Layer(*(a.astype(kind, copy=False) for a in layer)) for layer in rows]


def _number(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's number among the distinct rows of `rows`, numbered in
    order of first appearance, and the distinct rows in that order.  `rows`
    is not empty: every layer has a member's transition.

    The entries are nonnegative, so a run of columns packs into one
    mixed-radix word below 2^63.  When the columns' spans multiply past
    that, each further run's word is paired with the word so far through
    their ranks among their distinct values.  A stable sort of the words
    puts each row's first appearance first among its equals."""
    radix, runs, size = [], [len(rows[0])], 1
    for j, top in reversed(list(enumerate(np.maximum.reduce(rows, axis=0).tolist()))):
        if size * (top + 1) >= 1 << 63:
            runs.append(j + 1)
            size = 1
        radix.append(size)
        size *= top + 1
    radix = np.array(radix[::-1], dtype=np.int64)
    words = rows[:, :runs[-1]].dot(radix[:runs[-1]])
    for start, stop in zip(runs[:0:-1], runs[-2::-1]):
        _, ranks = np.unique(words, return_inverse=True)
        _, more = np.unique(rows[:, start:stop].dot(radix[start:stop]), return_inverse=True)
        words = ranks * (more.max() + 1) + more
    order = words.argsort(kind="stable")
    ranked = words.take(order)
    new = np.empty(len(order), dtype=bool)  # where a new word starts, in word order
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    new = new.nonzero()[0]
    first = order.take(new)  # each distinct row's first appearance, in word order
    found = first.argsort()
    kids = found.argsort().take(ranked.take(new).searchsorted(words))
    return kids, rows.take(first.take(found), axis=0)


def _widened(weights: np.ndarray) -> np.ndarray:
    """`weights` as Python ints once their sum could pass 2^62, so that no
    sum or running sum of them wraps int64."""
    if weights.dtype == object or int(np.maximum.reduce(weights, initial=0)) * len(weights) < 1 << 62:
        return weights
    return weights.astype(object) if weights.sum(dtype=np.float64) >= 2.0 ** 62 else weights



def _check_spec(g: Graph, spec: EnsembleSpec) -> int | None:
    """Check that `spec` names a finite ensemble on g, with its anchor on the
    graph; return its flaw cap (None in one-point mode)."""
    if spec.mode == "one-point":
        if not 0 <= spec.v0 < g.n:
            raise ConfigError(f"invalid anchor vertex {spec.v0}")
        return None
    cap = flaw_cap(g.n, g.regular_degree(), spec.lam)
    if cap >= g.n:
        raise ConfigError(
            f"flaw allowance {cap} admits every function (n={g.n}); the ensemble is infinite"
        )
    return cap


def _count(g: Graph, spec: EnsembleSpec, budget: int) -> CountResult:
    dp = _FrontierDP(g, spec, budget)
    mult = np.ones(1, dtype=np.int64)  # functions reaching each state of the layer
    for step in dp.expand("count"):
        spread = _widened(mult.take(step.parent))
        mult = np.zeros(step.states, dtype=spread.dtype)
        np.add.at(mult, step.kids, spread)
        del step, spread  # hold only `mult` while the next layer is swept
    total = int(mult.sum())
    return CountResult(count=total, nodes_explored=dp.nodes, mode=spec.mode, M=spec.M,
                       anchor=spec.v0, base=spec.k, flaw_cap=dp.cap, box=dp.box)


_UNRANK_CELLS = 1 << 14  # member values an enumeration unranks at a time


def member_batches(g: Graph, spec: EnsembleSpec, budget: int = DEFAULT_NODE_BUDGET) -> Iterator[np.ndarray]:
    """The ensemble's members in rank order, which is lexicographic order
    along the DP's vertex order, as the rows of value arrays (see `_unrank`)
    of about 16,384 values each.  The spec is checked at the call; the DP is
    compiled at the first `next`, and each batch is unranked when it is
    reached, so a partly read enumeration costs only the batches read."""
    dp = _FrontierDP(g, spec, budget)

    def batches() -> Iterator[np.ndarray]:
        total, rows = dp.compile("enumeration")
        batch = max(1, _UNRANK_CELLS // dp.n)
        for first in range(0, total, batch):
            # a range of Python ints: ranks past 2^63 never pass through int64
            yield _unrank(dp, rows, range(first, min(first + batch, total)))

    return batches()


def _members(g: Graph, spec: EnsembleSpec, budget: int) -> Iterator[LipschitzFn]:
    """`member_batches`, one `LipschitzFn` per row."""
    batches = member_batches(g, spec, budget)  # checks the spec now, not at the first `next`
    return (LipschitzFn(tuple(row), spec.M) for vals in batches for row in vals.tolist())


def enumerate_onepoint(g: Graph, v0: int, M: int, budget: int = DEFAULT_NODE_BUDGET) -> Iterator[LipschitzFn]:
    """Every f with f(v0) = 0, each exactly once, in lexicographic order
    along a breadth-first vertex order from v0."""
    return _members(g, EnsembleSpec("one-point", M=M, v0=v0), budget)


def count_onepoint(g: Graph, v0: int, M: int, budget: int = DEFAULT_NODE_BUDGET) -> CountResult:
    return _count(g, EnsembleSpec("one-point", M=M, v0=v0), budget)


def enumerate_groundstate(g: Graph, k: int, M: int, lam, budget: int = DEFAULT_NODE_BUDGET) -> Iterator[LipschitzFn]:
    """Every M-Lipschitz f whose flaw count for the window [k, k+M] is within
    the allowance (2*lam/d)*n."""
    return _members(g, EnsembleSpec("ground-state", M=M, k=k, lam=lam), budget)


def count_groundstate(g: Graph, k: int, M: int, lam, budget: int = DEFAULT_NODE_BUDGET) -> CountResult:
    return _count(g, EnsembleSpec("ground-state", M=M, k=k, lam=lam), budget)


def marginal_groundstate(g: Graph, k: int, M: int, lam, v: int,
                         budget: int = DEFAULT_NODE_BUDGET) -> dict[int, int]:
    """Exact marginal of f(v) over the ground-state ensemble at base k:
    {value: number of members taking it}, read from the DP rooted at v."""
    spec = EnsembleSpec("ground-state", M=M, k=k, lam=lam)
    _, rows = _FrontierDP(g, spec, budget, start=v).compile("marginal")
    cum, values = rows[0].cum, rows[0].values
    return dict(zip(values.tolist(), np.diff(cum, prepend=0).tolist()))


# ---------------------------------------------------------------------------
# Exact sampling
# ---------------------------------------------------------------------------

def _ranks(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """`count` uniform ranks in [0, total): one `integers` call below 2^63,
    past it one multi-word draw per rank (exact Python ints, by rejection)."""
    if total < 1 << 63:
        return rng.integers(0, total, size=count, dtype=np.int64)
    bits = total.bit_length()
    words = (bits + 31) // 32
    ranks = np.empty(count, dtype=object)
    for i in range(count):
        while True:
            x = 0
            for w in rng.integers(0, 1 << 32, size=words, dtype=np.int64).tolist():
                x = (x << 32) | w
            x >>= words * 32 - bits
            if x < total:
                ranks[i] = x
                break
    return ranks


class ExactSampler:
    """Exact sampler by unranking (Nijenhuis-Wilf): a uniform rank below the
    ensemble size picks a member, and the ranks map one-to-one onto the
    members in the order `enumerate_onepoint`/`enumerate_groundstate` list
    them.

    The DP is compiled once at construction into per-layer rank arrays
    (`_FrontierDP.compile`).  A batch of draws makes one rank draw and then
    walks the layers once for all its ranks, with one `searchsorted` per
    layer; it touches no state keys.  The arrays are int64 when the ensemble
    size is below 2^63 and the values fit, and Python ints otherwise.
    """

    def __init__(self, g: Graph, spec: EnsembleSpec, budget: int = DEFAULT_NODE_BUDGET):
        self._dp = _FrontierDP(g, spec, budget)
        self.total, self._rows = self._dp.compile("sampler")
        if self.total == 0:
            raise ValueError("ensemble is empty")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` independent uniform members, the members of `count`
        uniform ranks, as the rows of a `(count, n)` value array."""
        return _unrank(self._dp, self._rows, _ranks(rng, self.total, count))


def _unrank(dp: _FrontierDP, rows: list[_Layer], ranks) -> np.ndarray:
    """The members of `ranks`, valid ranks of the layers `rows` that
    `dp.compile` returned, as the rows of one value array indexed by vertex:
    one `searchsorted` per layer for all of them, in the dtype of `rows`
    (int64, or Python ints when a value or the ensemble size could pass
    int64)."""
    dtype = rows[0].cum.dtype
    rank = np.array(ranks, dtype=dtype)
    vals = np.empty((len(rank), dp.n), dtype=dtype)
    offset = np.full(len(rank), dp.offset, dtype=dtype)
    for v, (cum, step, values, shifts) in zip(dp.order, rows):
        # the successor whose run of ranks holds the rank
        j = np.searchsorted(cum, rank, "right")
        vals[:, v] = values[j] + offset
        offset += shifts[j]
        rank += step[j]
    return vals


def sample_exact(g: Graph, spec: EnsembleSpec, seed: int, count: int = 1,
                 budget: int = DEFAULT_NODE_BUDGET) -> np.ndarray:
    """Draw `count` exactly-uniform samples, the rows of a `(count, n)` value
    array; one batch on `default_rng(seed)`, so a fixed seed
    gives fixed draws, and the first j draws of a batch are the draws of a
    batch of j."""
    rng = np.random.default_rng(seed)
    return ExactSampler(g, spec, budget=budget).draw(rng, count)


# ---------------------------------------------------------------------------
# Glauber dynamics
# ---------------------------------------------------------------------------

_GLAUBER_CHUNK = 1 << 16  # draws per rng.integers call; the stream does not depend on it
_GLAUBER_SLICE = 1 << 12  # draws converted to Python scalars at a time
_GLAUBER_MEMO_CELLS = 1 << 13  # neighbour values the interval table may hold


def glauber_site_interval(values: Sequence[int], nbrs: Sequence[int], M: int) -> tuple[int, int]:
    """Heat-bath interval at a site: [max_nbr - M, min_nbr + M]."""
    lo = max(values[u] for u in nbrs) - M
    hi = min(values[u] for u in nbrs) + M
    return lo, hi


def _coin_range(M: int, n_sites: int) -> int:
    """The range W of the heat-bath coin q, uniform on [0, W): lcm(1, ...,
    2M+1), so that every interval width divides it, or (2^63 - 1) // n_sites
    once that lcm would pass it, so that `n_sites * W` stays an int64 bound.
    lcm(1, ..., 43) passes 2^63, so the loop never runs past 43 terms."""
    cap = (2**63 - 1) // n_sites
    W = 1
    for w in range(2, 2 * M + 2):
        W = math.lcm(W, w)
        if W > cap:
            return cap
    return W


def glauber_chain(
    g: Graph,
    spec: EnsembleSpec,
    seed: int,
    steps: int,
    on_step: Callable[[int, list[int]], None] | None = None,
) -> LipschitzFn:
    """Single-site heat-bath chain whose stationary law is uniform.

    One-point mode resamples a uniform site v != v0 from its heat-bath
    interval.  Ground-state mode proposes the same move on any site and
    rejects proposals that would exceed the flaw allowance, which preserves
    uniformity because the proposal kernel is symmetric.  `on_step` sees the
    state after every step, rejected moves included.

    The chain draws on `default_rng(seed)`, one bounded integer x per step,
    uniform on [0, n_sites * W) (see `_coin_range`): the site is number
    x // W and the coin q = x % W, and the new value is lo + q * width // W
    for the interval [lo, lo + width).  While W is lcm(1, ..., 2M+1), every
    width divides it and the choice is exactly uniform.  Once that lcm
    passes (2^63 - 1) // n_sites (at 2M+1 = 43 at the latest), W is that
    cap, and each value's probability differs from 1 / width by less than
    1 / W, a relative bias of at most width / W.  numpy's `integers` stream
    does not depend on how the draws are split into calls, so a run's first
    steps do not depend on its length.

    Each step reads the site's neighbour values with one call of its
    `Graph.neighbor_getters` entry and looks the interval up in a table keyed
    by those values, computing it only on a miss; `glauber_site_interval` is
    the reference for the interval.  The table stores at most 8,192
    neighbour values (8,192 // max degree entries).  While it has room,
    every miss makes an entry, so only a full table can keep missing; it is
    judged once, when it fills.  If it filled within 4 steps per entry,
    more than a quarter of its lookups missed, and the chain switches it off
    and frees it; otherwise it keeps serving.  It changes no draw: a fixed
    seed always gives the same chain.
    """
    (state,) = _glauber_run(g, spec, seed, [steps], on_step)[0].tolist()
    return LipschitzFn(tuple(state), spec.M)


def glauber_samples(g: Graph, spec: EnsembleSpec, seed: int, burn_in: int, thinning: int,
                    samples: int) -> tuple[np.ndarray, int]:
    """`samples` states of one Glauber chain, `thinning` steps apart after
    `burn_in` steps from the all-zero (one-point) or all-k (ground-state)
    state, as the rows of a `(samples, n)` value array, and how many moves
    of the run the flaw cap rejected.

    Sample i is the state of the `glauber_chain` run of `seed` after
    `burn_in + i * thinning` steps, so a fixed seed gives fixed samples,
    and the first j samples of a run are those of every longer run.
    """
    marks = [burn_in + i * thinning for i in range(samples + 1)]
    states, rejected = _glauber_run(g, spec, seed, marks)
    return states[1:], rejected


def _glauber_run(
    g: Graph,
    spec: EnsembleSpec,
    seed: int,
    marks: list[int],
    on_step: Callable[[int, list[int]], None] | None = None,
) -> tuple[np.ndarray, int]:
    """One chain of `marks[-1]` steps on `default_rng(seed)`; the state after
    each step count in `marks` (ascending, a mark of 0 being the start
    state), as the rows of one value array (see `_value_array`), and the
    number of moves the flaw cap rejected.

    The run starts from the all-zero (one-point) or all-k (ground-state)
    state; the sites, the flaw count and the neighbour getters are set up
    once.  Each 65,536-step chunk makes one `integers` call on
    [0, n_sites * W) and splits its draws into sites and coins in numpy, so
    a step does integer arithmetic only; the bias of a coin is that of
    `glauber_chain`, 0 while W is lcm(1, ..., 2M+1) and at most width / W
    past the cap.  Step t of the run passes `(t, values)` to `on_step`.
    """
    M = spec.M
    cap = _check_spec(g, spec)
    ground = cap is not None
    sites = np.arange(g.n)
    if ground:
        values = [spec.k] * g.n
        w_lo, w_hi = spec.k, spec.k + M
        flaws = 0
    else:
        sites = sites[sites != spec.v0]
        values = [0] * g.n
    n_sites = len(sites)
    run = marks[-1]
    if not n_sites:
        # a lone pinned vertex: every step leaves the state as it is
        if on_step is not None:
            for t in range(run):
                on_step(t, values)
        return _value_array(values * len(marks), g.n), 0

    getters = g.neighbor_getters
    # the interval table: neighbour values -> (lo, width); None once switched off
    table: dict | None = {}
    room = _GLAUBER_MEMO_CELLS // max(max(g.degrees), 1)
    rejected = 0
    states = []  # the state at each mark, end to end
    m = 0  # the marks recorded so far
    t = 0
    while m < len(marks) and marks[m] <= t:
        states += values
        m += 1
    W = _coin_range(M, n_sites)
    rng = np.random.default_rng(seed)
    for done in range(0, run, _GLAUBER_CHUNK):
        take = min(_GLAUBER_CHUNK, run - done)
        picks, coins = np.divmod(rng.integers(0, n_sites * W, size=take), W)
        verts = sites[picks]
        start = 0
        while start < take:
            # a slice ends after _GLAUBER_SLICE steps or at the next mark
            stop = min(start + _GLAUBER_SLICE, take, marks[m] - done)
            # heat bath: c is uniform on [max nbr - M, min nbr + M]
            for v, q in zip(verts[start:stop].tolist(), coins[start:stop].tolist()):
                nv = getters[v](values)
                if table is None:
                    lo = max(nv) - M
                    width = min(nv) + M - lo + 1
                else:
                    try:
                        lo, width = table[nv]
                    except KeyError:
                        lo = max(nv) - M
                        width = min(nv) + M - lo + 1
                        if len(table) < room:
                            table[nv] = lo, width
                            # every miss so far made an entry, so a table that fills
                            # within 4 * room steps missed over a quarter of its lookups
                            if len(table) == room and t + 1 < 4 * room:
                                table = None
                c = lo + q * width // W
                if ground and c != values[v]:
                    old_in = w_lo <= values[v] <= w_hi
                    if old_in != (w_lo <= c <= w_hi):
                        if not old_in:
                            flaws -= 1
                        elif flaws < cap:
                            flaws += 1
                        else:
                            c = values[v]  # rejected: one more flaw than allowed
                            rejected += 1
                values[v] = c
                if on_step is not None:
                    on_step(t, values)
                t += 1
            start = stop
            while m < len(marks) and marks[m] <= t:
                states += values
                m += 1
    return _value_array(states, g.n), rejected


def _value_array(values: list[int], n: int) -> np.ndarray:
    """`values`, n to a row, as one int64 array, or as Python ints in an
    object array once some |value| reaches 2^62, so that a difference of
    two values plus one never wraps."""
    try:
        vals = np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:  # a value past int64
        vals = None
    if vals is None or (len(vals) and max(-int(vals.min()), int(vals.max())) >= 1 << 62):
        vals = np.array(values, dtype=object)
    return vals.reshape(-1, n)


# ---------------------------------------------------------------------------
# Ground states
# ---------------------------------------------------------------------------

_WINDOW_CELLS = 1 << 20  # (row, base) cells that `min_ground_states` counts in one pass


def window_flaws(vals: np.ndarray, M: int) -> tuple[int, np.ndarray]:
    """The flaw counts of the rows of the value array `vals` (at least one
    row) at every window base from `low = min - M` to `max`, the extremes
    taken over the whole array: `low` and a `(rows, max - min + M + 1)`
    array whose column j holds the counts at base `low + j`.  Any other base
    leaves every vertex of every row flawed.

    Each row's values become a histogram over [low, max + M] (one
    `bincount` for all rows), and the vertices inside each window [k, k+M]
    are a difference of its prefix sums."""
    rows, n = vals.shape
    low = int(vals.min()) - M
    size = int(vals.max()) + M - low + 1  # the values [low, max + M], M empty slots at each end
    slots = (vals - low).astype(np.intp) + np.arange(0, rows * size, size, dtype=np.intp)[:, None]
    hist = np.bincount(slots.ravel(), minlength=rows * size).reshape(rows, size)
    below = np.zeros((rows, size + 1), dtype=np.intp)  # below[:, x]: the values under low + x
    np.cumsum(hist, axis=1, out=below[:, 1:])
    return low, n - (below[:, M + 1:] - below[:, :size - M])


def _admissible_bases(g: Graph, vals: np.ndarray, M: int, lam) -> tuple[int, np.ndarray]:
    """`low` and a `(rows, width)` boolean array whose column j holds, per
    row of `vals`, whether base `low + j` is within the flaw allowance and
    inside the row's own window [min - M, max]; any base outside it leaves
    every vertex flawed, which qualifies only when the allowance is >= n
    (and then such bases carry no information)."""
    cap = flaw_cap(g.n, g.regular_degree(), lam)
    low, flaws = window_flaws(vals, M)
    first = (vals.min(axis=1) - M - low).astype(np.intp)
    last = (vals.max(axis=1) - low).astype(np.intp)
    j = np.arange(flaws.shape[1])
    return low, (flaws <= cap) & (j >= first[:, None]) & (j <= last[:, None])


def ground_states(g: Graph, f: LipschitzFn, lam) -> set[int]:
    """All window bases k whose flaw count is within the allowance, searched
    over [min f - M, max f] (see `_admissible_bases`)."""
    low, ok = _admissible_bases(g, _value_array(f.values, len(f.values)), f.M, lam)
    return {low + j for j in ok[0].nonzero()[0].tolist()}


def min_ground_states(g: Graph, vals: np.ndarray, M: int, lam) -> np.ndarray:
    """The smallest admissible window base of every row of the value array
    `vals`, from one `window_flaws` pass per block of rows (a block holds
    at most `_WINDOW_CELLS` window cells).  The admissible bases must then
    fit in a window of M+1 consecutive bases whenever lam < d/4.  A row with
    no admissible base is a `ConfigError` that names lam and the allowance."""
    d = g.regular_degree()
    bases = []
    if len(vals):
        width = int(vals.max()) - int(vals.min()) + M + 1
        step = max(1, _WINDOW_CELLS // width)
        for block in range(0, len(vals), step):
            low, ok = _admissible_bases(g, vals[block:block + step], M, lam)
            if not ok.any(axis=1).all():
                cap = flaw_cap(g.n, d, lam)
                raise ConfigError(f"no ground state: every window base leaves more than {cap} flawed vertices, "
                                  f"the allowance at lambda = {lam}; the expansion certificate is likely invalid")
            first = ok.argmax(axis=1)
            spread = ok.shape[1] - 1 - ok[:, ::-1].argmax(axis=1) - first  # last minus first admissible
            if lam < d / 4.0 and (spread > M).any():
                r = int((spread > M).argmax())
                kappa = low + int(first[r])
                ks = [low + j for j in ok[r].nonzero()[0].tolist()]
                raise RuntimeError(
                    f"admissible bases {ks} exceed [{kappa}, {kappa + M}] despite lam < d/4; this indicates a bug"
                )
            bases += [low + j for j in first.tolist()]
    return np.array(bases, dtype=vals.dtype)


def min_ground_state(g: Graph, f: LipschitzFn, lam) -> int:
    """`min_ground_states` of f alone."""
    return int(min_ground_states(g, _value_array(f.values, len(f.values)), f.M, lam)[0])


# ---------------------------------------------------------------------------
# File format: {"M": int, "values": [int; n]}
# ---------------------------------------------------------------------------

def load_function(path) -> LipschitzFn:
    """Read a function file; a file that is not JSON, or a missing or
    non-integer field, is a `ConfigError`."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    M, values = (data.get("M"), data.get("values")) if isinstance(data, dict) else (None, None)
    # `type(x) is int` leaves out JSON booleans, which subclass int in Python
    if type(M) is not int or M < 0 or not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ConfigError(f'{path}: a function file is {{"M": integer >= 0, "values": [integer, ...]}}')
    return LipschitzFn(tuple(values), M)
