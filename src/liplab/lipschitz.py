"""Integer Lipschitz functions on graphs: validation, exact enumeration and
counting, exact sampling, single-site Glauber dynamics, and ground states.

Two ensembles are supported.  The one-point ensemble pins f(v0) = 0.  The
ground-state ensemble collects every M-Lipschitz function whose values leave
the window [k, k+M] on at most (2*lam/d)*n vertices; it is finite whenever
that flaw allowance is below n.

Counting, exact sampling, enumeration and exact marginals share one
recursion-free frontier DP (`_FrontierDP`), whose one forward sweep yields
each layer's transitions as integer arrays.  Their `budget` bounds, and
`CountResult.nodes_explored` reports, the number of DP transitions: pairs of
a state and a candidate value that lead to a live state, each charged once.
Counts carry multiplicities along the sweep, one layer at a time; sampling,
marginals and enumeration keep every layer's arrays and turn them into rank
arrays, rank r being member r of the enumeration (Nijenhuis-Wilf unranking).
"""

from __future__ import annotations

import json
import math
from array import array
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

    def reflect(self, k: int) -> "LipschitzFn":
        """The involution f -> -f + k + M pairing the ensembles based at k and 0."""
        return LipschitzFn(tuple(-v + k + self.M for v in self.values), self.M)


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
    rank of the next layer.  `values` and `shifts` are as in
    `_FrontierDP.sweep`."""

    cum: np.ndarray
    step: np.ndarray
    values: np.ndarray
    shifts: np.ndarray


class _FrontierDP:
    """Layered transfer-matrix DP of the ensemble `spec` along the
    breadth-first vertex order from v0 (one-point mode) or from `start`
    (ground-state mode); counting, sampling, enumeration and exact marginals
    all walk it.  In ground-state mode values are confined to the box
    [k - n*M, k + M + n*M], which is exhaustive because some vertex must sit
    inside the window [k, k+M].

    Layer i holds the states reached once the first i vertices of the order
    have values.  A vertex is pending when it is unassigned but has an
    assigned neighbour.  A state key lists, for every pending vertex in order
    position, the max and the min of its assigned neighbours' values, and
    ends with the flaw count.  The key is exact: a pending vertex's
    candidates are [max - M, min + M] clipped to the box, so a successor in
    which some max - min exceeds 2M is dead and is dropped.  In a breadth-first
    order vertex i is the first pending vertex of layer i, and the new
    pending vertices it opens come after all others; the root gets a
    synthetic pair whose candidates are exactly `root`.

    Without a box (one-point mode) completion counts do not change when a
    whole key is shifted, so keys are shifted to minimum 0 and every
    successor carries the shift it applied; a state's real values are its
    key plus the running offset.

    `sweep` is the one loop that expands states: counting reads its arrays
    one layer at a time, and `compile` keeps them all and turns them into
    rank arrays for sampling, marginals and enumeration.  `nodes` counts DP
    transitions: (state, candidate) pairs that lead to a live state.  It is
    checked against `budget` for every state expanded, before its successors
    are built.
    """

    def __init__(self, g: Graph, spec: EnsembleSpec, budget: int, start: int = 0):
        self.M = M = spec.M
        self.cap = _check_spec(g, spec)
        if self.cap is None:
            start, root, self.box, self.window = spec.v0, (0, 0), None, None
        else:
            if not 0 <= start < g.n:
                raise ValueError(f"invalid anchor vertex {start}")
            k = spec.k
            root = self.box = (k - g.n * M, k + M + g.n * M)
            self.window = (k, k + M)
        order = bfs_order(g, start)
        self.n = len(order)
        self.budget = budget
        self.nodes = 0
        pos = {v: i for i, v in enumerate(order)}
        self._place = [pos[v] for v in range(g.n)]  # the graph is connected
        # per layer: key offsets of the pending pairs that vertex i tightens,
        # and how many new pending vertices it opens
        self.tighten: list[tuple[int, ...]] = []
        self.fresh: list[int] = []
        pending = [0]
        for i, v in enumerate(order):
            later = {pos[u] for u in g.neighbors(v) if pos[u] > i}
            rest = pending[1:]
            self.tighten.append(tuple(2 * j for j, p in enumerate(rest) if p in later))
            opened = sorted(later.difference(rest))
            self.fresh.append(len(opened))
            pending = rest + opened
        lo, hi = root[0] + M, root[1] - M
        self.offset = 0 if self.box is not None else min(lo, hi)
        self.root = (lo - self.offset, hi - self.offset, 0)

    def sweep(self, stage: str) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Layer i's transitions as integer arrays `(start, values, kids,
        shifts)`, layer by layer.  States are numbered as they are found, the
        root as 0; state s owns transitions `start[s]:start[s + 1]`, one per
        value of vertex i (in key coordinates, increasing) that leaves a live
        state.  Transition t gives vertex i `values[t]` and leads to state
        `kids[t]` of layer i + 1, whose key is shifted down by `shifts[t]`
        (0 when there is a box).  A layer's keys are dropped once the next
        layer is numbered.  A state's live values form one interval, charged
        to `nodes` and checked against the budget before any successor is
        built, so its work and memory are bounded by the budget, not by M."""
        M, box, window, cap = self.M, self.box, self.window, self.cap
        span = 2 * M
        # one-point keys lie in [0, 2M], so values and shifts lie in [-M, 3M]
        reach = 3 * M if box is None else max(map(abs, box))
        value_type = np.int64 if reach < 1 << 62 else object
        # int64 buffers, which the yielded arrays share, or Python ints
        column = (lambda: array("q")) if value_type is np.int64 else list
        keys: dict = {self.root: 0}
        for i in range(self.n):
            tighten, fresh, width = self.tighten[i], self.fresh[i], len(keys)
            nxt: dict = {}
            number = nxt.setdefault
            start, kids = array("q"), array("q")
            values, shifts = column(), column()
            for key in keys:
                start.append(len(values))
                rest, flaws = key[2:-1], key[-1]
                # within M of vertex i's assigned neighbours, and within 2M of those
                # of every pending vertex it tightens (rest[j] is a max, rest[j + 1] a min)
                lo, hi = key[0] - M, key[1] + M
                for j in tighten:
                    bound = rest[j] - span
                    if bound > lo:
                        lo = bound
                    bound = rest[j + 1] + span
                    if bound < hi:
                        hi = bound
                if box is not None:
                    # the window lies in the box; at the cap one more flaw is one too many
                    low, high = window if flaws == cap else box
                    if low > lo:
                        lo = low
                    if high < hi:
                        hi = high
                if hi < lo:
                    continue
                self.nodes += hi - lo + 1
                if self.nodes > self.budget:
                    raise BudgetExceededError(self.nodes, self.budget, stage,
                                              where=f"layer {i}/{self.n}, width {width} states")
                for c in range(lo, hi + 1):
                    pairs = list(rest)
                    for j in tighten:
                        if c > pairs[j]:
                            pairs[j] = c
                        elif c < pairs[j + 1]:
                            pairs[j + 1] = c
                    pairs += (c, c) * fresh
                    shift = 0
                    if box is None and pairs:
                        shift = min(pairs[1::2])
                        if shift:
                            pairs = [x - shift for x in pairs]
                    pairs.append(flaws if window is None or window[0] <= c <= window[1] else flaws + 1)
                    values.append(c)
                    kids.append(number(tuple(pairs), len(nxt)))
                    shifts.append(shift)
            start.append(len(values))
            keys = nxt
            yield (np.asarray(start), np.asarray(values, dtype=value_type),
                   np.asarray(kids), np.asarray(shifts, dtype=value_type))

    def compile(self, stage: str) -> tuple[int, list[_Layer]]:
        """The ensemble size and, per layer, the `_Layer` arrays that rank
        the layer's transitions.  A layer's ranks run over all its states in
        turn: state s owns [base[s], base[s] + completions of s), split
        between its transitions in order.  The backward pass that fills the
        ranks and drops dead children works on the swept arrays alone."""
        rows = list(self.sweep(stage))
        # every last-layer state completes one way, and nothing is left to rank
        width = int(rows[-1][2].max(initial=-1)) + 1
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


def _widened(weights: np.ndarray) -> np.ndarray:
    """`weights` as Python ints once their sum could pass 2^62, so that no
    sum or running sum of them wraps int64."""
    if weights.dtype != object and weights.sum(dtype=np.float64) >= 2.0 ** 62:
        return weights.astype(object)
    return weights


def _check_spec(g: Graph, spec: EnsembleSpec) -> int | None:
    """Check that `spec` names a finite ensemble on g, with its anchor on the
    graph; return its flaw cap (None in one-point mode)."""
    if spec.mode == "one-point":
        if not 0 <= spec.v0 < g.n:
            raise ValueError(f"invalid anchor vertex {spec.v0}")
        return None
    cap = flaw_cap(g.n, g.regular_degree(), spec.lam)
    if cap >= g.n:
        raise ValueError(
            f"flaw allowance {cap} admits every function (n={g.n}); the ensemble is infinite"
        )
    return cap


def _count(g: Graph, spec: EnsembleSpec, budget: int) -> CountResult:
    dp = _FrontierDP(g, spec, budget)
    mult = np.ones(1, dtype=np.int64)  # functions reaching each state of the layer
    for start, _, kids, _ in dp.sweep("count"):
        spread = _widened(np.repeat(mult, np.diff(start)))
        mult = np.zeros(int(kids.max(initial=-1)) + 1, dtype=spread.dtype)
        np.add.at(mult, kids, spread)
        del start, kids, _, spread  # hold only `mult` while the next layer is swept
    total = int(mult.sum())
    return CountResult(count=total, nodes_explored=dp.nodes, mode=spec.mode, M=spec.M,
                       anchor=spec.v0, base=spec.k, flaw_cap=dp.cap, box=dp.box)


_UNRANK_CELLS = 1 << 14  # member values an enumeration unranks at a time


def _members(g: Graph, spec: EnsembleSpec, budget: int) -> Iterator[LipschitzFn]:
    """The ensemble's members in rank order, which is lexicographic order
    along the DP's vertex order.  The spec is checked at the call; the DP is
    compiled at the first `next`, and the ranks are unranked in batches of
    about 16,384 values."""
    dp = _FrontierDP(g, spec, budget)

    def members() -> Iterator[LipschitzFn]:
        total, rows = dp.compile("enumeration")
        batch = max(1, _UNRANK_CELLS // dp.n)
        for first in range(0, total, batch):
            # a range of Python ints: ranks past 2^63 never pass through int64
            yield from _unrank(dp, rows, range(first, min(first + batch, total)))

    return members()


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

    def draw(self, rng: np.random.Generator, count: int) -> list[LipschitzFn]:
        """`count` independent uniform members: the members of `count`
        uniform ranks."""
        return _unrank(self._dp, self._rows, _ranks(rng, self.total, count))


def _unrank(dp: _FrontierDP, rows: list[_Layer], ranks) -> list[LipschitzFn]:
    """The members of `ranks`, valid ranks of the layers `rows` that
    `dp.compile` returned: one `searchsorted` per layer for all of them, in
    the dtype of `rows`."""
    dtype = rows[0].cum.dtype
    rank = np.array(ranks, dtype=dtype)
    vals = np.empty((len(rank), dp.n), dtype=dtype)
    offset = np.full(len(rank), dp.offset, dtype=dtype)
    for i, (cum, step, values, shifts) in enumerate(rows):
        # the successor whose run of ranks holds the rank
        j = np.searchsorted(cum, rank, "right")
        vals[:, i] = values[j] + offset
        offset += shifts[j]
        rank += step[j]
    return [LipschitzFn(tuple(row), dp.M) for row in vals[:, dp._place].tolist()]


def sample_exact(g: Graph, spec: EnsembleSpec, seed: int, count: int = 1,
                 budget: int = DEFAULT_NODE_BUDGET) -> list[LipschitzFn]:
    """Draw `count` exactly-uniform samples; one batch on
    `default_rng(SeedSequence(seed))`, so a fixed seed gives fixed draws, and
    the first j draws of a batch are the draws of a batch of j."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return ExactSampler(g, spec, budget=budget).draw(rng, count)


# ---------------------------------------------------------------------------
# Glauber dynamics
# ---------------------------------------------------------------------------

_GLAUBER_CHUNK = 1 << 16  # draws per rng.integers / rng.random call
_GLAUBER_SLICE = 1 << 12  # draws converted to Python scalars at a time
_SAMPLE_SALT = 0x9E3779B97F4A7C15  # xor-ed into the seed of the per-sample streams
_GLAUBER_MEMO_CELLS = 1 << 13  # neighbour values the interval table may hold
_GLAUBER_MEMO_MISS_SHARE = 0.25  # share of missed lookups that switches the table off


def glauber_site_interval(values: Sequence[int], nbrs: Sequence[int], M: int) -> tuple[int, int]:
    """Heat-bath interval at a site: [max_nbr - M, min_nbr + M]."""
    lo = max(values[u] for u in nbrs) - M
    hi = min(values[u] for u in nbrs) + M
    return lo, hi


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

    Each step reads the site's neighbour values with one call of its
    `Graph.neighbor_getters` entry and looks the interval up in a table keyed
    by those values, computing it only on a miss; `glauber_site_interval` is
    the reference for the interval.  The table stores at most 8,192
    neighbour values (8,192 // max degree entries) and keeps serving once
    full.  The chain judges it after every 4,096 or more steps (slices of
    the draws, summed across `glauber_samples` blocks), and switches it off
    and frees it the first time more than a quarter of those lookups missed.
    It changes no draw: a fixed seed always gives the same chain.
    """
    return _glauber_run(g, spec, [(seed, steps)], on_step)[0][0]


def glauber_samples(g: Graph, spec: EnsembleSpec, seed: int, burn_in: int, thinning: int,
                    samples: int) -> tuple[list[LipschitzFn], int]:
    """`samples` states of one Glauber chain, `thinning` steps apart after
    `burn_in` steps from the all-zero (one-point) or all-k (ground-state)
    state, and how many moves of the run the flaw cap rejected.

    The burn-in draws on `SeedSequence(seed)`; the block ending at sample i
    draws on the seed that child i of
    `SeedSequence(seed ^ 0x9E3779B97F4A7C15).spawn(samples)` generates, so a
    fixed seed gives fixed samples, and each block is the `glauber_chain` run
    of that seed from the previous state.
    """
    children = np.random.SeedSequence(seed ^ _SAMPLE_SALT).spawn(samples)
    blocks = [(seed, burn_in)] + [(child.generate_state(1)[0].item(), thinning) for child in children]
    states, rejected = _glauber_run(g, spec, blocks)
    return states[1:], rejected


def _glauber_run(
    g: Graph,
    spec: EnsembleSpec,
    blocks: list[tuple[int, int]],
    on_step: Callable[[int, list[int]], None] | None = None,
) -> tuple[list[LipschitzFn], int]:
    """One chain over `(seed, steps)` blocks, each drawing on a fresh
    generator of `SeedSequence(seed)`; the state after each block, and the
    number of moves the flaw cap rejected.

    The run starts from the all-zero (one-point) or all-k (ground-state)
    state; the sites, the flaw count and the neighbour getters are set up
    once.  Step t of the run (counted across blocks) passes `(t, values)` to
    `on_step`.
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
    if not n_sites:
        # a lone pinned vertex: every step leaves the state as it is
        if on_step is not None:
            for t in range(sum(steps for _, steps in blocks)):
                on_step(t, values)
        return [LipschitzFn(tuple(values), M)] * len(blocks), 0

    getters = np.empty(g.n, dtype=object)
    getters[:] = g.neighbor_getters
    site_getters = getters[sites]
    # the interval table: neighbour values -> (lo, width); None once switched off
    table: dict | None = {}
    room = _GLAUBER_MEMO_CELLS // max(max(g.degrees), 1)
    looked = misses = rejected = 0
    states = []
    t = 0
    for seed, steps in blocks:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for done in range(0, steps, _GLAUBER_CHUNK):
            # the draws alternate per chunk, so the chunk size is part of the stream
            take = min(_GLAUBER_CHUNK, steps - done)
            site_idx = rng.integers(0, n_sites, size=take)
            coins = rng.random(size=take)
            verts, gets = sites[site_idx], site_getters[site_idx]
            for start in range(0, take, _GLAUBER_SLICE):
                stop = start + _GLAUBER_SLICE
                # heat bath: c is uniform on [max nbr - M, min nbr + M]
                for v, get, u in zip(verts[start:stop].tolist(), gets[start:stop].tolist(),
                                     coins[start:stop].tolist()):
                    nv = get(values)
                    if table is None:
                        lo = max(nv) - M
                        width = min(nv) + M - lo + 1
                    else:
                        try:
                            lo, width = table[nv]
                        except KeyError:
                            misses += 1
                            lo = max(nv) - M
                            width = min(nv) + M - lo + 1
                            if len(table) < room:
                                table[nv] = lo, width
                    c = lo + int(u * width)
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
                if table is not None:
                    # judge the table over 4,096 or more lookups, across blocks
                    looked += min(stop, take) - start
                    if looked >= _GLAUBER_SLICE:
                        if misses > _GLAUBER_MEMO_MISS_SHARE * looked:
                            table = None  # too many misses for the table to pay
                        looked = misses = 0
        states.append(LipschitzFn(tuple(values), M))
    return states, rejected


# ---------------------------------------------------------------------------
# Ground states
# ---------------------------------------------------------------------------

def flaw_count(f: LipschitzFn, k: int) -> int:
    lo, hi = k, k + f.M
    return sum(1 for v in f.values if v < lo or v > hi)


def ground_states(g: Graph, f: LipschitzFn, lam) -> set[int]:
    """All window bases k whose flaw count is within the allowance.

    The search window [min f - M, max f] is complete: any other k leaves
    every vertex flawed, which qualifies only when the allowance is >= n
    (and then bases outside the occupied range carry no information).
    """
    cap = flaw_cap(g.n, g.regular_degree(), lam)
    lo, hi = min(f.values) - f.M, max(f.values)
    return {k for k in range(lo, hi + 1) if flaw_count(f, k) <= cap}


def min_ground_state(g: Graph, f: LipschitzFn, lam) -> int:
    """Smallest admissible window base; the admissible set must then fit in
    a window of M+1 consecutive bases whenever lam < d/4."""
    ks = ground_states(g, f, lam)
    if not ks:
        raise ValueError("no ground state found; the expansion certificate is likely invalid")
    kappa = min(ks)
    d = g.regular_degree()
    if lam < d / 4.0 and max(ks) > kappa + f.M:
        raise RuntimeError(
            f"admissible bases {sorted(ks)} exceed [{kappa}, {kappa + f.M}] despite lam < d/4; "
            "this indicates a bug"
        )
    return kappa


# ---------------------------------------------------------------------------
# File format: {"M": int, "values": [int; n]}
# ---------------------------------------------------------------------------

def load_function(path) -> LipschitzFn:
    """Read a function file; a missing or non-integer field is a `ConfigError`
    (and a file that is not JSON a `ValueError`)."""
    with open(path) as fh:
        data = json.load(fh)
    M, values = (data.get("M"), data.get("values")) if isinstance(data, dict) else (None, None)
    # `type(x) is int` leaves out JSON booleans, which subclass int in Python
    if type(M) is not int or M < 0 or not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ConfigError(f'{path}: a function file is {{"M": integer >= 0, "values": [integer, ...]}}')
    return LipschitzFn(tuple(values), M)
