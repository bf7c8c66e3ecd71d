"""Integer Lipschitz functions on graphs: validation, exact enumeration and
counting, exact sampling, single-site Glauber dynamics, and ground states.

Two ensembles are supported.  The one-point ensemble pins f(v0) = 0.  The
ground-state ensemble collects every M-Lipschitz function whose values leave
the window [k, k+M] on at most (2*lam/d)*n vertices; it is finite whenever
that flaw allowance is below n.

Counting, exact sampling, enumeration and exact marginals share one
recursion-free frontier DP (`_FrontierDP`).  Their `budget` bounds, and
`CountResult.nodes_explored` reports, the number of DP transitions: pairs of
a state and a candidate value that lead to a live state, each charged once;
sampling and marginals walk flat integer rows compiled in one sweep.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, pairwise
from typing import Callable, Iterator, Sequence

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

    def shift(self, c: int) -> "LipschitzFn":
        return LipschitzFn(tuple(v + c for v in self.values), self.M)

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

def flaw_allowance_ok(count: int, n: int, d: int, lam) -> bool:
    """count <= (2*lam/d)*n; for an integer count, count <= `flaw_cap`."""
    return count <= flaw_cap(n, d, lam)


def flaw_cap(n: int, d: int, lam) -> int:
    """Largest admissible flaw count: floor of (2*lam/d)*n, exactly when lam
    is rational, else with slack."""
    if isinstance(lam, (int, Fraction)):
        return math.floor(Fraction(2 * lam * n, d))
    return math.floor(2.0 * lam / d * n + _SLACK)


# ---------------------------------------------------------------------------
# Frontier DP engine
# ---------------------------------------------------------------------------

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

    `forward` counts, `stream` enumerates, and `compile` turns the layers
    into flat integer rows for sampling and marginals; each calls
    `successors` once per state it reaches.  `nodes` counts DP transitions:
    (state, candidate) pairs that lead to a live state.  It is checked
    against `budget` after every state expanded.
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

    def successors(self, i: int, key: tuple, shifted: bool = True) -> list[tuple[int, tuple, int]]:
        """(value, successor key, shift) for each value of vertex i in state
        `key` that leaves a live state, in increasing value.  The value is in
        key coordinates; the successor key is shifted down by `shift`, which
        stays 0 unless `shifted` and there is no box."""
        M = self.M
        lo, hi = key[0] - M, key[1] + M
        box = self.box
        if box is not None:
            lo, hi = max(lo, box[0]), min(hi, box[1])
        rest, flaws = key[2:-1], key[-1]
        tighten, fresh = self.tighten[i], self.fresh[i]
        window, cap = self.window, self.cap
        shifted = shifted and box is None
        span = 2 * M
        out = []
        for c in range(lo, hi + 1):
            nf = flaws
            if window is not None and not window[0] <= c <= window[1]:
                nf += 1
                if nf > cap:
                    continue
            pairs = list(rest)
            for j in tighten:
                if c > pairs[j]:
                    if c - pairs[j + 1] > span:
                        break
                    pairs[j] = c
                elif c < pairs[j + 1]:
                    if pairs[j] - c > span:
                        break
                    pairs[j + 1] = c
            else:
                pairs += (c, c) * fresh
                shift = 0
                if shifted and pairs:
                    shift = min(pairs[1::2])
                    if shift:
                        pairs = [x - shift for x in pairs]
                pairs.append(nf)
                out.append((c, tuple(pairs), shift))
        return out

    def _charge(self, transitions: int, stage: str, i: int, width: int) -> None:
        """Add `transitions` to `nodes`; `width` is the number of layer-i
        states held while layer i is expanded."""
        self.nodes += transitions
        if self.nodes > self.budget:
            raise BudgetExceededError(self.nodes, self.budget, stage,
                                      where=f"layer {i}/{self.n}, width {width} states")

    def forward(self, stage: str) -> dict:
        """Walk the layers with multiplicities and return the last one,
        {key: number of functions reaching it}."""
        layer = {self.root: 1}
        for i in range(self.n):
            nxt: dict = {}
            get = nxt.get
            for key, mult in layer.items():
                succ = self.successors(i, key)
                self._charge(len(succ), stage, i, len(layer))
                for _, child, _ in succ:
                    nxt[child] = get(child, 0) + mult
            layer = nxt
        return layer

    def compile(self, stage: str) -> list[tuple]:
        """Per layer, flat rows (start, values, kids, shifts, cum).  States
        are numbered as the forward pass finds them, the root as 0; state s
        of layer i owns entries start[s]:start[s + 1], one per successor with
        completions: its value and shift (as in `successors`), its number in
        layer i + 1, and the running total of completions through it.  Keys
        live only while the next layer is built; the backward pass that
        fills `cum` and drops dead children walks integer rows alone."""
        rows = []
        keys = {self.root: 0}
        for i in range(self.n):
            nxt: dict = {}
            number = nxt.setdefault
            start = array("q", [0])
            values, kids, shifts = [], [], []
            for key in keys:
                succ = self.successors(i, key)
                self._charge(len(succ), stage, i, len(keys))
                for c, child, shift in succ:
                    values.append(c)
                    kids.append(number(child, len(nxt)))
                    shifts.append(shift)
                start.append(len(values))
            rows.append((start, values, kids, shifts))
            keys = nxt
        counts = [1] * len(keys)
        for i in range(self.n - 1, -1, -1):
            start, values, kids, shifts = rows[i]
            got = list(map(counts.__getitem__, kids))
            live = array("q", [0])
            cum, counts = [], []
            for a, b in pairwise(start):
                total = 0
                for m in got[a:b]:
                    if m:
                        total += m
                        cum.append(total)
                live.append(len(cum))
                counts.append(total)
            rows[i] = (live, *(list(compress(x, got)) for x in (values, kids, shifts)), cum)
        return rows

    def stream(self, stage: str) -> Iterator[list[int]]:
        """Yield every complete assignment (in order positions) in
        lexicographic order, from an explicit stack of successor lists.
        Keys are not shifted here: no state is looked up twice."""
        n, offset = self.n, self.offset
        vals = [0] * n
        succ = self.successors(0, self.root, shifted=False)
        self._charge(len(succ), stage, 0, 1)
        # each frame: an iterator over a successor list, and that list's
        # length (the layer-(i + 1) states the walk holds)
        stack = [(iter(succ), len(succ))]
        while stack:
            i = len(stack) - 1
            states, width = stack[i]
            for c, child, _ in states:
                vals[i] = c + offset
                if i + 1 == n:
                    yield vals
                    continue
                succ = self.successors(i + 1, child, shifted=False)
                self._charge(len(succ), stage, i + 1, width)
                stack.append((iter(succ), len(succ)))
                break
            else:
                stack.pop()

    def to_vertex_order(self, vals: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(vals.__getitem__, self._place))


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
    total = sum(dp.forward("count").values())
    return CountResult(count=total, nodes_explored=dp.nodes, mode=spec.mode, M=spec.M,
                       anchor=spec.v0, base=spec.k, flaw_cap=dp.cap, box=dp.box)


def _members(g: Graph, spec: EnsembleSpec, budget: int) -> Iterator[LipschitzFn]:
    """The ensemble's members in lexicographic order along the DP's vertex
    order; the spec is checked at the call, the members come lazily."""
    dp = _FrontierDP(g, spec, budget)
    return (LipschitzFn(dp.to_vertex_order(vals), spec.M) for vals in dp.stream("enumeration"))


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
    _, values, _, _, cum = _FrontierDP(g, spec, budget, start=v).compile("marginal")[0]
    return {c: b - a for c, a, b in zip(values, [0] + cum, cum)}


# ---------------------------------------------------------------------------
# Exact sampling
# ---------------------------------------------------------------------------

def _randbelow(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound), exact even past 64-bit counts."""
    if bound <= 0:
        raise ValueError("empty choice")
    if bound <= (1 << 62):
        return int(rng.integers(0, bound))
    k = bound.bit_length()
    words = (k + 31) // 32
    while True:
        x = 0
        for w in rng.integers(0, 1 << 32, size=words, dtype=np.int64):
            x = (x << 32) | int(w)
        x >>= words * 32 - k
        if x < bound:
            return x


class ExactSampler:
    """Sequentially exact sampler: each vertex value is drawn proportional to
    the exact number of completions, so draws are uniform over the ensemble.

    The DP is compiled once at construction into flat rows of successor
    values and cumulative completion counts (`_FrontierDP.compile`); a draw
    then makes one bisection per layer and touches no state keys.
    """

    def __init__(self, g: Graph, spec: EnsembleSpec, budget: int = DEFAULT_NODE_BUDGET):
        self._dp = _FrontierDP(g, spec, budget)
        self._rows = self._dp.compile("sampler")
        cum = self._rows[0][4]
        self.total = cum[-1] if cum else 0
        if self.total == 0:
            raise ValueError("ensemble is empty")

    def draw(self, rng: np.random.Generator) -> LipschitzFn:
        dp = self._dp
        vals = [0] * dp.n
        s, offset = 0, dp.offset
        for i, (start, values, kids, shifts, cum) in enumerate(self._rows):
            # the first successor whose running total of completions exceeds
            # the pick: each is taken in proportion to its completions
            lo, hi = start[s], start[s + 1]
            j = bisect_right(cum, _randbelow(rng, cum[hi - 1]), lo, hi)
            vals[i] = values[j] + offset
            s = kids[j]
            offset += shifts[j]
        return LipschitzFn(dp.to_vertex_order(vals), dp.M)


def sample_exact(g: Graph, spec: EnsembleSpec, seed: int, count: int = 1,
                 budget: int = DEFAULT_NODE_BUDGET) -> list[LipschitzFn]:
    """Draw `count` exactly-uniform samples; deterministic for a fixed seed."""
    sampler = ExactSampler(g, spec, budget=budget)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [sampler.draw(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Glauber dynamics
# ---------------------------------------------------------------------------

_GLAUBER_CHUNK = 1 << 16  # draws per rng.integers / rng.random call
_GLAUBER_SLICE = 1 << 12  # draws converted to Python scalars at a time
_SAMPLE_SALT = 0x9E3779B97F4A7C15  # xor-ed into the seed of the per-sample streams


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
    initial: LipschitzFn | None = None,
    on_step: Callable[[int, list[int]], None] | None = None,
) -> LipschitzFn:
    """Single-site heat-bath chain whose stationary law is uniform.

    One-point mode resamples a uniform site v != v0 from its heat-bath
    interval.  Ground-state mode proposes the same move on any site and
    rejects proposals that would exceed the flaw allowance, which preserves
    uniformity because the proposal kernel is symmetric.  `on_step` sees the
    state after every step, rejected moves included.

    Each step reads the site's neighbour values with one call of its
    `Graph.neighbor_getters` entry; `glauber_site_interval` is the reference
    for the interval.  A fixed seed always gives the same chain.
    """
    return _glauber_run(g, spec, [(seed, steps)], initial, on_step)[0]


def glauber_samples(g: Graph, spec: EnsembleSpec, seed: int, burn_in: int, thinning: int,
                    samples: int) -> list[LipschitzFn]:
    """`samples` states of one Glauber chain, `thinning` steps apart after
    `burn_in` steps from the all-zero (one-point) or all-k (ground-state)
    state.

    The burn-in draws on `SeedSequence(seed)`; the block ending at sample i
    draws on the seed that child i of
    `SeedSequence(seed ^ 0x9E3779B97F4A7C15).spawn(samples)` generates, so a
    fixed seed gives fixed samples, and each block is the `glauber_chain` run
    of that seed from the previous state.
    """
    children = np.random.SeedSequence(seed ^ _SAMPLE_SALT).spawn(samples)
    blocks = [(seed, burn_in)] + [(child.generate_state(1)[0].item(), thinning) for child in children]
    return _glauber_run(g, spec, blocks)[1:]


def _glauber_run(
    g: Graph,
    spec: EnsembleSpec,
    blocks: list[tuple[int, int]],
    initial: LipschitzFn | None = None,
    on_step: Callable[[int, list[int]], None] | None = None,
) -> list[LipschitzFn]:
    """One chain over `(seed, steps)` blocks, each drawing on a fresh
    generator of `SeedSequence(seed)`; the state after each block.

    The sites, the flaw count and the neighbour getters are set up once; only
    a caller's `initial` state is checked.  Step t of the run (counted across
    blocks) passes `(t, values)` to `on_step`.
    """
    M = spec.M
    cap = _check_spec(g, spec)
    ground = cap is not None
    sites = np.arange(g.n)
    if ground:
        values = [spec.k] * g.n
        w_lo, w_hi = spec.k, spec.k + M
    else:
        sites = sites[sites != spec.v0]
        values = [0] * g.n
    if initial is not None:
        if len(initial.values) != g.n or initial.M != M:
            raise ValueError("initial state does not match graph or M")
        if not validate(g, initial):
            raise ValueError("initial state is not Lipschitz")
        if not ground and initial.values[spec.v0] != 0:
            raise ValueError("initial state must anchor v0 at 0")
        values = list(initial.values)
    if ground:
        flaws = sum(1 for v in values if not w_lo <= v <= w_hi)
        if flaws > cap:
            raise ValueError("initial state violates the flaw allowance")
    n_sites = len(sites)
    if not n_sites:
        # a lone pinned vertex: every step leaves the state as it is
        if on_step is not None:
            for t in range(sum(steps for _, steps in blocks)):
                on_step(t, values)
        return [LipschitzFn(tuple(values), M)] * len(blocks)

    getters = np.empty(g.n, dtype=object)
    getters[:] = g.neighbor_getters
    site_getters = getters[sites]
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
                    lo = max(nv) - M
                    c = lo + int(u * (min(nv) + M - lo + 1))
                    if ground and c != values[v]:
                        old_in = w_lo <= values[v] <= w_hi
                        if old_in != (w_lo <= c <= w_hi):
                            if not old_in:
                                flaws -= 1
                            elif flaws < cap:
                                flaws += 1
                            else:
                                c = values[v]  # rejected: one more flaw than allowed
                    values[v] = c
                    if on_step is not None:
                        on_step(t, values)
                    t += 1
        states.append(LipschitzFn(tuple(values), M))
    return states


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
    d = g.regular_degree()
    lo, hi = min(f.values) - f.M, max(f.values)
    return {k for k in range(lo, hi + 1) if flaw_allowance_ok(flaw_count(f, k), g.n, d, lam)}


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
