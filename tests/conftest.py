import itertools
import math
from array import array
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from liplab.containers import (
    ApproxPair,
    ContainerFamily,
    cover_sampling,
    cover_size_bound,
    enumerate_linked_sets,
    family_bound_exponent,
)
from liplab import entropy
from liplab.entropy import JointPmf
from liplab.errors import BudgetExceededError
from liplab.graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    bfs_order,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    linked_layers,
    mask_vertices,
    petersen_graph,
    vertex_mask,
)
from liplab.lipschitz import LipschitzFn, enumerate_onepoint, flaw_cap, glauber_samples, glauber_site_interval


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k6():
    return complete_graph(6)


@pytest.fixture(scope="session")
def c4():
    return cycle_graph(4)


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def q3():
    return hypercube_graph(3)


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


class CountingGenerator:
    """A `Generator` that counts calls of its methods by name."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def reference_glauber(g, spec, seed, marks, on_step=None):
    """The Glauber chain as a plain loop, for comparison with the kernel.

    It replays the same stream in one call instead of per chunk: one
    generator, `default_rng(seed)`, and `marks[-1]` integers on
    [0, len(sites) * W), where W is lcm(1, ..., 2M+1) or, once
    `len(sites) * W` would pass 2^63 - 1, `(2^63 - 1) // len(sites)`.  A draw
    x picks site x // W and sets it to lo + (x % W) * (hi - lo + 1) // W.
    Every step calls `glauber_site_interval`, and a ground-state proposal is
    rejected when it would leave the window at more than the flaw cap's
    vertices.  Returns the state after each step count in `marks` (a mark
    of 0 is the start state) and the number of rejected moves."""
    ground = spec.mode == "ground-state"
    sites = list(range(g.n)) if ground else [v for v in range(g.n) if v != spec.v0]
    values = [spec.k if ground else 0] * g.n
    cap = flaw_cap(g.n, g.regular_degree(), spec.lam) if ground else None
    # lcm(1, ..., 43) is past 2^63 already
    W = math.lcm(*range(1, min(2 * spec.M + 1, 43) + 1))
    if len(sites) * W > 2**63 - 1:
        W = (2**63 - 1) // len(sites)
    wanted = set(marks)
    seen = {0: tuple(values)}  # the state after t steps, for t in marks
    rejected = 0
    rng = np.random.default_rng(seed)
    for t, x in enumerate(rng.integers(0, len(sites) * W, size=marks[-1]).tolist()):
        v = sites[x // W]
        lo, hi = glauber_site_interval(values, g.neighbors(v), spec.M)
        q = x % W
        c = lo + q * (hi - lo + 1) // W
        if ground:
            proposal = values[:v] + [c] + values[v + 1:]
            if sum(not spec.k <= y <= spec.k + spec.M for y in proposal) > cap:
                c = values[v]
                rejected += 1
        values[v] = c
        if on_step is not None:
            on_step(t, values)
        if t + 1 in wanted:
            seen[t + 1] = tuple(values)
    return [LipschitzFn(seen[mark], spec.M) for mark in marks], rejected


_STEP_BLOCK_CELLS = 1 << 20  # values that `glauber_steps` holds at a time


def glauber_steps(g, spec, seed, steps):
    """The states of the Glauber chain of `seed` after steps 1, ..., `steps`,
    as tuples: the rows of `glauber_samples(g, spec, seed, 0, 1, steps)`,
    read in blocks of about 2^20 values, so that a long run on a large graph
    holds one block at a time.  Runs are prefix-stable, so the block that a
    shorter run ends with equals those rows of the full run."""
    block = max(1, _STEP_BLOCK_CELLS // g.n)
    for start in range(0, steps, block):
        rows, _ = glauber_samples(g, spec, seed, start, 1, min(block, steps - start))
        yield from map(tuple, rows.tolist())


def reference_sweep(g, spec, budget, start=0):
    """The frontier DP as a loop over dict keys of tuples, for comparison
    with the kernel of `_FrontierDP.expand`.  Returns every layer's `(start,
    values, kids, shifts)` arrays and the transitions charged, or raises the
    `BudgetExceededError` of the first state that passes `budget`.

    A key lists, per pending vertex in breadth-first position, the max and
    the min of its assigned neighbours' values, then the flaw count.  Vertex
    i's live values are [max - M, min + M] of its own pair, within 2M of each
    pair it tightens, clipped to the box (or, at the flaw cap, the window).
    Without a box, each successor key is shifted to minimum 0.  States are
    numbered as they are found."""
    M, n = spec.M, g.n
    if spec.mode == "one-point":
        start, root, box, window, cap = spec.v0, (0, 0), None, None, None
    else:
        k = spec.k
        root = box = (k - n * M, k + M + n * M)
        window, cap = (k, k + M), flaw_cap(n, g.regular_degree(), spec.lam)
    order = bfs_order(g, start)
    pos = {v: i for i, v in enumerate(order)}
    tightens, opens, pending = [], [], [0]
    for i, v in enumerate(order):
        later = {pos[u] for u in g.neighbors(v) if pos[u] > i}
        rest = pending[1:]
        tightens.append(tuple(2 * j for j, p in enumerate(rest) if p in later))
        opened = sorted(later.difference(rest))
        opens.append(len(opened))
        pending = rest + opened
    lo, hi = root[0] + M, root[1] - M
    offset = 0 if box is not None else min(lo, hi)
    span = 2 * M
    # the dtype of the arrays: int64 while 3M (one-point) or the box (ground-state) stays below 2^62
    value_type = np.int64 if (3 * M if box is None else max(map(abs, box))) < 1 << 62 else object
    nodes, layers = 0, []
    keys = {(lo - offset, hi - offset, 0): 0}
    for i in range(n):
        tighten, fresh, width = tightens[i], opens[i], len(keys)
        nxt = {}
        starts, values, kids, shifts = array("q"), [], array("q"), []
        for key in keys:
            starts.append(len(values))
            rest, flaws = key[2:-1], key[-1]
            lo, hi = key[0] - M, key[1] + M
            for j in tighten:
                lo, hi = max(lo, rest[j] - span), min(hi, rest[j + 1] + span)
            if box is not None:
                low, high = window if flaws == cap else box
                lo, hi = max(lo, low), min(hi, high)
            if hi < lo:
                continue
            nodes += hi - lo + 1
            if nodes > budget:
                raise BudgetExceededError(nodes, budget, "count", where=f"layer {i}/{n}, width {width} states")
            for c in range(lo, hi + 1):
                pairs = list(rest)
                for j in tighten:
                    pairs[j], pairs[j + 1] = max(pairs[j], c), min(pairs[j + 1], c)
                pairs += (c, c) * fresh
                shift = min(pairs[1::2]) if box is None and pairs else 0
                pairs = [x - shift for x in pairs]
                pairs.append(flaws if window is None or window[0] <= c <= window[1] else flaws + 1)
                values.append(c)
                kids.append(nxt.setdefault(tuple(pairs), len(nxt)))
                shifts.append(shift)
        starts.append(len(values))
        keys = nxt
        layers.append((np.asarray(starts), np.asarray(values, dtype=value_type),
                       np.asarray(kids), np.asarray(shifts, dtype=value_type)))
    return layers, nodes


def brute_members(nxg, spec):
    """Every member of the ensemble `spec` on the networkx graph `nxg`, as
    value tuples in vertex order, in lexicographic order along
    `[root] + bfs_edges(root, sort_neighbors=sorted)`, the root being v0 in
    one-point mode and vertex 0 in ground-state mode.

    Each vertex tries, in increasing order, the values of its box: |x| <=
    M*dist(v, v0) in one-point mode, [k - n*M, k + M + n*M] in ground-state
    mode.  A partial assignment is not extended once it breaks an edge to an
    earlier vertex or has more flaws than the cap."""
    M, n = spec.M, nxg.number_of_nodes()
    root = spec.v0 if spec.mode == "one-point" else 0
    order = [root] + [v for _, v in nx.bfs_edges(nxg, root, sort_neighbors=sorted)]
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[u for u in nxg[v] if pos[u] < i] for i, v in enumerate(order)]
    if spec.mode == "one-point":
        dist = nx.single_source_shortest_path_length(nxg, root)
        boxes = [range(-M * dist[v], M * dist[v] + 1) for v in order]
        window, cap = None, None
    else:
        boxes = [range(spec.k - n * M, spec.k + M + n * M + 1)] * n
        window, cap = (spec.k, spec.k + M), flaw_cap(n, nxg.degree(root), spec.lam)
    vals = [0] * n

    def extend(i, flaws):
        if i == n:
            yield tuple(vals)
            return
        for x in boxes[i]:
            if all(abs(x - vals[u]) <= M for u in earlier[i]):
                more = flaws + (window is not None and not window[0] <= x <= window[1])
                if cap is None or more <= cap:
                    vals[order[i]] = x
                    yield from extend(i + 1, more)

    return extend(0, 0)


def flaw_count(f, k):
    """The vertices f puts outside the window [k, k+M], one at a time: the
    oracle of `window_flaws`."""
    return sum(1 for v in f.values if v < k or v > k + f.M)


def ground_bases(g, f, lam):
    """The window bases k in [min f - M, max f] whose `flaw_count` is within
    the flaw allowance at lam, by brute force over the bases."""
    cap = flaw_cap(g.n, g.regular_degree(), lam)
    return {k for k in range(min(f.values) - f.M, max(f.values) + 1) if flaw_count(f, k) <= cap}


def reference_ground_state_lemma(g, M, lam, v0, budget=DEFAULT_NODE_BUDGET):
    """`verify_ground_state_lemma` as a loop over `enumerate_onepoint`: each
    member's fewest flaws over its bases [min f - M, max f] by `flaw_count`;
    the worst ratio is the first member's with the largest, and the failures
    keep rank order."""
    d = g.regular_degree()
    allowance = 2.0 * float(lam) / d * g.n
    cap = flaw_cap(g.n, d, lam)
    checked, failures, worst_ratio, worst_values = 0, [], 0.0, None
    for f in enumerate_onepoint(g, v0, M, budget=budget):
        checked += 1
        best = min(flaw_count(f, k) for k in range(min(f.values) - M, max(f.values) + 1))
        ratio = best / allowance if allowance > 0 else (0.0 if best == 0 else math.inf)
        if ratio > worst_ratio:
            worst_ratio, worst_values = ratio, list(f.values)
        if best > cap:
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


def to_networkx(g):
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    return nxg


def nx_distances(g, source):
    """Graph distances from `source`, a list by vertex id, by networkx: the
    oracle of the breadth-first walks."""
    dist = nx.single_source_shortest_path_length(to_networkx(g), source)
    return [dist[v] for v in range(g.n)]


def exhaustive_lambda_bruteforce(g):
    """The minimal expansion constant by the plain sweep over every pair of
    nonempty subsets (tiny n only): the oracle of `exhaustive_lambda`."""
    d = g.regular_degree()
    n = g.n
    nbr = [frozenset(g.neighbors(v)) for v in range(n)]
    subsets = []
    for mask in range(1, 1 << n):
        subsets.append([v for v in range(n) if (mask >> v) & 1])
    best = 0.0
    for s in subsets:
        s_set = set(s)
        for t in subsets:
            e = sum(len(nbr[v] & s_set) for v in t)
            val = abs(e - d * len(s) * len(t) / n) / math.sqrt(len(s) * len(t))
            best = max(best, val)
    return best


def set_neighborhood(g, xs):
    """N(X) as a frozenset, read off `g.neighbors`: the oracles' boundary
    operator, independent of the mask code."""
    return frozenset(u for v in xs for u in g.neighbors(v))


def neighborhood_mask(g, x):
    """N(X) of the mask X, as a mask, by `set_neighborhood`."""
    return vertex_mask(set_neighborhood(g, mask_vertices(x)))


def nx_power(g, k):
    """G^k by networkx, for the oracles' linkage checks."""
    return nx.power(to_networkx(g), k)


def is_linked_nx(power, xs):
    """Whether the vertex set X is connected in `power` (a networkx G^k): X is
    k-linked.  The empty set is."""
    return not xs or nx.is_connected(power.subgraph(xs))


def reference_boundary_ordering(g, xs):
    """The boundary ordering of the 4-linked vertex set X whose closure
    leaves an outside, by networkx: the breadth-first layers of G^4
    restricted to X, each in id order, from the smallest vertex of X within
    distance 2 of the outside, then the outer boundary in id order."""
    xs = set(xs)
    closure = xs | set_neighborhood(g, xs)
    near = nx.multi_source_dijkstra_path_length(to_networkx(g), set(range(g.n)) - closure, cutoff=2)
    start = min(xs & set(near))
    layer = nx.single_source_shortest_path_length(nx_power(g, 4).subgraph(xs), start)
    assert set(layer) == xs, "X is not 4-linked"
    return sorted(xs, key=lambda v: (layer[v], v)) + sorted(closure - xs)


def reference_ordering_verdict(g, xs, order):
    """The three ordering properties of the list `order` for the vertex set
    X, by networkx distances, in `check_boundary_ordering`'s dict: the first
    vertex is within distance 2 of the outside of the closure, X fills the
    first |X| places, and every later vertex has an earlier one within
    distance 4.  A list that is not an ordering of the closure fails
    `covers_closure`, and the three properties are then None."""
    xs = set(xs)
    closure = xs | set_neighborhood(g, xs)
    if not order or sorted(order) != sorted(closure):
        return {"covers_closure": False, "first_near_outside": None, "set_before_boundary": None,
                "predecessor_within_4": None, "ok": False}
    dist = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
    first = any(dist[order[0]][u] <= 2 for u in set(range(g.n)) - closure)
    split = set(order[:len(xs)]) == xs
    pred = all(any(dist[v][u] <= 4 for u in order[:i]) for i, v in enumerate(order) if i)
    return {"covers_closure": True, "first_near_outside": first, "set_before_boundary": split,
            "predecessor_within_4": pred, "ok": first and split and pred}


def linked_component_containing(g, ys, k, v):
    """The k-linked component of the mask Y containing v (0 when v is not in Y),
    the sum of its disjoint `linked_layers`: the mask walk that the batched
    flaw decomposition replaced, kept as its oracle."""
    return sum(linked_layers(g, ys, k, 1 << v))


def reference_random_lipschitz(g, M, rng):
    """One random M-Lipschitz function, one vertex at a time: breadth first
    from a uniform root, each vertex uniform on [max - M, min + M] over its
    assigned neighbours ([-M, M] at the root), restarted from the same root on
    an empty interval.  The per-function generator that
    `experiments._random_lipschitz_rows` batches, kept as its law's oracle."""
    order = bfs_order(g, int(rng.integers(0, g.n)))
    while True:
        vals = [None] * g.n
        for v in order:
            near = [vals[u] for u in g.neighbors(v) if vals[u] is not None]
            lo, hi = (max(near) - M, min(near) + M) if near else (-M, M)
            if lo > hi:
                break
            vals[v] = int(rng.integers(lo, hi + 1))
        else:
            return LipschitzFn(tuple(vals), M)


def is_mutual_cover(g, x, y):
    """True iff the mask X is inside the closure of the mask Y and Y is inside
    the closure of X."""
    return not (x & ~(y | neighborhood_mask(g, y)) or y & ~(x | neighborhood_mask(g, x)))


def is_approx_pair(g, pair, x):
    """True iff (S, F) meets its three defining conditions against the mask
    X: F inside N(X) and X inside S, at most psi neighbours outside F for
    every vertex of S, and at most psi neighbours in S for every vertex
    outside F."""
    nbr = g.neighbor_masks
    s, f, limit = pair.s, pair.f, pair.psi + 1e-9
    return (not (f & ~neighborhood_mask(g, x) or x & ~s)
            and all((nbr[u] & ~f).bit_count() <= limit for u in mask_vertices(s))
            and all((nbr[u] & s).bit_count() <= limit for u in range(g.n) if not f >> u & 1))


def reference_container_family(g, v, boundary_size, k, psi, profile, seed, budget=DEFAULT_NODE_BUDGET):
    """`build_container_family` one linked set at a time on Python-int masks:
    cover, refine and validate each X in turn (the oracle of the column
    pipeline).  Reads `COVER_RETRY_CAP` at call time, as the library does."""
    from liplab import containers

    tol = 1e-9
    d, lam = profile.d, profile.lam
    nbr = g.neighbor_masks
    limit = psi + tol
    xs = enumerate_linked_sets(g, v, boundary_size, k, budget=budget)
    ell, p = cover_sampling(d, lam)
    if 0.0 < p < 1.0:
        seeds = [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(len(xs))]
    else:
        seeds = [seed] * len(xs)
    pairs = {}
    max_h = max_u = met_bound = total_attempts = 0
    covers_all = True
    for x, cover_seed in zip(xs, seeds):
        # the cover: sampled pool, then the smallest neighbour of each uncovered X-vertex
        q = neighborhood_mask(g, x)
        pool = [u for u in mask_vertices(q) if (nbr[u] & x).bit_count() < ell]
        bound = cover_size_bound(d, lam, q.bit_count())
        root = np.random.SeedSequence(cover_seed) if pool and 0.0 < p < 1.0 else None
        best, attempts = None, 0
        while attempts < (containers.COVER_RETRY_CAP if root is not None else 1):
            attempts += 1
            if root is None:
                y = vertex_mask(pool) if p >= 1.0 else 0
            else:
                keep = np.random.default_rng(root.spawn(1)[0]).random(len(pool)) < p
                y = vertex_mask(u for u, take in zip(pool, keep) if take)
            covered = y | neighborhood_mask(g, y)
            cover = y
            for u in mask_vertices(x):
                if not covered >> u & 1:
                    low = nbr[u] & -nbr[u]
                    cover |= low
                    covered |= low | nbr[low.bit_length() - 1]
            if best is None or cover.bit_count() < best.bit_count():
                best = cover
            if cover.bit_count() <= bound + tol:
                best = cover
                break
        assert is_mutual_cover(g, x, best)
        total_attempts += attempts
        met_bound += best.bit_count() <= bound + tol
        # the refinement: greedy H inside X, then greedy U outside N(X)
        f_prime, h = best, 0
        for u in mask_vertices(x):
            if (nbr[u] & ~f_prime).bit_count() > limit:
                h += 1
                f_prime |= nbr[u]
        s_prime = vertex_mask(u for u in range(g.n) if (nbr[u] & f_prime).bit_count() >= d - psi - tol)
        removed, u_count = 0, 0
        for u in range(g.n):
            if not q >> u & 1 and (nbr[u] & s_prime & ~removed).bit_count() > limit:
                u_count += 1
                removed |= nbr[u]
        s = s_prime & ~removed
        f = f_prime | vertex_mask(u for u in range(g.n) if (nbr[u] & s).bit_count() > limit)
        gsize = q.bit_count()
        assert h <= gsize / psi + tol and u_count <= 2.0 * gsize / psi + tol
        pair = ApproxPair(s=s, f=f, psi=psi)
        pairs.setdefault(pair)
        max_h, max_u = max(max_h, h), max(max_u, u_count)
        covers_all &= is_approx_pair(g, pair, x)
    exponent = family_bound_exponent(d, lam, k, psi, boundary_size)
    return ContainerFamily(
        vertex=v,
        boundary_size=boundary_size,
        linkage=k,
        psi=psi,
        pairs=tuple(pairs),
        n_sets=len(xs),
        covers_all=covers_all,
        stats={
            "max_h": max_h,
            "max_u": max_u,
            "covers_meeting_bound": met_bound,
            "cover_attempts": total_attempts,
            "bound_exponent": exponent,
            "empirical_constant": math.log(len(pairs)) / exponent if pairs and exponent > 0 else None,
        },
    )


def random_pmf(supports, seed):
    """Flat-Dirichlet probabilities over the full product support from
    `default_rng(seed)`, built cell by cell through `JointPmf`: the oracle
    of `entropy.random_pmf_tables`."""
    supports = tuple(tuple(s) for s in supports)
    cells = list(itertools.product(*supports))
    weights = np.random.default_rng(seed).dirichlet([1.0] * len(cells))
    return JointPmf(supports, {cell: float(w) for cell, w in zip(cells, weights)})


def row_reports(pmfs, seeds):
    """The report that `check_entropy_properties` would give each pmf alone,
    read off one check of them all together."""
    checks, verdicts = entropy._verdicts(pmfs, list(seeds))
    checked = dict.fromkeys(entropy._PROPERTIES, 0)
    for prop, _ in checks:
        checked[prop] += 1
    return [{"checked": dict(checked),
             "failures": [{"property": prop, "witness": dict(witness)}
                          for (prop, witness), ok in zip(checks, row) if not ok],
             "ok": bool(row.all())} for row in verdicts]
