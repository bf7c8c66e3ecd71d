from collections import Counter

import networkx as nx
import numpy as np
import pytest

from liplab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    petersen_graph,
)
from liplab.lipschitz import LipschitzFn, flaw_cap, glauber_site_interval


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


def reference_glauber(g, spec, blocks, on_step=None):
    """The Glauber chain as a plain loop, for comparison with the kernel.

    It replays the same stream: per `(seed, steps)` block a generator of
    `SeedSequence(seed)`, drawn in 65,536-step chunks, `integers` for the
    sites then `random` for the coins.  Every step calls
    `glauber_site_interval`, and a ground-state proposal is rejected when it
    would leave the window at more than the flaw cap's vertices.  Returns the
    state after each block and the number of rejected moves."""
    ground = spec.mode == "ground-state"
    sites = list(range(g.n)) if ground else [v for v in range(g.n) if v != spec.v0]
    values = [spec.k if ground else 0] * g.n
    cap = flaw_cap(g.n, g.regular_degree(), spec.lam) if ground else None
    states, rejected, t = [], 0, 0
    for seed, steps in blocks:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for done in range(0, steps, 1 << 16):
            take = min(1 << 16, steps - done)
            picks = rng.integers(0, len(sites), size=take).tolist()
            coins = rng.random(size=take).tolist()
            for i, u in zip(picks, coins):
                v = sites[i]
                lo, hi = glauber_site_interval(values, g.neighbors(v), spec.M)
                c = lo + int(u * (hi - lo + 1))
                if ground:
                    proposal = values[:v] + [c] + values[v + 1:]
                    if sum(not spec.k <= x <= spec.k + spec.M for x in proposal) > cap:
                        c = values[v]
                        rejected += 1
                values[v] = c
                if on_step is not None:
                    on_step(t, values)
                t += 1
        states.append(LipschitzFn(tuple(values), spec.M))
    return states, rejected


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


def to_networkx(g):
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    return nxg
