"""Immutable simple graphs, standard generators, and neighborhood primitives.

Vertex ids are dense integers in [0, n).  All set-valued operations take and
return plain frozensets of ids, which keeps them cheap to compare against
brute-force oracles.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, GenerationError

DEFAULT_NODE_BUDGET = 10_000_000


class Graph:
    """Simple undirected connected graph with adjacency lists by vertex id.

    Instances are immutable after construction; every query below is pure.
    Construction validates simplicity (no loops or parallel edges), symmetry,
    dense ids, and connectivity.
    """

    __slots__ = ("n", "name", "_adj", "_nbr_sets", "_degrees", "_matrix", "_nbr_getters", "_edge_index",
                 "_power_sets")

    def __init__(self, adjacency: Sequence[Iterable[int]], name: str = ""):
        n = len(adjacency)
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        adj = []
        for v, nbrs in enumerate(adjacency):
            nbrs = sorted(nbrs)
            if any(u < 0 or u >= n for u in nbrs):
                raise ValueError(f"vertex {v} has a neighbor outside [0, {n})")
            if v in nbrs:
                raise ValueError(f"loop at vertex {v}")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"parallel edge at vertex {v}")
            adj.append(tuple(nbrs))
        for v, nbrs in enumerate(adj):
            for u in nbrs:
                if v not in adj[u]:
                    raise ValueError(f"asymmetric adjacency: {v}->{u}")
        self.n = n
        self.name = name
        self._adj = tuple(adj)
        self._nbr_sets = None
        self._degrees = None
        self._matrix = None
        self._nbr_getters = None
        self._edge_index = None
        self._power_sets = {}
        if len(bfs_order(self, 0)) != n:
            raise ValueError("graph is not connected")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], name: str = "") -> "Graph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return cls(adj, name=name)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @property
    def neighbor_sets(self) -> tuple[frozenset, ...]:
        if self._nbr_sets is None:
            self._nbr_sets = tuple(frozenset(nbrs) for nbrs in self._adj)
        return self._nbr_sets

    def power_sets(self, k: int) -> tuple[frozenset, ...]:
        """Per vertex, the other vertices within distance k: the neighbour
        sets of G^k.  Built once per k from the table for k - 1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return self.neighbor_sets
        if k not in self._power_sets:
            prev = self.power_sets(k - 1)
            self._power_sets[k] = tuple(
                nbrs.union(*(prev[u] for u in nbrs)) - {v} for v, nbrs in enumerate(self.neighbor_sets)
            )
        return self._power_sets[k]

    @property
    def neighbor_getters(self) -> tuple[Callable[[Sequence], tuple], ...]:
        """Per vertex, a callable mapping a value array to the tuple of its
        neighbours' values, in adjacency order, in one C-level call."""
        if self._nbr_getters is None:
            self._nbr_getters = tuple(_values_getter(nbrs) for nbrs in self._adj)
        return self._nbr_getters

    @property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only index arrays of the lower and the upper endpoint of every
        edge, in `edges()` order."""
        if self._edge_index is None:
            ends = np.array(list(self.edges()), dtype=np.intp).reshape(-1, 2).T.copy()
            ends.flags.writeable = False
            self._edge_index = (ends[0], ends[1])
        return self._edge_index

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._degrees = tuple(len(nbrs) for nbrs in self._adj)
        return self._degrees

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, nbrs in enumerate(self._adj):
            for u in nbrs:
                if v < u:
                    yield (v, u)

    def is_regular(self) -> bool:
        degs = self.degrees
        return len(set(degs)) == 1

    def regular_degree(self) -> int:
        if not self.is_regular():
            raise ValueError(f"graph {self.name!r} is not regular; degrees {sorted(set(self.degrees))}")
        return self.degrees[0]

    def adjacency_matrix(self) -> np.ndarray:
        if self._matrix is None:
            a = np.zeros((self.n, self.n), dtype=np.float64)
            for v, nbrs in enumerate(self._adj):
                a[v, list(nbrs)] = 1.0
            self._matrix = a
        return self._matrix

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={self.m}{label})"


def _values_getter(idx: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """`operator.itemgetter(*idx)`, wrapped so that one index still gives a
    1-tuple (a bare itemgetter returns the scalar)."""
    if len(idx) == 1:
        (i,) = idx
        return lambda values: (values[i],)
    if not idx:
        return lambda values: ()
    return operator.itemgetter(*idx)


# ---------------------------------------------------------------------------
# Metric / boundary primitives
# ---------------------------------------------------------------------------

def bfs_order(g: Graph, start: int) -> list[int]:
    """Every vertex reachable from `start`, in breadth-first order."""
    order = [start]
    seen = bytearray(g.n)
    seen[start] = 1
    queue = deque([start])
    while queue:
        for u in g.neighbors(queue.popleft()):
            if not seen[u]:
                seen[u] = 1
                order.append(u)
                queue.append(u)
    return order


def bfs_distances(g: Graph, source: int, limit: int | None = None) -> list[int]:
    """Distances from `source`; -1 past `limit` when a limit is given."""
    if not (0 <= source < g.n):
        raise ValueError(f"invalid vertex id {source}")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if limit is not None and dist[v] >= limit:
            continue
        for u in g.neighbors(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def ball(g: Graph, center: int, radius: int) -> frozenset:
    """All vertices at graph distance <= radius from `center`."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    dist = bfs_distances(g, center, limit=radius)
    return frozenset(v for v, d in enumerate(dist) if 0 <= d <= radius)


def neighborhood(g: Graph, xs: Iterable[int]) -> frozenset:
    """N(X): vertices adjacent to some member of X (may intersect X)."""
    out: set[int] = set()
    for v in xs:
        out.update(g.neighbors(v))
    return frozenset(out)


def closure(g: Graph, xs: Iterable[int]) -> frozenset:
    xs = frozenset(xs)
    return xs | neighborhood(g, xs)


def outer_boundary(g: Graph, xs: Iterable[int]) -> frozenset:
    xs = frozenset(xs)
    return neighborhood(g, xs) - xs


def _linked_walk(power: Sequence[frozenset], ys: frozenset, v: int) -> frozenset:
    """The component of v in the graph on Y whose edges are the pairs of
    `power` (the neighbour sets of G^k) inside Y."""
    comp = {v}
    stack = [v]
    while stack:
        fresh = (power[stack.pop()] & ys) - comp
        comp |= fresh
        stack.extend(fresh)
    return frozenset(comp)


def linked_component_containing(g: Graph, ys: Iterable[int], k: int, v: int) -> frozenset:
    """The k-linked component of Y containing v (empty set when v not in Y)."""
    ys = frozenset(ys)
    return _linked_walk(g.power_sets(k), ys, v) if v in ys else frozenset()


def is_k_linked(g: Graph, xs: Iterable[int], k: int) -> bool:
    xs = frozenset(xs)
    if not xs:
        return True
    return len(linked_component_containing(g, xs, k, min(xs))) == len(xs)


def is_mutual_cover(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> bool:
    """True iff X is inside the closure of Y and Y is inside the closure of X."""
    xs, ys = frozenset(xs), frozenset(ys)
    return xs <= closure(g, ys) and ys <= closure(g, xs)


# ---------------------------------------------------------------------------
# Rooted connected-set enumeration
# ---------------------------------------------------------------------------

def iter_rooted_connected_sets(
    nbr_sets: Sequence[frozenset],
    root: int,
    budget: int = DEFAULT_NODE_BUDGET,
    max_size: int | None = None,
    prune=None,
):
    """Yield every connected vertex set containing `root` exactly once.

    `nbr_sets` is the adjacency of the (possibly powered) graph.  `prune(X)`
    returning True discards X and all of its supersets, so it must be
    monotone.  Each explored set counts one node against `budget`.
    """
    nodes = 0

    def rec(x: frozenset, banned: frozenset):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget, "connected-set enumeration")
        yield x
        if max_size is not None and len(x) >= max_size:
            return
        ext: set[int] = set()
        for v in x:
            ext.update(nbr_sets[v])
        ext -= x
        ext -= banned
        dead: set[int] = set()
        for c in sorted(ext):
            nx = x | {c}
            if prune is None or not prune(nx):
                yield from rec(nx, banned | frozenset(dead))
            dead.add(c)

    start = frozenset([root])
    if prune is not None and prune(start):
        return
    yield from rec(start, frozenset())


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GenerationError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GenerationError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, itertools.combinations(range(n), 2), name=f"K{n}")


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GenerationError(f"complete bipartite needs both sides >= 1, got ({a},{b})")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(a + b, edges, name=f"K{a},{b}")


def hypercube_graph(dim: int) -> Graph:
    if dim < 1:
        raise GenerationError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    edges = [(v, v ^ (1 << i)) for v in range(n) for i in range(dim) if v < v ^ (1 << i)]
    return Graph.from_edges(n, edges, name=f"Q{dim}")


def torus_graph(sides: Sequence[int]) -> Graph:
    """Product of cycles with the given side lengths (side 2 degenerates to K2 steps)."""
    sides = list(sides)
    if not sides or any(s < 2 for s in sides):
        raise GenerationError(f"torus needs all sides >= 2, got {sides}")
    n = 1
    for s in sides:
        n *= s
    strides = []
    acc = 1
    for s in reversed(sides):
        strides.append(acc)
        acc *= s
    strides.reverse()

    def vid(coords):
        return sum(c * st for c, st in zip(coords, strides))

    edges = set()
    for flat in range(n):
        coords = []
        rem = flat
        for st, s in zip(strides, sides):
            coords.append((rem // st) % s)
        for axis, s in enumerate(sides):
            for step in (1, -1):
                other = list(coords)
                other[axis] = (other[axis] + step) % s
                w = vid(other)
                if w != flat:
                    edges.add((min(flat, w), max(flat, w)))
    name = "T" + "x".join(str(s) for s in sides)
    return Graph.from_edges(n, sorted(edges), name=name)


def wired_tree_graph(levels: int, d: int) -> Graph:
    """d-regular tree with `levels` levels whose last-level leaves all join one apex vertex.

    The root has d children and internal vertices have d-1 children; the
    resulting graph is not regular, so degree-sensitive operations must check.
    """
    if levels < 1 or d < 2:
        raise GenerationError(f"wired tree needs levels >= 1 and d >= 2, got ({levels},{d})")
    edges = []
    level_nodes = [[0]]
    next_id = 1
    for lev in range(1, levels + 1):
        children_per = d if lev == 1 else d - 1
        cur = []
        for parent in level_nodes[-1]:
            for _ in range(children_per):
                edges.append((parent, next_id))
                cur.append(next_id)
                next_id += 1
        level_nodes.append(cur)
    apex = next_id
    for leaf in level_nodes[-1]:
        edges.append((leaf, apex))
    return Graph.from_edges(apex + 1, edges, name=f"WT{levels},{d}")


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes, name="Petersen")


def random_regular_graph(n: int, d: int, seed: int, retry_cap: int = 1000) -> Graph:
    """Random d-regular graph via the configuration model with rejection.

    Pairings with loops or parallel edges, and disconnected outcomes, are
    rejected and retried; deterministic for a fixed seed.
    """
    if n * d % 2 != 0:
        raise GenerationError(f"n*d must be even, got n={n}, d={d}")
    if not 0 < d < n:
        raise GenerationError(f"need 0 < d < n, got n={n}, d={d}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    attempts = 0
    while attempts < retry_cap:
        attempts += 1
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        try:
            return Graph.from_edges(n, sorted(edges), name=f"RR{n},{d}#{seed}")
        except ValueError:
            continue  # disconnected; retry
    raise GenerationError(
        f"configuration model failed after {attempts} attempts (n={n}, d={d}, seed={seed})",
        attempts=attempts,
    )


@dataclass(frozen=True)
class GenSpec:
    """Declarative request for a generated graph."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


_FAMILIES = {
    "cycle": lambda p, s: cycle_graph(p["n"]),
    "complete": lambda p, s: complete_graph(p["n"]),
    "complete-bipartite": lambda p, s: complete_bipartite_graph(p["a"], p["b"]),
    "hypercube": lambda p, s: hypercube_graph(p["dim"]),
    "torus": lambda p, s: torus_graph(p["sides"]),
    "random-regular": lambda p, s: random_regular_graph(p["n"], p["d"], s),
    "wired-tree": lambda p, s: wired_tree_graph(p["levels"], p["d"]),
    "petersen": lambda p, s: petersen_graph(),
}


def generate(spec: GenSpec) -> Graph:
    if spec.family not in _FAMILIES:
        raise GenerationError(f"unknown family {spec.family!r}; known: {sorted(_FAMILIES)}")
    if spec.family == "random-regular" and spec.seed is None:
        raise GenerationError("random-regular requires a seed")
    try:
        return _FAMILIES[spec.family](spec.params, spec.seed)
    except KeyError as exc:
        raise GenerationError(f"family {spec.family!r} missing parameter {exc}") from exc


# ---------------------------------------------------------------------------
# Edge-list file format: "n m" header, then "u v" per edge, '#' comments.
# ---------------------------------------------------------------------------

def load_edge_list(path) -> Graph:
    with open(path) as fh:
        rows = []
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append(line)
    if not rows:
        raise ValueError(f"{path}: empty edge-list file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"{path}: expected {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad edge line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u >= v:
            raise ValueError(f"{path}: edges must satisfy u < v, got {u} {v}")
        edges.append((u, v))
    return Graph.from_edges(n, edges, name=str(path))


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
