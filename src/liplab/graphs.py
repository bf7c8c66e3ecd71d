"""Immutable simple graphs, standard generators, and neighborhood primitives.

Vertex ids are dense integers in [0, n).  A vertex set has two forms.  A
Python-int mask sets bit u when u is in the set: `vertex_mask` and
`mask_vertices` convert to and from id lists, and `Graph.neighbor_masks` and
`Graph.power_masks` give the adjacency of G and of its powers in that form.
Many sets at once are the rows of a `(sets, n)` boolean array: `mask_rows`
and `row_masks` convert to and from masks, and `Graph.neighbor_table` gives
the adjacency as one gather.  Each form has one breadth-first walk.
`linked_layers` walks masks: `ball` and the expander checks' distance shells
read its layers.  `layer_rows` walks rows: the flaw decomposition and the
boundary ordering read its layer numbers, and `grow_rows` gives the rows'
closures.
`bfs_order` walks single vertices; it fixes the frontier DP's vertex order.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, ConfigError, GenerationError

DEFAULT_NODE_BUDGET = 10_000_000
RANDOM_REGULAR_RETRY_CAP = 1000  # configuration-model pairings per graph


class Graph:
    """Simple undirected connected graph with adjacency lists by vertex id.

    Instances are immutable after construction; every query below is pure.
    Construction validates simplicity (no loops or parallel edges), symmetry,
    dense ids, and connectivity.
    """

    __slots__ = ("n", "name", "_adj", "_degrees", "_regular_degree", "_matrix", "_spectrum", "_nbr_getters",
                 "_edge_index", "_power_masks", "_nbr_table")

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
        self._degrees = degrees = tuple(map(len, adj))
        # the common degree, or None when the degrees differ
        self._regular_degree = degrees[0] if len(set(degrees)) == 1 else None
        self._matrix = None
        self._spectrum = None  # filled by `expanders.adjacency_spectrum`
        self._nbr_getters = None
        self._edge_index = None
        self._power_masks = {}
        self._nbr_table = None
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

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per vertex, its neighbour set as a mask."""
        if 1 not in self._power_masks:
            self._power_masks[1] = tuple(map(vertex_mask, self._adj))
        return self._power_masks[1]

    def power_masks(self, k: int) -> tuple[int, ...]:
        """Per vertex, the other vertices within distance k, as a mask: the
        neighbour masks of G^k.  Built once per k from the masks for k - 1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return self.neighbor_masks
        if k not in self._power_masks:
            prev = self.power_masks(k - 1)
            self._power_masks[k] = tuple(
                (nbr | _union(prev, nbr)) & ~(1 << v) for v, nbr in enumerate(self.neighbor_masks)
            )
        return self._power_masks[k]

    @property
    def neighbor_getters(self) -> tuple[Callable[[Sequence], tuple], ...]:
        """Per vertex, a callable mapping a value array to the tuple of its
        neighbours' values, in adjacency order, in one C-level call."""
        if self._nbr_getters is None:
            self._nbr_getters = tuple(_values_getter(nbrs) for nbrs in self._adj)
        return self._nbr_getters

    @property
    def neighbor_table(self) -> np.ndarray:
        """Read-only `(n, max degree)` index array of each vertex's neighbours,
        ascending, padded with the vertex itself.  For a boolean array `rows`
        of shape `(sets, n)`, `rows | rows[:, table].any(axis=2)` is every
        set's closure in one gather."""
        if self._nbr_table is None:
            width = max(self._degrees)
            table = np.array([nbrs + (v,) * (width - len(nbrs)) for v, nbrs in enumerate(self._adj)],
                             dtype=np.intp).reshape(self.n, width)
            table.flags.writeable = False
            self._nbr_table = table
        return self._nbr_table

    @property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only index arrays of the lower and the upper endpoint of every
        edge, in `edges()` order."""
        if self._edge_index is None:
            ends = np.array(list(self.edges()), dtype=np.intp).reshape(-1, 2).T.copy()
            ends.flags.writeable = False
            self._edge_index = (ends[0], ends[1])
        return self._edge_index

    @property
    def degrees(self) -> tuple[int, ...]:
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
        return self._regular_degree is not None

    def regular_degree(self) -> int:
        if self._regular_degree is None:
            raise ValueError(f"graph {self.name!r} is not regular; degrees {sorted(set(self.degrees))}")
        return self._regular_degree

    def adjacency_matrix(self) -> np.ndarray:
        if self._matrix is None:
            a = np.zeros((self.n, self.n), dtype=np.float64)
            lower, upper = self.edge_index
            a[lower, upper] = a[upper, lower] = 1.0
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
# Breadth-first search
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


# ---------------------------------------------------------------------------
# Vertex sets as masks and as boolean rows
# ---------------------------------------------------------------------------

def vertex_mask(xs: Iterable[int]) -> int:
    """The mask of a vertex set: bit u set when u is in the set."""
    m = 0
    for u in xs:
        m |= 1 << u
    return m


def mask_vertices(m: int) -> list[int]:
    """The vertices of a mask, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def mask_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """The masks as the rows of a `(len(masks), n)` boolean array: entry
    (i, u) is vertex u's membership in set i."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n, bitorder="little").view(bool)


def row_masks(rows: np.ndarray) -> list[int]:
    """The rows of a `(sets, n)` boolean array as masks: the inverse of
    `mask_rows`."""
    width = (rows.shape[1] + 7) // 8
    raw = np.packbits(rows, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def grow_rows(g: Graph, rows: np.ndarray, steps: int) -> np.ndarray:
    """Every row's set of the `(sets, n)` boolean array `rows` grown by
    `steps` closures through `Graph.neighbor_table`: the vertices within
    distance `steps` of it."""
    table = g.neighbor_table
    for _ in range(steps):
        rows = rows | rows[:, table].any(axis=2)
    return rows


def layer_rows(g: Graph, ys: np.ndarray, k: int, start: np.ndarray) -> np.ndarray:
    """Per row of the `(sets, n)` boolean arrays `ys` and `start`, every
    vertex's breadth-first layer in G^k restricted to the row's Y, out of
    the row's start vertices in Y, as a `(sets, n)` index array: 0 on those
    start vertices, t on the vertices first reached by the t-th layer, and
    n, more than any layer, on the vertices not reached.  The rows' layers
    grow together, each by k gathers, until no row has a new vertex.  From
    one vertex the reached vertices are its k-linked component in Y, as in
    `linked_layers`."""
    layers = np.full(ys.shape, g.n, dtype=np.intp)
    reached = layer = start & ys
    depth = 0
    while layer.any():
        layers[layer] = depth
        layer = grow_rows(g, layer, k) & ys & ~reached
        reached |= layer
        depth += 1
    return layers


def _union(masks: Sequence[int], m: int) -> int:
    """The union of `masks[u]` over the vertices u of the mask m."""
    out = 0
    while m:
        low = m & -m
        out |= masks[low.bit_length() - 1]
        m ^= low
    return out


def ball(g: Graph, center: int, radius: int) -> int:
    """The vertices at graph distance <= radius from `center`, as a mask."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if not (0 <= center < g.n):
        raise ValueError(f"invalid vertex id {center}")
    # the layers are disjoint, so their sum is their union
    return sum(itertools.islice(linked_layers(g, (1 << g.n) - 1, 1, 1 << center), radius + 1))


def linked_layers(g: Graph, ys: int, k: int, start: int) -> Iterator[int]:
    """The breadth-first layers, as disjoint masks, of the part of the mask Y
    linked in G^k to the mask `start`: `start` first, then each layer's G^k
    neighbours in Y not yet reached.  Nothing when `start` is not inside Y.
    From one vertex it walks a k-linked component; with k = 1 and Y = V, the
    t-th layer is the vertices at graph distance t from `start`."""
    if start & ~ys:
        return
    power = g.power_masks(k)
    reached = layer = start
    while layer:
        yield layer
        layer = _union(power, layer) & ys & ~reached
        reached |= layer


# ---------------------------------------------------------------------------
# Rooted connected-set enumeration
# ---------------------------------------------------------------------------

def iter_rooted_connected_sets(
    link_masks: Sequence[int],
    nbr_masks: Sequence[int],
    root: int,
    prune: Callable[[int, int], bool],
    budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[tuple[int, int]]:
    """Yield `(X, N(X))` once for every vertex set X containing `root` that is
    connected in the graph with adjacency masks `link_masks` (possibly a
    power of G); N(X) is taken in `nbr_masks`.  Both are masks.

    Preorder: X's children add one candidate each, ascending, and a child
    never adds an earlier sibling's candidate.  `prune(X, N(X))` returning
    True discards X and all of its supersets, so it must be monotone.  Each
    explored set counts one node against `budget`.  The walk keeps its own
    stack, so its depth is not bounded by the recursion limit.
    """
    start, start_nbhd = 1 << root, nbr_masks[root]
    if prune(start, start_nbhd):
        return
    # (X, N(X), members' link neighbours, banned candidates)
    stack = [(start, start_nbhd, link_masks[root], 0)]
    nodes = 0
    while stack:
        x, nbhd, reach, banned = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, budget, "connected-set enumeration")
        yield x, nbhd
        ext = reach & ~x & ~banned
        children = []
        for c in mask_vertices(ext):
            child, child_nbhd = x | 1 << c, nbhd | nbr_masks[c]
            if not prune(child, child_nbhd):
                children.append((child, child_nbhd, reach | link_masks[c], banned | ext & ((1 << c) - 1)))
        stack.extend(reversed(children))


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


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the configuration model with rejection.

    Pairings with loops or parallel edges, and disconnected outcomes, are
    rejected and retried, up to `RANDOM_REGULAR_RETRY_CAP` pairings;
    deterministic for a fixed seed.
    """
    if n * d % 2 != 0:
        raise GenerationError(f"n*d must be even, got n={n}, d={d}")
    if not 0 < d < n:
        raise GenerationError(f"need 0 < d < n, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    attempts = 0
    while attempts < RANDOM_REGULAR_RETRY_CAP:
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


def is_int(value) -> bool:
    """An integer parameter; JSON booleans are not integers here, though
    Python's `bool` subclasses `int`."""
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {"an integer": is_int,
          "a list of integers": lambda value: isinstance(value, list) and all(map(is_int, value))}

# family -> (generator, {parameter: its type in _TYPES}); the generator takes
# the parameters in this order
_FAMILIES = {
    "cycle": (cycle_graph, {"n": "an integer"}),
    "complete": (complete_graph, {"n": "an integer"}),
    "complete-bipartite": (complete_bipartite_graph, {"a": "an integer", "b": "an integer"}),
    "hypercube": (hypercube_graph, {"dim": "an integer"}),
    "torus": (torus_graph, {"sides": "a list of integers"}),
    "random-regular": (random_regular_graph, {"n": "an integer", "d": "an integer", "seed": "an integer"}),
    "wired-tree": (wired_tree_graph, {"levels": "an integer", "d": "an integer"}),
    "petersen": (petersen_graph, {}),
}


def check_graph_spec(spec: dict) -> None:
    """Refuse a generator spec `{"family": ..., <params>}` whose family is
    unknown, or that names a parameter the family does not take or gives one
    a value of the wrong type; a missing parameter is left to `generate`."""
    family = spec.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"unknown graph family {family!r}")
    types = _FAMILIES[family][1]
    extra = set(spec) - {"family"} - set(types)
    if extra:
        raise ConfigError(f"unknown graph keys for {family}: {sorted(extra)}")
    for key, kind in types.items():
        if key in spec and not _TYPES[kind](spec[key]):
            raise ConfigError(f"graph.{key} must be {kind}, got {spec[key]!r}")


def generate(spec: dict) -> Graph:
    """The graph a generator spec `{"family": ..., <params>}` names, the
    shape of a config's `graph` key.  A spec that `check_graph_spec` refuses
    is its `ConfigError`; a missing parameter is a `GenerationError`."""
    check_graph_spec(spec)
    family = spec["family"]
    if family == "random-regular" and "seed" not in spec:
        raise GenerationError("random-regular requires a seed")
    generator, types = _FAMILIES[family]
    try:
        return generator(*[spec[key] for key in types])
    except KeyError as exc:
        raise GenerationError(f"family {family!r} missing parameter {exc}") from exc


# ---------------------------------------------------------------------------
# Edge-list file format: "n m" header, then "u v" per edge, '#' comments.
# ---------------------------------------------------------------------------

def load_edge_list(path) -> Graph:
    """Read an edge-list file; a file that is not one, or whose edges make
    no valid graph, is a `ConfigError` that names the path."""
    with open(path) as fh:
        rows = []
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append(line)
    try:
        if not rows:
            raise ValueError("empty edge-list file")
        head = rows[0].split()
        if len(head) != 2:
            raise ValueError("header must be 'n m'")
        n, m = int(head[0]), int(head[1])
        if len(rows) - 1 != m:
            raise ValueError(f"expected {m} edges, found {len(rows) - 1}")
        edges = []
        for line in rows[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u >= v:
                raise ValueError(f"edges must satisfy u < v, got {u} {v}")
            edges.append((u, v))
        return Graph.from_edges(n, edges, name=str(path))
    except ValueError as exc:  # a malformed line, a non-integer field or an invalid graph
        raise ConfigError(f"{path}: {exc}") from exc


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
