"""Property tests of the mask primitives, the boundary ordering, the
adjacency matrix and spectrum against networkx on random connected graphs with at most
12 vertices (and of the row walk and of the boundary orderings, batched and
one-row, against networkx references on those and on C12), of the
linked-set enumeration against `brute_linked_sets` on
those with at most 9, of the frontier DP's layer arrays against
`reference_sweep` on those with at most 9 (and on small regular graphs in
ground-state mode), and of the one-point count and enumeration against
`brute_members` on those with at most 7.  Examples are derandomized, so the
suite stays deterministic."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab.containers import enumerate_linked_sets
from liplab.expanders import adjacency_spectrum
from liplab.experiments import _random_linked_set
from liplab.flaws import (
    boundary_ordering,
    boundary_orderings,
    check_boundary_ordering,
    check_boundary_orderings,
    core_closure_escapes,
    decompose_rows,
    ordering_verdict,
)
from liplab.graphs import (
    Graph,
    ball,
    complete_graph,
    cycle_graph,
    grow_rows,
    hypercube_graph,
    layer_rows,
    linked_layers,
    mask_rows,
    mask_vertices,
    random_regular_graph,
    vertex_mask,
)
from liplab.lipschitz import EnsembleSpec, LipschitzFn, _value_array, count_onepoint, enumerate_onepoint, flaw_cap
from tests.conftest import (
    brute_members,
    is_linked_nx,
    is_mutual_cover,
    linked_component_containing,
    neighborhood_mask,
    nx_power,
    reference_boundary_ordering,
    reference_ordering_verdict,
    set_neighborhood,
)
from tests.test_containers import brute_linked_sets, vertex_sets
from tests.test_lipschitz import assert_sweep_matches_reference

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def connected_graphs(draw, max_n=12):
    """A random spanning tree plus random extra edges, as (liplab, networkx) graphs."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    edges = sorted(edges)
    return Graph.from_edges(n, edges), nx.Graph(edges) if edges else nx.empty_graph(1)


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(1, 4), st.data())
def test_k_linked_components_match_the_induced_power(graphs, k, data):
    g, nxg = graphs
    ys = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    for comp in nx.connected_components(nx.power(nxg, k).subgraph(ys)):
        for v in comp:
            assert set(mask_vertices(linked_component_containing(g, vertex_mask(ys), k, v))) == comp


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(1, 4))
def test_graph_power_matches_networkx(graphs, k):
    g, nxg = graphs
    power = nx.power(nxg, k)
    assert list(g.power_masks(k)) == [vertex_mask(power[v]) for v in range(g.n)]


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(1, 4))
def test_power_masks_match_networkx_balls(graphs, k):
    g, nxg = graphs
    expected = [set(nx.single_source_shortest_path_length(nxg, v, cutoff=k)) - {v} for v in range(g.n)]
    assert [set(mask_vertices(m)) for m in g.power_masks(k)] == expected


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(0, 4), st.data())
def test_ball_matches_networkx(graphs, radius, data):
    g, nxg = graphs
    v = data.draw(st.integers(0, g.n - 1))
    assert mask_vertices(ball(g, v, radius)) == sorted(nx.single_source_shortest_path_length(nxg, v, cutoff=radius))


@PROPERTY_SETTINGS
@given(connected_graphs(), st.data())
def test_linked_layers_from_a_set_are_its_distance_shells(graphs, data):
    g, nxg = graphs
    start = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    dist = nx.multi_source_dijkstra_path_length(nxg, start)
    layers = list(linked_layers(g, (1 << g.n) - 1, 1, vertex_mask(start)))
    assert [layer.bit_count() for layer in layers] == np.bincount(list(dist.values())).tolist()
    assert [mask_vertices(layer) for layer in layers] == [
        sorted(v for v, t in dist.items() if t == r) for r in range(len(layers))]


@PROPERTY_SETTINGS
@given(connected_graphs(), st.data())
def test_masks_round_trip_and_match_the_set_operators(graphs, data):
    g, nxg = graphs
    xs = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    ys = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    assert mask_vertices(vertex_mask(xs)) == sorted(xs)
    nbhd_x, nbhd_y = ({u for v in zs for u in nxg[v]} for zs in (xs, ys))
    mutual = xs <= ys | nbhd_y and ys <= xs | nbhd_x
    assert is_mutual_cover(g, vertex_mask(xs), vertex_mask(ys)) == mutual


@PROPERTY_SETTINGS
@given(connected_graphs(max_n=9), st.data())
def test_enumerate_linked_sets_matches_brute_force(graphs, data):
    g, _ = graphs
    v = data.draw(st.integers(0, g.n - 1))
    for k in (1, 2, 3):
        for boundary_size in range(g.n + 1):
            got = sorted(vertex_sets(enumerate_linked_sets(g, v, boundary_size, k)), key=sorted)
            assert got == brute_linked_sets(g, v, boundary_size, k)


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(1, 4), st.data())
def test_linked_component_and_linkage_match_the_induced_power(graphs, k, data):
    g, nxg = graphs
    ys = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    v = data.draw(st.integers(0, g.n - 1))
    induced = nx.power(nxg, k).subgraph(ys)
    expected = nx.node_connected_component(induced, v) if v in ys else set()
    assert set(mask_vertices(linked_component_containing(g, vertex_mask(ys), k, v))) == expected
    y = vertex_mask(ys)  # Y is k-linked iff the walk from one of its vertices reaches all of it
    assert (not y or sum(linked_layers(g, y, k, y & -y)) == y) == (not ys or nx.is_connected(induced))


@PROPERTY_SETTINGS
@given(st.one_of(st.just((cycle_graph(12), nx.cycle_graph(12))), connected_graphs()), st.data())
def test_layer_rows_match_the_distances_in_the_induced_power(graphs, data):
    """Every row's layers against networkx's distances in G^k restricted to
    the row's Y, for k = 1, 2 and 4, from one start vertex inside or outside
    Y (outside, no vertex is reached); the rows are walked as one batch."""
    g, nxg = graphs
    n_rows = data.draw(st.integers(1, 5))
    ys = [data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n)) for _ in range(n_rows)]
    starts = data.draw(st.lists(st.integers(0, g.n - 1), min_size=n_rows, max_size=n_rows))
    start = np.zeros((n_rows, g.n), dtype=bool)
    start[np.arange(n_rows), starts] = True
    for k in (1, 2, 4):
        layers = layer_rows(g, mask_rows([vertex_mask(y) for y in ys], g.n), k, start)
        power = nx.power(nxg, k)
        for row, y, v in zip(layers.tolist(), ys, starts):
            dist = nx.single_source_shortest_path_length(power.subgraph(y), v) if v in y else {}
            assert row == [dist.get(u, g.n) for u in range(g.n)], k


@PROPERTY_SETTINGS
@given(connected_graphs(), st.sampled_from([0, -5, 1 << 70]), st.data())
def test_batched_flaw_decomposition_matches_the_mask_walk(graphs, shift, data):
    """Every row's cluster and core against `linked_component_containing` and
    the G^2 / G^4 components by networkx, and the closure test against the
    mask closure, on random value rows (not only Lipschitz ones) with their
    own anchors, bases and M.  The shift 2^70 puts the values in an object
    array."""
    g, nxg = graphs
    n_rows = data.draw(st.integers(1, 5))
    values = data.draw(st.lists(st.integers(-4, 4), min_size=n_rows * g.n, max_size=n_rows * g.n))
    vals = _value_array([v + shift for v in values], g.n)
    assert (vals.dtype == object) == (shift == 1 << 70)
    anchors = data.draw(st.lists(st.integers(0, g.n - 1), min_size=n_rows, max_size=n_rows))
    bases = [b + shift for b in data.draw(st.lists(st.integers(-8, 2), min_size=n_rows, max_size=n_rows))]
    ms = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_rows, max_size=n_rows)))
    cluster, core = decompose_rows(g, vals, ms, anchors, np.array(bases, dtype=vals.dtype))
    assert cluster.shape == core.shape == (n_rows, g.n) and cluster.dtype == core.dtype == bool
    escapes = core_closure_escapes(g, cluster, core)
    powers = {k: nx_power(g, k) for k in (2, 4)}
    for r, (row, anchor, base, m) in enumerate(zip(vals.tolist(), anchors, bases, ms.tolist())):
        got = {}
        for name, k, threshold, rows in (("cluster", 2, base + m + 1, cluster), ("core", 4, base + 2 * m + 2, core)):
            above = {v for v in range(g.n) if row[v] >= threshold}
            expected = nx.node_connected_component(powers[k].subgraph(above), anchor) if anchor in above else set()
            assert linked_component_containing(g, vertex_mask(above), k, anchor) == vertex_mask(expected)
            assert set(np.flatnonzero(rows[r]).tolist()) == expected, name
            got[name] = expected
        closure = got["core"] | set_neighborhood(g, got["core"])
        assert escapes[r] == bool(closure - got["cluster"])


@PROPERTY_SETTINGS
@given(connected_graphs(), st.data())
def test_boundary_operators_match_their_definitions(graphs, data):
    g, nxg = graphs
    xs = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    nbhd = {u for v in xs for u in nxg[v]}
    x = mask_rows([vertex_mask(xs)], g.n)
    closure = grow_rows(g, x, 1)[0]
    assert set_neighborhood(g, xs) == nbhd
    assert set(np.flatnonzero(closure).tolist()) == nbhd | xs  # closure
    assert set(np.flatnonzero(closure & ~x[0]).tolist()) == nbhd - xs  # outer boundary
    within_2 = {u for v in xs for u, d in nx.single_source_shortest_path_length(nxg, v, cutoff=2).items()}
    assert set(np.flatnonzero(grow_rows(g, x, 2)[0]).tolist()) == within_2


@PROPERTY_SETTINGS
@given(connected_graphs(), st.data())
def test_boundary_ordering_passes_its_check_on_4_linked_sets(graphs, data):
    g, nxg = graphs
    xs = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    xs = nx.node_connected_component(nx.power(nxg, 4).subgraph(xs), min(xs))  # 4-linked
    if len(xs | {u for v in xs for u in nxg[v]}) == g.n:
        return  # the closure leaves no outside to start from
    order = boundary_ordering(g, vertex_mask(xs))
    assert order == reference_boundary_ordering(g, xs)
    assert check_boundary_ordering(g, vertex_mask(xs), order)["ok"]


def search_linked_set(g, power, rng):
    """`_random_linked_set` with a networkx linkage search in `power` (G^4)
    for each candidate in place of the distance-4 mask test."""
    s = 1 << int(rng.integers(0, g.n))
    for _ in range(int(rng.integers(0, 3))):
        cands = [u for u in range(g.n) if not s >> u & 1]
        rng.shuffle(cands)
        for u in cands:
            if is_linked_nx(power, mask_vertices(s | 1 << u)):
                s |= 1 << u
                break
    return s


def ordering_mutants(g, s, order):
    """An ordering of the closure of S with a first vertex more than 2 steps
    from the outside (None when every closure vertex is within 2), one with
    its first outer-boundary vertex moved in front of the last vertex of S,
    and one without its last vertex."""
    outside = ((1 << g.n) - 1) & ~(s | neighborhood_mask(g, s))
    far = [v for v in order if not (1 << v | g.power_masks(2)[v]) & outside]
    k = s.bit_count()
    return [[far[0]] + [v for v in order if v != far[0]] if far else None,
            order[:k - 1] + [order[k], order[k - 1]] + order[k + 1:],
            order[:-1]]


def padded(orders, n):
    return np.array([order + [-1] * (n - len(order)) for order in orders], dtype=np.intp).reshape(-1, n)


@PROPERTY_SETTINGS
@given(st.one_of(st.just((cycle_graph(12), nx.cycle_graph(12))), connected_graphs()), st.integers(0, 2**32 - 1))
def test_boundary_orderings_match_the_one_row_forms(graphs, seed):
    """The fuzz's sets against the search's, and the orderings and verdicts
    of the batch and of `boundary_ordering` and `check_boundary_ordering`
    against the networkx references, on every kept case and on three
    mutants of each ordering."""
    g, _ = graphs
    rng, search_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    masks = [_random_linked_set(g, rng) for _ in range(40)]
    power = nx_power(g, 4)
    assert masks == [search_linked_set(g, power, search_rng) for _ in range(40)]
    kept = [s for s in masks if (s | neighborhood_mask(g, s)).bit_count() < g.n]
    if not kept:
        return
    sets = mask_rows(kept, g.n)
    orders = boundary_orderings(g, sets)
    verdicts = check_boundary_orderings(g, sets, orders)
    expected = [reference_boundary_ordering(g, mask_vertices(s)) for s in kept]
    assert orders.tolist() == padded(expected, g.n).tolist()
    for i, (s, order) in enumerate(zip(kept, expected)):
        assert boundary_ordering(g, s) == order
        assert (ordering_verdict(verdicts, i) == check_boundary_ordering(g, s, order)
                == reference_ordering_verdict(g, mask_vertices(s), order))
    assert verdicts["ok"].all()

    mutants = [(s, mutant, prop) for s, order in zip(kept, expected)
               for mutant, prop in zip(ordering_mutants(g, s, order),
                                       ("first_near_outside", "set_before_boundary", "covers_closure"))
               if mutant is not None]
    verdicts = check_boundary_orderings(g, mask_rows([s for s, _, _ in mutants], g.n),
                                        padded([mutant for _, mutant, _ in mutants], g.n))
    for i, (s, mutant, prop) in enumerate(mutants):
        assert (ordering_verdict(verdicts, i) == check_boundary_ordering(g, s, mutant)
                == reference_ordering_verdict(g, mask_vertices(s), mutant))
        assert not verdicts[prop][i] and not verdicts["ok"][i]


@PROPERTY_SETTINGS
@given(connected_graphs())
def test_adjacency_spectrum_matches_networkx(graphs):
    g, nxg = graphs
    expected = np.sort(nx.adjacency_spectrum(nxg).real)
    assert np.abs(adjacency_spectrum(g) - expected).max() <= 1e-9


@PROPERTY_SETTINGS
@given(connected_graphs())
def test_adjacency_matrix_matches_networkx(graphs):
    g, nxg = graphs
    a = g.adjacency_matrix()
    assert a.dtype == np.float64
    assert np.array_equal(a, nx.to_numpy_array(nxg, nodelist=range(g.n), dtype=np.float64))


@st.composite
def regular_graphs(draw):
    """A cycle, complete graph, hypercube or random 3-regular graph with 2 to
    10 vertices."""
    family = draw(st.sampled_from(["cycle", "complete", "hypercube", "random-regular"]))
    if family == "cycle":
        return cycle_graph(draw(st.integers(3, 10)))
    if family == "complete":
        return complete_graph(draw(st.integers(2, 7)))
    if family == "hypercube":
        return hypercube_graph(draw(st.integers(1, 3)))
    return random_regular_graph(draw(st.sampled_from([4, 6, 8, 10])), 3, seed=draw(st.integers(0, 99)))


@PROPERTY_SETTINGS
@given(connected_graphs(max_n=9), regular_graphs(), st.integers(0, 3), st.data())
def test_frontier_sweep_matches_the_loop_reference(graphs, regular, M, data):
    # both ways: every layer's arrays and the transitions charged, or the budget error
    g, _ = graphs
    v0 = data.draw(st.integers(0, g.n - 1))
    assert_sweep_matches_reference(g, EnsembleSpec("one-point", M=M, v0=v0), 20_000)
    # the flaw allowance divides by the degree, so K1 has no ground-state ensemble
    for h in (g, regular) if g.is_regular() and g.n > 1 else (regular,):
        lam = data.draw(st.sampled_from([0, 0.5, 1.0, 1.5]))
        if flaw_cap(h.n, h.regular_degree(), lam) < h.n:
            spec = EnsembleSpec("ground-state", M=M, k=data.draw(st.integers(-3, 3)), lam=lam)
            assert_sweep_matches_reference(h, spec, 20_000, start=data.draw(st.integers(0, h.n - 1)))


@PROPERTY_SETTINGS
@given(connected_graphs(max_n=7), st.integers(0, 2), st.data())
def test_count_onepoint_matches_brute_force_over_the_box(graphs, M, data):
    g, nxg = graphs
    v0 = data.draw(st.integers(0, g.n - 1))
    spec = EnsembleSpec("one-point", M=M, v0=v0)
    assert count_onepoint(g, v0, M).count == sum(1 for _ in brute_members(nxg, spec))


@PROPERTY_SETTINGS
@given(connected_graphs(max_n=7), st.integers(0, 2), st.data())
def test_enumerate_onepoint_matches_brute_force_in_order(graphs, M, data):
    g, nxg = graphs
    v0 = data.draw(st.integers(0, g.n - 1))
    expected = [LipschitzFn(values, M) for values in brute_members(nxg, EnsembleSpec("one-point", M=M, v0=v0))]
    assert list(enumerate_onepoint(g, v0, M)) == expected
