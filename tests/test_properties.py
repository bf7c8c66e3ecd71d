"""Property tests of the mask primitives, the boundary ordering and the
adjacency spectrum against networkx on random connected graphs with at most
12 vertices, of the linked-set enumeration against `brute_linked_sets` on
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
from liplab.flaws import boundary_ordering, check_boundary_ordering, core_closure_escapes, decompose_rows
from liplab.graphs import (
    Graph,
    ball,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    is_k_linked,
    linked_layers,
    mask_vertices,
    neighborhood,
    random_regular_graph,
    vertex_mask,
)
from liplab.lipschitz import EnsembleSpec, LipschitzFn, _value_array, count_onepoint, enumerate_onepoint, flaw_cap
from tests.conftest import brute_members, is_mutual_cover, linked_component_containing, nx_power
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
def test_linked_component_and_is_k_linked_match_the_induced_power(graphs, k, data):
    g, nxg = graphs
    ys = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    v = data.draw(st.integers(0, g.n - 1))
    induced = nx.power(nxg, k).subgraph(ys)
    expected = nx.node_connected_component(induced, v) if v in ys else set()
    assert set(mask_vertices(linked_component_containing(g, vertex_mask(ys), k, v))) == expected
    assert is_k_linked(g, vertex_mask(ys), k) == (not ys or nx.is_connected(induced))


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
            got[name] = vertex_mask(expected)
        closure = got["core"] | neighborhood(g, got["core"])
        assert escapes[r] == bool(closure & ~got["cluster"])


@PROPERTY_SETTINGS
@given(connected_graphs(), st.data())
def test_boundary_operators_match_their_definitions(graphs, data):
    g, nxg = graphs
    xs = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    nbhd = {u for v in xs for u in nxg[v]}
    x = vertex_mask(xs)
    assert set(mask_vertices(neighborhood(g, x))) == nbhd
    assert set(mask_vertices(x | neighborhood(g, x))) == nbhd | xs  # closure
    assert set(mask_vertices(neighborhood(g, x) & ~x)) == nbhd - xs  # outer boundary


@PROPERTY_SETTINGS
@given(connected_graphs(), st.data())
def test_boundary_ordering_passes_its_check_on_4_linked_sets(graphs, data):
    g, nxg = graphs
    xs = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    xs = nx.node_connected_component(nx.power(nxg, 4).subgraph(xs), min(xs))  # 4-linked
    if len(xs | {u for v in xs for u in nxg[v]}) == g.n:
        return  # the closure leaves no outside to start from
    order = boundary_ordering(g, vertex_mask(xs))
    assert check_boundary_ordering(g, vertex_mask(xs), order)["ok"]


@PROPERTY_SETTINGS
@given(connected_graphs())
def test_adjacency_spectrum_matches_networkx(graphs):
    g, nxg = graphs
    expected = np.sort(nx.adjacency_spectrum(nxg).real)
    assert np.abs(adjacency_spectrum(g) - expected).max() <= 1e-9


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
