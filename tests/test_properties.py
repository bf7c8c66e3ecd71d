"""Property tests of the graph primitives against networkx on random connected
graphs with at most 12 vertices, and of the one-point count and enumeration
against brute forces on those with at most 7.  Examples are derandomized, so
the suite stays deterministic."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab.expanders import diameter
from liplab.graphs import (
    Graph,
    closure,
    is_k_linked,
    linked_component_containing,
    neighborhood,
    outer_boundary,
)
from liplab.lipschitz import EnsembleSpec, LipschitzFn, count_onepoint, enumerate_onepoint
from tests.conftest import brute_members

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
            assert linked_component_containing(g, ys, k, v) == comp


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(1, 4))
def test_graph_power_matches_networkx(graphs, k):
    g, nxg = graphs
    power = nx.power(nxg, k)
    assert [set(s) for s in g.power_sets(k)] == [set(power[v]) for v in range(g.n)]


@PROPERTY_SETTINGS
@given(connected_graphs())
def test_diameter_matches_networkx(graphs):
    g, nxg = graphs
    assert diameter(g) == nx.diameter(nxg)


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(1, 4))
def test_power_sets_match_networkx_balls(graphs, k):
    g, nxg = graphs
    expected = [set(nx.single_source_shortest_path_length(nxg, v, cutoff=k)) - {v} for v in range(g.n)]
    assert [set(s) for s in g.power_sets(k)] == expected
    assert all(isinstance(s, frozenset) for s in g.power_sets(k))


@PROPERTY_SETTINGS
@given(connected_graphs(), st.integers(1, 4), st.data())
def test_linked_component_and_is_k_linked_match_the_induced_power(graphs, k, data):
    g, nxg = graphs
    ys = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    v = data.draw(st.integers(0, g.n - 1))
    induced = nx.power(nxg, k).subgraph(ys)
    expected = frozenset(nx.node_connected_component(induced, v)) if v in ys else frozenset()
    assert linked_component_containing(g, ys, k, v) == expected
    assert is_k_linked(g, ys, k) == (not ys or nx.is_connected(induced))


@PROPERTY_SETTINGS
@given(connected_graphs(), st.data())
def test_boundary_operators_match_their_definitions(graphs, data):
    g, nxg = graphs
    xs = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    nbhd = {u for v in xs for u in nxg[v]}
    assert neighborhood(g, xs) == nbhd
    assert closure(g, xs) == nbhd | xs
    assert outer_boundary(g, xs) == nbhd - xs


def brute_count_over_box(nxg, v0, M):
    """The f with f(v0) = 0 and |f(v)| <= M*dist(v, v0) (networkx distances)
    that move by at most M along every edge, counted vertex by vertex; a
    partial assignment that already breaks an edge is not extended."""
    dist = nx.single_source_shortest_path_length(nxg, v0)
    n = len(dist)
    earlier = [[u for u in nxg[v] if u < v] for v in range(n)]
    vals = [0] * n

    def extend(v):
        if v == n:
            return 1
        total = 0
        for x in range(-M * dist[v], M * dist[v] + 1):
            if all(abs(x - vals[u]) <= M for u in earlier[v]):
                vals[v] = x
                total += extend(v + 1)
        return total

    return extend(0)


@PROPERTY_SETTINGS
@given(connected_graphs(max_n=7), st.integers(0, 2), st.data())
def test_count_onepoint_matches_brute_force_over_the_box(graphs, M, data):
    g, nxg = graphs
    v0 = data.draw(st.integers(0, g.n - 1))
    assert count_onepoint(g, v0, M).count == brute_count_over_box(nxg, v0, M)


@PROPERTY_SETTINGS
@given(connected_graphs(max_n=7), st.integers(0, 2), st.data())
def test_enumerate_onepoint_matches_brute_force_in_order(graphs, M, data):
    g, nxg = graphs
    v0 = data.draw(st.integers(0, g.n - 1))
    expected = [LipschitzFn(values, M) for values in brute_members(nxg, EnsembleSpec("one-point", M=M, v0=v0))]
    assert list(enumerate_onepoint(g, v0, M)) == expected
