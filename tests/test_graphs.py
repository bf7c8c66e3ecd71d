import itertools
import math
import re

import numpy as np
import pytest

import liplab.graphs as graphs
from liplab.errors import BudgetExceededError, ConfigError, GenerationError
from liplab.graphs import (
    Graph,
    ball,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate,
    grow_rows,
    hypercube_graph,
    iter_rooted_connected_sets,
    linked_layers,
    load_edge_list,
    mask_rows,
    mask_vertices,
    random_regular_graph,
    save_edge_list,
    torus_graph,
    vertex_mask,
    wired_tree_graph,
)
from tests.conftest import (
    is_linked_nx,
    is_mutual_cover,
    linked_component_containing,
    nx_distances,
    nx_power,
    path_graph,
    set_neighborhood,
)


# ---------------------------------------------------------------------------
# Construction and invariants
# ---------------------------------------------------------------------------

def test_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(2, [(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(2, [(0, 1), (1, 0)])


def test_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        Graph.from_edges(4, [(0, 1), (2, 3)])


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph([(1,), ()])


@pytest.mark.parametrize(
    "g",
    [path_graph(5), complete_graph(2), cycle_graph(6), random_regular_graph(12, 3, seed=3), Graph([[]])],
    ids=lambda g: g.name or "K1",
)
def test_neighbor_getters_and_edge_index(g):
    values = [10 * v + 7 for v in range(g.n)]
    getters = g.neighbor_getters
    assert getters is g.neighbor_getters  # cached
    for v in range(g.n):
        got = getters[v](values)
        assert isinstance(got, tuple)  # also for degree-1 and isolated vertices
        assert got == tuple(values[u] for u in g.neighbors(v))
    lower, upper = g.edge_index
    assert list(zip(lower.tolist(), upper.tolist())) == list(g.edges())
    assert lower.dtype == np.intp and not lower.flags.writeable


@pytest.mark.parametrize(
    "g_builder",
    [
        lambda: cycle_graph(7),
        lambda: complete_graph(5),
        lambda: complete_bipartite_graph(2, 4),
        lambda: hypercube_graph(4),
        lambda: torus_graph([3, 4]),
        lambda: wired_tree_graph(2, 3),
        lambda: random_regular_graph(12, 3, seed=5),
    ],
)
def test_generated_graph_invariants(g_builder):
    g = g_builder()
    # handshake
    assert sum(g.degrees) == 2 * g.m
    # symmetry
    for v in range(g.n):
        for u in g.neighbors(v):
            assert v in g.neighbors(u)
    # sorted, loop-free adjacency
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert list(nbrs) == sorted(set(nbrs))
        assert v not in nbrs


def test_cycle4_degrees():
    g = cycle_graph(4)
    assert g.n == 4
    assert all(d == 2 for d in g.degrees)


def test_hypercube3_shape():
    g = hypercube_graph(3)
    assert g.n == 8
    assert g.regular_degree() == 3


def test_random_regular_deterministic():
    a = random_regular_graph(10, 3, seed=7)
    b = random_regular_graph(10, 3, seed=7)
    assert list(a.edges()) == list(b.edges())
    assert a.regular_degree() == 3


def test_random_regular_rejects_odd_product():
    with pytest.raises(GenerationError):
        random_regular_graph(5, 3, seed=1)


def test_random_regular_retry_cap_reports_attempts(monkeypatch):
    monkeypatch.setattr(graphs, "RANDOM_REGULAR_RETRY_CAP", 0)
    with pytest.raises(GenerationError) as info:
        random_regular_graph(10, 3, seed=1)
    assert info.value.attempts == 0
    assert "attempts" in str(info.value)


def test_wired_tree_structure():
    g = wired_tree_graph(2, 3)
    # root + 3 + 6 leaves + apex
    assert g.n == 11
    assert g.degrees[0] == 3
    assert g.degrees[g.n - 1] == 6  # apex joins all 6 leaves
    assert not g.is_regular()
    with pytest.raises(ValueError):
        g.regular_degree()


def test_generate_dispatch():
    g = generate({"family": "hypercube", "dim": 3})
    assert g.n == 8
    with pytest.raises(GenerationError, match="^random-regular requires a seed$"):
        generate({"family": "random-regular", "n": 10, "d": 3})
    with pytest.raises(GenerationError, match="^family 'cycle' missing parameter 'n'$"):
        generate({"family": "cycle"})
    # the family and parameter types that configs are checked against
    for spec, message in [({"family": "moebius"}, "unknown graph family 'moebius'"),
                          ({"family": "torus", "sides": 5}, "graph.sides must be a list of integers, got 5"),
                          ({"family": "hypercube", "dim": True}, "graph.dim must be an integer, got True"),
                          ({"family": "cycle", "n": 5.0}, "graph.n must be an integer, got 5.0")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            generate(spec)


# ---------------------------------------------------------------------------
# Balls and boundaries
# ---------------------------------------------------------------------------

def test_ball_radius_zero(c5):
    assert mask_vertices(ball(c5, 2, 0)) == [2]


def test_ball_radius_one(c5):
    assert mask_vertices(ball(c5, 0, 1)) == [0, 1, 4]


def test_ball_covers_q3(q3):
    assert mask_vertices(ball(q3, 0, 3)) == list(range(8))


def test_ball_nested(petersen):
    for t in range(3):
        assert set(mask_vertices(ball(petersen, 0, t))) <= set(mask_vertices(ball(petersen, 0, t + 1)))


def test_ball_refuses_a_centre_off_the_graph_and_a_negative_radius(c5):
    for center in (5, -1):
        with pytest.raises(ValueError, match=f"invalid vertex id {center}"):
            ball(c5, center, 1)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        ball(c5, 0, -1)


def test_linked_layers_need_the_start_inside_y():
    p4 = path_graph(4)
    ys = vertex_mask({0, 1, 2})
    assert list(linked_layers(p4, ys, 1, vertex_mask({3}))) == []
    assert list(linked_layers(p4, ys, 1, vertex_mask({2, 3}))) == []
    assert list(linked_layers(p4, ys, 1, 0)) == []
    assert [mask_vertices(layer) for layer in linked_layers(p4, ys, 1, vertex_mask({0, 2}))] == [[0, 2], [1]]


def test_boundary_singleton(c5):
    x = mask_rows([vertex_mask({0})], c5.n)
    closure = grow_rows(c5, x, 1)[0]
    assert sorted(set_neighborhood(c5, {0})) == [1, 4]
    assert np.flatnonzero(closure & ~x[0]).tolist() == [1, 4]  # outer boundary
    assert np.flatnonzero(closure).tolist() == [0, 1, 4]  # closure


def test_boundary_full_set(c5):
    full = np.ones((1, c5.n), dtype=bool)
    assert np.flatnonzero(grow_rows(c5, full, 1)[0] & ~full[0]).tolist() == []  # outer boundary


def test_boundary_bipartite_side():
    g = complete_bipartite_graph(3, 3)
    x = mask_rows([vertex_mask({0, 1, 2})], g.n)
    assert sorted(set_neighborhood(g, {0, 1, 2})) == [3, 4, 5]
    assert np.flatnonzero(grow_rows(g, x, 1)[0] & ~x[0]).tolist() == [3, 4, 5]  # outer boundary


# ---------------------------------------------------------------------------
# Linkage and powers
# ---------------------------------------------------------------------------

def test_k_linked_path_split():
    p4 = path_graph(4)
    ys = vertex_mask({0, 2})
    assert mask_vertices(linked_component_containing(p4, ys, 1, 0)) == [0]
    assert mask_vertices(linked_component_containing(p4, ys, 1, 2)) == [2]
    assert mask_vertices(linked_component_containing(p4, ys, 2, 2)) == [0, 2]
    assert mask_vertices(linked_component_containing(p4, ys, 2, 1)) == []
    assert mask_vertices(linked_component_containing(p4, vertex_mask(()), 1, 0)) == []


def test_k_linked_partitions_and_separation():
    g = random_regular_graph(14, 3, seed=11)
    rng = np.random.default_rng(5)
    for _ in range(30):
        ys = frozenset(int(v) for v in rng.choice(g.n, size=7, replace=False))
        for k in (1, 2, 4):
            comps = {frozenset(mask_vertices(linked_component_containing(g, vertex_mask(ys), k, v))) for v in ys}
            merged = set()
            for comp in comps:
                assert not (merged & comp)
                merged |= comp
            assert merged == set(ys)
            # distinct components sit at distance > k
            for a, b in itertools.combinations(comps, 2):
                for v in a:
                    dist = nx_distances(g, v)
                    assert all(dist[u] > k for u in b)


def test_graph_power_c4_is_k4(c4):
    assert [mask_vertices(m) for m in c4.power_masks(2)] == [sorted(set(range(4)) - {v}) for v in range(4)]


def test_graph_power_identity(petersen):
    assert petersen.power_masks(1) is petersen.neighbor_masks


def test_graph_power_path():
    assert sum(m.bit_count() for m in path_graph(4).power_masks(3)) == 2 * 6


# ---------------------------------------------------------------------------
# Rooted connected-set counting
# ---------------------------------------------------------------------------

def rooted_connected_count(g, root, m, **kwargs):
    """Connected m-vertex sets containing `root`, counted through the enumeration."""
    sets = iter_rooted_connected_sets(g.neighbor_masks, g.neighbor_masks, root,
                                      prune=lambda x, nbhd: x.bit_count() > m, **kwargs)
    return sum(1 for x, _ in sets if x.bit_count() == m)


def brute_rooted_connected_count(g, root, m):
    """Oracle: scan all m-subsets containing root, test induced connectivity
    with networkx."""
    power = nx_power(g, 1)
    count = 0
    others = [v for v in range(g.n) if v != root]
    for extra in itertools.combinations(others, m - 1):
        xs = frozenset((root,) + extra)
        if is_linked_nx(power, xs):
            count += 1
    return count


def test_rooted_count_p3_middle():
    assert rooted_connected_count(path_graph(3), 1, 2) == 2


def test_rooted_count_m1(petersen):
    assert rooted_connected_count(petersen, 4, 1) == 1


def test_rooted_count_c5_oracle(c5):
    assert rooted_connected_count(c5, 0, 3) == 3
    assert brute_rooted_connected_count(c5, 0, 3) == 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rooted_count_matches_oracle_and_tree_bound(seed):
    g = random_regular_graph(10, 3, seed=seed)
    maxdeg = max(g.degrees)
    for m in range(1, 5):
        got = rooted_connected_count(g, 0, m)
        assert got == brute_rooted_connected_count(g, 0, m)
        assert got <= (math.e * maxdeg) ** (m - 1) + 1e-9


def test_rooted_count_budget():
    g = complete_graph(9)
    with pytest.raises(BudgetExceededError):
        rooted_connected_count(g, 0, 9, budget=10)


# ---------------------------------------------------------------------------
# Mutual covers
# ---------------------------------------------------------------------------

def test_mutual_cover_self(c5):
    assert is_mutual_cover(c5, vertex_mask({0}), vertex_mask({0}))


def test_mutual_cover_adjacent(c5):
    assert is_mutual_cover(c5, vertex_mask({0}), vertex_mask({1}))


def test_mutual_cover_distance3():
    g = cycle_graph(7)
    assert not is_mutual_cover(g, vertex_mask({0}), vertex_mask({3}))


def test_mutual_cover_linkage_transfer():
    # a mutual cover of a k-linked set is (k+2)-linked
    rng = np.random.default_rng(9)
    for seed in range(8):
        g = random_regular_graph(12, 3, seed=seed)
        powers = {k: nx_power(g, k) for k in (1, 2, 3, 4)}
        for _ in range(20):
            size = int(rng.integers(1, 5))
            xs = set(int(v) for v in rng.choice(g.n, size=size, replace=False))
            # cover X by one random neighbor per vertex; Y is then mutually covering
            ys = set()
            for v in xs:
                nbrs = g.neighbors(v)
                ys.add(int(nbrs[rng.integers(0, len(nbrs))]))
            if not is_mutual_cover(g, vertex_mask(xs), vertex_mask(ys)):
                continue
            for k in (1, 2):
                if is_linked_nx(powers[k], xs):
                    assert is_linked_nx(powers[k + 2], ys)


# ---------------------------------------------------------------------------
# Edge-list files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,message", [
    ("", "empty edge-list file"),
    ("# only a comment\n3\n", "header must be 'n m'"),
    ("3 2\n0 1\n", "expected 2 edges, found 1"),
    ("3 1\n0 1 2\n", "bad edge line '0 1 2'"),
    ("2 1\n0 y\n", "invalid literal for int() with base 10: 'y'"),
    ("3 1\n0 5\n", "edge (0,5) out of range"),
    ("3 2\n0 1\n0 1\n", "duplicate edge (0,1)"),
    ("3 1\n0 1\n", "graph is not connected"),
], ids=["empty", "header", "edge-count", "edge-line", "edge-field", "out-of-range", "duplicate", "disconnected"])
def test_cli_refuses_a_malformed_edge_list(text, message, tmp_path, capsys):
    from liplab.cli import main

    path = tmp_path / "g.edges"
    path.write_text(text)
    assert main(["spectrum", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    with pytest.raises(ConfigError):
        load_edge_list(path)


def test_edge_list_roundtrip(tmp_path, petersen):
    path = tmp_path / "pet.edges"
    save_edge_list(petersen, path)
    g = load_edge_list(path)
    assert g.n == petersen.n
    assert list(g.edges()) == list(petersen.edges())


def test_edge_list_comments_and_validation(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# tiny triangle\n3 3\n0 1\n0 2  # chord\n1 2\n")
    g = load_edge_list(path)
    assert g.n == 3 and g.m == 3
    bad = tmp_path / "bad.edges"
    bad.write_text("3 2\n0 1\n1 1\n")
    with pytest.raises(ValueError):
        load_edge_list(bad)
    disc = tmp_path / "disc.edges"
    disc.write_text("4 2\n0 1\n2 3\n")
    with pytest.raises(ValueError, match="connected"):
        load_edge_list(disc)
