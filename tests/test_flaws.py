import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from liplab.experiments import _random_linked_set, _random_lipschitz, _random_lipschitz_rows
from liplab.flaws import (
    boundary_ordering,
    check_boundary_ordering,
    conditional_tail_profile,
    core_within_cluster_interior,
    flaw_decomposition,
    tail_hypotheses,
    tail_rows,
    tail_verdict,
    verify_ground_state_lemma,
)
from liplab.expanders import spectral_lambda
from liplab.graphs import (
    bfs_order,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    mask_vertices,
    random_regular_graph,
    vertex_mask,
)
from liplab.lipschitz import LipschitzFn, enumerate_groundstate, validate
from tests.conftest import (
    CountingGenerator,
    is_linked_nx,
    nx_distances,
    nx_power,
    path_graph,
    reference_ground_state_lemma,
    reference_random_lipschitz,
    set_neighborhood,
)


# ---------------------------------------------------------------------------
# Decomposition basics
# ---------------------------------------------------------------------------

def test_single_peak_on_c4(c4):
    f = LipschitzFn((0, 1, 2, 1), 1)
    dec = flaw_decomposition(c4, f, anchor=2, base=0)
    assert mask_vertices(dec.cluster) == [2]
    assert mask_vertices(dec.core) == []


def test_staircase_on_p5():
    p5 = path_graph(5)
    f = LipschitzFn((0, 1, 2, 3, 4), 1)
    dec = flaw_decomposition(p5, f, anchor=4, base=0)
    assert mask_vertices(dec.cluster) == [2, 3, 4]
    assert mask_vertices(dec.core) == [4]
    assert core_within_cluster_interior(dec, p5)
    core = set(mask_vertices(dec.core))
    assert core | set_neighborhood(p5, core) == {3, 4}


def test_core_whose_closure_leaves_the_cluster_is_reported():
    p5 = path_graph(5)
    dec = flaw_decomposition(p5, LipschitzFn((0, 1, 2, 3, 4), 1), anchor=4, base=0)
    assert not core_within_cluster_interior(replace(dec, cluster=vertex_mask({4})), p5)  # N(4) = {3}


def test_anchor_in_window_gives_empty_sets(c4):
    f = LipschitzFn((0, 1, 2, 1), 1)
    dec = flaw_decomposition(c4, f, anchor=0, base=0)
    assert mask_vertices(dec.cluster) == [] and mask_vertices(dec.core) == []


def test_core_subset_of_cluster_always(petersen):
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = _random_lipschitz(petersen, int(rng.integers(1, 4)), rng)
        anchor = int(rng.integers(0, petersen.n))
        base = int(f.values[anchor]) - 2 * f.M - 2 - int(rng.integers(0, 3))
        dec = flaw_decomposition(petersen, f, anchor, base)
        assert set(mask_vertices(dec.core)) <= set(mask_vertices(dec.cluster))


def test_shift_equivariance(petersen):
    rng = np.random.default_rng(4)
    f = _random_lipschitz(petersen, 2, rng)
    anchor = int(np.argmax(f.values))
    base = f.values[anchor] - 2 * f.M - 2
    dec = flaw_decomposition(petersen, f, anchor, base)
    shifted = LipschitzFn(tuple(v + 9 for v in f.values), f.M)
    dec_shift = flaw_decomposition(petersen, shifted, anchor, base + 9)
    assert dec.cluster == dec_shift.cluster
    assert dec.core == dec_shift.core


def test_core_empty_raises(c4):
    f = LipschitzFn((0, 1, 2, 1), 1)
    dec = flaw_decomposition(c4, f, anchor=2, base=0)
    with pytest.raises(ValueError, match="empty"):
        core_within_cluster_interior(dec, c4)


def test_core_closure_inside_cluster_fuzz():
    """Closure-of-core containment on sampled functions with nonempty core."""
    rng = np.random.default_rng(11)
    found = 0
    for seed in range(4):
        g = random_regular_graph(12, 3, seed=seed)
        power2, power4 = nx_power(g, 2), nx_power(g, 4)
        for _ in range(250):
            m = int(rng.integers(1, 4))
            f = _random_lipschitz(g, m, rng)
            anchor = int(rng.integers(0, g.n))
            base = f.values[anchor] - 2 * m - 2
            dec = flaw_decomposition(g, f, anchor, base)
            assert dec.core and anchor in mask_vertices(dec.core)
            assert core_within_cluster_interior(dec, g)
            assert is_linked_nx(power2, mask_vertices(dec.cluster))
            assert is_linked_nx(power4, mask_vertices(dec.core))
            found += 1
    assert found == 1000


# ---------------------------------------------------------------------------
# The random-function generator
# ---------------------------------------------------------------------------

def _generator_law(g, M):
    """The exact law of `reference_random_lipschitz`: a uniform root, then per
    completed walk the product of 1/width over its intervals, renormalised
    over the walks from that root that reach the end (a restart redraws)."""
    law = Counter()
    for root in range(g.n):
        order = bfs_order(g, root)
        ends = {}

        def walk(i, vals, p):
            if i == len(order):
                ends[tuple(vals)] = p
                return
            v = order[i]
            near = [vals[u] for u in g.neighbors(v) if vals[u] is not None]
            lo, hi = (max(near) - M, min(near) + M) if near else (-M, M)
            for x in range(lo, hi + 1):
                vals[v] = x
                walk(i + 1, vals, p / (hi - lo + 1))
            vals[v] = None

        walk(0, [None] * g.n, Fraction(1))
        total = sum(ends.values())
        for f, p in ends.items():
            law[f] += p / total / g.n
    return law


@pytest.mark.parametrize("graph", [cycle_graph(4), complete_graph(4), cycle_graph(5)], ids=lambda g: g.name)
def test_batched_generator_has_the_law_of_the_per_function_generator(graph):
    """Chi-square of 20,000 draws of each generator against the exact law of
    the per-function one, over its full support, at M = 1.  On C5 a walk can
    meet an empty interval, so the restarts are in the law too."""
    law = _generator_law(graph, 1)
    support = sorted(law)
    expected = np.array([float(law[f]) for f in support]) * 20_000
    batched = _random_lipschitz_rows(graph, np.ones(20_000, dtype=np.int64), np.random.default_rng(41))
    assert batched.dtype == np.int64 and batched.shape == (20_000, graph.n)
    lower, upper = graph.edge_index
    assert (np.abs(batched[:, lower] - batched[:, upper]) <= 1).all()
    rng = np.random.default_rng(42)
    reference = Counter(reference_random_lipschitz(graph, 1, rng).values for _ in range(20_000))
    for counts in (Counter(map(tuple, batched.tolist())), reference):
        assert set(counts) <= set(law)
        assert all(validate(graph, LipschitzFn(f, 1)) for f in counts)
        _, p = stats.chisquare([counts.get(f, 0) for f in support], expected)
        assert p > 0.001, p


def test_batched_generator_rows_each_have_their_own_M(petersen):
    ms = np.random.default_rng(5).integers(1, 4, size=500)
    vals = _random_lipschitz_rows(petersen, ms, np.random.default_rng(6))
    lower, upper = petersen.edge_index
    assert (np.abs(vals[:, lower] - vals[:, upper]).max(axis=1) <= ms).all()
    # every M is reached somewhere: some edge of some row is as steep as its M allows
    assert set(ms[np.abs(vals[:, lower] - vals[:, upper]).max(axis=1) == ms].tolist()) == {1, 2, 3}
    assert _random_lipschitz_rows(petersen, [], np.random.default_rng(6)).shape == (0, 10)


def test_batched_generator_draws_once_per_walk_position():
    # K4 has no dead end: one draw of the roots, then one per position for all 5,000 rows
    rng = CountingGenerator(np.random.default_rng(0))
    _random_lipschitz_rows(complete_graph(4), np.full(5_000, 2), rng)
    assert rng.calls == {"integers": 1 + 4}


# ---------------------------------------------------------------------------
# Ground-state existence
# ---------------------------------------------------------------------------

def test_ground_state_lemma_k6(k6):
    report = verify_ground_state_lemma(k6, 1, 1.0, 0)
    assert report["instances_checked"] == 63
    assert report["failures"] == []
    assert report["stats"]["max_flaw_ratio"] <= 1.0


def test_ground_state_lemma_random_regular():
    g = random_regular_graph(10, 3, seed=2)
    lam = spectral_lambda(g).lam
    report = verify_ground_state_lemma(g, 1, lam, 0)
    assert report["failures"] == []
    assert report["stats"]["max_flaw_ratio"] <= 1.0


def test_ground_state_lemma_flags_bogus_lambda(q3):
    # a tiny fake certificate must surface failures instead of erroring
    report = verify_ground_state_lemma(q3, 1, 0.01, 0)
    assert report["failures"]


_LEMMA_GRAPHS = {
    "K6": lambda: complete_graph(6),
    "C4": lambda: cycle_graph(4),
    "Q3": lambda: hypercube_graph(3),
    "RR10,3#1": lambda: random_regular_graph(10, 3, seed=1),
    "RR8,3#0": lambda: random_regular_graph(8, 3, seed=0),
    "RR12,3#3": lambda: random_regular_graph(12, 3, seed=3),
    "RR12,4#5": lambda: random_regular_graph(12, 4, seed=5),
}


@pytest.mark.parametrize("lam", [0, 0.01, "spectral"])
@pytest.mark.parametrize("name,M", [
    ("K6", 1), ("C4", 1), ("Q3", 1), ("RR10,3#1", 1),  # the suite graphs; RR(10,3) spans 3 batches
    ("K6", 2), ("C4", 2), ("Q3", 2),  # Q3 at M = 2: 15,329 members in 8 batches
    ("RR8,3#0", 1), ("RR8,3#0", 2), ("RR12,3#3", 1), ("RR12,4#5", 1),
])
def test_ground_state_lemma_matches_the_per_member_loop(name, M, lam):
    """The batched sweep against the loop over `LipschitzFn`s, field for
    field: the same failures in rank order, the same worst member, and a
    ratio equal as a float (0.0 or inf at lambda = 0)."""
    g = _LEMMA_GRAPHS[name]()
    if lam == "spectral":
        lam = spectral_lambda(g).lam
    report = verify_ground_state_lemma(g, M, lam, 0)
    expected = reference_ground_state_lemma(g, M, lam, 0)
    assert report == expected
    assert json.dumps(report) == json.dumps(expected)  # Python ints and floats, not numpy scalars
    if lam == 0:
        assert report["stats"]["max_flaw_ratio"] in (0.0, math.inf)


# ---------------------------------------------------------------------------
# Boundary ordering
# ---------------------------------------------------------------------------

def test_ordering_singleton(petersen):
    order = boundary_ordering(petersen, vertex_mask({0}))
    assert order[0] == 0
    assert order[1:] == sorted(petersen.neighbors(0))
    assert check_boundary_ordering(petersen, vertex_mask({0}), order)["ok"]


def test_ordering_pair(petersen):
    s = vertex_mask({0, 2})  # distance 2 on the outer cycle: 4-linked
    order = boundary_ordering(petersen, s)
    report = check_boundary_ordering(petersen, s, order)
    assert report["ok"]
    assert sorted(order[:2]) == mask_vertices(s)


def test_ordering_requires_room():
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="whole graph"):
        boundary_ordering(g, vertex_mask({0, 2}))  # closure covers all of C5


def test_ordering_requires_linkage():
    g = cycle_graph(12)
    with pytest.raises(ValueError, match="4-linked"):
        boundary_ordering(g, vertex_mask({0, 6}))


def test_ordering_fuzz():
    rng = np.random.default_rng(21)
    checked = 0
    for seed in range(5):
        g = random_regular_graph(14, 3, seed=seed)
        for _ in range(60):
            s = _random_linked_set(g, rng)
            members = mask_vertices(s)
            outside = set(range(g.n)) - set(members) - set_neighborhood(g, members)
            if not outside:
                continue
            order = boundary_ordering(g, s)
            assert check_boundary_ordering(g, s, order)["ok"]
            # the start is the member of S nearest the outside, smallest id first
            dist = {v: nx_distances(g, v) for v in members}
            assert order[0] == min(members, key=lambda v: (min(dist[v][u] for u in outside), v))
            checked += 1
    assert checked >= 200


def test_check_boundary_ordering_flags_each_violation():
    g = cycle_graph(30)
    report = check_boundary_ordering(g, vertex_mask({0, 1, 2, 3, 4}), [3, 2, 1, 0, 4, 29, 5])  # 3 is 3 steps from the outside
    assert not report["first_near_outside"] and not report["ok"]
    assert report["covers_closure"] and report["set_before_boundary"] and report["predecessor_within_4"]
    report = check_boundary_ordering(g, vertex_mask({0, 4, 8}), [0, 8, 4, 29, 1, 3, 5, 7, 9])  # 8 is 8 steps from 0
    assert not report["predecessor_within_4"] and not report["ok"]
    assert report["covers_closure"] and report["first_near_outside"] and report["set_before_boundary"]
    report = check_boundary_ordering(g, vertex_mask({0, 1, 2}), [0, 1, 29, 2, 3])  # boundary vertex 29 before 2
    assert not report["set_before_boundary"] and not report["ok"]
    assert report["covers_closure"] and report["first_near_outside"] and report["predecessor_within_4"]


@pytest.mark.parametrize("order", [[2, 1, 4], []])
def test_check_boundary_ordering_fails_an_ordering_that_misses_the_closure(order):
    # the closure of {2, 3} on C8 is {1, 2, 3, 4}
    report = check_boundary_ordering(cycle_graph(8), vertex_mask({2, 3}), order)
    assert report["covers_closure"] is False and report["ok"] is False


def test_faulty_ordering_is_a_failed_check_not_a_crash(monkeypatch):
    import liplab.experiments as experiments

    monkeypatch.setattr(experiments, "boundary_ordering", lambda g, s: boundary_ordering(g, s)[:-1])
    rows = [r for r in experiments.run_verify_suite(seed=0)["rows"]
            if r["check"] == "boundary-ordering" and r["status"] != "skipped"]  # K6 closes over every set
    assert rows and all(r["status"] == "fail" for r in rows)
    for row in rows:
        witness = row["witness"]
        assert witness["verdict"]["covers_closure"] is False and witness["verdict"]["ok"] is False
        assert witness["s"] == sorted(witness["s"]) and witness["order"]


# ---------------------------------------------------------------------------
# Exact tail profile
# ---------------------------------------------------------------------------

def test_tail_k6_zero_above_box(k6):
    (row,) = conditional_tail_profile(k6, 1, 1.0, 0, [2])
    assert row["ensemble_size"] == 106
    assert row["probability"] == 0.0  # no member exceeds 3 on K6
    assert row["bound"] == pytest.approx(2.0 ** (-6 / 5))
    assert row["holds"]


def test_tail_monotone_in_t(k6):
    rows = conditional_tail_profile(k6, 1, 1.0, 0, [1, 2, 3, 4])
    probs = [r["probability"] for r in rows]
    assert probs == sorted(probs, reverse=True)


def test_tail_verdict_reads_failures_and_monotonicity(petersen):
    def row(p, asserted=True, holds=True):
        return {"probability": p, "asserted": asserted, "holds": holds}

    assert tail_verdict([row(0.5), row(0.2), row(0.2)]) == {"asserted_violations": [], "monotone": True}
    bad = row(0.3, holds=False)
    assert tail_verdict([row(0.1), bad, row(0.4, asserted=False, holds=False)]) == {
        "asserted_violations": [bad], "monotone": False}
    # strictly falling exact rows on Petersen (0.134, 0.0039, 0.0)
    assert tail_verdict(conditional_tail_profile(petersen, 1, 1.0, 3, [0, 1, 2]))["monotone"]


def test_tail_probability_against_enumeration(k6):
    # recompute the t=1 tail by scanning the ensemble directly
    members = list(enumerate_groundstate(k6, 0, 1, 1.0))
    manual = sum(1 for f in members if f.values[0] > 2) / len(members)
    (row,) = conditional_tail_profile(k6, 1, 1.0, 0, [1])
    assert row["probability"] == manual
    assert not row["hypotheses"]["t >= 2"]
    assert not row["asserted"]


def test_tail_bound_formula(petersen):
    # the bound at t reads the ball of radius t - 1: 4 vertices at t = 2, all 10 at t = 3
    dists = nx_distances(petersen, 0)
    for t, row in zip((2, 3), tail_rows(petersen, 2, 1.0, 0, [2, 3], {0: 1}, 0, 1.0, 1.0)):
        ball_size = sum(0 <= d <= t - 1 for d in dists)
        assert row["ball_size"] == ball_size == (4, 10)[t - 2]
        assert row["bound"] == 2.0 ** (-ball_size / 10.0)


def test_hypothesis_gate_clauses():
    gate = tail_hypotheses(n=6, d=5, lam=1.0, M=1, t=2)
    assert gate["all_hold"]
    gate = tail_hypotheses(n=6, d=5, lam=2.0, M=1, t=2)
    assert not gate["clauses"]["lam <= d/5"]
    gate = tail_hypotheses(n=6, d=5, lam=1.0, M=50, t=2)
    assert not gate["all_hold"]


# ---------------------------------------------------------------------------
# The CLI's bytes
# ---------------------------------------------------------------------------

# sha256 of the outputs below, recorded with the frozenset decomposition.
# On T5x5 the cluster has 21 vertices and the core is [11, 12, 16].
FLAWS_STDOUT_SHA256 = "2058f15279dd1b8bfb1e7f58ab54bf48eccf598d73b3939a65bd9681295d6147"
# The range dump runs a Glauber chain: its digests are those of the samples of
# `conftest.reference_glauber` at the marks.
RANGE_DUMP_SHA256 = {"flaws.jsonl": "c09a5c4151c031befd2c7ea02df77c863e927453adde3cf81b29cbe1c3deda02",
                     "results.csv": "ebb8aa7a75dc2ec5b6cdcaee86bc3de753bc41fe78c1125d832dd66616468206"}


def test_cli_flaws_pinned(tmp_path, capsys):
    from liplab.cli import main

    path = tmp_path / "f.json"
    path.write_text(json.dumps({"M": 1, "values": [-1, 0, 0, 0, -1, 0, 1, 1, 0, -1, 1, 2, 2, 1, 0, 1, 2, 1, 1,
                                                   0, 0, 1, 1, 0, -1]}))
    assert main(["flaws", "--graph", '{"family":"torus","sides":[5,5]}', "--function", str(path),
                 "--anchor", "11", "--base", "-2"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FLAWS_STDOUT_SHA256


def test_range_experiment_flaw_dump_pinned(tmp_path, capsys):
    from liplab.cli import main

    path = tmp_path / "range.json"
    path.write_text(json.dumps({
        "schema": 1, "graph": {"family": "random-regular", "n": 30, "d": 3, "seed": 1}, "M": 2,
        "mode": {"kind": "one-point", "v0": 0}, "sampler": {"kind": "glauber", "burn_in": 3000, "thinning": 30},
        "samples": 40, "seed": 7, "dump_flaws": True}))
    assert main(["experiment", "range", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in RANGE_DUMP_SHA256}
    assert digests == RANGE_DUMP_SHA256
