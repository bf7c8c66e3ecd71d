import numpy as np
import pytest

from liplab.flaws import (
    boundary_ordering,
    check_boundary_ordering,
    conditional_tail_profile,
    core_within_cluster_interior,
    flaw_decomposition,
    tail_bound,
    tail_hypotheses,
    tail_verdict,
    verify_ground_state_lemma,
)
from liplab.graphs import (
    ball,
    bfs_distances,
    bfs_order,
    closure,
    cycle_graph,
    is_k_linked,
    random_regular_graph,
)
from liplab.lipschitz import LipschitzFn, enumerate_groundstate, validate
from tests.conftest import path_graph


def random_lipschitz(g, M, rng):
    """Cheap Lipschitz function: breadth-first assignment within the allowed
    interval, restarting on dead ends (an assignment may fail to extend)."""
    order = bfs_order(g, int(rng.integers(0, g.n)))
    while True:
        vals = [0] * g.n
        assigned = set()
        ok = True
        for v in order:
            nbrs = [u for u in g.neighbors(v) if u in assigned]
            if nbrs:
                lo = max(vals[u] for u in nbrs) - M
                hi = min(vals[u] for u in nbrs) + M
            else:
                lo, hi = -M, M
            if lo > hi:
                ok = False
                break
            vals[v] = int(rng.integers(lo, hi + 1))
            assigned.add(v)
        if ok:
            return LipschitzFn(tuple(vals), M)


# ---------------------------------------------------------------------------
# Decomposition basics
# ---------------------------------------------------------------------------

def test_single_peak_on_c4(c4):
    f = LipschitzFn((0, 1, 2, 1), 1)
    dec = flaw_decomposition(c4, f, anchor=2, base=0)
    assert dec.cluster == frozenset({2})
    assert dec.core == frozenset()


def test_staircase_on_p5():
    p5 = path_graph(5)
    f = LipschitzFn((0, 1, 2, 3, 4), 1)
    dec = flaw_decomposition(p5, f, anchor=4, base=0)
    assert dec.cluster == frozenset({2, 3, 4})
    assert dec.core == frozenset({4})
    assert core_within_cluster_interior(dec, p5)
    assert closure(p5, dec.core) == frozenset({3, 4})


def test_anchor_in_window_gives_empty_sets(c4):
    f = LipschitzFn((0, 1, 2, 1), 1)
    dec = flaw_decomposition(c4, f, anchor=0, base=0)
    assert dec.cluster == frozenset() and dec.core == frozenset()


def test_core_subset_of_cluster_always(petersen):
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = random_lipschitz(petersen, int(rng.integers(1, 4)), rng)
        anchor = int(rng.integers(0, petersen.n))
        base = int(f.values[anchor]) - 2 * f.M - 2 - int(rng.integers(0, 3))
        dec = flaw_decomposition(petersen, f, anchor, base)
        assert dec.core <= dec.cluster


def test_shift_equivariance(petersen):
    rng = np.random.default_rng(4)
    f = random_lipschitz(petersen, 2, rng)
    anchor = int(np.argmax(f.values))
    base = f.values[anchor] - 2 * f.M - 2
    dec = flaw_decomposition(petersen, f, anchor, base)
    dec_shift = flaw_decomposition(petersen, f.shift(9), anchor, base + 9)
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
        for _ in range(250):
            m = int(rng.integers(1, 4))
            f = random_lipschitz(g, m, rng)
            anchor = int(rng.integers(0, g.n))
            base = f.values[anchor] - 2 * m - 2
            dec = flaw_decomposition(g, f, anchor, base)
            assert dec.core and anchor in dec.core
            assert core_within_cluster_interior(dec, g)
            assert is_k_linked(g, dec.cluster, 2)
            assert is_k_linked(g, dec.core, 4)
            found += 1
    assert found == 1000


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
    from liplab.expanders import spectral_lambda

    lam = spectral_lambda(g).lam
    report = verify_ground_state_lemma(g, 1, lam, 0)
    assert report["failures"] == []
    assert report["stats"]["max_flaw_ratio"] <= 1.0


def test_ground_state_lemma_flags_bogus_lambda(q3):
    # a tiny fake certificate must surface failures instead of erroring
    report = verify_ground_state_lemma(q3, 1, 0.01, 0)
    assert report["failures"]


# ---------------------------------------------------------------------------
# Boundary ordering
# ---------------------------------------------------------------------------

def test_ordering_singleton(petersen):
    order = boundary_ordering(petersen, {0})
    assert order[0] == 0
    assert order[1:] == sorted(petersen.neighbors(0))
    assert check_boundary_ordering(petersen, {0}, order)["ok"]


def test_ordering_pair(petersen):
    s = frozenset({0, 2})  # distance 2 on the outer cycle: 4-linked
    order = boundary_ordering(petersen, s)
    report = check_boundary_ordering(petersen, s, order)
    assert report["ok"]
    assert set(order[:2]) == s


def test_ordering_requires_room():
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="whole graph"):
        boundary_ordering(g, {0, 2})  # closure covers all of C5


def test_ordering_requires_linkage():
    g = cycle_graph(12)
    with pytest.raises(ValueError, match="4-linked"):
        boundary_ordering(g, {0, 6})


def test_ordering_fuzz():
    rng = np.random.default_rng(21)
    checked = 0
    for seed in range(5):
        g = random_regular_graph(14, 3, seed=seed)
        for _ in range(60):
            # grow a random 4-linked set
            s = {int(rng.integers(0, g.n))}
            for _ in range(int(rng.integers(0, 3))):
                candidates = [u for u in range(g.n) if u not in s]
                rng.shuffle(candidates)
                for u in candidates:
                    if is_k_linked(g, s | {u}, 4):
                        s.add(u)
                        break
            outside = frozenset(range(g.n)) - closure(g, s)
            if not outside:
                continue
            order = boundary_ordering(g, s)
            assert check_boundary_ordering(g, s, order)["ok"]
            # the start is the member of S nearest the outside, smallest id first
            assert order[0] == min(s, key=lambda v: (min(bfs_distances(g, v)[u] for u in outside), v))
            checked += 1
    assert checked >= 200


def test_check_boundary_ordering_flags_each_violation():
    g = cycle_graph(30)
    report = check_boundary_ordering(g, {0, 1, 2, 3, 4}, [3, 2, 1, 0, 4, 29, 5])  # 3 is 3 steps from the outside
    assert not report["first_near_outside"] and not report["ok"]
    assert report["covers_closure"] and report["set_before_boundary"] and report["predecessor_within_4"]
    report = check_boundary_ordering(g, {0, 4, 8}, [0, 8, 4, 29, 1, 3, 5, 7, 9])  # 8 is 8 steps from 0
    assert not report["predecessor_within_4"] and not report["ok"]
    assert report["covers_closure"] and report["first_near_outside"] and report["set_before_boundary"]


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
    assert tail_bound(petersen, 0, 3, 2) == 2.0 ** (-len(ball(petersen, 0, 2)) / 10.0)


def test_hypothesis_gate_clauses():
    gate = tail_hypotheses(n=6, d=5, lam=1.0, M=1, t=2)
    assert gate["all_hold"]
    gate = tail_hypotheses(n=6, d=5, lam=2.0, M=1, t=2)
    assert not gate["clauses"]["lam <= d/5"]
    gate = tail_hypotheses(n=6, d=5, lam=1.0, M=50, t=2)
    assert not gate["all_hold"]
