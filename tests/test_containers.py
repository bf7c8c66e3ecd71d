import itertools

import numpy as np
import pytest

from liplab.containers import (
    ApproxPair,
    build_container_family,
    build_mutual_cover,
    check_pair_size_bound,
    count_report_csv,
    cover_size_bound,
    enumerate_linked_sets,
    family_to_json_lines,
    linked_set_count_report,
    refine_to_approx_pair,
    validate_approx_pair,
)
from liplab.errors import BudgetExceededError
from liplab.expanders import asserted_profile, exhaustive_lambda, spectral_lambda
from liplab.graphs import (
    complete_graph,
    cycle_graph,
    is_k_linked,
    is_mutual_cover,
    neighborhood,
    petersen_graph,
    random_regular_graph,
)


def brute_linked_sets(g, v, boundary_size, k):
    """Oracle: scan every subset containing v."""
    out = []
    rest = [u for u in range(g.n) if u != v]
    for r in range(g.n):
        for extra in itertools.combinations(rest, r):
            xs = frozenset((v,) + extra)
            if is_k_linked(g, xs, k) and len(neighborhood(g, xs)) == boundary_size:
                out.append(xs)
    return sorted(out, key=sorted)


# ---------------------------------------------------------------------------
# Linked-set enumeration
# ---------------------------------------------------------------------------

def test_c5_singleton(c5):
    assert enumerate_linked_sets(c5, 0, 2, 1) == [frozenset({0})]


def test_c5_matches_bruteforce(c5):
    for gsize in range(1, 6):
        got = sorted(enumerate_linked_sets(c5, 0, gsize, 1), key=sorted)
        assert got == brute_linked_sets(c5, 0, gsize, 1)


def test_petersen_matches_bruteforce(petersen):
    for k in (1, 4):
        for gsize in (3, 5, 7):
            got = sorted(enumerate_linked_sets(petersen, 0, gsize, k), key=sorted)
            assert got == brute_linked_sets(petersen, 0, gsize, k)


def test_oversized_boundary_empty(c5):
    assert enumerate_linked_sets(c5, 0, 6, 1) == []


def test_enumeration_budget(petersen):
    with pytest.raises(BudgetExceededError):
        enumerate_linked_sets(petersen, 0, 10, 4, budget=20)


# ---------------------------------------------------------------------------
# Mutual covers
# ---------------------------------------------------------------------------

def test_cover_singleton(k6):
    prof = spectral_lambda(k6)
    res = build_mutual_cover(k6, {0}, prof, seed=1)
    assert is_mutual_cover(k6, {0}, res.members)
    assert res.members <= neighborhood(k6, {0})


def test_cover_fuzz_properties():
    rng = np.random.default_rng(2)
    for seed in range(5):
        g = random_regular_graph(12, 4, seed=seed)
        prof = spectral_lambda(g)
        for trial in range(20):
            size = int(rng.integers(1, 6))
            xs = frozenset(int(u) for u in rng.choice(g.n, size=size, replace=False))
            res = build_mutual_cover(g, xs, prof, seed=trial)
            assert is_mutual_cover(g, xs, res.members)
            assert res.members <= neighborhood(g, xs)


def test_cover_linkage_transfer(petersen):
    prof = exhaustive_lambda(petersen)
    for xs in enumerate_linked_sets(petersen, 0, 6, 2):
        res = build_mutual_cover(petersen, xs, prof, seed=5)
        assert is_k_linked(petersen, res.members, 4)


def test_cover_bound_evaluated(k6):
    prof = spectral_lambda(k6)  # lam = 1, d = 5
    res = build_mutual_cover(k6, {0, 1}, prof, seed=9)
    expected = 7.0 * np.log2(4.0 / np.sqrt(5.0)) / 5.0 * len(neighborhood(k6, {0, 1}))
    assert res.size_bound == pytest.approx(expected)
    assert cover_size_bound(5, 1.0, 6) == pytest.approx(expected)


def test_cover_deterministic(petersen):
    prof = exhaustive_lambda(petersen)
    a = build_mutual_cover(petersen, {0, 1, 5}, prof, seed=7)
    b = build_mutual_cover(petersen, {0, 1, 5}, prof, seed=7)
    assert a.members == b.members and a.attempts == b.attempts


def eager_stream_cover(g, x, profile, seed, retry_cap):
    """Oracle: the cover construction with all retry_cap seed streams spawned
    up front by SeedSequence(seed).spawn(retry_cap)."""
    d, lam = profile.d, profile.lam
    q = neighborhood(g, x)
    nbr = g.neighbor_sets
    ell = (4.0 * lam / np.sqrt(d)) ** 4
    pool = sorted(u for u in q if len(nbr[u] & x) < ell)
    p = min(1.0, max(0.0, np.log(ell) / d)) if ell > 1.0 else 0.0
    bound = cover_size_bound(d, lam, len(q))
    best, attempts = None, 0
    for stream in np.random.SeedSequence(seed).spawn(retry_cap):
        attempts += 1
        rng = np.random.default_rng(stream)
        y = set()
        if pool and p > 0:
            keep = rng.random(len(pool)) < p
            y = set(u for u, take in zip(pool, keep) if take)
        covered = set(y)
        for u in y:
            covered.update(nbr[u])
        cover = set(y)
        for u in sorted(x):
            if u not in covered:
                w = min(nbr[u])
                cover.add(w)
                covered.add(w)
                covered.update(nbr[w])
        if best is None or len(cover) < len(best):
            best = frozenset(cover)
        if len(cover) <= bound + 1e-9:
            best = frozenset(cover)
            break
    return best, attempts


def test_cover_retry_streams_match_eager_spawn():
    # An asserted lam with 4*lam/sqrt(d) = 1.1 samples the boundary at rate
    # ~0.13 against a bound of ~0.32 |N(X)|, so most attempts miss the bound.
    g = random_regular_graph(18, 3, seed=1)
    prof = asserted_profile(g, 1.1 * np.sqrt(3) / 4)
    multi = 0
    for xs in ({0, 1}, {0, 2, 5}, {1, 3, 7, 9}):
        for seed in range(4):
            for cap in (5, 64):
                res = build_mutual_cover(g, xs, prof, seed=seed, retry_cap=cap)
                assert (res.members, res.attempts) == eager_stream_cover(g, frozenset(xs), prof, seed, cap)
                multi += res.attempts > 1
    assert multi >= 12
    # covers chosen when every stream was spawned up front
    picks = [sorted(build_mutual_cover(g, {0, 1}, prof, seed=s).members) for s in range(3)]
    assert picks == [[5, 8], [2, 11], [2, 5]]
    res = build_mutual_cover(g, {1, 3, 7, 9}, prof, seed=2)
    assert (sorted(res.members), res.attempts, res.met_bound) == ([0, 5, 15], 2, True)


# ---------------------------------------------------------------------------
# Approximating pairs
# ---------------------------------------------------------------------------

def test_trivial_pair_validates(petersen):
    # (X, N(X)) is always a valid pair
    xs = frozenset({0, 1})
    pair = ApproxPair(s=xs, f=neighborhood(petersen, xs), psi=1.0)
    assert validate_approx_pair(petersen, pair, xs)["ok"]


def test_refine_singleton(k6):
    prof = spectral_lambda(k6)
    cover = build_mutual_cover(k6, {0}, prof, seed=0)
    pair, stats = refine_to_approx_pair(k6, cover.members, {0}, psi=1.0)
    assert 0 in pair.s
    assert validate_approx_pair(k6, pair, {0})["ok"]
    assert stats.h_size <= stats.h_bound and stats.u_size <= stats.u_bound


def test_refine_psi_range(k6):
    prof = spectral_lambda(k6)
    cover = build_mutual_cover(k6, {0}, prof, seed=0)
    with pytest.raises(ValueError, match="psi"):
        refine_to_approx_pair(k6, cover.members, {0}, psi=4.0)  # > d/2


def test_refine_rejects_non_cover(k6):
    with pytest.raises(ValueError, match="cover"):
        refine_to_approx_pair(k6, frozenset(), {0}, psi=1.0)


def test_refine_fuzz_greedy_bounds():
    rng = np.random.default_rng(13)
    for seed in range(4):
        g = random_regular_graph(10, 3, seed=seed)
        prof = spectral_lambda(g)
        d = g.regular_degree()
        for trial in range(25):
            size = int(rng.integers(1, 4))
            xs = frozenset(int(u) for u in rng.choice(g.n, size=size, replace=False))
            gsize = len(neighborhood(g, xs))
            cover = build_mutual_cover(g, xs, prof, seed=trial)
            for psi in (1.0, d / 2.0):
                pair, stats = refine_to_approx_pair(g, cover.members, xs, psi)
                assert validate_approx_pair(g, pair, xs)["ok"]
                assert stats.h_size <= gsize / psi + 1e-9
                assert stats.u_size <= 2 * gsize / psi + 1e-9


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def test_family_covering_c5(c5):
    prof = exhaustive_lambda(c5)
    for gsize in range(1, 6):
        for k in (1, 4):
            fam = build_container_family(c5, 0, gsize, k, 1.0, prof, seed=3)
            assert fam.covers_all
            assert fam.n_sets == len(enumerate_linked_sets(c5, 0, gsize, k))
            if fam.n_sets == 0:
                assert fam.pairs == ()


def test_family_every_set_has_member(petersen):
    prof = exhaustive_lambda(petersen)
    fam = build_container_family(petersen, 0, 6, 4, 1.0, prof, seed=3)
    sets = enumerate_linked_sets(petersen, 0, 6, 4)
    for xs in sets:
        assert any(validate_approx_pair(petersen, p, xs)["ok"] for p in fam.pairs)


def test_rejected_pairs_are_a_failed_check_not_a_crash(monkeypatch, capsys):
    import liplab.containers as containers
    from liplab.cli import main
    from liplab.experiments import run_verify_suite

    monkeypatch.setattr(containers, "validate_approx_pair", lambda g, pair, x: {"ok": False})
    petersen = petersen_graph()
    fam = build_container_family(petersen, 0, 8, 4, 1.0, exhaustive_lambda(petersen), seed=3)
    assert fam.n_sets == 78 and not fam.covers_all
    code = main(["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "8",
                 "--linkage", "4", "--lambda-source", "exhaustive"])
    assert code == 1
    assert '"covers_all": false' in capsys.readouterr().out
    suite = run_verify_suite(graphs=[petersen])
    (row,) = [r for r in suite["rows"] if r["check"] == "container-covering"]
    assert row["status"] == "fail"
    assert row["witness"] == {"k": 1, "boundary_size": 3}
    assert row["repro"].endswith("--graph <Petersen>  # check=container-covering graph=Petersen")


def test_family_json_lines(c5):
    prof = exhaustive_lambda(c5)
    fam = build_container_family(c5, 0, 4, 1, 1.0, prof, seed=3)
    lines = family_to_json_lines(fam)
    assert len(lines) == len(fam.pairs)
    import json

    row = json.loads(lines[0])
    assert set(row) == {"S", "F", "psi"}


# ---------------------------------------------------------------------------
# Size bound and count report
# ---------------------------------------------------------------------------

def test_size_bound_skip_on_large_f(k6):
    prof = spectral_lambda(k6)
    pair = ApproxPair(s=frozenset({0}), f=neighborhood(k6, {0}), psi=1.0)
    # d(1-5/6) - 1 < 0 on K6
    assert check_pair_size_bound(pair, prof)["status"] == "skipped"


def test_size_bound_empty_pair(k6):
    # with no F, only an empty S can satisfy the degree conditions
    prof = spectral_lambda(k6)
    report = check_pair_size_bound(ApproxPair(s=frozenset(), f=frozenset(), psi=1.0), prof)
    assert report["status"] == "pass"
    assert report["rhs"] == 0


def test_size_bound_passes_on_small_f():
    g = random_regular_graph(14, 3, seed=8)
    prof = spectral_lambda(g)
    cover = build_mutual_cover(g, {0}, prof, seed=0)
    pair, _ = refine_to_approx_pair(g, cover.members, {0}, psi=1.0)
    report = check_pair_size_bound(pair, prof)
    assert report["status"] in ("pass", "skipped")
    if report["status"] == "pass":
        assert report["lhs"] <= report["rhs"] + 1e-9


def test_count_report_c5(c5):
    prof = exhaustive_lambda(c5)
    rows = [linked_set_count_report(len(enumerate_linked_sets(c5, 0, gsize, 1)), gsize, 1, prof)
            for gsize in range(1, 6)]
    # d=2, n=5: in range means 2 <= g <= 2.5
    assert [r["status"] for r in rows] == ["skipped", "pass", "skipped", "skipped", "skipped"]
    assert rows[1]["count"] == 1
    csv_text = count_report_csv(rows)
    assert csv_text.splitlines()[0] == "g,count,bound_naive,bound_lemma,empirical_constant,status"
    assert len(csv_text.splitlines()) == 6


def test_count_report_within_naive_bound(petersen):
    prof = exhaustive_lambda(petersen)
    for gsize in (3, 4, 5):
        row = linked_set_count_report(len(enumerate_linked_sets(petersen, 0, gsize, 4)), gsize, 4, prof)
        assert row["status"] == "pass"
        assert row["count"] <= row["bound_naive"]
