import hashlib
import itertools
import sys

import numpy as np
import pytest

import liplab.containers as containers
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
from liplab.expanders import ExpanderProfile, asserted_profile, exhaustive_lambda, spectral_lambda
from liplab.graphs import (
    complete_graph,
    cycle_graph,
    is_k_linked,
    is_mutual_cover,
    mask_vertices,
    petersen_graph,
    random_regular_graph,
    vertex_mask,
)
from tests.conftest import is_linked_nx, nx_power, set_neighborhood


def brute_linked_sets(g, v, boundary_size, k):
    """Oracle: scan every subset containing v, with frozenset N(X) and
    networkx linkage."""
    power = nx_power(g, k)
    out = []
    rest = [u for u in range(g.n) if u != v]
    for r in range(g.n):
        for extra in itertools.combinations(rest, r):
            xs = frozenset((v,) + extra)
            if len(set_neighborhood(g, xs)) == boundary_size and is_linked_nx(power, xs):
                out.append(xs)
    return sorted(out, key=sorted)


def vertex_sets(masks):
    """The masks the pipeline returns, as the frozensets the oracles use."""
    return [frozenset(mask_vertices(m)) for m in masks]


# ---------------------------------------------------------------------------
# Linked-set enumeration
# ---------------------------------------------------------------------------

def test_c5_singleton(c5):
    assert vertex_sets(enumerate_linked_sets(c5, 0, 2, 1)) == [frozenset({0})]


def test_c5_matches_bruteforce(c5):
    for gsize in range(1, 6):
        got = sorted(vertex_sets(enumerate_linked_sets(c5, 0, gsize, 1)), key=sorted)
        assert got == brute_linked_sets(c5, 0, gsize, 1)


def test_petersen_matches_bruteforce(petersen):
    for k in (1, 4):
        for gsize in (3, 5, 7):
            got = sorted(vertex_sets(enumerate_linked_sets(petersen, 0, gsize, k)), key=sorted)
            assert got == brute_linked_sets(petersen, 0, gsize, k)


def test_oversized_boundary_empty(c5):
    assert enumerate_linked_sets(c5, 0, 6, 1) == []


def test_enumeration_budget(petersen):
    with pytest.raises(BudgetExceededError, match="connected-set enumeration"):
        enumerate_linked_sets(petersen, 0, 10, 4, budget=20)


def test_enumeration_walks_paths_longer_than_the_recursion_limit():
    # On C1500, |N(X)| = 1100 picks out the paths of 1,098 vertices, and
    # those through 0 are its 1,098 arcs starting at -1097, ..., 0.
    sets = enumerate_linked_sets(cycle_graph(1500), 0, 1100, 1)
    assert len(sets) == 1098 > sys.getrecursionlimit()
    assert set(sets) == {vertex_mask((a + i) % 1500 for i in range(1098)) for a in range(-1097, 1)}


# ---------------------------------------------------------------------------
# Mutual covers
# ---------------------------------------------------------------------------

def test_cover_singleton(k6):
    prof = spectral_lambda(k6)
    res = build_mutual_cover(k6, vertex_mask({0}), prof, seed=1)
    assert is_mutual_cover(k6, vertex_mask({0}), res.members)
    assert set(mask_vertices(res.members)) <= set_neighborhood(k6, {0})


def test_cover_fuzz_properties():
    rng = np.random.default_rng(2)
    for seed in range(5):
        g = random_regular_graph(12, 4, seed=seed)
        prof = spectral_lambda(g)
        for trial in range(20):
            size = int(rng.integers(1, 6))
            xs = frozenset(int(u) for u in rng.choice(g.n, size=size, replace=False))
            res = build_mutual_cover(g, vertex_mask(xs), prof, seed=trial)
            assert is_mutual_cover(g, vertex_mask(xs), res.members)
            assert set(mask_vertices(res.members)) <= set_neighborhood(g, xs)


def test_cover_linkage_transfer(petersen):
    prof = exhaustive_lambda(petersen)
    for xs in enumerate_linked_sets(petersen, 0, 6, 2):
        res = build_mutual_cover(petersen, xs, prof, seed=5)
        assert is_k_linked(petersen, res.members, 4)


def test_cover_bound_evaluated(k6):
    prof = spectral_lambda(k6)  # lam = 1, d = 5
    res = build_mutual_cover(k6, vertex_mask({0, 1}), prof, seed=9)
    expected = 7.0 * np.log2(4.0 / np.sqrt(5.0)) / 5.0 * len(set_neighborhood(k6, {0, 1}))
    assert res.size_bound == pytest.approx(expected)
    assert cover_size_bound(5, 1.0, 6) == pytest.approx(expected)


def test_cover_deterministic(petersen):
    prof = exhaustive_lambda(petersen)
    a = build_mutual_cover(petersen, vertex_mask({0, 1, 5}), prof, seed=7)
    b = build_mutual_cover(petersen, vertex_mask({0, 1, 5}), prof, seed=7)
    assert a.members == b.members and a.attempts == b.attempts


def eager_stream_cover(g, x, profile, seed, retry_cap):
    """Oracle: the cover construction with all retry_cap seed streams spawned
    up front by SeedSequence(seed).spawn(retry_cap)."""
    d, lam = profile.d, profile.lam
    q = set_neighborhood(g, x)
    nbr = [frozenset(g.neighbors(u)) for u in range(g.n)]
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


def test_cover_retry_streams_match_eager_spawn(monkeypatch):
    # An asserted lam with 4*lam/sqrt(d) = 1.1 samples the boundary at rate
    # ~0.13 against a bound of ~0.32 |N(X)|, so most attempts miss the bound.
    g = random_regular_graph(18, 3, seed=1)
    prof = asserted_profile(g, 1.1 * np.sqrt(3) / 4)
    multi = exhausted = 0
    for xs in ({0, 1}, {0, 2, 5}, {1, 3, 7, 9}):
        for seed in range(4):
            for cap in (5, 64):
                monkeypatch.setattr(containers, "COVER_RETRY_CAP", cap)
                res = build_mutual_cover(g, vertex_mask(xs), prof, seed=seed)
                assert (frozenset(mask_vertices(res.members)), res.attempts) == eager_stream_cover(
                    g, frozenset(xs), prof, seed, cap)
                multi += res.attempts > 1
                exhausted += res.attempts == cap and not res.met_bound
    assert multi >= 12
    assert exhausted == 8  # X = {0, 1} misses the bound at every seed and cap
    monkeypatch.undo()
    # covers chosen when every stream was spawned up front
    picks = [mask_vertices(build_mutual_cover(g, vertex_mask({0, 1}), prof, seed=s).members)
             for s in range(3)]
    assert picks == [[5, 8], [2, 11], [2, 5]]
    res = build_mutual_cover(g, vertex_mask({1, 3, 7, 9}), prof, seed=2)
    assert (mask_vertices(res.members), res.attempts, res.met_bound) == ([0, 5, 15], 2, True)


@pytest.mark.parametrize("lam, p, met", [(None, 1.0, True), (0.3, 0.0, False)])
def test_cover_without_draws_matches_eager_spawn(monkeypatch, lam, p, met):
    # At p = 1 (spectral lam = 2.56) every draw keeps the whole pool, and at
    # p = 0 (4*lam/sqrt(d) < 1, so ell < 1 and a negative bound) none of it:
    # the cover that draws no stream equals the oracle that draws them all.
    g = random_regular_graph(18, 3, seed=1)
    prof = spectral_lambda(g) if lam is None else asserted_profile(g, lam)
    ell = (4.0 * prof.lam / np.sqrt(prof.d)) ** 4
    assert (min(1.0, np.log(ell) / prof.d) if ell > 1.0 else 0.0) == p
    for x in enumerate_linked_sets(g, 0, 8, 2):
        for seed, cap in ((0, 5), (3, 64)):
            monkeypatch.setattr(containers, "COVER_RETRY_CAP", cap)
            res = build_mutual_cover(g, x, prof, seed=seed)
            assert (frozenset(mask_vertices(res.members)), res.attempts) == eager_stream_cover(
                g, frozenset(mask_vertices(x)), prof, seed, cap)
            assert res.met_bound == met


# ---------------------------------------------------------------------------
# Approximating pairs
# ---------------------------------------------------------------------------

def test_trivial_pair_validates(petersen):
    # (X, N(X)) is always a valid pair
    xs = frozenset({0, 1})
    pair = ApproxPair(s=vertex_mask(xs), f=vertex_mask(set_neighborhood(petersen, xs)), psi=1.0)
    assert validate_approx_pair(petersen, pair, vertex_mask(xs))["ok"]


def test_refine_singleton(k6):
    prof = spectral_lambda(k6)
    cover = build_mutual_cover(k6, vertex_mask({0}), prof, seed=0)
    pair, stats = refine_to_approx_pair(k6, cover.members, vertex_mask({0}), psi=1.0)
    assert 0 in mask_vertices(pair.s)
    assert validate_approx_pair(k6, pair, vertex_mask({0}))["ok"]
    assert stats.h_size <= stats.h_bound and stats.u_size <= stats.u_bound


def test_refine_psi_range(k6):
    prof = spectral_lambda(k6)
    cover = build_mutual_cover(k6, vertex_mask({0}), prof, seed=0)
    with pytest.raises(ValueError, match="psi"):
        refine_to_approx_pair(k6, cover.members, vertex_mask({0}), psi=4.0)  # > d/2


def test_refine_rejects_non_cover(k6):
    with pytest.raises(ValueError, match="cover"):
        refine_to_approx_pair(k6, vertex_mask(frozenset()), vertex_mask({0}), psi=1.0)


def test_refine_fuzz_greedy_bounds():
    rng = np.random.default_rng(13)
    for seed in range(4):
        g = random_regular_graph(10, 3, seed=seed)
        prof = spectral_lambda(g)
        d = g.regular_degree()
        for trial in range(25):
            size = int(rng.integers(1, 4))
            xs = frozenset(int(u) for u in rng.choice(g.n, size=size, replace=False))
            gsize = len(set_neighborhood(g, xs))
            cover = build_mutual_cover(g, vertex_mask(xs), prof, seed=trial)
            for psi in (1.0, d / 2.0):
                pair, stats = refine_to_approx_pair(g, cover.members, vertex_mask(xs), psi)
                assert validate_approx_pair(g, pair, vertex_mask(xs))["ok"]
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
    pair = ApproxPair(s=vertex_mask({0}), f=vertex_mask(set_neighborhood(k6, {0})), psi=1.0)
    # d(1-5/6) - 1 < 0 on K6
    assert check_pair_size_bound(pair, prof)["status"] == "skipped"


def test_size_bound_empty_pair(k6):
    # with no F, only an empty S can satisfy the degree conditions
    prof = spectral_lambda(k6)
    empty = vertex_mask(frozenset())
    report = check_pair_size_bound(ApproxPair(s=empty, f=empty, psi=1.0), prof)
    assert report["status"] == "pass"
    assert report["rhs"] == 0


def test_size_bound_passes_on_small_f():
    g = random_regular_graph(14, 3, seed=8)
    prof = spectral_lambda(g)
    cover = build_mutual_cover(g, vertex_mask({0}), prof, seed=0)
    pair, _ = refine_to_approx_pair(g, cover.members, vertex_mask({0}), psi=1.0)
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


def test_count_report_past_the_largest_float():
    # e ** naive_exp overflows a float once naive_exp passes ~709: such a
    # bound is None (null in JSON, an empty CSV cell) and the status is
    # decided in log space.
    row = linked_set_count_report(1098, 1100, 1, spectral_lambda(cycle_graph(1500)))
    assert (row["bound_naive"], row["bound_lemma"], row["status"]) == (None, None, "skipped")
    row = linked_set_count_report(5, 1400, 1, ExpanderProfile(3000, 3, 2.8, "asserted"))
    assert (row["bound_naive"], row["bound_lemma"], row["in_range"], row["status"]) == (None, None, True, "pass")
    assert count_report_csv([row]).splitlines()[1] == "1400,5,,,0.000808018,pass"
    assert linked_set_count_report(10**5000, 1400, 1, ExpanderProfile(3000, 3, 2.8, "asserted"))["status"] == "fail"


# ---------------------------------------------------------------------------
# The CLI's bytes
# ---------------------------------------------------------------------------

# sha256 of `liplab containers` stdout and family.jsonl on RR(18,3) at vertex
# 0, g = 10, k = 4, seed 7, recorded with the frozenset pipeline.  Spectral
# lam gives p = 1; lam = 0.48 gives p ~ 0.14, so the sampled covers retry.
CONTAINERS_DIGESTS = {
    "spectral": ("b6455c2d3d30a4f03c793befa21848576501882b88c9046474c7f48b941968cd",
                 "8b48c742ab80b049dd7cfdd11a1e4bac0d4af56f393240d6980ec905f6ec3983"),
    "0.48": ("779685979c6f3bee6cab05f740be1622ae60a0a436470a7723e8e1cc3231c5f3",
             "a1463c3b6a6c4d294937966f9e8e2975057135211460917486f92561521a87c0"),
}


@pytest.mark.parametrize("lam", sorted(CONTAINERS_DIGESTS))
def test_cli_containers_pinned(lam, tmp_path, capsys):
    from liplab.cli import main

    graph = '{"family":"random-regular","n":18,"d":3,"seed":1}'
    assert main(["containers", "--graph", graph, "--vertex", "0", "--boundary-size", "10",
                 "--linkage", "4", "--seed", "7", "--lambda-source", lam, "--out", str(tmp_path)]) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    family = hashlib.sha256((tmp_path / "family.jsonl").read_bytes()).hexdigest()
    assert (stdout, family) == CONTAINERS_DIGESTS[lam]


def test_cli_containers_refuses_degree_0(capsys):
    from liplab.cli import main

    # K1 is regular of degree 0: the cover sampling rate ln(ell)/d is undefined
    assert main(["containers", "--graph", '{"family":"complete","n":1}', "--boundary-size", "0",
                 "--linkage", "1"]) == 2
    assert capsys.readouterr().err == "error: container pipeline requires degree d >= 1, got d = 0\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_containers_refuses_a_non_finite_lambda(value, capsys):
    from liplab.cli import main

    # the lambda-source check that `count` applies to the same flag
    message = f"error: lambda_source.asserted must be finite, got {value}\n"
    assert main(["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "6",
                 "--lambda-source", value]) == 2
    assert capsys.readouterr().err == message
    assert main(["count", "--graph", '{"family":"petersen"}', "--M", "1", "--lambda-source", value]) == 2
    assert capsys.readouterr().err == message


def test_cli_containers_refuses_a_negative_boundary_size(capsys):
    from liplab.cli import main

    assert main(["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --boundary-size: must be an integer >= 0, got -1\n")
