import hashlib
import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liplab.containers as containers
from liplab.containers import (
    COVER_RETRY_CAP,
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
)
from liplab.errors import BudgetExceededError
from liplab.expanders import ExpanderProfile, asserted_profile, exhaustive_lambda, spectral_lambda
from liplab.graphs import (
    cycle_graph,
    is_k_linked,
    mask_vertices,
    petersen_graph,
    random_regular_graph,
    vertex_mask,
)
from tests.conftest import (
    is_approx_pair,
    is_linked_nx,
    is_mutual_cover,
    nx_power,
    reference_container_family,
    set_neighborhood,
)


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
    up front by SeedSequence(seed).spawn(retry_cap), or one stream when no
    draw can differ from another (p = 0, p = 1 or an empty pool)."""
    d, lam = profile.d, profile.lam
    q = set_neighborhood(g, x)
    nbr = [frozenset(g.neighbors(u)) for u in range(g.n)]
    ell = (4.0 * lam / np.sqrt(d)) ** 4
    pool = sorted(u for u in q if len(nbr[u] & x) < ell)
    p = min(1.0, max(0.0, np.log(ell) / d)) if ell > 1.0 else 0.0
    bound = cover_size_bound(d, lam, len(q))
    best, attempts = None, 0
    for stream in np.random.SeedSequence(seed).spawn(retry_cap if pool and 0 < p < 1 else 1):
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


@pytest.mark.parametrize("boundary_size, n_sets", [(0, 0), (3, 1), (11, 84)])
def test_family_cover_seeds_are_the_spawned_children(boundary_size, n_sets, monkeypatch):
    # 0 < p < 1, so each linked set's cover draws on child i of SeedSequence(seed).spawn,
    # and set i's cover is the one `build_mutual_cover` builds on that child seed
    g = random_regular_graph(18, 3, seed=1)
    prof = asserted_profile(g, 1.1 * np.sqrt(3) / 4)
    calls = []
    cover_columns = containers._cover_columns

    def spy(adj, x, q, profile, seeds):
        result = cover_columns(adj, x, q, profile, seeds)
        calls.append((x, list(seeds), result))
        return result

    monkeypatch.setattr(containers, "_cover_columns", spy)
    fam = build_container_family(g, 0, boundary_size, 1, 1.0, prof, seed=7)
    monkeypatch.undo()
    assert fam.n_sets == n_sets
    ((x, seeds, (covers, attempts, met, _)),) = calls
    children = [child.generate_state(1)[0].item() for child in np.random.SeedSequence(7).spawn(n_sets)]
    assert seeds == children
    xs = enumerate_linked_sets(g, 0, boundary_size, 1)
    assert containers._masks(x) == xs
    assert [(cover, int(tries), bool(hit)) for cover, tries, hit in
            zip(containers._masks(covers), attempts, met)] == [
        (res.members, res.attempts, res.met_bound)
        for res in (build_mutual_cover(g, x, prof, seed=child) for x, child in zip(xs, children))]


# ---------------------------------------------------------------------------
# The column pipeline against the per-set reference
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_family_matches_the_per_set_reference(data):
    # every vertex of a random RR(n, d), spectral lam (p = 1), a lam below
    # sqrt(d)/4 (p = 0) or one that samples (0 < p < 1) and retries
    d = data.draw(st.sampled_from([3, 4]), label="d")
    n = data.draw(st.integers(d + 1, 20).filter(lambda n: n * d % 2 == 0), label="n")
    g = random_regular_graph(n, d, seed=data.draw(st.integers(0, 100), label="graph seed"))
    source = data.draw(st.sampled_from(["spectral", "p = 0", "0 < p < 1"]), label="lambda")
    if source == "spectral":
        prof = spectral_lambda(g)
    else:
        # 4*lam/sqrt(d) = ratio: p = 4 ln(ratio)/d, and near 1 the size bound is small enough to retry
        ratio = 0.5 if source == "p = 0" else data.draw(st.floats(1.05, 1.6), label="ratio")
        prof = asserted_profile(g, ratio * np.sqrt(d) / 4)
    k = data.draw(st.sampled_from([1, 2, 4]), label="k")
    boundary_size = data.draw(st.integers(d, d + 5), label="boundary size")  # no linked set below d
    seed = data.draw(st.integers(0, 2**32), label="seed")
    for v in range(n):
        for psi in (1.0, d / 2):
            assert build_container_family(g, v, boundary_size, k, psi, prof, seed) == reference_container_family(
                g, v, boundary_size, k, psi, prof, seed)


def test_family_matches_the_reference_when_covers_retry():
    # lam = 0.48 samples at p ~ 0.14: 24 of the 84 sets never meet the bound,
    # so each of them makes every attempt
    g = random_regular_graph(18, 3, seed=1)
    prof = asserted_profile(g, 0.48)
    assert 0.0 < containers.cover_sampling(3, 0.48)[1] < 1.0
    fam = build_container_family(g, 0, 11, 1, 1.0, prof, seed=7)
    assert fam == reference_container_family(g, 0, 11, 1, 1.0, prof, seed=7)
    assert (fam.n_sets, fam.stats["covers_meeting_bound"]) == (84, 60)
    assert fam.stats["cover_attempts"] > 24 * COVER_RETRY_CAP


@pytest.mark.parametrize("lam, p", [(None, 1.0), (0.3, 0.0)])
def test_family_matches_the_reference_without_draws(lam, p):
    g = random_regular_graph(18, 3, seed=1)
    prof = spectral_lambda(g) if lam is None else asserted_profile(g, lam)
    assert containers.cover_sampling(3, prof.lam)[1] == p
    fam = build_container_family(g, 0, 10, 4, 1.5, prof, seed=7)
    assert fam == reference_container_family(g, 0, 10, 4, 1.5, prof, seed=7)
    assert fam.n_sets == fam.stats["cover_attempts"] == 564


def test_empty_family_matches_the_reference():
    g = random_regular_graph(18, 3, seed=1)
    prof = asserted_profile(g, 0.48)
    fam = build_container_family(g, 0, 0, 1, 1.0, prof, seed=7)
    assert fam == reference_container_family(g, 0, 0, 1, 1.0, prof, seed=7)
    assert (fam.n_sets, fam.pairs, fam.covers_all, fam.stats["cover_attempts"]) == (0, (), True, 0)


@pytest.mark.parametrize("g, v, boundary_size, n_sets", [
    (random_regular_graph(63, 4, seed=1), 62, 14, 69),
    (random_regular_graph(64, 3, seed=1), 63, 14, 241),
    (random_regular_graph(65, 4, seed=1), 64, 14, 49),
    (cycle_graph(100), 0, 70, 68),  # arcs through 0 that wrap past 99
], ids=["RR63", "RR64", "RR65", "C100"])
def test_family_matches_the_reference_across_byte_and_word_boundaries(g, v, boundary_size, n_sets):
    prof = spectral_lambda(g)
    fam = build_container_family(g, v, boundary_size, 1, 1.0, prof, seed=3)
    assert fam == reference_container_family(g, v, boundary_size, 1, 1.0, prof, seed=3)
    assert fam.n_sets == n_sets
    xs = enumerate_linked_sets(g, v, boundary_size, 1)
    assert containers._masks(containers._columns(xs, g.n)) == xs


# ---------------------------------------------------------------------------
# Approximating pairs
# ---------------------------------------------------------------------------

def test_trivial_pair_validates(petersen):
    # (X, N(X)) is always a valid pair
    xs = frozenset({0, 1})
    pair = ApproxPair(s=vertex_mask(xs), f=vertex_mask(set_neighborhood(petersen, xs)), psi=1.0)
    assert is_approx_pair(petersen, pair, vertex_mask(xs))


def test_refine_singleton(k6):
    prof = spectral_lambda(k6)
    cover = build_mutual_cover(k6, vertex_mask({0}), prof, seed=0)
    pair, stats = refine_to_approx_pair(k6, cover.members, vertex_mask({0}), psi=1.0)
    assert 0 in mask_vertices(pair.s)
    assert is_approx_pair(k6, pair, vertex_mask({0}))
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
                assert is_approx_pair(g, pair, vertex_mask(xs))
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
        assert any(is_approx_pair(petersen, p, xs) for p in fam.pairs)


def test_rejected_pairs_are_a_failed_check_not_a_crash(monkeypatch, capsys):
    import liplab.containers as containers
    from liplab.cli import main
    from liplab.experiments import run_verify_suite

    monkeypatch.setattr(containers, "_validate_columns",
                        lambda adj, x, q, s, f, psi: np.zeros(x.shape[1], dtype=bool))
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
# The stdout digests are of the report without `stats.cover_attempts`, which
# came later; the last value is that count.
CONTAINERS_DIGESTS = {
    "spectral": ("b6455c2d3d30a4f03c793befa21848576501882b88c9046474c7f48b941968cd",
                 "8b48c742ab80b049dd7cfdd11a1e4bac0d4af56f393240d6980ec905f6ec3983", 564),
    "0.48": ("779685979c6f3bee6cab05f740be1622ae60a0a436470a7723e8e1cc3231c5f3",
             "a1463c3b6a6c4d294937966f9e8e2975057135211460917486f92561521a87c0", 7950),
}


@pytest.mark.parametrize("lam", sorted(CONTAINERS_DIGESTS))
def test_cli_containers_pinned(lam, tmp_path, capsys):
    from liplab.cli import main
    from liplab.experiments import report_json

    graph = '{"family":"random-regular","n":18,"d":3,"seed":1}'
    assert main(["containers", "--graph", graph, "--vertex", "0", "--boundary-size", "10",
                 "--linkage", "4", "--seed", "7", "--lambda-source", lam, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    attempts = report["stats"].pop("cover_attempts")
    assert report_json({**report, "stats": {**report["stats"], "cover_attempts": attempts}}) == out
    stdout = hashlib.sha256(report_json(report).encode()).hexdigest()
    family = hashlib.sha256((tmp_path / "family.jsonl").read_bytes()).hexdigest()
    assert (stdout, family, attempts) == CONTAINERS_DIGESTS[lam]


def test_cli_containers_refuses_degree_0(capsys):
    from liplab.cli import main

    # K1 is regular of degree 0: the cover sampling rate ln(ell)/d is undefined
    assert main(["containers", "--graph", '{"family":"complete","n":1}', "--boundary-size", "0",
                 "--linkage", "1"]) == 2
    assert capsys.readouterr().err == "error: container pipeline requires degree d >= 1, got d = 0\n"


@pytest.mark.parametrize("value,message", [
    ("nan", "error: lambda_source.asserted must be finite, got nan\n"),
    ("inf", "error: lambda_source.asserted must be finite, got inf\n"),
    ("-1", "error: lambda_source.asserted must be >= 0, got -1.0\n"),
], ids=["nan", "inf", "-1"])
def test_cli_containers_refuses_a_non_finite_lambda(value, message, capsys):
    from liplab.cli import main

    # the lambda-source check that `count` applies to the same flag
    assert main(["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "6",
                 "--lambda-source", value]) == 2
    assert capsys.readouterr().err == message
    assert main(["count", "--graph", '{"family":"petersen"}', "--M", "1", "--lambda-source", value]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv,value", [
    (["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "6"], "1e300"),
    (["count", "--graph", '{"family":"petersen"}', "--M", "1", "--mode", "ground-state"], "1.7e308"),
    (["count", "--graph", '{"family":"petersen"}', "--M", "1"], "3.0000000000000004"),
], ids=["containers-1e300", "count-ground-1.7e308", "count-just-above-d"])
def test_cli_refuses_an_asserted_lambda_above_the_degree(argv, value, capsys):
    from liplab.cli import main

    # no eigenvalue of a d-regular graph exceeds d
    assert main([*argv, "--lambda-source", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lambda_source.asserted must be <= the degree d = 3, got {float(value)!r}\n"


def test_cli_takes_an_asserted_lambda_equal_to_the_degree(capsys):
    from liplab.cli import main

    assert main(["count", "--graph", '{"family":"petersen"}', "--M", "1", "--lambda-source", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2_613


@pytest.mark.parametrize("boundary_size,psi,shown", [("99", "nan", "nan"), ("2", "7", "7.0")])
def test_cli_containers_checks_psi_without_linked_sets(boundary_size, psi, shown, capsys):
    from liplab.cli import main

    # no linked set of either size exists on the Petersen graph, so no pair is refined
    assert main(["containers", "--graph", '{"family":"petersen"}', "--boundary-size", boundary_size,
                 "--psi", psi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: psi must lie in [1, d/2] = [1, 1.5], got {shown}\n"


def test_cli_containers_refuses_a_negative_boundary_size(capsys):
    from liplab.cli import main

    assert main(["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --boundary-size: must be an integer >= 0, got -1\n")
