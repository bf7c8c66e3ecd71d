"""Acceptance suite: one test per shipped criterion, each printing a verdict
line.  Tolerances and fuzz scales are pinned here and nowhere else: criteria
3, 7 and 9 run the `liplab verify` registry's own checks, at the fuzz scales
below and at the entropy tolerance asserted in criterion 9.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import time
from collections import Counter, deque
from contextlib import contextmanager

from scipy import stats

from liplab.containers import (
    build_container_family,
    enumerate_linked_sets,
    validate_approx_pair,
)
from liplab.entropy import ENTROPY_TOL
from liplab.expanders import exhaustive_lambda, spectral_lambda, verify_expander_props
from liplab.experiments import (
    SuiteGraph,
    VerifyContext,
    check_boundary_ordering_fuzz,
    check_core_closure,
    check_cover_inequality,
    check_detailed_balance,
    check_entropy,
    check_ground_state_existence,
    parse_config,
    run_checks,
    run_range_experiment,
    run_tail_experiment,
)
from liplab.flaws import conditional_tail_profile
from liplab.graphs import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    petersen_graph,
    random_regular_graph,
)
from liplab.lipschitz import (
    EnsembleSpec,
    count_groundstate,
    count_onepoint,
    enumerate_onepoint,
    glauber_chain,
    sample_exact,
)
from tests.conftest import brute_members, path_graph, to_networkx

LAMBDA_TOL = 1e-9
# criterion 7: 200 functions and 100 sets per graph and unit of scale
FLAW_FUZZ_SCALE = 9
# criterion 9: 150 random pmfs per inequality and unit of scale
ENTROPY_FUZZ_SCALE = 7


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {label}")


def test_criterion_1_exact_counts():
    cases = [
        (complete_graph(2), "K2", 3),
        (path_graph(3), "P3", 9),
        (cycle_graph(4), "C4", 19),
        (complete_graph(6), "K6", 63),
    ]
    with criterion(1, "one-point counts 3/9/19/63 vs brute force, <1s each"):
        for g, name, expected in cases:
            start = time.monotonic()
            got = count_onepoint(g, 0, 1).count
            elapsed = time.monotonic() - start
            assert got == expected, name
            brute = brute_members(to_networkx(g), EnsembleSpec("one-point", M=1, v0=0))
            assert got == sum(1 for _ in brute), name
            assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"


def test_criterion_2_covering_inequality_exact():
    with criterion(2, "ground-state count 106 <= 2*63 on K6, brute force agrees, <10s"):
        start = time.monotonic()
        g = complete_graph(6)
        lhs = count_groundstate(g, 0, 1, 1.0).count
        rhs = (1 + 1) * count_onepoint(g, 0, 1).count
        assert lhs == 106 and rhs == 126 and lhs <= rhs
        # the flaw allowance 2 keeps >= 4 vertices in {0, 1}, so every
        # member lies in one of the windows {0, 1}, {-1, 0} and {1, 2}
        members = list(brute_members(to_networkx(g), EnsembleSpec("ground-state", M=1, k=0, lam=1.0)))
        assert len(members) == 106
        windows = Counter("center" if set(vals) <= {0, 1} else "below" if min(vals) < 0 else "above"
                          for vals in members)
        assert windows == {"center": 64, "below": 21, "above": 21}
        assert time.monotonic() - start < 10.0


def test_criterion_3_ground_state_existence_exhaustive():
    with criterion(3, "all 63 anchored functions on K6 admit a window, flaws <= 2.4"):
        (row,) = check_ground_state_existence(SuiteGraph(complete_graph(6)), VerifyContext())
        assert row["status"] == "pass", row
        assert row["instances"] == 63
        assert row["max_flaw_ratio"] <= 1.0


def test_criterion_4_expansion_certificates():
    with criterion(4, "spectral 1/2/3 on K6/C4/Q3, exhaustive(K3)=2/3, exhaustive<=spectral x50"):
        assert abs(spectral_lambda(complete_graph(6)).lam - 1.0) <= LAMBDA_TOL
        assert abs(spectral_lambda(cycle_graph(4)).lam - 2.0) <= LAMBDA_TOL
        assert abs(spectral_lambda(hypercube_graph(3)).lam - 3.0) <= LAMBDA_TOL
        assert abs(exhaustive_lambda(complete_graph(3)).lam - 2.0 / 3.0) <= LAMBDA_TOL
        shapes = [(8, 3), (10, 3), (12, 3), (8, 4), (9, 4), (10, 4), (11, 4), (12, 4)]
        done = 0
        seed = 0
        while done < 50:
            n, d = shapes[done % len(shapes)]
            g = random_regular_graph(n, d, seed=seed)
            seed += 1
            assert exhaustive_lambda(g).lam <= spectral_lambda(g).lam + LAMBDA_TOL, g.name
            done += 1


def test_criterion_5_expander_consequences_suite():
    graphs = [complete_graph(n) for n in range(4, 9)]
    graphs += [petersen_graph(), hypercube_graph(3)]
    graphs += [random_regular_graph(10, 3, seed=s) for s in range(20)]
    with criterion(5, "structural consequence checks pass on 27 certified graphs, <60s"):
        start = time.monotonic()
        for g in graphs:
            profile = exhaustive_lambda(g)
            report = verify_expander_props(g, profile)
            bad = [c for c in report["checks"] if c["status"] == "fail"]
            assert not bad, (g.name, bad)
        assert time.monotonic() - start < 60.0


def test_criterion_6_sampler_correctness():
    with criterion(6, "chi^2 on 1e5 exact draws, TV<0.01 after 1e6 chain steps, exact balance"):
        g = cycle_graph(4)
        spec = EnsembleSpec("one-point", M=1, v0=0)
        support = [f.values for f in enumerate_onepoint(g, 0, 1)]
        assert len(support) == 19

        draws = sample_exact(g, spec, seed=20240917, count=100_000)
        counts = Counter(map(tuple, draws.tolist()))
        assert set(counts) <= set(support)
        observed = [counts.get(s, 0) for s in support]
        _, p = stats.chisquare(observed)
        assert p > 0.001, p

        hist = Counter()
        glauber_chain(g, spec, seed=5, steps=1_000_000,
                      on_step=lambda t, vals: hist.update([tuple(vals)]))
        total = sum(hist.values())
        tv = 0.5 * sum(abs(hist.get(s, 0) / total - 1 / 19) for s in support)
        tv += 0.5 * sum(c / total for s, c in hist.items() if s not in support)
        assert tv < 0.01, tv

        # exact single-site balance: the proposal kernel is symmetric
        (row,) = check_detailed_balance(VerifyContext())
        assert row["status"] == "pass", row


def test_criterion_7_flaw_structure_fuzz():
    with criterion(7, "core closure in cluster on 1e4 functions; ordering checks on 1e3 sets"):
        graphs = [random_regular_graph(n, 3, seed=n) for n in range(10, 21, 2)]
        rows, _ = run_checks(graphs, VerifyContext(seed=77, fuzz_scale=FLAW_FUZZ_SCALE),
                             (check_core_closure, check_boundary_ordering_fuzz), ())
        assert [r["status"] for r in rows] == ["pass"] * 12, [r for r in rows if r["status"] != "pass"]
        functions = sum(r["cases"] for r in rows if r["check"] == "core-closure")
        ordered_sets = sum(r["cases"] for r in rows if r["check"] == "boundary-ordering")
        assert functions >= 10_000 and ordered_sets >= 1_000, (functions, ordered_sets)


def test_criterion_8_container_pipeline():
    graphs = [cycle_graph(5), petersen_graph(), random_regular_graph(10, 3, seed=3)]
    with criterion(8, "family covering + pair conditions + greedy bounds on 3 graphs"):
        for g in graphs:
            profile = exhaustive_lambda(g)
            d = profile.d
            psi = 1.0
            for v in range(g.n):
                for gsize in range(1, g.n + 1):
                    for k in (1, 4):
                        sets = enumerate_linked_sets(g, v, gsize, k)
                        if not sets:
                            continue
                        fam = build_container_family(g, v, gsize, k, psi, profile, seed=v)
                        assert fam.covers_all, (g.name, v, gsize, k)
                        # independent re-check of the covering property
                        for xs in sets:
                            assert any(
                                validate_approx_pair(g, pair, xs)["ok"] for pair in fam.pairs
                            ), (g.name, v, gsize, k, sorted(xs))
                        assert fam.stats["max_h"] <= gsize / psi + 1e-9
                        assert fam.stats["max_u"] <= 2 * gsize / psi + 1e-9


def test_criterion_9_entropy_suite():
    with criterion(9, "entropy toolbox + cover inequality on 1e3 pmfs each, tol 1e-10, <30s"):
        start = time.monotonic()
        assert ENTROPY_TOL == 1e-10
        ctx = VerifyContext(fuzz_scale=ENTROPY_FUZZ_SCALE)
        entropy, cover = check_entropy(ctx) + check_cover_inequality(ctx)
        assert entropy["status"] == "pass" and cover["status"] == "pass", (entropy, cover)
        assert entropy["pmfs"] >= 1_000 and cover["pmfs"] >= 1_000, (entropy, cover)
        assert time.monotonic() - start < 30.0


def test_criterion_10_tail_tooling_consistency():
    with criterion(10, "tail experiment == exact tail rows bit-for-bit, monotone, bound formula"):
        g = complete_graph(6)
        cfg = parse_config(
            {
                "schema": 1,
                "graph": {"family": "complete", "n": 6},
                "M": 1,
                "mode": {"kind": "ground-state", "k": 0},
                "sampler": {"kind": "exact"},
                "samples": 0,
                "seed": 0,
                "probes": [0],
                "t_values": [1, 2, 3, 4, 5],
            }
        )
        res = run_tail_experiment(cfg)
        rows = res.aggregates["rows"]
        direct = conditional_tail_profile(g, 1, spectral_lambda(g).lam, 0, [1, 2, 3, 4, 5])
        assert rows == direct  # bit-for-bit, including float probabilities/bounds

        probs = [r["probability"] for r in rows]
        assert probs == sorted(probs, reverse=True)

        # recompute the bound column from scratch
        for r in rows:
            radius = max(r["t"] - 1, 0)
            dist = [-1] * g.n
            dist[0] = 0
            queue = deque([0])
            while queue:
                v = queue.popleft()
                for u in g.neighbors(v):
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            ball_size = sum(1 for x in dist if 0 <= x <= radius)
            assert r["bound"] == 2.0 ** (-ball_size / 5.0)


def test_criterion_11_byte_reproducibility(tmp_path):
    with criterion(11, "identical config+seed gives byte-identical results.csv"):
        cfg_data = {
            "schema": 1,
            "graph": {"family": "random-regular", "n": 16, "d": 3, "seed": 2},
            "M": 2,
            "mode": {"kind": "one-point", "v0": 0},
            "sampler": {"kind": "glauber", "burn_in": 2000, "thinning": 16},
            "samples": 50,
            "seed": 31337,
            "probes": [3, 8],
        }
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_range_experiment(parse_config(cfg_data)).write(out_a)
        run_range_experiment(parse_config(cfg_data)).write(out_b)
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

        cfg_exact = dict(cfg_data, sampler={"kind": "exact"}, samples=200,
                         graph={"family": "cycle", "n": 4}, probes=[1, 3])
        out_c = tmp_path / "c"
        out_d = tmp_path / "d"
        run_range_experiment(parse_config(cfg_exact)).write(out_c)
        run_range_experiment(parse_config(cfg_exact)).write(out_d)
        assert (out_c / "results.csv").read_bytes() == (out_d / "results.csv").read_bytes()
