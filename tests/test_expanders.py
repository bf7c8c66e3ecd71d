import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liplab.cli import main
from liplab.errors import ConfigError
from liplab.expanders import (
    EXHAUSTIVE_CAP,
    ExpanderProfile,
    adjacency_spectrum,
    asserted_profile,
    exhaustive_lambda,
    spectral_lambda,
    verify_expander_props,
)
from liplab.experiments import resolve_profile
from liplab.graphs import (
    complete_graph,
    cycle_graph,
    hypercube_graph,
    petersen_graph,
    random_regular_graph,
    wired_tree_graph,
)
from tests.conftest import exhaustive_lambda_bruteforce, nx_distances

TOL = 1e-9


# ---------------------------------------------------------------------------
# Spectral certificates against first-principles oracles
# ---------------------------------------------------------------------------

def test_complete_graph_spectrum_oracle(k6):
    # adjacency of K6 is J - I: the all-ones vector has eigenvalue n-1 and
    # anything orthogonal to it has eigenvalue -1
    a = k6.adjacency_matrix()
    ones = np.ones(6)
    assert np.allclose(a @ ones, 5 * ones)
    for i in range(1, 6):
        x = np.zeros(6)
        x[0], x[i] = 1.0, -1.0
        assert np.allclose(a @ x, -x)
    assert spectral_lambda(k6).lam == pytest.approx(1.0, abs=TOL)


def test_cycle_spectrum_oracle(c4):
    # circulant eigenvectors: v_j[k] = cos(2*pi*j*k/n) has eigenvalue 2cos(2*pi*j/n)
    a = c4.adjacency_matrix()
    for j in range(4):
        mu = 2 * math.cos(2 * math.pi * j / 4)
        v = np.cos(2 * math.pi * j * np.arange(4) / 4)
        assert np.allclose(a @ v, mu * v, atol=1e-12)
    assert spectral_lambda(c4).lam == pytest.approx(2.0, abs=TOL)


def test_hypercube_spectrum_oracle(q3):
    # character vectors chi_S(x) = (-1)^{|S & x|} have eigenvalue d - 2|S|
    a = q3.adjacency_matrix()
    for s in range(8):
        chi = np.array([(-1) ** bin(s & x).count("1") for x in range(8)], dtype=float)
        mu = 3 - 2 * bin(s).count("1")
        assert np.allclose(a @ chi, mu * chi)
    assert spectral_lambda(q3).lam == pytest.approx(3.0, abs=TOL)


def test_petersen_spectral(petersen):
    # known spectrum 3, 1^5, (-2)^4
    vals = adjacency_spectrum(petersen)
    assert vals[-1] == pytest.approx(3.0, abs=1e-8)
    assert spectral_lambda(petersen).lam == pytest.approx(2.0, abs=1e-8)


def test_spectral_requires_regular():
    with pytest.raises(ValueError, match="not regular"):
        spectral_lambda(wired_tree_graph(2, 3))


def test_spectral_lower_bound_floor():
    # every d-regular graph forces lam >= sqrt(d) * (1 - d/n)
    for g in [complete_graph(6), cycle_graph(8), hypercube_graph(3), petersen_graph(),
              random_regular_graph(12, 4, seed=2)]:
        d, n = g.regular_degree(), g.n
        assert spectral_lambda(g).lam >= math.sqrt(d) * (1 - d / n) - TOL


# ---------------------------------------------------------------------------
# Exhaustive certificates
# ---------------------------------------------------------------------------

def test_exhaustive_k3(k3):
    prof = exhaustive_lambda(k3)
    assert prof.lam == pytest.approx(2.0 / 3.0, abs=TOL)
    assert prof.method == "exhaustive"
    # independent pure-Python sweep agrees
    assert exhaustive_lambda_bruteforce(k3) == pytest.approx(prof.lam, abs=TOL)


@pytest.mark.parametrize("builder", [lambda: complete_graph(4), lambda: cycle_graph(5),
                                     lambda: hypercube_graph(2)])
def test_exhaustive_matches_bruteforce(builder):
    g = builder()
    assert exhaustive_lambda(g).lam == pytest.approx(exhaustive_lambda_bruteforce(g), abs=TOL)


def test_exhaustive_below_spectral():
    for seed in range(6):
        g = random_regular_graph(10, 3, seed=seed)
        assert exhaustive_lambda(g).lam <= spectral_lambda(g).lam + TOL


def test_exhaustive_cap():
    with pytest.raises(ValueError, match="capped"):
        exhaustive_lambda(random_regular_graph(EXHAUSTIVE_CAP + 2, 3, seed=0))


def test_full_sets_never_bind(k6):
    # S = T = V gives |2|E| - d n| = 0, so removing that pair changes nothing
    prof = exhaustive_lambda(k6)
    d, n = 5, 6
    assert abs(2 * k6.m - d * n) == 0
    assert prof.lam > 0


# ---------------------------------------------------------------------------
# Consequence checks
# ---------------------------------------------------------------------------

def test_props_k6_direct_values(k6):
    prof = exhaustive_lambda(k6)
    report = verify_expander_props(k6, prof)
    assert report["all_ok"]
    by_name = {c["name"]: c for c in report["checks"]}
    # ball of radius 1 is everything, bound is min(3, (5/2lam)^2)
    assert by_name["volume-growth"]["status"] == "pass"
    diam_check = by_name["diameter-bound"]
    assert diam_check["status"] == "pass"
    assert diam_check["details"]["diameter"] == 1


def test_props_diameter_gate(c4):
    prof = spectral_lambda(c4)  # lam = d = 2
    report = verify_expander_props(c4, prof)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["diameter-bound"]["status"] == "skipped"
    assert report["all_ok"]


def test_props_pass_on_certified_graphs(petersen, q3):
    for g in (petersen, q3, complete_graph(4)):
        prof = exhaustive_lambda(g)
        assert verify_expander_props(g, prof)["all_ok"]


def test_props_fail_with_bogus_lambda(petersen):
    # an impossibly small certificate must produce failures, not errors
    report = verify_expander_props(petersen, asserted_profile(petersen, 0.05))
    assert not report["all_ok"]
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert failing and any(c["witness"] for c in failing)


def test_props_sampled_mode():
    g = random_regular_graph(EXHAUSTIVE_CAP + 2, 4, seed=1)
    report = verify_expander_props(g, spectral_lambda(g), seed=5)
    assert report["mode"] == "sampled"
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["joining-edge"] in ("sampled", "fail")
    assert statuses["volume-growth"] == "pass"  # exhaustive regardless of subset sampling


def test_profile_validation():
    with pytest.raises(ValueError):
        ExpanderProfile(n=4, d=2, lam=-1.0, method="spectral")
    with pytest.raises(ValueError):
        ExpanderProfile(n=4, d=2, lam=1.0, method="guessed")


# ---------------------------------------------------------------------------
# The 4^n subset-pair sweeps as oracles for the 2^n row sweeps
# ---------------------------------------------------------------------------

def _subset_matrix(n):
    """Rows = indicator vectors of the 2^n - 1 nonempty subsets of [0, n)."""
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return bits.astype(np.float64)


def _mask_to_set(mask):
    return frozenset(i for i in range(32) if (mask >> i) & 1)


def pair_sweep_lambda(g, block=128):
    """The block-matmul sweep over every subset pair (S, T) that computed the
    exhaustive certificate before the sorted-prefix sweep.  The deviation is
    symmetric in S and T, so each row block meets only the columns from its
    own first mask on; that halves the work and leaves the maximum unchanged."""
    d = g.regular_degree()
    b = _subset_matrix(g.n)
    sizes = b.sum(axis=1)
    cross = g.adjacency_matrix() @ b.T  # column j = A 1_Tj
    ratio_d_n = d / g.n
    best = 0.0
    for lo in range(0, b.shape[0], block):
        rows = b[lo : lo + block]
        e = rows @ cross[:, lo:]  # e(S,T), exact integers
        st = sizes[lo : lo + block, None] * sizes[None, lo:]
        dev = np.abs(e - ratio_d_n * st) / np.sqrt(st)
        best = max(best, float(dev.max()))
    return best


def pair_sweep_joining_edge(g, lam, tol=1e-9):
    """(witness, max_product_without_edge) of the pair sweep that ran the
    exhaustive joining-edge check before the row sweep."""
    n, d = g.n, g.regular_degree()
    b = _subset_matrix(n)
    sizes = b.sum(axis=1)
    threshold = (lam * n / d) ** 2
    cross = g.adjacency_matrix() @ b.T
    worst = None
    for lo in range(0, b.shape[0], 1024):
        rows = b[lo : lo + 1024]
        e = rows @ cross
        st = sizes[lo : lo + 1024, None] * sizes[None, :]
        bad = (e < 0.5) & (st > threshold + tol)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            witness = {
                "S": sorted(_mask_to_set(lo + int(i) + 1)),
                "T": sorted(_mask_to_set(int(j) + 1)),
                "product": float(st[i, j]),
                "threshold": threshold,
            }
            return witness, worst
        zero = st[e < 0.5]
        if zero.size:
            m = float(zero.max())
            worst = m if worst is None else max(worst, m)
    return None, worst


def volume_growth_oracle(g, lam, tol=1e-9):
    """First (v, t), in vertex then radius order, whose ball is below the
    volume-growth bound, from the breadth-first distances; a ball past the
    eccentricity of v holds all n vertices, above every bound."""
    n, d = g.n, g.regular_degree()
    growth = d / (2.0 * lam)
    for v in range(n):
        dist = nx_distances(g, v)
        for t in range(max(dist) + 1):
            size = sum(x <= t for x in dist)
            bound = min(n / 2.0, growth ** (2 * t))
            if size < bound - tol:
                return {"v": v, "t": t, "ball": size, "bound": bound}
    return None


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


SMALL_FAMILIES = ([complete_graph(k) for k in range(4, 9)] + [cycle_graph(k) for k in range(5, 10)]
                  + [hypercube_graph(3), petersen_graph()])
RANDOM_REGULAR = [random_regular_graph(n, d, seed=s) for n in (10, 12, 14) for d in (3, 4) for s in range(3)]
BOGUS_LAMBDAS = (0.01, 0.05, 0.1, 0.5, 1.0)
WITNESS_GRAPHS = SMALL_FAMILIES + [random_regular_graph(12, 3, seed=1)]


@pytest.mark.parametrize("g", SMALL_FAMILIES + RANDOM_REGULAR, ids=lambda g: g.name)
def test_exhaustive_equals_pair_sweep(g):
    assert exhaustive_lambda(g).lam == pair_sweep_lambda(g)


# (n, d) with n <= 8 for which the configuration model finds simple graphs
REGULAR_SHAPES = [(n, d) for n in range(4, 9) for d in (2, 3, 4) if d < n and n * d % 2 == 0]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(REGULAR_SHAPES), st.integers(0, 2**32 - 1))
def test_exhaustive_matches_bruteforce_on_random_regular(shape, seed):
    g = random_regular_graph(*shape, seed=seed)
    assert abs(exhaustive_lambda(g).lam - exhaustive_lambda_bruteforce(g)) <= 1e-12


@pytest.mark.parametrize("lam", BOGUS_LAMBDAS)
@pytest.mark.parametrize("g", WITNESS_GRAPHS, ids=lambda g: g.name)
def test_props_witnesses_match_pair_sweep(g, lam):
    report = verify_expander_props(g, asserted_profile(g, lam))
    joining = _check(report, "joining-edge")
    witness, worst = pair_sweep_joining_edge(g, lam)
    assert joining["witness"] == witness
    assert joining["status"] == ("fail" if witness else "pass")
    if witness is None:
        assert joining["details"]["max_product_without_edge"] == worst
    assert _check(report, "volume-growth")["witness"] == volume_growth_oracle(g, lam)


def test_bogus_lambdas_mostly_fail_joining_edge():
    # the witness comparison above is not vacuous: 55 of its 65 cases fail
    statuses = [_check(verify_expander_props(g, asserted_profile(g, lam)), "joining-edge")["status"]
                for g in WITNESS_GRAPHS for lam in BOGUS_LAMBDAS]
    assert len(statuses) == 65
    assert statuses.count("fail") == 55


@pytest.mark.parametrize("g", SMALL_FAMILIES + RANDOM_REGULAR[:12], ids=lambda g: g.name)
def test_max_product_without_edge_matches_pair_sweep(g):
    prof = exhaustive_lambda(g)
    report = verify_expander_props(g, prof)
    assert report["all_ok"]
    witness, worst = pair_sweep_joining_edge(g, prof.lam)
    assert witness is None
    assert _check(report, "joining-edge")["details"]["max_product_without_edge"] == worst


def test_volume_growth_bound_past_float_range(petersen):
    # (d/2lam)^2 overflows a float: the bound is n/2 and the ball of radius 1 fails it
    with np.errstate(over="ignore"):  # the vertex-expansion bound (d/lam)^2 is inf
        report = verify_expander_props(petersen, asserted_profile(petersen, 1e-200))
    assert _check(report, "volume-growth")["witness"] == {"v": 0, "t": 1, "ball": 4, "bound": 5.0}


def test_sampled_rows_meet_every_subset():
    # sampled rows A are checked against every B, so a sampled witness is a
    # genuine edge-free pair above the threshold
    g = random_regular_graph(EXHAUSTIVE_CAP + 2, 3, seed=1)
    report = verify_expander_props(g, asserted_profile(g, 0.5), seed=3)
    assert report["mode"] == "sampled"
    witness = _check(report, "joining-edge")["witness"]
    s, t = set(witness["S"]), set(witness["T"])
    assert not any(set(g.neighbors(v)) & t for v in s)
    assert len(s) * len(t) == witness["product"] > witness["threshold"]
    certified = verify_expander_props(g, spectral_lambda(g), seed=3)
    assert _check(certified, "joining-edge")["status"] == "sampled"


def test_exhaustive_n18_memory():
    g = random_regular_graph(18, 3, seed=1)
    tracemalloc.start()
    try:
        prof = exhaustive_lambda(g)
        report = verify_expander_props(g, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["mode"] == "exhaustive" and report["all_ok"]
    assert prof.lam <= spectral_lambda(g).lam + TOL
    assert peak < 48 * 2**20


# sha256 of `liplab spectrum --exhaustive --props` stdout, recorded with the
# pair sweeps
SPECTRUM_DIGESTS = {
    '{"family": "random-regular", "n": 12, "d": 3, "seed": 1}':
        "3209048bc7bf69a458acab1f3432e21ec90a7e7c52afae54864383589d459886",
    '{"family": "petersen"}': "fba723caa069f49b48cb81b456176b1cdd2f521f2b8020228760814c09538c5b",
    '{"family": "hypercube", "dim": 3}': "80e2d33e6a5a257490b466387c2df98897807a321e6537fb91ffb3948c7ee9c6",
}


@pytest.mark.parametrize("graph", sorted(SPECTRUM_DIGESTS))
def test_cli_spectrum_props_pinned(graph, capsys):
    assert main(["spectrum", "--graph", graph, "--exhaustive", "--props"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_DIGESTS[graph]


@pytest.mark.parametrize("flags", [[], ["--exhaustive", "--props"]], ids=["spectrum", "exhaustive-props"])
def test_cli_spectrum_solves_the_eigenproblem_once(flags, monkeypatch, tmp_path, capsys):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    graph = '{"family": "petersen"}'
    assert main(["spectrum", "--graph", graph, *flags, "--out", str(tmp_path)]) == 0
    assert calls == [(10, 10)]
    text = (tmp_path / "spectrum.json").read_text()
    assert capsys.readouterr().out == text
    if flags:
        assert hashlib.sha256(text.encode()).hexdigest() == SPECTRUM_DIGESTS[graph]
    else:
        assert json.loads(text)["lam_spectral"] == pytest.approx(2.0, abs=1e-8)


def test_adjacency_spectrum_is_kept_read_only_on_the_graph(petersen):
    vals = adjacency_spectrum(petersen)
    assert adjacency_spectrum(petersen) is vals and not vals.flags.writeable
    assert spectral_lambda(petersen).lam == pytest.approx(2.0, abs=1e-8)
    assert adjacency_spectrum(petersen_graph()) is not vals


def test_cli_spectrum_props_skips_every_check_at_degree_0(capsys):
    # K1 is 0-regular: every bound divides by d, so each check is skipped
    assert main(["spectrum", "--graph", '{"family":"complete","n":1}', "--props"]) == 0
    props = json.loads(capsys.readouterr().out)["props"]
    assert props["all_ok"] and props["d"] == 0
    assert [(c["name"], c["status"], c["details"]) for c in props["checks"]] == [
        (name, "skipped", {"reason": "d = 0"})
        for name in ("joining-edge", "vertex-expansion", "volume-growth", "diameter-bound")
    ]


def test_exhaustive_refused_above_cap(tmp_path, capsys):
    graph = {"family": "random-regular", "n": EXHAUSTIVE_CAP + 1, "d": 4, "seed": 1}
    message = f"exhaustive lambda needs n <= {EXHAUSTIVE_CAP}, got n={EXHAUSTIVE_CAP + 1}"
    with pytest.raises(ConfigError) as exc:
        resolve_profile(random_regular_graph(EXHAUSTIVE_CAP + 1, 4, seed=1), "exhaustive")
    assert str(exc.value) == message
    assert main(["spectrum", "--graph", json.dumps(graph), "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"schema": 1, "graph": graph, "M": 1, "mode": {"kind": "one-point", "v0": 0},
                                  "lambda_source": "exhaustive", "sampler": {"kind": "exact"}, "samples": 1,
                                  "seed": 0}))
    assert main(["experiment", "range", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
