import csv
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from liplab.cli import main
from liplab.errors import ConfigError
from liplab.experiments import (
    GRAPH_CHECKS,
    SUITE_CHECKS,
    SuiteGraph,
    VerifyContext,
    build_graph,
    check_count_enumeration,
    check_cover_inequality,
    check_detailed_balance,
    check_entropy,
    default_suite_graphs,
    draw_samples,
    glauber_schedule,
    load_config,
    parse_config,
    range_threshold,
    report_json,
    resolve_ensemble,
    resolve_profile,
    run_covering_check,
    run_range_experiment,
    run_tail_experiment,
    run_verify_suite,
    variance_scale,
)
from liplab.containers import enumerate_linked_sets
from liplab.flaws import conditional_tail_profile, flaw_decomposition
from liplab.graphs import DEFAULT_NODE_BUDGET, complete_graph, cycle_graph, load_edge_list
from liplab.lipschitz import (
    EnsembleSpec,
    LipschitzFn,
    count_groundstate,
    count_onepoint,
    enumerate_onepoint,
    fn_range,
    load_function,
    marginal_groundstate,
    member_batches,
    min_ground_state,
)
from tests.conftest import CountingGenerator, reference_glauber


def base_config(**overrides):
    data = {
        "schema": 1,
        "graph": {"family": "cycle", "n": 4},
        "M": 1,
        "mode": {"kind": "one-point", "v0": 0},
        "sampler": {"kind": "exact"},
        "samples": 100,
        "seed": 7,
        "probes": [2],
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    cfg = load_config(path)
    assert cfg.samples == 100
    assert cfg.constants == {"c": 1.0, "C": 1.0, "c_prime": 1.0}


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(base_config(extra=1))
    with pytest.raises(ConfigError, match="unknown graph keys"):
        parse_config(base_config(graph={"family": "cycle", "n": 4, "d": 3}))
    with pytest.raises(ConfigError, match="sampler"):
        parse_config(base_config(sampler={"kind": "exact", "steps": 5}))


def test_config_rejects_steps_alias():
    # `steps` was an undocumented alias of `thinning`; configs must say `thinning`
    with pytest.raises(ConfigError, match=r"unknown sampler keys: \['steps'\]"):
        parse_config(base_config(sampler={"kind": "glauber", "steps": 5}))
    with pytest.raises(ConfigError, match=r"unknown sampler keys: \['steps'\]"):
        parse_config(base_config(sampler={"kind": "glauber", "steps": 5, "thinning": 5}))


def test_config_requires_schema():
    cfg = base_config()
    del cfg["schema"]
    with pytest.raises(ConfigError, match="schema"):
        parse_config(cfg)


def test_config_mode_validation():
    with pytest.raises(ConfigError, match="v0"):
        parse_config(base_config(mode={"kind": "one-point"}))
    with pytest.raises(ConfigError, match="k"):
        parse_config(base_config(mode={"kind": "ground-state"}))


def test_config_hash_stable():
    a = parse_config(base_config())
    b = parse_config(base_config())
    assert a.config_hash() == b.config_hash()
    c = parse_config(base_config(seed=8))
    assert a.config_hash() != c.config_hash()


def test_build_graph_from_file(tmp_path, petersen):
    from liplab.graphs import save_edge_list

    path = tmp_path / "g.edges"
    save_edge_list(petersen, path)
    g = build_graph({"path": str(path)})
    assert g.n == 10


def test_resolve_profile_sources(k6):
    assert resolve_profile(k6, "spectral").method == "spectral"
    assert resolve_profile(k6, "exhaustive").method == "exhaustive"
    prof = resolve_profile(k6, {"asserted": 1.25})
    assert prof.method == "asserted" and prof.lam == 1.25


# ---------------------------------------------------------------------------
# Range experiment
# ---------------------------------------------------------------------------

def test_range_exact_matches_enumeration_mean(c4):
    # E[R] over the 19-member ensemble, exact
    fns = list(enumerate_onepoint(c4, 0, 1))
    exact_mean = sum(fn_range(f) for f in fns) / len(fns)
    cfg = parse_config(base_config(samples=20_000, seed=3))
    res = run_range_experiment(cfg)
    # 3 sigma of the sample mean (range is bounded by 3, variance < 1)
    assert res.aggregates["mean_range"] == pytest.approx(exact_mean, abs=0.05)


def test_range_records_probe_values():
    cfg = parse_config(base_config(samples=10, probes=[1, 3]))
    res = run_range_experiment(cfg)
    assert list(res.columns) == ["sample_id", "range", "min", "max", "probe_1", "probe_3"]


def test_range_tail_curve_consistent():
    cfg = parse_config(base_config(samples=500))
    res = run_range_experiment(cfg)
    curve = res.aggregates["tail_curve"]
    assert curve[0]["fraction"] == 1.0  # P(R >= 1)
    fracs = [row["fraction"] for row in curve]
    assert fracs == sorted(fracs, reverse=True)


def test_range_tail_curve_has_one_entry_per_distinct_sampled_range():
    # K2 at M = 10^5: the old per-r curve held one entry for every r up to the largest range
    cfg = parse_config(base_config(graph={"family": "complete", "n": 2}, M=10**5,
                                   sampler={"kind": "glauber", "burn_in": 50, "thinning": 3},
                                   samples=5, probes=[0]))
    res = run_range_experiment(cfg)
    ranges = [int(row["range"]) for row in csv.DictReader(res.csv_text().splitlines())]
    curve = res.aggregates["tail_curve"]
    assert len(curve) <= 5
    assert [e["r"] for e in curve] == sorted(set(ranges))
    assert [e["count"] for e in curve] == [sum(r >= e["r"] for r in ranges) for e in curve]
    assert curve[0]["fraction"] == 1.0


def test_range_tail_curve_matches_the_per_r_curve_at_its_ranges():
    cfg = parse_config(base_config(graph={"family": "petersen"}, M=2, samples=300, seed=5))
    res = run_range_experiment(cfg)
    ranges = np.array([int(row["range"]) for row in csv.DictReader(res.csv_text().splitlines())])
    # the curve before it was sized by the samples: one entry for each r = 1 .. max range
    at_least = np.bincount(ranges)[:0:-1].cumsum()[::-1].tolist()
    per_r = {r: {"r": r, "count": count, "fraction": count / len(ranges)} for r, count in enumerate(at_least, 1)}
    curve = res.aggregates["tail_curve"]
    assert len(curve) == len(set(ranges.tolist())) > 1
    assert curve == [per_r[e["r"]] for e in curve]


@pytest.mark.parametrize("kind,overrides", [
    ("range", {"samples": 0}),
    ("tail", {"mode": {"kind": "ground-state", "k": 0}, "graph": {"family": "petersen"},
              "lambda_source": {"asserted": 1.0}, "probes": [3], "t_values": []}),
])
def test_an_empty_table_writes_the_summary_and_no_csv(kind, overrides, tmp_path):
    cfg = parse_config(base_config(**overrides))
    res = (run_range_experiment if kind == "range" else run_tail_experiment)(cfg)
    assert res.csv_text() == ""
    paths = res.write(tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["summary.json"]
    assert paths == {"summary": str(tmp_path / "summary.json")}
    assert json.loads((tmp_path / "summary.json").read_text())["kind"] == kind


@pytest.mark.parametrize("sampler", [{"kind": "exact"}, {"kind": "glauber", "burn_in": 500, "thinning": 10}],
                         ids=["exact", "glauber"])
def test_tail_csv_floats_parse_back_to_the_rows(sampler):
    cfg = parse_config(base_config(graph={"family": "petersen"}, mode={"kind": "ground-state", "k": 0},
                                   lambda_source={"asserted": 1.0}, sampler=sampler, samples=60, seed=5,
                                   probes=[3], t_values=[0, 1, 2, 3]))
    res = run_tail_experiment(cfg)
    rows = res.aggregates["rows"]
    cells = list(csv.DictReader(res.csv_text().splitlines()))
    assert len(cells) == len(rows) == 4
    for cell, row in zip(cells, rows):
        for key in ("probability", "bound"):
            assert float(cell[key]) == row[key] and isinstance(row[key], float)
        for key in ("t", "threshold", "count_above", "ensemble_size"):
            assert int(cell[key]) == row[key]


def test_range_aggregates_recomputable_from_csv():
    cfg = parse_config(base_config(samples=300, probes=[2]))
    res = run_range_experiment(cfg)
    rows = list(csv.DictReader(res.csv_text().splitlines()))
    ranges = np.array([int(r["range"]) for r in rows], dtype=np.int64)
    probes = np.array([float(r["probe_2"]) for r in rows])
    assert abs(float(ranges.mean()) - res.aggregates["mean_range"]) <= 1e-12
    assert abs(float(probes.var()) - res.aggregates["probe_stats"]["2"]["variance"]) <= 1e-12


def test_range_byte_reproducible():
    cfg = parse_config(base_config(samples=200))
    assert run_range_experiment(cfg).csv_text() == run_range_experiment(cfg).csv_text()


def test_range_glauber_reproducible():
    cfg = parse_config(
        base_config(
            graph={"family": "random-regular", "n": 20, "d": 3, "seed": 5},
            sampler={"kind": "glauber", "burn_in": 500, "thinning": 20},
            samples=30,
            probes=[4],
        )
    )
    assert run_range_experiment(cfg).csv_text() == run_range_experiment(cfg).csv_text()


def _draws_sha256(data):
    cfg = parse_config(data)
    draws, _ = draw_samples(resolve_ensemble(cfg), cfg)
    return hashlib.sha256(json.dumps(draws.tolist()).encode()).hexdigest()


def test_glauber_draw_samples_golden():
    # digests of the states of `conftest.reference_glauber`, one chain on default_rng(seed), at the marks
    range_cfg = base_config(
        graph={"family": "random-regular", "n": 30, "d": 3, "seed": 2},
        M=2,
        sampler={"kind": "glauber", "burn_in": 3000, "thinning": 40},
        samples=50,
        seed=0,
        probes=[],
    )
    assert _draws_sha256(range_cfg) == "7e584d685f83581788c65e4f233d0d4b6c22c40f6c6b2b9c80a56350795acea3"
    tail_cfg = base_config(
        graph={"family": "random-regular", "n": 20, "d": 3, "seed": 1},
        mode={"kind": "ground-state", "k": 0},
        lambda_source={"asserted": 0.3},
        sampler={"kind": "glauber", "burn_in": 2000, "thinning": 30},
        samples=50,
        seed=0,
        probes=[],
    )
    assert _draws_sha256(tail_cfg) == "d26cea2ed3f7b1f0c5248b26b867f9e4ad45e3bd8d50daa3dcc505b8d5ea30c0"
    default_cfg = base_config(graph={"family": "cycle", "n": 6}, sampler={"kind": "glauber"},
                              samples=20, seed=0, probes=[])
    assert _draws_sha256(default_cfg) == "153da13eda357dcf0e184d7e5a2d1b29f64a92ab063e195162f998b5ce150233"


def test_glauber_summary_reports_schedule():
    explicit = run_range_experiment(parse_config(base_config(
        graph={"family": "cycle", "n": 6},
        sampler={"kind": "glauber", "burn_in": 300, "thinning": 7},
        samples=11,
    )))
    assert explicit.aggregates["sampler"] == {"burn_in": 300, "thinning": 7, "chain_steps": 300 + 11 * 7,
                                              "rejected": 0, "rejection_rate": 0.0}
    # defaults: burn-in 100*n*M, thinning n
    defaulted = run_range_experiment(parse_config(base_config(
        graph={"family": "cycle", "n": 6}, M=2, sampler={"kind": "glauber"}, samples=5,
    )))
    assert defaulted.aggregates["sampler"] == {"burn_in": 1200, "thinning": 6, "chain_steps": 1230,
                                               "rejected": 0, "rejection_rate": 0.0}
    # the rejection counts are checked against the reference chain below
    tail = run_tail_experiment(tail_config(sampler={"kind": "glauber", "burn_in": 200, "thinning": 5},
                                           samples=40))
    assert tail.aggregates["sampler"] == {"burn_in": 200, "thinning": 5, "chain_steps": 400, "rejected": 24,
                                          "rejection_rate": 24 / 400}
    tail_default = run_tail_experiment(tail_config(sampler={"kind": "glauber"}, samples=3))
    assert tail_default.aggregates["sampler"] == {"burn_in": 600, "thinning": 6, "chain_steps": 618,
                                                  "rejected": 31, "rejection_rate": 31 / 618}
    # a run of no steps rejects no share of them
    empty = tail_config(sampler={"kind": "glauber", "burn_in": 0, "thinning": 5}, samples=0)
    assert draw_samples(resolve_ensemble(empty), empty)[1] == {"burn_in": 0, "thinning": 5, "chain_steps": 0,
                                                               "rejected": 0, "rejection_rate": 0.0}
    # exact runs report no sampler block
    assert "sampler" not in run_range_experiment(parse_config(base_config())).aggregates
    assert "sampler" not in run_tail_experiment(tail_config()).aggregates


def _sample_marks(g, cfg):
    """The step counts at which a Glauber experiment's one run on `g` records
    its state: the end of the burn-in, then every `thinning` steps."""
    schedule = glauber_schedule(g, cfg)
    return [schedule["burn_in"] + i * schedule["thinning"] for i in range(cfg.samples + 1)]


def test_glauber_summary_counts_rejections(tmp_path):
    # ground state on K6 at lam = 1: the flaw cap (2) rejects moves
    tail_cfg = tail_config(sampler={"kind": "glauber", "burn_in": 200, "thinning": 5}, samples=40, seed=7)
    _, rejected = reference_glauber(complete_graph(6), resolve_ensemble(tail_cfg).spec, tail_cfg.seed,
                                    _sample_marks(complete_graph(6), tail_cfg))
    assert rejected > 0
    tail = run_tail_experiment(tail_cfg)
    assert tail.aggregates["sampler"]["rejected"] == rejected
    with open(tail.write(tmp_path / "tail")["summary"]) as fh:
        sampler = json.load(fh)["aggregates"]["sampler"]
    assert sampler["rejected"] == rejected
    assert sampler["rejection_rate"] == rejected / 400 == rejected / sampler["chain_steps"]
    # a one-point chain rejects nothing
    range_cfg = parse_config(base_config(graph={"family": "random-regular", "n": 20, "d": 3, "seed": 1}, M=2,
                                         sampler={"kind": "glauber", "burn_in": 300, "thinning": 20},
                                         samples=30, seed=7))
    ens = resolve_ensemble(range_cfg)
    states, rejected = reference_glauber(ens.g, ens.spec, range_cfg.seed, _sample_marks(ens.g, range_cfg))
    assert rejected == 0
    samples, _ = draw_samples(ens, range_cfg)
    assert samples.tolist() == [list(f.values) for f in states[1:]]
    paths = run_range_experiment(range_cfg).write(tmp_path / "range")
    with open(paths["summary"]) as fh:
        sampler = json.load(fh)["aggregates"]["sampler"]
    assert (sampler["rejected"], sampler["rejection_rate"]) == (0, 0.0)
    # results.csv is the reference chain's, whatever the summary adds
    rows = [f"{i},{max(f.values) - min(f.values) + 1},{min(f.values)},{max(f.values)},{f.values[2]}"
            for i, f in enumerate(states[1:])]
    with open(tmp_path / "range" / "results.csv") as fh:
        assert fh.read() == "sample_id,range,min,max,probe_2\n" + "".join(row + "\n" for row in rows)


def test_glauber_schedule_keeps_csv(tmp_path):
    cfg = parse_config(base_config(sampler={"kind": "glauber", "burn_in": 100, "thinning": 4}, samples=10))
    paths = run_range_experiment(cfg).write(tmp_path)
    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    assert summary["aggregates"]["sampler"]["chain_steps"] == 140
    with open(tmp_path / "results.csv") as fh:
        assert fh.readline().strip() == "sample_id,range,min,max,probe_2"


def test_range_gates_on_k6():
    cfg = parse_config(base_config(graph={"family": "complete", "n": 6}, samples=5))
    res = run_range_experiment(cfg)
    assert res.gates["hypotheses_hold"]
    assert res.aggregates["range_threshold_display"] is not None


def test_threshold_and_variance_helpers():
    assert range_threshold(6, 5, 1.0, 1, 1.0) == pytest.approx(
        math.log2(math.log2(6)) / math.log2(5.0) + 4
    )
    assert range_threshold(6, 5, 0.0, 1, 1.0) is None
    assert variance_scale(5, 1.0, 1) is None  # ceiling collapses to zero at M=1
    assert variance_scale(5, 1.0, 4) == (4 * math.ceil(2 / math.log2(2.5))) ** 2
    assert variance_scale(5, 3.0, 4) is None  # d <= 2 lam


def test_result_write(tmp_path):
    cfg = parse_config(base_config(samples=10))
    res = run_range_experiment(cfg)
    paths = res.write(tmp_path / "out")
    assert (tmp_path / "out" / "results.csv").exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["provenance"]["config_hash"] == cfg.config_hash()
    assert "timestamp" in summary["provenance"]


def test_flaw_dump(tmp_path):
    cfg = parse_config(base_config(graph={"family": "complete", "n": 6}, samples=8,
                                   dump_flaws=True))
    res = run_range_experiment(cfg)
    res.write(tmp_path / "out")
    lines = (tmp_path / "out" / "flaws.jsonl").read_text().strip().splitlines()
    assert len(lines) == 8
    row = json.loads(lines[0])
    assert set(row) == {"sample_id", "anchor", "base", "cluster", "core"}


# ---------------------------------------------------------------------------
# Tail experiment
# ---------------------------------------------------------------------------

def tail_config(**overrides):
    data = base_config(
        graph={"family": "complete", "n": 6},
        mode={"kind": "ground-state", "k": 0},
        samples=0,
        t_values=[1, 2, 3, 4],
        probes=[0],
    )
    data.update(overrides)
    return parse_config(data)


def test_tail_exact_matches_flaw_module(k6):
    res = run_tail_experiment(tail_config())
    direct = conditional_tail_profile(k6, 1, resolve_profile(k6, "spectral").lam, 0, [1, 2, 3, 4])
    assert res.aggregates["rows"] == direct  # bit-for-bit


def test_tail_monotone_and_bound_formula(k6):
    res = run_tail_experiment(tail_config())
    rows = res.aggregates["rows"]
    probs = [r["probability"] for r in rows]
    assert probs == sorted(probs, reverse=True)
    from liplab.graphs import ball

    for r in rows:
        expected = 2.0 ** (-ball(k6, 0, max(r["t"] - 1, 0)).bit_count() / 5.0)
        assert r["bound"] == expected


def test_tail_requires_ground_state():
    with pytest.raises(ConfigError, match="ground-state"):
        run_tail_experiment(parse_config(base_config(t_values=[2])))


def test_tail_empirical_mode():
    cfg = tail_config(
        sampler={"kind": "glauber", "burn_in": 2000, "thinning": 10},
        samples=500,
    )
    res = run_tail_experiment(cfg)
    assert res.aggregates["estimate"] == "empirical"
    assert all(not r["asserted"] for r in res.aggregates["rows"])


def test_tail_exact_thresholds_follow_base():
    mode = {"kind": "ground-state", "k": 2}
    exact = run_tail_experiment(tail_config(mode=mode)).aggregates["rows"]
    glauber = run_tail_experiment(tail_config(
        mode=mode, sampler={"kind": "glauber", "burn_in": 200, "thinning": 5}, samples=50,
    )).aggregates["rows"]
    assert [r["threshold"] for r in exact] == [r["threshold"] for r in glauber] == [4, 5, 6, 7]
    base0 = run_tail_experiment(tail_config()).aggregates["rows"]
    assert [r["threshold"] for r in base0] == [2, 3, 4, 5]
    # shifting the base shifts the ensemble and the thresholds together
    for key in ("count_above", "ensemble_size", "probability"):
        assert [r[key] for r in exact] == [r[key] for r in base0]


# ---------------------------------------------------------------------------
# Covering check
# ---------------------------------------------------------------------------

def test_covering_k6_exact():
    report = run_covering_check(tail_config())
    assert report["ground_state_count"] == 106
    assert report["one_point_count"] == 63
    assert report["bound"] == 126
    assert report["status"] == "pass" and report["asserted"]


def test_covering_k_shift_invariance():
    a = run_covering_check(tail_config(mode={"kind": "ground-state", "k": 0}))
    b = run_covering_check(tail_config(mode={"kind": "ground-state", "k": 7}))
    assert a["ground_state_count"] == b["ground_state_count"]


def test_covering_m0_degenerate():
    report = run_covering_check(tail_config(M=0))
    # constants only: the window holds one function and the bound is 1 * 1
    assert report["ground_state_count"] == 1
    assert report["one_point_count"] == 1
    assert report["holds"]


def test_covering_infinite_guard():
    report = run_covering_check(
        parse_config(
            base_config(
                graph={"family": "cycle", "n": 4},
                mode={"kind": "ground-state", "k": 0},
                samples=0,
            )
        )
    )
    assert report["status"] == "skipped"
    assert "infinite" in report["reason"]


# ---------------------------------------------------------------------------
# Verify suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_suite():
    """The default suite at seed 0, run once for the tests that only read it."""
    return run_verify_suite(seed=0)


def test_verify_suite_default_passes(default_suite):
    suite = default_suite
    assert suite["ok"], [r for r in suite["rows"] if r["status"] == "fail"]
    assert suite["n_fail"] == 0
    skipped = [r for r in suite["rows"] if r["status"] == "skipped"]
    assert all(r.get("reason") for r in skipped)  # skips always name the hypothesis


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_count(capsys):
    code = main(["count", "--graph", '{"family":"complete","n":6}', "--M", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 63


def test_cli_count_groundstate(capsys):
    code = main(
        ["count", "--graph", '{"family":"complete","n":6}', "--M", "1",
         "--mode", "ground-state", "--k", "0"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 106


@pytest.mark.parametrize("command", ["count", "enumerate", "sample"])
@pytest.mark.parametrize("flags,message", [
    (["--k", "3"], "--k does not apply to one-point mode"),
    (["--mode", "ground-state", "--v0", "4"], "--v0 does not apply to ground-state mode"),
], ids=["k-in-one-point", "v0-in-ground-state"])
def test_cli_refuses_the_flag_of_the_other_mode(command, flags, message, capsys):
    # as a config whose mode names both v0 and k is refused
    argv = [command, "--graph", '{"family":"complete","n":6}', "--M", "1", *flags]
    assert main([*argv, *(["--samples", "2"] if command == "sample" else [])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_enumerate_limit(capsys):
    argv = ["enumerate", "--graph", '{"family":"cycle","n":4}', "--M", "1", "--limit"]
    code = main([*argv, "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0])["values"][0] == 0
    assert main([*argv, "0"]) == 0
    assert capsys.readouterr().out == ""
    assert main([*argv, "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --limit: must be an integer >= 0, got -3\n")


@pytest.mark.parametrize("command", ["count", "enumerate", "sample"])
def test_cli_ensemble_flags_are_checked_like_config_keys(command, capsys):
    argv = [command, "--graph", '{"family":"cycle","n":4}'] + (["--samples", "2"] if command == "sample" else [])
    for flags, message in ((["--M", "-1"], "M must be a nonnegative integer"),
                           (["--M", "1", "--lambda-source", "bogus"], "bad --lambda-source 'bogus'")):
        assert main([*argv, *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_cli_one_point_ensemble_computes_no_certificate(command, monkeypatch, capsys):
    import liplab.experiments as experiments

    def no_eigensolve(g):
        raise AssertionError("spectral_lambda called")

    monkeypatch.setattr(experiments, "spectral_lambda", no_eigensolve)
    assert main([command, "--graph", '{"family":"cycle","n":4}', "--M", "1"]) == 0
    assert main([command, "--graph", '{"family":"cycle","n":4}', "--M", "1", "--mode", "ground-state"]) == 4


def test_glauber_refuses_an_anchor_off_the_graph(capsys):
    assert main(["sample", "--graph", '{"family":"cycle","n":6}', "--M", "1", "--samples", "3",
                 "--sampler", "glauber", "--v0", "99"]) == 2
    assert capsys.readouterr() == ("", "error: invalid anchor vertex 99\n")


def test_flaw_dump_on_degree_zero_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(graph={"family": "complete", "n": 1}, probes=[0], samples=2,
                                               dump_flaws=True)))
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == "error: ground-state mode needs a graph of degree >= 1, got degree 0\n"
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("text,message", [
    ('{"M": 1, "values": [0, 1, 0]}', "{path}: value array has length 3, graph has 4 vertices"),
    ('{"values": [0, 1, 0, 1]}', '{path}: a function file is {{"M": integer >= 0, "values": [integer, ...]}}'),
    ('{"M": 1, "values": [0, 5, 0, 0]}', "{path}: values are not 1-Lipschitz on C4"),
], ids=["three-values-on-C4", "no-M", "not-Lipschitz"])
def test_cli_flaws_rejects_a_bad_function_file(text, message, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(text)
    assert main(["flaws", "--graph", '{"family":"cycle","n":4}', "--function", str(path), "--anchor", "0"]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


def _edge_file(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text)
    return str(path)


def _function_file(tmp_path, text='{"M": 1, "values": [0, 1, 0, 1]}'):
    path = tmp_path / "f.json"
    path.write_text(text)
    return str(path)


# each user input error through `main`: its argv, its message, and the library call
# that raises `ConfigError` at the boundary (None: argparse refuses it first)
_CONFIG_ERRORS = {
    "count-v0": (lambda tmp: ["count", "--graph", '{"family":"cycle","n":4}', "--M", "1", "--v0", "9"],
                 "error: invalid anchor vertex 9\n",
                 lambda tmp: count_onepoint(complete_graph(4), 9, 1)),
    "flaws-anchor": (lambda tmp: ["flaws", "--graph", '{"family":"cycle","n":4}', "--function",
                                  _function_file(tmp), "--anchor", "9"],
                     "error: invalid anchor vertex 9\n",
                     lambda tmp: flaw_decomposition(complete_graph(4), LipschitzFn((0, 1, 0, 1), 1), 9)),
    "containers-vertex": (lambda tmp: ["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "6",
                                       "--vertex", "50"],
                          "error: invalid vertex id 50\n",
                          lambda tmp: enumerate_linked_sets(complete_graph(4), 50, 3, 4)),
    "containers-linkage": (lambda tmp: ["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "6",
                                        "--linkage", "0"],
                           "argument --linkage: must be an integer >= 1, got 0\n",
                           None),
    "edge-list-header": (lambda tmp: ["count", "--graph", _edge_file(tmp, "x 1\n0 1\n"), "--M", "1"],
                         "error: {tmp}/g.edges: invalid literal for int() with base 10: 'x'\n",
                         lambda tmp: load_edge_list(_edge_file(tmp, "x 1\n0 1\n"))),
    "function-not-json": (lambda tmp: ["flaws", "--graph", '{"family":"cycle","n":4}', "--function",
                                       _function_file(tmp, "not json"), "--anchor", "0"],
                          "error: {tmp}/f.json: invalid JSON (Expecting value: line 1 column 1 (char 0))\n",
                          lambda tmp: load_function(_function_file(tmp, "not json"))),
    "infinite-ensemble": (lambda tmp: ["count", "--graph", '{"family":"petersen"}', "--M", "1", "--mode",
                                       "ground-state", "--lambda-source", "3"],
                          "error: flaw allowance 20 admits every function (n=10); the ensemble is infinite\n",
                          lambda tmp: count_groundstate(complete_graph(6), 0, 1, 5.0)),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_ERRORS))
def test_user_input_errors_are_config_errors_that_exit_2(case, tmp_path, capsys):
    argv, message, library_call = _CONFIG_ERRORS[case]
    assert main(argv(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(message.format(tmp=tmp_path))
    if library_call is not None:
        assert err == message.format(tmp=tmp_path)
        with pytest.raises(ConfigError):
            library_call(tmp_path)


def test_ground_state_dp_refuses_an_anchor_off_the_graph(petersen):
    with pytest.raises(ConfigError, match="invalid anchor vertex 10"):
        marginal_groundstate(petersen, 0, 1, 1.0, 10)


def test_cli_gen_graph_and_sample(tmp_path, capsys):
    out_file = str(tmp_path / "c6.edges")
    assert main(["gen-graph", "--graph", '{"family":"cycle","n":6}', "--out-file", out_file]) == 0
    capsys.readouterr()
    code = main(["sample", "--graph", out_file, "--M", "1", "--samples", "4", "--seed", "3",
                 "--probes", "0", "2"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "sample_id,range,min,max,probe_0,probe_2"
    assert len(out) == 5


def test_cli_usage_error():
    assert main(["count", "--graph", "nonexistent.edges", "--M", "1"]) == 2


def test_cli_budget_exit():
    code = main(["count", "--graph", '{"family":"hypercube","dim":3}', "--M", "2",
                 "--budget", "10"])
    assert code == 3


def test_cli_budget_message_names_stage_and_layer(capsys):
    code = main(["count", "--graph", '{"family":"cycle","n":14}', "--M", "1", "--budget", "10"])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err == "error: count exceeded node budget (13 > 10) at layer 2/14, width 3 states"


def test_cli_budget_bounds_the_work_of_one_state(capsys):
    # one K2 state has 2M + 1 live values; they are charged before any is built
    tracemalloc.start()
    try:
        code = main(["count", "--graph", '{"family":"complete","n":2}', "--M", "200000", "--budget", "100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.strip() == (
        "error: count exceeded node budget (400002 > 100) at layer 1/2, width 1 states")
    assert peak < 5_000_000


def test_cli_experiment_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(samples=20)))
    out_dir = str(tmp_path / "res")
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", out_dir]) == 0
    assert (tmp_path / "res" / "results.csv").exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(bogus=1)))
    assert main(["experiment", "range", "--config", str(bad)]) == 2


def test_cli_verify_small(capsys):
    code = main(["verify", "--graph", '{"family":"complete","n":6}'])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 fail" in out


def test_cli_verify_degree_0_graph_gets_one_skipped_row(tmp_path, capsys):
    # K1 is 0-regular: the graph checks divide by d, so K1 is skipped as a
    # non-regular graph is
    assert main(["verify", "--graph", '{"family":"complete","n":1}', "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    suite = json.loads((tmp_path / "verify_report.json").read_text())
    assert suite["n_fail"] == 0
    assert [r for r in suite["rows"] if r["graph"] == "K1"] == [
        {"check": "expander-certificate", "graph": "K1", "status": "skipped", "reason": "d = 0"}]


def test_cli_verify_1_regular_graph_skips_the_containers(tmp_path, capsys):
    # the container checks refine at psi = 1, outside [1, d/2] when d = 1
    assert main(["verify", "--graph", '{"family":"complete","n":2}', "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    suite = json.loads((tmp_path / "verify_report.json").read_text())
    assert (suite["n_pass"], suite["n_fail"], suite["n_skipped"]) == (11, 0, 6)
    reason = "psi = 1 lies outside [1, d/2] = [1, 0.5]"
    containers = ("container-covering", "pair-size-bound")
    assert [r for r in suite["rows"] if r["check"] in containers] == [
        {"check": check, "graph": "K2", "status": "skipped", "reason": reason} for check in containers]


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    import liplab.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "count_onepoint", broken)
    code = main(["count", "--graph", '{"family":"complete","n":6}', "--M", "1"])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: engine fault\n"


def test_verify_entropy_rows_report_work(default_suite):
    suite = default_suite
    rows = {r["check"]: r for r in suite["rows"] if r["graph"] == "-"}
    assert rows["entropy-properties"]["pmfs"] == 152
    assert rows["entropy-properties"]["checks"] == 17_480
    assert rows["cover-inequality"]["pmfs"] == 151
    assert len(suite["rows"]) == 57
    # the fuzz counters sum `cases` and `instances` over rows; the new fields stay apart
    assert sum(r.get("cases", 0) for r in suite["rows"]) == 1_020
    assert sum(r.get("instances", 0) for r in suite["rows"]) == 3_870


def test_verify_cover_row_reports_the_first_failing_pmf(monkeypatch):
    """A right side pushed below the left one from pmf 37 on fails the row at
    seed 37 with that pmf's sides; the XOR triple is then not checked."""
    import liplab.entropy as entropy_module

    sides = entropy_module._shearer_sides
    calls = []

    def fault_from_pmf_37(stack, cw):
        lhs, rhs, terms = sides(stack, cw)
        calls.append(len(lhs))
        rhs[37:] = lhs[37:] - 1e-6
        return lhs, rhs, terms

    monkeypatch.setattr(entropy_module, "_shearer_sides", fault_from_pmf_37)
    (row,) = check_cover_inequality(VerifyContext(seed=0))
    assert calls == [150]
    assert row["status"] == "fail" and row["pmfs"] == 38
    witness = row["witness"]
    assert witness["seed"] == 37 and witness["rhs"] == pytest.approx(witness["lhs"] - 1e-6, abs=1e-12)
    assert type(witness["lhs"]) is float and type(witness["rhs"]) is float


def test_verify_entropy_row_stops_at_first_failing_pmf(monkeypatch):
    import liplab.entropy as entropy_module
    from liplab.entropy import JointPmf, check_entropy_properties

    k = 7
    pmfs = [JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=s) for s in range(k + 1)]
    expected_checks = sum(check_entropy_properties(pmfs, list(range(k + 1)))["checked"].values())
    kernel = entropy_module._conditional_terms

    def fault_in_pmf_k(joint, given):
        terms = kernel(joint, given)
        if len(terms) == 150:  # only the batch of the 150 random pmfs
            terms[k] += 1e-6
        return terms

    calls = []
    checker = entropy_module.check_entropy_properties
    monkeypatch.setattr(entropy_module, "_conditional_terms", fault_in_pmf_k)
    monkeypatch.setattr(
        entropy_module, "check_entropy_properties",
        lambda pmfs, seeds: calls.append(len(pmfs)) or checker(pmfs, seeds),
    )
    (row,) = check_entropy(VerifyContext(seed=0))
    assert calls == [150]  # the hand-built pmfs are not checked
    assert row["status"] == "fail"
    assert row["pmfs"] == k + 1
    assert row["checks"] == expected_checks
    assert row["witness"]["seed"] == k
    assert set(row["witness"]) == {"seed", "failures"}
    assert [set(f) for f in row["witness"]["failures"]] == [{"property", "witness"}]


_BOOLEAN_OR_NULL_CASES = [
    ({"M": True}, "M must be a nonnegative integer"),
    ({"mode": {"kind": "one-point", "v0": True}}, "one-point mode needs integer v0"),
    ({"mode": {"kind": "ground-state", "k": False}}, "ground-state mode needs integer k"),
    ({"sampler": {"kind": "glauber", "burn_in": True}}, "sampler.burn_in must be an integer >= 0"),
    ({"sampler": {"kind": "glauber", "thinning": True}}, "sampler.thinning must be an integer >= 1"),
    ({"samples": True}, "samples must be a nonnegative integer"),
    ({"seed": True}, "seed must be an unsigned 64-bit integer"),
    ({"budget": True}, "budget must be a positive integer"),
    ({"probes": [True]}, "probes must be a list of vertex ids"),
    ({"t_values": [2, True]}, "t_values must be a list of nonnegative integers"),
    ({"lambda_source": {"asserted": True}}, "lambda_source object form is {'asserted': number}"),
    ({"constants": {"c": None}}, "constants.c must be a number, got None"),
    ({"constants": {"C": "2"}}, "constants.C must be a number, got '2'"),
    ({"constants": {"c_prime": True}}, "constants.c_prime must be a number, got True"),
]


@pytest.mark.parametrize("override,message", _BOOLEAN_OR_NULL_CASES, ids=lambda v: json.dumps(v))
def test_cli_config_rejects_booleans_and_nulls_exits_2(override, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**override)))
    out_dir = tmp_path / "res"
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


# a config file's text, and the error it exits 2 with; "{config}" stands for its path
_REFUSED_CONFIGS = [
    pytest.param(json.dumps(base_config(graph={"name": "C4"})),
                 "graph must be {'path': ...} or {'family': ..., <params>}", id="graph-no-source"),
    pytest.param(json.dumps(base_config(graph={"path": "g.edges", "n": 4})),
                 "graph path entry takes no other keys", id="graph-path-extra-key"),
    pytest.param(json.dumps(base_config(lambda_source="magic")),
                 "unknown lambda_source 'magic'", id="lambda-source-unknown"),
    pytest.param(json.dumps(base_config(mode={"kind": "two-point", "v0": 0})),
                 "mode.kind must be 'one-point' or 'ground-state'", id="mode-kind"),
    pytest.param(json.dumps([base_config()]), "config must be a JSON object", id="not-an-object"),
    pytest.param(json.dumps(base_config(sampler={"kind": "cftp"})),
                 "sampler.kind must be 'exact' or 'glauber'", id="sampler-kind"),
    pytest.param(json.dumps(base_config(out=3)), "out must be a string path", id="out-not-a-string"),
    pytest.param(json.dumps(base_config(dump_flaws=1)), "dump_flaws must be a boolean", id="dump-flaws-1"),
    pytest.param("{not json", "{config}: invalid JSON (Expecting property name enclosed in double "
                 "quotes: line 1 column 2 (char 1))", id="not-json"),
]


@pytest.mark.parametrize("text,message", _REFUSED_CONFIGS)
def test_cli_config_refusals_exit_2(text, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out_dir = tmp_path / "res"
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.replace('{config}', str(cfg_path))}\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_cli_range_reads_the_constants_block(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(graph={"family": "complete", "n": 6}, samples=5,
                                               constants={"c_prime": 2.0})))
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
    with open(tmp_path / "res" / "summary.json") as fh:
        summary = json.load(fh)
    aggregates = summary["aggregates"]
    assert aggregates["constants"] == {"c": 1.0, "C": 1.0, "c_prime": 2.0}
    lam = summary["gates"]["lam"]
    assert aggregates["range_threshold_display"] == range_threshold(6, 5, lam, 1, c_prime=2.0)
    assert aggregates["range_threshold_display"] != range_threshold(6, 5, lam, 1, c_prime=1.0)


def test_cli_range_without_out_prints_the_aggregates(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = base_config(graph={"family": "complete", "n": 6}, samples=5)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["experiment", "range", "--config", "cfg.json"]) == 0
    result = run_range_experiment(load_config(tmp_path / "cfg.json"))
    assert capsys.readouterr().out == report_json({"aggregates": result.aggregates, "gates": result.gates})
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_experiment_covering_writes_covering_json(tmp_path, capsys, k6):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(graph={"family": "complete", "n": 6},
                                               mode={"kind": "ground-state", "k": 0}, samples=0)))
    assert main(["experiment", "covering", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    with open(tmp_path / "res" / "covering.json") as fh:
        text = fh.read()
    assert captured.out == text
    report = json.loads(text)
    lam = resolve_profile(k6, "spectral").lam
    assert report["status"] == "pass"
    assert report["ground_state_count"] == count_groundstate(k6, 0, 1, lam).count == 106
    assert report["one_point_count"] == count_onepoint(k6, 0, 1).count == 63


_STAR = '{"family":"complete-bipartite","a":1,"b":3}'  # K1,3: connected, not regular


@pytest.mark.parametrize("args,message", [
    pytest.param(["count", "--graph", "{bad", "--M", "1"], "bad graph JSON: Expecting property name enclosed "
                 "in double quotes: line 1 column 2 (char 1)", id="malformed-graph-json"),
    pytest.param(["containers", "--graph", _STAR, "--boundary-size", "1"],
                 "container pipeline requires a regular graph", id="containers-not-regular"),
    pytest.param(["count", "--graph", _STAR, "--M", "1", "--mode", "ground-state"],
                 "ground-state mode requires a regular graph", id="ground-state-not-regular"),
    pytest.param(["count", "--graph", _STAR, "--M", "1", "--lambda-source", "0.5"],
                 "asserted lambda requires a regular graph", id="asserted-not-regular"),
])
def test_cli_refuses_graphs_it_cannot_use(args, message, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# One front end per job: config keys, CLI flags, `sample`, tail rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sampler", [
    {"kind": "glauber", "thinning": 0},
    {"kind": "glauber", "burn_in": -10},
    {"kind": "glauber", "thinning": 2.5},
    {"kind": "glauber", "burn_in": "x"},
])
def test_config_rejects_bad_glauber_schedule(sampler):
    with pytest.raises(ConfigError, match=r"sampler\.(burn_in|thinning) must be an integer >= [01]"):
        parse_config(base_config(sampler=sampler))


def test_config_accepts_schedule_edges():
    cfg = parse_config(base_config(sampler={"kind": "glauber", "burn_in": 0, "thinning": 1}, samples=3))
    assert run_range_experiment(cfg).aggregates["sampler"] == {"burn_in": 0, "thinning": 1, "chain_steps": 3,
                                                               "rejected": 0, "rejection_rate": 0.0}


def test_cli_bad_glauber_schedule_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(sampler={"kind": "glauber", "thinning": 2.5})))
    assert main(["experiment", "range", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: sampler.thinning must be an integer >= 1\n"


def test_config_rejects_threads():
    with pytest.raises(ConfigError, match=r"unknown config keys: \['threads'\]"):
        parse_config(base_config(threads=1))


def test_ensemble_spec_has_no_oracle():
    from dataclasses import fields

    from liplab.lipschitz import EnsembleSpec

    assert [f.name for f in fields(EnsembleSpec)] == ["mode", "M", "v0", "k", "lam"]
    with pytest.raises(TypeError):
        EnsembleSpec("one-point", M=1, v0=0, oracle="glauber")


# the shared flags each subcommand reads; argparse rejects the rest
SUBCOMMAND_FLAGS = {
    "gen-graph": set(),
    "spectrum": {"--seed", "--out"},
    "count": {"--budget", "--out"},
    "enumerate": {"--budget"},
    "sample": {"--seed", "--budget", "--out"},
    "flaws": {"--out"},
    "containers": {"--seed", "--budget", "--out"},
    "experiment": {"--out"},
    "verify": {"--seed", "--budget", "--out"},
}
SHARED_FLAGS = {"--seed", "--out", "--budget", "--threads"}
VALID_ARGV = {
    "gen-graph": ["--graph", "{}", "--out-file", "g.edges"],
    "spectrum": ["--graph", "{}"],
    "count": ["--graph", "{}", "--M", "1"],
    "enumerate": ["--graph", "{}", "--M", "1"],
    "sample": ["--graph", "{}", "--M", "1", "--samples", "1"],
    "flaws": ["--graph", "{}", "--function", "f.json", "--anchor", "0"],
    "containers": ["--graph", "{}", "--boundary-size", "3"],
    "experiment": ["range", "--config", "cfg.json"],
    "verify": [],
}


def test_each_subcommand_has_only_the_flags_it_reads():
    from liplab.cli import make_parser

    parser = make_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert set(sub.choices) == set(SUBCOMMAND_FLAGS)
    settable = 0
    for name, p in sub.choices.items():
        flags = {s for a in p._actions for s in a.option_strings} & SHARED_FLAGS
        assert flags == SUBCOMMAND_FLAGS[name], name
        settable += len(flags)
    assert settable == 16


@pytest.mark.parametrize("command,flag", sorted(
    (command, flag) for command, flags in SUBCOMMAND_FLAGS.items() for flag in SHARED_FLAGS - flags
))
def test_dropped_flags_are_rejected_by_the_parser(command, flag):
    from liplab.cli import make_parser

    parser = make_parser()
    parser.parse_args([command, *VALID_ARGV[command]])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *VALID_ARGV[command], flag, "1"])
    assert exc.value.code == 2


def test_main_builds_one_parser_and_shares_no_state(capsys):
    from liplab.cli import make_parser

    graph = '{"family":"cycle","n":4}'
    assert main(["count", "--graph", graph, "--M", "1", "--v0", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["anchor"] == 3
    # a flag left out takes its default again, not the last call's value
    assert main(["count", "--graph", graph, "--M", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["anchor"] == 0
    assert main(["sample", "--graph", graph, "--M", "1", "--samples", "2", "--probes", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sample_id,range,min,max,probe_1"
    assert main(["sample", "--graph", graph, "--M", "1", "--samples", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sample_id,range,min,max,probe_0"
    # a usage error after a successful call still exits 2, and the next call runs
    assert main(["count", "--graph", graph]) == 2
    assert main(["count", "--graph", graph, "--M", "1", "--budget", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["count", "--graph", graph, "--M", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 19
    assert make_parser() is make_parser()
    assert make_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ["experiment", "range", "--config", "cfg.json", "--seed", "999"],
    ["gen-graph", "--graph", '{"family":"cycle","n":4}', "--out-file", "g.edges", "--budget", "1"],
    ["enumerate", "--graph", '{"family":"cycle","n":4}', "--M", "1", "--out", "out"],
    ["sample", "--graph", '{"family":"cycle","n":4}', "--M", "1", "--samples", "2", "--threads", "2"],
])
def test_cli_dropped_flags_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(base_config(samples=2)))
    assert main(argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]  # nothing ran


def _sample_cli(capsys, *argv):
    capsys.readouterr()
    assert main(["sample", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("sampler", ["exact", "glauber"])
@pytest.mark.parametrize("graph,mode,lam", [
    ({"family": "hypercube", "dim": 3}, {"kind": "one-point", "v0": 5}, "spectral"),
    ({"family": "complete", "n": 6}, {"kind": "ground-state", "k": 1}, {"asserted": 1.0}),
])
def test_sample_cli_equals_experiment_range(sampler, graph, mode, lam, tmp_path, capsys):
    argv = ["--graph", json.dumps(graph), "--M", "1", "--mode", mode["kind"],
            "--sampler", sampler, "--samples", "25", "--seed", "17", "--probes", "0", "3",
            "--out", str(tmp_path / "s")]
    argv += ["--v0", str(mode["v0"])] if "v0" in mode else ["--k", str(mode["k"])]
    if isinstance(lam, dict):
        argv += ["--lambda-source", str(lam["asserted"])]
    text = _sample_cli(capsys, *argv)
    cfg = parse_config(base_config(graph=graph, mode=mode, lambda_source=lam, sampler={"kind": sampler},
                                   samples=25, seed=17, probes=[0, 3]))
    expected = run_range_experiment(cfg).csv_text()
    assert text == expected
    assert len(text.splitlines()) == 26
    assert (tmp_path / "s" / "samples.csv").read_text() == expected


@pytest.mark.parametrize("sampler", ["exact", "glauber"])
def test_sample_cli_probes_default_to_the_anchor(sampler, capsys):
    graph = {"family": "hypercube", "dim": 3}
    text = _sample_cli(capsys, "--graph", json.dumps(graph), "--M", "1", "--v0", "5", "--samples", "6",
                       "--seed", "2", "--sampler", sampler)
    assert text.splitlines()[0] == "sample_id,range,min,max,probe_5"
    cfg = base_config(graph=graph, mode={"kind": "one-point", "v0": 5}, sampler={"kind": sampler},
                      samples=6, seed=2)
    del cfg["probes"]
    assert text == run_range_experiment(parse_config(cfg)).csv_text()


def test_sample_cli_with_no_exact_samples_prints_nothing(capsys):
    assert _sample_cli(capsys, "--graph", '{"family":"cycle","n":6}', "--M", "1", "--samples", "0") == ""


def test_exact_draw_samples_seed_one_generator_per_batch(monkeypatch):
    # one generator of SeedSequence(seed) and one `integers` call for the
    # whole batch: no stream per sample
    made = []

    def default_rng(seed):
        made.append(CountingGenerator(np.random.Generator(np.random.PCG64(seed))))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    cfg = parse_config(base_config(graph={"family": "hypercube", "dim": 3}, samples=300, seed=8))
    samples, _ = draw_samples(resolve_ensemble(cfg), cfg)
    assert len(samples) == 300
    assert [m.calls for m in made] == [{"integers": 1}]


def test_sample_cli_glauber_output_unchanged(capsys):
    # sha256 of the output with the samples of `conftest.reference_glauber` at the marks
    text = _sample_cli(capsys, "--graph", '{"family":"cycle","n":6}', "--M", "1", "--samples", "20",
                       "--seed", "3", "--sampler", "glauber", "--probes", "0", "2")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f81d7bb48d47ce9b1115b75e1a418eeea69e9236336a180041e09e90a6b6642f")
    text = _sample_cli(capsys, "--graph", '{"family":"complete","n":6}', "--M", "1",
                       "--mode", "ground-state", "--k", "0", "--lambda-source", "1.0",
                       "--samples", "15", "--seed", "11", "--sampler", "glauber", "--probes", "0", "3")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "40ef9147bae1892697dce564ebd1f2909fc49e33c9749a9c2818a45c71d5bb36")


def test_sample_cli_exact_output_unchanged(capsys):
    # sha256 of the output recorded before the samples became one value array
    text = _sample_cli(capsys, "--graph", '{"family":"hypercube","dim":3}', "--M", "1", "--sampler", "exact",
                       "--samples", "200", "--seed", "5", "--probes", "0", "7")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f00b11962e3d9d36f8ab946a2d65b43507e2f9d32ea187f913df55adceced23e")
    text = _sample_cli(capsys, "--graph", '{"family":"complete","n":6}', "--M", "1",
                       "--mode", "ground-state", "--k", "0", "--lambda-source", "1.0", "--sampler", "exact",
                       "--samples", "200", "--seed", "17", "--probes", "0", "3")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b1c376de9907d26c476550f9e1bd19cdc48797461dce07e9be8a0d971b3b5c63")
    # values far past int64: the samples are Python ints in an object array
    text = _sample_cli(capsys, "--graph", '{"family":"complete","n":8}', "--M", "2",
                       "--mode", "ground-state", "--k", str(10**20), "--lambda-source", "1.0",
                       "--sampler", "exact", "--samples", "50", "--seed", "3", "--probes", "1")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5d1425258b7be8465c1219b1c2610c84234e7d9e72733edcb158185a96eda631")
    # a 313-bit ensemble size: multi-word rank draws, Python-int rank arrays
    text = _sample_cli(capsys, "--graph", '{"family":"cycle","n":200}', "--M", "1", "--sampler", "exact",
                       "--samples", "50", "--seed", "7", "--probes", "0", "100")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3ae0f193f2478d140c8bf9a2ce45ca589a9034edab11d0ca581b175d54af0806")


@pytest.mark.parametrize("sampler,csv_digest,flaws_digest", [
    ({"kind": "exact"}, "7a68352ecf773d4cb3f97e7b9eccdb9d09a4cc7ad127e3e281ad33656c761825",
     "dccdd2a7c5ab903eaccb41040b328fdc5dfc3547e4b37a97d72d854d7b3126fc"),
    ({"kind": "glauber", "burn_in": 300, "thinning": 10},
     "2b8dcbca62056f9d2465242d37fb65f08c096cb93483a78dbfa503f5c393fff9",
     "cbcb345574cde239c6771b292b12efd8d7b3c45d0cac5c5b3a3b61dbf2a7044c"),
], ids=["exact", "glauber"])
def test_range_dump_flaws_output_unchanged(sampler, csv_digest, flaws_digest):
    # sha256 of results.csv and flaws.jsonl: the exact ones recorded before the samples became one
    # value array, the Glauber ones with the samples of `conftest.reference_glauber` at the marks
    cfg = parse_config(base_config(graph={"family": "petersen"}, sampler=sampler, samples=40, seed=11,
                                   probes=[0], dump_flaws=True))
    res = run_range_experiment(cfg)
    assert hashlib.sha256(res.csv_text().encode()).hexdigest() == csv_digest
    assert hashlib.sha256(res.extra_files["flaws.jsonl"].encode()).hexdigest() == flaws_digest


def test_range_dump_flaws_without_a_ground_state_is_a_config_error(tmp_path, capsys):
    # at an asserted lam = 0 the flaw allowance is 0, and a sample of C8 with a range
    # over M + 1 = 2 values has no window base at all: exit 2, and nothing is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(graph={"family": "cycle", "n": 8}, lambda_source={"asserted": 0.0},
                                               samples=20, dump_flaws=True)))
    out = tmp_path / "res"
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == ("error: no ground state: every window base leaves more than 0 flawed vertices, "
                      "the allowance at lambda = 0.0; the expansion certificate is likely invalid\n")
    assert not out.exists()
    # a ConfigError, which is still a ValueError
    with pytest.raises(ConfigError, match="allowance at lambda = 0.0;"):
        min_ground_state(cycle_graph(8), LipschitzFn((0, 1, 2, 1, 0, 0, 0, 0), 1), 0.0)
    assert issubclass(ConfigError, ValueError)


def test_range_glauber_past_int64_output_unchanged():
    # values near 10^20 on the Glauber path: the samples are Python ints in an
    # object array; sha256 with the samples of `conftest.reference_glauber` at the marks
    cfg = parse_config(base_config(graph={"family": "complete", "n": 6}, mode={"kind": "ground-state", "k": 10**20},
                                   lambda_source={"asserted": 1.0},
                                   sampler={"kind": "glauber", "burn_in": 50, "thinning": 3},
                                   samples=30, seed=4, probes=[0, 2]))
    samples, _ = draw_samples(resolve_ensemble(cfg), cfg)
    assert samples.dtype == object
    text = run_range_experiment(cfg).csv_text()
    assert text.splitlines()[1] == "0,2,99999999999999999999,100000000000000000000,100000000000000000000," \
                                   "100000000000000000000"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fd1e57206b7c645fd224dfbeff07cb8eb8e3e5fd12e0d1bc76d9c5f0682547e1")


@pytest.mark.parametrize("sampler", [{"kind": "exact"}, {"kind": "glauber", "burn_in": 50, "thinning": 3},
                                     {"kind": "glauber"}], ids=["exact", "glauber", "glauber-default-burn-in"])
def test_range_past_int64_is_refused_before_sampling(sampler, tmp_path, capsys):
    # a range can reach M*(n-1)+1 = 2^70 + 1 on K2, past int64: refused before any draw
    M = 2**70
    message = f"error: range experiment needs M*(n-1)+1 < 2^62, got M={M} on n=2\n"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(graph={"family": "complete", "n": 2}, M=M, sampler=sampler,
                                               samples=5, probes=[0])))
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "res").exists()
    if "burn_in" not in sampler:
        assert main(["sample", "--graph", '{"family":"complete","n":2}', "--M", str(M),
                     "--sampler", sampler["kind"], "--samples", "5"]) == 2
        assert capsys.readouterr() == ("", message)


def test_sample_cli_rejects_seed_past_64_bits(capsys):
    code = main(["sample", "--graph", '{"family":"cycle","n":6}', "--M", "1", "--samples", "2",
                 "--seed", str(2**64)])
    assert code == 2
    assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err


def test_cli_verify_takes_the_largest_seeds(capsys):
    # the reproducibility row derives its config's seed modulo 2^64
    assert main(["verify", "--graph", '{"family":"cycle","n":4}', "--seed", str(2**64 - 6)]) == 0
    out = capsys.readouterr().out
    assert "reproducibility" in out
    assert ", 0 fail," in out


def test_cli_verify_runs_without_scipy():
    # scipy and networkx are test dependencies: no liplab module imports them
    code = ("import sys; sys.modules['scipy'] = sys.modules['networkx'] = None; "
            "from liplab.cli import main; sys.exit(main(['verify', '--graph', '{\"family\":\"cycle\",\"n\":4}']))")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert ", 0 fail," in proc.stdout


def test_report_json_refuses_what_json_cannot_hold():
    assert report_json({"b": [1], "a": None}) == '{\n  "a": null,\n  "b": [\n    1\n  ]\n}\n'
    with pytest.raises(TypeError):
        report_json({"members": {1, 2}})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(TypeError, match="not JSON compliant"):
            report_json({"ratio": value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cli_report_with_a_non_finite_float_is_an_internal_error(value, monkeypatch, capsys, tmp_path):
    import liplab.cli as cli

    monkeypatch.setattr(cli, "count_onepoint", lambda *args, **kwargs: SimpleNamespace(count=1, ratio=value))
    out = tmp_path / "out"
    assert main(["count", "--graph", '{"family":"cycle","n":4}', "--M", "1", "--out", str(out)]) == 4
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith("internal error: TypeError: Out of range float values are not JSON compliant")
    assert not out.exists()


def test_tail_experiment_takes_one_probe(tmp_path, capsys):
    cfg = base_config(graph={"family": "petersen"}, mode={"kind": "ground-state", "k": 0},
                      lambda_source={"asserted": 1.0}, samples=0, probes=[0, 3])
    message = "tail experiment takes one probe, got probes [0, 3]"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_tail_experiment(parse_config(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "tail", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Petersen, M=1, asserted lam=1.0, probe 3, t = 0, 1, 2: the rows the tail
# experiment reported before its two branches shared `tail_rows`; the Glauber
# counts are those of `conftest.reference_glauber`'s states at the marks
_PETERSEN_GATE = {"M <= (log n)^C": True, "M <= c*d^1.5/(lam*log d)": True, "d/5 <= c*n": True,
                  "lam <= d/5": False}
_PETERSEN_TAIL = {
    "glauber": [(0, 1, 16, 60, 0.26666666666666666), (1, 2, 0, 60, 0.0), (2, 3, 0, 60, 0.0)],
    "exact": [(0, 1, 854, 6368, 0.13410804020100503), (1, 2, 25, 6368, 0.003925879396984924),
              (2, 3, 0, 6368, 0.0)],
}
_PETERSEN_BOUNDS = [0.8705505632961241, 0.8705505632961241, 0.5743491774985174]


@pytest.mark.parametrize("sampler", ["glauber", "exact"])
def test_tail_rows_match_the_old_branches(sampler):
    sampler_cfg = {"kind": "glauber", "burn_in": 500, "thinning": 10} if sampler == "glauber" else {"kind": "exact"}
    cfg = parse_config(base_config(graph={"family": "petersen"}, mode={"kind": "ground-state", "k": 0},
                                   lambda_source={"asserted": 1.0}, sampler=sampler_cfg,
                                   samples=60 if sampler == "glauber" else 0, seed=5, probes=[3],
                                   t_values=[2, 0, 1]))
    res = run_tail_experiment(cfg)
    expected = []
    for (t, thr, above, size, prob), bound in zip(_PETERSEN_TAIL[sampler], _PETERSEN_BOUNDS):
        expected.append({"t": t, "threshold": thr, "probability": prob, "count_above": above,
                         "ensemble_size": size, "bound": bound, "hypotheses_hold": False,
                         "hypotheses": {**_PETERSEN_GATE, "t >= 2": t >= 2}, "asserted": False,
                         "holds": True})
    rows = res.aggregates["rows"]
    # the Glauber rows now carry the real ball size (None before)
    assert [r.pop("ball_size") for r in rows] == [1, 1, 4]
    assert rows == expected
    assert res.csv_text() == "t,threshold,count_above,ensemble_size,probability,bound\n" + "".join(
        f"{t},{thr},{above},{size},{prob!r},{bound!r}\n"
        for (t, thr, above, size, prob), bound in zip(_PETERSEN_TAIL[sampler], _PETERSEN_BOUNDS))


def test_tail_rows_from_a_sample_marginal(petersen):
    from collections import Counter

    from liplab.flaws import tail_rows

    marginal = Counter({-1: 3, 0: 40, 1: 13, 2: 4})
    rows = tail_rows(petersen, 1, 1.0, 3, [2, 0, 1, 0], marginal, 0, 1.0, 1.0)
    assert [(r["t"], r["threshold"], r["count_above"], r["ensemble_size"]) for r in rows] == [
        (0, 1, 4, 60), (1, 2, 0, 60), (2, 3, 0, 60)]
    assert [r["ball_size"] for r in rows] == [1, 1, 4]
    assert rows[0]["probability"] == 4 / 60
    assert tail_rows(petersen, 1, 1.0, 3, [1], Counter(), 0, 1.0, 1.0)[0]["probability"] == 0.0


def test_verify_covering_rows_pinned(default_suite):
    from liplab.graphs import complete_graph

    suite = default_suite
    rows = [r for r in suite["rows"] if r["check"] == "covering-inequality"]
    assert rows == [
        {"check": "covering-inequality", "graph": "K6", "status": "pass", "lhs": 106, "bound": 126},
        {"check": "covering-inequality", "graph": "C4", "status": "skipped",
         "reason": "flaw allowance 8 >= n: ensemble infinite"},
        {"check": "covering-inequality", "graph": "Q3", "status": "skipped",
         "reason": "flaw allowance 16 >= n: ensemble infinite"},
        {"check": "covering-inequality", "graph": "RR10,3#1", "status": "skipped",
         "reason": "flaw allowance 18 >= n: ensemble infinite"},
    ]
    assert len(suite["rows"]) == 57
    assert sum(r.get("cases", 0) for r in suite["rows"]) == 1_020
    assert sum(r.get("instances", 0) for r in suite["rows"]) == 3_870
    # K5 (lam = 1 > d/5) takes the ungated branch: counted, reported, not asserted
    k5 = run_verify_suite(graphs=[complete_graph(5)], seed=0)
    (row,) = [r for r in k5["rows"] if r["check"] == "covering-inequality"]
    assert row == {"check": "covering-inequality", "graph": "K5", "status": "skipped",
                   "reason": "hypothesis lam <= d/5 fails (lam=1)", "lhs": 62, "bound": 62, "holds": True}


# ---------------------------------------------------------------------------
# One Glauber run per experiment
# ---------------------------------------------------------------------------

_RR20 = {"family": "random-regular", "n": 20, "d": 3, "seed": 1}
_GROUND = {"mode": {"kind": "ground-state", "k": 0}, "lambda_source": {"asserted": 0.3}}


@pytest.mark.parametrize("overrides", [
    {"graph": _RR20, "M": 2, "sampler": {"kind": "glauber", "burn_in": 700, "thinning": 13}, "samples": 40},
    {"graph": _RR20, **_GROUND, "sampler": {"kind": "glauber", "burn_in": 700, "thinning": 13}, "samples": 40},
    # a 70,000-step thinning crosses the 65,536-draw chunk
    {"graph": _RR20, "M": 2, "sampler": {"kind": "glauber", "burn_in": 5, "thinning": 70_000}, "samples": 2},
    {"graph": _RR20, **_GROUND, "sampler": {"kind": "glauber", "burn_in": 5, "thinning": 70_000}, "samples": 2},
    {"graph": _RR20, "sampler": {"kind": "glauber", "burn_in": 0, "thinning": 7}, "samples": 9},
    {"graph": _RR20, **_GROUND, "sampler": {"kind": "glauber", "burn_in": 0, "thinning": 7}, "samples": 9},
    {"graph": _RR20, "sampler": {"kind": "glauber", "burn_in": 90, "thinning": 7}, "samples": 0},
    {"graph": _RR20, "sampler": {"kind": "glauber", "burn_in": 90, "thinning": 7}, "samples": 1},
    {"graph": _RR20, **_GROUND, "sampler": {"kind": "glauber", "burn_in": 90, "thinning": 7}, "samples": 1},
    {"graph": {"family": "cycle", "n": 6}, "sampler": {"kind": "glauber"}, "samples": 5},
], ids=["one-point", "ground", "chunk-one-point", "chunk-ground", "no-burn-in", "no-burn-in-ground",
        "zero-samples", "one-sample", "one-sample-ground", "defaults"])
def test_glauber_draw_samples_matches_per_sample_chain(overrides):
    cfg = parse_config(base_config(**{"seed": 4, "probes": [], **overrides}))
    ens = resolve_ensemble(cfg)
    states, _ = reference_glauber(ens.g, ens.spec, cfg.seed, _sample_marks(ens.g, cfg))
    assert len(states) == cfg.samples + 1
    samples, _ = draw_samples(ens, cfg)
    assert samples.shape == (cfg.samples, ens.g.n)
    assert samples.tolist() == [list(f.values) for f in states[1:]]


def test_glauber_draw_samples_never_validates(monkeypatch):
    import liplab.lipschitz as lipschitz

    calls = []
    real = lipschitz.validate
    monkeypatch.setattr(lipschitz, "validate", lambda g, f: calls.append(f) or real(g, f))
    for mode in ({}, _GROUND):
        cfg = parse_config(base_config(graph=_RR20, sampler={"kind": "glauber", "burn_in": 50, "thinning": 5},
                                       samples=30, **mode))
        samples, _ = draw_samples(resolve_ensemble(cfg), cfg)
        assert len(samples) == 30
    assert calls == []


def test_one_vertex_range_glauber_equals_exact(tmp_path):
    texts = []
    for sampler in ({"kind": "exact"}, {"kind": "glauber"}, {"kind": "glauber", "burn_in": 5, "thinning": 3}):
        cfg = parse_config(base_config(graph={"family": "complete", "n": 1}, sampler=sampler,
                                       samples=4, probes=[0]))
        out = tmp_path / str(len(texts))
        run_range_experiment(cfg).write(out)
        texts.append((out / "results.csv").read_text())
    assert texts[0] == texts[1] == texts[2]
    assert texts[0].splitlines()[1:] == [f"{i},1,0,0,0" for i in range(4)]


@pytest.mark.parametrize("kind", ["range", "tail", "covering"])
@pytest.mark.parametrize("sampler", ["exact", "glauber"])
def test_cli_ground_state_on_degree_zero_exits_2(kind, sampler, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(graph={"family": "complete", "n": 1}, sampler={"kind": sampler},
                                               mode={"kind": "ground-state", "k": 0}, samples=3,
                                               probes=[0], out=str(tmp_path / "out"))))
    assert main(["experiment", kind, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: ground-state mode needs a graph of degree >= 1, got degree 0\n"
    assert not (tmp_path / "out").exists()


def test_cli_count_ground_state_on_degree_zero_exits_2(capsys):
    assert main(["count", "--graph", '{"family":"complete","n":1}', "--M", "1",
                 "--mode", "ground-state", "--k", "0"]) == 2
    assert "got degree 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The verify registry
# ---------------------------------------------------------------------------

# sha256 of the sorted-key JSON of `suite["rows"]`, recorded when the core-closure
# cases became one batch; that moved the stream that the boundary-ordering fuzz reads
# after it, and only the `cases` of boundary-ordering rows changed
_VERIFY_ROWS_SHA256 = {
    (0, 1): "28e98d748a98ff5358b63ed4e45297a236d448cab8b361107c80de9723d032a1",
    (0, 2): "abf4b85a01f4cf171d623215a38737098852c449527c4d87eac7009ae3a0f836",
    (3, 1): "bad7f814fdf2b31005b10082874a809d28ee3ea6e33ebb9baf7a564d0f7e91ea",
    (3, 2): "d686d36433eca7e73fb62ff801a788a0793d8471bed56080f2e9afae935a6071",
}


def _rows_sha256(suite):
    return hashlib.sha256(json.dumps(suite["rows"], sort_keys=True).encode()).hexdigest()


def test_verify_rows_golden_default(default_suite):
    assert len(default_suite["rows"]) == 57
    assert _rows_sha256(default_suite) == _VERIFY_ROWS_SHA256[0, 1]


@pytest.mark.parametrize("seed,fuzz_scale", sorted(set(_VERIFY_ROWS_SHA256) - {(0, 1)}))
def test_verify_rows_golden(seed, fuzz_scale):
    suite = run_verify_suite(seed=seed, fuzz_scale=fuzz_scale)
    assert len(suite["rows"]) == 57
    assert _rows_sha256(suite) == _VERIFY_ROWS_SHA256[seed, fuzz_scale]


def test_verify_rows_golden_on_given_graphs():
    from liplab.graphs import complete_graph, petersen_graph, torus_graph
    from tests.conftest import path_graph

    suite = run_verify_suite(graphs=[complete_graph(5), petersen_graph(), torus_graph([3, 4]), path_graph(5)],
                             seed=1)
    assert suite["rows"][-5] == {"check": "expander-certificate", "graph": "P5", "status": "skipped",
                                 "reason": "graph not regular"}
    assert _rows_sha256(suite) == "eb2555851afe2df9266abc00b968f2e6e6f3ed7abb625e86c2209c4a8ec312b7"


def test_verify_reports_elapsed_per_registry_entry(default_suite, tmp_path, capsys):
    names = [c.__name__ for c in GRAPH_CHECKS + SUITE_CHECKS]
    assert len(set(names)) == len(names)
    assert list(default_suite["elapsed_s"]) == names
    assert all(t >= 0 for t in default_suite["elapsed_s"].values())
    assert main(["verify", "--graph", '{"family":"complete","n":4}', "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert set(report["elapsed_s"]) == set(names)
    assert all("elapsed" not in key for r in report["rows"] for key in r)


def test_verify_elapsed_covers_the_certificates(monkeypatch):
    import liplab.experiments as experiments

    exhaustive = experiments.exhaustive_lambda

    def slow_exhaustive(g):
        time.sleep(0.3)
        return exhaustive(g)

    monkeypatch.setattr(experiments, "exhaustive_lambda", slow_exhaustive)
    start = time.perf_counter()
    suite = run_verify_suite(graphs=[complete_graph(5)], seed=0)
    wall = time.perf_counter() - start
    assert suite["elapsed_s"]["check_expander_certificate"] >= 0.3
    assert 0.9 * wall <= sum(suite["elapsed_s"].values()) <= wall


@pytest.mark.parametrize("fuzz_scale", ["0", "-1"])
def test_cli_verify_fuzz_scale_below_one_exits_2(fuzz_scale, capsys):
    code = main(["verify", "--graph", '{"family":"complete","n":4}', "--fuzz-scale", fuzz_scale])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: fuzz_scale must be an integer >= 1, got {fuzz_scale}\n"


@pytest.mark.parametrize("argv", [
    ["count", "--graph", '{"family":"complete","n":4}', "--M", "1", "--budget", "0"],
    ["verify", "--graph", '{"family":"complete","n":4}', "--budget", "-5"],
], ids=["count", "verify"])
def test_cli_budget_below_one_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --budget: must be an integer >= 1, got {argv[-1]}\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--graph", '{"family":"cycle","n":4}', "--seed", "-1"],
    # no cover on this input draws a stream, so only the flag's check reads the seed
    ["containers", "--graph", '{"family":"random-regular","n":18,"d":3,"seed":1}', "--boundary-size", "10",
     "--seed", "-1"],
], ids=["verify", "containers"])
def test_cli_seed_below_zero_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --seed: seed must be an unsigned 64-bit integer, got -1\n")


@pytest.mark.parametrize("fuzz_scale", [0, -1, 1.5, True])
def test_verify_suite_rejects_bad_fuzz_scale(fuzz_scale):
    with pytest.raises(ConfigError, match="fuzz_scale must be an integer >= 1"):
        run_verify_suite(graphs=[], fuzz_scale=fuzz_scale)


@pytest.mark.parametrize("key, token", [
    pytest.param(f"constants.{name}", token, id=token)
    for name, token in (("c_prime", "NaN"), ("C", "Infinity"), ("c", "-Infinity"))
] + [pytest.param("lambda_source.asserted", "NaN", id="asserted-NaN")])
def test_cli_non_finite_constant_exits_2(key, token, tmp_path, capsys):
    outer, inner = key.split(".")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(samples=5))[:-1] + f', "{outer}": {{"{inner}": {token}}}}}')
    assert main(["experiment", "range", "--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 2
    value = float(token)
    assert capsys.readouterr().err == f"error: {key} must be finite, got {value!r}\n"
    assert not (tmp_path / "res").exists()


def test_cli_constant_c_prime_is_an_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(constants={"C_prime": 1})))
    assert main(["experiment", "range", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: constants allows keys ['C', 'c', 'c_prime'], got {'C_prime': 1}\n"


_BAD_GRAPH_SPECS = [
    pytest.param({"family": "torus", "sides": 5}, "graph.sides must be a list of integers, got 5", id="sides-5"),
    pytest.param({"family": "cycle", "n": "5"}, "graph.n must be an integer, got '5'", id="n-string"),
    pytest.param({"family": "cycle", "n": 5.0}, "graph.n must be an integer, got 5.0", id="n-float"),
    pytest.param({"family": "random-regular", "n": 10, "d": 3, "seed": "x"},
                 "graph.seed must be an integer, got 'x'", id="seed-string"),
    pytest.param({"family": "hypercube", "dim": True}, "graph.dim must be an integer, got True", id="dim-true"),
    pytest.param({"path": 5}, "graph.path must be a string, got 5", id="path-5"),
    pytest.param({"path": 0}, "graph.path must be a string, got 0", id="path-0"),
]


@pytest.mark.parametrize("spec,message", _BAD_GRAPH_SPECS)
@pytest.mark.parametrize("command", ["count", "gen-graph", "experiment"])
def test_cli_graph_spec_of_the_wrong_type_exits_2_naming_the_key(spec, message, command, tmp_path, capsys):
    """A wrong parameter type is a config error, before any graph is built
    or any file opened; `gen-graph` builds its graph without the ensemble
    checks, and a config is checked when it is parsed."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(graph=spec)))
    argv = {"count": ["count", "--graph", json.dumps(spec), "--M", "1"],
            "gen-graph": ["gen-graph", "--graph", json.dumps(spec), "--out-file", str(tmp_path / "g.edges")],
            "experiment": ["experiment", "range", "--config", str(cfg_path)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_verify_failing_check_exits_1_with_witness_and_repro(monkeypatch, capsys):
    import liplab.experiments as experiments

    def check_fails(ctx):
        return [experiments._verdict("detailed-balance", "C4", False, {"states": [[0, 1, 0, 1]]})]

    monkeypatch.setattr(experiments, "SUITE_CHECKS", tuple(
        check_fails if c is check_detailed_balance else c for c in SUITE_CHECKS))
    code = main(["verify", "--graph", '{"family":"complete","n":4}', "--seed", "5",
                 "--fuzz-scale", "2", "--budget", "123456"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split() == ["detailed-balance", "C4", "fail"])
    assert lines[i + 1:i + 3] == [
        "  witness: {'states': [[0, 1, 0, 1]]}",
        "  repro:   liplab verify --seed 5 --fuzz-scale 2 --budget 123456 "
        "--graph '{\"family\":\"complete\",\"n\":4}'  # check=detailed-balance graph=C4",
    ]
    assert lines[-1].split(", ")[1] == "1 fail"


def _failure_lines(out):
    lines = out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.endswith(" fail"))
    return lines[i:i + 3]


def test_cli_verify_repro_line_replays_a_fuzz_failure_on_given_graphs(monkeypatch, capsys):
    """The core-closure witness on the second graph depends on the seed, the
    fuzz scale and the stream the first graph consumed; the printed command
    must find the same one."""
    import liplab.experiments as experiments

    escapes = experiments.core_closure_escapes
    monkeypatch.setattr(experiments, "core_closure_escapes",
                        lambda g, cluster, core: escapes(g, cluster, core) | (g.n == 10))
    argv = ["verify", "--seed", "3", "--graph", '{"family": "complete", "n": 5}',
            "--graph", '{"family": "petersen"}']
    assert main(argv) == 1
    first = _failure_lines(capsys.readouterr().out)
    assert first[0].split() == ["core-closure", "Petersen", "fail"]
    command = shlex.split(first[2].removeprefix("  repro:   ").split("  # ")[0])
    assert command[0] == "liplab"
    assert main(command[1:]) == 1
    assert _failure_lines(capsys.readouterr().out) == first


def test_verify_repro_names_in_process_graphs_as_placeholders(monkeypatch):
    import liplab.experiments as experiments

    monkeypatch.setattr(experiments, "core_closure_escapes", lambda g, cluster, core: np.ones(len(core), dtype=bool))
    suite = run_verify_suite(graphs=[complete_graph(4)], seed=2)
    (row,) = [r for r in suite["rows"] if r["status"] == "fail"]
    assert row["repro"] == ("liplab verify --seed 2 --fuzz-scale 1 --budget "
                            f"{DEFAULT_NODE_BUDGET} --graph <K4>  # check=core-closure graph=K4")


def test_core_closure_mutant_with_a_radius_two_closure_fails_and_replays(monkeypatch, capsys):
    """A closure check that takes the radius-2 ball of the core, not its
    closure, must fail the core-closure rows at seed 0 (K6, of diameter 1,
    cannot tell the two apart), and the printed repro line must find the
    same witness."""
    import liplab.experiments as experiments

    escapes = experiments.core_closure_escapes
    monkeypatch.setattr(experiments, "core_closure_escapes",
                        lambda g, cluster, core: escapes(g, cluster, core | core[:, g.neighbor_table].any(axis=2)))
    suite = run_verify_suite(seed=0)
    assert [(r["check"], r["graph"]) for r in suite["rows"] if r["status"] == "fail"] == [
        ("core-closure", "C4"), ("core-closure", "Q3"), ("core-closure", "RR10,3#1")]
    assert main(["verify", "--seed", "0"]) == 1
    first = _failure_lines(capsys.readouterr().out)
    assert first[0].split() == ["core-closure", "C4", "fail"]
    command = shlex.split(first[2].removeprefix("  repro:   ").split("  # ")[0])
    assert main(command[1:]) == 1
    assert _failure_lines(capsys.readouterr().out) == first


def test_detailed_balance_fails_on_an_asymmetric_kernel(monkeypatch):
    import liplab.experiments as experiments

    symmetric = experiments.glauber_site_interval

    def lopsided(values, nbrs, M):
        lo, hi = symmetric(values, nbrs, M)
        return (lo, hi) if sum(values) >= 0 else (lo, lo)

    (row,) = check_detailed_balance(VerifyContext())
    assert row == {"check": "detailed-balance", "graph": "C4", "status": "pass"}
    monkeypatch.setattr(experiments, "glauber_site_interval", lopsided)
    (row,) = check_detailed_balance(VerifyContext())
    assert row["status"] == "fail"
    i, j = row["witness"]["states"]
    assert len(i) == len(j) == 4 and i != j


def test_readme_lists_every_registry_entry():
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| Registry entry |"):]
    table = table[:table.index("\n\n")]
    for check in GRAPH_CHECKS + SUITE_CHECKS:
        assert f"| `{check.__name__}` |" in table, check.__name__



def test_verify_fails_rows_on_wrong_members_in_the_right_number(monkeypatch, capsys):
    """A mutant DP sweep that shifts its keys without recording the shift:
    counts stay right, but enumerated members come out unanchored and not
    Lipschitz."""
    from liplab import lipschitz
    from liplab.lipschitz import validate

    expand = lipschitz._FrontierDP.expand

    def shiftless(self, stage):
        for step in expand(self, stage):
            yield step._replace(shifts=np.zeros_like(step.shifts))

    monkeypatch.setattr(lipschitz._FrontierDP, "expand", shiftless)
    suite = run_verify_suite()
    rows = {(r["check"], r["graph"]): r for r in suite["rows"]}
    for g in default_suite_graphs():
        name = g.name
        row = rows["count-enumeration-agreement", name]
        assert row["status"] == "fail"
        witness = row["witness"]
        assert witness["enumerated"] == witness["counted"]
        member = witness["member"]
        assert member[0] != 0 or not validate(g, LipschitzFn(tuple(member), 1))
        assert row["repro"].endswith(f"# check=count-enumeration-agreement graph={name}")
    balance = rows["detailed-balance", "C4"]
    assert balance["status"] == "fail"
    assert len(balance["witness"]["move_outside_enumeration"]) == 2
    assert not suite["ok"]
    assert main(["verify", "--graph", '{"family":"cycle","n":4}']) == 1
    capsys.readouterr()


@pytest.mark.parametrize("last", ["repeated", "unanchored", "missing"])
def test_count_enumeration_fails_on_a_bad_last_member(monkeypatch, last):
    """The last of C4's 19 members is replaced by a copy of the first, or by
    the first shifted off its anchor (still Lipschitz, and no repeat), or is
    dropped; the members come as one value array from `member_batches`."""
    import liplab.experiments as experiments
    from liplab.graphs import cycle_graph

    c4 = cycle_graph(4)
    sg = SuiteGraph(c4)
    (row,) = check_count_enumeration(sg, VerifyContext())
    assert row == {"check": "count-enumeration-agreement", "graph": "C4", "status": "pass"}
    (members,) = member_batches(c4, EnsembleSpec("one-point", M=1, v0=0))
    assert members.tolist() == [list(f.values) for f in enumerate_onepoint(c4, 0, 1)]
    tail = {"repeated": members[:1], "unanchored": members[:1] + 1, "missing": members[:0]}[last]
    mutant = np.concatenate((members[:-1], tail))
    monkeypatch.setattr(experiments, "member_batches", lambda g, spec, budget: iter([mutant]))
    (row,) = check_count_enumeration(sg, VerifyContext())
    assert row["status"] == "fail"
    expected = {"enumerated": 18 + len(tail), "counted": 19}
    if len(tail):
        expected.update(rank=18, member=tail[0].tolist())
    assert row["witness"] == expected
