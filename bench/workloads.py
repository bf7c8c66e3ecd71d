"""The benchmark's four workloads: inputs made from a seed, the liplab command
list of each workload, and the checks on every command's output.

Each command is run through ``liplab.cli.main(argv)``.  Its check reads the
captured stdout and the files the command wrote, raises ``CheckError`` on a
wrong output, and returns counters that do not depend on the machine (they
repeat exactly for a fixed code version and seed).

Why these workloads:

* ``verify``  -- the machine check users run (``--fuzz-scale 1``); mostly
  the entropy suite, the flaw fuzz and small enumerations.  It bypasses
  Glauber, the exact sampler, large counts and exhaustive lambda, so engine
  changes should leave it alone.
* ``exact``   -- the ``lipschitz`` engine three ways: counting without a memo
  (C14, T3x5, Petersen, K10, K9), a memoised sampler build followed by draws
  (Q4 draw-heavy, T4x5 build-heavy) and full enumeration (K10 and Petersen
  tails).  Frontier width runs from 2 (C14) to n-1 (K10).
* ``mcmc``    -- two Glauber runs (300k and 220k chain steps, the second with
  flaw-cap rejections); bypasses the DP and exhaustive lambda.
* ``certify`` -- exhaustive expansion certificate with its consequence checks
  at n = 12, and five container families.  ``expanders`` and ``containers``
  do under 1% of the other workloads' time, and this is the memory-heavy
  workload.

Every command takes well under 2 s, so a run repeats each one 10 to 40 times
and reports medians.  The graphs are fixed (random-regular ones with graph
seed 1); ``--seed`` sets the random streams of the samplers, of ``verify``
and of ``containers``.  The work of a command then does not depend on the
seed, and every pinned value is checked at every seed.

Inputs that fail at the commit that introduced this benchmark are left out:
C16 and T4x5 at M=1 and T3x5 at M=2 (over the node budget), C1500 at M=0
(RecursionError) and the T6x6 sampler.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

RR_SEED = 1  # graph seed of every random-regular graph
HERE = os.path.dirname(os.path.abspath(__file__))


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Output:
    code: int
    stdout: str
    out_dir: str


@dataclass(frozen=True)
class Command:
    group: str  # timing group: verify, count, range_exact, tail, range_glauber, spectrum, containers
    label: str
    argv: tuple[str, ...]
    out_dir: str
    check: Callable[[Output], dict]
    chain_steps: int = 0  # config-derived Glauber steps


def derived_seed(seed: int, label: str) -> int:
    """A 63-bit sampler seed for one command, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _exit_ok(out: Output) -> None:
    _require(out.code == 0, f"exit code {out.code}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _check_count(expected: int):
    def check(out: Output) -> dict:
        _exit_ok(out)
        res = _read_json(os.path.join(out.out_dir, "count.json"))
        _require(res["count"] == expected, f"count {res['count']} != {expected}")
        return {"count": res["count"], "nodes": res["nodes_explored"]}

    return check


def _check_covering(M: int, ground: int, one_point: int):
    def check(out: Output) -> dict:
        _exit_ok(out)
        rep = _read_json(os.path.join(out.out_dir, "covering.json"))
        _require(rep["status"] == "pass" and rep["holds"], f"covering status {rep['status']}")
        _require(rep["ground_state_count"] == ground,
                 f"ground-state count {rep['ground_state_count']} != {ground}")
        _require(rep["one_point_count"] == one_point,
                 f"one-point count {rep['one_point_count']} != {one_point}")
        _require(rep["bound"] == (M + 1) * one_point and ground <= rep["bound"],
                 f"covering bound {rep['bound']}")
        return {"ground_state_count": ground, "one_point_count": one_point}

    return check


def _check_samples(samples: int, anchor: int, ref_mean=None, ref_var=None):
    """results.csv of a one-point range run: one row per sample, the anchor
    probe at 0, min <= 0 <= max, range = max - min + 1; optionally the mean
    range within 5 standard errors of the exact ensemble mean."""

    def check(out: Output) -> dict:
        _exit_ok(out)
        path = os.path.join(out.out_dir, "results.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == samples, f"{len(rows)} rows != {samples} samples")
        total = 0
        for row in rows:
            lo, hi, rng = int(row["min"]), int(row["max"]), int(row["range"])
            _require(int(row[f"probe_{anchor}"]) == 0, f"anchor probe nonzero in row {row['sample_id']}")
            _require(lo <= 0 <= hi, f"min/max do not straddle 0 in row {row['sample_id']}")
            _require(rng == hi - lo + 1, f"range != max - min + 1 in row {row['sample_id']}")
            total += rng
        mean = total / samples
        if ref_mean is not None:
            se = math.sqrt(ref_var / samples)
            _require(abs(mean - ref_mean) <= 5 * se,
                     f"mean range {mean:.4f} is over 5 SE ({se:.4f}) from exact {ref_mean:.4f}")
        return {"rows": len(rows), "range_sum": total, "results_sha256": _sha256(path)}

    return check


def _check_tail(size: int):
    """tail.csv: every row counts over ``size`` functions (the whole ensemble
    when exact, the samples under Glauber); counts above a threshold never
    grow with t."""

    def check(out: Output) -> dict:
        _exit_ok(out)
        path = os.path.join(out.out_dir, "tail.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) > 0, "tail.csv is empty")
        sizes = {int(r["ensemble_size"]) for r in rows}
        _require(sizes == {size}, f"ensemble sizes {sorted(sizes)} != {size}")
        above = [int(r["count_above"]) for r in rows]
        _require(all(0 <= a <= size for a in above), f"count_above out of range: {above}")
        _require(all(above[i] >= above[i + 1] for i in range(len(above) - 1)),
                 f"tail counts not monotone: {above}")
        return {"members": size, "count_above": above, "results_sha256": _sha256(path)}

    return check


def _check_verify(rows: int):
    def check(out: Output) -> dict:
        _exit_ok(out)
        rep = _read_json(os.path.join(out.out_dir, "verify_report.json"))
        _require(rep["ok"] and rep["n_fail"] == 0, f"verify reports {rep['n_fail']} failures")
        last = out.stdout.strip().splitlines()[-1]
        _require(" 0 fail," in last, f"verify summary line: {last!r}")
        _require(len(rep["rows"]) == rows, f"{len(rep['rows'])} verify rows != {rows}")
        instances = sum(r.get("instances", 0) for r in rep["rows"])
        cases = sum(r.get("cases", 0) for r in rep["rows"])
        return {"rows": len(rep["rows"]), "pass": rep["n_pass"], "skipped": rep["n_skipped"],
                "lemma_instances": instances, "fuzz_cases": cases}

    return check


def _check_spectrum(lam: float):
    def check(out: Output) -> dict:
        _exit_ok(out)
        res = _read_json(os.path.join(out.out_dir, "spectrum.json"))
        lam_exh, lam_spec = res["lam_exhaustive"], res["lam_spectral"]
        _require(abs(lam_exh - lam) <= 1e-9, f"exhaustive lambda {lam_exh} != {lam}")
        _require(lam_exh <= lam_spec + 1e-9, f"exhaustive lambda {lam_exh} > spectral {lam_spec}")
        _require(res["props"]["all_ok"], "expander props not all_ok")
        return {"n": res["n"], "subset_pairs": ((1 << res["n"]) - 1) ** 2}

    return check


def _check_containers(out: Output) -> dict:
    _exit_ok(out)
    res = json.loads(out.stdout)
    _require(res["covers_all"], "family does not cover every linked set")
    _require(res["n_sets"] > 0, "no linked sets enumerated")
    return {"sets": res["n_sets"], "pairs": res["n_pairs"],
            "covers_meeting_bound": res["stats"]["covers_meeting_bound"],
            "report_count": res["count_report"]["count"]}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _graph(family: str, **params) -> dict:
    return {"family": family, **params}


class _CommandList:
    """Collects the commands of one workload and writes their config files."""

    def __init__(self, seed: int, in_dir: str, out_root: str):
        self.seed = seed
        self.in_dir = in_dir
        self.out_root = out_root
        self.commands: list[Command] = []

    def _out(self) -> str:
        return os.path.join(self.out_root, str(len(self.commands)))

    def cli(self, group, label, argv, check):
        out = self._out()
        self.commands.append(Command(group, label, (*argv, "--out", out), out, check))

    def experiment(self, group, label, kind, config, check):
        config = {"schema": 1, "seed": derived_seed(self.seed, label), **config}
        path = os.path.join(self.in_dir, f"{len(self.commands)}.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        out = self._out()
        sampler = config.get("sampler", {})
        steps = 0
        if sampler.get("kind") == "glauber":
            steps = sampler["burn_in"] + config["samples"] * sampler["thinning"]
        self.commands.append(Command(group, label, ("experiment", kind, "--config", path, "--out", out),
                                     out, check, chain_steps=steps))


def _verify(b: _CommandList) -> None:
    b.cli("verify", "verify fuzz-scale 1",
          ["verify", "--fuzz-scale", "1", "--seed", str(b.seed)], _check_verify(57))


def _exact(b: _CommandList) -> None:
    for label, graph, M, expected in (
        ("count C14 M=1", _graph("cycle", n=14), 1, 616_227),  # central trinomial coefficient
        ("count T3x5 M=1", _graph("torus", sides=[3, 5]), 1, 94_167),
        ("count Petersen M=2", _graph("petersen"), 2, 219_965),
    ):
        b.cli("count", label, ["count", "--graph", json.dumps(graph), "--M", str(M)], _check_count(expected))
    b.cli("count", "count K10 ground-state M=2",
          ["count", "--graph", json.dumps(_graph("complete", n=10)), "--M", "2",
           "--mode", "ground-state", "--k", "0"], _check_count(92_619))
    b.experiment("count", "covering K9 M=2", "covering",
                 {"graph": _graph("complete", n=9), "M": 2, "mode": {"kind": "ground-state", "k": 0}},
                 _check_covering(2, 33_741, 19_171))

    ref = load_reference()["q4_onepoint_M1_range"]
    b.experiment("range_exact", "range Q4 M=1 exact", "range",
                 {"graph": _graph("hypercube", dim=4), "M": 1, "mode": {"kind": "one-point", "v0": 0},
                  "sampler": {"kind": "exact"}, "samples": 2000, "probes": [0, 15]},
                 _check_samples(2000, 0, ref["mean"], ref["variance"]))
    b.experiment("range_exact", "range T4x5 M=1 exact", "range",
                 {"graph": _graph("torus", sides=[4, 5]), "M": 1, "mode": {"kind": "one-point", "v0": 0},
                  "sampler": {"kind": "exact"}, "samples": 500, "probes": [0, 12]},
                 _check_samples(500, 0))

    b.experiment("tail", "tail K10 M=2 exact", "tail",
                 {"graph": _graph("complete", n=10), "M": 2, "mode": {"kind": "ground-state", "k": 0},
                  "sampler": {"kind": "exact"}, "probes": [0]},
                 _check_tail(92_619))
    b.experiment("tail", "tail Petersen M=1 exact", "tail",
                 {"graph": _graph("petersen"), "M": 1, "mode": {"kind": "ground-state", "k": 0},
                  "lambda_source": {"asserted": 1.0}, "sampler": {"kind": "exact"}, "probes": [0]},
                 _check_tail(6_368))


def _mcmc(b: _CommandList) -> None:
    graph = _graph("random-regular", n=500, d=3, seed=RR_SEED)
    b.experiment("range_glauber", "range RR500 M=2 glauber", "range",
                 {"graph": graph, "M": 2, "mode": {"kind": "one-point", "v0": 0},
                  "sampler": {"kind": "glauber", "burn_in": 100_000, "thinning": 500},
                  "samples": 400, "probes": [0, 250]},
                 _check_samples(400, 0))
    graph = _graph("random-regular", n=200, d=3, seed=RR_SEED)
    b.experiment("tail", "tail RR200 M=1 glauber", "tail",
                 {"graph": graph, "M": 1, "mode": {"kind": "ground-state", "k": 0},
                  "lambda_source": {"asserted": 0.3},
                  "sampler": {"kind": "glauber", "burn_in": 20_000, "thinning": 200},
                  "samples": 1000, "probes": [0]},
                 _check_tail(1000))


def _certify(b: _CommandList) -> None:
    rr12 = json.dumps(_graph("random-regular", n=12, d=3, seed=RR_SEED))
    b.cli("spectrum", "spectrum RR12 exhaustive props",
          ["spectrum", "--graph", rr12, "--exhaustive", "--props"], _check_spectrum(1.5))
    rr18 = json.dumps(_graph("random-regular", n=18, d=3, seed=RR_SEED))
    for v in range(4):
        b.cli("containers", f"containers RR18 v={v} g=10 k=4",
              ["containers", "--graph", rr18, "--vertex", str(v), "--boundary-size", "10",
               "--linkage", "4", "--seed", str(derived_seed(b.seed, f"containers {v}"))],
              _check_containers)
    b.cli("containers", "containers Petersen g=8 k=4 exhaustive",
          ["containers", "--graph", json.dumps(_graph("petersen")), "--boundary-size", "8",
           "--linkage", "4", "--lambda-source", "exhaustive",
           "--seed", str(derived_seed(b.seed, "containers petersen"))],
          _check_containers)


WORKLOADS = {"verify": _verify, "exact": _exact, "mcmc": _mcmc, "certify": _certify}


def write_inputs(workload: str, seed: int, work_dir: str) -> list[Command]:
    """Write the workload's configs under ``work_dir`` and return its commands."""
    in_dir = os.path.join(work_dir, "in")
    os.makedirs(in_dir, exist_ok=True)
    b = _CommandList(seed, in_dir, os.path.join(work_dir, "out"))
    WORKLOADS[workload](b)
    return b.commands
