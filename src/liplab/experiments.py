"""Experiment harness: configuration, sampling runs, persistence, and the
consolidated verification suite.

Outputs are split into a per-sample ``results.csv`` (integers only, byte
reproducible for a fixed config and seed) and a ``summary.json`` holding
aggregates, hypothesis-gate decisions, and provenance.  The only
nondeterministic field is the timestamp, isolated inside provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ConfigError
from .expanders import (
    EXHAUSTIVE_CAP,
    ExpanderProfile,
    asserted_profile,
    exhaustive_lambda,
    spectral_lambda,
    verify_expander_props,
)
from .flaws import (
    check_boundary_ordering,
    boundary_ordering,
    conditional_tail_profile,
    core_within_cluster_interior,
    flaw_decomposition,
    tail_hypotheses,
    tail_rows,
    verify_ground_state_lemma,
)
from .graphs import (
    DEFAULT_NODE_BUDGET,
    GenSpec,
    Graph,
    closure,
    complete_graph,
    cycle_graph,
    generate,
    hypercube_graph,
    is_k_linked,
    load_edge_list,
    random_regular_graph,
)
from .lipschitz import (
    EnsembleSpec,
    ExactSampler,
    LipschitzFn,
    count_groundstate,
    count_onepoint,
    enumerate_groundstate,
    enumerate_onepoint,
    flaw_cap,
    fn_range,
    glauber_samples,
    glauber_site_interval,
    min_ground_state,
)

CONFIG_SCHEMA = 1

_GRAPH_KEYS = {
    "cycle": {"n"},
    "complete": {"n"},
    "complete-bipartite": {"a", "b"},
    "hypercube": {"dim"},
    "torus": {"sides"},
    "random-regular": {"n", "d", "seed"},
    "wired-tree": {"levels", "d"},
    "petersen": set(),
}

_TOP_KEYS = {
    "schema",
    "graph",
    "M",
    "mode",
    "lambda_source",
    "sampler",
    "samples",
    "seed",
    "probes",
    "out",
    "constants",
    "budget",
    "t_values",
    "dump_flaws",
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    graph_source: dict
    M: int
    mode: dict
    lambda_source: object
    sampler: dict
    samples: int
    seed: int
    probes: tuple[int, ...]
    out: str | None
    constants: dict
    budget: int
    t_values: tuple[int, ...]
    dump_flaws: bool

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _is_int(value) -> bool:
    """An integer config value; JSON booleans are not integers here, though
    Python's `bool` subclasses `int`."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict; unknown keys are rejected outright."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA}, got {data.get('schema')!r}")

    graph = data.get("graph")
    if not isinstance(graph, dict) or not ({"path"} <= set(graph) or "family" in graph):
        raise ConfigError("graph must be {'path': ...} or {'family': ..., <params>}")
    if "path" in graph:
        if set(graph) != {"path"}:
            raise ConfigError("graph path entry takes no other keys")
    else:
        family = graph["family"]
        if family not in _GRAPH_KEYS:
            raise ConfigError(f"unknown graph family {family!r}")
        extra = set(graph) - {"family"} - _GRAPH_KEYS[family]
        if extra:
            raise ConfigError(f"unknown graph keys for {family}: {sorted(extra)}")

    m_value = data.get("M")
    if not _is_int(m_value) or m_value < 0:
        raise ConfigError("M must be a nonnegative integer")

    mode = data.get("mode", {"kind": "one-point", "v0": 0})
    if not isinstance(mode, dict) or mode.get("kind") not in ("one-point", "ground-state"):
        raise ConfigError("mode.kind must be 'one-point' or 'ground-state'")
    if mode["kind"] == "one-point":
        if set(mode) != {"kind", "v0"} or not _is_int(mode.get("v0")):
            raise ConfigError("one-point mode needs integer v0")
    else:
        if set(mode) != {"kind", "k"} or not _is_int(mode.get("k")):
            raise ConfigError("ground-state mode needs integer k")

    lam_src = data.get("lambda_source", "spectral")
    if isinstance(lam_src, dict):
        if set(lam_src) != {"asserted"} or not _is_number(lam_src["asserted"]):
            raise ConfigError("lambda_source object form is {'asserted': number}")
    elif lam_src not in ("spectral", "exhaustive"):
        raise ConfigError(f"unknown lambda_source {lam_src!r}")

    sampler = data.get("sampler", {"kind": "exact"})
    if not isinstance(sampler, dict) or sampler.get("kind") not in ("exact", "glauber"):
        raise ConfigError("sampler.kind must be 'exact' or 'glauber'")
    allowed = {"kind"} if sampler["kind"] == "exact" else {"kind", "burn_in", "thinning"}
    if set(sampler) - allowed:
        raise ConfigError(f"unknown sampler keys: {sorted(set(sampler) - allowed)}")
    for key, low in (("burn_in", 0), ("thinning", 1)):
        value = sampler.get(key, low)
        if not _is_int(value) or value < low:
            raise ConfigError(f"sampler.{key} must be an integer >= {low}")

    samples = data.get("samples", 0)
    if not _is_int(samples) or samples < 0:
        raise ConfigError("samples must be a nonnegative integer")
    seed = data.get("seed")
    if not _is_int(seed) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")

    probes = data.get("probes", [])
    if not isinstance(probes, list) or not all(_is_int(v) for v in probes):
        raise ConfigError("probes must be a list of vertex ids")

    constants = {"c": 1.0, "C": 1.0, "c_prime": 1.0, "C_prime": 1.0}
    user_constants = data.get("constants", {})
    if not isinstance(user_constants, dict) or set(user_constants) - set(constants):
        raise ConfigError(f"constants allows keys {sorted(constants)}")
    for key, value in user_constants.items():
        if not _is_number(value):
            raise ConfigError(f"constants.{key} must be a number, got {value!r}")
        constants[key] = float(value)

    budget = data.get("budget", DEFAULT_NODE_BUDGET)
    if not _is_int(budget) or budget <= 0:
        raise ConfigError("budget must be a positive integer")

    t_values = data.get("t_values", [2, 3, 4])
    if not isinstance(t_values, list) or not all(_is_int(t) and t >= 0 for t in t_values):
        raise ConfigError("t_values must be a list of nonnegative integers")

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")

    dump_flaws = data.get("dump_flaws", False)
    if not isinstance(dump_flaws, bool):
        raise ConfigError("dump_flaws must be a boolean")

    return ExperimentConfig(
        raw=data,
        graph_source=graph,
        M=m_value,
        mode=mode,
        lambda_source=lam_src,
        sampler=sampler,
        samples=samples,
        seed=seed,
        probes=tuple(probes),
        out=out,
        constants=constants,
        budget=budget,
        t_values=tuple(t_values),
        dump_flaws=dump_flaws,
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)


def build_graph(source: dict) -> Graph:
    if "path" in source:
        return load_edge_list(source["path"])
    params = {k: v for k, v in source.items() if k not in ("family", "seed")}
    return generate(GenSpec(source["family"], params, source.get("seed")))


def resolve_profile(g: Graph, lambda_source) -> ExpanderProfile | None:
    """Expansion certificate per the configured source; None when the graph
    is not regular (certificates do not apply)."""
    if not g.is_regular():
        if isinstance(lambda_source, dict):
            raise ConfigError("asserted lambda requires a regular graph")
        return None
    if isinstance(lambda_source, dict):
        return asserted_profile(g, lambda_source["asserted"])
    if lambda_source == "spectral":
        return spectral_lambda(g)
    if g.n > EXHAUSTIVE_CAP:
        raise ConfigError(f"exhaustive lambda needs n <= {EXHAUSTIVE_CAP}, got n={g.n}")
    return exhaustive_lambda(g)


def require_positive_degree(profile: ExpanderProfile) -> None:
    """Refuse a ground-state ensemble on a 0-regular graph (one vertex): its
    flaw allowance (2*lam/d)*n divides by the degree."""
    if profile.d == 0:
        raise ConfigError("ground-state mode needs a graph of degree >= 1, got degree 0")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _ensemble_spec(cfg: ExperimentConfig, profile: ExpanderProfile | None) -> EnsembleSpec:
    if cfg.mode["kind"] == "one-point":
        return EnsembleSpec("one-point", M=cfg.M, v0=cfg.mode["v0"])
    if profile is None:
        raise ConfigError("ground-state mode requires a regular graph with a certificate")
    require_positive_degree(profile)
    return EnsembleSpec("ground-state", M=cfg.M, k=cfg.mode["k"], lam=profile.lam)


def glauber_schedule(g: Graph, cfg: ExperimentConfig) -> dict:
    """The Glauber run a config resolves to: burn-in (default 100*n*M),
    thinning (default n) and the total chain steps."""
    burn_in = cfg.sampler.get("burn_in", 100 * g.n * max(1, cfg.M))
    thinning = cfg.sampler.get("thinning", g.n)
    return {"burn_in": burn_in, "thinning": thinning, "chain_steps": burn_in + cfg.samples * thinning}


def draw_samples(g: Graph, cfg: ExperimentConfig, profile: ExpanderProfile | None) -> list[LipschitzFn]:
    spec = _ensemble_spec(cfg, profile)
    if cfg.sampler["kind"] == "exact":
        sampler = ExactSampler(g, spec, budget=cfg.budget)
        child_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.samples)
        return [sampler.draw(np.random.default_rng(child)) for child in child_seeds]

    schedule = glauber_schedule(g, cfg)
    return glauber_samples(g, spec, cfg.seed, schedule["burn_in"], schedule["thinning"], cfg.samples)


# ---------------------------------------------------------------------------
# Results and persistence
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    kind: str
    records: list[dict]
    aggregates: dict
    gates: dict
    provenance: dict
    csv_name: str = "results.csv"
    extra_files: dict | None = None

    def csv_text(self) -> str:
        if not self.records:
            return ""
        cols = list(self.records[0])
        lines = [",".join(cols)]
        for row in self.records:
            lines.append(",".join(str(row[c]) for c in cols))
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> dict:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        if self.records:
            csv_path = os.path.join(out_dir, self.csv_name)
            with open(csv_path, "w") as fh:
                fh.write(self.csv_text())
            paths["csv"] = csv_path
        for name, text in (self.extra_files or {}).items():
            path = os.path.join(out_dir, name)
            with open(path, "w") as fh:
                fh.write(text)
            paths[name] = path
        summary_path = os.path.join(out_dir, "summary.json")
        with open(summary_path, "w") as fh:
            json.dump(
                {
                    "kind": self.kind,
                    "aggregates": self.aggregates,
                    "gates": self.gates,
                    "provenance": self.provenance,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        paths["summary"] = summary_path
        return paths


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "code_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def range_threshold(n: int, d: int, lam: float, M: int, c_prime: float) -> float | None:
    """Display threshold C'*M*loglog(n)/log(d/lam) + 2(M+1); None when the
    logarithms degenerate."""
    if lam <= 0 or d <= lam or n <= 2:
        return None
    loglog = math.log2(math.log2(n))
    if loglog <= 0:
        return None
    return c_prime * M * loglog / math.log2(d / lam) + 2 * (M + 1)


def variance_scale(d: int, lam: float, M: int) -> float | None:
    """(M * ceil(log2 M / log2(d/(2 lam))))^2, the reference scale for probe
    variances; None when degenerate (including M = 1, where the ceiling is 0)."""
    if lam <= 0 or d <= 2 * lam or M < 1:
        return None
    scale = M * math.ceil(math.log2(M) / math.log2(d / (2 * lam)))
    return float(scale * scale) if scale > 0 else None


def run_range_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Sample the ensemble, record ranges and probe values, and display the
    flatness threshold next to the empirical tail (never asserted)."""
    g = build_graph(cfg.graph_source)
    profile = resolve_profile(g, cfg.lambda_source)
    probes = cfg.probes or ((cfg.mode.get("v0", 0),) if cfg.mode["kind"] == "one-point" else (0,))
    for v in probes:
        if not (0 <= v < g.n):
            raise ConfigError(f"probe vertex {v} out of range")
    samples = draw_samples(g, cfg, profile)

    records = []
    for i, f in enumerate(samples):
        row = {
            "sample_id": i,
            "range": fn_range(f),
            "min": min(f.values),
            "max": max(f.values),
        }
        for v in probes:
            row[f"probe_{v}"] = f.values[v]
        records.append(row)

    ranges = np.array([r["range"] for r in records], dtype=np.int64)
    tail_curve = []
    if len(ranges):
        for r in range(1, int(ranges.max()) + 1):
            count = int((ranges >= r).sum())
            tail_curve.append({"r": r, "count": count, "fraction": count / len(ranges)})
    probe_stats = {}
    for v in probes:
        vals = np.array([r[f"probe_{v}"] for r in records], dtype=np.float64)
        probe_stats[str(v)] = {
            "mean": float(vals.mean()) if len(vals) else None,
            "variance": float(vals.var()) if len(vals) else None,
        }

    gates: dict = {"regular": g.is_regular()}
    threshold = None
    var_scale = None
    if profile is not None:
        hyp = tail_hypotheses(
            g.n, profile.d, profile.lam, cfg.M, c=cfg.constants["c"], C=cfg.constants["C"]
        )
        gates["hypotheses"] = hyp["clauses"]
        gates["hypotheses_hold"] = hyp["all_hold"]
        gates["lam"] = profile.lam
        gates["lambda_method"] = profile.method
        threshold = range_threshold(g.n, profile.d, profile.lam, cfg.M, cfg.constants["c_prime"])
        var_scale = variance_scale(profile.d, profile.lam, cfg.M)
    aggregates = {
        "samples": len(records),
        "mean_range": float(ranges.mean()) if len(ranges) else None,
        "tail_curve": tail_curve,
        "probe_stats": probe_stats,
        "range_threshold_display": threshold,
        "variance_scale": var_scale,
        "variance_ratios": {
            v: (s["variance"] / var_scale if var_scale else None) for v, s in probe_stats.items()
        },
        "constants": cfg.constants,
    }
    if cfg.sampler["kind"] == "glauber":
        aggregates["sampler"] = glauber_schedule(g, cfg)

    extra = None
    if cfg.dump_flaws:
        if profile is None:
            raise ConfigError("dump_flaws requires a regular graph")
        lines = []
        for i, f in enumerate(samples):
            anchor = max(range(g.n), key=lambda v: f.values[v])
            base = min_ground_state(g, f, profile.lam)
            dec = flaw_decomposition(g, f, anchor, base)
            lines.append(
                json.dumps(
                    {
                        "sample_id": i,
                        "anchor": anchor,
                        "base": base,
                        "cluster": sorted(dec.cluster),
                        "core": sorted(dec.core),
                    },
                    sort_keys=True,
                )
            )
        extra = {"flaws.jsonl": "\n".join(lines) + "\n" if lines else ""}

    return ExperimentResult(
        kind="range",
        records=records,
        aggregates=aggregates,
        gates=gates,
        provenance=_provenance(cfg),
        extra_files=extra,
    )


def run_tail_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Tail probabilities P(f(probe) > k + tM + 1) against the ball bound.

    With the exact sampler this delegates to the exact marginal used by the
    flaw-analysis tooling, so the two agree bit for bit; with the Glauber
    sampler the tail is empirical.  Both report thresholds k + tM + 1.
    """
    if cfg.mode["kind"] != "ground-state":
        raise ConfigError("tail experiment requires ground-state mode")
    g = build_graph(cfg.graph_source)
    profile = resolve_profile(g, cfg.lambda_source)
    if profile is None:
        raise ConfigError("tail experiment requires a regular graph")
    require_positive_degree(profile)
    probe = cfg.probes[0] if cfg.probes else 0
    if not (0 <= probe < g.n):
        raise ConfigError(f"probe vertex {probe} out of range")
    k = cfg.mode["k"]

    if cfg.sampler["kind"] == "exact":
        rows = conditional_tail_profile(
            g,
            cfg.M,
            profile.lam,
            probe,
            list(cfg.t_values),
            budget=cfg.budget,
            c=cfg.constants["c"],
            C=cfg.constants["C"],
            k=k,
        )
        estimate = "exact"
    else:
        samples = draw_samples(g, cfg, profile)
        marginal = Counter(f.values[probe] for f in samples)
        rows = tail_rows(g, cfg.M, profile.lam, probe, cfg.t_values, marginal, k,
                         cfg.constants["c"], cfg.constants["C"])
        for row in rows:
            row["asserted"] = False  # empirical tails are never asserted
        estimate = "empirical"

    records = [
        {
            "t": r["t"],
            "threshold": r["threshold"],
            "count_above": r["count_above"],
            "ensemble_size": r["ensemble_size"],
            "probability": repr(r["probability"]),
            "bound": repr(r["bound"]),
        }
        for r in rows
    ]
    violations = [r for r in rows if r["asserted"] and not r["holds"]]
    aggregates = {
        "estimate": estimate,
        "rows": rows,
        "monotone": all(
            rows[i]["probability"] >= rows[i + 1]["probability"] for i in range(len(rows) - 1)
        ),
        "asserted_violations": violations,
    }
    if cfg.sampler["kind"] == "glauber":
        aggregates["sampler"] = glauber_schedule(g, cfg)
    gates = {"lam": profile.lam, "lambda_method": profile.method}
    return ExperimentResult(
        kind="tail",
        records=records,
        aggregates=aggregates,
        gates=gates,
        provenance=_provenance(cfg),
        csv_name="tail.csv",
    )


def run_covering_check(cfg: ExperimentConfig) -> dict:
    """Exact count comparison: the ground-state ensemble at k is at most
    (M+1) times the anchored ensemble.  Asserted only under lam <= d/5."""
    g = build_graph(cfg.graph_source)
    profile = resolve_profile(g, cfg.lambda_source)
    if profile is None:
        raise ConfigError("covering check requires a regular graph")
    require_positive_degree(profile)
    k = cfg.mode.get("k", 0) if cfg.mode["kind"] == "ground-state" else 0
    v0 = cfg.mode.get("v0", 0) if cfg.mode["kind"] == "one-point" else 0
    gate = profile.lam <= profile.d / 5.0 + 1e-12
    cap = flaw_cap(g.n, profile.d, profile.lam)
    report = {
        "graph": g.name,
        "M": cfg.M,
        "k": k,
        "v0": v0,
        "lam": profile.lam,
        "gate_lam_le_d_over_5": gate,
        "provenance": _provenance(cfg),
    }
    if cap >= g.n:
        report.update(
            {"status": "skipped", "reason": f"flaw allowance {cap} >= n; ensemble infinite"}
        )
        return report
    lhs = count_groundstate(g, k, cfg.M, profile.lam, budget=cfg.budget).count
    rhs_base = count_onepoint(g, v0, cfg.M, budget=cfg.budget).count
    rhs = (cfg.M + 1) * rhs_base
    holds = lhs <= rhs
    report.update(
        {
            "ground_state_count": lhs,
            "one_point_count": rhs_base,
            "bound": rhs,
            "holds": holds,
            "asserted": gate,
            "status": ("pass" if holds else "fail") if gate else "report-only",
        }
    )
    return report


# ---------------------------------------------------------------------------
# Consolidated verification suite
# ---------------------------------------------------------------------------

def default_suite_graphs() -> list[Graph]:
    return [
        complete_graph(6),
        cycle_graph(4),
        hypercube_graph(3),
        random_regular_graph(10, 3, seed=1),
    ]


def _row(check, graph, status, witness=None, reason=None, repro=None, **extra) -> dict:
    row = {"check": check, "graph": graph, "status": status}
    if witness is not None:
        row["witness"] = witness
    if reason is not None:
        row["reason"] = reason
    if status == "fail":
        row["repro"] = repro or f"liplab verify  # check={check} graph={graph}"
    row.update(extra)
    return row


def run_verify_suite(graphs: list[Graph] | None = None, seed: int = 0,
                     budget: int = DEFAULT_NODE_BUDGET, fuzz_scale: int = 1) -> dict:
    """One consolidated pass/fail/skipped matrix over every finitely checkable
    claim the library implements.  Every failing row carries a witness and a
    reproduction command; skipped rows name the violated hypothesis."""
    from .containers import build_container_family, check_pair_size_bound
    from .entropy import CoverWeights, JointPmf, check_entropy_properties, shearer_check

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    graphs = graphs if graphs is not None else default_suite_graphs()
    rows: list[dict] = []

    for g in graphs:
        name = g.name or f"graph-{g.n}"
        spec_profile = spectral_lambda(g) if g.is_regular() else None
        if spec_profile is None:
            rows.append(_row("expander-certificate", name, "skipped", reason="graph not regular"))
            continue
        d = spec_profile.d

        # certificate consistency
        floor = math.sqrt(d) * (1 - d / g.n)
        cert_ok = spec_profile.lam >= floor - 1e-9
        exh_profile = None
        if g.n <= EXHAUSTIVE_CAP:
            exh_profile = exhaustive_lambda(g)
            cert_ok = cert_ok and exh_profile.lam <= spec_profile.lam + 1e-9
        rows.append(
            _row(
                "expander-certificate",
                name,
                "pass" if cert_ok else "fail",
                witness=None if cert_ok else {"spectral": spec_profile.lam, "floor": floor},
                lam_spectral=spec_profile.lam,
                lam_exhaustive=None if exh_profile is None else exh_profile.lam,
            )
        )

        # structural consequences under the strongest certificate available
        profile = exh_profile or spec_profile
        report = verify_expander_props(g, profile, seed=seed)
        for check in report["checks"]:
            rows.append(
                _row(
                    f"expander-{check['name']}",
                    name,
                    check["status"],
                    witness=check["witness"],
                    reason=check["details"].get("reason"),
                )
            )

        # ground-state existence, exhaustive at M = 1
        gsl = verify_ground_state_lemma(g, 1, spec_profile.lam, 0, budget=budget)
        rows.append(
            _row(
                "ground-state-existence",
                name,
                "pass" if not gsl["failures"] else "fail",
                witness=gsl["failures"][:1] or None,
                instances=gsl["instances_checked"],
                max_flaw_ratio=gsl["stats"]["max_flaw_ratio"],
            )
        )

        # enumeration and count agree
        n_enum = sum(1 for _ in enumerate_onepoint(g, 0, 1, budget=budget))
        n_count = count_onepoint(g, 0, 1, budget=budget).count
        rows.append(
            _row(
                "count-enumeration-agreement",
                name,
                "pass" if n_enum == n_count else "fail",
                witness=None if n_enum == n_count else {"enumerated": n_enum, "counted": n_count},
            )
        )

        # ground-state ensemble checks need a finite ensemble
        cap = flaw_cap(g.n, d, spec_profile.lam)
        if cap >= g.n:
            rows.append(
                _row(
                    "translation-bijection",
                    name,
                    "skipped",
                    reason=f"flaw allowance {cap} >= n: ensemble infinite",
                )
            )
        else:
            lam = spec_profile.lam
            base = sorted(f.values for f in enumerate_groundstate(g, 0, 1, lam, budget=budget))
            shifted = sorted(
                tuple(v - 5 for v in f.values)
                for f in enumerate_groundstate(g, 5, 1, lam, budget=budget)
            )
            reflected = sorted(
                f.reflect(3).values for f in enumerate_groundstate(g, 3, 1, lam, budget=budget)
            )
            ok = base == shifted and base == reflected
            rows.append(
                _row(
                    "translation-bijection",
                    name,
                    "pass" if ok else "fail",
                    witness=None if ok else {"sizes": [len(base), len(shifted), len(reflected)]},
                )
            )

        # covering inequality, asserted only under lam <= d/5
        if cap >= g.n:
            rows.append(
                _row("covering-inequality", name, "skipped",
                     reason=f"flaw allowance {cap} >= n: ensemble infinite")
            )
        else:
            m_cov = 1
            lhs = count_groundstate(g, 0, m_cov, spec_profile.lam, budget=budget).count
            rhs = (m_cov + 1) * count_onepoint(g, 0, m_cov, budget=budget).count
            holds = lhs <= rhs
            if spec_profile.lam <= d / 5.0 + 1e-12:
                rows.append(
                    _row("covering-inequality", name, "pass" if holds else "fail",
                         witness=None if holds else {"lhs": lhs, "bound": rhs}, lhs=lhs, bound=rhs)
                )
            else:
                rows.append(
                    _row("covering-inequality", name, "skipped",
                         reason=f"hypothesis lam <= d/5 fails (lam={spec_profile.lam:.4g})",
                         lhs=lhs, bound=rhs, holds=holds)
                )

        # exact tail rows (only for finite ensembles)
        if cap < g.n:
            tail_rows = conditional_tail_profile(g, 1, spec_profile.lam, 0, [2, 3], budget=budget)
            bad = [r for r in tail_rows if r["asserted"] and not r["holds"]]
            mono = all(
                tail_rows[i]["probability"] >= tail_rows[i + 1]["probability"]
                for i in range(len(tail_rows) - 1)
            )
            rows.append(
                _row(
                    "tail-inequality",
                    name,
                    "pass" if not bad and mono else "fail",
                    witness=bad[:1] or (None if mono else {"rows": tail_rows}),
                )
            )

        # flaw-structure fuzz: closure of the core stays inside the cluster
        failures = []
        for _ in range(200 * fuzz_scale):
            m_val = int(rng.integers(1, 4))
            f = _random_lipschitz(g, m_val, rng)
            anchor = int(rng.integers(0, g.n))
            base_k = f.values[anchor] - 2 * m_val - 2
            dec = flaw_decomposition(g, f, anchor, base_k)
            if not core_within_cluster_interior(dec, g):
                failures.append({"values": list(f.values), "anchor": anchor, "base": base_k})
                break
        rows.append(
            _row(
                "core-closure",
                name,
                "pass" if not failures else "fail",
                witness=failures[:1] or None,
                cases=200 * fuzz_scale,
            )
        )

        # boundary ordering fuzz
        checked = 0
        failed = None
        for _ in range(100 * fuzz_scale):
            s = {int(rng.integers(0, g.n))}
            for _ in range(int(rng.integers(0, 3))):
                cands = [u for u in range(g.n) if u not in s]
                rng.shuffle(cands)
                for u in cands:
                    if is_k_linked(g, s | {u}, 4):
                        s.add(u)
                        break
            if len(closure(g, s)) == g.n:
                continue
            order = boundary_ordering(g, s)
            verdict = check_boundary_ordering(g, s, order)
            checked += 1
            if not verdict["ok"]:
                failed = {"s": sorted(s), "order": order, "verdict": verdict}
                break
        if checked == 0:
            rows.append(
                _row("boundary-ordering", name, "skipped",
                     reason="every sampled set closes over the whole graph")
            )
        else:
            rows.append(
                _row(
                    "boundary-ordering",
                    name,
                    "pass" if failed is None else "fail",
                    witness=failed,
                    cases=checked,
                )
            )

        # container pipeline at desk scale
        if g.n <= 10:
            pipeline_fail = None
            pair_bound_fail = None
            for k_link in (1, 4):
                fam = build_container_family(
                    g, 0, d, k_link, 1.0, profile, seed=seed, budget=budget
                )
                if fam.n_sets and not fam.covers_all:
                    pipeline_fail = {"k": k_link, "boundary_size": d}
                    break
                for pair in fam.pairs:
                    verdict = check_pair_size_bound(pair, profile)
                    if verdict["status"] == "fail":
                        pair_bound_fail = {"k": k_link, "pair_s": sorted(pair.s)}
            rows.append(
                _row(
                    "container-covering",
                    name,
                    "pass" if pipeline_fail is None else "fail",
                    witness=pipeline_fail,
                )
            )
            rows.append(
                _row(
                    "pair-size-bound",
                    name,
                    "pass" if pair_bound_fail is None else "fail",
                    witness=pair_bound_fail,
                )
            )

    # entropy rows (graph independent); `pmfs` and `checks` count the work
    # done, under names apart from the `cases`/`instances` fuzz counters.
    # One call per support shape, each stopping at its first failing pmf; the
    # hand-built pmfs are checked only if the random ones pass.
    ent_fail = None
    ent_pmfs = ent_checks = 0
    ent_seeds = list(range(150 * fuzz_scale))
    random_pmfs = [JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=seed * 100_000 + s) for s in ent_seeds]
    hand_built = [JointPmf.xor_triple(), JointPmf.independent_uniform_bits(3)]
    for pmfs, seeds, name in ((random_pmfs, ent_seeds, None), (hand_built, [seed, seed], "hand-constructed")):
        report = check_entropy_properties(pmfs, trials=2, seed=seeds)
        ent_pmfs += report["pmfs"]
        ent_checks += sum(report["checked"].values())
        if not report["ok"]:
            first = report["failures"][0]
            ent_fail = {"seed": seeds[first["pmf"]]} if name is None else {"pmf": name}
            ent_fail["failures"] = [{"property": first["property"], "witness": first["witness"]}]
            break
    rows.append(
        _row(
            "entropy-properties",
            "-",
            "pass" if ent_fail is None else "fail",
            witness=ent_fail,
            pmfs=ent_pmfs,
            checks=ent_checks,
        )
    )

    cw = CoverWeights(
        (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})), (0.5, 0.5, 0.5), frozenset()
    )
    sh_fail = None
    sh_pmfs = 0
    for s in range(150 * fuzz_scale):
        p = JointPmf.random([(0, 1), (0, 1), (0, 1)], seed=seed * 100_000 + s)
        verdict = shearer_check(p, cw)
        sh_pmfs += 1
        if not verdict["pass"]:
            sh_fail = {"seed": s, "lhs": verdict["lhs"], "rhs": verdict["rhs"]}
            break
    if sh_fail is None:
        verdict = shearer_check(
            JointPmf.xor_triple(),
            CoverWeights((frozenset({0, 1}), frozenset({2})), (1.0, 1.0), frozenset()),
        )
        sh_pmfs += 1
        if not verdict["pass"]:
            sh_fail = {"pmf": "xor", "lhs": verdict["lhs"], "rhs": verdict["rhs"]}
    rows.append(
        _row("cover-inequality", "-", "pass" if sh_fail is None else "fail", witness=sh_fail, pmfs=sh_pmfs)
    )

    # exact Glauber kernel symmetry on C4
    c4 = cycle_graph(4)
    from fractions import Fraction

    states = [f.values for f in enumerate_onepoint(c4, 0, 1, budget=budget)]
    index = {s: i for i, s in enumerate(states)}
    kernel_ok = True
    probs: dict[tuple[int, int], Fraction] = {}
    for s in states:
        for v in (1, 2, 3):
            lo, hi = glauber_site_interval(s, c4.neighbors(v), 1)
            for cval in range(lo, hi + 1):
                t = list(s)
                t[v] = cval
                key = (index[s], index[tuple(t)])
                probs[key] = probs.get(key, Fraction(0)) + Fraction(1, 3 * (hi - lo + 1))
    for (i, j), pij in probs.items():
        if probs.get((j, i), Fraction(0)) != pij:
            kernel_ok = False
            break
    rows.append(_row("detailed-balance", "C4", "pass" if kernel_ok else "fail"))

    # reproducibility of the experiment pipeline
    repro_cfg = parse_config(
        {
            "schema": 1,
            "graph": {"family": "cycle", "n": 4},
            "M": 1,
            "mode": {"kind": "one-point", "v0": 0},
            "sampler": {"kind": "exact"},
            "samples": 50,
            "seed": seed + 7,
            "probes": [2],
        }
    )
    first = run_range_experiment(repro_cfg).csv_text()
    second = run_range_experiment(repro_cfg).csv_text()
    rows.append(
        _row("reproducibility", "C4", "pass" if first == second else "fail")
    )

    n_fail = sum(1 for r in rows if r["status"] == "fail")
    return {
        "rows": rows,
        "n_fail": n_fail,
        "n_pass": sum(1 for r in rows if r["status"] == "pass"),
        "n_skipped": sum(1 for r in rows if r["status"] in ("skipped", "sampled")),
        "ok": n_fail == 0,
    }


def _random_lipschitz(g: Graph, M: int, rng: np.random.Generator) -> LipschitzFn:
    """Breadth-first random assignment, restarted on dead ends."""
    from .lipschitz import _bfs_order

    order = _bfs_order(g, int(rng.integers(0, g.n)))
    while True:
        vals = [0] * g.n
        assigned: set[int] = set()
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
