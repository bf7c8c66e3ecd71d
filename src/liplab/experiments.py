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
import shlex
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from functools import cached_property

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
    boundary_ordering,
    check_boundary_ordering,
    conditional_tail_profile,
    core_closure_escapes,
    decompose_rows,
    tail_hypotheses,
    tail_rows,
    tail_verdict,
    verify_ground_state_lemma,
)
from .graphs import (
    DEFAULT_NODE_BUDGET,
    Graph,
    bfs_order,
    check_graph_spec,
    complete_graph,
    cycle_graph,
    generate,
    hypercube_graph,
    is_int,
    is_k_linked,
    load_edge_list,
    mask_vertices,
    neighborhood,
    random_regular_graph,
)
from .lipschitz import (
    EnsembleSpec,
    LipschitzFn,
    count_groundstate,
    count_onepoint,
    enumerate_onepoint,
    flaw_cap,
    glauber_samples,
    glauber_site_interval,
    member_batches,
    min_ground_states,
    sample_exact,
)

CONFIG_SCHEMA = 1

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
class EnsembleKeys:
    """The config keys that name an ensemble, as `parse_ensemble` checked them."""

    graph_source: dict
    M: int
    mode: dict
    lambda_source: object


@dataclass(frozen=True)
class ExperimentConfig(EnsembleKeys):
    raw: dict
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


def _is_number(value) -> bool:
    return is_int(value) or isinstance(value, float)


def _graph_path(graph) -> str | None:
    """The edge-list path of a `{"path": <string>}` graph source, or None for
    a generator spec `{"family": ..., <params>}` (checked by
    `check_graph_spec`); any other `graph` key is refused."""
    if not isinstance(graph, dict) or not ("path" in graph or "family" in graph):
        raise ConfigError("graph must be {'path': ...} or {'family': ..., <params>}")
    if "path" not in graph:
        return None
    if set(graph) != {"path"}:
        raise ConfigError("graph path entry takes no other keys")
    if not isinstance(graph["path"], str):
        raise ConfigError(f"graph.path must be a string, got {graph['path']!r}")
    return graph["path"]


def check_lambda_source(lam_src):
    """`lam_src` if it is a lambda source: "spectral", "exhaustive" or
    `{"asserted": <finite number >= 0>}`."""
    if isinstance(lam_src, dict):
        if set(lam_src) != {"asserted"} or not _is_number(lam_src["asserted"]):
            raise ConfigError("lambda_source object form is {'asserted': number}")
        if not math.isfinite(lam_src["asserted"]):
            raise ConfigError(f"lambda_source.asserted must be finite, got {lam_src['asserted']!r}")
        if lam_src["asserted"] < 0:
            raise ConfigError(f"lambda_source.asserted must be >= 0, got {lam_src['asserted']!r}")
    elif lam_src not in ("spectral", "exhaustive"):
        raise ConfigError(f"unknown lambda_source {lam_src!r}")
    return lam_src


def parse_ensemble(data: dict) -> EnsembleKeys:
    """Check the keys that name an ensemble: `graph`, `M`, `mode` and
    `lambda_source`.  `parse_config` runs these checks, and the CLI runs them
    on its ensemble flags."""
    graph = data.get("graph")
    if _graph_path(graph) is None:
        check_graph_spec(graph)

    m_value = data.get("M")
    if not is_int(m_value) or m_value < 0:
        raise ConfigError("M must be a nonnegative integer")

    mode = data.get("mode", {"kind": "one-point", "v0": 0})
    if not isinstance(mode, dict) or mode.get("kind") not in ("one-point", "ground-state"):
        raise ConfigError("mode.kind must be 'one-point' or 'ground-state'")
    if mode["kind"] == "one-point":
        if set(mode) != {"kind", "v0"} or not is_int(mode.get("v0")):
            raise ConfigError("one-point mode needs integer v0")
    else:
        if set(mode) != {"kind", "k"} or not is_int(mode.get("k")):
            raise ConfigError("ground-state mode needs integer k")

    lam_src = check_lambda_source(data.get("lambda_source", "spectral"))
    return EnsembleKeys(graph, m_value, mode, lam_src)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict; unknown keys are rejected outright."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA}, got {data.get('schema')!r}")
    keys = parse_ensemble(data)

    sampler = data.get("sampler", {"kind": "exact"})
    if not isinstance(sampler, dict) or sampler.get("kind") not in ("exact", "glauber"):
        raise ConfigError("sampler.kind must be 'exact' or 'glauber'")
    allowed = {"kind"} if sampler["kind"] == "exact" else {"kind", "burn_in", "thinning"}
    if set(sampler) - allowed:
        raise ConfigError(f"unknown sampler keys: {sorted(set(sampler) - allowed)}")
    for key, low in (("burn_in", 0), ("thinning", 1)):
        value = sampler.get(key, low)
        if not is_int(value) or value < low:
            raise ConfigError(f"sampler.{key} must be an integer >= {low}")

    samples = data.get("samples", 0)
    if not is_int(samples) or samples < 0:
        raise ConfigError("samples must be a nonnegative integer")
    seed = data.get("seed")
    if not is_int(seed) or seed < 0 or seed >= 2**64:
        raise ConfigError("seed must be an unsigned 64-bit integer")

    probes = data.get("probes", [])
    if not isinstance(probes, list) or not all(is_int(v) for v in probes):
        raise ConfigError("probes must be a list of vertex ids")

    constants = {"c": 1.0, "C": 1.0, "c_prime": 1.0}
    user_constants = data.get("constants", {})
    if not isinstance(user_constants, dict) or set(user_constants) - set(constants):
        raise ConfigError(f"constants allows keys {sorted(constants)}, got {user_constants!r}")
    for key, value in user_constants.items():
        if not _is_number(value):
            raise ConfigError(f"constants.{key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"constants.{key} must be finite, got {value!r}")
        constants[key] = float(value)

    budget = data.get("budget", DEFAULT_NODE_BUDGET)
    if not is_int(budget) or budget <= 0:
        raise ConfigError("budget must be a positive integer")

    t_values = data.get("t_values", [2, 3, 4])
    if not isinstance(t_values, list) or not all(is_int(t) and t >= 0 for t in t_values):
        raise ConfigError("t_values must be a list of nonnegative integers")

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")

    dump_flaws = data.get("dump_flaws", False)
    if not isinstance(dump_flaws, bool):
        raise ConfigError("dump_flaws must be a boolean")

    return ExperimentConfig(
        **vars(keys),
        raw=data,
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
    """The graph of a `graph` key: an edge-list file or a generated graph."""
    path = _graph_path(source)
    return generate(source) if path is None else load_edge_list(path)


def _check_lambda_source(g: Graph, lambda_source) -> bool:
    """Refuse a lambda source that cannot apply to g, without computing a
    certificate; return whether g is regular.  An asserted lambda above the
    degree d is refused: no eigenvalue of a d-regular graph exceeds d."""
    regular = g.is_regular()
    if isinstance(lambda_source, dict):
        if not regular:
            raise ConfigError("asserted lambda requires a regular graph")
        if lambda_source["asserted"] > g.regular_degree():
            raise ConfigError(f"lambda_source.asserted must be <= the degree d = {g.regular_degree()}, "
                              f"got {lambda_source['asserted']!r}")
    if lambda_source == "exhaustive" and regular and g.n > EXHAUSTIVE_CAP:
        raise ConfigError(f"exhaustive lambda needs n <= {EXHAUSTIVE_CAP}, got n={g.n}")
    return regular


def resolve_profile(g: Graph, lambda_source) -> ExpanderProfile | None:
    """Expansion certificate per the configured source; None when the graph
    is not regular (certificates do not apply)."""
    if not _check_lambda_source(g, lambda_source):
        return None
    if isinstance(lambda_source, dict):
        return asserted_profile(g, lambda_source["asserted"])
    return spectral_lambda(g) if lambda_source == "spectral" else exhaustive_lambda(g)


@dataclass(frozen=True)
class Ensemble:
    """An ensemble request resolved on its graph (see `resolve_ensemble`)."""

    g: Graph
    profile: ExpanderProfile | None
    spec: EnsembleSpec
    probes: tuple[int, ...]


def resolve_ensemble(keys: EnsembleKeys, probes=None, ground: bool = False,
                     gates: bool = False) -> Ensemble:
    """Build the graph that `keys` name and check the request against it.
    The ground-state ensemble (the configured mode, or `ground` for a runner
    that reads it in either mode) needs a regular graph of degree >= 1 and
    its certificate; `gates` computes the certificate on any regular graph;
    otherwise none is computed, but the lambda source must fit the graph.
    `probes` (None when the caller reads none) must be vertices of the
    graph, and default to the anchor, v0 or vertex 0; a v0 off the graph is
    left to the sampler, which refuses it as the anchor."""
    g = build_graph(keys.graph_source)
    mode = keys.mode
    ground = ground or mode["kind"] == "ground-state"
    regular = _check_lambda_source(g, keys.lambda_source)
    if ground and not regular:
        raise ConfigError("ground-state mode requires a regular graph")
    if ground and g.regular_degree() == 0:
        # the flaw allowance (2*lam/d)*n divides by the degree
        raise ConfigError("ground-state mode needs a graph of degree >= 1, got degree 0")
    profile = resolve_profile(g, keys.lambda_source) if ground or gates else None
    # a one-point mode holds v0 and no k, a ground-state mode k and no v0
    spec = EnsembleSpec(mode["kind"], M=keys.M, v0=mode.get("v0"), k=mode.get("k"),
                        lam=profile.lam if mode["kind"] == "ground-state" else None)
    if probes is not None:
        for v in probes:
            if not 0 <= v < g.n:
                raise ConfigError(f"probe vertex {v} out of range")
        probes = tuple(probes) or (mode.get("v0", 0),)
    return Ensemble(g, profile, spec, probes or ())


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def glauber_schedule(g: Graph, cfg: ExperimentConfig) -> dict:
    """The Glauber run a config resolves to: burn-in (default 100*n*M),
    thinning (default n) and the total chain steps."""
    burn_in = cfg.sampler.get("burn_in", 100 * g.n * max(1, cfg.M))
    thinning = cfg.sampler.get("thinning", g.n)
    return {"burn_in": burn_in, "thinning": thinning, "chain_steps": burn_in + cfg.samples * thinning}


def draw_samples(ens: Ensemble, cfg: ExperimentConfig) -> tuple[np.ndarray, dict | None]:
    """The samples of the config's sampler, the rows of one `(samples, n)`
    value array, and for a Glauber run the `sampler` block of summary.json:
    its schedule, the moves the flaw cap rejected and their share of the
    chain steps (None for the exact sampler)."""
    g, spec = ens.g, ens.spec
    if cfg.sampler["kind"] == "exact":
        return sample_exact(g, spec, cfg.seed, cfg.samples, budget=cfg.budget), None

    schedule = glauber_schedule(g, cfg)
    samples, rejected = glauber_samples(g, spec, cfg.seed, schedule["burn_in"], schedule["thinning"],
                                        cfg.samples)
    steps = schedule["chain_steps"]
    return samples, {**schedule, "rejected": rejected, "rejection_rate": rejected / steps if steps else 0.0}


# ---------------------------------------------------------------------------
# Results and persistence
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    kind: str
    columns: dict[str, list]  # the CSV's columns by header, all of one length
    aggregates: dict
    gates: dict
    provenance: dict
    csv_name: str = "results.csv"
    extra_files: dict | None = None

    def csv_text(self) -> str:
        """The columns as CSV, the header first; "" when there are no rows."""
        lines = [",".join(map(str, row)) for row in zip(*self.columns.values())]
        if not lines:
            return ""
        return ",".join(self.columns) + "\n" + "\n".join(lines) + "\n"

    def write(self, out_dir) -> dict:
        """Write the CSV (when there are rows), the extra files and
        summary.json; their paths, the CSV's under "csv" and summary.json's
        under "summary"."""
        text = self.csv_text()
        files = {self.csv_name: text} if text else {}
        files.update(self.extra_files or {})
        files["summary.json"] = report_json({"kind": self.kind, "aggregates": self.aggregates,
                                             "gates": self.gates, "provenance": self.provenance})
        keys = {self.csv_name: "csv", "summary.json": "summary"}
        return {keys.get(name, name): path for name, path in write_files(out_dir, files).items()}


def report_json(obj) -> str:
    """A report as pretty-printed JSON with a final newline, the one format
    of every JSON report printed or written; a value that JSON cannot hold,
    NaN and the infinities among them, raises `TypeError`."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a non-finite float: a fault, not a usage error
        raise TypeError(str(exc)) from exc


def write_files(out_dir, files: dict[str, str]) -> dict[str, str]:
    """Make `out_dir` and write each text of `files` there under its file
    name, the one writer of output files; the written paths by file name."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(out_dir, name)
        with open(paths[name], "w") as fh:
            fh.write(text)
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
    # the flaw dump reads each sample's ground states, in either mode
    ens = resolve_ensemble(cfg, cfg.probes, ground=cfg.dump_flaws, gates=True)
    g, profile, probes = ens.g, ens.profile, ens.probes
    if cfg.M * (g.n - 1) + 1 >= 1 << 62:
        # no range passes M*(n-1)+1, so below this bound every range fits int64
        raise ConfigError(f"range experiment needs M*(n-1)+1 < 2^62, got M={cfg.M} on n={g.n}")
    samples, sampler = draw_samples(ens, cfg)

    # per sample: two row reductions for the range, column slices for the probes
    low, high = np.minimum.reduce(samples, axis=1), np.maximum.reduce(samples, axis=1)
    spans = high - low + 1
    columns = {"sample_id": list(range(len(samples))), "range": spans.tolist(),
               "min": low.tolist(), "max": high.tolist()}
    for v in probes:
        columns[f"probe_{v}"] = samples[:, v].tolist()

    ranges = spans.astype(np.int64, copy=False)
    # one entry per distinct sampled range r, counting the samples of range >= r
    distinct, per_range = np.unique(ranges, return_counts=True)
    at_least = per_range[::-1].cumsum()[::-1]
    tail_curve = [{"r": r, "count": count, "fraction": count / len(ranges)}
                  for r, count in zip(distinct.tolist(), at_least.tolist())]
    probe_stats = {}
    for v in probes:
        vals = samples[:, v].astype(np.float64)
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
        "samples": len(samples),
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
    if sampler is not None:
        aggregates["sampler"] = sampler

    extra = None
    if cfg.dump_flaws:
        # each sample's anchor is its first highest vertex, and its base its smallest ground state
        anchors = samples.argmax(axis=1)
        bases = min_ground_states(g, samples, cfg.M, profile.lam)
        cluster, core = decompose_rows(g, samples, cfg.M, anchors, bases)
        lines = [json.dumps({"sample_id": i, "anchor": anchor, "base": base, "cluster": np.flatnonzero(c).tolist(),
                             "core": np.flatnonzero(k).tolist()}, sort_keys=True) + "\n"
                 for i, (anchor, base, c, k) in enumerate(zip(anchors.tolist(), bases.tolist(), cluster, core))]
        extra = {"flaws.jsonl": "".join(lines)}

    return ExperimentResult(
        kind="range",
        columns=columns,
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
    if len(cfg.probes) > 1:
        raise ConfigError(f"tail experiment takes one probe, got probes {list(cfg.probes)}")
    ens = resolve_ensemble(cfg, cfg.probes)
    g, profile, probe, k = ens.g, ens.profile, ens.probes[0], ens.spec.k

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
        estimate, sampler = "exact", None
    else:
        samples, sampler = draw_samples(ens, cfg)
        marginal = Counter(samples[:, probe].tolist())
        rows = tail_rows(g, cfg.M, profile.lam, probe, cfg.t_values, marginal, k,
                         cfg.constants["c"], cfg.constants["C"])
        for row in rows:
            row["asserted"] = False  # empirical tails are never asserted
        estimate = "empirical"

    # a float's str is its repr, so the CSV cells parse back to the row's floats
    columns = {key: [r[key] for r in rows]
               for key in ("t", "threshold", "count_above", "ensemble_size", "probability", "bound")}
    aggregates = {"estimate": estimate, "rows": rows, **tail_verdict(rows)}
    if sampler is not None:
        aggregates["sampler"] = sampler
    gates = {"lam": profile.lam, "lambda_method": profile.method}
    return ExperimentResult(
        kind="tail",
        columns=columns,
        aggregates=aggregates,
        gates=gates,
        provenance=_provenance(cfg),
        csv_name="tail.csv",
    )


def covering_inequality(g: Graph, profile: ExpanderProfile, M: int, k: int = 0, v0: int = 0,
                        budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """The covering inequality, in the fields of `covering.json`: the
    ground-state ensemble at base k has at most (M+1) times as many members
    as the one-point ensemble at v0.  Asserted only under lam <= d/5; skipped
    when the flaw allowance is >= n (the ground-state ensemble is infinite)."""
    gate = profile.lam <= profile.d / 5.0 + 1e-12
    cap = flaw_cap(g.n, profile.d, profile.lam)
    if cap >= g.n:
        return {"gate_lam_le_d_over_5": gate, "status": "skipped",
                "reason": f"flaw allowance {cap} >= n; ensemble infinite"}
    lhs = count_groundstate(g, k, M, profile.lam, budget=budget).count
    base = count_onepoint(g, v0, M, budget=budget).count
    holds = lhs <= (M + 1) * base
    return {"gate_lam_le_d_over_5": gate, "ground_state_count": lhs, "one_point_count": base,
            "bound": (M + 1) * base, "holds": holds, "asserted": gate,
            "status": ("pass" if holds else "fail") if gate else "report-only"}


def run_covering_check(cfg: ExperimentConfig) -> dict:
    """`covering_inequality` under the configured certificate, at the
    configured base k or anchor v0 (the other one is 0)."""
    ens = resolve_ensemble(cfg, ground=True)
    k, v0 = cfg.mode.get("k", 0), cfg.mode.get("v0", 0)
    return {"graph": ens.g.name, "M": cfg.M, "k": k, "v0": v0, "lam": ens.profile.lam,
            "provenance": _provenance(cfg),
            **covering_inequality(ens.g, ens.profile, cfg.M, k, v0, budget=cfg.budget)}


# ---------------------------------------------------------------------------
# Consolidated verification suite: a registry of checks
# ---------------------------------------------------------------------------

def default_suite_graphs() -> list[Graph]:
    return [
        complete_graph(6),
        cycle_graph(4),
        hypercube_graph(3),
        random_regular_graph(10, 3, seed=1),
    ]


@dataclass
class VerifyContext:
    """What every check reads: the suite's seed, node budget and fuzz scale,
    and the one `default_rng(seed)` stream that the fuzz checks consume in
    registry order."""

    seed: int = 0
    budget: int = DEFAULT_NODE_BUDGET
    fuzz_scale: int = 1
    rng: np.random.Generator = field(init=False)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)


@dataclass(frozen=True)
class SuiteGraph:
    """A suite graph under its row name, with the certificates of a regular
    graph, each computed once, when a check first reads it."""

    g: Graph

    @property
    def name(self) -> str:
        return self.g.name or f"graph-{self.g.n}"

    @cached_property
    def spectral(self) -> ExpanderProfile:
        return spectral_lambda(self.g)

    @cached_property
    def exhaustive(self) -> ExpanderProfile | None:
        return exhaustive_lambda(self.g) if self.g.n <= EXHAUSTIVE_CAP else None

    @property
    def profile(self) -> ExpanderProfile:
        """The strongest certificate available."""
        return self.exhaustive or self.spectral

    @property
    def cap(self) -> int:
        return flaw_cap(self.g.n, self.spectral.d, self.spectral.lam)

    @property
    def finite(self) -> bool:
        """Whether the ground-state ensemble is finite: flaw allowance below n."""
        return self.cap < self.g.n


def _row(check, graph, status, witness=None, reason=None, **extra) -> dict:
    row = {"check": check, "graph": graph, "status": status}
    if witness is not None:
        row["witness"] = witness
    if reason is not None:
        row["reason"] = reason
    row.update(extra)
    return row


def _verdict(check, graph, ok, witness, **extra) -> dict:
    """A pass row, or a fail row carrying `witness`."""
    return _row(check, graph, "pass" if ok else "fail", witness=None if ok else witness, **extra)


def _infinite(check, sg: SuiteGraph) -> list[dict]:
    """The skipped row of a check that needs a finite ground-state ensemble;
    empty when the ensemble is finite."""
    if sg.finite:
        return []
    return [_row(check, sg.name, "skipped", reason=f"flaw allowance {sg.cap} >= n: ensemble infinite")]


def check_expander_certificate(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    spectral, exhaustive, d = sg.spectral, sg.exhaustive, sg.spectral.d
    floor = math.sqrt(d) * (1 - d / sg.g.n)
    ok = spectral.lam >= floor - 1e-9 and (exhaustive is None or exhaustive.lam <= spectral.lam + 1e-9)
    return [_verdict("expander-certificate", sg.name, ok, {"spectral": spectral.lam, "floor": floor},
                     lam_spectral=spectral.lam,
                     lam_exhaustive=None if exhaustive is None else exhaustive.lam)]


def check_expander_props(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """Structural consequences under the strongest certificate available."""
    report = verify_expander_props(sg.g, sg.profile, seed=ctx.seed)
    return [_row(f"expander-{c['name']}", sg.name, c["status"], witness=c["witness"],
                 reason=c["details"].get("reason")) for c in report["checks"]]


def check_ground_state_existence(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """Exhaustive at M = 1."""
    gsl = verify_ground_state_lemma(sg.g, 1, sg.spectral.lam, 0, budget=ctx.budget)
    return [_verdict("ground-state-existence", sg.name, not gsl["failures"], gsl["failures"][:1],
                     instances=gsl["instances_checked"], max_flaw_ratio=gsl["stats"]["max_flaw_ratio"])]


def check_count_enumeration(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """The enumerated members themselves, stacked and checked in one pass over
    the edges: each 1-Lipschitz with f(0) = 0, no two equal, and as many as
    the count.  The first bad member is the witness."""
    members = np.concatenate(list(member_batches(sg.g, EnsembleSpec("one-point", M=1, v0=0), ctx.budget)))
    n_count = count_onepoint(sg.g, 0, 1, budget=ctx.budget).count
    lower, upper = sg.g.edge_index
    rows = members.view(np.dtype((np.void, members.itemsize * sg.g.n))).ravel()  # one key per member
    repeat = np.ones(len(members), dtype=bool)
    repeat[np.unique(rows, return_index=True)[1]] = False  # later copies only
    steep = (np.abs(members[:, lower] - members[:, upper]) > 1).any(axis=1)
    bad = steep | (members[:, 0] != 0) | repeat
    witness = {"enumerated": len(members), "counted": n_count}
    if bad.any():
        first = int(np.argmax(bad))
        witness.update(rank=first, member=members[first].tolist())
    ok = len(members) == n_count and not bad.any()
    return [_verdict("count-enumeration-agreement", sg.name, ok, witness)]


def check_translation_bijection(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    if skip := _infinite("translation-bijection", sg):
        return skip

    def ensemble(k):
        spec = EnsembleSpec("ground-state", M=1, k=k, lam=sg.spectral.lam)
        return np.concatenate(list(member_batches(sg.g, spec, ctx.budget)))

    def lexsorted(members):
        return members[np.lexsort(members.T[::-1])]

    base = lexsorted(ensemble(0))
    shifted = lexsorted(ensemble(5) - 5)
    reflected = lexsorted(3 + 1 - ensemble(3))  # f -> -f + k + M
    ok = np.array_equal(base, shifted) and np.array_equal(base, reflected)
    return [_verdict("translation-bijection", sg.name, ok,
                     {"sizes": [len(base), len(shifted), len(reflected)]})]


def check_covering_inequality(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """`covering_inequality` at M = 1 under the spectral certificate."""
    if skip := _infinite("covering-inequality", sg):
        return skip
    cov = covering_inequality(sg.g, sg.spectral, 1, budget=ctx.budget)
    lhs, rhs = cov["ground_state_count"], cov["bound"]
    if cov["asserted"]:
        return [_verdict("covering-inequality", sg.name, cov["holds"], {"lhs": lhs, "bound": rhs},
                         lhs=lhs, bound=rhs)]
    return [_row("covering-inequality", sg.name, "skipped",
                 reason=f"hypothesis lam <= d/5 fails (lam={sg.spectral.lam:.4g})", lhs=lhs, bound=rhs,
                 holds=cov["holds"])]


def check_tail_inequality(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """Exact tail rows; no row at all when the ensemble is infinite."""
    if not sg.finite:
        return []
    tail = conditional_tail_profile(sg.g, 1, sg.spectral.lam, 0, [2, 3], budget=ctx.budget)
    verdict = tail_verdict(tail)
    bad = verdict["asserted_violations"]
    return [_verdict("tail-inequality", sg.name, not bad and verdict["monotone"], bad[:1] or {"rows": tail})]


def check_core_closure(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """Flaw-structure fuzz: the closure of the core stays inside the cluster.
    Every case is a row of one batch: M uniform on {1, 2, 3}, a random
    M-Lipschitz function, a uniform anchor and the base that puts the anchor
    exactly at the core threshold.  The witness is the first failing case."""
    g, rng, cases = sg.g, ctx.rng, 200 * ctx.fuzz_scale
    ms = rng.integers(1, 4, size=cases)
    vals = _random_lipschitz_rows(g, ms, rng)
    anchors = rng.integers(0, g.n, size=cases)
    bases = vals[np.arange(cases), anchors] - 2 * ms - 2
    bad = core_closure_escapes(g, *decompose_rows(g, vals, ms, anchors, bases))
    failure = None
    if bad.any():
        i = int(bad.argmax())
        failure = [{"values": vals[i].tolist(), "anchor": int(anchors[i]), "base": int(bases[i])}]
    return [_verdict("core-closure", sg.name, failure is None, failure, cases=cases)]


def check_boundary_ordering_fuzz(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """Boundary-ordering fuzz over random 4-linked sets that do not close over g."""
    g, rng = sg.g, ctx.rng
    checked, failed = 0, None
    for _ in range(100 * ctx.fuzz_scale):
        s = _random_linked_set(g, rng)
        if (s | neighborhood(g, s)).bit_count() == g.n:
            continue
        order = boundary_ordering(g, s)
        verdict = check_boundary_ordering(g, s, order)
        checked += 1
        if not verdict["ok"]:
            failed = {"s": mask_vertices(s), "order": order, "verdict": verdict}
            break
    if checked == 0:
        return [_row("boundary-ordering", sg.name, "skipped",
                     reason="every sampled set closes over the whole graph")]
    return [_verdict("boundary-ordering", sg.name, failed is None, failed, cases=checked)]


def check_containers(sg: SuiteGraph, ctx: VerifyContext) -> list[dict]:
    """The container pipeline at desk scale; no rows above n = 10."""
    if sg.g.n > 10:
        return []
    from .containers import build_container_family, check_pair_size_bound

    d = sg.spectral.d
    if d < 2:  # psi = 1 needs 1 <= d/2
        reason = f"psi = 1 lies outside [1, d/2] = [1, {d / 2}]"
        return [_row(check, sg.name, "skipped", reason=reason)
                for check in ("container-covering", "pair-size-bound")]
    pipeline_fail = pair_bound_fail = None
    for k in (1, 4):
        fam = build_container_family(sg.g, 0, d, k, 1.0, sg.profile, seed=ctx.seed, budget=ctx.budget)
        if fam.n_sets and not fam.covers_all:
            pipeline_fail = {"k": k, "boundary_size": d}
            break
        for pair in fam.pairs:
            if check_pair_size_bound(pair, sg.profile)["status"] == "fail":
                pair_bound_fail = {"k": k, "pair_s": mask_vertices(pair.s)}
    return [_verdict("container-covering", sg.name, pipeline_fail is None, pipeline_fail),
            _verdict("pair-size-bound", sg.name, pair_bound_fail is None, pair_bound_fail)]


def check_entropy(ctx: VerifyContext) -> list[dict]:
    """Entropy properties on random and hand-built pmfs.  One call per support
    shape, each stopping at its first failing pmf; the hand-built pmfs are
    checked only if the random ones pass.  `pmfs` and `checks` count the work
    done, under names apart from the `cases`/`instances` fuzz counters."""
    from .entropy import JointPmf, check_entropy_properties

    fail, n_pmfs, n_checks = None, 0, 0
    seeds = list(range(150 * ctx.fuzz_scale))
    random_pmfs = [JointPmf.random([(0, 1), (0, 1, 2), (0, 1)], seed=ctx.seed * 100_000 + s) for s in seeds]
    hand_built = [JointPmf.xor_triple(), JointPmf.independent_uniform_bits(3)]
    for pmfs, pmf_seeds, name in ((random_pmfs, seeds, None),
                                  (hand_built, [ctx.seed, ctx.seed], "hand-constructed")):
        report = check_entropy_properties(pmfs, pmf_seeds)
        n_pmfs += report["pmfs"]
        n_checks += sum(report["checked"].values())
        if not report["ok"]:
            first = report["failures"][0]
            fail = {"seed": pmf_seeds[first["pmf"]]} if name is None else {"pmf": name}
            fail["failures"] = [{"property": first["property"], "witness": first["witness"]}]
            break
    return [_verdict("entropy-properties", "-", fail is None, fail, pmfs=n_pmfs, checks=n_checks)]


def check_cover_inequality(ctx: VerifyContext) -> list[dict]:
    """Shearer's fractional-cover inequality on random pmfs, checked as one
    stack, then on the XOR triple."""
    from .entropy import CoverWeights, JointPmf, shearer_check, shearer_rows

    cw = CoverWeights((frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})), (0.5, 0.5, 0.5), frozenset())
    seeds = range(ctx.seed * 100_000, ctx.seed * 100_000 + 150 * ctx.fuzz_scale)
    lhs, rhs, ok = shearer_rows((JointPmf.random([(0, 1), (0, 1), (0, 1)], seed=seed) for seed in seeds), cw)
    fail, n_pmfs = None, len(seeds)
    if not ok.all():
        s = int(ok.argmin())
        fail, n_pmfs = {"seed": s, "lhs": float(lhs[s]), "rhs": float(rhs[s])}, s + 1
    else:
        xor_cover = CoverWeights((frozenset({0, 1}), frozenset({2})), (1.0, 1.0), frozenset())
        verdict = shearer_check(JointPmf.xor_triple(), xor_cover)
        n_pmfs += 1
        if not verdict["pass"]:
            fail = {"pmf": "xor", "lhs": verdict["lhs"], "rhs": verdict["rhs"]}
    return [_verdict("cover-inequality", "-", fail is None, fail, pmfs=n_pmfs)]


def check_detailed_balance(ctx: VerifyContext) -> list[dict]:
    """Exact single-site balance of the Glauber chain on C4: the proposal
    kernel over the 19 anchored M = 1 states is symmetric."""
    c4 = cycle_graph(4)
    states = [f.values for f in enumerate_onepoint(c4, 0, 1, budget=ctx.budget)]
    index = {s: i for i, s in enumerate(states)}
    probs: dict[tuple[int, int], Fraction] = {}
    for s in states:
        for v in (1, 2, 3):
            lo, hi = glauber_site_interval(s, c4.neighbors(v), 1)
            for c in range(lo, hi + 1):
                t = s[:v] + (c,) + s[v + 1:]
                if t not in index:  # the enumeration missed a state the chain reaches
                    return [_verdict("detailed-balance", "C4", False,
                                     {"move_outside_enumeration": [list(s), list(t)]})]
                key = (index[s], index[t])
                probs[key] = probs.get(key, Fraction(0)) + Fraction(1, 3 * (hi - lo + 1))
    asym = next(((i, j) for (i, j), p in probs.items() if probs.get((j, i), Fraction(0)) != p), None)
    return [_verdict("detailed-balance", "C4", asym is None,
                     asym and {"states": [list(states[i]) for i in asym]})]


def check_reproducibility(ctx: VerifyContext) -> list[dict]:
    """Two runs of one range experiment give byte-identical CSV."""
    cfg = parse_config({"schema": 1, "graph": {"family": "cycle", "n": 4}, "M": 1,
                        "mode": {"kind": "one-point", "v0": 0}, "sampler": {"kind": "exact"},
                        "samples": 50, "seed": (ctx.seed + 7) % 2**64, "probes": [2]})
    first = run_range_experiment(cfg).csv_text()
    return [_verdict("reproducibility", "C4", first == run_range_experiment(cfg).csv_text(), None)]


# Run in this order on every regular graph, then once per suite; the fuzz
# checks draw on the shared stream, so reordering them changes their data.
GRAPH_CHECKS = (
    check_expander_certificate,
    check_expander_props,
    check_ground_state_existence,
    check_count_enumeration,
    check_translation_bijection,
    check_covering_inequality,
    check_tail_inequality,
    check_core_closure,
    check_boundary_ordering_fuzz,
    check_containers,
)
SUITE_CHECKS = (check_entropy, check_cover_inequality, check_detailed_balance, check_reproducibility)


def run_checks(graphs: list[Graph], ctx: VerifyContext, graph_checks: tuple,
               suite_checks: tuple) -> tuple[list[dict], dict]:
    """The rows of `graph_checks` on each regular graph in turn, then of
    `suite_checks`, on `ctx`'s one stream (a graph that is not regular, or
    of degree 0, gets one skipped row), and each check's wall time summed
    under its name."""
    elapsed = dict.fromkeys((c.__name__ for c in graph_checks + suite_checks), 0.0)

    def timed(check, *args):
        start = time.perf_counter()
        out = check(*args)
        elapsed[check.__name__] += time.perf_counter() - start
        return out

    rows: list[dict] = []
    for g in graphs:
        sg = SuiteGraph(g)
        if not g.is_regular() or g.regular_degree() == 0:
            reason = "d = 0" if g.is_regular() else "graph not regular"
            rows.append(_row("expander-certificate", sg.name, "skipped", reason=reason))
            continue
        for check in graph_checks:
            rows.extend(timed(check, sg, ctx))
    for check in suite_checks:
        rows.extend(timed(check, ctx))
    return rows, elapsed


def run_verify_suite(graphs: list[Graph] | None = None, seed: int = 0,
                     budget: int = DEFAULT_NODE_BUDGET, fuzz_scale: int = 1,
                     graph_specs: list[str] | None = None) -> dict:
    """One consolidated pass/fail/skipped matrix over every finitely checkable
    claim the library implements.  Every failing row carries a witness and a
    reproduction command; skipped rows name the violated hypothesis.
    `graph_specs` are the `--graph` arguments that `graphs` were built from,
    in order, for that command; graphs given without them appear in it as
    `--graph <name>` placeholders.  `elapsed_s` sums each registry entry's
    wall time over the graphs; a graph's certificates are computed, and
    timed, in `check_expander_certificate`, which reads them first."""
    if not is_int(fuzz_scale) or fuzz_scale < 1:
        raise ConfigError(f"fuzz_scale must be an integer >= 1, got {fuzz_scale!r}")
    rows, elapsed = run_checks(default_suite_graphs() if graphs is None else graphs,
                               VerifyContext(seed, budget, fuzz_scale), GRAPH_CHECKS, SUITE_CHECKS)

    repro = f"liplab verify --seed {seed} --fuzz-scale {fuzz_scale} --budget {budget}"
    if graph_specs is not None:
        repro += "".join(f" --graph {shlex.quote(spec)}" for spec in graph_specs)
    elif graphs is not None:
        repro += "".join(f" --graph <{SuiteGraph(g).name}>" for g in graphs)
    for r in rows:
        if r["status"] == "fail":
            r["repro"] = f"{repro}  # check={r['check']} graph={r['graph']}"
    n_fail = sum(1 for r in rows if r["status"] == "fail")
    return {
        "rows": rows,
        "n_fail": n_fail,
        "n_pass": sum(1 for r in rows if r["status"] == "pass"),
        "n_skipped": sum(1 for r in rows if r["status"] in ("skipped", "sampled")),
        "ok": n_fail == 0,
        "elapsed_s": elapsed,
    }


def _random_linked_set(g: Graph, rng: np.random.Generator) -> int:
    """A random vertex, grown up to twice by the first vertex, in a shuffled
    order, that keeps the set 4-linked; as a mask."""
    s = 1 << int(rng.integers(0, g.n))
    for _ in range(int(rng.integers(0, 3))):
        cands = [u for u in range(g.n) if not s >> u & 1]
        rng.shuffle(cands)
        for u in cands:
            if is_k_linked(g, s | 1 << u, 4):
                s |= 1 << u
                break
    return s


def _random_lipschitz_rows(g: Graph, ms, rng: np.random.Generator) -> np.ndarray:
    """One random M-Lipschitz function per entry M of `ms`, as the rows of an
    int64 value array.  A row walks breadth first from a uniform root, and
    each vertex is uniform on [max - M, min + M] over its assigned neighbours
    ([-M, M] at the root); a row that meets an empty interval starts over
    from its root.  One `integers` call per walk position serves every row
    still walking, and each row's bounds live in `(rows, n)` arrays that a
    vertex's value tightens at its neighbours in one scatter."""
    ms = np.asarray(ms, dtype=np.int64)
    rows, n, table = len(ms), g.n, g.neighbor_table
    roots, inverse = np.unique(rng.integers(0, n, size=rows), return_inverse=True)
    orders = np.array([bfs_order(g, r) for r in roots.tolist()], dtype=np.intp).reshape(-1, n)[inverse]
    vals = np.empty((rows, n), dtype=np.int64)
    todo = np.arange(rows)
    while len(todo):  # the rows still to draw, each from its root
        m, order, walking = ms[todo], orders[todo], np.arange(len(todo))
        lo = np.full((len(todo), n), np.iinfo(np.int64).min)
        hi = np.full((len(todo), n), np.iinfo(np.int64).max)
        lo[walking, order[:, 0]], hi[walking, order[:, 0]] = -m, m
        for i in range(n):
            v = order[walking, i]
            a, b = lo[walking, v], hi[walking, v]
            keep = a <= b
            walking, v, a, b = walking[keep], v[keep], a[keep], b[keep]
            if not len(walking):
                break
            x = rng.integers(a, b + 1)
            vals[todo[walking], v] = x
            nbrs = table[v]
            at = walking[:, None]
            lo[at, nbrs] = np.maximum(lo[at, nbrs], (x - m[walking])[:, None])
            hi[at, nbrs] = np.minimum(hi[at, nbrs], (x + m[walking])[:, None])
        todo = np.delete(todo, walking)
    return vals


def _random_lipschitz(g: Graph, M: int, rng: np.random.Generator) -> LipschitzFn:
    """One row of `_random_lipschitz_rows`, as a `LipschitzFn`."""
    return LipschitzFn(tuple(_random_lipschitz_rows(g, [M], rng)[0].tolist()), M)
