"""Command-line interface.

Exit codes: 0 success, 1 check failure, 2 usage or config error, 3 budget
exceeded, 4 internal error (an unexpected exception, reported on one line of
stderr as ``internal error: <Type>: <message>``).  Graph arguments accept
either inline JSON (``{"family": "cycle", "n": 8}``) or a path to an
edge-list file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from .errors import BudgetExceededError, ConfigError, GenerationError
from .expanders import (
    EXHAUSTIVE_CAP,
    adjacency_spectrum,
    spectral_lambda,
    verify_expander_props,
)
from .experiments import (
    build_graph,
    check_lambda_source,
    load_config,
    parse_config,
    parse_ensemble,
    report_json,
    resolve_ensemble,
    resolve_profile,
    run_covering_check,
    run_range_experiment,
    run_tail_experiment,
    run_verify_suite,
    write_files,
)
from .flaws import core_within_cluster_interior, flaw_decomposition
from .graphs import DEFAULT_NODE_BUDGET, mask_vertices, save_edge_list
from .lipschitz import (
    count_groundstate,
    count_onepoint,
    enumerate_groundstate,
    enumerate_onepoint,
    load_function,
    validate,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _graph_source(arg: str) -> dict:
    """The graph source dict behind a ``--graph`` argument: inline JSON or
    ``{"path": arg}`` for an edge-list file."""
    if arg.strip().startswith("{"):
        try:
            return json.loads(arg)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad graph JSON: {exc}") from exc
    return {"path": arg}


def _int_at_least(low: int):
    """An argparse type: an integer >= `low`."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
    return parse


def _seed(text: str) -> int:
    """An argparse type: a seed, an integer in [0, 2^64)."""
    try:
        if 0 <= int(text) < 2**64:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")


_FLAGS = {
    "seed": dict(type=_seed, default=0, help="seed for stochastic steps, an integer in [0, 2^64)"),
    "out": dict(default=None, help="output directory"),
    "budget": dict(type=_int_at_least(1), default=DEFAULT_NODE_BUDGET,
                   help="node budget for exhaustive routines; for Lipschitz counts, "
                        "samplers and enumerations it counts DP transitions"),
    "graph": dict(required=True, help="generator JSON or edge-list path"),
    "M": dict(type=int, required=True, help="Lipschitz constant"),
    "mode": dict(choices=["one-point", "ground-state"], default="one-point"),
    "v0": dict(type=int, default=None, help="anchor vertex of the one-point ensemble (default 0)"),
    "k": dict(type=int, default=None, help="window base of the ground-state ensemble (default 0)"),
    "lambda-source": dict(default="spectral", help="spectral | exhaustive | a number to assert"),
}
# the flags that name an ensemble; checked by the config's ensemble-key checks
_ENSEMBLE = ("graph", "M", "mode", "v0", "k", "lambda-source")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the shared flags a subcommand reads, and only those."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _emit(obj, out_dir, filename) -> None:
    """Print the report `obj`, and write it to `filename` under `out_dir` if given."""
    text = report_json(obj)
    if out_dir:
        write_files(out_dir, {filename: text})
    print(text, end="")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liplab",
                                     description="Exact and Monte-Carlo study of integer "
                                                 "Lipschitz functions on finite graphs")
    # exact flag names only: with abbreviations a dropped flag could still
    # resolve to another one (`gen-graph --out` to `--out-file`)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("gen-graph", help="generate a graph and save its edge list")
    _add_flags(p, "graph")
    p.add_argument("--out-file", required=True)

    p = sub.add_parser("spectrum", help="adjacency spectrum and expansion certificates")
    _add_flags(p, "graph")
    p.add_argument("--exhaustive", action="store_true",
                   help=f"also run the sorted-prefix subset sweep (n <= {EXHAUSTIVE_CAP})")
    p.add_argument("--props", action="store_true", help="verify structural consequences")
    _add_flags(p, "seed", "out")

    p = sub.add_parser("count", help="count an ensemble exactly")
    _add_flags(p, *_ENSEMBLE, "budget", "out")

    p = sub.add_parser("enumerate", help="stream ensemble members as JSON lines")
    _add_flags(p, *_ENSEMBLE)
    p.add_argument("--limit", type=_int_at_least(0), default=None, help="stop after this many members")
    _add_flags(p, "budget")

    p = sub.add_parser("sample", help="run the range experiment on these flags and print its CSV")
    _add_flags(p, *_ENSEMBLE)
    p.add_argument("--sampler", choices=["exact", "glauber"], default="exact")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--probes", type=int, nargs="*", default=None,
                   help="vertices whose values are reported (default: the anchor)")
    _add_flags(p, "seed", "budget", "out")

    p = sub.add_parser("flaws", help="cluster/core decomposition of a stored function")
    _add_flags(p, "graph")
    p.add_argument("--function", required=True, help="path to {'M':..,'values':..} JSON")
    p.add_argument("--anchor", type=int, required=True)
    p.add_argument("--base", type=int, default=0)
    _add_flags(p, "out")

    p = sub.add_parser("containers", help="build an approximating-pair family")
    _add_flags(p, "graph")
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--boundary-size", type=_int_at_least(0), required=True)
    p.add_argument("--linkage", type=int, default=4)
    p.add_argument("--psi", type=float, default=1.0)
    _add_flags(p, "lambda-source", "seed", "budget", "out")

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("kind", choices=["range", "tail", "covering"])
    p.add_argument("--config", required=True)
    _add_flags(p, "out")

    p = sub.add_parser("verify", help="run the consolidated verification suite")
    p.add_argument("--graph", action="append", default=None,
                   help="extra graph (JSON or path); repeatable, replaces the default set")
    p.add_argument("--fuzz-scale", type=int, default=1)
    _add_flags(p, "seed", "budget", "out")

    return parser


def _resolve_lambda_arg(arg: str):
    if arg in ("spectral", "exhaustive"):
        return arg
    try:
        return {"asserted": float(arg)}
    except ValueError as exc:
        raise ConfigError(f"bad --lambda-source {arg!r}") from exc


def _ensemble_keys(args) -> dict:
    """The config keys that the ensemble flags stand for; `parse_ensemble`
    checks them as it checks a config's.  The flag of the other mode is
    refused, as a config mode that names both `v0` and `k` is."""
    key, other = ("v0", "k") if args.mode == "one-point" else ("k", "v0")
    if getattr(args, other) is not None:
        raise ConfigError(f"--{other} does not apply to {args.mode} mode")
    value = getattr(args, key)
    mode = {"kind": args.mode, key: 0 if value is None else value}
    return {"graph": _graph_source(args.graph), "M": args.M, "mode": mode,
            "lambda_source": _resolve_lambda_arg(args.lambda_source)}


def _cmd_gen_graph(args) -> int:
    g = build_graph(_graph_source(args.graph))
    save_edge_list(g, args.out_file)
    print(json.dumps({"name": g.name, "n": g.n, "m": g.m, "file": args.out_file}))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = build_graph(_graph_source(args.graph))
    # refuses n > EXHAUSTIVE_CAP with the config error of `lambda_source`
    exhaustive = resolve_profile(g, "exhaustive") if args.exhaustive else None
    out = {"name": g.name, "n": g.n, "regular": g.is_regular()}
    if g.is_regular():
        out["d"] = g.regular_degree()
        out["eigenvalues"] = [float(v) for v in adjacency_spectrum(g)]
        prof = spectral_lambda(g)
        out["lam_spectral"] = prof.lam
        if exhaustive:
            prof = exhaustive
            out["lam_exhaustive"] = prof.lam
        if args.props:
            out["props"] = verify_expander_props(g, prof, seed=args.seed)
    _emit(out, args.out, "spectrum.json")
    if args.props and not out.get("props", {}).get("all_ok", True):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _on_ensemble(args, onepoint, groundstate):
    """`onepoint(g, v0, M)` or `groundstate(g, k, M, lam)`, with the budget
    flag, on the ensemble the flags name."""
    ens = resolve_ensemble(parse_ensemble(_ensemble_keys(args)))
    g, spec = ens.g, ens.spec
    if spec.mode == "one-point":
        return onepoint(g, spec.v0, spec.M, budget=args.budget)
    return groundstate(g, spec.k, spec.M, spec.lam, budget=args.budget)


def _cmd_count(args) -> int:
    res = _on_ensemble(args, count_onepoint, count_groundstate)
    _emit(res.__dict__, args.out, "count.json")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    stream = _on_ensemble(args, enumerate_onepoint, enumerate_groundstate)
    for f in islice(stream, args.limit):
        print(json.dumps({"M": f.M, "values": list(f.values)}))
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = parse_config(
        {
            "schema": 1,
            **_ensemble_keys(args),
            "sampler": {"kind": args.sampler},
            "samples": args.samples,
            "seed": args.seed,
            "budget": args.budget,
            # left out when not given, so the probes default to the anchor as in a config
            **({} if args.probes is None else {"probes": args.probes}),
        }
    )
    text = run_range_experiment(cfg).csv_text()
    if args.out:
        write_files(args.out, {"samples.csv": text})
    print(text, end="")
    return EXIT_OK


def _cmd_flaws(args) -> int:
    g = build_graph(_graph_source(args.graph))
    f = load_function(args.function)
    if not validate(g, f):  # a length mismatch raises ValueError, also exit 2
        raise ConfigError(f"{args.function}: values are not {f.M}-Lipschitz on {g.name}")
    dec = flaw_decomposition(g, f, args.anchor, args.base)
    out = {
        "anchor": dec.anchor,
        "base": dec.base,
        "M": dec.M,
        "cluster": mask_vertices(dec.cluster),
        "core": mask_vertices(dec.core),
        "cluster_threshold": dec.cluster_threshold,
        "core_threshold": dec.core_threshold,
    }
    if dec.core:
        out["core_in_cluster_interior"] = core_within_cluster_interior(dec, g)
    _emit(out, args.out, "flaws.json")
    return EXIT_OK


def _cmd_containers(args) -> int:
    from .containers import (
        build_container_family,
        count_report_csv,
        family_to_json_lines,
        linked_set_count_report,
    )

    g = build_graph(_graph_source(args.graph))
    profile = resolve_profile(g, check_lambda_source(_resolve_lambda_arg(args.lambda_source)))
    if profile is None:
        raise ConfigError("container pipeline requires a regular graph")
    if profile.d == 0:
        raise ConfigError("container pipeline requires degree d >= 1, got d = 0")
    fam = build_container_family(
        g, args.vertex, args.boundary_size, args.linkage, args.psi, profile,
        seed=args.seed, budget=args.budget,
    )
    report = linked_set_count_report(fam.n_sets, args.boundary_size, args.linkage, profile)
    if args.out:
        write_files(args.out, {"family.jsonl": "".join(line + "\n" for line in family_to_json_lines(fam)),
                               "container_report.csv": count_report_csv([report])})
    print(report_json({
        "vertex": fam.vertex,
        "boundary_size": fam.boundary_size,
        "linkage": fam.linkage,
        "psi": fam.psi,
        "n_sets": fam.n_sets,
        "n_pairs": len(fam.pairs),
        "covers_all": fam.covers_all,
        "stats": fam.stats,
        "count_report": report,
    }), end="")
    return EXIT_OK if fam.covers_all or fam.n_sets == 0 else EXIT_CHECK_FAILED


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out
    if args.kind == "covering":
        report = run_covering_check(cfg)
        _emit(report, out_dir, "covering.json")
        return EXIT_CHECK_FAILED if report.get("status") == "fail" else EXIT_OK
    result = run_range_experiment(cfg) if args.kind == "range" else run_tail_experiment(cfg)
    if out_dir:
        paths = result.write(out_dir)
        print(json.dumps({"written": paths}, sort_keys=True))
    else:
        print(report_json({"aggregates": result.aggregates, "gates": result.gates}), end="")
    if args.kind == "tail" and result.aggregates["asserted_violations"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_verify(args) -> int:
    graphs = None
    if args.graph:
        graphs = [build_graph(_graph_source(spec)) for spec in args.graph]
    suite = run_verify_suite(graphs=graphs, seed=args.seed, budget=args.budget,
                             fuzz_scale=args.fuzz_scale, graph_specs=args.graph)
    if args.out:
        _emit(suite, args.out, "verify_report.json")
    width = max(len(r["check"]) for r in suite["rows"]) + 2
    for r in suite["rows"]:
        print(f"{r['check']:<{width}} {r['graph']:<12} {r['status']}")
        if r["status"] == "fail":
            print(f"  witness: {r.get('witness')}")
            print(f"  repro:   {r.get('repro')}")
        elif r["status"] == "skipped" and r.get("reason"):
            print(f"  reason: {r['reason']}")
    print(f"\n{suite['n_pass']} pass, {suite['n_fail']} fail, {suite['n_skipped']} skipped/sampled")
    return EXIT_OK if suite["ok"] else EXIT_CHECK_FAILED


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "spectrum": _cmd_spectrum,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
    "flaws": _cmd_flaws,
    "containers": _cmd_containers,
    "experiment": _cmd_experiment,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, GenerationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other fault is a bug, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
