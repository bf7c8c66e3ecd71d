"""The benchmark's tracer (`bench/tracing.py`) wraps liplab entry points by
module and name, and the bench scripts import liplab names.  These tests
read those files without importing them as modules, so a renamed entry
point fails here rather than in a bench run."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

from liplab.cli import main
from liplab.containers import enumerate_linked_sets
from liplab.graphs import cycle_graph, petersen_graph
from liplab.lipschitz import count_onepoint

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _tracing() -> dict:
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_target_resolves():
    targets = _tracing()["TARGETS"]
    assert targets
    for module, attr, _, _ in targets:
        owner = importlib.import_module(f"liplab.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), f"liplab.{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"liplab.{module}.{attr}"


def test_every_bench_import_resolves():
    """Each `from liplab... import name` in a bench script, at any depth of
    the file, names an attribute or submodule of that liplab module."""
    imported = []
    for script in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), str(script))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "liplab":
                imported += [(script.name, node.module, alias.name) for alias in node.names]
    assert ("reference.py", "liplab.lipschitz", "fn_range") in imported
    for script, module, name in imported:
        owner = importlib.import_module(module)
        submodule = hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        assert hasattr(owner, name) or submodule, f"{script}: {module}.{name}"


def test_traced_cli_count_reaches_the_count_counters(capsys):
    tracing = _tracing()
    tracer = tracing["Tracer"]()
    with tracing["installed"](tracer):
        assert main(["count", "--graph", '{"family":"cycle","n":4}', "--M", "1"]) == 0
    capsys.readouterr()
    summary = tracer.summary()
    assert summary["lipschitz.count.calls"] == 1
    assert summary["lipschitz.count.nodes"] == count_onepoint(cycle_graph(4), 0, 1).nodes_explored


def test_traced_cli_enumerate_counts_members_and_builds_no_sampler(capsys):
    tracing = _tracing()
    tracer = tracing["Tracer"]()
    with tracing["installed"](tracer):
        assert main(["enumerate", "--graph", '{"family":"cycle","n":4}', "--M", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = tracer.summary()
    assert len(lines) == 19
    assert summary["lipschitz.enumerate.members"] == len(lines)
    # enumeration unranks the compiled DP without building an `ExactSampler`
    assert summary.get("lipschitz.sampler_build.calls", 0) == 0


def test_traced_cli_containers_enumerates_the_linked_sets_once(capsys):
    # the tracer wraps only modules already imported; importing
    # `enumerate_linked_sets` above loads `liplab.containers`, which the CLI imports lazily
    n_sets = len(enumerate_linked_sets(petersen_graph(), 0, 8, 4))
    tracing = _tracing()
    tracer = tracing["Tracer"]()
    with tracing["installed"](tracer):
        assert main(["containers", "--graph", '{"family":"petersen"}', "--boundary-size", "8",
                     "--linkage", "4", "--lambda-source", "exhaustive"]) == 0
    out = json.loads(capsys.readouterr().out)
    summary = tracer.summary()
    assert summary["containers.linked_sets.calls"] == 1
    assert summary["containers.linked_sets.sets"] == out["n_sets"] == out["count_report"]["count"] == n_sets == 78
