"""liplab benchmark.

    python3 bench/run.py --workload {verify,exact,mcmc,certify} --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload's commands (``bench/workloads.py``)
go through ``liplab.cli.main(argv)`` in this process, one at a time (a closed
loop with one client), stdout captured, outputs in a temporary directory
under ``.bench_tmp/``.  Rounds of the whole command list repeat until
``--seconds`` have passed; every command's output is checked in every round,
and its counters and ``results.csv`` hash must repeat exactly across rounds.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

* ``ref_wall_s`` -- the sum over the commands of each command's median time
  at reference speed.  Other load on a shared host slowed a fixed loop by up
  to 2x on a 2-vCPU VM, in stretches from a fraction of a second to longer
  than a run, so raw times spread 0.11-0.26 of their median over five seeds.
  ``pace.Sampler`` measures the host's slowdown during each command and
  divides it out; the same runs then spread 0.03.
* ``setup_s`` -- the median over fresh set-up processes (``probe.py``) of
  the time from process start to set-up done, also at reference speed.
* ``peak_rss_mb`` -- the run process's peak RSS.

Before each command the heap is collected, untimed.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics: the raw
``wall_s`` and ``setup_raw_s`` with the host's median ``host.slowdown``, the
command-group times of the untraced rounds (at reference speed), the spans of
the traced rounds (``tracing.py``; raw, fastest over the traced rounds) and
``trace.overhead_frac`` (traced over untraced time, minus 1).  The last
stdout line is the JSON result; a detailed record (provenance, counters,
hashes, per-round raw and reference times) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata

import pace
import tracing
import workloads
from probe import setup

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
GROUPS = ("verify", "count", "range_exact", "tail", "range_glauber", "spectrum", "containers")


def _probe_setup(workload: str, seed: int, work_dir: str) -> tuple[float, float]:
    """Seconds from starting a fresh process to its set-up being done, and
    the same at reference speed (``pace``)."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), ROOT, workload, str(seed), work_dir],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    word, *numbers = line.split() or [""]
    if word != "ready" or len(numbers) != 2 or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    busy, slowdown = map(float, numbers)
    return elapsed - busy, (elapsed - busy) / slowdown


def _openblas_threads():
    """Thread count of the OpenBLAS loaded by numpy, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _provenance() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the checkout need not be a git repository; src_sha256 identifies the code
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_threads": _openblas_threads(),
    }


def _run_command(cli, cmd, tracer):
    """Run one command; returns (seconds, seconds at reference speed, its
    Output, error text or None).  The first excludes the sampler's ticks."""
    shutil.rmtree(cmd.out_dir, ignore_errors=True)
    buf, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{cmd.argv[0]}") if tracer is not None else contextlib.nullcontext()
    error = None
    gc.collect()  # each command starts from the same heap, whatever the previous one left
    with pace.Sampler() as sampler:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err), span:
                code = cli.main(list(cmd.argv))
        except Exception:  # an uncaught error is a failed command; keep running the workload
            code = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0 - sampler.busy
    if code not in (0, None):
        error = err.getvalue()[-500:]
    out = workloads.Output(code if code is not None else -1, buf.getvalue(), cmd.out_dir)
    return elapsed, elapsed / sampler.slowdown, out, error


def _run_round(cli, commands, tracer=None) -> dict:
    times, ref_times, outputs, errors = [], [], [], []
    for cmd in commands:
        elapsed, ref_elapsed, out, error = _run_command(cli, cmd, tracer)
        times.append(elapsed)
        ref_times.append(ref_elapsed)
        outputs.append(out)
        errors.append(error)
    counters, failures = [], []
    for cmd, out, error in zip(commands, outputs, errors):
        try:
            counters.append(cmd.check(out))
        except Exception as exc:  # any error while checking means the output is wrong
            counters.append(None)
            failures.append({"command": cmd.label, "error": f"{type(exc).__name__}: {exc}",
                             "stderr": error})
    return {"traced": tracer is not None, "times": times, "ref_times": ref_times, "wall_s": sum(times),
            "counters": counters, "failures": failures}


def _medians(rounds, key: str = "ref_times") -> list[float]:
    """Each command's median time over ``rounds`` (at reference speed by default)."""
    return [statistics.median(ts) for ts in zip(*(r[key] for r in rounds))]


def _group_metrics(commands, medians) -> dict:
    """Each command group's time, and Glauber chain steps per second."""
    out = {f"{group}_s": sum((t for c, t in zip(commands, medians) if c.group == group), 0.0)
           for group in GROUPS}
    chain = sum(t for c, t in zip(commands, medians) if c.chain_steps)
    out["chain_steps_per_s"] = sum(c.chain_steps for c in commands) / chain if chain else 0.0
    return out


def _layer_metrics(summaries) -> dict:
    """Times: fastest over the traced rounds.  Counts: the last traced round
    (the determinism check compares command outputs across rounds)."""
    out = {}
    for name in set().union(*summaries):
        values = [s.get(name, 0) for s in summaries]
        out[name] = min(values) if name.endswith("_s") else values[-1]
    calls = out.get("containers.cover.calls", 0)
    out["containers.cover.met_bound_frac"] = out.pop("containers.cover.met_bound", 0) / calls if calls else 0.0
    return out


def _measure(args) -> tuple[list[float], list, list[dict], list]:
    """Set-up probes, then rounds until ``args.seconds`` have passed.  In a
    traced run every second round is traced (at least one of each)."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        setups = [_probe_setup(args.workload, args.seed, os.path.join(work, f"probe{i}"))
                  for i in range(SETUP_PROBES)]
        cli, commands = setup(ROOT, args.workload, args.seed, os.path.join(work, "run"))
        rounds, spans = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds or (args.trace and len(rounds) < 2):
            if args.trace and len(rounds) % 2 == 1:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    rounds.append(_run_round(cli, commands, tracer))
                rounds[-1]["layers"] = tracer.summary()
                spans.append(tracer.spans)
            else:
                rounds.append(_run_round(cli, commands))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, commands, rounds, spans


def _check_repeats(commands, rounds) -> list:
    """Each command's counters (and hashes) must be identical in every round;
    a round that differs from the first checked one is a failure.  Returns
    the counters of each command."""
    counters = []
    for i, cmd in enumerate(commands):
        checked = [(r, r["counters"][i]) for r in rounds if r["counters"][i] is not None]
        for r, c in checked[1:]:
            if c != checked[0][1]:
                r["failures"].append({"command": cmd.label,
                                      "error": f"counters differ across rounds: {checked[0][1]} != {c}"})
        counters.append(checked[0][1] if checked else None)
    return counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "liplab", "cli.py")):
        print(f"error: no liplab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    setups, commands, rounds, spans = _measure(args)
    counters = _check_repeats(commands, rounds)
    attempted = len(commands) * len(rounds)
    failed = sum(len({f["command"] for f in r["failures"]}) for r in rounds)

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    medians = _medians(untraced)
    values = {
        "ref_wall_s": sum(medians),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": sum(_medians(untraced, "times")),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "host.slowdown": statistics.median(t / ref for r in untraced for t, ref in zip(r["times"], r["ref_times"])),
        "error_rate": failed / attempted,
        **_group_metrics(commands, medians),
    }
    if traced:
        values.update(_layer_metrics([r["layers"] for r in traced]))
        values["trace.overhead_frac"] = sum(_medians(traced)) / values["ref_wall_s"] - 1.0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    provenance = _provenance()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance,
        "setup_probes_s": [{"raw": raw, "ref": ref} for raw, ref in setups],
        "commands": [{"label": c.label, "group": c.group, "argv": list(c.argv),
                      "times_s": [r["times"][i] for r in rounds],
                      "ref_times_s": [r["ref_times"][i] for r in rounds], "counters": counters[i]}
                     for i, c in enumerate(commands)],
        "rounds": [{"traced": r["traced"], "wall_s": r["wall_s"], "failures": r["failures"]} for r in rounds],
        "values": values,
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if spans:
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "busy"], "rounds": spans}, fh)

    print("provenance:", json.dumps(provenance, sort_keys=True))
    print(f"{'command':<42} {'median s':>9} {'at ref s':>9}  counters")
    for c in record["commands"]:
        print(f"{c['label']:<42} {statistics.median(c['times_s']):9.4f} {statistics.median(c['ref_times_s']):9.4f}"
              f"  {c['counters']}")
    for r in rounds:
        for f in r["failures"]:
            print(f"FAIL {f['command']}: {f['error']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
