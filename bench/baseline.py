"""Measure the benchmark's baseline and write ``bench/baseline.json``.

    python3 bench/baseline.py [--seeds 10] [--seconds 25] [--workloads verify exact ...] [--out PATH]

Run from the repository root.  For each workload, ``run.py`` runs once per
seed ``0 .. seeds-1`` with ``--trace 0``, one run after another, then once at
seed 0 with ``--trace 1``.  The end-to-end metrics get their median, quartiles
(``statistics.quantiles(n=4)``) and spread ``(q3 - q1) / median``; the spread
of each metric is printed beside its bound from ``BENCHMARK.json``, with the
mean wall time of one run (``run_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result line and its detailed record."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed its checks:\n{proc.stdout[-2000:]}")
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return {"result": result, "record": record}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": len(values), "values": values}


def _host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPUs, {model}"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    workloads, provenance = {}, None
    for workload in args.workloads:
        t0 = time.perf_counter()
        runs = [_run(workload, seed, args.seconds, 0) for seed in range(args.seeds)]
        traced = _run(workload, 0, args.seconds, 1)
        per_run = (time.perf_counter() - t0) / (args.seeds + 1)
        provenance = runs[0]["record"]["provenance"]
        end_to_end = {name: _quartiles([r["result"]["metrics"][name]["value"] for r in runs])
                      for name in bounds}
        workloads[workload] = {
            "end_to_end": end_to_end,
            "run_s": per_run,
            "commands_seed0": [{"label": c["label"], "fastest_s": min(c["times_s"]), "counters": c["counters"]}
                               for c in runs[0]["record"]["commands"]],
            "per_layer_seed0": {name: m["value"] for name, m in traced["result"]["metrics"].items()},
        }
        print(f"{workload:<8} {per_run:.1f} s per run", flush=True)
        for name, q in end_to_end.items():
            print(f"{workload:<8} {name:<12} median {q['median']:10.4f}  spread {q['spread']:.3f}"
                  f"  (bound {bounds[name]}, a third {bounds[name] / 3:.3f})", flush=True)

    baseline = {
        "method": f"end_to_end: {args.seeds} runs per workload, seeds 0-{args.seeds - 1}, "
                  f"--seconds {args.seconds} --trace 0, one after another; quartiles by "
                  "statistics.quantiles(n=4), spread = (q3 - q1) / median. commands_seed0: fastest "
                  "time per command in the seed-0 run. per_layer_seed0: one --trace 1 run at seed 0 "
                  "(bench/baseline.py).",
        "host": _host(),
        "workloads": workloads,
        "provenance": provenance,
    }
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
