"""Benchmark set-up: import ``liplab.cli``, write a workload's inputs and make
the process's first threaded LAPACK call.

The first LAPACK call of a fresh process intermittently costs about a second
on a 2-core box (OpenBLAS start-up); making it here puts that cost in the
set-up time instead of in the first timed command.

``run.py`` runs this file as a fresh process several times and times it from
start to its ``ready`` line:

    python3 bench/probe.py ROOT WORKLOAD SEED WORK_DIR

The line also gives the seconds spent in the ``pace.Sampler`` ticks and the
host's slowdown during set-up: ``ready BUSY SLOWDOWN``.
"""

from __future__ import annotations

import os
import sys


def setup(root: str, workload: str, seed: int, work_dir: str):
    """Returns ``(liplab.cli, commands)``."""
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np

    from liplab import cli

    import workloads

    commands = workloads.write_inputs(workload, seed, work_dir)
    a = np.arange(200 * 200, dtype=np.float64).reshape(200, 200) % 7.0
    np.linalg.eigh(a + a.T)
    return cli, commands


if __name__ == "__main__":
    import pace

    root_arg, workload_arg, seed_arg, work_arg = sys.argv[1:]
    with pace.Sampler() as sampler:
        setup(root_arg, workload_arg, int(seed_arg), work_arg)
    print("ready", sampler.busy, sampler.slowdown, flush=True)
