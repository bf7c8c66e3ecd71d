"""Recompute bench/reference.json: exact ensemble statistics that the
benchmark's sampler checks compare against.

Run from the repository root: ``python3 bench/reference.py > bench/reference.json``.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from liplab.graphs import hypercube_graph  # noqa: E402
from liplab.lipschitz import enumerate_onepoint, fn_range  # noqa: E402


def q4_range_stats() -> dict:
    """Mean and variance of fn_range over every 1-Lipschitz f on Q4 with f(0) = 0."""
    members = total = total_sq = 0
    for f in enumerate_onepoint(hypercube_graph(4), 0, 1):
        r = fn_range(f)
        members += 1
        total += r
        total_sq += r * r
    mean = Fraction(total, members)
    var = Fraction(total_sq, members) - mean * mean
    return {
        "graph": {"family": "hypercube", "dim": 4},
        "M": 1,
        "v0": 0,
        "members": members,
        "range_sum": total,
        "range_sq_sum": total_sq,
        "mean": float(mean),
        "variance": float(var),
        "method": "exact: liplab.lipschitz.enumerate_onepoint over the whole ensemble "
                  "(bench/reference.py)",
    }


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


if __name__ == "__main__":
    ref = q4_range_stats()
    ref["commit"] = commit()
    print(json.dumps({"q4_onepoint_M1_range": ref}, indent=2))
